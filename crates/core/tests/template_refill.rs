//! Property-based tests of the symbolic/numeric split: solving through
//! a reused [`GeneratorTemplate`] (pattern refill + solver workspace)
//! must be **bit-identical** to the historical fresh path
//! (`GprsModel::new` + `assemble_sparse` + allocating solve) across
//! random configurations, rates and thread counts.

use gprs_core::sweep::{par_sweep_arrival_rates_mode, rate_grid, sweep_arrival_rates_mode};
use gprs_core::template::{GeneratorTemplate, WarmStart};
use gprs_core::{CellConfig, GprsModel, SolveRung};
use gprs_ctmc::mbd::{mbd_residual_of, solve_mbd_projected_ws};
use gprs_ctmc::{solve_mbd_projected_blocked_inplace_ws, BlockedMbd, SolveOptions, SolveWorkspace};
use gprs_traffic::SessionParams;
use proptest::prelude::*;

/// Strategy for small but varied cell configurations.
fn config_strategy() -> impl Strategy<Value = CellConfig> {
    (
        2usize..7,    // total channels
        0usize..3,    // reserved pdchs (clamped below)
        1usize..7,    // buffer capacity
        1usize..4,    // max sessions
        0.05f64..2.0, // arrival rate
        0.01f64..0.5, // gprs fraction
        0.3f64..1.0,  // eta
        1.0f64..30.0, // reading time
        0.05f64..2.0, // packet interarrival
    )
        .prop_map(|(n, reserved, k, m, rate, frac, eta, read, dd)| {
            CellConfig::builder()
                .total_channels(n)
                .reserved_pdchs(reserved.min(n - 1))
                .buffer_capacity(k)
                .max_gprs_sessions(m)
                .call_arrival_rate(rate)
                .gprs_fraction(frac)
                .tcp_threshold(eta)
                .traffic_params(SessionParams::new(3.0, read, 5.0, dd))
                .build()
                .expect("strategy yields valid configs")
        })
}

/// Strategy for the repeating pattern of a warm start: non-negative
/// weights, about a quarter of them exactly zero, with positive mass.
fn warm_pattern_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 1..40)
        .prop_map(|w| {
            w.into_iter()
                .map(|x| if x < 0.25 { 0.0 } else { x })
                .collect::<Vec<f64>>()
        })
        .prop_filter("positive mass", |w| w.iter().any(|&x| x > 0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refilled CSR matrices equal fresh assemblies bit for bit, for
    /// every rate relowered through the same template.
    #[test]
    fn refilled_matrix_equals_fresh_assembly(
        cfg in config_strategy(),
        rate_steps in proptest::collection::vec(0.1f64..3.0, 1..4),
    ) {
        let mut template = GeneratorTemplate::new(&cfg).unwrap();
        // Populate the pattern at the base rate...
        let base = GprsModel::new(cfg.clone()).unwrap();
        template.sparse_for(&base).unwrap();
        // ...then refill at each perturbed rate and compare bitwise.
        for step in rate_steps {
            let mut perturbed = cfg.clone();
            perturbed.call_arrival_rate = cfg.call_arrival_rate * step;
            let model = GprsModel::new(perturbed).unwrap();
            let fresh = model.assemble_sparse().unwrap();
            let refilled = template.sparse_for(&model).unwrap();
            prop_assert!(refilled.same_pattern(&fresh));
            prop_assert_eq!(refilled.num_nonzeros(), fresh.num_nonzeros());
            for s in 0..fresh.num_states() {
                prop_assert_eq!(refilled.row(s), fresh.row(s), "row {}", s);
                prop_assert_eq!(refilled.column(s), fresh.column(s), "column {}", s);
            }
            prop_assert_eq!(refilled.exit_rates(), fresh.exit_rates());
        }
    }

    /// A cold template solve is bit-identical to the fresh allocating
    /// path (`GprsModel::new` + `solve(opts, None)`): same stationary
    /// vector (exact `==`), same measures, same diagnostics.
    #[test]
    fn cold_template_solve_is_bit_identical_to_fresh_solve(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        let model = GprsModel::new(cfg.clone()).unwrap();
        let fresh = model.solve(&opts, None).unwrap();
        let mut template = GeneratorTemplate::new(&cfg).unwrap();
        // Solve twice through the template (forcing Cold the second
        // time): reusing the workspace must not perturb a single bit.
        for _ in 0..2 {
            let point = template.solve(&model, &opts, WarmStart::Cold).unwrap();
            prop_assert_eq!(template.stationary(), fresh.stationary().as_slice());
            prop_assert_eq!(point.measures, *fresh.measures());
            prop_assert_eq!(point.sweeps, fresh.sweeps());
            prop_assert_eq!(point.residual.to_bits(), fresh.residual().to_bits());
        }
    }

    /// The chunked warm-start contract makes sequential and parallel
    /// sweeps bit-identical at every thread count (1/2/8), including
    /// across chunk boundaries — in every warm-start mode, with the
    /// predict-and-verify surrogate on (`Predicted`) as well as off.
    #[test]
    fn sweeps_are_bit_identical_across_thread_counts(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        // Spans more than one WARM_CHUNK so chained starts, chunk heads
        // and ragged final chunks are all exercised.
        let rates = rate_grid(0.1, 1.0, 10);
        for warm in [WarmStart::Chained, WarmStart::Predicted] {
            let seq = sweep_arrival_rates_mode(&cfg, &rates, &opts, warm).unwrap();
            for threads in [1usize, 2, 8] {
                let par =
                    par_sweep_arrival_rates_mode(&cfg, &rates, &opts, threads, warm).unwrap();
                prop_assert_eq!(par.len(), seq.len());
                for (p, s) in par.iter().zip(&seq) {
                    prop_assert_eq!(p.measures, s.measures, "threads {}", threads);
                    prop_assert_eq!(p.sweeps, s.sweeps);
                    prop_assert_eq!(p.residual.to_bits(), s.residual.to_bits());
                    prop_assert_eq!(p.health.rung, s.health.rung);
                }
            }
        }
    }

    /// The predict-and-verify surrogate **never** serves a point whose
    /// true balance residual — recomputed from scratch on the vector
    /// the caller actually receives — exceeds the solve tolerance.
    /// This is the surrogate's safety contract; the recheck uses the
    /// scalar evaluator, the template's check the blocked one.
    #[test]
    fn surrogate_never_accepts_a_point_above_tolerance(cfg in config_strategy()) {
        let opts = SolveOptions::quick();
        let mut template = GeneratorTemplate::new(&cfg).unwrap();
        let mut served = 0usize;
        for &rate in rate_grid(0.1, 1.0, 6).iter() {
            let mut c = cfg.clone();
            c.call_arrival_rate = rate;
            let model = template.model_for(c).unwrap();
            let point = template.solve(&model, &opts, WarmStart::Predicted).unwrap();
            if point.health.rung == SolveRung::Surrogate {
                served += 1;
                // Zero solver sweeps by definition...
                prop_assert_eq!(point.sweeps, 0);
                // ...and the *recomputed* residual of the served vector
                // is exactly the checked one and within tolerance.
                let true_residual = mbd_residual_of(&model, template.stationary());
                prop_assert!(
                    true_residual <= opts.tolerance,
                    "surrogate served rate {} with true residual {} > {}",
                    rate, true_residual, opts.tolerance
                );
                prop_assert_eq!(point.residual.to_bits(), true_residual.to_bits());
            }
        }
        let stats = template.stats();
        prop_assert_eq!(stats.accepted, served);
        prop_assert!(stats.predicted >= stats.accepted);
    }

    /// The cache-blocked kernel every template solve runs reproduces
    /// the scalar kernel bit for bit: from the same warm start, a
    /// `BlockedMbd` capture plus the staged in-place solve gives the
    /// same stationary bits, sweeps, residual bits and residual
    /// evaluations as the scalar `solve_mbd_projected_ws` — and the
    /// blocked residual, the surrogate's evaluator, equals
    /// `mbd_residual_of` bitwise on the warm start and on the solution.
    #[test]
    fn blocked_kernel_is_bit_identical_to_scalar(
        cfg in config_strategy(),
        rate in 0.05f64..2.0,
        pattern in warm_pattern_strategy(),
    ) {
        let opts = SolveOptions::quick();
        let mut c = cfg.clone();
        c.call_arrival_rate = rate;
        let model = GprsModel::new(c).unwrap();
        let marginal = model.phase_marginal();
        let n = model.space().num_states();
        let warm: Vec<f64> = (0..n).map(|i| pattern[i % pattern.len()]).collect();

        let mut ws_s = SolveWorkspace::new();
        let scalar = solve_mbd_projected_ws(&model, &marginal, Some(&warm), &opts, &mut ws_s)
            .unwrap();

        let mut blocked = BlockedMbd::new();
        blocked.capture(&model);
        let mut scratch = Vec::new();
        prop_assert_eq!(
            blocked.residual(&warm, &mut scratch).to_bits(),
            mbd_residual_of(&model, &warm).to_bits()
        );
        let mut ws_b = SolveWorkspace::new();
        let staged = ws_b.pi_mut();
        staged.clear();
        staged.extend_from_slice(&warm);
        let fast = solve_mbd_projected_blocked_inplace_ws(&blocked, &marginal, &opts, &mut ws_b)
            .unwrap();

        prop_assert_eq!(scalar.sweeps, fast.sweeps);
        prop_assert_eq!(scalar.residual.to_bits(), fast.residual.to_bits());
        prop_assert_eq!(scalar.residual_evals, fast.residual_evals);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(ws_s.pi()), bits(ws_b.pi()));
        prop_assert_eq!(
            blocked.residual(ws_b.pi(), &mut scratch).to_bits(),
            mbd_residual_of(&model, ws_s.pi()).to_bits()
        );
    }
}

/// [`gprs_core::TemplateStats`] accumulate across the template's whole
/// lifetime — chain resets preserve them, only an explicit
/// [`GeneratorTemplate::reset_stats`] clears.
#[test]
fn template_stats_accumulate_across_chain_resets() {
    let cfg = CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(5)
        .max_gprs_sessions(2)
        .call_arrival_rate(0.4)
        .build()
        .unwrap();
    let opts = SolveOptions::quick();
    let mut template = GeneratorTemplate::new(&cfg).unwrap();

    let solve_rates = |template: &mut GeneratorTemplate, rates: &[f64]| {
        for &rate in rates {
            let mut c = cfg.clone();
            c.call_arrival_rate = rate;
            let model = template.model_for(c).unwrap();
            template.solve(&model, &opts, WarmStart::Predicted).unwrap();
        }
    };

    solve_rates(&mut template, &[0.3, 0.35, 0.4]);
    let first = template.stats();
    assert_eq!(first.solves, 3);
    assert!(first.total_sweeps > 0);
    assert!(first.residual_checks > 0);
    // Predictions only start once the chain has a predecessor.
    assert_eq!(first.predicted, 2);

    // A chain reset (as at every sweep-chunk head) must NOT clear the
    // lifetime counters.
    template.reset_chain();
    solve_rates(&mut template, &[0.45, 0.5]);
    let second = template.stats();
    assert_eq!(second.solves, first.solves + 2);
    assert!(second.total_sweeps > first.total_sweeps);
    assert!(second.residual_checks > first.residual_checks);
    assert!(second.accepted >= first.accepted);

    template.reset_stats();
    assert_eq!(template.stats(), gprs_core::TemplateStats::default());
}
