//! Symbolic/numeric split benchmarks: the chunked template-refill sweep
//! against the historical per-point rebuild, the cluster-style
//! repeated cell solve (template refill vs model rebuild per outer
//! iteration), and the sequential vs parallel sweep.
//!
//! Before timing, refill-vs-rebuild bit-identity is asserted: cold
//! template solves must equal the fresh allocating path exactly, and
//! the parallel sweep must equal the sequential sweep bit-for-bit at
//! 1/2/8 workers (the warm-start contract of `gprs_core::sweep`).
//!
//! `sweep8_*` runs an 8-point arrival-rate sweep (the paper's x-axis)
//! sequentially vs fanned out over the machine's threads, at the
//! ~15k-state and ~190k-state fixtures. On a multi-core runner the
//! parallel sweep approaches `min(threads, 8)`× the sequential
//! throughput; before timing, both paths are checked to agree within
//! solver tolerance.

use criterion::{criterion_group, criterion_main, Criterion};
use gprs_bench::{figure_sweep_cell, medium_model, small_model, sweep_rebuild};
use gprs_core::sweep::{
    par_sweep_arrival_rates, par_sweep_arrival_rates_threads, rate_grid, sweep_arrival_rates,
};
use gprs_core::template::{GeneratorTemplate, WarmStart};
use gprs_core::{CellConfig, GprsModel};
use gprs_ctmc::SolveOptions;
use gprs_exec::num_threads;

fn opts() -> SolveOptions {
    SolveOptions::quick().with_max_sweeps(200_000)
}

fn check_bit_identity(base: &CellConfig, rates: &[f64], opts: &SolveOptions) {
    // Cold template solve == fresh allocating solve, exact equality.
    let mut cfg = base.clone();
    cfg.call_arrival_rate = rates[0];
    let model = GprsModel::new(cfg).expect("valid config");
    let fresh = model.solve(opts, None).expect("solve");
    let mut template = GeneratorTemplate::new(base).expect("template");
    template
        .solve(&model, opts, WarmStart::Cold)
        .expect("template solve");
    assert_eq!(
        template.stationary(),
        fresh.stationary().as_slice(),
        "refill-vs-rebuild solves must be bit-identical"
    );
    // Refilled matrix == fresh assembly, exact equality.
    let refilled = template.sparse_for(&model).expect("refill");
    let assembled = model.assemble_sparse().expect("assemble");
    for s in 0..assembled.num_states() {
        assert_eq!(refilled.row(s), assembled.row(s), "row {s}");
    }
    // Sequential == parallel at 1/2/8 workers, exact equality.
    let seq = sweep_arrival_rates(base, rates, opts).expect("seq sweep");
    for threads in [1usize, 2, 8] {
        let par = par_sweep_arrival_rates_threads(base, rates, opts, threads).expect("par sweep");
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.measures, s.measures, "threads {threads}");
            assert_eq!(p.residual.to_bits(), s.residual.to_bits());
        }
    }
}

fn bench_sweep(c: &mut Criterion) {
    let base = figure_sweep_cell();
    let rates = rate_grid(0.05, 1.0, 20);
    let opts = opts();
    // Preflight on a prefix that still crosses a WARM_CHUNK boundary.
    check_bit_identity(&base, &rates[..10], &opts);

    let mut g = c.benchmark_group("sweep_fig20");
    g.sample_size(2);
    // Historical path: per-point rebuild, all points cold.
    g.bench_function("sweep_rebuild", |b| {
        b.iter(|| sweep_rebuild(&base, &rates, &opts))
    });
    // Template path: chunked warm-start chains over reused workspaces.
    g.bench_function("sweep_refill", |b| {
        b.iter(|| sweep_arrival_rates(&base, &rates, &opts).unwrap())
    });
    g.finish();
}

/// The cluster inner loop in isolation: one cell re-solved across outer
/// iterations whose handover arrival rates drift toward a fixed point.
fn bench_cell_iterations(c: &mut Criterion) {
    // Quick-scale cluster cell (the ext03 / cluster-bench fixture size).
    let base = small_model().config().clone();
    let iterations = 12usize;
    let rates: Vec<(f64, f64)> = (0..iterations)
        .map(|i| {
            let t = 1.0 + 0.5 / (i + 1) as f64; // geometric-ish drift
            (0.02 * t, 0.004 * t)
        })
        .collect();
    let opts = opts();

    let mut g = c.benchmark_group("cluster_cell12");
    g.sample_size(5);
    // Before: every outer iteration rebuilds the model and solves cold
    // (the pre-template `with_handover_arrivals` path).
    g.bench_function("cell_rebuild", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(gsm, gprs) in &rates {
                let model = GprsModel::with_handover_arrivals(base.clone(), gsm, gprs)
                    .expect("valid config");
                let solved = model.solve(&opts, None).expect("solve");
                acc += solved.measures().carried_data_traffic;
            }
            acc
        })
    });
    // After: one template carries workspace + warm-start chain across
    // the iterations, as `ClusterModel::solve` now does per cell.
    g.bench_function("cell_refill", |b| {
        b.iter(|| {
            let mut template = GeneratorTemplate::new(&base).expect("template");
            let mut acc = 0.0;
            for &(gsm, gprs) in &rates {
                let model = template
                    .model_with_handovers(base.clone(), gsm, gprs)
                    .expect("valid config");
                let solved = template
                    .solve(&model, &opts, WarmStart::Chained)
                    .expect("solve");
                acc += solved.measures.carried_data_traffic;
            }
            acc
        })
    });
    g.finish();
}

fn check_agreement(model: &GprsModel, rates: &[f64]) {
    let seq = sweep_arrival_rates(model.config(), rates, &opts()).expect("sequential sweep");
    let par = par_sweep_arrival_rates(model.config(), rates, &opts()).expect("parallel sweep");
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.rate, p.rate, "points must come back in rate order");
        let diff = (s.measures.carried_data_traffic - p.measures.carried_data_traffic).abs();
        assert!(
            diff <= 1e-8,
            "sequential and parallel sweeps disagree at rate {}: {diff:.3e}",
            s.rate
        );
    }
}

fn bench_sweep_pipeline(c: &mut Criterion) {
    println!("parallel sweep workers: {}", num_threads());
    for (label, model) in [
        ("small_15k", small_model()),
        ("medium_190k", medium_model()),
    ] {
        let rates = rate_grid(0.1, 1.0, 8);
        check_agreement(&model, &rates);
        let mut g = c.benchmark_group(format!("sweep8_{label}"));
        g.sample_size(3);
        g.bench_function("sequential", |b| {
            b.iter(|| sweep_arrival_rates(model.config(), &rates, &opts()).unwrap())
        });
        g.bench_function("parallel", |b| {
            b.iter(|| par_sweep_arrival_rates(model.config(), &rates, &opts()).unwrap())
        });
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_sweep,
    bench_cell_iterations,
    bench_sweep_pipeline
);
criterion_main!(benches);
