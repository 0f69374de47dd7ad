//! `reconfig_transient`: the transient after switching a TM3 cell from
//! one to four reserved PDCHs — the only workload that reaches
//! `gprs_ctmc::transient`. The longest horizon ends close to steady
//! state, so an early stop has work to cut; the shortest gives it
//! nothing.

use crate::util::{
    build_models, cells_via_codec, checked_measures, err, measures_bits, Res, Rng, Spans,
};
use crate::{load_refs, Exec, JobReport, Layers, Traced, Workload};
use gprs_core::adaptive::{map_distribution, reconfiguration_transient, TransientPoint};
use gprs_core::{CellConfig, GprsModel, Measures};
use gprs_ctmc::transient::solve_transient;
use gprs_ctmc::{SolveOptions, StationaryDistribution, Transitions};
use gprs_traffic::TrafficModel;
use std::cell::Cell;
use std::path::Path;

/// Horizons after the switch, seconds.
const HORIZONS: [f64; 3] = [1.0, 30.0, 300.0];

pub struct Input {
    old: CellConfig,
    new: CellConfig,
    opts: SolveOptions,
    refs: Vec<f64>,
}

pub struct ReconfigTransient;

fn cell(reserved: usize, rate: f64) -> Res<CellConfig> {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(10)
        .buffer_capacity(8)
        .max_gprs_sessions(3)
        .reserved_pdchs(reserved)
        .call_arrival_rate(rate)
        .build()
        .map_err(err("building the transient cell"))
}

fn report(points: &[TransientPoint]) -> JobReport {
    let mut r = JobReport::default();
    for p in points {
        r.fingerprint.extend(measures_bits(&p.measures));
        r.fingerprint
            .extend([p.time.to_bits(), p.distance_to_steady_state.to_bits()]);
        r.checked.extend(checked_measures(&p.measures));
    }
    r.attempted = points.len() as u64;
    r
}

/// A generator handed to `solve_transient` that counts the
/// uniformization steps the solver takes. Each step walks the rows of
/// its iterate in increasing order, and the self-loop weight
/// `1 − exit/Λ > 0` keeps every row of one step's support in the next,
/// so a new step begins exactly where the row index stops increasing.
struct StepCounter<'a, G> {
    inner: &'a G,
    last_row: Cell<Option<usize>>,
    steps: Cell<u64>,
}

impl<'a, G: Transitions> StepCounter<'a, G> {
    fn new(inner: &'a G) -> Self {
        StepCounter {
            inner,
            last_row: Cell::new(None),
            steps: Cell::new(0),
        }
    }
}

impl<G: Transitions> Transitions for StepCounter<'_, G> {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
        if self.last_row.get().is_none_or(|last| state <= last) {
            self.steps.set(self.steps.get() + 1);
        }
        self.last_row.set(Some(state));
        self.inner.for_each_outgoing(state, visit);
    }

    fn exit_rate(&self, state: usize) -> f64 {
        self.inner.exit_rate(state)
    }
}

impl Workload for ReconfigTransient {
    type Input = Input;
    const REL_ERR_LIMIT: f64 = 1e-4;
    const SINGLE_THREADED: bool = true;

    fn setup(variant: u64, refs: Option<&Path>) -> Res<Input> {
        let rate = 0.45 + 0.1 * Rng::new(variant).unit();
        let cells = cells_via_codec(&[cell(1, rate)?, cell(4, rate)?])?;
        std::hint::black_box(build_models(&cells)?);
        let [old, new]: [CellConfig; 2] = cells.try_into().map_err(|_| "expected two cells")?;
        Ok(Input {
            old,
            new,
            opts: SolveOptions::quick(),
            refs: load_refs(refs, "reconfig_transient", variant)?,
        })
    }

    fn reference(input: &Input) -> &[f64] {
        &input.refs
    }

    fn job(input: &Input, _exec: Exec) -> Res<JobReport> {
        let points = reconfiguration_transient(&input.old, &input.new, &HORIZONS, &input.opts)
            .map_err(err("reconfiguration transient"))?;
        Ok(report(&points))
    }

    fn tight(input: &Input) -> Res<Vec<f64>> {
        let opts = SolveOptions::default()
            .with_tolerance(1e-14)
            .with_max_sweeps(1_000_000);
        let points = reconfiguration_transient(&input.old, &input.new, &HORIZONS, &opts)
            .map_err(err("reference transient"))?;
        Ok(report(&points).checked)
    }

    fn alternatives() -> Vec<(&'static str, Exec)> {
        Vec::new()
    }

    fn replay_exec() -> Exec {
        crate::measured_exec()
    }

    /// `reconfiguration_transient` replayed call by call: both models,
    /// both steady-state solves, the mapping of the old law onto the
    /// new space, then one uniformization and one measures extraction
    /// per horizon.
    fn traced(input: &Input, layers: &mut Layers) -> Res<Traced> {
        let mut spans = Spans::default();
        let start = std::time::Instant::now();
        let (old_model, new_model) = spans
            .span("core.generator.model_s", || {
                Ok::<_, gprs_core::ModelError>((
                    GprsModel::new(input.old.clone())?,
                    GprsModel::new(input.new.clone())?,
                ))
            })
            .map_err(err("transient models"))?;
        let (old_solved, new_solved) = spans
            .span("ctmc.steady_solve_s", || {
                Ok::<_, gprs_core::ModelError>((
                    old_model.solve(&input.opts, None)?,
                    new_model.solve(&input.opts, None)?,
                ))
            })
            .map_err(err("steady-state solves"))?;
        let pi0 = spans
            .span("core.adaptive.map_s", || {
                map_distribution(
                    old_model.space(),
                    new_model.space(),
                    old_solved.stationary(),
                )
            })
            .map_err(err("mapping the old law"))?;
        let target = new_solved.stationary().as_slice();
        let mut points = Vec::with_capacity(HORIZONS.len());
        let mut laws = Vec::with_capacity(HORIZONS.len());
        for &t in &HORIZONS {
            let pi_t = spans
                .span("ctmc.transient.solve_s", || {
                    solve_transient(&new_model, &pi0, t)
                })
                .map_err(err("transient solve"))?;
            laws.push(pi_t.clone());
            let distance = pi_t
                .iter()
                .zip(target)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            let measures = spans.span("core.measures_s", || {
                Measures::compute(&new_model, &StationaryDistribution::new(pi_t))
            });
            points.push(TransientPoint {
                time: t,
                measures,
                distance_to_steady_state: distance,
            });
        }
        let wall_s = start.elapsed().as_secs_f64();
        for p in &points {
            eprintln!(
                "perfbench: t = {} s, distance to steady state {:e}",
                p.time, p.distance_to_steady_state
            );
        }

        let n = new_model.num_states();
        let mut nnz = 0u64;
        for s in 0..n {
            new_model.for_each_outgoing(s, &mut |_, _| nnz += 1);
        }
        // The steps are counted in a second, untimed pass of the same
        // solves, which must give the same laws bitwise.
        let mut steps = 0u64;
        for (&t, law) in HORIZONS.iter().zip(&laws) {
            let counter = StepCounter::new(&new_model);
            let counted =
                solve_transient(&counter, &pi0, t).map_err(err("counted transient solve"))?;
            if counted
                .iter()
                .map(|x| x.to_bits())
                .ne(law.iter().map(|x| x.to_bits()))
            {
                return Err("counted transient solve differs from the timed one".into());
            }
            steps += counter.steps.get();
        }
        let steady_sweeps = (old_solved.sweeps() + new_solved.sweeps()) as u64;
        let steady_rows =
            (old_solved.sweeps() * old_model.num_states() + new_solved.sweeps() * n) as u64;
        let steady_s = spans.total("ctmc.steady_solve_s");
        let transient_s = spans.total("ctmc.transient.solve_s");
        let rungs = u64::from(old_solved.health().failed_rungs)
            + u64::from(new_solved.health().failed_rungs);
        layers.insert("ctmc.transient.solve_s", transient_s);
        layers.insert("ctmc.transient.steps", steps as f64);
        layers.insert(
            "ctmc.transient.ns_per_nnz_step",
            transient_s * 1e9 / (steps.max(1) * nnz.max(1)) as f64,
        );
        layers.insert("ctmc.steady_solve_s", steady_s);
        layers.insert("ctmc.solve_s", steady_s);
        layers.insert("ctmc.sweeps", steady_sweeps as f64);
        layers.insert("ctmc.row_updates", steady_rows as f64);
        layers.insert(
            "ctmc.ns_per_row",
            steady_s * 1e9 / steady_rows.max(1) as f64,
        );
        layers.insert("ctmc.fallback_rungs", rungs as f64);
        layers.insert(
            "core.generator.model_s",
            spans.total("core.generator.model_s"),
        );
        layers.insert("core.measures_s", spans.total("core.measures_s"));
        Ok(Traced {
            wall_s,
            spans,
            report: report(&points),
            counts: vec![
                ("ctmc.transient.steps", steps),
                ("ctmc.sweeps", steady_sweeps),
                ("ctmc.fallback_rungs", rungs),
            ],
        })
    }
}
