//! `metro_torus`: a 25×40 hex torus of 1000 small cells solved to the
//! cluster handover fixed point. Tiny chains solved about twenty
//! thousand times: per-solve overhead, halo exchange and pool dispatch
//! dominate and the kernel is a small share — the same template and
//! kernel path as `figure_sweep`, used the opposite way.

use crate::util::{checked_measures, err, measures_bits, Res, Rng, Spans};
use crate::{load_refs, Exec, JobReport, Layers, Traced, Workload};
use gprs_core::{
    scenario_from_json, scenario_to_json, CellConfig, CellGraph, ClusterModel, ClusterSolveOptions,
    Scenario, SolvedCluster, SweepOrdering, TemplateRegistry, WarmStart,
};
use gprs_traffic::TrafficModel;
use std::path::Path;

const ROWS: usize = 25;
const COLS: usize = 40;
/// Five cell shapes: buffers 6 to 10 (420 to 660 states).
const SHAPES: usize = 5;
/// Every `SAMPLE`-th cell is checked against the references.
const SAMPLE: usize = 25;

pub struct Input {
    model: ClusterModel,
    refs: Vec<f64>,
}

pub struct MetroTorus;

fn options(exec: Exec) -> ClusterSolveOptions {
    ClusterSolveOptions::default()
        .with_ordering(SweepOrdering::Jacobi)
        .with_tolerance(1e-12)
        .with_surrogate(false)
        .with_threads(exec.threads)
        .with_shards(exec.shards)
}

fn report(model: &ClusterModel, solved: &SolvedCluster) -> JobReport {
    let mut r = JobReport::default();
    let (mut sweeps, mut rungs, mut rows, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    for (cell, cfg) in solved.cells().iter().zip(model.configs()) {
        r.fingerprint.extend(measures_bits(&cell.measures));
        r.fingerprint.extend([
            cell.gsm_handover_in.to_bits(),
            cell.gprs_handover_in.to_bits(),
            cell.sweeps as u64,
            cell.residual.to_bits(),
            u64::from(cell.health.failed_rungs),
        ]);
        sweeps += cell.sweeps as u64;
        rungs += u64::from(cell.health.failed_rungs);
        rows += (cell.sweeps * cfg.num_states()) as u64;
        degraded += u64::from(cell.health.degraded());
    }
    for cell in solved.cells().iter().step_by(SAMPLE) {
        r.checked.extend(checked_measures(&cell.measures));
    }
    let cell_solves = (solved.iterations() * solved.cells().len()) as u64;
    r.fingerprint.extend([
        solved.handover_delta().to_bits(),
        solved.relaxation().to_bits(),
    ]);
    r.counts = vec![
        ("core.cluster.outer_iterations", solved.iterations() as u64),
        ("core.cluster.cell_solves", cell_solves),
        (
            "core.cluster.surrogate_solves",
            solved.surrogate_solves() as u64,
        ),
        (
            "core.cluster.adaptive_steps",
            solved.adaptive_steps() as u64,
        ),
        (
            "core.template.symbolic_setups",
            solved.symbolic_setups() as u64,
        ),
        ("ctmc.sweeps", sweeps),
        ("ctmc.fallback_rungs", rungs),
        ("ctmc.row_updates", rows),
    ];
    r.attempted = cell_solves;
    r.failed = degraded;
    r
}

impl Workload for MetroTorus {
    type Input = Input;
    const REL_ERR_LIMIT: f64 = 1e-6;

    fn setup(variant: u64, refs: Option<&Path>) -> Res<Input> {
        let mut rng = Rng::new(variant);
        let configs = (0..ROWS * COLS)
            .map(|i| {
                let mut c = CellConfig::builder()
                    .traffic_model(TrafficModel::Model3)
                    .total_channels(6)
                    .reserved_pdchs(1)
                    .buffer_capacity(6 + i % SHAPES)
                    .max_gprs_sessions(3)
                    .call_arrival_rate(0.25 + 0.2 * rng.unit())
                    .build()?;
                c.gprs_fraction = 0.05;
                Ok(c)
            })
            .collect::<Result<Vec<_>, gprs_core::ModelError>>()
            .map_err(err("building the metro cells"))?;
        let graph = CellGraph::hex_torus(ROWS, COLS).map_err(err("hex torus"))?;
        // The metro layout travels as a scenario document, as the
        // metro examples load theirs.
        let scenario =
            Scenario::from_graph("metro-torus", graph, configs).map_err(err("metro scenario"))?;
        let text = scenario_to_json(&scenario);
        let model = scenario_from_json(&text)
            .map_err(err("parsing the metro scenario"))?
            .to_cluster()
            .map_err(err("metro cluster"))?;
        Ok(Input {
            model,
            refs: load_refs(refs, "metro_torus", variant)?,
        })
    }

    fn reference(input: &Input) -> &[f64] {
        &input.refs
    }

    fn job(input: &Input, exec: Exec) -> Res<JobReport> {
        let solved = input
            .model
            .solve(&options(exec))
            .map_err(err("metro solve"))?;
        Ok(report(&input.model, &solved))
    }

    fn tight(input: &Input) -> Res<Vec<f64>> {
        let opts = options(Exec {
            threads: 1,
            shards: 1,
        })
        .with_tolerance(1e-14)
        .with_solve(gprs_ctmc::SolveOptions::default().with_tolerance(1e-14));
        let solved = input.model.solve(&opts).map_err(err("reference solve"))?;
        if solved.degraded() {
            return Err("reference solve degraded".into());
        }
        Ok(report(&input.model, &solved).checked)
    }

    fn alternatives() -> Vec<(&'static str, Exec)> {
        vec![(
            "core.shard.scaling_1to2",
            Exec {
                threads: 2,
                shards: 1,
            },
        )]
    }

    fn replay_exec() -> Exec {
        Exec {
            threads: 2,
            shards: 2,
        }
    }

    /// The fixed point is one call into `gprs_core::cluster`, so the
    /// traced job is that call under one span. The kernel's share is
    /// estimated afterwards from a replay of one resilient solve per
    /// cell at the converged rates.
    fn traced(input: &Input, layers: &mut Layers) -> Res<Traced> {
        let mut spans = Spans::default();
        let exec = crate::measured_exec();
        let start = std::time::Instant::now();
        let solved = spans
            .span("core.cluster.solve_s", || input.model.solve(&options(exec)))
            .map_err(err("metro solve"))?;
        let wall_s = start.elapsed().as_secs_f64();
        let report = report(&input.model, &solved);

        let mut replay = Spans::default();
        let registry = TemplateRegistry::new();
        let (mut residual_checks, mut replay_sweeps, mut replay_rows) = (0u64, 0u64, 0u64);
        let replay_start = std::time::Instant::now();
        for (cell, cfg) in solved.cells().iter().zip(input.model.configs()) {
            let mut template = replay
                .span("core.template.setup_s", || registry.template_for(cfg))
                .map_err(err("replay template"))?;
            let model = replay
                .span("core.generator.model_s", || {
                    template.model_with_handovers(
                        cfg.clone(),
                        cell.gsm_handover_in,
                        cell.gprs_handover_in,
                    )
                })
                .map_err(err("replay model"))?;
            let health = replay
                .span("ctmc.solve_s", || {
                    template.solve_resilient_lean(&model, &options(exec).solve, WarmStart::Chained)
                })
                .map_err(err("replay solve"))?;
            replay.span("core.measures_s", || template.measures_for(&model));
            residual_checks += template.stats().residual_checks as u64;
            replay_sweeps += health.sweeps as u64;
            replay_rows += (health.sweeps * cfg.num_states()) as u64;
        }
        let replay_s = replay_start.elapsed().as_secs_f64();
        let cells = solved.cells().len() as f64;
        let count = |name: &str| {
            report
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        for name in [
            "core.cluster.outer_iterations",
            "core.cluster.cell_solves",
            "core.cluster.surrogate_solves",
            "core.cluster.adaptive_steps",
            "core.template.symbolic_setups",
            "ctmc.sweeps",
            "ctmc.fallback_rungs",
            "ctmc.row_updates",
        ] {
            layers.insert(name, count(name) as f64);
        }
        let solve_s = spans.total("core.cluster.solve_s");
        // The replay's cold solves take several times the sweeps of the
        // fixed point's warm ones, so the kernel share is scaled by row
        // updates, not by solves: the replay's time per row times the
        // fixed point's exact row count is the kernel's CPU time. Model
        // relowering is paid per solve; full measures once per cell, in
        // the reporting pass. The shards split that per-cell work; the
        // rest of the wall is coordination — an estimate.
        let ns_per_row = replay.total("ctmc.solve_s") * 1e9 / replay_rows.max(1) as f64;
        let kernel_s = ns_per_row * count("ctmc.row_updates") as f64 * 1e-9;
        let per_solve = count("core.cluster.cell_solves") as f64 / cells;
        let model_s = replay.total("core.generator.model_s") * per_solve;
        let measures_s = replay.total("core.measures_s");
        let shards = exec.shards.min(solved.cells().len()) as f64;
        layers.insert("core.cluster.solve_s", solve_s);
        layers.insert("core.cluster.cell_solve_us", replay_s * 1e6 / cells);
        layers.insert(
            "core.shard.coordination_s",
            solve_s - (kernel_s + model_s + measures_s) / shards,
        );
        layers.insert("ctmc.solve_s", kernel_s);
        layers.insert("ctmc.ns_per_row", ns_per_row);
        layers.insert("ctmc.residual_checks", residual_checks as f64);
        layers.insert(
            "core.template.setup_s",
            replay.total("core.template.setup_s"),
        );
        layers.insert("core.generator.model_s", model_s);
        layers.insert("core.measures_s", measures_s);
        Ok(Traced {
            wall_s,
            spans,
            report,
            counts: vec![
                ("ctmc.residual_checks", residual_checks),
                ("replay.sweeps", replay_sweeps),
                ("replay.symbolic_setups", registry.setups() as u64),
            ],
        })
    }
}
