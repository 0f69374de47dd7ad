//! `figure_sweep`: the ext01 coding-scheme grid, the paper's own
//! surface. Large chains and few solves: the kernel does almost all
//! the work, with no cluster and no journal.

use crate::util::{
    build_models, cells_via_codec, checked_measures, err, measures_bits, Res, Spans,
};
use crate::{load_refs, Exec, JobReport, Layers, Traced, Workload, VARIANTS};
use gprs_core::sweep::{par_sweep_arrival_rates_threads, warm_chunk_len, SweepPoint};
use gprs_core::{CellConfig, CodingScheme, GeneratorTemplate, SolveRung, WarmStart};
use gprs_ctmc::SolveOptions;
use gprs_traffic::TrafficModel;
use std::path::Path;

/// BSC buffer of the Table 2 TM3 cell. The quick figure scale uses 40;
/// 12 keeps a job under a second, so a run times a few dozen of them.
const BUFFER: usize = 12;
/// Rate points per coding scheme (the quick figure grid).
const POINTS: usize = 8;
/// Lowest rate and span of the grid before the seeded shift.
const LO: f64 = 0.05;
const SPAN: f64 = 0.9;

pub struct Input {
    bases: Vec<CellConfig>,
    rates: Vec<f64>,
    opts: SolveOptions,
    refs: Vec<f64>,
}

pub struct FigureSweep;

/// The quick figure scale's solve options.
fn figure_opts() -> SolveOptions {
    SolveOptions::quick().with_max_sweeps(50_000)
}

fn report(bases: &[CellConfig], sweeps: &[Vec<SweepPoint>]) -> JobReport {
    let mut r = JobReport::default();
    let (mut total_sweeps, mut rungs, mut rows) = (0u64, 0u64, 0u64);
    for (base, points) in bases.iter().zip(sweeps) {
        for p in points {
            r.fingerprint.extend(measures_bits(&p.measures));
            r.fingerprint.extend([
                p.sweeps as u64,
                p.residual.to_bits(),
                p.health.failed_rungs as u64,
            ]);
            r.checked.extend(checked_measures(&p.measures));
            total_sweeps += p.sweeps as u64;
            rungs += u64::from(p.health.failed_rungs);
            rows += (p.sweeps * base.num_states()) as u64;
            r.attempted += 1;
            if p.health.degraded() {
                r.failed += 1;
            }
        }
    }
    r.counts = vec![
        ("ctmc.sweeps", total_sweeps),
        ("ctmc.fallback_rungs", rungs),
        ("ctmc.row_updates", rows),
    ];
    r
}

impl Workload for FigureSweep {
    type Input = Input;
    const REL_ERR_LIMIT: f64 = 1e-4;

    fn setup(variant: u64, refs: Option<&Path>) -> Res<Input> {
        let step = SPAN / (POINTS - 1) as f64;
        // A sub-step shift: every variant solves a different grid, but
        // the work per job stays within a few per cent of the others.
        let shift = 0.25 * step * variant as f64 / VARIANTS as f64;
        let rates = gprs_core::sweep::rate_grid(LO + shift, LO + shift + SPAN, POINTS);
        let bases = CodingScheme::ALL
            .iter()
            .map(|&scheme| {
                let mut base = CellConfig::builder()
                    .traffic_model(TrafficModel::Model3)
                    .buffer_capacity(BUFFER)
                    .build()?;
                base.coding_scheme = scheme;
                Ok(base)
            })
            .collect::<Result<Vec<_>, gprs_core::ModelError>>()
            .map_err(err("building the figure cells"))?;
        let bases = cells_via_codec(&bases)?;
        std::hint::black_box(build_models(&bases)?);
        Ok(Input {
            bases,
            rates,
            opts: figure_opts(),
            refs: load_refs(refs, "figure_sweep", variant)?,
        })
    }

    fn reference(input: &Input) -> &[f64] {
        &input.refs
    }

    fn job(input: &Input, exec: Exec) -> Res<JobReport> {
        let sweeps = input
            .bases
            .iter()
            .map(|base| {
                par_sweep_arrival_rates_threads(base, &input.rates, &input.opts, exec.threads)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err("figure sweep"))?;
        Ok(report(&input.bases, &sweeps))
    }

    fn tight(input: &Input) -> Res<Vec<f64>> {
        let opts = SolveOptions::default()
            .with_tolerance(1e-13)
            .with_max_sweeps(1_000_000);
        let mut values = Vec::new();
        for base in &input.bases {
            let points = gprs_core::sweep::sweep_arrival_rates(base, &input.rates, &opts)
                .map_err(err("reference sweep"))?;
            for p in &points {
                if p.health.rung != SolveRung::Primary {
                    return Err("reference sweep left the primary solver".into());
                }
                values.extend(checked_measures(&p.measures));
            }
        }
        Ok(values)
    }

    fn alternatives() -> Vec<(&'static str, Exec)> {
        vec![(
            "exec.speedup_1to2",
            Exec {
                threads: 1,
                shards: 2,
            },
        )]
    }

    fn replay_exec() -> Exec {
        Exec {
            threads: 1,
            shards: 2,
        }
    }

    /// The sequential chunk contract of the sweep, replayed call by
    /// call: a template per scheme, the chain reset at every chunk
    /// head, then model, lean solve and measures per point.
    fn traced(input: &Input, layers: &mut Layers) -> Res<Traced> {
        let mut spans = Spans::default();
        let mut residual_checks = 0u64;
        let mut templates = 0u64;
        let start = std::time::Instant::now();
        let mut sweeps = Vec::with_capacity(input.bases.len());
        let chunk_len = warm_chunk_len(input.rates.len());
        for base in &input.bases {
            let mut template = spans
                .span("core.template.setup_s", || GeneratorTemplate::new(base))
                .map_err(err("template"))?;
            templates += 1;
            let mut points = Vec::with_capacity(input.rates.len());
            for chunk in input.rates.chunks(chunk_len) {
                template.reset_chain();
                for &rate in chunk {
                    let mut cfg = base.clone();
                    cfg.call_arrival_rate = rate;
                    let model = spans
                        .span("core.generator.model_s", || template.model_for(cfg))
                        .map_err(err("model"))?;
                    let health = spans
                        .span("ctmc.solve_s", || {
                            template.solve_resilient_lean(&model, &input.opts, WarmStart::Chained)
                        })
                        .map_err(err("solve"))?;
                    let measures = spans.span("core.measures_s", || template.measures_for(&model));
                    points.push(SweepPoint {
                        rate,
                        measures,
                        sweeps: health.sweeps,
                        residual: health.residual,
                        health,
                    });
                }
            }
            residual_checks += template.stats().residual_checks as u64;
            sweeps.push(points);
        }
        let wall_s = start.elapsed().as_secs_f64();
        let report = report(&input.bases, &sweeps);
        let count = |name: &str| {
            report
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        let rows = count("ctmc.row_updates");
        layers.insert("ctmc.solve_s", spans.total("ctmc.solve_s"));
        layers.insert("ctmc.row_updates", rows as f64);
        layers.insert(
            "ctmc.ns_per_row",
            spans.total("ctmc.solve_s") * 1e9 / rows.max(1) as f64,
        );
        layers.insert("ctmc.sweeps", count("ctmc.sweeps") as f64);
        layers.insert("ctmc.fallback_rungs", count("ctmc.fallback_rungs") as f64);
        layers.insert("ctmc.residual_checks", residual_checks as f64);
        layers.insert(
            "core.template.setup_s",
            spans.total("core.template.setup_s"),
        );
        layers.insert("core.template.symbolic_setups", templates as f64);
        layers.insert(
            "core.generator.model_s",
            spans.total("core.generator.model_s"),
        );
        layers.insert("core.measures_s", spans.total("core.measures_s"));
        Ok(Traced {
            wall_s,
            spans,
            report,
            counts: vec![
                ("ctmc.residual_checks", residual_checks),
                ("core.template.symbolic_setups", templates),
            ],
        })
    }
}
