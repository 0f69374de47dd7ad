//! The stationary-kernel contract, pinned **bitwise** in a committed
//! fixture rather than in a second live kernel.
//!
//! `tests/fixtures/sweep_chains.txt` was rendered with every template
//! solve forced through the scalar MBD kernel, back when templates
//! could run either kernel; templates now always run the cache-blocked
//! kernel, which must reproduce the scalar bits.
//!
//! It records, as 64-bit patterns, every point of 10-point arrival-rate
//! sweeps — all sixteen [`Measures`], the sweep count, the residual and
//! the fallback rung — in both the `Chained` and the `Predicted`
//! warm-start modes, for:
//!
//! * the ext01 cell (the Table 2 TM3 cell, 20 channels) under each
//!   coding scheme CS-1..CS-4, with the session cap cut to 3 and the
//!   buffer to 12 so the whole file renders in seconds in a debug build
//!   (the quick-scale cell has 189k states and takes minutes);
//! * a 3-session TM3 cell (10 channels, buffer 8, 1 reserved PDCH);
//! * a 2-session TM1 cell (5 channels, buffer 6, 2 reserved PDCHs).
//!
//! Every cell runs the figure grid `0.05..=1.0` at the quick figure
//! tolerance (1e-8). The two small cells also run a narrow grid
//! `0.45..=0.46` at 1e-6, where the predict-and-verify surrogate serves
//! points, so its accept decisions are pinned too. Last, the file
//! records the [`TemplateStats`] of one template after a `Chained` and
//! then a `Predicted` chain over the narrow grid.
//!
//! The fixture is never regenerated: any change to the template solve
//! path must reproduce every line.

use gprs_core::sweep::{rate_grid, sweep_arrival_rates_mode};
use gprs_core::{CellConfig, CodingScheme, GeneratorTemplate, Measures, TemplateStats, WarmStart};
use gprs_ctmc::SolveOptions;
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Rate points per sweep: more than one warm-start chunk, so chunk
/// heads, chained points and a ragged last chunk all appear.
const POINTS: usize = 10;

/// The quick figure scale's grid and solve options.
fn figure_run() -> (Vec<f64>, SolveOptions) {
    (
        rate_grid(0.05, 1.0, POINTS),
        SolveOptions::quick().with_max_sweeps(50_000),
    )
}

/// Closely spaced rates at a looser tolerance: the surrogate's regime.
fn narrow_run() -> (Vec<f64>, SolveOptions) {
    (
        rate_grid(0.45, 0.46, POINTS),
        SolveOptions::quick().with_tolerance(1e-6),
    )
}

fn ext01_cell(scheme: CodingScheme) -> CellConfig {
    let mut cfg = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(3)
        .buffer_capacity(12)
        .build()
        .unwrap();
    cfg.coding_scheme = scheme;
    cfg
}

fn tm3_three_sessions() -> CellConfig {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(10)
        .buffer_capacity(8)
        .max_gprs_sessions(3)
        .reserved_pdchs(1)
        .build()
        .unwrap()
}

fn tm1_two_sessions() -> CellConfig {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model1)
        .total_channels(5)
        .buffer_capacity(6)
        .max_gprs_sessions(2)
        .reserved_pdchs(2)
        .build()
        .unwrap()
}

/// Every sweep of the fixture: label, cell, grid and options.
fn sweeps() -> Vec<(String, CellConfig, Vec<f64>, SolveOptions)> {
    let (figure_rates, figure_opts) = figure_run();
    let (narrow_rates, narrow_opts) = narrow_run();
    let mut runs: Vec<_> = CodingScheme::ALL
        .iter()
        .map(|&scheme| {
            (
                format!("ext01-{scheme}"),
                ext01_cell(scheme),
                figure_rates.clone(),
                figure_opts.clone(),
            )
        })
        .collect();
    for (name, cfg) in [
        ("tm3-3sessions", tm3_three_sessions()),
        ("tm1-2sessions", tm1_two_sessions()),
    ] {
        runs.push((
            format!("{name}/figure"),
            cfg.clone(),
            figure_rates.clone(),
            figure_opts.clone(),
        ));
        runs.push((
            format!("{name}/narrow"),
            cfg,
            narrow_rates.clone(),
            narrow_opts.clone(),
        ));
    }
    runs
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn measures_bits(m: &Measures) -> String {
    [
        m.call_arrival_rate,
        m.carried_data_traffic,
        m.mean_queue_length,
        m.offered_packet_rate,
        m.accepted_packet_rate,
        m.data_throughput,
        m.packet_loss_probability,
        m.queueing_delay,
        m.throughput_per_user_pkts,
        m.throughput_per_user_kbps,
        m.carried_voice_traffic,
        m.avg_gprs_sessions,
        m.gsm_blocking_probability,
        m.gprs_blocking_probability,
        m.gsm_handover_rate,
        m.gprs_handover_rate,
    ]
    .iter()
    .map(|&v| bits(v))
    .collect::<Vec<_>>()
    .join(" ")
}

fn stats_line(s: &TemplateStats) -> String {
    format!(
        "solves={} sweeps={} residual_checks={} predicted={} accepted={}",
        s.solves, s.total_sweeps, s.residual_checks, s.predicted, s.accepted
    )
}

fn render_fixture() -> String {
    let mut out = String::new();
    for (name, cfg, rates, opts) in sweeps() {
        writeln!(out, "{name}/states {}", cfg.num_states()).unwrap();
        for warm in [WarmStart::Chained, WarmStart::Predicted] {
            let points = sweep_arrival_rates_mode(&cfg, &rates, &opts, warm).unwrap();
            for (i, p) in points.iter().enumerate() {
                writeln!(
                    out,
                    "{name}/{warm:?}/{i} {} {} {} {} {}",
                    bits(p.rate),
                    p.sweeps,
                    bits(p.residual),
                    p.health.rung.label(),
                    measures_bits(&p.measures)
                )
                .unwrap();
            }
        }
    }

    // One template's lifetime accounting across a Chained and then a
    // Predicted chain (the surrogate's verification checks included).
    let (rates, opts) = narrow_run();
    let base = tm3_three_sessions();
    let mut template = GeneratorTemplate::new(&base).unwrap();
    for warm in [WarmStart::Chained, WarmStart::Predicted] {
        template.reset_chain();
        for &rate in &rates {
            let mut cfg = base.clone();
            cfg.call_arrival_rate = rate;
            let model = template.model_for(cfg).unwrap();
            template.solve(&model, &opts, warm).unwrap();
        }
        writeln!(
            out,
            "template-stats/{warm:?} {}",
            stats_line(&template.stats())
        )
        .unwrap();
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sweep_chains.txt")
}

/// Tier-1 anchor: every sweep point and the template accounting are
/// bit-identical to the pinned scalar-kernel outputs.
#[test]
fn sweep_chains_match_the_pinned_fixture() {
    let rendered = render_fixture();
    let pinned = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("fixture sweep_chains.txt unreadable: {e}"));
    for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "sweep_chains.txt line {} diverges from the pinned kernel",
            line + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "sweep_chains.txt length mismatch"
    );
}

/// The `Predicted` chains really exercise the surrogate, so the
/// fixture pins its accept decisions and not only plain solves.
#[test]
fn fixture_covers_surrogate_accepts() {
    let pinned = std::fs::read_to_string(fixture_path()).unwrap();
    let served = pinned
        .lines()
        .filter(|l| l.contains("/Predicted/") && l.contains(" surrogate "))
        .count();
    assert!(served > 0, "no surrogate-served point in the fixture");
    let stats = pinned
        .lines()
        .find(|l| l.starts_with("template-stats/Predicted "))
        .expect("template stats line");
    assert!(!stats.contains(" accepted=0"), "{stats}");
}
