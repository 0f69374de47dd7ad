//! Renderer for the cluster fixed-point fixture
//! (`tests/fixtures/cluster_engines.txt`), shared by the fixture test
//! and the shard-count equivalence test.
//!
//! Five scenarios — a ring7 hot spot, a short-dwell hot spot whose
//! budget-capped Jacobi iteration needs adaptive relaxation, a
//! heterogeneous hex torus, a load-gradient corridor and the committed
//! metro-city topology — each solved under Jacobi and Gauss–Seidel
//! sweeps with the surrogate off and on. Every cell is tiny, so the
//! whole fixture renders in seconds even in a debug build.

use gprs_core::codec::{graph_from_json_value, parse_json};
use gprs_core::{
    CellConfig, CellGraph, ClusterModel, ClusterSolveOptions, Measures, SweepOrdering,
};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

fn tiny(rate: f64) -> CellConfig {
    CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(5)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        .call_arrival_rate(rate)
        .build()
        .unwrap()
}

fn short_dwell(rate: f64, dwell: f64) -> CellConfig {
    let mut cfg = tiny(rate);
    cfg.gsm_dwell_time = dwell;
    cfg.gprs_dwell_time = dwell;
    cfg
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

/// The metro-city topology with a district load profile: a hot
/// downtown grid, a moderate ring road and radials thinning outwards.
fn metro_city() -> ClusterModel {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/metro_city.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let graph = graph_from_json_value(&doc, "metro_city").unwrap();
    let cells = (0..graph.num_cells())
        .map(|i| {
            tiny(match i {
                0..=15 => 0.5,
                16..=27 => 0.35,
                _ => 0.3 - 0.04 * ((i - 28) % 5) as f64,
            })
        })
        .collect();
    ClusterModel::from_graph(graph, cells).unwrap()
}

/// The fixture's scenarios with their base solve options.
fn scenarios() -> Vec<(&'static str, ClusterModel, ClusterSolveOptions)> {
    let torus_cells = (0..12).map(|i| tiny(0.2 + 0.04 * (i % 5) as f64)).collect();
    let corridor_cells = (0..10).map(|i| tiny(0.2 + 0.04 * i as f64)).collect();
    vec![
        (
            "ring7-hot-spot",
            ClusterModel::hot_spot(tiny(0.3), 0.9).unwrap(),
            ClusterSolveOptions::quick(),
        ),
        (
            // 0.5 s dwell: the Jacobi iteration contracts so slowly
            // that a cap of 60 forces the Aitken extrapolation.
            "short-dwell-hot-spot",
            ClusterModel::hot_spot(short_dwell(0.3, 0.5), 0.9).unwrap(),
            ClusterSolveOptions {
                max_iterations: 60,
                ..ClusterSolveOptions::default()
            },
        ),
        (
            "hex-torus",
            ClusterModel::from_graph(CellGraph::hex_torus(3, 4).unwrap(), torus_cells).unwrap(),
            ClusterSolveOptions::quick(),
        ),
        (
            "corridor",
            ClusterModel::from_graph(CellGraph::corridor(10).unwrap(), corridor_cells).unwrap(),
            ClusterSolveOptions::quick(),
        ),
        ("metro-city", metro_city(), ClusterSolveOptions::quick()),
    ]
}

/// Renders every scenario × ordering × surrogate setting at the given
/// shard and thread counts: the convergence trace, per-cell fluxes,
/// populations, sweeps, residuals and rungs, and the mid cell's
/// measures, all as 64-bit patterns. A solve that fails renders its
/// error instead.
pub fn render(shards: usize, threads: usize) -> String {
    let mut out = String::new();
    for (name, model, base) in scenarios() {
        for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
            for surrogate in [false, true] {
                let what = format!("{name}/{ordering:?}/surrogate={surrogate}");
                let opts = base
                    .clone()
                    .with_ordering(ordering)
                    .with_surrogate(surrogate)
                    .with_shards(shards)
                    .with_threads(threads);
                let solved = match model.solve(&opts) {
                    Ok(solved) => solved,
                    Err(e) => {
                        writeln!(out, "{what}/error {e:?}").unwrap();
                        continue;
                    }
                };
                writeln!(
                    out,
                    "{what}/trace {} {} {} {} {} {}",
                    solved.iterations(),
                    bits(solved.handover_delta()),
                    bits(solved.relaxation()),
                    solved.adaptive_steps(),
                    solved.surrogate_solves(),
                    solved.symbolic_setups(),
                )
                .unwrap();
                for (i, c) in solved.cells().iter().enumerate() {
                    writeln!(
                        out,
                        "{what}/cell{i} {} {} {} {} {} {} {} {} {:?} {}",
                        bits(c.gsm_handover_in),
                        bits(c.gprs_handover_in),
                        bits(c.gsm_handover_out),
                        bits(c.gprs_handover_out),
                        bits(c.mean_voice_calls),
                        bits(c.mean_sessions),
                        c.sweeps,
                        bits(c.residual),
                        c.health.rung,
                        c.health.failed_rungs,
                    )
                    .unwrap();
                }
                writeln!(
                    out,
                    "{what}/mid-measures {}",
                    measures_bits(&solved.mid().measures)
                )
                .unwrap();
            }
        }
    }
    out
}

pub fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cluster_engines.txt")
}

/// Asserts `rendered` equals the committed fixture line for line.
pub fn assert_matches_fixture(rendered: &str, what: &str) {
    let pinned = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("fixture cluster_engines.txt unreadable ({e})"));
    for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{what}: cluster_engines.txt line {} diverges from the pinned fixed point",
            line + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "{what}: cluster_engines.txt length mismatch"
    );
}
