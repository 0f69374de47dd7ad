//! The uniformization contract: the transient laws are pinned **bitwise**.
//!
//! `tests/fixtures/transient_laws.txt` records, as 64-bit patterns:
//!
//! * `π(t)` of the reconfiguration cell (TM3, 10 channels, buffer 8,
//!   3 sessions, 1 → 4 reserved PDCHs) at call rates 0.45, 0.5 and 0.55
//!   and t = 0, 1, 30, 300 s, started from the old configuration's
//!   stationary law mapped onto the new state space;
//! * the measures and distance to steady state of every
//!   `reconfiguration_transient` point for the same cells and horizons;
//! * the laws of a small hand-written generator that reports one target
//!   twice in a row, so a solver that sorts rows or merges duplicate
//!   targets (and thereby changes the summation order) is caught.
//!
//! Any change to the transient solver must reproduce every line.
//! Regenerate with
//! `cargo test --test transient_fixture -- --ignored regenerate`
//! (only legitimate when the solver's arithmetic changes on purpose).

use gprs_core::adaptive::{map_distribution, reconfiguration_transient};
use gprs_core::{CellConfig, GprsModel, Measures};
use gprs_ctmc::{transient, SolveOptions, Transitions};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

const RATES: [f64; 3] = [0.45, 0.5, 0.55];
const TIMES: [f64; 4] = [0.0, 1.0, 30.0, 300.0];
/// Law entries per fixture line.
const CHUNK: usize = 10;

fn cell(reserved: usize, rate: f64) -> CellConfig {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(10)
        .buffer_capacity(8)
        .max_gprs_sessions(3)
        .reserved_pdchs(reserved)
        .call_arrival_rate(rate)
        .build()
        .unwrap()
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

fn render_law(out: &mut String, label: &str, law: &[f64]) {
    for (c, chunk) in law.chunks(CHUNK).enumerate() {
        let row: Vec<String> = chunk.iter().map(|&v| bits(v)).collect();
        writeln!(out, "{label}/law[{}] {}", c * CHUNK, row.join(" ")).unwrap();
    }
}

/// A four-state generator whose state 0 reports target 1 twice in a
/// row (rates 0.5 then 0.25) before target 2: the solver must add the
/// two contributions one after the other, exactly as reported.
struct RepeatedTarget;

impl Transitions for RepeatedTarget {
    fn num_states(&self) -> usize {
        4
    }

    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
        match state {
            0 => {
                visit(1, 0.5);
                visit(1, 0.25);
                visit(2, 1.3);
            }
            1 => {
                visit(3, 0.7);
                visit(0, 0.1);
            }
            2 => visit(0, 2.9),
            _ => {
                visit(0, 0.35);
                visit(2, 0.15);
            }
        }
    }
}

fn render_fixture() -> String {
    let opts = SolveOptions::quick();
    let mut out = String::new();
    for rate in RATES {
        let (old_cfg, new_cfg) = (cell(1, rate), cell(4, rate));
        let old = GprsModel::new(old_cfg.clone()).unwrap();
        let new = GprsModel::new(new_cfg.clone()).unwrap();
        let old_solved = old.solve(&opts, None).unwrap();
        let pi0 = map_distribution(old.space(), new.space(), old_solved.stationary()).unwrap();
        writeln!(out, "rate{rate}/states {}", new.num_states()).unwrap();
        for t in TIMES {
            let law = transient::solve_transient(&new, &pi0, t).unwrap();
            render_law(&mut out, &format!("rate{rate}/t{t}"), &law);
        }
        let points = reconfiguration_transient(&old_cfg, &new_cfg, &TIMES, &opts).unwrap();
        for p in &points {
            writeln!(
                out,
                "rate{rate}/point {} {} {}",
                bits(p.time),
                bits(p.distance_to_steady_state),
                measures_bits(&p.measures)
            )
            .unwrap();
        }
    }
    for (name, pi0) in [
        ("start0", [1.0, 0.0, 0.0, 0.0]),
        ("spread", [0.1, 0.2, 0.3, 0.4]),
    ] {
        for t in [0.0, 0.5, 2.0, 40.0] {
            let law = transient::solve_transient(&RepeatedTarget, &pi0, t).unwrap();
            render_law(&mut out, &format!("repeated/{name}/t{t}"), &law);
        }
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/transient_laws.txt")
}

/// Tier-1 anchor: every transient law, reconfiguration point and
/// repeated-target law is bit-identical to the pinned outputs.
#[test]
fn transient_laws_match_fixture() {
    let rendered = render_fixture();
    let pinned = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!("fixture transient_laws.txt unreadable ({e}); regenerate first")
    });
    for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "transient_laws.txt line {} diverges from the pinned solver",
            line + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "transient_laws.txt length mismatch"
    );
}

/// Rewrites the fixture from the current implementation.
#[test]
#[ignore]
fn regenerate() {
    std::fs::write(fixture_path(), render_fixture()).unwrap();
}
