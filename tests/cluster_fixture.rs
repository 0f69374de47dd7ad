//! The cluster fixed-point contract, pinned **bitwise** in a committed
//! fixture rather than in a second live engine.
//!
//! `tests/fixtures/cluster_engines.txt` was rendered by the original
//! single-scan Jacobi and Gauss–Seidel iterations (one shard, one
//! thread) before they were folded into the shard engine. It records,
//! as 64-bit patterns, the iteration count, final handover delta,
//! relaxation factor, adaptive-step, surrogate and symbolic-setup
//! counts of every solve, each cell's handover fluxes, population
//! means, sweeps, residual and fallback rung, and the mid cell's full
//! measures — for a ring7 hot spot, a short-dwell hot spot that needs
//! adaptive relaxation, a hex torus, a corridor and the metro-city
//! topology, under both sweep orderings with the surrogate off and on
//! (see `tests/support/cluster_engines.rs`).
//!
//! The fixture is never regenerated: any change to the cluster fixed
//! point must reproduce every line. `tests/shard_equivalence.rs` holds
//! other shard and thread counts to the same lines.

#[path = "support/cluster_engines.rs"]
mod cluster_engines;

/// Tier-1 anchor: the one-shard, one-thread solve reproduces the
/// pinned single-scan outputs bit for bit.
#[test]
fn cluster_solves_match_the_pinned_fixture() {
    cluster_engines::assert_matches_fixture(&cluster_engines::render(1, 1), "shards=1/threads=1");
}

/// The short-dwell scenario really exercises adaptive relaxation (so
/// the fixture pins the relaxation trace, not only plain steps).
#[test]
fn fixture_covers_adaptive_relaxation() {
    let pinned = std::fs::read_to_string(cluster_engines::fixture_path()).unwrap();
    let trace = pinned
        .lines()
        .find(|l| l.starts_with("short-dwell-hot-spot/Jacobi/surrogate=false/trace "))
        .expect("short-dwell trace line");
    let adaptive_steps: usize = trace.split(' ').nth(4).unwrap().parse().unwrap();
    assert!(adaptive_steps > 0, "{trace}");
}
