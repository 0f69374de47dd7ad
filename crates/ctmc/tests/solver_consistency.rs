//! Cross-solver consistency: Gauss-Seidel against GTH (direct, stable,
//! the ground truth) on randomly generated irreducible chains, plus
//! property-based tests on the builder/solver contracts.

use gprs_ctmc::{
    gth::solve_gth,
    solver::{solve_gauss_seidel, SolveOptions},
    transitions::balance_residual,
    SparseGenerator, TripletBuilder,
};
use proptest::prelude::*;

/// Builds a random irreducible generator: a cycle backbone (guarantees
/// irreducibility) plus random extra edges.
fn random_chain(n: usize, extra_edges: &[(usize, usize, f64)]) -> SparseGenerator {
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, (i + 1) % n, 1.0);
    }
    for &(i, j, r) in extra_edges {
        let (i, j) = (i % n, j % n);
        if i != j {
            b.push(i, j, r);
        }
    }
    b.build().expect("valid chain")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gauss_seidel_matches_gth(
        n in 2usize..25,
        edges in proptest::collection::vec(
            (0usize..25, 0usize..25, 0.01f64..10.0), 0..40),
    ) {
        let g = random_chain(n, &edges);
        let exact = solve_gth(&g).unwrap();
        let sol = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        for s in 0..n {
            prop_assert!((exact[s] - sol.pi[s]).abs() < 1e-7,
                "state {s}: gth={} gs={}", exact[s], sol.pi[s]);
        }
    }

    #[test]
    fn gth_solution_has_zero_residual(
        n in 2usize..30,
        edges in proptest::collection::vec(
            (0usize..30, 0usize..30, 0.001f64..100.0), 0..60),
    ) {
        let g = random_chain(n, &edges);
        let pi = solve_gth(&g).unwrap();
        prop_assert!(balance_residual(&g, &pi) < 1e-11);
    }

    #[test]
    fn stationarity_survives_warm_start_roundtrip(
        n in 2usize..20,
        edges in proptest::collection::vec(
            (0usize..20, 0usize..20, 0.01f64..10.0), 0..30),
    ) {
        let g = random_chain(n, &edges);
        let first = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        // Restarting from the solution must converge immediately (few sweeps).
        let second = solve_gauss_seidel(
            &g, Some(first.pi.as_slice()), &SolveOptions::default()).unwrap();
        prop_assert!(second.sweeps <= SolveOptions::default().check_every);
    }

    #[test]
    fn builder_never_loses_mass(
        n in 1usize..15,
        edges in proptest::collection::vec(
            (0usize..15, 0usize..15, 0.01f64..10.0), 0..30),
    ) {
        // Sum of all pushed rates == sum of exit rates after assembly.
        let mut b = TripletBuilder::new(n);
        let mut pushed = 0.0;
        for &(i, j, r) in &edges {
            let (i, j) = (i % n, j % n);
            if i != j {
                b.push(i, j, r);
                pushed += r;
            }
        }
        let g = b.build().unwrap();
        let total_exit: f64 = g.exit_rates().iter().sum();
        prop_assert!((pushed - total_exit).abs() < 1e-9 * pushed.max(1.0));
    }
}

#[test]
fn solvers_agree_on_mid_size_stiff_chain() {
    // A 500-state chain with three time scales, closer to the GPRS
    // model's stiffness profile.
    let n = 500;
    let mut b = TripletBuilder::new(n);
    for i in 0..n {
        b.push(i, (i + 1) % n, if i % 3 == 0 { 1e3 } else { 1.0 });
        if i >= 2 {
            b.push(i, i - 2, 1e-3);
        }
    }
    let g = b.build().unwrap();
    let exact = solve_gth(&g).unwrap();
    let sol = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
    let mut max_rel: f64 = 0.0;
    for s in 0..n {
        if exact[s] > 1e-12 {
            max_rel = max_rel.max((exact[s] - sol.pi[s]).abs() / exact[s]);
        }
    }
    assert!(max_rel < 1e-5, "max relative error {max_rel}");
}

#[test]
fn irreducibility_check_agrees_with_gth_success() {
    let mut b = TripletBuilder::new(6);
    b.push(0, 1, 1.0);
    b.push(1, 2, 1.0);
    b.push(2, 0, 1.0);
    b.push(3, 4, 1.0);
    b.push(4, 5, 1.0);
    b.push(5, 3, 1.0);
    // Two disjoint cycles: reducible.
    let g = b.build().unwrap();
    assert!(!g.is_irreducible());
}
