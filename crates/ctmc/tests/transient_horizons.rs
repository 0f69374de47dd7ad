//! Property test of the multi-horizon contract: one
//! `solve_transient_at` pass gives, for every horizon, the bits of a
//! separate `solve_transient` call.

use gprs_ctmc::{transient, TripletBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solve_transient_at_matches_single_horizon_solves(
        n in 1usize..12,
        edges in proptest::collection::vec(
            (0usize..12, 0usize..12, 0.01f64..8.0), 0..30),
        weights in proptest::collection::vec(0.0f64..1.0, 12),
        times in proptest::collection::vec(0.0f64..6.0, 0..6),
        zero_at in 0usize..8,
    ) {
        // Possibly reducible, possibly without any transition; targets
        // may repeat within a row.
        let mut b = TripletBuilder::new(n);
        for &(i, j, r) in &edges {
            let (i, j) = (i % n, j % n);
            if i != j {
                b.push(i, j, r);
            }
        }
        let g = b.build().unwrap();
        let mut pi0: Vec<f64> = weights[..n].iter().map(|w| w + 0.01).collect();
        let total: f64 = pi0.iter().sum();
        pi0.iter_mut().for_each(|p| *p /= total);
        let mut times = times;
        if zero_at < times.len() {
            times[zero_at] = 0.0;
        }
        if let Some(&t) = times.first() {
            times.push(t); // a repeated horizon
        }

        let laws = transient::solve_transient_at(&g, &pi0, &times).unwrap();
        prop_assert_eq!(laws.len(), times.len());
        for (&t, law) in times.iter().zip(&laws) {
            let single = transient::solve_transient(&g, &pi0, t).unwrap();
            let a: Vec<u64> = law.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u64> = single.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(a, b, "t = {}", t);
        }
    }
}
