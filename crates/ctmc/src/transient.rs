//! Transient (time-dependent) solution via uniformization.
//!
//! Computes `π(t) = π(0)·exp(Qt)` as the Poisson-weighted sum
//! `Σ_k e^{-Λt}(Λt)^k/k! · π(0)Pᵏ` with `P = I + Q/Λ`. This is the
//! machinery the paper's future-work direction (adaptive performance
//! management, i.e. reacting to load changes) needs; it also provides an
//! independent check of the steady-state solvers (`π(t)` for large `t`
//! must approach `π`).
//!
//! # How one call runs
//!
//! * **Capture.** The generator is walked once: `for_each_outgoing` is
//!   called once per row, in row order, and every `(target, rate)` is
//!   stored in visit order in a private flat CSR, together with each
//!   state's self-loop weight `1 − exit/Λ`. Every uniformization step
//!   then scatters `next[j] += p·rate/Λ` over that copy instead of
//!   dispatching through the [`Transitions`] trait.
//! * **Bitwise contract.** The step performs the same floating-point
//!   operations in the same order as walking the generator on the fly
//!   would, so the laws do not depend on how the rows are stored
//!   (`tests/transient_fixture.rs` pins them). The capture deliberately
//!   does not reuse [`SparseGenerator::from_transitions`]: that sorts
//!   each row and merges duplicate targets, which changes the summation
//!   order — and so the bits — for any generator that reports a target
//!   more than once.
//! * **One pass for many horizons.** The iterates `π(0)Pᵏ` do not depend
//!   on the horizon. [`solve_transient_at`] steps them once and lets
//!   every horizon keep its own Poisson weight, running weight sum,
//!   truncation point and accumulator; each horizon stops exactly where
//!   a single-horizon solve would, so the pass costs the largest
//!   horizon's steps instead of their sum. [`solve_transient`] is the
//!   one-horizon case of the same code.
//!
//! [`SparseGenerator::from_transitions`]: crate::SparseGenerator::from_transitions

use crate::error::CtmcError;
use crate::transitions::Transitions;

/// Truncation tolerance for the Poisson tail: terms are accumulated until
/// the cumulative weight exceeds `1 - POISSON_TAIL_EPS`.
pub const POISSON_TAIL_EPS: f64 = 1e-12;

/// Head-room factor applied to the maximum exit rate when uniformizing;
/// keeps the self-loop probability strictly positive, which breaks
/// periodicity.
pub const UNIFORMIZATION_HEADROOM: f64 = 1.02;

/// Computes the transient distribution `π(t)` from initial distribution
/// `pi0`. Equivalent, bit for bit, to one horizon of
/// [`solve_transient_at`].
///
/// # Errors
///
/// * [`CtmcError::EmptyChain`] — zero states.
/// * [`CtmcError::DimensionMismatch`] — `pi0` has wrong length.
/// * [`CtmcError::InvalidGenerator`] — `pi0` is not a probability vector,
///   `t` is negative/non-finite, or the generator reports a target
///   outside the chain.
///
/// # Example
///
/// ```
/// use gprs_ctmc::{TripletBuilder, transient};
///
/// // Two-state chain starting in state 0.
/// let mut b = TripletBuilder::new(2);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 1.0);
/// let gen = b.build()?;
/// let pi = transient::solve_transient(&gen, &[1.0, 0.0], 1000.0)?;
/// assert!((pi[0] - 0.5).abs() < 1e-9); // long horizon ≈ steady state
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
pub fn solve_transient<G: Transitions + ?Sized>(
    gen: &G,
    pi0: &[f64],
    t: f64,
) -> Result<Vec<f64>, CtmcError> {
    Ok(solve_transient_at(gen, pi0, &[t])?.swap_remove(0))
}

/// Checks that every horizon is finite and `>= 0`.
///
/// [`solve_transient_at`] runs this before any other work; callers that
/// do expensive preparation before a transient solve (such as the
/// steady-state solves of a reconfiguration analysis) can run it first.
///
/// # Errors
///
/// [`CtmcError::InvalidGenerator`] naming the first offending horizon.
pub fn check_horizons(times: &[f64]) -> Result<(), CtmcError> {
    match times.iter().find(|t| !t.is_finite() || **t < 0.0) {
        Some(t) => Err(CtmcError::InvalidGenerator {
            reason: format!("time horizon must be finite and >= 0, got {t}"),
        }),
        None => Ok(()),
    }
}

/// Computes `π(t)` for every horizon in `times` (any order, repeats
/// allowed) in one uniformization pass, returning the laws in the order
/// of `times`. Each law is bitwise equal to a separate
/// [`solve_transient`] call with that horizon. The pass holds one
/// accumulator of `num_states` entries per horizon.
///
/// # Errors
///
/// As [`solve_transient`]; the horizons are checked before anything
/// else (see [`check_horizons`]).
///
/// # Example
///
/// ```
/// use gprs_ctmc::{TripletBuilder, transient};
///
/// let mut b = TripletBuilder::new(2);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 3.0);
/// let gen = b.build()?;
/// let laws = transient::solve_transient_at(&gen, &[1.0, 0.0], &[5.0, 0.0, 0.5])?;
/// assert_eq!(laws[1], vec![1.0, 0.0]);
/// assert_eq!(laws[2], transient::solve_transient(&gen, &[1.0, 0.0], 0.5)?);
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
pub fn solve_transient_at<G: Transitions + ?Sized>(
    gen: &G,
    pi0: &[f64],
    times: &[f64],
) -> Result<Vec<Vec<f64>>, CtmcError> {
    check_horizons(times)?;
    let n = gen.num_states();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }
    if pi0.len() != n {
        return Err(CtmcError::DimensionMismatch {
            expected: n,
            actual: pi0.len(),
        });
    }
    let total: f64 = pi0.iter().sum();
    if pi0.iter().any(|&x| !x.is_finite() || x < 0.0) || (total - 1.0).abs() > 1e-9 {
        return Err(CtmcError::InvalidGenerator {
            reason: "initial distribution must be a probability vector".into(),
        });
    }

    let exit: Vec<f64> = (0..n).map(|s| gen.exit_rate(s)).collect();
    let max_exit = exit.iter().fold(0.0f64, |m, &e| m.max(e));
    if max_exit == 0.0 || times.iter().all(|&t| t == 0.0) {
        return Ok(times.iter().map(|_| pi0.to_vec()).collect());
    }
    let lambda = max_exit * UNIFORMIZATION_HEADROOM;
    let chain = Captured::new(gen, &exit, lambda)?;

    let mut horizons: Vec<Horizon> = times.iter().map(|&t| Horizon::new(lambda * t, n)).collect();
    let mut laws: Vec<Option<Vec<f64>>> = times
        .iter()
        .map(|&t| (t == 0.0).then(|| pi0.to_vec()))
        .collect();
    let mut v = pi0.to_vec(); // π(0)·P^k, updated in place
    let mut next = vec![0.0f64; n];
    let mut k = 0usize;
    loop {
        let mut stepping = false;
        for (h, law) in horizons.iter_mut().zip(&mut laws) {
            if law.is_some() {
                continue;
            }
            if h.accumulate(&v, k) {
                *law = Some(h.finish());
            } else {
                stepping = true;
            }
        }
        if !stepping {
            break;
        }
        chain.step(&v, &mut next, lambda);
        std::mem::swap(&mut v, &mut next);
        k += 1;
    }
    Ok(laws.into_iter().flatten().collect())
}

/// The generator rows as visited, in a flat CSR: row `i` is
/// `edges[row_start[i]..row_start[i + 1]]`, in visit order, duplicates
/// kept. `stay[i]` is the self-loop weight `1 − exit_i/Λ`.
struct Captured {
    row_start: Vec<usize>,
    edges: Vec<(usize, f64)>,
    stay: Vec<f64>,
}

impl Captured {
    fn new<G: Transitions + ?Sized>(gen: &G, exit: &[f64], lambda: f64) -> Result<Self, CtmcError> {
        let n = exit.len();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        row_start.push(0);
        for i in 0..n {
            gen.for_each_outgoing(i, &mut |j, rate| edges.push((j, rate)));
            row_start.push(edges.len());
        }
        if let Some(&(j, _)) = edges.iter().find(|&&(j, _)| j >= n) {
            return Err(CtmcError::InvalidGenerator {
                reason: format!("transition target {j} outside a chain of {n} states"),
            });
        }
        let stay = exit.iter().map(|&e| 1.0 - e / lambda).collect();
        Ok(Captured {
            row_start,
            edges,
            stay,
        })
    }

    /// `next ← v·P`, row by row in the captured visit order.
    fn step(&self, v: &[f64], next: &mut [f64], lambda: f64) {
        next.fill(0.0);
        for (i, &p) in v.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for &(j, rate) in &self.edges[self.row_start[i]..self.row_start[i + 1]] {
                next[j] += p * rate / lambda;
            }
            next[i] += p * self.stay[i];
        }
    }
}

/// One horizon's share of the pass: the Poisson(`q = Λt`) weight of the
/// current step (in log space, so `e^{-q}` cannot underflow the later
/// terms away), the running weight sum and the weighted sum of iterates.
struct Horizon {
    q: f64,
    log_w: f64,
    cumulative: f64,
    /// Generous cap: mean q plus ~12 standard deviations.
    k_max: usize,
    result: Vec<f64>,
}

impl Horizon {
    fn new(q: f64, n: usize) -> Self {
        Horizon {
            q,
            log_w: -q, // ln of the Poisson(0) weight
            cumulative: 0.0,
            k_max: (q + 12.0 * q.sqrt() + 30.0).ceil() as usize,
            result: vec![0.0; n],
        }
    }

    /// Adds the weighted iterate `v = π(0)Pᵏ`; returns `true` once this
    /// horizon's Poisson sum is complete. Called for `k = 0, 1, 2, …`.
    fn accumulate(&mut self, v: &[f64], k: usize) -> bool {
        if k > 0 {
            self.log_w += self.q.ln() - (k as f64).ln();
        }
        let w = self.log_w.exp();
        if w > 0.0 {
            for (r, &x) in self.result.iter_mut().zip(v) {
                *r += w * x;
            }
            self.cumulative += w;
        }
        self.cumulative >= 1.0 - POISSON_TAIL_EPS || k >= self.k_max
    }

    /// The law, with the truncated tail accounted for by renormalizing.
    fn finish(&mut self) -> Vec<f64> {
        let mut result = std::mem::take(&mut self.result);
        let mass: f64 = result.iter().sum();
        if mass > 0.0 {
            for r in &mut result {
                *r /= mass;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Closed form for a two-state chain: p_00(t) = b/(a+b) + a/(a+b)·e^{-(a+b)t}
    /// with 0 -> 1 at rate a, 1 -> 0 at rate b, started in state 0.
    fn two_state_closed_form(a: f64, b: f64, t: f64) -> f64 {
        b / (a + b) + a / (a + b) * (-(a + b) * t).exp()
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (a, b) = (0.7, 0.3);
        let mut bld = TripletBuilder::new(2);
        bld.push(0, 1, a);
        bld.push(1, 0, b);
        let g = bld.build().unwrap();
        for &t in &[0.0, 0.1, 0.5, 1.0, 3.0, 10.0] {
            let pi = solve_transient(&g, &[1.0, 0.0], t).unwrap();
            let expect = two_state_closed_form(a, b, t);
            assert!(
                (pi[0] - expect).abs() < 1e-9,
                "t={t}: {} vs {expect}",
                pi[0]
            );
        }
    }

    #[test]
    fn long_horizon_reaches_steady_state() {
        let mut b = TripletBuilder::new(3);
        b.push(0, 1, 1.0);
        b.push(1, 2, 0.5);
        b.push(2, 0, 0.25);
        let g = b.build().unwrap();
        let exact = crate::gth::solve_gth(&g).unwrap();
        let pi = solve_transient(&g, &[1.0, 0.0, 0.0], 500.0).unwrap();
        for s in 0..3 {
            assert!((pi[s] - exact[s]).abs() < 1e-8, "state {s}");
        }
    }

    #[test]
    fn zero_time_returns_initial() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 5.0);
        b.push(1, 0, 5.0);
        let g = b.build().unwrap();
        let pi = solve_transient(&g, &[0.2, 0.8], 0.0).unwrap();
        assert_eq!(pi, vec![0.2, 0.8]);
    }

    #[test]
    fn large_q_does_not_underflow() {
        // Λt ≈ 1e4: e^{-q} underflows a naive implementation's first term;
        // result must still be a valid distribution near steady state.
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 10.0);
        b.push(1, 0, 30.0);
        let g = b.build().unwrap();
        let pi = solve_transient(&g, &[1.0, 0.0], 300.0).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((pi[0] - 0.75).abs() < 1e-6);
    }

    fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (s, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: state {s}: {x} vs {y}");
        }
    }

    #[test]
    fn many_horizons_match_single_solves_bitwise() {
        let mut b = TripletBuilder::new(4);
        b.push(0, 1, 2.0);
        b.push(0, 3, 0.4);
        b.push(1, 2, 1.5);
        b.push(2, 0, 0.9);
        b.push(2, 3, 0.2);
        b.push(3, 1, 3.1);
        let g = b.build().unwrap();
        let pi0 = [0.1, 0.6, 0.0, 0.3];
        // Unsorted, repeated, and including t = 0.
        let times = [7.5, 0.0, 0.3, 40.0, 0.3, 0.0, 2.0];
        let laws = solve_transient_at(&g, &pi0, &times).unwrap();
        assert_eq!(laws.len(), times.len());
        for (&t, law) in times.iter().zip(&laws) {
            let single = solve_transient(&g, &pi0, t).unwrap();
            assert_bitwise(law, &single, &format!("t = {t}"));
        }
        assert_eq!(laws[1], pi0.to_vec());
        assert!(solve_transient_at(&g, &pi0, &[]).unwrap().is_empty());
    }

    #[test]
    fn chain_without_transitions_keeps_the_initial_law() {
        let g = TripletBuilder::new(3).build().unwrap();
        let pi0 = [0.25, 0.5, 0.25];
        let times = [3.0, 0.0, 1e6];
        let laws = solve_transient_at(&g, &pi0, &times).unwrap();
        for (&t, law) in times.iter().zip(&laws) {
            assert_eq!(law, &pi0.to_vec());
            assert_bitwise(
                law,
                &solve_transient(&g, &pi0, t).unwrap(),
                "no transitions",
            );
        }
    }

    #[test]
    fn bad_horizons_rejected_before_anything_else() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let g = b.build().unwrap();
        for bad in [-1.0, -0.5e-300, f64::NAN, f64::INFINITY] {
            // Even with an invalid initial law, the horizon is what is
            // reported: it is checked first.
            let err = solve_transient_at(&g, &[0.4, 0.4], &[1.0, bad]).unwrap_err();
            assert!(
                matches!(err, CtmcError::InvalidGenerator { ref reason } if reason.contains("time horizon")),
                "{bad}: {err:?}"
            );
            assert!(check_horizons(&[0.0, bad]).is_err());
        }
        assert!(check_horizons(&[0.0, 1.0, 1e9]).is_ok());
    }

    #[test]
    fn out_of_range_target_is_a_typed_error() {
        struct Stray;
        impl Transitions for Stray {
            fn num_states(&self) -> usize {
                2
            }
            fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
                visit(state + 2, 1.0);
            }
        }
        let err = solve_transient(&Stray, &[1.0, 0.0], 1.0).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }), "{err:?}");
    }

    #[test]
    fn invalid_initial_distribution_rejected() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let g = b.build().unwrap();
        assert!(solve_transient(&g, &[0.4, 0.4], 1.0).is_err());
        assert!(solve_transient(&g, &[1.0], 1.0).is_err());
        assert!(solve_transient(&g, &[1.0, 0.0], -1.0).is_err());
    }
}
