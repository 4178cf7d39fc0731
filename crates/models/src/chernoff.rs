//! Chernoff-bound machinery for the "WHP bound" analysis lines.
//!
//! The sample-sort and list-ranking algorithms are randomized; their
//! published analyses bound load-balance quantities (largest bucket
//! `B`, off-processor fraction `r`, per-iteration survivor counts
//! `x_i`, correction factors `c1`, `c2`) *with high probability* using
//! multiplicative Chernoff bounds on binomial random variables. This
//! module provides those bounds in a reusable form.
//!
//! For `X ~ Binomial(m, q)` with mean `μ = m·q`, the multiplicative
//! Chernoff bound states
//!
//! ```text
//! P[X ≥ (1+ε)μ] ≤ exp(−μ ε² / (2 + ε))
//! ```
//!
//! Setting the right-hand side to a failure budget `δ` and solving the
//! resulting quadratic for `ε` gives the smallest bound this form can
//! certify:
//!
//! ```text
//! ε = ( t + sqrt(t² + 8 μ t) ) / (2 μ),   t = ln(1/δ)
//! ```

/// Upper bound `B` such that `P[Binomial(m, q) > B] ≤ delta`, derived
/// from the multiplicative Chernoff bound.
///
/// Returns the bound as an `f64` (callers typically `ceil()` it when a
/// count is needed). For a zero-mean variable the bound is 0.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or `delta` is outside `(0, 1)`.
pub fn binomial_upper_bound(m: u64, q: f64, delta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "probability out of range: {q}");
    assert!(delta > 0.0 && delta < 1.0, "delta out of range: {delta}");
    let mu = m as f64 * q;
    if mu == 0.0 {
        return 0.0;
    }
    let eps = chernoff_epsilon(mu, delta);
    ((1.0 + eps) * mu).min(m as f64)
}

/// The ε satisfying `exp(−μ ε²/(2+ε)) = delta` for mean `mu`.
fn chernoff_epsilon(mu: f64, delta: f64) -> f64 {
    assert!(mu > 0.0, "mean must be positive");
    assert!(delta > 0.0 && delta < 1.0);
    let t = (1.0 / delta).ln();
    (t + (t * t + 8.0 * mu * t).sqrt()) / (2.0 * mu)
}

/// Lower bound `B` such that `P[Binomial(m, q) < B] ≤ delta`, from the
/// lower-tail Chernoff bound `P[X ≤ (1−ε)μ] ≤ exp(−μ ε²/2)`.
pub fn binomial_lower_bound(m: u64, q: f64, delta: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    assert!(delta > 0.0 && delta < 1.0);
    let mu = m as f64 * q;
    if mu == 0.0 {
        return 0.0;
    }
    let t = (1.0 / delta).ln();
    let eps = ((2.0 * t) / mu).sqrt().min(1.0);
    ((1.0 - eps) * mu).max(0.0)
}

/// WHP upper bound on the largest bucket of a sample sort that draws
/// `s_total` random samples (with replacement) and cuts a pivot every
/// `spp` samples.
///
/// A bucket can only exceed `B = q·n` elements if fewer than `spp`
/// samples landed inside some `B`-element window of the sorted input;
/// the number of samples in a fixed `q`-fraction window is
/// `Binomial(s_total, q)`, so the smallest `q` whose lower Chernoff
/// bound still reaches `spp` samples bounds every bucket with
/// probability `1 - delta` (after the caller splits the budget across
/// buckets). Found by bisection; monotone because the lower tail
/// bound grows with `q`.
pub fn sample_sort_bucket_bound(n: u64, s_total: u64, spp: u64, delta: f64) -> f64 {
    assert!(s_total >= spp && spp >= 1);
    assert!(delta > 0.0 && delta < 1.0);
    let enough = |q: f64| binomial_lower_bound(s_total, q, delta) >= spp as f64;
    if !enough(1.0) {
        return n as f64; // not enough samples to certify anything
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if enough(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (hi * n as f64).min(n as f64)
}

/// Split a total failure budget across `events` independent bad
/// events (union bound): each event gets `delta_total / events`.
#[cfg(test)]
fn union_budget(delta_total: f64, events: u64) -> f64 {
    assert!(events > 0);
    assert!(delta_total > 0.0 && delta_total < 1.0);
    delta_total / events as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_exceeds_mean() {
        let b = binomial_upper_bound(10_000, 0.1, 0.01);
        assert!(b > 1000.0, "bound {b} should exceed the mean 1000");
    }

    #[test]
    fn bound_clamped_to_population() {
        // With tiny m the Chernoff bound can exceed m; it must clamp.
        let b = binomial_upper_bound(4, 0.9, 0.001);
        assert!(b <= 4.0);
    }

    #[test]
    fn bound_tightens_with_larger_delta() {
        let strict = binomial_upper_bound(1_000_000, 0.5, 1e-9);
        let loose = binomial_upper_bound(1_000_000, 0.5, 0.1);
        assert!(strict > loose);
    }

    #[test]
    fn relative_slack_shrinks_with_mean() {
        // Chernoff concentration: (bound/mean) -> 1 as mean grows.
        let small = binomial_upper_bound(1_000, 0.5, 0.01) / 500.0;
        let large = binomial_upper_bound(100_000_000, 0.5, 0.01) / 50_000_000.0;
        assert!(large < small);
        assert!(large < 1.01);
    }

    #[test]
    fn zero_mean_gives_zero_bound() {
        assert_eq!(binomial_upper_bound(0, 0.5, 0.01), 0.0);
        assert_eq!(binomial_upper_bound(100, 0.0, 0.01), 0.0);
        assert_eq!(binomial_lower_bound(0, 0.5, 0.01), 0.0);
    }

    #[test]
    fn lower_bound_below_mean_and_nonnegative() {
        let lb = binomial_lower_bound(10_000, 0.25, 0.01);
        assert!(lb > 0.0 && lb < 2500.0);
        // Harsh delta on a tiny mean still clamps at zero.
        assert_eq!(binomial_lower_bound(2, 0.01, 1e-12), 0.0);
    }

    #[test]
    fn epsilon_solves_the_bound_equation() {
        let mu = 1234.5;
        let delta = 0.037;
        let eps = chernoff_epsilon(mu, delta);
        let prob = (-mu * eps * eps / (2.0 + eps)).exp();
        assert!((prob - delta).abs() < 1e-9, "eps did not invert: {prob} vs {delta}");
    }

    #[test]
    fn bucket_bound_exceeds_average_but_stays_proportional() {
        // p = 16 buckets, 32 samples per pivot gap.
        let n = 1 << 16;
        let b = sample_sort_bucket_bound(n, 512, 32, 0.01);
        let avg = n as f64 / 16.0;
        assert!(b > avg, "bound {b} must exceed the average bucket {avg}");
        assert!(b < 4.0 * avg, "bound {b} uselessly loose vs {avg}");
    }

    #[test]
    fn bucket_bound_tightens_with_oversampling() {
        let n = 1 << 20;
        let light = sample_sort_bucket_bound(n, 256, 16, 0.01);
        let heavy = sample_sort_bucket_bound(n, 4096, 256, 0.01);
        assert!(heavy < light, "more samples must tighten: {heavy} !< {light}");
    }

    #[test]
    fn bucket_bound_degenerates_gracefully() {
        // One pivot gap equal to the whole sample: bound is all of n.
        let b = sample_sort_bucket_bound(1000, 4, 4, 0.5);
        assert!(b <= 1000.0);
    }

    #[test]
    fn union_budget_divides() {
        assert_eq!(union_budget(0.1, 10), 0.01);
    }

    #[test]
    #[should_panic]
    fn bad_probability_rejected() {
        let _ = binomial_upper_bound(10, 1.5, 0.1);
    }

    #[test]
    #[should_panic]
    fn bad_delta_rejected() {
        let _ = binomial_upper_bound(10, 0.5, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The upper bound always dominates the mean and never exceeds
        /// the population.
        #[test]
        fn upper_bound_sandwich(m in 1u64..10_000_000, q in 0.001f64..0.999, d in 1e-6f64..0.5) {
            let b = binomial_upper_bound(m, q, d);
            let mu = m as f64 * q;
            prop_assert!(b >= mu * 0.999999);
            prop_assert!(b <= m as f64 + 1e-9);
        }

        /// Monotonicity: a larger population yields a bound at least
        /// as large for the same (q, delta).
        #[test]
        fn upper_bound_monotone_in_m(m in 1u64..1_000_000, extra in 1u64..1_000_000) {
            let b1 = binomial_upper_bound(m, 0.3, 0.01);
            let b2 = binomial_upper_bound(m + extra, 0.3, 0.01);
            prop_assert!(b2 >= b1 - 1e-9);
        }

        /// Lower bound never exceeds the mean; upper never below it.
        #[test]
        fn bounds_bracket_mean(m in 10u64..10_000_000, q in 0.01f64..0.99) {
            let mu = m as f64 * q;
            prop_assert!(binomial_lower_bound(m, q, 0.01) <= mu + 1e-9);
            prop_assert!(binomial_upper_bound(m, q, 0.01) >= mu - 1e-9);
        }
    }
}
