//! Order statistics over pass timings, and the FNV-1a digest the
//! deterministic simulated outputs are folded into.

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed
/// here equals the one the driver computes. A single value is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on the 1-based sorted sample, clamped so
        // both neighbours exist, then interpolated (or extrapolated,
        // for tiny samples, exactly as Python does).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float by its bit pattern: equal digests mean bit-equal
    /// simulated statistics, not merely close ones.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn get(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vectors_and_is_order_sensitive() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(Fnv::default().get(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv::default();
        a.bytes(b"a");
        assert_eq!(a.get(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv::default();
        foobar.bytes(b"foobar");
        assert_eq!(foobar.get(), 0x8594_4171_f739_67e8);
        // Splitting the input must not change the digest; reordering must.
        let mut split = Fnv::default();
        split.bytes(b"foo");
        split.bytes(b"bar");
        assert_eq!(split, foobar);
        let mut swapped = Fnv::default();
        swapped.bytes(b"barfoo");
        assert_ne!(swapped, foobar);
        let mut x = Fnv::default();
        x.f64(1.5);
        let mut y = Fnv::default();
        y.u64(1.5f64.to_bits());
        assert_eq!(x, y);
    }
}
