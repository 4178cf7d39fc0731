//! Named counters and fixed-bucket histograms with deterministic dumps.
//!
//! Every mutation is a commutative integer update (a `u64` add, a
//! bucket increment, a min/max fold), so a registry fed from several
//! worker threads in any interleaving always dumps byte-identically.
//! That is the property the `QSM_METRICS` golden test pins: output for
//! `QSM_JOBS=1` and `QSM_JOBS=4` must match to the byte. Floating
//! accumulation is deliberately absent — `f64` addition is not
//! associative, so a float sum would break that guarantee. The
//! percentile estimates in a dump are `f64`, but each is a pure
//! function of the (integer) bucket state, so byte-stability still
//! holds: equal contents render equal percentiles.

use std::collections::BTreeMap;

/// A power-of-two-bucket histogram of `u64` observations.
///
/// Bucket `i` counts observations whose bit length is `i`, i.e.
/// bucket 0 holds the value 0, bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range with no
/// overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Total number of observations.
    pub count: u64,
    /// Smallest observed value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observed value (0 while empty).
    pub max: u64,
    /// Sum of observed values.
    pub sum: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, min: u64::MAX, max: 0, sum: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    /// Bucket index for a value: its bit length (0 for 0).
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i == 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buckets[Self::bucket(v)] += 1;
    }

    /// Fold another histogram into this one (commutative, associative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation over the bucket that holds rank
    /// `q * (count - 1)`, with the bucket's value range clamped to
    /// the observed `[min, max]`.
    ///
    /// The estimate is exact whenever the bucket pins the value:
    /// all-equal data, `q = 0` (returns `min`), `q = 1` (returns
    /// `max`), and any lone observation that is the global extremum.
    /// Otherwise the error is bounded by the width of one
    /// power-of-two bucket. Returns 0 for an empty histogram.
    /// Because the result depends only on the bucket state, merging
    /// histograms in any order yields identical percentiles.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (self.count - 1) as f64;
        // Observations in buckets below the current one; bucket `i`
        // with count `c` covers sorted ranks `seen ..= seen + c - 1`.
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= (seen + c - 1) as f64 {
                let lo = Self::bucket_lo(i).max(self.min) as f64;
                let hi = Self::bucket_hi(i).min(self.max) as f64;
                if c == 1 {
                    // A lone observation: pinned when it is the
                    // global min or max, midpoint otherwise.
                    return if seen == 0 {
                        lo
                    } else if seen + 1 == self.count {
                        hi
                    } else {
                        (lo + hi) / 2.0
                    };
                }
                let t = ((rank - seen as f64) / (c - 1) as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * t;
            }
            seen += c;
        }
        self.max as f64
    }

    /// Non-empty buckets as `(lo, hi, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
    }

    /// Render as a JSON object. Percentile estimates are included for
    /// non-empty histograms; Rust's round-trip `f64` formatting keeps
    /// them byte-stable for equal bucket contents.
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"sum\":{},",
            self.count,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            self.sum
        );
        if self.count > 0 {
            s.push_str(&format!(
                "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},",
                self.percentile(0.50),
                self.percentile(0.90),
                self.percentile(0.99),
                self.percentile(0.999)
            ));
        }
        s.push_str("\"buckets\":[");
        let mut first = true;
        for (lo, hi, c) in self.nonzero_buckets() {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("[{lo},{hi},{c}]"));
        }
        s.push_str("]}");
        s
    }
}

/// A registry of named counters and histograms.
///
/// Keys are `&'static str` and storage is a `BTreeMap`, so the dump
/// order is the lexicographic key order regardless of insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Add `delta` to the named counter (created at 0 on first use).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Record one observation in the named histogram.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().observe(v);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold a whole histogram into the named one. An empty `h` is a
    /// no-op: a histogram exists only once something was observed.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        if h.count > 0 {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// Render the whole registry as a JSON document. Key order is
    /// lexicographic and every value is an integer, so equal contents
    /// always produce byte-equal output.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{name}\": {v}"));
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.hists {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{name}\": {}", h.to_json()));
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_hi(0), 0);
        assert_eq!(Histogram::bucket_lo(3), 4);
        assert_eq!(Histogram::bucket_hi(3), 7);
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn histogram_tracks_extrema_and_counts() {
        let mut h = Histogram::default();
        for v in [0, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.sum, 1011);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 0, 1), (1, 1, 1), (4, 7, 2), (512, 1023, 1)]);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.observe(3);
        a.observe(100);
        b.observe(7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn registry_dump_is_insertion_order_independent() {
        let mut a = MetricsRegistry::default();
        a.add("zulu", 1);
        a.add("alpha", 2);
        a.observe("size", 8);
        let mut b = MetricsRegistry::default();
        b.observe("size", 8);
        b.add("alpha", 2);
        b.add("zulu", 1);
        assert_eq!(a.to_json(), b.to_json());
        let j = a.to_json();
        assert!(j.find("\"alpha\"").unwrap() < j.find("\"zulu\"").unwrap());
    }

    #[test]
    fn percentile_is_exact_on_single_bucket_data() {
        // All observations equal: every quantile is that value.
        let mut h = Histogram::default();
        for _ in 0..17 {
            h.observe(42);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 42.0);
        }
        // Extremes are exact even across buckets.
        let mut h = Histogram::default();
        for v in [3, 9, 9, 200] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 3.0);
        assert_eq!(h.percentile(1.0), 200.0);
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        // 8..=15 all land in bucket [8, 15]: count 8, rank(q=0.5) is
        // 3.5, so the estimate interpolates halfway across the
        // clamped bucket range [8, 15].
        let mut h = Histogram::default();
        for v in 8..=15u64 {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.5), 11.5);
        assert_eq!(h.percentile(0.0), 8.0);
        assert_eq!(h.percentile(1.0), 15.0);
    }

    #[test]
    fn percentile_p999_sees_a_heavy_tail() {
        // 999 fast observations and one catastrophic outlier: p99
        // stays at the fast value while p999 lands exactly on the
        // outlier (a lone max observation is pinned).
        let mut h = Histogram::default();
        for _ in 0..999 {
            h.observe(1);
        }
        h.observe(1 << 40);
        assert_eq!(h.percentile(0.99), 1.0);
        assert_eq!(h.percentile(0.999), (1u64 << 40) as f64);
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::default().percentile(0.5), 0.0);
    }

    #[test]
    fn json_includes_percentiles_only_when_nonempty() {
        let mut h = Histogram::default();
        h.observe(42);
        let j = h.to_json();
        assert!(j.contains("\"p50\":42,"), "percentiles rendered: {j}");
        assert!(j.contains("\"p999\":42,"), "percentiles rendered: {j}");
        assert!(!Histogram::default().to_json().contains("\"p50\""));
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let j = MetricsRegistry::default().to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"counters\": {}"));
    }
}
