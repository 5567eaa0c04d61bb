//! Log-bucketed (HDR-style) duration histograms with quantile estimation.
//!
//! [`LogHistogram`] splits each octave `[2^m, 2^(m+1))` into `2^SUB_BITS`
//! equal-width sub-buckets, so quantile estimates carry a bounded
//! *relative* error of `1 / 2^SUB_BITS` (≈3%). Recording is O(1) and
//! allocation-free; merging is element-wise, so each worker keeps a
//! private histogram and the engine folds them together at shutdown.
//! Out-of-range observations land in an explicit [`overflow`] counter
//! instead of being silently folded into the last bucket.
//!
//! There is one bucket scheme. A serialized histogram names it
//! (`"sub_bits": 5`), and one that names another scheme, or none, fails to
//! deserialize rather than being read under a layout it was not written
//! in.
//!
//! [`overflow`]: LogHistogram::overflow

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Sub-bucket resolution bits: 2^5 = 32 sub-buckets per octave, a ≤ 1/32
/// ≈ 3.1% relative quantile error.
pub(crate) const SUB_BITS: u32 = 5;

/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Highest octave covered: values below `2^(MAX_OCTAVE + 1)` ns (≈ 2.4
/// hours) are bucketed; anything larger counts as overflow.
const MAX_OCTAVE: u32 = 42;

/// Buckets in every histogram. The linear region `[1, 2·SUB)` uses indices
/// `1..2·SUB`; octave `m` in `(SUB_BITS, MAX_OCTAVE]` contributes `SUB`
/// buckets starting at `SUB · (m − SUB_BITS + 1)`.
const BUCKETS: usize = SUB * (MAX_OCTAVE - SUB_BITS + 2) as usize;

/// Log-bucketed duration histogram with per-octave linear sub-buckets.
///
/// See the module docs for the bucketing scheme.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "SerializedHistogram")]
pub struct LogHistogram {
    /// Raw bucket counts, [`BUCKETS`] of them.
    counts: Vec<u64>,
    /// Total observations, including overflow.
    total: u64,
    /// Observations beyond the covered range.
    overflow: u64,
    /// Always [`SUB_BITS`]: written so that a reader can refuse another
    /// scheme.
    sub_bits: u32,
    /// Saturating sum of recorded nanoseconds, for mean estimation.
    sum_ns: u64,
}

/// A deserialized [`LogHistogram`] before its scheme is checked.
#[derive(Deserialize)]
struct SerializedHistogram {
    counts: Vec<u64>,
    total: u64,
    overflow: u64,
    sub_bits: u32,
    sum_ns: u64,
}

impl TryFrom<SerializedHistogram> for LogHistogram {
    type Error = String;

    fn try_from(h: SerializedHistogram) -> Result<Self, Self::Error> {
        if h.sub_bits != SUB_BITS || h.counts.len() != BUCKETS {
            return Err(format!(
                "histogram of {} buckets at sub_bits {}; only {BUCKETS} buckets at \
                 sub_bits {SUB_BITS} are read",
                h.counts.len(),
                h.sub_bits
            ));
        }
        Ok(Self {
            counts: h.counts,
            total: h.total,
            overflow: h.overflow,
            sub_bits: h.sub_bits,
            sum_ns: h.sum_ns,
        })
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            overflow: 0,
            sub_bits: SUB_BITS,
            sum_ns: 0,
        }
    }

    /// Bucket index for `nanos`, or `None` when the value overflows the
    /// covered range.
    fn bucket_index(&self, nanos: u64) -> Option<usize> {
        let v = nanos.max(1);
        let octave = 63 - v.leading_zeros();
        let idx = if octave <= SUB_BITS {
            // Linear region: unit-width buckets, exact up to 2*SUB - 1.
            v as usize
        } else {
            let exp = octave - SUB_BITS;
            SUB * (exp + 1) as usize + ((v >> exp) as usize & (SUB - 1))
        };
        (idx < BUCKETS).then_some(idx)
    }

    /// Largest value (inclusive, in ns) that bucket `idx` covers.
    fn bucket_upper_ns(&self, idx: usize) -> u64 {
        if idx < 2 * SUB {
            return idx as u64; // exact-value bucket
        }
        let exp = (idx / SUB - 1) as u32;
        let offset = (idx % SUB) as u64;
        ((SUB as u64 + offset) << exp) + (1u64 << exp) - 1
    }

    /// Largest nanosecond value the bucket range covers; observations above
    /// it are counted in [`overflow`](Self::overflow).
    pub(crate) fn max_covered_ns(&self) -> u64 {
        self.bucket_upper_ns(BUCKETS - 1)
    }

    /// Records one observation of `nanos` nanoseconds.
    pub(crate) fn record_ns(&mut self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` observations of `nanos` nanoseconds each: one bucket
    /// lookup, and a histogram bit-identical to `n` calls of
    /// `record_ns` (the saturating sum saturates at the
    /// same point either way).
    pub fn record_n(&mut self, nanos: u64, n: u64) {
        self.total += n;
        self.sum_ns = self.sum_ns.saturating_add(nanos.saturating_mul(n));
        match self.bucket_index(nanos) {
            Some(i) => self.counts[i] += n,
            None => self.overflow += n,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Adds every observation of `other` into `self`, bucket by bucket.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.total += other.total;
        self.overflow += other.overflow;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Number of observations (overflow included).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Observations that exceeded the covered range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Upper bound (ns) of the bucket holding the `q`-quantile observation,
    /// or `None` for an empty histogram. Ranks landing in the overflow
    /// region report [`max_covered_ns`](Self::max_covered_ns) — an honest
    /// "at least this much".
    pub(crate) fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bucket_upper_ns(i));
            }
        }
        Some(self.max_covered_ns())
    }

    /// `quantile_ns` as a `Duration`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        self.quantile_ns(q).map(Duration::from_nanos)
    }

    /// `quantile_ns` in microseconds (0.0 when empty),
    /// the unit dashboards and the telemetry frames use.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).map(|ns| ns as f64 / 1e3).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_is_bit_identical_to_repeated_records() {
        // Linear region, sub-buckets, overflow, and a sum that saturates.
        let cases = [
            (1u64, 3u64),
            (63, 1),
            (1_500, 512),
            (1 << 50, 7),
            (u64::MAX / 3, 5),
        ];
        let mut batched = LogHistogram::new();
        let mut single = LogHistogram::new();
        for (nanos, n) in cases {
            batched.record_n(nanos, n);
            for _ in 0..n {
                single.record_ns(nanos);
            }
            assert_eq!(batched, single, "after {n} × {nanos} ns");
        }
        assert_eq!(
            (batched.sum_ns, batched.total),
            (single.sum_ns, single.total)
        );
        assert!(batched.overflow() > 0);
        batched.record_n(9, 0);
        assert_eq!(batched, single, "n = 0 records nothing");
    }

    #[test]
    fn linear_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 1..=63u64 {
            h.record_ns(v);
        }
        // Every value below 2*SUB = 64 has its own bucket: quantile(1.0)
        // with a single top value is exact.
        let mut top = LogHistogram::new();
        top.record_ns(63);
        assert_eq!(top.quantile_ns(1.0), Some(63));
        assert_eq!(h.count(), 63);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut values = Vec::new();
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1 + (state >> 20) % 50_000_000; // up to 50ms
            values.push(v);
            h.record_ns(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1] as f64;
            let est = h.quantile_ns(q).unwrap() as f64;
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 1.0 / 32.0 + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
            assert!(est >= exact, "bucket upper bound never underestimates");
        }
    }

    #[test]
    fn overflow_is_explicit_not_folded() {
        let mut h = LogHistogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(1000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 1);
        // A rank landing in the overflow region reports the covered max.
        assert_eq!(h.quantile_ns(1.0), Some(h.max_covered_ns()));
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut h = LogHistogram::new();
        for v in [1, 77, 4096, 123_456_789, u64::MAX] {
            h.record_ns(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn same_scheme_merge_is_elementwise() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_ns(10);
        b.record_ns(10);
        b.record_ns(5_000);
        b.record_ns(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.quantile_ns(0.25), Some(10));
    }

    #[test]
    fn other_schemes_and_bucket_counts_fail_to_deserialize() {
        let mut h = LogHistogram::new();
        h.record_ns(1_500);
        let json = serde_json::to_string(&h).unwrap();
        assert!(json.contains(r#""sub_bits":5"#), "{json}");
        let other_bucket_count = json.replacen("[0,", "[", 1);
        let bad = [
            json.replace(r#""sub_bits":5"#, r#""sub_bits":0"#),
            json.replace(r#""sub_bits":5"#, r#""sub_bits":6"#),
            json.replace(r#","sub_bits":5"#, ""),
            other_bucket_count,
            // The shape a histogram had before it recorded its scheme.
            r#"{"counts": [0, 2, 5], "total": 7}"#.to_string(),
        ];
        for bad in bad {
            assert!(serde_json::from_str::<LogHistogram>(&bad).is_err(), "{bad}");
        }
        assert_eq!(serde_json::from_str::<LogHistogram>(&json).unwrap(), h);
    }

    #[test]
    fn mean_uses_exact_sum() {
        let mut h = LogHistogram::new();
        h.record_ns(100);
        h.record_ns(300);
        assert_eq!((h.sum_ns, h.total), (400, 2));
        let empty = LogHistogram::new();
        assert_eq!((empty.sum_ns, empty.total), (0, 0));
    }

    #[test]
    fn bucket_index_is_monotonic_and_continuous() {
        let h = LogHistogram::new();
        let mut last = 0usize;
        for v in 1..100_000u64 {
            let idx = h.bucket_index(v).unwrap();
            assert!(idx >= last, "index regressed at v={v}");
            assert!(idx <= last + 1, "index skipped a bucket at v={v}");
            assert!(h.bucket_upper_ns(idx) >= v, "upper bound below value");
            last = idx;
        }
    }
}
