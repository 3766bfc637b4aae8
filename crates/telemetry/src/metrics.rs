//! The metric registry: named counters behind one API, and a time-bucketed
//! event series.
//!
//! Design rule: hot paths own plain `u64` fields (single-writer, no atomics,
//! no false sharing), so the per-packet cost stays at zero. Live readers on
//! other threads go through the per-slice rolling windows
//! ([`crate::window`]), which writers update once per batch.

/// Types that expose their counters as a flat named list. Implemented by
/// `ShardStats`, `ClientReport`, and friends so exporters, tables, and
/// aggregation all go through one surface instead of per-struct glue.
pub trait Metrics {
    /// Counter names, in a fixed order matching [`metric_values`](Self::metric_values).
    fn metric_names(&self) -> &'static [&'static str];

    /// Current counter values, same order as names.
    fn metric_values(&self) -> Vec<u64>;

    /// Convenience: `(name, value)` pairs.
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.metric_names()
            .iter()
            .copied()
            .zip(self.metric_values())
            .collect()
    }

    /// Looks up one counter by name.
    fn metric(&self, name: &str) -> Option<u64> {
        self.metric_names()
            .iter()
            .position(|&n| n == name)
            .map(|i| self.metric_values()[i])
    }
}

/// Element-wise sums the metric values of many instances of one type.
pub fn sum_metrics<'a, M: Metrics + 'a, I: IntoIterator<Item = &'a M>>(
    parts: I,
) -> Vec<(&'static str, u64)> {
    let mut acc: Option<(&'static [&'static str], Vec<u64>)> = None;
    for m in parts {
        match &mut acc {
            None => acc = Some((m.metric_names(), m.metric_values())),
            Some((_, vals)) => {
                for (a, b) in vals.iter_mut().zip(m.metric_values()) {
                    *a += b;
                }
            }
        }
    }
    match acc {
        Some((names, vals)) => names.iter().copied().zip(vals).collect(),
        None => Vec::new(),
    }
}

/// Counts events into fixed-width time buckets (nanosecond timestamps) and
/// reports per-bucket rates. This is the engine behind both the simulator's
/// `ThroughputSeries` and livectl's live rate slices.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_ns: u64,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width in nanoseconds.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0, "bucket width must be non-zero");
        TimeSeries {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Records `n` events at time `at_ns`.
    #[inline]
    pub fn record_n(&mut self, at_ns: u64, n: u64) {
        let idx = (at_ns / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Records one event at time `at_ns`.
    #[inline]
    pub fn record(&mut self, at_ns: u64) {
        self.record_n(at_ns, 1);
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Raw per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// The series as `(bucket start in seconds, events per second)`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        let width_s = self.bucket_ns as f64 / 1e9;
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * width_s, c as f64 / width_s))
            .collect()
    }

    /// Average rate (events per second) over `[0, end_ns]`.
    pub fn average_rate(&self, end_ns: u64) -> f64 {
        let secs = end_ns as f64 / 1e9;
        if secs <= 0.0 {
            0.0
        } else {
            self.total() as f64 / secs
        }
    }

    /// Merges another series (same bucket width) into this one.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_ns, other.bucket_ns,
            "cannot merge series with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        a: u64,
        b: u64,
    }

    impl Metrics for Fake {
        fn metric_names(&self) -> &'static [&'static str] {
            &["alpha", "beta"]
        }
        fn metric_values(&self) -> Vec<u64> {
            vec![self.a, self.b]
        }
    }

    #[test]
    fn metrics_trait_surface() {
        let f = Fake { a: 3, b: 9 };
        assert_eq!(f.metrics(), vec![("alpha", 3), ("beta", 9)]);
        assert_eq!(f.metric("beta"), Some(9));
        assert_eq!(f.metric("gamma"), None);
    }

    #[test]
    fn sum_metrics_elementwise() {
        let parts = [Fake { a: 1, b: 2 }, Fake { a: 10, b: 20 }];
        assert_eq!(sum_metrics(parts.iter()), vec![("alpha", 11), ("beta", 22)]);
        let none: [Fake; 0] = [];
        assert!(sum_metrics(none.iter()).is_empty());
    }

    #[test]
    fn time_series_buckets_and_rates() {
        let mut s = TimeSeries::new(1_000_000_000);
        s.record(0);
        s.record(400_000_000);
        s.record(1_700_000_000);
        s.record_n(2_100_000_000, 10);
        assert_eq!(s.total(), 13);
        let series = s.rate_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 2.0));
        assert_eq!(series[1], (1.0, 1.0));
        assert_eq!(series[2], (2.0, 10.0));
        assert!((s.average_rate(13_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_series_merge() {
        let mut a = TimeSeries::new(100);
        a.record(50);
        let mut b = TimeSeries::new(100);
        b.record(250);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn time_series_merge_width_mismatch() {
        let mut a = TimeSeries::new(100);
        a.merge(&TimeSeries::new(200));
    }
}
