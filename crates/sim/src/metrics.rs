//! Measurement helpers used by nodes and experiment harnesses:
//! time-bucketed throughput series (for the failure-handling time
//! series of Figure 10) and latency statistics (for Figure 9(e)).

use crate::time::{SimDuration, SimTime};

/// Counts events into fixed-width time buckets and reports a rate series.
///
/// This is how the failure-handling experiment reproduces the "throughput
/// time series of one client server" plots (Figure 10). The bucketing engine
/// lives in `netchain-telemetry`; this type adapts it to simulator time.
#[derive(Debug, Clone)]
pub struct ThroughputSeries {
    series: netchain_telemetry::TimeSeries,
}

impl ThroughputSeries {
    /// Creates a series with the given bucket width.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(bucket_width.as_nanos() > 0, "bucket width must be non-zero");
        ThroughputSeries {
            series: netchain_telemetry::TimeSeries::new(bucket_width.as_nanos()),
        }
    }

    /// Records one event at simulated time `at`.
    pub fn record(&mut self, at: SimTime) {
        self.series.record(at.as_nanos());
    }

    /// Records `n` events at simulated time `at`.
    pub fn record_n(&mut self, at: SimTime, n: u64) {
        self.series.record_n(at.as_nanos(), n);
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.series.total()
    }

    /// The series as `(bucket start time in seconds, events per second)`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        self.series.rate_series()
    }

    /// Average rate (events per second) over `[0, end]`.
    pub fn average_rate(&self, end: SimTime) -> f64 {
        self.series.average_rate(end.as_nanos())
    }

    /// The underlying telemetry series, for exporters.
    pub fn inner(&self) -> &netchain_telemetry::TimeSeries {
        &self.series
    }
}

/// Collects latency samples and reports summary statistics.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples_ns.push(latency.as_nanos());
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Arithmetic mean, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let sum: u128 = self.samples_ns.iter().map(|&v| u128::from(v)).sum();
        Some(SimDuration::from_nanos(
            (sum / self.samples_ns.len() as u128) as u64,
        ))
    }

    /// The `p`-th percentile (0 < p <= 100) using nearest-rank, or `None` if
    /// no samples were recorded.
    pub fn percentile(&mut self, p: f64) -> Option<SimDuration> {
        if self.samples_ns.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if !self.sorted {
            self.samples_ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p / 100.0) * self.samples_ns.len() as f64).ceil() as usize;
        let idx = rank.clamp(1, self.samples_ns.len()) - 1;
        Some(SimDuration::from_nanos(self.samples_ns[idx]))
    }

    /// Median latency.
    pub fn median(&mut self) -> Option<SimDuration> {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples_ns
            .iter()
            .min()
            .map(|&v| SimDuration::from_nanos(v))
    }

    /// Largest sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples_ns
            .iter()
            .max()
            .map(|&v| SimDuration::from_nanos(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_series_buckets_events() {
        let mut s = ThroughputSeries::new(SimDuration::from_secs(1));
        s.record(SimTime::ZERO);
        s.record(SimTime::ZERO + SimDuration::from_millis(400));
        s.record(SimTime::ZERO + SimDuration::from_millis(1700));
        s.record_n(SimTime::ZERO + SimDuration::from_millis(2100), 10);
        assert_eq!(s.total(), 13);
        let series = s.rate_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 2.0));
        assert_eq!(series[1], (1.0, 1.0));
        assert_eq!(series[2], (2.0, 10.0));
        let avg = s.average_rate(SimTime::ZERO + SimDuration::from_secs(13));
        assert!((avg - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bucket_width_rejected() {
        ThroughputSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn latency_stats_percentiles() {
        let mut l = LatencyStats::new();
        assert_eq!(l.mean(), None);
        for us in 1..=100u64 {
            l.record(SimDuration::from_micros(us));
        }
        assert_eq!(l.count(), 100);
        assert_eq!(l.mean(), Some(SimDuration::from_nanos(50_500)));
        assert_eq!(l.percentile(50.0), Some(SimDuration::from_micros(50)));
        assert_eq!(l.percentile(99.0), Some(SimDuration::from_micros(99)));
        assert_eq!(l.percentile(100.0), Some(SimDuration::from_micros(100)));
        assert_eq!(l.min(), Some(SimDuration::from_micros(1)));
        assert_eq!(l.max(), Some(SimDuration::from_micros(100)));
        assert_eq!(l.median(), Some(SimDuration::from_micros(50)));
    }

    #[test]
    fn percentile_of_single_sample() {
        let mut l = LatencyStats::new();
        l.record(SimDuration::from_micros(7));
        assert_eq!(l.percentile(1.0), Some(SimDuration::from_micros(7)));
        assert_eq!(l.percentile(99.9), Some(SimDuration::from_micros(7)));
    }
}
