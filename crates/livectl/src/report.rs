//! Reports for live-controlled runs: the time-sliced throughput series and
//! the controller's phase timeline.

use crate::detector::Anomaly;
use netchain_fabric::FabricReport;
use netchain_telemetry::{Journal, Violation};
use std::time::Duration;

/// Anything the live monitor flagged during the run: a statistical gray
/// failure (one shard quietly degrading) or a consistency violation the
/// shadow auditor caught in the sampled trace stream. Both also produce
/// flight-recorder dumps in the artifact dir.
#[derive(Debug, Clone)]
pub enum LiveAnomaly {
    /// A gray-failure verdict from the [`crate::GrayFailureDetector`].
    Gray(Anomaly),
    /// A chain-invariant violation from the online
    /// [`netchain_telemetry::ShadowAuditor`].
    Audit(Violation),
}

impl LiveAnomaly {
    /// One-line human description.
    pub fn describe(&self) -> String {
        match self {
            LiveAnomaly::Gray(a) => a.describe(),
            LiveAnomaly::Audit(v) => v.describe(),
        }
    }

    /// True for shadow-auditor consistency violations.
    pub fn is_audit(&self) -> bool {
        matches!(self, LiveAnomaly::Audit(_))
    }
}

/// When each control-plane phase happened, as offsets from run start, plus
/// the measured rule-installation latency.
#[derive(Debug, Clone, Default)]
pub struct FailoverTimeline {
    /// When the victim was killed on every shard.
    pub killed_at: Duration,
    /// When the controller started installing fast-failover rules (kill +
    /// detection delay).
    pub failover_started_at: Duration,
    /// When every shard had acknowledged the fast-failover rules and session
    /// bumps — the dataplane is rerouting from this instant.
    pub failover_installed_at: Duration,
    /// `failover_installed_at - failover_started_at`: the measured failover
    /// programming time (the paper's sub-millisecond claim, measured here
    /// against the software fabric's control channel).
    pub failover_install_time: Duration,
    /// When chain repair started (first group blocked).
    pub repair_started_at: Duration,
    /// When the last group was activated.
    pub repair_finished_at: Duration,
    /// Per-group activation instants, in repair order.
    pub group_activations: Vec<Duration>,
    /// Number of groups repaired.
    pub groups_repaired: usize,
}

impl FailoverTimeline {
    /// The timeline as a telemetry [`Journal`]: the same phase structure the
    /// simulated controller records, so live and simulated runs export
    /// comparable span records.
    pub fn journal(&self) -> Journal {
        let mut journal = Journal::default();
        journal.instant("killed", self.killed_at.as_nanos() as u64);
        journal.span(
            "fast-failover",
            self.failover_started_at.as_nanos() as u64,
            self.failover_installed_at.as_nanos() as u64,
        );
        journal.span(
            "repair",
            self.repair_started_at.as_nanos() as u64,
            self.repair_finished_at.as_nanos() as u64,
        );
        for (i, at) in self.group_activations.iter().enumerate() {
            journal.instant(format!("activate-group:{i}"), at.as_nanos() as u64);
        }
        journal
    }
}

/// The result of a live-controlled run.
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// What the fabric runtime reports for any live run: elapsed time,
    /// completed ops, per-client and per-shard counters, latency, and the
    /// merged traces.
    pub fabric: FabricReport,
    /// Width of one throughput slice.
    pub slice: Duration,
    /// Completed operations per slice, summed over clients (index 0 starts
    /// at run start).
    pub slices: Vec<u64>,
    /// The controller's phase timeline (present when a fault script ran).
    pub timeline: Option<FailoverTimeline>,
    /// Everything the live monitor flagged — gray failures and shadow-audit
    /// consistency violations (empty in a healthy run; each one also
    /// produced a flight-recorder dump in the artifact dir).
    pub anomalies: Vec<LiveAnomaly>,
    /// The monitor's journal: one instant per flagged anomaly.
    pub ops_journal: Journal,
}

impl LiveReport {
    /// The throughput series as `(slice midpoint in seconds, ops/sec)`
    /// points, ready for `netchain_experiments::Series`.
    pub fn rate_series(&self) -> Vec<(f64, f64)> {
        let w = self.slice.as_secs_f64();
        self.slices
            .iter()
            .enumerate()
            .map(|(i, &n)| (w * (i as f64 + 0.5), n as f64 / w))
            .collect()
    }

    /// Mean throughput (ops/sec) over `[from, to)` offsets from run start,
    /// counting only slices that lie entirely inside the window.
    pub fn mean_rate(&self, from: Duration, to: Duration) -> f64 {
        let w = self.slice.as_nanos().max(1);
        let lo = (from.as_nanos().div_ceil(w)) as usize;
        let hi = ((to.as_nanos() / w) as usize).min(self.slices.len());
        if lo >= hi {
            return 0.0;
        }
        let total: u64 = self.slices[lo..hi].iter().sum();
        total as f64 / ((hi - lo) as f64 * self.slice.as_secs_f64())
    }

    /// Total retransmissions across clients (the visible cost of the dip).
    pub fn total_retries(&self) -> u64 {
        self.fabric.clients.iter().map(|c| c.retries).sum()
    }

    /// Total abandoned queries across clients (must be zero in a healthy
    /// run — every op eventually completes through failover and repair).
    pub fn total_abandoned(&self) -> u64 {
        self.fabric.clients.iter().map(|c| c.abandoned).sum()
    }

    /// Total version regressions observed by clients (must be zero: replies
    /// never travel backwards in chain version).
    pub fn total_version_regressions(&self) -> u64 {
        self.fabric
            .clients
            .iter()
            .map(|c| c.version_regressions)
            .sum()
    }

    /// Queries dropped for lack of a route, summed over shards (nonzero
    /// during the window between a kill and the failover rules landing).
    pub fn total_unroutable(&self) -> u64 {
        self.fabric.shards.iter().map(|s| s.unroutable).sum()
    }

    /// Writes bounced off blocked groups during repair, summed over shards.
    pub fn total_blocked(&self) -> u64 {
        self.fabric.shards.iter().map(|s| s.blocked).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_and_window_means() {
        let report = LiveReport {
            slice: Duration::from_millis(100),
            slices: vec![10, 20, 30, 40],
            ..Default::default()
        };
        let series = report.rate_series();
        assert_eq!(series.len(), 4);
        assert!((series[0].0 - 0.05).abs() < 1e-9);
        assert!((series[0].1 - 100.0).abs() < 1e-9);
        // Slices 1 and 2 average (20 + 30) / 0.2s.
        let mean = report.mean_rate(Duration::from_millis(100), Duration::from_millis(300));
        assert!((mean - 250.0).abs() < 1e-9, "{mean}");
        assert_eq!(
            report.mean_rate(Duration::from_millis(150), Duration::from_millis(180)),
            0.0
        );
    }
}
