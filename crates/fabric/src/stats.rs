//! Counters and reports for fabric runs.
//!
//! The counter structs stay plain `u64` fields — single-writer, hot-path
//! friendly — and expose themselves through `netchain-telemetry`'s
//! [`Metrics`] trait, which is the one API exporters, tables, and
//! aggregation go through.

use std::time::Duration;

use netchain_telemetry::{HistSnapshot, Metrics, PacketTrace, TraceSummary};

/// Per-shard dataplane counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frames pulled from ingress rings.
    pub frames_in: u64,
    /// Frames that failed wire parsing.
    pub parse_errors: u64,
    /// Bursts processed (ring pulls that yielded at least one frame).
    pub bursts: u64,
    /// Chain waves executed across all bursts.
    pub waves: u64,
    /// Replies generated and encoded.
    pub replies: u64,
    /// Packets dropped by the switch program.
    pub drops: u64,
    /// Subset of `drops` caused by a recovery *block* rule (Algorithm 3
    /// phase 1) — the per-group write blocking the Figure 10 analogue
    /// measures.
    pub blocked: u64,
    /// Packets addressed to a switch this shard does not host (or a failed
    /// switch with no failover rule installed yet).
    pub unroutable: u64,
}

/// Counter names exported by [`ShardStats`] (`shard.` namespace).
pub const SHARD_METRICS: &[&str] = &[
    "shard.frames_in",
    "shard.parse_errors",
    "shard.bursts",
    "shard.waves",
    "shard.replies",
    "shard.drops",
    "shard.blocked",
    "shard.unroutable",
];

impl Metrics for ShardStats {
    fn metric_names(&self) -> &'static [&'static str] {
        SHARD_METRICS
    }

    fn metric_values(&self) -> Vec<u64> {
        vec![
            self.frames_in,
            self.parse_errors,
            self.bursts,
            self.waves,
            self.replies,
            self.drops,
            self.blocked,
            self.unroutable,
        ]
    }
}

/// Per-client load-generator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientReport {
    /// Queries issued.
    pub issued: u64,
    /// Replies matched to an outstanding query.
    pub completed: u64,
    /// Replies with `Ok` status.
    pub ok: u64,
    /// Replies with `CasFailed` status (expected under CAS contention).
    pub cas_failed: u64,
    /// Retransmissions sent (live-controlled runs only; the failure-free
    /// fabric never drops, so this stays zero there).
    pub retries: u64,
    /// Queries abandoned after exhausting the retry budget (must stay zero
    /// in any healthy run, including across failover and repair).
    pub abandoned: u64,
    /// Replies whose version regressed (must stay zero — the fabric is
    /// strongly consistent per key).
    pub version_regressions: u64,
}

/// Counter names exported by [`ClientReport`] (`client.` namespace).
pub const CLIENT_METRICS: &[&str] = &[
    "client.issued",
    "client.completed",
    "client.ok",
    "client.cas_failed",
    "client.retries",
    "client.abandoned",
    "client.version_regressions",
];

impl Metrics for ClientReport {
    fn metric_names(&self) -> &'static [&'static str] {
        CLIENT_METRICS
    }

    fn metric_values(&self) -> Vec<u64> {
        vec![
            self.issued,
            self.completed,
            self.ok,
            self.cas_failed,
            self.retries,
            self.abandoned,
            self.version_regressions,
        ]
    }
}

/// The result of a threaded (live) fabric run.
#[derive(Debug, Clone, Default)]
pub struct FabricReport {
    /// Wall-clock duration of the run (clients started → last client done).
    pub elapsed: Duration,
    /// Total operations completed across all clients.
    pub completed_ops: u64,
    /// Aggregate completed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Per-shard dataplane counters.
    pub shards: Vec<ShardStats>,
    /// Per-client counters.
    pub clients: Vec<ClientReport>,
    /// Issue→reply latency across all clients (wall-clock nanoseconds).
    pub latency: HistSnapshot,
    /// Merged in-band traces (empty when tracing is off).
    pub traces: Vec<PacketTrace>,
    /// Trace fragments the shard and client sinks discarded past their
    /// `max_traces` cap, summed. Nonzero means `traces` is a truncated view.
    pub traces_dropped: u64,
    /// Shard threads successfully pinned to a core (0 unless
    /// `FabricConfig::pin_shards` is set and the platform supports it).
    pub pinned_shards: usize,
}

impl FabricReport {
    /// Per-hop latency breakdown of the sampled traces.
    pub fn trace_summary(&self) -> TraceSummary {
        TraceSummary::from_traces(&self.traces)
    }
}

/// The result of a capacity (sequential-makespan) measurement: each shard's
/// partition is processed run-to-completion on the measuring core, and the
/// aggregate is computed for the deployment model of one pinned core per
/// shard (throughput = total ops / slowest shard's busy time). This is how
/// the paper itself evaluates scalability beyond its 4-switch testbed (§8.3)
/// and is the honest way to measure scaling on a machine with fewer cores
/// than shards.
#[derive(Debug, Clone, Default)]
pub struct CapacityReport {
    /// Ops processed by each shard.
    pub shard_ops: Vec<u64>,
    /// Busy (processing-only) time of each shard.
    pub shard_busy: Vec<Duration>,
    /// Total ops across shards.
    pub total_ops: u64,
    /// Replies observed (should equal total ops in a loss-free fabric).
    pub replies: u64,
    /// `total_ops / max(shard_busy)`: aggregate throughput assuming one core
    /// per shard.
    pub aggregate_ops_per_sec: f64,
    /// `shard_ops[i] / shard_busy[i]` for each shard.
    pub per_shard_ops_per_sec: Vec<f64>,
    /// Merged in-band traces (empty when tracing is off; capacity mode
    /// stamps shard hops only, there is no live client clock).
    pub traces: Vec<PacketTrace>,
}

impl CapacityReport {
    /// Per-hop latency breakdown of the sampled traces.
    pub fn trace_summary(&self) -> TraceSummary {
        TraceSummary::from_traces(&self.traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netchain_telemetry::sum_metrics;

    #[test]
    fn shard_stats_expose_all_counters() {
        let stats = ShardStats {
            frames_in: 1,
            parse_errors: 2,
            bursts: 3,
            waves: 4,
            replies: 5,
            drops: 6,
            blocked: 7,
            unroutable: 8,
        };
        let m = stats.metrics();
        assert_eq!(m.len(), SHARD_METRICS.len());
        assert_eq!(stats.metric("shard.blocked"), Some(7));
        assert_eq!(stats.metric("shard.unroutable"), Some(8));
    }

    #[test]
    fn client_reports_aggregate_elementwise() {
        let a = ClientReport {
            issued: 10,
            completed: 9,
            ..Default::default()
        };
        let b = ClientReport {
            issued: 5,
            completed: 5,
            abandoned: 1,
            ..Default::default()
        };
        let sum = sum_metrics([a, b].iter());
        assert!(sum.contains(&("client.issued", 15)));
        assert!(sum.contains(&("client.completed", 14)));
        assert!(sum.contains(&("client.abandoned", 1)));
    }
}
