//! The live failover run: *measured* throughput-vs-time of the multi-core
//! fabric while a switch is killed, fast failover reroutes, and chain repair
//! copies state to a spare — the live analogue of Figure 10, produced by
//! `netchain-livectl` instead of the discrete-event simulator.
//!
//! Where [`crate::fig10`] simulates the paper's testbed in virtual time,
//! this experiment runs real threads, real rings, real retries and a real
//! controller on the machine at hand, and reports wall-clock slices. The
//! headline structural claim it measures: with the key space repaired in
//! **many** virtual groups, only a small fraction of traffic is blocked at
//! any instant, so throughput during repair stays close to the failover
//! plateau — while **one** virtual group blocks everything destined to the
//! failed switch for the whole synchronisation window.

use crate::series::Series;
use netchain_fabric::{FabricConfig, WorkloadSpec};
use netchain_livectl::{run_live_controlled, FaultScript, LiveAnomaly, LiveConfig, LiveReport};
use netchain_telemetry::{
    trace_record_fields, ArtifactWriter, FlightRecorder, Json, Quantiles, TraceConfig,
};
use netchain_wire::Ipv4Addr;
use std::time::Duration;

/// Trace sampling used by the live failover runs: 1 in 2^6 queries carries a
/// per-hop trace, capped well below memory concerns.
const TRACE_SAMPLING: TraceConfig = TraceConfig {
    enabled: true,
    sample_shift: 6,
    max_traces: 4096,
};

/// Parameters of one live failover run (shared by every `groups` setting).
#[derive(Debug, Clone, Copy)]
pub struct FailoverLiveParams {
    /// Worker shards.
    pub shards: usize,
    /// Switches on the ring (one spare is always added as the replacement).
    pub switches: usize,
    /// Distinct keys.
    pub num_keys: u64,
    /// Percentage of reads (the rest are writes — writes are what blocking
    /// hits).
    pub read_pct: u8,
    /// Total run length.
    pub duration: Duration,
    /// Throughput slice width.
    pub slice: Duration,
    /// When the victim dies.
    pub kill_at: Duration,
    /// Failure-detection time before Algorithm 2 runs.
    pub failover_delay: Duration,
    /// Pause between failover and the start of repair.
    pub recovery_delay: Duration,
    /// Total state-synchronisation budget across all groups.
    pub sync_duration: Duration,
}

impl Default for FailoverLiveParams {
    fn default() -> Self {
        FailoverLiveParams {
            shards: 2,
            switches: 4,
            num_keys: 512,
            read_pct: 50,
            duration: Duration::from_millis(3_000),
            slice: Duration::from_millis(20),
            kill_at: Duration::from_millis(600),
            failover_delay: Duration::from_millis(50),
            recovery_delay: Duration::from_millis(350),
            sync_duration: Duration::from_millis(600),
        }
    }
}

impl FailoverLiveParams {
    /// A tiny configuration for CI smoke runs (finishes in under a second).
    pub fn smoke() -> Self {
        FailoverLiveParams {
            shards: 1,
            num_keys: 128,
            duration: Duration::from_millis(700),
            slice: Duration::from_millis(10),
            kill_at: Duration::from_millis(150),
            failover_delay: Duration::from_millis(30),
            recovery_delay: Duration::from_millis(70),
            sync_duration: Duration::from_millis(150),
            ..Default::default()
        }
    }

    fn window_means(&self, report: &LiveReport) -> FailoverLiveSummary {
        let timeline = report.timeline.as_ref().expect("a fault script ran");
        let margin = Duration::from_millis(40);
        let pre_failure = report.mean_rate(self.slice, self.kill_at);
        let failover_mean = report.mean_rate(
            timeline.failover_installed_at + margin,
            timeline.repair_started_at,
        );
        let repair_mean = report.mean_rate(timeline.repair_started_at, timeline.repair_finished_at);
        let post_repair = report.mean_rate(timeline.repair_finished_at + margin, self.duration);
        FailoverLiveSummary {
            groups: timeline.groups_repaired as u32,
            pre_failure,
            failover_mean,
            repair_mean,
            post_repair,
            blocked_fraction: if pre_failure > 0.0 {
                (1.0 - repair_mean / pre_failure).max(0.0)
            } else {
                0.0
            },
            failover_install_time: timeline.failover_install_time,
            retries: report.total_retries(),
            abandoned: report.total_abandoned(),
            version_regressions: report.total_version_regressions(),
            unroutable: report.total_unroutable(),
            blocked: report.total_blocked(),
            latency: report.fabric.latency.quantiles(),
        }
    }
}

/// Window means extracted from one run's slice series.
#[derive(Debug, Clone, Copy)]
pub struct FailoverLiveSummary {
    /// Groups the repair was staged in.
    pub groups: u32,
    /// Mean ops/sec before the kill.
    pub pre_failure: f64,
    /// Mean ops/sec between failover completion and repair start (chains
    /// one switch short).
    pub failover_mean: f64,
    /// Mean ops/sec during the repair window.
    pub repair_mean: f64,
    /// Mean ops/sec after the last group activated.
    pub post_repair: f64,
    /// `1 - repair_mean / pre_failure`: the throughput fraction blocking
    /// cost during repair (the Figure 10 claim: many groups ⇒ small
    /// fraction).
    pub blocked_fraction: f64,
    /// Measured time to install the failover rules on every shard.
    pub failover_install_time: Duration,
    /// Client retransmissions over the whole run.
    pub retries: u64,
    /// Abandoned queries (must be zero).
    pub abandoned: u64,
    /// Replies that travelled backwards in chain version (must be zero).
    pub version_regressions: u64,
    /// Queries the dataplane dropped for lack of a live route (nonzero only
    /// inside the kill→failover window).
    pub unroutable: u64,
    /// Writes bounced off blocked groups during repair.
    pub blocked: u64,
    /// Issue→reply wall-clock latency quantiles over the whole run.
    pub latency: Quantiles,
}

/// Runs one live failover experiment with the key space repaired in
/// `groups` virtual groups. Returns the absolute and normalised series, the
/// window summary, and the full report (latency, traces, timeline) for
/// artifact export.
pub fn failover_live(
    params: FailoverLiveParams,
    groups: u32,
) -> (Vec<Series>, FailoverLiveSummary, LiveReport) {
    let fabric = FabricConfig {
        num_switches: params.switches,
        vnodes_per_switch: 16,
        ring_capacity: 256,
        ..FabricConfig::new(params.shards)
    }
    .with_spares(1)
    .with_trace(TRACE_SAMPLING)
    // Pin shard threads to distinct cores (no-op on unsupported platforms)
    // so failover timings measure the protocol, not scheduler placement.
    .with_pinning(true);
    let workload = WorkloadSpec::mixed(params.num_keys, 0, params.read_pct, 100 - params.read_pct);
    let script = FaultScript {
        victim: Ipv4Addr::for_switch(1),
        kill_at: params.kill_at,
        failover_delay: params.failover_delay,
        recovery_delay: params.recovery_delay,
        sync_duration: params.sync_duration,
        recovery_groups: Some(groups),
        replacement: None, // the spare
    };
    let mut config = LiveConfig::new(fabric, workload, params.duration).with_script(script);
    config.slice = params.slice;
    let report = run_live_controlled(config);
    let summary = params.window_means(&report);
    let points = report.rate_series();
    let plateau = summary.pre_failure.max(1e-9);
    let absolute = Series::new(format!("ops/sec, {groups} vgroup(s)"), points.clone());
    let normalised = Series::new(
        format!("normalised, {groups} vgroup(s)"),
        points.iter().map(|&(t, r)| (t, r / plateau)).collect(),
    );
    (vec![absolute, normalised], summary, report)
}

/// Appends one run's records (summary, latency, control-plane spans, hop
/// traces) to the JSON-lines artifact.
fn export_run(
    artifact: &mut ArtifactWriter,
    groups: u32,
    summary: &FailoverLiveSummary,
    report: &LiveReport,
) {
    artifact.record(
        "summary",
        vec![
            ("groups", Json::U64(u64::from(groups))),
            ("completed_ops", Json::U64(report.fabric.completed_ops)),
            ("ops_per_sec", Json::F64(report.fabric.ops_per_sec)),
            ("pre_failure", Json::F64(summary.pre_failure)),
            ("failover_mean", Json::F64(summary.failover_mean)),
            ("repair_mean", Json::F64(summary.repair_mean)),
            ("post_repair", Json::F64(summary.post_repair)),
            ("blocked_fraction", Json::F64(summary.blocked_fraction)),
            (
                "failover_install_ns",
                Json::U64(summary.failover_install_time.as_nanos() as u64),
            ),
            ("retries", Json::U64(summary.retries)),
            ("abandoned", Json::U64(summary.abandoned)),
            (
                "version_regressions",
                Json::U64(summary.version_regressions),
            ),
            ("unroutable", Json::U64(summary.unroutable)),
            ("blocked", Json::U64(summary.blocked)),
            ("traces_dropped", Json::U64(report.fabric.traces_dropped)),
        ],
    );
    artifact.record(
        "latency",
        vec![
            ("groups", Json::U64(u64::from(groups))),
            ("quantiles", Json::from(summary.latency)),
        ],
    );
    // One artifact file holds several runs (one per group count), each with
    // its own timebase and version history; the `run` label on spans and
    // trace records lets `chain_audit` keep them apart.
    let run_label = format!("{groups}-vgroups");
    if let Some(timeline) = &report.timeline {
        artifact.record(
            "spans",
            vec![
                ("groups", Json::U64(u64::from(groups))),
                ("run", Json::str(&run_label)),
                ("journal", Json::from(&timeline.journal())),
            ],
        );
    }
    artifact.record(
        "hops",
        vec![
            ("groups", Json::U64(u64::from(groups))),
            ("summary", Json::from(&report.fabric.trace_summary())),
        ],
    );
    // Full per-trace evidence records, so `chain_audit` can replay the run's
    // consistency story offline from the artifact alone.
    for trace in &report.fabric.traces {
        let mut fields = trace_record_fields(trace);
        fields.push(("run", Json::str(&run_label)));
        artifact.record("trace", fields);
    }
}

/// Checks one smoke/structural invariant; on violation, dumps a flight
/// record of the offending run (control-plane journal, gray-failure journal,
/// throughput slices, anomalies) to the artifact dir before panicking, so a
/// failed CI smoke leaves its evidence behind instead of just a backtrace.
fn check_or_dump(ok: bool, msg: &str, groups: u32, report: &LiveReport) {
    if ok {
        return;
    }
    let recorder = FlightRecorder::new(1024);
    if let Some(timeline) = &report.timeline {
        recorder.record_journal(&timeline.journal());
    }
    recorder.record_journal(&report.ops_journal);
    let slice_ns = report.slice.as_nanos() as u64;
    for (i, &n) in report.slices.iter().enumerate() {
        recorder.record(i as u64 * slice_ns, "slice", vec![("ops", Json::U64(n))]);
    }
    for anomaly in &report.anomalies {
        let at_ns = match anomaly {
            LiveAnomaly::Gray(gray) => gray.slice * slice_ns,
            LiveAnomaly::Audit(violation) => violation.at_ns,
        };
        recorder.record(
            at_ns,
            "anomaly",
            vec![("detail", Json::str(anomaly.describe()))],
        );
    }
    recorder.record_trace_summary(
        report.fabric.elapsed.as_nanos() as u64,
        &report.fabric.trace_summary(),
    );
    if let Some(path) = recorder.dump(&format!("failover_live_{groups}")) {
        eprintln!(
            "failover_live: failure evidence dumped to {}",
            path.display()
        );
    }
    panic!("{msg}");
}

/// The `failover_live` command-line entry point: runs the coarse and fine
/// granularity settings, prints the series and summaries, and asserts the
/// Figure 10 structural claim. Shared by the `netchain-experiments` binary
/// and the workspace-root alias.
pub fn run_cli(smoke: bool) {
    use crate::print_series;
    let params = if smoke {
        FailoverLiveParams::smoke()
    } else {
        FailoverLiveParams::default()
    };
    let group_settings: &[u32] = if smoke { &[1, 16] } else { &[1, 100] };

    let mut artifact = ArtifactWriter::new("failover_live");
    let mut summaries = Vec::new();
    let mut reports = Vec::new();
    for &groups in group_settings {
        let (series, summary, report) = failover_live(params, groups);
        print_series(
            &format!("Live failover ({groups} vgroup(s))"),
            "time (s)",
            "ops/sec",
            &series,
        );
        println!(
            "summary ({groups} vgroups): pre-failure {:.0} ops/s | failover plateau {:.0} | \
             repair {:.0} (blocked fraction {:.2}) | post-repair {:.0} | \
             failover rules installed in {:?} | {} retries, {} abandoned\n",
            summary.pre_failure,
            summary.failover_mean,
            summary.repair_mean,
            summary.blocked_fraction,
            summary.post_repair,
            summary.failover_install_time,
            summary.retries,
            summary.abandoned,
        );
        println!("latency ({groups} vgroups): {}", summary.latency.to_line());
        println!(
            "dataplane ({groups} vgroups): {} unroutable drops (kill -> failover window), \
             {} writes bounced off blocked groups, {} version regressions",
            summary.unroutable, summary.blocked, summary.version_regressions,
        );
        let hops = report.fabric.trace_summary();
        if let Some(path) = hops.dominant_path() {
            println!(
                "traces ({groups} vgroups): {} sampled, {} fragments dropped past the \
                 sink cap; dominant path {}\n",
                hops.traces,
                report.fabric.traces_dropped,
                netchain_telemetry::path_to_string(path),
            );
        }
        check_or_dump(
            summary.abandoned == 0,
            "every op must survive the failure",
            groups,
            &report,
        );
        check_or_dump(
            summary.version_regressions == 0,
            "replies must never travel backwards in chain version",
            groups,
            &report,
        );
        export_run(&mut artifact, groups, &summary, &report);
        summaries.push(summary);
        reports.push(report);
    }
    if let Some(path) = artifact.write() {
        println!("artifact: {}", path.display());
    }
    let coarse = summaries[0];
    let fine = summaries[summaries.len() - 1];
    println!(
        "repair granularity: {} vgroups block {:.0}% of throughput, {} vgroups block {:.0}% \
         (fine-grained repair must block strictly less)",
        coarse.groups,
        coarse.blocked_fraction * 100.0,
        fine.groups,
        fine.blocked_fraction * 100.0,
    );
    check_or_dump(
        fine.blocked_fraction < coarse.blocked_fraction,
        "fine-grained repair must block a strictly smaller throughput fraction",
        fine.groups,
        reports.last().expect("at least one run"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_repair_blocks_a_strictly_larger_fraction_than_fine_repair() {
        let params = FailoverLiveParams {
            duration: Duration::from_millis(1_700),
            kill_at: Duration::from_millis(300),
            failover_delay: Duration::from_millis(40),
            recovery_delay: Duration::from_millis(160),
            sync_duration: Duration::from_millis(400),
            num_keys: 256,
            ..Default::default()
        };
        let (_, one, one_report) = failover_live(params, 1);
        let (_, many, _) = failover_live(params, 16);
        assert_eq!(one.abandoned, 0, "{one:?}");
        assert_eq!(many.abandoned, 0, "{many:?}");
        assert_eq!(one.version_regressions, 0, "{one:?}");
        assert!(one.pre_failure > 0.0 && many.pre_failure > 0.0);
        // Telemetry rides along: real latency quantiles and sampled traces.
        assert!(one.latency.count > 0 && one.latency.p999_ns >= one.latency.p50_ns);
        assert!(
            !one_report.fabric.traces.is_empty(),
            "sampling 1/64 must catch some"
        );
        // The structural claim (Figure 10): fine-grained repair blocks a
        // strictly smaller throughput fraction than one big group.
        assert!(
            many.blocked_fraction < one.blocked_fraction,
            "16 groups must block less than 1 group: {many:?} vs {one:?}"
        );
        // Throughput recovers after repair in both settings.
        assert!(one.post_repair > one.pre_failure * 0.4, "{one:?}");
        assert!(many.post_repair > many.pre_failure * 0.4, "{many:?}");
    }
}
