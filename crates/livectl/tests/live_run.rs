//! End-to-end tests of the threaded, live-controlled fabric: a failure-free
//! run and a full kill → failover → repair run, with the closed loop, the
//! retry path, and the slice accounting all real.

use netchain_fabric::{FabricConfig, WorkloadSpec};
use netchain_livectl::{run_live_controlled, run_live_observed, FaultScript, LiveConfig};
use netchain_telemetry::{WindowChannel, WindowRegistry};
use netchain_wire::Ipv4Addr;
use std::time::Duration;

fn small_fabric() -> FabricConfig {
    FabricConfig {
        num_switches: 4,
        vnodes_per_switch: 8,
        ring_capacity: 256,
        ..FabricConfig::new(2)
    }
    .with_spares(1)
}

#[test]
fn live_run_without_faults_completes_cleanly() {
    let mut config = LiveConfig::new(
        small_fabric(),
        WorkloadSpec::mixed(128, 0, 60, 30),
        Duration::from_millis(300),
    );
    // Nothing drops in a failure-free run, so the retransmission timer only
    // measures scheduling noise; keep it out of the way (one core may park a
    // thread for milliseconds).
    config.retry_timeout = Duration::from_millis(200);
    let report = run_live_controlled(config);
    assert!(
        report.fabric.completed_ops > 0,
        "the run must make progress"
    );
    assert!(report.timeline.is_none());
    let slice_total: u64 = report.slices.iter().sum();
    assert_eq!(
        slice_total, report.fabric.completed_ops,
        "every completion lands in exactly one slice"
    );
    for client in &report.fabric.clients {
        assert_eq!(client.version_regressions, 0);
        assert_eq!(client.abandoned, 0);
    }
    assert_eq!(report.total_unroutable(), 0);
    assert_eq!(report.total_blocked(), 0);
    // Latency is always recorded (wall-clock, via the timed client API).
    assert_eq!(report.fabric.latency.count(), report.fabric.completed_ops);
    assert!(report.fabric.latency.quantiles().p999_ns >= report.fabric.latency.quantiles().p50_ns);
    // Tracing was off, so no trace fragments were produced.
    assert!(report.fabric.traces.is_empty());
    // A healthy symmetric run never trips the gray-failure monitor.
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
    assert!(report.ops_journal.instants().is_empty());
}

#[test]
fn observed_run_fills_the_shared_windows() {
    let mut config = LiveConfig::new(
        small_fabric(),
        WorkloadSpec::mixed(128, 0, 60, 30),
        Duration::from_millis(300),
    );
    config.retry_timeout = Duration::from_millis(200);
    let windows = WindowRegistry::new(2, 64, config.slice);
    let report = run_live_observed(config, windows.clone());
    assert!(report.fabric.completed_ops > 0);
    assert!(report.anomalies.is_empty());
    // Every reply a shard produced was recorded into its rolling window
    // (the run is far shorter than the 64-slice retention, so nothing has
    // rotated out).
    let mut window_ops = 0u64;
    let mut peak_depth = 0u64;
    for shard in 0..2 {
        for slice in 0..64 {
            if let Some(c) = windows.window(shard).read(slice) {
                window_ops += c[WindowChannel::Ops as usize];
                peak_depth = peak_depth.max(c[WindowChannel::QueueDepth as usize]);
            }
        }
    }
    let shard_replies: u64 = report.fabric.shards.iter().map(|s| s.replies).sum();
    assert_eq!(window_ops, shard_replies);
    assert!(peak_depth > 0, "busy bursts must record a queue depth");
}

#[test]
fn scripted_failure_fails_over_and_repairs_live() {
    let script = FaultScript {
        victim: Ipv4Addr::for_switch(1),
        kill_at: Duration::from_millis(250),
        failover_delay: Duration::from_millis(60),
        recovery_delay: Duration::from_millis(120),
        sync_duration: Duration::from_millis(240),
        recovery_groups: Some(8),
        replacement: None, // the spare
    };
    let config = LiveConfig::new(
        small_fabric().with_trace(netchain_telemetry::TraceConfig::sampled(4, 2048)),
        WorkloadSpec::mixed(128, 0, 50, 50),
        Duration::from_millis(1_100),
    )
    .with_script(script);
    let report = run_live_controlled(config);
    let timeline = report.timeline.as_ref().expect("a script ran");

    // The controller went through every phase, in order.
    assert!(timeline.killed_at >= script.kill_at);
    assert!(timeline.failover_installed_at >= timeline.failover_started_at);
    assert!(timeline.repair_started_at >= timeline.failover_installed_at);
    assert!(timeline.repair_finished_at >= timeline.repair_started_at);
    assert_eq!(timeline.groups_repaired, 8);
    assert_eq!(timeline.group_activations.len(), 8);

    // The dataplane kept serving: ops completed, none were permanently lost,
    // and consistency held across failover and repair.
    assert!(report.fabric.completed_ops > 0);
    assert_eq!(report.total_abandoned(), 0, "retries must cover every drop");
    for client in &report.fabric.clients {
        assert_eq!(client.version_regressions, 0);
    }
    // The failure was actually felt (queries to the dead switch were lost
    // until rules arrived, so clients retried), and repair actually blocked
    // (some queries hit a block rule).
    assert!(report.total_retries() > 0, "the kill must cost retries");
    let unroutable: u64 = report.fabric.shards.iter().map(|s| s.unroutable).sum();
    assert!(
        unroutable > 0,
        "pre-failover queries to the victim are lost"
    );

    // Repair actually blocked traffic group by group (block rules were hit).
    let blocked: u64 = report.fabric.shards.iter().map(|s| s.blocked).sum();
    assert!(blocked > 0, "repair must block some in-window queries");
    // Post-repair throughput recovers: the mean rate in the last 200 ms is
    // at least half the pre-failure mean (a loose, machine-independent
    // sanity bound; the experiment reports the real curves). Recovery with
    // zero abandoned ops also proves the spare took over: writes whose
    // repaired chain includes it cannot complete otherwise.
    let pre = report.mean_rate(Duration::from_millis(20), script.kill_at);
    let post = report.mean_rate(Duration::from_millis(880), Duration::from_millis(1_080));
    assert!(
        post > pre * 0.5,
        "throughput must recover after repair: pre={pre:.0} post={post:.0}"
    );

    // Telemetry rode along: real latency quantiles, sampled per-hop traces
    // (client issue hop → chain hops → client reply hop), and a journal
    // whose spans mirror the timeline.
    assert_eq!(report.fabric.latency.count(), report.fabric.completed_ops);
    assert!(
        !report.fabric.traces.is_empty(),
        "1/16 sampling must catch traces"
    );
    let summary = report.fabric.trace_summary();
    let path = summary.dominant_path().expect("some complete path");
    assert!(path.len() >= 3, "client + at least one switch + client");
    let journal = timeline.journal();
    let failover = journal.find_span("fast-failover").expect("span recorded");
    assert_eq!(
        failover.duration_ns(),
        Some(timeline.failover_install_time.as_nanos() as u64)
    );
    assert_eq!(
        journal
            .instants()
            .iter()
            .filter(|i| i.name.starts_with("activate-group:"))
            .count(),
        8
    );
    // A scripted fail-stop is not a gray failure: the dip is global (every
    // shard blocks/retries together), so the peer-median detector is silent.
    assert!(report.anomalies.is_empty(), "{:?}", report.anomalies);
}
