//! The live-controlled fabric runner: `run_live` plus a control plane.
//!
//! [`run_live_controlled`] runs on the fabric's own threaded runtime,
//! [`netchain_fabric::run_live_with`]: the same rings, shard loop, client
//! loop and join as [`netchain_fabric::run_live`]. This module only plugs in
//! what a controlled run adds:
//!
//! * every shard gets a **control channel** (one SPSC ring per direction) the
//!   controller thread programs it through, drained at burst boundaries, and
//!   records its per-slice ops / blocked / queue depth into a rolling
//!   window once per busy round;
//! * clients are **duration-driven and retrying**: a query the dataplane
//!   drops (a dead switch before rules arrive, a blocked group during
//!   repair) is retransmitted after a timeout, exactly like the paper's UDP
//!   clients, and every completion is bucketed into a **time slice** so the
//!   run produces a throughput-vs-time series;
//! * an optional **controller** executes a [`FaultScript`] live: kill the
//!   victim, run Algorithm 2 after the detection delay, then repair the
//!   chains group by group with two-phase atomic switching — copying real
//!   register state from donor to replacement through the control channel
//!   while untouched groups keep serving;
//! * a **monitor thread** judges the rolling windows with the gray-failure
//!   detector and feeds finished traces to the shadow auditor.

use crate::control::{self, ControlCmd, ControlEvt};
use crate::detector::{DetectorConfig, GrayFailureDetector};
use crate::report::{FailoverTimeline, LiveAnomaly, LiveReport};
use crate::script::FaultScript;
use netchain_core::failplan::{self, FailoverPlan, RecoveryPlan};
use netchain_core::{AgentConfig, HashRing};
use netchain_fabric::{
    run_live_with, spsc_ring, ClientHook, ClientState, Consumer, FabricConfig, Producer,
    RetryBatch, Shard, ShardHook, WorkloadSpec,
};
use netchain_sim::{SimDuration, SimTime};
use netchain_telemetry::{
    merge_traces, FlightRecorder, Journal, Json, PacketTrace, RollingWindow, ShadowAuditor,
    TimeSeries, WindowChannel, WindowRegistry,
};
use netchain_wire::Ipv4Addr;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long after the deadline clients keep draining outstanding queries
/// before giving up on the run.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Capacity of each control ring, in commands/events.
const CONTROL_RING: usize = 64;

/// Slices retained by the default observation windows — enough history to
/// cover any plausible gray-failure streak plus the flight-recorder dump.
const OBSERVE_SLICES: usize = 64;

/// Events the monitor's flight recorder retains.
const FLIGHT_CAPACITY: usize = 256;

/// Configuration of a live-controlled run.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Fabric geometry (shards, clients, switches, spares, rings).
    pub fabric: FabricConfig,
    /// Op mix and key population. `ops_per_client` is ignored: the run is
    /// duration-driven.
    pub workload: WorkloadSpec,
    /// Wall-clock length of the measured run.
    pub duration: Duration,
    /// Width of one throughput slice.
    pub slice: Duration,
    /// Client retransmission timeout (paper: ~1 ms for datacenter RTTs).
    pub retry_timeout: Duration,
    /// Client retry budget. Generous by default: during a blocked group's
    /// sync window a write legitimately retries many times.
    pub max_retries: u32,
    /// The fault to inject, if any.
    pub script: Option<FaultScript>,
}

impl LiveConfig {
    /// A live run of `fabric` under `workload` for `duration`, with 20 ms
    /// slices, 1 ms retransmission timeout, and no fault.
    pub fn new(fabric: FabricConfig, workload: WorkloadSpec, duration: Duration) -> Self {
        LiveConfig {
            fabric,
            workload,
            duration,
            slice: Duration::from_millis(20),
            retry_timeout: Duration::from_millis(1),
            max_retries: 100_000,
            script: None,
        }
    }

    /// Returns a copy with the given fault script.
    pub fn with_script(mut self, script: FaultScript) -> Self {
        self.script = Some(script);
        self
    }
}

/// The controller's end of one shard's control channel.
struct ControllerLink {
    tx: Producer<ControlCmd>,
    rx: Consumer<ControlEvt>,
}

impl ControllerLink {
    fn send(&mut self, cmd: ControlCmd) {
        self.tx.push_yielding(cmd, || false);
    }

    fn wait(&mut self, token: u64) -> ControlEvt {
        loop {
            if let Some(evt) = self.rx.pop() {
                assert_eq!(
                    evt.token(),
                    token,
                    "control channel is FIFO; events must arrive in order"
                );
                return evt;
            }
            std::thread::yield_now();
        }
    }
}

/// The live controller: executes the fault script against the shards.
struct LiveController {
    links: Vec<ControllerLink>,
    ring: HashRing,
    spares: Vec<Ipv4Addr>,
    next_token: u64,
    /// Continues the same sequence the simulated controller uses: failover
    /// head bumps first, then one bump per activated group.
    next_session: u64,
}

impl LiveController {
    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Sends `cmd(token)` to every shard and waits for all acks.
    fn broadcast(&mut self, cmd: impl Fn(u64) -> ControlCmd) {
        let tokens: Vec<u64> = (0..self.links.len()).map(|_| self.token()).collect();
        for (link, &token) in self.links.iter_mut().zip(&tokens) {
            link.send(cmd(token));
        }
        for (link, &token) in self.links.iter_mut().zip(&tokens) {
            link.wait(token);
        }
    }

    fn sleep_until(t0: Instant, offset: Duration) {
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= offset {
                return;
            }
            std::thread::sleep((offset - elapsed).min(Duration::from_millis(1)));
        }
    }

    /// Runs the script; returns the phase timeline.
    fn run(&mut self, script: &FaultScript, t0: Instant) -> FailoverTimeline {
        let mut timeline = FailoverTimeline::default();
        let victim = script.victim;

        // Fault injection.
        Self::sleep_until(t0, script.kill_at);
        self.broadcast(|token| ControlCmd::KillSwitch { ip: victim, token });
        timeline.killed_at = t0.elapsed();

        // Fast failover (Algorithm 2), after the detection delay. The
        // command sequence is shared with the replay driver.
        Self::sleep_until(t0, script.kill_at + script.failover_delay);
        timeline.failover_started_at = t0.elapsed();
        let plan = FailoverPlan::compute(&self.ring, victim);
        for builder in control::failover_sequence(&plan, self.next_session) {
            self.broadcast(&builder);
        }
        self.next_session += plan.new_heads.len() as u64;
        timeline.failover_installed_at = t0.elapsed();
        timeline.failover_install_time =
            timeline.failover_installed_at - timeline.failover_started_at;

        // Chain repair (Algorithm 3), group by group.
        let replacement = script
            .replacement
            .or_else(|| self.spares.first().copied())
            .or_else(|| {
                failplan::pick_replacement(
                    &self.ring,
                    victim,
                    &std::collections::HashSet::from([victim]),
                    None,
                )
            })
            .expect("a replacement switch exists");
        let rplan = RecoveryPlan::compute(
            &self.ring,
            victim,
            replacement,
            script.recovery_groups,
            &std::collections::HashSet::from([victim]),
        );
        let per_group = script.sync_duration / rplan.steps.len().max(1) as u32;
        let repair_start = script.kill_at + script.failover_delay + script.recovery_delay;
        Self::sleep_until(t0, repair_start);
        timeline.repair_started_at = t0.elapsed();
        for (i, step) in rplan.steps.iter().enumerate() {
            // Phase 1: block this group's traffic to the victim, everywhere,
            // before any state moves.
            self.broadcast(|token| ControlCmd::InstallRule {
                failed_ip: victim,
                rule: step.block,
                token,
            });
            // Synchronise: pull the group's entries from every live donor
            // replica of each shard and push the union into the same shard's
            // replacement replica (shards own disjoint keys, so a group's
            // donors and replacement always pair up within one shard; the
            // per-key version registers arbitrate between donors).
            for &donor in &step.donors {
                for link in self.links.iter_mut() {
                    self.next_token += 1;
                    let token = self.next_token;
                    link.send(ControlCmd::ExportGroup {
                        ip: donor,
                        group: step.group,
                        modulus: rplan.modulus,
                        token,
                    });
                    let ControlEvt::Export { entries, .. } = link.wait(token) else {
                        unreachable!("ExportGroup is answered with Export");
                    };
                    self.next_token += 1;
                    let token = self.next_token;
                    link.send(ControlCmd::ImportEntries {
                        ip: replacement,
                        entries,
                        token,
                    });
                    link.wait(token);
                }
            }
            // The blocked window is the group's share of the sync budget
            // (the real copy above is fast; the budget models the paper's
            // measured switch-control-plane copy cost). Pacing is against
            // the absolute schedule, so control-channel overhead on a busy
            // machine eats into later budgets instead of accumulating drift.
            Self::sleep_until(t0, repair_start + per_group * (i as u32 + 1));
            // Phase 2: activate the replacement and atomically switch the
            // group over (redirect overrides the block it replaces). The
            // sequence is shared with the replay driver.
            let session = self.next_session;
            self.next_session += 1;
            for builder in control::activation_sequence(victim, replacement, session, step) {
                self.broadcast(&builder);
            }
            timeline.group_activations.push(t0.elapsed());
        }
        timeline.repair_finished_at = t0.elapsed();
        timeline.groups_repaired = rplan.steps.len();
        timeline
    }
}

/// Runs the fabric live under control: threads, rings, retrying clients,
/// time-sliced throughput accounting, and (optionally) a scripted failure
/// handled by the live controller. Returns after the run drains.
///
/// Observation windows are created internally, sized from `config.slice`;
/// use [`run_live_observed`] to share a [`WindowRegistry`] with an external
/// reader (a dashboard polling the same windows the detector judges).
pub fn run_live_controlled(config: LiveConfig) -> LiveReport {
    let windows = WindowRegistry::new(config.fabric.num_shards, OBSERVE_SLICES, config.slice);
    run_live_observed(config, windows)
}

/// A controlled shard's additions to the fabric's shard loop: the control
/// channel, drained at burst boundaries, and the rolling-window accounting.
struct ControlledShard {
    commands: Consumer<ControlCmd>,
    events: Producer<ControlEvt>,
    window: Arc<RollingWindow>,
    slice_nanos: u64,
    last_blocked: u64,
}

impl ShardHook for ControlledShard {
    fn boundary(&mut self, shard: &mut Shard) {
        // Commands take effect at burst boundaries, like table updates
        // between pipeline passes.
        while let Some(cmd) = self.commands.pop() {
            self.events
                .push_yielding(control::apply(shard, cmd), || false);
        }
    }

    fn busy_round(&mut self, shard: &Shard, start: Instant, replies: u64, peak_depth: u64) {
        // Additions on a hot slot: nothing the detector does can block this
        // thread.
        let slice = start.elapsed().as_nanos() as u64 / self.slice_nanos;
        self.window.add(slice, WindowChannel::Ops, replies);
        self.window
            .raise(slice, WindowChannel::QueueDepth, peak_depth);
        let blocked = shard.stats().blocked;
        if blocked > self.last_blocked {
            self.window
                .add(slice, WindowChannel::Blocked, blocked - self.last_blocked);
            self.last_blocked = blocked;
        }
    }
}

/// A controlled client's additions to the fabric's client loop: a run
/// deadline with a drain grace, retransmission, per-slice completion counts,
/// and the finished-trace feed to the shadow auditor.
struct RetryingClient {
    config: LiveConfig,
    next_retry_poll: Duration,
    /// Completions per slice, recorded at the first loop round after them.
    slices: TimeSeries,
    recorded: u64,
    /// A closed channel just means the monitor has already gone home.
    audit_feed: Sender<PacketTrace>,
}

impl RetryingClient {
    fn feed_auditor(&mut self, client: &mut ClientState) {
        for trace in client.take_finished_traces() {
            let _ = self.audit_feed.send(trace);
        }
    }
}

impl ClientHook for RetryingClient {
    fn agent_config(&self, id: u32) -> AgentConfig {
        AgentConfig::new(Ipv4Addr::for_host(id))
            .with_timeout(SimDuration::from_nanos(
                self.config.retry_timeout.as_nanos() as u64,
            ))
            .with_max_retries(self.config.max_retries)
    }

    fn may_issue(&mut self, at: Duration) -> bool {
        at < self.config.duration
    }

    fn round(&mut self, client: &mut ClientState, start: Instant) -> ControlFlow<(), RetryBatch> {
        let at = start.elapsed();
        let completed = client.report().completed;
        if completed > self.recorded {
            let fresh = completed - self.recorded;
            self.slices.record_n(at.as_nanos() as u64, fresh);
            self.recorded = completed;
        }
        if at >= self.config.duration + DRAIN_GRACE {
            // Outstanding queries could not be drained (should not happen:
            // retries cover every transient drop).
            return ControlFlow::Break(());
        }
        if at < self.next_retry_poll {
            return ControlFlow::Continue(RetryBatch::new());
        }
        // Retransmission timers, and a trace hand-off to the shadow auditor
        // at the same cadence.
        self.next_retry_poll = at + self.config.retry_timeout / 2;
        self.feed_auditor(client);
        ControlFlow::Continue(client.poll_retries_at(SimTime(at.as_nanos() as u64)))
    }

    fn exit(&mut self, client: &mut ClientState) {
        // Everything that completed since the last poll still reaches the
        // auditor; what stays in the sink is the open (never-acked)
        // remainder.
        self.feed_auditor(client);
    }
}

/// [`run_live_controlled`] with caller-supplied observation windows: every
/// shard worker records its per-slice ops / blocked / queue depth into
/// `windows`, and a monitor thread runs the [`GrayFailureDetector`] over
/// each completed slice **and** a [`ShadowAuditor`] over every completed
/// trace the clients hand it, journaling anomalies and dumping the flight
/// recorder to the artifact dir when one fires. Consistency violations
/// surface as [`LiveAnomaly::Audit`] entries in `LiveReport::anomalies`.
pub fn run_live_observed(config: LiveConfig, windows: WindowRegistry) -> LiveReport {
    let fabric = config.fabric;
    assert_eq!(
        windows.num_shards(),
        fabric.num_shards,
        "one observation window per shard"
    );
    if let Some(script) = &config.script {
        assert!(
            script.repair_ends_at() < config.duration,
            "the fault script must finish inside the run: {:?} >= {:?}",
            script.repair_ends_at(),
            config.duration
        );
    }
    let mut workload = config.workload;
    workload.ops_per_client = u64::MAX;

    // Control rings: one command/event pair per shard. The controller runs
    // as the runtime's `main`, so shards stay up until it has finished.
    let mut links = Vec::with_capacity(fabric.num_shards);
    let mut shard_hooks = Vec::with_capacity(fabric.num_shards);
    for s in 0..fabric.num_shards {
        let (cmd_tx, cmd_rx) = spsc_ring::<ControlCmd>(CONTROL_RING);
        let (evt_tx, evt_rx) = spsc_ring::<ControlEvt>(CONTROL_RING);
        links.push(ControllerLink {
            tx: cmd_tx,
            rx: evt_rx,
        });
        shard_hooks.push(ControlledShard {
            commands: cmd_rx,
            events: evt_tx,
            window: Arc::clone(windows.window(s)),
            slice_nanos: windows.slice_len().as_nanos().max(1) as u64,
            last_blocked: 0,
        });
    }

    // Completed traces stream from the clients to the monitor's shadow
    // auditor over an unbounded channel: clients never block on it, and the
    // monitor drains at its own slice cadence. The clients hold the only
    // senders, so the channel closes itself once the last one exits.
    let (audit_tx, audit_rx) = std::sync::mpsc::channel::<PacketTrace>();
    let client_hooks: Vec<RetryingClient> = (0..fabric.num_clients)
        .map(|_| RetryingClient {
            config,
            next_retry_poll: config.retry_timeout,
            slices: TimeSeries::new(config.slice.as_nanos() as u64),
            recorded: 0,
            audit_feed: audit_tx.clone(),
        })
        .collect();
    drop(audit_tx);

    let monitor_stop = Arc::new(AtomicBool::new(false));
    let (mut run, clients, (monitor, timeline)) =
        run_live_with(fabric, workload, shard_hooks, client_hooks, |t0| {
            let stop = Arc::clone(&monitor_stop);
            let monitor = spawn_monitor(&config, windows, audit_rx, stop, t0);
            // The controller runs on this thread (it sleeps most of the
            // time).
            let timeline = config.script.as_ref().map(|script| {
                let mut controller = LiveController {
                    links,
                    ring: fabric.build_ring(),
                    spares: fabric.spare_ips(),
                    next_token: 0,
                    next_session: 1,
                };
                controller.run(script, t0)
            });
            (monitor, timeline)
        });
    // All window writers have exited; let the monitor judge the final slice
    // and hand back its journal.
    monitor_stop.store(true, Ordering::Release);
    let (ops_journal, anomalies, audited) = monitor.join().expect("monitor thread panicked");
    // Completed client fragments detoured through the auditor; fold them
    // back in so the merged trace set is exactly what an unaudited run would
    // report.
    run.traces = merge_traces(std::mem::take(&mut run.traces).into_iter().chain(audited));
    let mut slices = TimeSeries::new(config.slice.as_nanos() as u64);
    for client in &clients {
        slices.merge(&client.slices);
    }
    LiveReport {
        fabric: run,
        slice: config.slice,
        slices: slices.counts().to_vec(),
        timeline,
        anomalies,
        ops_journal,
    }
}

/// What the monitor hands back: its journal, the anomalies it flagged, and
/// the traces it audited.
type MonitorOutput = (Journal, Vec<LiveAnomaly>, Vec<PacketTrace>);

/// Spawns the monitor: it judges each completed window slice with the
/// gray-failure detector while the run is live, and runs the shadow auditor
/// over every completed trace the clients hand it. It only reads atomics the
/// shard workers publish, so it never perturbs the dataplane; on an anomaly
/// it journals the event and dumps its flight recorder to the artifact dir.
/// It judges the last slice and exits once `stop` is set.
fn spawn_monitor(
    config: &LiveConfig,
    windows: WindowRegistry,
    audit_rx: Receiver<PacketTrace>,
    stop: Arc<AtomicBool>,
    t0: Instant,
) -> JoinHandle<MonitorOutput> {
    let num_shards = config.fabric.num_shards;
    let slice_nanos = windows.slice_len().as_nanos().max(1) as u64;
    let nap = (windows.slice_len() / 2).max(Duration::from_micros(500));
    // The script's transitions are consistency no-man's-land: reads issued
    // while failover or repair rules are landing may legitimately observe
    // either side. Widen the scripted window by a few retry rounds plus one
    // slice so ops straddling the edges fall inside too.
    let suppress: Vec<(u64, u64)> = config
        .script
        .as_ref()
        .map(|script| {
            let slack = config.retry_timeout * 4 + config.slice;
            let start = script.kill_at.saturating_sub(slack);
            let end = script.repair_ends_at() + slack;
            vec![(start.as_nanos() as u64, end.as_nanos() as u64)]
        })
        .unwrap_or_default();
    std::thread::Builder::new()
        .name("livectl-monitor".to_string())
        .spawn(move || {
            let mut detector = GrayFailureDetector::new(num_shards, DetectorConfig::default());
            let mut shadow = ShadowAuditor::new(suppress);
            let mut audited: Vec<PacketTrace> = Vec::new();
            let mut journal = Journal::new();
            let recorder = FlightRecorder::new(FLIGHT_CAPACITY);
            let mut anomalies: Vec<LiveAnomaly> = Vec::new();
            let mut next = 0u64;
            loop {
                let stopping = stop.load(Ordering::Acquire);
                // Shadow audit first: ingest whatever completed since the
                // last wake-up. The traces come back out of this thread
                // so the report's merged trace set stays whole.
                while let Ok(trace) = audit_rx.try_recv() {
                    shadow.ingest(&trace);
                    audited.push(trace);
                }
                for violation in shadow.take_violations() {
                    let at_ns = violation.at_ns;
                    journal.instant(format!("audit:{}", violation.kind.label()), at_ns);
                    recorder.record(
                        at_ns,
                        "audit.violation",
                        vec![("violation", violation.to_json())],
                    );
                    if let Some(path) = recorder.dump("livectl_audit") {
                        eprintln!(
                            "livectl: {} — flight dump at {}",
                            violation.describe(),
                            path.display()
                        );
                    }
                    anomalies.push(LiveAnomaly::Audit(violation));
                }
                // Judge slices strictly before the current one — the
                // current slice is still filling and would read as a
                // universal dip. On shutdown, judge the last one too.
                let current = windows.slice_of(t0.elapsed());
                let upto = if stopping { current + 1 } else { current };
                while next < upto {
                    let slice = next;
                    next += 1;
                    let across = windows.slice_across_shards(slice);
                    let at_ns = slice * slice_nanos;
                    recorder.record(
                        at_ns,
                        "slice",
                        vec![(
                            "ops",
                            Json::Arr(
                                across
                                    .iter()
                                    .map(|c| Json::U64(c[WindowChannel::Ops as usize]))
                                    .collect(),
                            ),
                        )],
                    );
                    for anomaly in detector.observe_slice(slice, &across) {
                        journal.instant(format!("gray-failure:shard{}", anomaly.shard), at_ns);
                        recorder.record(
                            at_ns,
                            "anomaly",
                            vec![("detail", Json::str(anomaly.describe()))],
                        );
                        if let Some(path) = recorder.dump("livectl_gray") {
                            eprintln!(
                                "livectl: {} — flight dump at {}",
                                anomaly.describe(),
                                path.display()
                            );
                        }
                        anomalies.push(LiveAnomaly::Gray(anomaly));
                    }
                }
                if stopping {
                    break;
                }
                std::thread::sleep(nap);
            }
            (journal, anomalies, audited)
        })
        .expect("spawn monitor thread")
}
