//! The fabric runtime: shard workers, client threads, and the capacity
//! (sequential-makespan) measurement mode.
//!
//! Two ways to run the same dataplane:
//!
//! * [`run_live`] — spawns one OS thread per shard and per client, connected
//!   by the lock-free SPSC rings. This is the deployment shape: with
//!   [`FabricConfig::pin_shards`] each shard thread pins itself to a core
//!   (`sched_setaffinity` via the vendored `affinity` shim; no-op off Linux
//!   or without the `pinning` feature), and aggregate throughput scales with
//!   shards because shards share nothing. [`run_live_with`] is the same
//!   runtime with a [`ShardHook`] per shard and a [`ClientHook`] per client
//!   plugged into its loops; the live control plane (`netchain-livectl`)
//!   runs on it, and `run_live` is it with the `()` hooks, which do nothing.
//! * [`run_capacity`] — processes each shard's partition sequentially on the
//!   measuring core, timing only dataplane work, and reports the aggregate
//!   for the one-core-per-shard deployment model (`total ops / slowest
//!   shard`). This mirrors how the paper evaluates scalability beyond its
//!   testbed (§8.3) and gives meaningful scaling curves even when the
//!   benchmark machine has fewer cores than shards.

use crate::frame::Frame;
use crate::loadgen::{ClientState, RetryBatch, WorkloadSpec};
use crate::ring::{ring, Consumer, Producer};
use crate::shard::Shard;
use crate::stats::{CapacityReport, ClientReport, FabricReport, ShardStats};
use netchain_core::{AgentConfig, HashRing};
use netchain_sim::SimTime;
use netchain_switch::PipelineConfig;
use netchain_telemetry::{merge_traces, HistSnapshot, PacketTrace, TraceConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, NetChainPacket, Value};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a live-run client may go without any progress (no push, no
/// reply) before the run is declared wedged. Generous: a healthy fabric
/// makes progress every few microseconds even on one core, and a retrying
/// client re-sends long before this.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Static configuration of a fabric.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Worker shards (the scaling axis).
    pub num_shards: usize,
    /// Load-generating clients.
    pub num_clients: usize,
    /// Switches on the consistent-hash ring.
    pub num_switches: usize,
    /// Spare switches hosted by every shard but held *out* of the ring, as
    /// replacements for failure recovery (the testbed experiment's S3).
    pub num_spares: usize,
    /// Virtual nodes per switch.
    pub vnodes_per_switch: usize,
    /// Chain length (`f + 1`).
    pub replication: usize,
    /// Ring placement seed.
    pub ring_seed: u64,
    /// Capacity of each SPSC ring, in frames.
    pub ring_capacity: usize,
    /// Frames pulled/processed per burst.
    pub burst: usize,
    /// In-band trace sampling. [`TraceConfig::OFF`] (the default) keeps the
    /// data plane byte-for-byte on its old path.
    pub trace: TraceConfig,
    /// Pin shard thread `s` to CPU `s % available_cpus` in [`run_live`]
    /// (measured core pinning; needs the `pinning` feature, a no-op
    /// elsewhere). Off by default: unit tests and oversubscribed runs are
    /// better served by the scheduler.
    pub pin_shards: bool,
}

impl FabricConfig {
    /// A fabric with `num_shards` workers and paper-style defaults
    /// elsewhere: 8 switches, chains of 3, one client.
    pub fn new(num_shards: usize) -> Self {
        FabricConfig {
            num_shards,
            num_clients: 1,
            num_switches: 8,
            num_spares: 0,
            vnodes_per_switch: 16,
            replication: 3,
            ring_seed: 7,
            ring_capacity: 256,
            burst: 32,
            trace: TraceConfig::OFF,
            pin_shards: false,
        }
    }

    /// Returns a copy with the given trace sampling config.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Returns a copy with shard-thread core pinning switched on or off.
    pub fn with_pinning(mut self, pin_shards: bool) -> Self {
        self.pin_shards = pin_shards;
        self
    }

    /// Returns a copy with the given chain length.
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication;
        self
    }

    /// Returns a copy with the given client count.
    pub fn with_clients(mut self, num_clients: usize) -> Self {
        self.num_clients = num_clients;
        self
    }

    /// Returns a copy with the given number of spare (out-of-ring) switches.
    pub fn with_spares(mut self, num_spares: usize) -> Self {
        self.num_spares = num_spares;
        self
    }

    /// The spare switch IPs (numbered after the ring switches).
    pub fn spare_ips(&self) -> Vec<Ipv4Addr> {
        (self.num_switches..self.num_switches + self.num_spares)
            .map(|i| Ipv4Addr::for_switch(i as u32))
            .collect()
    }

    /// The consistent-hash ring this fabric serves.
    pub fn build_ring(&self) -> HashRing {
        HashRing::new(
            (0..self.num_switches as u32)
                .map(Ipv4Addr::for_switch)
                .collect(),
            self.vnodes_per_switch,
            self.replication,
            self.ring_seed,
        )
    }

    /// A pipeline geometry sized for `num_keys` distinct keys (paper stage
    /// shape, store scaled to the workload instead of 8 MB per switch).
    pub fn pipeline_for(num_keys: u64) -> PipelineConfig {
        PipelineConfig {
            value_stages: 8,
            bytes_per_stage: 16,
            slots_per_stage: (num_keys as usize * 2).next_power_of_two().max(64),
            sram_budget_bytes: usize::MAX / 2,
        }
    }

    /// The shard owning `key` (the steering rule lives in
    /// [`crate::shard::shard_of_key`]).
    pub fn shard_of(&self, ring: &HashRing, key: &Key) -> usize {
        crate::shard::shard_of_key(ring, key, self.num_shards)
    }
}

/// Pins the calling thread to `cpu` when the `pinning` feature is compiled
/// in and the platform supports it. Returns whether the pin took effect —
/// callers treat a failed pin as advisory (the thread still runs, merely
/// unpinned), so a restricted cpuset or a non-Linux host degrades gracefully.
pub fn pin_thread(cpu: usize) -> bool {
    #[cfg(feature = "pinning")]
    {
        affinity::pin_current_thread(cpu % affinity::available_cpus()).is_ok()
    }
    #[cfg(not(feature = "pinning"))]
    {
        let _ = cpu;
        false
    }
}

/// Builds the shards and pre-populates every workload key on its owner.
pub fn build_shards(config: &FabricConfig, workload: &WorkloadSpec) -> Vec<Shard> {
    let ring = config.build_ring();
    let pipeline = FabricConfig::pipeline_for(workload.num_keys);
    let spares = config.spare_ips();
    let mut shards: Vec<Shard> = (0..config.num_shards)
        .map(|i| Shard::with_spares(i, config.num_shards, ring.clone(), pipeline, &spares))
        .collect();
    for k in 0..workload.num_keys {
        let key = Key::from_u64(k);
        let shard = config.shard_of(&ring, &key);
        shards[shard].populate(key, &Value::from_u64(0));
    }
    shards
}

/// What a shard thread of [`run_live_with`] does besides pop → process →
/// reply. The defaults do nothing: `()` is the hook of a plain [`run_live`].
pub trait ShardHook: Send + 'static {
    /// Runs at every burst boundary, before the shard pulls its ingress.
    fn boundary(&mut self, _shard: &mut Shard) {}

    /// Runs once per round that pulled frames: `replies` replies out, the
    /// deepest pull `peak_depth` frames; `start` is the run's clock origin.
    fn busy_round(&mut self, _shard: &Shard, _start: Instant, _replies: u64, _peak_depth: u64) {}
}

/// What a client thread of [`run_live_with`] does besides issue → drain.
/// The defaults are a plain [`run_live`] client: count-bounded, never
/// retransmitting.
pub trait ClientHook: Send + 'static {
    /// The agent configuration client `id` runs with.
    fn agent_config(&self, id: u32) -> AgentConfig {
        AgentConfig::new(Ipv4Addr::for_host(id))
    }

    /// Whether a new query may be issued `at` this offset from run start.
    fn may_issue(&mut self, _at: Duration) -> bool {
        true
    }

    /// Runs once per loop round (`start` is the run's clock origin): the
    /// queries to retransmit, or `Break` to stop the client at once.
    fn round(&mut self, _client: &mut ClientState, _start: Instant) -> ControlFlow<(), RetryBatch> {
        ControlFlow::Continue(RetryBatch::new())
    }

    /// Runs once when the client loop ends, before its traces are collected.
    fn exit(&mut self, _client: &mut ClientState) {}
}

impl ShardHook for () {}
impl ClientHook for () {}

/// Runs the fabric live: one thread per shard, one per client, SPSC rings in
/// between. Returns after every client completed its share.
pub fn run_live(config: FabricConfig, workload: WorkloadSpec) -> FabricReport {
    let shard_hooks = vec![(); config.num_shards];
    let client_hooks = vec![(); config.num_clients];
    run_live_with(config, workload, shard_hooks, client_hooks, |_| ()).0
}

/// Ring endpoints indexed by (row, column).
type RingMatrix = (Vec<Vec<Producer<Frame>>>, Vec<Vec<Consumer<Frame>>>);

/// `producers[r][c]` feeds `consumers[c][r]`: one SPSC ring per (row, col).
fn ring_matrix(rows: usize, cols: usize, capacity: usize) -> RingMatrix {
    let mut consumers: Vec<Vec<Consumer<Frame>>> = (0..cols).map(|_| Vec::new()).collect();
    let producers = (0..rows)
        .map(|_| {
            let row = consumers.iter_mut().map(|col| {
                let (tx, rx) = ring(capacity);
                col.push(rx);
                tx
            });
            row.collect()
        })
        .collect();
    (producers, consumers)
}

/// [`run_live`] with `shard_hooks[s]` plugged into shard `s`'s loop and
/// `client_hooks[c]` into client `c`'s. `main` runs on the calling thread
/// while the fabric runs, given the run's clock origin; shards serve until
/// it has returned and every client has exited. Returns the joined report,
/// the client hooks as their threads left them, and `main`'s result.
pub fn run_live_with<S: ShardHook, C: ClientHook, M>(
    config: FabricConfig,
    workload: WorkloadSpec,
    shard_hooks: Vec<S>,
    client_hooks: Vec<C>,
    main: impl FnOnce(Instant) -> M,
) -> (FabricReport, Vec<C>, M) {
    assert!(config.num_shards > 0 && config.num_clients > 0);
    assert_eq!(shard_hooks.len(), config.num_shards, "one hook per shard");
    assert_eq!(client_hooks.len(), config.num_clients, "one per client");
    assert!(
        config.ring_capacity >= workload.window,
        "rings must hold a full client window to rule out deadlock"
    );
    let ring_def = config.build_ring();
    let shards = build_shards(&config, &workload);
    let (num_shards, num_clients, burst) = (config.num_shards, config.num_clients, config.burst);
    // Rings: query[c][s] (client → shard) and reply[s][c] (shard → client).
    let (query_tx, query_rx) = ring_matrix(num_clients, num_shards, config.ring_capacity);
    let (reply_tx, reply_rx) = ring_matrix(num_shards, num_clients, config.ring_capacity);
    // Per-client exit flags, plus one for `main`: shards exit once all are
    // set, and never block on a reply ring whose client is gone. Each flag
    // is stored (Release) after its owner's last push and loaded (Acquire)
    // before a shard's final emptiness check of its rings.
    let exited: Arc<Vec<AtomicBool>> =
        Arc::new((0..=num_clients).map(|_| AtomicBool::new(false)).collect());
    let pinned = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();

    let mut shard_handles = Vec::new();
    let shard_parts = shards
        .into_iter()
        .zip(shard_hooks)
        .zip(query_rx)
        .zip(reply_tx);
    for (((mut shard, mut hook), mut ingress), mut egress) in shard_parts {
        let s = shard.id();
        let exited = Arc::clone(&exited);
        let pinned = Arc::clone(&pinned);
        if config.trace.enabled {
            shard.enable_tracing(config.trace, start);
        }
        let handle = std::thread::Builder::new()
            .name(format!("fabric-shard-{s}"))
            .spawn(move || {
                if config.pin_shards && pin_thread(s) {
                    pinned.fetch_add(1, Ordering::Relaxed);
                }
                let mut frames: Vec<Frame> = Vec::with_capacity(burst);
                let mut replies = BatchEncoder::with_capacity(burst, 128);
                loop {
                    hook.boundary(&mut shard);
                    let (mut replied, mut peak_depth) = (0, 0);
                    for (c, rx) in ingress.iter_mut().enumerate() {
                        frames.clear();
                        let got = rx.pop_batch(&mut frames, burst) as u64;
                        if got == 0 {
                            continue;
                        }
                        peak_depth = peak_depth.max(got);
                        replies.clear();
                        shard.process_burst(frames.iter().map(|f| f.as_bytes()), &mut replies);
                        replied += replies.len() as u64;
                        for frame in replies.frames() {
                            let frame = Frame::from_bytes(frame).expect("replies fit in a frame");
                            // The reply ring holds a full window, so this
                            // waits only until the client drains, unless it
                            // has exited (a hard stop with its ring full):
                            // then the reply has no reader and is dropped.
                            egress[c].push_yielding(frame, || exited[c].load(Ordering::Acquire));
                        }
                    }
                    if peak_depth > 0 {
                        hook.busy_round(&shard, start, replied, peak_depth);
                    } else if exited.iter().all(|e| e.load(Ordering::Acquire))
                        && ingress.iter_mut().all(|r| r.is_empty_now())
                    {
                        break;
                    } else {
                        // Single-core friendliness: let clients run instead
                        // of spinning the shard.
                        std::thread::yield_now();
                    }
                }
                let traces = shard.take_traces();
                (s, *shard.stats(), traces, shard.traces_dropped())
            })
            .expect("spawn shard thread");
        shard_handles.push(handle);
    }

    let mut client_handles = Vec::new();
    let client_parts = client_hooks.into_iter().zip(query_tx).zip(reply_rx);
    for (c, ((mut hook, mut tx), mut rx)) in client_parts.enumerate() {
        let ring = ring_def.clone();
        let exited = Arc::clone(&exited);
        let handle = std::thread::Builder::new()
            .name(format!("fabric-client-{c}"))
            .spawn(move || {
                let id = c as u32;
                let mut client =
                    ClientState::with_agent_config(id, &ring, workload, hook.agent_config(id));
                if config.trace.enabled {
                    client.enable_tracing(config.trace);
                }
                // Frames that found their ring full (issues and retransmits
                // alike), re-offered in order before anything new is issued.
                let mut pending: VecDeque<(usize, Frame)> = VecDeque::new();
                let send = |tx: &mut [Producer<Frame>],
                            pending: &mut VecDeque<_>,
                            pkt: &NetChainPacket| {
                    let s = config.shard_of(&ring, &pkt.netchain.key);
                    let frame = Frame::from_packet(pkt).expect("queries fit in a frame");
                    tx[s]
                        .push(frame)
                        .map_err(|back| pending.push_back((s, back)))
                        .is_ok()
                };
                let mut reply_buf: Vec<Frame> = Vec::with_capacity(burst);
                // Stall watchdog: a query the dataplane drops (parse error,
                // unroutable) and nobody retransmits would otherwise hang the
                // run silently with the window never draining. Trade the
                // silent hang for a loud panic with the client's state.
                let mut last_progress = Instant::now();
                loop {
                    let mut progressed = false;
                    while let Some((s, frame)) = pending.pop_front() {
                        if let Err(back) = tx[s].push(frame) {
                            pending.push_front((s, back));
                            break;
                        }
                        progressed = true;
                    }
                    // Fill the window. The agent clock is wall-clock
                    // nanoseconds since the run started, so the per-query
                    // issue→reply latencies in the report are real.
                    while pending.is_empty() && client.can_issue() {
                        let at = start.elapsed();
                        if !hook.may_issue(at) {
                            break;
                        }
                        let pkt = client.issue_at(SimTime(at.as_nanos() as u64));
                        progressed |= send(&mut tx, &mut pending, &pkt);
                    }
                    if client.outstanding() == 0 && pending.is_empty() {
                        break; // Nothing in flight, and the fill issued nothing.
                    }
                    for shard_rx in rx.iter_mut() {
                        reply_buf.clear();
                        if shard_rx.pop_batch(&mut reply_buf, burst) > 0 {
                            progressed = true;
                            let now = SimTime(start.elapsed().as_nanos() as u64);
                            for frame in &reply_buf {
                                client.absorb_reply_at(now, frame.as_bytes());
                            }
                        }
                    }
                    match hook.round(&mut client, start) {
                        ControlFlow::Break(()) => break,
                        ControlFlow::Continue(retransmit) => {
                            for pkt in &retransmit {
                                progressed |= send(&mut tx, &mut pending, pkt);
                            }
                        }
                    }
                    if progressed {
                        last_progress = Instant::now();
                        continue;
                    }
                    assert!(
                        last_progress.elapsed() < STALL_TIMEOUT,
                        "fabric client {c} stalled for {STALL_TIMEOUT:?}: {} outstanding, \
                         report {:?} — a query was dropped and never answered",
                        client.outstanding(),
                        client.report(),
                    );
                    std::thread::yield_now();
                }
                exited[c].store(true, Ordering::Release);
                hook.exit(&mut client);
                (client, hook)
            })
            .expect("spawn client thread");
        client_handles.push(handle);
    }

    let main_out = main(start);
    exited[num_clients].store(true, Ordering::Release);

    let mut clients: Vec<ClientReport> = Vec::with_capacity(num_clients);
    let mut hooks = Vec::with_capacity(num_clients);
    let mut latency = HistSnapshot::empty();
    let mut trace_fragments: Vec<PacketTrace> = Vec::new();
    let mut traces_dropped = 0;
    for handle in client_handles {
        let (mut client, hook) = handle.join().expect("client thread panicked");
        clients.push(client.report());
        latency.merge(&client.latency_snapshot());
        trace_fragments.extend(client.take_traces());
        traces_dropped += client.traces_dropped();
        hooks.push(hook);
    }
    let elapsed = start.elapsed();
    let mut shard_stats = vec![ShardStats::default(); num_shards];
    for handle in shard_handles {
        let (id, stats, traces, dropped) = handle.join().expect("shard thread panicked");
        shard_stats[id] = stats;
        trace_fragments.extend(traces);
        traces_dropped += dropped;
    }
    let completed_ops: u64 = clients.iter().map(|c| c.completed).sum();
    let report = FabricReport {
        elapsed,
        completed_ops,
        ops_per_sec: completed_ops as f64 / elapsed.as_secs_f64().max(1e-12),
        shards: shard_stats,
        clients,
        latency,
        traces: merge_traces(trace_fragments),
        traces_dropped,
        pinned_shards: pinned.load(Ordering::Relaxed),
    };
    (report, hooks, main_out)
}

/// Measures aggregate capacity for the one-core-per-shard deployment model.
///
/// The whole op stream is generated up front (generation and reply matching
/// are *not* timed), partitioned by owning shard, and each shard's partition
/// is processed run-to-completion in bursts on the measuring core. Only the
/// `process_burst` calls are timed; the aggregate assumes shards run in
/// parallel, so it is `total ops / max(shard busy time)`.
pub fn run_capacity(config: FabricConfig, workload: WorkloadSpec) -> CapacityReport {
    assert!(config.num_shards > 0);
    let ring_def = config.build_ring();
    let mut shards = build_shards(&config, &workload);
    if config.trace.enabled {
        let t0 = Instant::now();
        for shard in &mut shards {
            shard.enable_tracing(config.trace, t0);
        }
    }

    // Generate and steer the op stream (untimed). Capacity mode is not
    // closed-loop: everything is issued up front, so the window holds the
    // whole stream. A counter stands in for the agent clock; no latency is
    // measured here.
    let spec = WorkloadSpec {
        window: workload.ops_per_client as usize,
        ..workload
    };
    let mut client = ClientState::new(0, &ring_def, spec);
    let mut clock = 0u64;
    let mut per_shard: Vec<Vec<Frame>> = (0..config.num_shards).map(|_| Vec::new()).collect();
    for _ in 0..workload.ops_per_client {
        clock += 1;
        let pkt = client.issue_at(SimTime(clock));
        let s = config.shard_of(&ring_def, &pkt.netchain.key);
        per_shard[s].push(Frame::from_packet(&pkt).expect("queries fit in a frame"));
    }

    // Process each partition, timing dataplane work only. Replies are
    // matched back into the agent after every burst (untimed) — this
    // completes the closed loop for correctness accounting while keeping
    // the reply buffer bounded by one burst instead of the whole run.
    let mut report = CapacityReport::default();
    let mut replies = BatchEncoder::with_capacity(config.burst, 128);
    let mut reply_count: u64 = 0;
    for (s, frames) in per_shard.iter().enumerate() {
        let shard = &mut shards[s];
        let mut busy = std::time::Duration::ZERO;
        for burst in frames.chunks(config.burst) {
            replies.clear();
            let t0 = Instant::now();
            shard.process_burst(burst.iter().map(|f| f.as_bytes()), &mut replies);
            busy += t0.elapsed();
            for frame in replies.frames() {
                reply_count += 1;
                clock += 1;
                client.absorb_reply_at(SimTime(clock), frame);
            }
        }
        report.shard_ops.push(frames.len() as u64);
        report.shard_busy.push(busy);
        report
            .per_shard_ops_per_sec
            .push(frames.len() as f64 / busy.as_secs_f64().max(1e-12));
    }
    report.replies = reply_count;
    report.traces = merge_traces(shards.iter_mut().flat_map(|s| s.take_traces()));
    report.total_ops = report.shard_ops.iter().sum();
    let makespan = report
        .shard_busy
        .iter()
        .max()
        .copied()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-12);
    report.aggregate_ops_per_sec = report.total_ops as f64 / makespan;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_completes_and_is_consistent() {
        let config = FabricConfig {
            num_shards: 2,
            num_clients: 2,
            ring_capacity: 128,
            ..FabricConfig::new(2)
        };
        let workload = WorkloadSpec::mixed(64, 2_000, 60, 30);
        let report = run_live(config, workload);
        assert_eq!(report.completed_ops, 4_000);
        assert!(report.ops_per_sec > 0.0);
        for client in &report.clients {
            assert_eq!(client.completed, 2_000);
            assert_eq!(client.version_regressions, 0);
        }
        let replies: u64 = report.shards.iter().map(|s| s.replies).sum();
        assert_eq!(replies, 4_000);
        let drops: u64 = report.shards.iter().map(|s| s.drops).sum();
        assert_eq!(drops, 0);
        let unroutable: u64 = report.shards.iter().map(|s| s.unroutable).sum();
        assert_eq!(unroutable, 0);
    }

    #[test]
    fn live_run_records_latency_and_traces() {
        let config = FabricConfig {
            num_shards: 2,
            ring_capacity: 128,
            ..FabricConfig::new(2)
        }
        .with_trace(TraceConfig::sampled(2, 4096));
        let workload = WorkloadSpec::uniform_read(64, 1_000);
        let report = run_live(config, workload);
        assert_eq!(report.completed_ops, 1_000);
        // Every completed op records a latency sample.
        assert_eq!(report.latency.count(), 1_000);
        assert!(report.latency.quantile(0.99).unwrap() >= report.latency.quantile(0.5).unwrap());
        // ~1/4 sampling: plenty of traces survive.
        assert!(
            report.traces.len() > 100,
            "expected sampled traces, got {}",
            report.traces.len()
        );
        // The 4096-trace cap exceeds every sink's samples: nothing dropped.
        assert_eq!(report.traces_dropped, 0);
        let summary = report.trace_summary();
        // Reads traverse the chain from the tail: client, then at least one
        // switch hop, then back at the client.
        let path = summary.dominant_path().expect("traces were recorded");
        assert!(path.len() >= 3, "path too short: {path:?}");
        let client_ip = u32::from_be_bytes(Ipv4Addr::for_host(0).0);
        assert_eq!(path.first(), Some(&client_ip));
        assert_eq!(path.last(), Some(&client_ip));
        assert!(!summary.transitions.is_empty());
    }

    #[test]
    fn live_run_counts_traces_past_the_cap() {
        let config = FabricConfig {
            ring_capacity: 128,
            ..FabricConfig::new(2)
        }
        .with_trace(TraceConfig::sampled(0, 16));
        let report = run_live(config, WorkloadSpec::uniform_read(64, 1_000));
        assert_eq!(report.completed_ops, 1_000);
        // Every op is sampled, but each sink keeps at most 16 traces.
        assert!(report.traces_dropped > 0, "{}", report.traces_dropped);
        assert!(report.traces.len() <= 16 * 3, "{}", report.traces.len());
    }

    #[test]
    fn capacity_run_traces_shard_hops() {
        let config = FabricConfig::new(2).with_trace(TraceConfig::sampled(3, 1024));
        let workload = WorkloadSpec::mixed(64, 2_000, 50, 50);
        let report = run_capacity(config, workload);
        assert_eq!(report.total_ops, 2_000);
        assert!(!report.traces.is_empty());
        // Writes traverse head → mid → tail: some trace must have >= 3 hops.
        assert!(report.traces.iter().any(|t| t.hops.len() >= 3));
    }

    #[test]
    fn capacity_run_accounts_every_op() {
        let config = FabricConfig::new(4);
        let workload = WorkloadSpec::uniform_read(64, 4_000);
        let report = run_capacity(config, workload);
        assert_eq!(report.total_ops, 4_000);
        assert_eq!(report.replies, 4_000);
        assert_eq!(report.shard_ops.len(), 4);
        assert!(report.aggregate_ops_per_sec > 0.0);
        // Uniform keys spread over shards: no shard should be starved.
        for &ops in &report.shard_ops {
            assert!(ops > 200, "imbalanced steering: {:?}", report.shard_ops);
        }
    }
}
