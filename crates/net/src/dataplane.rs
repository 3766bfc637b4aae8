//! The batched, keyspace-sharded socket dataplane.
//!
//! This is the fabric's architecture carried onto real kernel UDP sockets:
//! rather than one thread per emulated switch, the dataplane runs one
//! worker thread per **keyspace shard**:
//!
//! * Ingress is burst I/O through the vendored [`mmsg`] shim: one
//!   `recvmmsg` call fills a whole [`RecvQueue`] of fixed-size slots
//!   (sized one byte past [`MAX_FRAME_LEN`], so oversized datagrams are
//!   detected and counted instead of silently truncated).
//! * Each worker owns a [`netchain_fabric::Shard`] — the staged
//!   validate/hash/probe/execute pipeline over
//!   [`netchain_switch::NetChainSwitch::step_batch_staged`], parsing
//!   zero-copy straight out of the receive slots. No mutex: the shard is
//!   thread-local, clients steer queries to the owning worker's socket with
//!   [`NetDataplane::addr_of_key`] (the same [`shard_of_key`] rule the
//!   fabric uses).
//! * Egress batches every generated reply into a [`SendQueue`] routed by the
//!   reply's destination IP and flushes it in `sendmmsg` bursts.
//!
//! [`IoMode::Single`] forces the portable one-datagram-per-syscall paths on
//! the identical processing pipeline, which is what lets `net_scale` measure
//! the benefit of batched syscalls on the same box. [`FaultSpec`] is the
//! test shim for adversity coverage: deterministically drop every Nth
//! ingress datagram or duplicate every Nth reply.

use mmsg::{RecvQueue, SendQueue, MAX_BURST};
use netchain_core::HashRing;
use netchain_fabric::{shard_of_key, Shard};
use netchain_switch::{PipelineConfig, ProbeGauges};
use netchain_telemetry::{merge_traces, Metrics, PacketTrace, TraceConfig};
use netchain_wire::{BatchEncoder, Ipv4Addr, Key, Value, MAX_FRAME_LEN};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the workers cross the kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// `recvmmsg`/`sendmmsg` bursts (portable single-packet fallback on
    /// platforms without the syscalls).
    Burst,
    /// One datagram per syscall, unconditionally — the pre-rewrite I/O
    /// discipline on the rewritten processing pipeline, kept as the
    /// measurable baseline.
    Single,
}

impl IoMode {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            IoMode::Burst => "burst",
            IoMode::Single => "single",
        }
    }
}

/// Deterministic adversity injection on the worker's I/O path (testing
/// only; [`FaultSpec::none`] is free).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultSpec {
    /// Drop every Nth ingress datagram before parsing (0 disables). Models
    /// query or in-chain loss: the client's retry machinery must absorb it.
    pub drop_every: u64,
    /// Send every Nth reply twice (0 disables). Models duplication in the
    /// network: the client must not complete a query twice.
    pub duplicate_every: u64,
}

impl FaultSpec {
    /// No injected faults.
    pub fn none() -> Self {
        FaultSpec::default()
    }
}

/// Configuration of a [`NetDataplane`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The consistent-hash ring the shards replicate (shared with clients so
    /// chain construction and shard steering agree).
    pub ring: HashRing,
    /// Worker threads / keyspace shards.
    pub num_shards: usize,
    /// Pipeline geometry of every switch replica.
    pub pipeline: PipelineConfig,
    /// Syscall discipline.
    pub io_mode: IoMode,
    /// Receive slots filled per recv call (clamped to [`MAX_BURST`]).
    pub burst: usize,
    /// Socket read timeout: the shutdown latency bound.
    pub read_timeout: Duration,
    /// Injected adversity (tests only).
    pub fault: FaultSpec,
    /// In-band per-hop tracing on the worker shards. `None` (the default)
    /// keeps the hot path exactly as before; when set, every worker stamps
    /// sampled packets against a wall-clock origin taken at
    /// [`NetDataplane::start`] and the merged traces come back in
    /// [`NetReport::traces`].
    pub trace: Option<TraceConfig>,
}

impl NetConfig {
    /// Burst-mode defaults over `ring` with `num_shards` workers.
    pub fn new(ring: HashRing, num_shards: usize, pipeline: PipelineConfig) -> Self {
        NetConfig {
            ring,
            num_shards,
            pipeline,
            io_mode: IoMode::Burst,
            burst: 32,
            read_timeout: Duration::from_millis(5),
            fault: FaultSpec::none(),
            trace: None,
        }
    }
}

/// Number of buckets in [`IoStats::recv_fill`].
pub const RECV_FILL_BUCKETS: usize = 7;

/// Upper bounds (inclusive) of the [`IoStats::recv_fill`] buckets: recv
/// calls returning 1, 2, ≤4, ≤8, ≤16, ≤32 and ≤64 datagrams.
pub const RECV_FILL_BOUNDS: [usize; RECV_FILL_BUCKETS] = [1, 2, 4, 8, 16, 32, MAX_BURST];

/// The [`IoStats::recv_fill`] bucket a recv call returning `n` datagrams
/// lands in.
fn recv_fill_bucket(n: usize) -> usize {
    RECV_FILL_BOUNDS
        .iter()
        .position(|&b| n <= b)
        .unwrap_or(RECV_FILL_BUCKETS - 1)
}

/// Per-worker syscall-layer counters (the shard's own [`netchain_fabric::ShardStats`]
/// cover the processing pipeline).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoStats {
    /// recv calls that returned at least one datagram.
    pub recv_calls: u64,
    /// Datagrams received.
    pub datagrams_in: u64,
    /// Datagrams handed to the kernel for transmission.
    pub datagrams_out: u64,
    /// Datagrams exceeding [`MAX_FRAME_LEN`] (counted, never truncated).
    pub oversized: u64,
    /// Ingress datagrams dropped by the fault shim.
    pub shim_dropped: u64,
    /// Replies duplicated by the fault shim.
    pub shim_duplicated: u64,
    /// Replies whose destination IP had no registered socket.
    pub unrouted_replies: u64,
    /// Send calls that failed (their queued frames were discarded).
    pub send_errors: u64,
    /// Recv-batch-occupancy histogram: how many recv calls returned 1, 2,
    /// ≤4, ≤8, ≤16, ≤32 and ≤64 datagrams ([`RECV_FILL_BOUNDS`]). This is
    /// the denominator of the burst-vs-single question: `recvmmsg` only
    /// amortises its syscall when the socket queue actually holds a batch,
    /// and at moderate offered loads most calls return one or two datagrams.
    pub recv_fill: [u64; RECV_FILL_BUCKETS],
}

impl IoStats {
    /// Mean datagrams returned per successful recv call.
    pub fn batch_factor(&self) -> f64 {
        if self.recv_calls == 0 {
            0.0
        } else {
            self.datagrams_in as f64 / self.recv_calls as f64
        }
    }
}

/// Counter names for [`IoStats`]'s [`Metrics`] implementation.
pub const IO_METRICS: [&str; 8 + RECV_FILL_BUCKETS] = [
    "recv_calls",
    "datagrams_in",
    "datagrams_out",
    "oversized",
    "shim_dropped",
    "shim_duplicated",
    "unrouted_replies",
    "send_errors",
    "recv_fill_le_1",
    "recv_fill_le_2",
    "recv_fill_le_4",
    "recv_fill_le_8",
    "recv_fill_le_16",
    "recv_fill_le_32",
    "recv_fill_le_64",
];

impl Metrics for IoStats {
    fn metric_names(&self) -> &'static [&'static str] {
        &IO_METRICS
    }

    fn metric_values(&self) -> Vec<u64> {
        let mut v = vec![
            self.recv_calls,
            self.datagrams_in,
            self.datagrams_out,
            self.oversized,
            self.shim_dropped,
            self.shim_duplicated,
            self.unrouted_replies,
            self.send_errors,
        ];
        v.extend_from_slice(&self.recv_fill);
        v
    }
}

/// Everything a stopped dataplane hands back: the shards (with their switch
/// replicas' final state, for differential checks) and the per-worker I/O
/// counters.
pub struct NetReport {
    /// The worker shards, index-aligned with the shard ids.
    pub shards: Vec<Shard>,
    /// Per-worker syscall-layer counters, index-aligned with the shards.
    pub io: Vec<IoStats>,
    /// Merged per-hop traces from every worker (empty unless
    /// [`NetConfig::trace`] was set).
    pub traces: Vec<PacketTrace>,
}

struct Worker {
    addr: SocketAddr,
    thread: JoinHandle<(Shard, IoStats)>,
}

/// A running sharded socket dataplane.
pub struct NetDataplane {
    ring: HashRing,
    num_shards: usize,
    workers: Vec<Worker>,
    /// Reply routes (client virtual IP → real socket address); shared with
    /// [`crate::NetClient`] so a dropped client can deregister itself.
    pub(crate) routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>>,
    shutdown: Arc<AtomicBool>,
    /// Wall-clock origin every worker's trace stamps are relative to.
    epoch: std::time::Instant,
}

impl NetDataplane {
    /// Binds one socket per shard, pre-populates `populate` (each key lands
    /// on the worker owning it, on every switch of its chain) and spawns the
    /// worker threads.
    pub fn start(config: NetConfig, populate: &[(Key, Value)]) -> std::io::Result<Self> {
        assert!(config.num_shards > 0, "at least one shard");
        let burst = config.burst.clamp(1, MAX_BURST);
        let routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>> =
            Arc::new(RwLock::new(HashMap::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(config.num_shards);
        // One wall-clock origin for every worker, so hop stamps from
        // different threads are comparable after the merge.
        let t0 = std::time::Instant::now();
        for id in 0..config.num_shards {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            socket.set_read_timeout(Some(config.read_timeout))?;
            let addr = socket.local_addr()?;
            let mut shard = Shard::new(id, config.num_shards, config.ring.clone(), config.pipeline);
            if let Some(trace) = config.trace {
                shard.enable_tracing(trace, t0);
            }
            for (key, value) in populate {
                if shard.owns(key) {
                    shard.populate(*key, value);
                }
            }
            let routes = Arc::clone(&routes);
            let shutdown = Arc::clone(&shutdown);
            let (io_mode, fault) = (config.io_mode, config.fault);
            let thread = std::thread::Builder::new()
                .name(format!("netchain-net-shard-{id}"))
                .spawn(move || {
                    worker_loop(socket, shard, routes, io_mode, burst, fault, shutdown)
                })?;
            workers.push(Worker { addr, thread });
        }
        Ok(NetDataplane {
            ring: config.ring,
            num_shards: config.num_shards,
            workers,
            routes,
            shutdown,
            epoch: t0,
        })
    }

    /// The wall-clock origin of the dataplane's trace stamps. Client-side
    /// stampers (the open-loop generator) must use the same origin so merged
    /// hop sequences are comparable across threads and processes.
    pub fn epoch(&self) -> std::time::Instant {
        self.epoch
    }

    /// The ring shared with clients.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of worker shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The socket addresses of the workers, index-aligned with shard ids.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.workers.iter().map(|w| w.addr).collect()
    }

    /// The socket address of the worker owning `key` — where a query for it
    /// must be sent.
    pub fn addr_of_key(&self, key: &Key) -> SocketAddr {
        self.workers[shard_of_key(&self.ring, key, self.num_shards)].addr
    }

    /// Registers a client's reply route (virtual IP → real socket address).
    pub fn register_client(&self, ip: Ipv4Addr, addr: SocketAddr) {
        self.routes.write().insert(ip, addr);
    }

    /// Removes a client's reply route.
    pub fn deregister_client(&self, ip: Ipv4Addr) {
        self.routes.write().remove(&ip);
    }

    /// Stops the workers and returns their final shard state and counters.
    pub fn shutdown(self) -> NetReport {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut io = Vec::with_capacity(self.workers.len());
        for worker in self.workers {
            let (shard, stats) = worker
                .thread
                .join()
                .expect("dataplane worker must not panic");
            shards.push(shard);
            io.push(stats);
        }
        let traces = merge_traces(shards.iter_mut().flat_map(|s| s.take_traces()));
        NetReport { shards, io, traces }
    }
}

/// Frame-absolute offset of the IPv4 destination address: Ethernet (14) +
/// the 16-byte prefix of the IPv4 header. Replies come out of the shard's
/// own [`BatchEncoder`], so the fixed-offset read needs no re-validation.
const DST_IP_OFF: usize = 14 + 16;

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    socket: UdpSocket,
    mut shard: Shard,
    routes: Arc<RwLock<HashMap<Ipv4Addr, SocketAddr>>>,
    io_mode: IoMode,
    burst: usize,
    fault: FaultSpec,
    shutdown: Arc<AtomicBool>,
) -> (Shard, IoStats) {
    let mut io = IoStats::default();
    // Slots one byte past the longest legal frame: an oversized datagram
    // shows up as `len > MAX_FRAME_LEN` instead of a silently truncated
    // prefix (in burst mode the kernel would not even flag it per-message).
    let mut rq = RecvQueue::new(burst, MAX_FRAME_LEN + 1);
    let mut sq = SendQueue::with_capacity(burst, MAX_FRAME_LEN);
    let mut replies = BatchEncoder::with_capacity(burst, MAX_FRAME_LEN);
    let mut accepted: Vec<usize> = Vec::with_capacity(burst);
    // Deterministic shim counters (per worker, so `every Nth` is exact).
    let mut ingress_seen = 0u64;
    let mut egress_seen = 0u64;
    while !shutdown.load(Ordering::Relaxed) {
        let received = match io_mode {
            IoMode::Burst => rq.recv(&socket),
            IoMode::Single => rq.recv_single(&socket),
        };
        let n = match received {
            Ok(n) => n,
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    // A prior send_to towards a closed port can surface here
                    // as a latched ICMP error on Linux; not fatal.
                    || e.kind() == std::io::ErrorKind::ConnectionRefused =>
            {
                continue
            }
            Err(_) => break,
        };
        io.recv_calls += 1;
        io.datagrams_in += n as u64;
        io.recv_fill[recv_fill_bucket(n)] += 1;
        accepted.clear();
        for i in 0..n {
            if rq.frame(i).len() > MAX_FRAME_LEN {
                io.oversized += 1;
                continue;
            }
            ingress_seen += 1;
            if fault.drop_every != 0 && ingress_seen.is_multiple_of(fault.drop_every) {
                io.shim_dropped += 1;
                continue;
            }
            accepted.push(i);
        }
        if accepted.is_empty() {
            continue;
        }
        // Publish the worker's gauges so an in-band `Stat` probe inside this
        // burst reports live ingress occupancy. One copy per hosted switch
        // per burst, never per packet.
        shard.set_probe_gauges(ProbeGauges {
            queue_depth: n as u16,
            queue_cap: burst as u16,
            lat_buckets: [0; netchain_wire::STAT_LAT_BUCKETS],
        });
        replies.clear();
        shard.process_burst(accepted.iter().map(|&i| rq.frame(i)), &mut replies);
        if replies.is_empty() {
            continue;
        }
        sq.clear();
        {
            let routes = routes.read();
            for frame in replies.frames() {
                let dst = Ipv4Addr([
                    frame[DST_IP_OFF],
                    frame[DST_IP_OFF + 1],
                    frame[DST_IP_OFF + 2],
                    frame[DST_IP_OFF + 3],
                ]);
                let Some(&addr) = routes.get(&dst) else {
                    io.unrouted_replies += 1;
                    continue;
                };
                sq.push(frame, addr);
                egress_seen += 1;
                if fault.duplicate_every != 0 && egress_seen.is_multiple_of(fault.duplicate_every) {
                    sq.push(frame, addr);
                    io.shim_duplicated += 1;
                }
            }
        }
        if sq.is_empty() {
            continue;
        }
        let sent = match io_mode {
            IoMode::Burst => sq.send(&socket),
            IoMode::Single => sq.send_single(&socket),
        };
        match sent {
            Ok(count) => io.datagrams_out += count as u64,
            Err(_) => {
                // UDP towards a vanished client (ICMP unreachable latched on
                // the socket): discard the rest of this batch and move on.
                io.send_errors += 1;
                sq.clear();
            }
        }
    }
    (shard, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::connect;
    use netchain_core::{AgentConfig, AgentCore, ChainDirectory, KvOp};
    use netchain_sim::SimTime;
    use netchain_wire::{NetChainPacket, PacketView, QueryStatus};

    fn test_ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    #[test]
    fn write_read_cas_through_the_sharded_dataplane() {
        let ring = test_ring();
        let keys: Vec<Key> = (0..8u64).map(Key::from_u64).collect();
        let populate: Vec<(Key, Value)> = keys.iter().map(|&k| (k, Value::from_u64(0))).collect();
        let config = NetConfig::new(ring, 2, PipelineConfig::tiny(64));
        let plane = NetDataplane::start(config, &populate).expect("start");
        let mut client = connect(&plane, 0);
        for (i, &key) in keys.iter().enumerate() {
            let w = client.write(key, Value::from_u64(100 + i as u64));
            assert_eq!(w.expect("write").status, Some(QueryStatus::Ok));
        }
        for (i, &key) in keys.iter().enumerate() {
            let r = client.read(key).expect("read");
            assert_eq!(r.value.as_u64(), Some(100 + i as u64));
            assert!(r.seq >= 1);
        }
        // Lock-style CAS: succeeds, then conflicts.
        let cas_ok = client.cas(keys[0], 100, 7).expect("cas");
        assert_eq!(cas_ok.status, Some(QueryStatus::Ok));
        let cas_fail = client.cas(keys[0], 100, 8).expect("cas");
        assert_eq!(cas_fail.status, Some(QueryStatus::CasFailed));
        assert_eq!(client.agent_stats().version_regressions, 0);

        let report = plane.shutdown();
        // The write reply comes from the tail, so by chain replication every
        // replica of the owning shard already applied it. Every chain member
        // must hold the key — a replica that never stored it is a
        // replication failure, not a replica to skip.
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(plane_chain(&key).len(), 3);
            let shard = report
                .shards
                .iter()
                .find(|s| s.owns(&key))
                .expect("one shard owns each key");
            let expected = if i == 0 { 7 } else { 100 + i as u64 };
            for ip in plane_chain(&key) {
                let sw = shard.switch(ip).expect("chain member hosted");
                let slot = sw
                    .kv()
                    .lookup(&key)
                    .unwrap_or_else(|| panic!("replica {ip} never stored key {i}"));
                assert_eq!(sw.kv().read_value(slot).as_u64(), Some(expected));
            }
        }
        let io_in: u64 = report.io.iter().map(|s| s.datagrams_in).sum();
        let io_out: u64 = report.io.iter().map(|s| s.datagrams_out).sum();
        assert!(io_in >= 18, "expected one datagram per op, got {io_in}");
        assert_eq!(io_in, io_out, "every query must produce exactly one reply");
    }

    fn plane_chain(key: &Key) -> Vec<Ipv4Addr> {
        test_ring().chain_for_key(key).switches
    }

    #[test]
    fn oversized_datagrams_are_counted_not_parsed() {
        let ring = test_ring();
        let config = NetConfig::new(ring, 1, PipelineConfig::tiny(16));
        let plane = NetDataplane::start(config, &[]).expect("start");
        let addr = plane.shard_addrs()[0];
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .send_to(&vec![0u8; MAX_FRAME_LEN + 40], addr)
            .expect("send oversized");
        std::thread::sleep(Duration::from_millis(50));
        let report = plane.shutdown();
        assert_eq!(report.io[0].oversized, 1);
        assert_eq!(report.shards[0].stats().parse_errors, 0);
    }

    #[test]
    fn single_mode_matches_burst_semantics() {
        let ring = test_ring();
        let key = Key::from_u64(1);
        let populate = vec![(key, Value::from_u64(0))];
        let mut config = NetConfig::new(ring, 2, PipelineConfig::tiny(64));
        config.io_mode = IoMode::Single;
        let plane = NetDataplane::start(config, &populate).expect("start");
        let mut client = connect(&plane, 0);
        let w = client.write(key, Value::from_u64(5)).expect("write");
        assert_eq!(w.status, Some(QueryStatus::Ok));
        let r = client.read(key).expect("read");
        assert_eq!(r.value.as_u64(), Some(5));
        plane.shutdown();
    }

    #[test]
    fn reply_to_unregistered_client_is_counted_unrouted() {
        let ring = test_ring();
        let key = Key::from_u64(2);
        let populate = vec![(key, Value::from_u64(3))];
        let config = NetConfig::new(ring.clone(), 1, PipelineConfig::tiny(64));
        let plane = NetDataplane::start(config, &populate).expect("start");
        // Send a query without registering the client's reply route.
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let agent_config = AgentConfig::new(Ipv4Addr::for_host(9));
        let mut agent = AgentCore::new(agent_config, ChainDirectory::new(ring));
        let (_, pkt) = agent.begin(SimTime(0), KvOp::Read(key));
        socket
            .send_to(&pkt.to_bytes(), plane.addr_of_key(&key))
            .expect("send");
        std::thread::sleep(Duration::from_millis(50));
        let report = plane.shutdown();
        let unrouted: u64 = report.io.iter().map(|s| s.unrouted_replies).sum();
        assert_eq!(unrouted, 1);
    }

    #[test]
    fn stat_probe_over_the_socket_reports_live_gauges() {
        let ring = test_ring();
        let key = Key::from_u64(5);
        let populate = vec![(key, Value::from_u64(9))];
        let config = NetConfig::new(ring.clone(), 1, PipelineConfig::tiny(64));
        let plane = NetDataplane::start(config, &populate).expect("start");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("timeout");
        let prober_ip = Ipv4Addr::for_host(77);
        plane.register_client(prober_ip, socket.local_addr().expect("addr"));
        // Probe the tail switch of `key`'s chain, in band through the
        // worker's socket like any query.
        let target = ring.chain_for_key(&key).tail();
        let probe = NetChainPacket::query(
            prober_ip,
            40_000,
            target,
            netchain_wire::OpCode::Stat,
            key,
            Value::empty(),
            netchain_wire::ChainList::new(vec![]).unwrap(),
            1,
        );
        let mut buf = [0u8; MAX_FRAME_LEN + 1];
        let mut snap = None;
        for _ in 0..50 {
            socket
                .send_to(&probe.to_bytes(), plane.shard_addrs()[0])
                .expect("send probe");
            if let Ok((len, _)) = socket.recv_from(&mut buf) {
                let view = PacketView::parse(&buf[..len]).expect("parse reply");
                assert_eq!(view.netchain.op(), netchain_wire::OpCode::StatReply);
                snap = Some(
                    netchain_wire::StatSnapshot::decode(view.netchain.value())
                        .expect("decode snapshot"),
                );
                break;
            }
        }
        let snap = snap.expect("no probe reply within the retry budget");
        assert!(snap.packets_seen >= 1);
        assert_eq!(snap.store_size, 1);
        // The worker published its live ingress gauges before the burst that
        // carried the probe.
        assert_eq!(snap.queue_cap, 32);
        assert!(snap.queue_depth >= 1);
        let report = plane.shutdown();
        assert!(report.io[0].recv_fill.iter().sum::<u64>() >= 1);
        assert!(report.shards[0].switch(target).unwrap().stats().stat_probes >= 1);
    }

    #[test]
    fn reply_frames_carry_the_client_ip_at_dst_ip_off() {
        // Pin the fixed-offset read the egress router depends on.
        let pkt = NetChainPacket::query(
            Ipv4Addr::for_host(3),
            40_000,
            Ipv4Addr::for_switch(1),
            netchain_wire::OpCode::Read,
            Key::from_u64(0),
            Value::empty(),
            netchain_wire::ChainList::new(vec![]).unwrap(),
            1,
        );
        let bytes = pkt.to_bytes();
        let view = PacketView::parse(&bytes).unwrap();
        assert_eq!(
            Ipv4Addr([
                bytes[DST_IP_OFF],
                bytes[DST_IP_OFF + 1],
                bytes[DST_IP_OFF + 2],
                bytes[DST_IP_OFF + 3]
            ]),
            view.ip.dst
        );
    }
}
