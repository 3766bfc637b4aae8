//! The closed-loop load generator.
//!
//! Each client owns a sans-IO [`AgentCore`] — the very same packet
//! construction and reply-matching logic the simulator's clients and the UDP
//! loopback deployment use — plus a seeded PRNG that samples keys and a
//! read/write/CAS op mix. Clients are *closed loop*: each keeps a bounded
//! window of queries outstanding and only issues a new one when a reply
//! retires an old one, the standard way to measure a service's sustainable
//! rate without open-loop overload artefacts.

use crate::stats::ClientReport;
use netchain_core::{AgentConfig, AgentCore, ChainDirectory, HashRing, KvOp};
use netchain_sim::SimTime;
use netchain_telemetry::{
    key_fingerprint, trace_id, Evidence, HistSnapshot, HopRole, LatencyHistogram, PacketTrace,
    TraceConfig, TraceSink,
};
use netchain_wire::{Ipv4Addr, Key, NetChainPacket, PacketView, QueryStatus, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Packets a retry poll wants retransmitted, returned by
/// [`ClientState::poll_retries_at`]. Queries the same poll abandoned are
/// visible in the report's `abandoned` counter.
pub type RetryBatch = Vec<NetChainPacket>;

/// The operation mix and intensity of a workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub num_keys: u64,
    /// Percentage of reads (0–100).
    pub read_pct: u8,
    /// Percentage of writes; the remainder after reads + writes is CAS.
    pub write_pct: u8,
    /// Outstanding queries per client (closed-loop window).
    pub window: usize,
    /// Operations each client completes before stopping.
    pub ops_per_client: u64,
    /// PRNG seed (each client derives its own stream from this).
    pub seed: u64,
    /// Hot-key skew: key of rank `k` is drawn with probability
    /// ∝ 1/(k+1)^s. `0.0` (the default) keeps exact uniform sampling —
    /// same PRNG draws, bit-identical op streams to the pre-skew workloads;
    /// `0.99` is the YCSB-style zipfian the paper's skewed experiments use.
    pub zipf_exponent: f64,
}

impl WorkloadSpec {
    /// The uniform-read workload the scaling acceptance test uses.
    pub fn uniform_read(num_keys: u64, ops_per_client: u64) -> Self {
        WorkloadSpec {
            num_keys,
            read_pct: 100,
            write_pct: 0,
            window: 64,
            ops_per_client,
            seed: 0x6661_6272_6963, // "fabric"
            zipf_exponent: 0.0,
        }
    }

    /// A mixed workload: `read_pct` reads, `write_pct` writes, remainder CAS.
    pub fn mixed(num_keys: u64, ops_per_client: u64, read_pct: u8, write_pct: u8) -> Self {
        assert!(usize::from(read_pct) + usize::from(write_pct) <= 100);
        WorkloadSpec {
            read_pct,
            write_pct,
            ..Self::uniform_read(num_keys, ops_per_client)
        }
    }

    /// Returns a copy with zipfian hot-key skew of exponent `s` (`0.0`
    /// restores uniform sampling).
    pub fn with_skew(mut self, s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "skew exponent must be finite");
        self.zipf_exponent = s;
        self
    }
}

/// The cumulative distribution of zipfian key ranks, normalised to end at
/// 1.0. Empty for uniform workloads, in which case sampling takes the exact
/// pre-skew PRNG path.
fn build_zipf_cdf(spec: &WorkloadSpec) -> Vec<f64> {
    if spec.zipf_exponent == 0.0 {
        return Vec::new();
    }
    assert!(
        spec.num_keys <= (1 << 24),
        "zipfian sampling tabulates the CDF; cap the keyspace"
    );
    let mut cdf = Vec::with_capacity(spec.num_keys as usize);
    let mut acc = 0.0f64;
    for k in 0..spec.num_keys {
        acc += 1.0 / ((k + 1) as f64).powf(spec.zipf_exponent);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// One closed-loop client: op sampling + the sans-IO agent.
pub struct ClientState {
    id: u32,
    agent: AgentCore,
    rng: ChaCha8Rng,
    spec: WorkloadSpec,
    /// Tabulated zipfian CDF (empty for uniform workloads).
    zipf_cdf: Vec<f64>,
    /// Monotonically increasing write payloads, so every write is distinct.
    write_counter: u64,
    report: ClientReport,
    /// Issue→reply latency of completed queries, in the units of the clock
    /// the caller feeds [`ClientState::issue_at`] and
    /// [`ClientState::absorb_reply_at`].
    latency: LatencyHistogram,
    /// In-band trace stamping (client hop), when enabled.
    tracer: Option<TraceSink>,
}

impl ClientState {
    /// Creates client `id` issuing ops over `ring`'s chains.
    pub fn new(id: u32, ring: &HashRing, spec: WorkloadSpec) -> Self {
        let config = AgentConfig::new(Ipv4Addr::for_host(id));
        Self::with_agent_config(id, ring, spec, config)
    }

    /// Like [`ClientState::new`], with an explicit agent configuration
    /// (live-controlled runs tune the retransmission timeout and retry
    /// budget, which the failure-free fabric never exercises).
    pub fn with_agent_config(
        id: u32,
        ring: &HashRing,
        spec: WorkloadSpec,
        config: AgentConfig,
    ) -> Self {
        let directory = ChainDirectory::new(ring.clone());
        ClientState {
            id,
            agent: AgentCore::new(config, directory),
            rng: ChaCha8Rng::seed_from_u64(spec.seed ^ (u64::from(id) << 32)),
            zipf_cdf: build_zipf_cdf(&spec),
            spec,
            write_counter: 0,
            report: ClientReport::default(),
            latency: LatencyHistogram::new(),
            tracer: None,
        }
    }

    /// This client's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This client's IP as a big-endian u32 (the trace hop identity).
    fn ip_u32(&self) -> u32 {
        u32::from_be_bytes(Ipv4Addr::for_host(self.id).0)
    }

    /// Turns on in-band trace stamping: sampled queries get a client-side
    /// stamp at issue and at reply absorption.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        self.tracer = Some(TraceSink::new(config));
    }

    /// Drains the traces recorded so far (fragments; merge with the shard
    /// sinks' fragments via `netchain_telemetry::merge_traces`).
    pub fn take_traces(&mut self) -> Vec<PacketTrace> {
        self.tracer
            .as_mut()
            .map(TraceSink::drain)
            .unwrap_or_default()
    }

    /// Traces this client's sink discarded past its `max_traces` cap.
    pub fn traces_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, TraceSink::dropped)
    }

    /// Takes only the traces *completed* since the last call, leaving open
    /// ones accumulating. This is the live feed for the shadow auditor: a
    /// completed client fragment carries the issue and ack evidence the
    /// online freshness check needs.
    pub fn take_finished_traces(&mut self) -> Vec<PacketTrace> {
        self.tracer
            .as_mut()
            .map(TraceSink::take_finished)
            .unwrap_or_default()
    }

    /// Snapshot of the issue→reply latency distribution.
    pub fn latency_snapshot(&self) -> HistSnapshot {
        self.latency.snapshot()
    }

    /// The counters accumulated so far (version regressions are read live
    /// from the agent).
    pub fn report(&self) -> ClientReport {
        ClientReport {
            version_regressions: self.agent.stats().version_regressions,
            retries: self.agent.stats().retries,
            abandoned: self.agent.stats().abandoned,
            ..self.report
        }
    }

    /// Queries currently outstanding.
    pub fn outstanding(&self) -> usize {
        self.agent.outstanding()
    }

    /// The underlying agent's full statistics (stale replies, abandonments —
    /// counters the condensed [`ClientReport`] does not carry).
    pub fn agent_stats(&self) -> &netchain_core::AgentStats {
        self.agent.stats()
    }

    /// True once the client has completed its share of the workload.
    pub fn is_done(&self) -> bool {
        self.report.completed >= self.spec.ops_per_client
    }

    /// True if another query may be issued right now (window open and work
    /// remaining to issue).
    pub fn can_issue(&self) -> bool {
        self.agent.outstanding() < self.spec.window && self.report.issued < self.spec.ops_per_client
    }

    /// Samples the next operation of the workload mix. Public so other
    /// harnesses (the measured server baseline, the live failover runner)
    /// can draw from the *same* op stream the fabric is driven with.
    pub fn sample_op(&mut self) -> KvOp {
        let key = Key::from_u64(self.sample_key_rank());
        let dice: u8 = self.rng.gen_range(0..100u8);
        if dice < self.spec.read_pct {
            KvOp::Read(key)
        } else if dice < self.spec.read_pct + self.spec.write_pct {
            self.write_counter += 1;
            KvOp::Write(key, Value::from_u64(self.write_counter))
        } else {
            // CAS expecting the initial value; contention makes some fail,
            // which is the interesting (lock-like) behaviour.
            KvOp::Cas {
                key,
                expected: 0,
                new: u64::from(self.id) + 1,
            }
        }
    }

    /// Draws the next key rank: the exact pre-skew uniform path when the
    /// workload is unskewed (bit-identical PRNG draw sequence), otherwise an
    /// inverse-CDF zipfian draw where rank 0 is the hottest key.
    fn sample_key_rank(&mut self) -> u64 {
        if self.zipf_cdf.is_empty() {
            self.rng.gen_range(0..self.spec.num_keys)
        } else {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            let rank = self.zipf_cdf.partition_point(|&c| c <= u) as u64;
            rank.min(self.spec.num_keys - 1)
        }
    }

    /// Issues the next query stamped with a caller-supplied clock (wall-clock
    /// nanoseconds since the run started, in live runs), returning the
    /// packet to transmit. The clock must not run backwards: the agent's
    /// retry timers and latencies are measured on it.
    pub fn issue_at(&mut self, now: SimTime) -> NetChainPacket {
        debug_assert!(self.can_issue());
        let op = self.sample_op();
        let (request_id, pkt) = self.agent.begin(now, op);
        self.report.issued += 1;
        let ip = self.ip_u32();
        if let Some(tracer) = &mut self.tracer {
            let id = trace_id(ip, request_id);
            if tracer.samples(id) {
                match netchain_core::evidence_op(pkt.netchain.op) {
                    Some(op) => tracer.stamp_with(
                        id,
                        ip,
                        now.as_nanos(),
                        Evidence {
                            op,
                            role: HopRole::ClientIssue,
                            ok: true,
                            key_fp: key_fingerprint(pkt.netchain.key.stable_hash()),
                            session: 0,
                            seq: 0,
                        },
                    ),
                    None => tracer.stamp(id, ip, now.as_nanos()),
                }
            }
        }
        pkt
    }

    /// Consumes one serialized reply frame at a caller-supplied clock;
    /// returns `true` if it matched an outstanding query.
    pub fn absorb_reply_at(&mut self, now: SimTime, frame: &[u8]) -> bool {
        let Ok(view) = PacketView::parse(frame) else {
            return false;
        };
        let pkt = view.to_owned();
        self.absorb_packet(now, &pkt)
    }

    /// Checks outstanding queries against the retransmission timeout,
    /// returning the packets to retransmit. Queries past their retry budget
    /// are abandoned (they reopen the window and show up in the report's
    /// `abandoned` counter — which must stay zero in healthy runs — but are
    /// *not* counted as completed: `completed` means a matched reply).
    pub fn poll_retries_at(&mut self, now: SimTime) -> RetryBatch {
        self.agent.poll_retries(now).retransmit
    }

    fn absorb_packet(&mut self, now: SimTime, pkt: &netchain_wire::NetChainPacket) -> bool {
        match self.agent.on_reply(now, pkt) {
            Some(done) => {
                self.report.completed += 1;
                self.latency.record(done.latency.as_nanos());
                match done.status {
                    Some(QueryStatus::Ok) => self.report.ok += 1,
                    Some(QueryStatus::CasFailed) => self.report.cas_failed += 1,
                    _ => {}
                }
                let ip = self.ip_u32();
                if let Some(tracer) = &mut self.tracer {
                    let id = trace_id(ip, done.request_id);
                    if tracer.samples(id) {
                        match netchain_core::evidence_op(pkt.netchain.op) {
                            Some(op) => tracer.stamp_with(
                                id,
                                ip,
                                now.as_nanos(),
                                Evidence {
                                    op,
                                    role: HopRole::ClientAck,
                                    ok: pkt.netchain.status == QueryStatus::Ok,
                                    key_fp: key_fingerprint(pkt.netchain.key.stable_hash()),
                                    session: u64::from(pkt.netchain.session),
                                    seq: pkt.netchain.seq,
                                },
                            ),
                            None => tracer.stamp(id, ip, now.as_nanos()),
                        }
                    }
                    tracer.finish(id);
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> HashRing {
        HashRing::new((0..4).map(Ipv4Addr::for_switch).collect(), 8, 3, 7)
    }

    #[test]
    fn op_mix_roughly_matches_spec() {
        let spec = WorkloadSpec::mixed(100, 1_000, 50, 30);
        let mut client = ClientState::new(0, &ring(), spec);
        let (mut reads, mut writes, mut cas) = (0u32, 0u32, 0u32);
        for _ in 0..1_000 {
            match client.sample_op() {
                KvOp::Read(_) => reads += 1,
                KvOp::Write(..) => writes += 1,
                KvOp::Cas { .. } => cas += 1,
                KvOp::Delete(_) => unreachable!("workloads never delete"),
            }
        }
        assert!((400..600).contains(&reads), "reads: {reads}");
        assert!((200..400).contains(&writes), "writes: {writes}");
        assert!((100..300).contains(&cas), "cas: {cas}");
    }

    #[test]
    fn zipf_skew_concentrates_on_low_ranks() {
        let uniform = WorkloadSpec::uniform_read(100, 1_000);
        let skewed = uniform.with_skew(1.2);
        let mut client = ClientState::new(0, &ring(), skewed);
        let mut counts = vec![0u32; 100];
        const DRAWS: u32 = 10_000;
        for _ in 0..DRAWS {
            let rank = client.sample_key_rank();
            assert!(rank < 100, "rank out of range: {rank}");
            counts[rank as usize] += 1;
        }
        // The hottest key of a zipf(1.2) over 100 keys carries ~26% of the
        // mass; the top ten carry ~70%. Uniform would give 1% and 10%.
        let top1 = counts[0];
        let top10: u32 = counts[..10].iter().sum();
        assert!(top1 > DRAWS / 8, "rank 0 drew only {top1}/{DRAWS}");
        assert!(top10 > DRAWS / 2, "top-10 ranks drew only {top10}/{DRAWS}");
        // And the tail is still reachable: some draw landed past rank 10.
        assert!(top10 < DRAWS, "tail never sampled");
    }

    #[test]
    fn zero_skew_keeps_exact_uniform_draw_sequence() {
        let spec = WorkloadSpec::uniform_read(100, 1_000);
        let mut plain = ClientState::new(3, &ring(), spec);
        let mut via_skew = ClientState::new(3, &ring(), spec.with_skew(0.0));
        for _ in 0..256 {
            assert_eq!(plain.sample_key_rank(), via_skew.sample_key_rank());
        }
    }

    #[test]
    fn window_limits_outstanding() {
        let spec = WorkloadSpec {
            window: 4,
            ..WorkloadSpec::uniform_read(16, 100)
        };
        let mut client = ClientState::new(1, &ring(), spec);
        let mut issued = Vec::new();
        while client.can_issue() {
            issued.push(client.issue_at(SimTime(issued.len() as u64)));
        }
        assert_eq!(issued.len(), 4);
        assert_eq!(client.outstanding(), 4);
        assert!(!client.is_done());
    }
}
