//! In-band per-hop tracing in the spirit of P4 INT (in-band network
//! telemetry).
//!
//! Real INT switches append per-hop metadata to the packet itself. This repo
//! keeps the wire format untouched by exploiting two fields every NetChain
//! packet already carries end-to-end: the client's source IP and the query
//! `request_id`. Mixing the two yields a stable trace ID that the client and
//! every switch/shard compute independently — the packet *is* the trace
//! carrier, no extra header bytes needed. Each hop that handles a sampled
//! packet stamps `(hop ip, timestamp)` into a local [`TraceSink`]; sinks are
//! merged after the run and summarised into per-hop-transition latency
//! breakdowns.
//!
//! Sampling is deterministic: a packet is traced iff the low `sample_shift`
//! bits of its trace ID hash to zero, so independent observers (sim client,
//! sim switches, fabric shards) agree on which packets are sampled without
//! coordination.

use std::collections::HashMap;

use crate::hist::{HistSnapshot, LatencyHistogram, Quantiles};

/// Sampling knobs for in-band tracing. `Copy` so it can ride on
/// `FabricConfig` without ceremony.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; when false no tracing code runs at all.
    pub enabled: bool,
    /// Sample 1 in `2^sample_shift` trace IDs. 0 means every packet.
    pub sample_shift: u32,
    /// Cap on completed traces retained per sink (oldest kept); bounds
    /// memory on long runs.
    pub max_traces: usize,
}

impl TraceConfig {
    /// Tracing disabled; the fast path stays untouched.
    pub const OFF: TraceConfig = TraceConfig {
        enabled: false,
        sample_shift: 0,
        max_traces: 0,
    };

    /// Trace 1 in `2^shift` queries, keeping at most `max_traces` of them.
    pub fn sampled(shift: u32, max_traces: usize) -> Self {
        TraceConfig {
            enabled: true,
            sample_shift: shift,
            max_traces,
        }
    }

    /// Whether a given trace ID is selected by this config.
    #[inline]
    pub fn samples(&self, trace_id: u64) -> bool {
        self.enabled && trace_id & ((1u64 << self.sample_shift) - 1) == 0
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::OFF
    }
}

/// Derives the trace ID from the two in-band fields. splitmix64-style mixing
/// so sampling on low bits is unbiased even for sequential request IDs.
#[inline]
pub fn trace_id(src_ip: u32, request_id: u64) -> u64 {
    let mut z = (u64::from(src_ip) << 32) ^ request_id;
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The operation class a hop observed, as recorded in [`Evidence`]. Coarser
/// than the wire `OpCode` (replies fold onto their query op) so the
/// telemetry crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceOp {
    /// A read query (or its reply).
    Read,
    /// A write or insert.
    Write,
    /// A compare-and-swap.
    Cas,
    /// A delete.
    Delete,
    /// Anything else (stat probes, unknown future ops).
    Other,
}

impl EvidenceOp {
    /// Short wire label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            EvidenceOp::Read => "read",
            EvidenceOp::Write => "write",
            EvidenceOp::Cas => "cas",
            EvidenceOp::Delete => "delete",
            EvidenceOp::Other => "other",
        }
    }

    /// Inverse of [`EvidenceOp::label`]; unknown labels map to `Other` so
    /// newer producers stay readable.
    pub fn from_label(s: &str) -> Self {
        match s {
            "read" => EvidenceOp::Read,
            "write" => EvidenceOp::Write,
            "cas" => EvidenceOp::Cas,
            "delete" => EvidenceOp::Delete,
            _ => EvidenceOp::Other,
        }
    }

    /// True for ops that mutate chain state (write/CAS/delete).
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            EvidenceOp::Write | EvidenceOp::Cas | EvidenceOp::Delete
        )
    }
}

/// Where in the chain a stamped hop sat when it observed the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HopRole {
    /// The client, at query issue time.
    ClientIssue,
    /// The chain head (first hop of a mutation; assigns the sequence).
    Head,
    /// A mid-chain replica.
    Replica,
    /// The chain tail (generates the reply).
    Tail,
    /// A single-switch chain: head and tail at once.
    Solo,
    /// The client, at reply-absorption time.
    ClientAck,
}

impl HopRole {
    /// Short wire label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            HopRole::ClientIssue => "issue",
            HopRole::Head => "head",
            HopRole::Replica => "mid",
            HopRole::Tail => "tail",
            HopRole::Solo => "solo",
            HopRole::ClientAck => "ack",
        }
    }

    /// Inverse of [`HopRole::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "issue" => HopRole::ClientIssue,
            "head" => HopRole::Head,
            "mid" => HopRole::Replica,
            "tail" => HopRole::Tail,
            "solo" => HopRole::Solo,
            "ack" => HopRole::ClientAck,
            _ => return None,
        })
    }

    /// Chain position of a switch handling a query, derived from fields the
    /// packet already carries. Reads are answered wherever they are
    /// addressed (any remaining chain hops are failover alternates, not a
    /// forwarding path), so every read hop is a tail. For mutations, no
    /// sequence assigned yet means the hop is the head, and an empty
    /// remaining chain means it generates the reply (tail). Every execution
    /// mode derives roles through this one function so the auditor sees
    /// consistent evidence.
    pub fn for_query(is_mutation: bool, seq_is_zero: bool, chain_is_empty: bool) -> HopRole {
        if !is_mutation {
            return HopRole::Tail;
        }
        match (seq_is_zero, chain_is_empty) {
            (true, true) => HopRole::Solo,
            (true, false) => HopRole::Head,
            (false, true) => HopRole::Tail,
            (false, false) => HopRole::Replica,
        }
    }

    /// True if this hop could have been the chain head (sequence assigner).
    pub fn acts_as_head(self) -> bool {
        matches!(self, HopRole::Head | HopRole::Solo)
    }

    /// True if this hop could have been the chain tail (reply generator).
    pub fn acts_as_tail(self) -> bool {
        matches!(self, HopRole::Tail | HopRole::Solo)
    }
}

/// Folds a 64-bit stable key hash into the 32-bit fingerprint carried in
/// [`Evidence`]. XOR-folding keeps both halves contributing, so fingerprints
/// of sequential keys stay distinct.
#[inline]
pub fn key_fingerprint(stable_hash: u64) -> u32 {
    (stable_hash ^ (stable_hash >> 32)) as u32
}

/// What a hop semantically observed when it stamped a sampled packet: the
/// operation, which key it touched (as a fingerprint), and the value of the
/// per-key version register `(session, seq)` at that hop *before* the
/// operation executed. Client stamps instead carry the version the reply
/// returned (ack) or zeros (issue). This is the payload the chain auditor
/// reconstructs per-key version histories from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// Operation class.
    pub op: EvidenceOp,
    /// Chain position of the stamping hop.
    pub role: HopRole,
    /// Switch hops: the key was present (register slot valid). Client ack:
    /// the reply status was `Ok`.
    pub ok: bool,
    /// 32-bit fingerprint of the key ([`key_fingerprint`]).
    pub key_fp: u32,
    /// Session half of the observed version register.
    pub session: u64,
    /// Sequence half of the observed version register.
    pub seq: u64,
}

impl Evidence {
    /// The observed version as the lexicographic `(session, seq)` tuple the
    /// chain orders writes by.
    #[inline]
    pub fn version(&self) -> (u64, u64) {
        (self.session, self.seq)
    }
}

/// One timestamped visit to a hop. The hop is identified by the big-endian
/// `u32` form of its IPv4 address (unit-friendly: no dependency on the wire
/// crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStamp {
    /// Hop identity (IPv4 address as big-endian u32).
    pub hop_ip: u32,
    /// Stamp time in nanoseconds (sim time or wall-clock since run start).
    pub at_ns: u64,
    /// Semantic payload, when the stamping hop recorded one. Plain
    /// `(ip, time)` stamps (schema-1 producers, transit hops) carry `None`.
    pub evidence: Option<Evidence>,
}

impl HopStamp {
    /// A bare stamp with no evidence payload.
    pub fn plain(hop_ip: u32, at_ns: u64) -> Self {
        HopStamp {
            hop_ip,
            at_ns,
            evidence: None,
        }
    }
}

/// The recorded path of one sampled query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTrace {
    /// The mixed trace ID.
    pub id: u64,
    /// Hops in stamp order, client-issue first.
    pub hops: Vec<HopStamp>,
}

impl PacketTrace {
    /// The hop IPs in visit order (the "chain order" of the trace).
    pub fn path(&self) -> Vec<u32> {
        self.hops.iter().map(|h| h.hop_ip).collect()
    }
}

/// A per-owner (client, shard, or switch) trace recorder. Stamping a trace
/// ID that has not been seen yet begins it implicitly, so every observer can
/// stamp unconditionally for sampled IDs.
#[derive(Debug)]
pub struct TraceSink {
    config: TraceConfig,
    active: HashMap<u64, PacketTrace>,
    done: Vec<PacketTrace>,
    /// Traces discarded past `max_traces` by `finish` or `drain`.
    dropped: u64,
}

impl TraceSink {
    /// Creates a sink with the given sampling config.
    pub fn new(config: TraceConfig) -> Self {
        TraceSink {
            config,
            active: HashMap::new(),
            done: Vec::new(),
            dropped: 0,
        }
    }

    /// The sampling config this sink was built with.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Whether `id` should be stamped at all.
    #[inline]
    pub fn samples(&self, id: u64) -> bool {
        self.config.samples(id)
    }

    /// Records a hop visit for `id` (no-op if the ID is not sampled).
    #[inline]
    pub fn stamp(&mut self, id: u64, hop_ip: u32, at_ns: u64) {
        self.push(id, HopStamp::plain(hop_ip, at_ns));
    }

    /// Records a hop visit carrying semantic [`Evidence`]. Callers should
    /// check [`TraceSink::samples`] first and only then pay for gathering the
    /// evidence (register reads, key hashing) — this keeps unsampled packets
    /// free even with tracing on.
    #[inline]
    pub fn stamp_with(&mut self, id: u64, hop_ip: u32, at_ns: u64, evidence: Evidence) {
        self.push(
            id,
            HopStamp {
                hop_ip,
                at_ns,
                evidence: Some(evidence),
            },
        );
    }

    #[inline]
    fn push(&mut self, id: u64, stamp: HopStamp) {
        if !self.config.samples(id) {
            return;
        }
        self.active
            .entry(id)
            .or_insert_with(|| PacketTrace {
                id,
                hops: Vec::with_capacity(4),
            })
            .hops
            .push(stamp);
    }

    /// Marks `id` complete, moving it to the finished set.
    pub fn finish(&mut self, id: u64) {
        if let Some(trace) = self.active.remove(&id) {
            if self.done.len() < self.config.max_traces {
                self.done.push(trace);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Drains everything recorded so far — finished traces first, then any
    /// still-open ones (useful at end of run when replies raced shutdown).
    pub fn drain(&mut self) -> Vec<PacketTrace> {
        let mut out = std::mem::take(&mut self.done);
        let mut open: Vec<PacketTrace> = self.active.drain().map(|(_, t)| t).collect();
        open.sort_by_key(|t| t.id);
        let keep = self.config.max_traces.saturating_sub(out.len());
        self.dropped += open.len().saturating_sub(keep) as u64;
        out.extend(open.into_iter().take(keep));
        out
    }

    /// Traces discarded so far because the sink already held `max_traces`
    /// (at [`TraceSink::finish`], or open ones at [`TraceSink::drain`]).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of completed traces currently held.
    pub fn finished(&self) -> usize {
        self.done.len()
    }

    /// Takes only the *completed* traces, leaving still-open ones in place.
    /// This is what a live shadow consumer (the online auditor) drains
    /// periodically: completed traces are final and safe to judge, open ones
    /// may still gain hops.
    pub fn take_finished(&mut self) -> Vec<PacketTrace> {
        std::mem::take(&mut self.done)
    }
}

/// Merges per-owner trace fragments by trace ID into whole-path traces.
/// Fragments for the same ID are concatenated and re-sorted by timestamp, so
/// it does not matter which observer stamped which hop.
pub fn merge_traces<I: IntoIterator<Item = PacketTrace>>(parts: I) -> Vec<PacketTrace> {
    let mut by_id: HashMap<u64, PacketTrace> = HashMap::new();
    for frag in parts {
        by_id
            .entry(frag.id)
            .and_modify(|t| t.hops.extend_from_slice(&frag.hops))
            .or_insert(frag);
    }
    let mut out: Vec<PacketTrace> = by_id.into_values().collect();
    for t in &mut out {
        t.hops.sort_by_key(|h| h.at_ns);
    }
    out.sort_by_key(|t| t.id);
    out
}

/// Latency breakdown for one hop-to-hop transition (e.g. head → mid).
#[derive(Debug, Clone)]
pub struct HopTransition {
    /// Source hop IP.
    pub from_ip: u32,
    /// Destination hop IP.
    pub to_ip: u32,
    /// Distribution of `to.at_ns - from.at_ns` across traces.
    pub latency: HistSnapshot,
}

impl HopTransition {
    /// Summary quantiles of the transition latency.
    pub fn quantiles(&self) -> Quantiles {
        self.latency.quantiles()
    }
}

/// Aggregated view over a set of merged traces: the distinct paths seen and
/// the latency distribution of every hop transition.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of traces aggregated.
    pub traces: usize,
    /// Distinct hop-IP paths with their occurrence counts, most common
    /// first.
    pub paths: Vec<(Vec<u32>, usize)>,
    /// Per-transition latency distributions, in first-seen order.
    pub transitions: Vec<HopTransition>,
}

impl TraceSummary {
    /// Builds a summary from merged traces.
    pub fn from_traces(traces: &[PacketTrace]) -> Self {
        let mut path_counts: Vec<(Vec<u32>, usize)> = Vec::new();
        let mut transitions: Vec<(u32, u32, LatencyHistogram)> = Vec::new();
        for t in traces {
            let path = t.path();
            match path_counts.iter_mut().find(|(p, _)| *p == path) {
                Some((_, n)) => *n += 1,
                None => path_counts.push((path, 1)),
            }
            for pair in t.hops.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let delta = b.at_ns.saturating_sub(a.at_ns);
                match transitions
                    .iter_mut()
                    .find(|(f, to, _)| *f == a.hop_ip && *to == b.hop_ip)
                {
                    Some((_, _, h)) => h.record(delta),
                    None => {
                        let mut h = LatencyHistogram::new();
                        h.record(delta);
                        transitions.push((a.hop_ip, b.hop_ip, h));
                    }
                }
            }
        }
        path_counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        TraceSummary {
            traces: traces.len(),
            paths: path_counts,
            transitions: transitions
                .into_iter()
                .map(|(from_ip, to_ip, h)| HopTransition {
                    from_ip,
                    to_ip,
                    latency: h.snapshot(),
                })
                .collect(),
        }
    }

    /// The most common path, if any traces were recorded.
    pub fn dominant_path(&self) -> Option<&[u32]> {
        self.paths.first().map(|(p, _)| p.as_slice())
    }
}

/// Renders an IPv4-as-u32 hop ID as dotted quad for human output.
pub fn ip_to_string(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Renders a hop path as `a -> b -> c` dotted quads.
pub fn path_to_string(path: &[u32]) -> String {
    path.iter()
        .map(|&ip| ip_to_string(ip))
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_ratioed() {
        let cfg = TraceConfig::sampled(4, 1024);
        let mut hits = 0;
        for rid in 0..4096u64 {
            let id = trace_id(0x0a000001, rid);
            if cfg.samples(id) {
                hits += 1;
            }
            // Same inputs, same decision.
            assert_eq!(cfg.samples(id), cfg.samples(trace_id(0x0a000001, rid)));
        }
        // Expect roughly 4096/16 = 256; allow generous slack.
        assert!((128..=512).contains(&hits), "hits={hits}");
    }

    #[test]
    fn shift_zero_samples_everything() {
        let cfg = TraceConfig::sampled(0, 16);
        for rid in 0..100u64 {
            assert!(cfg.samples(trace_id(1, rid)));
        }
        assert!(!TraceConfig::OFF.samples(0));
    }

    #[test]
    fn sink_auto_begins_and_finishes() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(7, 0x0a000001, 100);
        sink.stamp(7, 0x0a000002, 250);
        sink.finish(7);
        let traces = sink.drain();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].path(), vec![0x0a000001, 0x0a000002]);
        assert_eq!(traces[0].hops[1].at_ns, 250);
    }

    #[test]
    fn unsampled_ids_are_ignored() {
        let mut sink = TraceSink::new(TraceConfig::sampled(8, 8));
        // ID with a nonzero low byte is not sampled.
        let id = 0x1234_5601;
        assert!(!sink.samples(id));
        sink.stamp(id, 1, 1);
        sink.finish(id);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn merge_reassembles_fragments_by_time() {
        let client = PacketTrace {
            id: 9,
            hops: vec![HopStamp::plain(1, 0), HopStamp::plain(1, 400)],
        };
        let switch = PacketTrace {
            id: 9,
            hops: vec![HopStamp::plain(2, 100), HopStamp::plain(3, 200)],
        };
        let merged = merge_traces(vec![switch, client]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].path(), vec![1, 2, 3, 1]);
    }

    #[test]
    fn summary_counts_paths_and_transitions() {
        let mk = |id: u64, ips: &[u32]| PacketTrace {
            id,
            hops: ips
                .iter()
                .enumerate()
                .map(|(i, &ip)| HopStamp::plain(ip, (id * 1000) + i as u64 * 100))
                .collect(),
        };
        let traces = vec![mk(1, &[10, 20, 30]), mk(2, &[10, 20, 30]), mk(3, &[10, 30])];
        let s = TraceSummary::from_traces(&traces);
        assert_eq!(s.traces, 3);
        assert_eq!(s.dominant_path(), Some(&[10, 20, 30][..]));
        assert_eq!(s.paths[0].1, 2);
        // Transitions: 10->20 (x2), 20->30 (x2), 10->30 (x1).
        assert_eq!(s.transitions.len(), 3);
        let t = s
            .transitions
            .iter()
            .find(|t| t.from_ip == 10 && t.to_ip == 20)
            .unwrap();
        assert_eq!(t.latency.count(), 2);
        assert_eq!(t.latency.quantile(1.0), Some(100));
    }

    #[test]
    fn sink_respects_max_traces() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 2));
        for id in 0..5u64 {
            sink.stamp(id, 1, id);
            sink.finish(id);
        }
        assert_eq!(sink.finished(), 2);
        assert_eq!(sink.dropped(), 3, "finish counts what it discards");
        sink.stamp(9, 1, 9); // still open at drain, and over the cap
        assert_eq!(sink.drain().len(), 2);
        assert_eq!(sink.dropped(), 4, "drain counts the open ones it discards");
    }

    #[test]
    fn evidence_stamps_ride_alongside_plain_ones() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(3, 1, 10);
        sink.stamp_with(
            3,
            2,
            20,
            Evidence {
                op: EvidenceOp::Write,
                role: HopRole::Head,
                ok: true,
                key_fp: 0xdead,
                session: 1,
                seq: 7,
            },
        );
        sink.finish(3);
        let traces = sink.drain();
        assert_eq!(traces[0].hops[0].evidence, None);
        let ev = traces[0].hops[1].evidence.unwrap();
        assert_eq!(ev.version(), (1, 7));
        assert!(ev.role.acts_as_head());
        assert!(!ev.role.acts_as_tail());
    }

    #[test]
    fn take_finished_leaves_open_traces_active() {
        let mut sink = TraceSink::new(TraceConfig::sampled(0, 8));
        sink.stamp(1, 9, 1);
        sink.finish(1);
        sink.stamp(2, 9, 2); // still open
        let done = sink.take_finished();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert!(sink.take_finished().is_empty());
        // The open trace can still gain hops and finish later.
        sink.stamp(2, 10, 3);
        sink.finish(2);
        assert_eq!(sink.take_finished().len(), 1);
    }

    #[test]
    fn role_derivation_covers_all_chain_positions() {
        // Mutation, no seq yet, more hops follow: head.
        assert_eq!(HopRole::for_query(true, true, false), HopRole::Head);
        // Mutation mid-chain: replica; at the last hop: tail.
        assert_eq!(HopRole::for_query(true, false, false), HopRole::Replica);
        assert_eq!(HopRole::for_query(true, false, true), HopRole::Tail);
        // Single-switch chain assigns the seq and replies at one hop.
        assert_eq!(HopRole::for_query(true, true, true), HopRole::Solo);
        // Reads go straight to the tail — even with failover alternates
        // still listed in the chain.
        assert_eq!(HopRole::for_query(false, true, true), HopRole::Tail);
        assert_eq!(HopRole::for_query(false, true, false), HopRole::Tail);
        for role in [
            HopRole::ClientIssue,
            HopRole::Head,
            HopRole::Replica,
            HopRole::Tail,
            HopRole::Solo,
            HopRole::ClientAck,
        ] {
            assert_eq!(HopRole::from_label(role.label()), Some(role));
        }
        assert_eq!(HopRole::from_label("bogus"), None);
        for op in [
            EvidenceOp::Read,
            EvidenceOp::Write,
            EvidenceOp::Cas,
            EvidenceOp::Delete,
            EvidenceOp::Other,
        ] {
            assert_eq!(EvidenceOp::from_label(op.label()), op);
        }
    }

    #[test]
    fn key_fingerprint_folds_both_halves() {
        assert_ne!(
            key_fingerprint(0x1111_0000_0000_0000),
            key_fingerprint(0x2222_0000_0000_0000)
        );
        assert_ne!(key_fingerprint(1), key_fingerprint(2));
    }

    #[test]
    fn ip_rendering() {
        assert_eq!(ip_to_string(0x0a000102), "10.0.1.2");
        assert_eq!(
            path_to_string(&[0x0a000101, 0x0a000102]),
            "10.0.1.1 -> 10.0.1.2"
        );
    }
}
