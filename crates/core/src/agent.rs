//! The client agent (§3): translates API calls into NetChain query packets,
//! matches replies to outstanding requests, and retries on timeout (§4.3 —
//! NetChain relies on client-side retries because the chain runs over UDP).
//!
//! [`AgentCore`] is deliberately sans-IO: it produces packets and consumes
//! replies but never touches a socket or the simulator, so the same code
//! drives the discrete-event simulation ([`crate::client`]), the real UDP
//! loopback deployment (`netchain-net`), and unit tests.

use crate::directory::ChainDirectory;
use crate::types::{CompletedQuery, KvOp};
use netchain_sim::{SimDuration, SimTime};
use netchain_wire::{Ipv4Addr, NetChainPacket, OpCode, QueryStatus, Value};
use std::collections::HashMap;

/// Static configuration of a client agent.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// The client's IP address (source of queries, destination of replies).
    pub client_ip: Ipv4Addr,
    /// The client's UDP source port.
    pub udp_port: u16,
    /// How long to wait for a reply before retransmitting.
    pub timeout: SimDuration,
    /// How many retransmissions to attempt before abandoning a query.
    pub max_retries: u32,
}

impl AgentConfig {
    /// A sensible default for a datacenter client: 1 ms retransmission
    /// timeout, 10 retries.
    pub fn new(client_ip: Ipv4Addr) -> Self {
        AgentConfig {
            client_ip,
            udp_port: 40_000,
            timeout: SimDuration::from_millis(1),
            max_retries: 10,
        }
    }

    /// Returns a copy with the given timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Returns a copy with the given retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// Counters and latency statistics kept by an agent.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Queries issued (first transmissions, not counting retries).
    pub issued: u64,
    /// Queries completed with a reply.
    pub completed: u64,
    /// Completed queries whose status was `Ok`.
    pub ok: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Queries abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Replies that arrived for requests no longer outstanding (duplicates
    /// from retries, or replies after abandonment) — benign, but counted.
    pub stale_replies: u64,
    /// Replies whose `(session, seq)` version was *older* than a version this
    /// agent had already observed for the same key **before the query was
    /// issued**. Strong consistency means this must stay zero (§4.5: versions
    /// exposed to clients are monotonically increasing). Replies of queries
    /// that were *concurrent* with the newer observation are exempt — two
    /// overlapping operations may legitimately complete in either order.
    pub version_regressions: u64,
}

/// The result of a retry poll.
#[derive(Debug, Default)]
pub struct RetryOutcome {
    /// Packets to retransmit now.
    pub retransmit: Vec<NetChainPacket>,
    /// Queries abandoned on this poll (retry budget exhausted).
    pub abandoned: Vec<CompletedQuery>,
}

#[derive(Debug, Clone)]
struct Outstanding {
    op: KvOp,
    first_sent: SimTime,
    last_sent: SimTime,
    retries: u32,
}

/// The sans-IO client agent core.
#[derive(Debug, Clone)]
pub struct AgentCore {
    config: AgentConfig,
    directory: ChainDirectory,
    next_request_id: u64,
    outstanding: HashMap<u64, Outstanding>,
    /// Per key: the newest `(session, seq)` observed and when it was observed.
    observed: HashMap<netchain_wire::Key, ((u64, u64), SimTime)>,
    stats: AgentStats,
}

impl AgentCore {
    /// Creates an agent with the given configuration and chain directory.
    pub fn new(config: AgentConfig, directory: ChainDirectory) -> Self {
        AgentCore {
            config,
            directory,
            next_request_id: 1,
            outstanding: HashMap::new(),
            observed: HashMap::new(),
            stats: AgentStats::default(),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The chain directory currently in use.
    pub fn directory(&self) -> &ChainDirectory {
        &self.directory
    }

    /// Replaces the chain directory (the slow-path propagation of a chain
    /// reconfiguration to agents, §4.2).
    pub fn update_directory(&mut self, directory: ChainDirectory) {
        self.directory = directory;
    }

    /// Number of queries awaiting replies.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Statistics.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// Mutable access to statistics (used by wrappers that add their own
    /// accounting).
    pub fn stats_mut(&mut self) -> &mut AgentStats {
        &mut self.stats
    }

    /// Starts a query: returns the request id and the packet to transmit.
    pub fn begin(&mut self, now: SimTime, op: KvOp) -> (u64, NetChainPacket) {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let packet = self.build_packet(&op, request_id);
        self.outstanding.insert(
            request_id,
            Outstanding {
                op,
                first_sent: now,
                last_sent: now,
                retries: 0,
            },
        );
        self.stats.issued += 1;
        (request_id, packet)
    }

    /// Builds the wire packet for `op` with the given request id, consulting
    /// the directory for the chain route. Retries rebuild the packet so that
    /// a directory update between attempts takes effect.
    pub fn build_packet(&self, op: &KvOp, request_id: u64) -> NetChainPacket {
        let key = op.key();
        let (route, opcode, value) = match op {
            KvOp::Read(_) => (
                self.directory.read_route(&key),
                OpCode::Read,
                Value::empty(),
            ),
            KvOp::Write(_, v) => (self.directory.write_route(&key), OpCode::Write, v.clone()),
            KvOp::Cas { expected, new, .. } => (
                self.directory.write_route(&key),
                OpCode::Cas,
                netchain_switch::cas_value(*expected, *new),
            ),
            KvOp::Delete(_) => (
                self.directory.write_route(&key),
                OpCode::Delete,
                Value::empty(),
            ),
        };
        NetChainPacket::query(
            self.config.client_ip,
            self.config.udp_port,
            route.first_hop,
            opcode,
            key,
            value,
            route.remaining,
            request_id,
        )
    }

    /// Processes a reply packet. Returns the completed query if the reply
    /// matches an outstanding request, or `None` for duplicates/stale replies.
    pub fn on_reply(&mut self, now: SimTime, pkt: &NetChainPacket) -> Option<CompletedQuery> {
        if !pkt.netchain.op.is_reply() {
            return None;
        }
        let request_id = pkt.netchain.request_id;
        let Some(outstanding) = self.outstanding.remove(&request_id) else {
            self.stats.stale_replies += 1;
            return None;
        };
        let latency = now.since(outstanding.first_sent);
        self.stats.completed += 1;
        if pkt.netchain.status == QueryStatus::Ok {
            self.stats.ok += 1;
        }

        // Version monotonicity check (per-key, session-guarantee form): a
        // query issued *after* a newer version was observed must never expose
        // an older (session, seq). Queries concurrent with the newer
        // observation are exempt — overlapping operations may complete in
        // either order.
        if pkt.netchain.status == QueryStatus::Ok {
            let version = (u64::from(pkt.netchain.session), pkt.netchain.seq);
            let entry = self
                .observed
                .entry(pkt.netchain.key)
                .or_insert((version, now));
            if version < entry.0 {
                if outstanding.first_sent >= entry.1 {
                    self.stats.version_regressions += 1;
                }
            } else {
                *entry = (version, now);
            }
        }

        Some(CompletedQuery {
            request_id,
            op: outstanding.op,
            status: Some(pkt.netchain.status),
            value: pkt.netchain.value.clone(),
            seq: pkt.netchain.seq,
            session: u64::from(pkt.netchain.session),
            latency,
            retries: outstanding.retries,
        })
    }

    /// Checks every outstanding query against the retransmission timeout.
    /// Queries past their budget are abandoned; the rest get fresh packets to
    /// retransmit (rebuilt from the current directory).
    pub fn poll_retries(&mut self, now: SimTime) -> RetryOutcome {
        let mut outcome = RetryOutcome::default();
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| now.since(o.last_sent) >= self.config.timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let entry = self.outstanding.get_mut(&id).expect("id collected above");
            if entry.retries >= self.config.max_retries {
                let entry = self.outstanding.remove(&id).expect("entry exists");
                self.stats.abandoned += 1;
                outcome.abandoned.push(CompletedQuery {
                    request_id: id,
                    op: entry.op,
                    status: None,
                    value: Value::empty(),
                    seq: 0,
                    session: 0,
                    latency: now.since(entry.first_sent),
                    retries: entry.retries,
                });
            } else {
                entry.retries += 1;
                entry.last_sent = now;
                let op = entry.op.clone();
                self.stats.retries += 1;
                let pkt = self.build_packet(&op, id);
                outcome.retransmit.push(pkt);
            }
        }
        outcome
    }

    /// The next instant at which [`Self::poll_retries`] could have work to do,
    /// if any queries are outstanding.
    pub fn next_retry_deadline(&self) -> Option<SimTime> {
        self.outstanding
            .values()
            .map(|o| o.last_sent + self.config.timeout)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashring::HashRing;
    use netchain_wire::Key;

    fn agent() -> AgentCore {
        let switches: Vec<Ipv4Addr> = (0..4).map(Ipv4Addr::for_switch).collect();
        let dir = ChainDirectory::new(HashRing::new(switches, 25, 3, 5));
        AgentCore::new(AgentConfig::new(Ipv4Addr::for_host(0)), dir)
    }

    fn reply_to(mut pkt: NetChainPacket, seq: u64) -> NetChainPacket {
        let tail = pkt.ip.dst;
        pkt.netchain.seq = seq;
        pkt.make_reply(tail, QueryStatus::Ok, Value::from_u64(1));
        pkt
    }

    #[test]
    fn begin_builds_routes_matching_the_directory() {
        let mut a = agent();
        let key = Key::from_name("foo");
        let chain = a.directory().chain_for(&key);

        let (_, write_pkt) = a.begin(SimTime::ZERO, KvOp::Write(key, Value::from_u64(1)));
        assert_eq!(write_pkt.ip.dst, chain.head());
        assert_eq!(write_pkt.netchain.chain.hops(), &chain.switches[1..]);
        assert_eq!(write_pkt.netchain.op, OpCode::Write);
        assert_eq!(write_pkt.netchain.seq, 0, "head assigns the sequence");

        let (_, read_pkt) = a.begin(SimTime::ZERO, KvOp::Read(key));
        assert_eq!(read_pkt.ip.dst, chain.tail());
        assert_eq!(read_pkt.netchain.op, OpCode::Read);
        assert_eq!(a.outstanding(), 2);
        assert_eq!(a.stats().issued, 2);
    }

    #[test]
    fn reply_completes_and_records_latency() {
        let mut a = agent();
        let key = Key::from_name("foo");
        let (id, pkt) = a.begin(SimTime::ZERO, KvOp::Write(key, Value::from_u64(1)));
        let reply = reply_to(pkt, 3);
        let done = a
            .on_reply(SimTime::ZERO + SimDuration::from_micros(10), &reply)
            .expect("reply matches");
        assert_eq!(done.request_id, id);
        assert!(done.is_ok());
        assert_eq!(done.latency, SimDuration::from_micros(10));
        assert_eq!(done.seq, 3);
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats().completed, 1);
        assert_eq!(a.stats().ok, 1);
        // A duplicate reply is stale.
        assert!(a
            .on_reply(SimTime::ZERO + SimDuration::from_micros(20), &reply)
            .is_none());
        assert_eq!(a.stats().stale_replies, 1);
    }

    #[test]
    fn version_regression_is_detected_for_sequential_queries() {
        let mut a = agent();
        let key = Key::from_name("foo");
        // First query observes seq 5 at t=5µs.
        let (_, pkt1) = a.begin(SimTime::ZERO, KvOp::Read(key));
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(5),
            &reply_to(pkt1, 5),
        );
        // A second query issued *after* that observation must not see seq 3.
        let (_, pkt2) = a.begin(
            SimTime::ZERO + SimDuration::from_micros(10),
            KvOp::Read(key),
        );
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(15),
            &reply_to(pkt2, 3),
        );
        assert_eq!(a.stats().version_regressions, 1);
    }

    #[test]
    fn concurrent_queries_may_complete_out_of_order_without_regression() {
        let mut a = agent();
        let key = Key::from_name("foo");
        // Both queries are outstanding at the same time; the one carrying the
        // older version completes second. That is legal for concurrent
        // operations and must not count as a regression.
        let (_, pkt1) = a.begin(SimTime::ZERO, KvOp::Read(key));
        let (_, pkt2) = a.begin(SimTime::ZERO, KvOp::Read(key));
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(5),
            &reply_to(pkt1, 5),
        );
        a.on_reply(
            SimTime::ZERO + SimDuration::from_micros(6),
            &reply_to(pkt2, 3),
        );
        assert_eq!(a.stats().version_regressions, 0);
    }

    #[test]
    fn retries_then_abandonment() {
        let mut a = agent();
        let config_timeout = a.config().timeout;
        let key = Key::from_name("foo");
        let (_, _pkt) = a.begin(SimTime::ZERO, KvOp::Read(key));
        // Not yet expired.
        let early = a.poll_retries(SimTime::ZERO + SimDuration::from_micros(10));
        assert!(early.retransmit.is_empty() && early.abandoned.is_empty());
        // Drive through the full retry budget.
        let mut now = SimTime::ZERO;
        let mut total_retransmits = 0;
        for _ in 0..a.config().max_retries {
            now += config_timeout;
            let out = a.poll_retries(now);
            total_retransmits += out.retransmit.len();
            assert!(out.abandoned.is_empty());
        }
        assert_eq!(total_retransmits as u32, a.config().max_retries);
        // One more timeout abandons the query.
        now += config_timeout;
        let out = a.poll_retries(now);
        assert_eq!(out.abandoned.len(), 1);
        assert!(out.abandoned[0].is_abandoned());
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats().abandoned, 1);
        assert_eq!(a.stats().retries, u64::from(a.config().max_retries));
    }

    #[test]
    fn next_retry_deadline_tracks_oldest_outstanding() {
        let mut a = agent();
        assert_eq!(a.next_retry_deadline(), None);
        a.begin(SimTime::ZERO, KvOp::Read(Key::from_u64(1)));
        a.begin(
            SimTime::ZERO + SimDuration::from_micros(100),
            KvOp::Read(Key::from_u64(2)),
        );
        assert_eq!(
            a.next_retry_deadline(),
            Some(SimTime::ZERO + a.config().timeout)
        );
    }

    #[test]
    fn cas_packets_carry_expected_and_new() {
        let mut a = agent();
        let key = Key::from_name("lock");
        let (_, pkt) = a.begin(
            SimTime::ZERO,
            KvOp::Cas {
                key,
                expected: 0,
                new: 42,
            },
        );
        assert_eq!(pkt.netchain.op, OpCode::Cas);
        assert_eq!(pkt.netchain.value.as_bytes().len(), 16);
    }
}
