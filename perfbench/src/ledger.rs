//! The outside-in layer ledger: one thread pushes a workload's op stream
//! through the public per-layer calls and times each call.
//!
//! Per burst of `FabricConfig::burst` ops it times `ClientState::issue_at`
//! (agent), `Frame::from_packet` (wire) per op, one `Shard::process_burst`
//! (shard and the switch pipeline under it) and `absorb_reply_at` (agent) per
//! reply. Nothing else runs, so the spans should add up to the loop's wall
//! time; [`Ledger::closure`] says how nearly they do.

use crate::arith::closure;
use netchain_fabric::{
    build_shards, ClientReport, ClientState, FabricConfig, Frame, ShardStats, WorkloadSpec,
};
use netchain_sim::SimTime;
use netchain_wire::BatchEncoder;
use std::time::{Duration, Instant};

/// Span totals of a ledger run, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Ops issued and completed.
    pub ops: u64,
    /// Time in `ClientState::issue_at`.
    pub issue_ns: u128,
    /// Time in `Frame::from_packet`, with queueing the frame for the burst.
    pub encode_ns: u128,
    /// Time in `Shard::process_burst`.
    pub burst_ns: u128,
    /// Time in `ClientState::absorb_reply_at`.
    pub absorb_ns: u128,
    /// Wall time of the whole ledger loop.
    pub wall_ns: u128,
    /// The driving client's counters.
    pub client: ClientReport,
    /// Replies for no-longer-outstanding requests.
    pub stale_replies: u64,
    /// The shard's counters.
    pub shard: ShardStats,
}

impl Ledger {
    /// Sum of the timed spans over the wall time.
    pub fn closure(&self) -> f64 {
        closure(
            self.issue_ns + self.encode_ns + self.burst_ns + self.absorb_ns,
            self.wall_ns,
        )
    }

    /// `span_ns` per op, in nanoseconds.
    pub fn per_op(&self, span_ns: u128) -> f64 {
        span_ns as f64 / self.ops.max(1) as f64
    }
}

/// Drives `spec`'s op stream through one shard of `config` for `budget`.
pub fn drive(config: &FabricConfig, spec: WorkloadSpec, budget: Duration) -> Ledger {
    let ring = config.build_ring();
    let spec = WorkloadSpec {
        window: usize::MAX,
        ops_per_client: u64::MAX,
        ..spec
    };
    assert_eq!(config.num_shards, 1, "the ledger drives a single shard");
    let mut shard = build_shards(config, &spec)
        .pop()
        .expect("one shard was built");
    let mut client = ClientState::new(0, &ring, spec);
    let mut frames: Vec<Frame> = Vec::with_capacity(config.burst);
    let mut replies = BatchEncoder::with_capacity(config.burst, 128);
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let clock = |t: Instant| SimTime(t.duration_since(start).as_nanos() as u64);
    while start.elapsed() < budget {
        frames.clear();
        replies.clear();
        // Spans that follow each other with no other work between them share
        // one clock read: the end of one is the start of the next.
        let mut t0 = Instant::now();
        for _ in 0..config.burst {
            let pkt = client.issue_at(clock(t0));
            let t1 = Instant::now();
            // The wire span covers the whole packet → frame hand-off: encode,
            // queue the frame for the burst, release the owned packet.
            frames.push(Frame::from_packet(&pkt).expect("queries fit in a frame"));
            drop(pkt);
            let t2 = Instant::now();
            ledger.issue_ns += (t1 - t0).as_nanos();
            ledger.encode_ns += (t2 - t1).as_nanos();
            t0 = t2;
        }
        shard.process_burst(frames.iter().map(|f| f.as_bytes()), &mut replies);
        let mut t1 = Instant::now();
        ledger.burst_ns += (t1 - t0).as_nanos();
        for reply in replies.frames() {
            client.absorb_reply_at(clock(t1), reply);
            let t2 = Instant::now();
            ledger.absorb_ns += (t2 - t1).as_nanos();
            t1 = t2;
        }
        ledger.ops += frames.len() as u64;
    }
    ledger.wall_ns = start.elapsed().as_nanos();
    ledger.client = client.report();
    ledger.stale_replies = client.agent_stats().stale_replies;
    ledger.shard = *shard.stats();
    ledger
}
