//! The three benchmark workloads and the inputs each generates from a seed.
//!
//! Load is sized for a 2-core host: every workload runs one shard or worker
//! thread and one load thread, in one process.

use netchain_fabric::{FabricConfig, WorkloadSpec};

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_live`, closed loop, 100% uniform reads over 64Ki keys: the
    /// staged read fast lane with cache-missing probes, and the client agent.
    FabricRead,
    /// `run_live`, closed loop, 50/40/10 read/write/CAS, zipf 0.99 over 4Ki
    /// cache-resident keys, chains of 3: the chain waves and the scalar
    /// execute path under hot-key contention.
    FabricWrite,
    /// `NetDataplane` on loopback UDP driven by `run_open_loop` at a fixed
    /// Poisson rate: kernel I/O and agent demux, which the fabric bypasses.
    NetOpenLoop,
}

/// Closed-loop window of the fabric client.
const WINDOW: usize = 64;

/// Offered load of `net-openloop`, well below the dataplane's knee (about
/// 55k ops/s with one worker on a 2-core host). Agents retransmit on a fixed
/// 100 ms timeout with no backoff, so a worker stall of `S` turns into
/// retransmissions at `rate * (1 + S / 100 ms)` once it ends; past the knee
/// they never drain and the run collapses. At 10k ops/s a 300 ms stall of
/// the worker's core was absorbed; at 40k ops/s a 150 ms one collapsed the
/// run.
pub const NET_OFFERED_RATE: f64 = 10_000.0;

/// Sans-IO agents multiplexed on the `net-openloop` generator thread.
pub const NET_AGENTS: usize = 256;

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FabricRead,
        Workload::FabricWrite,
        Workload::NetOpenLoop,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricRead => "fabric-read",
            Workload::FabricWrite => "fabric-write",
            Workload::NetOpenLoop => "net-openloop",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the socket-dataplane workload.
    pub fn is_net(self) -> bool {
        self == Workload::NetOpenLoop
    }

    /// Fabric geometry: one shard, one client, chains of 3 over 8 switches.
    /// The socket dataplane serves the same ring with one worker.
    pub fn fabric_config(self) -> FabricConfig {
        FabricConfig::new(1).with_clients(1).with_replication(3)
    }

    /// Operations one fabric client completes per measured `run_live` call
    /// (about a second of work on a 2-core host).
    pub fn ops_per_run(self) -> u64 {
        match self {
            Workload::FabricRead => 1_000_000,
            Workload::FabricWrite => 600_000,
            Workload::NetOpenLoop => u64::MAX,
        }
    }

    /// The generated inputs of repetition `rep` under benchmark seed `seed`.
    /// The same pair always yields the same op stream.
    pub fn spec(self, seed: u64, rep: u64) -> WorkloadSpec {
        let ops = self.ops_per_run();
        let spec = match self {
            Workload::FabricRead => WorkloadSpec::uniform_read(64 * 1024, ops),
            Workload::FabricWrite => WorkloadSpec::mixed(4 * 1024, ops, 50, 40).with_skew(0.99),
            Workload::NetOpenLoop => WorkloadSpec::mixed(4 * 1024, ops, 80, 15),
        };
        WorkloadSpec {
            window: WINDOW,
            seed: mix_seed(seed, rep),
            ..spec
        }
    }
}

/// splitmix64 of the benchmark seed and a repetition index.
fn mix_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
