//! # netchain-fabric
//!
//! An in-process, multi-core software switch fabric that runs the real
//! NetChain data plane ([`netchain_switch::NetChainSwitch`], Algorithm 1 —
//! the same program the discrete-event simulator executes) at real
//! throughput. Where `netchain-sim` answers *"is the protocol correct and
//! what are its dynamics?"* in virtual time, and `netchain-net` demonstrates
//! the wire format over real kernel UDP sockets, this crate answers *"how
//! many operations per second can a software incarnation actually
//! sustain?"* — the repo's first honest ops/sec platform, which every future
//! scaling change can be measured against.
//!
//! ## Architecture
//!
//! ```text
//!  client 0 ─┐ SPSC query rings   ┌─ shard 0 (switch replicas, groups ≡ 0 mod N)
//!  client 1 ─┼────────────────────┼─ shard 1 (groups ≡ 1 mod N)
//!    ...     │   (frames)         │    ...
//!  client C ─┘◄───────────────────┴─ shard N-1
//!              SPSC reply rings
//! ```
//!
//! * **Keyspace sharding by virtual group** ([`shard`]): the same unit the
//!   paper's consistent hashing and failure recovery use. A query's whole
//!   chain (head → replicas → tail) executes on the shard owning its key, so
//!   shards share nothing and scale linearly with cores.
//! * **Bounded lock-free SPSC rings** ([`ring`]): every (client, shard) pair
//!   owns one ring per direction — single producer, single consumer, no
//!   locks, index caching and batched publication to minimise cross-core
//!   traffic.
//! * **Batching everywhere**: frames are pulled in bursts (default 32),
//!   chains execute in waves through
//!   [`netchain_switch::NetChainSwitch::step_batch_staged`], and replies are
//!   emitted through [`netchain_wire::BatchEncoder`] into one contiguous
//!   buffer.
//! * **Zero-copy parsing**: shards validate and parse each chunk of a burst
//!   in one branch-free pass with [`netchain_wire::BatchView`]; probed reads
//!   answer straight from the query frame and allocate nothing, and every
//!   other packet is materialised into a pooled buffer.
//! * **Closed-loop load generation** ([`loadgen`]): clients reuse
//!   [`netchain_core::AgentCore`] — the same sans-IO agent the simulator and
//!   UDP deployments use — for packet construction, reply matching and
//!   client-side consistency checking (version regressions must be zero).
//!
//! ## Measuring
//!
//! [`run_live`] spawns real threads (deployment shape; with
//! [`FabricConfig::pin_shards`](fabric::FabricConfig::pin_shards) each shard
//! thread is pinned to its own core through the vendored `affinity` shim —
//! `sched_setaffinity` on Linux, a graceful no-op elsewhere or with the
//! `pinning` feature disabled). It is the repo's one threaded runtime:
//! [`run_live_with`] runs the same rings, shard loop and client loop with a
//! [`ShardHook`] per shard and a [`ClientHook`] per client plugged in, which
//! is how the live control plane (`netchain-livectl`) adds control
//! channels, retrying clients and rolling windows without a second copy of
//! the loops. [`run_capacity`] measures each shard's
//! run-to-completion rate sequentially and reports the aggregate for the
//! one-core-per-shard model, the same methodology the paper uses for its
//! scalability projections (§8.3) — and the only honest way to produce a
//! scaling curve on a benchmark machine with fewer cores than shards.
//!
//! The differential test (`tests/differential_sim.rs`) pins the fabric to
//! the simulator: the same scripted op sequence must produce identical
//! reply statuses/values and identical per-switch KV state in both.

#![warn(missing_docs)]
// `ring` is the only module with `unsafe` code (the SPSC slot ownership
// protocol); its invariants are documented and stress-tested there.

pub mod fabric;
pub mod frame;
pub mod loadgen;
pub mod ring;
pub mod shard;
pub mod stats;

pub use fabric::{
    build_shards, pin_thread, run_capacity, run_live, run_live_with, ClientHook, FabricConfig,
    ShardHook,
};
pub use frame::{Frame, MAX_FRAME_LEN};
pub use loadgen::{ClientState, RetryBatch, WorkloadSpec};
pub use ring::{ring as spsc_ring, Consumer, Producer};
pub use shard::{client_id_of, shard_of_key, Shard};
pub use stats::{
    CapacityReport, ClientReport, FabricReport, ShardStats, CLIENT_METRICS, SHARD_METRICS,
};
