//! # netchain-net
//!
//! The *real-network* deployment mode: NetChain over kernel UDP sockets on
//! loopback, carrying the exact [`netchain_wire`] byte format and running
//! the same [`netchain_switch::NetChainSwitch`] data-plane program the
//! simulator uses. Clients reuse the sans-IO [`netchain_core::AgentCore`]
//! for packet construction, reply matching and retries.
//!
//! This mode exists to demonstrate that the protocol implementation is not a
//! simulator artifact: the same bytes flow through real sockets, the same
//! destination-IP rewriting steers queries along the chain, and the same
//! consistency machinery applies.
//!
//! One deployment shape, [`NetDataplane`] ([`dataplane`]): keyspace-sharded
//! workers running the fabric's staged [`netchain_fabric::Shard`] pipeline
//! zero-copy out of `recvmmsg` burst receive buffers (via the vendored
//! `mmsg` shim). Two ways to drive it:
//!
//! * [`NetClient`] ([`client`]) — a closed-loop client, one operation at a
//!   time with deadlines and retries; what examples, integration tests and
//!   the differential suites use.
//! * [`run_open_loop`] ([`openloop`]) — an **open-loop** load generator
//!   driving thousands of sans-IO agents and reporting
//!   coordinated-omission-free p50/p99/p999. Kernel UDP on one machine is
//!   still orders of magnitude slower than a Tofino, but the `net_scale`
//!   experiment measures what this shape sustains and how much batched
//!   syscalls buy over the single-packet discipline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dataplane;
pub mod iobench;
pub mod openloop;

pub use client::NetClient;
pub use dataplane::{
    FaultSpec, IoMode, IoStats, NetConfig, NetDataplane, NetReport, RECV_FILL_BOUNDS,
    RECV_FILL_BUCKETS,
};
pub use iobench::{syscall_microbench, SyscallBench};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
