//! # netchain-livectl
//!
//! The live control plane for the multi-core fabric: where `netchain-fabric`
//! measures the failure-free fast path, this crate runs the *reconfiguration
//! half of Vertical Paxos* (§5) against that same fabric at real throughput —
//! fault injection, fast failover (Algorithm 2), and group-by-group chain
//! repair with two-phase atomic switching (Algorithm 3) — and measures the
//! result as a throughput-vs-time series across the failure, failover and
//! recovery phases (the live analogue of the paper's Figures 10–11).
//!
//! ## Pieces
//!
//! * [`control`] — the per-shard control channel: commands/events over the
//!   fabric's lock-free SPSC rings, applied at burst boundaries.
//! * [`script`] — the fault script: which switch dies, when, and how the
//!   controller paces detection, failover and repair.
//! * [`runner`] — [`run_live_controlled`]: the fabric's own threaded
//!   runtime (`netchain_fabric::run_live_with`) extended with control
//!   channels, retrying duration-driven clients and a controller, producing
//!   a time-sliced [`LiveReport`] around the fabric's report. A monitor
//!   thread watches per-shard rolling windows while the run is live.
//! * [`detector`] — the gray-failure detector: peer-median comparison over
//!   the rolling windows, flagging a shard that is slow but alive.
//! * [`replay`] — the same fabric and the same control commands driven
//!   deterministically on one thread, for the simulator differential test
//!   and the chain-repair property test.
//! * [`report`] — the run report: throughput slices and the phase timeline
//!   (including the measured rule-installation latency).
//!
//! The planning logic (which rules, which donors, which session numbers) is
//! **not** here: it lives in `netchain_core::failplan`, shared with the
//! simulated controller, so the live path and the simulated path cannot
//! drift apart — a property the differential tests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod detector;
pub mod replay;
pub mod report;
pub mod runner;
pub mod script;

pub use control::{apply as apply_control, ControlCmd, ControlEvt};
pub use detector::{Anomaly, DetectorConfig, GrayFailureDetector};
pub use replay::{replay_agent_config, ReplayFabric};
pub use report::{FailoverTimeline, LiveAnomaly, LiveReport};
pub use runner::{run_live_controlled, run_live_observed, LiveConfig};
pub use script::FaultScript;
