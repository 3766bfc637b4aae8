//! The repository benchmark: three workloads over the fabric and the socket
//! dataplane, end-to-end metrics with tracing off, and a traced run that
//! splits each workload's cost over the layers below.
//!
//! Run it through `perfbench/run.py`, which builds this crate from source:
//!
//! ```text
//! python3 perfbench/run.py --workload fabric-read --seed 1 --seconds 10 --trace 0
//! ```

pub mod arith;
pub mod host;
pub mod ledger;
pub mod measure;
pub mod workload;
