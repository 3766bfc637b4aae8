//! Measures the real-socket dataplane (`netchain-net`): open-loop ops/sec
//! and coordinated-omission-free latency quantiles, batched
//! (`recvmmsg`/`sendmmsg`) vs single-packet syscalls on the identical
//! pipeline. Writes `BENCH_net.json` to the artifact directory
//! (`$NETCHAIN_ARTIFACT_DIR`, else the working directory).
//!
//! `--smoke` runs a sub-second configuration (CI).

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    netchain_experiments::net_scale::run_cli(smoke);
}
