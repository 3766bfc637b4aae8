//! Host facts recorded with every result, and the process CPU clock.

use crate::arith::{parse_cpu_ticks, ticks_to_secs};
use netchain_telemetry::Json;

/// The facts that make numbers from different boxes comparable.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores the process may run on.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Cores the run pinned its server and load threads to.
    pub pinned_cores: Vec<usize>,
    /// Whether the socket traffic stayed on loopback (`None`: no sockets).
    pub net_loopback: Option<bool>,
}

impl HostFacts {
    /// Reads the facts of the running host; the run fills in the pinning
    /// and loopback facts.
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, m)| m.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            pinned_cores: Vec::new(),
            net_loopback: None,
        }
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::U64(self.nproc as u64)),
            ("kernel", Json::str(&self.kernel)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(self.rustc)),
            ("profile", Json::str(self.profile)),
            (
                "pinned_cores",
                Json::Arr(
                    self.pinned_cores
                        .iter()
                        .map(|&c| Json::U64(c as u64))
                        .collect(),
                ),
            ),
            (
                "net_loopback",
                self.net_loopback.map_or(Json::Null, Json::Bool),
            ),
        ])
    }
}

/// Peak resident memory of the process so far, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU seconds (user + system) consumed so far by the whole process,
/// including threads that have already exited.
fn process_cpu_secs() -> f64 {
    cpu_secs("/proc/self/stat")
}

/// CPU seconds consumed so far by the calling thread alone.
fn thread_cpu_secs() -> f64 {
    cpu_secs("/proc/thread-self/stat")
}

fn cpu_secs(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).expect("procfs stat is readable on Linux");
    ticks_to_secs(parse_cpu_ticks(&text).expect("procfs stat has utime and stime"))
}

/// CPU time of the threads a measured call spawns: the process total minus
/// the calling thread's own share (set-up done inline before the spawn).
pub(crate) struct SpawnedCpu {
    process: f64,
    caller: f64,
}

impl SpawnedCpu {
    /// Starts measuring.
    pub(crate) fn start() -> Self {
        SpawnedCpu {
            process: process_cpu_secs(),
            caller: thread_cpu_secs(),
        }
    }

    /// CPU seconds the spawned threads used since [`SpawnedCpu::start`].
    pub(crate) fn elapsed(&self) -> f64 {
        (process_cpu_secs() - self.process) - (thread_cpu_secs() - self.caller)
    }
}
