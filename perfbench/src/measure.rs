//! The measured phases of each workload, their correctness gates, and the
//! metrics they yield.
//!
//! The untraced phase (`--trace 0`) times the end-to-end metrics with
//! tracing off. The traced phase (`--trace 1`) runs the workload once
//! untraced for the exact counts, once with in-band trace sampling for the
//! hop split, and then the single-thread [`ledger`](crate::ledger) for the
//! per-call costs.

use crate::arith::{
    failed_frac, failed_ops, hop_ledger, median, quantile, HopLedger, CLOSURE_RANGE,
};
use crate::host::SpawnedCpu;
use crate::ledger::{self, Ledger};
use crate::workload::{Workload, NET_AGENTS, NET_OFFERED_RATE};
use netchain_fabric::{
    build_shards, client_id_of, pin_thread, run_live, FabricConfig, FabricReport, ShardStats,
};
use netchain_net::{
    run_open_loop, IoStats, NetConfig, NetDataplane, NetReport, OpenLoopConfig, OpenLoopReport,
};
use netchain_telemetry::{merge_traces, HistSnapshot, Json, PacketTrace, TraceConfig};
use netchain_wire::{Ipv4Addr, Key, Value};
use std::time::{Duration, Instant};

/// Set-up is repeated at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_SECS` of set-up have been timed (at most `SETUP_MAX_REPS`);
/// `setup_s` is the median. Small set-ups need many repetitions: the first
/// few run on cold allocator state and take up to twice as long.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 64;
const SETUP_MIN_SECS: f64 = 0.5;

/// Fewest measured repetitions per untraced run, however short `--seconds`.
const MIN_REPS: usize = 3;

/// Core of the fabric shard thread (it pins itself to its shard index) and
/// of the dataplane worker.
const SERVER_CORE: usize = 0;

/// Core of the load thread: the fabric client or the open-loop generator.
/// Both are spawned by the calling thread and inherit its affinity.
const CLIENT_CORE: usize = 1;

/// Length of one `net-openloop` measured repetition.
const NET_REP: Duration = Duration::from_secs(2);

/// In-band sampling of the traced phase: 1 op in 32, with sinks large enough
/// that no sampled op loses its switch stamps to a full sink.
const TRACE: TraceConfig = TraceConfig {
    enabled: true,
    sample_shift: 5,
    max_traces: 1 << 18,
};

/// One named metric value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What a run measured, once every correctness gate passed.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations issued over the measured phases.
    pub issued: u64,
    /// Operations completed with a matched reply.
    pub completed: u64,
    /// Operations abandoned after the retry budget.
    pub abandoned: u64,
    /// The metrics of the phase.
    pub metrics: Vec<Metric>,
    /// Sample counts and base counts behind the metrics.
    pub detail: Vec<(&'static str, Json)>,
    /// Cores the server and load threads were pinned to.
    pub pinned_cores: Vec<usize>,
    /// Whether every dataplane socket was bound to loopback (`None` when
    /// the workload used no socket).
    pub net_loopback: Option<bool>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn count(&mut self, counts: &Counts) {
        self.issued += counts.issued;
        self.completed += counts.completed;
        self.abandoned += counts.abandoned;
    }

    /// Operations that failed: never completed, or abandoned.
    pub fn failed(&self) -> u64 {
        failed_ops(self.issued, self.completed, self.abandoned)
    }

    /// [`Outcome::failed`] as a share of the operations issued.
    pub fn failed_frac(&self) -> f64 {
        failed_frac(self.issued, self.completed, self.abandoned)
    }
}

/// Client-side outcome counters, summed over the clients of one run.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    issued: u64,
    completed: u64,
    ok: u64,
    cas_failed: u64,
    retries: u64,
    abandoned: u64,
    stale_replies: u64,
    version_regressions: u64,
}

impl Counts {
    fn of_fabric(report: &FabricReport) -> Self {
        report
            .clients
            .iter()
            .fold(Counts::default(), |acc, c| Counts {
                issued: acc.issued + c.issued,
                completed: acc.completed + c.completed,
                ok: acc.ok + c.ok,
                cas_failed: acc.cas_failed + c.cas_failed,
                retries: acc.retries + c.retries,
                abandoned: acc.abandoned + c.abandoned,
                // The fabric never retransmits, so no reply can arrive stale.
                stale_replies: 0,
                version_regressions: acc.version_regressions + c.version_regressions,
            })
    }

    fn of_open_loop(report: &OpenLoopReport) -> Self {
        Counts {
            issued: report.issued,
            completed: report.completed,
            ok: report.ok,
            cas_failed: report.cas_failed,
            retries: report.retries,
            abandoned: report.abandoned,
            stale_replies: report.stale_replies,
            version_regressions: report.version_regressions,
        }
    }

    fn of_ledger(ledger: &Ledger) -> Self {
        let c = &ledger.client;
        Counts {
            issued: c.issued,
            completed: c.completed,
            ok: c.ok,
            cas_failed: c.cas_failed,
            retries: c.retries,
            abandoned: c.abandoned,
            stale_replies: ledger.stale_replies,
            version_regressions: c.version_regressions,
        }
    }

    /// The client-side correctness gate.
    fn check(&self, what: &str) -> Result<(), String> {
        let fail = |why: String| Err(format!("{what}: {why}"));
        if self.version_regressions > 0 {
            return fail(format!("{} version regressions", self.version_regressions));
        }
        if self.completed != self.issued {
            return fail(format!(
                "{} issued but {} completed ({} abandoned, {} retries, {} stale replies)",
                self.issued, self.completed, self.abandoned, self.retries, self.stale_replies
            ));
        }
        if self.ok + self.cas_failed != self.completed {
            return fail(format!(
                "{} ok + {} cas-failed of {} completed",
                self.ok, self.cas_failed, self.completed
            ));
        }
        if self.abandoned > 0 {
            return fail(format!("{} abandoned", self.abandoned));
        }
        Ok(())
    }
}

/// The fabric-side correctness gate over every shard of a run.
fn check_shards<'a>(
    what: &str,
    shards: impl IntoIterator<Item = &'a ShardStats>,
) -> Result<(), String> {
    for (i, s) in shards.into_iter().enumerate() {
        if s.drops + s.unroutable + s.parse_errors > 0 {
            return Err(format!(
                "{what}: shard {i} dropped {}, unroutable {}, parse errors {}",
                s.drops, s.unroutable, s.parse_errors
            ));
        }
    }
    Ok(())
}

/// The socket-layer correctness gate over every worker of a run.
fn check_io(what: &str, io: &[IoStats]) -> Result<(), String> {
    for (i, s) in io.iter().enumerate() {
        if s.unrouted_replies + s.send_errors + s.oversized > 0 {
            return Err(format!(
                "{what}: worker {i} unrouted replies {}, send errors {}, oversized {}",
                s.unrouted_replies, s.send_errors, s.oversized
            ));
        }
    }
    Ok(())
}

/// The gated quantile `q` of `hist` in µs.
fn quantile_us(hist: &HistSnapshot, q: f64, what: &str) -> Result<f64, String> {
    quantile(hist, q).map(|ns| ns / 1e3).ok_or_else(|| {
        format!(
            "{what}: p{} needs more samples than {}",
            q * 100.0,
            hist.count()
        )
    })
}

/// Runs `workload`'s untraced phase for about `seconds`.
pub fn end_to_end(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    if workload.is_net() {
        net_end_to_end(workload, seed, seconds)
    } else {
        fabric_end_to_end(workload, seed, seconds)
    }
}

/// Runs `workload`'s traced phase for about `seconds`.
pub fn per_layer(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    // The fabric phases are sized in ops (about a second each); the net
    // phases and the ledger in time.
    let each = seconds / 4;
    let mut out = if workload.is_net() {
        net_per_layer(workload, seed, each)?
    } else {
        fabric_per_layer(workload, seed)?
    };
    let ledger = ledger::drive(&workload.fabric_config(), workload.spec(seed, 0), each);
    let counts = Counts::of_ledger(&ledger);
    counts.check("ledger")?;
    check_shards("ledger", [&ledger.shard])?;
    let closure = ledger.closure();
    if !CLOSURE_RANGE.contains(&closure) {
        return Err(format!(
            "ledger incomplete: spans cover {closure:.3} of the ledger loop's wall time, \
             outside [{}, {}]",
            CLOSURE_RANGE.start(),
            CLOSURE_RANGE.end()
        ));
    }
    out.count(&counts);
    out.metric("agent.issue_ns", ledger.per_op(ledger.issue_ns), "ns");
    out.metric("agent.absorb_ns", ledger.per_op(ledger.absorb_ns), "ns");
    out.metric("wire.encode_ns", ledger.per_op(ledger.encode_ns), "ns");
    out.metric(
        "shard.burst_ns_per_op",
        ledger.per_op(ledger.burst_ns),
        "ns",
    );
    out.metric("driver.closure", closure, "ratio");
    out.detail.push(("ledger_ops", Json::U64(ledger.ops)));
    out.detail.push((
        "ledger_wall_ns_per_op",
        Json::F64(ledger.per_op(ledger.wall_ns)),
    ));
    Ok(out)
}

/// The median set-up time in seconds, as `timed` measures one set-up, and
/// every repetition's time.
fn median_setup(mut timed: impl FnMut() -> Result<f64, String>) -> Result<(f64, Vec<f64>), String> {
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECS && times.len() < SETUP_MAX_REPS)
    {
        times.push(timed()?);
    }
    Ok((median(&times).expect("SETUP_MIN_REPS > 0"), times))
}

/// The per-repetition results of an untraced phase.
#[derive(Default)]
struct Reps {
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    samples: u64,
}

impl Reps {
    fn push(
        &mut self,
        out: &mut Outcome,
        counts: &Counts,
        ops_per_s: f64,
        latency: &HistSnapshot,
        cpu_s: f64,
    ) -> Result<(), String> {
        out.count(counts);
        self.ops_per_s.push(ops_per_s);
        self.p50_us.push(quantile_us(latency, 0.50, "run")?);
        self.p90_us.push(quantile_us(latency, 0.90, "run")?);
        self.cpu_us_per_op
            .push(cpu_s * 1e6 / counts.completed as f64);
        self.samples += latency.count();
        Ok(())
    }

    fn len(&self) -> usize {
        self.ops_per_s.len()
    }

    /// Emits the end-to-end metrics and the set-up median. Throughput and
    /// CPU are medians over the repetitions, and so is a closed loop's
    /// `p50_us`: its latency is its window over its throughput, and the
    /// lowest repetition would be an extreme of the same noise. An open
    /// loop's `p50_us` is the lowest repetition's: on a shared host, spells
    /// of interference tens of seconds long lift the socket path's p50 of
    /// whole repetitions by up to a third, so a median would report how much
    /// of the run such a spell covered rather than the program's latency.
    /// The same spells lift its p90 from ~100 µs to 1–4 ms for whole runs,
    /// so p90 is recorded here but is a per-layer metric of the traced run
    /// (`tail.p90_us`), not an end-to-end one.
    fn finish(self, out: &mut Outcome, setup: (f64, Vec<f64>), open_loop: bool) {
        let med = |v: &[f64]| median(v).expect("at least MIN_REPS ran");
        let p50_us = if open_loop {
            self.p50_us.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            med(&self.p50_us)
        };
        out.metric("ops_per_s", med(&self.ops_per_s), "1/s");
        out.metric("p50_us", p50_us, "us");
        out.metric("cpu_us_per_op", med(&self.cpu_us_per_op), "us");
        out.metric("setup_s", setup.0, "s");
        out.detail.extend([
            ("reps", Json::U64(self.len() as u64)),
            ("latency_samples", Json::U64(self.samples)),
            ("ops_per_s_reps", f64s(&self.ops_per_s)),
            ("p50_us_reps", f64s(&self.p50_us)),
            ("p90_us_reps", f64s(&self.p90_us)),
            ("cpu_us_per_op_reps", f64s(&self.cpu_us_per_op)),
            ("setup_s_reps", f64s(&setup.1)),
        ]);
    }
}

/// The fabric geometry with the shard thread pinned to core 0 and the
/// calling thread, whose affinity the client thread inherits, to
/// [`CLIENT_CORE`]. Also returns whether the client pin took effect.
fn pinned_fabric(workload: Workload) -> (FabricConfig, bool) {
    let client_pinned = pin_thread(CLIENT_CORE);
    (workload.fabric_config().with_pinning(true), client_pinned)
}

/// The cores the server and load threads were pinned to.
fn pinned_cores(server_pinned: bool, client_pinned: bool) -> Vec<usize> {
    let server = server_pinned.then_some(SERVER_CORE);
    let client = client_pinned.then_some(CLIENT_CORE);
    server.into_iter().chain(client).collect()
}

/// Whether every socket of `plane` is bound to a loopback address.
fn on_loopback(plane: &NetDataplane) -> bool {
    plane.shard_addrs().iter().all(|a| a.ip().is_loopback())
}

fn fabric_end_to_end(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let (config, client_pinned) = pinned_fabric(workload);
    let spec = workload.spec(seed, 0);
    let setup = median_setup(|| {
        let t0 = Instant::now();
        let shards = std::hint::black_box(build_shards(&config, &spec));
        let secs = t0.elapsed().as_secs_f64();
        drop(shards);
        Ok(secs)
    })?;

    let mut out = Outcome::default();
    let mut reps = Reps::default();
    let deadline = Instant::now() + seconds;
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let spec = workload.spec(seed, reps.len() as u64);
        let cpu = SpawnedCpu::start();
        let report = run_live(config, spec);
        let cpu_s = cpu.elapsed();
        let counts = Counts::of_fabric(&report);
        counts.check("fabric run")?;
        check_shards("fabric run", &report.shards)?;
        reps.push(
            &mut out,
            &counts,
            report.ops_per_sec,
            &report.latency,
            cpu_s,
        )?;
        out.pinned_cores = pinned_cores(report.pinned_shards > 0, client_pinned);
    }
    reps.finish(&mut out, setup, false);
    Ok(out)
}

fn fabric_per_layer(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let (config, client_pinned) = pinned_fabric(workload);
    // Both runs replay the same op stream; the traced one only adds sampling.
    let spec = workload.spec(seed, 0);
    let plain = run_live(config, spec);
    let traced = run_live(config.with_trace(TRACE), spec);
    let mut out = Outcome::default();
    for report in [&plain, &traced] {
        let counts = Counts::of_fabric(report);
        counts.check("fabric run")?;
        check_shards("fabric run", &report.shards)?;
        out.count(&counts);
    }
    let counts = Counts::of_fabric(&plain);
    layer_counts(&mut out, &counts, &plain.shards);
    // No socket on the fabric's path: the net layer does no work here.
    net_counts(&mut out, &[], counts.completed);
    hop_metrics(&mut out, &hops(&traced.traces)?);
    out.metric(
        "trace.overhead_frac",
        plain.ops_per_sec / traced.ops_per_sec - 1.0,
        "ratio",
    );
    tail_metrics(&mut out, &plain.latency)?;
    out.pinned_cores = pinned_cores(plain.pinned_shards > 0, client_pinned);
    Ok(out)
}

fn hops(traces: &[PacketTrace]) -> Result<HopLedger, String> {
    hop_ledger(traces, is_client)
        .ok_or_else(|| format!("no complete trace among {} sampled ops", traces.len()))
}

fn is_client(ip: u32) -> bool {
    client_id_of(Ipv4Addr(ip.to_be_bytes())).is_some()
}

/// The keyspace the dataplane pre-populates.
fn populate(workload: Workload, seed: u64) -> Vec<(Key, Value)> {
    (0..workload.spec(seed, 0).num_keys)
        .map(|k| (Key::from_u64(k), Value::from_u64(0)))
        .collect()
}

fn net_config(workload: Workload, seed: u64, trace: Option<TraceConfig>) -> NetConfig {
    let fabric = workload.fabric_config();
    let pipeline = FabricConfig::pipeline_for(workload.spec(seed, 0).num_keys);
    NetConfig {
        trace,
        ..NetConfig::new(fabric.build_ring(), 1, pipeline)
    }
}

fn start_plane(config: NetConfig, keys: &[(Key, Value)]) -> Result<NetDataplane, String> {
    NetDataplane::start(config, keys).map_err(|e| format!("dataplane start: {e}"))
}

fn open_loop(duration: Duration, trace: Option<TraceConfig>) -> OpenLoopConfig {
    let config = OpenLoopConfig::new(NET_AGENTS, 1, NET_OFFERED_RATE, duration);
    // Drain for longer than an agent's whole retry budget, so an op whose
    // datagram was lost near the end of the issue window is retried until it
    // completes or is abandoned, and never cut off still outstanding.
    let budget = config.agent_timeout.as_nanos() * (u64::from(config.agent_max_retries) + 2);
    OpenLoopConfig {
        trace,
        drain_grace: Duration::from_nanos(budget),
        ..config
    }
}

/// Gates one open-loop repetition and returns its counts.
fn check_open_loop(report: &OpenLoopReport) -> Result<Counts, String> {
    let counts = Counts::of_open_loop(report);
    counts.check("open loop")?;
    // Poisson noise on the issue count is well under 1% at these sizes.
    let ratio = report.achieved_rate / report.offered_rate;
    if !(0.95..=1.05).contains(&ratio) {
        return Err(format!(
            "open loop: achieved {:.0} ops/s of {:.0} offered",
            report.achieved_rate, report.offered_rate
        ));
    }
    Ok(counts)
}

fn net_end_to_end(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let keys = populate(workload, seed);
    let config = net_config(workload, seed, None);
    // The worker thread inherits the core of the thread that starts it.
    let server_pinned = pin_thread(SERVER_CORE);
    let setup = median_setup(|| {
        let t0 = Instant::now();
        let plane = start_plane(config.clone(), &keys)?;
        let secs = t0.elapsed().as_secs_f64();
        plane.shutdown();
        Ok(secs)
    })?;

    let plane = start_plane(config, &keys)?;
    // The generator thread inherits the core of the thread running the loop.
    let client_pinned = pin_thread(CLIENT_CORE);
    let mut out = Outcome {
        pinned_cores: pinned_cores(server_pinned, client_pinned),
        net_loopback: Some(on_loopback(&plane)),
        ..Outcome::default()
    };
    // A gated warm-up repetition, left out of the metrics: the first
    // repetition on a fresh dataplane runs on cold caches and sockets.
    let warm_up = run_open_loop(
        &plane,
        workload.spec(seed, u64::MAX),
        open_loop(NET_REP, None),
    );
    out.count(&check_open_loop(&warm_up)?);
    let mut reps = Reps::default();
    let deadline = Instant::now() + seconds;
    while reps.len() < MIN_REPS || Instant::now() + NET_REP / 2 < deadline {
        let spec = workload.spec(seed, reps.len() as u64);
        let cpu = SpawnedCpu::start();
        let report = run_open_loop(&plane, spec, open_loop(NET_REP, None));
        let cpu_s = cpu.elapsed();
        let counts = check_open_loop(&report)?;
        reps.push(
            &mut out,
            &counts,
            report.achieved_rate,
            &report.latency,
            cpu_s,
        )?;
    }
    check_io("dataplane", &plane.shutdown().io)?;
    reps.finish(&mut out, setup, true);
    out.detail
        .push(("offered_ops_per_s", Json::F64(NET_OFFERED_RATE)));
    Ok(out)
}

/// One open-loop repetition on a fresh dataplane.
struct NetRep {
    /// The generator's report.
    open: OpenLoopReport,
    /// The workers' final state.
    plane: NetReport,
    /// CPU seconds the worker and generator threads used.
    cpu_s: f64,
    pinned_cores: Vec<usize>,
    loopback: bool,
}

impl NetRep {
    /// Runs and gates one repetition.
    fn run(
        workload: Workload,
        seed: u64,
        duration: Duration,
        trace: Option<TraceConfig>,
    ) -> Result<Self, String> {
        let server_pinned = pin_thread(SERVER_CORE);
        let plane = start_plane(net_config(workload, seed, trace), &populate(workload, seed))?;
        let client_pinned = pin_thread(CLIENT_CORE);
        let loopback = on_loopback(&plane);
        let cpu = SpawnedCpu::start();
        let open = run_open_loop(&plane, workload.spec(seed, 0), open_loop(duration, trace));
        let cpu_s = cpu.elapsed();
        let plane = plane.shutdown();
        check_open_loop(&open)?;
        check_io("dataplane", &plane.io)?;
        check_shards("dataplane", plane.shards.iter().map(|s| s.stats()))?;
        Ok(NetRep {
            open,
            plane,
            cpu_s,
            pinned_cores: pinned_cores(server_pinned, client_pinned),
            loopback,
        })
    }

    fn cpu_per_op(&self) -> f64 {
        self.cpu_s / self.open.completed as f64
    }
}

fn net_per_layer(workload: Workload, seed: u64, each: Duration) -> Result<Outcome, String> {
    let plain = NetRep::run(workload, seed, each, None)?;
    let traced = NetRep::run(workload, seed, each, Some(TRACE))?;
    let mut out = Outcome {
        pinned_cores: plain.pinned_cores.clone(),
        net_loopback: Some(plain.loopback && traced.loopback),
        ..Outcome::default()
    };
    let counts = Counts::of_open_loop(&plain.open);
    out.count(&counts);
    out.count(&Counts::of_open_loop(&traced.open));
    let stats: Vec<ShardStats> = plain.plane.shards.iter().map(|s| *s.stats()).collect();
    layer_counts(&mut out, &counts, &stats);
    net_counts(&mut out, &plain.plane.io, counts.completed);
    let overhead = traced.cpu_per_op() / plain.cpu_per_op() - 1.0;
    let traces = merge_traces(traced.open.traces.into_iter().chain(traced.plane.traces));
    hop_metrics(&mut out, &hops(&traces)?);
    out.metric("trace.overhead_frac", overhead, "ratio");
    tail_metrics(&mut out, &plain.open.latency)?;
    Ok(out)
}

/// Shard and agent counts common to both dataplanes, from one untraced run.
fn layer_counts(out: &mut Outcome, counts: &Counts, shards: &[ShardStats]) {
    let sum = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let bursts = sum(|s| s.bursts);
    out.metric(
        "shard.frames_per_burst",
        per(sum(|s| s.frames_in), bursts),
        "frames",
    );
    out.metric(
        "shard.waves_per_burst",
        per(sum(|s| s.waves), bursts),
        "waves",
    );
    out.metric("shard.drops", sum(|s| s.drops) as f64, "count");
    out.metric("shard.unroutable", sum(|s| s.unroutable) as f64, "count");
    out.metric(
        "shard.parse_errors",
        sum(|s| s.parse_errors) as f64,
        "count",
    );
    out.metric(
        "agent.cas_failed_frac",
        per(counts.cas_failed, counts.completed),
        "ratio",
    );
    out.metric(
        "agent.retries_per_op",
        per(counts.retries, counts.completed),
        "ratio",
    );
    out.metric("agent.stale_replies", counts.stale_replies as f64, "count");
}

/// Socket-layer counts over every worker (all zero when there is none).
fn net_counts(out: &mut Outcome, io: &[IoStats], completed: u64) {
    let sum = |f: fn(&IoStats) -> u64| io.iter().map(f).sum::<u64>();
    let recv_calls = sum(|s| s.recv_calls);
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    out.metric(
        "net.batch_factor",
        per(sum(|s| s.datagrams_in), recv_calls),
        "datagrams",
    );
    out.metric("net.recv_calls_per_op", per(recv_calls, completed), "ratio");
    out.metric(
        "net.recv_fill_le_1_frac",
        per(sum(|s| s.recv_fill[0]), recv_calls),
        "ratio",
    );
    out.metric(
        "net.unrouted_replies",
        sum(|s| s.unrouted_replies) as f64,
        "count",
    );
    out.metric("net.send_errors", sum(|s| s.send_errors) as f64, "count");
}

fn hop_metrics(out: &mut Outcome, hops: &HopLedger) {
    out.metric("hop.to_chain_us", hops.to_chain_us, "us");
    out.metric("hop.to_tail_us", hops.to_tail_us, "us");
    out.metric("hop.from_chain_us", hops.from_chain_us, "us");
    out.metric("trace.complete_frac", hops.complete_frac(), "ratio");
    out.metric("trace.sampled", hops.sampled as f64, "count");
    out.metric("trace.complete", hops.complete as f64, "count");
    out.metric("trace.walked", hops.walked as f64, "count");
    // Reads never walk a chain, so the walk time alone exists only where
    // mutations ran; it goes to the record, not to the metric set.
    let walk = hops.chain_walk_us.map_or(Json::Null, Json::F64);
    out.detail.push(("hop_chain_walk_us", walk));
}

fn tail_metrics(out: &mut Outcome, latency: &HistSnapshot) -> Result<(), String> {
    out.metric("tail.p90_us", quantile_us(latency, 0.90, "tail")?, "us");
    out.metric("tail.p99_us", quantile_us(latency, 0.99, "tail")?, "us");
    out.metric("tail.p999_us", quantile_us(latency, 0.999, "tail")?, "us");
    out.metric("tail.samples", latency.count() as f64, "count");
    Ok(())
}

fn f64s(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::F64).collect())
}
