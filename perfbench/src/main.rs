//! Runs one benchmark workload and prints its metrics. The last line of
//! standard output is the result as one JSON object; a run whose outputs
//! fail a correctness gate prints no result and exits with status 1.

use netchain_telemetry::Json;
use perfbench::host::{peak_rss_kib, HostFacts};
use perfbench::measure::{end_to_end, per_layer, Outcome};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <fabric-read|fabric-write|net-openloop> \
                     --seed <n> --seconds <n> --trace <0|1> [--out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("no workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    Ok(Args {
        workload: workload.ok_or(missing("--workload"))?,
        seed: seed.ok_or(missing("--seed"))?,
        seconds: seconds.filter(|&s| s > 0).ok_or(missing("--seconds > 0"))?,
        trace: trace.ok_or(missing("--trace"))?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Probed before the run pins this thread, which would narrow `nproc`.
    let mut host = HostFacts::probe();
    let seconds = Duration::from_secs(args.seconds);
    let run = if args.trace {
        per_layer(args.workload, args.seed, seconds)
    } else {
        end_to_end(args.workload, args.seed, seconds)
    };
    let outcome = match run {
        Ok(o) => o,
        Err(why) => {
            eprintln!("{}: correctness gate tripped: {why}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    host.pinned_cores = outcome.pinned_cores.clone();
    host.net_loopback = outcome.net_loopback;
    for m in &outcome.metrics {
        println!("{:<24} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let peak_rss = peak_rss_kib().map_or(Json::Null, Json::U64);
    for (key, value) in &outcome.detail {
        println!("{key:<24} {}", value.render());
    }
    println!("{:<24} {}", "peak_rss_kib", peak_rss.render());
    println!("{:<24} {}", "failed_frac", outcome.failed_frac());
    println!("host {}", host.to_json().render());
    if let Some(path) = &args.out {
        let record = record(&args, &host, &outcome, peak_rss);
        if let Err(e) = std::fs::write(path, record.render() + "\n") {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result_line(&outcome).render());
    ExitCode::SUCCESS
}

/// The one-line result: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = Json::obj(vec![
                ("value", Json::F64(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(outcome.issued)),
        ("failed", Json::U64(outcome.failed())),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The full record written to `--out`: the result plus the facts behind it.
fn record(args: &Args, host: &HostFacts, outcome: &Outcome, peak_rss: Json) -> Json {
    let detail = outcome
        .detail
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    Json::obj(vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host.to_json()),
        ("detail", Json::Obj(detail)),
        ("peak_rss_kib", peak_rss),
        ("failed_frac", Json::F64(outcome.failed_frac())),
        ("result", result_line(outcome)),
    ])
}
