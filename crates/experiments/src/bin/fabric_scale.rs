//! Measures the software fabric's aggregate ops/sec vs worker shard count
//! and vs chain length. Unlike the figure bins, these are real measurements
//! of this machine, not simulations of the paper's testbed. Results are
//! also exported as `BENCH_fabric_scale.jsonl` (one record per series plus
//! a traced live run's latency quantiles and per-hop summary), and a
//! machine-diffable summary — ops/sec per shard count, live p50/p99, and the
//! staged-vs-scalar burst comparison — is written to `BENCH_fabric.json` in
//! the artifact directory (`$NETCHAIN_ARTIFACT_DIR`, else the working
//! directory) so the perf trajectory is diffable across PRs.
use netchain_experiments::{fabric_scale, print_series, Series};
use netchain_telemetry::{ArtifactWriter, Json};

fn record_series(artifact: &mut ArtifactWriter, sweep: &str, series: &[Series]) {
    for s in series {
        artifact.record(
            "series",
            vec![
                ("sweep", Json::str(sweep)),
                ("name", Json::str(&s.name)),
                (
                    "points",
                    Json::Arr(
                        s.points
                            .iter()
                            .map(|&(x, y)| Json::Arr(vec![Json::F64(x), Json::F64(y)]))
                            .collect(),
                    ),
                ),
            ],
        );
    }
}

fn main() {
    let params = fabric_scale::FabricScaleParams::default();
    let mut artifact = ArtifactWriter::new("fabric_scale");

    let shards = fabric_scale::throughput_vs_shards(params, &[1, 2, 4, 8, 16]);
    print_series(
        "Fabric scale: throughput vs worker shards",
        "worker shards",
        "ops/sec",
        &shards,
    );
    record_series(&mut artifact, "throughput_vs_shards", &shards);

    let chain = fabric_scale::throughput_vs_chain_length(params, 4, &[1, 2, 3, 4, 5]);
    print_series(
        "Fabric scale: throughput vs chain length (4 shards)",
        "chain length (f+1)",
        "ops/sec",
        &chain,
    );
    record_series(&mut artifact, "throughput_vs_chain_length", &chain);

    let baseline = fabric_scale::fabric_vs_baseline(params, &[1, 2, 4, 8]);
    print_series(
        "Fabric vs server baseline (measured, same load generator)",
        "workers (shards / servers)",
        "ops/sec",
        &baseline,
    );
    record_series(&mut artifact, "fabric_vs_baseline", &baseline);

    // One live (threaded, wall-clock) run with trace sampling on: the
    // latency and per-hop profile the capacity sweeps cannot see.
    let profile_params = fabric_scale::FabricScaleParams {
        ops: 50_000,
        ..params
    };
    let report = fabric_scale::live_profile(profile_params, 4);
    let quantiles = report.latency.quantiles();
    println!(
        "Live profile (4 shards, 50/40/10 mix, {}/4 shard threads pinned): {}",
        report.pinned_shards,
        quantiles.to_line()
    );
    let hops = report.trace_summary();
    if let Some(path) = hops.dominant_path() {
        println!(
            "traces: {} sampled; dominant path {}",
            hops.traces,
            netchain_telemetry::path_to_string(path),
        );
    }
    artifact.record(
        "latency",
        vec![
            ("shards", Json::U64(4)),
            ("quantiles", Json::from(quantiles)),
        ],
    );
    artifact.record("hops", vec![("summary", Json::from(&hops))]);

    // The staged-vs-scalar burst comparison (ISSUE 7 acceptance numbers).
    let (scalar_ns, staged_ns) = fabric_scale::staged_vs_scalar_burst(10_000, 5);
    let speedup = scalar_ns / staged_ns;
    println!(
        "Staged vs scalar (32-read burst): scalar {scalar_ns:.0} ns, staged {staged_ns:.0} ns, {speedup:.2}x"
    );

    // Machine-diffable top-level summary: ops/sec per shard count, the live
    // run's latency quantiles, and the staged-vs-scalar burst numbers.
    let series_json = |s: &Series| {
        Json::obj(vec![
            ("name", Json::str(&s.name)),
            (
                "points",
                Json::Arr(
                    s.points
                        .iter()
                        .map(|&(x, y)| Json::Arr(vec![Json::F64(x), Json::F64(y)]))
                        .collect(),
                ),
            ),
        ])
    };
    let summary = Json::obj(vec![
        ("experiment", Json::str("fabric_scale")),
        (
            "ops_per_sec_vs_shards",
            Json::Arr(shards.iter().map(series_json).collect()),
        ),
        (
            "ops_per_sec_vs_chain_length",
            Json::Arr(chain.iter().map(series_json).collect()),
        ),
        (
            "live_profile",
            Json::obj(vec![
                ("shards", Json::U64(4)),
                ("pinned_shards", Json::U64(report.pinned_shards as u64)),
                ("quantiles", Json::from(quantiles)),
            ]),
        ),
        (
            "staged_vs_scalar_burst",
            Json::obj(vec![
                ("burst", Json::str("32 reads, chain tail")),
                ("scalar_ns_per_burst", Json::F64(scalar_ns)),
                ("staged_ns_per_burst", Json::F64(staged_ns)),
                ("speedup", Json::F64(speedup)),
            ]),
        ),
    ]);
    let bench_path = netchain_telemetry::artifact_dir().join("BENCH_fabric.json");
    match std::fs::write(&bench_path, summary.render() + "\n") {
        Ok(()) => println!("bench summary: {}", bench_path.display()),
        Err(e) => eprintln!("bench summary not written ({}): {e}", bench_path.display()),
    }

    if let Some(path) = artifact.write() {
        println!("artifact: {}", path.display());
    }
}
