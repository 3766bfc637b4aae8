//! The benchmark's own arithmetic, checked against hand-computed values.

use netchain_telemetry::{HopStamp, LatencyHistogram, PacketTrace};
use perfbench::arith::{
    closure, failed_frac, failed_ops, hop_ledger, hop_split, median, parse_cpu_ticks, quantile,
    reportable, HopSplit, CLOSURE_RANGE,
};

fn hist(values: impl IntoIterator<Item = u64>) -> netchain_telemetry::HistSnapshot {
    let mut h = LatencyHistogram::new();
    for v in values {
        h.record(v);
    }
    h.snapshot()
}

#[test]
fn sample_count_rule_needs_ten_samples_beyond_the_percentile() {
    assert!(!reportable(0.5, 19));
    assert!(reportable(0.5, 20));
    assert!(!reportable(0.9, 99));
    assert!(reportable(0.9, 100));
    assert!(!reportable(0.99, 999));
    assert!(reportable(0.99, 1_000));
    assert!(!reportable(0.999, 9_999));
    assert!(reportable(0.999, 10_000));
    assert!(
        !reportable(1.0, u64::MAX),
        "the maximum never has samples beyond it"
    );
}

#[test]
fn quantile_refuses_unreportable_percentiles() {
    let h = hist(1..=50);
    assert!(quantile(&h, 0.5).is_some());
    assert_eq!(quantile(&h, 0.99), None, "50 samples cannot carry a p99");
    assert_eq!(quantile(&hist([]), 0.5), None);
}

#[test]
fn quantile_is_exact_where_buckets_are_one_value_wide() {
    // Values below the histogram's first power-of-two range have their own
    // bucket each, so nearest-rank selection is exact there.
    let h = hist(1..=20);
    assert_eq!(quantile(&h, 0.5), Some(10.0));
    let h = hist((0..100).map(|i| i % 10));
    assert_eq!(quantile(&h, 0.9), Some(8.0));
}

#[test]
fn quantile_interpolates_inside_a_wide_bucket() {
    // 100 copies of one large value share a bucket: every quantile stays
    // within the observed range.
    let h = hist(std::iter::repeat_n(100_000, 100));
    assert_eq!(quantile(&h, 0.5), Some(100_000.0));
    // Uniform values 1..=100 000: the interpolated median is within the
    // histogram's ~3% bucket error of the true 50 000, and moves with the
    // distribution instead of sticking to a bucket edge.
    let h = hist(1..=100_000);
    let p50 = quantile(&h, 0.5).unwrap();
    assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.032, "p50 {p50}");
    let shifted = quantile(&hist(101..=100_100), 0.5).unwrap();
    assert!(shifted > p50, "{shifted} vs {p50}");
    let p90 = quantile(&h, 0.9).unwrap();
    assert!((p90 - 90_000.0).abs() / 90_000.0 < 0.032, "p90 {p90}");
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn failed_counts_incomplete_and_abandoned_ops() {
    assert_eq!(failed_ops(100, 100, 0), 0);
    assert_eq!(failed_frac(100, 100, 0), 0.0);
    assert_eq!(failed_ops(100, 97, 2), 5);
    assert_eq!(failed_frac(100, 97, 2), 0.05);
    assert_eq!(failed_frac(0, 0, 0), 0.0);
}

#[test]
fn cpu_ticks_parse_past_a_hostile_command_name() {
    let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                1234 56 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
    assert_eq!(parse_cpu_ticks(stat), Some(1234 + 56));
    assert_eq!(parse_cpu_ticks("4242 (short) S 1 2"), None);
    assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    let own = std::fs::read_to_string("/proc/self/stat").unwrap();
    assert!(parse_cpu_ticks(&own).is_some(), "{own}");
}

fn trace(hops: &[(u32, u64)]) -> PacketTrace {
    PacketTrace {
        id: 7,
        hops: hops
            .iter()
            .map(|&(ip, at)| HopStamp::plain(ip, at))
            .collect(),
    }
}

const CLIENT: u32 = 0x0a00_0001;
const HEAD: u32 = 0x0b00_0001;
const MID: u32 = 0x0b00_0002;
const TAIL: u32 = 0x0b00_0003;

fn is_client(ip: u32) -> bool {
    ip >> 24 == 0x0a
}

#[test]
fn hop_split_of_a_write_through_a_chain_of_three() {
    // Stored out of time order: the split sorts by stamp time.
    let t = trace(&[
        (TAIL, 1_900),
        (CLIENT, 1_000),
        (HEAD, 1_300),
        (MID, 1_600),
        (CLIENT, 2_500),
    ]);
    assert_eq!(
        hop_split(&t, is_client),
        Some(HopSplit {
            to_chain_ns: 300,
            chain_ns: 600,
            from_chain_ns: 600,
            switch_hops: 3,
        })
    );
}

#[test]
fn hop_split_of_a_read_has_no_chain_time() {
    let t = trace(&[(CLIENT, 0), (TAIL, 400), (CLIENT, 1_000)]);
    let split = hop_split(&t, is_client).unwrap();
    assert_eq!(
        (
            split.to_chain_ns,
            split.chain_ns,
            split.from_chain_ns,
            split.switch_hops
        ),
        (400, 0, 600, 1)
    );
}

#[test]
fn client_only_and_switch_only_traces_are_incomplete() {
    assert_eq!(
        hop_split(&trace(&[(CLIENT, 0), (CLIENT, 900)]), is_client),
        None
    );
    assert_eq!(
        hop_split(&trace(&[(HEAD, 0), (TAIL, 900)]), is_client),
        None
    );
    assert_eq!(
        hop_split(&trace(&[(CLIENT, 0), (HEAD, 300), (TAIL, 900)]), is_client),
        None,
        "no ack stamp"
    );
}

#[test]
fn hop_ledger_takes_medians_and_counts_its_bases() {
    let traces = [
        trace(&[(CLIENT, 0), (TAIL, 400), (CLIENT, 1_000)]),
        trace(&[(CLIENT, 0), (TAIL, 100), (CLIENT, 300)]),
        trace(&[
            (CLIENT, 0),
            (HEAD, 200),
            (MID, 500),
            (TAIL, 800),
            (CLIENT, 1_200),
        ]),
        trace(&[(CLIENT, 0), (CLIENT, 500)]),
    ];
    let ledger = hop_ledger(&traces, is_client).unwrap();
    assert_eq!((ledger.sampled, ledger.complete, ledger.walked), (4, 3, 1));
    assert_eq!(ledger.complete_frac(), 0.75);
    // to-chain: 400, 100, 200 → 0.2 µs; to-tail: 400, 100, 800 → 0.4 µs;
    // from-chain: 600, 200, 400 → 0.4 µs.
    assert_eq!(ledger.to_chain_us, 0.2);
    assert_eq!(ledger.to_tail_us, 0.4);
    assert_eq!(ledger.from_chain_us, 0.4);
    // Only the write walked a chain; single-hop reads do not dilute it.
    assert_eq!(ledger.chain_walk_us, Some(0.6));
    let reads = hop_ledger(&traces[..2], is_client).unwrap();
    assert_eq!((reads.walked, reads.chain_walk_us), (0, None));
    assert_eq!(hop_ledger(&traces[3..], is_client), None);
}

#[test]
fn closure_is_span_time_over_wall_time() {
    assert_eq!(closure(950, 1_000), 0.95);
    assert_eq!(closure(0, 0), 0.0);
    assert!(CLOSURE_RANGE.contains(&closure(950, 1_000)));
    assert!(!CLOSURE_RANGE.contains(&closure(850, 1_000)));
    assert!(!CLOSURE_RANGE.contains(&closure(1_150, 1_000)));
}
