//! The benchmark's own arithmetic: quantile selection, failure fractions,
//! the CPU-time parser, the hop-split derivation and the ledger closure.
//! Everything here is pure and unit-tested in `tests/arith.rs`.

use netchain_telemetry::{HistSnapshot, PacketTrace};
use std::ops::RangeInclusive;

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that a single outlier decides the value.
pub const MIN_TAIL_SAMPLES: f64 = 10.0;

/// The span sum of the ledger loop must cover this share of its wall time,
/// or the layer ledger is incomplete.
pub const CLOSURE_RANGE: RangeInclusive<f64> = 0.9..=1.1;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/*/stat`.
/// This is the kernel's fixed user-visible `USER_HZ`, 100 on every Linux ABI.
pub const CLOCK_TICKS_PER_SEC: u64 = 100;

/// True if the `q`-quantile of `samples` values has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it (p50 needs 20, p90 100, p99 1000,
/// p99.9 10 000).
pub fn reportable(q: f64, samples: u64) -> bool {
    (0.0..1.0).contains(&q) && (1.0 - q) * samples as f64 >= MIN_TAIL_SAMPLES - 1e-6
}

/// The `q`-quantile of a latency histogram in the histogram's unit, or
/// `None` when the histogram is empty or the quantile is not
/// [`reportable`].
///
/// The rank `q · n` is located in its bucket and interpolated linearly
/// between the bucket's bounds, so the value moves continuously with the
/// distribution instead of jumping between bucket edges (the histogram's
/// own `quantile` reports the bucket's upper bound). The result is clamped
/// to the observed minimum and maximum.
pub fn quantile(hist: &HistSnapshot, q: f64) -> Option<f64> {
    let n = hist.count();
    if n == 0 || !reportable(q, n) {
        return None;
    }
    let (min, max) = (hist.min()? as f64, hist.max()? as f64);
    let rank = (q * n as f64).max(f64::MIN_POSITIVE);
    let mut below = 0u64;
    let mut lower = 0u64;
    for bucket in hist.buckets() {
        if bucket.count > 0 && (below + bucket.count) as f64 >= rank {
            let frac = (rank - below as f64) / bucket.count as f64;
            let span = bucket.upper_bound.saturating_sub(lower) as f64;
            return Some((lower as f64 + frac * span).clamp(min, max));
        }
        below += bucket.count;
        lower = bucket.upper_bound.saturating_add(1);
    }
    Some(max)
}

/// The median of `values` (mean of the middle two for an even count), or
/// `None` when empty. NaNs sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Failed operations: those issued but never completed, plus those the
/// agent abandoned after its retry budget.
pub fn failed_ops(issued: u64, completed: u64, abandoned: u64) -> u64 {
    issued.saturating_sub(completed) + abandoned
}

/// [`failed_ops`] as a share of `issued` (0 when nothing was issued).
pub fn failed_frac(issued: u64, completed: u64, abandoned: u64) -> f64 {
    if issued == 0 {
        0.0
    } else {
        failed_ops(issued, completed, abandoned) as f64 / issued as f64
    }
}

/// User + system CPU ticks from the text of a `/proc/<pid>/stat` or
/// `/proc/<pid>/task/<tid>/stat` file. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name: state (field 3) … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Seconds of CPU time in `ticks` clock ticks.
pub fn ticks_to_secs(ticks: u64) -> f64 {
    ticks as f64 / CLOCK_TICKS_PER_SEC as f64
}

/// The ledger closure: the sum of the timed spans over the ledger loop's wall
/// time. 1.0 means the spans account for every nanosecond.
pub fn closure(span_ns: u128, wall_ns: u128) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        span_ns as f64 / wall_ns as f64
    }
}

/// One sampled op's latency split at the chain boundary, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSplit {
    /// Client issue stamp → first switch stamp (ring or socket wait).
    pub to_chain_ns: u64,
    /// First → last switch stamp (the chain walk).
    pub chain_ns: u64,
    /// Last switch stamp → client ack stamp (reply path).
    pub from_chain_ns: u64,
    /// Switch stamps between issue and ack: 1 for a read, the chain length
    /// for a mutation.
    pub switch_hops: usize,
}

/// Splits one merged trace, or returns `None` when it is not complete: it
/// must open and close on a client stamp with at least one switch stamp in
/// between. `is_client` tells client hops from switch hops by hop address.
/// Hops are taken in stamp-time order, whatever order the trace holds.
pub fn hop_split(trace: &PacketTrace, is_client: impl Fn(u32) -> bool) -> Option<HopSplit> {
    let mut hops: Vec<_> = trace.hops.iter().map(|h| (h.at_ns, h.hop_ip)).collect();
    hops.sort_unstable_by_key(|&(at, _)| at);
    let (&(issue, first_ip), &(ack, last_ip)) = (hops.first()?, hops.last()?);
    if hops.len() < 3 || !is_client(first_ip) || !is_client(last_ip) {
        return None;
    }
    let switch_stamps: Vec<u64> = hops[1..hops.len() - 1]
        .iter()
        .filter(|(_, ip)| !is_client(*ip))
        .map(|&(at, _)| at)
        .collect();
    let (&first_switch, &last_switch) = (switch_stamps.first()?, switch_stamps.last()?);
    Some(HopSplit {
        to_chain_ns: first_switch - issue,
        chain_ns: last_switch - first_switch,
        from_chain_ns: ack - last_switch,
        switch_hops: switch_stamps.len(),
    })
}

/// The hop ledger of a traced run: medians of the per-trace splits plus the
/// base counts behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopLedger {
    /// Merged traces (sampled ops).
    pub sampled: usize,
    /// Traces carrying client issue, switch and client ack stamps.
    pub complete: usize,
    /// Complete traces that walked a chain (more than one switch stamp).
    pub walked: usize,
    /// Median [`HopSplit::to_chain_ns`] of complete traces, in µs.
    pub to_chain_us: f64,
    /// Median time from issue to the last switch stamp (the hop that emits
    /// the reply) of complete traces, in µs: the wait to reach the chain plus
    /// the chain walk.
    pub to_tail_us: f64,
    /// Median [`HopSplit::from_chain_ns`] of complete traces, in µs.
    pub from_chain_us: f64,
    /// Median [`HopSplit::chain_ns`] of the traces that walked a chain, in
    /// µs; `None` when none did (a single-hop read has no chain walk).
    pub chain_walk_us: Option<f64>,
}

impl HopLedger {
    /// Share of sampled ops that carry both client and switch stamps.
    pub fn complete_frac(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.complete as f64 / self.sampled as f64
        }
    }
}

/// Builds the [`HopLedger`] of `traces`; `None` when no trace is complete.
pub fn hop_ledger(traces: &[PacketTrace], is_client: impl Fn(u32) -> bool) -> Option<HopLedger> {
    let splits: Vec<HopSplit> = traces
        .iter()
        .filter_map(|t| hop_split(t, &is_client))
        .collect();
    let median_us = |of: &mut dyn Iterator<Item = u64>| {
        median(&of.map(|ns| ns as f64 / 1e3).collect::<Vec<_>>())
    };
    let walked = || splits.iter().filter(|s| s.switch_hops > 1);
    Some(HopLedger {
        sampled: traces.len(),
        complete: splits.len(),
        walked: walked().count(),
        to_chain_us: median_us(&mut splits.iter().map(|s| s.to_chain_ns))?,
        to_tail_us: median_us(&mut splits.iter().map(|s| s.to_chain_ns + s.chain_ns))?,
        from_chain_us: median_us(&mut splits.iter().map(|s| s.from_chain_ns))?,
        chain_walk_us: median_us(&mut walked().map(|s| s.chain_ns)),
    })
}
