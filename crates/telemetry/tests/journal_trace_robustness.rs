//! Robustness of the observability plumbing itself: journal ordering when
//! many threads emit concurrently (each into its own journal, merged after —
//! the deployment shape every runner uses), `merge_traces` on the messy
//! fragment sets a real run produces (dropped hops, partial fragments,
//! duplicated observers), and the artifact decoders on hostile text.

use std::thread;

use netchain_telemetry::{
    journal_from_json, merge_traces, trace_from_json, HopStamp, Journal, Json, PacketTrace,
};
use proptest::prelude::*;

/// Concurrent emitters each own a journal; the run-level journal is the
/// merge. Ordering guarantees: per-emitter recording order survives the
/// merge verbatim, and `to_table` presents the union chronologically no
/// matter the merge order.
#[test]
fn concurrent_emitters_merge_in_order_and_render_chronologically() {
    const EMITTERS: usize = 8;
    const EVENTS: u64 = 50;
    let journals: Vec<Journal> = (0..EMITTERS)
        .map(|e| {
            thread::spawn(move || {
                let mut j = Journal::new();
                for i in 0..EVENTS {
                    // Interleave instants and spans with emitter-skewed
                    // timestamps so no two emitters agree on event times.
                    let at = i * 1000 + e as u64;
                    j.instant(format!("e{e}-i{i}"), at);
                    let h = j.begin(format!("e{e}-s{i}"), at);
                    j.end(h, at + 500);
                }
                j
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("emitter thread panicked"))
        .collect();

    // Merge in arbitrary (reversed) order.
    let mut merged = Journal::new();
    for j in journals.iter().rev() {
        merged.extend(j);
    }
    assert_eq!(merged.instants().len(), EMITTERS * EVENTS as usize);
    assert_eq!(merged.spans().len(), EMITTERS * EVENTS as usize);

    // Per-emitter recording order is preserved inside the merged journal.
    for e in 0..EMITTERS {
        let times: Vec<u64> = merged
            .instants()
            .iter()
            .filter(|i| i.name.starts_with(&format!("e{e}-")))
            .map(|i| i.at_ns)
            .collect();
        assert_eq!(times.len(), EVENTS as usize);
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "emitter {e}'s events must stay in recording order"
        );
    }
    // Every span closed exactly once with its emitter's duration.
    assert!(merged.spans().iter().all(|s| s.duration_ns() == Some(500)));

    // The rendered table is globally chronological even though the merge
    // interleaved eight emitters' clocks.
    let table = merged.to_table();
    let first = table.lines().next().expect("nonempty table");
    assert!(
        first.contains("e0-i0") || first.contains("e0-s0"),
        "emitter 0's t=0 event must render first, got: {first}"
    );
    let pos_early = table.find("e3-i1").expect("event rendered");
    let pos_late = table.find("e3-i40").expect("event rendered");
    assert!(pos_early < pos_late);
}

fn frag(id: u64, hops: &[(u32, u64)]) -> PacketTrace {
    PacketTrace {
        id,
        hops: hops
            .iter()
            .map(|&(hop_ip, at_ns)| HopStamp::plain(hop_ip, at_ns))
            .collect(),
    }
}

/// A dropped hop (a shard that never stamped, e.g. its fragment was lost at
/// shutdown) must not panic the merge or corrupt other traces: the trace
/// simply has a shorter path.
#[test]
fn merge_traces_tolerates_dropped_hops() {
    let full = vec![
        frag(1, &[(10, 0)]),            // client issue
        frag(1, &[(101, 5), (102, 9)]), // two chain hops
        frag(1, &[(10, 20)]),           // client reply
    ];
    let dropped = vec![
        frag(2, &[(10, 0)]),
        // The middle observer's fragment was lost — no hops 101/102.
        frag(2, &[(10, 30)]),
    ];
    let merged = merge_traces(full.into_iter().chain(dropped));
    assert_eq!(merged.len(), 2);
    let t1 = merged.iter().find(|t| t.id == 1).expect("trace 1");
    let t2 = merged.iter().find(|t| t.id == 2).expect("trace 2");
    assert_eq!(t1.path(), vec![10, 101, 102, 10]);
    // The degraded trace keeps what was observed, in time order.
    assert_eq!(t2.path(), vec![10, 10]);
}

/// Partial fragments of one trace arriving from many observers, in any
/// order, with duplicate stamps from a retransmission observed twice: hops
/// are concatenated and re-sorted by timestamp, never misattributed to
/// another trace ID.
#[test]
fn merge_traces_reassembles_out_of_order_partial_fragments() {
    let parts = vec![
        frag(7, &[(102, 9)]),
        frag(8, &[(201, 4)]),
        frag(7, &[(10, 0), (10, 20)]), // client stamps: issue + reply
        frag(7, &[(101, 5)]),
        frag(8, &[(20, 1)]),
        // A duplicate stamp (same hop, same time) from a second observer of
        // the same packet survives as-is; it is data, not an error.
        frag(8, &[(201, 4)]),
    ];
    let merged = merge_traces(parts);
    assert_eq!(merged.len(), 2);
    // Output is sorted by trace ID for determinism.
    assert!(merged.windows(2).all(|w| w[0].id < w[1].id));
    let t7 = &merged[0];
    assert_eq!(t7.id, 7);
    assert_eq!(t7.path(), vec![10, 101, 102, 10]);
    assert!(
        t7.hops.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "hops must be time-ordered after merge"
    );
    let t8 = &merged[1];
    assert_eq!(t8.path(), vec![20, 201, 201]);
}

/// A valid trace record and a valid journal: the texts the fuzzer mangles,
/// so most inputs get past the parser and into the decoders.
const SEEDS: [&str; 2] = [
    r#"{"schema":2,"id":7,"hops":[{"ip":1,"at_ns":2,"role":"head","op":"write","ok":true}]}"#,
    r#"{"instants":[{"name":"kill","at_ns":5}],"spans":[{"name":"repair","start_ns":1}]}"#,
];

proptest! {
    /// Hostile artifact text (a seed with arbitrary bytes written over it,
    /// cut anywhere) never panics the parser, nor the decoders fed whatever
    /// it accepts.
    #[test]
    fn json_decoders_never_panic_on_garbage(
        seed in 0..2usize,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        cut in any::<usize>(),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        for (at, byte) in edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&bytes)) {
            let _ = trace_from_json(&doc);
            let _ = journal_from_json(&doc);
        }
    }
}

/// The empty and singleton cases stay trivial.
#[test]
fn merge_traces_handles_empty_and_hopless_fragments() {
    assert!(merge_traces(std::iter::empty()).is_empty());
    // A fragment with no hops at all (a sink drained mid-begin) is kept as
    // an empty-path trace rather than inventing or dropping data.
    let merged = merge_traces(vec![frag(3, &[])]);
    assert_eq!(merged.len(), 1);
    assert!(merged[0].path().is_empty());
}
