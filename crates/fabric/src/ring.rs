//! A bounded, lock-free single-producer/single-consumer ring.
//!
//! This is the only queue the fabric uses: every (client, shard) pair owns
//! one ring per direction, so each ring has exactly one producer thread and
//! one consumer thread and never needs a lock or a CAS loop — a plain
//! Lamport queue with release/acquire index publication.
//!
//! Two throughput refinements over the textbook version, both standard in
//! software dataplanes:
//!
//! * **index caching** — the producer keeps a stale copy of the consumer's
//!   head (and vice versa) and only reloads the shared atomic when the cached
//!   value says the ring looks full/empty. In steady state this cuts
//!   cross-core cache-line traffic to one transfer per *batch*, not per item.
//! * **batch operations** — [`Producer::push_batch`] publishes a whole burst
//!   with a single release store; [`Consumer::pop_batch`] consumes a run and
//!   retires it with a single release store.
//!
//! Safety argument (this module is the crate's only `unsafe` code): slots in
//! `[head, tail)` are owned by the consumer, slots in `[tail, head + cap)` by
//! the producer. The producer writes a slot **before** publishing it by
//! storing `tail` with `Release`; the consumer reads `tail` with `Acquire`
//! before reading the slot, and symmetrically for `head` on the reuse path.
//! Each index is written by exactly one side. Indices increase monotonically
//! and are taken modulo the power-of-two capacity via a mask.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads an atomic counter to its own cache line so the producer's tail and
/// the consumer's head never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded(AtomicUsize);

struct RingShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written only by the consumer.
    head: CachePadded,
    /// Next slot the producer will write. Written only by the producer.
    tail: CachePadded,
}

// SAFETY: the ring is shared between exactly one producer and one consumer;
// the head/tail protocol above ensures a slot is never accessed from both
// sides at once. `T: Send` is required because items cross threads.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Both handles are gone (`&mut self`), so plain loads suffice.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialised, unconsumed
            // items that nothing else can touch any more.
            unsafe { (*self.buf[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// Creates a ring holding at least `capacity` items (rounded up to a power
/// of two), returning the two endpoint handles.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 2, "a ring needs room for at least two items");
    let cap = capacity.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        buf,
        mask: cap - 1,
        head: CachePadded::default(),
        tail: CachePadded::default(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

/// The write end of a ring. `!Clone`: exactly one producer exists.
pub struct Producer<T: Send> {
    shared: Arc<RingShared<T>>,
    /// Local copy of the ring's tail (this side owns it).
    tail: usize,
    /// Last observed consumer head; refreshed only when the ring looks full.
    cached_head: usize,
}

impl<T: Send> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Free slots, according to the (possibly stale) cached head.
    fn free_cached(&mut self) -> usize {
        let cap = self.capacity();
        if self.tail - self.cached_head == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
        }
        cap - (self.tail - self.cached_head)
    }

    /// Attempts to push one item; returns it back if the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.free_cached() == 0 {
            return Err(item);
        }
        // SAFETY: slot `tail` is in the producer-owned region (free > 0) and
        // not yet published to the consumer.
        unsafe { (*self.shared.buf[self.tail & self.shared.mask].get()).write(item) };
        self.tail += 1;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Pushes `item`, yielding the thread while the ring is full, until it
    /// fits or `give_up()` says the consumer is gone. Returns whether the
    /// item was pushed.
    pub fn push_yielding(&mut self, mut item: T, mut give_up: impl FnMut() -> bool) -> bool {
        loop {
            match self.push(item) {
                Ok(()) => return true,
                Err(_) if give_up() => return false,
                Err(back) => {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Moves as many items as fit from the front of `items`, publishing them
    /// with a single release store. Returns how many were taken.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        let take = self.free_cached().min(items.len());
        if take == 0 {
            return 0;
        }
        for item in items.drain(..take) {
            // SAFETY: as in `push`; all `take` slots are producer-owned.
            unsafe { (*self.shared.buf[self.tail & self.shared.mask].get()).write(item) };
            self.tail += 1;
        }
        self.shared.tail.0.store(self.tail, Ordering::Release);
        take
    }
}

/// The read end of a ring. `!Clone`: exactly one consumer exists.
pub struct Consumer<T: Send> {
    shared: Arc<RingShared<T>>,
    /// Local copy of the ring's head (this side owns it).
    head: usize,
    /// Last observed producer tail; refreshed only when the ring looks empty.
    cached_tail: usize,
}

impl<T: Send> Consumer<T> {
    /// Items available, according to the (possibly stale) cached tail.
    fn available_cached(&mut self) -> usize {
        if self.cached_tail == self.head {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.cached_tail - self.head
    }

    /// Pops one item, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.available_cached() == 0 {
            return None;
        }
        // SAFETY: slot `head` is published ([head, tail)) and exclusively
        // ours until we advance `head`.
        let item =
            unsafe { (*self.shared.buf[self.head & self.shared.mask].get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Pops up to `max` items into `out`, retiring them with a single
    /// release store. Returns how many were popped.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let take = self.available_cached().min(max);
        if take == 0 {
            return 0;
        }
        out.reserve(take);
        for _ in 0..take {
            // SAFETY: as in `pop`; all `take` slots are published and ours.
            let item = unsafe {
                (*self.shared.buf[self.head & self.shared.mask].get()).assume_init_read()
            };
            out.push(item);
            self.head += 1;
        }
        self.shared.head.0.store(self.head, Ordering::Release);
        take
    }

    /// True if the ring is empty *and* nothing is in flight from the
    /// producer at the moment of the check.
    pub fn is_empty_now(&mut self) -> bool {
        self.available_cached() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let (mut tx, mut rx) = ring::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(tx.push(99).is_err(), "ring should be full");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn push_yielding_stops_when_told_to_give_up() {
        let (mut tx, mut rx) = ring::<u64>(2);
        assert!(tx.push_yielding(1, || false));
        assert!(tx.push_yielding(2, || false));
        let mut asked = 0;
        assert!(!tx.push_yielding(3, || {
            asked += 1;
            asked == 3
        }));
        assert_eq!(asked, 3, "a full ring keeps asking until told to stop");
        assert_eq!(rx.pop(), Some(1));
        assert!(
            tx.push_yielding(4, || true),
            "room is used before giving up"
        );
    }

    #[test]
    fn batch_push_pop() {
        let (mut tx, mut rx) = ring::<u32>(8);
        let mut items: Vec<u32> = (0..12).collect();
        assert_eq!(tx.push_batch(&mut items), 8);
        assert_eq!(items.len(), 4, "unpushed remainder stays");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.push_batch(&mut items), 4);
        out.clear();
        // pop_batch is conservative: it serves the cached run first and only
        // reloads the producer index when that run is exhausted.
        while out.len() < 7 {
            assert!(rx.pop_batch(&mut out, 64) > 0);
        }
        assert_eq!(out, vec![5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(rx.pop_batch(&mut out, 64), 0);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = ring::<u8>(33);
        assert_eq!(tx.capacity(), 64);
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = ring::<D>(4);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        drop(rx.pop());
        let before = DROPS.load(Ordering::SeqCst);
        assert_eq!(before, 1);
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = ring::<u64>(256);
        let producer = std::thread::spawn(move || {
            let mut pending: Vec<u64> = Vec::new();
            let mut next = 0u64;
            while next < N || !pending.is_empty() {
                while pending.len() < 64 && next < N {
                    pending.push(next);
                    next += 1;
                }
                if tx.push_batch(&mut pending) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        let mut out = Vec::new();
        while expected < N {
            out.clear();
            if rx.pop_batch(&mut out, 64) == 0 {
                std::hint::spin_loop();
                continue;
            }
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
    }
}
