//! A lock-free single-producer single-consumer ring buffer.
//!
//! The shared-memory channel between an ingestion thread and a sketch
//! worker — the per-queue ring of the paper's OVS deployment, drained
//! by [`crate::EngineSession`]'s shard workers: fixed power-of-two
//! capacity, cache-line-padded head/tail indices so
//! producer and consumer never false-share, and wait-free operations
//! (each fails rather than blocks when full/empty — the
//! poll-mode-driver discipline).
//!
//! Besides single-item [`push`](SpscRing::push)/[`pop`](SpscRing::pop),
//! the ring offers [`push_slice`](SpscRing::push_slice) and
//! [`pop_chunk`](SpscRing::pop_chunk), which move a whole batch per
//! head/tail update — one acquire/release pair amortized over the
//! batch, the `rte_ring` bulk-operation trick that makes ring transfer
//! cost per packet negligible next to the sketch update itself.

use crate::sync::{AtomicUsize, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// A value padded to (a conservative multiple of) a cache line, so the
/// producer's head index and the consumer's tail index never share a
/// line. 128 bytes covers the adjacent-line prefetcher on modern x86.
#[repr(align(128))]
#[derive(Default)]
struct CachePadded<T>(T);

/// A bounded SPSC ring of `Copy` items.
///
/// Safety model: exactly one thread calls the producer-side methods
/// ([`push`](Self::push), [`push_slice`](Self::push_slice)) and exactly
/// one thread calls the consumer-side methods ([`pop`](Self::pop),
/// [`pop_chunk`](Self::pop_chunk)). Slot ownership is transferred
/// through the acquire/release pair on `head`/`tail`; a slot is written
/// only while it is invisible to the consumer and read only after the
/// release-store that published it.
pub struct SpscRing<T: Copy + Send> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write (only the producer mutates).
    head: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read (only the consumer mutates).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring hands each slot to exactly one side at a time: a
// slot is written by the producer only while outside the consumer's
// visible window, published by the release-store of `head`, and read
// by the consumer only after the matching acquire-load (symmetrically
// for slot reuse via `tail`). With `T: Send` the items may move
// between those threads, so sharing the struct is sound. The single-
// producer/single-consumer discipline itself is the caller's contract
// (documented on the type) — violating it is a logic error that the
// loom model tests would surface as a data race, but not UB reachable
// from safe code holding `&SpscRing` on one side each.
unsafe impl<T: Copy + Send> Sync for SpscRing<T> {}

impl<T: Copy + Send> SpscRing<T> {
    /// A ring holding up to `capacity` items; `capacity` must be a
    /// power of two (DPDK's rte_ring discipline — index masking stays
    /// branch-free).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        let buf: Vec<UnsafeCell<MaybeUninit<T>>> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            buf: buf.into_boxed_slice(),
            mask: capacity - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Items currently queued (approximate under concurrency, exact
    /// when quiescent).
    pub fn len(&self) -> usize {
        self.head
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.tail.0.load(Ordering::Acquire))
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: enqueue `item`, or return it back when full.
    #[inline]
    pub fn push(&self, item: T) -> Result<(), T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head.wrapping_sub(tail) > self.mask {
            return Err(item);
        }
        self.buf[head & self.mask].with_mut(|slot| {
            // SAFETY: `head - tail <= mask` was checked above, so this
            // slot is outside the consumer's visible window until the
            // release-store below publishes it; the acquire-load of
            // `tail` ordered any previous consumer read of the slot
            // before this write.
            unsafe { (*slot).write(item) };
        });
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Producer side: enqueue as many of `items` as fit, front first,
    /// under a single head update. Returns how many were enqueued (0
    /// when the ring is full — never blocks).
    #[inline]
    pub fn push_slice(&self, items: &[T]) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let free = self.capacity() - head.wrapping_sub(tail);
        let n = items.len().min(free);
        // LINT: bounded(n = items.len().min(free) <= items.len())
        for (i, item) in items[..n].iter().enumerate() {
            self.buf[head.wrapping_add(i) & self.mask].with_mut(|slot| {
                // SAFETY: `n` is capped to the free window computed
                // from the acquire-load of `tail`, so none of these
                // slots is visible to the consumer until the single
                // release-store below publishes the whole batch.
                unsafe { (*slot).write(*item) };
            });
        }
        if n > 0 {
            self.head.0.store(head.wrapping_add(n), Ordering::Release);
        }
        n
    }

    /// Consumer side: dequeue one item, `None` when empty.
    #[inline]
    pub fn pop(&self) -> Option<T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        // SAFETY: `tail != head` under the acquire-load of `head`, so
        // the producer initialized this slot and its release-store of
        // `head` ordered that write before this read; the slot is not
        // rewritten until the release-store of `tail` below returns it
        // to the producer's window.
        let item = self.buf[tail & self.mask].with(|slot| unsafe { (*slot).assume_init() });
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Consumer side: dequeue up to `max` items into `out` (appended),
    /// under a single tail update. Returns how many were dequeued.
    #[inline]
    pub fn pop_chunk(&self, out: &mut Vec<T>, max: usize) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        let n = head.wrapping_sub(tail).min(max);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: `n` is capped to the occupied window computed
            // from the acquire-load of `head`, which ordered the
            // producer's initialization of all `n` slots before these
            // reads; the slots return to the producer only at the
            // release-store of `tail` below.
            let item = self.buf[tail.wrapping_add(i) & self.mask]
                .with(|slot| unsafe { (*slot).assume_init() });
            out.push(item);
        }
        if n > 0 {
            self.tail.0.store(tail.wrapping_add(n), Ordering::Release);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let r: SpscRing<u32> = SpscRing::new(8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(99), Err(99), "full ring rejects");
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn wraps_around() {
        let r: SpscRing<u32> = SpscRing::new(4);
        for round in 0..10u32 {
            for i in 0..4 {
                r.push(round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(r.pop(), Some(round * 4 + i));
            }
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let r: SpscRing<u8> = SpscRing::new(4);
        assert!(r.is_empty());
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.len(), 2);
        r.pop();
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = SpscRing::<u8>::new(6);
    }

    #[test]
    fn push_slice_partial_on_full() {
        let r: SpscRing<u32> = SpscRing::new(8);
        assert_eq!(r.push_slice(&[0, 1, 2, 3, 4]), 5);
        assert_eq!(r.push_slice(&[5, 6, 7, 8, 9]), 3, "only 3 slots left");
        assert_eq!(r.push_slice(&[99]), 0, "full ring accepts nothing");
        let mut out = Vec::new();
        assert_eq!(r.pop_chunk(&mut out, 100), 8);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn pop_chunk_respects_max_and_appends() {
        let r: SpscRing<u32> = SpscRing::new(8);
        r.push_slice(&[10, 11, 12, 13]);
        let mut out = vec![9];
        assert_eq!(r.pop_chunk(&mut out, 2), 2);
        assert_eq!(out, vec![9, 10, 11]);
        assert_eq!(r.pop_chunk(&mut out, 10), 2);
        assert_eq!(out, vec![9, 10, 11, 12, 13]);
        assert_eq!(r.pop_chunk(&mut out, 10), 0);
    }

    #[test]
    fn batch_ops_wrap_around() {
        let r: SpscRing<u32> = SpscRing::new(4);
        let mut out = Vec::new();
        let mut next = 0u32;
        let mut expect = 0u32;
        for _ in 0..13 {
            let batch = [next, next + 1, next + 2];
            let pushed = r.push_slice(&batch);
            next += pushed as u32;
            r.pop_chunk(&mut out, 2);
            for &v in &out {
                assert_eq!(v, expect, "batch ops broke FIFO at wrap");
                expect += 1;
            }
            out.clear();
        }
    }

    #[test]
    fn cross_thread_transfers_everything_in_order() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(256));
        let n: u64 = 500_000;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut item = i;
                    loop {
                        match ring.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut expected = 0u64;
                let mut sum = 0u64;
                while expected < n {
                    if let Some(v) = ring.pop() {
                        assert_eq!(v, expected, "FIFO order violated");
                        sum += v;
                        expected += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
                sum
            })
        };
        producer.join().unwrap();
        let sum = consumer.join().unwrap();
        assert_eq!(sum, n * (n - 1) / 2);
    }

    #[test]
    fn cross_thread_batched_transfer() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(128));
        let n: u64 = 200_000;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let batch: Vec<u64> = (0..n).collect();
                let mut sent = 0usize;
                while sent < batch.len() {
                    let pushed = ring.push_slice(&batch[sent..(sent + 64).min(batch.len())]);
                    if pushed == 0 {
                        std::hint::spin_loop();
                    }
                    sent += pushed;
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = 0u64;
                let mut out = Vec::with_capacity(64);
                while got < n {
                    out.clear();
                    if ring.pop_chunk(&mut out, 64) == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    for &v in &out {
                        assert_eq!(v, got, "batched FIFO order violated");
                        got += 1;
                    }
                }
                got
            })
        };
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), n);
    }
}
