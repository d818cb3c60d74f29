//! Exhaustive model-checking of the engine's unsafe data plane.
//!
//! Compiled only with `--features heavy-tests` (which enables the
//! `loom` feature): [`engine::SpscRing`] is then built against the
//! model checker's tracked primitives (see `engine/src/sync.rs`), so
//! every test here interleaves the *real* ring implementation under
//! all schedules within the checker's preemption bound, with
//! vector-clock race detection on every slot access. A missing
//! acquire/release edge or a slot handed to both sides at once fails
//! these tests on every schedule, not just the unlucky ones.
//!
//! Models stay tiny on purpose (capacity ≤ 4, a handful of items):
//! the schedule tree grows exponentially in the number of tracked
//! operations, and small models already cover the interesting index
//! arithmetic (wraparound included). Each test asserts
//! `Report::complete`, so the exhaustiveness claim is checked, not
//! assumed.

#![cfg(feature = "loom")]

use engine::{Cmd, SealSlot, SpscRing};
use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::Builder;
use traffic::KeyBytes;

fn check_exhaustive(f: impl Fn() + Send + Sync + 'static) {
    let report = Builder::new().check(f);
    assert!(
        report.complete,
        "model did not exhaust its schedule tree ({} iterations)",
        report.iterations
    );
}

/// Concurrent push/pop with no retries: the producer's pushes always
/// fit, the consumer records whatever it manages to steal, and after
/// the join the drain must deliver the rest — FIFO, nothing lost,
/// nothing duplicated, on every schedule.
#[test]
fn concurrent_push_pop_preserves_fifo() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(2));
        let r2 = ring.clone();
        let producer = loom::thread::spawn(move || {
            r2.push(1).unwrap();
            r2.push(2).unwrap();
        });
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Some(v) = ring.pop() {
                got.push(v);
            }
        }
        producer.join().unwrap();
        while let Some(v) = ring.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![1, 2]);
    });
}

/// Wraparound under concurrency: the indices are pre-advanced past the
/// capacity so the concurrent phase exercises wrapped slot reuse, the
/// case where a missing tail-acquire would let the producer overwrite
/// a slot the consumer is still reading.
#[test]
fn wraparound_slot_reuse_is_race_free() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(2));
        // Advance head/tail to the wrap boundary, single-threaded.
        ring.push(90).unwrap();
        ring.push(91).unwrap();
        assert_eq!(ring.pop(), Some(90));
        assert_eq!(ring.pop(), Some(91));
        let r2 = ring.clone();
        let producer = loom::thread::spawn(move || {
            let mut sent = 0;
            for i in 0..3u64 {
                if r2.push(i).is_ok() {
                    sent += 1;
                } else {
                    // Full: the consumer has not caught up; don't spin.
                    break;
                }
            }
            sent
        });
        let mut got = Vec::new();
        if let Some(v) = ring.pop() {
            got.push(v);
        }
        let sent = producer.join().unwrap();
        while let Some(v) = ring.pop() {
            got.push(v);
        }
        let expect: Vec<u64> = (0..sent).collect();
        assert_eq!(got, expect, "wrapped transfer lost or reordered items");
    });
}

/// The bulk operations move whole batches under one head/tail update;
/// partial acceptance on a full ring and partial drains must still
/// compose to an exact FIFO transfer.
#[test]
fn bulk_push_slice_pop_chunk_preserve_fifo() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(4));
        let r2 = ring.clone();
        let producer = loom::thread::spawn(move || {
            let items = [1u64, 2, 3];
            let mut sent = r2.push_slice(&items);
            // One retry for the tail of the batch (bounded, no spin).
            if sent < items.len() {
                sent += r2.push_slice(&items[sent..]);
            }
            sent as u64
        });
        let mut got = Vec::new();
        ring.pop_chunk(&mut got, 2);
        let sent = producer.join().unwrap();
        ring.pop_chunk(&mut got, 8);
        let expect: Vec<u64> = (1..=sent).collect();
        assert_eq!(got, expect, "bulk transfer lost or reordered items");
    });
}

/// Dropping a ring that still holds items (a worker shutting down with
/// packets in flight) must be clean on every schedule.
#[test]
fn drop_non_empty_ring_after_handoff() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(4));
        let r2 = ring.clone();
        let producer = loom::thread::spawn(move || {
            r2.push(7).unwrap();
            r2.push(8).unwrap();
        });
        let first = ring.pop();
        producer.join().unwrap();
        if let Some(v) = first {
            assert_eq!(v, 7);
        }
        // 1–2 items still queued; both Arc clones drop here.
    });
}

/// The session shutdown handoff (`engine::session`, `finish`): the
/// producer flushes its staging buffer into the ring and then sets
/// `done` with Release; a worker that observes `done` with Acquire and
/// drains once more must see *every* item — the protocol's guarantee
/// that no packet is lost at collection time.
#[test]
fn sharded_handoff_drains_everything() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::new(2));
        let done = Arc::new(AtomicBool::new(false));
        let (r2, d2) = (ring.clone(), done.clone());
        let producer = loom::thread::spawn(move || {
            let items = [1u64, 2, 3];
            let mut sent = 0;
            while sent < items.len() {
                let pushed = r2.push_slice(&items[sent..]);
                sent += pushed;
                if pushed == 0 {
                    loom::thread::yield_now();
                }
            }
            d2.store(true, Ordering::Release);
        });
        // The worker loop from `session::worker_loop`, in miniature.
        let mut got = Vec::new();
        loop {
            let drained = ring.pop_chunk(&mut got, 8);
            if drained == 0 {
                if done.load(Ordering::Acquire) {
                    // Final drain: everything pushed before `done` was
                    // set is ordered before this by Release/Acquire.
                    ring.pop_chunk(&mut got, 8);
                    break;
                }
                loom::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "handoff lost items at shutdown");
    });
}

fn pkt(w: u64) -> Cmd {
    Cmd::Pkt(KeyBytes::new(&[w as u8]), w)
}

/// The rotation protocol (`engine::session`) in miniature: the
/// producer pushes packets, an **in-band** seal marker, and more
/// packets, without ever pausing; the worker splits its stream at the
/// marker and hands epoch 0 through a [`SealSlot`] while epoch 1 keeps
/// accumulating. On every schedule the boundary must be exact (packets
/// pushed before the seal land in epoch 0, after it in epoch 1 — FIFO
/// through the ring) and the union must conserve the stream weight.
#[test]
fn seal_during_push_keeps_fifo_and_conservation() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<Cmd>> = Arc::new(SpscRing::new(4));
        let slot: Arc<SealSlot<Vec<u64>>> = Arc::new(SealSlot::new());
        let (r2, s2) = (ring.clone(), slot.clone());
        let worker = loom::thread::spawn(move || {
            let mut epoch = Vec::new();
            let mut seen = 0;
            while seen < 4 {
                if let Some(cmd) = r2.pop() {
                    seen += 1;
                    match cmd {
                        Cmd::Pkt(_, w) => epoch.push(w),
                        Cmd::Seal => s2.put(std::mem::take(&mut epoch)),
                    }
                } else {
                    loom::thread::yield_now();
                }
            }
            epoch // the next epoch's packets, still accumulating
        });
        // Producer: the seal marker queues behind packets 1 and 2 and
        // ahead of packet 3 — rotation without stopping ingestion.
        for cmd in [pkt(1), pkt(2), Cmd::Seal, pkt(3)] {
            let mut c = cmd;
            while let Err(back) = ring.push(c) {
                c = back;
                loom::thread::yield_now();
            }
        }
        // Collector: blocks until the worker hands epoch 0 over.
        let sealed = slot.take();
        let next = worker.join().unwrap();
        assert_eq!(sealed, vec![1, 2], "epoch boundary moved");
        assert_eq!(next, vec![3], "post-seal packet leaked into epoch 0");
        assert_eq!(
            sealed.iter().sum::<u64>() + next.iter().sum::<u64>(),
            6,
            "rotation lost weight"
        );
    });
}

/// Slot reuse across consecutive epochs: the one-deep cell must
/// alternate ownership cleanly — a second `put` waits for the first
/// `take`, and values never mix, on every schedule.
#[test]
fn seal_slot_reuse_across_epochs() {
    check_exhaustive(|| {
        let slot: Arc<SealSlot<u64>> = Arc::new(SealSlot::new());
        let s2 = slot.clone();
        let worker = loom::thread::spawn(move || {
            s2.put(10); // epoch 0
            s2.put(20); // epoch 1: waits until the collector drained 10
        });
        assert_eq!(slot.take(), 10, "epochs reordered in the slot");
        assert_eq!(slot.take(), 20);
        worker.join().unwrap();
    });
}

/// A worker that panics between `put`s must not corrupt the slot's
/// hand-off state for the value it already published.
#[test]
fn seal_slot_value_survives_collector_delay() {
    check_exhaustive(|| {
        let slot: Arc<SealSlot<Vec<u64>>> = Arc::new(SealSlot::new());
        let s2 = slot.clone();
        let worker = loom::thread::spawn(move || {
            s2.put(vec![1, 2, 3]);
        });
        worker.join().unwrap();
        // Taking strictly after the join: the release/acquire pair on
        // the slot state (not the join) is what publishes the vec's
        // heap contents; the drained value must be intact.
        assert_eq!(slot.take(), vec![1, 2, 3]);
    });
}

/// Ordering-weakening mutation, shown to fail: [`SealSlot`] publishes
/// with a release-store and takes after an acquire-load. This model
/// re-implements the hand-off with `Relaxed` on both sides — the
/// checker's vector-clock race detector must flag the unsynchronized
/// cell access pair, proving the orderings in the real implementation
/// are load-bearing rather than decorative.
#[test]
fn relaxed_seal_publish_mutation_fails() {
    use loom::cell::UnsafeCell;

    struct WeakSlot {
        state: AtomicUsize,
        value: UnsafeCell<u64>,
    }
    // SAFETY: test-only — deliberately unsound mutation under test; the
    // Relaxed hand-off below is the bug the checker must catch.
    unsafe impl Sync for WeakSlot {}

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Builder::new().check(|| {
            let slot = Arc::new(WeakSlot {
                state: AtomicUsize::new(0),
                value: UnsafeCell::new(0),
            });
            let s2 = slot.clone();
            let putter = loom::thread::spawn(move || {
                s2.value.with_mut(|p| {
                    // SAFETY: test-only — the racy write under test.
                    unsafe { *p = 7 };
                });
                s2.state.store(1, Ordering::Relaxed); // MUTATION: was Release
            });
            loop {
                // MUTATION: was Acquire.
                if slot.state.load(Ordering::Relaxed) == 1 {
                    let v = slot.value.with(|p| {
                        // SAFETY: test-only — the racy read under test.
                        unsafe { *p }
                    });
                    assert_eq!(v, 7);
                    break;
                }
                loom::thread::yield_now();
            }
            putter.join().unwrap();
        });
    }));
    assert!(
        result.is_err(),
        "the Relaxed hand-off mutation must be caught as a data race"
    );
}
