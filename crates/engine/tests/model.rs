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

use engine::{Cmd, SpscRing};
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

fn pkt(w: u64) -> Cmd {
    Cmd::Pkt(KeyBytes::new(&[w as u8]), w)
}

/// The session's marker protocol (`engine::session`) in miniature,
/// through the real ring: the producer pushes packets, an **in-band**
/// seal marker, more packets and the in-band stop marker without ever
/// pausing, so the stop waits for room behind queued items; the worker
/// drains in chunks like `session::worker_loop`, splits its stream at
/// the seal and returns both epochs at the stop. On every schedule the
/// boundaries must be exact (packets pushed before the seal land in
/// epoch 0, after it in epoch 1, and nothing is left behind the stop —
/// FIFO through the ring) and the union must conserve the stream
/// weight.
#[test]
fn seal_during_push_keeps_fifo_and_conservation() {
    check_exhaustive(|| {
        let ring: Arc<SpscRing<Cmd>> = Arc::new(SpscRing::new(4));
        let r2 = ring.clone();
        let worker = loom::thread::spawn(move || {
            let mut sealed = Vec::new();
            let mut epoch = Vec::new();
            let mut chunk = Vec::new();
            loop {
                chunk.clear();
                if r2.pop_chunk(&mut chunk, 2) == 0 {
                    loom::thread::yield_now();
                    continue;
                }
                for &cmd in &chunk {
                    match cmd {
                        Cmd::Pkt(_, w) => epoch.push(w),
                        Cmd::Seal => sealed.push(std::mem::take(&mut epoch)),
                        Cmd::Stop => return (sealed, epoch),
                    }
                }
            }
        });
        // Producer: the seal marker queues behind packets 1 and 2 and
        // ahead of packet 3 — rotation without stopping ingestion — and
        // the stop marker, fifth into a four-slot ring, waits for room.
        for cmd in [pkt(1), pkt(2), Cmd::Seal, pkt(3), Cmd::Stop] {
            let mut c = cmd;
            while let Err(back) = ring.push(c) {
                c = back;
                loom::thread::yield_now();
            }
        }
        let (sealed, next) = worker.join().unwrap();
        assert_eq!(sealed, vec![vec![1, 2]], "epoch boundary moved");
        assert_eq!(next, vec![3], "post-seal packet leaked into epoch 0");
        assert!(ring.is_empty(), "items left behind the stop marker");
        assert_eq!(
            sealed.iter().flatten().sum::<u64>() + next.iter().sum::<u64>(),
            6,
            "rotation lost weight"
        );
    });
}
