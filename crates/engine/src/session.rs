//! The continuously-running ingestion session and its rotation
//! protocol.
//!
//! This is the engine's one producer→ring→shard→merge runtime. A
//! production deployment never stops — it measures in *epochs*: while
//! epoch `N+1` streams in, epoch `N` is sealed, merged off the hot
//! path, and queried. [`EngineSession`] is that lifecycle, and the
//! one-shot [`crate::ShardedEngine::run`] is a session sealed once:
//!
//! - every worker owns **two** sketch buffers — the *active* one being
//!   updated and a pre-built *spare*;
//! - [`EngineSession::rotate`] pushes a [`Cmd::Seal`] marker through
//!   each ring, **in band** behind the packets already queued, so the
//!   epoch boundary is exact per shard (a packet is in epoch `N` iff it
//!   was pushed before `rotate` returned) and ingestion never stops;
//! - on the marker, a worker swaps active↔spare (O(1), no allocation on
//!   the seal path) and hands the sealed shard through its
//!   [`SealSlot`] — a one-deep SPSC hand-off cell built on the
//!   cfg-switched primitives in `src/sync.rs`, so the loom model tests
//!   interleave the real implementation;
//! - [`EngineSession::collect`] takes the sealed shards and merges them
//!   on the *caller's* thread — the expensive merge never blocks
//!   ingestion, which is already filling the next epoch.
//!
//! Backpressure instead of loss, everywhere: a full ring retries, a
//! still-occupied seal slot makes the worker wait for the collector
//! (bounded by one epoch — rotation faster than collection is a caller
//! pacing bug), and both waits yield so oversubscribed hosts progress.
//! Every producer-side wait also checks that the worker it waits on is
//! still running: a worker that panicked is joined and its panic
//! re-raised on the producer, so a shard bug surfaces instead of
//! hanging ingestion.

use crate::ring::SpscRing;
use crate::sharded::{EngineConfig, ShardedEngine};
use crate::sync;
use cocosketch::{BasicCocoSketch, Epoch, FlowTable};
use sketches::MergeSketch;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use traffic::{KeyBytes, KeySpec};

/// One ring item of a session: a packet, or the epoch boundary.
///
/// Seal markers travel the same FIFO as packets, which is what makes
/// the boundary exact without stopping the producer: everything ahead
/// of the marker is epoch `N`, everything behind it is `N+1`.
#[derive(Debug, Clone, Copy)]
pub enum Cmd {
    /// A pre-projected packet: full key and weight.
    Pkt(KeyBytes, u64),
    /// The epoch boundary marker pushed by [`EngineSession::rotate`].
    Seal,
}

/// A one-deep hand-off cell for sealed shards (SPSC: the shard worker
/// puts, the collector takes).
///
/// `state` is the slot's ownership token: `EMPTY` means the cell
/// belongs to the putter, `FULL` means it belongs to the taker. Each
/// side writes `state` only to hand the cell to the other side, with
/// release/acquire ordering the cell access before the hand-off —
/// the same transfer discipline as the ring's head/tail, checked by
/// the same loom model tests (`tests/model.rs`).
pub struct SealSlot<T> {
    state: sync::AtomicUsize,
    value: sync::UnsafeCell<Option<T>>,
}

const EMPTY: usize = 0;
const FULL: usize = 1;

// SAFETY: the cell is accessed only by the side that currently owns it
// per `state` (EMPTY: putter, FULL: taker), and every ownership
// transfer is a release-store observed by an acquire-load before the
// other side touches the cell — so all cell accesses are ordered, and
// with `T: Send` the value may cross threads. The single-putter/
// single-taker discipline is the caller's contract (documented on the
// type); the loom model tests exercise it under bounded schedules.
unsafe impl<T: Send> Sync for SealSlot<T> {}

impl<T> Default for SealSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SealSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self {
            state: sync::AtomicUsize::new(EMPTY),
            value: sync::UnsafeCell::new(None),
        }
    }

    /// Putter side: hand `value` to the taker, or give it back when the
    /// previous hand-off has not been taken yet.
    pub fn try_put(&self, value: T) -> Result<(), T> {
        if self.state.load(sync::Ordering::Acquire) != EMPTY {
            return Err(value);
        }
        self.value.with_mut(|cell| {
            // SAFETY: the acquire-load above observed EMPTY, so the
            // cell belongs to the putter (us): the taker only touches
            // it after the release-store of FULL below, which orders
            // this write before any taker read.
            unsafe { *cell = Some(value) };
        });
        self.state.store(FULL, sync::Ordering::Release);
        Ok(())
    }

    /// Putter side: [`try_put`](Self::try_put) retried (yielding) until
    /// the taker has drained the previous hand-off.
    pub fn put(&self, mut value: T) {
        loop {
            match self.try_put(value) {
                Ok(()) => return,
                Err(back) => {
                    value = back;
                    sync::yield_now();
                }
            }
        }
    }

    /// Taker side: take the handed-off value, or `None` when the putter
    /// has not sealed one yet.
    pub fn try_take(&self) -> Option<T> {
        if self.state.load(sync::Ordering::Acquire) != FULL {
            return None;
        }
        let value = self.value.with_mut(|cell| {
            // SAFETY: the acquire-load above observed FULL, so the cell
            // belongs to the taker (us) and the putter's write to it
            // happened-before (release/acquire on `state`); the putter
            // touches it again only after the release-store of EMPTY
            // below.
            unsafe { (*cell).take() }
        });
        self.state.store(EMPTY, sync::Ordering::Release);
        match value {
            Some(v) => Some(v),
            // state == FULL guarantees the putter stored Some.
            None => hashkit::invariant::violated("a FULL seal slot holds a value"),
        }
    }

    /// Taker side: [`try_take`](Self::try_take) retried (yielding)
    /// until the putter hands a value over.
    pub fn take(&self) -> T {
        loop {
            if let Some(v) = self.try_take() {
                return v;
            }
            sync::yield_now();
        }
    }
}

/// A sealed shard in flight: the sketch plus its packet/weight
/// accounting for the window.
type SealedShard<S> = (S, u64, u64);

/// Proof token that [`EngineSession::rotate`] was called and the epoch
/// has not been collected yet; consumed by [`EngineSession::collect`].
#[must_use = "a rotated epoch must be collected"]
#[derive(Debug)]
pub struct PendingEpoch {
    id: u64,
}

impl PendingEpoch {
    /// The id the sealed epoch will carry.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// One collected epoch: the merged sketch and its exact accounting.
#[derive(Debug)]
pub struct EpochRun<S = BasicCocoSketch> {
    /// Epoch id (dense from 0, in rotation order; the final
    /// [`EngineSession::finish`] epoch takes the next id).
    pub id: u64,
    /// The merged sketch over exactly this epoch's packets.
    pub sketch: S,
    /// Packets ingested during the epoch.
    pub packets: u64,
    /// Total stream weight ingested during the epoch.
    pub weight: u64,
    /// Per-shard packet counts, for load-balance diagnostics.
    pub per_shard: Vec<u64>,
}

impl<S: MergeSketch> EpochRun<S> {
    /// The epoch's records as a query-plane [`FlowTable`] over `full`.
    pub fn flow_table(&self, full: KeySpec) -> FlowTable {
        FlowTable::new(full, self.sketch.records())
    }

    /// Seal into the persistence-ready [`Epoch`] (tables, id,
    /// accounting) — what an [`cocosketch::EpochStore`] holds and
    /// `cocosketch::epoch::encode` writes.
    pub fn to_epoch(&self, full: KeySpec) -> Epoch {
        Epoch {
            id: self.id,
            packets: self.packets,
            weight: self.weight,
            tables: vec![self.flow_table(full)],
        }
    }
}

/// A continuously-running sharded ingestion session (see module docs).
///
/// Built from an engine's config and shard factory. A session rotates
/// epochs out of a never-stopping stream; [`ShardedEngine::run`] is a
/// session with one push and a [`finish`](Self::finish).
pub struct EngineSession<S: MergeSketch + 'static> {
    config: EngineConfig,
    rings: Vec<Arc<SpscRing<Cmd>>>,
    slots: Vec<Arc<SealSlot<SealedShard<S>>>>,
    done: Arc<AtomicBool>,
    workers: Vec<JoinHandle<SealedShard<S>>>,
    stages: Vec<Vec<Cmd>>,
    next_epoch: u64,
    pending: Option<u64>,
}

impl<S: MergeSketch + 'static> ShardedEngine<S> {
    /// Start a rotating session: spawn the shard workers and return the
    /// producer handle. Feed it with [`EngineSession::push`], seal
    /// windows with [`EngineSession::rotate`]/[`EngineSession::collect`],
    /// and end it with [`EngineSession::finish`].
    pub fn session(&self) -> EngineSession<S> {
        EngineSession::start(*self.config(), self.factory())
    }
}

impl EngineSession<BasicCocoSketch> {
    /// A CocoSketch session straight from a config (shards built like
    /// [`ShardedEngine::new`]).
    pub fn coco(config: EngineConfig) -> Self {
        ShardedEngine::<BasicCocoSketch>::new(config).session()
    }
}

impl<S: MergeSketch + 'static> EngineSession<S> {
    pub(crate) fn start(config: EngineConfig, factory: Arc<dyn Fn() -> S + Send + Sync>) -> Self {
        assert!(config.threads > 0, "need at least one worker thread");
        assert!(config.batch > 0, "producer batch must be positive");
        assert!(
            config.ring_capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        let rings: Vec<Arc<SpscRing<Cmd>>> = (0..config.threads)
            .map(|_| Arc::new(SpscRing::new(config.ring_capacity)))
            .collect();
        let slots: Vec<Arc<SealSlot<SealedShard<S>>>> = (0..config.threads)
            .map(|_| Arc::new(SealSlot::new()))
            .collect();
        let done = Arc::new(AtomicBool::new(false));
        let workers = rings
            .iter()
            .zip(&slots)
            .enumerate()
            .map(|(idx, (ring, slot))| {
                let ring = Arc::clone(ring);
                let slot = Arc::clone(slot);
                let done = Arc::clone(&done);
                let factory = Arc::clone(&factory);
                let batch = config.batch;
                let pin = config.pin;
                std::thread::spawn(move || {
                    // Pin before worker_loop builds its shards: the
                    // first-touch allocations inside (active + spare
                    // sketches) then land NUMA-local to the pinned
                    // core. Best-effort, like the one-shot engine.
                    if pin {
                        let _ = crate::affinity::pin_current_thread(
                            crate::affinity::core_for_shard(idx),
                        );
                    }
                    worker_loop(&ring, &slot, &done, &*factory, batch)
                })
            })
            .collect();
        Self {
            config,
            rings,
            slots,
            done,
            workers,
            stages: (0..config.threads)
                .map(|_| Vec::with_capacity(config.batch))
                .collect(),
            next_epoch: 0,
            pending: None,
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Ingest one pre-projected packet.
    #[inline]
    pub fn push(&mut self, key: KeyBytes, w: u64) {
        let shard = ShardedEngine::<S>::shard_of(&key, self.config.threads);
        self.stages[shard].push(Cmd::Pkt(key, w)); // LINT: bounded(shard_of() < threads = stages.len())
                                                   // LINT: bounded(same shard_of() bound)
        if self.stages[shard].len() == self.config.batch {
            self.flush(shard);
        }
    }

    /// Ingest a batch of pre-projected packets.
    pub fn push_batch(&mut self, packets: &[(KeyBytes, u64)]) {
        for &(key, w) in packets {
            self.push(key, w);
        }
    }

    fn flush(&mut self, shard: usize) {
        let mut sent = 0usize;
        // LINT: bounded(callers pass shard = shard_of() < threads = stages.len())
        while sent < self.stages[shard].len() {
            let pushed = self.rings[shard].push_slice(&self.stages[shard][sent..]); // LINT: bounded(shard < threads = rings.len() = stages.len(); sent < stage len loop condition)
            if pushed == 0 {
                self.wait_on(shard);
            }
            sent += pushed;
        }
        self.stages[shard].clear(); // LINT: bounded(same shard < threads bound)
    }

    /// One round of waiting on worker `shard` — its ring is full, or its
    /// sealed shard has not arrived: yield, unless the worker has
    /// already exited. Workers return only after [`finish`](Self::finish)
    /// sets `done`, so an early exit is a panic; re-raise its payload,
    /// as `finish` does, instead of waiting forever on a consumer that
    /// is gone.
    fn wait_on(&mut self, shard: usize) {
        // LINT: bounded(callers pass shard < threads = workers.len(); finish/Drop are the only drains)
        if self.workers[shard].is_finished() {
            if let Err(payload) = self.workers.swap_remove(shard).join() {
                std::panic::resume_unwind(payload);
            }
            hashkit::invariant::violated("shard workers run until the session finishes");
        }
        std::thread::yield_now();
    }

    /// Seal the current epoch *without stopping ingestion*: flush the
    /// stages and push an in-band [`Cmd::Seal`] marker down every ring.
    /// Packets pushed after this call land in the next epoch. The
    /// sealed shards are handed off asynchronously; merge them (off the
    /// hot path) with [`collect`](Self::collect).
    ///
    /// # Panics
    /// Panics when the previous epoch has not been collected yet: the
    /// seal slots are one deep, so rotation outrunning collection would
    /// stall the workers.
    pub fn rotate(&mut self) -> PendingEpoch {
        assert!(
            self.pending.is_none(),
            "collect the pending epoch before rotating again"
        );
        for shard in 0..self.config.threads {
            self.flush(shard);
        }
        for shard in 0..self.config.threads {
            // LINT: bounded(shard < threads = rings.len())
            while self.rings[shard].push(Cmd::Seal).is_err() {
                self.wait_on(shard);
            }
        }
        let id = self.next_epoch;
        self.next_epoch += 1;
        self.pending = Some(id);
        PendingEpoch { id }
    }

    /// Wait for every worker's sealed shard and merge them into the
    /// epoch's sketch — on the caller's thread, while the workers
    /// ingest the next epoch.
    pub fn collect(&mut self, pending: PendingEpoch) -> EpochRun<S> {
        debug_assert_eq!(self.pending, Some(pending.id));
        let mut shards = Vec::with_capacity(self.config.threads);
        let mut per_shard = Vec::with_capacity(self.config.threads);
        let mut packets = 0u64;
        let mut weight = 0u64;
        for shard in 0..self.config.threads {
            let (sketch, shard_packets, shard_weight) = loop {
                // LINT: bounded(shard < threads = slots.len())
                match self.slots[shard].try_take() {
                    Some(sealed) => break sealed,
                    None => self.wait_on(shard),
                }
            };
            shards.push(sketch);
            per_shard.push(shard_packets);
            packets += shard_packets;
            weight += shard_weight;
        }
        self.pending = None;
        EpochRun {
            id: pending.id,
            sketch: crate::sharded::merge_shards(shards, weight),
            packets,
            weight,
            per_shard,
        }
    }

    /// [`rotate`](Self::rotate) + [`collect`](Self::collect) in one
    /// call, for callers that do not overlap collection with ingest.
    pub fn rotate_collect(&mut self) -> EpochRun<S> {
        let pending = self.rotate();
        self.collect(pending)
    }

    /// End the session: seal whatever has been ingested since the last
    /// rotation as the final epoch, join the workers, and merge.
    ///
    /// # Panics
    /// Panics when a rotated epoch has not been collected, or when a
    /// worker panicked (the payload is re-raised).
    pub fn finish(mut self) -> EpochRun<S> {
        assert!(
            self.pending.is_none(),
            "collect the pending epoch before finishing"
        );
        for shard in 0..self.config.threads {
            self.flush(shard);
        }
        self.done.store(true, Ordering::Release);
        let mut shards = Vec::with_capacity(self.config.threads);
        let mut per_shard = Vec::with_capacity(self.config.threads);
        let mut packets = 0u64;
        let mut weight = 0u64;
        for worker in self.workers.drain(..) {
            let (sketch, shard_packets, shard_weight) = match worker.join() {
                Ok(result) => result,
                // A worker panic is a bug in the shard update path
                // itself; re-raise it with its original payload.
                Err(payload) => std::panic::resume_unwind(payload),
            };
            shards.push(sketch);
            per_shard.push(shard_packets);
            packets += shard_packets;
            weight += shard_weight;
        }
        EpochRun {
            id: self.next_epoch,
            sketch: crate::sharded::merge_shards(shards, weight),
            packets,
            weight,
            per_shard,
        }
    }
}

impl<S: MergeSketch + 'static> Drop for EngineSession<S> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // finished normally
        }
        // Abandoned session: release the workers. They bail out of a
        // blocked seal hand-off once `done` is set (dropping that
        // epoch's data — acceptable only on this teardown path), so
        // joining cannot deadlock even with an uncollected rotation in
        // flight.
        self.done.store(true, Ordering::Release);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The shard worker: drain the ring in chunks, batch contiguous
/// packets through the sketch's batched hot path, and on a seal marker
/// swap the double buffer and hand the sealed shard off.
fn worker_loop<S: MergeSketch>(
    ring: &SpscRing<Cmd>,
    slot: &SealSlot<SealedShard<S>>,
    done: &AtomicBool,
    factory: &(dyn Fn() -> S + Send + Sync),
    batch: usize,
) -> SealedShard<S> {
    let mut active = factory();
    // The double buffer: a pre-built spare makes the seal-path swap
    // O(1) — the replacement construction happens after the hand-off.
    let mut spare = Some(factory());
    let mut chunk: Vec<Cmd> = Vec::with_capacity(batch);
    let mut pkts: Vec<(KeyBytes, u64)> = Vec::with_capacity(batch);
    let mut packets = 0u64;
    let mut weight = 0u64;
    loop {
        chunk.clear();
        if ring.pop_chunk(&mut chunk, batch) > 0 {
            for &cmd in &chunk {
                match cmd {
                    Cmd::Pkt(key, w) => pkts.push((key, w)),
                    Cmd::Seal => {
                        if !pkts.is_empty() {
                            active.update_batch(&pkts);
                            packets += pkts.len() as u64;
                            weight += pkts.iter().map(|&(_, w)| w).sum::<u64>();
                            pkts.clear();
                        }
                        let next = match spare.take() {
                            Some(next) => next,
                            // Unreachable: the spare is rebuilt right
                            // after every hand-off below.
                            None => factory(),
                        };
                        let sealed = std::mem::replace(&mut active, next);
                        let mut payload = (sealed, packets, weight);
                        packets = 0;
                        weight = 0;
                        loop {
                            match slot.try_put(payload) {
                                Ok(()) => break,
                                Err(back) => {
                                    if done.load(Ordering::Acquire) {
                                        // Teardown with an uncollected
                                        // epoch: drop it (Drop path).
                                        break;
                                    }
                                    payload = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        spare = Some(factory());
                    }
                }
            }
            if !pkts.is_empty() {
                active.update_batch(&pkts);
                packets += pkts.len() as u64;
                weight += pkts.iter().map(|&(_, w)| w).sum::<u64>();
                pkts.clear();
            }
        } else if done.load(Ordering::Acquire) && ring.is_empty() {
            break;
        } else {
            // PMD discipline is busy-polling; yield so oversubscribed
            // hosts still make progress.
            std::thread::yield_now();
        }
    }
    (active, packets, weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches::{CmHeap, ElasticSketch, Sketch};
    use traffic::gen::{generate, TraceConfig};

    fn packets(n: usize, seed_salt: u64) -> Vec<(KeyBytes, u64)> {
        let t = generate(&TraceConfig {
            packets: n,
            flows: (n / 20).max(10),
            seed: 42 + seed_salt,
            ..TraceConfig::default()
        });
        t.packets
            .iter()
            .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
            .collect()
    }

    fn weight_of(pkts: &[(KeyBytes, u64)]) -> u64 {
        pkts.iter().map(|&(_, w)| w).sum()
    }

    #[test]
    fn seal_slot_hands_off_in_order() {
        let slot: SealSlot<u32> = SealSlot::new();
        assert!(slot.try_take().is_none());
        slot.put(1);
        assert_eq!(slot.try_put(2), Err(2), "one-deep: full slot rejects");
        assert_eq!(slot.take(), 1);
        slot.put(2);
        assert_eq!(slot.take(), 2);
        assert!(slot.try_take().is_none());
    }

    #[test]
    fn epochs_partition_the_stream_exactly() {
        for threads in [1, 2, 4] {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let w1 = packets(10_000, 0);
            let w2 = packets(7_000, 1);
            let mut session = EngineSession::coco(cfg);
            session.push_batch(&w1);
            let e1 = session.rotate_collect();
            session.push_batch(&w2);
            let e2 = session.finish();
            assert_eq!((e1.id, e2.id), (0, 1));
            assert_eq!(e1.packets, w1.len() as u64);
            assert_eq!(e1.weight, weight_of(&w1), "epoch 0 conserves window 1");
            assert_eq!(e2.packets, w2.len() as u64);
            assert_eq!(e2.weight, weight_of(&w2), "epoch 1 conserves window 2");
            assert_eq!(e1.sketch.total_value(), weight_of(&w1));
            assert_eq!(e2.sketch.total_value(), weight_of(&w2));
        }
    }

    #[test]
    fn epoch_matches_one_shot_run_bit_for_bit() {
        // A single sealed epoch must be indistinguishable from the
        // one-shot engine over the same packets — at one thread, where
        // `run` takes the inline single-shard path, and beyond.
        let pkts = packets(20_000, 2);
        for threads in [1, 2, 4] {
            let cfg = EngineConfig {
                threads,
                ..EngineConfig::default()
            };
            let one_shot = ShardedEngine::<BasicCocoSketch>::new(cfg).run(&pkts);
            let mut session = EngineSession::coco(cfg);
            session.push_batch(&pkts);
            let epoch = session.rotate_collect();
            session.finish();
            assert_eq!(one_shot.per_shard, epoch.per_shard, "{threads} threads");
            let mut a = one_shot.sketch.records();
            let mut b = epoch.sketch.records();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(
                a, b,
                "rotation must not perturb results at {threads} threads"
            );
        }
    }

    #[test]
    fn many_rotations_stay_conserving() {
        let cfg = EngineConfig {
            threads: 2,
            ring_capacity: 256,
            batch: 64,
            ..EngineConfig::default()
        };
        let mut session = EngineSession::coco(cfg);
        let mut expected = Vec::new();
        for epoch in 0..5u64 {
            let pkts = packets(3_000, 10 + epoch);
            session.push_batch(&pkts);
            expected.push((pkts.len() as u64, weight_of(&pkts)));
            let run = session.rotate_collect();
            assert_eq!(run.id, epoch);
            assert_eq!((run.packets, run.weight), expected[epoch as usize]);
            assert_eq!(run.sketch.total_value(), run.weight);
        }
        let last = session.finish();
        assert_eq!(last.id, 5);
        assert_eq!(last.packets, 0, "nothing after the last rotation");
    }

    #[test]
    fn overlapped_collection_sees_next_epoch_packets() {
        // rotate() then keep pushing *before* collect(): the new
        // packets must land in the next epoch, not the sealed one.
        let cfg = EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        };
        let w1 = packets(5_000, 3);
        let w2 = packets(5_000, 4);
        let mut session = EngineSession::coco(cfg);
        session.push_batch(&w1);
        let pending = session.rotate();
        session.push_batch(&w2); // ingested while epoch 0 is in flight
        let e1 = session.collect(pending);
        let e2 = session.finish();
        assert_eq!(e1.weight, weight_of(&w1));
        assert_eq!(e2.weight, weight_of(&w2));
    }

    #[test]
    fn non_coco_shards_rotate_with_conservation() {
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        let cfg = EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        };
        let w1 = packets(8_000, 5);
        let w2 = packets(6_000, 6);
        // CM-Heap: conserving, so collect() verifies the invariant.
        let eng = ShardedEngine::with_factory(cfg, move || {
            CmHeap::with_memory(64 * 1024, key_bytes, 0xC0C0)
        });
        let mut session = eng.session();
        session.push_batch(&w1);
        let e1 = session.rotate_collect();
        session.push_batch(&w2);
        let e2 = session.finish();
        assert_eq!(e1.sketch.conserved_weight(), Some(weight_of(&w1)));
        assert_eq!(e2.sketch.conserved_weight(), Some(weight_of(&w2)));

        // Elastic: no conservation claim, but rotation still yields
        // per-epoch sketches with sane elephants.
        let eng = ShardedEngine::with_factory(cfg, move || {
            ElasticSketch::with_memory(128 * 1024, key_bytes, 0xC0C0)
        });
        let mut session = eng.session();
        session.push_batch(&w1);
        let e1 = session.rotate_collect();
        session.finish();
        let mut single = ElasticSketch::with_memory(128 * 1024, key_bytes, 0xC0C0);
        single.update_batch(&w1);
        let mut top: Vec<(KeyBytes, u64)> = single.records();
        top.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(v));
        for &(key, est) in top.iter().take(3) {
            let got = e1.sketch.query(&key);
            let rel = (got as f64 - est as f64).abs() / est.max(1) as f64;
            assert!(rel < 0.25, "elephant {est} estimated {got} in sealed epoch");
        }
    }

    #[test]
    fn to_epoch_carries_accounting() {
        let cfg = EngineConfig::default();
        let pkts = packets(2_000, 7);
        let mut session = EngineSession::coco(cfg);
        session.push_batch(&pkts);
        let run = session.rotate_collect();
        session.finish();
        let epoch = run.to_epoch(KeySpec::FIVE_TUPLE);
        assert_eq!(epoch.id, 0);
        assert_eq!(epoch.packets, pkts.len() as u64);
        assert_eq!(epoch.weight, weight_of(&pkts));
        assert_eq!(epoch.primary().total(), weight_of(&pkts));
    }

    #[test]
    #[should_panic(expected = "collect the pending epoch")]
    fn double_rotate_without_collect_panics() {
        let mut session = EngineSession::coco(EngineConfig::default());
        let _pending = session.rotate();
        let _ = session.rotate();
    }

    #[test]
    fn abandoned_session_does_not_hang() {
        let mut session = EngineSession::coco(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        session.push_batch(&packets(1_000, 8));
        let _pending = session.rotate();
        drop(session); // uncollected epoch: Drop must still join
    }

    /// A shard that panics once it has seen `k` packets: a stand-in for
    /// a bug in a shard's update path.
    struct PanicAt {
        k: u64,
        seen: u64,
        inner: CmHeap,
    }

    impl Sketch for PanicAt {
        fn update(&mut self, key: &KeyBytes, w: u64) {
            self.update_batch(&[(*key, w)]);
        }
        fn update_batch(&mut self, batch: &[(KeyBytes, u64)]) {
            self.seen += batch.len() as u64;
            assert!(
                self.seen < self.k,
                "injected shard fault at packet {}",
                self.k
            );
            self.inner.update_batch(batch);
        }
        fn query(&self, key: &KeyBytes) -> u64 {
            self.inner.query(key)
        }
        fn records(&self) -> Vec<(KeyBytes, u64)> {
            self.inner.records()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn name(&self) -> &'static str {
            "panic-at"
        }
    }

    impl MergeSketch for PanicAt {
        fn merge_shard(&mut self, other: Self) -> Result<(), sketches::MergeIncompat> {
            self.inner.merge_shard(other.inner)
        }
    }

    #[test]
    fn worker_panic_surfaces_instead_of_hanging() {
        // A worker that dies stops draining its ring; the producer must
        // re-raise the worker's panic from whichever wait it is in —
        // ring full (flush, rotate) or sealed shard missing (collect) —
        // instead of yielding forever. The session runs on a helper
        // thread behind a watchdog so a hang fails the test.
        use std::sync::mpsc;
        use std::time::Duration;
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        // (threads, packets, rotate before finish): a long push blocks
        // in flush on the dead worker's full ring; a short one fits in
        // the ring and blocks in collect on the missing sealed shard.
        for (threads, n, rotate) in [(2, 50_000, false), (1, 120, true)] {
            let (tx, rx) = mpsc::channel();
            let helper = std::thread::spawn(move || {
                let cfg = EngineConfig {
                    threads,
                    ring_capacity: 64,
                    batch: 16,
                    ..EngineConfig::default()
                };
                let eng = ShardedEngine::with_factory(cfg, move || PanicAt {
                    k: 100,
                    seen: 0,
                    inner: CmHeap::with_memory(16 * 1024, key_bytes, 0xC0C0),
                });
                let pkts = packets(n, 9);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = eng.session();
                    session.push_batch(&pkts);
                    if rotate {
                        session.rotate_collect();
                    }
                    session.finish();
                }));
                let message = match outcome {
                    Ok(()) => String::from("session completed"),
                    Err(payload) => payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_else(|| String::from("non-string panic")),
                };
                let _ = tx.send(message);
            });
            let message = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| {
                    panic!("session hung on a panicked worker ({threads} threads, {n} packets)")
                });
            helper.join().expect("the helper exits after reporting");
            assert!(
                message.contains("injected shard fault at packet 100"),
                "worker panic not re-raised ({threads} threads, {n} packets): {message}"
            );
        }
    }
}
