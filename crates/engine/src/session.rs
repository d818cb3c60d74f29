//! The continuously-running ingestion session and its rotation
//! protocol.
//!
//! A production deployment never stops — it measures in *epochs*: while
//! epoch `N+1` streams in, epoch `N` is sealed, merged off the hot
//! path, and queried. [`EngineSession`] is that lifecycle, and the
//! one-shot [`crate::ShardedEngine::run`] is a session sealed once.
//! Every shard owns **two** sketch buffers — the *active* one being
//! updated and a pre-built *spare* — so sealing swaps them in O(1), with
//! no allocation between the seal and the sealed shard's hand-off. A
//! packet is in epoch `N` iff it was pushed before
//! [`EngineSession::rotate`] returned, and ingestion never stops for the
//! boundary.
//!
//! **One shard** runs on the caller's thread, with no worker, ring or
//! seal slot: [`EngineSession::push`] stages packets and flushes them
//! through the sketch's batched hot path every `batch` packets,
//! [`EngineSession::push_batch`] hands the caller's slice straight to
//! it, `rotate` swaps the spare in, and [`EngineSession::collect`]
//! returns the sealed shard at once. The first push after a rotation
//! builds the next spare, outside the stretch between a seal and its
//! epoch becoming visible. A panic in the shard's update path unwinds
//! out of the push that hit it.
//!
//! **More than one shard** runs the producer→ring→shard→merge runtime:
//!
//! - the producer partitions packets by full-key hash and feeds each
//!   shard's worker thread through a private [`SpscRing`];
//! - `rotate` pushes a [`Cmd::Seal`] marker through each ring, **in
//!   band** behind the packets already queued, so the epoch boundary is
//!   exact per shard;
//! - on the marker, a worker swaps active↔spare, hands the sealed shard
//!   through its [`SealSlot`] — a one-deep SPSC hand-off cell built on
//!   the cfg-switched primitives in `src/sync.rs`, so the loom model
//!   tests interleave the real implementation — and builds its next
//!   spare;
//! - `collect` takes the sealed shards and merges them on the *caller's*
//!   thread — the expensive merge never blocks ingestion, which is
//!   already filling the next epoch.
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

/// Builds one shard sketch; every call yields a merge-compatible one.
pub(crate) type Factory<S> = Arc<dyn Fn() -> S + Send + Sync>;

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

/// A shard's sketch with the packet/weight accounting of the window it
/// covers: the active shard while it ingests, a sealed shard after.
struct Shard<S> {
    sketch: S,
    packets: u64,
    weight: u64,
}

impl<S: MergeSketch> Shard<S> {
    fn new(sketch: S) -> Self {
        Self {
            sketch,
            packets: 0,
            weight: 0,
        }
    }

    /// Run `batch` through the sketch's batched hot path and count it.
    fn ingest(&mut self, batch: &[(KeyBytes, u64)]) {
        if batch.is_empty() {
            return;
        }
        self.sketch.update_batch(batch);
        self.packets += batch.len() as u64;
        self.weight += batch.iter().map(|&(_, w)| w).sum::<u64>();
    }

    /// Seal the window: continue on `next` (a fresh sketch) and return
    /// the sealed shard — an O(1) swap.
    fn seal(&mut self, next: S) -> Self {
        std::mem::replace(self, Self::new(next))
    }
}

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
    /// Epoch `id` from its sealed shards: the shards fold into one
    /// sketch under the merge contract, and the conservation claim
    /// (when the sketch makes one) is checked against the ingested
    /// weight. Both failure modes are constructively unreachable for
    /// session-built shards, so they funnel through the invariant
    /// panic.
    fn from_shards(id: u64, shards: Vec<Shard<S>>) -> Self {
        let mut per_shard = Vec::with_capacity(shards.len());
        let mut packets = 0u64;
        let mut weight = 0u64;
        let mut merged: Option<S> = None;
        for shard in shards {
            per_shard.push(shard.packets);
            packets += shard.packets;
            weight += shard.weight;
            match &mut merged {
                None => merged = Some(shard.sketch),
                Some(acc) => {
                    if let Err(e) = acc.merge_shard(shard.sketch) {
                        hashkit::invariant::violated_err(
                            "shards share one factory by construction",
                            &e,
                        );
                    }
                }
            }
        }
        let Some(sketch) = merged else {
            hashkit::invariant::violated("sessions have at least one shard");
        };
        if let Some(claimed) = sketch.conserved_weight() {
            if claimed != weight {
                hashkit::invariant::violated(&format!(
                    "merged sketch conserves the stream weight \
                     (claims {claimed}, ingested {weight})"
                ));
            }
        }
        Self {
            id,
            sketch,
            packets,
            weight,
            per_shard,
        }
    }

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
    runtime: Runtime<S>,
    next_epoch: u64,
    pending: Option<u64>,
}

/// Where a session's shards run.
enum Runtime<S: MergeSketch + 'static> {
    /// One shard, updated on the caller's thread.
    Inline(Inline<S>),
    /// One ring-fed worker thread per shard.
    Workers(Workers<S>),
}

impl<S: MergeSketch + 'static> ShardedEngine<S> {
    /// Start a rotating session: build the shards (on their worker
    /// threads when there is more than one) and return the producer
    /// handle. Feed it with [`EngineSession::push`], seal windows with
    /// [`EngineSession::rotate`]/[`EngineSession::collect`], and end it
    /// with [`EngineSession::finish`].
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
    pub(crate) fn start(config: EngineConfig, factory: Factory<S>) -> Self {
        assert!(config.threads > 0, "need at least one worker thread");
        assert!(config.batch > 0, "producer batch must be positive");
        assert!(
            config.ring_capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        let runtime = if config.threads == 1 {
            Runtime::Inline(Inline::start(&config, factory))
        } else {
            Runtime::Workers(Workers::start(&config, &factory))
        };
        Self {
            config,
            runtime,
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
        match &mut self.runtime {
            Runtime::Inline(shard) => shard.push(key, w),
            Runtime::Workers(workers) => workers.push(key, w),
        }
    }

    /// Ingest a batch of pre-projected packets. One shard takes the
    /// slice straight into its batched hot path.
    pub fn push_batch(&mut self, packets: &[(KeyBytes, u64)]) {
        match &mut self.runtime {
            Runtime::Inline(shard) => shard.push_batch(packets),
            Runtime::Workers(workers) => {
                for &(key, w) in packets {
                    workers.push(key, w);
                }
            }
        }
    }

    /// Seal the current epoch *without stopping ingestion*: packets
    /// pushed after this call land in the next epoch. One shard swaps
    /// its active sketch for the spare; more flush their stages and
    /// push an in-band [`Cmd::Seal`] marker down every ring, and the
    /// workers hand their sealed shards off asynchronously. Take the
    /// epoch (merged off the hot path) with [`collect`](Self::collect).
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
        match &mut self.runtime {
            Runtime::Inline(shard) => shard.seal(),
            Runtime::Workers(workers) => workers.seal(),
        }
        let id = self.next_epoch;
        self.next_epoch += 1;
        self.pending = Some(id);
        PendingEpoch { id }
    }

    /// The sealed epoch. One shard returns it at once; with more, each
    /// worker's sealed shard is waited for and they merge on the
    /// caller's thread, while the workers ingest the next epoch.
    pub fn collect(&mut self, pending: PendingEpoch) -> EpochRun<S> {
        debug_assert_eq!(self.pending, Some(pending.id));
        let shards = match &mut self.runtime {
            Runtime::Inline(shard) => vec![shard.take_sealed()],
            Runtime::Workers(workers) => workers.take_sealed(),
        };
        self.pending = None;
        EpochRun::from_shards(pending.id, shards)
    }

    /// [`rotate`](Self::rotate) + [`collect`](Self::collect) in one
    /// call, for callers that do not overlap collection with ingest.
    pub fn rotate_collect(&mut self) -> EpochRun<S> {
        let pending = self.rotate();
        self.collect(pending)
    }

    /// End the session: seal whatever has been ingested since the last
    /// rotation as the final epoch, join the workers (if any), and
    /// merge.
    ///
    /// # Panics
    /// Panics when a rotated epoch has not been collected, or when a
    /// worker panicked (the payload is re-raised).
    pub fn finish(self) -> EpochRun<S> {
        assert!(
            self.pending.is_none(),
            "collect the pending epoch before finishing"
        );
        let shards = match self.runtime {
            Runtime::Inline(shard) => vec![shard.finish()],
            Runtime::Workers(workers) => workers.finish(),
        };
        EpochRun::from_shards(self.next_epoch, shards)
    }
}

/// The one-shard runtime: the caller's thread updates the shard.
struct Inline<S> {
    factory: Factory<S>,
    batch: usize,
    /// Packets `push` staged for the next batch.
    stage: Vec<(KeyBytes, u64)>,
    active: Shard<S>,
    /// The pre-built sketch `seal` swaps in; `None` from a rotation
    /// until the next push builds its replacement.
    spare: Option<S>,
    /// The shard `seal` set aside, until `collect` takes it.
    sealed: Option<Shard<S>>,
}

impl<S: MergeSketch> Inline<S> {
    fn start(config: &EngineConfig, factory: Factory<S>) -> Self {
        // Pin before building the shard and its spare, so their
        // first-touch pages land NUMA-local to the core that ingests.
        // Best-effort, like the workers' pinning.
        if config.pin {
            let _ = crate::affinity::pin_current_thread(crate::affinity::core_for_shard(0));
        }
        let active = Shard::new(factory());
        let spare = Some(factory());
        Self {
            factory,
            batch: config.batch,
            stage: Vec::with_capacity(config.batch),
            active,
            spare,
            sealed: None,
        }
    }

    #[inline]
    fn push(&mut self, key: KeyBytes, w: u64) {
        if self.spare.is_none() {
            self.build_spare();
        }
        self.stage.push((key, w));
        if self.stage.len() == self.batch {
            self.flush();
        }
    }

    fn push_batch(&mut self, packets: &[(KeyBytes, u64)]) {
        if self.spare.is_none() {
            self.build_spare();
        }
        self.flush();
        self.active.ingest(packets);
    }

    /// The first push after a rotation builds the next spare: after the
    /// sealed epoch was handed off, before the next seal needs it.
    #[cold]
    fn build_spare(&mut self) {
        self.spare = Some((self.factory)());
    }

    fn flush(&mut self) {
        self.active.ingest(&self.stage);
        self.stage.clear();
    }

    fn seal(&mut self) {
        self.flush();
        // Pushes rebuild the spare, so it is missing only when nothing
        // was pushed since the last rotation: the epoch is empty, and
        // building its successor here is the only work it has.
        let next = match self.spare.take() {
            Some(next) => next,
            None => (self.factory)(),
        };
        self.sealed = Some(self.active.seal(next));
    }

    fn take_sealed(&mut self) -> Shard<S> {
        match self.sealed.take() {
            Some(sealed) => sealed,
            None => hashkit::invariant::violated("a rotated session holds its sealed shard"),
        }
    }

    fn finish(mut self) -> Shard<S> {
        self.flush();
        self.active
    }
}

/// The ring runtime: one worker thread, ring and seal slot per shard.
struct Workers<S: MergeSketch + 'static> {
    batch: usize,
    rings: Vec<Arc<SpscRing<Cmd>>>,
    slots: Vec<Arc<SealSlot<Shard<S>>>>,
    done: Arc<AtomicBool>,
    workers: Vec<JoinHandle<Shard<S>>>,
    stages: Vec<Vec<Cmd>>,
}

impl<S: MergeSketch + 'static> Workers<S> {
    fn start(config: &EngineConfig, factory: &Factory<S>) -> Self {
        let rings: Vec<Arc<SpscRing<Cmd>>> = (0..config.threads)
            .map(|_| Arc::new(SpscRing::new(config.ring_capacity)))
            .collect();
        let slots: Vec<Arc<SealSlot<Shard<S>>>> = (0..config.threads)
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
                let factory = Arc::clone(factory);
                let batch = config.batch;
                let pin = config.pin;
                std::thread::spawn(move || {
                    // Pin before worker_loop builds its shards: the
                    // first-touch allocations inside (active + spare
                    // sketches) then land NUMA-local to the pinned
                    // core. Best-effort, like the one-shard session.
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
            batch: config.batch,
            rings,
            slots,
            done,
            workers,
            stages: (0..config.threads)
                .map(|_| Vec::with_capacity(config.batch))
                .collect(),
        }
    }

    #[inline]
    fn push(&mut self, key: KeyBytes, w: u64) {
        let shard = ShardedEngine::<S>::shard_of(&key, self.stages.len());
        self.stages[shard].push(Cmd::Pkt(key, w)); // LINT: bounded(shard_of() < stages.len())
                                                   // LINT: bounded(same shard_of() bound)
        if self.stages[shard].len() == self.batch {
            self.flush(shard);
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
    /// already exited. Workers return only after `finish` sets `done`,
    /// so an early exit is a panic; re-raise its payload, as `finish`
    /// does, instead of waiting forever on a consumer that is gone.
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

    /// Flush every stage, then push one seal marker down every ring.
    fn seal(&mut self) {
        for shard in 0..self.rings.len() {
            self.flush(shard);
        }
        for shard in 0..self.rings.len() {
            // LINT: bounded(shard < threads = rings.len())
            while self.rings[shard].push(Cmd::Seal).is_err() {
                self.wait_on(shard);
            }
        }
    }

    /// Wait for every worker's sealed shard.
    fn take_sealed(&mut self) -> Vec<Shard<S>> {
        (0..self.slots.len())
            .map(|shard| loop {
                // LINT: bounded(shard < threads = slots.len())
                match self.slots[shard].try_take() {
                    Some(sealed) => break sealed,
                    None => self.wait_on(shard),
                }
            })
            .collect()
    }

    /// Flush the stages, release the workers and join them: each
    /// returns its active shard.
    fn finish(mut self) -> Vec<Shard<S>> {
        for shard in 0..self.rings.len() {
            self.flush(shard);
        }
        self.done.store(true, Ordering::Release);
        self.workers
            .drain(..)
            .map(|worker| match worker.join() {
                Ok(shard) => shard,
                // A worker panic is a bug in the shard update path
                // itself; re-raise it with its original payload.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

impl<S: MergeSketch + 'static> Drop for Workers<S> {
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
    slot: &SealSlot<Shard<S>>,
    done: &AtomicBool,
    factory: &(dyn Fn() -> S + Send + Sync),
    batch: usize,
) -> Shard<S> {
    let mut active = Shard::new(factory());
    // The double buffer: a pre-built spare makes the seal-path swap
    // O(1) — the replacement construction happens after the hand-off.
    let mut spare = Some(factory());
    let mut chunk: Vec<Cmd> = Vec::with_capacity(batch);
    let mut pkts: Vec<(KeyBytes, u64)> = Vec::with_capacity(batch);
    loop {
        chunk.clear();
        if ring.pop_chunk(&mut chunk, batch) > 0 {
            for &cmd in &chunk {
                match cmd {
                    Cmd::Pkt(key, w) => pkts.push((key, w)),
                    Cmd::Seal => {
                        active.ingest(&pkts);
                        pkts.clear();
                        let next = match spare.take() {
                            Some(next) => next,
                            // Unreachable: the spare is rebuilt right
                            // after every hand-off below.
                            None => factory(),
                        };
                        let mut payload = active.seal(next);
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
            active.ingest(&pkts);
            pkts.clear();
        } else if done.load(Ordering::Acquire) && ring.is_empty() {
            break;
        } else {
            // PMD discipline is busy-polling; yield so oversubscribed
            // hosts still make progress.
            std::thread::yield_now();
        }
    }
    active
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
        // both update the shard on the caller's thread, and beyond.
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
    fn one_shard_epochs_match_one_update_batch_per_window() {
        // At one thread the caller's thread updates the shard. However
        // pushes split a window — single packets or slices just under,
        // at and over the batch size, or a 4096-packet slice — and
        // wherever rotations fall (one seals an empty window, one is
        // collected after the next window's first pushes), each epoch
        // must equal one `update_batch` over exactly its window on a
        // fresh factory sketch. The sketch is small, so replacements
        // make its records depend on the order packets arrive in.
        let cfg = EngineConfig {
            buckets: 64,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.threads, 1);
        let b = cfg.batch;
        let stream = packets(30_000, 12);
        // Per window, its pushes: (one packet per `push`, packets).
        let windows: Vec<Vec<(bool, usize)>> = vec![
            vec![(true, 1), (false, b - 1), (true, b), (false, b + 1)],
            vec![],
            vec![(false, 4096), (true, b + 1), (false, 1), (true, b - 1)],
            vec![(true, 4096), (false, b)],
            vec![(false, b - 1), (true, 1)],
        ];
        let fresh = || BasicCocoSketch::new(cfg.d, cfg.buckets, cfg.key_bytes, cfg.seed);
        let mut session = EngineSession::coco(cfg);
        let mut rest = &stream[..];
        let mut epochs = Vec::new();
        let mut spans = Vec::new();
        let mut pending: Option<PendingEpoch> = None;
        for (w, pushes) in windows.iter().enumerate() {
            let span = pushes.iter().map(|&(_, n)| n).sum::<usize>();
            let (window, tail) = rest.split_at(span);
            rest = tail;
            let mut at = 0;
            for &(one_by_one, n) in pushes {
                let part = &window[at..at + n];
                at += n;
                if one_by_one {
                    for &(key, weight) in part {
                        session.push(key, weight);
                    }
                } else {
                    session.push_batch(part);
                }
                // Window 3's first push lands while window 2 is still
                // sealed and uncollected.
                if let Some(p) = pending.take() {
                    epochs.push(session.collect(p));
                }
            }
            spans.push(window);
            if w == 2 {
                pending = Some(session.rotate());
            } else if w + 1 < windows.len() {
                epochs.push(session.rotate_collect());
            }
        }
        epochs.push(session.finish());
        assert_eq!(epochs.len(), windows.len());
        for (id, (epoch, window)) in epochs.iter().zip(&spans).enumerate() {
            let mut single = fresh();
            single.update_batch(window);
            let mut want = single.records();
            let mut got = epoch.sketch.records();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(epoch.id, id as u64);
            assert_eq!(got, want, "epoch {id} records");
            assert_eq!(epoch.packets, window.len() as u64, "epoch {id} packets");
            assert_eq!(epoch.weight, weight_of(window), "epoch {id} weight");
            assert_eq!(epoch.per_shard, vec![window.len() as u64], "epoch {id}");
        }
    }

    #[test]
    fn abandoned_session_does_not_hang() {
        for threads in [1, 2] {
            let mut session = EngineSession::coco(EngineConfig {
                threads,
                ..EngineConfig::default()
            });
            session.push_batch(&packets(1_000, 8));
            let _pending = session.rotate();
            drop(session); // uncollected epoch: Drop must still join
        }
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
        // instead of yielding forever. A single shard has no worker:
        // its panic unwinds on the caller, inside `push_batch`. The
        // session runs on a helper thread behind a watchdog so a hang
        // fails the test.
        use std::sync::mpsc;
        use std::time::Duration;
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        // (threads, packets, rotate before finish): at two threads the
        // long push blocks in flush on the dead worker's full ring; at
        // one, the shard panics inside the push itself.
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
                let mut pushed = false;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = eng.session();
                    session.push_batch(&pkts);
                    pushed = true;
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
                let _ = tx.send((message, pushed));
            });
            let (message, pushed) = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| {
                    panic!("session hung on a panicked worker ({threads} threads, {n} packets)")
                });
            helper.join().expect("the helper exits after reporting");
            assert!(
                message.contains("injected shard fault at packet 100"),
                "worker panic not re-raised ({threads} threads, {n} packets): {message}"
            );
            if threads == 1 {
                assert!(!pushed, "a single shard panics inside push_batch");
            }
        }
    }
}
