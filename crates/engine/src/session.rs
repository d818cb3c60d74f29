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
//! One state machine drives every shard: it stages packets and flushes
//! them through the sketch's batched hot path every `batch` packets,
//! seals by swapping the spare in, and builds the next spare on the
//! first push after a seal, outside the stretch between a seal and its
//! epoch becoming visible. Where it runs depends on the shard count:
//!
//! - **One shard** runs on the caller's thread, with no worker or ring:
//!   [`EngineSession::push`] feeds the state machine,
//!   [`EngineSession::push_batch`] hands the caller's slice straight to
//!   the sketch, `rotate` seals, and [`EngineSession::collect`] returns
//!   the sealed shard at once. A panic in the shard's update path
//!   unwinds out of the push that hit it.
//! - **More shards** run producer→ring→shard→merge. The producer
//!   partitions packets by full-key hash and feeds each shard's worker
//!   thread through a private [`SpscRing`]. Markers travel the rings
//!   **in band**, behind the packets already queued, so every boundary
//!   is exact per shard: `rotate` pushes a [`Cmd::Seal`], on which the
//!   worker seals and sends the sealed shard back over a one-deep
//!   channel, and `finish` (or dropping the session) pushes a
//!   [`Cmd::Stop`], on which the worker returns its active shard.
//!   `collect` merges the sealed shards on the *caller's* thread — the
//!   expensive merge never blocks ingestion, which is already filling
//!   the next epoch.
//!
//! Backpressure instead of loss: a full ring retries, yielding so
//! oversubscribed hosts progress. Workers never wait on the collector:
//! `rotate` refuses to seal before the previous epoch is collected, so a
//! worker's channel is empty whenever it sends. Every producer-side wait
//! checks that the worker it waits on is still running: a worker that
//! panicked is joined and its panic re-raised on the producer, so a
//! shard bug surfaces instead of hanging ingestion.

use crate::ring::SpscRing;
use crate::sharded::{EngineConfig, ShardedEngine};
use cocosketch::{BasicCocoSketch, Epoch, FlowTable};
use sketches::MergeSketch;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use traffic::{KeyBytes, KeySpec};

/// Builds one shard sketch; every call yields a merge-compatible one.
pub(crate) type Factory<S> = Arc<dyn Fn() -> S + Send + Sync>;

/// One ring item of a session: a packet, or a boundary marker.
///
/// Markers travel the same FIFO as packets, which is what makes each
/// boundary exact without stopping the producer: everything ahead of a
/// seal marker is epoch `N`, everything behind it is `N+1`, and nothing
/// follows the stop marker.
#[derive(Debug, Clone, Copy)]
pub enum Cmd {
    /// A pre-projected packet: full key and weight.
    Pkt(KeyBytes, u64),
    /// The epoch boundary marker pushed by [`EngineSession::rotate`].
    Seal,
    /// The end of the stream, pushed by [`EngineSession::finish`] or by
    /// dropping the session: the worker returns its active shard.
    Stop,
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
    /// One shard, driven by the caller's thread.
    Inline(DoubleBuffer<S>),
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
            Runtime::Inline(DoubleBuffer::start(&config, factory, 0))
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
    /// its active sketch for the spare; more flush their stages behind
    /// an in-band [`Cmd::Seal`] marker down every ring, and the workers
    /// send their sealed shards back asynchronously. Take the epoch
    /// (merged off the hot path) with [`collect`](Self::collect).
    ///
    /// # Panics
    /// Panics when the previous epoch has not been collected yet: each
    /// worker's channel holds one sealed shard, so rotation outrunning
    /// collection would stall the workers.
    pub fn rotate(&mut self) -> PendingEpoch {
        assert!(
            self.pending.is_none(),
            "collect the pending epoch before rotating again"
        );
        match &mut self.runtime {
            Runtime::Inline(shard) => shard.seal(),
            Runtime::Workers(workers) => workers.mark(Cmd::Seal),
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
    /// rotation as the final epoch, stop the workers (if any) with an
    /// in-band [`Cmd::Stop`] marker, join them, and merge.
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

/// A shard's state machine — the stage, the double-buffered sketch and
/// the sealed shard — driven by the caller's thread for one shard and
/// by the shard's worker from its ring for more.
struct DoubleBuffer<S> {
    factory: Factory<S>,
    batch: usize,
    /// Packets `push` staged for the next batch.
    stage: Vec<(KeyBytes, u64)>,
    active: Shard<S>,
    /// The pre-built sketch `seal` swaps in; `None` from a rotation
    /// until the next push builds its replacement.
    spare: Option<S>,
    /// The shard `seal` set aside, until `take_sealed` takes it.
    sealed: Option<Shard<S>>,
}

impl<S: MergeSketch> DoubleBuffer<S> {
    /// Build shard `idx`'s state machine on the calling thread.
    fn start(config: &EngineConfig, factory: Factory<S>, idx: usize) -> Self {
        // Pin before building the shard and its spare, so their
        // first-touch pages land NUMA-local to the core that ingests.
        // Best-effort: a failed pin degrades to unpinned ingestion.
        if config.pin {
            let _ = crate::affinity::pin_current_thread(crate::affinity::core_for_shard(idx));
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

/// The ring runtime: per shard, a worker thread that drives the
/// shard's [`DoubleBuffer`] from its ring and sends sealed shards back
/// on a one-deep channel.
struct Workers<S: MergeSketch + 'static> {
    batch: usize,
    rings: Vec<Arc<SpscRing<Cmd>>>,
    sealed: Vec<Receiver<Shard<S>>>,
    /// A worker's handle until it is joined: by `finish`, by the wait
    /// that found it dead, or by `Drop`.
    workers: Vec<Option<JoinHandle<Shard<S>>>>,
    stages: Vec<Vec<Cmd>>,
}

impl<S: MergeSketch + 'static> Workers<S> {
    fn start(config: &EngineConfig, factory: &Factory<S>) -> Self {
        let mut rings = Vec::with_capacity(config.threads);
        let mut sealed = Vec::with_capacity(config.threads);
        let mut workers = Vec::with_capacity(config.threads);
        for idx in 0..config.threads {
            let ring = Arc::new(SpscRing::new(config.ring_capacity));
            let (send, recv) = mpsc::sync_channel(1);
            let worker_ring = Arc::clone(&ring);
            let factory = Arc::clone(factory);
            let config = *config;
            workers.push(Some(std::thread::spawn(move || {
                let shard = DoubleBuffer::start(&config, factory, idx);
                worker_loop(&worker_ring, &send, shard)
            })));
            rings.push(ring);
            sealed.push(recv);
        }
        Self {
            batch: config.batch,
            rings,
            sealed,
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
    /// already exited. Workers return only on the `Stop` marker, so an
    /// early exit is a panic; re-raise its payload, as `finish` does,
    /// instead of waiting forever on a consumer that is gone.
    fn wait_on(&mut self, shard: usize) {
        // LINT: bounded(callers pass shard < threads = workers.len())
        let worker = &mut self.workers[shard];
        let running = worker.as_ref().is_some_and(|w| !w.is_finished());
        if !running {
            if let Some(Err(payload)) = worker.take().map(JoinHandle::join) {
                std::panic::resume_unwind(payload);
            }
            hashkit::invariant::violated("shard workers run until the session stops them");
        }
        std::thread::yield_now();
    }

    /// Flush every stage with `marker` queued behind its packets.
    fn mark(&mut self, marker: Cmd) {
        for shard in 0..self.stages.len() {
            self.stages[shard].push(marker); // LINT: bounded(shard < stages.len())
            self.flush(shard);
        }
    }

    /// Wait for every worker's sealed shard.
    fn take_sealed(&mut self) -> Vec<Shard<S>> {
        (0..self.sealed.len())
            .map(|shard| loop {
                // LINT: bounded(shard < threads = sealed.len())
                match self.sealed[shard].try_recv() {
                    Ok(sealed) => break sealed,
                    // Not sent yet, or never: `wait_on` re-raises the
                    // panic of a worker that dropped its sender.
                    Err(_) => self.wait_on(shard),
                }
            })
            .collect()
    }

    /// Flush the stages behind a `Stop` marker and join the workers:
    /// each returns its active shard.
    fn finish(mut self) -> Vec<Shard<S>> {
        self.mark(Cmd::Stop);
        self.workers
            .iter_mut()
            .map(|worker| match worker.take().map(JoinHandle::join) {
                Some(Ok(shard)) => shard,
                // A worker panic is a bug in the shard update path
                // itself; re-raise it with its original payload.
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                None => {
                    hashkit::invariant::violated("shard workers run until the session stops them")
                }
            })
            .collect()
    }
}

impl<S: MergeSketch + 'static> Drop for Workers<S> {
    fn drop(&mut self) {
        // An abandoned session (`finish` leaves no worker to join):
        // stop each worker in band, behind the packets its ring still
        // holds, and join it. Staged packets and an uncollected epoch
        // are dropped, which is acceptable only on this teardown path.
        // A dead worker drains nothing, so its full ring is given up on.
        for (ring, worker) in self.rings.iter().zip(&mut self.workers) {
            let Some(worker) = worker.take() else {
                continue;
            };
            while ring.push(Cmd::Stop).is_err() && !worker.is_finished() {
                std::thread::yield_now();
            }
            let _ = worker.join();
        }
    }
}

/// The shard worker: drain the ring in chunks into the shard's
/// [`DoubleBuffer`]. A packet is pushed, a `Seal` marker seals and
/// sends the sealed shard back, and the `Stop` marker returns the
/// active shard.
fn worker_loop<S: MergeSketch>(
    ring: &SpscRing<Cmd>,
    sealed: &SyncSender<Shard<S>>,
    mut shard: DoubleBuffer<S>,
) -> Shard<S> {
    let mut chunk: Vec<Cmd> = Vec::with_capacity(shard.batch);
    loop {
        chunk.clear();
        if ring.pop_chunk(&mut chunk, shard.batch) == 0 {
            // PMD discipline is busy-polling; yield so oversubscribed
            // hosts still make progress.
            std::thread::yield_now();
            continue;
        }
        for &cmd in &chunk {
            match cmd {
                Cmd::Pkt(key, w) => shard.push(key, w),
                Cmd::Seal => {
                    shard.seal();
                    // Never blocks: the previous epoch was collected
                    // before this one was sealed. It fails only once
                    // the session is gone, and the epoch goes with it.
                    let _ = sealed.send(shard.take_sealed());
                }
                Cmd::Stop => return shard.finish(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches::{CmHeap, ElasticSketch, Sketch};
    use std::sync::{mpsc, OnceLock};
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
    fn epochs_match_one_update_batch_per_shard_and_window() {
        // However pushes split a window — single packets or slices just
        // under, at and over the batch size, or a 4096-packet slice —
        // and wherever rotations fall (one seals an empty window, one is
        // collected after the next window's first pushes), each epoch
        // must equal an independent reference over exactly its window:
        // the window split by `shard_of`, one `update_batch` per shard
        // on a fresh factory sketch, and the shards folded with
        // `merge_shard` in shard order. At one thread that is a single
        // `update_batch` over the window. The sketch is small, so
        // replacements make its records depend on the order packets
        // arrive in.
        for threads in [1, 2, 3] {
            let cfg = EngineConfig {
                threads,
                buckets: 64,
                ..EngineConfig::default()
            };
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
                let mut parts = vec![Vec::new(); threads];
                for &(key, w) in window.iter() {
                    parts[ShardedEngine::<BasicCocoSketch>::shard_of(&key, threads)].push((key, w));
                }
                let mut reference = fresh();
                reference.update_batch(&parts[0]);
                for part in &parts[1..] {
                    let mut shard = fresh();
                    shard.update_batch(part);
                    reference
                        .merge_shard(shard)
                        .expect("shards from one factory merge");
                }
                let mut want = reference.records();
                let mut got = epoch.sketch.records();
                want.sort_unstable();
                got.sort_unstable();
                let per_shard: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
                assert_eq!(epoch.id, id as u64);
                assert_eq!(got, want, "epoch {id} records at {threads} threads");
                assert_eq!(epoch.packets, window.len() as u64, "epoch {id} packets");
                assert_eq!(epoch.weight, weight_of(window), "epoch {id} weight");
                assert_eq!(
                    epoch.per_shard, per_shard,
                    "epoch {id} at {threads} threads"
                );
            }
        }
    }

    /// A CM-Heap shard with test hooks, a stand-in for a shard's update
    /// path: it panics once it has seen `panic_at` packets, its batches
    /// wait until the `open` gate every shard of its factory shares is
    /// set, and it reports each batch's size on `ingested`.
    struct Probe {
        panic_at: u64,
        seen: u64,
        open: Arc<OnceLock<()>>,
        ingested: mpsc::Sender<u64>,
        inner: CmHeap,
    }

    impl Sketch for Probe {
        fn update(&mut self, key: &KeyBytes, w: u64) {
            self.update_batch(&[(*key, w)]);
        }
        fn update_batch(&mut self, batch: &[(KeyBytes, u64)]) {
            self.seen += batch.len() as u64;
            assert!(
                self.seen < self.panic_at,
                "injected shard fault at packet {}",
                self.panic_at
            );
            while self.open.get().is_none() {
                std::thread::yield_now();
            }
            self.inner.update_batch(batch);
            let _ = self.ingested.send(batch.len() as u64);
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
            "probe"
        }
    }

    impl MergeSketch for Probe {
        fn merge_shard(&mut self, other: Self) -> Result<(), sketches::MergeIncompat> {
            self.inner.merge_shard(other.inner)
        }
    }

    /// An engine over [`Probe`] shards, the gate they share (set
    /// already when `open`), and the receiver of their batch sizes.
    fn probe_engine(
        cfg: EngineConfig,
        panic_at: u64,
        open: bool,
    ) -> (ShardedEngine<Probe>, Arc<OnceLock<()>>, mpsc::Receiver<u64>) {
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        let gate = Arc::new(OnceLock::new());
        if open {
            let _ = gate.set(());
        }
        let (ingested, batches) = mpsc::channel();
        let shared = Arc::clone(&gate);
        let eng = ShardedEngine::with_factory(cfg, move || Probe {
            panic_at,
            seen: 0,
            open: Arc::clone(&shared),
            ingested: ingested.clone(),
            inner: CmHeap::with_memory(16 * 1024, key_bytes, 0xC0C0),
        });
        (eng, gate, batches)
    }

    /// Run `f` on a helper thread and return its result, failing the
    /// test instead of hanging when that takes over 30 s.
    fn watchdog<T: Send + 'static>(what: String, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let Ok(out) = rx.recv_timeout(std::time::Duration::from_secs(30)) else {
            panic!("{what} hung or panicked");
        };
        helper.join().expect("the helper exits after reporting");
        out
    }

    #[test]
    fn abandoned_session_does_not_hang() {
        // Dropping a session with an uncollected epoch must still join
        // every worker. The rotation flushed every packet ahead of the
        // seal markers, so the workers ingest all of them before the
        // in-band `Stop` that `Drop` queues behind. In the gated case
        // each of two workers takes one packet (batch 1) and waits on
        // the closed gate, so its 16-slot ring ends up holding the
        // shard's other 15 packets and the seal marker: full when the
        // session drops. The gate opens only once the drop is under
        // way, so the first worker's `Stop` waits for room behind its
        // queued packets.
        for (threads, ring_capacity, batch, gated) in
            [(1, 4096, 4, false), (2, 4096, 4, false), (2, 16, 1, true)]
        {
            let what = format!("dropping a session ({threads} threads, ring {ring_capacity})");
            let (ingested, pushed) = watchdog(what, move || {
                let cfg = EngineConfig {
                    threads,
                    ring_capacity,
                    batch,
                    ..EngineConfig::default()
                };
                let (eng, gate, batches) = probe_engine(cfg, u64::MAX, !gated);
                let mut pkts = packets(1_000, 8);
                if gated {
                    // The first 16 packets of each shard, in stream order.
                    let mut taken = vec![0; threads];
                    pkts.retain(|(key, _)| {
                        let shard = ShardedEngine::<Probe>::shard_of(key, threads);
                        taken[shard] += 1;
                        taken[shard] <= ring_capacity
                    });
                    assert_eq!(pkts.len(), threads * ring_capacity);
                }
                let mut session = eng.session();
                session.push_batch(&pkts);
                let _pending = session.rotate();
                let (dropping, dropped) = mpsc::channel();
                let opener = {
                    let gate = Arc::clone(&gate);
                    std::thread::spawn(move || {
                        let _ = dropped.recv();
                        let _ = gate.set(());
                    })
                };
                dropping.send(()).expect("the opener waits for the drop");
                drop(session);
                opener.join().expect("the opener exits");
                (batches.try_iter().sum::<u64>(), pkts.len() as u64)
            });
            assert_eq!(ingested, pushed, "{threads} threads, ring {ring_capacity}");
        }
    }

    #[test]
    fn worker_panic_surfaces_instead_of_hanging() {
        // A worker that dies stops draining its ring; the producer must
        // re-raise the worker's panic from whichever wait it is in —
        // ring full (flush, rotate) or sealed shard missing (collect) —
        // instead of yielding forever. A single shard has no worker:
        // its panic unwinds on the caller, inside `push_batch`.
        //
        // (threads, packets, ring capacity, the call the panic surfaces
        // in): at two threads, a push longer than the dead worker's
        // 64-slot ring blocks in flush, and one that fits in a
        // 4096-slot ring completes, as does the rotation, so the panic
        // surfaces in collect; at one thread the shard panics inside the
        // push itself.
        for (threads, n, ring_capacity, surfaces_in) in [
            (2, 50_000, 64, "push_batch"),
            (2, 1_000, 4096, "collect"),
            (1, 120, 64, "push_batch"),
        ] {
            let what = format!("a session with a panicked worker ({threads} threads, {n} packets)");
            let (message, at) = watchdog(what, move || {
                let cfg = EngineConfig {
                    threads,
                    ring_capacity,
                    batch: 16,
                    ..EngineConfig::default()
                };
                let (eng, _, _) = probe_engine(cfg, 100, true);
                let pkts = packets(n, 9);
                let mut at = "session";
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = eng.session();
                    at = "push_batch";
                    session.push_batch(&pkts);
                    at = "rotate";
                    let pending = session.rotate();
                    at = "collect";
                    session.collect(pending);
                    at = "finish";
                    session.finish();
                }));
                let message = match outcome {
                    Ok(()) => String::from("session completed"),
                    Err(payload) => payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_else(|| String::from("non-string panic")),
                };
                (message, at)
            });
            assert!(
                message.contains("injected shard fault at packet 100"),
                "worker panic not re-raised ({threads} threads, {n} packets): {message}"
            );
            assert_eq!(at, surfaces_in, "{threads} threads, {n} packets");
        }
    }
}
