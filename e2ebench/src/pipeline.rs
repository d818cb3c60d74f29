//! The production seal path, driven through the same public calls
//! `cocosketch measure --window --spill --compact-bucket --serve` makes:
//!
//! `EngineSession::push_batch` → `rotate`/`collect` →
//! `EpochRun::to_epoch` → `SharedEpochDir::append` + `Compactor::nudge`
//! → `Publisher::publish` → `EpochStore::push_arc` + `evict_to`.
//!
//! Every call sits inside a span of the caller's [`SpanLog`].

use crate::trace::{SpanLog, Stage};
use cocosketch::segment::{spawn_compactor, CompactTotals, Compactor};
use cocosketch::{BasicCocoSketch, CompactionPolicy, Epoch, EpochStore, SharedEpochDir};
use engine::{EngineConfig, EngineSession, ShardedCocoSketch};
use serve::{Publisher, Service};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traffic::{KeyBytes, KeySpec};

/// Sketch memory of the single shard.
pub const MEMORY: usize = 512 * 1024;

/// How many of the first sealed epochs are kept for accuracy scoring.
pub const SCORED_EPOCHS: usize = 4;

/// Window, retention and compaction of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// Packets per sealed epoch.
    pub window: u64,
    /// Epochs the store and the service catalog keep in memory.
    pub keep: usize,
    /// Epochs per compacted bucket on disk.
    pub bucket: usize,
    /// Newest epochs the bench itself retains for answer checks.
    pub retain: usize,
}

/// The latest sealed epochs, shared with a checking client thread.
pub type Recent = Arc<Mutex<VecDeque<Arc<Epoch>>>>;

pub struct Pipeline {
    full: KeySpec,
    policy: Policy,
    session: Option<EngineSession<BasicCocoSketch>>,
    dir: SharedEpochDir,
    compactor: Option<Compactor>,
    store: EpochStore,
    publisher: Publisher,
    in_window: u64,
    pub pushed: (u64, u64),
    pub sealed: (u64, u64),
    pub seals: u64,
    /// The first [`SCORED_EPOCHS`] sealed epochs.
    pub scored: Vec<Arc<Epoch>>,
    pub recent: Recent,
    /// Id of the latest published epoch.
    pub latest: Arc<AtomicU64>,
}

/// What [`Pipeline::finish`] reports.
pub struct Finished {
    pub compact: CompactTotals,
    pub latest: Option<Arc<Epoch>>,
}

impl Pipeline {
    /// Open the spill directory, start the compactor, the service and
    /// the engine session. The directory must be new: a fresh run
    /// numbers epochs from 0.
    pub fn open(dir: &Path, seed: u64, policy: Policy) -> Result<(Self, Arc<Service>), String> {
        let (shared, report) =
            SharedEpochDir::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
        if report != Default::default() || shared.ids().is_some() {
            return Err(format!(
                "{} is not a fresh directory: {report:?}",
                dir.display()
            ));
        }
        let compactor = spawn_compactor(
            shared.clone(),
            CompactionPolicy {
                bucket: policy.bucket,
                keep_recent: policy.keep.max(policy.bucket) as u64,
            },
        );
        let (publisher, svc) = serve::service_with_cold(policy.keep, shared.reader());
        let full = KeySpec::FIVE_TUPLE;
        let engine = ShardedCocoSketch::with_memory(
            MEMORY,
            EngineConfig {
                threads: 1,
                d: 2,
                key_bytes: full.key_bytes(),
                seed,
                ..EngineConfig::default()
            },
        );
        let mut store = EpochStore::new();
        store.attach_spill(Box::new(shared.clone()));
        Ok((
            Self {
                full,
                policy,
                session: Some(engine.session()),
                dir: shared,
                compactor: Some(compactor),
                store,
                publisher,
                in_window: 0,
                pushed: (0, 0),
                sealed: (0, 0),
                seals: 0,
                scored: Vec::with_capacity(SCORED_EPOCHS),
                recent: Arc::new(Mutex::new(VecDeque::with_capacity(policy.retain + 1))),
                latest: Arc::new(AtomicU64::new(0)),
            },
            svc,
        ))
    }

    /// Packets still to push before the current window is full.
    pub fn room(&self) -> usize {
        (self.policy.window - self.in_window) as usize
    }

    /// Push one batch; it must fit in [`room`](Self::room).
    pub fn push(&mut self, batch: &[(KeyBytes, u64)], log: &mut SpanLog) {
        let session = self.session.as_mut().expect("session runs until finish");
        log.span(Stage::Push, batch.len() as u64, || {
            session.push_batch(batch)
        });
        self.in_window += batch.len() as u64;
        self.pushed.0 += batch.len() as u64;
        self.pushed.1 += batch.iter().map(|&(_, w)| w).sum::<u64>();
    }

    /// True when the current window holds `window` packets.
    pub fn full(&self) -> bool {
        self.in_window == self.policy.window
    }

    /// Seal the current window; returns the instant `publish` returned,
    /// when the epoch became visible to readers.
    pub fn seal(&mut self, log: &mut SpanLog) -> Result<Instant, String> {
        let session = self.session.as_mut().expect("session runs until finish");
        let id = self.seals;
        let open = log.begin(Stage::Seal, id);
        let pending = log.span(Stage::Rotate, id, || session.rotate());
        let run = log.span(Stage::Collect, id, || session.collect(pending));
        let epoch = log.span(Stage::ToEpoch, id, || Arc::new(run.to_epoch(self.full)));
        drop(run);
        let visible = self.commit(epoch, log);
        log.end(open);
        self.in_window = 0;
        visible
    }

    /// Durable append, compaction nudge, publication, retention.
    fn commit(&mut self, epoch: Arc<Epoch>, log: &mut SpanLog) -> Result<Instant, String> {
        let id = epoch.id;
        log.span(Stage::Append, id, || self.dir.append(&epoch))
            .map_err(|e| format!("spilling epoch {id}: {e}"))?;
        if let Some(compactor) = &self.compactor {
            log.span(Stage::Nudge, id, || compactor.nudge());
        }
        // The checking copy exists before any reader can see the epoch.
        if self.policy.retain > 0 {
            let mut recent = self.recent.lock().expect("no checker panicked holding it");
            if recent.len() == self.policy.retain {
                recent.pop_front();
            }
            recent.push_back(Arc::clone(&epoch));
        }
        log.span(Stage::Publish, id, || {
            self.publisher.publish(Arc::clone(&epoch))
        });
        let visible = Instant::now();
        self.latest.store(id, Ordering::Relaxed);
        self.store.push_arc(Arc::clone(&epoch));
        let keep = self.policy.keep;
        log.span(Stage::Evict, id, || self.store.evict_to(keep));
        self.seals += 1;
        self.sealed.0 += epoch.packets;
        self.sealed.1 += epoch.weight;
        if self.scored.len() < SCORED_EPOCHS {
            self.scored.push(epoch);
        }
        Ok(visible)
    }

    /// End the session: seal the trailing partial window (if any), stop
    /// the compactor, and check that nothing failed on the way.
    pub fn finish(&mut self, log: &mut SpanLog) -> Result<Finished, String> {
        if let Some(session) = self.session.take() {
            let last = session.finish();
            if last.packets > 0 {
                self.commit(Arc::new(last.to_epoch(self.full)), log)?;
            }
        }
        let compact = self
            .compactor
            .take()
            .map(Compactor::finish)
            .unwrap_or_default();
        if let Some(err) = self.store.take_spill_error() {
            return Err(format!("spill failed during eviction: {err}"));
        }
        Ok(Finished {
            compact,
            latest: self.store.latest_arc(),
        })
    }

    /// Stop the worker and the compactor without sealing anything more:
    /// the pre-sealed query workload serves with no ingest running.
    pub fn stop_ingest(&mut self) -> Result<(), String> {
        if let Some(session) = self.session.take() {
            let last = session.finish();
            if last.packets > 0 {
                return Err(format!("{} packets left unsealed", last.packets));
            }
        }
        Ok(())
    }

    /// Ids `(first, last)` the spill directory covers.
    pub fn dir_ids(&self) -> Option<(u64, u64)> {
        self.dir.ids()
    }
}
