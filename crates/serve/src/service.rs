//! The in-process query service: a snapshot catalog plus a shared
//! projector cache behind one read API.
//!
//! A [`Service`] is built with [`service`] and split at birth into the
//! unique [`Publisher`] (kept by the ingest/seal thread) and a shared
//! `Arc<Service>` handed to any number of reader threads — in-process
//! callers, the wire server in [`crate::wire`], or both at once. Every
//! reader method takes `&self`, never blocks the publisher, and
//! answers from a sealed, immutable epoch snapshot, so an answer is
//! bit-identical to running the same query directly on that epoch's
//! table.
//!
//! Every answer runs through the query plane's group-by kernel
//! ([`GroupBy`]): partial-key and window answers project each
//! contributing row to an integer word, sort the words once and sum
//! equal neighbours, and the hierarchy query ([`Service::multi`]) runs
//! the kernel's rollup ([`FlowTable::rollup`]). `tests` and the `qps`
//! bench check every served answer against
//! [`FlowTable::query_all_entries`], whose hash-map scan is a separate
//! implementation of the same group-by.

use crate::cache::{CacheStats, ProjectorCache};
use crate::catalog::{catalog, CatalogWriter, SnapshotCatalog};
use crate::sync::{AtomicU64, Ordering};
use cocosketch::segment::SegmentMeta;
use cocosketch::{DirReader, Epoch, FlowTable, GroupBy};
use std::sync::Arc;
use traffic::{KeyBytes, KeySpec};

/// Which epoch a query addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Select {
    /// The most recently published epoch.
    Latest,
    /// The epoch with this id (fails if unpublished or evicted).
    Id(u64),
}

/// One answered partial-key query: the sorted entry table for `spec`
/// over the selected epoch(s).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Id of the answering epoch (the last one, for window queries).
    pub epoch: u64,
    /// Packets the answering epoch ingested (summed across epochs for
    /// window queries).
    pub packets: u64,
    /// Stream weight the answering epoch ingested (summed likewise).
    pub weight: u64,
    /// The spec the entries are keyed by.
    pub spec: KeySpec,
    /// `(partial key, size)` rows, sorted by lexicographic key bytes —
    /// the same shape [`FlowTable::query_all_entries`] produces.
    pub entries: Vec<(KeyBytes, u64)>,
}

/// Catalog occupancy and cache effectiveness, for operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceInfo {
    /// `(oldest, latest)` retained epoch ids, if any are retained.
    pub ids: Option<(u64, u64)>,
    /// Number of retained epochs.
    pub epochs: usize,
    /// Projector-cache counters.
    pub cache: CacheStats,
    /// Cold-tier reads that failed with an I/O or validation error
    /// (counted since the service was built). Cold failures answer as
    /// misses so queries never error on a flaky disk, but a non-zero,
    /// growing value here is how an operator tells a dying spill
    /// directory apart from ordinary evicted/compacted misses.
    pub cold_errors: u64,
}

/// The resident query service's shared read half.
#[derive(Debug)]
pub struct Service {
    snapshots: SnapshotCatalog,
    projectors: ProjectorCache,
    /// The durable tier, if attached: epochs that aged out of the
    /// catalog are backfilled from this epoch directory on miss.
    cold: Option<DirReader>,
    /// Failed cold-tier reads (all-Relaxed counter; see
    /// [`ServiceInfo::cold_errors`]).
    cold_errors: AtomicU64,
}

/// The unique publishing half (wraps the catalog's single writer).
#[derive(Debug)]
pub struct Publisher {
    writer: CatalogWriter,
}

/// Create a service retaining the last `keep` published epochs.
pub fn service(keep: usize) -> (Publisher, Arc<Service>) {
    service_inner(keep, None)
}

/// [`service`] with a durable tier attached: reads that miss the
/// in-memory catalog fall through to `cold`, a reader over the epoch
/// directory that the seal path streams segments into, so readers can
/// query windows that aged out of memory. Pass the seal path's
/// [`SharedEpochDir::reader`](cocosketch::SharedEpochDir::reader): its
/// list holds every appended epoch, while the manifest that
/// [`DirReader::new`] reads may not list the newest ones yet. Cold answers go
/// through exactly the same aggregation as warm ones, and segment
/// reads validate checksum and envelope, so a backfilled answer is
/// bit-identical to the answer the in-memory epoch gave before
/// eviction.
pub fn service_with_cold(keep: usize, cold: DirReader) -> (Publisher, Arc<Service>) {
    service_inner(keep, Some(cold))
}

fn service_inner(keep: usize, cold: Option<DirReader>) -> (Publisher, Arc<Service>) {
    let (writer, snapshots) = catalog(keep);
    (
        Publisher { writer },
        Arc::new(Service {
            snapshots,
            projectors: ProjectorCache::new(),
            cold,
            cold_errors: AtomicU64::new(0),
        }),
    )
}

impl Publisher {
    /// Publish a sealed epoch; readers see it before this returns.
    ///
    /// # Panics
    /// Panics when `epoch.id` is not the next dense id (see
    /// [`CatalogWriter::publish`]).
    pub fn publish(&mut self, epoch: Arc<Epoch>) -> u64 {
        self.writer.publish(epoch)
    }

    /// [`publish`](Self::publish) for an epoch not yet behind an
    /// [`Arc`].
    pub fn publish_epoch(&mut self, epoch: Epoch) -> u64 {
        self.publish(Arc::new(epoch))
    }

    /// Evict down to `keep` retained epochs; returns how many were
    /// dropped (readers holding handles keep them — see
    /// [`mod@crate::catalog`]).
    pub fn evict_to(&mut self, keep: usize) -> usize {
        self.writer.evict_to(keep)
    }
}

impl Service {
    /// The selected epoch's snapshot handle: from the in-memory
    /// catalog when retained, else backfilled from the durable tier
    /// (when one is attached — see [`service_with_cold`]). A cold read
    /// that fails validation (torn, corrupt, or absent segment) is a
    /// miss, never an error: the service's contract stays "`None` when
    /// the epoch cannot be served" — but every such failure bumps
    /// [`ServiceInfo::cold_errors`] so it is not silent.
    // LINT: hot
    pub fn snapshot(&self, sel: Select) -> Option<Arc<Epoch>> {
        let warm = match sel {
            Select::Latest => self.snapshots.latest(),
            Select::Id(id) => self.snapshots.get(id),
        };
        warm.or_else(|| {
            // LINT: cold(catalog miss: one validated disk read backfills an evicted epoch)
            match sel {
                Select::Latest => self.cold_latest(),
                Select::Id(id) => self.cold_get(id),
            }
        })
    }

    /// Unwrap a cold-tier read, counting failures: an `Err` becomes a
    /// miss (readers never error on a flaky disk) but increments the
    /// [`ServiceInfo::cold_errors`] counter, so operators can tell a
    /// dying cold tier from ordinary evicted/compacted misses.
    fn note_cold<T>(&self, result: std::io::Result<Option<T>>) -> Option<T> {
        match result {
            Ok(found) => found,
            Err(_) => {
                self.cold_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Backfill epoch `id` from the durable tier.
    fn cold_get(&self, id: u64) -> Option<Arc<Epoch>> {
        let reader = self.cold.as_ref()?;
        self.note_cold(reader.read_epoch(id)).map(Arc::new)
    }

    /// The durable tier's newest epoch (only reached when the catalog
    /// is empty, e.g. a reader attached before the first publish of a
    /// restarted collector).
    fn cold_latest(&self) -> Option<Arc<Epoch>> {
        let reader = self.cold.as_ref()?;
        self.note_cold(reader.read_latest()).map(Arc::new)
    }

    /// Answer one partial-key query against the selected epoch's
    /// primary table. `None` when the epoch is not retained, sealed no
    /// tables, `spec` is not a partial key of the table's full key, or
    /// a group's size overflows `u64`.
    pub fn partial(&self, sel: Select, spec: &KeySpec) -> Option<Answer> {
        let epoch = self.snapshot(sel)?;
        let table = epoch.tables.first()?;
        Some(Answer {
            epoch: epoch.id,
            packets: epoch.packets,
            weight: epoch.weight,
            spec: *spec,
            entries: self.group(&[table], spec)?,
        })
    }

    /// Answer a whole spec list (e.g. an HHH hierarchy) against the
    /// selected epoch in one rollup ([`FlowTable::rollup`]), optionally
    /// filtering each level to entries with `size >= threshold`
    /// (`threshold == 0` keeps everything). Answers come back in
    /// `specs` order. `None` when the epoch is not retained, sealed no
    /// tables, a spec is not a partial key of the table's full key, or
    /// a group's size overflows `u64` in any level.
    pub fn multi(&self, sel: Select, specs: &[KeySpec], threshold: u64) -> Option<Vec<Answer>> {
        let epoch = self.snapshot(sel)?;
        let table = epoch.tables.first()?;
        let full = table.full_spec();
        if specs.iter().any(|s| !s.is_partial_of(full)) {
            return None;
        }
        let levels = table.rollup(specs)?;
        Some(
            specs
                .iter()
                .zip(levels)
                .map(|(spec, mut entries)| {
                    if threshold > 1 {
                        entries.retain(|&(_, size)| size >= threshold);
                    }
                    Answer {
                        epoch: epoch.id,
                        packets: epoch.packets,
                        weight: epoch.weight,
                        spec: *spec,
                        entries,
                    }
                })
                .collect(),
        )
    }

    /// Answer one spec over the epochs in `first..=last`, summing
    /// sizes across windows (exact: per-epoch tables hold exact
    /// per-key totals of what each window ingested). Warm ids come
    /// from the catalog; everything else comes from the durable tier,
    /// whose segment list is fetched **once per call**. A compacted bucket
    /// whose whole id range lies inside the query contributes its
    /// merged table — compaction conserves per-key sums exactly, so
    /// that equals summing its member epochs — while a bucket that
    /// straddles the range boundary is excluded (its per-epoch
    /// resolution is gone; including it would over-count). Every
    /// contributing table, warm or cold, goes into one group-by: one
    /// sort and one sum for the whole window.
    ///
    /// `None` when nothing in the range can be served, the spec
    /// doesn't fit, or a sum (a group's size, or the window's packets
    /// or weight) overflows `u64`; otherwise the answer also reports
    /// how many epoch ids contributed weight (a bucket counts its whole
    /// span). Comparing that count to the requested range is how
    /// callers detect partial coverage: ids evicted without a spill
    /// sink, straddling buckets, or failed cold reads (which also bump
    /// [`ServiceInfo::cold_errors`]).
    pub fn window(&self, first: u64, last: u64, spec: &KeySpec) -> Option<(Answer, usize)> {
        let cold_segments: Vec<SegmentMeta> = match &self.cold {
            Some(reader) => self
                .note_cold(reader.segments().map(Some))
                .unwrap_or_default(),
            None => Vec::new(),
        };
        let warm = self.snapshots.ids();
        let cold = cold_segments
            .first()
            .zip(cold_segments.last())
            .map(|(a, b)| (a.first, b.last));
        let (lo, hi) = match (warm, cold) {
            (Some((a, b)), Some((c, d))) => (a.min(c), b.max(d)),
            (Some(bounds), None) | (None, Some(bounds)) => bounds,
            (None, None) => return None,
        };
        let (lo, hi) = (lo.max(first), hi.min(last));
        if lo > hi {
            return None;
        }
        let mut epochs: Vec<Arc<Epoch>> = Vec::new();
        let mut contributed = 0usize;
        let mut last_id = 0u64;
        let (mut packets, mut weight) = (0u64, 0u64);
        // Warm pass: catalog epochs are in memory and take precedence
        // over their on-disk copies.
        let mut warm_served: Vec<u64> = Vec::new();
        for id in lo..=hi {
            let Some(epoch) = self.snapshots.get(id) else {
                continue;
            };
            if epoch.tables.is_empty() {
                continue;
            }
            warm_served.push(id);
            contributed += 1;
            last_id = last_id.max(epoch.id);
            packets = packets.checked_add(epoch.packets)?;
            weight = weight.checked_add(epoch.weight)?;
            epochs.push(epoch);
        }
        // Cold pass: in-range segments the warm tier didn't serve —
        // one validated read per segment, buckets included whole.
        if let Some(reader) = &self.cold {
            for meta in &cold_segments {
                let in_range = lo <= meta.first && meta.last <= hi;
                if !in_range || warm_served.iter().any(|&id| meta.covers(id)) {
                    // Straddling buckets (and segments fully outside
                    // the range) are skipped; the shortfall is visible
                    // in `contributed`.
                    continue;
                }
                let Some(epoch) = self.note_cold(reader.read_segment(meta).map(Some)) else {
                    continue;
                };
                if epoch.tables.is_empty() {
                    continue;
                }
                contributed += (meta.last - meta.first + 1) as usize;
                last_id = last_id.max(meta.last);
                packets = packets.checked_add(epoch.packets)?;
                weight = weight.checked_add(epoch.weight)?;
                epochs.push(Arc::new(epoch));
            }
        }
        if contributed == 0 {
            return None;
        }
        let tables: Vec<&FlowTable> = epochs.iter().filter_map(|e| e.tables.first()).collect();
        Some((
            Answer {
                epoch: last_id,
                packets,
                weight,
                spec: *spec,
                entries: self.group(&tables, spec)?,
            },
            contributed,
        ))
    }

    /// Catalog occupancy and cache counters.
    pub fn info(&self) -> ServiceInfo {
        // One catalog read: the retained window is dense, so the count
        // follows from the ids, and a publish cannot land between
        // reading one and reading the other.
        let ids = self.snapshots.ids();
        ServiceInfo {
            ids,
            epochs: ids.map_or(0, |(oldest, latest)| (latest - oldest + 1) as usize),
            cache: self.projectors.stats(),
            cold_errors: self.cold_errors.load(Ordering::Relaxed),
        }
    }

    /// `GROUP BY spec` over the rows of `tables` as one answer: sizes
    /// the kernel's buffer for every row, runs [`aggregate`], and
    /// reads the groups back as sorted entries. `None` when `spec` is
    /// not a partial key of some table's full key, or a group's size
    /// overflows `u64`.
    ///
    /// [`aggregate`]: Self::aggregate
    fn group(&self, tables: &[&FlowTable], spec: &KeySpec) -> Option<Vec<(KeyBytes, u64)>> {
        let rows = tables.iter().map(|t| t.len()).sum();
        let mut groups = GroupBy::with_rows(spec.encoded_len(), rows);
        self.aggregate(tables, spec, &mut groups)?;
        Some(groups.entries())
    }

    /// The service's hot loop: project every row of `tables` into
    /// `groups` through the shared projector cache, then sort and sum
    /// in place. Same projector output and same `u64` sums as
    /// [`FlowTable::query_partial`], and the groups come out in
    /// [`FlowTable::query_all_entries`]'s order, so answers match it
    /// bit for bit.
    // LINT: hot
    fn aggregate(&self, tables: &[&FlowTable], spec: &KeySpec, groups: &mut GroupBy) -> Option<()> {
        for table in tables {
            let full = table.full_spec();
            if !spec.is_partial_of(full) {
                return None;
            }
            groups.project(table.rows(), &self.projectors.projector(full, spec));
        }
        groups.sort_and_sum()
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use hashkit::FastMap;
    use traffic::FiveTuple;

    /// A group map in the served answers' order: key bytes ascending.
    fn sorted_entries(groups: &mut FastMap<KeyBytes, u64>) -> Vec<(KeyBytes, u64)> {
        let mut entries: Vec<(KeyBytes, u64)> = groups.drain().collect();
        entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        entries
    }

    /// The reference for a window: the per-key sum of every epoch's
    /// `query_partial` map, in key byte order.
    fn summed_partials(epochs: &[Epoch], spec: &KeySpec) -> Vec<(KeyBytes, u64)> {
        let mut sums: FastMap<KeyBytes, u64> = FastMap::default();
        for e in epochs {
            for (k, v) in e.primary().query_partial(spec) {
                *sums.entry(k).or_insert(0) += v;
            }
        }
        sorted_entries(&mut sums)
    }

    /// A random five-tuple table of `rows` rows over a key space of
    /// `space` flows, so small spaces repeat full keys.
    fn random_epoch(id: u64, rows: usize, space: u64, seed: u64) -> Epoch {
        let full = KeySpec::FIVE_TUPLE;
        let mut rng = hashkit::XorShift64Star::new(seed);
        let table = FlowTable::new(
            full,
            (0..rows)
                .map(|_| {
                    let flow = rng.next_u64() % space;
                    let x = flow.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let key = full.project(&FiveTuple::new(
                        (x >> 32) as u32,
                        (x >> 7) as u32,
                        (x >> 20) as u16,
                        (x >> 44) as u16,
                        if x & 1 == 0 { 6 } else { 17 },
                    ));
                    (key, rng.next_u64() % 10_000 + 1)
                })
                .collect(),
        );
        let weight = table.total();
        Epoch {
            id,
            packets: rows as u64,
            weight,
            tables: vec![table],
        }
    }

    /// The paper's six keys, the empty key, and specs of every kernel
    /// word width (narrow below 9 bytes, wide above).
    fn query_specs() -> Vec<KeySpec> {
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.extend([
            KeySpec::EMPTY,
            KeySpec::src_prefix(13),
            KeySpec::src_dst_prefix(20, 7),
            KeySpec {
                proto: true,
                ..KeySpec::DST_IP_PORT
            },
            KeySpec {
                src_port: true,
                ..KeySpec::SRC_DST
            },
        ]);
        specs
    }

    fn epoch(id: u64, rows: u32, salt: u32) -> Epoch {
        let full = KeySpec::FIVE_TUPLE;
        let table = FlowTable::new(
            full,
            (0..rows)
                .map(|i| {
                    (
                        full.project(&FiveTuple::new(
                            (i + salt) % 97,
                            i.wrapping_mul(2654435761) % 53,
                            (i % 7) as u16,
                            443,
                            6,
                        )),
                        u64::from(i) + 1,
                    )
                })
                .collect(),
        );
        Epoch {
            id,
            packets: u64::from(rows),
            weight: (0..u64::from(rows)).map(|i| i + 1).sum(),
            tables: vec![table],
        }
    }

    #[test]
    fn partial_matches_query_all_entries() {
        // A small table, distinct random keys, heavy duplication, and
        // a larger table.
        let tables = [
            epoch(0, 500, 3),
            random_epoch(1, 3_000, u64::MAX, 1),
            random_epoch(2, 3_000, 500, 2),
            random_epoch(3, 70_000, 40_000, 3),
        ];
        let (mut publisher, svc) = service(4);
        for e in &tables {
            publisher.publish_epoch(e.clone());
        }
        for e in &tables {
            let held = svc.snapshot(Select::Id(e.id)).unwrap();
            for spec in query_specs() {
                let served = svc.partial(Select::Id(e.id), &spec).unwrap();
                let direct = held.primary().query_all_entries(&[spec]);
                assert_eq!(served.entries, direct[0], "epoch {} {spec}", e.id);
                assert_eq!(served.epoch, e.id);
                if spec == KeySpec::EMPTY {
                    assert_eq!(served.entries, vec![(KeyBytes::EMPTY, e.weight)]);
                }
            }
        }
    }

    #[test]
    fn group_sums_that_overflow_answer_none() {
        let full = KeySpec::FIVE_TUPLE;
        // Two flows of one source: their sizes sum past u64::MAX under
        // SrcIP, but not under the full key.
        let a = full.project(&FiveTuple::new(7, 1, 1, 1, 6));
        let b = full.project(&FiveTuple::new(7, 2, 1, 1, 6));
        let table = |rows| Epoch {
            id: 0,
            packets: 2,
            weight: u64::MAX,
            tables: vec![FlowTable::new(full, rows)],
        };
        let (mut publisher, svc) = service(4);
        publisher.publish_epoch(table(vec![(a, u64::MAX), (b, 1)]));
        assert!(svc.partial(Select::Latest, &KeySpec::SRC_IP).is_none());
        assert!(svc.partial(Select::Latest, &KeySpec::EMPTY).is_none());
        let fine = svc.partial(Select::Latest, &full).unwrap();
        assert_eq!(fine.entries, vec![(a, u64::MAX), (b, 1)]);
        // A hierarchy whose coarse level alone overflows.
        assert!(svc.multi(Select::Latest, &[full], 0).is_some());
        let levels = [full, KeySpec::SRC_DST, KeySpec::SRC_IP];
        assert!(svc.multi(Select::Latest, &levels, 0).is_none());
        // Across epochs too: each epoch alone fits, their window does not.
        publisher.publish_epoch(Epoch {
            id: 1,
            ..table(vec![(a, 1)])
        });
        assert!(svc.window(0, 1, &full).is_none());
        assert!(svc.window(1, 1, &full).is_some());
        // On the wire an overflow is an error answer.
        for request in [
            crate::wire::Request::Partial(Select::Id(0), KeySpec::SRC_IP),
            crate::wire::Request::Multi(Select::Id(0), levels.to_vec(), 0),
        ] {
            let response = crate::wire::respond(&svc, &request);
            assert!(
                matches!(response, crate::wire::Response::Error(_)),
                "{response:?}"
            );
        }
    }

    #[test]
    fn multi_matches_and_filters() {
        let (mut publisher, svc) = service(4);
        publisher.publish_epoch(epoch(0, 400, 11));
        let held = svc.snapshot(Select::Latest).unwrap();
        let specs = [KeySpec::SRC_DST, KeySpec::SRC_IP, KeySpec::EMPTY];
        let direct = held.primary().query_all_entries(&specs);

        let served = svc.multi(Select::Latest, &specs, 0).unwrap();
        for (ans, want) in served.iter().zip(&direct) {
            assert_eq!(&ans.entries, want);
        }

        let threshold = 1000;
        let filtered = svc.multi(Select::Latest, &specs, threshold).unwrap();
        for (ans, want) in filtered.iter().zip(&direct) {
            let want: Vec<_> = want
                .iter()
                .copied()
                .filter(|&(_, s)| s >= threshold)
                .collect();
            assert_eq!(ans.entries, want);
        }
    }

    #[test]
    fn window_sums_across_epochs() {
        let (mut publisher, svc) = service(8);
        for id in 0..3 {
            publisher.publish_epoch(epoch(id, 200, id as u32 * 19));
        }
        let spec = KeySpec::SRC_IP;
        let (answer, contributed) = svc.window(0, 2, &spec).unwrap();
        assert_eq!(contributed, 3);
        assert_eq!(answer.epoch, 2);
        // Reference: merge the three direct per-epoch answers.
        let mut expect: FastMap<KeyBytes, u64> = FastMap::default();
        for id in 0..3 {
            let e = svc.snapshot(Select::Id(id)).unwrap();
            for (k, s) in &e.primary().query_all_entries(&[spec])[0] {
                *expect.entry(*k).or_insert(0) += s;
            }
        }
        assert_eq!(answer.entries, sorted_entries(&mut expect));
        // Ranges clipped to retention still answer.
        let (_, n) = svc.window(1, 99, &spec).unwrap();
        assert_eq!(n, 2);
        assert!(svc.window(40, 50, &spec).is_none());
    }

    #[test]
    fn selection_and_validation_misses_are_none() {
        let (mut publisher, svc) = service(2);
        assert!(svc.partial(Select::Latest, &KeySpec::SRC_IP).is_none());
        publisher.publish_epoch(epoch(0, 10, 0));
        publisher.publish_epoch(epoch(1, 10, 1));
        publisher.publish_epoch(epoch(2, 10, 2)); // evicts 0
        assert!(svc.partial(Select::Id(0), &KeySpec::SRC_IP).is_none());
        assert!(svc.partial(Select::Id(3), &KeySpec::SRC_IP).is_none());
        // A spec that is not partial of the 5-tuple: impossible here
        // (everything is), so exercise via a narrower full key.
        let (mut p2, svc2) = service(2);
        let narrow = KeySpec::SRC_IP;
        p2.publish_epoch(Epoch {
            id: 0,
            packets: 0,
            weight: 0,
            tables: vec![FlowTable::new(narrow, vec![])],
        });
        assert!(svc2.partial(Select::Latest, &KeySpec::SRC_DST).is_none());
        assert!(svc2
            .multi(Select::Latest, &[narrow, KeySpec::SRC_DST], 0)
            .is_none());
        // Info reflects occupancy and cache activity.
        assert!(svc.partial(Select::Latest, &KeySpec::SRC_IP).is_some());
        let info = svc.info();
        assert_eq!(info.ids, Some((1, 2)));
        assert_eq!(info.epochs, 2);
        assert!(info.cache.hits + info.cache.misses > 0);
    }

    #[test]
    fn cold_backfill_serves_evicted_epochs_bit_identical() {
        // The production shape: the seal path appends through a
        // SharedEpochDir and the service reads through its reader().
        use cocosketch::SharedEpochDir;
        let root = std::env::temp_dir().join(format!("serve-cold-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        let (mut publisher, svc) = service_with_cold(1, shared.reader());
        let spec = KeySpec::SRC_IP;
        let mut direct = Vec::new();
        for id in 0..5u64 {
            let e = epoch(id, 150, id as u32 * 7);
            shared.append(&e).unwrap();
            direct.push(e.primary().query_all_entries(&[spec])[0].clone());
            publisher.publish_epoch(e);
        }
        assert_eq!(svc.info().ids, Some((4, 4)), "catalog holds the last 1");
        // No MANIFEST lists the appended epochs yet, so every cold
        // answer below comes from the writer's in-memory list.
        assert_eq!(DirReader::new(&root).ids().unwrap(), None);
        // Every id answers — warm from the catalog, cold from disk —
        // and cold answers match the pre-eviction direct scans exactly.
        for id in 0..5u64 {
            let ans = svc.partial(Select::Id(id), &spec).unwrap();
            assert_eq!(ans.entries, direct[id as usize], "epoch {id}");
            assert_eq!(ans.epoch, id);
        }
        assert!(svc.partial(Select::Id(9), &spec).is_none());
        // A window spanning both tiers sums all five epochs.
        let (answer, contributed) = svc.window(0, 4, &spec).unwrap();
        assert_eq!(contributed, 5);
        let mut expect: FastMap<KeyBytes, u64> = FastMap::default();
        for entries in &direct {
            for (k, s) in entries {
                *expect.entry(*k).or_insert(0) += s;
            }
        }
        assert_eq!(answer.entries, sorted_entries(&mut expect));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn window_includes_fully_contained_buckets() {
        use cocosketch::segment::{CompactionPolicy, EpochDir};
        let root = std::env::temp_dir().join(format!("serve-bucket-win-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let spec = KeySpec::SRC_IP;
        let mut direct = Vec::new();
        for id in 0..6u64 {
            let e = epoch(id, 120, id as u32 * 13);
            direct.push(e.primary().query_all_entries(&[spec])[0].clone());
            dir.append(&e).unwrap();
        }
        // Horizon = 5 - 1 = 4: ids 0..=3 fold into buckets [0-1] and
        // [2-3]; 4 and 5 stay single-epoch segments.
        dir.compact(&CompactionPolicy {
            bucket: 2,
            keep_recent: 1,
        })
        .unwrap();
        assert_eq!(dir.len(), 4);
        // Nothing published: the whole window answers from disk, and
        // the buckets' merged weight stands in exactly for their
        // member epochs.
        let (_publisher, svc) = service_with_cold(4, DirReader::new(&root));
        let (answer, contributed) = svc.window(0, 5, &spec).unwrap();
        assert_eq!(contributed, 6, "buckets count their whole span");
        assert_eq!(answer.epoch, 5);
        let mut expect: FastMap<KeyBytes, u64> = FastMap::default();
        for entries in &direct {
            for (k, s) in entries {
                *expect.entry(*k).or_insert(0) += s;
            }
        }
        assert_eq!(answer.entries, sorted_entries(&mut expect));
        // A range that splits a bucket serves what it can; the
        // excluded straddling bucket shows up as missing coverage.
        let (partial_ans, n) = svc.window(1, 5, &spec).unwrap();
        assert_eq!(n, 4, "bucket [2-3] plus singles 4, 5; [0-1] straddles");
        let mut expect: FastMap<KeyBytes, u64> = FastMap::default();
        for entries in &direct[2..] {
            for (k, s) in entries {
                *expect.entry(*k).or_insert(0) += s;
            }
        }
        assert_eq!(partial_ans.entries, sorted_entries(&mut expect));
        assert_eq!(svc.info().cold_errors, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn window_over_warm_cold_and_bucketed_epochs_sums_partials() {
        use cocosketch::segment::{CompactionPolicy, EpochDir};
        let root = std::env::temp_dir().join(format!("serve-mixed-win-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let (mut publisher, svc) = service_with_cold(2, DirReader::new(&root));
        let epochs: Vec<Epoch> = (0..7u64)
            .map(|id| random_epoch(id, 400, 300 + 40 * id, 10 + id))
            .collect();
        for e in &epochs {
            dir.append(e).unwrap();
            publisher.publish_epoch(e.clone());
        }
        // Horizon 6 - 2 = 4: ids 0..=3 fold into buckets [0-1] and
        // [2-3]; 4 stays a cold single; 5 and 6 are warm.
        dir.compact(&CompactionPolicy {
            bucket: 2,
            keep_recent: 2,
        })
        .unwrap();
        assert_eq!(dir.len(), 5);
        assert_eq!(svc.info().ids, Some((5, 6)));
        for spec in query_specs() {
            let (answer, contributed) = svc.window(0, 6, &spec).unwrap();
            assert_eq!(contributed, 7);
            assert_eq!(answer.epoch, 6);
            assert_eq!(answer.entries, summed_partials(&epochs, &spec), "{spec}");
            // Cold single plus warm epochs, without the buckets.
            let (answer, contributed) = svc.window(4, 6, &spec).unwrap();
            assert_eq!(contributed, 3);
            assert_eq!(
                answer.entries,
                summed_partials(&epochs[4..], &spec),
                "{spec}"
            );
        }
        assert_eq!(svc.info().cold_errors, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cold_read_failures_are_counted_not_silent() {
        use cocosketch::segment::{MANIFEST_MAGIC, MANIFEST_NAME};
        let root = std::env::temp_dir().join(format!("serve-cold-err-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        // A manifest that parses but names a segment file that does
        // not exist: the read must answer as a miss AND be counted.
        let manifest = format!("{MANIFEST_MAGIC}\nseg 0 0 64 0000000000000000\n");
        std::fs::write(root.join(MANIFEST_NAME), manifest).unwrap();
        assert!(
            DirReader::new(&root).segments().is_ok(),
            "the manifest parses"
        );
        let (mut publisher, svc) = service_with_cold(2, DirReader::new(&root));
        assert!(svc.partial(Select::Id(0), &KeySpec::SRC_IP).is_none());
        assert_eq!(svc.info().cold_errors, 1, "missing segment is an error");
        // A garbage manifest fails the window's cold scan, but warm
        // epochs still answer — degraded, counted, never silent.
        std::fs::write(root.join("MANIFEST"), "garbage").unwrap();
        publisher.publish_epoch(epoch(0, 50, 1));
        let (_, contributed) = svc.window(0, 0, &KeySpec::SRC_IP).unwrap();
        assert_eq!(contributed, 1);
        assert_eq!(svc.info().cold_errors, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cold_latest_answers_before_first_publish() {
        use cocosketch::segment::EpochDir;
        let root = std::env::temp_dir().join(format!("serve-cold-latest-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        for id in 0..2u64 {
            dir.append(&epoch(id, 60, id as u32)).unwrap();
        }
        drop(dir);
        // A reader attaches to a restarted collector, whose reopen
        // listed the segments it adopted: nothing published yet, but
        // the directory has history.
        let (dir, report) = EpochDir::open(&root).unwrap();
        assert_eq!(report.adopted, 2);
        let (_publisher, svc) = service_with_cold(2, DirReader::new(dir.root()));
        let ans = svc.partial(Select::Latest, &KeySpec::SRC_IP).unwrap();
        assert_eq!(ans.epoch, 1, "cold latest");
        let (_, contributed) = svc.window(0, 9, &KeySpec::SRC_IP).unwrap();
        assert_eq!(contributed, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn readers_and_publisher_run_concurrently() {
        let (mut publisher, svc) = service(3);
        publisher.publish_epoch(epoch(0, 300, 0));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let svc = Arc::clone(&svc);
                let stop = &stop;
                scope.spawn(move || {
                    let mut answered = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for spec in KeySpec::PAPER_SIX {
                            if let Some(ans) = svc.partial(Select::Latest, &spec) {
                                // Conservation: entries sum to the
                                // epoch's total weight on every spec.
                                let total: u64 = ans.entries.iter().map(|&(_, s)| s).sum();
                                let e = svc.snapshot(Select::Id(ans.epoch));
                                if let Some(e) = e {
                                    assert_eq!(total, e.weight);
                                }
                                answered += 1;
                            }
                        }
                    }
                    answered
                });
            }
            for id in 1..40 {
                publisher.publish_epoch(epoch(id, 300, id as u32));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(svc.info().ids, Some((37, 39)));
    }
}
