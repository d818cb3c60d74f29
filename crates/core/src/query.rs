//! The arbitrary-partial-key query front-end (§4.3).
//!
//! At the end of a measurement window the control plane builds a `(Full
//! Key, Size)` table from the sketch's records (Step 3 of Figure 1) and
//! answers partial-key queries by aggregation (Step 4) — the moral
//! equivalent of
//!
//! ```sql
//! SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
//! ```
//!
//! where `g` is the partial-key projection of Definition 1. Because the
//! underlying per-flow estimates are unbiased (Lemma 3/4), the grouped
//! sums are unbiased estimates of partial-key flow sizes — the property
//! single-key full-key sketches lack (§2.3, Figure 18b).
//!
//! # The query-plane engine
//!
//! Queries are a performance surface, not an afterthought: an HHH run
//! asks for 33 (1-d) or 1089 (2-d) partial keys of the *same* table,
//! and a resident service answers the same few keys over and over.
//! These mechanisms keep that cheap, all bit-identical to the naive
//! per-spec scan:
//!
//! - **Compiled projections** ([`traffic::Projector`]): each spec's
//!   `g(·)` is lowered once into a branch-free shift-and-mask plan over
//!   the key's big-endian word, so the per-row cost is a few integer
//!   operations instead of a `FiveTuple` decode/re-encode round trip.
//! - **One group-by kernel** ([`GroupBy`]): the query service's answers
//!   (one table, or every table of a cross-epoch window) and
//!   compaction's [`FlowTable::merged`] project rows to integer words,
//!   sort them once and sum equal neighbours. On measured tables
//!   almost every row is its own group (a 23,259-row epoch gives
//!   23,096–23,259 groups for each of the six paper keys), so a hash
//!   map merges almost nothing and the answer is, in effect, one sort
//!   of the table; sorting plain integers instead of comparing byte
//!   slices is what makes that sort cheap.
//! - **Reference scans** ([`FlowTable::query_partial`],
//!   [`FlowTable::query_all`], [`FlowTable::query_all_entries`]): one
//!   hash-map scan per root spec. They are kept apart from the kernel
//!   on purpose: the service's tests and benches check its answers
//!   against these, so every such check compares two independent
//!   group-bys.
//! - **Hierarchy rollup** ([`FlowTable::query_rollup`]): when one spec
//!   is a partial key of another *in the same query set*, its result is
//!   aggregated from the ancestor's (much smaller) result map instead
//!   of rescanning the table. Projection composes (`g_{P2←F} =
//!   g_{P2←P1} ∘ g_{P1←F}`) and per-key sums are exact `u64` additions,
//!   so rollup output is bit-identical to direct projection — a 33-level
//!   prefix hierarchy costs 1 scan + 32 rollups over shrinking maps.
//!   Rollup runs over *sorted* parent entries: prefix projection is
//!   monotone in key-byte order, so each level is a linear adjacent
//!   merge and hashing is paid only to materialize each level's result
//!   map (once per output group, not once per row per level).
//! - **Parallel scan** (inside [`FlowTable::query_all`] and
//!   [`FlowTable::query_rollup_threads`]): each scanned spec of a large
//!   table chunks its rows across scoped worker threads, aggregates
//!   into thread-local maps, and merges by addition. Integer sums are
//!   associative and commutative, so the merged result is exact and
//!   independent of chunking and scheduling.

use hashkit::{fast_map_with_capacity, invariant, FastMap};
use traffic::{KeyBytes, KeySpec, Projector};

/// Row count above which [`FlowTable::query_all`] switches the base
/// scan to the parallel path (when more than one CPU is available).
const PARALLEL_SCAN_MIN_ROWS: usize = 1 << 16;

/// Cap on auto-selected scan threads; beyond this the per-thread maps'
/// merge cost outweighs the scan speedup for typical table sizes.
const PARALLEL_SCAN_MAX_THREADS: usize = 8;

/// The recorded `(full key, estimated size)` table of one measurement
/// window, plus the full-key spec needed to project records onto
/// partial keys.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTable {
    full: KeySpec,
    rows: Vec<(KeyBytes, u64)>,
}

impl FlowTable {
    /// Build the table from a sketch's records (any
    /// [`sketches::Sketch::records`] output over keys of `full`).
    pub fn new(full: KeySpec, rows: Vec<(KeyBytes, u64)>) -> Self {
        debug_assert!(
            rows.iter().all(|(k, _)| k.len() == full.encoded_len()),
            "all rows must be encoded under the full-key spec"
        );
        Self { full, rows }
    }

    /// The full-key spec this table is encoded under.
    pub fn full_spec(&self) -> &KeySpec {
        &self.full
    }

    /// Number of recorded full-key flows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no flows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Direct access to the rows.
    pub fn rows(&self) -> &[(KeyBytes, u64)] {
        &self.rows
    }

    /// Compile `spec`'s projection from this table's full key.
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key —
    /// querying outside the declared key range has no defined meaning.
    fn compile(&self, spec: &KeySpec) -> Projector {
        assert!(
            spec.is_partial_of(&self.full),
            "{spec:?} is not a partial key of {:?}",
            self.full
        );
        spec.projector(&self.full)
    }

    /// Result-map capacity for a query over `upto` rows: low-cardinality
    /// specs (the empty key, short prefixes) can never produce more
    /// groups than their key space holds, so don't pre-size for the
    /// full row count.
    fn capacity_hint(spec: &KeySpec, upto: usize) -> usize {
        let bits = spec.cardinality_bits();
        if bits >= usize::BITS - 1 {
            upto
        } else {
            upto.min(1usize << bits)
        }
    }

    /// `SELECT g(k_F), SUM(Size) GROUP BY g(k_F)` — the full partial-key
    /// result table for `spec`, in one scan with a compiled projector.
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key.
    pub fn query_partial(&self, spec: &KeySpec) -> FastMap<KeyBytes, u64> {
        let proj = self.compile(spec);
        let mut out: FastMap<KeyBytes, u64> =
            fast_map_with_capacity(Self::capacity_hint(spec, self.rows.len()));
        let mut scratch = KeyBytes::EMPTY;
        for (full_key, size) in &self.rows {
            proj.project_into(full_key, &mut scratch);
            *out.entry(scratch).or_insert(0) += size;
        }
        out
    }

    /// Answer a set of related specs (e.g. a prefix hierarchy) with
    /// **rollup**: a spec that is a partial key of an earlier spec in
    /// the set is aggregated from that spec's (smaller) result map; the
    /// remaining "root" specs are answered by one scan of the rows each.
    ///
    /// For the 33-level source-IP hierarchy this turns 33 × O(rows)
    /// scans into 1 scan + 32 rollups over maps that shrink level by
    /// level; for the 1089-level 2-d grid, all but one level roll up.
    /// Output is bit-identical to per-spec
    /// [`query_partial`](Self::query_partial): projection composes and
    /// per-key sums are exact integer additions, so grouping through an
    /// intermediate key changes neither the keys nor the sums.
    ///
    /// When a spec has several computed ancestors, the one with the
    /// smallest result map wins. Ancestors must appear *before* their
    /// descendants (hierarchies are ordered fine → coarse); specs with
    /// no in-set ancestor are roots.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_rollup(&self, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
        self.query_rollup_threads(specs, 1)
    }

    /// [`query_rollup`](Self::query_rollup) with every row scan chunked
    /// across `threads` workers. Each worker aggregates its contiguous
    /// row chunk into a private map and the chunks merge by per-key
    /// addition, so the result is exact — bit-identical to the
    /// single-threaded scan, independent of chunk boundaries and
    /// thread scheduling. `threads` is clamped to the row count;
    /// `threads <= 1` scans inline.
    ///
    /// Rollup itself never touches a hash table on the read side: a
    /// parent's result is sorted once (lexicographic key bytes) and
    /// every descendant aggregates it linearly. Prefix projections are
    /// monotone under that order ([`Projector::preserves_order`]), so a
    /// sorted parent projects to a sorted child and equal keys merge as
    /// adjacent runs; children inherit sortedness for free, and only
    /// the final per-level result map pays hashing — once per output
    /// entry instead of once per table row per level. Levels whose best
    /// parent has not shrunk below half the table fall back to a direct
    /// scan: there rollup saves almost no inserts but still pays the
    /// sort and the copy.
    pub fn query_rollup_threads(
        &self,
        specs: &[KeySpec],
        threads: usize,
    ) -> Vec<FastMap<KeyBytes, u64>> {
        let (is_root, root_specs) = Self::split_roots(specs);
        let mut root_maps = self.root_results(&root_specs, threads).into_iter();

        let mut out: Vec<FastMap<KeyBytes, u64>> = Vec::with_capacity(specs.len());
        // sorted[j] = out[j] as a key-sorted entry vector, built lazily
        // the first time result j is used as a rollup parent; rolled
        // children are born sorted, so theirs is kept as a byproduct.
        let mut sorted: Vec<Option<Vec<(KeyBytes, u64)>>> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            // LINT: bounded(i < specs.len() = is_root.len())
            if is_root[i] {
                out.push(
                    root_maps
                        .next()
                        .unwrap_or_else(|| invariant::violated("one root result per root spec")),
                );
                sorted.push(None);
                continue;
            }
            let parent = Self::best_parent(specs, i, |j| out[j].len()); // LINT: bounded(best_parent yields j < i = out.len())
                                                                        // LINT: bounded(parent < i = out.len())
            if out[parent].len() * 2 > self.rows.len() {
                // The parent is barely smaller than the table itself:
                // sorting it, merging, and materializing a near-equal
                // map costs more than one fresh scan with a single hot
                // result map. (The sorted-entry variant has no such
                // cliff — it never materializes a map.)
                out.push(self.scan_one(spec, threads));
                sorted.push(None);
                continue;
            }
            // LINT: bounded(parent < i = sorted.len())
            let parent_rows: &[(KeyBytes, u64)] = sorted[parent].get_or_insert_with(|| {
                let mut rows: Vec<(KeyBytes, u64)> =
                    out[parent].iter().map(|(k, &v)| (*k, v)).collect(); // LINT: bounded(parent < i = out.len())
                Self::sort_entries(&mut rows);
                rows
            });
            let rolled = Self::roll_level(parent_rows, &spec.projector(&specs[parent])); // LINT: bounded(parent < i <= specs.len())
            out.push(rolled.iter().copied().collect());
            sorted.push(Some(rolled));
        }
        out
    }

    /// `is_root[i]` = `specs[i]` has no ancestor earlier in the set,
    /// plus the root specs themselves; roots are answered from the rows
    /// in one shared pass, everything else rolls up.
    fn split_roots(specs: &[KeySpec]) -> (Vec<bool>, Vec<KeySpec>) {
        let is_root: Vec<bool> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| !(0..i).any(|j| spec.is_partial_of(&specs[j]))) // LINT: bounded(j < i <= specs.len())
            .collect();
        let root_specs: Vec<KeySpec> = specs
            .iter()
            .zip(&is_root)
            .filter(|&(_, &root)| root)
            .map(|(s, _)| *s)
            .collect();
        (is_root, root_specs)
    }

    /// Answer the root specs of a rollup, one scan per spec (chunked
    /// across `threads` when parallel).
    fn root_results(&self, root_specs: &[KeySpec], threads: usize) -> Vec<FastMap<KeyBytes, u64>> {
        root_specs
            .iter()
            .map(|spec| self.scan_one(spec, threads))
            .collect()
    }

    /// One spec, one scan: the tight [`query_partial`](Self::query_partial)
    /// loop inline, or the chunked parallel scan when workers are
    /// available.
    fn scan_one(&self, spec: &KeySpec, threads: usize) -> FastMap<KeyBytes, u64> {
        let threads = threads.clamp(1, self.rows.len().max(1));
        if threads == 1 {
            self.query_partial(spec)
        } else {
            self.scan_parallel(spec, threads)
        }
    }

    /// The chunked scan of [`scan_one`](Self::scan_one): `threads`
    /// scoped workers (2 ≤ `threads` ≤ rows) each aggregate a
    /// contiguous row chunk into a private map; the maps merge by
    /// per-key addition in chunk order.
    fn scan_parallel(&self, spec: &KeySpec, threads: usize) -> FastMap<KeyBytes, u64> {
        let proj = self.compile(spec);
        let chunk_len = self.rows.len().div_ceil(threads);
        let locals: Vec<FastMap<KeyBytes, u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .rows
                .chunks(chunk_len)
                .map(|rows| {
                    let proj = &proj;
                    scope.spawn(move || {
                        let mut map = fast_map_with_capacity(Self::capacity_hint(spec, rows.len()));
                        let mut scratch = KeyBytes::EMPTY;
                        for (full_key, size) in rows {
                            proj.project_into(full_key, &mut scratch);
                            *map.entry(scratch).or_insert(0) += size;
                        }
                        map
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| match w.join() {
                    Ok(map) => map,
                    // A worker panic is a bug in the scan itself;
                    // re-raise it with its original payload.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut locals = locals.into_iter();
        let mut merged = locals.next().unwrap_or_default();
        for map in locals {
            for (key, v) in map {
                *merged.entry(key).or_insert(0) += v;
            }
        }
        merged
    }

    /// The computed ancestor `specs[i]` rolls up from: of the earlier
    /// specs it is a partial key of, the one with the smallest result.
    fn best_parent(specs: &[KeySpec], i: usize, result_len: impl Fn(usize) -> usize) -> usize {
        (0..i)
            .filter(|&j| specs[i].is_partial_of(&specs[j])) // LINT: bounded(caller passes i < specs.len(); j < i)
            .min_by_key(|&j| result_len(j))
            .unwrap_or_else(|| invariant::violated("a non-root spec has an earlier ancestor"))
    }

    /// Sort entries by lexicographic key bytes — the order every rollup
    /// level is kept in.
    fn sort_entries(rows: &mut [(KeyBytes, u64)]) {
        rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
    }

    /// One rollup step: project the parent's sorted entries and merge
    /// equal keys. Monotone (prefix-shaped) projections keep the parent
    /// order, so merging is a linear `dedup` of adjacent runs;
    /// field-reordering projections re-sort first. No hash table is
    /// touched either way.
    fn roll_level(parent: &[(KeyBytes, u64)], proj: &Projector) -> Vec<(KeyBytes, u64)> {
        let mut rolled: Vec<(KeyBytes, u64)> =
            parent.iter().map(|(k, v)| (proj.project(k), *v)).collect();
        if !proj.preserves_order() {
            Self::sort_entries(&mut rolled);
        }
        rolled.dedup_by(|cur, acc| {
            if cur.0 == acc.0 {
                acc.1 += cur.1;
                true
            } else {
                false
            }
        });
        rolled
    }

    /// [`query_rollup`](Self::query_rollup) returning each level as a
    /// **key-sorted entry vector** instead of a hash map.
    ///
    /// This is the natural output shape of the rollup (levels are
    /// produced as sorted runs) and the natural input shape for
    /// hierarchy consumers (HHH threshold filters, reports), so no
    /// per-level hash table is ever materialized: for fine prefix
    /// levels — whose group count approaches the row count — that skips
    /// the single most expensive step of the map-shaped query, one
    /// hash-table insert per output group. Entries are sorted by
    /// lexicographic key bytes and contain exactly the pairs of
    /// [`query_partial`](Self::query_partial) for the same spec.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_rollup_entries(
        &self,
        specs: &[KeySpec],
        threads: usize,
    ) -> Vec<Vec<(KeyBytes, u64)>> {
        let (is_root, root_specs) = Self::split_roots(specs);
        let mut root_maps = self.root_results(&root_specs, threads).into_iter();

        let mut out: Vec<Vec<(KeyBytes, u64)>> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            // LINT: bounded(i < specs.len() = is_root.len())
            if is_root[i] {
                let mut rows: Vec<(KeyBytes, u64)> = root_maps
                    .next()
                    .unwrap_or_else(|| invariant::violated("one root result per root spec"))
                    .into_iter()
                    .collect();
                Self::sort_entries(&mut rows);
                out.push(rows);
                continue;
            }
            let parent = Self::best_parent(specs, i, |j| out[j].len()); // LINT: bounded(best_parent yields j < i = out.len())
            out.push(Self::roll_level(
                &out[parent],                    // LINT: bounded(parent < i = out.len())
                &spec.projector(&specs[parent]), // LINT: bounded(parent < i <= specs.len())
            ));
        }
        out
    }

    /// The engine front door: answer every spec, picking rollup where
    /// the set nests, one scan per remaining spec, and the parallel scan
    /// when the table is large and CPUs are available.
    /// Always bit-identical to per-spec
    /// [`query_partial`](Self::query_partial).
    pub fn query_all(&self, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
        self.query_rollup_threads(specs, self.auto_threads())
    }

    /// [`query_all`](Self::query_all) in sorted-entry shape (see
    /// [`query_rollup_entries`](Self::query_rollup_entries)) — the fast
    /// path for hierarchy workloads, where per-level hash maps would be
    /// built only to be iterated once.
    pub fn query_all_entries(&self, specs: &[KeySpec]) -> Vec<Vec<(KeyBytes, u64)>> {
        self.query_rollup_entries(specs, self.auto_threads())
    }

    /// Scan threads for [`query_all`](Self::query_all): 1 for small
    /// tables, else the machine's parallelism capped at
    /// [`PARALLEL_SCAN_MAX_THREADS`].
    fn auto_threads(&self) -> usize {
        if self.rows.len() < PARALLEL_SCAN_MIN_ROWS {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(PARALLEL_SCAN_MAX_THREADS)
        }
    }

    /// Estimated size of a single partial-key flow.
    ///
    /// Runs on the compiled projector — no per-row decode, no per-row
    /// allocation — and returns 0 immediately when `key`'s width cannot
    /// match `spec` (no projection of any row could equal it).
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key.
    pub fn query_flow(&self, spec: &KeySpec, key: &KeyBytes) -> u64 {
        let proj = self.compile(spec);
        if key.len() != proj.out_len() {
            return 0;
        }
        let mut scratch = KeyBytes::EMPTY;
        let mut sum = 0u64;
        for (full_key, size) in &self.rows {
            proj.project_into(full_key, &mut scratch);
            if scratch == *key {
                sum += size;
            }
        }
        sum
    }

    /// Total estimated traffic (the empty-key query).
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|&(_, v)| v).sum()
    }

    /// Partial-key flows at or above `threshold` — the heavy hitters of
    /// `spec` in one call.
    pub fn heavy_hitters(&self, spec: &KeySpec, threshold: u64) -> Vec<(KeyBytes, u64)> {
        self.query_partial(spec)
            .into_iter()
            .filter(|&(_, v)| v >= threshold)
            .collect()
    }

    /// Merge tables recorded under the **same full-key spec** into one:
    /// per-key `u64` sums in canonical (lexicographic key byte) row
    /// order. Exact by construction — addition neither creates nor
    /// drops weight, so the merged [`total`](Self::total) equals the
    /// inputs' totals summed, and any partial-key query of the merged
    /// table equals the per-key sum of the inputs' answers. This is the
    /// table half of epoch compaction (`crate::segment`): bucketing
    /// epochs must conserve weight exactly, and this is where that
    /// exactness comes from.
    ///
    /// `None` when `tables` is empty, the specs disagree — merging rows
    /// encoded under different full keys has no defined meaning — or a
    /// per-key sum would overflow `u64` (checked here, not left to the
    /// caller: wrapped sums would silently violate conservation).
    pub fn merged(tables: &[&FlowTable]) -> Option<FlowTable> {
        let first = tables.first()?;
        let full = *first.full_spec();
        if tables.iter().any(|t| *t.full_spec() != full) {
            return None;
        }
        // The identity projection through the group-by kernel: one
        // integer sort, cheap because compaction runs this beside the
        // ingest path.
        let identity = full.projector(&full);
        let mut groups =
            GroupBy::with_rows(full.encoded_len(), tables.iter().map(|t| t.len()).sum());
        for table in tables {
            groups.project(&table.rows, &identity);
        }
        groups.sort_and_sum()?;
        Some(FlowTable::new(full, groups.entries()))
    }
}

/// The query plane's group-by kernel: `SELECT g(k), SUM(size) GROUP BY
/// g(k)` as one sort of plain integers.
///
/// Each row's full key is read as its big-endian
/// [`word`](KeyBytes::word), projected by the compiled plan
/// ([`Projector::project_word`]) and kept with its size as an integer
/// pair: a `u64` word when the projected key fits in 8 bytes, a `u128`
/// word otherwise. One `sort_unstable` puts equal words side by side,
/// and one pass sums them with `checked_add`. Words of keys of one
/// length order like their bytes, so the groups come out in the
/// lexicographic key order of [`FlowTable::query_all_entries`], with
/// the same keys and the same sums.
///
/// Rows from any number of tables go into one buffer, each through its
/// own projector, so a cross-epoch window or a compaction merge is one
/// sort and one sum. The caller sizes the buffer once
/// ([`with_rows`](Self::with_rows)); [`project`](Self::project) and
/// [`sort_and_sum`](Self::sort_and_sum) then work in place and never
/// allocate, so they can run on a hot path.
#[derive(Debug)]
pub struct GroupBy {
    out_len: usize,
    filled: usize,
    pairs: Pairs,
}

/// The kernel's `(word, size)` buffer, in the narrowest word that holds
/// the projected key.
#[derive(Debug)]
enum Pairs {
    Narrow(Vec<(u64, u64)>),
    Wide(Vec<(u128, u64)>),
}

impl GroupBy {
    /// A kernel with room for `rows` rows projected to keys `out_len`
    /// bytes wide: the one allocation of a group-by.
    pub fn with_rows(out_len: usize, rows: usize) -> Self {
        let pairs = if out_len <= 8 {
            Pairs::Narrow(vec![(0, 0); rows])
        } else {
            Pairs::Wide(vec![(0, 0); rows])
        };
        Self {
            out_len,
            filled: 0,
            pairs,
        }
    }

    /// Project `rows` through `proj` into the next free slots. The
    /// buffer must have room for them: rows past the size given to
    /// [`with_rows`](Self::with_rows) are not grouped.
    #[inline]
    pub fn project(&mut self, rows: &[(KeyBytes, u64)], proj: &Projector) {
        debug_assert_eq!(proj.out_len(), self.out_len, "projector width");
        match &mut self.pairs {
            Pairs::Narrow(pairs) => project_pairs(pairs, self.filled, rows, proj),
            Pairs::Wide(pairs) => project_pairs(pairs, self.filled, rows, proj),
        }
        self.filled += rows.len();
    }

    /// Sort the projected rows and sum equal neighbours, in place.
    /// `None` when a group's sum overflows `u64`: no group is wrapped.
    pub fn sort_and_sum(&mut self) -> Option<()> {
        match &mut self.pairs {
            Pairs::Narrow(pairs) => sort_and_sum(pairs, self.filled),
            Pairs::Wide(pairs) => sort_and_sum(pairs, self.filled),
        }
    }

    /// The groups as `(partial key, size)` rows. After
    /// [`sort_and_sum`](Self::sort_and_sum) they are sorted by key bytes
    /// and each key appears once.
    pub fn entries(&self) -> Vec<(KeyBytes, u64)> {
        match &self.pairs {
            Pairs::Narrow(pairs) => pair_entries(pairs, self.out_len),
            Pairs::Wide(pairs) => pair_entries(pairs, self.out_len),
        }
    }
}

/// A sort word of the [`GroupBy`] kernel: the top bytes of a projected
/// key word.
trait Word: Copy + Ord {
    fn from_key_word(word: u128) -> Self;
    fn key_word(self) -> u128;
}

impl Word for u64 {
    #[inline]
    fn from_key_word(word: u128) -> Self {
        (word >> 64) as u64
    }
    #[inline]
    fn key_word(self) -> u128 {
        u128::from(self) << 64
    }
}

impl Word for u128 {
    #[inline]
    fn from_key_word(word: u128) -> Self {
        word
    }
    #[inline]
    fn key_word(self) -> u128 {
        self
    }
}

#[inline]
fn project_pairs<W: Word>(
    pairs: &mut [(W, u64)],
    from: usize,
    rows: &[(KeyBytes, u64)],
    proj: &Projector,
) {
    debug_assert!(from + rows.len() <= pairs.len(), "buffer sized too small");
    for (pair, (key, size)) in pairs.iter_mut().skip(from).zip(rows) {
        *pair = (W::from_key_word(proj.project_word(key.word())), *size);
    }
}

fn sort_and_sum<W: Word>(pairs: &mut Vec<(W, u64)>, filled: usize) -> Option<()> {
    pairs.truncate(filled);
    pairs.sort_unstable_by_key(|&(word, _)| word);
    let mut overflow = false;
    pairs.dedup_by(|cur, acc| {
        let same = cur.0 == acc.0;
        if same {
            match acc.1.checked_add(cur.1) {
                Some(sum) => acc.1 = sum,
                None => overflow = true,
            }
        }
        same
    });
    (!overflow).then_some(())
}

fn pair_entries<W: Word>(pairs: &[(W, u64)], len: usize) -> Vec<(KeyBytes, u64)> {
    pairs
        .iter()
        .map(|&(word, size)| (KeyBytes::from_word(word.key_word(), len), size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FiveTuple;

    fn table() -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        // Mirrors Figure 7 of the paper: (SrcIP, SrcPort)-style grouping.
        let rows = vec![
            (full.project(&FiveTuple::new(0x13620A1A, 1, 80, 9, 6)), 521),
            (full.project(&FiveTuple::new(0x22344D0D, 1, 80, 9, 6)), 305),
            (full.project(&FiveTuple::new(0x13620A1A, 2, 80, 9, 6)), 520),
            (full.project(&FiveTuple::new(0x22344D11, 1, 118, 9, 6)), 856),
            (full.project(&FiveTuple::new(0x22344D0D, 1, 123, 9, 6)), 463),
        ];
        FlowTable::new(full, rows)
    }

    /// A larger deterministic table for multi-path agreement tests.
    fn big_table(rows: usize) -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        let mut out = Vec::with_capacity(rows);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..rows {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ft = FiveTuple::new(
                (x >> 32) as u32,
                (x & 0xFFFF_FFFF) as u32,
                (x >> 16) as u16,
                (x >> 48) as u16,
                if x & 1 == 0 { 6 } else { 17 },
            );
            out.push((full.project(&ft), (x % 1000) + 1));
        }
        FlowTable::new(full, out)
    }

    #[test]
    fn figure7_grouping() {
        let t = table();
        let by_src = t.query_partial(&KeySpec::SRC_IP);
        let k = |ip: u32| KeySpec::SRC_IP.project(&FiveTuple::new(ip, 0, 0, 0, 0));
        assert_eq!(by_src[&k(0x13620A1A)], 1041, "521 + 520");
        assert_eq!(by_src[&k(0x22344D0D)], 768, "305 + 463");
        assert_eq!(by_src[&k(0x22344D11)], 856);
    }

    #[test]
    fn group_sums_conserve_total() {
        let t = table();
        for spec in KeySpec::PAPER_SIX {
            let grouped = t.query_partial(&spec);
            let sum: u64 = grouped.values().sum();
            assert_eq!(sum, t.total(), "partial key {spec}");
        }
    }

    #[test]
    fn query_flow_matches_partial_table() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::SRC_IP);
        for (key, &size) in &grouped {
            assert_eq!(t.query_flow(&KeySpec::SRC_IP, key), size);
        }
    }

    #[test]
    fn query_flow_width_mismatch_is_zero() {
        // A key of the wrong width can never match any projection; the
        // guard short-circuits before the scan.
        let t = table();
        assert_eq!(t.query_flow(&KeySpec::SRC_IP, &KeyBytes::new(&[1, 2])), 0);
        assert_eq!(t.query_flow(&KeySpec::SRC_IP, &KeyBytes::EMPTY), 0);
        assert_eq!(
            t.query_flow(&KeySpec::EMPTY, &KeyBytes::new(&[0, 0, 0, 0])),
            0
        );
        // Correct width still answers.
        assert_eq!(t.query_flow(&KeySpec::EMPTY, &KeyBytes::EMPTY), t.total());
    }

    #[test]
    fn empty_key_returns_total() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::EMPTY);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[&KeyBytes::EMPTY], t.total());
    }

    #[test]
    fn heavy_hitters_filter() {
        let t = table();
        let hh = t.heavy_hitters(&KeySpec::SRC_IP, 800);
        assert_eq!(hh.len(), 2, "1041 and 856 qualify");
    }

    #[test]
    fn full_key_query_is_identity() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::FIVE_TUPLE);
        assert_eq!(grouped.len(), t.len());
    }

    #[test]
    #[should_panic(expected = "not a partial key")]
    fn non_partial_query_panics() {
        let rows = vec![(KeySpec::SRC_IP.project(&FiveTuple::default()), 1)];
        let t = FlowTable::new(KeySpec::SRC_IP, rows);
        t.query_partial(&KeySpec::SRC_DST);
    }

    #[test]
    #[should_panic(expected = "not a partial key")]
    fn non_partial_multi_query_panics() {
        let rows = vec![(KeySpec::SRC_IP.project(&FiveTuple::default()), 1)];
        let t = FlowTable::new(KeySpec::SRC_IP, rows);
        t.query_all(&[KeySpec::EMPTY, KeySpec::SRC_DST]);
    }

    #[test]
    fn prefix_queries_work() {
        let t = table();
        let by_24 = t.query_partial(&KeySpec::src_prefix(24));
        // 0x22344D0D and 0x22344D11 share their /24.
        let k24 = KeySpec::src_prefix(24).project(&FiveTuple::new(0x22344D0D, 0, 0, 0, 0));
        assert_eq!(by_24[&k24], 305 + 463 + 856);
    }

    #[test]
    fn empty_table() {
        let t = FlowTable::new(KeySpec::FIVE_TUPLE, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert!(t.query_partial(&KeySpec::SRC_IP).is_empty());
        assert_eq!(
            t.query_flow(&KeySpec::SRC_IP, &KeyBytes::new(&[0, 0, 0, 0])),
            0
        );
        for maps in [
            t.query_rollup(&KeySpec::PAPER_SIX),
            t.query_rollup_threads(&KeySpec::PAPER_SIX, 4),
            t.query_all(&KeySpec::PAPER_SIX),
        ] {
            assert_eq!(maps.len(), 6);
            assert!(maps.iter().all(FastMap::is_empty));
        }
        let entries = t.query_all_entries(&KeySpec::PAPER_SIX);
        assert_eq!(entries.len(), 6);
        assert!(entries.iter().all(Vec::is_empty));
    }

    #[test]
    fn multi_matches_per_spec() {
        let t = big_table(3_000);
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        specs.push(KeySpec::src_prefix(9));
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_all(&specs), expect);
    }

    #[test]
    fn rollup_bit_identical_to_direct_projection() {
        // The proof-by-test of the rollup path: every level of the full
        // 33-level hierarchy, aggregated level-over-level, equals the
        // direct per-spec scan exactly.
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        let expect: Vec<_> = hierarchy.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&hierarchy), expect);
        assert_eq!(t.query_all(&hierarchy), expect);
    }

    #[test]
    fn rollup_handles_unrelated_and_duplicate_specs() {
        let t = big_table(1_000);
        // SRC_IP_PORT and DST_IP_PORT are unrelated (both roots); the
        // duplicate spec rolls up via the identity projection.
        let specs = [
            KeySpec::SRC_IP_PORT,
            KeySpec::DST_IP_PORT,
            KeySpec::SRC_IP_PORT,
            KeySpec::SRC_IP,
        ];
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&specs), expect);
    }

    /// `query_partial` reshaped to the sorted-entry contract of
    /// `query_rollup_entries`.
    fn sorted_partial(t: &FlowTable, spec: &KeySpec) -> Vec<(KeyBytes, u64)> {
        let mut rows: Vec<(KeyBytes, u64)> = t.query_partial(spec).into_iter().collect();
        rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        rows
    }

    #[test]
    fn rollup_entries_match_per_spec_and_stay_sorted() {
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        let got = t.query_all_entries(&hierarchy);
        let expect: Vec<_> = hierarchy.iter().map(|s| sorted_partial(&t, s)).collect();
        assert_eq!(got, expect);
        // The field-reordering (re-sort) path in entry shape too.
        let specs = [KeySpec::SRC_DST, KeySpec::DST_IP, KeySpec::EMPTY];
        let got = t.query_rollup_entries(&specs, 1);
        let expect: Vec<_> = specs.iter().map(|s| sorted_partial(&t, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn rollup_handles_field_reordering_projections() {
        // (SrcIP, DstIP) → DstIP gathers bytes out of order, so the
        // projected parent entries are *not* sorted and the rollup must
        // re-sort before merging runs — the non-monotone path.
        let t = big_table(2_000);
        let specs = [
            KeySpec::SRC_DST,
            KeySpec::DST_IP,
            KeySpec::src_dst_prefix(0, 13),
            KeySpec::EMPTY,
        ];
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&specs), expect);
    }

    #[test]
    fn parallel_scan_exact_across_thread_counts() {
        let t = big_table(10_000);
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            assert_eq!(
                t.query_rollup_threads(&specs, threads),
                expect,
                "{threads} threads"
            );
        }
        // More threads than rows degrades gracefully.
        let tiny = big_table(3);
        let expect: Vec<_> = specs.iter().map(|s| tiny.query_partial(s)).collect();
        assert_eq!(tiny.query_rollup_threads(&specs, 16), expect);
    }

    #[test]
    fn merged_sums_per_key_and_conserves_total() {
        let a = big_table(500);
        let b = big_table(300); // deterministic generator → overlapping keys
        let m = FlowTable::merged(&[&a, &b]).unwrap();
        assert_eq!(m.total(), a.total() + b.total(), "weight conserved");
        // Any partial-key answer of the merge is the per-key sum of the
        // inputs' answers.
        for spec in [KeySpec::SRC_IP, KeySpec::EMPTY, KeySpec::FIVE_TUPLE] {
            let mut want = a.query_partial(&spec);
            for (k, v) in b.query_partial(&spec) {
                *want.entry(k).or_insert(0) += v;
            }
            assert_eq!(m.query_partial(&spec), want, "{spec}");
        }
        // Canonical row order: merging in either order is identical.
        assert_eq!(FlowTable::merged(&[&b, &a]).unwrap().rows(), m.rows());
        // The rows are the per-key sums in the byte order of the keys.
        let mut want = std::collections::BTreeMap::<Vec<u8>, u64>::new();
        for (k, v) in a.rows().iter().chain(b.rows()) {
            *want.entry(k.as_slice().to_vec()).or_insert(0) += v;
        }
        let got: Vec<(Vec<u8>, u64)> = m
            .rows()
            .iter()
            .map(|(k, v)| (k.as_slice().to_vec(), *v))
            .collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        // Degenerate and error cases.
        assert!(FlowTable::merged(&[]).is_none());
        let narrow = FlowTable::new(KeySpec::SRC_IP, vec![]);
        assert!(FlowTable::merged(&[&a, &narrow]).is_none(), "spec mismatch");
        let solo = FlowTable::merged(&[&a]).unwrap();
        assert_eq!(solo.total(), a.total());
    }

    #[test]
    fn group_by_matches_query_partial_at_every_width() {
        // Duplicated full keys: the second half repeats the first.
        let t = big_table(2_000);
        let doubled: Vec<(KeyBytes, u64)> = t.rows().iter().chain(t.rows()).copied().collect();
        let t = FlowTable::new(*t.full_spec(), doubled);
        // Widths 0..=13 bytes: both word sizes and the 8-byte boundary.
        for ips in 0..4u8 {
            for flags in 0..8u8 {
                let spec = KeySpec {
                    src_ip_bits: if ips & 1 != 0 { 32 } else { 0 },
                    dst_ip_bits: if ips & 2 != 0 { 17 } else { 0 },
                    src_port: flags & 1 != 0,
                    dst_port: flags & 2 != 0,
                    proto: flags & 4 != 0,
                };
                let mut groups = GroupBy::with_rows(spec.encoded_len(), t.len());
                groups.project(t.rows(), &spec.projector(t.full_spec()));
                assert!(groups.sort_and_sum().is_some());
                assert_eq!(groups.entries(), sorted_partial(&t, &spec), "{spec}");
            }
        }
        // Tables under different full keys group together, each through
        // its own projector.
        let narrow = FlowTable::new(
            KeySpec::SRC_DST,
            t.rows()
                .iter()
                .map(|(k, v)| (KeySpec::SRC_DST.project_key(t.full_spec(), k), *v))
                .collect(),
        );
        let spec = KeySpec::src_prefix(20);
        let mut groups = GroupBy::with_rows(spec.encoded_len(), t.len() + narrow.len());
        for table in [&t, &narrow] {
            groups.project(table.rows(), &spec.projector(table.full_spec()));
        }
        assert!(groups.sort_and_sum().is_some());
        let doubled: Vec<(KeyBytes, u64)> = sorted_partial(&t, &spec)
            .into_iter()
            .map(|(k, v)| (k, 2 * v))
            .collect();
        assert_eq!(groups.entries(), doubled);
    }

    #[test]
    fn group_by_rejects_overflow_and_ignores_unfilled_slots() {
        let full = KeySpec::FIVE_TUPLE;
        let rows = [
            (full.project(&FiveTuple::new(1, 2, 3, 4, 6)), u64::MAX),
            (full.project(&FiveTuple::new(1, 9, 3, 4, 6)), 1),
        ];
        for (spec, fits) in [(KeySpec::SRC_IP, false), (KeySpec::SRC_DST, true)] {
            // Sized for more rows than are projected: the spare slots
            // must not surface as a zero key.
            let mut groups = GroupBy::with_rows(spec.encoded_len(), 5);
            groups.project(&rows, &spec.projector(&full));
            assert_eq!(groups.sort_and_sum().is_some(), fits, "{spec}");
            if fits {
                assert_eq!(groups.entries().len(), 2);
            }
        }
    }

    #[test]
    fn merged_rejects_per_key_overflow() {
        let full = KeySpec::FIVE_TUPLE;
        let key = full.project(&FiveTuple::new(1, 2, 3, 4, 6));
        let huge = FlowTable::new(full, vec![(key, u64::MAX)]);
        let one = FlowTable::new(full, vec![(key, 1)]);
        assert!(
            FlowTable::merged(&[&huge, &one]).is_none(),
            "a wrapped per-key sum must surface as None, not a silent wrap"
        );
        assert!(FlowTable::merged(&[&huge]).is_some(), "u64::MAX alone fits");
    }

    #[test]
    fn adaptive_capacity_for_low_cardinality_specs() {
        // A /8 prefix has at most 256 groups and the empty key exactly
        // one; the result maps must not pre-allocate for the row count.
        let t = big_table(20_000);
        let empty = t.query_partial(&KeySpec::EMPTY);
        assert_eq!(empty.len(), 1);
        assert!(
            empty.capacity() <= 8,
            "empty-key map capacity {} should stay tiny",
            empty.capacity()
        );
        let by8 = t.query_partial(&KeySpec::src_prefix(8));
        assert!(by8.len() <= 256);
        assert!(
            by8.capacity() <= 1024,
            "/8 map capacity {} should be bounded by key space, not rows",
            by8.capacity()
        );
        // Wide specs still pre-size to the row count (no regression in
        // the high-cardinality case: one allocation, no rehash storms).
        let full = t.query_partial(&KeySpec::FIVE_TUPLE);
        assert!(full.capacity() >= t.len());
    }
}
