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
//! - **One group-by kernel** ([`GroupBy`]): every answer — the query
//!   service's (one table, or every table of a cross-epoch window),
//!   each level of the hierarchy rollup, and compaction's
//!   [`FlowTable::merged`] — projects rows to integer words, sorts them
//!   once and sums equal neighbours. On measured tables almost every
//!   row is its own group (a 23,259-row epoch gives 23,096–23,259
//!   groups for each of the six paper keys), so a hash map merges
//!   almost nothing and the answer is, in effect, one sort of the
//!   table; sorting plain integers instead of comparing byte slices is
//!   what makes that sort cheap.
//! - **Hierarchy rollup** ([`FlowTable::rollup`], and
//!   [`FlowTable::query_all`] in map shape): when one spec is a partial
//!   key of another *in the same query set*, its groups are summed
//!   from the ancestor's (much smaller) summed words instead of the
//!   table's rows. Projection composes (`g_{P2←F} = g_{P2←P1} ∘
//!   g_{P1←F}`) and per-key sums are exact `u64` additions, so every
//!   level is bit-identical to direct projection — a 33-level prefix
//!   hierarchy costs one sort of the table plus 32 linear passes over
//!   shrinking levels: a prefix projection keeps the ancestor's word
//!   order, so equal keys are already adjacent and only a
//!   field-reordering projection sorts again.
//! - **Reference scans** ([`FlowTable::query_partial`],
//!   [`FlowTable::query_all_entries`]): one hash-map scan per spec.
//!   They are kept apart from the kernel on purpose: the tests and
//!   benches check the kernel's answers against these, so every such
//!   check compares two independent group-bys.

use hashkit::{fast_map_with_capacity, FastMap};
use traffic::{KeyBytes, KeySpec, Projector};

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

    /// [`query_partial`](Self::query_partial) for each spec, as
    /// `(partial key, size)` entries sorted by key bytes: the hash-map
    /// reference that the kernel's answers ([`rollup`](Self::rollup),
    /// the query service) are checked against, in their shape.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_all_entries(&self, specs: &[KeySpec]) -> Vec<Vec<(KeyBytes, u64)>> {
        specs
            .iter()
            .map(|spec| {
                let mut entries: Vec<(KeyBytes, u64)> =
                    self.query_partial(spec).into_iter().collect();
                entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
                entries
            })
            .collect()
    }

    /// `GROUP BY` every spec of a set (e.g. a prefix hierarchy) in one
    /// **rollup**, each level as `(partial key, size)` entries sorted
    /// by key bytes, in `specs` order.
    ///
    /// A spec that is a partial key of an earlier spec in the set is
    /// summed from the [`GroupBy`] words of the earlier spec with the
    /// fewest groups; a spec with no such ancestor groups the table's
    /// rows. For the 33-level source-IP hierarchy that is one sort of
    /// the table and 32 passes over shrinking levels; for the
    /// 1089-level 2-d grid every level but the first rolls. A prefix
    /// projection keeps its ancestor's order
    /// ([`Projector::preserves_order`]), so its equal keys are already
    /// adjacent and are summed without a sort; a field-reordering
    /// projection sorts again. Ancestors must come *before* their
    /// descendants (hierarchies are listed fine → coarse).
    ///
    /// Every level equals per-spec [`query_partial`](Self::query_partial):
    /// projection composes and per-key sums are exact integer
    /// additions, so grouping through an intermediate key changes
    /// neither the keys nor the sums. `None` when a group's size
    /// overflows `u64` in any level.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn rollup(&self, specs: &[KeySpec]) -> Option<Vec<Vec<(KeyBytes, u64)>>> {
        Some(self.levels(specs)?.iter().map(GroupBy::entries).collect())
    }

    /// [`rollup`](Self::rollup) with each level built straight from its
    /// summed words into a hash map: the shape the per-key accuracy
    /// scorers look flows up in. Bit-identical to per-spec
    /// [`query_partial`](Self::query_partial); `None` when a group's
    /// size overflows `u64` in any level.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_all(&self, specs: &[KeySpec]) -> Option<Vec<FastMap<KeyBytes, u64>>> {
        Some(
            self.levels(specs)?
                .iter()
                .map(GroupBy::collect_groups)
                .collect(),
        )
    }

    /// The summed kernel of every level of [`rollup`](Self::rollup).
    fn levels(&self, specs: &[KeySpec]) -> Option<Vec<GroupBy>> {
        let mut levels: Vec<GroupBy> = Vec::with_capacity(specs.len());
        for spec in specs {
            // `levels` holds one kernel per earlier spec, so the zip
            // pairs each earlier spec with its own groups.
            let ancestor = specs
                .iter()
                .zip(&levels)
                .filter(|(earlier, _)| spec.is_partial_of(earlier))
                .min_by_key(|(_, groups)| groups.len());
            let groups = match ancestor {
                Some((earlier, groups)) => groups.rolled(&spec.projector(earlier))?,
                None => {
                    let mut groups = GroupBy::with_rows(spec.encoded_len(), self.rows.len());
                    groups.project(&self.rows, &self.compile(spec));
                    groups.sort_and_sum()?;
                    groups
                }
            };
            levels.push(groups);
        }
        Some(levels)
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
        self.project_words(rows.iter().map(|(key, size)| (key.word(), *size)), proj);
    }

    /// [`project`](Self::project) over `(key word, size)` rows: a
    /// table's keys, or another kernel's groups.
    #[inline]
    fn project_words(
        &mut self,
        rows: impl ExactSizeIterator<Item = (u128, u64)>,
        proj: &Projector,
    ) {
        debug_assert_eq!(proj.out_len(), self.out_len, "projector width");
        let n = rows.len();
        match &mut self.pairs {
            Pairs::Narrow(pairs) => project_pairs(pairs, self.filled, rows, proj),
            Pairs::Wide(pairs) => project_pairs(pairs, self.filled, rows, proj),
        }
        self.filled += n;
    }

    /// Sort the projected rows and sum equal neighbours, in place.
    /// `None` when a group's sum overflows `u64`: no group is wrapped.
    pub fn sort_and_sum(&mut self) -> Option<()> {
        self.sum(false)
    }

    /// [`sort_and_sum`](Self::sort_and_sum), skipping the sort when the
    /// projected words are already in order.
    fn sum(&mut self, sorted: bool) -> Option<()> {
        match &mut self.pairs {
            Pairs::Narrow(pairs) => sum_pairs(pairs, self.filled, sorted),
            Pairs::Wide(pairs) => sum_pairs(pairs, self.filled, sorted),
        }
    }

    /// Number of groups, once summed.
    fn len(&self) -> usize {
        match &self.pairs {
            Pairs::Narrow(pairs) => pairs.len(),
            Pairs::Wide(pairs) => pairs.len(),
        }
    }

    /// The groups of `proj` over this kernel's summed groups: one
    /// rollup level, in a kernel of its own. The words stay sorted
    /// when `proj` preserves order, so then they are only summed.
    /// `None` when a group's sum overflows `u64`.
    fn rolled(&self, proj: &Projector) -> Option<GroupBy> {
        let mut child = GroupBy::with_rows(proj.out_len(), self.len());
        match &self.pairs {
            Pairs::Narrow(groups) => child.project_words(key_words(groups), proj),
            Pairs::Wide(groups) => child.project_words(key_words(groups), proj),
        }
        child.sum(proj.preserves_order())?;
        Some(child)
    }

    /// The groups as `(partial key, size)` rows. After
    /// [`sort_and_sum`](Self::sort_and_sum) they are sorted by key bytes
    /// and each key appears once.
    pub fn entries(&self) -> Vec<(KeyBytes, u64)> {
        self.collect_groups()
    }

    /// The groups as `(partial key, size)` pairs, collected into `C`.
    fn collect_groups<C: FromIterator<(KeyBytes, u64)>>(&self) -> C {
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
    rows: impl ExactSizeIterator<Item = (u128, u64)>,
    proj: &Projector,
) {
    debug_assert!(from + rows.len() <= pairs.len(), "buffer sized too small");
    for (pair, (word, size)) in pairs.iter_mut().skip(from).zip(rows) {
        *pair = (W::from_key_word(proj.project_word(word)), size);
    }
}

/// Summed groups as `(key word, size)` rows, to roll into a coarser key.
fn key_words<W: Word>(groups: &[(W, u64)]) -> impl ExactSizeIterator<Item = (u128, u64)> + '_ {
    groups.iter().map(|&(word, size)| (word.key_word(), size))
}

fn sum_pairs<W: Word>(pairs: &mut Vec<(W, u64)>, filled: usize, sorted: bool) -> Option<()> {
    pairs.truncate(filled);
    if !sorted {
        pairs.sort_unstable_by_key(|&(word, _)| word);
    }
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

fn pair_entries<W: Word, C: FromIterator<(KeyBytes, u64)>>(pairs: &[(W, u64)], len: usize) -> C {
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
        // Every level of an empty table is empty, the empty key's too.
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        assert_rollup_matches(&t, &specs);
        assert!(t.rollup(&specs).unwrap().iter().all(Vec::is_empty));
    }

    /// `rollup` and `query_all` against one `query_partial` per spec.
    fn assert_rollup_matches(t: &FlowTable, specs: &[KeySpec]) {
        let maps: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_all(specs).unwrap(), maps, "{specs:?}");
        assert_eq!(
            t.rollup(specs).unwrap(),
            t.query_all_entries(specs),
            "{specs:?}"
        );
    }

    #[test]
    fn multi_matches_per_spec() {
        let t = big_table(3_000);
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        specs.push(KeySpec::src_prefix(9));
        assert_rollup_matches(&t, &specs);
    }

    #[test]
    fn rollup_bit_identical_to_direct_projection() {
        // The proof-by-test of the rollup path: every level of the full
        // 33-level hierarchy, aggregated level-over-level, equals the
        // direct per-spec scan exactly.
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        assert_rollup_matches(&t, &hierarchy);
    }

    #[test]
    fn rollup_handles_unrelated_and_duplicate_specs() {
        let t = big_table(1_000);
        // SRC_IP_PORT and DST_IP_PORT are unrelated (both roots); the
        // duplicate spec rolls up via the identity projection.
        assert_rollup_matches(
            &t,
            &[
                KeySpec::SRC_IP_PORT,
                KeySpec::DST_IP_PORT,
                KeySpec::SRC_IP_PORT,
                KeySpec::SRC_IP,
            ],
        );
        // Rolls out of the 13-byte (u128-word) full key: to an 8-byte
        // (u64-word) key, and to a 10-byte key that stays wide.
        assert_rollup_matches(&t, &[KeySpec::FIVE_TUPLE, KeySpec::SRC_DST]);
        let src_dst_sport = KeySpec {
            src_port: true,
            ..KeySpec::SRC_DST
        };
        assert_rollup_matches(&t, &[KeySpec::FIVE_TUPLE, src_dst_sport]);
    }

    #[test]
    fn rollup_entries_match_per_spec_and_stay_sorted() {
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        let levels = t.rollup(&hierarchy).unwrap();
        assert_eq!(levels, t.query_all_entries(&hierarchy));
        for level in &levels {
            assert!(level
                .windows(2)
                .all(|w| w[0].0.as_slice() < w[1].0.as_slice()));
        }
        // The field-reordering (re-sort) path in entry shape too.
        let specs = [KeySpec::SRC_DST, KeySpec::DST_IP, KeySpec::EMPTY];
        assert_eq!(t.rollup(&specs).unwrap(), t.query_all_entries(&specs));
    }

    #[test]
    fn rollup_handles_field_reordering_projections() {
        // (SrcIP, DstIP) → DstIP gathers bytes out of order, so the
        // projected parent entries are *not* sorted and the rollup must
        // re-sort before merging runs — the non-monotone path.
        let t = big_table(2_000);
        assert_rollup_matches(
            &t,
            &[
                KeySpec::SRC_DST,
                KeySpec::DST_IP,
                KeySpec::src_dst_prefix(0, 13),
                KeySpec::EMPTY,
            ],
        );
        // A 9×9 slice of Figure 12's 2-d grid over a (SrcIP, DstIP)
        // table, fine → coarse: a level with a shorter source prefix
        // and a kept destination must re-sort, and the levels that drop
        // a field entirely narrow the key.
        let pairs = FlowTable::new(
            KeySpec::SRC_DST,
            t.rows()
                .iter()
                .map(|(k, v)| (KeySpec::SRC_DST.project_key(t.full_spec(), k), *v))
                .collect(),
        );
        let bits: Vec<u8> = (0..=32u8).rev().step_by(4).collect();
        let grid: Vec<KeySpec> = bits
            .iter()
            .flat_map(|&s| bits.iter().map(move |&d| KeySpec::src_dst_prefix(s, d)))
            .collect();
        assert_eq!(grid.len(), 81);
        assert_rollup_matches(&pairs, &grid);
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
                assert_eq!(groups.entries(), t.query_all_entries(&[spec])[0], "{spec}");
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
        let doubled: Vec<(KeyBytes, u64)> = t.query_all_entries(&[spec])[0]
            .iter()
            .map(|&(k, v)| (k, 2 * v))
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
        // A rollup in which only the coarse level overflows: the full
        // key and (SrcIP, DstIP) keep both flows apart, SrcIP sums them.
        let t = FlowTable::new(full, rows.to_vec());
        let fine = [full, KeySpec::SRC_DST];
        assert!(t.rollup(&fine).is_some());
        assert!(t.query_all(&fine).is_some());
        let coarse = [full, KeySpec::SRC_DST, KeySpec::SRC_IP];
        assert!(t.rollup(&coarse).is_none());
        assert!(t.query_all(&coarse).is_none());
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
