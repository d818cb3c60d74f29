//! Sealed measurement epochs and the store that holds them.
//!
//! Continuous deployments do not measure one trace and stop: they
//! rotate. Ingest fills a live sketch; at a window boundary the sketch
//! is *sealed* — converted into immutable, queryable [`FlowTable`]s —
//! while ingestion continues into a fresh sketch. An [`Epoch`] is one
//! such sealed window: its tables, its id (dense, starting at 0), and
//! exact packet/weight accounting for threshold computations. The
//! [`EpochStore`] keeps sealed epochs in id order so windowed tasks
//! (heavy change, adjacency diffs) address them by id.
//!
//! Sealed epochs persist in a versioned binary envelope around the
//! [`snapshot`] flow-table format:
//!
//! ```text
//! magic     4 bytes  b"CEP1"
//! id        u64 LE
//! packets   u64 LE
//! weight    u64 LE
//! n_tables  u32 LE
//! table     (byte_len u32 LE | snapshot::encode bytes) x n_tables
//! ```

use crate::query::FlowTable;
use crate::snapshot;
use std::io;
use std::sync::Arc;

/// Envelope magic for a serialized epoch. Distinct from the flow-table
/// magic (`b"CFT1"`) so readers can sniff which format a file holds.
pub const EPOCH_MAGIC: &[u8; 4] = b"CEP1";

const HEADER_LEN: usize = 4 + 8 + 8 + 8 + 4;

/// One sealed measurement window: immutable, queryable, accounted.
#[derive(Debug, Clone, PartialEq)]
pub struct Epoch {
    /// Dense id assigned by the sealing [`EpochStore`], starting at 0.
    pub id: u64,
    /// Packets ingested during the window.
    pub packets: u64,
    /// Total stream weight ingested during the window.
    pub weight: u64,
    /// The sealed flow tables. A full-key deployment seals one table;
    /// per-key deployments seal one per measured key, in spec order.
    pub tables: Vec<FlowTable>,
}

impl Epoch {
    /// The first sealed table — the full-key table for CocoSketch/USS
    /// deployments, which is what single-table consumers (the CLI's
    /// query path) want.
    ///
    /// # Panics
    /// Panics when the epoch sealed no tables.
    pub fn primary(&self) -> &FlowTable {
        &self.tables[0]
    }
}

/// Encode a sealed epoch for export (see the module docs for layout).
pub fn encode(epoch: &Epoch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(epoch, &mut out);
    out
}

/// Append [`encode`]'s bytes to `out`, reserving their exact length
/// once, so a caller that frames the epoch (a wire status byte) copies
/// each row exactly once.
pub fn encode_into(epoch: &Epoch, out: &mut Vec<u8>) {
    let tables: usize = epoch
        .tables
        .iter()
        .map(|t| 4 + snapshot::encoded_len(t))
        .sum();
    out.reserve_exact(HEADER_LEN + tables);
    out.extend_from_slice(EPOCH_MAGIC);
    out.extend_from_slice(&epoch.id.to_le_bytes());
    out.extend_from_slice(&epoch.packets.to_le_bytes());
    out.extend_from_slice(&epoch.weight.to_le_bytes());
    out.extend_from_slice(&(epoch.tables.len() as u32).to_le_bytes());
    for table in &epoch.tables {
        out.extend_from_slice(&(snapshot::encoded_len(table) as u32).to_le_bytes());
        snapshot::encode_into(table, out);
    }
}

/// Decode an exported epoch. Returns `Err` (never panics) on
/// truncated, oversized, or otherwise malformed input.
pub fn decode(data: &[u8]) -> io::Result<Epoch> {
    let err = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.len() < HEADER_LEN {
        return Err(err("truncated epoch header"));
    }
    if data.get(0..4) != Some(EPOCH_MAGIC.as_slice()) {
        return Err(err("bad epoch magic"));
    }
    let word = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[at..at + 8]); // LINT: bounded(callers pass at + 8 <= HEADER_LEN <= data.len(), checked above)
        u64::from_le_bytes(b)
    };
    let id = word(4);
    let packets = word(12);
    let weight = word(20);
    let n_tables = u32::from_le_bytes([data[28], data[29], data[30], data[31]]) as usize;
    let mut tables = Vec::new();
    let mut at = HEADER_LEN;
    for i in 0..n_tables {
        let Some(prefix) = data.get(at..at + 4) else {
            return Err(err(&format!("truncated length prefix of table {i}")));
        };
        let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
        at += 4;
        let Some(body) = data.get(at..at + len) else {
            return Err(err(&format!("truncated body of table {i}")));
        };
        tables.push(snapshot::decode(body)?);
        at += len;
    }
    if at != data.len() {
        return Err(err("trailing bytes after last table"));
    }
    Ok(Epoch {
        id,
        packets,
        weight,
        tables,
    })
}

/// Where evicted epochs go instead of vanishing: the durable tier's
/// half of the rotation protocol. [`EpochStore::evict_to`] offers each
/// epoch it is about to drop to the attached sink; only epochs the
/// sink confirms durable leave RAM, so a failing disk degrades to
/// "history stops aging out" rather than "history is lost".
///
/// [`crate::segment::SharedEpochDir`] implements this by streaming the
/// epoch as a CEP1 segment file, and answers `is_durable` from its
/// published segment list without taking the directory lock.
pub trait SpillSink {
    /// Make `epoch` durable. Must be idempotent: the store may offer
    /// the same epoch again after a partial failure.
    fn spill(&mut self, epoch: &Arc<Epoch>) -> io::Result<()>;

    /// True when epoch `id` is already durable (spill may be skipped).
    fn is_durable(&self, id: u64) -> bool;
}

/// An in-order collection of sealed epochs with dense id assignment
/// and keep-last-N retention.
///
/// The store is the query-plane side of the rotation protocol: while
/// the data plane ingests epoch N+1, everything up to N sits here,
/// immutable and addressable by id. Long-running deployments cap the
/// store with [`evict_to`](Self::evict_to): the oldest epochs are
/// dropped but ids keep counting up from where sealing left off, so
/// adjacency (`(n, n+1)` diffs) over the retained suffix never
/// renumbers.
///
/// Epochs are held behind [`Arc`] so concurrent readers (the resident
/// query service in `crates/serve`) can clone a handle via
/// [`sealed_arc`](Self::sealed_arc) and keep querying a snapshot that
/// the store has since evicted: eviction drops the store's reference,
/// not the epoch, and sealed epochs are immutable, so an outstanding
/// handle stays bit-identical for as long as the reader holds it.
#[derive(Default)]
pub struct EpochStore {
    /// Retained epochs; `epochs[i].id == base + i`.
    epochs: Vec<Arc<Epoch>>,
    /// Id of the oldest retained epoch == number of evicted epochs.
    base: u64,
    /// Durable tier, if attached: eviction spills here before dropping.
    spill: Option<Box<dyn SpillSink + Send>>,
    /// First spill failure since the last
    /// [`take_spill_error`](Self::take_spill_error), surfaced out of
    /// band so the eviction path stays infallible for callers without
    /// a sink.
    spill_error: Option<io::Error>,
}

impl std::fmt::Debug for EpochStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochStore")
            .field("epochs", &self.epochs)
            .field("base", &self.base)
            .field("spill", &self.spill.as_ref().map(|_| "<sink>"))
            .field("spill_error", &self.spill_error)
            .finish()
    }
}

impl EpochStore {
    /// An empty store; the first sealed epoch gets id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`seal`](Self::seal) or [`push`](Self::push)
    /// will assign.
    pub fn next_id(&self) -> u64 {
        self.base + self.epochs.len() as u64
    }

    /// Seal a window: take its tables and accounting, assign the next
    /// dense id, and return it.
    pub fn seal(&mut self, tables: Vec<FlowTable>, packets: u64, weight: u64) -> u64 {
        let id = self.next_id();
        self.epochs.push(Arc::new(Epoch {
            id,
            packets,
            weight,
            tables,
        }));
        id
    }

    /// Store an already-built epoch (e.g. decoded from disk or sealed
    /// by the engine), asserting it carries the next dense id.
    ///
    /// # Panics
    /// Panics when `epoch.id` is not the id [`seal`](Self::seal) would
    /// assign next — ids are the adjacency relation, so gaps or
    /// reordering would silently corrupt windowed diffs.
    pub fn push(&mut self, epoch: Epoch) -> u64 {
        self.push_arc(Arc::new(epoch))
    }

    /// [`push`](Self::push) for an epoch already behind an [`Arc`]
    /// (e.g. one shared with a query-service catalog) — stores the
    /// handle without cloning the tables.
    ///
    /// # Panics
    /// Panics when `epoch.id` is not the next dense id, exactly like
    /// [`push`](Self::push).
    pub fn push_arc(&mut self, epoch: Arc<Epoch>) -> u64 {
        assert_eq!(
            epoch.id,
            self.next_id(),
            "epoch ids must be dense and in order"
        );
        let id = epoch.id;
        self.epochs.push(epoch);
        id
    }

    /// The sealed epoch with this id, if sealed and still retained.
    pub fn sealed(&self, id: u64) -> Option<&Epoch> {
        self.slot(id).map(|a| a.as_ref())
    }

    /// A shared handle to the sealed epoch with this id. The handle
    /// stays valid — queryable and bit-identical — even after
    /// [`evict_to`](Self::evict_to) drops the store's own reference.
    pub fn sealed_arc(&self, id: u64) -> Option<Arc<Epoch>> {
        self.slot(id).cloned()
    }

    fn slot(&self, id: u64) -> Option<&Arc<Epoch>> {
        let slot = id.checked_sub(self.base)?;
        self.epochs.get(usize::try_from(slot).ok()?)
    }

    /// The most recently sealed epoch.
    pub fn latest(&self) -> Option<&Epoch> {
        self.epochs.last().map(|a| a.as_ref())
    }

    /// A shared handle to the most recently sealed epoch.
    pub fn latest_arc(&self) -> Option<Arc<Epoch>> {
        self.epochs.last().cloned()
    }

    /// Number of retained epochs (evicted ones no longer count).
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// True when no epoch is retained.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Id of the oldest retained epoch, if any.
    pub fn oldest_id(&self) -> Option<u64> {
        self.epochs.first().map(|e| e.id)
    }

    /// Attach a durable tier: from now on,
    /// [`evict_to`](Self::evict_to) hands epochs to `sink` instead of
    /// dropping them. Replaces any previously attached sink.
    pub fn attach_spill(&mut self, sink: Box<dyn SpillSink + Send>) {
        self.spill = Some(sink);
    }

    /// The first spill failure since the last call, if any. While an
    /// error is pending the failed epoch (and everything newer) is
    /// still retained in RAM — nothing was lost, eviction just
    /// stopped early.
    pub fn take_spill_error(&mut self) -> Option<io::Error> {
        self.spill_error.take()
    }

    /// Drop the oldest epochs until at most `keep` remain; returns how
    /// many were evicted. Ids are not reused: the next seal continues
    /// the dense sequence, and lookups for evicted ids return `None`.
    /// `keep == 0` empties the store (useful before shutdown).
    ///
    /// With a sink attached (see [`attach_spill`](Self::attach_spill))
    /// each candidate is spilled first — skipped when the sink already
    /// reports it durable, e.g. because the seal path streams epochs to
    /// disk eagerly — and an epoch that fails to spill is *retained*
    /// along with everything newer (order must stay dense); the error
    /// is held for [`take_spill_error`](Self::take_spill_error).
    pub fn evict_to(&mut self, keep: usize) -> usize {
        let excess = self.epochs.len().saturating_sub(keep);
        let mut evicted = excess;
        if let Some(sink) = self.spill.as_mut() {
            evicted = 0;
            for epoch in self.epochs.iter().take(excess) {
                if !sink.is_durable(epoch.id) {
                    if let Err(e) = sink.spill(epoch) {
                        self.spill_error = Some(e);
                        break;
                    }
                }
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.epochs.drain(..evicted);
            self.base += evicted as u64;
        }
        evicted
    }

    /// Iterate retained epochs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Epoch> {
        self.epochs.iter().map(|a| a.as_ref())
    }

    /// The adjacent pair `(earlier, earlier + 1)` — the unit of
    /// windowed change detection — when both are sealed.
    pub fn adjacent(&self, earlier: u64) -> Option<(&Epoch, &Epoch)> {
        Some((self.sealed(earlier)?, self.sealed(earlier + 1)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{FiveTuple, KeySpec};

    fn table(n: u32, salt: u32) -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        let rows = (0..n)
            .map(|i| {
                (
                    full.project(&FiveTuple::new(i + salt, i * 2, 80, 443, 6)),
                    u64::from(i) + 1,
                )
            })
            .collect();
        FlowTable::new(full, rows)
    }

    #[test]
    fn store_assigns_dense_ids() {
        let mut store = EpochStore::new();
        assert!(store.is_empty());
        assert_eq!(store.seal(vec![table(3, 0)], 3, 6), 0);
        assert_eq!(store.seal(vec![table(4, 0)], 4, 10), 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.sealed(0).unwrap().packets, 3);
        assert_eq!(store.sealed(1).unwrap().weight, 10);
        assert_eq!(store.latest().unwrap().id, 1);
        assert!(store.sealed(2).is_none());
    }

    #[test]
    fn adjacent_needs_both_sides() {
        let mut store = EpochStore::new();
        store.seal(vec![table(3, 0)], 3, 6);
        assert!(store.adjacent(0).is_none());
        store.seal(vec![table(3, 9)], 3, 6);
        let (a, b) = store.adjacent(0).unwrap();
        assert_eq!((a.id, b.id), (0, 1));
        assert!(store.adjacent(1).is_none());
    }

    #[test]
    fn push_enforces_density() {
        let mut store = EpochStore::new();
        store.push(Epoch {
            id: 0,
            packets: 1,
            weight: 1,
            tables: vec![],
        });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.push(Epoch {
                id: 5,
                packets: 1,
                weight: 1,
                tables: vec![],
            })
        }));
        assert!(r.is_err(), "gap in ids must panic");
    }

    #[test]
    fn evict_to_keeps_the_last_n_without_renumbering() {
        let mut store = EpochStore::new();
        for i in 0..5u32 {
            store.seal(vec![table(2, i)], u64::from(i), u64::from(i) * 2);
        }
        assert_eq!(store.evict_to(2), 3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.oldest_id(), Some(3));
        assert!(store.sealed(2).is_none(), "evicted ids must not resolve");
        assert_eq!(store.sealed(3).unwrap().packets, 3);
        assert_eq!(store.latest().unwrap().id, 4);
        // Adjacency over the retained suffix still works; pairs that
        // straddle the eviction horizon do not.
        assert!(store.adjacent(2).is_none());
        assert!(store.adjacent(3).is_some());
        // Sealing continues the dense sequence past the eviction.
        assert_eq!(store.next_id(), 5);
        assert_eq!(store.seal(vec![table(1, 9)], 1, 1), 5);
        assert_eq!(store.iter().map(|e| e.id).collect::<Vec<_>>(), [3, 4, 5]);
        // push() keeps enforcing density against the offset sequence.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = EpochStore::new();
            s.seal(vec![], 0, 0);
            s.seal(vec![], 0, 0);
            s.evict_to(1);
            s.push(Epoch {
                id: 1, // next dense id is 2
                packets: 0,
                weight: 0,
                tables: vec![],
            })
        }));
        assert!(r.is_err(), "stale id after eviction must panic");
    }

    #[test]
    fn evict_to_edge_cases() {
        let mut store = EpochStore::new();
        assert_eq!(store.evict_to(0), 0, "empty store evicts nothing");
        store.seal(vec![], 1, 1);
        store.seal(vec![], 2, 2);
        assert_eq!(store.evict_to(10), 0, "keep larger than len is a no-op");
        assert_eq!(store.evict_to(0), 2, "keep 0 empties the store");
        assert!(store.is_empty());
        assert_eq!(store.oldest_id(), None);
        assert_eq!(store.next_id(), 2, "ids never restart");
        assert_eq!(store.seal(vec![], 3, 3), 2);
    }

    #[test]
    fn arc_outlives_eviction_bit_identical() {
        let mut store = EpochStore::new();
        for i in 0..4u32 {
            store.seal(vec![table(40, i * 100)], u64::from(i) + 10, 99);
        }
        // A reader grabs epoch 1 before the store evicts it.
        let held = store.sealed_arc(1).unwrap();
        let before_bytes = encode(&held);
        let spec = KeySpec::SRC_IP;
        let before_answer = held.primary().query_all_entries(&[spec]);
        assert_eq!(store.evict_to(2), 2);
        assert!(store.sealed(1).is_none(), "store dropped its reference");
        assert!(store.sealed_arc(1).is_none(), "stale id returns None");
        // The outstanding handle is unaffected: same bytes, same answers.
        assert_eq!(encode(&held), before_bytes);
        assert_eq!(held.primary().query_all_entries(&[spec]), before_answer);
        assert_eq!(held.id, 1);
    }

    #[test]
    fn concurrent_readers_survive_eviction() {
        // Threaded version of the above: readers hold Arcs and keep
        // querying while the owning thread seals and evicts under them.
        let mut store = EpochStore::new();
        for i in 0..3u32 {
            store.seal(vec![table(64, i)], u64::from(i), u64::from(i));
        }
        let spec = KeySpec::SRC_IP;
        let handles: Vec<_> = (0..3)
            .map(|id| {
                let epoch = store.sealed_arc(id).unwrap();
                let expect = epoch.primary().query_all_entries(&[spec]);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(epoch.primary().query_all_entries(&[spec]), expect);
                    }
                    (epoch.id, epoch.packets)
                })
            })
            .collect();
        // Evict everything the readers are using, then keep sealing.
        store.evict_to(0);
        for i in 3..6u32 {
            store.seal(vec![table(8, i)], u64::from(i), 0);
        }
        for (i, h) in handles.into_iter().enumerate() {
            let (id, packets) = h.join().unwrap();
            assert_eq!((id, packets), (i as u64, i as u64));
        }
        assert_eq!(store.oldest_id(), Some(3));
    }

    #[test]
    fn push_arc_shares_without_copying() {
        let mut store = EpochStore::new();
        let epoch = Arc::new(Epoch {
            id: 0,
            packets: 5,
            weight: 9,
            tables: vec![table(3, 0)],
        });
        store.push_arc(Arc::clone(&epoch));
        assert!(Arc::ptr_eq(&store.sealed_arc(0).unwrap(), &epoch));
    }

    #[test]
    fn roundtrip_multi_table() {
        let epoch = Epoch {
            id: 7,
            packets: 1000,
            weight: 2500,
            tables: vec![
                table(50, 0),
                table(20, 1000),
                FlowTable::new(KeySpec::SRC_IP, vec![]),
            ],
        };
        let back = decode(&encode(&epoch)).unwrap();
        assert_eq!(back, epoch);
        assert_eq!(back.primary().rows(), epoch.tables[0].rows());
    }

    #[test]
    fn encoding_keeps_the_documented_layout_in_one_exact_buffer() {
        let epoch = Epoch {
            id: 7,
            packets: 1000,
            weight: 2500,
            tables: vec![
                table(50, 0),
                table(20, 1000),
                FlowTable::new(KeySpec::SRC_IP, vec![]),
            ],
        };
        // The envelope assembled field by field from the module docs,
        // one snapshot::encode per table: segment files written before
        // encode_into existed have exactly these bytes.
        let mut want = EPOCH_MAGIC.to_vec();
        for v in [epoch.id, epoch.packets, epoch.weight] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        want.extend_from_slice(&3u32.to_le_bytes());
        for t in &epoch.tables {
            let bytes = snapshot::encode(t);
            assert_eq!(bytes.len(), snapshot::encoded_len(t));
            want.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            want.extend_from_slice(&bytes);
        }
        assert_eq!(encode(&epoch), want);
        // Appending behind a prefix reserves the exact length once.
        let mut framed = vec![0xAB];
        encode_into(&epoch, &mut framed);
        assert_eq!(framed[0], 0xAB);
        assert_eq!(&framed[1..], want.as_slice());
        assert_eq!(framed.capacity(), framed.len());
    }

    #[test]
    fn roundtrip_no_tables() {
        let epoch = Epoch {
            id: 0,
            packets: 0,
            weight: 0,
            tables: vec![],
        };
        assert_eq!(decode(&encode(&epoch)).unwrap(), epoch);
    }

    #[test]
    fn rejects_bad_magic_and_truncations() {
        let epoch = Epoch {
            id: 1,
            packets: 10,
            weight: 20,
            tables: vec![table(5, 0)],
        };
        let bytes = encode(&epoch);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err(), "bad magic");
        // Every possible truncation point must Err, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode(&extra).is_err(), "trailing bytes");
    }

    #[test]
    fn rejects_lying_table_count() {
        let epoch = Epoch {
            id: 1,
            packets: 10,
            weight: 20,
            tables: vec![table(5, 0)],
        };
        let mut bytes = encode(&epoch);
        bytes[28] = 2; // claims two tables, body has one
        assert!(decode(&bytes).is_err());
        bytes[28] = 0; // claims zero, body has one (trailing bytes)
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_huge_claimed_lengths() {
        // A length prefix far beyond the buffer must Err without any
        // attempt to allocate or slice out of bounds.
        let epoch = Epoch {
            id: 1,
            packets: 10,
            weight: 20,
            tables: vec![table(5, 0)],
        };
        let mut bytes = encode(&epoch);
        bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[derive(Default)]
    struct MemorySink {
        spilled: Vec<Arc<Epoch>>,
        fail_on: Option<u64>,
    }

    impl SpillSink for MemorySink {
        fn spill(&mut self, epoch: &Arc<Epoch>) -> io::Result<()> {
            if self.fail_on == Some(epoch.id) {
                return Err(io::Error::other("disk on fire"));
            }
            self.spilled.push(Arc::clone(epoch));
            Ok(())
        }

        fn is_durable(&self, id: u64) -> bool {
            self.spilled.iter().any(|e| e.id == id)
        }
    }

    #[test]
    fn evict_to_spills_before_dropping() {
        let mut store = EpochStore::new();
        for i in 0..4u32 {
            store.seal(vec![table(5, i)], u64::from(i), u64::from(i) * 3);
        }
        let held: Vec<_> = (0..4).map(|id| store.sealed_arc(id).unwrap()).collect();
        store.attach_spill(Box::<MemorySink>::default());
        assert_eq!(store.evict_to(1), 3);
        assert!(store.take_spill_error().is_none());
        assert_eq!(store.oldest_id(), Some(3));
        // Can't reach into the boxed sink, so assert via the held Arcs:
        // re-evicting must not re-spill (is_durable short-circuits) —
        // covered by the dir-backed integration tests; here we at least
        // know eviction completed and ids advanced densely.
        assert_eq!(store.next_id(), 4);
        drop(held);
    }

    #[test]
    fn spill_failure_retains_epochs() {
        let mut store = EpochStore::new();
        for i in 0..4u32 {
            store.seal(vec![table(5, i)], u64::from(i), u64::from(i) * 3);
        }
        store.attach_spill(Box::new(MemorySink {
            spilled: Vec::new(),
            fail_on: Some(1),
        }));
        // Epoch 0 spills; epoch 1 fails; 1..=3 must stay resident.
        assert_eq!(store.evict_to(0), 1);
        let err = store.take_spill_error().expect("error surfaced");
        assert_eq!(err.to_string(), "disk on fire");
        assert_eq!(store.oldest_id(), Some(1));
        assert_eq!(store.len(), 3);
        assert!(store.take_spill_error().is_none(), "error taken once");
    }

    #[test]
    fn garbage_never_panics() {
        use hashkit::XorShift64Star;
        let mut rng = XorShift64Star::new(0xE70C);
        for len in 0..200usize {
            let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            let _ = decode(&data); // must return, Ok or Err — not panic
        }
        // Garbage behind a valid magic exercises the header paths.
        for len in 0..200usize {
            let mut data: Vec<u8> = EPOCH_MAGIC.to_vec();
            data.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
            let _ = decode(&data);
        }
    }
}
