//! Count-Min sketch (Cormode & Muthukrishnan 2005) and the CM-Heap
//! heavy-hitter baseline.

use hashkit::HashFamily;
use traffic::KeyBytes;

use crate::topk::TopK;
use crate::traits::{buckets_for, MergeIncompat, MergeSketch, Sketch, COUNTER_BYTES};

/// Plain Count-Min: `depth` rows of `width` counters; query = min over
/// rows. Estimates never undercount.
#[derive(Debug, Clone)]
pub struct CountMin {
    rows: Vec<Vec<u64>>,
    hashes: HashFamily,
    width: usize,
}

impl CountMin {
    /// A `depth` x `width` Count-Min seeded from `seed`.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(
            depth > 0 && width > 0,
            "CountMin dimensions must be positive"
        );
        Self {
            rows: vec![vec![0u64; width]; depth],
            hashes: HashFamily::new(depth, seed),
            width,
        }
    }

    /// Size a Count-Min of `depth` rows to a memory budget.
    pub fn with_memory(mem_bytes: usize, depth: usize, seed: u64) -> Self {
        let width = buckets_for(mem_bytes / depth.max(1), COUNTER_BYTES);
        Self::new(depth, width, seed)
    }

    /// Add `w` to `key`.
    #[inline]
    pub fn insert(&mut self, key: &KeyBytes, w: u64) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            let j = self.hashes.index(i, key.as_slice(), self.width);
            row[j] += w; // LINT: bounded(j = fastrange(<width) = row.len())
        }
    }

    /// Point estimate: minimum across rows (an overestimate).
    #[inline]
    pub fn estimate(&self, key: &KeyBytes) -> u64 {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| row[self.hashes.index(i, key.as_slice(), self.width)]) // LINT: bounded(fastrange(<width) = row.len())
            .min()
            .unwrap_or(0)
    }

    /// Rows x width.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows.len(), self.width)
    }

    /// Sum of one counter row.
    ///
    /// Every insert adds `w` to *every* row, so each row independently
    /// sums to the total inserted weight — Count-Min conserves the
    /// stream weight exactly, per row.
    pub fn counter_total(&self) -> u64 {
        self.rows[0].iter().sum()
    }

    /// Fold a same-configuration Count-Min into `self` by element-wise
    /// counter addition (the classic CM merge: estimates over the union
    /// stream keep the never-undercount guarantee).
    pub fn merge_from(&mut self, other: &CountMin) -> Result<(), MergeIncompat> {
        if self.dims() != other.dims() {
            return Err(MergeIncompat(format!(
                "CountMin dims {:?} vs {:?}",
                self.dims(),
                other.dims()
            )));
        }
        for i in 0..self.rows.len() {
            if self.hashes.seed(i) != other.hashes.seed(i) {
                return Err(MergeIncompat(format!("CountMin row-{i} hash seed differs")));
            }
        }
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Modeled memory of the counter arrays.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * self.width * COUNTER_BYTES
    }
}

/// Count-Min sketch plus a top-k heap: the paper's "CM-Heap" baseline.
///
/// Every update refreshes the CM estimate and offers it to the heap, so
/// the heap converges on the flows with the largest estimates.
#[derive(Debug, Clone)]
pub struct CmHeap {
    cm: CountMin,
    heap: TopK,
}

impl CmHeap {
    /// Default row count used in the evaluation (the paper's Tofino
    /// configuration uses 3-row CM sketches; §7.1).
    pub const DEFAULT_DEPTH: usize = 3;
    /// Fraction of the budget given to the heap.
    const HEAP_SHARE: f64 = 0.25;

    /// Build from a total memory budget for keys of `key_bytes` width.
    pub fn with_memory(mem_bytes: usize, key_bytes: usize, seed: u64) -> Self {
        let heap_mem = (mem_bytes as f64 * Self::HEAP_SHARE) as usize;
        let heap_cap = buckets_for(heap_mem, key_bytes + COUNTER_BYTES);
        let cm = CountMin::with_memory(mem_bytes - heap_mem, Self::DEFAULT_DEPTH, seed);
        Self {
            cm,
            heap: TopK::new(heap_cap, key_bytes),
        }
    }

    /// Explicit-dimension constructor for tests.
    pub fn new(depth: usize, width: usize, heap_cap: usize, key_bytes: usize, seed: u64) -> Self {
        Self {
            cm: CountMin::new(depth, width, seed),
            heap: TopK::new(heap_cap, key_bytes),
        }
    }
}

impl Sketch for CmHeap {
    fn update(&mut self, key: &KeyBytes, w: u64) {
        self.cm.insert(key, w);
        let est = self.cm.estimate(key);
        if est > self.heap.min_tracked() || self.heap.get(key).is_some() {
            self.heap.offer(*key, est);
        }
    }

    fn query(&self, key: &KeyBytes) -> u64 {
        // Prefer the heap's snapshot (identical to CM here, but cheap);
        // fall back to the sketch for untracked flows.
        self.heap.get(key).unwrap_or_else(|| self.cm.estimate(key))
    }

    fn records(&self) -> Vec<(KeyBytes, u64)> {
        self.heap.entries()
    }

    fn memory_bytes(&self) -> usize {
        self.cm.memory_bytes() + self.heap.memory_bytes()
    }

    fn name(&self) -> &'static str {
        "CM-Heap"
    }
}

impl MergeSketch for CmHeap {
    /// Element-wise CM addition, then a heap rebuild: the union of both
    /// shards' tracked keys is re-estimated against the merged CM and
    /// re-offered into a fresh heap. Under the sharded-engine contract
    /// (every flow lands wholly in one shard) a flow heavy in the union
    /// stream is heavy in its own shard, so it is in one of the two
    /// heaps and survives the rebuild.
    fn merge_shard(&mut self, other: Self) -> Result<(), MergeIncompat> {
        if self.heap.capacity() != other.heap.capacity()
            || self.heap.key_bytes() != other.heap.key_bytes()
        {
            return Err(MergeIncompat(format!(
                "CM-Heap heap {}x{}B vs {}x{}B",
                self.heap.capacity(),
                self.heap.key_bytes(),
                other.heap.capacity(),
                other.heap.key_bytes()
            )));
        }
        self.cm.merge_from(&other.cm)?;
        let mut heap = TopK::new(self.heap.capacity(), self.heap.key_bytes());
        for (key, _) in self.heap.entries().into_iter().chain(other.heap.entries()) {
            heap.offer(key, self.cm.estimate(&key));
        }
        self.heap = heap;
        Ok(())
    }

    fn conserved_weight(&self) -> Option<u64> {
        Some(self.cm.counter_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u32) -> KeyBytes {
        KeyBytes::new(&i.to_be_bytes())
    }

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(3, 64, 1);
        for i in 0..500u32 {
            cm.insert(&k(i), u64::from(i % 7) + 1);
        }
        for i in 0..500u32 {
            assert!(cm.estimate(&k(i)) > u64::from(i % 7), "flow {i}");
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMin::new(4, 4096, 2);
        for rep in 1..=5u64 {
            for i in 0..10u32 {
                cm.insert(&k(i), rep);
            }
        }
        // With 10 flows in 4096 buckets, collisions across all 4 rows are
        // essentially impossible, so the min is exact.
        for i in 0..10u32 {
            assert_eq!(cm.estimate(&k(i)), 15);
        }
    }

    #[test]
    fn unseen_flow_small_estimate() {
        let mut cm = CountMin::new(3, 1024, 3);
        for i in 0..100u32 {
            cm.insert(&k(i), 1);
        }
        assert!(
            cm.estimate(&k(99_999)) <= 2,
            "mostly-empty sketch should say ~0"
        );
    }

    #[test]
    fn with_memory_sizing() {
        let cm = CountMin::with_memory(12_000, 3, 1);
        let (d, w) = cm.dims();
        assert_eq!(d, 3);
        assert_eq!(w, 1000);
        assert_eq!(cm.memory_bytes(), 12_000);
    }

    #[test]
    fn heap_finds_heavy_hitters() {
        let mut s = CmHeap::with_memory(64 * 1024, 4, 42);
        // 5 heavy flows of 1000, 2000 light flows of 1.
        for rep in 0..1000u32 {
            for h in 0..5u32 {
                s.update(&k(h), 1);
            }
            for l in 0..2u32 {
                s.update(&k(1000 + (rep * 2 + l) % 2000), 1);
            }
        }
        let recs = s.records();
        for h in 0..5u32 {
            let est = recs.iter().find(|(kb, _)| *kb == k(h)).map(|&(_, v)| v);
            let est = est.expect("heavy flow should be tracked");
            assert!(est >= 1000, "CM never underestimates, got {est}");
            assert!(est < 1200, "estimate {est} too inflated");
        }
    }

    #[test]
    fn query_matches_records() {
        let mut s = CmHeap::with_memory(16 * 1024, 4, 7);
        for _ in 0..100 {
            s.update(&k(1), 1);
        }
        let rec = s.records().into_iter().find(|(kb, _)| *kb == k(1)).unwrap();
        assert_eq!(s.query(&k(1)), rec.1);
    }

    #[test]
    fn memory_within_budget() {
        let s = CmHeap::with_memory(500_000, 13, 1);
        let m = s.memory_bytes();
        assert!(m <= 500_000, "memory {m} over budget");
        assert!(m > 450_000, "memory {m} leaves too much unused");
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_depth_panics() {
        CountMin::new(0, 10, 1);
    }

    #[test]
    fn merged_cm_equals_union_stream() {
        // Two shards over a partitioned stream, merged, must produce the
        // exact counter arrays of one sketch over the whole stream.
        let mut whole = CountMin::new(3, 256, 9);
        let mut a = CountMin::new(3, 256, 9);
        let mut b = CountMin::new(3, 256, 9);
        for i in 0..400u32 {
            let w = u64::from(i % 5) + 1;
            whole.insert(&k(i), w);
            if i % 2 == 0 {
                a.insert(&k(i), w);
            } else {
                b.insert(&k(i), w);
            }
        }
        a.merge_from(&b).unwrap();
        for i in 0..400u32 {
            assert_eq!(a.estimate(&k(i)), whole.estimate(&k(i)), "flow {i}");
        }
        assert_eq!(a.counter_total(), whole.counter_total());
    }

    #[test]
    fn cm_merge_rejects_mismatches() {
        let mut a = CountMin::new(3, 256, 9);
        assert!(a.merge_from(&CountMin::new(2, 256, 9)).is_err());
        assert!(a.merge_from(&CountMin::new(3, 128, 9)).is_err());
        assert!(a.merge_from(&CountMin::new(3, 256, 10)).is_err());
        assert!(a.merge_from(&CountMin::new(3, 256, 9)).is_ok());
    }

    #[test]
    fn cm_heap_merge_conserves_and_finds_heavies() {
        // Flow-partitioned shards: evens in shard a, odds in shard b.
        let mut a = CmHeap::with_memory(64 * 1024, 4, 42);
        let mut b = CmHeap::with_memory(64 * 1024, 4, 42);
        let mut total = 0u64;
        for rep in 0..1000u32 {
            for h in 0..6u32 {
                let s = if h % 2 == 0 { &mut a } else { &mut b };
                s.update(&k(h), 1);
                total += 1;
            }
            let l = 1000 + rep % 500;
            let s = if l % 2 == 0 { &mut a } else { &mut b };
            s.update(&k(l), 1);
            total += 1;
        }
        a.merge_shard(b).unwrap();
        assert_eq!(a.conserved_weight(), Some(total));
        let recs = a.records();
        for h in 0..6u32 {
            let est = recs.iter().find(|(kb, _)| *kb == k(h)).map(|&(_, v)| v);
            let est = est.expect("heavy flow must survive the heap rebuild");
            assert!(est >= 1000, "CM never underestimates, got {est}");
        }
        // Rebuilt heap answers queries from the merged CM.
        assert_eq!(a.query(&k(0)), a.cm.estimate(&k(0)));
    }

    #[test]
    fn cm_heap_merge_rejects_heap_mismatch() {
        let mut a = CmHeap::new(3, 64, 8, 4, 1);
        let b = CmHeap::new(3, 64, 16, 4, 1);
        assert!(a.merge_shard(b).is_err());
    }
}
