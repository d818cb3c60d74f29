//! The Stream-Summary structure behind SpaceSaving and Unbiased
//! SpaceSaving.
//!
//! A Stream-Summary (Metwally et al. 2005) tracks `m` (key, count) items
//! and supports O(1) *find the minimum count* — the operation a naive
//! USS implementation spends O(n) on, and the acceleration §7.2 of the
//! CocoSketch paper explicitly grants the USS baseline ("a hash table and
//! a double linked list").
//!
//! Layout: items live in an arena of slots and are grouped into
//! *buckets*, one per distinct count value, kept in a doubly-linked list
//! sorted by ascending count. A hash map indexes keys to slots. Unit
//! increments move an item at most one bucket forward, so updates are
//! O(1); weighted increments walk forward past the few intervening
//! distinct counts.
//!
//! Everything is index-based (`u32` into arenas) — no `Rc`, no unsafe,
//! and the whole structure is a handful of contiguous allocations.

use hashkit::{fast_map_with_capacity, FastMap};
use traffic::KeyBytes;

use crate::traits::COUNTER_BYTES;

const NIL: u32 = u32::MAX;

/// One tracked item.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: KeyBytes,
    count: u64,
    /// Bucket this slot belongs to.
    bucket: u32,
    /// Neighbours within the bucket's item list.
    prev: u32,
    next: u32,
}

/// One distinct count value and its items.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u64,
    /// First item in this bucket (NIL never occurs for live buckets).
    head: u32,
    /// Neighbouring buckets in ascending count order.
    prev: u32,
    next: u32,
}

/// A capacity-bounded (key, count) summary with O(1) minimum lookup.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    slots: Vec<Slot>,
    buckets: Vec<Bucket>,
    /// Free bucket arena entries.
    free_buckets: Vec<u32>,
    /// Smallest-count bucket (NIL when empty).
    bucket_head: u32,
    index: FastMap<KeyBytes, u32>,
    capacity: usize,
    key_bytes: usize,
}

impl StreamSummary {
    /// A summary holding at most `capacity` items of `key_bytes`-wide keys.
    pub fn new(capacity: usize, key_bytes: usize) -> Self {
        assert!(capacity > 0, "StreamSummary capacity must be positive");
        Self {
            slots: Vec::with_capacity(capacity),
            buckets: Vec::with_capacity(capacity + 1),
            free_buckets: Vec::new(),
            bucket_head: NIL,
            index: fast_map_with_capacity(capacity * 2),
            capacity,
            key_bytes,
        }
    }

    /// Modeled bytes per tracked item: the slot (key + counter + three
    /// links), its hash-table entry (key + slot reference), and an
    /// amortized share of a bucket node. This is what makes USS cost
    /// roughly 3–4x a raw (key, counter) pair — the overhead the paper
    /// charges it (§7.2).
    pub fn bytes_per_item(key_bytes: usize) -> usize {
        let slot = key_bytes + COUNTER_BYTES + 3 * 4;
        let index_entry = key_bytes + 8;
        let bucket_share = 16;
        slot + index_entry + bucket_share
    }

    /// Maximum number of tracked items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of tracked items.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when no more fresh keys fit without replacement.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Slot by arena id. Ids are minted by `insert` (`slots.len()` at
    /// the time) and slots are never removed, so every stored id stays
    /// in bounds for the structure's lifetime.
    #[inline]
    fn slot(&self, s: u32) -> &Slot {
        &self.slots[s as usize] // LINT: bounded(arena ids minted by insert; slots are never removed)
    }

    #[inline]
    fn slot_mut(&mut self, s: u32) -> &mut Slot {
        &mut self.slots[s as usize] // LINT: bounded(arena ids minted by insert; slots are never removed)
    }

    /// Bucket by arena id. Ids come from `alloc_bucket` — an in-bounds
    /// push or a recycled id — so the same arena argument applies.
    #[inline]
    fn bucket(&self, b: u32) -> &Bucket {
        &self.buckets[b as usize] // LINT: bounded(arena ids minted by alloc_bucket; entries recycled, never removed)
    }

    #[inline]
    fn bucket_mut(&mut self, b: u32) -> &mut Bucket {
        &mut self.buckets[b as usize] // LINT: bounded(arena ids minted by alloc_bucket; entries recycled, never removed)
    }

    /// Count of `key`, if tracked.
    pub fn get(&self, key: &KeyBytes) -> Option<u64> {
        self.index.get(key).map(|&s| self.slot(s).count)
    }

    /// True when `key` is tracked.
    pub fn contains(&self, key: &KeyBytes) -> bool {
        self.index.contains_key(key)
    }

    /// The smallest tracked count (0 when empty — the SpaceSaving
    /// convention: an empty summary admits anything for free).
    pub fn min_count(&self) -> u64 {
        if self.bucket_head == NIL {
            0
        } else {
            self.bucket(self.bucket_head).count
        }
    }

    /// All (key, count) pairs, unspecified order.
    pub fn entries(&self) -> Vec<(KeyBytes, u64)> {
        self.slots.iter().map(|s| (s.key, s.count)).collect()
    }

    /// Modeled memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.capacity * Self::bytes_per_item(self.key_bytes)
    }

    /// Add `w` to an already-tracked `key`. Returns false if untracked.
    pub fn increment(&mut self, key: &KeyBytes, w: u64) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        let new_count = self.slot(slot).count.wrapping_add(w);
        self.move_slot(slot, new_count);
        true
    }

    /// Insert a fresh key with initial count `w`.
    ///
    /// # Panics
    /// Panics when full or when the key is already tracked; callers check
    /// with [`is_full`](Self::is_full) / [`contains`](Self::contains)
    /// first (both are O(1)).
    pub fn insert(&mut self, key: KeyBytes, w: u64) {
        assert!(!self.is_full(), "insert into full StreamSummary");
        assert!(!self.index.contains_key(&key), "duplicate insert");
        let slot = self.slots.len() as u32;
        self.slots.push(Slot {
            key,
            count: w,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        });
        self.index.insert(key, slot);
        let bucket = self.find_or_make_bucket_from_head(w);
        self.attach(slot, bucket);
    }

    /// The SpaceSaving/USS replacement primitive: pick a victim from the
    /// minimum bucket, add `w` to its count, and — if `replace_with` is
    /// given — re-key it. Returns `(old_key, count_before_increment)`.
    ///
    /// # Panics
    /// Panics when empty (a caller bug: with capacity ≥ 1 the caller
    /// inserts while not full and replaces only once full).
    pub fn bump_min(&mut self, w: u64, replace_with: Option<KeyBytes>) -> (KeyBytes, u64) {
        assert!(self.bucket_head != NIL, "bump_min on empty StreamSummary");
        let victim = self.bucket(self.bucket_head).head;
        let old_key = self.slot(victim).key;
        let old_count = self.slot(victim).count;
        if let Some(new_key) = replace_with {
            debug_assert!(
                !self.index.contains_key(&new_key),
                "replacement key already tracked"
            );
            self.index.remove(&old_key);
            self.slot_mut(victim).key = new_key;
            self.index.insert(new_key, victim);
        }
        self.move_slot(victim, old_count.wrapping_add(w));
        (old_key, old_count)
    }

    /// Detach `slot` from its bucket and re-attach it at `new_count`.
    fn move_slot(&mut self, slot: u32, new_count: u64) {
        let old_bucket = self.slot(slot).bucket;
        debug_assert!(new_count > self.bucket(old_bucket).count);
        self.detach(slot);
        // Counts only grow, so the target bucket is at or after the old
        // one; search forward from it.
        let target = self.find_or_make_bucket_after(old_bucket, new_count);
        self.attach(slot, target);
        // Free the old bucket if the move emptied it.
        if self.bucket(old_bucket).head == NIL {
            self.unlink_bucket(old_bucket);
        }
        self.slot_mut(slot).count = new_count;
    }

    /// Unlink `slot` from its bucket's item list (bucket kept even if
    /// emptied; the caller decides when to free it).
    fn detach(&mut self, slot: u32) {
        let Slot {
            prev, next, bucket, ..
        } = *self.slot(slot);
        if prev != NIL {
            self.slot_mut(prev).next = next;
        } else {
            self.bucket_mut(bucket).head = next;
        }
        if next != NIL {
            self.slot_mut(next).prev = prev;
        }
        let s = self.slot_mut(slot);
        s.prev = NIL;
        s.next = NIL;
        s.bucket = NIL;
    }

    /// Push `slot` onto `bucket`'s item list.
    fn attach(&mut self, slot: u32, bucket: u32) {
        let head = self.bucket(bucket).head;
        let count = self.bucket(bucket).count;
        let s = self.slot_mut(slot);
        s.next = head;
        s.prev = NIL;
        s.bucket = bucket;
        s.count = count;
        if head != NIL {
            self.slot_mut(head).prev = slot;
        }
        self.bucket_mut(bucket).head = slot;
    }

    /// Allocate a bucket node.
    fn alloc_bucket(&mut self, count: u64) -> u32 {
        if let Some(b) = self.free_buckets.pop() {
            *self.bucket_mut(b) = Bucket {
                count,
                head: NIL,
                prev: NIL,
                next: NIL,
            };
            b
        } else {
            self.buckets.push(Bucket {
                count,
                head: NIL,
                prev: NIL,
                next: NIL,
            });
            (self.buckets.len() - 1) as u32
        }
    }

    /// Remove an empty bucket from the ordered list and recycle it.
    fn unlink_bucket(&mut self, b: u32) {
        debug_assert_eq!(self.bucket(b).head, NIL);
        let Bucket { prev, next, .. } = *self.bucket(b);
        if prev != NIL {
            self.bucket_mut(prev).next = next;
        } else {
            self.bucket_head = next;
        }
        if next != NIL {
            self.bucket_mut(next).prev = prev;
        }
        self.free_buckets.push(b);
    }

    /// Insert bucket `b` into the ordered list right after `after`
    /// (`NIL` = at the head).
    fn link_bucket_after(&mut self, b: u32, after: u32) {
        if after == NIL {
            let old_head = self.bucket_head;
            let nb = self.bucket_mut(b);
            nb.next = old_head;
            nb.prev = NIL;
            if old_head != NIL {
                self.bucket_mut(old_head).prev = b;
            }
            self.bucket_head = b;
        } else {
            let next = self.bucket(after).next;
            let nb = self.bucket_mut(b);
            nb.prev = after;
            nb.next = next;
            self.bucket_mut(after).next = b;
            if next != NIL {
                self.bucket_mut(next).prev = b;
            }
        }
    }

    /// Find the bucket with exactly `count`, scanning forward from the
    /// list head; create and link it if missing.
    fn find_or_make_bucket_from_head(&mut self, count: u64) -> u32 {
        self.find_or_make_bucket_scan(self.bucket_head, NIL, count)
    }

    /// Same, but scanning forward from `start` (a live bucket whose count
    /// is `< count`) — the fast path for increments.
    fn find_or_make_bucket_after(&mut self, start: u32, count: u64) -> u32 {
        debug_assert!(self.bucket(start).count < count);
        self.find_or_make_bucket_scan(self.bucket(start).next, start, count)
    }

    fn find_or_make_bucket_scan(&mut self, mut cur: u32, mut last_below: u32, count: u64) -> u32 {
        while cur != NIL {
            let c = self.bucket(cur).count;
            if c == count {
                return cur;
            }
            if c > count {
                break;
            }
            last_below = cur;
            cur = self.bucket(cur).next;
        }
        let b = self.alloc_bucket(count);
        self.link_bucket_after(b, last_below);
        b
    }

    /// Exhaustive structural check, used by tests.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        // Buckets strictly ascending, all non-empty, doubly linked.
        let mut prev_count: Option<u64> = None;
        let mut prev_b = NIL;
        let mut seen_slots = 0usize;
        let mut b = self.bucket_head;
        while b != NIL {
            let bucket = &self.buckets[b as usize];
            if let Some(pc) = prev_count {
                assert!(bucket.count > pc, "bucket counts must strictly ascend");
            }
            assert_eq!(bucket.prev, prev_b, "bucket back-link broken");
            assert_ne!(bucket.head, NIL, "live bucket must be non-empty");
            // Walk items.
            let mut s = bucket.head;
            let mut prev_s = NIL;
            while s != NIL {
                let slot = &self.slots[s as usize];
                assert_eq!(slot.bucket, b, "slot bucket back-reference");
                assert_eq!(slot.count, bucket.count, "slot count matches bucket");
                assert_eq!(slot.prev, prev_s, "slot back-link broken");
                assert_eq!(self.index[&slot.key], s, "index points at slot");
                seen_slots += 1;
                prev_s = s;
                s = slot.next;
            }
            prev_count = Some(bucket.count);
            prev_b = b;
            b = bucket.next;
        }
        assert_eq!(seen_slots, self.slots.len(), "all slots reachable");
        assert_eq!(self.index.len(), self.slots.len(), "index size");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashkit::XorShift64Star;

    fn k(i: u32) -> KeyBytes {
        KeyBytes::new(&i.to_be_bytes())
    }

    #[test]
    fn insert_and_get() {
        let mut ss = StreamSummary::new(4, 4);
        ss.insert(k(1), 5);
        ss.insert(k(2), 3);
        ss.check_invariants();
        assert_eq!(ss.get(&k(1)), Some(5));
        assert_eq!(ss.get(&k(2)), Some(3));
        assert_eq!(ss.get(&k(3)), None);
        assert_eq!(ss.min_count(), 3);
    }

    #[test]
    fn increment_moves_buckets() {
        let mut ss = StreamSummary::new(4, 4);
        ss.insert(k(1), 1);
        ss.insert(k(2), 1);
        ss.increment(&k(1), 1);
        ss.check_invariants();
        assert_eq!(ss.get(&k(1)), Some(2));
        assert_eq!(ss.min_count(), 1);
        ss.increment(&k(2), 5);
        ss.check_invariants();
        assert_eq!(ss.min_count(), 2);
    }

    #[test]
    fn increment_untracked_returns_false() {
        let mut ss = StreamSummary::new(2, 4);
        ss.insert(k(1), 1);
        assert!(!ss.increment(&k(9), 1));
        assert!(ss.increment(&k(1), 1));
    }

    #[test]
    fn bump_min_without_replace() {
        let mut ss = StreamSummary::new(2, 4);
        ss.insert(k(1), 10);
        ss.insert(k(2), 3);
        let (old, before) = ss.bump_min(4, None);
        ss.check_invariants();
        assert_eq!(old, k(2));
        assert_eq!(before, 3);
        assert_eq!(ss.get(&k(2)), Some(7), "key kept, count bumped");
    }

    #[test]
    fn bump_min_with_replace() {
        let mut ss = StreamSummary::new(2, 4);
        ss.insert(k(1), 10);
        ss.insert(k(2), 3);
        let (old, before) = ss.bump_min(4, Some(k(9)));
        ss.check_invariants();
        assert_eq!(old, k(2));
        assert_eq!(before, 3);
        assert_eq!(ss.get(&k(2)), None, "old key evicted");
        assert_eq!(ss.get(&k(9)), Some(7), "new key owns the counter");
    }

    #[test]
    fn min_tracks_smallest() {
        let mut ss = StreamSummary::new(8, 4);
        for i in 1..=8u32 {
            ss.insert(k(i), u64::from(i));
        }
        assert_eq!(ss.min_count(), 1);
        ss.increment(&k(1), 100);
        assert_eq!(ss.min_count(), 2);
        ss.check_invariants();
    }

    #[test]
    fn empty_and_full_flags() {
        let mut ss = StreamSummary::new(1, 4);
        assert!(ss.is_empty());
        assert_eq!(ss.min_count(), 0);
        ss.insert(k(1), 1);
        assert!(ss.is_full());
        assert_eq!(ss.len(), 1);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_when_full_panics() {
        let mut ss = StreamSummary::new(1, 4);
        ss.insert(k(1), 1);
        ss.insert(k(2), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_insert_panics() {
        let mut ss = StreamSummary::new(2, 4);
        ss.insert(k(1), 1);
        ss.insert(k(1), 1);
    }

    #[test]
    fn merging_into_shared_bucket_counts() {
        // Two items reaching the same count share one bucket.
        let mut ss = StreamSummary::new(4, 4);
        ss.insert(k(1), 2);
        ss.insert(k(2), 1);
        ss.increment(&k(2), 1);
        ss.check_invariants();
        assert_eq!(ss.get(&k(1)), Some(2));
        assert_eq!(ss.get(&k(2)), Some(2));
        // Bucket list should hold exactly one live bucket.
        assert_eq!(ss.min_count(), 2);
    }

    #[test]
    fn stress_against_reference_model() {
        // Random interleaving of insert/increment/bump_min, checked
        // against a naive map + full scans.
        let mut rng = XorShift64Star::new(0xBEEF);
        let mut ss = StreamSummary::new(32, 4);
        let mut model: std::collections::HashMap<KeyBytes, u64> = std::collections::HashMap::new();
        let mut next_key = 0u32;
        for step in 0..30_000 {
            let op = rng.next_u64() % 100;
            if op < 50 && !model.is_empty() {
                // Increment a random tracked key.
                let keys: Vec<KeyBytes> = model.keys().copied().collect();
                let key = keys[(rng.next_u64() as usize) % keys.len()];
                let w = 1 + rng.next_u64() % 5;
                assert!(ss.increment(&key, w));
                *model.get_mut(&key).unwrap() += w;
            } else if !ss.is_full() {
                next_key += 1;
                let w = 1 + rng.next_u64() % 5;
                ss.insert(k(next_key), w);
                model.insert(k(next_key), w);
            } else {
                next_key += 1;
                let w = 1 + rng.next_u64() % 5;
                let replace = rng.next_u64() & 1 == 0;
                let min_model = *model.values().min().unwrap();
                let (old, before) = ss.bump_min(w, if replace { Some(k(next_key)) } else { None });
                assert_eq!(before, min_model, "victim must hold the global min");
                if replace {
                    model.remove(&old);
                    model.insert(k(next_key), before + w);
                } else {
                    *model.get_mut(&old).unwrap() += w;
                }
            }
            if step % 500 == 0 {
                ss.check_invariants();
            }
        }
        ss.check_invariants();
        // Final state identical to the model.
        let mut got = ss.entries();
        let mut want: Vec<(KeyBytes, u64)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn memory_model_overhead() {
        // The auxiliary structures should cost ~3x a bare (key, counter)
        // pair — the overhead the paper charges USS.
        let bare = 13 + COUNTER_BYTES;
        let full = StreamSummary::bytes_per_item(13);
        let factor = full as f64 / bare as f64;
        assert!((2.5..4.5).contains(&factor), "overhead factor {factor}");
    }
}
