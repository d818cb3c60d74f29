//! Merging CocoSketches (distributed / multi-shard collection).
//!
//! §8 of the paper points at Elastic's merge technique as future work;
//! this module supplies the natural CocoSketch analogue. Two sketches
//! with identical dimensions and hash seeds merge bucket-wise:
//!
//! - values add (each packet was counted in exactly one operand, so
//!   the merged totals conserve the union stream);
//! - when the two buckets hold different keys, the merged bucket keeps
//!   one of them with probability proportional to its operand's value —
//!   precisely the Theorem 1 coin, applied once per bucket, so the
//!   merged sketch keeps the unbiasedness of its operands.
//!
//! This is what lets the OVS shards (or switches across a network)
//! each run a private sketch and still produce one queryable table
//! with sketch-level (not table-level) semantics.

use crate::basic::BasicCocoSketch;
use hashkit::XorShift64Star;
use sketches::{MergeIncompat, MergeSketch, Sketch};
use traffic::KeyBytes;

/// Error returned when two sketches cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Dimension mismatch: (ours, theirs) as (d, l) pairs.
    DimensionMismatch((usize, usize), (usize, usize)),
    /// Same dimensions but different hash seeds — bucket positions
    /// would not correspond.
    SeedMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::DimensionMismatch(a, b) => {
                write!(f, "cannot merge {a:?} sketch with {b:?} sketch")
            }
            MergeError::SeedMismatch => write!(f, "sketches use different hash functions"),
        }
    }
}

impl std::error::Error for MergeError {}

impl BasicCocoSketch {
    /// Merge `other` into `self` (see module docs). Both operands must
    /// have been built with the same dimensions and master seed.
    pub fn merge_from(&mut self, other: &BasicCocoSketch) -> Result<(), MergeError> {
        if self.dims() != other.dims() {
            return Err(MergeError::DimensionMismatch(self.dims(), other.dims()));
        }
        if !self.same_hash_family(other) {
            return Err(MergeError::SeedMismatch);
        }
        let mut rng = XorShift64Star::new(self.merge_seed() ^ other.merge_seed() ^ 0x4D45_5247);
        self.merge_buckets(other, &mut rng);
        Ok(())
    }
}

impl MergeSketch for BasicCocoSketch {
    /// The generic sharded-engine entry point: delegates to
    /// [`BasicCocoSketch::merge_from`] (the Theorem 1 bucket-wise merge)
    /// and maps [`MergeError`] into the trait's error type.
    fn merge_shard(&mut self, other: Self) -> Result<(), MergeIncompat> {
        self.merge_from(&other)
            .map_err(|e| MergeIncompat(e.to_string()))
    }

    /// CocoSketch conserves weight exactly: bucket values sum to the
    /// inserted (and, after merges, union) stream weight.
    fn conserved_weight(&self) -> Option<u64> {
        Some(self.total_value())
    }
}

/// Merge an arbitrary number of shards into one sketch.
///
/// # Panics
/// Panics on an empty shard list; propagates [`MergeError`] otherwise.
pub fn merge_all(mut shards: Vec<BasicCocoSketch>) -> Result<BasicCocoSketch, MergeError> {
    assert!(!shards.is_empty(), "nothing to merge");
    let mut acc = shards.remove(0);
    for shard in &shards {
        acc.merge_from(shard)?;
    }
    Ok(acc)
}

/// Convenience: estimate of `key` across a set of *independent* (not
/// necessarily merge-compatible) sketches by summing per-sketch
/// estimates — the table-level fallback the OVS datapath uses when
/// shards were seeded differently.
pub fn sum_estimates(sketches: &[&dyn Sketch], key: &KeyBytes) -> u64 {
    sketches.iter().map(|s| s.query(key)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashkit::XorShift64Star as Rng;

    fn k(i: u32) -> KeyBytes {
        KeyBytes::new(&i.to_be_bytes())
    }

    #[test]
    fn merged_totals_conserve_union_stream() {
        let mut a = BasicCocoSketch::new(2, 32, 4, 7);
        let mut b = BasicCocoSketch::new(2, 32, 4, 7);
        let mut rng = Rng::new(1);
        let mut total = 0u64;
        for _ in 0..20_000 {
            let key = k((rng.next_u64() % 500) as u32);
            let w = 1 + rng.next_u64() % 3;
            if rng.next_u64() & 1 == 0 {
                a.update(&key, w);
            } else {
                b.update(&key, w);
            }
            total += w;
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.total_value(), total);
    }

    #[test]
    fn merge_of_disjoint_flows_is_mostly_exact() {
        // Two shards of disjoint flows: apart from the rare bucket
        // collision between an A-flow and a B-flow (where the merge
        // coin must drop one key), every flow keeps its exact count,
        // and the total is always conserved.
        let mut a = BasicCocoSketch::new(2, 256, 4, 3);
        let mut b = BasicCocoSketch::new(2, 256, 4, 3);
        for i in 0..20u32 {
            a.update(&k(i), 10);
            b.update(&k(100 + i), 20);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.total_value(), 20 * 10 + 20 * 20);
        let exact = (0..20u32).filter(|&i| a.query(&k(i)) == 10).count()
            + (0..20u32).filter(|&i| a.query(&k(100 + i)) == 20).count();
        assert!(exact >= 36, "only {exact}/40 flows exact after merge");
    }

    #[test]
    fn merge_same_flow_adds() {
        let mut a = BasicCocoSketch::new(2, 64, 4, 5);
        let mut b = BasicCocoSketch::new(2, 64, 4, 5);
        for _ in 0..100 {
            a.update(&k(1), 1);
            b.update(&k(1), 2);
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.query(&k(1)), 300);
    }

    #[test]
    fn merged_estimates_are_unbiased() {
        // The merge coin keeps E[f̂] = f: average a contended flow's
        // merged estimate over many trials.
        let watched = 40u64;
        let trials = 400u32;
        let mut acc = 0f64;
        for t in 0..trials {
            let mut a = BasicCocoSketch::new(1, 4, 4, 100 + u64::from(t));
            let mut b = BasicCocoSketch::new(1, 4, 4, 100 + u64::from(t));
            let mut rng = Rng::new(900 + u64::from(t));
            for i in 0..watched {
                // The watched flow lives in shard A, noise in both.
                a.update(&k(0), 1);
                let _ = i;
                for _ in 0..8 {
                    a.update(&k(1 + (rng.next_u64() % 300) as u32), 1);
                    b.update(&k(1 + (rng.next_u64() % 300) as u32), 1);
                }
            }
            a.merge_from(&b).unwrap();
            acc += a.query(&k(0)) as f64;
        }
        let mean = acc / f64::from(trials);
        let rel = (mean - watched as f64).abs() / watched as f64;
        assert!(rel < 0.2, "merged mean {mean} vs true {watched}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut a = BasicCocoSketch::new(2, 32, 4, 1);
        let b = BasicCocoSketch::new(2, 16, 4, 1);
        assert!(matches!(
            a.merge_from(&b),
            Err(MergeError::DimensionMismatch(..))
        ));
    }

    #[test]
    fn seed_mismatch_rejected() {
        let mut a = BasicCocoSketch::new(2, 32, 4, 1);
        let b = BasicCocoSketch::new(2, 32, 4, 2);
        assert_eq!(a.merge_from(&b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn merge_all_folds_shards() {
        let mut shards: Vec<BasicCocoSketch> =
            (0..4).map(|_| BasicCocoSketch::new(2, 64, 4, 9)).collect();
        for (i, shard) in shards.iter_mut().enumerate() {
            for _ in 0..50 {
                shard.update(&k(i as u32), 1);
            }
        }
        let merged = merge_all(shards).unwrap();
        for i in 0..4u32 {
            assert_eq!(merged.query(&k(i)), 50);
        }
        assert_eq!(merged.total_value(), 200);
    }

    #[test]
    #[should_panic(expected = "nothing to merge")]
    fn merge_all_empty_panics() {
        let _ = merge_all(vec![]);
    }

    #[test]
    fn sum_estimates_fallback() {
        let mut a = BasicCocoSketch::new(2, 64, 4, 1);
        let mut b = BasicCocoSketch::new(2, 64, 4, 99); // different seed
        a.update(&k(5), 7);
        b.update(&k(5), 3);
        assert_eq!(sum_estimates(&[&a, &b], &k(5)), 10);
    }
}
