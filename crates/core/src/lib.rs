//! CocoSketch: high-performance sketch-based measurement over arbitrary
//! partial key queries (Zhang et al., SIGCOMM 2021).
//!
//! # The problem
//!
//! Classic sketches answer questions about **one** flow key fixed before
//! measurement starts. CocoSketch instead fixes only a *full key* `k_F`
//! (say, the 5-tuple) and can answer, at query time, size questions
//! about **any partial key** `k_P ≺ k_F` — SrcIP, (SrcIP, DstIP), any
//! prefix — by casting the partial-key query as subset-sum estimation:
//! a partial-key flow's size is the sum of the (unbiasedly estimated)
//! sizes of the full-key flows that project onto it.
//!
//! # The algorithms
//!
//! - [`BasicCocoSketch`] (§4.1): `d` bucket arrays; an unmatched packet
//!   bumps the minimum of its `d` hashed buckets and takes the key over
//!   with probability `w / (value + w)` — *stochastic variance
//!   minimization*, the power-of-`d` relaxation of Unbiased
//!   SpaceSaving's global-minimum scan. Runs best on CPUs/OVS.
//! - [`HardwareCocoSketch`] (§4.2): removes the circular dependencies
//!   (across buckets, and between key and value within a bucket) so the
//!   update pipelines on RMT switches and FPGAs: each array updates
//!   independently as if `d = 1`; queries take the median across arrays.
//!   Its [`DivisionMode`] selects exact replacement probabilities (FPGA)
//!   or the Tofino math-unit approximation (P4, [`probability`]).
//! - [`FlowTable`] (§4.3): the query front-end — build the `(full key,
//!   size)` table once, then `GROUP BY g(k_F)` for any partial key.
//!
//! # Quick start
//!
//! ```
//! use cocosketch::{BasicCocoSketch, FlowTable};
//! use sketches::Sketch;
//! use traffic::{FiveTuple, KeySpec};
//!
//! let full = KeySpec::FIVE_TUPLE;
//! let mut sk = BasicCocoSketch::with_memory(64 * 1024, 2, full.key_bytes(), 42);
//! // Feed packets (here: one flow with 3 packets).
//! let pkt = FiveTuple::new(0x0A000001, 0x0A000002, 1234, 80, 6);
//! for _ in 0..3 {
//!     sk.update(&full.project(&pkt), 1);
//! }
//! // Query ANY partial key after the fact.
//! let table = FlowTable::new(full, sk.records());
//! let by_src = table.query_partial(&KeySpec::SRC_IP);
//! assert_eq!(by_src[&KeySpec::SRC_IP.project(&pkt)], 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod basic;
pub mod epoch;
pub mod hardware;
pub mod merge;
pub mod probability;
pub mod query;
pub mod sampling;
pub mod segment;
pub mod snapshot;
pub mod vfs;

pub use basic::{BasicCocoSketch, TieBreak};
pub use epoch::{Epoch, EpochStore, SpillSink};
pub use hardware::{Combine, DivisionMode, HardwareCocoSketch};
pub use merge::{merge_all, MergeError};
pub use query::{FlowTable, GroupBy};
pub use sampling::SampledCoco;
pub use segment::{CompactionPolicy, DirReader, EpochDir, SharedEpochDir};
pub use vfs::{StdFs, Vfs, VfsFile};

/// Which CocoSketch variant to instantiate (used by experiment harnesses
/// that sweep the three versions of Figure 18a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Software variant with stochastic variance minimization across
    /// `d` buckets (§4.1).
    Basic,
    /// Hardware-friendly variant, exact probability arithmetic (the
    /// FPGA implementation, §6.1).
    Fpga,
    /// Hardware-friendly variant with Tofino's approximate division
    /// (the P4 implementation, §6.2).
    P4,
}

impl Variant {
    /// All three variants, in the paper's presentation order.
    pub const ALL: [Variant; 3] = [Variant::Basic, Variant::Fpga, Variant::P4];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Basic => "Basic",
            Variant::Fpga => "FPGA",
            Variant::P4 => "P4",
        }
    }

    /// Instantiate the variant as a boxed [`sketches::Sketch`].
    pub fn build(
        self,
        mem_bytes: usize,
        d: usize,
        key_bytes: usize,
        seed: u64,
    ) -> Box<dyn sketches::Sketch> {
        match self {
            Variant::Basic => Box::new(BasicCocoSketch::with_memory(mem_bytes, d, key_bytes, seed)),
            Variant::Fpga => Box::new(HardwareCocoSketch::with_memory(
                mem_bytes,
                d,
                key_bytes,
                DivisionMode::Exact,
                seed,
            )),
            Variant::P4 => Box::new(HardwareCocoSketch::with_memory(
                mem_bytes,
                d,
                key_bytes,
                DivisionMode::ApproxTofino,
                seed,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::KeySpec;

    #[test]
    fn variant_builder_names() {
        for v in Variant::ALL {
            let s = v.build(8 * 1024, 2, KeySpec::FIVE_TUPLE.key_bytes(), 1);
            assert!(s.memory_bytes() <= 8 * 1024);
            assert!(!v.name().is_empty());
        }
    }
}
