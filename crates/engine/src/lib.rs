//! The multi-threaded CocoSketch ingestion engine.
//!
//! The paper's software deployments (OVS via DPDK, §6/App. B) all share
//! one shape: packets are partitioned RSS-style by a hash of the full
//! key, each partition flows through a lock-free ring to a dedicated
//! worker owning a private sketch shard, and shards merge bucket-wise
//! into one unbiased sketch at collection time. This crate is that
//! shape as a library:
//!
//! - [`ring::SpscRing`]: the DPDK-style bounded SPSC ring, with bulk
//!   [`push_slice`](ring::SpscRing::push_slice)/
//!   [`pop_chunk`](ring::SpscRing::pop_chunk) so ring atomics amortize
//!   over packet batches;
//! - [`session::EngineSession`]: the one producer→ring→shard→merge
//!   runtime, with an epoch lifecycle —
//!   [`rotate`](session::EngineSession::rotate) pushes in-band seal
//!   markers through the rings (exact window boundaries without
//!   stopping ingestion), workers swap double-buffered shard sketches
//!   and hand sealed shards through a one-deep [`session::SealSlot`],
//!   and [`collect`](session::EngineSession::collect) merges them off
//!   the hot path into an [`session::EpochRun`] (persistable as a
//!   [`cocosketch::Epoch`]). A worker panic is re-raised on the
//!   producer from whichever wait it is in, never turned into a hang;
//! - [`sharded::ShardedEngine`]: the engine's configuration, RSS shard
//!   selection and shard factory over the [`sketches::MergeSketch`]
//!   contract (any mergeable sketch ingests sharded;
//!   [`sharded::ShardedCocoSketch`] is the CocoSketch instantiation).
//!   Its one-shot [`run`](sharded::ShardedEngine::run) is a session
//!   sealed once (a single shard runs inline on the caller's thread),
//!   and [`sharded::EngineRun::flow_table`] bridges a finished run into
//!   the query plane ([`cocosketch::FlowTable`], whose
//!   [`rollup`](cocosketch::FlowTable::rollup) groups it by many partial
//!   keys at once);
//!
//! - [`affinity`]: shard-to-core pinning — a libc-free, SAFETY-audited
//!   `sched_setaffinity(2)` wrapper (Linux x86-64; no-op elsewhere)
//!   that both engines use when [`sharded::EngineConfig::pin`] is set,
//!   pinning each worker *before* its shard is allocated so first
//!   touch places bucket memory NUMA-local to the worker's core.
//!
//! This crate is the data plane's designated `unsafe` crate (the slot
//! accesses in the ring, each with a documented ownership argument,
//! plus the affinity syscall; `hashkit` additionally carries the
//! audited prefetch/AVX2 intrinsics behind `deny(unsafe_code)`). Two
//! machine checks back the hand-written arguments: the
//! `cocolint` pass (`cargo run -p xtask -- lint`) requires every
//! `unsafe` block to carry a `// SAFETY:` comment, and with
//! `--features heavy-tests` the ring compiles against the `loom` model
//! checker (see `src/sync.rs`) and `tests/model.rs` exhaustively
//! interleaves its operations under bounded schedules.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod ring;
pub mod session;
pub mod sharded;
pub(crate) mod sync;

pub use affinity::{available_cores, core_for_shard, pin_current_thread, PinError};
pub use ring::SpscRing;
pub use session::{Cmd, EngineSession, EpochRun, PendingEpoch, SealSlot};
pub use sharded::{EngineConfig, EngineRun, ShardedCocoSketch, ShardedEngine};
