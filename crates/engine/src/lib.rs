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
//! - [`session::EngineSession`]: the engine's one runtime, with an
//!   epoch lifecycle. Every shard runs one state machine: it stages
//!   packets into its sketch's batched hot path and double-buffers the
//!   sketch, so [`rotate`](session::EngineSession::rotate) seals a
//!   window exactly without stopping ingestion, and
//!   [`collect`](session::EngineSession::collect) returns it as an
//!   [`session::EpochRun`] (persistable as a [`cocosketch::Epoch`]). A
//!   single shard's state machine runs on the caller's thread, with no
//!   worker or ring. More shards run producer→ring→shard→merge: each
//!   worker drives its shard from its ring, where in-band
//!   [`session::Cmd::Seal`] and [`session::Cmd::Stop`] markers seal an
//!   epoch (the worker sends the sealed shard back on a one-deep
//!   channel) and end the stream, and `collect` merges the sealed
//!   shards off the hot path. A worker panic is re-raised on the
//!   producer from whichever wait it is in, never turned into a hang;
//! - [`sharded::ShardedEngine`]: the engine's configuration, RSS shard
//!   selection and shard factory over the [`sketches::MergeSketch`]
//!   contract (any mergeable sketch ingests sharded;
//!   [`sharded::ShardedCocoSketch`] is the CocoSketch instantiation).
//!   Its one-shot [`run`](sharded::ShardedEngine::run) is a session
//!   sealed once at every thread count, and
//!   [`sharded::EngineRun::flow_table`] bridges a finished run into the
//!   query plane ([`cocosketch::FlowTable`], whose
//!   [`rollup`](cocosketch::FlowTable::rollup) groups it by many partial
//!   keys at once);
//!
//! - [`affinity`]: shard-to-core pinning — a libc-free, SAFETY-audited
//!   `sched_setaffinity(2)` wrapper (Linux x86-64; no-op elsewhere)
//!   that the session uses when [`sharded::EngineConfig::pin`] is set,
//!   pinning each worker (or, with one shard, the caller's thread)
//!   *before* its shard is allocated so first touch places bucket
//!   memory NUMA-local to the core that ingests.
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
//! interleaves its operations under bounded schedules, the in-band
//! seal and stop markers included. The session itself has no `unsafe`
//! and no atomic: sealed shards come back on `std::sync::mpsc`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod ring;
pub mod session;
pub mod sharded;
pub(crate) mod sync;

pub use affinity::{available_cores, core_for_shard, pin_current_thread, PinError};
pub use ring::SpscRing;
pub use session::{Cmd, EngineSession, EpochRun, PendingEpoch};
pub use sharded::{EngineConfig, EngineRun, ShardedCocoSketch, ShardedEngine};
