//! The software-switch testbed model (the OVS deployment, §6/App. B).
//!
//! The paper integrates CocoSketch into Open vSwitch via DPDK: the
//! datapath writes packet headers into shared-memory ring buffers, and
//! dedicated measurement threads poll those rings, each updating its
//! own sketch shard. That architecture is the `engine` crate's
//! `EngineSession` — RSS partition, SPSC rings, polling shard workers,
//! merge — and Figure 15a runs it directly. This crate models only what
//! cannot exist on a dev box: the 40 GbE NIC line rate, as a throughput
//! cap ([`nic`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod nic;

pub use nic::NicModel;
