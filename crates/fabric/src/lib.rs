#![warn(missing_docs)]
//! RDMA fabric abstraction for Spindle.
//!
//! The Spindle paper runs over 100 Gb/s InfiniBand NICs using one-sided RDMA
//! writes. This crate provides the equivalent substrate for environments
//! without RDMA hardware, preserving the two properties every Spindle
//! protocol decision relies on:
//!
//! 1. **Placement semantics** (paper §2.2): a one-sided write lands in the
//!    target's registered memory without involving the target CPU; placement
//!    is cache-line atomic; and two writes posted in order are *fenced* — any
//!    reader that observes the second also observes the first. *Within* one
//!    write, both backends place words in increasing address order, so a
//!    reader that observes a later word also observes every earlier one:
//!    whatever announces a multi-word datum must be its **last** word (an
//!    SST ring slot is laid out payload, round, header for this reason).
//! 2. **Cost structure** (paper §3.2, Fig. 1/Fig. 14): small-write latency is
//!    nearly flat (≈1.7 µs at 1 B → ≈2.5 µs at 4 KB), posting a work request
//!    costs the CPU ≈1 µs, the link serializes at 12.5 GB/s, and local memcpy
//!    has its own latency/bandwidth curve.
//!
//! Two backends implement the placement semantics, both behind the
//! [`Fabric`] trait ([`traits`]), so the protocol crates are written against
//! it only and further transports plug in without touching protocol code:
//!
//! * [`MemFabric`] — real threads, real atomics: remote writes are applied to
//!   the target's [`Region`] in increasing word order with release/acquire
//!   fences. Used by the threaded cluster runtime and the correctness tests.
//! * `spindle_net::TcpFabric` — per-peer ordered TCP byte streams standing in
//!   for RDMA's ordered one-sided writes, served by one poller thread per
//!   process.
//!
//! A production deployment would add an `ibverbs`/libfabric backend the same
//! way. `spindle-core`'s simulated runtime is not a backend: its rows live on
//! `MemFabric` regions, but its discrete-event engine times each write with
//! this crate's [`cost`] models and places it at its virtual arrival.

pub mod cost;
pub mod fault;
pub mod mem;
pub mod region;
pub mod traits;
pub mod types;

pub use cost::{MemcpyModel, NetModel, SsdModel};
pub use fault::{Disposition, FaultPlan};
pub use mem::MemFabric;
pub use region::Region;
pub use traits::{EpochTransition, Fabric, Successor};
pub use types::{NodeId, WriteOp};
