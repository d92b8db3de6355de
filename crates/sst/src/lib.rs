#![warn(missing_docs)]
//! The Shared State Table (paper §2.2).
//!
//! Derecho's SST models each node's state as a fixed set of *monotonic*
//! variables — counters that only increase, booleans that only flip
//! false→true, and lists updated by append/prefix-truncation — arranged in a
//! replicated table with one row per node. A node updates only its own row
//! and pushes changed ranges to the other members with one-sided RDMA
//! writes; it reads other nodes' state from its local replica.
//!
//! This crate provides:
//!
//! * [`LayoutBuilder`] / [`SstLayout`] — computes the per-row word layout
//!   (counter columns, SMC slot columns, guarded lists) for a view;
//! * [`Sst`] — a node's replica: typed accessors enforcing the "write own
//!   row only" rule and monotonicity, plus helpers that turn an update into
//!   the word range to push;
//! * guarded lists (see [`guard`]) — the paper's two-push guard protocol
//!   for data spanning multiple cache lines.

pub mod guard;
pub mod layout;
pub mod table;

pub use guard::{read_list, write_list, ListReadError};
pub use layout::{CounterCol, LayoutBuilder, ListCol, SlotsCol, SstLayout};
pub use table::{SlotHeader, Sst};
