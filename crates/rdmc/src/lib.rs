#![warn(missing_docs)]
//! RDMC-style large-object multicast for Spindle.
//!
//! The Spindle paper's Figure 4 caption notes that Derecho has a *second*
//! multicast layer, RDMC ("RDMC: A Reliable RDMA Multicast for Large
//! Objects", Behrens et al., DSN 2018 — reference \[4\] of the paper), and
//! that *"shifting to it might be advisable for subgroups with more than 12
//! members"*. Section 4.1.2 likewise observes that large batches "do not
//! give good throughput with a simple multicast send scheme of SMC
//! (sequential send)". This crate implements that second layer so the
//! repository covers the full Derecho data plane and can quantify the
//! SMC-vs-RDMC crossover the paper gestures at.
//!
//! RDMC decomposes a large message into fixed-size *blocks* and multicasts
//! it as a deterministic schedule of unicast block transfers over one-sided
//! RDMA. Because the schedule is a pure function of `(group size, block
//! count, node rank)`, no control traffic is needed during the transfer —
//! exactly the property that makes RDMC efficient on RDMA. Four schedules
//! are provided, in increasing sophistication:
//!
//! * [`ScheduleKind::SequentialSend`] — the sender unicasts the full message
//!   to each receiver in turn. This is what SMC effectively does for its
//!   batched slot pushes, and is the baseline the paper refers to.
//! * [`ScheduleKind::ChainSend`] — blocks are relayed down a chain; latency
//!   grows linearly in the group size but every interior link is fully
//!   utilized.
//! * [`ScheduleKind::BinomialTree`] — the classic whole-message binomial
//!   broadcast; optimal for single-block messages.
//! * [`ScheduleKind::BinomialPipeline`] — RDMC's contribution (after
//!   Ganesan & Seshadri): a hypercube schedule in which every node sends
//!   and receives one block per round, completing in roughly
//!   `k + log2(n)` block times for `k` blocks over `n` nodes.
//!
//! The crate is a schedule model, not a runtime data plane. The
//! [`schedule`] module generates schedules and statically verifies their
//! invariants; the [`executor`] module runs a schedule sequentially over
//! real byte buffers (used by tests to prove content propagation); the
//! [`analysis`] module prices a schedule against the calibrated
//! [`NetModel`] to produce the completion-time / bandwidth numbers used by
//! the `figures rdmc` experiment.
//!
//! # Examples
//!
//! ```
//! use spindle_rdmc::{Rdmc, ScheduleKind};
//! use spindle_fabric::NetModel;
//!
//! // Multicast a 1 MiB object to 16 nodes in 64 KiB blocks.
//! let rdmc = Rdmc::new(16, 1 << 20, 64 << 10)?;
//! let pipeline = rdmc.schedule(ScheduleKind::BinomialPipeline);
//! let seq = rdmc.schedule(ScheduleKind::SequentialSend);
//!
//! let net = NetModel::default();
//! let t_pipe = rdmc.completion_time(&pipeline, &net);
//! let t_seq = rdmc.completion_time(&seq, &net);
//! // The binomial pipeline beats sequential send at this scale.
//! assert!(t_pipe < t_seq);
//! # Ok::<(), spindle_rdmc::RdmcError>(())
//! ```

pub mod analysis;
pub mod executor;
pub mod schedule;

pub use analysis::{Analysis, CompletionBreakdown};
pub use executor::{ExecError, ExecReport};
pub use schedule::{Round, Schedule, ScheduleKind, Transfer, VerifyError};

use std::fmt;
use std::time::Duration;

use spindle_fabric::NetModel;

/// Errors from constructing an [`Rdmc`] transfer description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmcError {
    /// Fewer than two nodes: there is nothing to multicast.
    GroupTooSmall,
    /// Message size of zero.
    EmptyMessage,
    /// Block size of zero.
    ZeroBlockSize,
}

impl fmt::Display for RdmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmcError::GroupTooSmall => write!(f, "rdmc group needs at least 2 nodes"),
            RdmcError::EmptyMessage => write!(f, "message size must be non-zero"),
            RdmcError::ZeroBlockSize => write!(f, "block size must be non-zero"),
        }
    }
}

impl std::error::Error for RdmcError {}

/// A large-object multicast problem: `n` nodes (rank 0 is the root/sender),
/// a message of `message_bytes` split into blocks of at most `block_bytes`.
///
/// # Examples
///
/// ```
/// use spindle_rdmc::Rdmc;
///
/// let r = Rdmc::new(4, 100, 32)?;
/// assert_eq!(r.blocks(), 4);               // 32+32+32+4
/// assert_eq!(r.block_len(3), 4);           // last block is short
/// # Ok::<(), spindle_rdmc::RdmcError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rdmc {
    nodes: usize,
    message_bytes: usize,
    block_bytes: usize,
}

impl Rdmc {
    /// Describes a multicast of `message_bytes` from rank 0 to `nodes - 1`
    /// other members, in blocks of at most `block_bytes`.
    ///
    /// # Errors
    ///
    /// Returns an error if `nodes < 2`, `message_bytes == 0`, or
    /// `block_bytes == 0`.
    pub fn new(nodes: usize, message_bytes: usize, block_bytes: usize) -> Result<Self, RdmcError> {
        if nodes < 2 {
            return Err(RdmcError::GroupTooSmall);
        }
        if message_bytes == 0 {
            return Err(RdmcError::EmptyMessage);
        }
        if block_bytes == 0 {
            return Err(RdmcError::ZeroBlockSize);
        }
        Ok(Rdmc {
            nodes,
            message_bytes,
            block_bytes,
        })
    }

    /// Number of group members, including the root.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total message size in bytes.
    pub fn message_bytes(&self) -> usize {
        self.message_bytes
    }

    /// Maximum block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Number of blocks the message splits into.
    pub fn blocks(&self) -> usize {
        self.message_bytes.div_ceil(self.block_bytes)
    }

    /// Size of block `b` in bytes (the last block may be short).
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.blocks()`.
    pub fn block_len(&self, b: usize) -> usize {
        assert!(b < self.blocks(), "block index {b} out of range");
        if b + 1 == self.blocks() {
            self.message_bytes - b * self.block_bytes
        } else {
            self.block_bytes
        }
    }

    /// Generates the transfer schedule of the given kind for this problem.
    pub fn schedule(&self, kind: ScheduleKind) -> Schedule {
        schedule::generate(kind, self.nodes, self.blocks())
    }

    /// Completion time of `schedule` under `net`, using the
    /// round-synchronous model of [`analysis`].
    pub fn completion_time(&self, schedule: &Schedule, net: &NetModel) -> Duration {
        Analysis::new(*self, net.clone()).completion(schedule).total
    }

    /// Effective multicast bandwidth (message bytes per second of
    /// completion time) of `schedule` under `net`.
    pub fn bandwidth(&self, schedule: &Schedule, net: &NetModel) -> f64 {
        let t = self.completion_time(schedule, net);
        let ns = t.as_nanos() as f64;
        if ns == 0.0 {
            f64::INFINITY
        } else {
            self.message_bytes as f64 / ns * 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates() {
        assert_eq!(Rdmc::new(1, 10, 4), Err(RdmcError::GroupTooSmall));
        assert_eq!(Rdmc::new(2, 0, 4), Err(RdmcError::EmptyMessage));
        assert_eq!(Rdmc::new(2, 10, 0), Err(RdmcError::ZeroBlockSize));
        assert!(Rdmc::new(2, 1, 1).is_ok());
    }

    #[test]
    fn block_math_exact_division() {
        let r = Rdmc::new(3, 96, 32).unwrap();
        assert_eq!(r.blocks(), 3);
        for b in 0..3 {
            assert_eq!(r.block_len(b), 32);
        }
    }

    #[test]
    fn block_math_ragged_tail() {
        let r = Rdmc::new(3, 100, 32).unwrap();
        assert_eq!(r.blocks(), 4);
        assert_eq!(r.block_len(0), 32);
        assert_eq!(r.block_len(3), 4);
        let total: usize = (0..r.blocks()).map(|b| r.block_len(b)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn single_block_message() {
        let r = Rdmc::new(8, 10, 1024).unwrap();
        assert_eq!(r.blocks(), 1);
        assert_eq!(r.block_len(0), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_len_out_of_range_panics() {
        let r = Rdmc::new(3, 100, 32).unwrap();
        let _ = r.block_len(4);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            RdmcError::GroupTooSmall,
            RdmcError::EmptyMessage,
            RdmcError::ZeroBlockSize,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
