//! The full cost model of the simulated cluster.
//!
//! Network-side constants live in [`spindle_fabric::cost`]; this module adds
//! the CPU-side constants the Spindle optimizations manipulate: predicate
//! evaluation costs, the amortized cost of back-to-back RDMA posts (the
//! first of a body costs [`NetModel::post_cost`], §3.2's ~1 µs per work
//! request), lock critical sections, and the wake-up (doorbell) latency of
//! the quiescent predicate thread (§2.4).
//!
//! It prices hardware only. What the application does with its payloads
//! (copy or construct in place, and how long an upcall takes) is part of
//! the [`Workload`](crate::Workload).
//!
//! Every figure of the reproduction is a function of the protocol logic and
//! these numbers, so they are kept in one struct with documented defaults.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use spindle_fabric::{MemcpyModel, NetModel};

/// All cost constants for the simulated runtime.
///
/// # Examples
///
/// ```
/// use spindle_core::CostModel;
/// use std::time::Duration;
///
/// let c = CostModel::default();
/// assert_eq!(c.net.post_cost, Duration::from_nanos(1_000)); // paper §3.2: ~1us
/// assert!(c.post_time(0).is_zero());
/// assert_eq!(c.post_time(1), c.net.post_cost);
/// assert_eq!(c.post_time(3), c.net.post_cost + 2 * c.post_next);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Network latency/bandwidth model (Figure 1), and the CPU time of
    /// the first work request a predicate body posts
    /// ([`NetModel::post_cost`]).
    pub net: NetModel,
    /// Local copy model (Figure 14).
    pub memcpy: MemcpyModel,

    /// Receiver-side placement cost per ring slot landed (DDIO/cache-line
    /// placement pressure); adds to ingress link time for slot writes.
    pub per_slot_ingress: Duration,
    /// CPU time for each subsequent back-to-back work request in the same
    /// body (doorbells amortize partially).
    pub post_next: Duration,

    /// Fixed cost of one predicate-thread loop iteration.
    pub iter_overhead: Duration,
    /// Fixed evaluation cost per registered subgroup per iteration (the
    /// "fair evaluation" cost that makes inactive subgroups expensive in the
    /// baseline, Figure 8).
    pub sg_eval: Duration,
    /// Receive-predicate probe cost per sender (one slot-header load).
    pub probe_per_sender: Duration,
    /// Per-slot cost of walking the ring's memory area. The baseline
    /// receive predicate covers the whole window per sender per iteration
    /// (§4.1.2: large windows "force the predicate thread to cover too
    /// large a memory area"); the batched version only touches new slots.
    pub scan_per_slot: Duration,
    /// Receive-side bookkeeping per new message.
    pub recv_per_msg: Duration,
    /// Send-side bookkeeping per message aggregated into a batch.
    pub send_per_msg: Duration,
    /// Delivery-predicate stability scan cost per member.
    pub deliv_eval_per_member: Duration,
    /// Delivery bookkeeping per message.
    pub deliv_per_msg: Duration,
    /// Fixed cost of invoking one application upcall.
    pub upcall_base: Duration,

    /// Application-thread critical section per send (slot acquire + header
    /// publish under the shared lock).
    pub app_cs: Duration,
    /// Application-thread serial cost per message outside the lock:
    /// free-slot check, in-place generation bookkeeping, queueing. This is
    /// the sender-side per-message floor that caps each sender near the
    /// paper's ~250 K msgs/s regardless of message size (Figure 4's
    /// size-independent delivery rate).
    pub app_per_msg: Duration,

    /// Doorbell latency to wake a quiescent predicate thread (§2.4): the
    /// paper's RDMA hosts, a dedicated polling core a doorbell away.
    ///
    /// Not the threaded runtime's figure, and not to be calibrated against
    /// it: there a wake-up is a futex `unpark` into an idle vCPU
    /// ([`Region::ring`](spindle_fabric::Region::ring)), measured at
    /// ≈ 40–60 µs on the 2-core benchmark host — some fifty times this
    /// model's 900 ns default, and the host's floor, not the protocol's.
    pub wake_latency: Duration,
    /// Gap between predicate-thread iterations.
    pub iter_gap: Duration,
    /// Iterations with no work before the predicate thread quiesces.
    pub quiesce_after: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            net: NetModel::default(),
            memcpy: MemcpyModel::default(),
            per_slot_ingress: Duration::from_nanos(140),
            post_next: Duration::from_nanos(500),
            iter_overhead: Duration::from_nanos(90),
            sg_eval: Duration::from_nanos(130),
            probe_per_sender: Duration::from_nanos(16),
            scan_per_slot: Duration::from_nanos(5),
            recv_per_msg: Duration::from_nanos(26),
            send_per_msg: Duration::from_nanos(30),
            deliv_eval_per_member: Duration::from_nanos(9),
            deliv_per_msg: Duration::from_nanos(36),
            upcall_base: Duration::from_nanos(55),
            app_cs: Duration::from_nanos(200),
            app_per_msg: Duration::from_nanos(3_600),
            wake_latency: Duration::from_nanos(900),
            iter_gap: Duration::from_nanos(40),
            quiesce_after: 4,
        }
    }
}

impl CostModel {
    /// CPU time to post `n` back-to-back work requests.
    pub fn post_time(&self, n: usize) -> Duration {
        match n {
            0 => Duration::ZERO,
            _ => self.net.post_cost + self.post_next * (n as u32 - 1),
        }
    }

    /// Egress link holding time of one write (NIC per-write overhead plus
    /// serialization).
    pub fn egress_time(&self, bytes: usize) -> Duration {
        self.net.link_time(bytes)
    }

    /// Ingress link holding time of one write carrying `slots` ring slots
    /// (placement cost per slot on top of the link time).
    pub fn ingress_time(&self, bytes: usize, slots: usize) -> Duration {
        self.net.link_time(bytes) + self.per_slot_ingress * slots as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_time_is_affine() {
        let c = CostModel::default();
        assert_eq!(c.post_time(0), Duration::ZERO);
        assert_eq!(c.post_time(1), c.net.post_cost);
        let d5 = c.post_time(5);
        assert_eq!(d5, c.net.post_cost + 4 * c.post_next);
    }

    #[test]
    fn link_times_include_overheads() {
        let c = CostModel::default();
        let e = c.egress_time(10 * 1024);
        assert!(e > c.net.occupancy(10 * 1024));
        // Ingress of a 4-slot write pays 4 placement costs.
        let i = c.ingress_time(10 * 1024, 4);
        assert_eq!(i, e + 4 * c.per_slot_ingress);
    }

    #[test]
    fn defaults_match_paper_anchors() {
        let c = CostModel::default();
        // ~1us to post a work request (paper §3.2).
        assert_eq!(c.net.post_cost.as_nanos(), 1_000);
        // 12.5 GB/s link (paper §4).
        assert!((c.net.link_bandwidth - 12.5e9).abs() < 1.0);
    }
}
