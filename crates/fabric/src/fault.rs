//! Runtime fault injection for fabrics.
//!
//! A [`FaultPlan`] is a shared set of switches that a scenario harness
//! flips while a fabric is live: isolate a node (its posts — and posts
//! addressed to it — vanish) or throttle a node's posting path. The plan
//! is keyed by node id, not by layout, so it holds across view changes.
//! It is consulted by [`MemFabric::post`](crate::MemFabric::post) on every
//! write; an inert plan costs one relaxed atomic load.
//!
//! Faults model *omission and slowness only*: a delivered write is always
//! placed intact and in posting order, so the RDMA fencing guarantees the
//! protocol relies on (§2.2) hold even under an adversarial plan.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::types::NodeId;

/// What the fabric should do with one posted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Place the write after stalling the poster for the given duration
    /// (zero for the common unfaulted case).
    Deliver(Duration),
    /// Silently discard the write (counted by
    /// [`FaultPlan::writes_dropped`]).
    Drop,
}

#[derive(Debug, Default, Clone)]
struct NodeFaults {
    /// All writes from and to this node are dropped.
    isolated: bool,
    /// Stall applied to every write this node posts.
    throttle: Duration,
}

impl NodeFaults {
    fn is_inert(&self) -> bool {
        !self.isolated && self.throttle.is_zero()
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Fast path: false until the first fault is installed, and again once
    /// every per-node entry is cleared.
    active: AtomicBool,
    dropped: AtomicU64,
    nodes: Mutex<Vec<NodeFaults>>,
}

/// Shared, runtime-settable fault switches for a fabric (see the
/// [module docs](self)).
///
/// Clones share state, so the same plan can be handed to a fabric (which
/// consults it) and a test harness (which mutates it) — and survives the
/// fabric being rebuilt on a view change.
///
/// # Examples
///
/// ```
/// use spindle_fabric::{Disposition, FaultPlan, NodeId};
///
/// let plan = FaultPlan::new();
/// assert_eq!(plan.disposition(NodeId(0), NodeId(1)),
///            Disposition::Deliver(std::time::Duration::ZERO));
/// plan.isolate(NodeId(1));
/// assert_eq!(plan.disposition(NodeId(0), NodeId(1)), Disposition::Drop);
/// plan.heal(NodeId(1));
/// assert!(!plan.is_isolated(NodeId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// Creates an inert plan (every write delivers immediately).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn with_node<R>(&self, node: NodeId, f: impl FnOnce(&mut NodeFaults) -> R) -> R {
        let mut nodes = self.inner.nodes.lock().expect("fault plan poisoned");
        if nodes.len() <= node.0 {
            nodes.resize(node.0 + 1, NodeFaults::default());
        }
        let r = f(&mut nodes[node.0]);
        let active = nodes.iter().any(|n| !n.is_inert());
        self.inner.active.store(active, Ordering::Release);
        r
    }

    /// Drops every write posted by *or addressed to* `node` (a full network
    /// partition of one node). Undo with [`FaultPlan::heal`].
    pub fn isolate(&self, node: NodeId) {
        self.with_node(node, |n| n.isolated = true);
    }

    /// Ends the isolation of `node` (its throttle stays).
    pub fn heal(&self, node: NodeId) {
        self.with_node(node, |n| n.isolated = false);
    }

    /// Whether `node` is currently isolated.
    pub fn is_isolated(&self, node: NodeId) -> bool {
        let nodes = self.inner.nodes.lock().expect("fault plan poisoned");
        nodes.get(node.0).is_some_and(|n| n.isolated)
    }

    /// Stalls every write `node` posts by `delay` (a slow NIC / congested
    /// link). `Duration::ZERO` removes the throttle.
    pub fn throttle(&self, node: NodeId, delay: Duration) {
        self.with_node(node, |n| n.throttle = delay);
    }

    /// Restores `node` to fully unfaulted behavior.
    pub fn clear(&self, node: NodeId) {
        self.with_node(node, |n| *n = NodeFaults::default());
    }

    /// Total writes discarded by this plan so far.
    pub fn writes_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Whether any fault is currently installed.
    pub fn is_active(&self) -> bool {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Decides the fate of a write from `src` to `dst`. Called by the
    /// fabric on every post; the caller is responsible for applying the
    /// returned stall and for not placing dropped writes.
    pub fn disposition(&self, src: NodeId, dst: NodeId) -> Disposition {
        if !self.inner.active.load(Ordering::Acquire) {
            return Disposition::Deliver(Duration::ZERO);
        }
        let nodes = self.inner.nodes.lock().expect("fault plan poisoned");
        let drop = nodes.get(src.0).is_some_and(|n| n.isolated)
            || nodes.get(dst.0).is_some_and(|n| n.isolated);
        if drop {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return Disposition::Drop;
        }
        let delay = nodes.get(src.0).map(|n| n.throttle).unwrap_or_default();
        Disposition::Deliver(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_delivers_everything() {
        let p = FaultPlan::new();
        assert!(!p.is_active());
        assert_eq!(
            p.disposition(NodeId(3), NodeId(9)),
            Disposition::Deliver(Duration::ZERO)
        );
        assert_eq!(p.writes_dropped(), 0);
    }

    #[test]
    fn isolation_drops_both_directions() {
        let p = FaultPlan::new();
        p.isolate(NodeId(1));
        assert_eq!(p.disposition(NodeId(1), NodeId(0)), Disposition::Drop);
        assert_eq!(p.disposition(NodeId(0), NodeId(1)), Disposition::Drop);
        assert_eq!(
            p.disposition(NodeId(0), NodeId(2)),
            Disposition::Deliver(Duration::ZERO)
        );
        assert_eq!(p.writes_dropped(), 2);
        p.heal(NodeId(1));
        assert!(!p.is_active());
    }

    #[test]
    fn throttle_reports_delay_and_clears() {
        let p = FaultPlan::new();
        p.throttle(NodeId(2), Duration::from_micros(50));
        assert_eq!(
            p.disposition(NodeId(2), NodeId(0)),
            Disposition::Deliver(Duration::from_micros(50))
        );
        p.throttle(NodeId(2), Duration::ZERO);
        assert!(!p.is_active());
    }

    #[test]
    fn clear_resets_one_node() {
        let p = FaultPlan::new();
        p.isolate(NodeId(0));
        p.throttle(NodeId(0), Duration::from_micros(1));
        p.clear(NodeId(0));
        assert!(!p.is_active());
        assert_eq!(
            p.disposition(NodeId(0), NodeId(1)),
            Disposition::Deliver(Duration::ZERO)
        );
    }

    #[test]
    fn clones_share_state() {
        let p = FaultPlan::new();
        let q = p.clone();
        q.isolate(NodeId(1));
        assert!(p.is_isolated(NodeId(1)));
    }
}
