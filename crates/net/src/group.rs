//! An N-endpoint loopback TCP fabric in one process.
//!
//! [`TcpFabricGroup`] binds `n` ephemeral listeners on `127.0.0.1`, brings
//! up one [`TcpFabric`] endpoint per node, and full-meshes them — then
//! implements the [`Fabric`] contract by routing each node's calls to its
//! endpoint. This is how the threaded
//! [`Cluster`](spindle_core::threaded::Cluster) runs the unchanged
//! protocol stack over *real sockets* inside one process: the harness's
//! loopback-TCP scenarios and the micro benches use it, and every byte
//! crosses the kernel's TCP stack exactly as it would between processes.
//! Each endpoint runs its single poller thread, so a group of `n`
//! endpoints adds exactly `n` wire threads to the process. A group is
//! rebuilt per epoch ([`Fabric::begin_epoch`]): the next epoch gets a fresh
//! loopback group, new sockets included.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use spindle_fabric::{EpochTransition, Fabric, FaultPlan, NodeId, Region, Successor, WriteOp};

use crate::metrics::WireStats;
use crate::tcp::{TcpFabric, TcpFabricConfig};

/// A full mesh of loopback [`TcpFabric`] endpoints (see the
/// [module docs](self)). Cheap to clone.
#[derive(Debug, Clone)]
pub struct TcpFabricGroup {
    endpoints: Arc<Vec<TcpFabric>>,
    faults: FaultPlan,
    /// The next epoch's group, once a clone entered it.
    next: Successor<TcpFabricGroup>,
}

impl TcpFabricGroup {
    /// Brings up `nodes` endpoints with `region_words`-word mirrors on
    /// ephemeral loopback ports, sharing `faults`, and barriers on the
    /// full-mesh handshake.
    ///
    /// # Errors
    ///
    /// Propagates bind/handshake failures.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    pub fn loopback(nodes: usize, region_words: usize, faults: FaultPlan) -> io::Result<Self> {
        assert!(nodes >= 2, "a fabric connects at least two nodes");
        let listeners: Vec<TcpListener> = (0..nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| Ok(l.local_addr()?.to_string()))
            .collect::<io::Result<_>>()?;
        let endpoints: Vec<TcpFabric> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let mut cfg = TcpFabricConfig::new(me, addrs.clone(), region_words);
                cfg.faults = faults.clone();
                TcpFabric::bootstrap_on_listener(cfg, listener)
            })
            .collect::<io::Result<_>>()?;
        for e in &endpoints {
            e.wait_connected(Duration::from_secs(10))?;
        }
        Ok(TcpFabricGroup {
            endpoints: Arc::new(endpoints),
            faults,
            next: Successor::default(),
        })
    }

    /// The endpoint hosting `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn endpoint(&self, node: NodeId) -> &TcpFabric {
        &self.endpoints[node.0]
    }

    /// Severs every live connection touching `node`, in both directions
    /// (the dead-link half of a one-node partition). Pair with
    /// [`FaultPlan::isolate`] to keep the links down; after
    /// [`FaultPlan::heal`], the pollers re-dial on the next posts.
    pub fn sever(&self, node: NodeId) {
        for (i, e) in self.endpoints.iter().enumerate() {
            if i == node.0 {
                e.sever_all();
            } else {
                e.sever_peer(node);
            }
        }
    }

    /// Cluster-wide wire counters (summed over endpoints).
    pub fn wire_stats_total(&self) -> WireStats {
        let mut total = WireStats::default();
        for e in self.endpoints.iter() {
            total.merge(&e.wire_stats());
        }
        total
    }
}

impl Fabric for TcpFabricGroup {
    fn nodes(&self) -> usize {
        self.endpoints.len()
    }

    fn region_arc(&self, node: NodeId) -> Arc<Region> {
        self.endpoints[node.0].region_arc(node)
    }

    fn post(&self, src: NodeId, op: &WriteOp) {
        self.endpoints[src.0].post(src, op);
    }

    fn post_all(&self, src: NodeId, ops: &[WriteOp]) {
        self.endpoints[src.0].post_all(src, ops);
    }

    fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// A fresh loopback group for this group's nodes and the rows `t`
    /// adds, on the same fault plan — built by the first clone to enter
    /// `t`'s epoch and shared with every other; `None` for another epoch
    /// or if the group cannot be brought up.
    fn begin_epoch(&self, t: &EpochTransition) -> Option<TcpFabricGroup> {
        self.next.get_or_build(t.epoch, || {
            let nodes = self.endpoints.len() + t.joined.len();
            TcpFabricGroup::loopback(nodes, t.region_words, self.faults.clone()).ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn eventually(mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        false
    }

    #[test]
    fn group_routes_posts_between_endpoints() {
        let g = TcpFabricGroup::loopback(3, 16, FaultPlan::new()).unwrap();
        g.region_arc(NodeId(0)).store(5, 99);
        g.post(NodeId(0), &WriteOp::new(NodeId(2), 5..6));
        assert!(eventually(|| g.region_arc(NodeId(2)).load(5) == 99));
        // Node 1 saw nothing.
        assert_eq!(g.region_arc(NodeId(1)).load(5), 0);
        let total = g.wire_stats_total();
        assert_eq!(total.frames_posted, 1);
        assert!(total.bytes_sent > 0);
    }

    #[test]
    fn post_wider_than_one_frame_lands_word_for_word() {
        let words = crate::wire::MAX_FRAME_WORDS + 64;
        let g = TcpFabricGroup::loopback(2, words, FaultPlan::new()).unwrap();
        let src = g.region_arc(NodeId(0));
        for i in 0..words {
            src.store(i, i as u64 ^ 0x5a5a_5a5a);
        }
        g.post(NodeId(0), &WriteOp::new(NodeId(1), 0..words));
        let dst = g.region_arc(NodeId(1));
        assert!(eventually(|| dst.load(words - 1) != 0));
        assert!(dst.snapshot(0, words) == src.snapshot(0, words));
        assert_eq!(g.wire_stats_total().frames_posted, 2);
    }

    #[test]
    fn sever_kills_links_and_heal_restores_them() {
        let faults = FaultPlan::new();
        let g = TcpFabricGroup::loopback(3, 16, faults.clone()).unwrap();
        faults.isolate(NodeId(1));
        g.sever(NodeId(1));
        g.region_arc(NodeId(0)).store(2, 7);
        g.post(NodeId(0), &WriteOp::new(NodeId(1), 2..3));
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            g.region_arc(NodeId(1)).load(2),
            0,
            "write crossed a cut link"
        );
        faults.heal(NodeId(1));
        assert!(eventually(|| {
            g.post(NodeId(0), &WriteOp::new(NodeId(1), 2..3));
            std::thread::sleep(Duration::from_millis(2));
            g.region_arc(NodeId(1)).load(2) == 7
        }));
    }
}
