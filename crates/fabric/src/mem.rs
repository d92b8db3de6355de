//! In-process threaded fabric: real concurrency, immediate placement.

use std::sync::Arc;

use crate::fault::{Disposition, FaultPlan};
use crate::region::Region;
use crate::traits::{EpochTransition, Successor};
use crate::types::{NodeId, WriteOp};

/// A shared-memory fabric connecting `n` in-process nodes.
///
/// Each node owns one [`Region`] (its full SST replica). Posting a
/// [`WriteOp`] from node `src` copies the covered word range from `src`'s
/// region into the destination's region, in increasing address order with
/// release stores — exactly the placement an RDMA NIC performs for a posted
/// write, minus the wire delay — and then rings the destination's doorbell
/// ([`Region::ring`]). Because placement is immediate and the
/// poster's own row words are only ever written by the poster, the
/// "snapshot at post time" and "placement at arrival time" coincide.
///
/// `MemFabric` is the backend for the threaded cluster runtime: it provides
/// *real* cross-thread memory traffic so the protocol's lock-freedom and
/// fencing assumptions are exercised by the hardware memory model, not by a
/// single-threaded simulation.
///
/// # Examples
///
/// ```
/// use spindle_fabric::{MemFabric, NodeId, WriteOp};
///
/// let fabric = MemFabric::new(2, 16);
/// fabric.region(NodeId(0)).store(4, 99);
/// fabric.post(NodeId(0), &WriteOp::new(NodeId(1), 4..5));
/// assert_eq!(fabric.region(NodeId(1)).load(4), 99);
/// ```
#[derive(Debug, Clone)]
pub struct MemFabric {
    regions: Arc<[Arc<Region>]>,
    faults: FaultPlan,
    /// The next epoch's fabric, once a clone entered it
    /// ([`MemFabric::begin_epoch`]); never read by [`MemFabric::post`].
    next: Successor<MemFabric>,
}

impl MemFabric {
    /// Creates a fabric for `nodes` nodes, each with a region of
    /// `region_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, region_words: usize) -> Self {
        MemFabric::with_faults(nodes, region_words, FaultPlan::new())
    }

    /// Like [`MemFabric::new`], but consulting `faults` on every post. The
    /// plan is shared: a harness holding a clone can flip faults while the
    /// fabric is live, and the fabric of every later view
    /// ([`MemFabric::begin_epoch`]) consults the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn with_faults(nodes: usize, region_words: usize, faults: FaultPlan) -> Self {
        assert!(nodes > 0, "fabric needs at least one node");
        let regions: Vec<Arc<Region>> = (0..nodes)
            .map(|_| Arc::new(Region::new(region_words)))
            .collect();
        MemFabric {
            regions: regions.into(),
            faults,
            next: Successor::default(),
        }
    }

    /// The fabric of the epoch `t` installs (§2.3: memory is registered
    /// per view): fresh zeroed regions of `t.region_words` words for this
    /// fabric's nodes and the rows `t` adds, consulting the same fault
    /// plan. The first call for an epoch builds it; every clone of this
    /// fabric then gets the same one for that epoch, and `None` for any
    /// other.
    pub fn begin_epoch(&self, t: &EpochTransition) -> Option<MemFabric> {
        self.next.get_or_build(t.epoch, || {
            let nodes = self.nodes() + t.joined.len();
            Some(MemFabric::with_faults(
                nodes,
                t.region_words,
                self.faults.clone(),
            ))
        })
    }

    /// The fault plan this fabric consults (inert unless constructed via
    /// [`MemFabric::with_faults`] or mutated through this handle).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of nodes connected.
    pub fn nodes(&self) -> usize {
        self.regions.len()
    }

    /// The region (SST replica) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn region(&self, node: NodeId) -> &Region {
        &self.regions[node.0]
    }

    /// Shared handle to the region of `node` (for embedding in an SST).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn region_arc(&self, node: NodeId) -> Arc<Region> {
        Arc::clone(&self.regions[node.0])
    }

    /// Posts a one-sided write from `src`: places the word range of `src`'s
    /// region into `op.dst`'s region.
    ///
    /// Posting to oneself is a no-op (the poster's replica is already
    /// authoritative).
    ///
    /// # Panics
    ///
    /// Panics if either node id or the word range is out of bounds.
    pub fn post(&self, src: NodeId, op: &WriteOp) {
        if src == op.dst {
            // Loopback never crosses the fabric: exempt from faults too.
            return;
        }
        match self.faults.disposition(src, op.dst) {
            Disposition::Drop => return,
            Disposition::Deliver(delay) => {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
        }
        let src_region = &self.regions[src.0];
        let dst_region = &self.regions[op.dst.0];
        dst_region.copy_range_from(src_region, op.range.start, op.range.end - op.range.start);
        dst_region.ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_copies_range_to_destination_only() {
        let f = MemFabric::new(3, 8);
        f.region(NodeId(0)).store(2, 11);
        f.region(NodeId(0)).store(3, 22);
        f.post(NodeId(0), &WriteOp::new(NodeId(2), 2..4));
        assert_eq!(f.region(NodeId(2)).load(2), 11);
        assert_eq!(f.region(NodeId(2)).load(3), 22);
        // Node 1 saw nothing.
        assert_eq!(f.region(NodeId(1)).load(2), 0);
    }

    #[test]
    fn self_post_is_harmless() {
        let f = MemFabric::new(1, 4);
        f.region(NodeId(0)).store(0, 5);
        f.post(NodeId(0), &WriteOp::new(NodeId(0), 0..1));
        assert_eq!(f.region(NodeId(0)).load(0), 5);
    }

    /// Every clone entering one epoch gets the same fabric: its regions,
    /// grown by the joined rows, on the same fault plan. Another epoch
    /// gets none.
    #[test]
    fn clones_share_the_next_epochs_fabric() {
        let f = MemFabric::new(2, 4);
        let g = f.clone();
        let grow = EpochTransition {
            epoch: 1,
            live: vec![0, 1, 2],
            region_words: 6,
            joined: vec![(2, String::new())],
        };
        let (a, b) = (f.begin_epoch(&grow).unwrap(), g.begin_epoch(&grow).unwrap());
        assert_eq!(a.nodes(), 3);
        assert_eq!(a.region(NodeId(2)).len(), 6);
        for n in 0..3 {
            assert!(Arc::ptr_eq(
                &a.region_arc(NodeId(n)),
                &b.region_arc(NodeId(n))
            ));
        }
        assert!(!Arc::ptr_eq(
            &a.region_arc(NodeId(0)),
            &f.region_arc(NodeId(0))
        ));
        f.faults().isolate(NodeId(1));
        assert!(a.faults().is_isolated(NodeId(1)));
        let other = EpochTransition::shrink(2, vec![0, 1], 4);
        assert!(g.begin_epoch(&other).is_none());
    }

    #[test]
    fn clones_share_state() {
        let f = MemFabric::new(2, 4);
        let g = f.clone();
        g.region(NodeId(0)).store(1, 9);
        g.post(NodeId(0), &WriteOp::new(NodeId(1), 1..2));
        assert_eq!(f.region(NodeId(1)).load(1), 9);
    }

    /// Concurrent posts from many source nodes to one destination must never
    /// tear words or lose the fencing property on a (data, guard) pair that
    /// lives in each source's own row range.
    #[test]
    fn concurrent_posts_are_word_atomic() {
        // Row layout: node i owns words [i*2, i*2+2): [data, guard].
        let nodes = 4;
        let f = MemFabric::new(nodes, nodes * 2);
        let mut handles = Vec::new();
        for src in 1..nodes {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let base = src * 2;
                for i in 1..=20_000u64 {
                    f.region(NodeId(src)).store(base, i * 1000 + src as u64);
                    f.region(NodeId(src)).store(base + 1, i);
                    f.post(NodeId(src), &WriteOp::new(NodeId(0), base..base + 2));
                }
            }));
        }
        // Reader on node 0 checks every source's pair stays consistent.
        let reader = {
            let f = f.clone();
            std::thread::spawn(move || {
                for _ in 0..200_000 {
                    for src in 1..nodes {
                        let base = src * 2;
                        let guard = f.region(NodeId(0)).load(base + 1);
                        let data = f.region(NodeId(0)).load(base);
                        if guard > 0 {
                            // data was written before guard at the source and
                            // copied in increasing address order, so the data
                            // value must be from iteration >= guard.
                            assert!(
                                data >= guard * 1000,
                                "torn or reordered write from {src}: data={data} guard={guard}"
                            );
                            assert_eq!(data % 1000, src as u64);
                        }
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
    }
}
