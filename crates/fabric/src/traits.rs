//! The fabric contract: what every transport backend must provide.
//!
//! The protocol stack (SST, SMC, the threaded cluster) is written against
//! this trait, not against a concrete transport. Four semantics make up
//! the contract, mirroring what Derecho actually gets from RDMA (§2.2):
//!
//! * **post** — a one-sided write: the covered word range of the poster's
//!   replica is placed into the destination's replica without involving the
//!   destination CPU. Placement is word-atomic and *fenced per destination*:
//!   two writes posted to the same destination land in posting order, so a
//!   reader that observes the second also observes the first.
//! * **read** — all protocol reads go through the node's *local* replica
//!   ([`Fabric::region_arc`]); a fabric never performs remote reads on the
//!   critical path (on real RDMA, reads of remote state are reads of the
//!   locally mirrored SST row the remote pushed).
//! * **mirror** — each node owns one [`Region`] mirroring the full SST
//!   (every row); remote rows are updated only by incoming posts.
//! * **doorbell** — whatever places a post into a mirror rings that
//!   region's doorbell afterwards ([`Region::ring`]): the node's predicate
//!   thread parks on its replica when it has no work (§2.4) and the write
//!   that gives it some must wake it. One fence and one load of a line
//!   nobody writes while the reader is awake — not a counter, see below.
//!
//! Backends: [`crate::MemFabric`] (in-process, immediate
//! placement) and `spindle_net::TcpFabric` (per-peer ordered TCP byte
//! streams standing in for RDMA's ordered one-sided writes, served by one
//! poller thread per process). Both consult a shared [`FaultPlan`] on every
//! post, so fault injection (isolate / throttle) behaves identically across
//! transports.
//!
//! `spindle-core`'s simulated runtime is not a backend: its rows live on
//! `MemFabric` regions, but its discrete-event engine times each write and
//! places it at its virtual arrival, and its faults are its own scheduled
//! `SimFault`s, not a `FaultPlan`.
//!
//! A fabric keeps **no counters of its own**. `post` is the hottest call in
//! the program and every predicate thread makes it, so a tally shared by
//! the clones of one fabric is exactly the cross-thread traffic §3.4 takes
//! off the posting path. What a running node counts lives in the
//! `spindle-obs` registry of the plane the runtime publishes into
//! ([`Fabric::obs`]): the TCP backend registers its `spindle_wire_*`
//! families there, and posts per message are the predicate thread's to
//! count, not the transport's.

use std::sync::Arc;

use crate::fault::FaultPlan;
use crate::mem::MemFabric;
use crate::region::Region;
use crate::types::{NodeId, WriteOp};

/// Everything a transport needs to transition to a new epoch in place
/// ([`Fabric::begin_epoch`]). Removals only shrink the live set; a join
/// additionally *grows* the transport — the fresh mirror is larger
/// (`region_words` covers the new row, appended at the end of the
/// row-major layout so existing rows keep their offsets) and `joined`
/// names the rows entering at this epoch together with their transport
/// addresses, so every survivor extends its peer set identically from
/// the agreed proposal, without a coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochTransition {
    /// The epoch (view id) being installed.
    pub epoch: u64,
    /// Rows connected in the new epoch's mesh (survivors plus joiners).
    pub live: Vec<usize>,
    /// Region size (in words) of the new epoch's SST layout.
    pub region_words: usize,
    /// Rows entering the cluster at this epoch: `(row, listen address)`.
    /// Rows are appended in order; a transport may assume `row` equals
    /// its current node count when the entry is processed.
    pub joined: Vec<(usize, String)>,
}

impl EpochTransition {
    /// A transition that only shrinks (or keeps) the membership — the
    /// common removal case.
    pub fn shrink(epoch: u64, live: Vec<usize>, region_words: usize) -> EpochTransition {
        EpochTransition {
            epoch,
            live,
            region_words,
            joined: Vec::new(),
        }
    }
}

/// A transport connecting the `n` nodes of one view (see the
/// [module docs](self) for the semantics contract).
///
/// Implementations are cheaply cloneable handles to shared state: the
/// threaded cluster hands one clone to every predicate thread.
pub trait Fabric: Clone + Send + Sync + 'static {
    /// Number of nodes connected by this fabric.
    fn nodes(&self) -> usize;

    /// Shared handle to `node`'s local replica (for embedding in an SST).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or — for distributed fabrics that
    /// host a single node per process — if `node` is not hosted locally.
    fn region_arc(&self, node: NodeId) -> Arc<Region>;

    /// Posts a one-sided write from `src`: places the covered word range of
    /// `src`'s replica into `op.dst`'s replica. Posting to oneself is a
    /// no-op (the poster's replica is already authoritative).
    ///
    /// The words to transmit are snapshotted from the poster's replica
    /// *at post time* (when an RDMA NIC would DMA them), but placement at
    /// the destination may complete later: a transport is free to queue
    /// and **coalesce** consecutive posts to one destination into a
    /// single wire operation, as long as the per-destination fencing
    /// above is preserved — coalescing batches frames, never reorders or
    /// merges them.
    ///
    /// # Panics
    ///
    /// Panics if a node id or the word range is out of bounds.
    fn post(&self, src: NodeId, op: &WriteOp);

    /// The fault plan consulted on every post.
    fn faults(&self) -> &FaultPlan;

    /// Whether this transport can transition to a later epoch **in
    /// place** ([`Fabric::begin_epoch`]). One that cannot (the in-process
    /// [`MemFabric`], whose regions are shared state) is rebuilt per
    /// epoch by the cluster's fabric factory; a cluster started on a
    /// pre-built fabric of that kind, with no factory, rejects view
    /// changes.
    fn supports_epoch_advance(&self) -> bool {
        false
    }

    /// Transitions the transport in place for the epoch described by
    /// `transition`: the local mirror is replaced by a fresh zeroed
    /// region of the new layout's size (§2.3 — memory is registered per
    /// view), rows named in [`EpochTransition::joined`] are added to the
    /// peer set (a resizable transition — the mesh *grows*), stale links
    /// are torn down (links the peers already re-established at the new
    /// epoch may be kept), and subsequent handshakes are stamped with the
    /// new epoch so stale old-epoch peers cannot write into the fresh
    /// mirror. Idempotent once the epoch (or a later one) is installed.
    ///
    /// Returns `false` when the transport does not support in-place
    /// transitions (the default) — callers must then rebuild the fabric
    /// by other means (e.g. a fabric factory).
    fn begin_epoch(&self, _transition: &EpochTransition) -> bool {
        false
    }

    /// The observability plane this transport publishes into, if it
    /// owns one. A distributed fabric creates the plane at the process
    /// boundary (so wire handshake events recorded during bootstrap are
    /// kept) and the cluster runtime adopts it here; in-process fabrics
    /// return `None` and the runtime creates its own plane.
    fn obs(&self) -> Option<spindle_obs::ObsPlane> {
        None
    }
}

impl Fabric for MemFabric {
    fn nodes(&self) -> usize {
        MemFabric::nodes(self)
    }

    fn region_arc(&self, node: NodeId) -> Arc<Region> {
        MemFabric::region_arc(self, node)
    }

    fn post(&self, src: NodeId, op: &WriteOp) {
        MemFabric::post(self, src, op);
    }

    fn faults(&self) -> &FaultPlan {
        MemFabric::faults(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The protocol stack's usage pattern, through the trait only.
    fn post_and_read<F: Fabric>(f: &F) -> u64 {
        f.region_arc(NodeId(0)).store(1, 77);
        f.post(NodeId(0), &WriteOp::new(NodeId(1), 1..2));
        f.region_arc(NodeId(1)).load(1)
    }

    #[test]
    fn mem_fabric_satisfies_the_contract() {
        let f = MemFabric::new(2, 8);
        assert_eq!(post_and_read(&f), 77);
        assert_eq!(Fabric::nodes(&f), 2);
        assert!(!Fabric::faults(&f).is_active());
    }
}
