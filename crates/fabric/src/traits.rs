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
//! A fabric serves one epoch (view) of the cluster. The next epoch's comes
//! from [`Fabric::begin_epoch`] and nowhere else (§2.3: memory is
//! registered per view): the TCP fabric advances in place, `MemFabric` is
//! rebuilt, and either way every handle of one fabric gets the same
//! successor.
//!
//! Backends: [`crate::MemFabric`] (in-process, immediate
//! placement) and `spindle_net::TcpFabric` (per-peer ordered TCP byte
//! streams standing in for RDMA's ordered one-sided writes, served by one
//! poller thread per process). Both consult a shared [`FaultPlan`] on every
//! post, so fault injection (isolate / throttle) behaves identically across
//! transports.
//!
//! `spindle-core`'s simulated runtime is not a backend: its rows live on
//! `MemFabric` regions and enter each epoch through
//! [`MemFabric::begin_epoch`], but its fabric only records the posts, its
//! discrete-event engine times each write and places it at its virtual
//! arrival, and its faults are its own scheduled `SimFault`s, not a
//! `FaultPlan`.
//!
//! A fabric keeps **no counters of its own**. `post` is the hottest call in
//! the program and every predicate thread makes it, so a tally shared by
//! the clones of one fabric is exactly the cross-thread traffic §3.4 takes
//! off the posting path. What a running node counts lives in the
//! `spindle-obs` registry of the plane the runtime publishes into
//! ([`Fabric::obs`]): the TCP backend registers its `spindle_wire_*`
//! families there, and posts per message are the predicate thread's to
//! count, not the transport's.

use std::sync::{Arc, OnceLock};

use crate::fault::FaultPlan;
use crate::mem::MemFabric;
use crate::region::Region;
use crate::types::{NodeId, WriteOp};

/// Everything a transport needs to enter a new epoch
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
    /// its current node count when the entry is processed. The address
    /// is empty for a row the sponsoring process hosts itself (an
    /// in-process join), which needs no connection.
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

/// The next epoch's fabric of a transport that is rebuilt per epoch
/// rather than advanced in place: one slot shared by every clone of a
/// fabric, filled by the first [`Fabric::begin_epoch`] call. Later calls
/// for the same epoch get the same fabric — the same regions, whichever
/// cluster asks — and calls for any other epoch get `None`.
#[derive(Debug)]
pub struct Successor<F>(Arc<OnceLock<(u64, Option<F>)>>);

impl<F> Default for Successor<F> {
    fn default() -> Self {
        Successor(Arc::default())
    }
}

impl<F> Clone for Successor<F> {
    fn clone(&self) -> Self {
        Successor(Arc::clone(&self.0))
    }
}

impl<F: Clone> Successor<F> {
    /// The fabric of `epoch`: `build`'s on the first call, what the first
    /// call recorded on every later one. `None` if the slot holds another
    /// epoch, or the first build failed.
    pub fn get_or_build(&self, epoch: u64, build: impl FnOnce() -> Option<F>) -> Option<F> {
        let (recorded, next) = self.0.get_or_init(|| (epoch, build()));
        next.as_ref().filter(|_| *recorded == epoch).cloned()
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

    /// The fabric of the epoch `transition` installs — §2.3: memory is
    /// registered per view, so its mirrors are fresh zeroed regions of the
    /// new layout's size, and the rows named in
    /// [`EpochTransition::joined`] are added (a resizable transition —
    /// the transport *grows*). A transport that advances in place (the
    /// TCP fabric: fresh mirror, stale links torn down, handshakes
    /// stamped with the new epoch so stale old-epoch peers cannot write
    /// into it) returns itself, and is idempotent once the epoch (or a
    /// later one) is installed. One rebuilt per epoch ([`MemFabric`])
    /// records the fresh fabric in a [`Successor`] shared by every clone.
    ///
    /// Either way every handle of one fabric gets the same successor for
    /// the same transition, so two clusters sharing a fabric cannot
    /// split into two. `None` means the transition cannot be installed
    /// (the fabric already moved to another epoch, or the new one could
    /// not be built).
    fn begin_epoch(&self, transition: &EpochTransition) -> Option<Self>;

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

    fn begin_epoch(&self, t: &EpochTransition) -> Option<MemFabric> {
        MemFabric::begin_epoch(self, t)
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
