//! The threaded cluster: real concurrency over the shared-memory fabric.
//!
//! This is the embeddable runtime of the library: every node gets a real
//! predicate (polling) thread exactly as in the paper (§2.4), application
//! threads send through [`NodeHandle::send`], and deliveries appear —
//! in the identical total order at every member — on each node's delivery
//! channel. The same loop as the simulated runtime executes here — each
//! simulated iteration is the threads' own loop body, `iterate`, on the
//! same node state, heartbeat and view change included, substituting time,
//! concurrency and I/O — so the correctness properties the
//! integration tests establish (total order, gap-freedom, FIFO per sender,
//! null invisibility, failure atomicity) hold for the code the performance
//! model measures.
//!
//! The §3.4 optimization is implemented literally: one pass (`node_pass`)
//! collects the word ranges to push under the node's lock, and with
//! [`SpindleConfig::early_lock_release`](crate::config::SpindleConfig::early_lock_release) the
//! thread releases the lock before posting them; the baseline posts under it.
//!
//! # View changes
//!
//! [`Cluster::remove_node`] executes the virtual-synchrony epoch transition
//! of §2.1, and its agreement runs *through the SST* exactly as in the
//! paper's model: each participating node drives a
//! [`ViewChangeEngine`](crate::viewchange::ViewChangeEngine) from its own
//! mirror — suspicion propagation, wedge, the deterministic leader's
//! next-view proposal, and per-subgroup trim acks are all monotonic SST
//! columns, never a coordinator RPC. Every survivor delivers exactly
//! through the agreed cut, undelivered messages from surviving senders are
//! recovered from their ring slots, a new view (and a fresh fabric —
//! §2.3's per-view memory registration) is installed, and the recovered
//! messages are resent in the new epoch. Messages beyond the cut are
//! delivered by *no one*, which together with the cut rule gives the
//! all-or-nothing guarantee.
//!
//! One loop executes that engine, on every cluster and every transport:
//! each node's predicate thread. A trigger from [`Cluster::remove_node`] /
//! [`Cluster::admit`], a peer's suspicion column or — where rows run in
//! several processes and no caller sees them all — the node's own detector
//! wedges the node, and from then on a transition the thread holds is what
//! its node pass steps instead of the subgroups: the engine converging
//! through the SST, then the next view entered and its install barrier
//! held, the heartbeat beating throughout. Nothing else waits: the thread's
//! idle ladder parks it on its replica's doorbell between steps as between
//! passes. In-process clusters therefore run exactly the code the
//! multi-process `spindle-node` runtime runs, down to how the next epoch's
//! fabric is obtained: the first local row to install an epoch calls
//! [`Fabric::begin_epoch`](spindle_fabric::Fabric::begin_epoch) on the
//! current fabric, and every other row enters the fabric it returned.
//! `spindle_net::TcpFabric` advances in place (fresh mirror, fresh
//! sockets, a `HELLO` at the new epoch); a `MemFabric` or a loopback group
//! is rebuilt, its successor shared by every clone.

mod api;
mod distributed;
mod inprocess;
mod node;
mod persist;
mod predicate;
#[cfg(test)]
mod tests;

pub use api::{
    AdmitRequest, Cluster, Delivered, NodeHandle, SendError, Suspicion, ViewChangeError,
    ViewChangeReport,
};
pub(crate) use node::{Epochs, NodeInner, NodeShared};
pub use persist::PersistConfig;
pub(crate) use predicate::{iterate, EpochLocal, PassSink, ThreadState, Turn};

/// How long an SST-driven transition may take to converge before its
/// thread gives up (a participant stalled forever — a harness bug or a
/// genuinely partitioned survivor).
const VC_DEADLINE: std::time::Duration = std::time::Duration::from_secs(60);
