//! One node's state — shared by its [`NodeHandle`](super::NodeHandle), its
//! predicate thread and both view-change drivers — the single place a node
//! enters an epoch, and the row and post helpers the other modules share.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use spindle_fabric::{Fabric, NodeId, Region, WriteOp};
use spindle_membership::reconfig;
use spindle_membership::{SeqNum, SubgroupId, View};
use spindle_obs::{FlightEvent, Level, ObsPlane};
use spindle_sst::Sst;

use super::api::{Delivered, SendError, Suspicion, ViewChangeReport};
use super::persist::{PersistConfig, PersistHook};
use crate::plan::{Plan, ReconfigCols};
use crate::proto::{QueueOutcome, SubgroupProto};

/// Everything that is replaced wholesale on a view change.
pub(super) struct NodeInner<F: Fabric> {
    pub(super) sst: Sst,
    pub(super) protos: Vec<SubgroupProto>,
    /// `None` only for the closed stub of a remotely hosted row, which
    /// never runs a predicate thread and never posts.
    pub(super) fabric: Option<F>,
    pub(super) view: Arc<View>,
    pub(super) alive: bool,
    /// The top-level heartbeat column of the current plan.
    pub(super) heartbeat_col: spindle_sst::CounterCol,
    /// The reconfiguration column block of the current plan.
    pub(super) reconfig: ReconfigCols,
    /// Rows this node pushes heartbeats to and monitors: members of at
    /// least one subgroup, excluding itself.
    pub(super) hb_peers: Vec<usize>,
}

impl<F: Fabric> NodeInner<F> {
    /// Row `row`'s state on entering the epoch of `view`, whose layout is
    /// `plan`, over `fabric` (§2.3: memory is registered per view): a fresh
    /// SST over the row's region, fresh protocol state for every subgroup
    /// the row belongs to, the epoch gauge and the
    /// [`FlightEvent::Install`] record. Start-up, the in-process install
    /// and the distributed install all enter an epoch here; the caller
    /// publishes the epoch number ([`NodeShared::epoch`]).
    pub(super) fn enter_epoch(
        view: &Arc<View>,
        plan: &Plan,
        row: usize,
        fabric: F,
        obs: &ObsPlane,
    ) -> NodeInner<F> {
        let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(row)), row);
        sst.init();
        let protos = view
            .subgroups()
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.member_rank(NodeId(row)).is_some())
            .map(|(g, _)| SubgroupProto::new(view, SubgroupId(g), plan.cols[g], row))
            .collect();
        obs.registry()
            .gauge(
                spindle_obs::names::EPOCH,
                "Currently installed epoch (view id)",
                &[("node", &row.to_string())],
            )
            .set(view.id());
        obs.event(
            Level::Info,
            row,
            FlightEvent::Install {
                epoch: view.id(),
                members: view.members().len() as u32,
            },
        );
        NodeInner {
            sst,
            protos,
            fabric: Some(fabric),
            view: Arc::clone(view),
            alive: true,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: active_rows(view).filter(|&m| m != row).collect(),
        }
    }

    /// The closed stand-in for a row hosted by *another* process
    /// ([`Cluster::start_distributed`](super::Cluster::start_distributed)):
    /// its SST lives over a detached region (never posted to), `alive` is
    /// false so sends fail with [`SendError::Closed`](super::SendError),
    /// and no predicate thread runs. The real row runs remotely; this only
    /// keeps row indexing uniform.
    pub(super) fn remote_stub(view: &Arc<View>, plan: &Plan, row: usize) -> NodeInner<F> {
        let region = Arc::new(Region::new(plan.layout.region_words()));
        let sst = Sst::new(plan.layout.clone(), region, row);
        sst.init();
        NodeInner {
            sst,
            protos: Vec::new(),
            fabric: None,
            view: Arc::clone(view),
            alive: false,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: Vec::new(),
        }
    }

    /// The receive frontier per subgroup of the view (−1 where nothing
    /// arrived, or for subgroups this node is not a member of).
    pub(super) fn frontiers(&self) -> Vec<SeqNum> {
        (0..self.view.subgroups().len())
            .map(|g| {
                self.protos
                    .iter()
                    .find(|p| p.sg.0 == g)
                    .map_or(-1, |p| p.received_num)
            })
            .collect()
    }

    /// The transport handle of a row this process hosts.
    pub(super) fn live_fabric(&self) -> F {
        self.fabric.clone().expect("live node has a fabric")
    }
}

pub(super) struct NodeShared<F: Fabric> {
    pub(super) inner: Mutex<NodeInner<F>>,
    pub(super) deliveries: Sender<Delivered>,
    /// Incremented while the predicate thread must stand still (view
    /// change in progress).
    pub(super) wedged: AtomicBool,
    /// Set by the predicate thread while parked under a wedge.
    pub(super) parked: AtomicBool,
    pub(super) epoch: AtomicU64,
    /// Simulated crash: the predicate thread exits silently, heartbeats
    /// stop, membership does not know until a detector notices.
    pub(super) killed: AtomicBool,
    /// Fault injection: while set, the predicate thread stands still (no
    /// predicate evaluation, no heartbeats) but application threads keep
    /// queueing — a slow/descheduled receiver.
    pub(super) paused: AtomicBool,
    /// Where this node's detector reports suspicions.
    pub(super) suspicion_tx: Sender<Suspicion>,
    /// Suspicion bits requested from outside the predicate thread (a
    /// planned-removal trigger on a distributed cluster). The thread
    /// drains them into its view-change engine.
    pub(super) vc_trigger: AtomicU64,
    /// The joiner's endpoint ([`reconfig::JoinEndpoint`]) this node must
    /// carry into its next proposal (a sponsored distributed join,
    /// [`Cluster::admit`](super::Cluster::admit)); `None` when none.
    /// Consumed by the predicate thread when it starts the transition.
    pub(super) join_intent: Mutex<Option<reconfig::JoinEndpoint>>,
    /// The report of the last predicate-thread-driven view change.
    pub(super) vc_report: Mutex<Option<ViewChangeReport>>,
    /// View changes this node installed (predicate-thread driver).
    pub(super) vc_count: AtomicU64,
    /// Cumulative wedge→install time of those view changes, in µs.
    pub(super) vc_micros: AtomicU64,
    /// The durable-log hook (`None` unless the cluster was started
    /// persistent), shared between the predicate thread and the
    /// view-change drain.
    pub(super) persist: Option<Mutex<PersistHook>>,
    /// The process-wide observability plane (adopted from the fabric or
    /// created by the cluster): the predicate thread and the view-change
    /// driver publish counters, latency samples and flight events here.
    pub(super) obs: ObsPlane,
    /// Send timestamps awaiting their own delivery, keyed
    /// `(subgroup, app_index)` and carrying the sender rank for
    /// disambiguation — resolved by the predicate thread into the
    /// per-epoch delivery-latency histogram.
    pub(super) send_stamps: Mutex<std::collections::HashMap<(usize, u64), (usize, Instant)>>,
}

impl<F: Fabric> NodeShared<F> {
    /// The shared state of one row at the epoch `inner` has entered, with
    /// its delivery channel. `persist` makes the row durable (pass `None`
    /// for a remote stub, which delivers nothing).
    pub(super) fn new(
        inner: NodeInner<F>,
        suspicion_tx: &Sender<Suspicion>,
        obs: &ObsPlane,
        persist: Option<&PersistConfig>,
    ) -> (Arc<NodeShared<F>>, Receiver<Delivered>) {
        let (deliveries, rx) = unbounded();
        let row = inner.sst.own_row();
        let shared = Arc::new(NodeShared {
            epoch: AtomicU64::new(inner.view.id()),
            inner: Mutex::new(inner),
            deliveries,
            wedged: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            suspicion_tx: suspicion_tx.clone(),
            vc_trigger: AtomicU64::new(0),
            join_intent: Mutex::new(None),
            vc_report: Mutex::new(None),
            vc_count: AtomicU64::new(0),
            vc_micros: AtomicU64::new(0),
            persist: persist.map(|pc| Mutex::new(PersistHook::new(pc.clone(), row, obs))),
            obs: obs.clone(),
            send_stamps: Mutex::new(std::collections::HashMap::new()),
        });
        (shared, rx)
    }
}

impl<F: Fabric> NodeShared<F> {
    /// Queues `payload` as this node's next message in `sg`: `Ok(false)`
    /// when the ring window is full. Wedges are the caller's business
    /// ([`NodeHandle::try_send`](super::NodeHandle::try_send) refuses under
    /// one; the distributed driver requeues recovered messages under its
    /// own).
    pub(super) fn try_queue(&self, sg: SubgroupId, payload: &[u8]) -> Result<bool, SendError> {
        let mut inner = self.inner.lock();
        if !inner.alive {
            return Err(SendError::Closed);
        }
        let max = inner.view.subgroup(sg).max_msg_size;
        if payload.len() > max {
            return Err(SendError::TooLarge { max });
        }
        let sst = inner.sst.clone();
        let p = inner
            .protos
            .iter_mut()
            .find(|p| p.sg == sg)
            .ok_or(SendError::NotASender)?;
        let rank = p.my_sender_rank.ok_or(SendError::NotASender)?;
        match p.try_queue_app(&sst, payload.len() as u32, Some(payload)) {
            QueueOutcome::Queued { app_index, .. } => {
                // Stamp the send for the delivery-latency histogram; the
                // predicate thread resolves it when the matching ordered
                // delivery (same subgroup, app index and sender rank)
                // comes back around.
                self.send_stamps
                    .lock()
                    .insert((sg.0, app_index), (rank, Instant::now()));
                Ok(true)
            }
            QueueOutcome::WindowFull => Ok(false),
        }
    }

    /// Acts on the local detector's verdict that `suspect` fell silent:
    /// the application hears of it on the suspicion channel, and when this
    /// node drives its own view changes (`drives_engine`: a distributed
    /// cluster acts on its own verdicts) the flight recorder does too and
    /// the suspect's bit comes back to seed the engine.
    pub(super) fn convict(
        &self,
        row: usize,
        suspect: usize,
        epoch: u64,
        mid_transition: bool,
        drives_engine: bool,
    ) -> u64 {
        let _ = self.suspicion_tx.send(Suspicion {
            reporter: row,
            suspect,
        });
        if !drives_engine || suspect > reconfig::MAX_BITMAP_ROW {
            return 0;
        }
        let event = FlightEvent::Suspicion {
            target: suspect as u32,
            epoch,
            mid_transition,
        };
        self.obs.event(Level::Info, row, event);
        1 << suspect
    }
}

/// Whether `row` belongs to at least one subgroup of `view`. Removed rows
/// stay top-level members (ids are stable) but belong to none, so this —
/// not membership — is what makes a row a protocol participant: a
/// heartbeat peer, a leader candidate, a barrier party.
pub(super) fn is_active(view: &View, row: usize) -> bool {
    !view.subgroups_of(NodeId(row)).is_empty()
}

/// The rows of `view` that belong to a subgroup, ascending.
pub(super) fn active_rows(view: &View) -> impl Iterator<Item = usize> + '_ {
    view.members()
        .iter()
        .map(|m| m.0)
        .filter(move |&m| is_active(view, m))
}

/// One write of `range` to every row of `peers` other than `me`.
pub(super) fn ops_to(
    peers: &[usize],
    me: usize,
    range: Range<usize>,
) -> impl Iterator<Item = WriteOp> + '_ {
    peers
        .iter()
        .filter(move |&&p| p != me)
        .map(move |&p| WriteOp::new(NodeId(p), range.clone()))
}

/// The `post` callback the view-change engine, the install barrier and the
/// heartbeat ticker take: `row` posts each range straight to `peers`.
pub(super) fn post_to<'a, F: Fabric>(
    fabric: &'a F,
    row: usize,
    peers: &'a [usize],
) -> impl FnMut(Range<usize>) + 'a {
    move |range| {
        for op in ops_to(peers, row, range) {
            fabric.post(NodeId(row), &op);
        }
    }
}
