//! One node's state — shared by its [`NodeHandle`](super::NodeHandle) and its
//! predicate thread, epoch transitions included — the single
//! place a node enters an epoch, what the rows of one process share across
//! epochs ([`Epochs`]), and the row and post helpers the other modules share.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use spindle_fabric::{EpochTransition, Fabric, NodeId, Region, WriteOp};
use spindle_membership::reconfig;
use spindle_membership::{SeqNum, SubgroupId, View};
use spindle_obs::{FlightEvent, Level, ObsPlane};
use spindle_sst::Sst;

use super::api::{Delivered, SendError, Suspicion, ViewChangeReport};
use super::persist::{PersistConfig, PersistHook};
use crate::plan::{Plan, ReconfigCols};
use crate::proto::{QueueOutcome, SubgroupProto};
use crate::viewchange::VcBoundary;

/// Everything that is replaced wholesale on a view change.
pub(crate) struct NodeInner<F: Fabric> {
    pub(crate) sst: Sst,
    pub(crate) protos: Vec<SubgroupProto>,
    /// Beside each entry of `protos`: when this node queued the message in
    /// each ring slot it sends from — `window` entries, none where it is
    /// not a sender. [`NodeShared::try_queue`] writes the slot's entry and
    /// the predicate thread takes it when it delivers that message back
    /// here, which is the delivery-latency sample. A slot is requeued only
    /// once its message is delivered at every member, this one included
    /// (`try_queue_app`'s `min_delivered` check), so no entry is
    /// overwritten before it is taken; where own messages are never
    /// delivered back (unordered delivery) entries are overwritten unread.
    pub(super) queued_at: Vec<Vec<Option<Instant>>>,
    /// `None` for the closed stub of a remotely hosted row, which never
    /// runs a predicate thread, and for a row closed for good
    /// ([`NodeInner::close`]): neither posts again.
    pub(super) fabric: Option<F>,
    pub(crate) view: Arc<View>,
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
    /// [`FlightEvent::Install`] record. Start-up (and a joiner's) and a
    /// transition's install enter an epoch here; the caller
    /// publishes the epoch number ([`NodeShared::epoch`]).
    pub(crate) fn enter_epoch(
        view: &Arc<View>,
        plan: &Plan,
        row: usize,
        fabric: F,
        obs: &ObsPlane,
    ) -> NodeInner<F> {
        let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(row)), row);
        sst.init();
        let protos: Vec<SubgroupProto> = view
            .subgroups()
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.member_rank(NodeId(row)).is_some())
            .map(|(g, _)| SubgroupProto::new(view, SubgroupId(g), plan.cols[g], row))
            .collect();
        let queued_at = protos
            .iter()
            .map(|p| vec![None; p.my_sender_rank.map_or(0, |_| p.ring.window())])
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
            queued_at,
            fabric: Some(fabric),
            view: Arc::clone(view),
            alive: true,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: view.active_rows().filter(|&m| m != row).collect(),
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
            queued_at: Vec::new(),
            fabric: None,
            view: Arc::clone(view),
            alive: false,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: Vec::new(),
        }
    }

    /// Closes the row for good: its sends fail from now on, and it lets go
    /// of its epoch's fabric. A superseded fabric keeps its successor —
    /// and so every later epoch's — alive, so a handle that never posts
    /// again must not hold one.
    pub(super) fn close(&mut self) {
        self.alive = false;
        self.fabric = None;
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
}

/// A join this node must carry into its next transition
/// ([`Cluster::admit`](super::Cluster::admit)).
pub(super) enum JoinIntent {
    /// A fresh process: its endpoint travels in this node's proposal if
    /// it turns out to be the leader, so every survivor — in whatever
    /// process — derives the same grown view and dials the joiner.
    Remote(reconfig::JoinEndpoint),
    /// A new row of this process, entering these (subgroup, as sender)
    /// pairs. Set on every local row: they share [`Epochs`], so nothing
    /// needs to travel.
    Local(Vec<(SubgroupId, bool)>),
}

/// What the rows of one process share across epochs: every view installed
/// so far with the fabric of the last one, and which rows died at an armed
/// crash boundary.
pub(crate) struct Epochs<F: Fabric> {
    /// Every view installed so far — oldest first, never empty — and the
    /// fabric of the last one ([`Epochs::read`]). Earlier fabrics live only
    /// as long as a row still holds one: stragglers keep posting into
    /// theirs, which nobody reads.
    installed: Mutex<(Vec<Arc<View>>, F)>,
    /// The suspicion bits of local rows that died at a crash boundary
    /// armed through
    /// [`Cluster::arm_vc_crash`](super::Cluster::arm_vc_crash) — the
    /// stand-in for the detector a cluster may not have. A node pass holds
    /// the lock across one engine step, and a row that halts records its
    /// bit and posts the boundary's writes before it lets go: its peers
    /// suspect it no later than they can read those writes. That keeps the
    /// takeover's shape (fresh trim or verbatim adoption) a function of
    /// the boundary, not of thread timing.
    pub(crate) crashed: Mutex<u64>,
}

impl<F: Fabric> Epochs<F> {
    /// The rows of one process, starting at `view` over `fabric`.
    pub(crate) fn new(view: Arc<View>, fabric: F) -> Arc<Epochs<F>> {
        Arc::new(Epochs {
            installed: Mutex::new((vec![view], fabric)),
            crashed: Mutex::new(0),
        })
    }

    /// `f` of every view installed so far (oldest first; the last is the
    /// current one) and the current fabric, under the lock [`Epochs::enter`]
    /// installs under — so a reader never sees a view without its fabric.
    pub(super) fn read<R>(&self, f: impl FnOnce(&[Arc<View>], &F) -> R) -> R {
        let installed = self.installed.lock();
        f(&installed.0, &installed.1)
    }

    /// The view and fabric of epoch `vid` for a row leaving the one
    /// before it. The first local row to get here derives the view
    /// (`derive`: the next view, and the rows joining with it) and has the
    /// current fabric enter the epoch ([`Fabric::begin_epoch`]) at the size
    /// of its layout, ring slots with payload words or not (`payloads`); every
    /// later row enters what the first one recorded. One view and one
    /// fabric per epoch, never one per row: two local rows on different
    /// fabrics would be a silent split brain. `None` when the view is not
    /// installable, the fabric cannot enter it, or the process has moved
    /// past `vid` — which it only does without a row its peers dropped
    /// from the install barrier as dead.
    pub(super) fn enter(
        &self,
        vid: u64,
        payloads: bool,
        derive: impl FnOnce() -> Option<(View, Vec<(usize, String)>)>,
    ) -> Option<(Arc<View>, F)> {
        let mut installed = self.installed.lock();
        let (views, fabric) = &mut *installed;
        let last = latest(views);
        if last.id() >= vid {
            return (last.id() == vid).then(|| (last, fabric.clone()));
        }
        let (view, joined) = derive()?;
        let view = Arc::new(view);
        let region_words = Plan::build(&view, payloads).layout.region_words();
        let transition = EpochTransition {
            epoch: vid,
            live: view.active_rows().collect(),
            region_words,
            joined,
        };
        *fabric = fabric.begin_epoch(&transition)?;
        views.push(Arc::clone(&view));
        Some((view, fabric.clone()))
    }
}

/// The current view of an [`Epochs::read`]: the last one installed.
pub(super) fn latest(views: &[Arc<View>]) -> Arc<View> {
    Arc::clone(views.last().expect("the first epoch is always recorded"))
}

pub(crate) struct NodeShared<F: Fabric> {
    pub(crate) inner: Mutex<NodeInner<F>>,
    pub(super) deliveries: Sender<Delivered>,
    /// Set while the predicate thread runs an epoch transition, from the
    /// first suspicion to the end of the install barrier: sends are
    /// refused meanwhile. A row closed mid-transition stays wedged.
    pub(crate) wedged: AtomicBool,
    pub(super) epoch: AtomicU64,
    /// Simulated crash: the predicate thread exits silently, heartbeats
    /// stop, membership does not know until a detector notices.
    pub(crate) killed: AtomicBool,
    /// Fault injection: while set, the predicate thread stands still (no
    /// predicate evaluation, no heartbeats) but application threads keep
    /// queueing — a slow/descheduled receiver.
    pub(crate) paused: AtomicBool,
    /// Fault injection ([`Cluster::set_drop_heartbeats`](super::Cluster::set_drop_heartbeats)):
    /// while set, the row's heartbeat bumps its counter but posts nothing,
    /// in every epoch and through every transition.
    pub(crate) hb_muted: Arc<AtomicBool>,
    /// Where this node's detector reports suspicions.
    pub(super) suspicion_tx: Sender<Suspicion>,
    /// Suspicion bits that must start this node's next transition, set
    /// from outside its predicate loop: a
    /// [`Cluster::remove_node`](super::Cluster::remove_node) /
    /// [`Cluster::admit`](super::Cluster::admit) trigger, or what the
    /// thread itself carries over from the transition it just finished.
    pub(super) vc_trigger: AtomicU64,
    /// Consumed by the predicate thread when it starts the transition.
    pub(super) join_intent: Mutex<Option<JoinIntent>>,
    /// Fault injection
    /// ([`Cluster::arm_vc_crash`](super::Cluster::arm_vc_crash)): the
    /// boundary this node's next engine halts at. Consumed when the
    /// engine is built.
    pub(crate) vc_crash: Mutex<Option<VcBoundary>>,
    /// The report of this node's last view change.
    pub(crate) vc_report: Mutex<Option<ViewChangeReport>>,
    /// The durable-log hook (`None` unless the cluster was started
    /// persistent); only the predicate thread appends through it.
    pub(super) persist: Option<Mutex<PersistHook>>,
    /// The process-wide observability plane (adopted from the fabric or
    /// created by the cluster): the predicate thread publishes counters,
    /// latency samples and flight events here, transitions included.
    pub(super) obs: ObsPlane,
    pub(crate) epochs: Arc<Epochs<F>>,
}

impl<F: Fabric> NodeShared<F> {
    /// The shared state of one row at the epoch `inner` has entered, with
    /// its delivery channel. `persist` makes the row durable (pass `None`
    /// for a remote stub, which delivers nothing).
    pub(crate) fn new(
        inner: NodeInner<F>,
        suspicion_tx: &Sender<Suspicion>,
        obs: &ObsPlane,
        persist: Option<&PersistConfig>,
        epochs: &Arc<Epochs<F>>,
    ) -> (Arc<NodeShared<F>>, Receiver<Delivered>) {
        let (deliveries, rx) = unbounded();
        let row = inner.sst.own_row();
        let shared = Arc::new(NodeShared {
            epoch: AtomicU64::new(inner.view.id()),
            inner: Mutex::new(inner),
            deliveries,
            wedged: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            hb_muted: Arc::default(),
            suspicion_tx: suspicion_tx.clone(),
            vc_trigger: AtomicU64::new(0),
            join_intent: Mutex::new(None),
            vc_crash: Mutex::new(None),
            vc_report: Mutex::new(None),
            persist: persist.map(|pc| Mutex::new(PersistHook::new(pc.clone(), row, obs))),
            obs: obs.clone(),
            epochs: Arc::clone(epochs),
        });
        (shared, rx)
    }
}

impl<F: Fabric> NodeShared<F> {
    /// Queues `payload` as this node's next message in `sg`: `Ok(false)`
    /// when the ring window is full. Wedges are the caller's business
    /// ([`NodeHandle::try_send`](super::NodeHandle::try_send) refuses under
    /// one; a transition requeues recovered messages under its own).
    pub(super) fn try_queue(&self, sg: SubgroupId, payload: &[u8]) -> Result<bool, SendError> {
        let mut inner = self.inner.lock();
        if !inner.alive {
            return Err(SendError::Closed);
        }
        let max = inner.view.subgroup(sg).max_msg_size;
        if payload.len() > max {
            return Err(SendError::TooLarge { max });
        }
        let NodeInner {
            sst,
            protos,
            queued_at,
            ..
        } = &mut *inner;
        let (p, stamps) = protos
            .iter_mut()
            .zip(queued_at)
            .find(|(p, _)| p.sg == sg && p.my_sender_rank.is_some())
            .ok_or(SendError::NotASender)?;
        match p.try_queue_app(sst, payload.len() as u32, Some(payload)) {
            QueueOutcome::Queued { slot, .. } => {
                stamps[slot] = Some(Instant::now());
                // The slot is work for this node's own predicate thread.
                sst.region().ring();
                Ok(true)
            }
            QueueOutcome::WindowFull => Ok(false),
        }
    }

    /// ORs `bits` into [`NodeShared::vc_trigger`] from outside the node's
    /// predicate loop and rings its doorbell: the thread may be parked, and
    /// a trigger is no write to its replica.
    pub(super) fn trigger(&self, bits: u64) {
        self.vc_trigger.fetch_or(bits, Ordering::AcqRel);
        self.inner.lock().sst.region().ring();
    }

    /// Acts on the local detector's verdict that `suspect` fell silent:
    /// the application hears of it on the suspicion channel, and when the
    /// verdict itself must move the engine (`drives_engine`) the flight
    /// recorder does too and the suspect's bit comes back to seed it. That
    /// is every verdict reached mid-transition; outside one it is the one
    /// policy that differs between clusters: a multi-process cluster has
    /// no caller that sees every row, so its rows act on their own
    /// verdicts, while a single-process one only surfaces them
    /// ([`Cluster::suspicions`](super::Cluster::suspicions)) and the
    /// application calls
    /// [`Cluster::remove_node`](super::Cluster::remove_node).
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
