//! The public face of the threaded runtime: the delivery, error and
//! request types, [`NodeHandle`], and [`Cluster`] with its constructors,
//! fault-injection switches and accessors. The view-change entry points
//! ([`Cluster::remove_node`], [`Cluster::admit`]) live in `inprocess.rs`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use spindle_fabric::{Fabric, FaultPlan, MemFabric, NodeId};
use spindle_membership::reconfig::ReconfigError;
use spindle_membership::{SeqNum, SubgroupId, View};
use spindle_obs::{names, ObsPlane};

use super::node::{latest, Epochs, NodeInner, NodeShared};
use super::persist::PersistConfig;
use super::predicate::predicate_thread;
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::DetectorConfig;
use crate::plan::Plan;
use crate::viewchange::VcBoundary;

/// A message delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Epoch (view id) it was delivered in.
    pub epoch: u64,
    /// Subgroup it was sent in.
    pub subgroup: SubgroupId,
    /// Sender rank within the subgroup's sender list.
    pub sender_rank: usize,
    /// The sender's app index within the epoch (FIFO per sender).
    pub app_index: u64,
    /// Global sequence number in the subgroup's total order (within the
    /// epoch).
    pub seq: SeqNum,
    /// Payload bytes (copied out of the ring slot at delivery, the
    /// pragmatic §3.5 option 2).
    pub data: Vec<u8>,
}

/// Errors from [`NodeHandle::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// This node is not a sender in the subgroup.
    NotASender,
    /// The payload exceeds the subgroup's `max_msg_size`.
    TooLarge {
        /// The subgroup's limit.
        max: usize,
    },
    /// The cluster (or this node) is shut down or was removed.
    Closed,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::NotASender => write!(f, "node is not a sender in this subgroup"),
            SendError::TooLarge { max } => write!(f, "payload exceeds max message size {max}"),
            SendError::Closed => write!(f, "cluster is shut down"),
        }
    }
}

impl std::error::Error for SendError {}

/// One admission for [`Cluster::admit`] — the single entry point for
/// growing a cluster, whether the joiner is a fresh *process* joining a
/// cluster spread over several (carry its
/// [`endpoint`](AdmitRequest::endpoint)) or a new row of a cluster that
/// hosts every row of its view (no endpoint; pick its subgroups).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmitRequest {
    /// The joiner's advertised transport endpoint (`host:port`; IPv6
    /// literals bracketed). Present for distributed admissions — the
    /// endpoint travels in the leader's proposal so every survivor
    /// extends its mesh identically. Absent for in-process joins.
    pub endpoint: Option<String>,
    /// Whether the joiner enters subgroups as a sender, wherever
    /// [`subgroups`](AdmitRequest::subgroups) does not say per subgroup.
    pub as_sender: bool,
    /// Subgroups the joiner enters, with per-subgroup sender status
    /// (in-process joins only; a distributed joiner's row is appended
    /// to every subgroup by [`join_view`](spindle_membership::reconfig::join_view)). `None` means
    /// every subgroup, with [`as_sender`](AdmitRequest::as_sender)
    /// deciding sender status.
    pub subgroups: Option<Vec<(SubgroupId, bool)>>,
}

impl AdmitRequest {
    /// A distributed admission: the fresh process listening at
    /// `endpoint` joins every subgroup (as a sender when `as_sender`).
    pub fn remote(endpoint: impl Into<String>, as_sender: bool) -> AdmitRequest {
        AdmitRequest {
            endpoint: Some(endpoint.into()),
            as_sender,
            subgroups: None,
        }
    }

    /// An in-process admission on a cluster that hosts every row of its
    /// view: the new node enters exactly the listed subgroups.
    pub fn in_process(joins: &[(SubgroupId, bool)]) -> AdmitRequest {
        AdmitRequest {
            endpoint: None,
            as_sender: false,
            subgroups: Some(joins.to_vec()),
        }
    }
}

/// Errors from [`Cluster::remove_node`] and [`Cluster::admit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewChangeError {
    /// The node id is not a current member.
    UnknownNode(usize),
    /// Removing the node would leave a subgroup with no members.
    WouldEmptySubgroup(SubgroupId),
    /// Fewer than two members would remain.
    TooFewSurvivors,
    /// A join referenced a subgroup id outside the view.
    UnknownSubgroup(SubgroupId),
    /// An endpoint-less [`Cluster::admit`] on a cluster whose view has
    /// rows in other processes: a new row means a new process, and
    /// admitting one needs the joiner's transport endpoint — pass an
    /// [`AdmitRequest`] with the endpoint set (driven by
    /// `spindle-node --join`) instead.
    JoinerAddressRequired,
    /// An [`AdmitRequest`] carrying an endpoint on a cluster that hosts
    /// every row of its view, which joins in process
    /// ([`AdmitRequest::in_process`]) instead.
    InProcessJoin,
    /// A join must be sponsored by the process hosting the leader row
    /// (only the leader's proposal carries the join intent); redirect
    /// the joiner there.
    NotLeader {
        /// The row whose host must sponsor the join.
        leader: usize,
    },
    /// The joiner's endpoint cannot travel in a join proposal (not a
    /// `host:port`, host longer than the proposal's byte bound, or the
    /// cluster is at the bitmap's row cap).
    BadJoinAddress(String),
    /// The SST-driven transition did not converge within its deadline
    /// (a survivor stalled or stayed partitioned).
    Stalled,
}

impl std::fmt::Display for ViewChangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewChangeError::UnknownNode(n) => write!(f, "node {n} is not a member"),
            ViewChangeError::WouldEmptySubgroup(g) => {
                write!(f, "removal would empty subgroup {g}")
            }
            ViewChangeError::TooFewSurvivors => write!(f, "a view needs at least two members"),
            ViewChangeError::UnknownSubgroup(g) => write!(f, "no such subgroup {g}"),
            ViewChangeError::JoinerAddressRequired => {
                write!(
                    f,
                    "a distributed join needs the joiner's endpoint: \
                     admit with an endpoint (spindle-node --join)"
                )
            }
            ViewChangeError::InProcessJoin => {
                write!(
                    f,
                    "a cluster hosting every row joins in process: admit without an endpoint"
                )
            }
            ViewChangeError::NotLeader { leader } => {
                write!(f, "joins must be sponsored by the leader row {leader}")
            }
            ViewChangeError::BadJoinAddress(msg) => {
                write!(f, "bad join address: {msg}")
            }
            ViewChangeError::Stalled => {
                write!(f, "view change did not converge within its deadline")
            }
        }
    }
}

impl From<ReconfigError> for ViewChangeError {
    fn from(e: ReconfigError) -> ViewChangeError {
        match e {
            ReconfigError::UnknownNode(n) => ViewChangeError::UnknownNode(n),
            ReconfigError::WouldEmptySubgroup(g) => ViewChangeError::WouldEmptySubgroup(g),
            ReconfigError::TooFewSurvivors => ViewChangeError::TooFewSurvivors,
            ReconfigError::TooManyRows => ViewChangeError::BadJoinAddress(
                "cluster is at the suspicion bitmap's row cap".into(),
            ),
        }
    }
}

impl std::error::Error for ViewChangeError {}

/// Summary of an executed view change.
#[derive(Debug, Clone)]
pub struct ViewChangeReport {
    /// The new epoch number.
    pub epoch: u64,
    /// Per subgroup: the ragged-trim cut (last seq delivered in the old
    /// epoch; -1 if nothing was in flight).
    pub cuts: Vec<SeqNum>,
    /// Messages recovered from surviving senders' rings and resent in the
    /// new epoch.
    pub resent: usize,
}

/// A failure suspicion raised by SST heartbeat detection (see
/// [`Cluster::suspicions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspicion {
    /// The node whose detector noticed the silence.
    pub reporter: usize,
    /// The node whose heartbeat counter stopped advancing.
    pub suspect: usize,
}

/// Handle to one in-process node.
///
/// Generic over the transport; defaults to the in-process [`MemFabric`],
/// so `NodeHandle` without parameters names the common case.
pub struct NodeHandle<F: Fabric = MemFabric> {
    pub(super) id: NodeId,
    pub(super) shared: Arc<NodeShared<F>>,
    rx: Receiver<Delivered>,
    stop: Arc<AtomicBool>,
}

impl<F: Fabric> NodeHandle<F> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current epoch (view id) as seen by this node.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// How many view changes this node has installed, and the cumulative
    /// time they took it from wedging to the install barrier's
    /// confirmation — read from what its predicate thread records in the
    /// registry: [`names::VIEW_CHANGES`] and the sums of both
    /// [`names::VIEW_CHANGE_PHASE`] histograms.
    pub fn view_change_stats(&self) -> (u64, Duration) {
        let node = self.id.0.to_string();
        let reg = self.shared.obs.registry();
        let installed = reg.counter_value(names::VIEW_CHANGES, &[("node", &node)]);
        let nanos: u64 = ["agree", "barrier"]
            .iter()
            .filter_map(|phase| {
                let labels = [("node", node.as_str()), ("phase", phase)];
                reg.histogram_snapshot(names::VIEW_CHANGE_PHASE, &labels)
            })
            .map(|h| h.sum)
            .sum();
        (installed.unwrap_or(0), Duration::from_nanos(nanos))
    }

    /// Sends `payload` in `sg`, blocking while the ring window is full or a
    /// view change is in progress.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::NotASender`] if the node is not a sender in the
    /// subgroup, [`SendError::TooLarge`] for oversized payloads, and
    /// [`SendError::Closed`] if the cluster stopped or this node was
    /// removed.
    pub fn send(&self, sg: SubgroupId, payload: &[u8]) -> Result<(), SendError> {
        loop {
            match self.try_send(sg, payload)? {
                true => return Ok(()),
                false => {
                    if self.stop.load(Ordering::Relaxed) {
                        return Err(SendError::Closed);
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Attempts one send; returns `Ok(false)` if the window is full or the
    /// cluster is momentarily wedged.
    ///
    /// # Errors
    ///
    /// Same as [`NodeHandle::send`], except a full window is `Ok(false)`.
    pub fn try_send(&self, sg: SubgroupId, payload: &[u8]) -> Result<bool, SendError> {
        if self.stop.load(Ordering::Relaxed) || self.shared.killed.load(Ordering::Acquire) {
            return Err(SendError::Closed);
        }
        if self.shared.wedged.load(Ordering::Acquire) {
            // A node closed mid-transition (evicted, removed, gave up)
            // never unwedges: "try again" would spin its senders forever.
            // Only this refused path pays for the lock.
            return match self.shared.inner.lock().alive {
                true => Ok(false),
                false => Err(SendError::Closed),
            };
        }
        self.shared.try_queue(sg, payload)
    }

    /// This node's current receive frontier per subgroup of its view
    /// (−1 where nothing arrived, or for subgroups it is not a member
    /// of). A join sponsor snapshots these into the state transfer it
    /// sends the joiner — they mark where the old epoch's total order
    /// stands at snapshot time.
    pub fn receive_frontiers(&self) -> Vec<SeqNum> {
        self.shared.inner.lock().frontiers()
    }

    /// The delivery channel: messages arrive in the subgroup's total order
    /// (per epoch).
    pub fn deliveries(&self) -> &Receiver<Delivered> {
        &self.rx
    }

    /// Receives the next delivery, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivered> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// The *global persistence frontier* of subgroup `sg` as seen by this
    /// node: the minimum `persisted_num` over the subgroup's members. Every
    /// message with a sequence number at or below it has been appended to
    /// stable storage by every member (durable in the Paxos sense). Always
    /// −1 in clusters not started with [`Cluster::start_persistent`], and
    /// `None` if this node is not a member of `sg`.
    pub fn persistence_frontier(&self, sg: SubgroupId) -> Option<SeqNum> {
        let inner = self.shared.inner.lock();
        let p = inner.protos.iter().find(|p| p.sg == sg)?;
        let sst = &inner.sst;
        Some(sst.min_counter(p.cols.pers, p.member_rows.iter().copied()))
    }

    /// This node's *own* persistence frontier in `sg`: the last sequence
    /// number it has appended to its durable log (−1 if none, `None` if
    /// not a member). Unlike [`NodeHandle::persistence_frontier`], this
    /// can advance past crashed members.
    pub fn local_persisted(&self, sg: SubgroupId) -> Option<SeqNum> {
        let inner = self.shared.inner.lock();
        let p = inner.protos.iter().find(|p| p.sg == sg)?;
        Some(inner.sst.counter(p.cols.pers, inner.sst.own_row()))
    }
}

/// An in-process cluster of nodes running the full protocol over real
/// threads.
///
/// # Examples
///
/// ```
/// use spindle_core::{Cluster, SpindleConfig};
/// use spindle_membership::{SubgroupId, ViewBuilder};
/// use std::time::Duration;
///
/// let view = ViewBuilder::new(2)
///     .subgroup(&[0, 1], &[0], 8, 64)
///     .build()?;
/// let mut cluster = Cluster::start(view, SpindleConfig::optimized());
/// cluster.node(0).send(SubgroupId(0), b"hello")?;
/// let got = cluster.node(1).recv_timeout(Duration::from_secs(5)).unwrap();
/// assert_eq!(got.data, b"hello");
/// cluster.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Transports
///
/// The cluster is generic over the [`Fabric`] transport and defaults to
/// the in-process [`MemFabric`]. [`Cluster::start_distributed`] hosts any
/// set of the view's rows in this process over a pre-built fabric — a
/// subset is the multi-process deployment mode the `spindle-node` binary
/// uses — and [`Cluster::start_with_fabric_factory`] hosts all of them
/// over a fabric it builds (e.g. a loopback TCP group). Whatever the
/// transport, every epoch after the first is entered through
/// [`Fabric::begin_epoch`].
pub struct Cluster<F: Fabric = MemFabric> {
    pub(super) nodes: Vec<NodeHandle<F>>,
    pub(super) threads: Vec<JoinHandle<()>>,
    pub(super) stop: Arc<AtomicBool>,
    /// Every epoch the local rows installed — the current view and fabric
    /// included; shared with every local row.
    pub(super) epochs: Arc<Epochs<F>>,
    /// Rows hosted (with a live predicate thread) in this process.
    pub(super) local_rows: BTreeSet<usize>,
    pub(super) cfg: SpindleConfig,
    pub(super) detector: Option<DetectorConfig>,
    pub(super) persist: Option<PersistConfig>,
    pub(super) suspicion_tx: Sender<Suspicion>,
    pub(super) suspicion_rx: Receiver<Suspicion>,
    /// The fabric's fault switches, shared with every later epoch's
    /// fabric (node faults are keyed by node id, so they survive view
    /// changes).
    pub(super) faults: FaultPlan,
    /// The observability plane every local node publishes into —
    /// adopted from the fabric when the transport owns one
    /// ([`Fabric::obs`]), created fresh otherwise.
    pub(super) obs: ObsPlane,
}

impl Cluster<MemFabric> {
    /// Builds the SST plan for `view`, allocates the fabric, and spawns one
    /// predicate thread per node.
    pub fn start(view: View, cfg: SpindleConfig) -> Cluster {
        Cluster::start_configured(view, cfg, None, None)
    }

    /// Like [`Cluster::start`], additionally running SST heartbeat failure
    /// detection on every node: each node pushes a heartbeat counter on
    /// `detector.heartbeat_interval` and suspicions surface on
    /// [`Cluster::suspicions`] after `detector.timeout` of silence.
    pub fn start_with_detector(
        view: View,
        cfg: SpindleConfig,
        detector: DetectorConfig,
    ) -> Cluster {
        Cluster::start_configured(view, cfg, Some(detector), None)
    }

    /// Like [`Cluster::start`], additionally running Derecho's *persistent*
    /// atomic multicast (paper footnote 2): every ordered delivery is
    /// appended to a checksummed per-node log under `persist.dir` before
    /// the node advances its SST persistence frontier.
    ///
    /// Requires [`DeliveryTiming::Ordered`] (the default); unordered
    /// deliveries carry no stable sequence number to log.
    pub fn start_persistent(view: View, cfg: SpindleConfig, persist: PersistConfig) -> Cluster {
        Cluster::start_configured(view, cfg, None, Some(persist))
    }

    /// The general constructor: any combination of failure detection and
    /// durable mode. [`Cluster::start`], [`Cluster::start_with_detector`]
    /// and [`Cluster::start_persistent`] are shorthands for the common
    /// cases.
    ///
    /// # Panics
    ///
    /// Panics if `persist` is set while `cfg.delivery_timing` is not
    /// [`DeliveryTiming::Ordered`] (unordered deliveries carry no stable
    /// sequence number to log).
    pub fn start_configured(
        view: View,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
    ) -> Cluster {
        if persist.is_some() {
            assert_eq!(
                cfg.delivery_timing,
                DeliveryTiming::Ordered,
                "persistent multicast requires ordered delivery"
            );
        }
        Cluster::start_with_fabric_factory(view, cfg, detector, persist, MemFabric::with_faults)
    }
}

impl<F: Fabric> Cluster<F> {
    /// The generic constructor over any transport: builds the first
    /// epoch's fabric with `factory` (`(nodes, region_words, fault plan)`)
    /// and hosts every row of `view` over it, as
    /// [`Cluster::start_distributed`] does. The factory builds only that
    /// fabric; every later epoch's comes from [`Fabric::begin_epoch`].
    pub fn start_with_fabric_factory(
        view: View,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
        factory: impl Fn(usize, usize, FaultPlan) -> F + Send + Sync + 'static,
    ) -> Cluster<F> {
        let every: Vec<usize> = (0..view.members().len()).collect();
        let words = Plan::build(&view, true).layout.region_words();
        let fabric = factory(every.len(), words, FaultPlan::new());
        Cluster::start_distributed(view, cfg, detector, persist, &every, fabric)
    }

    /// Hosts `local_rows` of `view` in this process, over a pre-built
    /// `fabric` (e.g. a `spindle_net::TcpFabric` produced by the bootstrap
    /// handshake, or a [`MemFabric`] several clusters share). Handles for
    /// the other rows exist but are closed (sends return
    /// [`SendError::Closed`], deliveries never arrive).
    ///
    /// Every transition the predicate threads run enters the next epoch
    /// through [`Fabric::begin_epoch`]. Where the view has rows in other
    /// processes, no caller sees every row, so a local detector's verdict
    /// starts a transition as a peer's suspicion column or a
    /// [`Cluster::remove_node`] trigger does, and a joiner is admitted by
    /// its endpoint; a cluster hosting every row surfaces the verdicts
    /// ([`Cluster::suspicions`]) and admits rows of its own.
    ///
    /// The cluster adopts `fabric.faults()` as its fault plan, so the
    /// fault-injection hooks act on the real transport.
    ///
    /// # Panics
    ///
    /// Panics if a local row is out of range or the fabric's region size
    /// does not match the view's SST layout (a bootstrap mismatch).
    pub fn start_distributed(
        view: View,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
        local_rows: &[usize],
        fabric: F,
    ) -> Cluster<F> {
        let view = Arc::new(view);
        let plan = Plan::build(&view, true);
        for &row in local_rows {
            assert!(row < view.members().len(), "local row {row} out of range");
            assert_eq!(
                fabric.region_arc(NodeId(row)).len(),
                plan.layout.region_words(),
                "fabric region size does not match the view's SST layout"
            );
        }
        let local = local_rows.iter().copied().collect();
        Cluster::assemble(view, cfg, detector, persist, fabric, local, &plan)
    }

    fn assemble(
        view: Arc<View>,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
        fabric: F,
        local_rows: BTreeSet<usize>,
        plan: &Plan,
    ) -> Cluster<F> {
        let (suspicion_tx, suspicion_rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let obs = fabric.obs().unwrap_or_default();
        let faults = fabric.faults().clone();
        let epochs = Epochs::new(Arc::clone(&view), fabric);
        let mut cluster = Cluster {
            nodes: Vec::new(),
            threads: Vec::new(),
            stop,
            epochs,
            local_rows,
            cfg,
            detector,
            persist,
            suspicion_tx,
            suspicion_rx,
            faults,
            obs,
        };
        for row in 0..view.members().len() {
            if cluster.local_rows.contains(&row) {
                cluster.spawn_node(row);
            } else {
                cluster.push_remote_stub(&view, plan, row);
            }
        }
        cluster
    }

    /// Adds the next row's handle over `inner`, without a thread.
    fn push_handle(&mut self, inner: NodeInner<F>) -> Arc<NodeShared<F>> {
        // A closed stub delivers nothing, so it gets no durable-log hook.
        let persist = self.persist.as_ref().filter(|_| inner.alive);
        let id = NodeId(inner.sst.own_row());
        let (shared, rx) =
            NodeShared::new(inner, &self.suspicion_tx, &self.obs, persist, &self.epochs);
        self.nodes.push(NodeHandle {
            id,
            shared: Arc::clone(&shared),
            rx,
            stop: Arc::clone(&self.stop),
        });
        shared
    }

    /// Adds the closed handle of a row another process hosts.
    pub(super) fn push_remote_stub(&mut self, view: &Arc<View>, plan: &Plan, row: usize) {
        self.push_handle(NodeInner::remote_stub(view, plan, row));
    }

    /// Enters the current epoch on its fabric as row `row`, and creates
    /// its handle and predicate thread.
    pub(super) fn spawn_node(&mut self, row: usize) {
        let (view, fabric) = self.epochs.read(|views, f| (latest(views), f.clone()));
        let plan = Plan::build(&view, true);
        let inner = NodeInner::enter_epoch(&view, &plan, row, fabric, &self.obs);
        let shared = self.push_handle(inner);
        self.local_rows.insert(row);
        // Whether this row's own detector verdicts start transitions
        // (see `NodeShared::convict`): where other processes host rows too.
        let drives_engine = !self.hosts_every_row();
        let th = {
            let cfg = self.cfg.clone();
            let det = self.detector.clone();
            let stop = Arc::clone(&self.stop);
            std::thread::Builder::new()
                .name(format!("spindle-pred-{row}"))
                .spawn(move || predicate_thread(row, shared, cfg, det, stop, drives_engine))
                .expect("spawn predicate thread")
        };
        self.threads.push(th);
    }

    /// The stream of failure suspicions raised by SST heartbeat detection
    /// (empty unless started via [`Cluster::start_with_detector`]). Every
    /// node reports independently, so one failure typically yields one
    /// [`Suspicion`] per surviving member; feed the first to
    /// [`Cluster::remove_node`] and drain the rest.
    pub fn suspicions(&self) -> &Receiver<Suspicion> {
        &self.suspicion_rx
    }

    /// Simulates a crash of `node`: its predicate thread exits without any
    /// protocol action, its heartbeat counter freezes, and its handle
    /// rejects sends. Membership is *not* informed — that is the failure
    /// detector's job (or call [`Cluster::remove_node`] directly).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kill(&self, node: usize) {
        self.shared(node).killed.store(true, Ordering::Release);
    }

    /// Fault injection: `node`'s *next* view-change engine halts —
    /// exactly as if its process crashed — immediately after the writes
    /// of `boundary` are posted, and the node is from then on a silent
    /// corpse, as after [`Cluster::kill`]. The survivors must complete
    /// the transition without it (the leader-handoff protocol when `node`
    /// was the proposer). Consumed by the next transition. A process of
    /// a multi-process test arms the same fault through the
    /// `SPINDLE_VC_CRASH_AT` environment variable, and then really
    /// aborts.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn arm_vc_crash(&self, node: usize, boundary: VcBoundary) {
        *self.shared(node).vc_crash.lock() = Some(boundary);
    }

    /// Fault injection: stalls `node`'s predicate thread (no predicate
    /// evaluation, no acknowledgments, no heartbeats) until
    /// [`Cluster::resume_node`]. Application threads keep queueing, so ring
    /// windows fill and cluster-wide delivery stalls on the missing
    /// acknowledgments — the slow-receiver situation of §4.1.1. With a
    /// detector configured, a pause longer than its timeout is
    /// indistinguishable from a crash and draws a suspicion. A view change
    /// started meanwhile waits for the node too: it runs on the stalled
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn pause_node(&self, node: usize) {
        self.shared(node).paused.store(true, Ordering::Release);
    }

    /// Ends a [`Cluster::pause_node`] stall.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn resume_node(&self, node: usize) {
        self.shared(node).paused.store(false, Ordering::Release);
    }

    /// Fault injection: drops all fabric writes from and to `node` (a full
    /// one-node partition) until [`Cluster::heal_node`]. The node keeps
    /// running — it just stops being heard, so detectors on both sides of
    /// the partition raise suspicions.
    pub fn isolate_node(&self, node: usize) {
        self.faults.isolate(NodeId(node));
    }

    /// Ends a [`Cluster::isolate_node`] partition.
    pub fn heal_node(&self, node: usize) {
        self.faults.heal(NodeId(node));
    }

    /// Fault injection: stalls every fabric write `node` posts by `delay`
    /// (`Duration::ZERO` removes the throttle). Ordering is preserved; the
    /// node is merely slow.
    pub fn throttle_node(&self, node: usize, delay: Duration) {
        self.faults.throttle(NodeId(node), delay);
    }

    /// Fault injection: suppresses (or restores) `node`'s heartbeat counter
    /// pushes while the rest of its traffic flows — a healthy node that
    /// *looks* dead to every detector. The suppression holds across view
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_drop_heartbeats(&mut self, node: usize, on: bool) {
        self.shared(node).hb_muted.store(on, Ordering::Relaxed);
    }

    /// The fault-injection switches shared with the fabric of every epoch.
    /// Prefer the named methods ([`Cluster::isolate_node`],
    /// [`Cluster::throttle_node`], ...) where one fits.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Handle to node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &NodeHandle<F> {
        &self.nodes[i]
    }

    /// Number of nodes (including removed ones, whose handles are closed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty cluster (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The view the local rows installed last — live: a transition the
    /// predicate threads install on their own (a multi-process cluster's
    /// detector-driven removal) shows here at once. Do not hold it across
    /// one: take it again.
    pub fn view(&self) -> Arc<View> {
        self.epochs.read(|views, _| latest(views))
    }

    /// The live observability plane every local row publishes into:
    /// per-epoch delivery counters and latency histograms, view-change
    /// phase durations, and the flight-recorder ring. Adopted from the
    /// transport when it owns one ([`Fabric::obs`]), created fresh
    /// otherwise.
    pub fn obs(&self) -> &ObsPlane {
        &self.obs
    }

    /// Every view the local rows have installed so far, oldest first (the
    /// initial view included) — recorded by the first row to install
    /// each, live as [`Cluster::view`] is. Unlike [`Cluster::view`], this
    /// also exposes the *intermediate* epoch of a chained takeover
    /// transition — a verbatim-adopted proposal installs a view that
    /// still carries the dead leader, and the residual eviction installs
    /// the next one within the same `remove_node` call.
    pub fn epoch_views(&self) -> Vec<Arc<View>> {
        self.epochs.read(|views, _| views.to_vec())
    }

    /// The fabric of the epoch the local rows installed last (live, as
    /// [`Cluster::view`] is).
    pub fn fabric(&self) -> F {
        self.epochs.read(|_, fabric| fabric.clone())
    }

    /// The rows hosted (with a live predicate thread) in this process —
    /// all rows unless [`Cluster::start_distributed`] was given a subset.
    pub fn local_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.local_rows.iter().copied()
    }

    /// The shared state of row `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(super) fn shared(&self, node: usize) -> &NodeShared<F> {
        &self.nodes[node].shared
    }

    /// Whether this process hosts every row of the cluster's view: then
    /// the caller sees every row, a detector's verdict only surfaces and
    /// a joiner is a row of this process; otherwise the rows act on their
    /// own verdicts and a joiner is a process of its own.
    pub(super) fn hosts_every_row(&self) -> bool {
        (0..self.view().members().len()).all(|r| self.local_rows.contains(&r))
    }

    pub(super) fn alive(&self, node: usize) -> bool {
        self.shared(node).inner.lock().alive
    }

    /// A node participates in epoch transitions if it has not been removed
    /// *and* has not silently crashed.
    pub(super) fn participating(&self, node: usize) -> bool {
        self.alive(node) && !self.shared(node).killed.load(Ordering::Acquire)
    }

    /// Stops all predicate threads and waits for them (as dropping the
    /// cluster does).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl<F: Fabric> Drop for Cluster<F> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for th in self.threads.drain(..) {
            let _ = th.join();
        }
    }
}
