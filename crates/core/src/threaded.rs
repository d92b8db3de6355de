//! The threaded cluster: real concurrency over the shared-memory fabric.
//!
//! This is the embeddable runtime of the library: every node gets a real
//! predicate (polling) thread exactly as in the paper (§2.4), application
//! threads send through [`NodeHandle::send`], and deliveries appear —
//! in the identical total order at every member — on each node's delivery
//! channel. The same [`proto`](crate::proto) state machines as the
//! simulated runtime execute here, so the correctness properties the
//! integration tests establish (total order, gap-freedom, FIFO per sender,
//! null invisibility, failure atomicity) hold for the code the performance
//! model measures.
//!
//! The §3.4 optimization is implemented literally: with
//! [`SpindleConfig::early_lock_release`] the predicate body collects the
//! word ranges to push under the node's lock, releases it, and only then
//! posts the writes; the baseline posts while holding the lock.
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
//! Two drivers execute that engine:
//!
//! * clusters built over a fabric *factory* step every local node's engine
//!   from the [`Cluster::remove_node`] / [`Cluster::admit`] caller —
//!   the degenerate single-process schedule of the same protocol;
//! * clusters on a pre-built transport that supports
//!   [`Fabric::begin_epoch`] (the multi-process `spindle-node` runtime
//!   over `spindle_net::TcpFabric`) run it from each node's predicate
//!   thread: a detector verdict or a peer's suspicion column wedges the
//!   node, the engine converges across processes, and each process
//!   installs the next view in place — fresh mirror, fresh sockets, a
//!   `HELLO` handshake at the new epoch.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use spindle_fabric::{EpochTransition, Fabric, FaultPlan, MemFabric, NodeId, Region, WriteOp};
use spindle_membership::reconfig::{self, Proposal, ReconfigError, PLANNED_BIT};
use spindle_membership::{SeqNum, Subgroup, SubgroupId, View, ViewBuilder};
use spindle_obs::{flightrec::phase as obs_phase, FlightEvent, Level, ObsPlane};
use spindle_sst::Sst;

use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::{DetectorConfig, HeartbeatState};
use crate::plan::{Plan, ReconfigCols};
use crate::proto::{QueueOutcome, SubgroupProto};
use crate::viewchange::{InstallBarrier, VcBoundary, VcStep, ViewChangeEngine};

/// How long an SST-driven transition may take to converge before the
/// driver gives up (a participant stalled forever — a harness bug or a
/// genuinely partitioned survivor).
const VC_DEADLINE: Duration = Duration::from_secs(60);

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
/// growing a cluster, whether the joiner is a fresh *process* on a
/// distributed transport (carry its [`endpoint`](AdmitRequest::endpoint))
/// or an in-process node on a factory-built cluster (no endpoint; pick
/// its subgroups).
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
    /// to every subgroup by [`reconfig::join_view`]). `None` means
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

    /// An in-process admission on a factory-built cluster: the new
    /// node enters exactly the listed subgroups.
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
    /// The cluster was started on a pre-built fabric
    /// ([`Cluster::start_distributed`]) whose transport supports neither
    /// a fabric factory nor [`Fabric::begin_epoch`], so epoch transitions
    /// are driven externally (restart with a new bootstrap config).
    StaticFabric,
    /// An endpoint-less [`Cluster::admit`] on a distributed,
    /// epoch-capable cluster: a new row means a new process, and
    /// admitting one needs the joiner's transport endpoint — pass an
    /// [`AdmitRequest`] with the endpoint set (driven by
    /// `spindle-node --join`) instead.
    JoinerAddressRequired,
    /// An [`AdmitRequest`] carrying an endpoint on a factory-built
    /// cluster, which joins in process ([`AdmitRequest::in_process`])
    /// instead.
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
            ViewChangeError::StaticFabric => {
                write!(f, "cluster fabric is static; view changes are external")
            }
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
                    "factory-built clusters join in process: admit without an endpoint"
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

/// Durable-mode configuration (Derecho's persistent atomic multicast,
/// paper footnote 2): every ordered delivery is appended to a per-node,
/// per-subgroup [`spindle_persist::DurableLog`] (segmented, named
/// `node<row>-g<subgroup>`), and each node advertises its persistence
/// frontier through the SST `persisted_num` counter (read it with
/// [`NodeHandle::persistence_frontier`]).
///
/// The fsync cadence is governed by
/// [`spindle_persist::PersistOptions::sync_policy`]: appends always land
/// in the log (and the frontier advances with them), while the policy
/// bounds how much of the newest tail an OS crash can lose. Epoch
/// boundaries (view-change drains) and clean shutdown always fsync.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Storage options: directory, sync policy, segment capacity, and
    /// the disk fault-injection handle.
    pub options: spindle_persist::PersistOptions,
}

impl PersistConfig {
    /// Durable logs under `dir`, fsync on every append batch
    /// ([`spindle_persist::SyncPolicy::Always`]).
    pub fn new(dir: impl Into<std::path::PathBuf>) -> PersistConfig {
        PersistConfig {
            options: spindle_persist::PersistOptions::new(dir),
        }
    }

    /// Durable logs with explicit [`spindle_persist::PersistOptions`].
    pub fn with_options(options: spindle_persist::PersistOptions) -> PersistConfig {
        PersistConfig { options }
    }

    /// The data directory holding this node's log segments.
    pub fn dir(&self) -> &std::path::Path {
        &self.options.dir
    }
}

/// A message recovered at the epoch cut, owed a resend in the next view:
/// `(sender row, subgroup, payload)`.
type ResendSet = Vec<(usize, SubgroupId, Vec<u8>)>;

/// A failure suspicion raised by SST heartbeat detection (see
/// [`Cluster::suspicions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suspicion {
    /// The node whose detector noticed the silence.
    pub reporter: usize,
    /// The node whose heartbeat counter stopped advancing.
    pub suspect: usize,
}

/// Everything that is replaced wholesale on a view change.
struct NodeInner<F: Fabric> {
    sst: Sst,
    protos: Vec<SubgroupProto>,
    /// `None` only for the closed stub of a remotely hosted row, which
    /// never runs a predicate thread and never posts.
    fabric: Option<F>,
    view: Arc<View>,
    alive: bool,
    /// The top-level heartbeat column of the current plan.
    heartbeat_col: spindle_sst::CounterCol,
    /// The reconfiguration column block of the current plan.
    reconfig: ReconfigCols,
    /// Rows this node pushes heartbeats to and monitors: members of at
    /// least one subgroup, excluding itself.
    hb_peers: Vec<usize>,
}

struct NodeShared<F: Fabric> {
    inner: Mutex<NodeInner<F>>,
    deliveries: Sender<Delivered>,
    /// Incremented while the predicate thread must stand still (view
    /// change in progress).
    wedged: AtomicBool,
    /// Set by the predicate thread while parked under a wedge.
    parked: AtomicBool,
    epoch: AtomicU64,
    /// Simulated crash: the predicate thread exits silently, heartbeats
    /// stop, membership does not know until a detector notices.
    killed: AtomicBool,
    /// Fault injection: while set, the predicate thread stands still (no
    /// predicate evaluation, no heartbeats) but application threads keep
    /// queueing — a slow/descheduled receiver.
    paused: AtomicBool,
    /// Where this node's detector reports suspicions.
    suspicion_tx: Sender<Suspicion>,
    /// Suspicion bits requested from outside the predicate thread (a
    /// planned-removal trigger on a distributed cluster). The thread
    /// drains them into its view-change engine.
    vc_trigger: AtomicU64,
    /// The joiner's endpoint ([`reconfig::JoinEndpoint`]) this node must
    /// carry into its next proposal (a sponsored distributed join,
    /// [`Cluster::admit`]); `None` when none. Consumed by the predicate
    /// thread when it starts the transition.
    join_intent: Mutex<Option<reconfig::JoinEndpoint>>,
    /// The report of the last predicate-thread-driven view change.
    vc_report: Mutex<Option<ViewChangeReport>>,
    /// View changes this node installed (predicate-thread driver).
    vc_count: AtomicU64,
    /// Cumulative wedge→install time of those view changes, in µs.
    vc_micros: AtomicU64,
    /// Durable logs, one per subgroup, opened lazily (empty unless the
    /// cluster was started persistent), each paired with the sync
    /// scheduler enforcing its fsync policy. Shared between the
    /// predicate thread and the view-change drain.
    plogs: Mutex<std::collections::HashMap<usize, PersistLog>>,
    /// The process-wide observability plane (adopted from the fabric or
    /// created by the cluster): the predicate thread and the view-change
    /// driver publish counters, latency samples and flight events here.
    obs: ObsPlane,
    /// Send timestamps awaiting their own delivery, keyed
    /// `(subgroup, app_index)` and carrying the sender rank for
    /// disambiguation — resolved by the predicate thread into the
    /// per-epoch delivery-latency histogram.
    send_stamps: Mutex<std::collections::HashMap<(usize, u64), (usize, Instant)>>,
}

/// Handle to one in-process node.
///
/// Generic over the transport; defaults to the in-process [`MemFabric`],
/// so `NodeHandle` without parameters names the common case.
pub struct NodeHandle<F: Fabric = MemFabric> {
    id: NodeId,
    shared: Arc<NodeShared<F>>,
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

    /// How many SST-driven view changes this node has installed from its
    /// own predicate thread (the distributed runtime's driver), and the
    /// cumulative wedge→install time they took. Always `(0, 0)` on
    /// factory-built clusters, whose transitions are driven — and timed —
    /// by [`Cluster::view_change_durations`] instead.
    pub fn view_change_stats(&self) -> (u64, Duration) {
        (
            self.shared.vc_count.load(Ordering::Acquire),
            Duration::from_micros(self.shared.vc_micros.load(Ordering::Acquire)),
        )
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
            return Ok(false);
        }
        let mut inner = self.shared.inner.lock();
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
        if p.my_sender_rank.is_none() {
            return Err(SendError::NotASender);
        }
        match p.try_queue_app(&sst, payload.len() as u32, Some(payload)) {
            QueueOutcome::Queued { app_index, .. } => {
                // Stamp the send for the delivery-latency histogram; the
                // predicate thread resolves it when the matching ordered
                // delivery (same subgroup, app index and sender rank)
                // comes back around.
                let rank = p.my_sender_rank.expect("sender checked above");
                self.shared
                    .send_stamps
                    .lock()
                    .insert((sg.0, app_index), (rank, Instant::now()));
                Ok(true)
            }
            QueueOutcome::WindowFull => Ok(false),
        }
    }

    /// This node's current receive frontier per subgroup of its view
    /// (−1 where nothing arrived, or for subgroups it is not a member
    /// of). A join sponsor snapshots these into the state transfer it
    /// sends the joiner — they mark where the old epoch's total order
    /// stands at snapshot time.
    pub fn receive_frontiers(&self) -> Vec<SeqNum> {
        let inner = self.shared.inner.lock();
        (0..inner.view.subgroups().len())
            .map(|g| {
                inner
                    .protos
                    .iter()
                    .find(|p| p.sg.0 == g)
                    .map_or(-1, |p| p.received_num)
            })
            .collect()
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
        Some(
            p.member_rows
                .iter()
                .map(|&row| sst.counter(p.cols.pers, row))
                .min()
                .unwrap_or(-1),
        )
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
/// the in-process [`MemFabric`]. [`Cluster::start_with_fabric_factory`]
/// runs all nodes in this process over any transport (e.g. a loopback TCP
/// group); [`Cluster::start_distributed`] runs only a subset of rows in
/// this process over a pre-built fabric — the multi-process deployment
/// mode the `spindle-node` binary uses.
pub struct Cluster<F: Fabric = MemFabric> {
    nodes: Vec<NodeHandle<F>>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    fabric: F,
    /// Rebuilds the fabric for a new view (`nodes`, `region_words`,
    /// shared fault plan). `None` for pre-built fabrics
    /// ([`Cluster::start_distributed`]), whose view changes are external.
    factory: Option<FabricFactory<F>>,
    /// Rows hosted (with a live predicate thread) in this process.
    local_rows: std::collections::BTreeSet<usize>,
    view: Arc<View>,
    cfg: SpindleConfig,
    epoch: u64,
    detector: Option<DetectorConfig>,
    persist: Option<PersistConfig>,
    suspicion_tx: Sender<Suspicion>,
    suspicion_rx: Receiver<Suspicion>,
    /// Fault switches shared with every epoch's fabric (node faults are
    /// keyed by node id, so they survive view changes).
    faults: FaultPlan,
    /// Nodes whose heartbeat pushes are currently suppressed; drop ranges
    /// are re-derived from the fresh layout after every view change.
    hb_dropped: std::collections::BTreeSet<usize>,
    /// Nodes for which this cluster has a drop range registered in
    /// `faults` right now (cleared and rebuilt by `apply_heartbeat_drops`
    /// without touching externally registered ranges on other nodes).
    hb_registered: std::collections::BTreeSet<usize>,
    /// Wedge→install durations of every view change this cluster drove
    /// (for the distributed driver, see
    /// [`NodeHandle::view_change_stats`]).
    vc_durations: Vec<Duration>,
    /// Fault injection: nodes whose next view-change engine halts at the
    /// armed [`VcBoundary`], emulating a crash at exactly that protocol
    /// point ([`Cluster::arm_vc_crash`]). Consumed when the engine is
    /// built.
    vc_crash: Mutex<std::collections::HashMap<usize, VcBoundary>>,
    /// Every view this in-process cluster has installed, in order
    /// (starting with the initial one). A takeover transition can chain
    /// two installs inside one `remove_node` call; harnesses need the
    /// intermediate epoch's membership too.
    epoch_views: Vec<Arc<View>>,
    /// The observability plane every local node publishes into —
    /// adopted from the fabric when the transport owns one
    /// ([`Fabric::obs`]), created fresh otherwise.
    obs: ObsPlane,
}

/// Builds a fabric for one epoch: `(nodes, region_words, faults)`.
type FabricFactory<F> = Arc<dyn Fn(usize, usize, FaultPlan) -> F + Send + Sync>;

impl Cluster<MemFabric> {
    /// Builds the SST plan for `view`, allocates the fabric, and spawns one
    /// predicate thread per node.
    pub fn start(view: View, cfg: SpindleConfig) -> Cluster {
        Cluster::start_inner(view, cfg, None, None)
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
        Cluster::start_inner(view, cfg, Some(detector), None)
    }

    /// Like [`Cluster::start`], additionally running Derecho's *persistent*
    /// atomic multicast (paper footnote 2): every ordered delivery is
    /// appended to a checksummed per-node log under `persist.dir` before
    /// the node advances its SST persistence frontier.
    ///
    /// Requires [`DeliveryTiming::Ordered`] (the default); unordered
    /// deliveries carry no stable sequence number to log.
    pub fn start_persistent(view: View, cfg: SpindleConfig, persist: PersistConfig) -> Cluster {
        assert_eq!(
            cfg.delivery_timing,
            DeliveryTiming::Ordered,
            "persistent multicast requires ordered delivery"
        );
        Cluster::start_inner(view, cfg, None, Some(persist))
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
        Cluster::start_inner(view, cfg, detector, persist)
    }

    fn start_inner(
        view: View,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
    ) -> Cluster {
        Cluster::start_with_fabric_factory(view, cfg, detector, persist, MemFabric::with_faults)
    }
}

impl<F: Fabric> Cluster<F> {
    /// The generic constructor over any transport: builds the SST plan for
    /// `view`, obtains the epoch's fabric from `factory`
    /// (`(nodes, region_words, shared fault plan)`), and spawns one
    /// predicate thread per node — all in this process. The factory is
    /// retained and re-invoked on every view change (§2.3: memory is
    /// registered per view), so membership changes work on any transport
    /// that can be rebuilt in-process.
    pub fn start_with_fabric_factory(
        view: View,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
        factory: impl Fn(usize, usize, FaultPlan) -> F + Send + Sync + 'static,
    ) -> Cluster<F> {
        let view = Arc::new(view);
        let faults = FaultPlan::new();
        let factory: FabricFactory<F> = Arc::new(factory);
        let plan = Plan::build(&view, true);
        let fabric = factory(
            view.members().len(),
            plan.layout.region_words(),
            faults.clone(),
        );
        let local: std::collections::BTreeSet<usize> = view.members().iter().map(|m| m.0).collect();
        Cluster::assemble(
            view,
            cfg,
            detector,
            persist,
            fabric,
            Some(factory),
            local,
            faults,
            &plan,
        )
    }

    /// The multi-process deployment mode: hosts only `local_rows` of
    /// `view` in this process, over a pre-built `fabric` (e.g. a
    /// `spindle_net::TcpFabric` produced by the bootstrap handshake).
    /// Handles for remote rows exist but are closed (sends return
    /// [`SendError::Closed`], deliveries never arrive).
    ///
    /// If the fabric supports [`Fabric::begin_epoch`] (the TCP fabric
    /// does), each local predicate thread drives the SST view-change
    /// engine itself: a detector verdict, a peer's suspicion column, or a
    /// [`Cluster::remove_node`] trigger reconfigures the cluster in place
    /// — fresh mirror, fresh connections at the new epoch. On transports
    /// without that support (a pre-built [`MemFabric`]), view changes are
    /// rejected with [`ViewChangeError::StaticFabric`].
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
        let faults = fabric.faults().clone();
        for &row in local_rows {
            assert!(row < view.members().len(), "local row {row} out of range");
            assert_eq!(
                fabric.region_arc(NodeId(row)).len(),
                plan.layout.region_words(),
                "fabric region size does not match the view's SST layout"
            );
        }
        let local = local_rows.iter().copied().collect();
        Cluster::assemble(
            view, cfg, detector, persist, fabric, None, local, faults, &plan,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        view: Arc<View>,
        cfg: SpindleConfig,
        detector: Option<DetectorConfig>,
        persist: Option<PersistConfig>,
        fabric: F,
        factory: Option<FabricFactory<F>>,
        local_rows: std::collections::BTreeSet<usize>,
        faults: FaultPlan,
        plan: &Plan,
    ) -> Cluster<F> {
        let epoch = view.id();
        let (suspicion_tx, suspicion_rx) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let obs = fabric.obs().unwrap_or_default();
        let mut cluster = Cluster {
            nodes: Vec::new(),
            threads: Vec::new(),
            stop,
            fabric,
            factory,
            local_rows,
            view: Arc::clone(&view),
            cfg,
            epoch,
            detector,
            persist,
            suspicion_tx,
            suspicion_rx,
            faults,
            hb_dropped: std::collections::BTreeSet::new(),
            hb_registered: std::collections::BTreeSet::new(),
            vc_durations: Vec::new(),
            vc_crash: Mutex::new(std::collections::HashMap::new()),
            epoch_views: vec![Arc::clone(&view)],
            obs,
        };
        for row in 0..view.members().len() {
            if cluster.local_rows.contains(&row) {
                let (shared, rx) = build_node_shared(
                    &view,
                    epoch,
                    row,
                    &cluster.fabric,
                    plan,
                    &cluster.suspicion_tx,
                    &cluster.obs,
                );
                epoch_gauge(&cluster.obs, row).set(epoch);
                cluster.spawn_node(row, shared, rx);
            } else {
                let (shared, rx) =
                    build_remote_stub(&view, epoch, row, plan, &cluster.suspicion_tx, &cluster.obs);
                cluster.push_handle(row, shared, rx);
            }
        }
        cluster
    }

    /// Adds the handle for one (local or remote) row without a thread.
    fn push_handle(&mut self, row: usize, shared: Arc<NodeShared<F>>, rx: Receiver<Delivered>) {
        self.nodes.push(NodeHandle {
            id: NodeId(row),
            shared,
            rx,
            stop: Arc::clone(&self.stop),
        });
    }

    /// Creates the handle and predicate thread for one node.
    fn spawn_node(&mut self, row: usize, shared: Arc<NodeShared<F>>, rx: Receiver<Delivered>) {
        self.push_handle(row, Arc::clone(&shared), rx);
        self.local_rows.insert(row);
        // On a pre-built transport that can transition epochs in place,
        // each predicate thread drives the SST view-change engine itself
        // (the multi-process deployment); factory-built clusters drive it
        // from the remove_node/admit caller instead.
        let vc_enabled = self.factory.is_none() && self.fabric.supports_epoch_advance();
        let th = {
            let cfg = self.cfg.clone();
            let det = self.detector.clone();
            let persist = self.persist.clone();
            let stop = Arc::clone(&self.stop);
            std::thread::Builder::new()
                .name(format!("spindle-pred-{row}"))
                .spawn(move || predicate_thread(row, shared, cfg, det, persist, stop, vc_enabled))
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
        self.nodes[node]
            .shared
            .killed
            .store(true, Ordering::Release);
    }

    /// Fault injection: `node`'s *next* view-change engine halts —
    /// exactly as if its process crashed — immediately after the writes
    /// of `boundary` are posted. The survivors must then complete the
    /// transition without it (the leader-handoff protocol when `node`
    /// was the proposer). Consumed by the next transition; in-process
    /// (factory-built) clusters only — distributed processes arm the
    /// same fault through the `SPINDLE_VC_CRASH_AT` environment
    /// variable.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn arm_vc_crash(&self, node: usize, boundary: VcBoundary) {
        assert!(node < self.nodes.len(), "node {node} out of range");
        self.vc_crash.lock().insert(node, boundary);
    }

    /// Fault injection: stalls `node`'s predicate thread (no predicate
    /// evaluation, no acknowledgments, no heartbeats) until
    /// [`Cluster::resume_node`]. Application threads keep queueing, so ring
    /// windows fill and cluster-wide delivery stalls on the missing
    /// acknowledgments — the slow-receiver situation of §4.1.1. With a
    /// detector configured, a pause longer than its timeout is
    /// indistinguishable from a crash and draws a suspicion.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn pause_node(&self, node: usize) {
        self.nodes[node]
            .shared
            .paused
            .store(true, Ordering::Release);
    }

    /// Ends a [`Cluster::pause_node`] stall.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn resume_node(&self, node: usize) {
        self.nodes[node]
            .shared
            .paused
            .store(false, Ordering::Release);
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
    /// *looks* dead to every detector. The suppression survives view
    /// changes (drop ranges are re-derived from each new layout).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_drop_heartbeats(&mut self, node: usize, on: bool) {
        if on {
            self.hb_dropped.insert(node);
        } else {
            self.hb_dropped.remove(&node);
        }
        self.apply_heartbeat_drops();
    }

    /// Re-registers the heartbeat drop ranges against the current layout.
    /// Only ranges this cluster registered (tracked in `hb_registered`)
    /// are cleared, so drop ranges installed directly through
    /// [`Cluster::faults`] on *other* nodes are left alone. Removed and
    /// crashed nodes are skipped — their inner state still describes the
    /// old epoch's layout, and they post nothing anyway.
    fn apply_heartbeat_drops(&mut self) {
        for &row in &self.hb_registered {
            self.faults.clear_write_drops(NodeId(row));
        }
        self.hb_registered.clear();
        for &row in &self.hb_dropped {
            let inner = self.nodes[row].shared.inner.lock();
            if !inner.alive {
                continue;
            }
            let range = inner.sst.own_counter_range(inner.heartbeat_col);
            drop(inner);
            self.faults.drop_writes_in(NodeId(row), range);
            self.hb_registered.insert(row);
        }
    }

    /// The fault-injection switches shared with the fabric of every epoch.
    /// Prefer the named methods ([`Cluster::isolate_node`],
    /// [`Cluster::throttle_node`], ...) where one fits. Caveat: drop
    /// ranges on nodes managed by [`Cluster::set_drop_heartbeats`] are
    /// rebuilt on every view change; direct
    /// [`FaultPlan::drop_writes_in`] registrations on *those* nodes are
    /// cleared in the process (other nodes' are preserved).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Wedge→install duration of every view change this cluster's caller
    /// drove ([`Cluster::remove_node`] / [`Cluster::admit`]), in
    /// order. Distributed clusters report per node instead
    /// ([`NodeHandle::view_change_stats`]).
    pub fn view_change_durations(&self) -> &[Duration] {
        &self.vc_durations
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

    /// The current view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The live observability plane every local row publishes into:
    /// per-epoch delivery counters and latency histograms, view-change
    /// phase durations, and the flight-recorder ring. Adopted from the
    /// transport when it owns one ([`Fabric::obs`]), created fresh
    /// otherwise.
    pub fn obs(&self) -> &ObsPlane {
        &self.obs
    }

    /// Every view this in-process cluster has installed, oldest first
    /// (the initial view included). Unlike [`Cluster::view`], this also
    /// exposes the *intermediate* epoch of a chained takeover transition
    /// — a verbatim-adopted proposal installs a view that still carries
    /// the dead leader, and the residual eviction installs the next one
    /// within the same `remove_node` call.
    pub fn epoch_views(&self) -> &[Arc<View>] {
        &self.epoch_views
    }

    /// The underlying fabric of the current epoch (write counters are
    /// useful in tests).
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// The rows hosted (with a live predicate thread) in this process —
    /// all rows except under [`Cluster::start_distributed`].
    pub fn local_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.local_rows.iter().copied()
    }

    /// Executes a view change that removes `failed` (crash or planned
    /// leave): wedge, SST-driven ragged-trim agreement, final deliveries,
    /// new view install, and resend of surviving senders' undelivered
    /// messages (§2.1). Nodes that crashed silently before the call leave
    /// the view in the same transition.
    ///
    /// # Errors
    ///
    /// Returns a [`ViewChangeError`] if the node is unknown or removal
    /// would leave an empty subgroup / a singleton cluster — checked (and
    /// reported) even when the transport cannot reconfigure at all
    /// ([`ViewChangeError::StaticFabric`]). The cluster is unchanged on
    /// error.
    pub fn remove_node(&mut self, failed: usize) -> Result<ViewChangeReport, ViewChangeError> {
        let old_view = Arc::clone(&self.view);
        if !old_view.contains(NodeId(failed)) || !self.alive(failed) {
            return Err(ViewChangeError::UnknownNode(failed));
        }
        // The failed node and every silently crashed one leave together.
        let mut gone: BTreeSet<usize> = old_view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| self.alive(m) && !self.participating(m))
            .collect();
        gone.insert(failed);
        // Validate the next view before touching anything — argument
        // errors surface even on a static fabric.
        reconfig::removal_view(&old_view, &gone)?;
        // removal_view counts top-level members; rows removed in earlier
        // epochs are still members (ids are stable) but cannot form a
        // quorum. The transition needs two *live* survivors.
        let live_survivors = old_view
            .members()
            .iter()
            .filter(|m| !gone.contains(&m.0) && self.participating(m.0))
            .count();
        if live_survivors < 2 {
            return Err(ViewChangeError::TooFewSurvivors);
        }
        // Rows still in a subgroup are suspected by the engine; removing
        // only subgroup-less zombies (e.g. the second removal after a
        // crash pair left one view change earlier) is a *planned*
        // transition — there is no failure left to agree on.
        let active_gone: Vec<usize> = gone
            .iter()
            .copied()
            .filter(|&m| !old_view.subgroups_of(NodeId(m)).is_empty())
            .collect();
        let trigger = if active_gone.is_empty() {
            PLANNED_BIT
        } else {
            reconfig::bits_of(active_gone)
        };
        if self.factory.is_none() {
            if self.fabric.supports_epoch_advance() {
                return self.trigger_distributed(failed, trigger, &gone);
            }
            return Err(ViewChangeError::StaticFabric);
        }

        let started = Instant::now();
        // 1. Wedge everyone and wait for the predicate threads to park.
        self.wedge_and_park();

        // 2-3. SST-driven agreement: every local node's engine converges
        // on the leader's proposal, delivers exactly through the cut, and
        // acks; the survivors' undelivered messages come back for resend.
        let (proposal, resend) = match self.run_engines(trigger) {
            Ok(out) => out,
            Err(e) => {
                // Restore liveness: a failed agreement must not leave the
                // cluster wedged forever.
                for n in &self.nodes {
                    n.shared.wedged.store(false, Ordering::Release);
                }
                return Err(e);
            }
        };
        // In-process, the next view removes the validated `gone` set
        // (it may contain subgroup-less zombies the planned proposal
        // does not name) *plus* every row the agreed proposal evicts: a
        // fresh takeover trim after a mid-transition leader crash names
        // the crashed leader too, which was still participating when
        // `gone` was collected. (A proposal adopted *verbatim* may name
        // fewer rows than actually died — the residual sweep below
        // catches those.)
        let mut gone_all = gone.clone();
        for m in old_view.members() {
            if proposal.failed & (1 << m.0) != 0 {
                gone_all.insert(m.0);
            }
        }
        let next_view = match reconfig::removal_view(&old_view, &gone_all) {
            Ok(v) => Arc::new(v),
            Err(e) => {
                for n in &self.nodes {
                    n.shared.wedged.store(false, Ordering::Release);
                }
                return Err(e.into());
            }
        };

        // 4. Install the new view: fresh layout, fresh fabric (§2.3:
        // memory is registered per view), fresh protocol state. Only the
        // explicitly removed node's handle closes here; silently crashed
        // rows leave every subgroup too but keep their (dead-threaded)
        // handles until their own removal is requested.
        self.install_view(Arc::clone(&next_view), &BTreeSet::from([failed]));

        // 5. Unwedge and resend the recovered messages in the new epoch.
        let resent = self.unwedge_and_resend(resend);
        self.vc_durations.push(started.elapsed());
        let report = ViewChangeReport {
            epoch: proposal.vid,
            cuts: proposal.cuts,
            resent,
        };
        // A proposal adopted *verbatim* after a mid-transition crash may
        // keep a dead row as a member (the takeover rule never edits an
        // acked trim). Its residual suspicion drives one more transition
        // immediately — the in-process analogue of a distributed
        // survivor reseeding its trigger from leftover suspicion bits.
        let residual: Vec<usize> = self
            .view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| {
                !self.view.subgroups_of(NodeId(m)).is_empty()
                    && self.alive(m)
                    && !self.participating(m)
            })
            .collect();
        if let Some(&r) = residual.first() {
            if let Ok(follow_up) = self.remove_node(r) {
                return Ok(follow_up);
            }
        }
        Ok(report)
    }

    /// Raises the suspicion on a distributed cluster's lowest live local
    /// row and waits for its predicate thread to drive the SST engine
    /// through the install — the planned-removal trigger of the
    /// multi-process runtime.
    fn trigger_distributed(
        &mut self,
        failed: usize,
        bits: u64,
        gone: &BTreeSet<usize>,
    ) -> Result<ViewChangeReport, ViewChangeError> {
        let old_epoch = self.epoch;
        let row = self
            .local_rows
            .iter()
            .copied()
            .find(|&r| self.participating(r) && !gone.contains(&r))
            .ok_or(ViewChangeError::TooFewSurvivors)?;
        self.nodes[row]
            .shared
            .vc_trigger
            .fetch_or(bits, Ordering::AcqRel);
        let report = self.await_distributed_report(row, old_epoch)?;
        // Adopt the installed view cluster-side.
        let inner = self.nodes[row].shared.inner.lock();
        self.view = Arc::clone(&inner.view);
        self.epoch = inner.view.id();
        drop(inner);
        let mut inner = self.nodes[failed].shared.inner.lock();
        inner.alive = false;
        drop(inner);
        Ok(report)
    }

    /// Waits for `row`'s predicate thread to finish a transition past
    /// `old_epoch` and takes its report. Waits for the *report*, not the
    /// epoch store: the predicate thread publishes the epoch at install
    /// but writes the report only after the install barrier and resend
    /// requeue complete. A leftover report from an earlier
    /// (detector-driven) transition is recognizable by its stale epoch
    /// and skipped.
    fn await_distributed_report(
        &self,
        row: usize,
        old_epoch: u64,
    ) -> Result<ViewChangeReport, ViewChangeError> {
        let deadline = Instant::now() + VC_DEADLINE;
        loop {
            {
                let mut slot = self.nodes[row].shared.vc_report.lock();
                if slot.as_ref().is_some_and(|r| r.epoch > old_epoch) {
                    return Ok(slot.take().expect("checked above"));
                }
            }
            if Instant::now() > deadline {
                return Err(ViewChangeError::Stalled);
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Admits one joiner into the cluster — the single entry point for
    /// growth (§2.1 treats joins and removals as the same epoch
    /// transition). The [`AdmitRequest`] decides the mechanism:
    ///
    /// * **With an endpoint** ([`AdmitRequest::remote`]): a fresh
    ///   *process* joins a distributed cluster. The sponsor — which must
    ///   host the leader row — publishes the joiner's endpoint through
    ///   its next planned proposal, every survivor derives the identical
    ///   grown view ([`reconfig::join_view`]) and extends its transport
    ///   in place ([`Fabric::begin_epoch`] with a
    ///   [`EpochTransition::joined`] entry), and the install barrier
    ///   holds application traffic until the joiner's own mirror is
    ///   connected and caught up. The joiner's handle in *this* process
    ///   is a closed remote stub (the real row runs in the joining
    ///   process).
    /// * **Without** ([`AdmitRequest::in_process`]): a new in-process
    ///   node joins a factory-built cluster, entering the requested
    ///   subgroups; its live handle is at [`Cluster::node`].
    ///
    /// Returns the joiner's row id and the transition report.
    ///
    /// # Errors
    ///
    /// [`ViewChangeError::UnknownSubgroup`] if the request names a
    /// subgroup outside the view, and
    /// [`ViewChangeError::BadJoinAddress`] for endpoints that cannot
    /// travel in a proposal or when the row cap is reached — argument
    /// validation surfaces first, on any transport, mirroring
    /// [`Cluster::remove_node`]. Then, by transport:
    /// [`ViewChangeError::InProcessJoin`] for an endpoint on a
    /// factory-built cluster, [`ViewChangeError::JoinerAddressRequired`]
    /// for a missing endpoint on a distributed epoch-capable cluster,
    /// [`ViewChangeError::StaticFabric`] on transports without
    /// [`Fabric::begin_epoch`], [`ViewChangeError::NotLeader`] when this
    /// process does not host the leader row, and
    /// [`ViewChangeError::Stalled`] when the transition does not
    /// converge (or a concurrent failure-driven transition won the epoch
    /// without the join — safe to retry).
    pub fn admit(
        &mut self,
        req: AdmitRequest,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        // Argument validation first — even on a static fabric.
        if let Some(joins) = &req.subgroups {
            for &(g, _) in joins {
                if g.0 >= self.view.subgroups().len() {
                    return Err(ViewChangeError::UnknownSubgroup(g));
                }
            }
        }
        match &req.endpoint {
            Some(addr) => {
                let join = parse_join_addr(addr, req.as_sender)?;
                self.admit_remote(join)
            }
            None => self.admit_in_process(&req),
        }
    }

    /// The distributed half of [`Cluster::admit`]: arms the leader's
    /// join intent and drives the SST transition through
    /// [`Cluster::await_distributed_report`].
    fn admit_remote(
        &mut self,
        join: reconfig::JoinEndpoint,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        // In a distributed deployment the predicate threads install
        // detector-driven transitions autonomously, so the cluster-side
        // view may be epochs behind by the time a join is sponsored.
        // Re-adopt the live view first and drop any leftover report of
        // such a transition: leadership, the new row id, and the
        // report-freshness floor below must all be judged against the
        // real current epoch, or a stale removal report is mistaken for
        // this join's outcome and every retry livelocks on `Stalled`.
        if self.factory.is_none() {
            if let Some(&local) = self.local_rows.iter().next() {
                let inner = self.nodes[local].shared.inner.lock();
                self.view = Arc::clone(&inner.view);
                self.epoch = inner.view.id();
                drop(inner);
                let mut slot = self.nodes[local].shared.vc_report.lock();
                if slot.as_ref().is_some_and(|r| r.epoch <= self.epoch) {
                    slot.take();
                }
            }
        }
        let old_view = Arc::clone(&self.view);
        let old_epoch = self.epoch;
        let new_row = old_view.members().len();
        if new_row > reconfig::MAX_BITMAP_ROW {
            return Err(ViewChangeError::BadJoinAddress(format!(
                "cluster is at the {}-row cap of the suspicion bitmap",
                reconfig::MAX_BITMAP_ROW + 1
            )));
        }
        if self.factory.is_some() {
            return Err(ViewChangeError::InProcessJoin);
        }
        if !self.fabric.supports_epoch_advance() {
            return Err(ViewChangeError::StaticFabric);
        }
        // Only the leader's proposal carries the join intent, so the
        // sponsor must host the leader row.
        let leader = self.leader_row().ok_or(ViewChangeError::TooFewSurvivors)?;
        if !self.local_rows.contains(&leader) {
            return Err(ViewChangeError::NotLeader { leader });
        }
        *self.nodes[leader].shared.join_intent.lock() = Some(join);
        self.nodes[leader]
            .shared
            .vc_trigger
            .fetch_or(PLANNED_BIT, Ordering::AcqRel);
        let outcome = self.await_distributed_report(leader, old_epoch);
        // Whatever happened, the intent must not stay armed: a leftover
        // endpoint would ride the *next* unrelated transition's proposal
        // and install a row whose process long gave up. The same goes
        // for a still-pending planned trigger on the failure paths —
        // left set, it would drive an empty planned transition after
        // this admit already gave up.
        self.nodes[leader].shared.join_intent.lock().take();
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                self.nodes[leader]
                    .shared
                    .vc_trigger
                    .fetch_and(!PLANNED_BIT, Ordering::AcqRel);
                return Err(e);
            }
        };
        // Adopt the installed view cluster-side.
        let inner = self.nodes[leader].shared.inner.lock();
        self.view = Arc::clone(&inner.view);
        self.epoch = inner.view.id();
        drop(inner);
        if !self.view.contains(NodeId(new_row)) {
            // A concurrent failure-driven transition won the epoch
            // without the join (e.g. the sponsor lost leadership to a
            // suspicion mid-flight). Nothing was corrupted; the caller
            // may retry against the new view — but our own trigger must
            // not stay pending, or it fires an epoch that admits nobody.
            self.nodes[leader]
                .shared
                .vc_trigger
                .fetch_and(!PLANNED_BIT, Ordering::AcqRel);
            return Err(ViewChangeError::Stalled);
        }
        // The joiner runs remotely; keep row indexing uniform with a
        // closed stub handle, exactly as start_distributed does.
        let plan = Plan::build(&self.view, true);
        let (shared, rx) = build_remote_stub(
            &self.view,
            self.epoch,
            new_row,
            &plan,
            &self.suspicion_tx,
            &self.obs,
        );
        self.push_handle(new_row, shared, rx);
        Ok((new_row, report))
    }

    /// The current deterministic leader row (lowest live active row) —
    /// the only row whose proposal can carry a join intent, so a join
    /// sponsor checks this *before* doing any work and redirects the
    /// joiner when it does not host it. Rows hosted by *other* processes
    /// are closed stubs here — the view is authoritative for them; the
    /// participation check only applies to rows this process hosts.
    pub fn leader_row(&self) -> Option<usize> {
        self.view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| !self.view.subgroups_of(NodeId(m)).is_empty())
            .filter(|&m| !self.local_rows.contains(&m) || self.participating(m))
            .min()
    }

    /// Steps every local participating node's [`ViewChangeEngine`] round
    /// robin until all converge: the trigger bits seed the lowest live
    /// row, suspicion spreads through the SST, the deterministic leader
    /// proposes, every survivor delivers through the cut (this is where
    /// [`Cluster::drain_through`] runs) and acks, and the engines finish.
    /// Returns the agreed proposal and the collected resend set.
    fn run_engines(&self, trigger_bits: u64) -> Result<(Proposal, ResendSet), ViewChangeError> {
        let view = Arc::clone(&self.view);
        // Survivor engines only: a node in the trigger set may be
        // partitioned (an isolated node can neither see the proposal nor
        // push acks), and its eviction is authoritative from the
        // survivors' side — exactly as in the distributed runtime, where
        // the failed process runs nothing at all.
        let rows: Vec<usize> = view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| {
                self.local_rows.contains(&m)
                    && self.participating(m)
                    && trigger_bits & (1 << m) == 0
            })
            .collect();
        let trigger_row = *rows.first().expect("a live row drives the transition");
        let mut engines: Vec<(usize, ViewChangeEngine, VcStep)> = rows
            .iter()
            .map(|&row| {
                let cols = self.nodes[row].shared.inner.lock().reconfig.clone();
                let bits = if row == trigger_row { trigger_bits } else { 0 };
                let mut engine = ViewChangeEngine::new(Arc::clone(&view), cols, row, bits);
                engine.set_obs(self.obs.clone());
                if let Some(b) = self.vc_crash.lock().remove(&row) {
                    engine.arm_crash(b);
                }
                (row, engine, VcStep::Pending)
            })
            .collect();
        let deadline = Instant::now() + VC_DEADLINE;
        let mut proposal: Option<Proposal> = None;
        let mut drained = false;
        let mut resend = Vec::new();
        // Rows that hit an armed crash boundary mid-transition. The
        // driver plays detector for them — each iteration feeds the bits
        // to every live engine, the way distributed survivors learn of a
        // mid-transition death from their heartbeat detectors.
        let mut crashed_bits: u64 = 0;
        loop {
            let mut all_finished = true;
            for (row, engine, state) in &mut engines {
                if matches!(
                    state,
                    VcStep::Install(_) | VcStep::Evicted | VcStep::Crashed
                ) {
                    continue;
                }
                engine.suspect(crashed_bits);
                let (sst, fabric, frontiers, rc) = {
                    let inner = self.nodes[*row].shared.inner.lock();
                    if !inner.alive || self.nodes[*row].shared.killed.load(Ordering::Acquire) {
                        // Crashed mid-transition: it stops participating;
                        // the survivors' quorum carries on without it only
                        // if it is in the failed set — otherwise we stall
                        // and report it.
                        *state = VcStep::Evicted;
                        continue;
                    }
                    let frontiers: Vec<SeqNum> = (0..view.subgroups().len())
                        .map(|g| {
                            inner
                                .protos
                                .iter()
                                .find(|p| p.sg.0 == g)
                                .map_or(-1, |p| p.received_num)
                        })
                        .collect();
                    (
                        inner.sst.clone(),
                        inner.fabric.clone().expect("live node has a fabric"),
                        frontiers,
                        inner.reconfig.clone(),
                    )
                };
                let peers: Vec<usize> = view
                    .members()
                    .iter()
                    .map(|m| m.0)
                    .filter(|&p| p != *row)
                    .collect();
                let mut post = |range: std::ops::Range<usize>| {
                    for &p in &peers {
                        fabric.post(NodeId(*row), &WriteOp::new(NodeId(p), range.clone()));
                    }
                };
                match engine.step(&sst, &frontiers, &mut post) {
                    VcStep::Pending | VcStep::Done => all_finished = false,
                    VcStep::Deliver(p) => {
                        proposal.get_or_insert(p.clone());
                        *state = VcStep::Deliver(p);
                        all_finished = false;
                    }
                    VcStep::Crashed => {
                        // The armed boundary fired: from here the node is
                        // a silent corpse — no heartbeats, no engine
                        // steps; the survivors take over.
                        crashed_bits |= 1 << *row;
                        self.nodes[*row]
                            .shared
                            .killed
                            .store(true, Ordering::Release);
                        *state = VcStep::Crashed;
                    }
                    s @ VcStep::Install(_) => {
                        // Mirror the install barrier's first push: once
                        // this engine stops stepping, its `installed`
                        // flag is what lets a late takeover leader close
                        // its quorum (exact-tag acks alone would wait on
                        // this row forever).
                        if let VcStep::Install(p) = &s {
                            sst.set_counter(rc.installed, p.vid as i64);
                            post(sst.layout().abs_range(*row, rc.installed.word_range()));
                        }
                        *state = s;
                    }
                    VcStep::Evicted => *state = VcStep::Evicted,
                }
            }
            // Once every engine holds the proposal (or is out), run the
            // cluster-wide drain exactly once, then release the acks.
            if !drained {
                let ready = engines.iter().all(|(_, _, s)| {
                    matches!(s, VcStep::Deliver(_) | VcStep::Evicted | VcStep::Crashed)
                });
                if ready {
                    let Some(p) = proposal.as_ref() else {
                        // Every engine crashed or was evicted before any
                        // adopted a proposal: no quorum remains.
                        return Err(ViewChangeError::Stalled);
                    };
                    let survivors: Vec<NodeId> = view
                        .members()
                        .iter()
                        .copied()
                        .filter(|m| {
                            p.failed & (1 << m.0) == 0
                                && self.participating(m.0)
                                && !view.subgroups_of(*m).is_empty()
                        })
                        .collect();
                    resend = self.drain_through(&survivors, &p.cuts);
                    for (_, engine, state) in &mut engines {
                        if matches!(state, VcStep::Deliver(_)) {
                            engine.mark_delivered();
                        }
                    }
                    drained = true;
                }
            }
            if drained && all_finished {
                return Ok((proposal.expect("converged with a proposal"), resend));
            }
            if Instant::now() > deadline {
                return Err(ViewChangeError::Stalled);
            }
            std::thread::yield_now();
        }
    }

    /// The in-process half of [`Cluster::admit`] (§2.1 "node joins"):
    /// the epoch transition wedges the old view, trims and delivers
    /// exactly as for a removal, then installs a view whose top-level
    /// membership gains one node, appended to the members (and
    /// optionally senders) of the requested subgroups. The joiner's
    /// handle delivers from the new epoch onward (virtual synchrony:
    /// the joiner observes no old-epoch traffic — higher layers such as
    /// the DDS volatile store handle catch-up).
    fn admit_in_process(
        &mut self,
        req: &AdmitRequest,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        let old_view = Arc::clone(&self.view);
        if self.factory.is_none() {
            // A new row means a new process on a pre-built transport. An
            // epoch-capable fabric *can* grow — but the request must
            // then carry the joiner's endpoint; a truly static fabric
            // cannot reconfigure at all. Either way admit's argument
            // errors surface first, mirroring remove_node's validation
            // ordering.
            if self.fabric.supports_epoch_advance() {
                return Err(ViewChangeError::JoinerAddressRequired);
            }
            return Err(ViewChangeError::StaticFabric);
        }
        let joins: Vec<(SubgroupId, bool)> = match &req.subgroups {
            Some(joins) => joins.clone(),
            None => (0..old_view.subgroups().len())
                .map(|g| (SubgroupId(g), req.as_sender))
                .collect(),
        };
        let started = Instant::now();
        let new_row = self.nodes.len();
        let mut next_subgroups: Vec<Subgroup> = old_view.subgroups().to_vec();
        for &(g, as_sender) in &joins {
            let sg = &mut next_subgroups[g.0];
            sg.members.push(NodeId(new_row));
            if as_sender {
                sg.senders.push(NodeId(new_row));
            }
        }

        // Same SST-driven epoch transition as removal, triggered as a
        // *planned* reconfiguration: wedge, trim agreement, drain. Nodes
        // that crashed silently are excluded from the trim quorum (but
        // stay members until a removal evicts them, as before).
        self.wedge_and_park();
        let killed: Vec<usize> = old_view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| self.alive(m) && !self.participating(m))
            .collect();
        let trigger = PLANNED_BIT | reconfig::bits_of(killed);
        let (proposal, resend) = match self.run_engines(trigger) {
            Ok(out) => out,
            Err(e) => {
                for n in &self.nodes {
                    n.shared.wedged.store(false, Ordering::Release);
                }
                return Err(e);
            }
        };

        let new_epoch = proposal.vid;
        let mut members = old_view.members().to_vec();
        members.push(NodeId(new_row));
        let next_view = Arc::new(
            ViewBuilder::with_members(new_epoch, members)
                .id(new_epoch)
                .subgroups_from(next_subgroups)
                .build()
                .expect("validated next view"),
        );
        self.install_view(Arc::clone(&next_view), &BTreeSet::new());

        // Bring up the joiner against the freshly installed fabric, then
        // unwedge everyone together.
        let (shared, rx) = build_node_shared(
            &next_view,
            new_epoch,
            new_row,
            &self.fabric,
            &Plan::build(&next_view, true),
            &self.suspicion_tx,
            &self.obs,
        );
        self.spawn_node(new_row, shared, rx);
        let resent = self.unwedge_and_resend(resend);
        self.vc_durations.push(started.elapsed());
        Ok((
            new_row,
            ViewChangeReport {
                epoch: new_epoch,
                cuts: proposal.cuts,
                resent,
            },
        ))
    }

    /// The *joiner's* half of the install/catch-up barrier: a process
    /// that entered a distributed cluster at its current epoch (the
    /// `--join` bootstrap) publishes its `installed`/`acked` flags in the
    /// fresh SST and blocks until every survivor confirms — the same
    /// two-phase [`InstallBarrier`] the survivors hold, so application
    /// traffic resumes cluster-wide only once the joiner's mirror is up,
    /// connected, and confirmed on every link. Returns `false` on
    /// timeout (a survivor died mid-barrier) — the joiner should give
    /// up rather than serve traffic on a half-formed mesh.
    pub fn join_barrier(&self, row: usize, timeout: Duration) -> bool {
        let shared = &self.nodes[row].shared;
        let (sst, fabric, view, cols) = {
            let inner = shared.inner.lock();
            (
                inner.sst.clone(),
                inner.fabric.clone().expect("joiner hosts a live row"),
                Arc::clone(&inner.view),
                inner.reconfig.clone(),
            )
        };
        // The barrier parties are exactly the rows of the installed view
        // that belong to a subgroup — the survivors' own barrier lists
        // the identical set (old active rows minus failed, plus us).
        let live: Vec<usize> = view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| !view.subgroups_of(NodeId(m)).is_empty())
            .collect();
        let mut barrier = InstallBarrier::new(view.id(), live.clone(), cols, row);
        let mut post = |range: std::ops::Range<usize>| {
            for &peer in &live {
                if peer != row {
                    fabric.post(NodeId(row), &WriteOp::new(NodeId(peer), range.clone()));
                }
            }
        };
        let deadline = Instant::now() + timeout;
        while !barrier.step(&sst, &mut post) {
            if Instant::now() > deadline || self.stop.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        true
    }

    /// Wedges all nodes and waits for live predicate threads to park.
    fn wedge_and_park(&self) {
        for n in &self.nodes {
            n.shared.wedged.store(true, Ordering::Release);
        }
        for n in &self.nodes {
            if self.participating(n.id.0) {
                while !n.shared.parked.load(Ordering::Acquire) {
                    if n.shared.killed.load(Ordering::Acquire) {
                        break; // crashed while we waited
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Delivers exactly through the cut at every survivor and collects
    /// surviving senders' undelivered messages for resend.
    fn drain_through(&self, survivors: &[NodeId], cuts: &[SeqNum]) -> ResendSet {
        let mut resend = Vec::new();
        let ordered = self.cfg.delivery_timing == DeliveryTiming::Ordered;
        for &m in survivors {
            for (sg, payload) in
                drain_node_through(&self.nodes[m.0].shared, cuts, ordered, &self.persist)
            {
                resend.push((m.0, sg, payload));
            }
        }
        resend
    }

    /// Installs `next_view` on every existing node: fresh layout, fresh
    /// fabric, fresh protocol state. Rows in `failed` are marked dead.
    fn install_view(&mut self, next_view: Arc<View>, failed: &BTreeSet<usize>) {
        let new_epoch = next_view.id();
        let plan = Plan::build(&next_view, true);
        let factory = self
            .factory
            .as_ref()
            .expect("view change on a static fabric is rejected earlier");
        let fabric = factory(
            next_view.members().len(),
            plan.layout.region_words(),
            self.faults.clone(),
        );
        for n in &self.nodes {
            let mut inner = n.shared.inner.lock();
            let row = n.id.0;
            if failed.contains(&row) || !inner.alive {
                inner.alive = false;
                continue;
            }
            let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(row)), row);
            sst.init();
            inner.protos = next_view
                .subgroups()
                .iter()
                .enumerate()
                .filter(|(_, sg)| sg.member_rank(NodeId(row)).is_some())
                .map(|(g, _)| SubgroupProto::new(&next_view, SubgroupId(g), plan.cols[g], row))
                .collect();
            inner.sst = sst;
            inner.fabric = Some(fabric.clone());
            inner.view = Arc::clone(&next_view);
            inner.heartbeat_col = plan.heartbeat;
            inner.reconfig = plan.reconfig.clone();
            inner.hb_peers = hb_peers(&next_view, row);
            n.shared.epoch.store(new_epoch, Ordering::Release);
            if self.local_rows.contains(&row) {
                epoch_gauge(&self.obs, row).set(new_epoch);
                self.obs.event(
                    Level::Info,
                    row,
                    FlightEvent::Install {
                        epoch: new_epoch,
                        members: next_view.members().len() as u32,
                    },
                );
            }
        }
        self.epoch_views.push(Arc::clone(&next_view));
        self.view = next_view;
        self.fabric = fabric;
        self.epoch = new_epoch;
        // Heartbeat drop ranges are layout-relative; re-derive them.
        self.apply_heartbeat_drops();
    }

    /// Unwedges everyone and resends recovered messages in the new epoch.
    fn unwedge_and_resend(&self, resend: ResendSet) -> usize {
        for n in &self.nodes {
            n.shared.wedged.store(false, Ordering::Release);
        }
        let resent = resend.len();
        for (node, sg, payload) in resend {
            self.nodes[node]
                .send(sg, &payload)
                .expect("resend in new epoch");
        }
        resent
    }

    fn alive(&self, node: usize) -> bool {
        self.nodes[node].shared.inner.lock().alive
    }

    /// A node participates in epoch transitions if it has not been removed
    /// *and* has not silently crashed.
    fn participating(&self, node: usize) -> bool {
        self.alive(node) && !self.nodes[node].shared.killed.load(Ordering::Acquire)
    }

    /// Stops all predicate threads and waits for them.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for th in self.threads.drain(..) {
            let _ = th.join();
        }
    }
}

impl<F: Fabric> Drop for Cluster<F> {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

type SharedAndRx<F> = (Arc<NodeShared<F>>, Receiver<Delivered>);

/// Validates a joiner's `host:port` endpoint for travel in a proposal's
/// guarded-list join block: any hostname, IPv4 literal, or bracketed
/// IPv6 literal with a concrete port, as long as the host fits the
/// block's byte bound ([`reconfig::MAX_JOIN_HOST_BYTES`]).
fn parse_join_addr(addr: &str, as_sender: bool) -> Result<reconfig::JoinEndpoint, ViewChangeError> {
    reconfig::JoinEndpoint::parse(addr, as_sender).map_err(ViewChangeError::BadJoinAddress)
}

/// Rows `row` exchanges heartbeats with: members of at least one subgroup
/// of `view`, excluding `row` itself. (Removed nodes belong to no subgroup
/// and drop out of monitoring automatically.)
fn hb_peers(view: &View, row: usize) -> Vec<usize> {
    view.members()
        .iter()
        .map(|m| m.0)
        .filter(|&m| m != row && !view.subgroups_of(NodeId(m)).is_empty())
        .collect()
}

/// The `spindle_epoch` gauge series of one row.
fn epoch_gauge(obs: &ObsPlane, row: usize) -> spindle_obs::Gauge {
    let node = row.to_string();
    obs.registry().gauge(
        spindle_obs::names::EPOCH,
        "Currently installed epoch (view id)",
        &[("node", &node)],
    )
}

/// Cached per-epoch registry handles for the delivery path: resolved
/// against the registry once per `(node, epoch)`, after which every
/// delivery costs two relaxed atomic adds (plus one histogram record
/// when the delivery completes one of this node's own sends).
struct EpochObsCache {
    epoch: u64,
    delivered: spindle_obs::Counter,
    bytes: spindle_obs::Counter,
    latency: spindle_obs::LogHistogram,
}

fn epoch_obs<'a>(
    obs: &ObsPlane,
    row: usize,
    epoch: u64,
    cache: &'a mut Option<EpochObsCache>,
) -> &'a EpochObsCache {
    if cache.as_ref().is_none_or(|c| c.epoch != epoch) {
        let node = row.to_string();
        let ep = epoch.to_string();
        let labels = [("node", node.as_str()), ("epoch", ep.as_str())];
        let reg = obs.registry();
        *cache = Some(EpochObsCache {
            epoch,
            delivered: reg.counter(
                spindle_obs::names::DELIVERED,
                "Ordered messages delivered, by node and epoch",
                &labels,
            ),
            bytes: reg.counter(
                spindle_obs::names::DELIVERED_BYTES,
                "Payload bytes delivered, by node and epoch",
                &labels,
            ),
            latency: reg.histogram(
                spindle_obs::names::DELIVERY_LATENCY,
                "Send-to-delivery latency of this node's own sends",
                1e-9,
                &labels,
            ),
        });
    }
    cache.as_ref().expect("cache just filled")
}

/// Publishes one delivery into the live registry: per-epoch message and
/// byte counters, plus the delivery-latency sample when `d` completes a
/// send stamped by this node's [`NodeHandle::try_send`]. Every
/// [`NodeShared::deliveries`] send is paired with exactly one call, so
/// the counter equals the drained stream length by construction (the
/// harness counter-consistency oracle pins this).
fn obs_on_delivery<F: Fabric>(
    shared: &NodeShared<F>,
    row: usize,
    d: &Delivered,
    cache: &mut Option<EpochObsCache>,
) {
    let h = epoch_obs(&shared.obs, row, d.epoch, cache);
    h.delivered.inc();
    h.bytes.add(d.data.len() as u64);
    let key = (d.subgroup.0, d.app_index);
    let mut stamps = shared.send_stamps.lock();
    if let Some(&(rank, t0)) = stamps.get(&key) {
        if rank == d.sender_rank {
            stamps.remove(&key);
            drop(stamps);
            h.latency.record(t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Builds the shared state of one node against an existing fabric/plan.
fn build_node_shared<F: Fabric>(
    view: &Arc<View>,
    epoch: u64,
    row: usize,
    fabric: &F,
    plan: &Plan,
    suspicion_tx: &Sender<Suspicion>,
    obs: &ObsPlane,
) -> SharedAndRx<F> {
    let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(row)), row);
    sst.init();
    let protos: Vec<SubgroupProto> = view
        .subgroups()
        .iter()
        .enumerate()
        .filter(|(_, sg)| sg.member_rank(NodeId(row)).is_some())
        .map(|(g, _)| SubgroupProto::new(view, SubgroupId(g), plan.cols[g], row))
        .collect();
    let (tx, rx) = unbounded();
    let shared = Arc::new(NodeShared {
        inner: Mutex::new(NodeInner {
            sst,
            protos,
            fabric: Some(fabric.clone()),
            view: Arc::clone(view),
            alive: true,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: hb_peers(view, row),
        }),
        deliveries: tx,
        wedged: AtomicBool::new(false),
        parked: AtomicBool::new(false),
        epoch: AtomicU64::new(epoch),
        killed: AtomicBool::new(false),
        paused: AtomicBool::new(false),
        suspicion_tx: suspicion_tx.clone(),
        vc_trigger: AtomicU64::new(0),
        join_intent: Mutex::new(None),
        vc_report: Mutex::new(None),
        vc_count: AtomicU64::new(0),
        vc_micros: AtomicU64::new(0),
        plogs: Mutex::new(std::collections::HashMap::new()),
        obs: obs.clone(),
        send_stamps: Mutex::new(std::collections::HashMap::new()),
    });
    (shared, rx)
}

/// The closed stand-in for a row hosted by *another* process
/// ([`Cluster::start_distributed`]): its SST lives over a detached region
/// (never posted to), `alive` is false so sends fail with
/// [`SendError::Closed`], and no predicate thread runs. The real row runs
/// remotely; this handle only keeps row indexing uniform.
fn build_remote_stub<F: Fabric>(
    view: &Arc<View>,
    epoch: u64,
    row: usize,
    plan: &Plan,
    suspicion_tx: &Sender<Suspicion>,
    obs: &ObsPlane,
) -> SharedAndRx<F> {
    let region = Arc::new(Region::new(plan.layout.region_words()));
    let sst = Sst::new(plan.layout.clone(), region, row);
    sst.init();
    let (tx, rx) = unbounded();
    let shared = Arc::new(NodeShared {
        inner: Mutex::new(NodeInner {
            sst,
            protos: Vec::new(),
            fabric: None,
            view: Arc::clone(view),
            alive: false,
            heartbeat_col: plan.heartbeat,
            reconfig: plan.reconfig.clone(),
            hb_peers: Vec::new(),
        }),
        deliveries: tx,
        wedged: AtomicBool::new(false),
        parked: AtomicBool::new(false),
        epoch: AtomicU64::new(epoch),
        killed: AtomicBool::new(false),
        paused: AtomicBool::new(false),
        suspicion_tx: suspicion_tx.clone(),
        vc_trigger: AtomicU64::new(0),
        join_intent: Mutex::new(None),
        vc_report: Mutex::new(None),
        vc_count: AtomicU64::new(0),
        vc_micros: AtomicU64::new(0),
        plogs: Mutex::new(std::collections::HashMap::new()),
        obs: obs.clone(),
        send_stamps: Mutex::new(std::collections::HashMap::new()),
    });
    (shared, rx)
}

/// The per-node polling loop (§2.4): evaluate every subgroup's predicates,
/// then post the collected writes — after releasing the lock when §3.4 is
/// enabled.
///
/// With `vc_enabled` (a distributed cluster over an epoch-advancing
/// transport), the loop additionally watches for view-change triggers —
/// a local detector verdict, a planned-removal request
/// ([`NodeShared::vc_trigger`]), or a peer's suspicion column — and runs
/// the SST engine through wedge → agreement → install itself.
fn predicate_thread<F: Fabric>(
    row: usize,
    shared: Arc<NodeShared<F>>,
    cfg: SpindleConfig,
    det: Option<DetectorConfig>,
    persist: Option<PersistConfig>,
    stop: Arc<AtomicBool>,
    vc_enabled: bool,
) {
    let mut idle_spins = 0u32;
    let mut obs_cache: Option<EpochObsCache> = None;
    let mut persist_cache: Option<PersistObsCache> = None;
    // Heartbeat state (only used when a detector is configured). Rebuilt on
    // every epoch change because the SST (and its counters) start fresh.
    let mut hb_epoch = u64::MAX;
    let mut hb_value = 0i64;
    let mut last_beat = Instant::now();
    let mut hb_state: Option<HeartbeatState> = None;
    while !stop.load(Ordering::Relaxed) {
        if shared.killed.load(Ordering::Acquire) {
            return; // simulated crash: vanish without a trace
        }
        if shared.wedged.load(Ordering::Acquire) {
            shared.parked.store(true, Ordering::Release);
            while shared.wedged.load(Ordering::Acquire) && !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(20));
            }
            shared.parked.store(false, Ordering::Release);
            continue;
        }
        if shared.paused.load(Ordering::Acquire) {
            // Fault-injected stall: no predicate work, no heartbeats. Loop
            // (rather than block) so wedges, kills and stop still land.
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }
        // Work items collected under the lock, posted after release
        // (early_lock_release) or under it (baseline).
        let mut posts: Vec<WriteOp> = Vec::new();
        let mut delivered: Vec<Delivered> = Vec::new();
        // Suspicion bits that must start a view change after this
        // iteration (distributed clusters only).
        let mut vc_bits: u64 = 0;
        // (subgroup, persisted_num column, member rows, highest seq) for
        // every subgroup that delivered this iteration — used after the
        // lock to append to the durable log and advance the frontier.
        let mut persist_work: Vec<(SubgroupId, spindle_sst::CounterCol, Vec<usize>, SeqNum)> =
            Vec::new();
        let mut work = false;
        {
            let mut inner = shared.inner.lock();
            if !inner.alive {
                return;
            }
            let sst = inner.sst.clone();
            let fabric = inner.fabric.clone().expect("live node has a fabric");
            let epoch = shared.epoch.load(Ordering::Relaxed);
            if vc_enabled {
                // A planned-removal trigger, or a peer's suspicion column
                // lighting up: either starts the SST view-change engine
                // (after this iteration's work is flushed).
                vc_bits |= shared.vc_trigger.swap(0, Ordering::AcqRel);
                for &peer in &inner.hb_peers {
                    vc_bits |= sst.counter(inner.reconfig.suspected, peer) as u64;
                }
                if vc_bits != 0 {
                    let mask = reconfig::bits_of(inner.hb_peers.iter().copied().chain([row]));
                    vc_bits &= mask | PLANNED_BIT;
                }
            }
            if let Some(dc) = &det {
                let now = Instant::now();
                if epoch != hb_epoch {
                    hb_epoch = epoch;
                    // Resume from whatever this row last posted in the new
                    // epoch (the install barrier heartbeats too): `observe`
                    // treats a regressed counter as silence, so restarting
                    // from zero would read as death at every peer whose
                    // mirror already saw the higher value.
                    hb_value = sst.counter(inner.heartbeat_col, row);
                    last_beat = now;
                    hb_state = Some(HeartbeatState::new(inner.hb_peers.clone(), dc, now));
                }
                // Bump and push the own heartbeat counter on the cadence.
                if now.duration_since(last_beat) >= dc.heartbeat_interval {
                    hb_value += 1;
                    last_beat = now;
                    let range = sst.set_counter(inner.heartbeat_col, hb_value);
                    push_to(&mut posts, &inner.hb_peers, row, range);
                }
                // Observe peers' counters in the local replica.
                if let Some(hb) = hb_state.as_mut() {
                    for peer in inner.hb_peers.clone() {
                        let v = sst.counter(inner.heartbeat_col, peer);
                        if let Some(suspect) = hb.observe(peer, v, now) {
                            let _ = shared.suspicion_tx.send(Suspicion {
                                reporter: row,
                                suspect,
                            });
                            // Distributed clusters act on their own
                            // verdicts: the suspicion seeds the engine.
                            if vc_enabled && suspect <= reconfig::MAX_BITMAP_ROW {
                                shared.obs.event(
                                    Level::Info,
                                    row,
                                    FlightEvent::Suspicion {
                                        target: suspect as u32,
                                        epoch,
                                        mid_transition: false,
                                    },
                                );
                                vc_bits |= 1 << suspect;
                            }
                        }
                    }
                }
            }
            for p in inner.protos.iter_mut() {
                let members = p.member_rows.clone();
                let collect = cfg.delivery_timing == DeliveryTiming::OnReceive;
                let r = p.receive_predicate(&sst, cfg.receive_batching, cfg.null_sends, collect);
                if r.new_rounds > 0 || r.nulls_added > 0 {
                    work = true;
                }
                if collect {
                    for (rank, a, _round, len, slot) in r.new_app {
                        let data = sst.read_slot_with_len(
                            p.cols.slots,
                            p.sender_rows[rank],
                            slot,
                            len as usize,
                        );
                        delivered.push(Delivered {
                            epoch,
                            subgroup: p.sg,
                            sender_rank: rank,
                            app_index: a,
                            seq: -1,
                            data,
                        });
                    }
                }
                if let Some(ack) = r.ack {
                    for _ in 0..r.ack_pushes {
                        push_to(&mut posts, &members, row, ack.clone());
                    }
                }
                if p.my_sender_rank.is_some() {
                    if let Some(s) = p.send_predicate(&sst, cfg.send_batching, cfg.null_sends) {
                        work = true;
                        for range in s.slot_ranges {
                            push_to(&mut posts, &members, row, range);
                        }
                        if let Some(c) = s.committed_push {
                            push_to(&mut posts, &members, row, c);
                        }
                    }
                }
                let d = p.delivery_predicate(&sst, cfg.delivery_batching);
                if !d.deliveries.is_empty() || d.nulls_skipped > 0 {
                    work = true;
                }
                if persist.is_some() && cfg.delivery_timing == DeliveryTiming::Ordered {
                    if let Some(hi) = d.deliveries.iter().map(|del| del.seq).max() {
                        persist_work.push((p.sg, p.cols.pers, members.clone(), hi));
                    }
                }
                for del in d.deliveries {
                    if cfg.delivery_timing == DeliveryTiming::Ordered {
                        let data = sst.read_slot_with_len(
                            p.cols.slots,
                            p.sender_rows[del.rank],
                            del.slot,
                            del.len as usize,
                        );
                        delivered.push(Delivered {
                            epoch,
                            subgroup: p.sg,
                            sender_rank: del.rank,
                            app_index: del.app_index,
                            seq: del.seq,
                            data,
                        });
                    }
                }
                if let Some(ack) = d.ack {
                    for _ in 0..d.ack_pushes {
                        push_to(&mut posts, &members, row, ack.clone());
                    }
                }
            }
            if !cfg.early_lock_release {
                // Baseline: post while holding the lock (§3.4's problem).
                for op in posts.drain(..) {
                    fabric.post(NodeId(row), &op);
                }
            } else {
                // §3.4: release first, then post (below).
            }
            drop(inner);
            // Durable mode: append this iteration's ordered deliveries to
            // the per-subgroup log, fsync when the policy says so, then
            // advertise the new frontier. This happens outside the lock —
            // log I/O must never stall the application threads (the same
            // reasoning as §3.4).
            if let Some(pc) = &persist {
                let pobs = persist_obs(&shared.obs, row, &mut persist_cache);
                let now_ms = persist_now_ms();
                let mut plogs = shared.plogs.lock();
                for (sg, pers_col, members, hi) in persist_work.drain(..) {
                    let entry = open_log(&mut plogs, pc, row, sg, pobs);
                    let before = entry.log.byte_len();
                    let mut appended = 0u64;
                    for d in delivered.iter().filter(|d| d.subgroup == sg) {
                        append_delivery(&mut entry.log, d);
                        entry.sched.record_append(now_ms);
                        appended += 1;
                    }
                    pobs.appended.add(appended);
                    pobs.appended_bytes.add(entry.log.byte_len() - before);
                    if entry.sched.due(now_ms) {
                        let t0 = Instant::now();
                        entry.log.sync().expect("sync durable log");
                        pobs.fsyncs.inc();
                        pobs.fsync_latency.record(t0.elapsed().as_nanos() as u64);
                        entry.sched.synced(now_ms);
                    }
                    let range = sst.set_counter(pers_col, hi);
                    push_to(&mut posts, &members, row, range);
                }
            }
            if !posts.is_empty() {
                for op in posts {
                    fabric.post(NodeId(row), &op);
                }
            }
        }
        for d in delivered {
            obs_on_delivery(&shared, row, &d, &mut obs_cache);
            // Receiver may have hung up (handle dropped); that's fine.
            let _ = shared.deliveries.send(d);
        }
        if vc_bits != 0 {
            distributed_view_change(row, &shared, vc_bits, &cfg, &det, &persist, &stop);
            idle_spins = 0;
            continue;
        }
        if work {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins > 64 {
                // Quiesce politely; sends and arrivals are visible in shared
                // memory, so a short sleep stands in for the doorbell.
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    // Clean shutdown: whatever the sync policy deferred becomes durable
    // now. (A simulated crash — `killed` — returns above without this,
    // deliberately: that is the policy's loss window under test.)
    if persist.is_some() {
        let mut plogs = shared.plogs.lock();
        for entry in plogs.values_mut() {
            let _ = entry.log.sync();
        }
    }
}

/// Final old-epoch deliveries of one node: everything through the agreed
/// cuts goes to its delivery channel (and durable log), and its own
/// undelivered messages come back as `(subgroup, payload)` for resend in
/// the next epoch. Shared by the cluster-driven drain and the
/// predicate-thread (distributed) driver.
fn drain_node_through<F: Fabric>(
    shared: &Arc<NodeShared<F>>,
    cuts: &[SeqNum],
    ordered: bool,
    persist: &Option<PersistConfig>,
) -> Vec<(SubgroupId, Vec<u8>)> {
    let mut resend = Vec::new();
    let mut inner = shared.inner.lock();
    let sst = inner.sst.clone();
    let epoch = shared.epoch.load(Ordering::Acquire);
    let row = sst.own_row();
    let mut persisted: Vec<Delivered> = Vec::new();
    let mut obs_cache: Option<EpochObsCache> = None;
    for (g, &cut) in cuts.iter().enumerate() {
        let Some(p) = inner.protos.iter_mut().find(|p| p.sg.0 == g) else {
            continue;
        };
        let out = p.deliver_through(&sst, cut);
        for del in out.deliveries {
            if ordered {
                let data = sst.read_slot_with_len(
                    p.cols.slots,
                    p.sender_rows[del.rank],
                    del.slot,
                    del.len as usize,
                );
                let d = Delivered {
                    epoch,
                    subgroup: p.sg,
                    sender_rank: del.rank,
                    app_index: del.app_index,
                    seq: del.seq,
                    data,
                };
                if persist.is_some() {
                    persisted.push(d.clone());
                }
                obs_on_delivery(shared, row, &d, &mut obs_cache);
                let _ = shared.deliveries.send(d);
            }
        }
        for (_, payload) in p.undelivered_own(&sst) {
            resend.push((SubgroupId(g), payload));
        }
    }
    drop(inner);
    // Durable mode: the final deliveries of the old epoch go to the log
    // like any others (the predicate thread is parked or is running this
    // drain itself, so we append on its behalf).
    if let Some(pc) = persist {
        let mut persist_cache: Option<PersistObsCache> = None;
        let pobs = persist_obs(&shared.obs, row, &mut persist_cache);
        let now_ms = persist_now_ms();
        let mut plogs = shared.plogs.lock();
        let mut appended_bytes = 0u64;
        for d in &persisted {
            let entry = open_log(&mut plogs, pc, row, d.subgroup, pobs);
            let before = entry.log.byte_len();
            append_delivery(&mut entry.log, d);
            entry.sched.record_append(now_ms);
            appended_bytes += entry.log.byte_len() - before;
        }
        pobs.appended.add(persisted.len() as u64);
        pobs.appended_bytes.add(appended_bytes);
        // Epoch boundaries fsync regardless of policy: the cut the new
        // view was agreed on must survive a crash.
        for entry in plogs.values_mut() {
            let t0 = Instant::now();
            entry.log.sync().expect("sync durable log");
            pobs.fsyncs.inc();
            pobs.fsync_latency.record(t0.elapsed().as_nanos() as u64);
            entry.sched.synced(now_ms);
        }
    }
    resend
}

/// Crash-injection boundary for multi-process acceptance tests: when
/// `SPINDLE_VC_CRASH_AT` names a [`VcBoundary`] (`wedge`, `propose`,
/// `ack`, `install`), the first view change this process drives aborts
/// at that boundary — *after* its writes are posted, so the survivors
/// inherit exactly the mid-transition state the takeover protocol must
/// recover from. Read once; an unparsable value is ignored.
fn vc_crash_boundary() -> Option<VcBoundary> {
    static BOUNDARY: std::sync::OnceLock<Option<VcBoundary>> = std::sync::OnceLock::new();
    *BOUNDARY.get_or_init(|| {
        std::env::var("SPINDLE_VC_CRASH_AT")
            .ok()
            .and_then(|s| s.parse().ok())
    })
}

/// The predicate-thread view-change driver of a distributed cluster: one
/// node's half of the multi-process epoch transition. Wedges the node,
/// runs its [`ViewChangeEngine`] against the live transport until the
/// cluster converges, performs the final old-epoch deliveries, installs
/// the agreed next view in place ([`Fabric::begin_epoch`]: fresh mirror,
/// fresh connections, a `HELLO` at the new epoch), holds the
/// [`InstallBarrier`] until every survivor has installed, requeues its
/// recovered messages, and unwedges.
fn distributed_view_change<F: Fabric>(
    row: usize,
    shared: &Arc<NodeShared<F>>,
    initial_bits: u64,
    cfg: &SpindleConfig,
    det: &Option<DetectorConfig>,
    persist: &Option<PersistConfig>,
    stop: &Arc<AtomicBool>,
) {
    let started = Instant::now();
    shared.wedged.store(true, Ordering::Release);
    let (view, cols, hb_col, mut hb_value) = {
        let inner = shared.inner.lock();
        (
            Arc::clone(&inner.view),
            inner.reconfig.clone(),
            inner.heartbeat_col,
            inner.sst.counter(inner.heartbeat_col, row),
        )
    };
    let active: Vec<usize> = view
        .members()
        .iter()
        .map(|m| m.0)
        .filter(|&m| !view.subgroups_of(NodeId(m)).is_empty())
        .collect();
    let mut engine = ViewChangeEngine::new(Arc::clone(&view), cols.clone(), row, initial_bits);
    engine.set_obs(shared.obs.clone());
    if let Some(b) = vc_crash_boundary() {
        engine.arm_crash(b);
    }
    // A sponsored join travels in this node's proposal if it turns out
    // to be the leader (admit only triggers the leader's host).
    if let Some(join) = shared.join_intent.lock().take() {
        engine.set_join_intent(join);
    }
    // The predicate loop's detector is parked while we run, but a peer
    // can die *mid-transition* — the exact hole the takeover protocol
    // closes. Keep heartbeating and observing inside the engine loop so
    // a crashed proposer is convicted here and the suspicion feeds the
    // engine directly. Own-value continuity matters: `observe` treats
    // a regressed counter as silence, so the bump continues from the
    // predicate loop's last value.
    let vc_hb_peers: Vec<usize> = active.iter().copied().filter(|&r| r != row).collect();
    let mut hb_state = det
        .as_ref()
        .map(|dc| HeartbeatState::new(vc_hb_peers.clone(), dc, Instant::now()));
    let mut last_beat = Instant::now();
    let deadline = Instant::now() + VC_DEADLINE;
    let mut resend: Vec<(SubgroupId, Vec<u8>)> = Vec::new();
    let mut last_report = Instant::now();
    let proposal = loop {
        if stop.load(Ordering::Relaxed) || shared.killed.load(Ordering::Acquire) {
            return; // shutdown/crash mid-transition: vanish wedged
        }
        if last_report.elapsed() > Duration::from_secs(2) {
            shared.obs.event(
                Level::Error,
                row,
                FlightEvent::Stalled {
                    epoch: engine.vid(),
                    phase: obs_phase::AGREE,
                    millis: started.elapsed().as_millis() as u64,
                },
            );
            // A stuck agreement is diagnostic gold for a distributed
            // deployment: at debug level, also narrate what the mirror
            // shows for every active row.
            if shared.obs.level() >= Level::Debug {
                let inner = shared.inner.lock();
                let seen: Vec<(usize, i64, i64, i64)> = active
                    .iter()
                    .map(|&r| {
                        (
                            r,
                            inner.sst.counter(cols.suspected, r),
                            inner.sst.counter(cols.wedged, r),
                            inner.sst.counter(cols.acked, r),
                        )
                    })
                    .collect();
                eprintln!(
                    "spindle: n{row} view change to epoch {} still {} after {:?}; \
                     (row, suspected, wedged, acked) = {seen:?}",
                    engine.vid(),
                    engine.phase_name(),
                    started.elapsed()
                );
            }
            last_report = Instant::now();
        }
        if Instant::now() > deadline {
            // A survivor stalled forever: stay wedged (unavailable, never
            // inconsistent) and give the application threads their error.
            let mut inner = shared.inner.lock();
            inner.alive = false;
            return;
        }
        let (sst, fabric, frontiers) = {
            let inner = shared.inner.lock();
            if !inner.alive {
                return;
            }
            let frontiers: Vec<SeqNum> = (0..view.subgroups().len())
                .map(|g| {
                    inner
                        .protos
                        .iter()
                        .find(|p| p.sg.0 == g)
                        .map_or(-1, |p| p.received_num)
                })
                .collect();
            (
                inner.sst.clone(),
                inner.fabric.clone().expect("live node has a fabric"),
                frontiers,
            )
        };
        let mut post = |range: std::ops::Range<usize>| {
            for &peer in &active {
                if peer != row {
                    fabric.post(NodeId(row), &WriteOp::new(NodeId(peer), range.clone()));
                }
            }
        };
        if let (Some(dc), Some(hb)) = (det.as_ref(), hb_state.as_mut()) {
            let now = Instant::now();
            if now.duration_since(last_beat) >= dc.heartbeat_interval {
                hb_value += 1;
                last_beat = now;
                post(sst.set_counter(hb_col, hb_value));
            }
            for &peer in &vc_hb_peers {
                let v = sst.counter(hb_col, peer);
                if let Some(suspect) = hb.observe(peer, v, now) {
                    let _ = shared.suspicion_tx.send(Suspicion {
                        reporter: row,
                        suspect,
                    });
                    if suspect <= reconfig::MAX_BITMAP_ROW {
                        shared.obs.event(
                            Level::Info,
                            row,
                            FlightEvent::Suspicion {
                                target: suspect as u32,
                                epoch: engine.vid(),
                                mid_transition: true,
                            },
                        );
                        engine.suspect(1 << suspect);
                    }
                }
            }
        }
        match engine.step(&sst, &frontiers, &mut post) {
            VcStep::Pending | VcStep::Done => {
                std::thread::sleep(Duration::from_micros(200));
            }
            VcStep::Deliver(p) => {
                let ordered = cfg.delivery_timing == DeliveryTiming::Ordered;
                resend = drain_node_through(shared, &p.cuts, ordered, persist);
                engine.mark_delivered();
            }
            VcStep::Install(p) => break p,
            VcStep::Evicted => {
                // The cluster voted this node out: close it. The handle
                // stays readable (pre-cut deliveries), sends fail.
                let mut inner = shared.inner.lock();
                inner.alive = false;
                return;
            }
            VcStep::Crashed => {
                // Fault injection (SPINDLE_VC_CRASH_AT): die at the armed
                // boundary, mid-transition, with no cleanup — the point
                // is to leave the survivors a corpse to take over from.
                shared.obs.event(
                    Level::Error,
                    row,
                    FlightEvent::CrashBoundary {
                        epoch: engine.vid(),
                    },
                );
                std::process::abort();
            }
        }
    };
    let agreed_at = Instant::now();
    // A proposal adopted *verbatim* from a dead proposer may keep a
    // crashed row in the view (the takeover rule never edits an acked
    // trim). Reseed its suspicion so the predicate loop drives one more
    // transition right after this install completes.
    let residual = engine.suspicions()
        & !proposal.failed
        & reconfig::bits_of(active.iter().copied())
        & !(1 << row);
    if residual != 0 {
        shared.vc_trigger.fetch_or(residual, Ordering::AcqRel);
    }

    // Install the agreed view: every survivor derives the identical next
    // view from the proposal's failed set (and join word, for a grow
    // transition), transitions the transport in place, and rebuilds its
    // protocol state over the fresh mirror.
    let gone = proposal.failed_rows();
    let (next_view, joined) = match proposal.join_endpoint() {
        Some(join) => {
            let Ok((v, new_row)) = reconfig::join_view(&view, &gone, join.as_sender) else {
                // Not installable (it would empty a subgroup): stay
                // wedged rather than diverge.
                return;
            };
            (v, vec![(new_row, join.addr())])
        }
        None => {
            let Ok(v) = reconfig::removal_view(&view, &gone) else {
                return;
            };
            (v, Vec::new())
        }
    };
    let next_view = Arc::new(next_view);
    let plan = Plan::build(&next_view, true);
    // The new epoch's mesh: old survivors plus any joiner. The joiner
    // also participates in the install barrier below — that is the
    // catch-up barrier which holds application traffic until the
    // joiner's mirror is up, connected, and confirmed on every link.
    let mut survivors: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&r| !gone.contains(&r))
        .collect();
    survivors.extend(joined.iter().map(|&(r, _)| r));
    let fabric = {
        let inner = shared.inner.lock();
        inner.fabric.clone().expect("live node has a fabric")
    };
    assert!(
        fabric.begin_epoch(&EpochTransition {
            epoch: proposal.vid,
            live: survivors.clone(),
            region_words: plan.layout.region_words(),
            joined,
        }),
        "distributed view change requires an epoch-advancing transport"
    );
    let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(row)), row);
    sst.init();
    {
        let mut inner = shared.inner.lock();
        inner.protos = next_view
            .subgroups()
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.member_rank(NodeId(row)).is_some())
            .map(|(g, _)| SubgroupProto::new(&next_view, SubgroupId(g), plan.cols[g], row))
            .collect();
        inner.sst = sst.clone();
        inner.view = Arc::clone(&next_view);
        inner.heartbeat_col = plan.heartbeat;
        inner.reconfig = plan.reconfig.clone();
        inner.hb_peers = hb_peers(&next_view, row);
        shared.epoch.store(proposal.vid, Ordering::Release);
    }
    epoch_gauge(&shared.obs, row).set(proposal.vid);
    shared.obs.event(
        Level::Info,
        row,
        FlightEvent::Install {
            epoch: proposal.vid,
            members: next_view.members().len() as u32,
        },
    );

    // A grow transition's report must be visible *now*, not after the
    // barrier: the sponsor's admit waits on it to send the joiner
    // its commit, and the barrier below waits on the joiner — gating
    // the report on the barrier would deadlock the three. The wedge
    // stays up until the barrier completes, so no application traffic
    // races this early publication.
    if !survivors.iter().all(|r| active.contains(r)) {
        *shared.vc_report.lock() = Some(ViewChangeReport {
            epoch: proposal.vid,
            cuts: proposal.cuts.clone(),
            resent: 0,
        });
    }

    // Resume barrier: no application traffic until every survivor has
    // installed — and confirmed it can see us at the new epoch, so our
    // one-shot protocol writes cannot die on a zombie pre-install link.
    let mut barrier =
        InstallBarrier::new(proposal.vid, survivors.clone(), plan.reconfig.clone(), row);
    let mut post = |range: std::ops::Range<usize>| {
        for &peer in &survivors {
            if peer != row {
                fabric.post(NodeId(row), &WriteOp::new(NodeId(peer), range.clone()));
            }
        }
    };
    // The barrier must not wait forever on a corpse: a row a verbatim
    // takeover proposal kept in the view is a barrier party that will
    // never install. Heartbeat in the new epoch (continuing the
    // monotonic value — a regressed counter reads as silence at peers)
    // and convict parties on a 3× detector leash: generous enough for a
    // slow drainer or a joiner's catch-up, bounded enough to beat the
    // VC deadline. A convicted party is dropped from the barrier and
    // its suspicion reseeds the next transition.
    let barrier_det = det.as_ref().map(|dc| DetectorConfig {
        heartbeat_interval: dc.heartbeat_interval,
        timeout: dc.timeout * 3,
    });
    let mut barrier_hb = barrier_det.as_ref().map(|dc| {
        let parties: Vec<usize> = survivors.iter().copied().filter(|&r| r != row).collect();
        HeartbeatState::new(parties, dc, Instant::now())
    });
    let mut last_report = Instant::now();
    while !barrier.step(&sst, &mut post) {
        if stop.load(Ordering::Relaxed) || shared.killed.load(Ordering::Acquire) {
            return;
        }
        if let (Some(dc), Some(hb)) = (barrier_det.as_ref(), barrier_hb.as_mut()) {
            let now = Instant::now();
            if now.duration_since(last_beat) >= dc.heartbeat_interval {
                hb_value += 1;
                last_beat = now;
                post(sst.set_counter(plan.heartbeat, hb_value));
            }
            let parties: Vec<usize> = hb.monitored().collect();
            for peer in parties {
                let v = sst.counter(plan.heartbeat, peer);
                if let Some(dead) = hb.observe(peer, v, now) {
                    shared.obs.event(
                        Level::Error,
                        row,
                        FlightEvent::BarrierDrop {
                            target: dead as u32,
                            epoch: proposal.vid,
                        },
                    );
                    barrier.remove_party(dead);
                    if dead <= reconfig::MAX_BITMAP_ROW {
                        shared.vc_trigger.fetch_or(1 << dead, Ordering::AcqRel);
                    }
                }
            }
        }
        if last_report.elapsed() > Duration::from_secs(2) {
            shared.obs.event(
                Level::Error,
                row,
                FlightEvent::Stalled {
                    epoch: proposal.vid,
                    phase: obs_phase::BARRIER,
                    millis: started.elapsed().as_millis() as u64,
                },
            );
            // A healthy barrier converges in milliseconds; a node stuck
            // here is diagnostic gold for a distributed deployment, so
            // at debug level also narrate what the mirror shows.
            if shared.obs.level() >= Level::Debug {
                let flags: Vec<(usize, i64, i64)> = survivors
                    .iter()
                    .map(|&r| {
                        (
                            r,
                            sst.counter(plan.reconfig.installed, r),
                            sst.counter(plan.reconfig.acked, r),
                        )
                    })
                    .collect();
                eprintln!(
                    "spindle: n{row} stuck at install barrier of epoch {} for {:?}; \
                     (row, installed, confirmed) = {flags:?}",
                    proposal.vid,
                    started.elapsed()
                );
            }
            last_report = Instant::now();
        }
        std::thread::sleep(Duration::from_micros(300));
    }
    shared.obs.event(
        Level::Info,
        row,
        FlightEvent::BarrierConfirm {
            epoch: proposal.vid,
        },
    );
    {
        let node = row.to_string();
        let reg = shared.obs.registry();
        let help = "View-change phase durations (agree: wedge to install, \
                    barrier: install to barrier confirm)";
        let labels = |phase| [("node", node.as_str()), ("phase", phase)];
        reg.histogram(
            spindle_obs::names::VIEW_CHANGE_PHASE,
            help,
            1e-9,
            &labels("agree"),
        )
        .record(agreed_at.duration_since(started).as_nanos() as u64);
        reg.histogram(
            spindle_obs::names::VIEW_CHANGE_PHASE,
            help,
            1e-9,
            &labels("barrier"),
        )
        .record(agreed_at.elapsed().as_nanos() as u64);
        reg.counter(
            spindle_obs::names::VIEW_CHANGES,
            "View changes installed, by node",
            &[("node", node.as_str())],
        )
        .inc();
    }

    // Requeue the recovered messages in the new epoch (the fresh window
    // always has room for them: there are at most `window` of them).
    let resent = resend.len();
    {
        let mut inner = shared.inner.lock();
        let sst = inner.sst.clone();
        for (sg, payload) in resend {
            if let Some(p) = inner.protos.iter_mut().find(|p| p.sg == sg) {
                let outcome = p.try_queue_app(&sst, payload.len() as u32, Some(&payload));
                debug_assert!(
                    matches!(outcome, QueueOutcome::Queued { .. }),
                    "resend exceeded a fresh window"
                );
            }
        }
    }
    shared.vc_count.fetch_add(1, Ordering::AcqRel);
    shared
        .vc_micros
        .fetch_add(started.elapsed().as_micros() as u64, Ordering::AcqRel);
    *shared.vc_report.lock() = Some(ViewChangeReport {
        epoch: proposal.vid,
        cuts: proposal.cuts.clone(),
        resent,
    });
    shared.wedged.store(false, Ordering::Release);
}

/// One subgroup's durable log plus the scheduler enforcing its
/// [`spindle_persist::SyncPolicy`].
struct PersistLog {
    log: spindle_persist::DurableLog,
    sched: spindle_persist::SyncScheduler,
}

/// Milliseconds since this process first touched the persist path — the
/// monotonic clock the [`spindle_persist::SyncScheduler`]s run on.
fn persist_now_ms() -> u64 {
    static T0: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Cached registry handles for the `spindle_persist_*` metric families,
/// resolved once per node (one label set, no per-epoch churn).
struct PersistObsCache {
    appended: spindle_obs::Counter,
    appended_bytes: spindle_obs::Counter,
    fsyncs: spindle_obs::Counter,
    fsync_latency: spindle_obs::LogHistogram,
    replayed: spindle_obs::Counter,
}

fn persist_obs<'a>(
    obs: &ObsPlane,
    row: usize,
    cache: &'a mut Option<PersistObsCache>,
) -> &'a PersistObsCache {
    if cache.is_none() {
        let node = row.to_string();
        let labels = [("node", node.as_str())];
        let reg = obs.registry();
        *cache = Some(PersistObsCache {
            appended: reg.counter(
                spindle_obs::names::PERSIST_APPENDED,
                "Deliveries appended to the durable log, by node",
                &labels,
            ),
            appended_bytes: reg.counter(
                spindle_obs::names::PERSIST_APPENDED_BYTES,
                "Bytes appended to the durable log (frames included), by node",
                &labels,
            ),
            fsyncs: reg.counter(
                spindle_obs::names::PERSIST_FSYNCS,
                "Durable-log fsyncs, by node",
                &labels,
            ),
            fsync_latency: reg.histogram(
                spindle_obs::names::PERSIST_FSYNC_LATENCY,
                "Durable-log fsync latency",
                1e-9,
                &labels,
            ),
            replayed: reg.counter(
                spindle_obs::names::PERSIST_REPLAYED,
                "Records recovered from the durable log at open, by node",
                &labels,
            ),
        });
    }
    cache.as_ref().expect("cache just filled")
}

/// Lazily opens (recovering) the durable log of `(row, sg)`.
fn open_log<'a>(
    plogs: &'a mut std::collections::HashMap<usize, PersistLog>,
    pc: &PersistConfig,
    row: usize,
    sg: SubgroupId,
    pobs: &PersistObsCache,
) -> &'a mut PersistLog {
    plogs.entry(sg.0).or_insert_with(|| {
        let name = format!("node{row}-g{}", sg.0);
        let (log, recovered) =
            spindle_persist::DurableLog::open_with(&pc.options, &name).expect("open durable log");
        pobs.replayed.add(recovered.len() as u64);
        PersistLog {
            log,
            sched: pc.options.scheduler(),
        }
    })
}

fn append_delivery(log: &mut spindle_persist::DurableLog, d: &Delivered) {
    log.append(&spindle_persist::LogRecord {
        epoch: d.epoch,
        subgroup: d.subgroup.0 as u32,
        seq: d.seq,
        sender_rank: d.sender_rank as u32,
        app_index: d.app_index,
        data: d.data.clone(),
    })
    .expect("append to durable log");
}

fn push_to(posts: &mut Vec<WriteOp>, members: &[usize], me: usize, range: std::ops::Range<usize>) {
    for &m in members {
        if m != me {
            posts.push(WriteOp::new(NodeId(m), range.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n: usize, senders: usize, window: usize, max_msg: usize) -> View {
        let members: Vec<usize> = (0..n).collect();
        let s: Vec<usize> = (0..senders).collect();
        ViewBuilder::new(n)
            .subgroup(&members, &s, window, max_msg)
            .build()
            .unwrap()
    }

    fn collect(cluster: &Cluster, node: usize, count: usize) -> Vec<Delivered> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            match cluster.node(node).recv_timeout(Duration::from_secs(10)) {
                Some(d) => out.push(d),
                None => panic!(
                    "timed out at node {node} after {} of {count} deliveries",
                    out.len()
                ),
            }
        }
        out
    }

    #[test]
    fn single_sender_fifo_everywhere() {
        let cluster = Cluster::start(view(3, 1, 8, 64), SpindleConfig::optimized());
        for i in 0..20u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        for node in 0..3 {
            let got = collect(&cluster, node, 20);
            for (i, d) in got.iter().enumerate() {
                assert_eq!(d.sender_rank, 0);
                assert_eq!(d.app_index, i as u64);
                assert_eq!(
                    u32::from_le_bytes(d.data[..4].try_into().unwrap()),
                    i as u32
                );
                assert_eq!(d.epoch, 0);
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn total_order_identical_across_nodes() {
        let cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
        let total = 3 * 50;
        let sequences: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
            for n in 0..3 {
                let node = cluster.node(n);
                s.spawn(move || {
                    for i in 0..50u32 {
                        node.send(SubgroupId(0), &i.to_le_bytes()).unwrap();
                    }
                });
            }
            (0..3)
                .map(|n| {
                    collect(&cluster, n, total)
                        .into_iter()
                        .map(|d| (d.sender_rank, d.app_index))
                        .collect()
                })
                .collect()
        });
        assert_eq!(sequences[0], sequences[1]);
        assert_eq!(sequences[1], sequences[2]);
        // FIFO per sender within the total order.
        for seq in &sequences {
            let mut next = [0u64; 3];
            for &(rank, idx) in seq {
                assert_eq!(idx, next[rank], "per-sender FIFO violated");
                next[rank] += 1;
            }
        }
        cluster.shutdown();
    }

    #[test]
    fn small_window_backpressure() {
        let cluster = Cluster::start(view(2, 1, 2, 32), SpindleConfig::optimized());
        // Far more messages than slots: send() must block and recover.
        for i in 0..100u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        let got = collect(&cluster, 1, 100);
        assert_eq!(got.len(), 100);
        cluster.shutdown();
    }

    #[test]
    fn send_errors() {
        let cluster = Cluster::start(view(2, 1, 4, 16), SpindleConfig::optimized());
        assert_eq!(
            cluster.node(1).send(SubgroupId(0), b"x"),
            Err(SendError::NotASender)
        );
        assert_eq!(
            cluster.node(0).send(SubgroupId(0), &[0u8; 17]),
            Err(SendError::TooLarge { max: 16 })
        );
        cluster.shutdown();
    }

    #[test]
    fn baseline_config_also_correct() {
        let cluster = Cluster::start(view(2, 2, 8, 64), SpindleConfig::baseline());
        for i in 0..10u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
            cluster
                .node(1)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        let a: Vec<_> = collect(&cluster, 0, 20)
            .into_iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        let b: Vec<_> = collect(&cluster, 1, 20)
            .into_iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        assert_eq!(a, b);
        cluster.shutdown();
    }

    #[test]
    fn multiple_subgroups_isolated() {
        let v = ViewBuilder::new(3)
            .subgroup(&[0, 1], &[0], 8, 32)
            .subgroup(&[1, 2], &[2], 8, 32)
            .build()
            .unwrap();
        let cluster = Cluster::start(v, SpindleConfig::optimized());
        cluster.node(0).send(SubgroupId(0), b"sg0").unwrap();
        cluster.node(2).send(SubgroupId(1), b"sg1").unwrap();
        // Node 1 is in both subgroups and receives both messages.
        let got = collect(&cluster, 1, 2);
        let mut sgs: Vec<usize> = got.iter().map(|d| d.subgroup.0).collect();
        sgs.sort_unstable();
        assert_eq!(sgs, vec![0, 1]);
        // Node 0 receives only its own.
        let d0 = collect(&cluster, 0, 1);
        assert_eq!(d0[0].subgroup, SubgroupId(0));
        cluster.shutdown();
    }

    #[test]
    fn view_change_removes_node_and_continues() {
        let mut cluster = Cluster::start(view(3, 3, 8, 64), SpindleConfig::optimized());
        for i in 0..10u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
            cluster
                .node(1)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        // Drain what's there, then remove node 2.
        let report = cluster.remove_node(2).unwrap();
        assert_eq!(report.epoch, 1);
        // New epoch works: survivors still multicast.
        cluster.node(0).send(SubgroupId(0), b"after").unwrap();
        let mut saw_after = false;
        for _ in 0..1000 {
            if let Some(d) = cluster.node(1).recv_timeout(Duration::from_secs(5)) {
                if d.epoch == 1 && d.data == b"after" {
                    saw_after = true;
                    break;
                }
            } else {
                break;
            }
        }
        assert!(saw_after, "new-epoch message not delivered");
        // The removed node's handle is closed.
        assert_eq!(
            cluster.node(2).send(SubgroupId(0), b"x"),
            Err(SendError::Closed)
        );
        cluster.shutdown();
    }

    #[test]
    fn leader_crash_mid_transition_fresh_takeover() {
        // The proposing leader (row 0) dies right after posting its
        // proposal, before anyone acked: the takeover leader's fresh
        // trim evicts both corpses in one transition.
        let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
        for i in 0..6u32 {
            cluster
                .node(1)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        cluster.arm_vc_crash(0, VcBoundary::Propose);
        let report = cluster.remove_node(3).unwrap();
        assert_eq!(report.epoch, 1);
        assert!(cluster.view().subgroups_of(NodeId(0)).is_empty());
        assert!(cluster.view().subgroups_of(NodeId(3)).is_empty());
        // Survivors still multicast in the new epoch.
        cluster.node(1).send(SubgroupId(0), b"after").unwrap();
        let mut saw_after = false;
        while let Some(d) = cluster.node(2).recv_timeout(Duration::from_secs(5)) {
            if d.data == b"after" {
                assert_eq!(d.epoch, 1);
                saw_after = true;
                break;
            }
        }
        assert!(saw_after, "new-epoch message not delivered");
        cluster.shutdown();
    }

    #[test]
    fn leader_crash_after_ack_evicted_by_residual_transition() {
        // The leader dies *after* its ack tag landed: the takeover
        // adopts its trim verbatim (the dead leader stays a member for
        // one epoch), and the residual suspicion drives an immediate
        // follow-up transition that evicts it — the caller sees the
        // final state.
        let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
        cluster.arm_vc_crash(0, VcBoundary::Ack);
        let report = cluster.remove_node(3).unwrap();
        assert_eq!(report.epoch, 2, "verbatim install, then residual eviction");
        assert!(cluster.view().subgroups_of(NodeId(0)).is_empty());
        assert!(cluster.view().subgroups_of(NodeId(3)).is_empty());
        cluster.node(1).send(SubgroupId(0), b"after").unwrap();
        let mut saw_after = false;
        while let Some(d) = cluster.node(2).recv_timeout(Duration::from_secs(5)) {
            if d.data == b"after" {
                saw_after = true;
                break;
            }
        }
        assert!(saw_after, "post-handoff message not delivered");
        cluster.shutdown();
    }

    #[test]
    fn paused_node_stalls_delivery_until_resumed() {
        // Window larger than the burst: sends queue without blocking even
        // though nothing can deliver while node 2 is paused.
        let cluster = Cluster::start(view(3, 1, 16, 64), SpindleConfig::optimized());
        cluster.pause_node(2);
        for i in 0..10u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        // Node 2 acknowledges nothing, so nothing can stabilize anywhere.
        assert!(
            cluster
                .node(1)
                .recv_timeout(Duration::from_millis(300))
                .is_none(),
            "delivery proceeded despite a paused member"
        );
        cluster.resume_node(2);
        let got = collect(&cluster, 1, 10);
        assert_eq!(got.len(), 10);
        assert_eq!(collect(&cluster, 2, 10).len(), 10);
        cluster.shutdown();
    }

    #[test]
    fn isolated_node_stalls_cluster_until_removed() {
        let mut cluster = Cluster::start(view(3, 3, 4, 64), SpindleConfig::optimized());
        cluster.isolate_node(2);
        cluster.node(0).send(SubgroupId(0), b"during").unwrap();
        // Node 2 hears nothing; its missing ack also stalls nodes 0 and 1.
        assert!(cluster
            .node(2)
            .recv_timeout(Duration::from_millis(300))
            .is_none());
        assert!(cluster.faults().writes_dropped() > 0);
        // One-sided writes are never retransmitted: the partition is
        // repaired by membership, not by healing the link. Removing the
        // isolated node delivers the message at every survivor — either
        // through the ragged-trim cut (epoch 0) or via resend (epoch 1).
        cluster.remove_node(2).unwrap();
        let got = collect(&cluster, 1, 1);
        assert_eq!(got[0].data, b"during");
        assert_eq!(collect(&cluster, 0, 1)[0].data, b"during");
        cluster.shutdown();
    }

    #[test]
    fn dropped_heartbeats_draw_suspicion_on_healthy_node() {
        let det = DetectorConfig {
            heartbeat_interval: Duration::from_millis(1),
            timeout: Duration::from_millis(100),
        };
        let mut cluster =
            Cluster::start_with_detector(view(3, 3, 8, 64), SpindleConfig::optimized(), det);
        std::thread::sleep(Duration::from_millis(20));
        cluster.set_drop_heartbeats(1, true);
        // Node 1 is alive (it can still multicast) yet looks dead.
        cluster.node(1).send(SubgroupId(0), b"alive").unwrap();
        let s = cluster
            .suspicions()
            .recv_timeout(Duration::from_secs(10))
            .expect("suppressed heartbeats must draw a suspicion");
        assert_eq!(s.suspect, 1);
        cluster.shutdown();
    }

    /// The multi-process deployment path, exercised in one process: two
    /// `start_distributed` clusters share one fabric, each hosting a
    /// disjoint subset of rows — exactly how `spindle-node` processes
    /// share a TCP fabric, minus the sockets.
    #[test]
    fn distributed_rows_split_across_two_clusters() {
        let v = view(3, 3, 8, 64);
        let plan = Plan::build(&v, true);
        let fabric = MemFabric::new(3, plan.layout.region_words());
        let a = Cluster::start_distributed(
            v.clone(),
            SpindleConfig::optimized(),
            None,
            None,
            &[0],
            fabric.clone(),
        );
        let b =
            Cluster::start_distributed(v, SpindleConfig::optimized(), None, None, &[1, 2], fabric);
        assert_eq!(a.local_rows().collect::<Vec<_>>(), vec![0]);
        // Remote rows are closed handles.
        assert_eq!(a.node(1).send(SubgroupId(0), b"x"), Err(SendError::Closed));
        for i in 0..5u32 {
            a.node(0).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
            b.node(1).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
        }
        let at_a: Vec<_> = collect(&a, 0, 10)
            .into_iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        let at_b1: Vec<_> = collect(&b, 1, 10)
            .into_iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        let at_b2: Vec<_> = collect(&b, 2, 10)
            .into_iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        assert_eq!(at_a, at_b1);
        assert_eq!(at_b1, at_b2);
        a.shutdown();
        b.shutdown();
    }

    /// A static-fabric cluster rejects in-process view changes.
    #[test]
    fn static_fabric_rejects_view_changes() {
        let v = view(3, 3, 8, 64);
        let plan = Plan::build(&v, true);
        let fabric = MemFabric::new(3, plan.layout.region_words());
        let mut c = Cluster::start_distributed(
            v,
            SpindleConfig::optimized(),
            None,
            None,
            &[0, 1, 2],
            fabric,
        );
        assert_eq!(c.remove_node(2).unwrap_err(), ViewChangeError::StaticFabric);
        assert_eq!(
            c.admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
                .unwrap_err(),
            ViewChangeError::StaticFabric
        );
        c.shutdown();
    }

    #[test]
    fn view_change_errors() {
        let mut cluster = Cluster::start(view(2, 2, 8, 64), SpindleConfig::optimized());
        assert_eq!(
            cluster.remove_node(5).unwrap_err(),
            ViewChangeError::UnknownNode(5)
        );
        assert_eq!(
            cluster.remove_node(1).unwrap_err(),
            ViewChangeError::TooFewSurvivors
        );
        cluster.shutdown();
    }

    /// Argument validation runs before the transport check: a static
    /// fabric reports unknown nodes / too-few-survivors / unknown
    /// subgroups instead of masking them behind `StaticFabric`.
    #[test]
    fn static_fabric_reports_argument_errors_first() {
        let v = view(3, 3, 8, 64);
        let plan = Plan::build(&v, true);
        let fabric = MemFabric::new(3, plan.layout.region_words());
        let mut c = Cluster::start_distributed(
            v,
            SpindleConfig::optimized(),
            None,
            None,
            &[0, 1, 2],
            fabric,
        );
        assert_eq!(
            c.remove_node(9).unwrap_err(),
            ViewChangeError::UnknownNode(9)
        );
        assert_eq!(
            c.admit(AdmitRequest::in_process(&[(SubgroupId(7), true)]))
                .unwrap_err(),
            ViewChangeError::UnknownSubgroup(SubgroupId(7))
        );
        // Removing either of the two survivors of a pair would leave a
        // singleton: also reported, not masked.
        c.kill(2);
        assert_eq!(
            c.remove_node(1).unwrap_err(),
            ViewChangeError::TooFewSurvivors
        );
        c.shutdown();
    }

    /// Shrinking to one live survivor is rejected immediately, even when
    /// stale top-level member ids (rows removed in earlier epochs) make
    /// the member list look big enough.
    #[test]
    fn shrink_to_one_live_survivor_rejected_fast() {
        let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
        cluster.remove_node(3).unwrap();
        cluster.remove_node(2).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            cluster.remove_node(1).unwrap_err(),
            ViewChangeError::TooFewSurvivors
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "validation must fail fast, not stall to the VC deadline"
        );
        // The failed attempt left the cluster live: traffic still flows.
        cluster.node(0).send(SubgroupId(0), b"still-on").unwrap();
        let got = collect(&cluster, 1, 1);
        assert_eq!(got[0].data, b"still-on");
        cluster.shutdown();
    }

    /// The wedge honors the cut: no survivor delivers past the agreed
    /// ragged trim in the old epoch — everything beyond it is resent in
    /// the new one instead.
    #[test]
    fn wedged_nodes_never_deliver_past_the_cut() {
        let mut cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
        // Node 2 dies silently: nothing can stabilize (its ack is part of
        // every delivery decision), so node 0's burst stays in flight.
        cluster.kill(2);
        for i in 0..10u32 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
        let report = cluster.remove_node(2).unwrap();
        let cut = report.cuts[0];
        std::thread::sleep(Duration::from_millis(200));
        for node in 0..2 {
            let mut old_epoch: Vec<SeqNum> = Vec::new();
            while let Some(d) = cluster.node(node).recv_timeout(Duration::from_millis(300)) {
                if d.epoch == 0 {
                    assert!(
                        d.seq <= cut,
                        "node {node} delivered seq {} past the cut {cut}",
                        d.seq
                    );
                    old_epoch.push(d.seq);
                }
            }
            // The old epoch is delivered exactly through the cut: node
            // 0's messages are the sequence numbers 0, 3, 6, …, in order.
            // (The cut is a sequence number, not a message count — a null
            // round of node 1 may occupy a number inside it.)
            let expected: Vec<SeqNum> = (0..=cut).filter(|seq| seq % 3 == 0).collect();
            assert_eq!(old_epoch, expected);
        }
        cluster.shutdown();
    }

    /// Wedge→install durations are recorded per driven view change.
    #[test]
    fn view_change_durations_recorded() {
        let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
        assert!(cluster.view_change_durations().is_empty());
        cluster.remove_node(3).unwrap();
        cluster
            .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
            .unwrap();
        let durations = cluster.view_change_durations();
        assert_eq!(durations.len(), 2);
        assert!(durations.iter().all(|d| *d > Duration::ZERO));
        // The predicate-thread counters stay at zero on factory-built
        // clusters — the caller drove (and timed) these transitions.
        assert_eq!(cluster.node(0).view_change_stats().0, 0);
        cluster.shutdown();
    }
}
