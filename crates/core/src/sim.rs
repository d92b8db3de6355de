//! The simulated cluster: a deterministic discrete-event runtime.
//!
//! Every simulated row is a real node: the node state the threaded runtime
//! enters an epoch with, over the row's region of one [`MemFabric`], and
//! every iteration of its predicate thread (§2.4) is the threads' own loop
//! body — heartbeat, node pass and view change — on the virtual clock. The
//! simulator substitutes time, concurrency and I/O — a virtual cluster that
//! models exactly the resources the Spindle paper optimizes:
//!
//! * **one predicate (polling) thread per node** (§2.4): where the threads
//!   copy each delivery out of its ring slot, the loop hands each
//!   subgroup's outcome to a sink that charges it to the [`CostModel`];
//!   the thread pays ~1 µs of CPU per posted RDMA work request (§3.2),
//!   quiesces when idle and is woken by incoming writes (the doorbell);
//! * **application sender threads** that acquire ring slots under the
//!   shared per-node lock — held across posting in the baseline, released
//!   before posting with the §3.4 optimization;
//! * **NICs**: per-node egress and ingress links serialized at 12.5 GB/s
//!   with a per-write overhead, plus the flat propagation latency of
//!   Figure 1.
//!
//! The rows' fabric records the writes an iteration posts, and the engine
//! places each at its virtual arrival time, in the regions of the epoch it
//! was posted in. Counter writes carry their value as posted (DMA snapshot
//! semantics); slot writes read through to the owner's region, which is
//! sound because a ring slot is never rewritten before its current message
//! is delivered everywhere. Write arrivals per (source, destination) pair
//! preserve posting order, which is the RDMA fence the SST guard protocol
//! needs. Ring slots hold no payload words (wire sizes still follow the
//! logical message size), so large rings cost no memory.
//!
//! Faults are [`SimFault`]s. A crash sets the row's `killed` flag, as a
//! threaded crash does. A run that schedules one runs the heartbeat detector
//! on every row on the virtual clock: the survivors convict the crashed
//! row, wedge, agree on the next view, enter it on the successor regions
//! [`MemFabric::begin_epoch`] builds, resend what the cut left and finish
//! the run there.

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use spindle_fabric::{EpochTransition, Fabric, FaultPlan, MemFabric, NodeId, Region, WriteOp};
use spindle_membership::{SubgroupId, View};
use spindle_obs::ObsPlane;
use spindle_sim::engine::Step;
use spindle_sim::{DetRng, Engine, Resource, SimTime};
use spindle_sst::Sst;

use crate::config::{DeliveryTiming, SenderActivity, SpindleConfig, Workload};
use crate::cost::CostModel;
use crate::detector::{DetectorConfig, HeartbeatTicker};
use crate::metrics::{NodeMetrics, RunReport};
use crate::plan::Plan;
use crate::proto::{Delivery, Pass, QueueOutcome, SubgroupProto};
use crate::threaded::{iterate, Epochs, NodeInner, NodeShared, PassSink, ThreadState, Turn};
use crate::viewchange::VcBoundary;

/// How often a row beats in a run that schedules a crash.
const HEARTBEAT: Duration = Duration::from_micros(200);

/// How long such a run's detector hears nothing from a peer before it
/// convicts it (three times that in an install barrier).
const SUSPECT_AFTER: Duration = Duration::from_millis(2);

/// One scheduled fault in a simulated run (see [`SimCluster::with_faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFault {
    /// Virtual time at which the fault fires.
    pub at: Duration,
    /// What happens.
    pub kind: SimFaultKind,
}

/// The kinds of fault the simulated runtime can inject. All faults are
/// omission or slowness: delivered writes still place intact and in posting
/// order, so the §2.2 fencing assumptions hold under any fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFaultKind {
    /// The node halts silently — its `killed` flag, as a threaded crash:
    /// its predicate thread stops iterating, its application senders stop,
    /// and writes addressed to it are discarded. Writes it posted before
    /// the crash still land (they were on the wire). The survivors'
    /// detectors convict it and the run goes on without it in the next
    /// epoch, as membership exists to do.
    Crash {
        /// The crashing node.
        node: usize,
    },
    /// The node's predicate thread stalls (its `paused` flag) for `pause`
    /// while its application senders keep queueing — the §4.1.1
    /// slow-receiver situation (windows fill, senders block) in isolation.
    PausePredicate {
        /// The stalling node.
        node: usize,
        /// How long the predicate thread stands still.
        pause: Duration,
    },
    /// Every write `node` posts from now on incurs `extra` additional
    /// latency (a congested or throttled NIC). Per-destination arrival
    /// order is preserved.
    DelayWrites {
        /// The throttled node.
        node: usize,
        /// Added per-write latency.
        extra: Duration,
    },
    /// The node's next view change halts at `boundary`, after the
    /// boundary's writes are posted, and leaves its peers a mid-transition
    /// corpse to take over from: the twin of
    /// [`Cluster::arm_vc_crash`](crate::Cluster::arm_vc_crash). A run that
    /// schedules one runs the detector, as for a crash.
    HaltAt {
        /// The node that halts.
        node: usize,
        /// Where in the view change it halts.
        boundary: VcBoundary,
    },
}

#[derive(Debug)]
enum Ev {
    /// One predicate-thread loop iteration at `node`.
    Iter { node: usize },
    /// A scheduled fault fires.
    Fault { kind: SimFaultKind },
    /// A write posted by `src` in epoch `epoch` (an index into
    /// [`SimWorld::epochs`]) lands at `dst`.
    Arrive {
        epoch: usize,
        src: usize,
        dst: usize,
        body: PostBody,
    },
    /// An application sender attempt at `node`, app handle `ai`.
    App { node: usize, ai: usize },
    /// The pause of `node`'s predicate thread ends.
    Resume { node: usize },
    /// `node`'s next heartbeat is due: a quiesced thread wakes for it.
    Beat { node: usize },
}

/// What a posted write carries.
#[derive(Debug)]
enum PostBody {
    /// Slot words, read through from the source's region on arrival.
    Slots(Range<usize>),
    /// A counter, its value snapshotted at post time; a `delivered_num`
    /// (`deliv_ack`) frees ring slots at its destination.
    Ctr {
        word: usize,
        value: u64,
        deliv_ack: bool,
    },
    /// Consecutive counter words — a view change's scalar block or
    /// proposal, the install barrier's flags — snapshotted at post time.
    Words { start: usize, values: Box<[u64]> },
}

#[derive(Debug)]
struct AppState {
    /// The subgroup it sends in.
    sg: usize,
    remaining: u64,
    activity: SenderActivity,
    blocked: bool,
    block_since: SimTime,
}

/// One delivery a pass reached the upcall of.
#[derive(Debug, Clone, Copy)]
struct Upcall {
    /// The CPU time of the body at the upcall.
    at: Duration,
    epoch: u64,
    sg: usize,
    rank: usize,
    /// The sender's row.
    from: usize,
    app_index: u64,
    len: u32,
}

impl Upcall {
    fn of(at: Duration, epoch: u64, p: &SubgroupProto, del: &Delivery) -> Upcall {
        Upcall {
            at,
            epoch,
            sg: p.sg.0,
            rank: del.rank,
            from: p.sender_rows[del.rank],
            app_index: del.app_index,
            len: del.len,
        }
    }
}

/// The simulator's [`PassSink`], one per row: where the threads copy each
/// delivery out of its ring slot, this charges a subgroup's outcome to the
/// cost model, in the order the predicates fired, and records the node's
/// metrics. Its slots hold no payload, so a transition's resend is kept and
/// requeued by length.
struct Charge<'a> {
    sc: &'a SimCluster,
    m: NodeMetrics,
    /// The CPU time of the body so far.
    busy: Duration,
    /// Whether a message was delivered or a null skipped, so a ring slot
    /// may have freed.
    any_delivery: bool,
    /// The iteration's deliveries.
    upcalls: Vec<Upcall>,
    /// A transition's own undelivered messages, `(subgroup, length)`, from
    /// the final deliveries to the resend.
    resend: Vec<(SubgroupId, u32)>,
    /// `(subgroup, sender rank, ring slot)` of each message the resend
    /// requeued, for the simulator to stamp its queue time.
    requeued: Vec<(usize, usize, usize)>,
}

impl PassSink for Charge<'_> {
    const PAYLOADS: bool = false;

    fn subgroup(
        &mut self,
        _: &Sst,
        epoch: u64,
        _: usize,
        p: &SubgroupProto,
        pass: &Pass,
        _: &mut [Option<Instant>],
    ) {
        let (cost, cfg, workload) = (&self.sc.cost, &self.sc.cfg, &self.sc.workload);
        let (m, busy) = (&mut self.m, &mut self.busy);
        let (r, d) = (&pass.recv, &pass.deliver);
        let (senders, window) = (p.num_senders(), p.ring.window());
        let members = p.member_rows.len() as u32;
        *busy += cost.sg_eval + cost.probe_per_sender * senders as u32;
        // Batched, the scan probes from the next expected slot, but the
        // ring's memory footprint still taxes the polling loop (§4.1.2:
        // "an excessively large window size forces the predicate thread
        // to cover too large a memory area"); in the baseline it covers
        // each sender's whole ring area every iteration.
        let scanned = if cfg.receive_batching {
            window * senders / 8
        } else {
            window * senders
        };
        *busy += cost.scan_per_slot * scanned as u32;
        if r.new_rounds > 0 {
            *busy += (cost.recv_per_msg + cost.scan_per_slot) * r.new_rounds as u32;
            m.recv_batch.record(r.new_rounds);
        }
        m.nulls_sent += r.nulls_added;
        for del in &r.new_app {
            *busy += cost.upcall_base + workload.upcall_cost;
            if workload.memcpy_on_delivery {
                *busy += cost.memcpy.copy_time(del.len as usize);
            }
            self.upcalls.push(Upcall::of(*busy, epoch, p, del));
        }
        if let Some(s) = pass.send.as_ref().filter(|s| s.app_msgs > 0) {
            *busy += cost.send_per_msg * s.app_msgs as u32;
            m.send_batch.record(s.app_msgs);
            m.push_ops += 1;
        }
        *busy += cost.deliv_eval_per_member * members;
        self.any_delivery |= !d.deliveries.is_empty() || d.nulls_skipped > 0;
        if !d.deliveries.is_empty() {
            let n = d.deliveries.len() as u32;
            m.deliv_batch.record(n as u64);
            *busy += (cost.deliv_per_msg + cost.upcall_base) * n;
        }
        m.nulls_skipped += d.nulls_skipped;
        for del in &d.deliveries {
            *busy += workload.upcall_cost;
            if workload.memcpy_on_delivery {
                *busy += cost.memcpy.copy_time(del.len as usize);
            }
            if cfg.delivery_timing == DeliveryTiming::Ordered {
                self.upcalls.push(Upcall::of(*busy, epoch, p, del));
            }
        }
        // One push operation per counter the pass publishes, whatever the
        // number of members it is posted to.
        let slot_ranges = pass.send.as_ref().map_or(0, |s| s.slot_ranges.len());
        m.push_ops += (pass.pushes().count() - slot_ranges) as u64;
    }

    /// Each final delivery is charged as an ordered delivery of a pass.
    fn drain(
        &mut self,
        sst: &Sst,
        epoch: u64,
        p: &SubgroupProto,
        _: &mut [Option<Instant>],
        finals: &[Delivery],
    ) {
        let (cost, workload) = (&self.sc.cost, &self.sc.workload);
        for del in finals {
            self.busy += cost.deliv_per_msg + cost.upcall_base + workload.upcall_cost;
            if workload.memcpy_on_delivery {
                self.busy += cost.memcpy.copy_time(del.len as usize);
            }
            self.any_delivery = true;
            self.upcalls.push(Upcall::of(self.busy, epoch, p, del));
        }
        let own = p.undelivered_own_slots(sst);
        self.resend
            .extend(own.map(|(_, _, len)| (p.sg, len as u32)));
    }

    fn resend<F: Fabric>(&mut self, shared: &NodeShared<F>) -> usize {
        let inner = &mut *shared.inner.lock();
        for &(sg, len) in &self.resend {
            let p = inner.protos.iter_mut().find(|p| p.sg == sg);
            let p = p.expect("a survivor keeps its subgroups");
            let QueueOutcome::Queued { slot, .. } = p.try_queue_app(&inner.sst, len, None) else {
                unreachable!("a fresh window has room for every resend");
            };
            let rank = p.my_sender_rank.expect("a survivor keeps its sender rank");
            self.requeued.push((sg.0, rank, slot));
        }
        let resent = self.resend.len();
        self.resend.clear();
        resent
    }
}

/// The simulator's fabric: the rows' [`MemFabric`] regions of one epoch,
/// whose posts the engine times and places instead — `post` only records
/// them. The next epoch's regions are the successor `MemFabric` builds.
#[derive(Clone)]
struct SimFabric {
    mem: MemFabric,
    epoch: u64,
    /// `(epoch, source row, write)` of every post the engine has not taken.
    posted: Arc<Mutex<Vec<(u64, usize, WriteOp)>>>,
}

impl Fabric for SimFabric {
    fn nodes(&self) -> usize {
        self.mem.nodes()
    }

    fn region_arc(&self, node: NodeId) -> Arc<Region> {
        self.mem.region_arc(node)
    }

    fn post(&self, src: NodeId, op: &WriteOp) {
        if src != op.dst {
            self.posted.lock().push((self.epoch, src.0, op.clone()));
        }
    }

    fn faults(&self) -> &FaultPlan {
        self.mem.faults()
    }

    fn begin_epoch(&self, t: &EpochTransition) -> Option<SimFabric> {
        Some(SimFabric {
            mem: self.mem.begin_epoch(t)?,
            epoch: t.epoch,
            posted: Arc::clone(&self.posted),
        })
    }
}

/// One epoch the run entered: its regions and its layout.
struct SimEpoch {
    id: u64,
    fabric: MemFabric,
    plan: Plan,
}

/// One simulated row: the real node and its thread's state, and what the
/// simulator substitutes for its threads, lock and NICs.
struct SimNode<'a> {
    shared: Arc<NodeShared<SimFabric>>,
    th: ThreadState<SimFabric, Charge<'a>>,
    apps: Vec<AppState>,
    lock: Resource,
    egress: Resource,
    ingress: Resource,
    pred_running: bool,
    /// Stood still at a pause: the pause's end runs its next iteration.
    held: bool,
    idle_streak: u32,
    target: u64,
    done: bool,
    /// The epoch its last iteration left it in.
    epoch: u64,
}

impl SimNode<'_> {
    fn m(&mut self) -> &mut NodeMetrics {
        &mut self.th.sink.m
    }
}

/// A complete simulated cluster run.
///
/// # Examples
///
/// ```
/// use spindle_core::{SimCluster, SpindleConfig, Workload};
/// use spindle_membership::ViewBuilder;
///
/// let view = ViewBuilder::new(2)
///     .subgroup(&[0, 1], &[0, 1], 16, 1024)
///     .build()?;
/// let report = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(200, 1024))
///     .run();
/// assert!(report.completed);
/// // Both nodes delivered all 400 messages.
/// assert!(report.nodes.iter().all(|n| n.delivered_msgs == 400));
/// # Ok::<(), spindle_membership::ViewError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimCluster {
    view: View,
    cfg: SpindleConfig,
    workload: Workload,
    cost: CostModel,
    seed: u64,
    deadline: SimTime,
    faults: Vec<SimFault>,
    trace: bool,
}

impl SimCluster {
    /// Creates a run description with the default cost model, seed 1, and a
    /// 120 s virtual deadline.
    pub fn new(view: View, cfg: SpindleConfig, workload: Workload) -> Self {
        SimCluster {
            view,
            cfg,
            workload,
            cost: CostModel::default(),
            seed: 1,
            deadline: SimTime::from_secs(120),
            faults: Vec::new(),
            trace: false,
        }
    }

    /// Schedules deterministic fault injections (crashes, predicate-thread
    /// pauses, write throttling, view-change halts) into the run. Faults
    /// are part of the run description, so the same seed + faults
    /// reproduce the same virtual-time trace bit for bit.
    pub fn with_faults(mut self, faults: Vec<SimFault>) -> Self {
        self.faults = faults;
        self
    }

    /// Records every ordered delivery as `(epoch, subgroup, sender rank,
    /// app index)` per node into [`RunReport::delivery_trace`], for
    /// protocol oracles (total order, FIFO, atomic prefix agreement under
    /// faults).
    pub fn with_delivery_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Overrides the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the RNG seed (start-time jitter); distinct seeds give the
    /// independent runs behind the paper's error bars.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the virtual-time deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = SimTime::ZERO + deadline;
        self
    }

    /// Executes the run to completion (target reached, stall, or deadline).
    pub fn run(&self) -> RunReport {
        self.execute().report()
    }

    /// The world a run leaves behind.
    fn execute(&self) -> SimWorld<'_> {
        let mut world = SimWorld::build(self);
        let mut engine: Engine<Ev> = Engine::new();
        world.start(&mut engine);
        let deadline = self.deadline;
        engine.run(&mut world, deadline, |w, eng, _t, ev| w.handle(eng, ev));
        world
    }

    /// What a row in the subgroups of `protos` must deliver to be done:
    /// every message of each of their continuously active senders that its
    /// deliveries so far (`from`, by subgroup and sender row) do not cover.
    fn owed(&self, protos: &[SubgroupProto], from: &[Vec<u64>]) -> u64 {
        let continuous = |g: usize, row: usize| {
            let rank = self.view.subgroups()[g]
                .senders
                .iter()
                .position(|m| m.0 == row);
            rank.is_some_and(|r| self.workload.activity(g, r) == SenderActivity::Continuous)
        };
        let senders = protos
            .iter()
            .flat_map(|p| p.sender_rows.iter().map(move |&s| (p.sg.0, s)));
        senders
            .filter(|&(g, s)| continuous(g, s))
            .map(|(g, s)| self.workload.msgs_per_sender.saturating_sub(from[g][s]))
            .sum()
    }
}

/// One delivery of [`RunReport::delivery_trace`]: `(epoch, subgroup, sender
/// rank, app index)`.
type Traced = (u64, usize, usize, u64);

struct SimWorld<'a> {
    sc: &'a SimCluster,
    /// The instant virtual time zero stands for: a row's clock reads `t0`
    /// plus the engine's time.
    t0: Instant,
    /// What the rows' fabric recorded, taken after each iteration.
    posted: Arc<Mutex<Vec<(u64, usize, WriteOp)>>>,
    /// Every epoch entered so far, oldest first.
    epochs: Vec<SimEpoch>,
    nodes: Vec<SimNode<'a>>,
    /// Queue timestamps: `ts[sg][rank][ring slot]`.
    ts: Vec<Vec<Vec<SimTime>>>,
    finish: Option<SimTime>,
    last_delivery: SimTime,
    done_nodes: usize,
    rng: DetRng,
    extra_write_delay: Vec<Duration>,
    trace: Option<Vec<Vec<Traced>>>,
    /// Deliveries by row, subgroup and sender row: what a row still awaits
    /// once a removal changes its senders.
    from: Vec<Vec<Vec<u64>>>,
}

impl<'a> SimWorld<'a> {
    fn build(sc: &'a SimCluster) -> SimWorld<'a> {
        let plan = Plan::build(&sc.view, false);
        let view = Arc::new(sc.view.clone());
        let n = view.members().len();
        let t0 = Instant::now();
        let posted = Arc::default();
        let fabric = SimFabric {
            mem: MemFabric::new(n, plan.layout.region_words()),
            epoch: view.id(),
            posted: Arc::clone(&posted),
        };
        let obs = ObsPlane::new();
        let epochs = Epochs::new(Arc::clone(&view), fabric.clone());
        // Nobody reads the detector's verdicts: a closed channel drops them.
        let suspicions = crossbeam::channel::unbounded().0;
        // A run that schedules a crash runs the detector on every row.
        let crashes = sc.faults.iter().any(|f| {
            matches!(
                f.kind,
                SimFaultKind::Crash { .. } | SimFaultKind::HaltAt { .. }
            )
        });
        let det = crashes.then_some(DetectorConfig {
            heartbeat_interval: HEARTBEAT,
            timeout: SUSPECT_AFTER,
        });
        let from = vec![vec![vec![0; n]; view.subgroups().len()]; n];
        let mut nodes = Vec::with_capacity(n);
        for (row, delivered) in from.iter().enumerate() {
            let inner = NodeInner::enter_epoch(&view, &plan, row, fabric.clone(), &obs);
            let mut apps = Vec::new();
            for p in &inner.protos {
                let g = p.sg.0;
                if let Some(rank) = p.my_sender_rank {
                    let activity = sc.workload.activity(g, rank);
                    if activity != SenderActivity::Inactive {
                        apps.push(AppState {
                            sg: g,
                            remaining: sc.workload.msgs_per_sender,
                            activity,
                            blocked: false,
                            block_since: SimTime::ZERO,
                        });
                    }
                }
            }
            // This node must deliver every offered message of the
            // continuously active senders of its subgroups; a member of no
            // subgroup has nothing to deliver.
            let target = sc.owed(&inner.protos, delivered);
            let done = inner.protos.is_empty();
            let charge = Charge {
                sc,
                m: NodeMetrics::new(),
                busy: Duration::ZERO,
                any_delivery: false,
                upcalls: Vec::new(),
                resend: Vec::new(),
                requeued: Vec::new(),
            };
            let mut th = ThreadState::new(&inner, charge);
            let (shared, _) = NodeShared::new(inner, &suspicions, &obs, None, &epochs);
            let muted = &shared.hb_muted;
            th.ticker = det
                .as_ref()
                .map(|dc| HeartbeatTicker::new(dc, Arc::clone(muted), t0));
            th.watch(1, t0);
            nodes.push(SimNode {
                shared,
                th,
                apps,
                lock: Resource::new(),
                egress: Resource::new(),
                ingress: Resource::new(),
                pred_running: false,
                held: false,
                idle_streak: 0,
                target: target.max(1),
                done,
                epoch: view.id(),
            });
        }
        let ts = sc
            .view
            .subgroups()
            .iter()
            .map(|sg| vec![vec![SimTime::ZERO; sg.window]; sg.num_senders()])
            .collect();
        let epoch = SimEpoch {
            id: view.id(),
            fabric: fabric.mem,
            plan,
        };
        SimWorld {
            sc,
            t0,
            posted,
            epochs: vec![epoch],
            done_nodes: nodes.iter().filter(|n| n.done).count(),
            nodes,
            ts,
            finish: None,
            last_delivery: SimTime::ZERO,
            rng: DetRng::seed(sc.seed),
            extra_write_delay: vec![Duration::ZERO; n],
            trace: sc.trace.then(|| vec![Vec::new(); n]),
            from,
        }
    }

    /// The virtual time of `instant` on the rows' clock.
    fn at(&self, instant: Instant) -> SimTime {
        SimTime::ZERO + instant.saturating_duration_since(self.t0)
    }

    fn start(&mut self, eng: &mut Engine<Ev>) {
        for node in 0..self.nodes.len() {
            for ai in 0..self.nodes[node].apps.len() {
                // Jitter start times to avoid artificial lockstep.
                let jitter = Duration::from_nanos(self.rng.below(2_000));
                eng.schedule_at(SimTime::ZERO + jitter, Ev::App { node, ai });
            }
        }
        for f in &self.sc.faults {
            let kind = f.kind.clone();
            eng.schedule_at(SimTime::ZERO + f.at, Ev::Fault { kind });
        }
        // With a detector, a row with nothing to send beats from the start.
        for (node, n) in self.nodes.iter().enumerate() {
            if let Some(ticker) = &n.th.ticker {
                eng.schedule_at(self.at(ticker.next_beat()), Ev::Beat { node });
            }
        }
    }

    /// Applies one scheduled fault at the current virtual time.
    fn fault(&mut self, eng: &mut Engine<Ev>, kind: SimFaultKind) {
        match kind {
            SimFaultKind::Crash { node } => {
                self.nodes[node]
                    .shared
                    .killed
                    .store(true, Ordering::Release);
                self.complete(eng.now(), node);
            }
            SimFaultKind::PausePredicate { node, pause } => {
                let paused = &self.nodes[node].shared.paused;
                paused.store(true, Ordering::Release);
                // Make sure the thread notices the pause even if it had
                // quiesced.
                self.wake(eng, node);
                eng.schedule_in(pause, Ev::Resume { node });
            }
            SimFaultKind::DelayWrites { node, extra } => {
                self.extra_write_delay[node] = extra;
            }
            SimFaultKind::HaltAt { node, boundary } => {
                *self.nodes[node].shared.vc_crash.lock() = Some(boundary);
            }
        }
    }

    fn handle(&mut self, eng: &mut Engine<Ev>, ev: Ev) -> Step {
        match ev {
            Ev::Iter { node } => return self.iter(eng, node),
            Ev::Fault { kind } => self.fault(eng, kind),
            Ev::App { node, ai } => {
                if !self.killed(node) {
                    self.app(eng, node, ai);
                }
            }
            Ev::Arrive {
                epoch,
                src,
                dst,
                body,
            } => {
                if self.killed(dst) {
                    return Step::Continue;
                }
                let fabric = &self.epochs[epoch].fabric;
                let to = fabric.region(NodeId(dst));
                match body {
                    PostBody::Slots(range) => {
                        to.copy_range_from(fabric.region(NodeId(src)), range.start, range.len());
                    }
                    PostBody::Ctr {
                        word,
                        value,
                        deliv_ack,
                    } => {
                        to.store(word, value);
                        if deliv_ack {
                            self.unblock_apps(eng, dst);
                        }
                    }
                    PostBody::Words { start, values } => {
                        for (i, &value) in values.iter().enumerate() {
                            to.store(start + i, value);
                        }
                    }
                }
                self.wake(eng, dst);
            }
            Ev::Resume { node } => {
                let n = &mut self.nodes[node];
                n.shared.paused.store(false, Ordering::Release);
                if std::mem::take(&mut n.held) {
                    return self.iter(eng, node);
                }
            }
            Ev::Beat { node } => self.wake(eng, node),
        }
        Step::Continue
    }

    /// Whether `node` crashed or halted.
    fn killed(&self, node: usize) -> bool {
        self.nodes[node].shared.killed.load(Ordering::Acquire)
    }

    /// Wakes the predicate thread of `node` if it has quiesced (§2.4's
    /// doorbell).
    fn wake(&mut self, eng: &mut Engine<Ev>, node: usize) {
        let n = &mut self.nodes[node];
        if !n.shared.killed.load(Ordering::Acquire) && !n.pred_running {
            n.pred_running = true;
            n.idle_streak = 0;
            eng.schedule_in(self.sc.cost.wake_latency, Ev::Iter { node });
        }
    }

    /// Re-arms any window-blocked application senders at `node`.
    fn unblock_apps(&mut self, eng: &mut Engine<Ev>, node: usize) {
        let now = eng.now();
        let n = &mut self.nodes[node];
        for ai in 0..n.apps.len() {
            let a = &mut n.apps[ai];
            if a.blocked && a.remaining > 0 {
                a.blocked = false;
                let waited = now.saturating_since(a.block_since);
                n.m().sender_wait += waited;
                eng.schedule_in(Duration::from_nanos(50), Ev::App { node, ai });
            }
        }
    }

    /// One application send attempt.
    fn app(&mut self, eng: &mut Engine<Ev>, node: usize, ai: usize) {
        let now = eng.now();
        let n = &mut self.nodes[node];
        if n.apps[ai].remaining == 0 {
            return;
        }
        let msg_len = self.sc.workload.msg_size as u32;
        // Slot acquisition + header publish run under the shared lock; when
        // the predicate body holds it across posting (no early release),
        // this is where senders stall (§3.4).
        let grant = n.lock.acquire(now, self.sc.cost.app_cs);
        let sg = n.apps[ai].sg;
        let (rank, outcome) = {
            let inner = &mut *n.shared.inner.lock();
            let p = inner.protos.iter_mut().find(|p| p.sg.0 == sg);
            let p = p.expect("a sender keeps its subgroups");
            let rank = p.my_sender_rank.expect("a sender keeps its sender rank");
            // A wedged node refuses sends, as `try_send` does: its senders
            // wait out the transition as for a full window.
            if n.shared.wedged.load(Ordering::Acquire) {
                (rank, QueueOutcome::WindowFull)
            } else {
                (rank, p.try_queue_app(&inner.sst, msg_len, None))
            }
        };
        match outcome {
            QueueOutcome::Queued { app_index, slot } => {
                let t_eff = grant.end;
                self.ts[sg][rank][slot] = t_eff;
                let a = &mut n.apps[ai];
                a.remaining -= 1;
                if a.blocked {
                    a.blocked = false;
                    let since = a.block_since;
                    n.m().sender_wait += now.saturating_since(since);
                }
                n.m().app_sent += 1;
                // Unordered QoS counts own messages at queue time.
                if self.sc.cfg.delivery_timing == DeliveryTiming::OnReceive {
                    let own = Upcall {
                        at: Duration::ZERO,
                        epoch: n.epoch,
                        sg,
                        rank,
                        from: node,
                        app_index,
                        len: msg_len,
                    };
                    self.count_delivery(eng.now(), node, own);
                }
                // In-place construction pays the fixed per-message cost;
                // copying from an external buffer (§4.4) adds the memcpy.
                let mut construct = self.sc.cost.app_per_msg;
                if self.sc.workload.memcpy_on_send {
                    construct += self.sc.cost.memcpy.copy_time(msg_len as usize);
                }
                let a_state = &self.nodes[node].apps[ai];
                let delay = match a_state.activity {
                    SenderActivity::Continuous => Duration::ZERO,
                    SenderActivity::DelayEach(d) => d,
                    SenderActivity::Bursty { burst, pause } => {
                        let sent = self.sc.workload.msgs_per_sender - a_state.remaining;
                        if burst > 0 && sent.is_multiple_of(burst) {
                            pause
                        } else {
                            Duration::ZERO
                        }
                    }
                    SenderActivity::Inactive => unreachable!("inactive senders have no app"),
                };
                if a_state.remaining > 0 {
                    eng.schedule_at(t_eff + construct + delay, Ev::App { node, ai });
                }
                self.wake(eng, node);
            }
            QueueOutcome::WindowFull => {
                let a = &mut n.apps[ai];
                if !a.blocked {
                    a.blocked = true;
                    a.block_since = now;
                }
                // Re-armed when delivery advances locally, a delivered_num
                // ack arrives or the node unwedges.
            }
        }
    }

    /// Counts one app-message delivery at `node`: into the oracle trace,
    /// if enabled, and towards the completion target.
    fn count_delivery(&mut self, now: SimTime, node: usize, up: Upcall) {
        if let Some(t) = &mut self.trace {
            t[node].push((up.epoch, up.sg, up.rank, up.app_index));
        }
        self.from[node][up.sg][up.from] += 1;
        let n = &mut self.nodes[node];
        n.th.sink.m.delivered_msgs += 1;
        n.th.sink.m.delivered_bytes += u64::from(up.len);
        self.last_delivery = now;
        if n.th.sink.m.delivered_msgs >= n.target {
            self.complete(now, node);
        }
    }

    /// Marks `node` done — it delivered its target, or crashed or halted
    /// and so left the run's quorum; the run finishes when every node is.
    fn complete(&mut self, now: SimTime, node: usize) {
        let n = &mut self.nodes[node];
        if !n.done {
            n.done = true;
            self.done_nodes += 1;
            if self.done_nodes == self.nodes.len() {
                self.finish = Some(now);
            }
        }
    }

    /// Records the epoch `node` just entered, if it is the first row in it,
    /// and retargets the node: every message of the continuous senders left
    /// in its subgroups that it has not delivered yet.
    fn enter_epoch(&mut self, now: SimTime, node: usize) {
        let (sc, n) = (self.sc, &mut self.nodes[node]);
        n.epoch = n.th.local.epoch;
        let inner = n.shared.inner.lock();
        if self.epochs.last().is_some_and(|e| e.id < n.epoch) {
            self.epochs.push(SimEpoch {
                id: n.epoch,
                fabric: n.th.local.fabric.mem.clone(),
                plan: Plan::build(&inner.view, false),
            });
        }
        let owed = sc.owed(&inner.protos, &self.from[node]);
        drop(inner);
        n.target = n.th.sink.m.delivered_msgs + owed;
        if n.th.sink.m.delivered_msgs >= n.target {
            self.complete(now, node);
        }
    }

    /// What a write that `src`'s iteration left in epoch `e` is, read off
    /// that epoch's layout: ring slots of one subgroup, read through on
    /// arrival, or counters, their values loaded now that the whole
    /// iteration has run — the values the step that set them left, because
    /// the steps of an iteration write different columns. Returns the wire
    /// bytes, the ring slots the receiver places and the body.
    fn post_of(&self, e: usize, src: usize, range: Range<usize>) -> (usize, usize, PostBody) {
        let SimEpoch { fabric, plan, .. } = &self.epochs[e];
        let rel = range.start - src * plan.layout.row_words();
        let ring = |s: &spindle_sst::SlotsCol| s.slots_range(0, s.count()).contains(&rel);
        if let Some(s) = plan.cols.iter().map(|c| c.slots).find(ring) {
            let slots = range.len() / s.slot_words();
            return (slots * s.wire_slot_bytes(), slots, PostBody::Slots(range));
        }
        let region = fabric.region(NodeId(src));
        if range.len() > 1 {
            let values = range.clone().map(|w| region.load(w)).collect();
            let start = range.start;
            return (8 * range.len(), 0, PostBody::Words { start, values });
        }
        let value = region.load(range.start);
        let deliv_ack = plan.cols.iter().any(|c| c.deliv.word_range().start == rel);
        let word = range.start;
        let body = PostBody::Ctr {
            word,
            value,
            deliv_ack,
        };
        (8, 0, body)
    }

    /// One predicate-thread iteration at `node` (§2.4): the threads' loop
    /// body, [`iterate`], on the virtual clock — acting on its own
    /// detector's verdicts, as the rows of a multi-process cluster do —
    /// charged to the cost model as it runs, then the writes its fabric
    /// recorded, timed and posted.
    fn iter(&mut self, eng: &mut Engine<Ev>, node: usize) -> Step {
        let now = eng.now();
        let (sc, t0) = (self.sc, self.t0);
        let n = &mut self.nodes[node];
        n.th.sink.busy = sc.cost.iter_overhead;
        n.th.sink.any_delivery = false;
        let wedged = n.shared.wedged.load(Ordering::Acquire);
        let clock = || t0 + now.saturating_since(SimTime::ZERO);
        let work = match iterate(&n.shared, &mut n.th, &sc.cfg, true, clock) {
            // `pred_running` stays true, so wake() never schedules a
            // second concurrent Iter for this node.
            Turn::Paused => {
                n.held = true;
                return Step::Continue;
            }
            Turn::Exit => None,
            Turn::Pass(work) => Some(work),
        };
        let Charge {
            busy, any_delivery, ..
        } = n.th.sink;
        let unwedged = wedged && !n.shared.wedged.load(Ordering::Acquire);
        for (sg, rank, slot) in n.th.sink.requeued.drain(..) {
            self.ts[sg][rank][slot] = now;
        }
        let mut upcalls = std::mem::take(&mut n.th.sink.upcalls);
        let mut posts = std::mem::take(&mut *self.posted.lock());

        // --- finalize the body: lock, posting, metrics ---
        let post_time = sc.cost.post_time(posts.len());
        let hold = if sc.cfg.early_lock_release {
            busy
        } else {
            busy + post_time
        };
        let grant = self.nodes[node].lock.acquire(now, hold);
        let body_start = grant.start;

        // An unordered delivery counts where the pass reached its upcall,
        // an ordered one at the (approximate) upcall time, the body's end.
        let upcall_time = body_start + busy;
        for &up in &upcalls {
            let at = match sc.cfg.delivery_timing {
                DeliveryTiming::OnReceive => now + up.at,
                DeliveryTiming::Ordered => {
                    let ts = &self.ts[up.sg][up.rank];
                    let sent_at = ts[(up.app_index % ts.len() as u64) as usize];
                    let lat = upcall_time.saturating_since(sent_at);
                    let m = self.nodes[node].m();
                    m.latency.record(lat.as_secs_f64());
                    m.latency_samples.record(lat.as_secs_f64());
                    upcall_time
                }
            };
            self.count_delivery(at, node, up);
        }
        upcalls.clear();
        if self.nodes[node].th.local.epoch != self.nodes[node].epoch {
            self.enter_epoch(now, node);
        }

        // Post writes sequentially after the body.
        let cost = &sc.cost;
        let first = self.epochs[0].id;
        let mut t_post = body_start + busy;
        for (i, (epoch, src, op)) in posts.drain(..).enumerate() {
            t_post += if i == 0 {
                cost.net.post_cost
            } else {
                cost.post_next
            };
            let e = (epoch - first) as usize;
            let (wire, slots, body) = self.post_of(e, src, op.range);
            let dst = op.dst.0;
            let eg = self.nodes[src]
                .egress
                .acquire(t_post, cost.egress_time(wire));
            // Fault-injected throttling: a constant per-source stall keeps
            // per-(source, destination) arrival order intact.
            let at_dst = eg.end + cost.net.fixed_latency + self.extra_write_delay[src];
            let ig = self.nodes[dst]
                .ingress
                .acquire(at_dst, cost.ingress_time(wire, slots));
            self.nodes[src].m().writes_posted += 1;
            eng.schedule_at(
                ig.end,
                Ev::Arrive {
                    epoch: e,
                    src,
                    dst,
                    body,
                },
            );
        }
        *self.posted.lock() = posts;
        let n = &mut self.nodes[node];
        n.th.sink.upcalls = upcalls;
        n.m().post_time += post_time;

        if any_delivery || unwedged {
            self.unblock_apps(eng, node);
        }
        // A row that exits stops: a halted one leaves the run's quorum, a
        // closed one never completes.
        if work.is_none() {
            self.nodes[node].pred_running = false;
            if self.killed(node) {
                self.complete(now, node);
            }
        }
        if self.finish.is_some() {
            return Step::Stop;
        }
        let Some(work) = work else {
            return Step::Continue;
        };

        // Schedule the next iteration or quiesce.
        let n = &mut self.nodes[node];
        if work {
            n.idle_streak = 0;
        } else {
            n.idle_streak += 1;
        }
        let t_end = body_start + busy + post_time + cost.iter_gap;
        if n.idle_streak < cost.quiesce_after {
            n.pred_running = true;
            eng.schedule_at(t_end, Ev::Iter { node });
        } else {
            n.pred_running = false;
            // A parked thread still wakes for its next heartbeat.
            if let Some(beat) = n.th.ticker.as_ref().map(|t| t.next_beat()) {
                eng.schedule_at(self.at(beat).max(now), Ev::Beat { node });
            }
        }
        Step::Continue
    }

    fn report(&self) -> RunReport {
        let makespan = self
            .finish
            .unwrap_or(self.last_delivery)
            .saturating_since(SimTime::ZERO);
        RunReport {
            nodes: self.nodes.iter().map(|n| n.th.sink.m.clone()).collect(),
            makespan,
            completed: self.finish.is_some(),
            delivery_trace: self.trace.clone().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_membership::ViewBuilder;

    fn small_view(n: usize, senders: usize, window: usize) -> View {
        let members: Vec<usize> = (0..n).collect();
        let s: Vec<usize> = (0..senders).collect();
        ViewBuilder::new(n)
            .subgroup(&members, &s, window, 1024)
            .build()
            .unwrap()
    }

    #[test]
    fn optimized_all_senders_completes() {
        let view = small_view(3, 3, 16);
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(300, 1024)).run();
        assert!(r.completed);
        for n in &r.nodes {
            assert_eq!(n.delivered_msgs, 900);
            assert_eq!(n.delivered_bytes, 900 * 1024);
        }
        assert!(r.bandwidth_gbps() > 0.0);
        assert!(r.mean_latency_ms() > 0.0);
    }

    #[test]
    fn baseline_all_senders_completes() {
        let view = small_view(3, 3, 16);
        let r = SimCluster::new(view, SpindleConfig::baseline(), Workload::new(100, 1024)).run();
        assert!(r.completed);
        for n in &r.nodes {
            assert_eq!(n.delivered_msgs, 300);
        }
    }

    #[test]
    fn optimized_beats_baseline() {
        let view = small_view(4, 4, 64);
        let wl = Workload::new(600, 10 * 1024);
        let base = SimCluster::new(view.clone(), SpindleConfig::baseline(), wl.clone()).run();
        let opt = SimCluster::new(view, SpindleConfig::optimized(), wl).run();
        assert!(base.completed && opt.completed);
        assert!(
            opt.bandwidth_gbps() > 2.0 * base.bandwidth_gbps(),
            "optimized {:.3} GB/s vs baseline {:.3} GB/s",
            opt.bandwidth_gbps(),
            base.bandwidth_gbps()
        );
        // And latency improves too (the paper's headline).
        assert!(opt.mean_latency_ms() < base.mean_latency_ms());
    }

    #[test]
    fn member_of_no_subgroup_does_not_hold_up_completion() {
        // Row 3 is a member of the view but of no subgroup: it has nothing
        // to deliver, and the run completes when rows 0-2 have.
        let view = ViewBuilder::new(4)
            .subgroup(&[0, 1, 2], &[0, 1, 2], 16, 1024)
            .build()
            .unwrap();
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(100, 1024)).run();
        assert!(r.completed);
        let delivered: Vec<u64> = r.nodes.iter().map(|n| n.delivered_msgs).collect();
        assert_eq!(delivered, [300, 300, 300, 0]);
    }

    #[test]
    fn baseline_stalls_with_inactive_sender() {
        let view = small_view(3, 3, 8);
        let wl = Workload::new(200, 1024).with_activity(0, 1, SenderActivity::Inactive);
        let r = SimCluster::new(view, SpindleConfig::baseline(), wl).run();
        // Delivery can only cover rounds before the inactive sender's first
        // message: a handful at best, and the run never completes.
        assert!(!r.completed);
        assert!(r.nodes[0].delivered_msgs < 10);
    }

    #[test]
    fn null_sends_rescue_inactive_sender() {
        let view = small_view(3, 3, 8);
        let wl = Workload::new(200, 1024).with_activity(0, 1, SenderActivity::Inactive);
        let r = SimCluster::new(view, SpindleConfig::optimized(), wl).run();
        assert!(r.completed, "null-sends must keep the pipeline moving");
        // The inactive sender produced nulls instead of messages.
        assert!(r.nodes[1].nulls_sent > 0);
        // Everyone delivered the two active senders' messages.
        for n in &r.nodes {
            assert_eq!(n.delivered_msgs, 400);
        }
    }

    #[test]
    fn delayed_sender_with_nulls_still_completes() {
        let view = small_view(3, 3, 8);
        let wl = Workload::new(50, 1024).with_activity(
            0,
            2,
            SenderActivity::DelayEach(Duration::from_micros(100)),
        );
        let r = SimCluster::new(view, SpindleConfig::optimized(), wl).run();
        assert!(r.completed);
        for n in &r.nodes {
            // All three senders eventually deliver everything offered by
            // continuous senders; the delayed one's messages are extra.
            assert!(n.delivered_msgs >= 100);
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let view = small_view(3, 3, 16);
        let wl = Workload::new(150, 1024);
        let a = SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone())
            .with_seed(7)
            .run();
        let b = SimCluster::new(view, SpindleConfig::optimized(), wl)
            .with_seed(7)
            .run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.total_writes(), b.total_writes());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.delivered_msgs, y.delivered_msgs);
            assert_eq!(x.writes_posted, y.writes_posted);
        }
    }

    #[test]
    fn batching_reduces_writes() {
        let view = small_view(4, 4, 64);
        let wl = Workload::new(400, 10 * 1024);
        let base = SimCluster::new(view.clone(), SpindleConfig::baseline(), wl.clone()).run();
        let opt = SimCluster::new(view, SpindleConfig::optimized(), wl).run();
        assert!(
            base.total_writes() > 3 * opt.total_writes(),
            "baseline {} vs optimized {}",
            base.total_writes(),
            opt.total_writes()
        );
        assert!(base.total_post_time() > opt.total_post_time());
    }

    #[test]
    fn single_sender_no_nulls() {
        let view = small_view(3, 1, 16);
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(200, 1024)).run();
        assert!(r.completed);
        assert_eq!(r.nodes.iter().map(|n| n.nulls_sent).sum::<u64>(), 0);
    }

    #[test]
    fn unordered_counts_on_receive() {
        let view = small_view(2, 1, 16);
        let mut cfg = SpindleConfig::optimized();
        cfg.delivery_timing = DeliveryTiming::OnReceive;
        let r = SimCluster::new(view, cfg, Workload::new(100, 512)).run();
        assert!(r.completed);
        // Sender counts its own at queue time; receiver on arrival.
        for n in &r.nodes {
            assert_eq!(n.delivered_msgs, 100);
        }
    }

    #[test]
    fn upcall_cost_degrades_throughput() {
        let view = small_view(2, 2, 32);
        let fast = SimCluster::new(
            view.clone(),
            SpindleConfig::optimized(),
            Workload::new(300, 10240),
        )
        .run();
        let slow = SimCluster::new(
            view,
            SpindleConfig::optimized(),
            Workload::new(300, 10240).with_upcall_cost(Duration::from_micros(100)),
        )
        .run();
        assert!(slow.bandwidth_gbps() < fast.bandwidth_gbps() / 4.0);
    }

    #[test]
    fn bursty_sender_completes_with_nulls() {
        let view = small_view(4, 4, 16);
        let wl = Workload::new(100, 1024).with_activity(
            0,
            1,
            SenderActivity::Bursty {
                burst: 10,
                pause: Duration::from_micros(500),
            },
        );
        let r = SimCluster::new(view, SpindleConfig::optimized(), wl).run();
        assert!(r.completed);
        // The three continuous senders' messages all delivered; the bursty
        // sender's gaps were covered by nulls from the others or by its own
        // catch-up.
        for n in &r.nodes {
            assert!(n.delivered_msgs >= 3 * 100);
        }
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let view = small_view(4, 4, 32);
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(400, 1024)).run();
        let p50 = r.latency_percentile_ms(0.5);
        let p99 = r.latency_percentile_ms(0.99);
        assert!(p50 > 0.0);
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        // The mean sits between the median and the tail for this workload.
        assert!(r.mean_latency_ms() >= p50 * 0.5);
    }

    fn crash(at: Duration, node: usize) -> SimFault {
        SimFault {
            at,
            kind: SimFaultKind::Crash { node },
        }
    }

    #[test]
    fn crashed_row_is_removed_and_the_survivors_complete() {
        let view = small_view(3, 3, 8);
        let run = || {
            SimCluster::new(
                view.clone(),
                SpindleConfig::optimized(),
                Workload::new(500, 1024),
            )
            .with_faults(vec![crash(Duration::from_micros(300), 2)])
            .with_delivery_trace()
            .run()
        };
        let r = run();
        assert!(r.completed, "the survivors finish the run without row 2");
        let (a, b, c) = (
            &r.delivery_trace[0],
            &r.delivery_trace[1],
            &r.delivery_trace[2],
        );
        assert_eq!(a, b, "the survivors deliver the same, epoch by epoch");
        assert!(a.iter().any(|d| d.0 == 1), "the run ends in epoch 1");
        assert_eq!(&a[..c.len()], &c[..], "the crashed row delivered a prefix");
        // Every message of the surviving senders (ranks 0 and 1 in both
        // epochs), and row 2's through the cut.
        assert_eq!(a.iter().filter(|d| d.2 < 2).count(), 1_000);
        assert_eq!(format!("{r:?}"), format!("{:?}", run()), "deterministic");
    }

    /// Subgroup 0 of all `n` rows, all sending; subgroup 1 of rows 0 and 1,
    /// row 0 sending.
    fn two_subgroups(n: usize) -> View {
        let all: Vec<usize> = (0..n).collect();
        ViewBuilder::new(n)
            .subgroup(&all, &all, 4, 64)
            .subgroup(&[0, 1], &[0], 4, 64)
            .build()
            .unwrap()
    }

    /// The view `row` is in at the end of a run: its id and each
    /// subgroup's members.
    fn installed(world: &SimWorld, row: usize) -> (u64, Vec<Vec<NodeId>>) {
        let view = world.nodes[row].shared.inner.lock().view.clone();
        let members = view.subgroups().iter().map(|sg| sg.members.clone());
        (view.id(), members.collect())
    }

    /// `row`'s report of its last view change.
    fn report(world: &SimWorld, row: usize) -> crate::threaded::ViewChangeReport {
        let report = world.nodes[row].shared.vc_report.lock().clone();
        report.unwrap_or_else(|| panic!("row {row} finished no view change"))
    }

    /// `row`'s deliveries of subgroup `g` in `epoch`.
    fn delivered(r: &RunReport, row: usize, epoch: u64, g: usize) -> Vec<(usize, u64)> {
        let trace = r.delivery_trace[row].iter();
        let of = trace.filter(|d| (d.0, d.1) == (epoch, g));
        of.map(|d| (d.2, d.3)).collect()
    }

    #[test]
    fn transition_on_the_virtual_clock_removes_a_crashed_row() {
        let ids = |ids: &[usize]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let mut resent = 0;
        for seed in 0..32 {
            let at = Duration::from_micros(20 + 7 * seed);
            let sc = SimCluster::new(
                two_subgroups(3),
                SpindleConfig::optimized(),
                Workload::new(200, 64),
            )
            .with_seed(seed)
            .with_faults(vec![crash(at, 2)])
            .with_delivery_trace();
            let world = sc.execute();
            let r = world.report();
            assert!(r.completed, "seed {seed}");
            for row in [0, 1] {
                let view = (1, vec![ids(&[0, 1]), ids(&[0, 1])]);
                assert_eq!(installed(&world, row), view, "seed {seed}");
            }
            let reports = [report(&world, 0), report(&world, 1)];
            assert_eq!(reports[0].epoch, 1, "seed {seed}");
            assert_eq!(
                reports[0].cuts, reports[1].cuts,
                "seed {seed}: identical cuts"
            );
            resent += reports[0].resent + reports[1].resent;
            for g in [0, 1] {
                let old = delivered(&r, 0, 0, g);
                assert_eq!(
                    old,
                    delivered(&r, 1, 0, g),
                    "seed {seed}: identical deliveries"
                );
            }
            for row in [0, 1] {
                assert!(!world.nodes[row].shared.wedged.load(Ordering::Acquire));
                // Every final delivery of epoch 0 came before the row
                // entered epoch 1.
                let epochs = r.delivery_trace[row].iter().map(|d| d.0);
                assert!(epochs.is_sorted(), "seed {seed}, row {row}");
            }
            assert!(world.killed(2), "seed {seed}");
        }
        assert!(resent > 0, "no sweep resent a message");
    }

    #[test]
    fn transition_on_the_virtual_clock_takes_over_from_a_leader_halted_at_propose() {
        let run = || {
            let halt = SimFault {
                at: Duration::ZERO,
                kind: SimFaultKind::HaltAt {
                    node: 0,
                    boundary: VcBoundary::Propose,
                },
            };
            let faults = vec![halt, crash(Duration::from_micros(100), 3)];
            let sc = SimCluster::new(
                two_subgroups(4),
                SpindleConfig::optimized(),
                Workload::new(100, 64),
            )
            .with_faults(faults)
            .with_delivery_trace();
            let world = sc.execute();
            let r = world.report();
            assert!(r.completed);
            let zero = &world.nodes[0].shared;
            assert!(zero.killed.load(Ordering::Acquire), "row 0 halted");
            assert_eq!(*zero.epochs.crashed.lock(), 1, "and recorded its halt");
            let ids = vec![NodeId(1), NodeId(2)];
            let view = (1, vec![ids, vec![NodeId(1)]]);
            assert_eq!(
                (installed(&world, 1), installed(&world, 2)),
                (view.clone(), view)
            );
            let (one, two) = (report(&world, 1), report(&world, 2));
            assert_eq!((one.epoch, &one.cuts), (two.epoch, &two.cuts));
            assert_eq!(delivered(&r, 1, 0, 0), delivered(&r, 2, 0, 0));
            assert!(
                delivered(&r, 2, 0, 1).is_empty(),
                "row 2 is not in subgroup 1"
            );
            format!("{r:?} {one:?} {two:?}")
        };
        assert_eq!(run(), run(), "the same schedule, the same reports");
    }

    #[test]
    fn pause_fault_delays_but_run_completes() {
        let view = small_view(3, 3, 8);
        let wl = Workload::new(100, 1024);
        let clean = SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone()).run();
        let paused = SimCluster::new(view, SpindleConfig::optimized(), wl)
            .with_faults(vec![SimFault {
                at: Duration::from_micros(100),
                kind: SimFaultKind::PausePredicate {
                    node: 1,
                    pause: Duration::from_millis(2),
                },
            }])
            .run();
        assert!(paused.completed, "pause must only delay, not wedge");
        assert!(paused.makespan > clean.makespan);
    }

    #[test]
    fn write_delay_fault_slows_the_run() {
        let view = small_view(3, 3, 16);
        let wl = Workload::new(200, 1024);
        let clean = SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone()).run();
        let slowed = SimCluster::new(view, SpindleConfig::optimized(), wl)
            .with_faults(vec![SimFault {
                at: Duration::ZERO,
                kind: SimFaultKind::DelayWrites {
                    node: 0,
                    extra: Duration::from_micros(20),
                },
            }])
            .run();
        assert!(slowed.completed);
        assert!(slowed.makespan > clean.makespan);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let view = small_view(3, 3, 8);
        let wl = Workload::new(150, 1024);
        let faults = vec![
            SimFault {
                at: Duration::from_micros(200),
                kind: SimFaultKind::PausePredicate {
                    node: 2,
                    pause: Duration::from_millis(1),
                },
            },
            SimFault {
                at: Duration::from_millis(4),
                kind: SimFaultKind::Crash { node: 1 },
            },
        ];
        let run = || {
            SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone())
                .with_seed(9)
                .with_faults(faults.clone())
                .with_delivery_trace()
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn delivery_trace_matches_counts_and_orders() {
        let view = small_view(3, 2, 16);
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(50, 512))
            .with_delivery_trace()
            .run();
        assert!(r.completed);
        assert_eq!(r.delivery_trace.len(), 3);
        for (n, trace) in r.delivery_trace.iter().enumerate() {
            assert_eq!(trace.len() as u64, r.nodes[n].delivered_msgs);
            // Per-sender FIFO within the trace.
            let mut next = [0u64; 2];
            for &(_, _, rank, idx) in trace {
                assert_eq!(idx, next[rank], "FIFO violated at node {n}");
                next[rank] += 1;
            }
        }
        // Identical total order everywhere.
        assert_eq!(r.delivery_trace[0], r.delivery_trace[1]);
        assert_eq!(r.delivery_trace[1], r.delivery_trace[2]);
    }

    #[test]
    fn sender_wait_dominates_baseline() {
        let view = small_view(4, 4, 16);
        let wl = Workload::new(300, 10 * 1024);
        let base = SimCluster::new(view, SpindleConfig::baseline(), wl).run();
        // §4.1.1: baseline senders wait most of the time for free buffers.
        assert!(
            base.sender_wait_share() > 0.5,
            "{}",
            base.sender_wait_share()
        );
    }
}
