//! The simulated cluster: a deterministic discrete-event runtime.
//!
//! Every simulated row is a real node: the node state the threaded runtime
//! enters an epoch with, over the row's region of one [`MemFabric`], and
//! every iteration of its predicate thread (§2.4) runs the threads' own
//! node pass. The simulator substitutes time, concurrency and I/O — a
//! virtual cluster that models exactly the resources the Spindle paper
//! optimizes:
//!
//! * **one predicate (polling) thread per node** (§2.4): where the threads
//!   copy each delivery out of its ring slot, the pass hands each
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
//! The engine places the writes a pass leaves at their virtual arrival
//! time. Counter writes carry their value as posted (DMA snapshot
//! semantics); slot writes read through to the owner's region, which is
//! sound because a ring slot is never rewritten before its current message
//! is delivered everywhere. Write arrivals per (source, destination) pair
//! preserve posting order, which is the RDMA fence the SST guard protocol
//! needs. Ring slots hold no payload words (wire sizes still follow the
//! logical message size), so large rings cost no memory.
//!
//! No heartbeat, detector or view change runs on the virtual clock: faults
//! are [`SimFault`]s, and a crash stalls or ends the run.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{MemFabric, NodeId};
use spindle_membership::View;
use spindle_obs::ObsPlane;
use spindle_sim::engine::Step;
use spindle_sim::{DetRng, Engine, Resource, SimTime};
use spindle_sst::Sst;

use crate::config::{DeliveryTiming, SenderActivity, SpindleConfig, Workload};
use crate::cost::CostModel;
use crate::metrics::{NodeMetrics, RunReport};
use crate::plan::Plan;
use crate::proto::{Pass, QueueOutcome, SubgroupProto};
use crate::threaded::{node_pass, Epochs, NodeInner, NodeShared, PassSink, ThreadState};

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
    /// The node halts silently: its predicate thread stops iterating, its
    /// application senders stop, and writes addressed to it are discarded.
    /// Writes it posted before the crash still land (they were on the
    /// wire). The run then typically stalls — stability needs every member
    /// — which is exactly the behavior membership exists to repair.
    Crash {
        /// The crashing node.
        node: usize,
    },
    /// The node's predicate thread stalls for `pause` while its application
    /// senders keep queueing — the §4.1.1 slow-receiver situation (windows
    /// fill, senders block) in isolation.
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
}

#[derive(Debug)]
enum Ev {
    /// One predicate-thread loop iteration at `node`.
    Iter { node: usize },
    /// A scheduled fault fires.
    Fault { kind: SimFaultKind },
    /// A write posted by `src` lands at `dst`.
    Arrive {
        src: usize,
        dst: usize,
        body: PostBody,
    },
    /// An application sender attempt at `node`, app handle `ai`.
    App { node: usize, ai: usize },
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
}

#[derive(Debug)]
struct AppState {
    proto_idx: usize,
    rank: usize,
    remaining: u64,
    activity: SenderActivity,
    blocked: bool,
    block_since: SimTime,
}

/// The simulator's [`PassSink`], one per row: where the threads copy each
/// delivery out of its ring slot, this charges a subgroup's outcome to the
/// cost model, in the order the predicates fired, and records the node's
/// metrics.
struct Charge<'a> {
    sc: &'a SimCluster,
    m: NodeMetrics,
    /// The CPU time of the body so far.
    busy: Duration,
    /// Whether a message was delivered or a null skipped, so a ring slot
    /// may have freed.
    any_delivery: bool,
    /// The pass's deliveries, each with `busy` at its upcall: `(busy,
    /// (subgroup, sender rank, app index), len)`.
    upcalls: Vec<(Duration, (usize, usize, u64), u32)>,
}

impl PassSink for Charge<'_> {
    fn subgroup(
        &mut self,
        _: &Sst,
        _: u64,
        _: usize,
        p: &SubgroupProto,
        pass: &Pass,
        _: &mut [Option<Instant>],
    ) {
        let (cost, cfg, workload) = (&self.sc.cost, &self.sc.cfg, &self.sc.workload);
        let (m, busy) = (&mut self.m, &mut self.busy);
        let (r, d) = (&pass.recv, &pass.deliver);
        let (sg, senders, window) = (p.sg.0, p.num_senders(), p.ring.window());
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
            self.upcalls
                .push((*busy, (sg, del.rank, del.app_index), del.len));
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
                self.upcalls
                    .push((*busy, (sg, del.rank, del.app_index), del.len));
            }
        }
        // One push operation per counter the pass publishes, whatever the
        // number of members it is posted to.
        let slot_ranges = pass.send.as_ref().map_or(0, |s| s.slot_ranges.len());
        m.push_ops += (pass.pushes().count() - slot_ranges) as u64;
    }
}

/// One simulated row: the real node and its thread's state, and what the
/// simulator substitutes for its threads, lock and NICs.
struct SimNode<'a> {
    shared: Arc<NodeShared<MemFabric>>,
    th: ThreadState<MemFabric, Charge<'a>>,
    apps: Vec<AppState>,
    lock: Resource,
    egress: Resource,
    ingress: Resource,
    pred_running: bool,
    idle_streak: u32,
    target: u64,
    done: bool,
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
    /// pauses, write throttling) into the run. Faults are part of the
    /// run description, so the same seed + faults reproduce the same
    /// virtual-time trace bit for bit.
    pub fn with_faults(mut self, faults: Vec<SimFault>) -> Self {
        self.faults = faults;
        self
    }

    /// Records every ordered delivery as `(subgroup, sender rank, app
    /// index)` per node into [`RunReport::delivery_trace`], for protocol
    /// oracles (total order, FIFO, atomic prefix agreement under faults).
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
        let mut world = SimWorld::build(self);
        let mut engine: Engine<Ev> = Engine::new();
        world.start(&mut engine);
        let deadline = self.deadline;
        engine.run(&mut world, deadline, |w, eng, _t, ev| w.handle(eng, ev));
        world.report()
    }
}

struct SimWorld<'a> {
    sc: &'a SimCluster,
    plan: Plan,
    /// The rows' regions.
    fabric: MemFabric,
    nodes: Vec<SimNode<'a>>,
    /// Queue timestamps: `ts[sg][rank][ring slot]`.
    ts: Vec<Vec<Vec<SimTime>>>,
    finish: Option<SimTime>,
    last_delivery: SimTime,
    done_nodes: usize,
    rng: DetRng,
    crashed: Vec<bool>,
    paused_until: Vec<SimTime>,
    extra_write_delay: Vec<Duration>,
    trace: Option<Vec<Vec<(usize, usize, u64)>>>,
}

impl<'a> SimWorld<'a> {
    fn build(sc: &'a SimCluster) -> SimWorld<'a> {
        let plan = Plan::build(&sc.view, false);
        let view = Arc::new(sc.view.clone());
        let n = view.members().len();
        let fabric = MemFabric::new(n, plan.layout.region_words());
        let obs = ObsPlane::new();
        let epochs = Epochs::new(Arc::clone(&view), fabric.clone());
        // No detector: nothing ever reports a suspicion.
        let suspicions = crossbeam::channel::unbounded().0;
        let mut nodes = Vec::with_capacity(n);
        for row in 0..n {
            let inner = NodeInner::enter_epoch(&view, &plan, row, fabric.clone(), &obs);
            let mut apps = Vec::new();
            let mut target = 0u64;
            for (proto_idx, p) in inner.protos.iter().enumerate() {
                let g = p.sg.0;
                // This node must deliver every offered message in the
                // subgroup from continuously active senders.
                for r in 0..p.num_senders() {
                    if sc.workload.activity(g, r) == SenderActivity::Continuous {
                        target += sc.workload.msgs_per_sender;
                    }
                }
                if let Some(rank) = p.my_sender_rank {
                    let activity = sc.workload.activity(g, rank);
                    if activity != SenderActivity::Inactive {
                        apps.push(AppState {
                            proto_idx,
                            rank,
                            remaining: sc.workload.msgs_per_sender,
                            activity,
                            blocked: false,
                            block_since: SimTime::ZERO,
                        });
                    }
                }
            }
            // A member of no subgroup has nothing to deliver.
            let done = inner.protos.is_empty();
            let charge = Charge {
                sc,
                m: NodeMetrics::new(),
                busy: Duration::ZERO,
                any_delivery: false,
                upcalls: Vec::new(),
            };
            let th = ThreadState::new(&inner, charge);
            let (shared, _) = NodeShared::new(inner, &suspicions, &obs, None, &epochs);
            nodes.push(SimNode {
                shared,
                th,
                apps,
                lock: Resource::new(),
                egress: Resource::new(),
                ingress: Resource::new(),
                pred_running: false,
                idle_streak: 0,
                target: target.max(1),
                done,
            });
        }
        let ts = sc
            .view
            .subgroups()
            .iter()
            .map(|sg| vec![vec![SimTime::ZERO; sg.window]; sg.num_senders()])
            .collect();
        SimWorld {
            sc,
            plan,
            fabric,
            done_nodes: nodes.iter().filter(|n| n.done).count(),
            nodes,
            ts,
            finish: None,
            last_delivery: SimTime::ZERO,
            rng: DetRng::seed(sc.seed),
            crashed: vec![false; n],
            paused_until: vec![SimTime::ZERO; n],
            extra_write_delay: vec![Duration::ZERO; n],
            trace: sc.trace.then(|| vec![Vec::new(); n]),
        }
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
    }

    /// Applies one scheduled fault at the current virtual time.
    fn fault(&mut self, eng: &mut Engine<Ev>, kind: SimFaultKind) {
        match kind {
            SimFaultKind::Crash { node } => {
                self.crashed[node] = true;
            }
            SimFaultKind::PausePredicate { node, pause } => {
                self.paused_until[node] = eng.now() + pause;
                // Make sure the thread notices the pause ending even if it
                // had quiesced and nothing else wakes it.
                self.wake(eng, node);
            }
            SimFaultKind::DelayWrites { node, extra } => {
                self.extra_write_delay[node] = extra;
            }
        }
    }

    fn handle(&mut self, eng: &mut Engine<Ev>, ev: Ev) -> Step {
        match ev {
            Ev::Iter { node } => self.iter(eng, node),
            Ev::Fault { kind } => {
                self.fault(eng, kind);
                Step::Continue
            }
            Ev::App { node, ai } => {
                if self.crashed[node] {
                    return Step::Continue;
                }
                self.app(eng, node, ai);
                Step::Continue
            }
            Ev::Arrive { src, dst, body } => {
                if self.crashed[dst] {
                    return Step::Continue;
                }
                match body {
                    PostBody::Slots(range) => {
                        let (to, from) = (self.fabric.region(NodeId(dst)), NodeId(src));
                        to.copy_range_from(self.fabric.region(from), range.start, range.len());
                    }
                    PostBody::Ctr {
                        word,
                        value,
                        deliv_ack,
                    } => {
                        self.fabric.region(NodeId(dst)).store(word, value);
                        if deliv_ack {
                            self.unblock_apps(eng, dst);
                        }
                    }
                }
                self.wake(eng, dst);
                Step::Continue
            }
        }
    }

    /// Wakes the predicate thread of `node` if it has quiesced (§2.4's
    /// doorbell).
    fn wake(&mut self, eng: &mut Engine<Ev>, node: usize) {
        if self.crashed[node] {
            return;
        }
        if !self.nodes[node].pred_running {
            self.nodes[node].pred_running = true;
            self.nodes[node].idle_streak = 0;
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
        let (sg, outcome) = {
            let inner = &mut *n.shared.inner.lock();
            let p = &mut inner.protos[n.apps[ai].proto_idx];
            (p.sg.0, p.try_queue_app(&inner.sst, msg_len, None))
        };
        match outcome {
            QueueOutcome::Queued { app_index, slot } => {
                let rank = n.apps[ai].rank;
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
                    self.count_delivery(eng.now(), node, (sg, rank, app_index), msg_len as u64);
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
                // Re-armed when delivery advances locally or a delivered_num
                // ack arrives.
            }
        }
    }

    /// Counts one app-message delivery `(subgroup, sender rank, app
    /// index)` of `bytes` at `node`: into the oracle trace, if enabled, and
    /// towards the completion target.
    fn count_delivery(&mut self, now: SimTime, node: usize, del: (usize, usize, u64), bytes: u64) {
        if let Some(t) = &mut self.trace {
            t[node].push(del);
        }
        let n = &mut self.nodes[node];
        let m = n.m();
        m.delivered_msgs += 1;
        m.delivered_bytes += bytes;
        let delivered = m.delivered_msgs;
        self.last_delivery = now;
        if !n.done && delivered >= n.target {
            n.done = true;
            self.done_nodes += 1;
            if self.done_nodes == self.nodes.len() {
                self.finish = Some(now);
            }
        }
    }

    /// What a write that `src`'s pass left is, read off the layout: ring
    /// slots of one subgroup, read through on arrival, or one counter, its
    /// value loaded now that the whole pass has run — the value the
    /// predicate that set it left, because the predicates of a pass write
    /// different columns. Returns the wire bytes, the ring slots the
    /// receiver places and the body.
    fn post_of(&self, src: usize, range: Range<usize>) -> (usize, usize, PostBody) {
        let rel = range.start - src * self.plan.layout.row_words();
        let ring = |s: &spindle_sst::SlotsCol| s.slots_range(0, s.count()).contains(&rel);
        if let Some(s) = self.plan.cols.iter().map(|c| c.slots).find(ring) {
            let slots = range.len() / s.slot_words();
            return (slots * s.wire_slot_bytes(), slots, PostBody::Slots(range));
        }
        debug_assert_eq!(range.len(), 1);
        let value = self.fabric.region(NodeId(src)).load(range.start);
        let deliv_ack = self
            .plan
            .cols
            .iter()
            .any(|c| c.deliv.word_range().start == rel);
        let word = range.start;
        let body = PostBody::Ctr {
            word,
            value,
            deliv_ack,
        };
        (8, 0, body)
    }

    /// One predicate-thread iteration at `node` (§2.4): the node pass,
    /// charged to the cost model as it runs, then its writes posted.
    fn iter(&mut self, eng: &mut Engine<Ev>, node: usize) -> Step {
        let now = eng.now();
        if self.crashed[node] {
            self.nodes[node].pred_running = false;
            return Step::Continue;
        }
        if now < self.paused_until[node] {
            // Predicate thread is stalled by a fault; resume at the end of
            // the pause window. `pred_running` stays true, so wake() never
            // schedules a second concurrent Iter for this node.
            let until = self.paused_until[node];
            eng.schedule_at(until, Ev::Iter { node });
            return Step::Continue;
        }
        let (sc, n) = (self.sc, &mut self.nodes[node]);
        n.th.sink.busy = sc.cost.iter_overhead;
        n.th.sink.any_delivery = false;
        let work = {
            let mut inner = n.shared.inner.lock();
            node_pass(&n.shared, &mut inner, &mut n.th, None, 0, &sc.cfg).work
        };
        let Charge {
            busy, any_delivery, ..
        } = n.th.sink;
        let mut upcalls = std::mem::take(&mut n.th.sink.upcalls);
        let mut posts = std::mem::take(&mut n.th.posts);

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
        for &(at, del @ (sg, rank, app_index), len) in &upcalls {
            let at = match sc.cfg.delivery_timing {
                DeliveryTiming::OnReceive => now + at,
                DeliveryTiming::Ordered => {
                    let ts = &self.ts[sg][rank];
                    let sent_at = ts[(app_index % ts.len() as u64) as usize];
                    let lat = upcall_time.saturating_since(sent_at);
                    let m = self.nodes[node].m();
                    m.latency.record(lat.as_secs_f64());
                    m.latency_samples.record(lat.as_secs_f64());
                    upcall_time
                }
            };
            self.count_delivery(at, node, del, len.into());
        }
        upcalls.clear();

        // Post writes sequentially after the body.
        let cost = &sc.cost;
        let mut t_post = body_start + busy;
        for (i, op) in posts.drain(..).enumerate() {
            t_post += if i == 0 {
                cost.net.post_cost
            } else {
                cost.post_next
            };
            let (wire, slots, body) = self.post_of(node, op.range);
            let dst = op.dst.0;
            let eg = self.nodes[node]
                .egress
                .acquire(t_post, cost.egress_time(wire));
            // Fault-injected throttling: a constant per-source stall keeps
            // per-(source, destination) arrival order intact.
            let at_dst = eg.end + cost.net.fixed_latency + self.extra_write_delay[node];
            let ig = self.nodes[dst]
                .ingress
                .acquire(at_dst, cost.ingress_time(wire, slots));
            self.nodes[node].m().writes_posted += 1;
            eng.schedule_at(
                ig.end,
                Ev::Arrive {
                    src: node,
                    dst,
                    body,
                },
            );
        }
        let n = &mut self.nodes[node];
        (n.th.posts, n.th.sink.upcalls) = (posts, upcalls);
        n.m().post_time += post_time;

        if any_delivery {
            self.unblock_apps(eng, node);
        }
        if self.finish.is_some() {
            return Step::Stop;
        }

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

    #[test]
    fn crash_fault_stalls_but_preserves_prefix_agreement() {
        let view = small_view(3, 3, 8);
        let r = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(500, 1024))
            .with_faults(vec![SimFault {
                at: Duration::from_micros(300),
                kind: SimFaultKind::Crash { node: 2 },
            }])
            .with_delivery_trace()
            .run();
        // Stability needs all three members: the run cannot complete.
        assert!(!r.completed);
        // Survivors' delivery traces are prefix-comparable (total order).
        let a = &r.delivery_trace[0];
        let b = &r.delivery_trace[1];
        let common = a.len().min(b.len());
        assert_eq!(&a[..common], &b[..common]);
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
            for &(_, rank, idx) in trace {
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
