//! The simulated cluster: a deterministic discrete-event runtime.
//!
//! This runtime runs the real protocol pass — the same
//! [`SubgroupProto::pass`] and [`Pass::pushes`](crate::proto::Pass::pushes)
//! the threaded runtime calls — and substitutes only time, the node lock and
//! the NICs' egress and ingress: a virtual cluster that models exactly the
//! resources the Spindle paper optimizes:
//!
//! * **one predicate (polling) thread per node** (§2.4) that evaluates all
//!   subgroups' predicates in a loop, pays ~1 µs of CPU per posted RDMA
//!   work request (§3.2), quiesces when idle and is woken by incoming
//!   writes (the doorbell);
//! * **application sender threads** that acquire ring slots under the
//!   shared per-node lock — held across posting in the baseline, released
//!   before posting with the §3.4 optimization;
//! * **NICs**: per-node egress and ingress links serialized at 12.5 GB/s
//!   with a per-write overhead, plus the flat propagation latency of
//!   Figure 1.
//!
//! Counter writes carry their value as posted (DMA snapshot semantics);
//! slot writes read through to the owner's memory, which is sound because a
//! ring slot is never rewritten before its current message is delivered
//! everywhere. Write arrivals per (source, destination) pair preserve
//! posting order, which is the RDMA fence the SST guard protocol needs.

use std::ops::Range;
use std::time::Duration;

use spindle_membership::{SubgroupId, View};
use spindle_sim::engine::Step;
use spindle_sim::{DetRng, Engine, Resource, SimTime};
use spindle_sst::Sst;

use crate::config::{DeliveryTiming, SenderActivity, SpindleConfig, Workload};
use crate::cost::CostModel;
use crate::metrics::{NodeMetrics, RunReport};
use crate::plan::Plan;
use crate::proto::{PushKind, QueueOutcome, SubgroupProto};

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
#[derive(Debug, Clone)]
enum PostBody {
    /// Slot words, read through from the source's region on arrival.
    Slots(Range<usize>),
    /// A counter, its value snapshotted at post time.
    Ctr {
        word: usize,
        value: u64,
        kind: PushKind,
    },
}

#[derive(Debug)]
struct Post {
    dst: usize,
    wire: usize,
    /// Ring slots carried (receiver-side placement cost), 0 for counters.
    slots: usize,
    body: PostBody,
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

#[derive(Debug)]
struct SimNode {
    sst: Sst,
    protos: Vec<SubgroupProto>,
    apps: Vec<AppState>,
    lock: Resource,
    egress: Resource,
    ingress: Resource,
    pred_running: bool,
    idle_streak: u32,
    target: u64,
    done: bool,
    m: NodeMetrics,
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
        world.report(engine.now())
    }
}

struct SimWorld {
    cfg: SpindleConfig,
    workload: Workload,
    cost: CostModel,
    nodes: Vec<SimNode>,
    /// Queue timestamps: `ts[sg][rank][app_index % w]`.
    ts: Vec<Vec<Vec<SimTime>>>,
    windows: Vec<usize>,
    finish: Option<SimTime>,
    last_delivery: SimTime,
    done_nodes: usize,
    rng: DetRng,
    faults: Vec<SimFault>,
    crashed: Vec<bool>,
    paused_until: Vec<SimTime>,
    extra_write_delay: Vec<Duration>,
    trace: Option<Vec<Vec<(usize, usize, u64)>>>,
}

impl SimWorld {
    fn build(sc: &SimCluster) -> SimWorld {
        let plan = Plan::build(&sc.view, false);
        let n = sc.view.members().len();
        let mut nodes = Vec::with_capacity(n);
        for row in 0..n {
            let region =
                std::sync::Arc::new(spindle_fabric::Region::new(plan.layout.region_words()));
            let sst = Sst::new(plan.layout.clone(), region, row);
            sst.init();
            let mut protos = Vec::new();
            let mut apps = Vec::new();
            let mut target = 0u64;
            for (g, sg) in sc.view.subgroups().iter().enumerate() {
                if sg.member_rank(spindle_fabric::NodeId(row)).is_none() {
                    continue;
                }
                let proto = SubgroupProto::new(&sc.view, SubgroupId(g), plan.cols[g], row);
                // This node must deliver every offered message in the
                // subgroup from continuously active senders.
                for r in 0..sg.num_senders() {
                    if sc.workload.activity(g, r) == SenderActivity::Continuous {
                        target += sc.workload.msgs_per_sender;
                    }
                }
                if let Some(rank) = proto.my_sender_rank {
                    let activity = sc.workload.activity(g, rank);
                    if activity != SenderActivity::Inactive {
                        apps.push(AppState {
                            proto_idx: protos.len(),
                            rank,
                            remaining: sc.workload.msgs_per_sender,
                            activity,
                            blocked: false,
                            block_since: SimTime::ZERO,
                        });
                    }
                }
                protos.push(proto);
            }
            nodes.push(SimNode {
                sst,
                protos,
                apps,
                lock: Resource::new(),
                egress: Resource::new(),
                ingress: Resource::new(),
                pred_running: false,
                idle_streak: 0,
                target: target.max(1),
                done: false,
                m: NodeMetrics::new(),
            });
        }
        let ts = sc
            .view
            .subgroups()
            .iter()
            .map(|sg| vec![vec![SimTime::ZERO; sg.window]; sg.num_senders()])
            .collect();
        let windows = sc.view.subgroups().iter().map(|sg| sg.window).collect();
        SimWorld {
            cfg: sc.cfg.clone(),
            workload: sc.workload.clone(),
            cost: sc.cost.clone(),
            nodes,
            ts,
            windows,
            finish: None,
            last_delivery: SimTime::ZERO,
            done_nodes: 0,
            rng: DetRng::seed(sc.seed),
            faults: sc.faults.clone(),
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
        for f in self.faults.clone() {
            eng.schedule_at(SimTime::ZERO + f.at, Ev::Fault { kind: f.kind });
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
                        let src_region = self.nodes[src].sst.region().clone();
                        self.nodes[dst].sst.region().copy_range_from(
                            &src_region,
                            range.start,
                            range.len(),
                        );
                    }
                    PostBody::Ctr { word, value, kind } => {
                        self.nodes[dst].sst.region().store(word, value);
                        if kind == PushKind::DelivAck {
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
            eng.schedule_in(self.cost.wake_latency, Ev::Iter { node });
        }
    }

    /// Re-arms any window-blocked application senders at `node`.
    fn unblock_apps(&mut self, eng: &mut Engine<Ev>, node: usize) {
        let now = eng.now();
        for ai in 0..self.nodes[node].apps.len() {
            let a = &mut self.nodes[node].apps[ai];
            if a.blocked && a.remaining > 0 {
                a.blocked = false;
                let waited = now.saturating_since(a.block_since);
                self.nodes[node].m.sender_wait += waited;
                eng.schedule_in(Duration::from_nanos(50), Ev::App { node, ai });
            }
        }
    }

    /// One application send attempt.
    fn app(&mut self, eng: &mut Engine<Ev>, node: usize, ai: usize) {
        let now = eng.now();
        if self.nodes[node].apps[ai].remaining == 0 {
            return;
        }
        let proto_idx = self.nodes[node].apps[ai].proto_idx;
        let sst = self.nodes[node].sst.clone();
        let msg_len = self.workload.msg_size as u32;
        // Slot acquisition + header publish run under the shared lock; when
        // the predicate body holds it across posting (no early release),
        // this is where senders stall (§3.4).
        let grant = self.nodes[node].lock.acquire(now, self.cost.app_cs);
        let outcome = self.nodes[node].protos[proto_idx].try_queue_app(&sst, msg_len, None);
        match outcome {
            QueueOutcome::Queued {
                app_index, round, ..
            } => {
                let _ = round;
                let p = &self.nodes[node].protos[proto_idx];
                let sg = p.sg.0;
                let rank = self.nodes[node].apps[ai].rank;
                let w = self.windows[sg];
                let t_eff = grant.end;
                self.ts[sg][rank][(app_index % w as u64) as usize] = t_eff;
                let a = &mut self.nodes[node].apps[ai];
                a.remaining -= 1;
                if a.blocked {
                    a.blocked = false;
                    let since = a.block_since;
                    self.nodes[node].m.sender_wait += now.saturating_since(since);
                }
                self.nodes[node].m.app_sent += 1;
                // Unordered QoS counts own messages at queue time.
                if self.cfg.delivery_timing == DeliveryTiming::OnReceive {
                    self.count_delivery(eng.now(), node, (sg, rank, app_index), msg_len as u64);
                }
                // In-place construction pays the fixed per-message cost;
                // copying from an external buffer (§4.4) adds the memcpy.
                let mut construct = self.cost.app_per_msg;
                if self.workload.memcpy_on_send {
                    construct += self.cost.memcpy.copy_time(msg_len as usize);
                }
                let a_state = &self.nodes[node].apps[ai];
                let delay = match a_state.activity {
                    SenderActivity::Continuous => Duration::ZERO,
                    SenderActivity::DelayEach(d) => d,
                    SenderActivity::Bursty { burst, pause } => {
                        let sent = self.workload.msgs_per_sender - a_state.remaining;
                        if burst > 0 && sent.is_multiple_of(burst) {
                            pause
                        } else {
                            Duration::ZERO
                        }
                    }
                    SenderActivity::Inactive => unreachable!("inactive senders have no app"),
                };
                if self.nodes[node].apps[ai].remaining > 0 {
                    eng.schedule_at(t_eff + construct + delay, Ev::App { node, ai });
                }
                self.wake(eng, node);
            }
            QueueOutcome::WindowFull => {
                let a = &mut self.nodes[node].apps[ai];
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
        n.m.delivered_msgs += 1;
        n.m.delivered_bytes += bytes;
        self.last_delivery = now;
        if !n.done && n.m.delivered_msgs >= n.target {
            n.done = true;
            self.done_nodes += 1;
            if self.done_nodes == self.nodes.len() {
                self.finish = Some(now);
            }
        }
    }

    /// One predicate-thread iteration at `node` (§2.4): one protocol pass
    /// per subgroup, charged to the cost model, then the accumulated RDMA
    /// writes posted.
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
        let cfg = self.cfg.clone();
        let cost = self.cost.clone();
        let sst = self.nodes[node].sst.clone();
        let mut busy = cost.iter_overhead;
        let mut posts: Vec<Post> = Vec::new();
        let mut work = false;
        let mut any_delivery = false;
        // Ordered deliveries, counted after the loop at the upcall time:
        // (sg, rank, app_index, len).
        let mut delivered: Vec<(usize, usize, u64, u32)> = Vec::new();

        for pi in 0..self.nodes[node].protos.len() {
            let p = &mut self.nodes[node].protos[pi];
            let pass = p.pass(&sst, &cfg);
            let (r, d) = (&pass.recv, &pass.deliver);
            let (sg, senders, window) = (p.sg.0, p.num_senders(), p.ring.window());
            let members = p.member_rows.len() as u32;
            work |= pass.work();
            // The cost model, charged in the order the predicates fired:
            // an unordered upcall is counted at `now + busy` partway through.
            busy += cost.sg_eval + cost.probe_per_sender * senders as u32;
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
            busy += cost.scan_per_slot * scanned as u32;
            let m = &mut self.nodes[node].m;
            if r.new_rounds > 0 {
                busy += (cost.recv_per_msg + cost.scan_per_slot) * r.new_rounds as u32;
                m.recv_batch.record(r.new_rounds);
            }
            m.nulls_sent += r.nulls_added;
            for del in &r.new_app {
                busy += cost.upcall_base + self.workload.upcall_cost;
                if self.workload.memcpy_on_delivery {
                    busy += cost.memcpy.copy_time(del.len as usize);
                }
                let key = (sg, del.rank, del.app_index);
                self.count_delivery(now + busy, node, key, del.len as u64);
            }
            let m = &mut self.nodes[node].m;
            if let Some(s) = pass.send.as_ref().filter(|s| s.app_msgs > 0) {
                busy += cost.send_per_msg * s.app_msgs as u32;
                m.send_batch.record(s.app_msgs);
                m.push_ops += 1;
            }
            busy += cost.deliv_eval_per_member * members;
            any_delivery |= !d.deliveries.is_empty() || d.nulls_skipped > 0;
            if !d.deliveries.is_empty() {
                let n = d.deliveries.len() as u32;
                m.deliv_batch.record(n as u64);
                busy += (cost.deliv_per_msg + cost.upcall_base) * n;
            }
            m.nulls_skipped += d.nulls_skipped;
            for del in &d.deliveries {
                busy += self.workload.upcall_cost;
                if self.workload.memcpy_on_delivery {
                    busy += cost.memcpy.copy_time(del.len as usize);
                }
                if cfg.delivery_timing == DeliveryTiming::Ordered {
                    delivered.push((sg, del.rank, del.app_index, del.len));
                }
            }

            // The writes, in the pass's order, each to every other member.
            // A counter write carries the value its word holds after the
            // whole pass rather than right after the predicate that set it:
            // the same value, because the three predicates write three
            // different columns (recv, committed, deliv), so no pushed word
            // is rewritten later in the pass.
            let SimNode { protos, m, .. } = &mut self.nodes[node];
            let p = &protos[pi];
            for (range, kind) in pass.pushes() {
                let (wire, slots, body) = if kind == PushKind::Slots {
                    let slots = range.len() / p.cols.slots.slot_words();
                    let wire = slots * p.cols.slots.wire_slot_bytes();
                    (wire, slots, PostBody::Slots(range))
                } else {
                    debug_assert_eq!(range.len(), 1);
                    m.push_ops += 1;
                    let (word, value) = (range.start, sst.region().load(range.start));
                    (8, 0, PostBody::Ctr { word, value, kind })
                };
                for &dst in p.member_rows.iter().filter(|&&row| row != node) {
                    posts.push(Post {
                        dst,
                        wire,
                        slots,
                        body: body.clone(),
                    });
                }
            }
        }

        // --- finalize the body: lock, posting, metrics ---
        let post_time = cost.post_time(posts.len());
        let hold = if cfg.early_lock_release {
            busy
        } else {
            busy + post_time
        };
        let grant = self.nodes[node].lock.acquire(now, hold);
        let body_start = grant.start;

        // Deliveries count at the (approximate) upcall time.
        let upcall_time = body_start + busy;
        for (sg, rank, app_index, len) in delivered {
            let w = self.windows[sg];
            let sent_at = self.ts[sg][rank][(app_index % w as u64) as usize];
            let lat = upcall_time.saturating_since(sent_at);
            self.nodes[node].m.latency.record(lat.as_secs_f64());
            self.nodes[node].m.latency_samples.record(lat.as_secs_f64());
            self.count_delivery(upcall_time, node, (sg, rank, app_index), len as u64);
        }

        // Post writes sequentially after the body.
        let mut t_post = body_start + busy;
        for (i, post) in posts.into_iter().enumerate() {
            t_post += if i == 0 {
                cost.net.post_cost
            } else {
                cost.post_next
            };
            let eg = self.nodes[node]
                .egress
                .acquire(t_post, cost.egress_time(post.wire));
            // Fault-injected throttling: a constant per-source stall keeps
            // per-(source, destination) arrival order intact.
            let at_dst = eg.end + cost.net.fixed_latency + self.extra_write_delay[node];
            let ig = self.nodes[post.dst]
                .ingress
                .acquire(at_dst, cost.ingress_time(post.wire, post.slots));
            self.nodes[node].m.writes_posted += 1;
            let (src, dst, body) = (node, post.dst, post.body);
            eng.schedule_at(ig.end, Ev::Arrive { src, dst, body });
        }
        self.nodes[node].m.post_time += post_time;

        if any_delivery {
            self.unblock_apps(eng, node);
        }
        if self.finish.is_some() {
            return Step::Stop;
        }

        // Schedule the next iteration or quiesce.
        if work {
            self.nodes[node].idle_streak = 0;
        } else {
            self.nodes[node].idle_streak += 1;
        }
        let t_end = body_start + busy + post_time + cost.iter_gap;
        if self.nodes[node].idle_streak < cost.quiesce_after {
            self.nodes[node].pred_running = true;
            eng.schedule_at(t_end, Ev::Iter { node });
        } else {
            self.nodes[node].pred_running = false;
        }
        Step::Continue
    }

    fn report(&self, now: SimTime) -> RunReport {
        let makespan = match self.finish {
            Some(t) => t.saturating_since(SimTime::ZERO),
            None => {
                let _ = now;
                self.last_delivery.saturating_since(SimTime::ZERO)
            }
        };
        RunReport {
            nodes: self.nodes.iter().map(|n| n.m.clone()).collect(),
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
