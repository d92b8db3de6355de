//! The per-node polling loop (§2.4) and the path every delivery takes out
//! of it: one builder of a [`Delivered`], one publisher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{Fabric, NodeId, WriteOp};
use spindle_membership::reconfig::{self, PLANNED_BIT};
use spindle_membership::{SeqNum, SubgroupId};
use spindle_obs::ObsPlane;
use spindle_sst::{CounterCol, Sst};

use super::api::Delivered;
use super::distributed::view_change;
use super::node::{ops_to, NodeInner, NodeShared};
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::{DetectorConfig, HeartbeatTicker};
use crate::proto::{Delivery, SubgroupProto};

/// The registry handles of one `(node, epoch)`'s deliveries: once resolved,
/// a batch costs two relaxed atomic adds (plus one histogram record per
/// delivery that completes one of this node's own sends).
struct EpochObs {
    delivered: spindle_obs::Counter,
    bytes: spindle_obs::Counter,
    latency: spindle_obs::LogHistogram,
}

impl EpochObs {
    fn new(obs: &ObsPlane, row: usize, epoch: u64) -> Self {
        let node = row.to_string();
        let ep = epoch.to_string();
        let labels = [("node", node.as_str()), ("epoch", ep.as_str())];
        let reg = obs.registry();
        EpochObs {
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
        }
    }
}

/// One timed sleep of a predicate thread that has nothing to do: the one
/// quantum the idle ladder takes before it parks ([`IdleLadder`]), and the
/// polling interval of a [`paused`](NodeShared::paused) row. 50 µs asked
/// for is 105–120 µs slept on the benchmark host: the kernel adds the
/// thread's default 50 µs timer slack to every `nanosleep`.
const IDLE_QUANTUM: Duration = Duration::from_micros(50);

/// Passes without work before the ladder leaves its spin rung.
const IDLE_SPINS: u32 = 64;

/// The longest a thread parks on its doorbell. What does not ring — `stop`,
/// [`killed`](NodeShared::killed), [`paused`](NodeShared::paused), a closed
/// handle — is seen this late at worst; with a detector the time to the next
/// heartbeat is the timeout when that is sooner. Measured on the 2-core
/// host: at 1 ms an idle 3-node cluster wakes ≈ 900×/s per thread and burns
/// 62 ms of CPU a second (the 50 µs sleep loop this replaces: ≈ 8 500×/s,
/// 310 ms), and shutting a parked cluster down takes 1.3 ms at worst.
const PARK_CAP: Duration = Duration::from_millis(1);

/// What a predicate thread does between one pass and the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Idle {
    /// Go round again at once.
    Spin,
    /// Sleep one [`IDLE_QUANTUM`] on the timer.
    Sleep,
    /// Arm the replica's doorbell ([`Region::arm`]); the next pass is the
    /// handshake's "look once more".
    ///
    /// [`Region::arm`]: spindle_fabric::Region::arm
    Arm,
    /// That look found nothing: park until a write rings or the timeout.
    Park,
}

/// The idle ladder of a predicate thread (§2.4: the thread quiesces when it
/// has no work and a doorbell wakes it): **spin** [`IDLE_SPINS`] passes →
/// **one** timed [`IDLE_QUANTUM`] → **arm** the doorbell → one more full
/// pass → **park** until the write that gives it work rings
/// ([`Region::ring`]: a peer's post, the TCP poller's mirror apply, a local
/// `try_send`, a view-change trigger). A pass that finds work puts it back
/// on the first rung; a park that ends without work re-arms and parks
/// again, without another timed sleep.
///
/// So the first hop of a message that finds the cluster idle costs one
/// wake-up (≈ 40–60 µs into an idle vCPU) instead of the rest of a 50 µs
/// sleep that really lasts ≈ 105 µs. The timed quantum between spinning and
/// parking stays on purpose — it is what a thread takes *inside* a
/// message's chain, after its own hop, and at saturation it is what
/// coalesces wake-ups. Measured on the 2-core host with the repo benchmark
/// (ISSUE 24; paced `lat_p50_us` on `mem_small`, 272 µs with the sleep
/// loop, ≈ 200 µs with this ladder): parking straight after the spins gave
/// 120 µs but `cpu_us_per_msg` 2.27 → 3.76 (+65 %) — every post wakes a
/// peer, batches shrink, and each wake pays 64 idle passes and two futex
/// calls; falling back to timed sleeps only after 8 consecutive short parks
/// gave 110–127 µs but cost `tcp_1k` 21 % of its goodput and 31–41 % more
/// CPU per message, seven threads churning on two cores.
///
/// A pure state machine — one [`IdleLadder::next`] per pass — so its order
/// is tested without threads.
///
/// [`Region::ring`]: spindle_fabric::Region::ring
#[derive(Debug, Default)]
struct IdleLadder {
    /// Consecutive passes without work, held at the sleep rung once the
    /// thread has parked.
    idle: u32,
}

impl IdleLadder {
    /// The step after a pass that did (`work`) or did not find work.
    fn next(&mut self, work: bool) -> Idle {
        if work {
            self.idle = 0;
            return Idle::Spin;
        }
        self.idle += 1;
        match self.idle.saturating_sub(IDLE_SPINS) {
            0 => Idle::Spin,
            1 => Idle::Sleep,
            2 => Idle::Arm,
            _ => {
                // Back to where the next idle pass re-arms.
                self.idle = IDLE_SPINS + 1;
                Idle::Park
            }
        }
    }
}

/// `spindle_predicate_waits_total{node, kind}`: how often this node's
/// predicate thread blocked, by what it blocked on or what ended it —
/// `timer` (a timed [`IDLE_QUANTUM`]), `rung` (a park ended by a write's
/// ring), `timeout` (a park that ran to its timeout). Resolved once per
/// thread; bumped only on the idle ladder, never on a pass that found work.
struct WaitCounters {
    timer: spindle_obs::Counter,
    rung: spindle_obs::Counter,
    timeout: spindle_obs::Counter,
}

impl WaitCounters {
    fn new(obs: &ObsPlane, row: usize) -> Self {
        let node = row.to_string();
        let kind = |kind| {
            obs.registry().counter(
                spindle_obs::names::PREDICATE_WAITS,
                "Times a predicate thread blocked: a timed idle quantum (timer), a doorbell \
                 park ended by a write (rung) or by its timeout (timeout)",
                &[("node", node.as_str()), ("kind", kind)],
            )
        };
        WaitCounters {
            timer: kind("timer"),
            rung: kind("rung"),
            timeout: kind("timeout"),
        }
    }
}

/// The deliveries of one pass over a node's protocol state and, beside
/// each, when this node queued it: `Some` for its own sends only — the
/// start of the delivery-latency sample [`ThreadState::publish`] records.
#[derive(Default)]
struct Batch {
    delivered: Vec<Delivered>,
    queued_at: Vec<Option<Instant>>,
}

impl Batch {
    /// Materializes a delivery: copies its payload out of the sender's ring
    /// slot (the pragmatic §3.5 option 2) and, when the sender is this
    /// node, takes the slot's entry of `stamps` — the subgroup's part of
    /// [`NodeInner::queued_at`], under the node lock the caller holds.
    ///
    /// The copy stays under that lock on purpose. By now the delivery
    /// predicate has advanced this row's `delivered_num`, so once the lock
    /// is released a `try_send` on this node may pass `try_queue_app`'s
    /// `min_delivered` check and rewrite this node's *own* slot while it is
    /// being copied out — a torn read the header-last layout does not
    /// cover. One bulk [`Sst::read_slot_with_len`] holds the lock for about
    /// half a microsecond per 10 KiB, so the hold is not worth that risk.
    ///
    /// Unordered deliveries ([`DeliveryTiming::OnReceive`]) are copied after
    /// the whole [`SubgroupProto::pass`], so after the send and delivery
    /// predicates too. That is still in time: the copy is under the node
    /// lock and before any of the pass's posts leave, so no sender has seen
    /// the `delivered_num` ack that would let it reuse the slot.
    fn push(
        &mut self,
        sst: &Sst,
        p: &SubgroupProto,
        stamps: &mut [Option<Instant>],
        epoch: u64,
        del: &Delivery,
    ) {
        self.delivered.push(Delivered {
            epoch,
            subgroup: p.sg,
            sender_rank: del.rank,
            app_index: del.app_index,
            seq: del.seq,
            data: sst.read_slot_with_len(
                p.cols.slots,
                p.sender_rows[del.rank],
                del.slot,
                del.len as usize,
            ),
        });
        self.queued_at.push(if p.my_sender_rank == Some(del.rank) {
            stamps[del.slot].take()
        } else {
            None
        });
    }
}

/// What a pass needs of the epoch its node is in and can keep outside the
/// node lock: handles and row lists that change only when an epoch is
/// installed, cloned out of [`NodeInner`] once per epoch rather than once
/// per pass (the `Arc`s behind `sst` and `fabric` are shared by every row
/// of the process, so a clone is a write to a line all predicate threads
/// touch).
pub(super) struct EpochLocal<F> {
    pub(super) epoch: u64,
    pub(super) sst: Sst,
    pub(super) fabric: F,
    /// [`NodeInner::hb_peers`], and so the install barrier's other parties.
    pub(super) hb_peers: Vec<usize>,
    /// [`SubgroupProto::member_rows`] of each entry of `NodeInner::protos`.
    members: Vec<Vec<usize>>,
    /// Resolved at the epoch's first batch of deliveries.
    obs: Option<EpochObs>,
}

impl<F: Fabric> EpochLocal<F> {
    /// The epoch of a row this process hosts.
    pub(super) fn of(inner: &NodeInner<F>) -> Self {
        EpochLocal {
            epoch: inner.view.id(),
            sst: inner.sst.clone(),
            fabric: inner.fabric.clone().expect("a hosted row has a fabric"),
            hb_peers: inner.hb_peers.clone(),
            members: inner.protos.iter().map(|p| p.member_rows.clone()).collect(),
            obs: None,
        }
    }
}

/// What a predicate thread owns for its whole life and lends to the
/// view-change driver it runs: the epoch's handles, its one heartbeat, and
/// one pass's scratch, emptied by the caller of the pass that filled it.
pub(super) struct ThreadState<F> {
    pub(super) local: EpochLocal<F>,
    /// Only with a detector. Carried from epoch to epoch, so the value the
    /// peers see never regresses — a regressed counter reads as silence.
    pub(super) ticker: Option<HeartbeatTicker>,
    /// The writes, in posting order: posted after the node lock is released
    /// (§3.4) or under it (baseline).
    posts: Vec<WriteOp>,
    batch: Batch,
    /// `(index into protos, persisted_num column, highest seq)` of each
    /// subgroup that delivered, for the frontier to advance once the durable
    /// log holds the batch; `None` unless the row logs ordered deliveries.
    persist_work: Option<Vec<(usize, CounterCol, SeqNum)>>,
}

impl<F: Fabric> ThreadState<F> {
    /// The state of a thread starting at `now` in the epoch `inner` holds,
    /// of a row that `logs` its ordered deliveries to a durable log or not.
    fn new(inner: &NodeInner<F>, det: &Option<DetectorConfig>, logs: bool, now: Instant) -> Self {
        let mut th = ThreadState {
            local: EpochLocal::of(inner),
            ticker: det.as_ref().map(|dc| HeartbeatTicker::new(dc, now)),
            posts: Vec::new(),
            batch: Batch::default(),
            persist_work: logs.then(Vec::new),
        };
        th.watch(1, now);
        th
    }

    /// Has the heartbeat, if any, watch this epoch's peers from `now`, a peer
    /// suspected after `leash` detector timeouts (3 in an install barrier).
    pub(super) fn watch(&mut self, leash: u32, now: Instant) {
        if let Some(ticker) = &mut self.ticker {
            ticker.watch(&self.local.hb_peers, leash, now);
        }
    }

    /// Hands the pass's batch to the application — leaving it empty, its
    /// capacity kept for the next pass — and publishes it into the live
    /// registry: the delivery-latency sample of each delivery that completes
    /// a send queued by this node's
    /// [`NodeHandle::try_send`](super::NodeHandle::try_send) — recorded here,
    /// after the durable append and outside the node lock its senders wait
    /// on — then the per-epoch message and byte counters, once for the whole
    /// batch (a batch is one pass, so one epoch).
    ///
    /// Every [`NodeShared::deliveries`] send happens here, one `send_all` per
    /// batch — one channel lock, and a wake only if the application is
    /// blocked in a receive — paired per batch with its counter update, so
    /// the counter equals the drained stream length by construction (the
    /// harness counter-consistency oracle pins this).
    fn publish(&mut self, shared: &NodeShared<F>) {
        let (batch, local) = (&mut self.batch, &mut self.local);
        if batch.delivered.is_empty() {
            return;
        }
        debug_assert!(
            batch.delivered.iter().all(|d| d.epoch == local.epoch),
            "a delivery batch spans epochs"
        );
        let (obs, row) = (&mut local.obs, local.sst.own_row());
        let h = obs.get_or_insert_with(|| EpochObs::new(&shared.obs, row, local.epoch));
        let mut bytes = 0;
        for (d, queued_at) in batch.delivered.iter().zip(batch.queued_at.drain(..)) {
            bytes += d.data.len() as u64;
            if let Some(t0) = queued_at {
                h.latency.record(t0.elapsed().as_nanos() as u64);
            }
        }
        h.delivered.add(batch.delivered.len() as u64);
        h.bytes.add(bytes);
        // Receiver may have hung up (handle dropped); that's fine.
        let _ = shared.deliveries.send_all(batch.delivered.drain(..));
    }
}

/// What one [`node_pass`] found.
struct NodeStep {
    /// Whether any subgroup's pass did something: the idle ladder's input.
    work: bool,
    /// Suspicion bits that must start a transition after this pass.
    vc_bits: u64,
    /// The peers the heartbeat just found silent, each reported once.
    suspects: Vec<usize>,
}

/// One iteration's protocol work for the node `inner` holds (§2.4; in
/// Derecho the same loop carries the SST heartbeat): the transition bits —
/// `trigger`, swapped out of [`NodeShared::vc_trigger`], and the peers'
/// suspicion column, masked to this epoch's rows and [`PLANNED_BIT`] — then
/// the heartbeat's turn at `now`, then every subgroup's
/// [`SubgroupProto::pass`] into the thread's scratch, the writes after the
/// heartbeat's. It takes no lock, reads no clock (the caller reads `now`
/// only for a heartbeat), and posts and sends nothing: the caller holds the
/// lock, convicts the suspects and posts, so a driver with a discrete clock
/// and no threads runs the same pass.
fn node_pass<F: Fabric>(
    inner: &mut NodeInner<F>,
    th: &mut ThreadState<F>,
    now: Option<Instant>,
    trigger: u64,
    cfg: &SpindleConfig,
) -> NodeStep {
    let local = &th.local;
    let (sst, peers) = (&local.sst, &local.hb_peers);
    let row = sst.own_row();
    let mut vc_bits = trigger;
    for &peer in peers {
        vc_bits |= sst.counter(inner.reconfig.suspected, peer) as u64;
    }
    if vc_bits != 0 {
        vc_bits &= reconfig::bits_of(peers.iter().copied().chain([row])) | PLANNED_BIT;
    }
    let mut suspects = Vec::new();
    if let (Some(ticker), Some(now)) = (&mut th.ticker, now) {
        suspects = ticker.tick(now, sst, inner.heartbeat_col, &mut |range| {
            th.posts.extend(ops_to(peers, row, range))
        });
    }
    let mut work = false;
    let stamps = inner.queued_at.iter_mut();
    for (g, (p, stamps)) in inner.protos.iter_mut().zip(stamps).enumerate() {
        let pass = p.pass(sst, cfg);
        work |= pass.work();
        let delivered = match cfg.delivery_timing {
            DeliveryTiming::OnReceive => &pass.recv.new_app,
            DeliveryTiming::Ordered => &pass.deliver.deliveries,
        };
        for del in delivered {
            th.batch.push(sst, p, stamps, local.epoch, del);
        }
        // Deliveries come in order: the last has the highest seq.
        if let (Some(work), Some(last)) = (&mut th.persist_work, delivered.last()) {
            work.push((g, p.cols.pers, last.seq));
        }
        for (range, _) in pass.pushes() {
            th.posts.extend(ops_to(&local.members[g], row, range));
        }
    }
    NodeStep {
        work,
        vc_bits,
        suspects,
    }
}

/// The per-node polling loop (§2.4): lock → [`node_pass`] → (baseline: post
/// under the lock) → unlock → durable append → post (§3.4) → publish → the
/// idle ladder — or, when the pass found a [`NodeShared::vc_trigger`]
/// request, a peer's suspicion or (with `drives_engine`, see
/// [`NodeShared::convict`]) its own detector's verdict, the epoch
/// transition the thread then drives itself ([`view_change`]).
pub(super) fn predicate_thread<F: Fabric>(
    row: usize,
    shared: Arc<NodeShared<F>>,
    cfg: SpindleConfig,
    det: Option<DetectorConfig>,
    stop: Arc<AtomicBool>,
    drives_engine: bool,
) {
    let mut ladder = IdleLadder::default();
    let waits = WaitCounters::new(&shared.obs, row);
    // Only ordered deliveries carry a sequence number to log.
    let logs = shared.persist.is_some() && cfg.delivery_timing == DeliveryTiming::Ordered;
    let mut th = ThreadState::new(&shared.inner.lock(), &det, logs, Instant::now());
    while !stop.load(Ordering::Relaxed) {
        if shared.killed.load(Ordering::Acquire) {
            return; // simulated crash: vanish without a trace
        }
        if shared.paused.load(Ordering::Acquire) {
            // Fault-injected stall: no predicate work, no heartbeats. Loop
            // (rather than block) so kills and stop still land.
            std::thread::sleep(IDLE_QUANTUM);
            continue;
        }
        let mut inner = shared.inner.lock();
        if !inner.alive {
            return;
        }
        // Swapped only when set: this runs on every pass of the data path.
        let mut trigger = 0;
        if shared.vc_trigger.load(Ordering::Acquire) != 0 {
            trigger = shared.vc_trigger.swap(0, Ordering::AcqRel);
        }
        let now = th.ticker.is_some().then(Instant::now);
        let step = node_pass(&mut inner, &mut th, now, trigger, &cfg);
        let mut vc_bits = step.vc_bits;
        for suspect in step.suspects {
            vc_bits |= shared.convict(row, suspect, th.local.epoch, false, drives_engine);
        }
        if !cfg.early_lock_release {
            // Baseline: post while holding the lock (§3.4's problem).
            for op in th.posts.drain(..) {
                th.local.fabric.post(NodeId(row), &op);
            }
        }
        drop(inner);
        // Durable mode: append this pass's ordered deliveries to the
        // per-subgroup logs, fsync when the policy says so, then advertise
        // the new frontiers. This happens outside the lock — log I/O must
        // never stall the application threads (the same reasoning as §3.4).
        let work = th.persist_work.as_mut().filter(|w| !w.is_empty());
        if let (Some(hook), Some(work)) = (&shared.persist, work) {
            hook.lock().append(&th.batch.delivered);
            for (g, pers_col, hi) in work.drain(..) {
                let range = th.local.sst.set_counter(pers_col, hi);
                th.posts.extend(ops_to(&th.local.members[g], row, range));
            }
        }
        for op in th.posts.drain(..) {
            th.local.fabric.post(NodeId(row), &op);
        }
        th.publish(&shared);
        if vc_bits != 0 {
            view_change(&shared, &mut th, vc_bits, &cfg, &stop);
            // The epoch entered, if any: the install barrier's leash ends.
            th.watch(1, Instant::now());
            ladder = IdleLadder::default();
            continue;
        }
        // The doorbell is the one on the replica this pass read.
        let region = th.local.sst.region();
        match ladder.next(step.work) {
            // With work: straight into the next pass, as before the ladder.
            Idle::Spin if step.work => {}
            Idle::Spin => std::hint::spin_loop(),
            Idle::Sleep => {
                waits.timer.inc();
                std::thread::sleep(IDLE_QUANTUM);
            }
            Idle::Arm => region.arm(),
            Idle::Park => {
                let timeout = th.ticker.as_ref().map_or(PARK_CAP, |t| {
                    PARK_CAP.min(t.next_beat().saturating_duration_since(Instant::now()))
                });
                if region.wait(timeout) {
                    waits.rung.inc();
                } else {
                    waits.timeout.inc();
                }
            }
        }
    }
    // Clean shutdown: whatever the sync policy deferred becomes durable
    // now. (A simulated crash — `killed` — returns above without this,
    // deliberately: that is the policy's loss window under test.)
    if let Some(hook) = &shared.persist {
        let _ = hook.lock().sync_all();
    }
}

/// Final old-epoch deliveries of one node, into the thread's batch:
/// everything through the agreed cuts goes to its durable log and then its
/// delivery channel — one batch, all of the old epoch, as
/// [`ThreadState::publish`] asserts — and its own undelivered messages come
/// back as `(subgroup, payload)` for resend in the next epoch.
pub(super) fn drain_node_through<F: Fabric>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F>,
    cuts: &[SeqNum],
    cfg: &SpindleConfig,
) -> Vec<(SubgroupId, Vec<u8>)> {
    let mut resend = Vec::new();
    let EpochLocal { epoch, sst, .. } = &th.local;
    let mut inner = shared.inner.lock();
    let NodeInner {
        protos, queued_at, ..
    } = &mut *inner;
    for (p, stamps) in protos.iter_mut().zip(queued_at) {
        let Some(&cut) = cuts.get(p.sg.0) else {
            continue;
        };
        let out = p.deliver_through(sst, cut);
        if cfg.delivery_timing == DeliveryTiming::Ordered {
            for del in &out.deliveries {
                th.batch.push(sst, p, stamps, *epoch, del);
            }
        }
        for (_, payload) in p.undelivered_own(sst) {
            resend.push((p.sg, payload));
        }
    }
    drop(inner);
    // Durable mode: the final deliveries of the old epoch go to the log
    // like any others, and the epoch boundary fsyncs whatever the policy.
    if let Some(hook) = &shared.persist {
        let mut hook = hook.lock();
        hook.append(&th.batch.delivered);
        hook.sync_all().expect("sync durable log");
    }
    th.publish(shared);
    resend
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use spindle_fabric::{MemFabric, Region};
    use spindle_membership::ViewBuilder;

    const MS: Duration = Duration::from_millis(1);

    /// Beat every millisecond, suspect after ten.
    fn det() -> Option<DetectorConfig> {
        Some(DetectorConfig {
            heartbeat_interval: MS,
            timeout: MS * 10,
        })
    }

    /// The three rows of one epoch on a fresh `MemFabric` — subgroup 0 of
    /// all three, all sending; subgroup 1 of rows 0 and 1, row 0 sending —
    /// each with the state its predicate thread would own, passed by hand
    /// on a synthetic clock that starts at `t0`.
    struct Rows {
        cfg: SpindleConfig,
        t0: Instant,
        inners: Vec<NodeInner<MemFabric>>,
        threads: Vec<ThreadState<MemFabric>>,
    }

    impl Rows {
        fn new(epoch: u64, cfg: SpindleConfig, det: Option<DetectorConfig>, t0: Instant) -> Rows {
            let view = ViewBuilder::with_members(epoch, (0..3).map(NodeId).collect())
                .subgroup(&[0, 1, 2], &[0, 1, 2], 4, 64)
                .subgroup(&[0, 1], &[0], 4, 64)
                .build()
                .unwrap();
            let (view, obs) = (Arc::new(view), ObsPlane::new());
            let plan = Plan::build(&view, true);
            let fabric = MemFabric::new(3, plan.layout.region_words());
            let inners: Vec<_> = (0..3)
                .map(|row| NodeInner::enter_epoch(&view, &plan, row, fabric.clone(), &obs))
                .collect();
            let threads = inners
                .iter()
                .map(|inner| ThreadState::new(inner, &det, false, t0))
                .collect();
            Rows {
                cfg,
                t0,
                inners,
                threads,
            }
        }

        /// `row`'s node pass `at` after `t0`: what it found, the writes it
        /// left — which are then posted — and the batch it filled.
        fn pass(&mut self, row: usize, at: Duration, bits: u64) -> (NodeStep, Vec<WriteOp>, Batch) {
            let th = &mut self.threads[row];
            let now = Some(self.t0 + at);
            let step = node_pass(&mut self.inners[row], th, now, bits, &self.cfg);
            let posts = th.posts.clone();
            for op in th.posts.drain(..) {
                th.local.fabric.post(NodeId(row), &op);
            }
            (step, posts, std::mem::take(&mut th.batch))
        }

        /// `row`'s heartbeat as `mirror`'s replica holds it.
        fn heartbeat(&self, mirror: usize, row: usize) -> i64 {
            let inner = &self.inners[mirror];
            inner.sst.counter(inner.heartbeat_col, row)
        }
    }

    #[test]
    fn node_pass_posts_the_heartbeat_on_its_cadence_and_carries_it_into_a_fresh_epoch() {
        let t0 = Instant::now();
        let mut rows = Rows::new(0, SpindleConfig::optimized(), det(), t0);
        let beat: Vec<WriteOp> = {
            let inner = &rows.inners[0];
            let range = inner.sst.own_counter_range(inner.heartbeat_col);
            ops_to(&[1, 2], 0, range).collect()
        };
        // Off the cadence nothing is bumped or posted; on it, one beat
        // reaches both peers.
        for (at, posts, value) in [
            (MS / 2, vec![], 0),
            (MS, beat.clone(), 1),
            (MS * 3 / 2, vec![], 1),
        ] {
            assert_eq!(rows.pass(0, at, 0).1, posts, "at {at:?}");
            assert_eq!((rows.heartbeat(1, 0), rows.heartbeat(2, 0)), (value, value));
        }
        assert_eq!(rows.pass(0, MS * 2, 0).1, beat);
        assert_eq!(rows.heartbeat(1, 0), 2);
        // Into a fresh epoch's SST, where every counter starts at 0, the
        // thread's one ticker goes on from 2: a restart at 1 would read as
        // silence at every peer that saw 2.
        let mut fresh = Rows::new(1, SpindleConfig::optimized(), None, t0);
        fresh.threads[0].ticker = rows.threads[0].ticker.take();
        fresh.threads[0].watch(1, t0 + MS * 2);
        fresh.pass(0, MS * 3, 0);
        assert_eq!((fresh.heartbeat(0, 0), fresh.heartbeat(1, 0)), (3, 3));
    }

    #[test]
    fn node_pass_masks_transition_bits_to_the_epochs_rows_and_a_plan() {
        let mut rows = Rows::new(0, SpindleConfig::optimized(), None, Instant::now());
        assert_eq!(rows.pass(0, MS, 0).0.vc_bits, 0);
        // Row 2 suspects itself and row 7; the trigger names rows 0, 1 and
        // 5 and a planned change. Rows 5 and 7 are not in the view.
        let two = &rows.inners[2];
        let range = two.sst.set_counter(two.reconfig.suspected, 1 << 2 | 1 << 7);
        let op = WriteOp::new(NodeId(0), range);
        rows.threads[2].local.fabric.post(NodeId(2), &op);
        let trigger = 1 | 1 << 1 | 1 << 5 | PLANNED_BIT;
        let step = rows.pass(0, MS, trigger).0;
        assert_eq!(step.vc_bits, 1 | 1 << 1 | 1 << 2 | PLANNED_BIT);
        assert!(step.suspects.is_empty(), "no detector, no verdicts");
    }

    #[test]
    fn node_pass_reports_a_silent_peer_once_at_the_timeout() {
        let mut rows = Rows::new(0, SpindleConfig::optimized(), det(), Instant::now());
        let mut verdicts = Vec::new();
        // Rows 0 and 1 beat every millisecond; row 2 never passes.
        for ms in 1..=30 {
            for row in [0, 1] {
                let suspects = rows.pass(row, MS * ms, 0).0.suspects;
                if !suspects.is_empty() {
                    verdicts.push((row, ms, suspects));
                }
            }
        }
        assert_eq!(verdicts, [(0, 11, vec![2]), (1, 11, vec![2])]);
    }

    #[test]
    fn node_pass_posts_the_heartbeat_then_each_subgroups_pushes_in_order() {
        for cfg in [SpindleConfig::optimized(), SpindleConfig::baseline()] {
            let mut rows = Rows::new(0, cfg.clone(), det(), Instant::now());
            let mut delivered = 0;
            for round in 1..=40u32 {
                for row in 0..3 {
                    let inner = &mut rows.inners[row];
                    for p in inner
                        .protos
                        .iter_mut()
                        .filter(|p| p.my_sender_rank.is_some())
                    {
                        let payload = format!("{row}/{round}");
                        p.try_queue_app(&inner.sst, payload.len() as u32, Some(payload.as_bytes()));
                    }
                    // The same pass by hand, on a clone of the row's state:
                    // the heartbeat's beat, then each subgroup's pass.
                    let region = Arc::new(Region::new(inner.sst.region().len()));
                    region.copy_range_from(inner.sst.region(), 0, region.len());
                    let sst = Sst::new(inner.sst.layout().clone(), region, row);
                    let beat = sst.set_counter(inner.heartbeat_col, round.into());
                    let mut posts: Vec<WriteOp> = ops_to(&[0, 1, 2], row, beat).collect();
                    let (mut work, mut seqs) = (false, Vec::new());
                    for mut p in inner.protos.clone() {
                        let pass = p.pass(&sst, &cfg);
                        work |= pass.work();
                        for (range, _) in pass.pushes() {
                            posts.extend(ops_to(&p.member_rows, row, range));
                        }
                        seqs.extend(pass.deliver.deliveries.iter().map(|d| (p.sg, d.seq)));
                    }
                    let (step, by_node_pass, batch) = rows.pass(row, MS * round, 0);
                    let at = format!("{cfg:?}, round {round}, row {row}");
                    assert_eq!(by_node_pass, posts, "{at}");
                    assert_eq!(step.work, work, "{at}");
                    let got: Vec<_> = batch
                        .delivered
                        .iter()
                        .map(|d| (d.subgroup, d.seq))
                        .collect();
                    assert_eq!(got, seqs, "{at}");
                    let own = rows.inners[row].sst.region();
                    assert_eq!(
                        own.snapshot(0, own.len()),
                        sst.region().snapshot(0, own.len())
                    );
                    delivered += seqs.len();
                }
            }
            assert!(delivered > 0, "{cfg:?} delivered nothing");
        }
    }

    /// The steps of `passes` consecutive passes without work.
    fn idle(ladder: &mut IdleLadder, passes: usize) -> Vec<Idle> {
        (0..passes).map(|_| ladder.next(false)).collect()
    }

    #[test]
    fn ladder_spins_sleeps_once_arms_looks_and_parks() {
        let mut ladder = IdleLadder::default();
        let spins = idle(&mut ladder, IDLE_SPINS as usize);
        assert!(spins.iter().all(|&s| s == Idle::Spin), "{spins:?}");
        assert_eq!(
            idle(&mut ladder, 3),
            [Idle::Sleep, Idle::Arm, Idle::Park],
            "exactly one timed quantum before the doorbell is armed"
        );
        // A park that ends without work re-arms and parks again: no second
        // timed sleep, and never a park without a pass since the arm.
        let parked = idle(&mut ladder, 1_000);
        for pair in parked.chunks(2) {
            assert_eq!(pair, [Idle::Arm, Idle::Park]);
        }
    }

    #[test]
    fn work_at_any_rung_puts_the_ladder_back_on_the_first() {
        // Stop the ladder after every possible number of idle passes — in
        // the spins, after the sleep, after the arm, after a park, after a
        // re-arm — and give it work there.
        for idle_before in 0..IDLE_SPINS as usize + 8 {
            let mut ladder = IdleLadder::default();
            idle(&mut ladder, idle_before);
            assert_eq!(ladder.next(true), Idle::Spin, "after {idle_before} idle");
            let again = idle(&mut ladder, IDLE_SPINS as usize + 3);
            assert!(again[..IDLE_SPINS as usize]
                .iter()
                .all(|&s| s == Idle::Spin));
            assert_eq!(
                again[IDLE_SPINS as usize..],
                [Idle::Sleep, Idle::Arm, Idle::Park],
                "after {idle_before} idle"
            );
        }
    }

    #[test]
    fn park_only_ever_follows_an_arm_and_a_pass() {
        // Any mix of work and no work: a `Park` is returned only by the call
        // right after the one that returned `Arm` — one full pass later.
        let mut ladder = IdleLadder::default();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut last = Idle::Spin;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly idle, so the upper rungs are reached often.
            let step = ladder.next(x.is_multiple_of(97));
            assert_eq!(step == Idle::Park, last == Idle::Arm && step != Idle::Spin);
            if step == Idle::Arm {
                assert!(matches!(last, Idle::Sleep | Idle::Park), "{last:?}");
            }
            last = step;
        }
    }
}
