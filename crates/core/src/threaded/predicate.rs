//! The per-node polling loop (§2.4) and the path every delivery takes out
//! of it: one builder of a [`Delivered`], one publisher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{Fabric, NodeId, WriteOp};
use spindle_membership::reconfig::{self, PLANNED_BIT};
use spindle_membership::{SeqNum, SubgroupId};
use spindle_obs::{FlightEvent, Level, ObsPlane};
use spindle_sst::{CounterCol, Sst};

use super::api::Delivered;
use super::distributed::{act, wedge, Transition};
use super::node::{ops_to, NodeInner, NodeShared};
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::{DetectorConfig, HeartbeatTicker};
use crate::proto::{Delivery, Pass, SubgroupProto};
use crate::viewchange::VcStep;

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

/// One timed sleep of a predicate thread that has nothing to do: what the
/// idle ladder does after the first pass that finds no work, before it arms
/// the doorbell ([`IdleLadder`]), and the polling interval of a
/// [`paused`](NodeShared::paused) row. 50 µs asked for is 105–120 µs slept
/// on the benchmark host: the kernel adds the thread's default 50 µs timer
/// slack to every `nanosleep`.
const IDLE_QUANTUM: Duration = Duration::from_micros(50);

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
    /// The pass found work: go round again at once.
    Again,
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
/// has no work and a doorbell wakes it). A pass that finds work goes round
/// again at once; the first pass without work takes **one** timed
/// [`IDLE_QUANTUM`] → **arm** the doorbell → one more full pass → **park**
/// until the write that gives it work rings ([`Region::ring`]: a peer's
/// post, the TCP poller's mirror apply, a local `try_send`, a view-change
/// trigger). A park that ends without work re-arms and parks again, without
/// another timed sleep.
///
/// So the first hop of a message that finds the cluster idle costs one
/// wake-up (≈ 40–60 µs into an idle vCPU) instead of the rest of a 50 µs
/// sleep that really lasts ≈ 105 µs. The timed quantum stays on purpose —
/// it is what a thread takes *inside* a message's chain, after its own hop,
/// and at saturation it is what coalesces wake-ups: parking with no quantum
/// cost `mem_small` 65 % more CPU per message, and an adaptive ladder cost
/// `tcp_1k` 21 % of its goodput. There is no spin rung: on the 2-core
/// benchmark host, with more runnable threads than cores, a thread spinning
/// through idle passes holds a core the driver or another row needs, and
/// every spin count swept cost more CPU per message and latency than none
/// (EXPERIMENTS.md *Where a message waits*). Spinning pays only where a
/// core is free to spin, as on the paper's dedicated polling cores.
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
            return Idle::Again;
        }
        self.idle += 1;
        match self.idle {
            1 => Idle::Sleep,
            2 => Idle::Arm,
            _ => {
                // Back to where the next idle pass re-arms.
                self.idle = 1;
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

/// The threads' [`PassSink`]: the deliveries of one pass over a node's
/// protocol state and, beside each, when this node queued it — `Some` for
/// its own sends only, the start of the delivery-latency sample its
/// [`PassSink::publish`] records — and, where the row logs ordered
/// deliveries, the persistence frontiers to advance once the durable log
/// holds them.
pub(crate) struct Batch {
    timing: DeliveryTiming,
    delivered: Vec<Delivered>,
    queued_at: Vec<Option<Instant>>,
    /// `(index into protos, persisted_num column, highest seq)` of each
    /// subgroup that delivered; `None` unless the row logs ordered
    /// deliveries.
    persist_work: Option<Vec<(usize, CounterCol, SeqNum)>>,
    /// A transition's own undelivered messages, `(subgroup, payload)`, from
    /// the final deliveries to the resend.
    resend: Vec<(SubgroupId, Vec<u8>)>,
}

impl Batch {
    /// The batch of a row delivering on `timing` that `logs` its ordered
    /// deliveries to a durable log or not.
    fn new(timing: DeliveryTiming, logs: bool) -> Self {
        Batch {
            timing,
            delivered: Vec::new(),
            queued_at: Vec::new(),
            persist_work: logs.then(Vec::new),
            resend: Vec::new(),
        }
    }

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

/// Where a [`node_pass`] hands each subgroup's outcome, and where an epoch
/// transition's final deliveries and resend go: the I/O of the polling
/// loop, and so the part of [`iterate`] a runtime substitutes. The threads
/// copy every delivery out of its ring slot, log it and hand it to the
/// application ([`Batch`]). The simulator's ring slots hold no payload, so
/// its sink charges each outcome to the cost model and counts and requeues
/// messages by length. Generic, so each runtime's loop is compiled with its
/// own sink inlined; a hook that only observes the predicates' outcomes can
/// be one more implementation. The steps a sink may do nothing at have
/// empty defaults.
pub(crate) trait PassSink {
    /// Whether ring slots carry payload words: the layout of every epoch
    /// the row enters (`materialize` of [`Plan::build`](crate::Plan::build)).
    const PAYLOADS: bool;

    /// The outcome `pass` of `p`, entry `g` of [`NodeInner::protos`], at the
    /// row whose replica is `sst` in `epoch`, under the node lock; `stamps`
    /// is the subgroup's part of [`NodeInner::queued_at`].
    fn subgroup(
        &mut self,
        sst: &Sst,
        epoch: u64,
        g: usize,
        p: &SubgroupProto,
        pass: &Pass,
        stamps: &mut [Option<Instant>],
    );

    /// `p`'s final deliveries `finals` of `epoch`, through the transition's
    /// agreed cut, under the node lock; the sink keeps `p`'s own messages
    /// that no delivery reached, for the resend.
    fn drain(
        &mut self,
        sst: &Sst,
        epoch: u64,
        p: &SubgroupProto,
        stamps: &mut [Option<Instant>],
        finals: &[Delivery],
    );

    /// Requeues the kept messages at the row `shared` holds, in the epoch it
    /// has entered, under its wedge: how many.
    fn resend<F: Fabric>(&mut self, shared: &NodeShared<F>) -> usize;

    /// After a pass, outside the node lock: its ordered deliveries to the
    /// durable log, and the persistence frontiers' writes into `posts`.
    fn persist<F: Fabric>(&mut self, _: &NodeShared<F>, _: &EpochLocal<F>, _: &mut Vec<WriteOp>) {}

    /// After the final deliveries of an epoch: all of them to the durable
    /// log, synced whatever the policy.
    fn seal<F: Fabric>(&mut self, _: &NodeShared<F>) {}

    /// Hands what the sink holds to the application, leaving it empty.
    fn publish<F: Fabric>(&mut self, _: &NodeShared<F>, _: &mut EpochLocal<F>) {}
}

impl PassSink for Batch {
    const PAYLOADS: bool = true;

    fn subgroup(
        &mut self,
        sst: &Sst,
        epoch: u64,
        g: usize,
        p: &SubgroupProto,
        pass: &Pass,
        stamps: &mut [Option<Instant>],
    ) {
        let delivered = match self.timing {
            DeliveryTiming::OnReceive => &pass.recv.new_app,
            DeliveryTiming::Ordered => &pass.deliver.deliveries,
        };
        for del in delivered {
            self.push(sst, p, stamps, epoch, del);
        }
        // Deliveries come in order: the last has the highest seq.
        if let (Some(work), Some(last)) = (&mut self.persist_work, delivered.last()) {
            work.push((g, p.cols.pers, last.seq));
        }
    }

    fn drain(
        &mut self,
        sst: &Sst,
        epoch: u64,
        p: &SubgroupProto,
        stamps: &mut [Option<Instant>],
        finals: &[Delivery],
    ) {
        for del in finals {
            self.push(sst, p, stamps, epoch, del);
        }
        let own = p.undelivered_own(sst).into_iter();
        self.resend.extend(own.map(|(_, payload)| (p.sg, payload)));
    }

    fn resend<F: Fabric>(&mut self, shared: &NodeShared<F>) -> usize {
        // The fresh window always has room for them: there are at most
        // `window` of them.
        let resent = self.resend.len();
        for (sg, payload) in self.resend.drain(..) {
            let queued = shared.try_queue(sg, &payload);
            debug_assert_ne!(queued, Ok(false), "resend exceeded a fresh window");
        }
        resent
    }

    /// Durable mode: appends this pass's ordered deliveries to the
    /// per-subgroup logs, fsyncs when the policy says so, then advertises
    /// the new frontiers. This happens outside the lock — log I/O must
    /// never stall the application threads (the same reasoning as §3.4).
    fn persist<F: Fabric>(
        &mut self,
        shared: &NodeShared<F>,
        local: &EpochLocal<F>,
        posts: &mut Vec<WriteOp>,
    ) {
        let work = self.persist_work.as_mut().filter(|w| !w.is_empty());
        if let (Some(hook), Some(work)) = (&shared.persist, work) {
            hook.lock().append(&self.delivered);
            let row = local.sst.own_row();
            for (g, pers_col, hi) in work.drain(..) {
                let range = local.sst.set_counter(pers_col, hi);
                posts.extend(ops_to(&local.members[g], row, range));
            }
        }
    }

    /// Durable mode: the final deliveries of the old epoch go to the log
    /// like any others, and the epoch boundary fsyncs whatever the policy.
    fn seal<F: Fabric>(&mut self, shared: &NodeShared<F>) {
        if let Some(hook) = &shared.persist {
            let mut hook = hook.lock();
            hook.append(&self.delivered);
            hook.sync_all().expect("sync durable log");
        }
    }

    /// Hands the batch to the application — leaving it empty, its capacity
    /// kept for the next pass — and publishes it into the live registry:
    /// the delivery-latency sample of each delivery that completes a send
    /// queued by this node's
    /// [`NodeHandle::try_send`](super::NodeHandle::try_send) — recorded
    /// here, after the durable append and outside the node lock its senders
    /// wait on — then the per-epoch message and byte counters, once for the
    /// whole batch (a batch is one pass, so one epoch).
    ///
    /// Every [`NodeShared::deliveries`] send happens here, one `send_all` per
    /// batch — one channel lock, and a wake only if the application is
    /// blocked in a receive — paired per batch with its counter update, so
    /// the counter equals the drained stream length by construction (the
    /// harness counter-consistency oracle pins this).
    fn publish<F: Fabric>(&mut self, shared: &NodeShared<F>, local: &mut EpochLocal<F>) {
        if self.delivered.is_empty() {
            return;
        }
        debug_assert!(
            self.delivered.iter().all(|d| d.epoch == local.epoch),
            "a delivery batch spans epochs"
        );
        let (obs, row) = (&mut local.obs, local.sst.own_row());
        let h = obs.get_or_insert_with(|| EpochObs::new(&shared.obs, row, local.epoch));
        let mut bytes = 0;
        for (d, queued_at) in self.delivered.iter().zip(self.queued_at.drain(..)) {
            bytes += d.data.len() as u64;
            if let Some(t0) = queued_at {
                h.latency.record(t0.elapsed().as_nanos() as u64);
            }
        }
        h.delivered.add(self.delivered.len() as u64);
        h.bytes.add(bytes);
        // Receiver may have hung up (handle dropped); that's fine.
        let _ = shared.deliveries.send_all(self.delivered.drain(..));
    }
}

/// What a pass needs of the epoch its node is in and can keep outside the
/// node lock: handles and row lists that change only when an epoch is
/// installed, cloned out of [`NodeInner`] once per epoch rather than once
/// per pass (the `Arc`s behind `sst` and `fabric` are shared by every row
/// of the process, so a clone is a write to a line all predicate threads
/// touch).
pub(crate) struct EpochLocal<F> {
    pub(crate) epoch: u64,
    pub(super) sst: Sst,
    pub(crate) fabric: F,
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

/// What a predicate thread owns for its whole life: the epoch's handles,
/// its one heartbeat, the epoch transition it is in, if any, one pass's
/// scratch, emptied by the caller of the pass that filled it, and the sink
/// its passes hand their outcomes to.
pub(crate) struct ThreadState<F, S = Batch> {
    pub(crate) local: EpochLocal<F>,
    /// Only with a detector. Carried from epoch to epoch, so the value the
    /// peers see never regresses — a regressed counter reads as silence.
    pub(crate) ticker: Option<HeartbeatTicker>,
    /// From the wedge to the unwedge: what [`node_pass`] steps instead of
    /// the subgroup passes.
    pub(super) transition: Option<Transition>,
    /// The writes, in posting order: posted after the node lock is released
    /// (§3.4) or under it (baseline).
    pub(crate) posts: Vec<WriteOp>,
    /// Where [`node_pass`] hands each subgroup's outcome.
    pub(crate) sink: S,
}

impl<F: Fabric, S> ThreadState<F, S> {
    /// The state of a thread in the epoch `inner` holds, its passes'
    /// outcomes handed to `sink`. A thread with a detector then sets
    /// `ticker` and [`watch`](Self::watch)es.
    pub(crate) fn new(inner: &NodeInner<F>, sink: S) -> Self {
        ThreadState {
            local: EpochLocal::of(inner),
            ticker: None,
            transition: None,
            posts: Vec::new(),
            sink,
        }
    }

    /// Has the heartbeat, if any, watch this epoch's peers from `now`, a peer
    /// suspected after `leash` detector timeouts (3 in an install barrier).
    pub(crate) fn watch(&mut self, leash: u32, now: Instant) {
        if let Some(ticker) = &mut self.ticker {
            ticker.watch(&self.local.hb_peers, leash, now);
        }
    }
}

/// What one [`node_pass`] found.
pub(crate) struct NodeStep {
    /// Whether any subgroup's pass did something, or a transition's phase
    /// advanced: the idle ladder's input.
    pub(crate) work: bool,
    /// Suspicion bits that must start a transition after this pass.
    vc_bits: u64,
    /// The peers the heartbeat just found silent, each reported once.
    suspects: Vec<usize>,
    /// With a transition held, its step, for [`act`] (and no suspects:
    /// the step acted on them).
    transition: Option<VcStep>,
}

/// One iteration's protocol work for the node `inner` holds (§2.4; in
/// Derecho the same loop carries the SST heartbeat): the heartbeat's turn at
/// `now`, then either one step of the thread's [`Transition`] or the
/// transition bits — `trigger`, swapped out of [`NodeShared::vc_trigger`],
/// and the peers' suspicion column, masked to this epoch's rows and
/// [`PLANNED_BIT`] — and every subgroup's [`SubgroupProto::pass`], its
/// outcome into the thread's [`PassSink`] and its writes into the thread's
/// scratch after the heartbeat's. It reads no clock, and outside a
/// transition posts and sends nothing: the caller holds the lock, convicts
/// the suspects and posts, so a driver with a discrete clock and no threads
/// — the simulator — runs the same pass.
pub(crate) fn node_pass<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    inner: &mut NodeInner<F>,
    th: &mut ThreadState<F, S>,
    now: Option<Instant>,
    trigger: u64,
    cfg: &SpindleConfig,
) -> NodeStep {
    let local = &th.local;
    let (sst, peers, cols) = (&local.sst, &local.hb_peers, &inner.reconfig);
    let row = sst.own_row();
    let posts = &mut th.posts;
    let mut post = |range| posts.extend(ops_to(peers, row, range));
    let mut suspects = Vec::new();
    if let (Some(ticker), Some(now)) = (&mut th.ticker, now) {
        suspects = ticker.tick(now, sst, inner.heartbeat_col, &mut post);
    }
    // A transition step: the verdicts' effect in its phase, then one engine
    // or barrier step — work only when its phase advanced, not for a mere
    // re-publish. A confirmed barrier is `VcStep::Done`.
    if let Some(transition) = &mut th.transition {
        let (work, step) = match transition {
            Transition::Agree(a) => {
                for suspect in suspects {
                    let vid = a.engine.vid();
                    a.engine
                        .suspect(shared.convict(row, suspect, vid, true, true));
                }
                let mut crashed = shared.epochs.crashed.lock();
                a.engine.suspect(*crashed);
                let step = a.engine.step(sst, &a.frontiers, &mut post);
                match &step {
                    VcStep::Install(p) => {
                        // The engine stops stepping here. A late takeover leader
                        // counts a row that already installed as acked, so leave
                        // the flag in the *old* epoch too: the install barrier's
                        // pushes reach an old mirror only on a transport that
                        // advances in place.
                        sst.set_counter(cols.installed, p.vid as i64);
                        post(sst.layout().abs_range(row, cols.installed.word_range()));
                    }
                    VcStep::Crashed if a.cluster_armed => {
                        // Record the halt, then let the boundary's writes leave
                        // under the same lock: a local peer that can read them
                        // already suspects this row.
                        *crashed |= 1 << row;
                        for op in posts.drain(..) {
                            local.fabric.post(NodeId(row), &op);
                        }
                    }
                    _ => {}
                }
                (step != VcStep::Pending, step)
            }
            Transition::Barrier(b) => {
                // Dead parties: the detector's verdicts, and local rows that
                // halted at an armed crash boundary.
                let mut dead = reconfig::rows_of(*shared.epochs.crashed.lock());
                dead.extend(suspects);
                dead.retain(|d| b.barrier.parties().contains(d));
                for target in dead {
                    let (epoch, t) = (b.report.epoch, target as u32);
                    let event = FlightEvent::BarrierDrop { target: t, epoch };
                    shared.obs.event(Level::Error, row, event);
                    b.barrier.remove_party(target);
                    if target <= reconfig::MAX_BITMAP_ROW {
                        shared.vc_trigger.fetch_or(1 << target, Ordering::AcqRel);
                    }
                }
                // The confirm phase shows as this row's own `acked` flag.
                let acked = sst.counter(cols.acked, row);
                let done = b.barrier.step(sst, &mut post);
                let advanced = done || sst.counter(cols.acked, row) != acked;
                (advanced, if done { VcStep::Done } else { VcStep::Pending })
            }
        };
        return NodeStep {
            work,
            vc_bits: 0,
            suspects: Vec::new(),
            transition: Some(step),
        };
    }
    let mut vc_bits = trigger;
    for &peer in peers {
        vc_bits |= sst.counter(inner.reconfig.suspected, peer) as u64;
    }
    if vc_bits != 0 {
        vc_bits &= reconfig::bits_of(peers.iter().copied().chain([row])) | PLANNED_BIT;
    }
    let mut work = false;
    let stamps = inner.queued_at.iter_mut();
    for (g, (p, stamps)) in inner.protos.iter_mut().zip(stamps).enumerate() {
        let pass = p.pass(sst, cfg);
        work |= pass.work();
        th.sink.subgroup(sst, local.epoch, g, p, &pass, stamps);
        for range in pass.pushes() {
            th.posts.extend(ops_to(&local.members[g], row, range));
        }
    }
    NodeStep {
        work,
        vc_bits,
        suspects,
        transition: None,
    }
}

/// What one [`iterate`] leaves the loop to do: the ladder's next rung after
/// a pass that found work or none, one [`IDLE_QUANTUM`] while
/// [`NodeShared::paused`] (no pass, no heartbeat; kills and stop still
/// land), or the end of a row that crashed, closed or halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    Pass(bool),
    Paused,
    Exit,
}

/// One iteration of the per-node polling loop (§2.4), all but its idle
/// wait: the exit checks, lock → [`node_pass`] → (baseline: post under the
/// lock) → unlock → durable append → post (§3.4) → publish, then [`act`] on
/// a transition's step — or, when the pass found a
/// [`NodeShared::vc_trigger`] request, a peer's suspicion or (with
/// `drives_engine`, see [`NodeShared::convict`]) its own detector's
/// verdict, the [`wedge`]. `clock` — `Instant::now`, or the simulator's
/// virtual one — is read only for a heartbeat or a transition. The threads'
/// loop body and the simulator's iteration, each with its own [`PassSink`]
/// and fabric.
pub(crate) fn iterate<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F, S>,
    cfg: &SpindleConfig,
    drives_engine: bool,
    clock: impl Fn() -> Instant,
) -> Turn {
    if shared.killed.load(Ordering::Acquire) {
        return Turn::Exit; // simulated crash: vanish without a trace
    }
    if shared.paused.load(Ordering::Acquire) {
        return Turn::Paused;
    }
    let row = th.local.sst.own_row();
    let mut inner = shared.inner.lock();
    if !inner.alive {
        return Turn::Exit;
    }
    // Swapped only when set, and not inside a transition: a request raised
    // meanwhile starts the next one. This runs on every pass of the data
    // path.
    let mut trigger = 0;
    if th.transition.is_none() && shared.vc_trigger.load(Ordering::Acquire) != 0 {
        trigger = shared.vc_trigger.swap(0, Ordering::AcqRel);
    }
    let now = (th.ticker.is_some() || th.transition.is_some()).then(&clock);
    let step = node_pass(shared, &mut inner, th, now, trigger, cfg);
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
    th.sink.persist(shared, &th.local, &mut th.posts);
    for op in th.posts.drain(..) {
        th.local.fabric.post(NodeId(row), &op);
    }
    th.sink.publish(shared, &mut th.local);
    let now = || now.unwrap_or_else(&clock);
    match step.transition {
        Some(ts) => match act(shared, th, ts, now(), cfg) {
            true => Turn::Pass(step.work),
            false => Turn::Exit,
        },
        None if vc_bits != 0 => {
            wedge(shared, th, vc_bits, now());
            Turn::Pass(true)
        }
        None => Turn::Pass(step.work),
    }
}

/// The per-node polling loop (§2.4): [`iterate`], then the idle ladder —
/// the thread's one wait, on the doorbell of the replica the pass read.
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
    let mut th = ThreadState::new(&shared.inner.lock(), Batch::new(cfg.delivery_timing, logs));
    let now = Instant::now();
    th.ticker = det.map(|dc| HeartbeatTicker::new(&dc, Arc::clone(&shared.hb_muted), now));
    th.watch(1, now);
    while !stop.load(Ordering::Relaxed) {
        let idle = match iterate(&shared, &mut th, &cfg, drives_engine, Instant::now) {
            Turn::Exit => return,
            Turn::Paused => Idle::Sleep,
            Turn::Pass(work) => ladder.next(work),
        };
        // The doorbell is the one on the replica this pass read.
        let region = th.local.sst.region();
        match idle {
            Idle::Again => {}
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

/// Final old-epoch deliveries of one node, into the thread's sink:
/// everything through the agreed cuts goes to its durable log and then its
/// delivery channel — one batch, all of the old epoch, as [`Batch`]'s
/// [`PassSink::publish`] asserts — and the sink keeps its own undelivered
/// messages for resend in the next epoch.
pub(super) fn drain_node_through<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F, S>,
    cuts: &[SeqNum],
    cfg: &SpindleConfig,
) {
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
        let finals = match cfg.delivery_timing {
            DeliveryTiming::Ordered => &out.deliveries[..],
            DeliveryTiming::OnReceive => &[],
        };
        th.sink.drain(sst, *epoch, p, stamps, finals);
    }
    drop(inner);
    th.sink.seal(shared);
    th.sink.publish(shared, &mut th.local);
}

#[cfg(test)]
mod tests {
    use super::super::node::Epochs;
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

    /// The `n` rows of one epoch on a fresh `MemFabric` — subgroup 0 of
    /// all of them, all sending; subgroup 1 of rows 0 and 1, row 0 sending
    /// — each with the shared state of its handle and the state its
    /// predicate thread would own, over one process's [`Epochs`], as in an
    /// in-process cluster, passed by hand on a synthetic clock that starts
    /// at `t0`. The node pass alone: a whole run, transitions included, is
    /// a `SimCluster` run (the simulator's tests).
    struct Rows {
        cfg: SpindleConfig,
        t0: Instant,
        shared: Vec<Arc<NodeShared<MemFabric>>>,
        threads: Vec<ThreadState<MemFabric>>,
    }

    impl Rows {
        fn new(
            n: usize,
            epoch: u64,
            cfg: SpindleConfig,
            det: Option<DetectorConfig>,
            t0: Instant,
        ) -> Rows {
            let all: Vec<usize> = (0..n).collect();
            let view = ViewBuilder::with_members(epoch, (0..n).map(NodeId).collect())
                .subgroup(&all, &all, 4, 64)
                .subgroup(&[0, 1], &[0], 4, 64)
                .build()
                .unwrap();
            let (view, obs) = (Arc::new(view), ObsPlane::new());
            let plan = Plan::build(&view, true);
            let fabric = MemFabric::new(n, plan.layout.region_words());
            let epochs = Epochs::new(view.clone(), fabric.clone());
            // Nobody reads the detector's verdicts; a closed channel drops them.
            let suspicions = crossbeam::channel::unbounded().0;
            let shared: Vec<_> = all
                .iter()
                .map(|&row| {
                    let inner = NodeInner::enter_epoch(&view, &plan, row, fabric.clone(), &obs);
                    NodeShared::new(inner, &suspicions, &obs, None, &epochs).0
                })
                .collect();
            let threads = shared
                .iter()
                .map(|s| {
                    let sink = Batch::new(cfg.delivery_timing, false);
                    let mut th = ThreadState::new(&s.inner.lock(), sink);
                    let muted = Arc::clone(&s.hb_muted);
                    th.ticker = det.as_ref().map(|dc| HeartbeatTicker::new(dc, muted, t0));
                    th.watch(1, t0);
                    th
                })
                .collect();
            Rows {
                cfg,
                t0,
                shared,
                threads,
            }
        }

        /// `row`'s node pass `at` after `t0`: what it found, the writes it
        /// left — which are then posted — and the batch it filled.
        fn pass(&mut self, row: usize, at: Duration, bits: u64) -> (NodeStep, Vec<WriteOp>, Batch) {
            let (shared, th) = (&self.shared[row], &mut self.threads[row]);
            let now = Some(self.t0 + at);
            let step = node_pass(shared, &mut shared.inner.lock(), th, now, bits, &self.cfg);
            let posts = th.posts.clone();
            for op in th.posts.drain(..) {
                th.local.fabric.post(NodeId(row), &op);
            }
            let fresh = Batch::new(self.cfg.delivery_timing, false);
            (step, posts, std::mem::replace(&mut th.sink, fresh))
        }

        /// `row`'s heartbeat as `mirror`'s replica holds it.
        fn heartbeat(&self, mirror: usize, row: usize) -> i64 {
            let inner = self.shared[mirror].inner.lock();
            inner.sst.counter(inner.heartbeat_col, row)
        }
    }

    #[test]
    fn node_pass_posts_the_heartbeat_on_its_cadence_and_carries_it_into_a_fresh_epoch() {
        let t0 = Instant::now();
        let mut rows = Rows::new(3, 0, SpindleConfig::optimized(), det(), t0);
        let beat: Vec<WriteOp> = {
            let inner = rows.shared[0].inner.lock();
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
        let mut fresh = Rows::new(3, 1, SpindleConfig::optimized(), None, t0);
        fresh.threads[0].ticker = rows.threads[0].ticker.take();
        fresh.threads[0].watch(1, t0 + MS * 2);
        fresh.pass(0, MS * 3, 0);
        assert_eq!((fresh.heartbeat(0, 0), fresh.heartbeat(1, 0)), (3, 3));
    }

    #[test]
    fn node_pass_masks_transition_bits_to_the_epochs_rows_and_a_plan() {
        let mut rows = Rows::new(3, 0, SpindleConfig::optimized(), None, Instant::now());
        assert_eq!(rows.pass(0, MS, 0).0.vc_bits, 0);
        // Row 2 suspects itself and row 7; the trigger names rows 0, 1 and
        // 5 and a planned change. Rows 5 and 7 are not in the view.
        let range = {
            let two = rows.shared[2].inner.lock();
            two.sst.set_counter(two.reconfig.suspected, 1 << 2 | 1 << 7)
        };
        let op = WriteOp::new(NodeId(0), range);
        rows.threads[2].local.fabric.post(NodeId(2), &op);
        let trigger = 1 | 1 << 1 | 1 << 5 | PLANNED_BIT;
        let step = rows.pass(0, MS, trigger).0;
        assert_eq!(step.vc_bits, 1 | 1 << 1 | 1 << 2 | PLANNED_BIT);
        assert!(step.suspects.is_empty(), "no detector, no verdicts");
    }

    #[test]
    fn node_pass_reports_a_silent_peer_once_at_the_timeout() {
        let mut rows = Rows::new(3, 0, SpindleConfig::optimized(), det(), Instant::now());
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
            let mut rows = Rows::new(3, 0, cfg.clone(), det(), Instant::now());
            let mut delivered = 0;
            for round in 1..=40u32 {
                for row in 0..3 {
                    let (sst, posts, work, seqs) = {
                        let inner = &mut *rows.shared[row].inner.lock();
                        for p in inner
                            .protos
                            .iter_mut()
                            .filter(|p| p.my_sender_rank.is_some())
                        {
                            let payload = format!("{row}/{round}");
                            let len = payload.len() as u32;
                            p.try_queue_app(&inner.sst, len, Some(payload.as_bytes()));
                        }
                        // The same pass by hand, on a clone of the row's
                        // state: the heartbeat's beat, then each subgroup's
                        // pass.
                        let region = Arc::new(Region::new(inner.sst.region().len()));
                        region.copy_range_from(inner.sst.region(), 0, region.len());
                        let sst = Sst::new(inner.sst.layout().clone(), region, row);
                        let beat = sst.set_counter(inner.heartbeat_col, round.into());
                        let mut posts: Vec<WriteOp> = ops_to(&[0, 1, 2], row, beat).collect();
                        let (mut work, mut seqs) = (false, Vec::new());
                        for mut p in inner.protos.clone() {
                            let pass = p.pass(&sst, &cfg);
                            work |= pass.work();
                            for range in pass.pushes() {
                                posts.extend(ops_to(&p.member_rows, row, range));
                            }
                            seqs.extend(pass.deliver.deliveries.iter().map(|d| (p.sg, d.seq)));
                        }
                        (sst, posts, work, seqs)
                    };
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
                    let own = rows.shared[row].inner.lock().sst.region().clone();
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
        // No spin rung: the first idle pass already takes the quantum.
        let mut ladder = IdleLadder::default();
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
        // Stop the ladder after every possible number of idle passes — none,
        // after the sleep, after the arm, after a park, after a re-arm — and
        // give it work there.
        for idle_before in 0..8 {
            let mut ladder = IdleLadder::default();
            idle(&mut ladder, idle_before);
            assert_eq!(ladder.next(true), Idle::Again, "after {idle_before} idle");
            assert_eq!(
                idle(&mut ladder, 3),
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
        let mut last = Idle::Again;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mostly idle, so the upper rungs are reached often.
            let step = ladder.next(x.is_multiple_of(97));
            assert_eq!(step == Idle::Park, last == Idle::Arm && step != Idle::Again);
            if step == Idle::Arm {
                assert!(matches!(last, Idle::Sleep | Idle::Park), "{last:?}");
            }
            last = step;
        }
    }
}
