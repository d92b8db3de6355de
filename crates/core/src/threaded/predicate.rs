//! The per-node polling loop (§2.4) and the path every delivery takes out
//! of it: one builder of a [`Delivered`], one publisher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{Fabric, NodeId, WriteOp};
use spindle_membership::reconfig::{self, PLANNED_BIT};
use spindle_membership::{SeqNum, SubgroupId};
use spindle_obs::ObsPlane;
use spindle_sst::Sst;

use super::api::Delivered;
use super::distributed::view_change;
use super::node::{ops_to, NodeInner, NodeShared};
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::{DetectorConfig, HeartbeatTicker};
use crate::proto::{Delivery, SubgroupProto};

/// Cached per-epoch registry handles for the delivery path: resolved
/// against the registry once per `(node, epoch)`, after which every
/// batch of deliveries costs two relaxed atomic adds (plus one histogram
/// record per delivery that completes one of this node's own sends). One per
/// predicate thread, lent to the view-change drain it runs.
pub(super) struct EpochObsCache {
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
/// start of the delivery-latency sample [`publish`] records.
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
struct EpochLocal<F> {
    epoch: u64,
    sst: Sst,
    fabric: F,
    hb_peers: Vec<usize>,
    /// [`SubgroupProto::member_rows`] of each entry of `NodeInner::protos`.
    members: Vec<Vec<usize>>,
    /// Only with a detector configured; rebuilt with the epoch because the
    /// SST (and its counters) start fresh.
    ticker: Option<HeartbeatTicker>,
}

impl<F: Fabric> EpochLocal<F> {
    fn of(inner: &NodeInner<F>, epoch: u64, det: Option<&DetectorConfig>) -> Self {
        let ticker = det.map(|dc| {
            let peers = inner.hb_peers.clone();
            HeartbeatTicker::new(peers, dc, &inner.sst, inner.heartbeat_col, Instant::now())
        });
        EpochLocal {
            epoch,
            sst: inner.sst.clone(),
            fabric: inner.live_fabric(),
            hb_peers: inner.hb_peers.clone(),
            members: inner.protos.iter().map(|p| p.member_rows.clone()).collect(),
            ticker,
        }
    }
}

/// Hands `batch` to the application — leaving it empty, its capacity kept
/// for the next pass — and publishes it into the live registry: the
/// delivery-latency sample of each delivery that completes a send queued by
/// this node's [`NodeHandle::try_send`](super::NodeHandle::try_send) —
/// recorded here, after the durable append and outside the node lock its
/// senders wait on — then the per-epoch message and byte counters, once for
/// the whole batch (a batch is one pass, so one epoch).
///
/// Every [`NodeShared::deliveries`] send happens here, one `send_all` per
/// batch — one channel lock, and a wake only if the application is blocked
/// in a receive — paired per batch with its counter update, so the counter
/// equals the drained stream length by construction (the harness
/// counter-consistency oracle pins this).
fn publish<F: Fabric>(
    shared: &NodeShared<F>,
    row: usize,
    batch: &mut Batch,
    cache: &mut Option<EpochObsCache>,
) {
    let Some(epoch) = batch.delivered.first().map(|d| d.epoch) else {
        return;
    };
    debug_assert!(
        batch.delivered.iter().all(|d| d.epoch == epoch),
        "a delivery batch spans epochs"
    );
    let h = epoch_obs(&shared.obs, row, epoch, cache);
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

/// The per-node polling loop (§2.4): evaluate every subgroup's predicates,
/// then post the collected writes — after releasing the lock when §3.4 is
/// enabled.
///
/// The loop also watches for what starts an epoch transition — a
/// [`NodeShared::vc_trigger`] request, a peer's suspicion column, or (with
/// `drives_engine`, see [`NodeShared::convict`]) its own detector's
/// verdict — and then runs the SST engine through wedge → agreement →
/// install itself ([`view_change`]).
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
    let mut obs_cache: Option<EpochObsCache> = None;
    let mut local: Option<EpochLocal<F>> = None;
    // One pass's scratch, emptied by the pass that filled it. Work items
    // are collected under the lock and posted after release
    // (early_lock_release) or under it (baseline).
    let mut posts: Vec<WriteOp> = Vec::new();
    let mut batch = Batch::default();
    // (index into `protos`, persisted_num column, highest seq) for every
    // subgroup that delivered this iteration — used after the lock to
    // advance the persistence frontier once the log holds them.
    let mut persist_work: Vec<(usize, spindle_sst::CounterCol, SeqNum)> = Vec::new();
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
        // Suspicion bits that must start a view change after this
        // iteration.
        let mut vc_bits: u64 = 0;
        let mut work = false;
        {
            let mut inner = shared.inner.lock();
            if !inner.alive {
                return;
            }
            let epoch = shared.epoch.load(Ordering::Relaxed);
            let EpochLocal {
                sst,
                fabric,
                hb_peers,
                members,
                ticker,
                ..
            } = match &mut local {
                Some(l) if l.epoch == epoch => l,
                stale => stale.insert(EpochLocal::of(&inner, epoch, det.as_ref())),
            };
            // A trigger, or a peer's suspicion column lighting up: either
            // starts the SST view-change engine (after this iteration's
            // work is flushed). Loads only while idle — this runs every
            // iteration of the data path.
            if shared.vc_trigger.load(Ordering::Acquire) != 0 {
                vc_bits |= shared.vc_trigger.swap(0, Ordering::AcqRel);
            }
            for &peer in hb_peers.iter() {
                vc_bits |= sst.counter(inner.reconfig.suspected, peer) as u64;
            }
            if vc_bits != 0 {
                let mask = reconfig::bits_of(hb_peers.iter().copied().chain([row]));
                vc_bits &= mask | PLANNED_BIT;
            }
            if let Some(ticker) = ticker {
                let suspects =
                    ticker.tick(Instant::now(), sst, inner.heartbeat_col, &mut |range| {
                        posts.extend(ops_to(hb_peers, row, range))
                    });
                for suspect in suspects {
                    vc_bits |= shared.convict(row, suspect, epoch, false, drives_engine);
                }
            }
            let NodeInner {
                protos, queued_at, ..
            } = &mut *inner;
            for (g, (p, stamps)) in protos.iter_mut().zip(queued_at).enumerate() {
                let pass = p.pass(sst, &cfg);
                work |= pass.work();
                let delivered = match cfg.delivery_timing {
                    DeliveryTiming::OnReceive => &pass.recv.new_app,
                    DeliveryTiming::Ordered => &pass.deliver.deliveries,
                };
                for del in delivered {
                    batch.push(sst, p, stamps, epoch, del);
                }
                if cfg.delivery_timing == DeliveryTiming::Ordered && shared.persist.is_some() {
                    // Deliveries come in order: the last has the highest seq.
                    if let Some(last) = pass.deliver.deliveries.last() {
                        persist_work.push((g, p.cols.pers, last.seq));
                    }
                }
                for (range, _) in pass.pushes() {
                    posts.extend(ops_to(&members[g], row, range));
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
            // the per-subgroup logs, fsync when the policy says so, then
            // advertise the new frontiers. This happens outside the lock —
            // log I/O must never stall the application threads (the same
            // reasoning as §3.4).
            if let Some(hook) = shared.persist.as_ref().filter(|_| !persist_work.is_empty()) {
                hook.lock().append(&batch.delivered);
                for (g, pers_col, hi) in persist_work.drain(..) {
                    let range = sst.set_counter(pers_col, hi);
                    posts.extend(ops_to(&members[g], row, range));
                }
            }
            for op in posts.drain(..) {
                fabric.post(NodeId(row), &op);
            }
        }
        publish(&shared, row, &mut batch, &mut obs_cache);
        if vc_bits != 0 {
            view_change(row, &shared, vc_bits, &cfg, &det, &stop, &mut obs_cache);
            ladder = IdleLadder::default();
            continue;
        }
        // The doorbell is the one on the replica this pass read.
        let EpochLocal { sst, ticker, .. } = local.as_ref().expect("the pass entered an epoch");
        match ladder.next(work) {
            // With work: straight into the next pass, as before the ladder.
            Idle::Spin if work => {}
            Idle::Spin => std::hint::spin_loop(),
            Idle::Sleep => {
                waits.timer.inc();
                std::thread::sleep(IDLE_QUANTUM);
            }
            Idle::Arm => sst.region().arm(),
            Idle::Park => {
                let timeout = ticker.as_ref().map_or(PARK_CAP, |t| {
                    PARK_CAP.min(t.next_beat().saturating_duration_since(Instant::now()))
                });
                if sst.region().wait(timeout) {
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

/// Final old-epoch deliveries of one node: everything through the agreed
/// cuts goes to its durable log and then its delivery channel — one batch,
/// all of the old epoch, as [`publish`] asserts — and its own undelivered
/// messages come back as `(subgroup, payload)` for resend in the next epoch.
pub(super) fn drain_node_through<F: Fabric>(
    shared: &NodeShared<F>,
    cuts: &[SeqNum],
    ordered: bool,
    obs_cache: &mut Option<EpochObsCache>,
) -> Vec<(SubgroupId, Vec<u8>)> {
    let mut resend = Vec::new();
    let mut batch = Batch::default();
    let mut inner = shared.inner.lock();
    let sst = inner.sst.clone();
    let epoch = shared.epoch.load(Ordering::Acquire);
    let NodeInner {
        protos, queued_at, ..
    } = &mut *inner;
    for (p, stamps) in protos.iter_mut().zip(queued_at) {
        let Some(&cut) = cuts.get(p.sg.0) else {
            continue;
        };
        let out = p.deliver_through(&sst, cut);
        if ordered {
            for del in &out.deliveries {
                batch.push(&sst, p, stamps, epoch, del);
            }
        }
        for (_, payload) in p.undelivered_own(&sst) {
            resend.push((p.sg, payload));
        }
    }
    drop(inner);
    // Durable mode: the final deliveries of the old epoch go to the log
    // like any others, and the epoch boundary fsyncs whatever the policy.
    if let Some(hook) = &shared.persist {
        let mut hook = hook.lock();
        hook.append(&batch.delivered);
        hook.sync_all().expect("sync durable log");
    }
    publish(shared, sst.own_row(), &mut batch, obs_cache);
    resend
}

#[cfg(test)]
mod tests {
    use super::*;

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
