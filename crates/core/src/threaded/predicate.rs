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
/// delivery costs two relaxed atomic adds (plus one histogram record
/// when the delivery completes one of this node's own sends). One per
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
/// for the next pass — and publishes each delivery into the live registry:
/// per-epoch message and byte counters, plus the delivery-latency sample
/// when it completes a send queued by this node's
/// [`NodeHandle::try_send`](super::NodeHandle::try_send) — recorded here,
/// after the durable append and outside the node lock its senders wait on.
/// Every [`NodeShared::deliveries`] send happens here, paired with its
/// counter update, so the counter equals the drained stream length by
/// construction (the harness counter-consistency oracle pins this).
fn publish<F: Fabric>(
    shared: &NodeShared<F>,
    row: usize,
    batch: &mut Batch,
    cache: &mut Option<EpochObsCache>,
) {
    for (d, queued_at) in batch.delivered.drain(..).zip(batch.queued_at.drain(..)) {
        let h = epoch_obs(&shared.obs, row, d.epoch, cache);
        h.delivered.inc();
        h.bytes.add(d.data.len() as u64);
        if let Some(t0) = queued_at {
            h.latency.record(t0.elapsed().as_nanos() as u64);
        }
        // Receiver may have hung up (handle dropped); that's fine.
        let _ = shared.deliveries.send(d);
    }
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
    let mut idle_spins = 0u32;
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
            std::thread::sleep(Duration::from_micros(50));
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
                let members = &members[g];
                let collect = cfg.delivery_timing == DeliveryTiming::OnReceive;
                let r = p.receive_predicate(sst, cfg.receive_batching, cfg.null_sends, collect);
                if r.new_rounds > 0 || r.nulls_added > 0 {
                    work = true;
                }
                for (rank, app_index, round, len, slot) in r.new_app {
                    let unordered = Delivery {
                        rank,
                        app_index,
                        round,
                        seq: -1,
                        len,
                        slot,
                    };
                    batch.push(sst, p, stamps, epoch, &unordered);
                }
                if let Some(ack) = r.ack {
                    for _ in 0..r.ack_pushes {
                        posts.extend(ops_to(members, row, ack.clone()));
                    }
                }
                if p.my_sender_rank.is_some() {
                    if let Some(s) = p.send_predicate(sst, cfg.send_batching, cfg.null_sends) {
                        work = true;
                        for range in s.slot_ranges {
                            posts.extend(ops_to(members, row, range));
                        }
                        if let Some(c) = s.committed_push {
                            posts.extend(ops_to(members, row, c));
                        }
                    }
                }
                let d = p.delivery_predicate(sst, cfg.delivery_batching);
                if !d.deliveries.is_empty() || d.nulls_skipped > 0 {
                    work = true;
                }
                if cfg.delivery_timing == DeliveryTiming::Ordered {
                    if shared.persist.is_some() {
                        if let Some(hi) = d.deliveries.iter().map(|del| del.seq).max() {
                            persist_work.push((g, p.cols.pers, hi));
                        }
                    }
                    for del in &d.deliveries {
                        batch.push(sst, p, stamps, epoch, del);
                    }
                }
                if let Some(ack) = d.ack {
                    for _ in 0..d.ack_pushes {
                        posts.extend(ops_to(members, row, ack.clone()));
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
    if let Some(hook) = &shared.persist {
        let _ = hook.lock().sync_all();
    }
}

/// Final old-epoch deliveries of one node: everything through the agreed
/// cuts goes to its durable log and then its delivery channel, and its own
/// undelivered messages come back as `(subgroup, payload)` for resend in
/// the next epoch.
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
