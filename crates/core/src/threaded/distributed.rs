//! The predicate-thread driver: one node's half of a multi-process epoch
//! transition on a transport that advances epochs in place, and the
//! cluster-side calls that trigger it and wait for its report.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{EpochTransition, Fabric, NodeId};
use spindle_membership::reconfig::{self, PLANNED_BIT};
use spindle_membership::SubgroupId;
use spindle_obs::{flightrec::phase as obs_phase, FlightEvent, Level};
use spindle_sst::{CounterCol, Sst};

use super::api::{Cluster, ViewChangeError, ViewChangeReport};
use super::node::{active_rows, post_to, NodeInner, NodeShared};
use super::predicate::drain_node_through;
use super::VC_DEADLINE;
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::{DetectorConfig, HeartbeatTicker};
use crate::plan::Plan;
use crate::viewchange::{InstallBarrier, VcBoundary, VcStep, ViewChangeEngine};

impl<F: Fabric> Cluster<F> {
    /// Adopts, cluster-side, the view `row`'s predicate thread installed.
    fn adopt_view_of(&mut self, row: usize) {
        let view = Arc::clone(&self.shared(row).inner.lock().view);
        self.view = view;
    }

    /// Raises the suspicion on a distributed cluster's lowest live local
    /// row and waits for its predicate thread to drive the SST engine
    /// through the install — the planned-removal trigger of the
    /// multi-process runtime.
    pub(super) fn trigger_distributed(
        &mut self,
        failed: usize,
        bits: u64,
        gone: &BTreeSet<usize>,
    ) -> Result<ViewChangeReport, ViewChangeError> {
        let old_epoch = self.view.id();
        let row = self
            .local_rows
            .iter()
            .copied()
            .find(|&r| self.participating(r) && !gone.contains(&r))
            .ok_or(ViewChangeError::TooFewSurvivors)?;
        self.shared(row).vc_trigger.fetch_or(bits, Ordering::AcqRel);
        let report = self.await_distributed_report(row, old_epoch)?;
        self.adopt_view_of(row);
        self.shared(failed).inner.lock().alive = false;
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
                let mut slot = self.shared(row).vc_report.lock();
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

    /// The distributed half of [`Cluster::admit`]: arms the leader's
    /// join intent and drives the SST transition through
    /// [`Cluster::await_distributed_report`].
    pub(super) fn admit_remote(
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
                self.adopt_view_of(local);
                let mut slot = self.shared(local).vc_report.lock();
                if slot.as_ref().is_some_and(|r| r.epoch <= self.view.id()) {
                    slot.take();
                }
            }
        }
        let old_view = Arc::clone(&self.view);
        let old_epoch = old_view.id();
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
        *self.shared(leader).join_intent.lock() = Some(join);
        self.shared(leader)
            .vc_trigger
            .fetch_or(PLANNED_BIT, Ordering::AcqRel);
        let mut outcome = self.await_distributed_report(leader, old_epoch);
        // Whatever happened, the intent must not stay armed: a leftover
        // endpoint would ride the *next* unrelated transition's proposal
        // and install a row whose process long gave up.
        self.shared(leader).join_intent.lock().take();
        if outcome.is_ok() {
            self.adopt_view_of(leader);
            if !self.view.contains(NodeId(new_row)) {
                // A concurrent failure-driven transition won the epoch
                // without the join (e.g. the sponsor lost leadership to a
                // suspicion mid-flight). Nothing was corrupted; the caller
                // may retry against the new view.
                outcome = Err(ViewChangeError::Stalled);
            }
        }
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                // A still-pending planned trigger must not outlive this
                // admit: left set, it would drive an empty planned
                // transition — an epoch that admits nobody — after the
                // caller already gave up.
                self.shared(leader)
                    .vc_trigger
                    .fetch_and(!PLANNED_BIT, Ordering::AcqRel);
                return Err(e);
            }
        };
        // The joiner runs remotely; keep row indexing uniform with a
        // closed stub handle, exactly as start_distributed does.
        let view = Arc::clone(&self.view);
        self.push_remote_stub(&view, &Plan::build(&view, true), new_row);
        Ok((new_row, report))
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
        let shared = self.shared(row);
        let (sst, fabric, view, cols) = {
            let inner = shared.inner.lock();
            (
                inner.sst.clone(),
                inner.live_fabric(),
                Arc::clone(&inner.view),
                inner.reconfig.clone(),
            )
        };
        // The barrier parties are exactly the rows of the installed view
        // that belong to a subgroup — the survivors' own barrier lists
        // the identical set (old active rows minus failed, plus us).
        let live: Vec<usize> = active_rows(&view).collect();
        let mut barrier = InstallBarrier::new(view.id(), live.clone(), cols, row);
        let mut post = post_to(&fabric, row, &live);
        let deadline = Instant::now() + timeout;
        while !barrier.step(&sst, &mut post) {
            if Instant::now() > deadline || self.stop.load(Ordering::Relaxed) {
                return false;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
        true
    }
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

/// Reports a phase of a transition that is not converging: every 2 s a
/// [`FlightEvent::Stalled`], and at debug level — a stuck transition is
/// diagnostic gold for a distributed deployment — a narration of what the
/// mirror shows in `flags` for every row of `rows` the phase waits on.
struct StallWatch<'a, F: Fabric> {
    shared: &'a NodeShared<F>,
    started: Instant,
    last_report: Instant,
    phase: u8,
    rows: &'a [usize],
    flags: &'a [(&'static str, CounterCol)],
}

impl<F: Fabric> StallWatch<'_, F> {
    /// Call once per wait iteration; `what` names where the phase stands.
    fn check(&mut self, epoch: u64, what: &str, sst: &Sst) {
        if self.last_report.elapsed() <= Duration::from_secs(2) {
            return;
        }
        self.last_report = Instant::now();
        let (row, elapsed) = (sst.own_row(), self.started.elapsed());
        let stalled = FlightEvent::Stalled {
            epoch,
            phase: self.phase,
            millis: elapsed.as_millis() as u64,
        };
        self.shared.obs.event(Level::Error, row, stalled);
        if self.shared.obs.level() >= Level::Debug {
            let names: Vec<&str> = self.flags.iter().map(|f| f.0).collect();
            let read = |r| self.flags.iter().map(|f| sst.counter(f.1, r)).collect();
            let seen: Vec<(usize, Vec<i64>)> = self.rows.iter().map(|&r| (r, read(r))).collect();
            eprintln!(
                "spindle: n{row} view change to epoch {epoch} still at {what} after \
                 {elapsed:?}; (row, {names:?}) = {seen:?}"
            );
        }
    }
}

/// The predicate-thread view-change driver of a distributed cluster: one
/// node's half of the multi-process epoch transition. Wedges the node,
/// runs its [`ViewChangeEngine`] against the live transport until the
/// cluster converges, performs the final old-epoch deliveries, installs
/// the agreed next view in place ([`Fabric::begin_epoch`]: fresh mirror,
/// fresh connections, a `HELLO` at the new epoch), holds the
/// [`InstallBarrier`] until every survivor has installed, requeues its
/// recovered messages, and unwedges.
pub(super) fn distributed_view_change<F: Fabric>(
    row: usize,
    shared: &Arc<NodeShared<F>>,
    initial_bits: u64,
    cfg: &SpindleConfig,
    det: &Option<DetectorConfig>,
    stop: &Arc<AtomicBool>,
) {
    let started = Instant::now();
    shared.wedged.store(true, Ordering::Release);
    // The predicate loop's detector is parked while we run, but a peer
    // can die *mid-transition* — the exact hole the takeover protocol
    // closes. Keep heartbeating and observing inside the engine loop so
    // a crashed proposer is convicted here and the suspicion feeds the
    // engine directly. (The ticker continues from the predicate loop's
    // last posted value.)
    let (view, cols, hb_col, mut ticker) = {
        let inner = shared.inner.lock();
        let ticker = det.as_ref().map(|dc| {
            let peers = inner.hb_peers.clone();
            HeartbeatTicker::new(peers, dc, &inner.sst, inner.heartbeat_col, started)
        });
        (
            Arc::clone(&inner.view),
            inner.reconfig.clone(),
            inner.heartbeat_col,
            ticker,
        )
    };
    let active: Vec<usize> = active_rows(&view).collect();
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
    let deadline = Instant::now() + VC_DEADLINE;
    let mut resend: Vec<(SubgroupId, Vec<u8>)> = Vec::new();
    let flags = [
        ("suspected", cols.suspected),
        ("wedged", cols.wedged),
        ("acked", cols.acked),
    ];
    let mut stall = StallWatch {
        shared,
        started,
        last_report: started,
        phase: obs_phase::AGREE,
        rows: &active,
        flags: &flags,
    };
    let proposal = loop {
        if stop.load(Ordering::Relaxed) || shared.killed.load(Ordering::Acquire) {
            return; // shutdown/crash mid-transition: vanish wedged
        }
        if Instant::now() > deadline {
            // A survivor stalled forever: stay wedged (unavailable, never
            // inconsistent) and give the application threads their error.
            shared.inner.lock().alive = false;
            return;
        }
        let (sst, fabric, frontiers) = {
            let inner = shared.inner.lock();
            if !inner.alive {
                return;
            }
            (inner.sst.clone(), inner.live_fabric(), inner.frontiers())
        };
        stall.check(engine.vid(), engine.phase_name(), &sst);
        let mut post = post_to(&fabric, row, &active);
        if let Some(ticker) = ticker.as_mut() {
            for suspect in ticker.tick(Instant::now(), &sst, hb_col, &mut post) {
                engine.suspect(shared.convict(row, suspect, engine.vid(), true, true));
            }
        }
        match engine.step(&sst, &frontiers, &mut post) {
            VcStep::Pending | VcStep::Done => {
                std::thread::sleep(Duration::from_micros(200));
            }
            VcStep::Deliver(p) => {
                let ordered = cfg.delivery_timing == DeliveryTiming::Ordered;
                resend = drain_node_through(shared, &p.cuts, ordered);
                engine.mark_delivered();
            }
            VcStep::Install(p) => break p,
            VcStep::Evicted => {
                // The cluster voted this node out: close it. The handle
                // stays readable (pre-cut deliveries), sends fail.
                shared.inner.lock().alive = false;
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
    let fabric = shared.inner.lock().live_fabric();
    assert!(
        fabric.begin_epoch(&EpochTransition {
            epoch: proposal.vid,
            live: survivors.clone(),
            region_words: plan.layout.region_words(),
            joined,
        }),
        "distributed view change requires an epoch-advancing transport"
    );
    let sst = {
        let mut inner = shared.inner.lock();
        *inner = NodeInner::enter_epoch(&next_view, &plan, row, fabric.clone(), &shared.obs);
        shared.epoch.store(proposal.vid, Ordering::Release);
        inner.sst.clone()
    };

    // A grow transition's report must be visible *now*, not after the
    // barrier: the sponsor's admit waits on it to send the joiner
    // its commit, and the barrier below waits on the joiner — gating
    // the report on the barrier would deadlock the three. The wedge
    // stays up until the barrier completes, so no application traffic
    // races this early publication.
    let report = |resent| ViewChangeReport {
        epoch: proposal.vid,
        cuts: proposal.cuts.clone(),
        resent,
    };
    if !survivors.iter().all(|r| active.contains(r)) {
        *shared.vc_report.lock() = Some(report(0));
    }

    // Resume barrier: no application traffic until every survivor has
    // installed — and confirmed it can see us at the new epoch, so our
    // one-shot protocol writes cannot die on a zombie pre-install link.
    let mut barrier =
        InstallBarrier::new(proposal.vid, survivors.clone(), plan.reconfig.clone(), row);
    let mut post = post_to(&fabric, row, &survivors);
    // The barrier must not wait forever on a corpse: a row a verbatim
    // takeover proposal kept in the view is a barrier party that will
    // never install. Heartbeat in the new epoch (continuing the
    // monotonic value — a regressed counter reads as silence at peers)
    // and convict parties on a 3× detector leash: generous enough for a
    // slow drainer or a joiner's catch-up, bounded enough to beat the
    // VC deadline. A convicted party is dropped from the barrier and
    // its suspicion reseeds the next transition.
    if let (Some(dc), Some(ticker)) = (det, ticker.as_mut()) {
        let parties = survivors.iter().copied().filter(|&r| r != row).collect();
        let leash = DetectorConfig {
            heartbeat_interval: dc.heartbeat_interval,
            timeout: dc.timeout * 3,
        };
        ticker.watch(parties, &leash, Instant::now());
    }
    let flags = [
        ("installed", plan.reconfig.installed),
        ("confirmed", plan.reconfig.acked),
    ];
    let mut stall = StallWatch {
        shared,
        started,
        last_report: Instant::now(),
        phase: obs_phase::BARRIER,
        rows: &survivors,
        flags: &flags,
    };
    while !barrier.step(&sst, &mut post) {
        if stop.load(Ordering::Relaxed) || shared.killed.load(Ordering::Acquire) {
            return;
        }
        if let Some(ticker) = ticker.as_mut() {
            for dead in ticker.tick(Instant::now(), &sst, plan.heartbeat, &mut post) {
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
        // A healthy barrier converges in milliseconds.
        stall.check(proposal.vid, "the install barrier", &sst);
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
        let record = |phase, took: Duration| {
            let labels = [("node", node.as_str()), ("phase", phase)];
            reg.histogram(spindle_obs::names::VIEW_CHANGE_PHASE, help, 1e-9, &labels)
                .record(took.as_nanos() as u64);
        };
        record("agree", agreed_at.duration_since(started));
        record("barrier", agreed_at.elapsed());
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
    for (sg, payload) in resend {
        let queued = shared.try_queue(sg, &payload);
        debug_assert_ne!(queued, Ok(false), "resend exceeded a fresh window");
    }
    shared.vc_count.fetch_add(1, Ordering::AcqRel);
    shared
        .vc_micros
        .fetch_add(started.elapsed().as_micros() as u64, Ordering::AcqRel);
    *shared.vc_report.lock() = Some(report(resent));
    shared.wedged.store(false, Ordering::Release);
}
