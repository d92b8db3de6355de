//! The view-change driver — one node's half of an epoch transition, run
//! from its predicate thread on every cluster and every transport — and
//! the joiner's half of the install barrier.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::{Fabric, NodeId};
use spindle_membership::reconfig;
use spindle_membership::{SubgroupId, View, ViewBuilder};
use spindle_obs::{flightrec::phase as obs_phase, FlightEvent, Level};
use spindle_sst::{CounterCol, Sst};

use super::api::{Cluster, ViewChangeReport};
use super::node::{active_rows, post_to, JoinIntent, NodeInner, NodeShared};
use super::predicate::{drain_node_through, EpochLocal, ThreadState};
use super::VC_DEADLINE;
use crate::config::SpindleConfig;
use crate::plan::Plan;
use crate::viewchange::{InstallBarrier, VcBoundary, VcStep, ViewChangeEngine};

impl<F: Fabric> Cluster<F> {
    /// The *joiner's* half of the install/catch-up barrier: a row that
    /// entered the cluster at its current epoch (a process after the
    /// `--join` bootstrap; [`Cluster::admit`] runs it for an in-process
    /// joiner) publishes its `installed`/`acked` flags in the fresh SST
    /// and blocks until every survivor confirms — the same
    /// two-phase [`InstallBarrier`] the survivors hold, so application
    /// traffic resumes cluster-wide only once the joiner's mirror is up,
    /// connected, and confirmed on every link. Returns `false` on
    /// timeout (a survivor died mid-barrier) — the joiner should give
    /// up rather than serve traffic on a half-formed mesh.
    pub fn join_barrier(&self, row: usize, timeout: Duration) -> bool {
        let (local, cols) = {
            let inner = self.shared(row).inner.lock();
            (EpochLocal::of(&inner), inner.reconfig.clone())
        };
        // The other parties are this row's heartbeat peers: the rows of the
        // view that belong to a subgroup — the survivors' own barrier lists
        // the identical set (old active rows minus failed, plus us).
        let mut barrier = InstallBarrier::new(local.epoch, local.hb_peers.clone(), cols, row);
        let mut post = post_to(&local.fabric, row, &local.hb_peers);
        let deadline = Instant::now() + timeout;
        while !barrier.step(&local.sst, &mut post) {
            if Instant::now() > deadline || self.stop.load(Ordering::Relaxed) {
                return false;
            }
            // Not the doorbell: this is the caller's thread, and the
            // row's predicate thread is the one waiter its replica has.
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

/// The next view of a grow transition whose joiner is a new row of this
/// process: the failed rows are filtered exactly as in
/// [`reconfig::removal_view`] (and as [`reconfig::join_view`] does for a
/// joining process), then `row` is appended to the top-level membership
/// and to the subgroups `joins` names. `None` if it is not installable.
pub(super) fn local_join_view(
    old: &View,
    gone: &BTreeSet<usize>,
    row: usize,
    joins: &[(SubgroupId, bool)],
) -> Option<View> {
    let shrunk = reconfig::removal_view(old, gone).ok()?;
    let mut subgroups = shrunk.subgroups().to_vec();
    for &(g, as_sender) in joins {
        let sg = subgroups.get_mut(g.0)?;
        sg.members.push(NodeId(row));
        if as_sender {
            sg.senders.push(NodeId(row));
        }
    }
    let mut members = shrunk.members().to_vec();
    members.push(NodeId(row));
    ViewBuilder::with_members(shrunk.id(), members)
        .subgroups_from(subgroups)
        .build()
        .ok()
}

/// The view-change driver: one node's half of the epoch transition (§2.1),
/// run from its predicate thread on what that thread owns ([`ThreadState`]:
/// the epoch's handles, the heartbeat, the delivery batch). Wedges the
/// node, runs its [`ViewChangeEngine`] against the live transport until
/// the cluster converges, performs the final old-epoch deliveries, enters
/// the agreed next view on the epoch's fabric ([`Epochs::enter`]: the
/// transport advanced in place, or a fresh fabric — §2.3, memory is
/// registered per view), holds the [`InstallBarrier`] until every survivor
/// has installed, requeues its recovered messages, and unwedges.
///
/// A node that cannot finish — evicted, partitioned past the deadline, the
/// next view not installable — is closed and stays wedged: unavailable,
/// never inconsistent.
///
/// [`Epochs::enter`]: super::node::Epochs::enter
pub(super) fn view_change<F: Fabric>(
    shared: &Arc<NodeShared<F>>,
    th: &mut ThreadState<F>,
    initial_bits: u64,
    cfg: &SpindleConfig,
    stop: &Arc<AtomicBool>,
) {
    let row = th.local.sst.own_row();
    let started = Instant::now();
    shared.wedged.store(true, Ordering::Release);
    let close = || shared.inner.lock().alive = false;
    let inner = shared.inner.lock();
    let (view, cols) = (Arc::clone(&inner.view), inner.reconfig.clone());
    // The receive frontiers are taken once, at the wedge: no pass runs to
    // move them until this transition ends.
    let (hb_col, frontiers) = (inner.heartbeat_col, inner.frontiers());
    drop(inner);
    // A peer can die *mid-transition* — the exact hole the takeover
    // protocol closes. The thread's heartbeat keeps beating and watching
    // inside the engine loop, its peers' clocks restarted, so a crashed
    // proposer is convicted here and the suspicion feeds the engine.
    th.watch(1, started);
    let active: Vec<usize> = active_rows(&view).collect();
    let mut engine = ViewChangeEngine::new(Arc::clone(&view), cols.clone(), row, initial_bits);
    engine.set_obs(shared.obs.clone());
    // Fault injection, armed through the cluster or — a process of a
    // multi-process test, which must leave a real corpse — the environment.
    let cluster_armed = shared.vc_crash.lock().take();
    if let Some(b) = cluster_armed.or_else(vc_crash_boundary) {
        engine.arm_crash(b);
    }
    // A joining process travels in this node's proposal if it turns out
    // to be the leader (admit only triggers the leader's host); a joining
    // local row is known to every local row and needs no proposal.
    let mut local_join = None;
    match shared.join_intent.lock().take() {
        Some(JoinIntent::Remote(join)) => engine.set_join_intent(join),
        Some(JoinIntent::Local { row, joins }) => local_join = Some((row, joins)),
        None => {}
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
            // A survivor stalled forever.
            return close();
        }
        if !shared.inner.lock().alive {
            return;
        }
        let EpochLocal { sst, fabric, .. } = &th.local;
        stall.check(engine.vid(), engine.phase_name(), sst);
        // What a pending step waits for is a peer's write into this mirror:
        // arm its doorbell, look (the step), and wait on it below.
        sst.region().arm();
        let mut post = post_to(fabric, row, &active);
        if let Some(ticker) = th.ticker.as_mut() {
            for suspect in ticker.tick(Instant::now(), sst, hb_col, &mut post) {
                engine.suspect(shared.convict(row, suspect, engine.vid(), true, true));
            }
        }
        let step = {
            let mut crashed = shared.epochs.crashed.lock();
            engine.suspect(*crashed);
            let step = engine.step(sst, &frontiers, &mut post);
            if step == VcStep::Crashed && cluster_armed.is_some() {
                *crashed |= 1 << row;
            }
            step
        };
        match step {
            VcStep::Pending | VcStep::Done => {
                // Woken by the write, or — for what does not ring: a local
                // row's crash boundary, stop, kill — after 200 µs.
                sst.region().wait(Duration::from_micros(200));
            }
            VcStep::Deliver(p) => {
                drop(post); // it borrows the thread state the drain takes
                resend = drain_node_through(shared, th, &p.cuts, cfg);
                engine.mark_delivered();
            }
            VcStep::Install(p) => {
                // The engine stops stepping here. A late takeover leader
                // counts a row that already installed as acked, so leave
                // the flag in the *old* epoch too: the install barrier's
                // pushes reach an old mirror only on a transport that
                // advances in place.
                sst.set_counter(cols.installed, p.vid as i64);
                post(sst.layout().abs_range(row, cols.installed.word_range()));
                break p;
            }
            VcStep::Evicted => {
                // The cluster voted this node out. The handle stays
                // readable (pre-cut deliveries), sends fail.
                return close();
            }
            VcStep::Crashed => {
                // Fault injection: die at the armed boundary,
                // mid-transition, with no cleanup — the point is to leave
                // the survivors a corpse to take over from.
                shared.obs.event(
                    Level::Error,
                    row,
                    FlightEvent::CrashBoundary {
                        epoch: engine.vid(),
                    },
                );
                if cluster_armed.is_none() {
                    std::process::abort();
                }
                shared.killed.store(true, Ordering::Release);
                return;
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
    // view from the proposal's failed set (and its join, for a grow
    // transition) and rebuilds its protocol state over the epoch's fabric.
    let gone = proposal.failed_rows();
    let entered = shared.epochs.enter(proposal.vid, &th.local.fabric, || {
        match (proposal.join_endpoint(), &local_join) {
            (Some(join), _) => {
                let (v, new_row) = reconfig::join_view(&view, &gone, join.as_sender).ok()?;
                Some((v, vec![(new_row, join.addr())]))
            }
            (None, Some((new_row, joins))) => {
                Some((local_join_view(&view, &gone, *new_row, joins)?, Vec::new()))
            }
            (None, None) => Some((reconfig::removal_view(&view, &gone).ok()?, Vec::new())),
        }
    });
    let Some((next_view, fabric)) = entered else {
        // Nothing to enter (`Epochs::enter` lists why): never diverge.
        return close();
    };
    let plan = Plan::build(&next_view, true);
    // The new epoch's mesh: old survivors plus any joiner. The joiner
    // also participates in the install barrier below — that is the
    // catch-up barrier which holds application traffic until the
    // joiner's mirror is up, connected, and confirmed on every link.
    let survivors: Vec<usize> = active_rows(&next_view).collect();
    {
        let mut inner = shared.inner.lock();
        *inner = NodeInner::enter_epoch(&next_view, &plan, row, fabric, &shared.obs);
        shared.epoch.store(proposal.vid, Ordering::Release);
        th.local = EpochLocal::of(&inner);
    }

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
    // The barrier must not wait forever on a corpse: a row a verbatim
    // takeover proposal kept in the view is a party that never installs.
    // The heartbeat goes on in the new epoch and convicts the other parties
    // (this epoch's peers) on a 3× detector leash — room for a slow drainer
    // or a joiner's catch-up, well inside the VC deadline; a convicted party
    // is dropped and its suspicion reseeds the next transition.
    th.watch(3, Instant::now());
    let EpochLocal { sst, fabric, .. } = &th.local;
    let mut post = post_to(fabric, row, &survivors);
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
    loop {
        // As in the engine loop: arm, look, wait on the new mirror's bell.
        sst.region().arm();
        if barrier.step(sst, &mut post) {
            break;
        }
        if stop.load(Ordering::Relaxed) || shared.killed.load(Ordering::Acquire) {
            return;
        }
        // Dead parties: the detector's verdicts, and local rows that
        // halted at an armed crash boundary.
        let mut dead = reconfig::rows_of(*shared.epochs.crashed.lock());
        if let Some(ticker) = th.ticker.as_mut() {
            dead.extend(ticker.tick(Instant::now(), sst, plan.heartbeat, &mut post));
        }
        for dead in dead {
            if !barrier.parties().contains(&dead) {
                continue;
            }
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
        // A healthy barrier converges in milliseconds.
        stall.check(proposal.vid, "the install barrier", sst);
        sst.region().wait(Duration::from_micros(300));
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
    *shared.vc_report.lock() = Some(report(resent));
    shared.wedged.store(false, Ordering::Release);
}
