//! One node's half of an epoch transition, as its predicate thread holds
//! it: a [`Transition`] that `node_pass` steps and the loop acts on, on
//! every cluster and every transport.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_fabric::Fabric;
use spindle_membership::reconfig::{self, Proposal};
use spindle_membership::{SeqNum, SubgroupId, View};
use spindle_obs::{flightrec::phase as obs_phase, FlightEvent, Level};
use spindle_sst::Sst;

use super::api::ViewChangeReport;
use super::node::{JoinIntent, NodeInner, NodeShared};
use super::predicate::{drain_node_through, EpochLocal, PassSink, ThreadState};
use super::VC_DEADLINE;
use crate::config::SpindleConfig;
use crate::plan::Plan;
use crate::viewchange::{InstallBarrier, VcBoundary, VcStep, ViewChangeEngine};

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

/// When a transition started, and when it last reported a stall: every 2 s
/// a phase does not converge, a [`FlightEvent::Stalled`] and, at debug level
/// — a stuck transition is diagnostic gold for a distributed deployment — a
/// narration of what the mirror shows of every row the phase waits on.
struct StallWatch {
    phase: u8,
    started: Instant,
    last_report: Instant,
}

impl StallWatch {
    /// Call once per step at `now`, `what` naming where the phase stands.
    fn check<F: Fabric>(
        &mut self,
        shared: &NodeShared<F>,
        (epoch, what): (u64, &str),
        sst: &Sst,
        rows: impl Iterator<Item = usize>,
        now: Instant,
    ) {
        if now.duration_since(self.last_report) <= Duration::from_secs(2) {
            return;
        }
        self.last_report = now;
        let (row, elapsed, phase) = (sst.own_row(), now - self.started, self.phase);
        let millis = elapsed.as_millis() as u64;
        let stalled = FlightEvent::Stalled {
            epoch,
            phase,
            millis,
        };
        shared.obs.event(Level::Error, row, stalled);
        if shared.obs.level() >= Level::Debug {
            // The flags of the epoch the phase runs in (`acked` confirms an
            // install in the barrier).
            let c = shared.inner.lock().reconfig.clone();
            let flags = [
                ("suspected", c.suspected),
                ("wedged", c.wedged),
                ("acked", c.acked),
                ("installed", c.installed),
            ];
            let names: Vec<&str> = flags.iter().map(|f| f.0).collect();
            let read = |r| flags.iter().map(|f| sst.counter(f.1, r)).collect();
            let seen: Vec<(usize, Vec<i64>)> = rows.map(|r| (r, read(r))).collect();
            eprintln!(
                "spindle: n{row} view change to epoch {epoch} still at {what} after \
                 {elapsed:?}; (row, {names:?}) = {seen:?}"
            );
        }
    }
}

/// One node's half of an epoch transition (§2.1), held by its predicate
/// thread from the wedge to the unwedge. `node_pass` steps it — one engine
/// or barrier step after the heartbeat's turn, its writes into the pass's
/// posts — and, once the node lock is dropped, the loop acts on the step
/// ([`act`]): the final old-epoch deliveries, the next view entered on the
/// epoch's fabric ([`Epochs::enter`], through [`Fabric::begin_epoch`] —
/// §2.3, memory is registered per view), and after the [`InstallBarrier`]
/// the recovered messages requeued and the unwedge.
///
/// A node that cannot finish — evicted, partitioned past the deadline, the
/// next view not installable — is closed and stays wedged: unavailable,
/// never inconsistent.
///
/// [`Epochs::enter`]: super::node::Epochs::enter
pub(super) enum Transition {
    /// The [`ViewChangeEngine`] converging through the old epoch's SST.
    Agree(Agree),
    /// The next epoch entered; its install barrier holds traffic back.
    Barrier(Barrier),
}

pub(super) struct Agree {
    pub(super) engine: ViewChangeEngine,
    /// The old view: its active rows are the agreement's parties.
    view: Arc<View>,
    /// The receive frontiers, taken once at the wedge: no subgroup pass
    /// runs to move them until this transition ends.
    pub(super) frontiers: Vec<SeqNum>,
    /// The subgroups of a joining local row, known to every local row.
    local_join: Option<Vec<(SubgroupId, bool)>>,
    /// Whether the cluster, not the environment, armed the engine's crash.
    pub(super) cluster_armed: bool,
    stall: StallWatch,
}

pub(super) struct Barrier {
    pub(super) barrier: InstallBarrier,
    /// What the transition agreed; the resend count is filled in last.
    pub(super) report: ViewChangeReport,
    agreed_at: Instant,
    stall: StallWatch,
}

/// Starts the transition `bits` call for at `now`: wedges the node, has the
/// heartbeat watch the old epoch's peers afresh — a peer can die
/// *mid-transition*, the exact hole the takeover protocol closes, so a
/// crashed proposer must be convicted and its suspicion fed to the engine —
/// and builds the engine.
pub(super) fn wedge<F: Fabric, S>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F, S>,
    bits: u64,
    now: Instant,
) {
    let row = th.local.sst.own_row();
    shared.wedged.store(true, Ordering::Release);
    let inner = shared.inner.lock();
    let (view, frontiers) = (Arc::clone(&inner.view), inner.frontiers());
    let mut engine = ViewChangeEngine::new(Arc::clone(&view), inner.reconfig.clone(), row, bits);
    drop(inner);
    th.watch(1, now);
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
        Some(JoinIntent::Local(joins)) => local_join = Some(joins),
        None => {}
    }
    th.transition = Some(Transition::Agree(Agree {
        engine,
        view,
        frontiers,
        local_join,
        cluster_armed: cluster_armed.is_some(),
        stall: StallWatch {
            phase: obs_phase::AGREE,
            started: now,
            last_report: now,
        },
    }));
}

/// Acts at `now` on the transition step `node_pass` returned, the node lock
/// dropped and the step's writes posted: the stall report and the deadline,
/// the final deliveries, the install, the unwedge. `false` when the row is
/// done — closed, evicted or halted — and its thread must end.
pub(super) fn act<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F, S>,
    step: VcStep,
    now: Instant,
    cfg: &SpindleConfig,
) -> bool {
    let (row, sst) = (th.local.sst.own_row(), &th.local.sst);
    let close = || {
        shared.inner.lock().close();
        false
    };
    th.transition = match (th.transition.take().expect("a transition stepped"), step) {
        (Transition::Agree(mut a), VcStep::Pending) => {
            if now > a.stall.started + VC_DEADLINE {
                return close(); // a survivor stalled forever
            }
            let at = (a.engine.vid(), a.engine.phase_name());
            a.stall.check(shared, at, sst, a.view.active_rows(), now);
            Some(Transition::Agree(a))
        }
        (Transition::Barrier(mut b), VcStep::Pending) => {
            // A healthy barrier converges in milliseconds.
            let parties = b.barrier.parties().iter().copied();
            let at = (b.report.epoch, "the install barrier");
            b.stall.check(shared, at, sst, parties, now);
            Some(Transition::Barrier(b))
        }
        (Transition::Agree(mut a), VcStep::Deliver(p)) => {
            drain_node_through(shared, th, &p.cuts, cfg);
            a.engine.mark_delivered();
            Some(Transition::Agree(a))
        }
        // Nothing to enter (`Epochs::enter` lists why): never diverge.
        (Transition::Agree(a), VcStep::Install(p)) => match install(shared, th, a, p, now) {
            None => return close(),
            barrier => barrier,
        },
        // The cluster voted this node out. The handle stays readable
        // (pre-cut deliveries), sends fail.
        (Transition::Agree(_), VcStep::Evicted) => return close(),
        (Transition::Agree(a), VcStep::Crashed) => {
            // Fault injection: die at the armed boundary, mid-transition,
            // with no cleanup — the point is to leave the survivors a
            // corpse to take over from.
            let epoch = a.engine.vid();
            shared
                .obs
                .event(Level::Error, row, FlightEvent::CrashBoundary { epoch });
            if !a.cluster_armed {
                std::process::abort();
            }
            shared.killed.store(true, Ordering::Release);
            return false;
        }
        (Transition::Barrier(b), VcStep::Done) => {
            unwedge(shared, b, row, now, &mut th.sink);
            th.watch(1, now); // the install barrier's leash ends
            None
        }
        (_, step) => unreachable!("{step:?} out of its phase"),
    };
    true
}

/// Installs the view `a` agreed on in `p` at `now`: every survivor derives
/// the identical next view from the proposal's failed set (and its join,
/// for a grow transition), rebuilds its protocol state over the epoch's
/// fabric and holds the install barrier. `None` when there is no such
/// view to enter.
fn install<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    th: &mut ThreadState<F, S>,
    a: Agree,
    p: Proposal,
    now: Instant,
) -> Option<Transition> {
    let (row, view) = (th.local.sst.own_row(), &a.view);
    // A proposal adopted *verbatim* from a dead proposer may keep a
    // crashed row in the view (the takeover rule never edits an acked
    // trim). Reseed its suspicion so the predicate loop drives one more
    // transition right after this install completes.
    let active = reconfig::bits_of(view.active_rows());
    let residual = a.engine.suspicions() & !p.failed & active & !(1 << row);
    if residual != 0 {
        shared.vc_trigger.fetch_or(residual, Ordering::AcqRel);
    }
    let gone = p.failed_rows();
    let (next_view, fabric) = shared.epochs.enter(p.vid, S::PAYLOADS, || {
        // A row this process hosts needs no address to be reached at.
        let (joins, addr) = match (p.join_endpoint(), &a.local_join) {
            (Some(join), _) => (reconfig::every_subgroup(view, join.as_sender), join.addr()),
            (None, Some(joins)) => (joins.clone(), String::new()),
            (None, None) => return Some((reconfig::removal_view(view, &gone).ok()?, vec![])),
        };
        let (v, new_row) = reconfig::join_view(view, &gone, &joins).ok()?;
        Some((v, vec![(new_row, addr)]))
    })?;
    let plan = Plan::build(&next_view, S::PAYLOADS);
    let mut inner = shared.inner.lock();
    *inner = NodeInner::enter_epoch(&next_view, &plan, row, fabric, &shared.obs);
    shared.epoch.store(p.vid, Ordering::Release);
    th.local = EpochLocal::of(&inner);
    drop(inner);
    let report = ViewChangeReport {
        epoch: p.vid,
        cuts: p.cuts,
        resent: 0,
    };
    // A grow transition's report must be visible *now*, not after the
    // barrier: the sponsor's admit waits on it to send the joiner its
    // commit, and the barrier waits on the joiner — gating the report on
    // the barrier would deadlock the three. The wedge stays up until the
    // barrier completes, so no application traffic races this early
    // publication.
    if !next_view.active_rows().all(|r| view.is_active(r)) {
        *shared.vc_report.lock() = Some(report.clone());
    }
    // Resume barrier: no application traffic until every survivor — old
    // survivors plus any joiner, whose catch-up it holds — has installed,
    // and confirmed it can see us at the new epoch, so our one-shot
    // protocol writes cannot die on a zombie pre-install link. Nor may it
    // wait forever on a corpse: a row a verbatim takeover proposal kept in
    // the view is a party that never installs. The heartbeat goes on in
    // the new epoch and convicts the other parties (this epoch's peers) on
    // a 3× detector leash — room for a slow drainer or a joiner's catch-up,
    // well inside the VC deadline; a convicted party is dropped and its
    // suspicion reseeds the next transition.
    th.watch(3, now);
    let survivors = next_view.active_rows().collect();
    Some(Transition::Barrier(Barrier {
        barrier: InstallBarrier::new(p.vid, survivors, plan.reconfig, row),
        report,
        agreed_at: now,
        stall: StallWatch {
            phase: obs_phase::BARRIER,
            last_report: now,
            ..a.stall
        },
    }))
}

/// Ends the transition `b` at `now`, every survivor confirmed: the phase
/// metrics, the recovered messages `sink` kept requeued, the report, the
/// unwedge.
fn unwedge<F: Fabric, S: PassSink>(
    shared: &NodeShared<F>,
    mut b: Barrier,
    row: usize,
    now: Instant,
    sink: &mut S,
) {
    let epoch = b.report.epoch;
    shared
        .obs
        .event(Level::Info, row, FlightEvent::BarrierConfirm { epoch });
    let (node, reg) = (row.to_string(), shared.obs.registry());
    let help = "View-change phase durations (agree: wedge to install, \
                barrier: install to barrier confirm)";
    let record = |phase, took: Duration| {
        let labels = [("node", node.as_str()), ("phase", phase)];
        reg.histogram(spindle_obs::names::VIEW_CHANGE_PHASE, help, 1e-9, &labels)
            .record(took.as_nanos() as u64);
    };
    record("agree", b.agreed_at - b.stall.started);
    record("barrier", now - b.agreed_at);
    let help = "View changes installed, by node";
    reg.counter(spindle_obs::names::VIEW_CHANGES, help, &[("node", &node)])
        .inc();
    // Requeue the recovered messages in the new epoch.
    b.report.resent = sink.resend(shared);
    *shared.vc_report.lock() = Some(b.report);
    shared.wedged.store(false, Ordering::Release);
}
