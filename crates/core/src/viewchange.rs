//! The per-node, SST-driven view-change engine.
//!
//! Reconfiguration in Derecho is not a coordinator RPC: suspicions, the
//! next-view proposal and the ragged trim are monotonic shared state in
//! the SST, and every node drives the transition from its *own* mirror
//! (paper §2.1). [`ViewChangeEngine`] is that per-node protocol:
//!
//! 1. **Suspicion propagation** — each node ORs every peer's suspicion
//!    bitmap into its own and re-publishes; the union spreads epidemically
//!    and only ever grows (a one-word monotonic column).
//! 2. **Wedge** — on first suspicion the node freezes its per-subgroup
//!    receive frontiers into the `frozen` columns and raises `wedged`.
//!    All five scalars travel in **one** write range
//!    ([`ReconfigCols::scalar_block`]), so a peer that observes the wedge
//!    flag always observes the frontiers it guards — even across link
//!    failures and re-dials, where individually posted words could arrive
//!    torn.
//! 3. **Proposal** — the deterministic leader (lowest unsuspected row,
//!    [`reconfig::leader`]) waits until every unsuspected survivor shows
//!    `wedged` *and* a suspicion word covering the leader's own union,
//!    computes the ragged trim per subgroup as the minimum frozen
//!    frontier over surviving members, and publishes a [`Proposal`]
//!    carrying its *ballot* — `(turn, proposer)`, packed by
//!    [`reconfig::pack_ballot`] — through the guarded proposal list.
//! 4. **Trim acks** — every survivor adopts the highest *eligible*
//!    ballot visible (same vid, proposer unsuspected and equal to the
//!    leader under the adopter's union), echoes the proposal into its
//!    own guarded list, publishes the packed
//!    [`ack tag`](reconfig::pack_ack_tag) naming exactly that ballot,
//!    delivers through the cut, and raises `acked`. Deriving the
//!    survivor set from the proposal's failed bitmap — never from local
//!    suspicion state — keeps all survivors in agreement.
//! 5. **Install** — a survivor installs once every active row is either
//!    named failed, in its own suspicion union, already installed, or
//!    acked *under the same tag it adopted itself*; the runtime then
//!    builds the next view (fresh layout, fresh fabric/epoch), and the
//!    [`InstallBarrier`] holds application traffic until every survivor
//!    has published `installed` in the *new* epoch's SST, so no
//!    new-epoch protocol write can race a peer still draining the old
//!    one.
//!
//! Every step re-publishes the node's whole scalar block: the columns are
//! monotonic, so re-pushing is idempotent and heals writes lost to a dead
//! link mid-transition (one-sided writes are never retransmitted by the
//! fabric itself).
//!
//! The engine is runtime-agnostic. The threaded runtime steps it from each
//! node's predicate thread — concurrently across the threads of one
//! process or across processes — and the tests below step every node's
//! engine round-robin from one thread.
//!
//! # Leader handoff under mid-transition failure
//!
//! If the proposing leader itself joins the suspicion union after the
//! survivors wedge — it died mid-transition, or a partition falsely
//! convicts it — the next-lowest unsuspected survivor takes over (the
//! classic virtual-synchrony leader handoff):
//!
//! * **Supersession is structural.** An adopter only ever accepts a
//!   ballot whose proposer equals the leader under its *own* union, so
//!   the moment a proposer's suspicion bit spreads, its unacked
//!   proposals stop collecting acks everywhere — no revocation message
//!   exists or is needed. Install counting is exact-match on the ack
//!   tag, so a stale same-vid ballot can never satisfy a successor's
//!   quorum either.
//! * **The successor sees every prior adoption.** The propose gate
//!   requires each unsuspected survivor's published suspicion word to
//!   cover the successor's union. A row adopts only ballots whose
//!   proposer is outside its union, and it echoes the adopted content
//!   into its own guarded list *before* publishing the tag — so by
//!   per-destination FIFO, a suspicion word covering the dead proposer
//!   arrives after both the tag and the content it names.
//! * **Tagged ballots are adopted verbatim.** If any visible tag names
//!   a same-vid ballot, the successor re-proposes the highest tagged
//!   ballot's content unchanged — vid, failed set, join word and cuts
//!   ([`reconfig::takeover_adoption`]) — because a tagged trim may
//!   already have been delivered somewhere and must never be
//!   contradicted. (The dead proposer may well stay a member of the
//!   installed view; evicting it is the *next* transition's job, seeded
//!   from the residual suspicions.) With no tag anywhere, the successor
//!   computes a fresh trim — and salvages any join intent visible in a
//!   dead sponsor's proposal, so a mid-join leader failure never drops
//!   the joiner.
//! * **Survivors re-tag forward.** A row holding a tag for a ballot
//!   whose proposer has since entered its union re-tags to the eligible
//!   content-equal successor ballot once visible; the packed tag is
//!   lexicographic in `(vid, turn, proposer)`, so the monotonic column
//!   carries the whole handoff chain without regressing.
//!
//! The remaining assumption is Derecho's primary-partition model: if
//! two survivors durably suspect *each other*, each can consider itself
//! leader for disjoint unions. The deployment-level detector (mutual
//! heartbeats over the same links the SST writes traverse) makes that
//! conjunction a partition, not a crash, and partitioned minorities
//! stay wedged at the VC deadline rather than install.

use std::ops::Range;
use std::sync::Arc;

use spindle_membership::reconfig::{self, Proposal, PLANNED_BIT};
use spindle_membership::{SeqNum, View};
use spindle_obs::{FlightEvent, Level, ObsPlane};
use spindle_sst::{read_list, write_list, Sst};

use crate::plan::ReconfigCols;

/// What the runtime must do after one engine step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcStep {
    /// Nothing yet — keep stepping (SST posts may have been queued).
    Pending,
    /// A proposal was adopted: deliver exactly through its cuts, collect
    /// this node's undelivered messages for resend, then call
    /// [`ViewChangeEngine::mark_delivered`]. Returned once.
    Deliver(Proposal),
    /// Every survivor acked the trim: install the proposed view (fresh
    /// layout, fresh fabric/epoch). Returned once; the engine is done.
    Install(Proposal),
    /// The cluster evicted *this* node (its bit is in the adopted
    /// proposal's failed bitmap): close it without installing.
    Evicted,
    /// The armed [`VcBoundary`] was reached: the runtime must treat this
    /// node as crashed (stop stepping it; a real process aborts).
    Crashed,
    /// The transition completed earlier; the engine is inert.
    Done,
}

/// A protocol point at which a fault-injected engine halts, emulating a
/// process that crashes *immediately after the boundary's writes are
/// posted* — the hardest instant for the survivors, because the state
/// is half-spread. The harness arms these to kill the leader at every
/// stage of a transition; distributed runs arm them through the
/// `SPINDLE_VC_CRASH_AT` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcBoundary {
    /// After wedging (frozen frontiers and the wedge flag posted).
    Wedge,
    /// After publishing a proposal (list data and guard posted).
    Propose,
    /// After first publishing `acked = vid` for the adopted ballot.
    Ack,
    /// At the install point: the engine halts instead of returning
    /// [`VcStep::Install`], so every peer's install quorum must close
    /// without this node.
    Install,
}

impl std::str::FromStr for VcBoundary {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "wedge" => Ok(VcBoundary::Wedge),
            "propose" => Ok(VcBoundary::Propose),
            "ack" => Ok(VcBoundary::Ack),
            "install" => Ok(VcBoundary::Install),
            other => Err(format!(
                "unknown view-change crash boundary {other:?} \
                 (expected wedge|propose|ack|install)"
            )),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Wedged; propagating suspicions and watching for a proposal.
    Gather,
    /// Proposal adopted and handed to the runtime; waiting for
    /// [`ViewChangeEngine::mark_delivered`].
    Draining,
    /// Trim delivered and acked; waiting for every survivor's ack.
    AwaitAcks,
    Done,
    Evicted,
    Crashed,
}

/// One node's view-change state machine (see the [module docs](self)).
#[derive(Debug)]
pub struct ViewChangeEngine {
    view: Arc<View>,
    cols: ReconfigCols,
    row: usize,
    /// Rows that belong to at least one subgroup of the old view —
    /// removed rows have left every subgroup and are ignored entirely
    /// (their stale columns must not re-trigger transitions).
    active: Vec<usize>,
    active_mask: u64,
    /// This node's suspicion bitmap (may carry [`PLANNED_BIT`]).
    suspected: u64,
    /// The joiner's endpoint ([`reconfig::JoinEndpoint`]) this node will
    /// carry into its proposal if it turns out to be the leader; `None`
    /// when no join is sponsored here.
    join_intent: Option<reconfig::JoinEndpoint>,
    wedged: bool,
    /// The ballot this node currently acknowledges: the proposal it
    /// adopted (and whose tag it published). Replaced in place — same
    /// content, higher ballot — when the proposer is superseded.
    adopted: Option<Proposal>,
    /// The turn of this node's own published proposal, once it proposed.
    my_turn: Option<u64>,
    /// Armed crash boundary (fault injection); `None` in production.
    crash_at: Option<VcBoundary>,
    phase: Phase,
    /// Flight recorder for the §2.1 handoff timeline (wedge, proposal
    /// tagged, ack, takeover adoption); `None` when the runtime did not
    /// attach a plane.
    obs: Option<ObsPlane>,
}

impl ViewChangeEngine {
    /// Creates the engine for `row` of `view`. `initial_suspicions` seeds
    /// this node's bitmap (a detector verdict, a planned-removal trigger,
    /// or [`PLANNED_BIT`] for a join); pass 0 for a node that will learn
    /// of the transition from its peers' columns.
    pub fn new(view: Arc<View>, cols: ReconfigCols, row: usize, initial_suspicions: u64) -> Self {
        let active: Vec<usize> = view.active_rows().collect();
        let active_mask = reconfig::bits_of(active.iter().copied());
        ViewChangeEngine {
            view,
            cols,
            row,
            active,
            active_mask,
            suspected: initial_suspicions & (active_mask | PLANNED_BIT),
            join_intent: None,
            wedged: false,
            adopted: None,
            my_turn: None,
            crash_at: None,
            phase: Phase::Gather,
            obs: None,
        }
    }

    /// Attaches the observability plane: from here on the engine
    /// records the handoff timeline (wedge, proposal tagged, ack,
    /// takeover adoption) into its flight recorder.
    pub fn set_obs(&mut self, obs: ObsPlane) {
        self.obs = Some(obs);
    }

    fn obs_event(&self, level: Level, event: FlightEvent) {
        if let Some(obs) = &self.obs {
            obs.event(level, self.row, event);
        }
    }

    /// Arms a crash fault: the engine halts — [`VcStep::Crashed`] from
    /// then on — immediately after the writes of `boundary` are posted.
    pub fn arm_crash(&mut self, boundary: VcBoundary) {
        self.crash_at = Some(boundary);
    }

    /// Registers a join intent (the joiner's
    /// [`reconfig::JoinEndpoint`]) this node sponsors: if this node
    /// ends up the proposing leader, the endpoint travels in its
    /// proposal so every survivor derives the identical grown view and
    /// extends its transport to the joiner. A non-leader's intent is
    /// simply never published (the sponsor must be the leader — see
    /// `Cluster::admit`). Ignored once a proposal was adopted.
    pub fn set_join_intent(&mut self, join: reconfig::JoinEndpoint) {
        if self.adopted.is_none() {
            self.join_intent = Some(join);
        }
    }

    /// Adds suspicion bits (e.g. a detector verdict arriving after the
    /// engine started). Accepted in *every* phase: a takeover needs
    /// suspicions that arrive after a proposal was adopted — the death
    /// of the proposer itself is exactly such a suspicion. The adopted
    /// proposal's failed bitmap stays authoritative for the installed
    /// view; later bits only affect supersession, install counting (a
    /// suspected row is never waited on) and the follow-up transition.
    pub fn suspect(&mut self, bits: u64) {
        self.suspected |= bits & (self.active_mask | PLANNED_BIT);
    }

    /// The proposed next view id.
    pub fn vid(&self) -> u64 {
        self.view.id() + 1
    }

    /// The adopted proposal, once one exists.
    pub fn proposal(&self) -> Option<&Proposal> {
        self.adopted.as_ref()
    }

    /// This node's current suspicion union (diagnostics and the
    /// residual-suspicion carry-over: union bits that survive an
    /// install seed the next transition).
    pub fn suspicions(&self) -> u64 {
        self.suspected
    }

    /// The current phase, for stall diagnostics.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Gather => "gather",
            Phase::Draining => "draining",
            Phase::AwaitAcks => "await-acks",
            Phase::Done => "done",
            Phase::Evicted => "evicted",
            Phase::Crashed => "crashed",
        }
    }

    /// The runtime delivered the ragged trim for the adopted proposal;
    /// the engine acks it on the next step.
    pub fn mark_delivered(&mut self) {
        assert_eq!(self.phase, Phase::Draining, "no trim outstanding");
        self.phase = Phase::AwaitAcks;
    }

    /// One protocol step against this node's SST mirror. `frontiers[g]`
    /// is this node's current receive frontier in subgroup `g` (ignored
    /// for subgroups it is not a member of); the engine freezes them on
    /// its first step, so the caller must already have stopped protocol
    /// predicates. `post` posts an absolute word range of this node's row
    /// to every active peer.
    pub fn step(
        &mut self,
        sst: &Sst,
        frontiers: &[SeqNum],
        post: &mut dyn FnMut(Range<usize>),
    ) -> VcStep {
        match self.phase {
            Phase::Done => return VcStep::Done,
            Phase::Evicted => return VcStep::Evicted,
            Phase::Crashed => return VcStep::Crashed,
            _ => {}
        }
        // 1. Suspicion propagation: OR every active peer's bitmap into
        // our own (masked to active rows — stale bits about removed rows
        // must not resurrect). Never frozen: a takeover needs the
        // suspicion that arrives *after* adoption — the proposer's own
        // death.
        let mask = self.active_mask | PLANNED_BIT;
        for &r in &self.active {
            self.suspected |= (sst.counter(self.cols.suspected, r) as u64) & mask;
        }
        if self.suspected == 0 {
            return VcStep::Pending;
        }
        // 2. Wedge: freeze the receive frontiers, then raise the flag.
        // Both live in the same scalar block, so every push carries them
        // together.
        let newly_wedged = !self.wedged;
        if newly_wedged {
            for (g, &col) in self.cols.frozen.iter().enumerate() {
                if self
                    .view
                    .subgroup(spindle_membership::SubgroupId(g))
                    .member_rank(spindle_fabric::NodeId(self.row))
                    .is_some()
                {
                    sst.set_counter(col, frontiers[g]);
                }
            }
            sst.set_counter(self.cols.wedged, 1);
            self.wedged = true;
            self.obs_event(Level::Info, FlightEvent::Wedged { epoch: self.vid() });
        }
        sst.set_counter(self.cols.suspected, self.suspected as i64);
        let mut first_ack = false;
        if self.phase == Phase::AwaitAcks {
            // Re-assert the ack so a lost frame cannot stall the quorum.
            first_ack = sst.counter(self.cols.acked, self.row) < self.vid() as i64;
            sst.set_counter(self.cols.acked, self.vid() as i64);
            if first_ack {
                if let Some(p) = &self.adopted {
                    self.obs_event(
                        Level::Debug,
                        FlightEvent::Ack {
                            proposer: p.proposer as u32,
                            epoch: p.vid,
                        },
                    );
                }
            }
        }
        // Re-publish the whole block every step: monotonic, idempotent,
        // and self-healing across dead links.
        post(self.block_range(sst));
        if newly_wedged && self.crash_at == Some(VcBoundary::Wedge) {
            self.phase = Phase::Crashed;
            return VcStep::Crashed;
        }
        if first_ack && self.crash_at == Some(VcBoundary::Ack) {
            self.phase = Phase::Crashed;
            return VcStep::Crashed;
        }

        // 3. The leader under our union proposes (or takes over) once
        // the gate holds; once published, keep re-publishing — our own
        // ballot stays eligible for as long as we lead, and the union
        // only grows, so leadership never moves away from us.
        if reconfig::leader(&self.active, self.suspected) == Some(self.row)
            && self.my_turn.is_none()
        {
            if self.try_propose(sst, post) && self.crash_at == Some(VcBoundary::Propose) {
                self.phase = Phase::Crashed;
                return VcStep::Crashed;
            }
        } else if self.my_turn.is_some() {
            self.republish(sst, post);
        }

        // 4. Adopt the highest eligible ballot visible; once adopted,
        // watch for supersession of our ballot's proposer instead.
        if self.adopted.is_none() {
            if let Some(p) = self.scan_eligible(sst) {
                if p.failed & (1 << self.row) != 0 {
                    self.phase = Phase::Evicted;
                    return VcStep::Evicted;
                }
                self.adopt(sst, post, p.clone());
                self.phase = Phase::Draining;
                return VcStep::Deliver(p);
            }
        } else {
            self.retag_if_superseded(sst, post);
        }

        // 5. Install once the quorum closes: every active row is named
        // failed, in our own union (dead or partitioned mid-transition —
        // never waited on; the residual suspicion seeds the *next*
        // transition), already installed, or acked **under the tag we
        // adopted ourselves** — exact-match tag counting is what makes a
        // superseded same-vid ballot unable to satisfy anyone's quorum.
        // A survivor that already installed the next epoch implies its
        // ack (it stops re-publishing old-epoch columns once installed,
        // but its install barrier keeps pushing `installed`, which lands
        // at the same offset in our still-old mirror).
        if self.phase == Phase::AwaitAcks {
            let p = self.adopted.clone().expect("acking a proposal");
            let vid = p.vid as i64;
            let tag = p.ack_tag();
            let quorum = self.active.iter().all(|&r| {
                p.failed & (1 << r) != 0
                    || self.suspected & (1 << r) != 0
                    || sst.counter(self.cols.installed, r) >= vid
                    || (sst.counter(self.cols.ack_tag, r) == tag
                        && sst.counter(self.cols.acked, r) >= vid)
            });
            if quorum {
                if self.crash_at == Some(VcBoundary::Install) {
                    self.phase = Phase::Crashed;
                    return VcStep::Crashed;
                }
                self.phase = Phase::Done;
                return VcStep::Install(p);
            }
        }
        VcStep::Pending
    }

    fn block_range(&self, sst: &Sst) -> Range<usize> {
        sst.layout()
            .abs_range(self.row, self.cols.scalar_block.clone())
    }

    /// Leader only: publish a proposal once the gate holds. Returns
    /// whether a ballot was published this step.
    ///
    /// The gate — every unsuspected survivor wedged *and* publishing a
    /// suspicion word that covers our whole union — is what makes
    /// takeover sound: a row only adopts ballots whose proposer is
    /// outside its union and echoes the content before the tag, so by
    /// per-destination FIFO, once its suspicion word covers a dead
    /// proposer, any adoption it made of that proposer's ballot (tag
    /// *and* content) is already visible in our mirror.
    fn try_propose(&mut self, sst: &Sst, post: &mut dyn FnMut(Range<usize>)) -> bool {
        let failed = self.suspected;
        let survivors: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&r| failed & (1 << r) == 0)
            .collect();
        if survivors.len() < 2 {
            return false; // no quorum to reconfigure; stay wedged
        }
        for &r in &survivors {
            if r == self.row {
                continue;
            }
            if sst.counter(self.cols.wedged, r) < 1 {
                return false;
            }
            let seen = sst.counter(self.cols.suspected, r) as u64;
            if seen & self.suspected != self.suspected {
                return false; // its union lags ours: adoptions may be in flight
            }
        }
        // Takeover evidence: every visible ack tag and same-vid ballot.
        let vid = self.vid();
        let tags: Vec<i64> = self
            .active
            .iter()
            .map(|&r| sst.counter(self.cols.ack_tag, r))
            .collect();
        let visible: Vec<Proposal> = self
            .active
            .iter()
            .filter_map(|&r| {
                let (v, items) = read_list(sst, self.cols.proposal, r).ok()?;
                if v == 0 {
                    return None;
                }
                Proposal::decode(&items, self.view.subgroups().len()).filter(|p| p.vid == vid)
            })
            .collect();
        // Our ballot supersedes everything seen: one turn past the
        // highest turn any visible list or tag carries.
        let turn = visible
            .iter()
            .map(|p| p.turn)
            .chain(
                tags.iter()
                    .filter_map(|&t| reconfig::unpack_ack_tag(t))
                    .filter(|&(v, _, _)| v == vid)
                    .map(|(_, t, _)| t),
            )
            .max()
            .map_or(0, |t| t + 1);
        let any_tagged = tags
            .iter()
            .filter_map(|&t| reconfig::unpack_ack_tag(t))
            .any(|(v, _, _)| v == vid);
        let p = match reconfig::takeover_adoption(vid, &tags, &visible) {
            Some(acked) => Proposal {
                proposer: self.row,
                turn,
                ..acked.clone()
            },
            None if any_tagged => {
                // A tag exists but its content is not readable yet (a
                // torn echo): proposing fresh could contradict a
                // delivered trim — wait a step for the echo to land.
                return false;
            }
            None => {
                // No ack anywhere for this vid: fresh trim. The frozen
                // frontiers are valid wherever the wedge flag is — they
                // travel in the same write range.
                let mut cuts = Vec::with_capacity(self.view.subgroups().len());
                for (g, sg) in self.view.subgroups().iter().enumerate() {
                    let frozen: Vec<SeqNum> = sg
                        .members
                        .iter()
                        .filter(|m| failed & (1 << m.0) == 0)
                        .map(|m| sst.counter(self.cols.frozen[g], m.0))
                        .collect();
                    if frozen.is_empty() {
                        return false; // removal would empty this subgroup
                    }
                    cuts.push(reconfig::trim_from_frontiers(&frozen));
                }
                // A join intent orphaned by a dead sponsor travels only
                // in the sponsor's (now superseded) proposal: salvage it
                // from any visible same-vid list so the joiner is still
                // admitted by the takeover leader.
                let join = self
                    .join_intent
                    .clone()
                    .or_else(|| visible.iter().find_map(|p| p.join.clone()));
                Proposal {
                    vid,
                    proposer: self.row,
                    turn,
                    failed,
                    join,
                    cuts,
                }
            }
        };
        let (data, guard) = write_list(sst, self.cols.proposal, &p.encode());
        post(data);
        post(guard);
        self.my_turn = Some(turn);
        self.obs_event(
            Level::Debug,
            FlightEvent::Proposal {
                proposer: p.proposer as u32,
                epoch: p.vid,
                failed: p.failed,
            },
        );
        true
    }

    /// Re-publishes the previously computed proposal (identical content;
    /// the guard version bumps) so a peer that joined the transition late
    /// or lost the first frames still converges.
    fn republish(&self, sst: &Sst, post: &mut dyn FnMut(Range<usize>)) {
        if let Ok((v, items)) = read_list(sst, self.cols.proposal, self.row) {
            if v > 0 {
                let (data, guard) = write_list(sst, self.cols.proposal, &items);
                post(data);
                post(guard);
            }
        }
    }

    /// The highest *eligible* ballot for the next epoch visible in any
    /// active row's list column: same vid, and its proposer is exactly
    /// the leader under this node's union. That single predicate is the
    /// supersession rule — the moment a proposer's suspicion bit reaches
    /// a row, every ballot it published stops being adoptable there, so
    /// a stale same-vid proposal can never collect late acks (not even
    /// after an unwedge-and-retry).
    fn scan_eligible(&self, sst: &Sst) -> Option<Proposal> {
        let vid = self.vid();
        let leader = reconfig::leader(&self.active, self.suspected)?;
        let mut best: Option<Proposal> = None;
        for &r in &self.active {
            let Ok((v, items)) = read_list(sst, self.cols.proposal, r) else {
                continue; // torn: the writer is mid-publish, retry next step
            };
            if v == 0 {
                continue;
            }
            let Some(p) = Proposal::decode(&items, self.view.subgroups().len()) else {
                continue;
            };
            if p.vid != vid || p.proposer != leader {
                continue;
            }
            if best.as_ref().is_none_or(|b| p.ballot() > b.ballot()) {
                best = Some(p);
            }
        }
        best
    }

    /// Adopts `p`: echo the content into our own guarded list *first*,
    /// then publish the ack tag. Per-destination FIFO turns that order
    /// into the takeover invariant — any peer that sees our tag can also
    /// read the ballot's content from our list, so a successor leader
    /// can always honor a tagged trim verbatim.
    fn adopt(&mut self, sst: &Sst, post: &mut dyn FnMut(Range<usize>), p: Proposal) {
        if p.proposer != self.row {
            let (data, guard) = write_list(sst, self.cols.proposal, &p.encode());
            post(data);
            post(guard);
        }
        let tag = p.ack_tag();
        debug_assert!(
            sst.counter(self.cols.ack_tag, self.row) <= tag,
            "ack tag would regress"
        );
        sst.set_counter(self.cols.ack_tag, tag);
        post(self.block_range(sst));
        self.adopted = Some(p);
    }

    /// Our ballot's proposer entered the union after we adopted: re-tag
    /// to the eligible successor ballot once one is visible. Content
    /// equality is guaranteed by the takeover rule (our own tag forces
    /// the successor to adopt verbatim), so no re-delivery happens — the
    /// trim already delivered under the old ballot *is* the new one's.
    fn retag_if_superseded(&mut self, sst: &Sst, post: &mut dyn FnMut(Range<usize>)) {
        let cur = self.adopted.as_ref().expect("re-tag requires an adoption");
        if self.suspected & (1 << cur.proposer) == 0 {
            return;
        }
        let Some(next) = self.scan_eligible(sst) else {
            return;
        };
        if next.ack_tag() <= cur.ack_tag() {
            return;
        }
        if !next.same_content(cur) {
            // Unreachable along a gated handoff chain; never re-tag to
            // different content — the quorum would mix two trims.
            debug_assert!(false, "takeover ballot diverged from the tagged content");
            return;
        }
        self.obs_event(
            Level::Info,
            FlightEvent::Takeover {
                proposer: next.proposer as u32,
                epoch: next.vid,
            },
        );
        self.adopt(sst, post, next);
    }
}

/// The resume barrier of step 5, in two phases.
///
/// **Install phase** — after installing the new view, each survivor
/// publishes `installed = vid` in the **new** epoch's SST until every
/// survivor's flag is visible, so no new-epoch protocol write can land
/// in a mirror still draining the old epoch.
///
/// **Confirm phase** — seeing a peer's flag only proves the *inbound*
/// link; this node's *outbound* connection may still be a zombie the
/// peer accepted before it installed (and severed at its own
/// transition), and one-shot protocol writes posted over it would
/// vanish without retransmission. So each survivor then publishes the
/// fresh epoch's `acked = vid` — "I saw everyone's install flag" — and
/// resumes only when every survivor confirms. A peer's confirmation
/// proves it observed *our* flag in its fresh mirror, i.e. a
/// post-install connection from us to it is live, and per-destination
/// ordering extends that guarantee to every subsequent post.
#[derive(Debug, Clone)]
pub struct InstallBarrier {
    vid: u64,
    survivors: Vec<usize>,
    cols: ReconfigCols,
    row: usize,
    confirming: bool,
}

impl InstallBarrier {
    /// Barrier for `row` among `survivors` (rows of the new view), with
    /// the new plan's reconfiguration columns.
    pub fn new(vid: u64, survivors: Vec<usize>, cols: ReconfigCols, row: usize) -> Self {
        InstallBarrier {
            vid,
            survivors,
            cols,
            row,
            confirming: false,
        }
    }

    /// Drops a party that died (or was convicted by the detector) while
    /// the barrier was waiting on it — e.g. a takeover leader that
    /// crashed between installing and confirming. Without this, a death
    /// inside the barrier window would hold every survivor's resume
    /// forever (the barrier predates the next epoch's detector).
    pub fn remove_party(&mut self, row: usize) {
        self.survivors.retain(|&r| r != row);
    }

    /// The rows this barrier still waits on (diagnostics / detector
    /// plumbing).
    pub fn parties(&self) -> &[usize] {
        &self.survivors
    }

    /// Publishes this node's current phase flag and reports whether every
    /// survivor has confirmed. Call repeatedly (the pushes are idempotent
    /// and self-healing) until it returns `true`.
    ///
    /// Only the `installed` (then `acked`) words are posted — never the
    /// whole scalar block: the install push crosses the epoch boundary
    /// into mirrors that may still be draining the old epoch (same
    /// offsets), and the fresh block's zeroed columns would *regress*
    /// the monotonic state a laggard survivor is waiting on.
    pub fn step(&mut self, sst: &Sst, post: &mut dyn FnMut(Range<usize>)) -> bool {
        let vid = self.vid as i64;
        sst.set_counter(self.cols.installed, vid);
        if self.confirming {
            sst.set_counter(self.cols.acked, vid);
            // acked and installed are adjacent words: one push carries
            // both flags.
            let range = self.cols.acked.word_range().start..self.cols.installed.word_range().end;
            post(sst.layout().abs_range(self.row, range));
            self.survivors
                .iter()
                .all(|&r| sst.counter(self.cols.acked, r) >= vid)
        } else {
            post(
                sst.layout()
                    .abs_range(self.row, self.cols.installed.word_range()),
            );
            if self
                .survivors
                .iter()
                .all(|&r| sst.counter(self.cols.installed, r) >= vid)
            {
                self.confirming = true;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use proptest::prelude::*;
    use spindle_fabric::{MemFabric, NodeId, WriteOp};
    use spindle_membership::ViewBuilder;

    struct Sim {
        view: Arc<View>,
        fabric: MemFabric,
        ssts: Vec<Sst>,
        engines: Vec<ViewChangeEngine>,
    }

    /// All-engine simulation over a MemFabric: every engine reads only
    /// its own mirror and posts through the fabric, exactly like the
    /// runtimes drive it.
    fn sim(view: View, trigger_row: usize, trigger_bits: u64) -> Sim {
        let view = Arc::new(view);
        let plan = Plan::build(&view, true);
        let fabric = MemFabric::new(view.members().len(), plan.layout.region_words());
        let ssts: Vec<Sst> = (0..view.members().len())
            .map(|r| {
                let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(r)), r);
                sst.init();
                sst
            })
            .collect();
        let engines: Vec<ViewChangeEngine> = (0..view.members().len())
            .map(|r| {
                let bits = if r == trigger_row { trigger_bits } else { 0 };
                ViewChangeEngine::new(Arc::clone(&view), plan.reconfig.clone(), r, bits)
            })
            .collect();
        Sim {
            view,
            fabric,
            ssts,
            engines,
        }
    }

    /// Steps every participating engine round-robin until each returns
    /// `Install` or `Evicted`; returns the installed proposals by row.
    fn converge(s: &mut Sim, frontiers: &[Vec<SeqNum>], dead: &[usize]) -> Vec<Option<Proposal>> {
        let n = s.view.members().len();
        let mut out: Vec<Option<Proposal>> = vec![None; n];
        let mut finished = vec![false; n];
        // Rows that hit an armed crash boundary: the harness plays
        // detector, feeding the bits to every live engine each round —
        // as the runtime driver does for rows of its own process.
        let mut crashed_bits: u64 = 0;
        for r in dead {
            finished[*r] = true;
        }
        for _round in 0..10_000 {
            if finished.iter().all(|&f| f) {
                return out;
            }
            for row in 0..n {
                if finished[row] {
                    continue;
                }
                s.engines[row].suspect(crashed_bits);
                let sst = s.ssts[row].clone();
                let fabric = s.fabric.clone();
                let peers: Vec<usize> = (0..n).filter(|&p| p != row).collect();
                let mut post = |range: Range<usize>| {
                    for &p in &peers {
                        fabric.post(NodeId(row), &WriteOp::new(NodeId(p), range.clone()));
                    }
                };
                match s.engines[row].step(&sst, &frontiers[row], &mut post) {
                    VcStep::Pending | VcStep::Done => {}
                    VcStep::Deliver(_) => s.engines[row].mark_delivered(),
                    VcStep::Install(p) => {
                        // Mirror the install barrier's first push: once a
                        // row stops stepping its engine, its `installed`
                        // flag (same word offset in the new epoch) is what
                        // lets a late takeover leader close its quorum.
                        let cols = Plan::build(&s.view, true).reconfig;
                        sst.set_counter(cols.installed, p.vid as i64);
                        post(sst.layout().abs_range(row, cols.installed.word_range()));
                        out[row] = Some(p);
                        finished[row] = true;
                    }
                    VcStep::Evicted => finished[row] = true,
                    VcStep::Crashed => {
                        crashed_bits |= 1 << row;
                        finished[row] = true;
                    }
                }
            }
        }
        panic!("engines did not converge");
    }

    fn all_senders(n: usize) -> View {
        let m: Vec<usize> = (0..n).collect();
        ViewBuilder::new(n).subgroup(&m, &m, 8, 64).build().unwrap()
    }

    #[test]
    fn single_failure_converges_on_the_minimum_cut() {
        let mut s = sim(all_senders(3), 0, reconfig::bits_of([2]));
        let frontiers = vec![vec![7], vec![5], vec![9]];
        let installed = converge(&mut s, &frontiers, &[2]);
        for row in [0, 1] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.vid, 1);
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([2]));
            // Cut = min over survivors {0, 1}: the dead node's frontier
            // (9, the maximum) must not contribute.
            assert_eq!(p.cuts, vec![5]);
        }
        assert!(installed[2].is_none());
    }

    #[test]
    fn suspicion_propagates_from_a_non_leader() {
        // Node 2 (not the leader) raises the suspicion; node 0 must learn
        // it through the SST and still propose.
        let mut s = sim(all_senders(4), 2, reconfig::bits_of([3]));
        let frontiers = vec![vec![4], vec![6], vec![2], vec![8]];
        let installed = converge(&mut s, &frontiers, &[3]);
        for row in [0, 1, 2] {
            assert_eq!(installed[row].as_ref().unwrap().cuts, vec![2]);
        }
    }

    #[test]
    fn planned_transition_trims_over_all_members() {
        let mut s = sim(all_senders(3), 0, PLANNED_BIT);
        let frontiers = vec![vec![3], vec![10], vec![4]];
        let installed = converge(&mut s, &frontiers, &[]);
        for p in installed.iter().take(3) {
            let p = p.as_ref().expect("all members install");
            assert!(p.failed_rows().is_empty());
            assert_eq!(p.cuts, vec![3]);
        }
    }

    #[test]
    fn join_intent_travels_in_the_leaders_proposal() {
        let mut s = sim(all_senders(3), 0, PLANNED_BIT);
        // An IPv6 endpoint: exactly what the packed-word predecessor of
        // the JoinEndpoint codec could not carry.
        let join = reconfig::JoinEndpoint::parse("[fe80::7]:7144", true).unwrap();
        // The sponsor is the leader (row 0): its intent must reach every
        // member through the adopted proposal.
        s.engines[0].set_join_intent(join.clone());
        let frontiers = vec![vec![5], vec![5], vec![5]];
        let installed = converge(&mut s, &frontiers, &[]);
        for p in installed.iter().take(3) {
            let p = p.as_ref().expect("all members install");
            assert_eq!(p.join_endpoint(), Some(&join));
            assert_eq!(p.join_endpoint().unwrap().addr(), "[fe80::7]:7144");
            assert!(p.failed_rows().is_empty());
        }
    }

    #[test]
    fn suspected_live_node_is_evicted_not_installed() {
        // A heartbeat-blackout shape: node 1 is alive (it steps its
        // engine) but suspected — it must learn of its eviction from the
        // proposal and never install.
        let mut s = sim(all_senders(3), 0, reconfig::bits_of([1]));
        let frontiers = vec![vec![2], vec![8], vec![2]];
        let installed = converge(&mut s, &frontiers, &[]);
        assert!(installed[0].is_some());
        assert!(installed[1].is_none(), "evicted node installed");
        assert!(installed[2].is_some());
        assert_eq!(installed[0].as_ref().unwrap().cuts, vec![2]);
    }

    #[test]
    fn install_barrier_waits_for_every_survivor() {
        let view = Arc::new(all_senders(3));
        let plan = Plan::build(&view, true);
        let fabric = MemFabric::new(3, plan.layout.region_words());
        let ssts: Vec<Sst> = (0..3)
            .map(|r| {
                let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(r)), r);
                sst.init();
                sst
            })
            .collect();
        let post = |row: usize| {
            let fabric = fabric.clone();
            move |range: Range<usize>| {
                for p in 0..3 {
                    if p != row {
                        fabric.post(NodeId(row), &WriteOp::new(NodeId(p), range.clone()));
                    }
                }
            }
        };
        // Node 0 alone can never pass: neither install nor confirmation
        // from node 1 arrives.
        let mut alone = InstallBarrier::new(1, vec![0, 1], plan.reconfig.clone(), 0);
        for _ in 0..5 {
            assert!(!alone.step(&ssts[0], &mut post(0)));
        }
        // With both survivors stepping, both pass — and only after the
        // two-phase exchange (install flags, then confirmations), never
        // on the first round.
        let mut b0 = InstallBarrier::new(1, vec![0, 1], plan.reconfig.clone(), 0);
        let mut b1 = InstallBarrier::new(1, vec![0, 1], plan.reconfig.clone(), 1);
        assert!(!b0.step(&ssts[0], &mut post(0)));
        assert!(!b1.step(&ssts[1], &mut post(1)));
        let mut done = (false, false);
        for _ in 0..10 {
            done.0 = done.0 || b0.step(&ssts[0], &mut post(0));
            done.1 = done.1 || b1.step(&ssts[1], &mut post(1));
            if done == (true, true) {
                break;
            }
        }
        assert_eq!(done, (true, true), "two live survivors must converge");
    }

    /// Converges a 4-node cluster (row 3 silently dead, row 0 the
    /// proposing leader armed to crash at `boundary`) and returns the
    /// surviving rows' installed proposals.
    fn handoff(boundary: VcBoundary) -> (Sim, Vec<Option<Proposal>>) {
        let mut s = sim(all_senders(4), 1, reconfig::bits_of([3]));
        s.engines[0].arm_crash(boundary);
        let frontiers = vec![vec![7], vec![5], vec![6], vec![9]];
        let installed = converge(&mut s, &frontiers, &[3]);
        (s, installed)
    }

    #[test]
    fn leader_crash_at_wedge_hands_off_with_fresh_trim() {
        // Row 0 dies before ever proposing: the takeover leader (row 1)
        // computes a fresh trim that evicts both corpses, with the cut
        // over the remaining survivors only.
        let (_, installed) = handoff(VcBoundary::Wedge);
        assert!(installed[0].is_none(), "crashed leader installed");
        for row in [1, 2] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.vid, 1);
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([0, 3]));
            assert_eq!(p.cuts, vec![5], "min over survivors {{1, 2}}");
            assert_eq!(p.proposer, 1, "next-lowest survivor re-proposed");
        }
    }

    #[test]
    fn leader_crash_after_propose_hands_off_with_fresh_trim() {
        // Row 0 dies right after posting its proposal, before anyone
        // acked it: the proposal is superseded (no tags name it), and
        // the takeover trim evicts the dead leader too.
        let (_, installed) = handoff(VcBoundary::Propose);
        assert!(installed[0].is_none());
        for row in [1, 2] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([0, 3]));
            assert_eq!(p.cuts, vec![5]);
            assert_eq!(p.proposer, 1);
        }
    }

    #[test]
    fn leader_crash_after_ack_is_adopted_verbatim() {
        // Row 0 dies after its ack tag landed: the partially-acked trim
        // must never be contradicted, so the takeover leader re-proposes
        // it verbatim — the dead leader's failed set ({3} only; row 0
        // itself stays a member until the *next* transition) and the
        // dead leader's cut (min over {0, 1, 2} = 5).
        let (s, installed) = handoff(VcBoundary::Ack);
        assert!(installed[0].is_none());
        for row in [1, 2] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(
                p.failed_rows(),
                std::collections::BTreeSet::from([3]),
                "verbatim adoption keeps the dead leader in the view"
            );
            assert_eq!(p.cuts, vec![5]);
        }
        // Both survivors carry the residual suspicion of row 0 that the
        // drivers reseed into the next transition.
        for row in [1, 2] {
            assert_ne!(s.engines[row].suspicions() & 1, 0);
        }
    }

    #[test]
    fn leader_crash_at_install_still_installs_everywhere() {
        // Row 0 dies at the install boundary: every survivor already
        // acked, so the quorum (tagged acks + suspicion skips) is intact
        // and the survivors install without a new proposal.
        let (_, installed) = handoff(VcBoundary::Install);
        assert!(installed[0].is_none());
        for row in [1, 2] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([3]));
            assert_eq!(p.cuts, vec![5]);
            assert_eq!(p.proposer, 0, "the dead leader's own proposal stands");
        }
    }

    #[test]
    fn cascaded_leader_crashes_hand_off_twice() {
        // Two handoffs in one transition: row 0 dies after proposing
        // (superseded), row 1 dies after acking its own takeover
        // proposal (adopted verbatim by row 2). Rows 2 and 3 agree.
        let mut s = sim(all_senders(5), 2, reconfig::bits_of([4]));
        s.engines[0].arm_crash(VcBoundary::Propose);
        s.engines[1].arm_crash(VcBoundary::Ack);
        let frontiers = vec![vec![3], vec![4], vec![6], vec![8], vec![9]];
        let installed = converge(&mut s, &frontiers, &[4]);
        assert!(installed[0].is_none());
        assert!(installed[1].is_none());
        for row in [2, 3] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.vid, 1);
            // Row 1's fresh takeover trim named {0, 4}; its acked ballot
            // is re-proposed verbatim, so row 1 itself stays a member.
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([0, 4]));
            assert_eq!(p.cuts, vec![4], "row 1's trim: min over {{1, 2, 3}}");
        }
    }

    #[test]
    fn takeover_salvages_pending_join() {
        // A sponsored join armed on a leader that dies mid-join must not
        // be dropped: the join word is already in the dead leader's
        // guarded proposal, and the takeover leader's fresh trim adopts
        // it.
        let mut s = sim(all_senders(3), 1, PLANNED_BIT);
        let join = reconfig::JoinEndpoint::parse("10.0.0.9:7100", true).unwrap();
        s.engines[0].set_join_intent(join.clone());
        s.engines[0].arm_crash(VcBoundary::Propose);
        let frontiers = vec![vec![5], vec![5], vec![5]];
        let installed = converge(&mut s, &frontiers, &[]);
        assert!(installed[0].is_none());
        for row in [1, 2] {
            let p = installed[row].as_ref().expect("survivor installed");
            assert_eq!(p.join_endpoint(), Some(&join), "join word salvaged");
            assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([0]));
            assert_eq!(p.proposer, 1);
        }
    }

    #[test]
    fn superseded_proposal_collects_no_late_acks() {
        // Explicit supersession: after the handoff, every surviving
        // row's published ack tag names the *takeover* ballot — the dead
        // leader's same-vid proposal is still sitting in its guarded
        // list, but no tag names it, so it can never reach quorum even
        // if a laggard unwedges with it in sight.
        let (s, installed) = handoff(VcBoundary::Propose);
        let plan = Plan::build(&s.view, true);
        let winner = installed[1].as_ref().unwrap().ballot();
        for row in [1, 2] {
            let tag = s.ssts[row].counter(plan.reconfig.ack_tag, row);
            let (vid, turn, proposer) = reconfig::unpack_ack_tag(tag).expect("tagged");
            assert_eq!(vid, 1);
            assert_eq!(reconfig::pack_ballot(turn, proposer), winner);
            assert_eq!(proposer, 1, "no ack names the superseded proposer");
        }
        // The dead leader's proposal is still decodable in its list —
        // supersession is by ballot, not by erasure.
        let (v, items) = read_list(&s.ssts[1], plan.reconfig.proposal, 0).unwrap();
        assert_ne!(v, 0, "the superseded proposal survives in the list");
        let stale = Proposal::decode(&items, 1).expect("decodable");
        assert_eq!(stale.vid, 1);
        assert!(stale.ballot() < winner);
    }

    proptest! {
        /// The decentralized ragged trim that falls out of the engine
        /// (frozen columns → leader minimum → proposal) equals the
        /// centralized computation (the minimum frontier over survivors,
        /// as `Cluster::remove_node` computed it before this engine
        /// existed) on the same state — for every survivor, on random
        /// SST states.
        #[test]
        fn decentralized_trim_equals_centralized(
            frontier_seed in prop::collection::vec(-1i64..500, 8),
            nodes in 3usize..6,
            failed in 0usize..6,
        ) {
            let failed = failed % nodes;
            let trigger_row = (failed + 1) % nodes; // a survivor raises it
            let frontiers: Vec<Vec<SeqNum>> =
                (0..nodes).map(|r| vec![frontier_seed[r % 8]]).collect();
            let mut s = sim(all_senders(nodes), trigger_row, reconfig::bits_of([failed]));
            let installed = converge(&mut s, &frontiers, &[failed]);
            // The centralized reference: min frontier over survivors.
            let centralized = (0..nodes)
                .filter(|&r| r != failed)
                .map(|r| frontiers[r][0])
                .min()
                .unwrap();
            for row in (0..nodes).filter(|&r| r != failed) {
                let p = installed[row].as_ref().expect("survivor installed");
                prop_assert_eq!(p.cuts.clone(), vec![centralized]);
                prop_assert_eq!(p.failed_rows(), std::collections::BTreeSet::from([failed]));
            }
        }
    }
}
