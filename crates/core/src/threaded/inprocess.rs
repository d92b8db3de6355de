//! [`Cluster::remove_node`] and [`Cluster::admit`] — which pick a driver
//! from what the cluster was built over — and the caller-stepped driver of
//! factory-built clusters: every local node's engine is stepped from the
//! calling thread while the predicate threads stand parked.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use spindle_fabric::{Fabric, NodeId};
use spindle_membership::reconfig::{self, Proposal, PLANNED_BIT};
use spindle_membership::{Subgroup, SubgroupId, View, ViewBuilder};

use super::api::{AdmitRequest, Cluster, ViewChangeError, ViewChangeReport};
use super::node::{active_rows, is_active, post_to, NodeInner};
use super::predicate::drain_node_through;
use super::VC_DEADLINE;
use crate::config::DeliveryTiming;
use crate::plan::Plan;
use crate::viewchange::{VcStep, ViewChangeEngine};

/// A message recovered at the epoch cut, owed a resend in the next view:
/// `(sender row, subgroup, payload)`.
type ResendSet = Vec<(usize, SubgroupId, Vec<u8>)>;

impl<F: Fabric> Cluster<F> {
    /// Executes a view change that removes `failed` (crash or planned
    /// leave): wedge, SST-driven ragged-trim agreement, final deliveries,
    /// new view install, and resend of surviving senders' undelivered
    /// messages (§2.1). Nodes that crashed silently before the call leave
    /// the view in the same transition.
    ///
    /// # Errors
    ///
    /// Returns a [`ViewChangeError`] if the node is unknown or removal
    /// would leave an empty subgroup / a singleton cluster — checked (and
    /// reported) even when the transport cannot reconfigure at all
    /// ([`ViewChangeError::StaticFabric`]). The cluster is unchanged on
    /// error.
    pub fn remove_node(&mut self, failed: usize) -> Result<ViewChangeReport, ViewChangeError> {
        let old_view = Arc::clone(&self.view);
        if !old_view.contains(NodeId(failed)) || !self.alive(failed) {
            return Err(ViewChangeError::UnknownNode(failed));
        }
        // The failed node and every silently crashed one leave together.
        let mut gone: BTreeSet<usize> = self.crashed_rows().collect();
        gone.insert(failed);
        // Validate the next view before touching anything — argument
        // errors surface even on a static fabric.
        reconfig::removal_view(&old_view, &gone)?;
        // removal_view counts top-level members; rows removed in earlier
        // epochs are still members (ids are stable) but cannot form a
        // quorum. The transition needs two *live* survivors.
        let live_survivors = old_view
            .members()
            .iter()
            .filter(|m| !gone.contains(&m.0) && self.participating(m.0))
            .count();
        if live_survivors < 2 {
            return Err(ViewChangeError::TooFewSurvivors);
        }
        // Rows still in a subgroup are suspected by the engine; removing
        // only subgroup-less zombies (e.g. the second removal after a
        // crash pair left one view change earlier) is a *planned*
        // transition — there is no failure left to agree on.
        let active_gone: Vec<usize> = gone
            .iter()
            .copied()
            .filter(|&m| is_active(&old_view, m))
            .collect();
        let trigger = if active_gone.is_empty() {
            PLANNED_BIT
        } else {
            reconfig::bits_of(active_gone)
        };
        if self.factory.is_none() {
            if self.fabric.supports_epoch_advance() {
                return self.trigger_distributed(failed, trigger, &gone);
            }
            return Err(ViewChangeError::StaticFabric);
        }

        // In-process, the next view removes the validated `gone` set
        // (it may contain subgroup-less zombies the planned proposal
        // does not name) *plus* every row the agreed proposal evicts: a
        // fresh takeover trim after a mid-transition leader crash names
        // the crashed leader too, which was still participating when
        // `gone` was collected. (A proposal adopted *verbatim* may name
        // fewer rows than actually died — the residual sweep below
        // catches those.) Only the explicitly removed node's handle
        // closes; silently crashed rows leave every subgroup too but keep
        // their (dead-threaded) handles until their own removal is
        // requested.
        let next_view = |proposal: &Proposal| {
            let evicted = proposal.failed_rows();
            let evicted = evicted.iter().filter(|&&m| old_view.contains(NodeId(m)));
            let gone_all = gone.iter().chain(evicted).copied().collect();
            Ok(reconfig::removal_view(&old_view, &gone_all)?)
        };
        let report = self.transition(trigger, next_view, Some(failed), None)?;
        // A proposal adopted *verbatim* after a mid-transition crash may
        // keep a dead row as a member (the takeover rule never edits an
        // acked trim). Its residual suspicion drives one more transition
        // immediately — the in-process analogue of a distributed
        // survivor reseeding its trigger from leftover suspicion bits.
        let residual = self.crashed_rows().find(|&m| is_active(&self.view, m));
        if let Some(r) = residual {
            if let Ok(follow_up) = self.remove_node(r) {
                return Ok(follow_up);
            }
        }
        Ok(report)
    }

    /// Admits one joiner into the cluster — the single entry point for
    /// growth (§2.1 treats joins and removals as the same epoch
    /// transition). The [`AdmitRequest`] decides the mechanism:
    ///
    /// * **With an endpoint** ([`AdmitRequest::remote`]): a fresh
    ///   *process* joins a distributed cluster. The sponsor — which must
    ///   host the leader row — publishes the joiner's endpoint through
    ///   its next planned proposal, every survivor derives the identical
    ///   grown view ([`reconfig::join_view`]) and extends its transport
    ///   in place ([`Fabric::begin_epoch`] with a [`joined`] entry), and
    ///   the install barrier holds application traffic until the joiner's
    ///   own mirror is connected and caught up. The joiner's handle in
    ///   *this* process is a closed remote stub (the real row runs in the
    ///   joining process).
    /// * **Without** ([`AdmitRequest::in_process`]): a new in-process
    ///   node joins a factory-built cluster, entering the requested
    ///   subgroups; its live handle is at [`Cluster::node`].
    ///
    /// Returns the joiner's row id and the transition report.
    ///
    /// # Errors
    ///
    /// [`ViewChangeError::UnknownSubgroup`] if the request names a
    /// subgroup outside the view, and
    /// [`ViewChangeError::BadJoinAddress`] for endpoints that cannot
    /// travel in a proposal or when the row cap is reached — argument
    /// validation surfaces first, on any transport, mirroring
    /// [`Cluster::remove_node`]. Then, by transport:
    /// [`ViewChangeError::InProcessJoin`] for an endpoint on a
    /// factory-built cluster, [`ViewChangeError::JoinerAddressRequired`]
    /// for a missing endpoint on a distributed epoch-capable cluster,
    /// [`ViewChangeError::StaticFabric`] on transports without
    /// [`Fabric::begin_epoch`], [`ViewChangeError::NotLeader`] when this
    /// process does not host the leader row, and
    /// [`ViewChangeError::Stalled`] when the transition does not
    /// converge (or a concurrent failure-driven transition won the epoch
    /// without the join — safe to retry).
    ///
    /// [`joined`]: spindle_fabric::EpochTransition::joined
    pub fn admit(
        &mut self,
        req: AdmitRequest,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        // Argument validation first — even on a static fabric.
        if let Some(joins) = &req.subgroups {
            for &(g, _) in joins {
                if g.0 >= self.view.subgroups().len() {
                    return Err(ViewChangeError::UnknownSubgroup(g));
                }
            }
        }
        match &req.endpoint {
            Some(addr) => {
                let join = reconfig::JoinEndpoint::parse(addr, req.as_sender)
                    .map_err(ViewChangeError::BadJoinAddress)?;
                self.admit_remote(join)
            }
            None => self.admit_in_process(&req),
        }
    }

    /// The current deterministic leader row (lowest live active row) —
    /// the only row whose proposal can carry a join intent, so a join
    /// sponsor checks this *before* doing any work and redirects the
    /// joiner when it does not host it. Rows hosted by *other* processes
    /// are closed stubs here — the view is authoritative for them; the
    /// participation check only applies to rows this process hosts.
    pub fn leader_row(&self) -> Option<usize> {
        active_rows(&self.view)
            .filter(|&m| !self.local_rows.contains(&m) || self.participating(m))
            .min()
    }

    /// Steps every local participating node's [`ViewChangeEngine`] round
    /// robin until all converge: the trigger bits seed the lowest live
    /// row, suspicion spreads through the SST, the deterministic leader
    /// proposes, every survivor delivers through the cut (this is where
    /// the final old-epoch deliveries happen) and acks, and the engines finish.
    /// Returns the agreed proposal and the collected resend set.
    fn run_engines(&self, trigger_bits: u64) -> Result<(Proposal, ResendSet), ViewChangeError> {
        let view = Arc::clone(&self.view);
        // Survivor engines only: a node in the trigger set may be
        // partitioned (an isolated node can neither see the proposal nor
        // push acks), and its eviction is authoritative from the
        // survivors' side — exactly as in the distributed runtime, where
        // the failed process runs nothing at all.
        let rows: Vec<usize> = view
            .members()
            .iter()
            .map(|m| m.0)
            .filter(|&m| {
                self.local_rows.contains(&m)
                    && self.participating(m)
                    && trigger_bits & (1 << m) == 0
            })
            .collect();
        let trigger_row = *rows.first().expect("a live row drives the transition");
        let members: Vec<usize> = view.members().iter().map(|m| m.0).collect();
        let mut engines: Vec<(usize, ViewChangeEngine, VcStep)> = rows
            .iter()
            .map(|&row| {
                let cols = self.shared(row).inner.lock().reconfig.clone();
                let bits = if row == trigger_row { trigger_bits } else { 0 };
                let mut engine = ViewChangeEngine::new(Arc::clone(&view), cols, row, bits);
                engine.set_obs(self.obs.clone());
                if let Some(b) = self.vc_crash.lock().remove(&row) {
                    engine.arm_crash(b);
                }
                (row, engine, VcStep::Pending)
            })
            .collect();
        let deadline = Instant::now() + VC_DEADLINE;
        let mut proposal: Option<Proposal> = None;
        let mut drained = false;
        let mut resend = Vec::new();
        // Rows that hit an armed crash boundary mid-transition. The
        // driver plays detector for them — each iteration feeds the bits
        // to every live engine, the way distributed survivors learn of a
        // mid-transition death from their heartbeat detectors.
        let mut crashed_bits: u64 = 0;
        loop {
            let mut all_finished = true;
            for (row, engine, state) in &mut engines {
                if matches!(
                    state,
                    VcStep::Install(_) | VcStep::Evicted | VcStep::Crashed
                ) {
                    continue;
                }
                engine.suspect(crashed_bits);
                let (sst, fabric, frontiers, rc) = {
                    let inner = self.shared(*row).inner.lock();
                    if !inner.alive || self.shared(*row).killed.load(Ordering::Acquire) {
                        // Crashed mid-transition: it stops participating;
                        // the survivors' quorum carries on without it only
                        // if it is in the failed set — otherwise we stall
                        // and report it.
                        *state = VcStep::Evicted;
                        continue;
                    }
                    (
                        inner.sst.clone(),
                        inner.live_fabric(),
                        inner.frontiers(),
                        inner.reconfig.clone(),
                    )
                };
                let mut post = post_to(&fabric, *row, &members);
                match engine.step(&sst, &frontiers, &mut post) {
                    VcStep::Pending | VcStep::Done => all_finished = false,
                    VcStep::Deliver(p) => {
                        proposal.get_or_insert(p.clone());
                        *state = VcStep::Deliver(p);
                        all_finished = false;
                    }
                    VcStep::Crashed => {
                        // The armed boundary fired: from here the node is
                        // a silent corpse — no heartbeats, no engine
                        // steps; the survivors take over.
                        crashed_bits |= 1 << *row;
                        self.shared(*row).killed.store(true, Ordering::Release);
                        *state = VcStep::Crashed;
                    }
                    s @ VcStep::Install(_) => {
                        // Mirror the install barrier's first push: once
                        // this engine stops stepping, its `installed`
                        // flag is what lets a late takeover leader close
                        // its quorum (exact-tag acks alone would wait on
                        // this row forever).
                        if let VcStep::Install(p) = &s {
                            sst.set_counter(rc.installed, p.vid as i64);
                            post(sst.layout().abs_range(*row, rc.installed.word_range()));
                        }
                        *state = s;
                    }
                    VcStep::Evicted => *state = VcStep::Evicted,
                }
            }
            // Once every engine holds the proposal (or is out), run the
            // cluster-wide drain exactly once, then release the acks.
            if !drained {
                let ready = engines.iter().all(|(_, _, s)| {
                    matches!(s, VcStep::Deliver(_) | VcStep::Evicted | VcStep::Crashed)
                });
                if ready {
                    let Some(p) = proposal.as_ref() else {
                        // Every engine crashed or was evicted before any
                        // adopted a proposal: no quorum remains.
                        return Err(ViewChangeError::Stalled);
                    };
                    let survivors: Vec<usize> = active_rows(&view)
                        .filter(|&m| p.failed & (1 << m) == 0 && self.participating(m))
                        .collect();
                    // Deliver exactly through the cut at every survivor,
                    // collecting its own undelivered messages for resend.
                    let ordered = self.cfg.delivery_timing == DeliveryTiming::Ordered;
                    for m in survivors {
                        let own = drain_node_through(self.shared(m), &p.cuts, ordered);
                        resend.extend(own.into_iter().map(|(sg, payload)| (m, sg, payload)));
                    }
                    for (_, engine, state) in &mut engines {
                        if matches!(state, VcStep::Deliver(_)) {
                            engine.mark_delivered();
                        }
                    }
                    drained = true;
                }
            }
            if drained && all_finished {
                return Ok((proposal.expect("converged with a proposal"), resend));
            }
            if Instant::now() > deadline {
                return Err(ViewChangeError::Stalled);
            }
            std::thread::yield_now();
        }
    }

    /// The in-process half of [`Cluster::admit`] (§2.1 "node joins"):
    /// the epoch transition wedges the old view, trims and delivers
    /// exactly as for a removal, then installs a view whose top-level
    /// membership gains one node, appended to the members (and
    /// optionally senders) of the requested subgroups. The joiner's
    /// handle delivers from the new epoch onward (virtual synchrony:
    /// the joiner observes no old-epoch traffic — higher layers such as
    /// the DDS volatile store handle catch-up).
    fn admit_in_process(
        &mut self,
        req: &AdmitRequest,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        let old_view = Arc::clone(&self.view);
        if self.factory.is_none() {
            // A new row means a new process on a pre-built transport. An
            // epoch-capable fabric *can* grow — but the request must
            // then carry the joiner's endpoint; a truly static fabric
            // cannot reconfigure at all. Either way admit's argument
            // errors surface first, mirroring remove_node's validation
            // ordering.
            if self.fabric.supports_epoch_advance() {
                return Err(ViewChangeError::JoinerAddressRequired);
            }
            return Err(ViewChangeError::StaticFabric);
        }
        let joins: Vec<(SubgroupId, bool)> = match &req.subgroups {
            Some(joins) => joins.clone(),
            None => (0..old_view.subgroups().len())
                .map(|g| (SubgroupId(g), req.as_sender))
                .collect(),
        };
        let new_row = self.nodes.len();
        let mut next_subgroups: Vec<Subgroup> = old_view.subgroups().to_vec();
        for &(g, as_sender) in &joins {
            let sg = &mut next_subgroups[g.0];
            sg.members.push(NodeId(new_row));
            if as_sender {
                sg.senders.push(NodeId(new_row));
            }
        }
        let mut members = old_view.members().to_vec();
        members.push(NodeId(new_row));
        // Same SST-driven epoch transition as removal, triggered as a
        // *planned* reconfiguration. Nodes that crashed silently are
        // excluded from the trim quorum (but stay members until a removal
        // evicts them, as before).
        let trigger = PLANNED_BIT | reconfig::bits_of(self.crashed_rows());
        let next_view = |proposal: &Proposal| {
            Ok(ViewBuilder::with_members(proposal.vid, members)
                .id(proposal.vid)
                .subgroups_from(next_subgroups)
                .build()
                .expect("validated next view"))
        };
        let report = self.transition(trigger, next_view, None, Some(new_row))?;
        Ok((new_row, report))
    }

    /// Rows that crashed silently: not removed (their handles are open),
    /// but their predicate threads are gone.
    fn crashed_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.view.members().iter().map(|m| m.0);
        rows.filter(|&m| self.alive(m) && !self.participating(m))
    }

    /// The caller-stepped epoch transition (§2.1), the same for a removal
    /// and a join: wedge, SST-driven agreement including the final
    /// old-epoch deliveries, install of the view `next_view` derives from
    /// the agreed proposal (closing the handle of `closed`, bringing up
    /// `joiner`), resend. On error the cluster is unwedged and unchanged.
    fn transition(
        &mut self,
        trigger: u64,
        next_view: impl FnOnce(&Proposal) -> Result<View, ViewChangeError>,
        closed: Option<usize>,
        joiner: Option<usize>,
    ) -> Result<ViewChangeReport, ViewChangeError> {
        let started = Instant::now();
        // 1. Wedge everyone and wait for the predicate threads to park.
        self.wedge_and_park();

        // 2-3. SST-driven agreement: every local node's engine converges
        // on the leader's proposal, delivers exactly through the cut, and
        // acks; the survivors' undelivered messages come back for resend.
        let agreed = self
            .run_engines(trigger)
            .and_then(|(proposal, resend)| Ok((next_view(&proposal)?, proposal, resend)));
        let (next_view, proposal, resend) = match agreed {
            Ok(agreed) => agreed,
            Err(e) => {
                // Restore liveness: a failed agreement must not leave the
                // cluster wedged forever.
                self.unwedge();
                return Err(e);
            }
        };

        // 4. Install the new view: fresh layout, fresh fabric (§2.3:
        // memory is registered per view), fresh protocol state — and
        // bring up a joiner against the freshly installed fabric, so
        // that everyone unwedges together.
        let next_view = Arc::new(next_view);
        let plan = self.install_view(&next_view, closed);
        if let Some(row) = joiner {
            self.spawn_node(&next_view, &plan, row);
        }

        // 5. Unwedge and resend the recovered messages in the new epoch.
        self.unwedge();
        let resent = resend.len();
        for (node, sg, payload) in resend {
            self.nodes[node]
                .send(sg, &payload)
                .expect("resend in new epoch");
        }
        self.vc_durations.push(started.elapsed());
        Ok(ViewChangeReport {
            epoch: proposal.vid,
            cuts: proposal.cuts,
            resent,
        })
    }

    /// Wedges all nodes and waits for live predicate threads to park.
    fn wedge_and_park(&self) {
        for n in &self.nodes {
            n.shared.wedged.store(true, Ordering::Release);
        }
        for n in &self.nodes {
            if self.participating(n.id.0) {
                while !n.shared.parked.load(Ordering::Acquire) {
                    if n.shared.killed.load(Ordering::Acquire) {
                        break; // crashed while we waited
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Installs `next_view` on every existing node: fresh layout (which
    /// is returned), fresh fabric, fresh protocol state. The handle of
    /// `closed` is marked dead.
    fn install_view(&mut self, next_view: &Arc<View>, closed: Option<usize>) -> Plan {
        let new_epoch = next_view.id();
        let plan = Plan::build(next_view, true);
        let factory = self
            .factory
            .as_ref()
            .expect("view change on a static fabric is rejected earlier");
        let fabric = factory(
            next_view.members().len(),
            plan.layout.region_words(),
            self.faults.clone(),
        );
        for n in &self.nodes {
            let mut inner = n.shared.inner.lock();
            let row = n.id.0;
            if closed == Some(row) || !inner.alive {
                inner.alive = false;
                continue;
            }
            *inner = NodeInner::enter_epoch(next_view, &plan, row, fabric.clone(), &self.obs);
            n.shared.epoch.store(new_epoch, Ordering::Release);
        }
        self.epoch_views.push(Arc::clone(next_view));
        self.view = Arc::clone(next_view);
        self.fabric = fabric;
        // Heartbeat drop ranges are layout-relative; re-derive them.
        self.apply_heartbeat_drops();
        plan
    }

    /// Lets every predicate thread run again.
    fn unwedge(&self) {
        for n in &self.nodes {
            n.shared.wedged.store(false, Ordering::Release);
        }
    }
}
