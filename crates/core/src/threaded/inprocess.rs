//! [`Cluster::remove_node`] and [`Cluster::admit`]: the caller's side of an
//! epoch transition. The predicate threads run it (each row's
//! [`Transition`](super::distributed::Transition)); the caller validates
//! the request, raises the trigger on one local row and waits for the
//! local rows' reports — and a joiner holds its end of the install barrier
//! ([`Cluster::join_barrier`]).

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use spindle_fabric::{Fabric, NodeId};
use spindle_membership::reconfig::{self, PLANNED_BIT};
use spindle_membership::View;

use super::api::{AdmitRequest, Cluster, ViewChangeError, ViewChangeReport};
use super::node::{ops_to, JoinIntent, NodeShared};
use super::predicate::EpochLocal;
use super::VC_DEADLINE;
use crate::plan::Plan;
use crate::viewchange::InstallBarrier;

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
    /// would leave an empty subgroup / a singleton cluster. The cluster is
    /// unchanged on these. [`ViewChangeError::Stalled`] is different: the
    /// transition was started and did not converge, and every row that
    /// could not finish it has closed itself (its sends fail with
    /// [`SendError::Closed`](super::SendError::Closed)) — unavailable,
    /// never inconsistent, on every transport.
    pub fn remove_node(&mut self, failed: usize) -> Result<ViewChangeReport, ViewChangeError> {
        let old_view = self.view();
        if !old_view.contains(NodeId(failed)) || !self.alive(failed) {
            return Err(ViewChangeError::UnknownNode(failed));
        }
        // The failed node and every silently crashed one leave together.
        let mut gone: BTreeSet<usize> = self.crashed_rows().collect();
        gone.insert(failed);
        // Validate the next view before touching anything.
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
        let active_gone = gone.iter().copied().filter(|&m| old_view.is_active(m));
        let trigger = match reconfig::bits_of(active_gone) {
            0 => PLANNED_BIT,
            bits => bits,
        };
        self.trigger_row(&gone)?.trigger(trigger);
        let mut report = self.await_transition(&old_view, &gone)?;
        loop {
            // Only the explicitly removed node's handle closes; silently
            // crashed rows leave every subgroup too but keep their
            // (dead-threaded) handles until their own removal is
            // requested.
            self.shared(failed).inner.lock().close();
            // A proposal adopted *verbatim* after a mid-transition crash
            // keeps the dead row as a member (the takeover rule never
            // edits an acked trim). The survivors carry its suspicion
            // over and drive one more transition at once; the caller sees
            // the final state.
            let view = self.view();
            if !self.crashed_rows().any(|m| view.is_active(m)) {
                return Ok(report);
            }
            match self.await_transition(&view, &gone) {
                Ok(follow_up) => report = follow_up,
                Err(_) => return Ok(report),
            }
        }
    }

    /// Admits one joiner into the cluster — the single entry point for
    /// growth (§2.1 treats joins and removals as the same epoch
    /// transition). The [`AdmitRequest`] says where the joiner runs, and
    /// the two stay two: a row of this process is a thread this call
    /// spawns, a row of another process is that process, running the join
    /// handshake (`spindle_net::join`) on its own side.
    ///
    /// * **With an endpoint** ([`AdmitRequest::remote`]): a fresh
    ///   *process* joins a cluster whose view has rows in other processes.
    ///   The sponsor — which must host the leader row — publishes the
    ///   joiner's endpoint through its next planned proposal, every
    ///   survivor derives the identical grown view
    ///   ([`reconfig::join_view`]) and enters it on a fabric grown by a
    ///   [`joined`] entry ([`Fabric::begin_epoch`]), and the install
    ///   barrier holds application traffic until the joiner's own mirror
    ///   is connected and caught up. The joiner's handle in *this*
    ///   process is a closed remote stub.
    /// * **Without** ([`AdmitRequest::in_process`]): a new row of this
    ///   process joins a cluster that hosts every row of its view,
    ///   entering the requested subgroups — the same transition and the
    ///   same barrier, with this call playing the joining process: it
    ///   brings the row up on the new epoch's fabric and holds its end of
    ///   the barrier ([`Cluster::join_barrier`]). Its live handle is at
    ///   [`Cluster::node`]; it delivers from the new epoch onward
    ///   (virtual synchrony: the joiner observes no old-epoch traffic —
    ///   higher layers such as the DDS volatile store handle catch-up).
    ///
    /// Returns the joiner's row id and the transition report.
    ///
    /// # Errors
    ///
    /// [`ViewChangeError::UnknownSubgroup`] if the request names a
    /// subgroup outside the view, and
    /// [`ViewChangeError::BadJoinAddress`] for endpoints that cannot
    /// travel in a proposal or when the row cap is reached — argument
    /// validation surfaces first, mirroring [`Cluster::remove_node`].
    /// Then, by where the rows run: [`ViewChangeError::InProcessJoin`]
    /// for an endpoint on a cluster that hosts every row,
    /// [`ViewChangeError::JoinerAddressRequired`] for a missing endpoint
    /// on one that does not, [`ViewChangeError::NotLeader`] when this
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
        // Argument validation first.
        if let Some(joins) = &req.subgroups {
            let subgroups = self.view().subgroups().len();
            for &(g, _) in joins {
                if g.0 >= subgroups {
                    return Err(ViewChangeError::UnknownSubgroup(g));
                }
            }
        }
        let admitted = match &req.endpoint {
            Some(addr) => {
                let join = reconfig::JoinEndpoint::parse(addr, req.as_sender)
                    .map_err(ViewChangeError::BadJoinAddress)?;
                self.admit_remote(join)
            }
            None => self.admit_local(&req),
        };
        // Whatever happened, nothing may stay armed: a leftover intent
        // would ride the *next* unrelated transition and install a row
        // that long gave up, and a leftover planned trigger would drive
        // an empty transition after the caller already has its error.
        for n in &self.nodes {
            n.shared.join_intent.lock().take();
            if admitted.is_err() {
                n.shared
                    .vc_trigger
                    .fetch_and(!PLANNED_BIT, Ordering::AcqRel);
            }
        }
        admitted
    }

    /// The deterministic leader row (lowest live active row) of the live
    /// [`Cluster::view`] — the only row whose proposal can carry a join
    /// intent, so a join sponsor checks this *before* doing any work and
    /// redirects the joiner when it does not host it. Rows hosted by
    /// *other* processes are closed stubs here — the view is authoritative
    /// for them; the participation check only applies to rows this
    /// process hosts.
    pub fn leader_row(&self) -> Option<usize> {
        self.view()
            .active_rows()
            .filter(|&m| !self.local_rows.contains(&m) || self.participating(m))
            .min()
    }

    /// [`Cluster::admit`] for a joining process: arms the leader's join
    /// intent, triggers the transition, and returns on the leader's
    /// *early* report (published at install, before the barrier the
    /// joiner is a party of) — the sponsor must still send the joiner its
    /// commit.
    fn admit_remote(
        &mut self,
        join: reconfig::JoinEndpoint,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        let old_view = self.view();
        let every = reconfig::every_subgroup(&old_view, join.as_sender);
        let (_, new_row) = reconfig::join_view(&old_view, &BTreeSet::new(), &every)?;
        if self.hosts_every_row() {
            return Err(ViewChangeError::InProcessJoin);
        }
        // Only the leader's proposal carries the join intent, so the
        // sponsor must host the leader row.
        let leader = self.leader_row().ok_or(ViewChangeError::TooFewSurvivors)?;
        if !self.local_rows.contains(&leader) {
            return Err(ViewChangeError::NotLeader { leader });
        }
        *self.shared(leader).join_intent.lock() = Some(JoinIntent::Remote(join));
        self.shared(leader).trigger(PLANNED_BIT);
        let deadline = Instant::now() + VC_DEADLINE;
        let report = self
            .await_report(leader, old_view.id(), false, deadline)?
            .ok_or(ViewChangeError::Stalled)?;
        let view = self.view();
        if !view.contains(NodeId(new_row)) {
            // A concurrent failure-driven transition won the epoch
            // without the join (e.g. the sponsor lost leadership to a
            // suspicion mid-flight). Nothing was corrupted; the caller
            // may retry against the new view.
            return Err(ViewChangeError::Stalled);
        }
        // The joiner runs remotely; keep row indexing uniform with a
        // closed stub handle, exactly as start_distributed does.
        self.push_remote_stub(&view, &Plan::build(&view, true), new_row);
        Ok((new_row, report))
    }

    /// [`Cluster::admit`] for a new row of this process. The transition
    /// is the one a joining process gets; what the join handshake does
    /// across processes happens here across threads: wait for the local
    /// rows to install the grown view, bring the joiner up on that
    /// epoch's fabric, hold its end of the install barrier, then collect
    /// the survivors' reports.
    fn admit_local(
        &mut self,
        req: &AdmitRequest,
    ) -> Result<(usize, ViewChangeReport), ViewChangeError> {
        let old_view = self.view();
        let joins = match &req.subgroups {
            Some(joins) => joins.clone(),
            None => reconfig::every_subgroup(&old_view, req.as_sender),
        };
        // The grown view the rows will derive; the row cap is checked
        // here, before any row is triggered.
        let none = BTreeSet::new();
        let (_, new_row) = reconfig::join_view(&old_view, &none, &joins)?;
        if !self.hosts_every_row() {
            // Rows run in other processes too: a new row is a new
            // process, and the request must carry its endpoint.
            return Err(ViewChangeError::JoinerAddressRequired);
        }
        // A *planned* reconfiguration; nodes that crashed silently are
        // named failed, so they are excluded from the trim quorum and
        // leave every subgroup.
        let trigger = PLANNED_BIT | reconfig::bits_of(self.crashed_rows());
        let deadline = Instant::now() + VC_DEADLINE;
        let trigger_row = self.trigger_row(&none)?;
        // Every local row must hold the intent before any can start.
        for &row in &self.local_rows {
            *self.shared(row).join_intent.lock() = Some(JoinIntent::Local(joins.clone()));
        }
        trigger_row.trigger(trigger);
        while self.view().id() <= old_view.id() {
            if Instant::now() > deadline {
                return Err(ViewChangeError::Stalled);
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        if !self.view().contains(NodeId(new_row)) {
            // A transition that was already under way won the epoch.
            return Err(ViewChangeError::Stalled);
        }
        self.spawn_node(new_row);
        if !self.join_barrier(new_row, deadline.saturating_duration_since(Instant::now())) {
            self.shared(new_row).inner.lock().close();
            return Err(ViewChangeError::Stalled);
        }
        let report = self.await_transition(&old_view, &none)?;
        Ok((new_row, report))
    }

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
        let peers = &local.hb_peers;
        let mut barrier = InstallBarrier::new(local.epoch, peers.clone(), cols, row);
        let mut post = |range: Range<usize>| {
            for op in ops_to(peers, row, range) {
                local.fabric.post(NodeId(row), &op);
            }
        };
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

    /// Rows that crashed silently: not removed (their handles are open),
    /// but their predicate threads are gone.
    fn crashed_rows(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.view().members().len()).filter(|&m| self.alive(m) && !self.participating(m))
    }

    /// The row a transition is triggered on: the lowest live local row
    /// that takes part in it and is not `leaving`. Its predicate thread
    /// wedges and raises the suspicion; every other row learns of it from
    /// that row's SST column.
    fn trigger_row(&self, leaving: &BTreeSet<usize>) -> Result<&NodeShared<F>, ViewChangeError> {
        let view = self.view();
        let mut rows = self.local_rows.iter().copied();
        rows.find(|&r| view.is_active(r) && self.participating(r) && !leaving.contains(&r))
            .map(|r| self.shared(r))
            .ok_or(ViewChangeError::TooFewSurvivors)
    }

    /// Waits for `row`'s predicate thread to publish the report of a
    /// transition past `old_epoch`, and takes it; `None` if the row left
    /// the protocol instead (crashed or closed mid-transition). A leftover
    /// report from an earlier transition is recognizable by its stale
    /// epoch and skipped. A grow transition publishes twice — early, at
    /// install, and after the barrier and the resend requeue, just before
    /// the row unwedges; `settled` waits for the latter.
    fn await_report(
        &self,
        row: usize,
        old_epoch: u64,
        settled: bool,
        deadline: Instant,
    ) -> Result<Option<ViewChangeReport>, ViewChangeError> {
        let shared = self.shared(row);
        while self.participating(row) {
            {
                let mut slot = shared.vc_report.lock();
                let fresh = slot.as_ref().is_some_and(|r| r.epoch > old_epoch);
                if fresh && !(settled && shared.wedged.load(Ordering::Acquire)) {
                    return Ok(slot.take());
                }
            }
            if Instant::now() > deadline {
                return Err(ViewChangeError::Stalled);
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(None)
    }

    /// Waits until every local row that takes part in the transition out
    /// of `old_view` (all but those `leaving`) has finished it — so the
    /// whole local cluster takes sends again on return. The report is
    /// theirs, with the resends summed.
    fn await_transition(
        &self,
        old_view: &View,
        leaving: &BTreeSet<usize>,
    ) -> Result<ViewChangeReport, ViewChangeError> {
        let deadline = Instant::now() + VC_DEADLINE;
        let mut total: Option<ViewChangeReport> = None;
        for &row in &self.local_rows {
            if !old_view.is_active(row) || leaving.contains(&row) {
                continue;
            }
            let Some(report) = self.await_report(row, old_view.id(), true, deadline)? else {
                continue;
            };
            let resent = report.resent + total.as_ref().map_or(0, |t| t.resent);
            let newest = match total {
                Some(t) if t.epoch >= report.epoch => t,
                _ => report,
            };
            total = Some(ViewChangeReport { resent, ..newest });
        }
        total.ok_or(ViewChangeError::Stalled)
    }
}
