//! SST layout planning for a view.

use std::ops::Range;
use std::sync::Arc;

use spindle_membership::reconfig::Proposal;
use spindle_membership::View;
use spindle_sst::{CounterCol, LayoutBuilder, ListCol, SlotsCol, SstLayout};

/// The SST column handles of one subgroup.
#[derive(Debug, Clone, Copy)]
pub struct SubgroupCols {
    /// `received_num` — highest prefix-complete sequence number (paper
    /// §2.2), initialized to −1.
    pub recv: CounterCol,
    /// `delivered_num` — last delivered sequence number, initialized to −1.
    pub deliv: CounterCol,
    /// `committed_rounds` — how many round indices this sender has
    /// committed (app messages + nulls). This is the "single integer"
    /// carrier of the Spindle null-send scheme (§3.3); initialized to 0.
    pub committed: CounterCol,
    /// `persisted_num` — last sequence number appended to this member's
    /// durable log (Derecho's persistent atomic multicast, paper footnote
    /// 2); initialized to −1 and only advanced in persistent clusters.
    pub pers: CounterCol,
    /// The SMC ring slots of this subgroup (per sender row).
    pub slots: SlotsCol,
}

/// The SST column block of the decentralized reconfiguration protocol
/// (paper §2.1: membership changes run *through the SST*, driven per node
/// by [`viewchange`](crate::viewchange)).
///
/// The five scalar counters and the per-subgroup frozen frontiers are
/// registered consecutively, so [`ReconfigCols::scalar_block`] covers
/// them with **one** write range: a single posted frame places them
/// all-or-nothing at every peer, which is what makes `wedged = 1` a
/// valid guard for the frozen frontiers even across reconnects (a frame
/// carrying the flag always carries the frontiers it guards).
#[derive(Debug, Clone)]
pub struct ReconfigCols {
    /// Bitmap of rows this node suspects (monotonic under OR; bit 62 is
    /// [`spindle_membership::reconfig::PLANNED_BIT`]).
    pub suspected: CounterCol,
    /// 1 once this node has wedged for the current epoch's transition.
    pub wedged: CounterCol,
    /// The packed `(vid, turn, proposer)` ack tag
    /// ([`spindle_membership::reconfig::pack_ack_tag`]) naming the ballot
    /// this node adopted — written the moment a proposal is adopted
    /// (before the trim is delivered), so a takeover leader reads every
    /// adoption that happened before its own suspicion became visible.
    /// Lexicographic packing keeps the word monotone along the handoff
    /// chain; it sits in the same one-push scalar block as `acked`.
    pub ack_tag: CounterCol,
    /// The proposed view id this node has delivered the ragged trim for.
    pub acked: CounterCol,
    /// The highest view id this node has installed (published in the
    /// *new* epoch's SST as the resume barrier).
    pub installed: CounterCol,
    /// Per subgroup: `received_num` frozen at wedge time — what the
    /// leader computes the ragged trim from.
    pub frozen: Vec<CounterCol>,
    /// The leader's guarded proposal list
    /// ([`spindle_membership::reconfig::Proposal`] encoding).
    pub proposal: ListCol,
    /// Row-relative word range covering every scalar column above (one
    /// push).
    pub scalar_block: Range<usize>,
}

/// The complete SST plan for a view: the layout plus per-subgroup handles.
///
/// Every node in the view builds the identical plan, so the column handles
/// are valid across all replicas (§2.3: layout is fixed within a view).
///
/// # Examples
///
/// ```
/// use spindle_core::Plan;
/// use spindle_membership::ViewBuilder;
///
/// let view = ViewBuilder::new(3)
///     .subgroup(&[0, 1, 2], &[0, 1], 10, 1024)
///     .build()?;
/// let plan = Plan::build(&view, true);
/// assert_eq!(plan.cols.len(), 1);
/// assert_eq!(plan.layout.num_rows(), 3);
/// # Ok::<(), spindle_membership::ViewError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    /// The shared row layout.
    pub layout: Arc<SstLayout>,
    /// Column handles per subgroup, indexed by subgroup id.
    pub cols: Vec<SubgroupCols>,
    /// The top-level heartbeat counter (one per row, initialized to 0),
    /// used by SST failure detection ([`detector`](crate::detector)).
    pub heartbeat: CounterCol,
    /// The reconfiguration column block (suspicions, wedge/ack/install
    /// flags, frozen frontiers, the leader's proposal).
    pub reconfig: ReconfigCols,
}

impl Plan {
    /// Builds the plan for `view`. With `materialize = false`, slot payload
    /// words are not allocated (the simulated runtime's mode; wire sizes
    /// still reflect the logical message size).
    pub fn build(view: &View, materialize: bool) -> Plan {
        let mut b = LayoutBuilder::new();
        let heartbeat = b.add_counter("heartbeat", 0);
        let mut cols = Vec::with_capacity(view.subgroups().len());
        for (g, sg) in view.subgroups().iter().enumerate() {
            let recv = b.add_counter(format!("g{g}.received_num"), -1);
            let deliv = b.add_counter(format!("g{g}.delivered_num"), -1);
            let committed = b.add_counter(format!("g{g}.committed_rounds"), 0);
            let pers = b.add_counter(format!("g{g}.persisted_num"), -1);
            let slots = if materialize {
                b.add_slots(format!("g{g}.smc"), sg.window, sg.max_msg_size)
            } else {
                b.add_slots_meta(format!("g{g}.smc"), sg.window, sg.max_msg_size)
            };
            cols.push(SubgroupCols {
                recv,
                deliv,
                committed,
                pers,
                slots,
            });
        }
        // Reconfiguration block: five scalars, then one frozen frontier
        // per subgroup — consecutive registrations, so one contiguous
        // write range covers them all. `ack_tag` sits directly before
        // `acked` so the install barrier's cross-epoch `acked..installed`
        // push stays a two-word range that never touches the tag.
        let suspected = b.add_counter("vc.suspected", 0);
        let wedged = b.add_counter("vc.wedged", 0);
        let ack_tag = b.add_counter("vc.ack_tag", 0);
        let acked = b.add_counter("vc.acked", 0);
        let installed = b.add_counter("vc.installed", 0);
        let frozen: Vec<CounterCol> = (0..view.subgroups().len())
            .map(|g| b.add_counter(format!("vc.g{g}.frozen"), -1))
            .collect();
        let proposal = b.add_list(
            "vc.proposal",
            Proposal::list_capacity(view.subgroups().len()),
        );
        let block_end = frozen
            .last()
            .map_or(installed.word_range().end, |c| c.word_range().end);
        let reconfig = ReconfigCols {
            suspected,
            wedged,
            ack_tag,
            acked,
            installed,
            frozen,
            proposal,
            scalar_block: suspected.word_range().start..block_end,
        };
        Plan {
            layout: Arc::new(b.finish(view.members().len())),
            cols,
            heartbeat,
            reconfig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_membership::ViewBuilder;

    fn view_3x2() -> View {
        ViewBuilder::new(4)
            .subgroup(&[0, 1, 2], &[0, 1, 2], 8, 256)
            .subgroup(&[1, 2, 3], &[1, 3], 4, 64)
            .build()
            .unwrap()
    }

    #[test]
    fn one_cols_entry_per_subgroup() {
        let plan = Plan::build(&view_3x2(), true);
        assert_eq!(plan.cols.len(), 2);
        assert_eq!(plan.layout.num_rows(), 4);
    }

    #[test]
    fn materialized_plan_is_larger() {
        let view = view_3x2();
        let fat = Plan::build(&view, true);
        let thin = Plan::build(&view, false);
        assert!(fat.layout.row_words() > thin.layout.row_words());
        // Thin plan: heartbeat + (4 counters + 2 control words per slot)
        // per subgroup + the reconfiguration block (5 scalars + one
        // frozen frontier per subgroup + the guarded proposal list).
        let reconfig_words = 5 + 2 + (2 + Proposal::list_capacity(2));
        assert_eq!(
            thin.layout.row_words(),
            1 + 4 + 8 * 2 + 4 + 4 * 2 + reconfig_words
        );
    }

    #[test]
    fn counters_have_paper_initials() {
        let plan = Plan::build(&view_3x2(), false);
        let inits: Vec<i64> = plan.layout.counters().map(|(_, _, i)| i).collect();
        // Heartbeat first, then per subgroup: recv=-1, deliv=-1,
        // committed=0, persisted=-1; then the reconfiguration scalars
        // (suspected/wedged/ack_tag/acked/installed = 0) and per-subgroup
        // frozen frontiers (-1).
        assert_eq!(
            inits,
            vec![0, -1, -1, 0, -1, -1, -1, 0, -1, 0, 0, 0, 0, 0, -1, -1]
        );
    }

    #[test]
    fn reconfig_scalar_block_is_contiguous() {
        let plan = Plan::build(&view_3x2(), false);
        let rc = &plan.reconfig;
        // One write range covers all scalars: suspected..=last frozen.
        assert_eq!(rc.scalar_block.start, rc.suspected.word_range().start);
        assert_eq!(rc.scalar_block.end, rc.frozen[1].word_range().end);
        assert_eq!(rc.scalar_block.len(), 5 + 2);
        for col in [
            rc.suspected,
            rc.wedged,
            rc.ack_tag,
            rc.acked,
            rc.installed,
            rc.frozen[0],
            rc.frozen[1],
        ] {
            assert!(rc.scalar_block.contains(&col.word_range().start));
        }
        // The barrier's cross-epoch push range stays two adjacent words.
        assert_eq!(rc.acked.word_range().end, rc.installed.word_range().start);
        assert_eq!(rc.proposal.capacity(), Proposal::list_capacity(2));
    }

    #[test]
    fn wire_size_preserved_in_thin_plan() {
        let plan = Plan::build(&view_3x2(), false);
        assert_eq!(plan.cols[0].slots.wire_slot_bytes(), 16 + 256);
        assert_eq!(plan.cols[1].slots.wire_slot_bytes(), 16 + 64);
    }
}
