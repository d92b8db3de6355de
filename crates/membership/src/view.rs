//! Views and subgroups.

use std::fmt;

use serde::{Deserialize, Serialize};
use spindle_fabric::NodeId;

use crate::seq::SeqSpace;

/// Identifier of a subgroup within a view (dense, `0..num_subgroups`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SubgroupId(pub usize);

impl fmt::Display for SubgroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One application component: a subset of the view's members, a subset of
/// those designated as senders, and the SMC ring-buffer configuration.
///
/// The sender set is fixed for the lifetime of a view (paper §2.1: "this is
/// done at the beginning of each view and remains fixed until a view change
/// occurs").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Subgroup {
    /// Members, in delivery-relevant order.
    pub members: Vec<NodeId>,
    /// Senders, a subsequence of `members`; ranks index this list.
    pub senders: Vec<NodeId>,
    /// SMC ring-buffer window size `w` (slots per sender).
    pub window: usize,
    /// Maximum message payload size in bytes (`m` in the paper's space
    /// formula `n * w * (m + 8)`).
    pub max_msg_size: usize,
}

impl Subgroup {
    /// Rank of `node` in the member list, if present.
    pub fn member_rank(&self, node: NodeId) -> Option<usize> {
        self.members.iter().position(|&m| m == node)
    }

    /// Rank of `node` in the sender list, if it is a sender.
    pub fn sender_rank(&self, node: NodeId) -> Option<usize> {
        self.senders.iter().position(|&s| s == node)
    }

    /// Whether `node` is a member of this subgroup (what delivery oracles
    /// need to decide which nodes must agree on an epoch's sequence).
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.senders.len()
    }

    /// The sequence space induced by this subgroup's sender set.
    ///
    /// # Panics
    ///
    /// Panics if the subgroup has no senders.
    pub fn seq_space(&self) -> SeqSpace {
        SeqSpace::new(self.senders.len())
    }

    /// Per-node SST slot memory for this subgroup, in bytes: the paper's
    /// `n * w * (m + 8)` (§4.1.2), where `n` counts sender rows.
    pub fn slot_memory_bytes(&self) -> usize {
        self.senders.len() * self.window * (self.max_msg_size + 8)
    }
}

/// A membership view: an epoch of stable membership (paper §2.1).
///
/// Use [`ViewBuilder`] to construct one; construction validates all
/// cross-references (subgroup members exist, senders are members, windows
/// are non-zero).
///
/// # Examples
///
/// ```
/// use spindle_fabric::NodeId;
/// use spindle_membership::{View, ViewBuilder};
///
/// let view: View = ViewBuilder::new(3)
///     .subgroup(&[0, 1, 2], &[0, 1], 100, 1024)
///     .build()?;
/// assert_eq!(view.members().len(), 3);
/// assert_eq!(view.subgroups()[0].num_senders(), 2);
/// assert_eq!(view.subgroups_of(NodeId(2)), vec![spindle_membership::SubgroupId(0)]);
/// # Ok::<(), spindle_membership::ViewError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    id: u64,
    members: Vec<NodeId>,
    subgroups: Vec<Subgroup>,
}

impl View {
    /// The view (epoch) number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Top-level members of this view.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// All subgroups.
    pub fn subgroups(&self) -> &[Subgroup] {
        &self.subgroups
    }

    /// The subgroup with id `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn subgroup(&self, g: SubgroupId) -> &Subgroup {
        &self.subgroups[g.0]
    }

    /// Ids of the subgroups `node` belongs to.
    pub fn subgroups_of(&self, node: NodeId) -> Vec<SubgroupId> {
        self.subgroups
            .iter()
            .enumerate()
            .filter(|(_, sg)| sg.member_rank(node).is_some())
            .map(|(i, _)| SubgroupId(i))
            .collect()
    }

    /// Returns `true` if `node` is a top-level member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Whether `row` belongs to at least one subgroup. Removed rows stay
    /// top-level members (ids are stable) but belong to none, so this —
    /// not membership — is what makes a row a protocol participant: a
    /// heartbeat peer, a leader candidate, a barrier party.
    pub fn is_active(&self, row: usize) -> bool {
        self.subgroups.iter().any(|sg| sg.contains(NodeId(row)))
    }

    /// The [active](View::is_active) rows, in member order.
    pub fn active_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.members
            .iter()
            .map(|m| m.0)
            .filter(move |&m| self.is_active(m))
    }
}

/// Errors from [`ViewBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// A subgroup referenced a node id outside the top-level membership.
    UnknownMember(NodeId),
    /// A subgroup listed a sender that is not one of its members.
    SenderNotMember(NodeId),
    /// A subgroup has an empty member list.
    EmptySubgroup,
    /// A subgroup declared a zero window or zero max message size.
    BadRingConfig,
    /// The same node appears twice in one subgroup's member list.
    DuplicateMember(NodeId),
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::UnknownMember(n) => write!(f, "subgroup references unknown member {n}"),
            ViewError::SenderNotMember(n) => write!(f, "sender {n} is not a subgroup member"),
            ViewError::EmptySubgroup => write!(f, "subgroup has no members"),
            ViewError::BadRingConfig => write!(f, "window and max message size must be positive"),
            ViewError::DuplicateMember(n) => write!(f, "member {n} appears twice in a subgroup"),
        }
    }
}

impl std::error::Error for ViewError {}

/// Builder for [`View`].
#[derive(Debug, Clone)]
pub struct ViewBuilder {
    id: u64,
    members: Vec<NodeId>,
    subgroups: Vec<Subgroup>,
}

impl ViewBuilder {
    /// Starts a view with members `0..nodes`.
    pub fn new(nodes: usize) -> Self {
        ViewBuilder {
            id: 0,
            members: (0..nodes).map(NodeId).collect(),
            subgroups: Vec::new(),
        }
    }

    /// Starts a view with an explicit member list (used by view changes,
    /// where survivors keep their original ids).
    pub fn with_members(id: u64, members: Vec<NodeId>) -> Self {
        ViewBuilder {
            id,
            members,
            subgroups: Vec::new(),
        }
    }

    /// Sets the view id (epoch number).
    pub fn id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Adds a subgroup by raw node indices. All members of `senders` must
    /// appear in `members`.
    pub fn subgroup(
        mut self,
        members: &[usize],
        senders: &[usize],
        window: usize,
        max_msg_size: usize,
    ) -> Self {
        self.subgroups.push(Subgroup {
            members: members.iter().map(|&i| NodeId(i)).collect(),
            senders: senders.iter().map(|&i| NodeId(i)).collect(),
            window,
            max_msg_size,
        });
        self
    }

    /// Adds an already-constructed subgroup.
    pub fn subgroup_raw(mut self, sg: Subgroup) -> Self {
        self.subgroups.push(sg);
        self
    }

    /// Replaces the subgroup list wholesale (used by view changes that
    /// rebuild every subgroup from survivors).
    pub fn subgroups_from(mut self, subgroups: Vec<Subgroup>) -> Self {
        self.subgroups = subgroups;
        self
    }

    /// Validates and builds the view.
    ///
    /// # Errors
    ///
    /// Returns a [`ViewError`] if any subgroup references unknown nodes,
    /// lists a non-member sender, is empty, duplicates a member, or has a
    /// zero ring configuration.
    pub fn build(self) -> Result<View, ViewError> {
        for sg in &self.subgroups {
            if sg.members.is_empty() {
                return Err(ViewError::EmptySubgroup);
            }
            if sg.window == 0 || sg.max_msg_size == 0 {
                return Err(ViewError::BadRingConfig);
            }
            let mut seen = std::collections::HashSet::new();
            for &m in &sg.members {
                if !self.members.contains(&m) {
                    return Err(ViewError::UnknownMember(m));
                }
                if !seen.insert(m) {
                    return Err(ViewError::DuplicateMember(m));
                }
            }
            for &s in &sg.senders {
                if sg.member_rank(s).is_none() {
                    return Err(ViewError::SenderNotMember(s));
                }
            }
        }
        Ok(View {
            id: self.id,
            members: self.members,
            subgroups: self.subgroups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table1_view() -> View {
        // The paper's Table 1: 5 nodes, subgroups {0,1,2}, {0,1,3}, {0,2,4};
        // in subgroup 1 only nodes 0 and 1 are senders.
        ViewBuilder::new(5)
            .subgroup(&[0, 1, 2], &[0, 1, 2], 3, 64)
            .subgroup(&[0, 1, 3], &[0, 1], 2, 64)
            .subgroup(&[0, 2, 4], &[0, 2, 4], 1, 64)
            .build()
            .unwrap()
    }

    #[test]
    fn table1_structure() {
        let v = paper_table1_view();
        assert_eq!(v.members().len(), 5);
        assert_eq!(v.subgroups().len(), 3);
        assert_eq!(v.subgroup(SubgroupId(1)).num_senders(), 2);
        assert_eq!(v.subgroup(SubgroupId(1)).member_rank(NodeId(3)), Some(2));
        assert_eq!(v.subgroup(SubgroupId(1)).sender_rank(NodeId(3)), None);
        assert_eq!(
            v.subgroups_of(NodeId(0)),
            vec![SubgroupId(0), SubgroupId(1), SubgroupId(2)]
        );
        assert_eq!(v.subgroups_of(NodeId(4)), vec![SubgroupId(2)]);
    }

    #[test]
    fn slot_memory_matches_paper_formula() {
        // Paper §4.1.2: 16 members, 10KB messages, w=100 → ~16MB per node.
        let sg = Subgroup {
            members: (0..16).map(NodeId).collect(),
            senders: (0..16).map(NodeId).collect(),
            window: 100,
            max_msg_size: 10 * 1024,
        };
        let bytes = sg.slot_memory_bytes();
        assert_eq!(bytes, 16 * 100 * (10 * 1024 + 8));
        assert!(bytes > 16_000_000 && bytes < 17_000_000);
    }

    #[test]
    fn unknown_member_rejected() {
        let err = ViewBuilder::new(2)
            .subgroup(&[0, 5], &[0], 4, 16)
            .build()
            .unwrap_err();
        assert_eq!(err, ViewError::UnknownMember(NodeId(5)));
    }

    #[test]
    fn sender_must_be_member() {
        let err = ViewBuilder::new(3)
            .subgroup(&[0, 1], &[2], 4, 16)
            .build()
            .unwrap_err();
        assert_eq!(err, ViewError::SenderNotMember(NodeId(2)));
    }

    #[test]
    fn empty_subgroup_rejected() {
        let err = ViewBuilder::new(2)
            .subgroup(&[], &[], 4, 16)
            .build()
            .unwrap_err();
        assert_eq!(err, ViewError::EmptySubgroup);
    }

    #[test]
    fn zero_window_rejected() {
        let err = ViewBuilder::new(2)
            .subgroup(&[0], &[0], 0, 16)
            .build()
            .unwrap_err();
        assert_eq!(err, ViewError::BadRingConfig);
    }

    #[test]
    fn duplicate_member_rejected() {
        let err = ViewBuilder::new(3)
            .subgroup(&[1, 1], &[1], 4, 16)
            .build()
            .unwrap_err();
        assert_eq!(err, ViewError::DuplicateMember(NodeId(1)));
    }

    #[test]
    fn view_error_display_nonempty() {
        for e in [
            ViewError::UnknownMember(NodeId(1)),
            ViewError::SenderNotMember(NodeId(1)),
            ViewError::EmptySubgroup,
            ViewError::BadRingConfig,
            ViewError::DuplicateMember(NodeId(1)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn with_members_keeps_ids() {
        let v = ViewBuilder::with_members(7, vec![NodeId(0), NodeId(2), NodeId(4)])
            .subgroup(&[0, 2], &[0], 4, 16)
            .build()
            .unwrap();
        assert_eq!(v.id(), 7);
        assert!(v.contains(NodeId(4)));
        assert!(!v.contains(NodeId(1)));
    }
}
