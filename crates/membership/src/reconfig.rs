//! Decentralized reconfiguration: the pure logic of SST-driven view
//! changes.
//!
//! Derecho runs membership changes *through the SST itself* (paper §2.1):
//! suspicions, the next-view proposal and the ragged trim are monotonic
//! shared state that every node reads from its own mirror — there is no
//! coordinator RPC. This module holds everything about that protocol that
//! is a pure function of plain values (suspicion bitmaps, frozen receive
//! frontiers, view shapes), so the engine that drives it
//! (`spindle_core::viewchange`) contains only the SST plumbing:
//!
//! * [`leader`] — the deterministic leader rule: the lowest-ranked member
//!   that no one suspects proposes the next view;
//! * [`removal_view`] — the next-view derivation shared by the
//!   centralized trigger and the per-node engine (both must derive the
//!   *identical* view from `(old view, failed set)`, or survivors would
//!   install diverging epochs);
//! * [`Proposal`] — the leader's proposal (next view id, failed bitmap,
//!   per-subgroup ragged-trim cuts) and its encoding onto the SST's
//!   guarded list column;
//! * suspicion bitmaps as `u64` words ([`bits_of`] / [`rows_of`]), which
//!   is what makes suspicion propagation a monotonic one-word OR.

use std::collections::BTreeSet;

use spindle_fabric::NodeId;

use crate::ragged_trim::RaggedTrim;
use crate::seq::SeqNum;
use crate::view::{Subgroup, SubgroupId, View, ViewBuilder};

/// Marker bit for a *planned* reconfiguration (a join or planned leave
/// with no failure): it wedges and trims like a failure-driven transition
/// but removes nobody. Bit 62 keeps the bitmap a non-negative `i64` in
/// the SST's monotonic counter column, which caps clusters at 62 rows —
/// far above anything the runtimes instantiate.
pub const PLANNED_BIT: u64 = 1 << 62;

/// Highest row id representable in a suspicion bitmap.
pub const MAX_BITMAP_ROW: usize = 61;

/// Bits of the proposer field in a packed ballot: holds `row + 1`, so a
/// zero word is never a valid ballot and `MAX_BITMAP_ROW + 1 = 62` fits
/// with room to spare.
const BALLOT_PROPOSER_BITS: u32 = 8;
/// Bits of the turn field in a packed ballot. Turns count re-proposals
/// within one view id — one per leader takeover — so 12 bits outlast any
/// reachable cascade (the bitmap caps membership at 62 rows).
const BALLOT_TURN_BITS: u32 = 12;
/// Highest turn a ballot can carry.
pub const MAX_TURN: u64 = (1 << BALLOT_TURN_BITS) - 1;
/// Total packed-ballot width; the ack tag shifts the view id above it.
const BALLOT_BITS: u32 = BALLOT_PROPOSER_BITS + BALLOT_TURN_BITS;

/// Packs `(turn, proposer)` into one ballot word. Ballots order the
/// proposals of a single view id: a takeover leader always picks a turn
/// greater than any it has seen, so the packed word grows monotonically
/// along the handoff chain and a monotonic SST counter can carry it.
///
/// # Panics
///
/// Panics if `turn` exceeds [`MAX_TURN`] or `proposer` exceeds
/// [`MAX_BITMAP_ROW`].
pub fn pack_ballot(turn: u64, proposer: usize) -> u64 {
    assert!(turn <= MAX_TURN, "ballot turn {turn} exceeds {MAX_TURN}");
    assert!(
        proposer <= MAX_BITMAP_ROW,
        "proposer row {proposer} exceeds the bitmap"
    );
    (turn << BALLOT_PROPOSER_BITS) | (proposer as u64 + 1)
}

/// Unpacks a ballot word to `(turn, proposer)`; `None` for anything that
/// is not a canonical [`pack_ballot`] image (zero proposer field, a row
/// past the bitmap, or stray high bits).
pub fn unpack_ballot(word: u64) -> Option<(u64, usize)> {
    if word >> BALLOT_BITS != 0 {
        return None;
    }
    let proposer_plus_one = word & ((1 << BALLOT_PROPOSER_BITS) - 1);
    if proposer_plus_one == 0 || proposer_plus_one > MAX_BITMAP_ROW as u64 + 1 {
        return None;
    }
    Some((word >> BALLOT_PROPOSER_BITS, proposer_plus_one as usize - 1))
}

/// Packs an ack tag: the `(vid, turn, proposer)` a row acknowledges,
/// ordered lexicographically so the tag fits a *monotonic* SST counter
/// column — a row re-tagging from a superseded ballot to its takeover
/// successor only ever moves the word forward. Zero (the column's
/// initial value) means "nothing acknowledged".
///
/// # Panics
///
/// Panics if any field exceeds its packed width (`vid` has 43 bits).
pub fn pack_ack_tag(vid: u64, turn: u64, proposer: usize) -> i64 {
    assert!(vid < 1 << (63 - BALLOT_BITS), "vid {vid} exceeds the tag");
    ((vid << BALLOT_BITS) | pack_ballot(turn, proposer)) as i64
}

/// Unpacks an ack tag to `(vid, turn, proposer)`; `None` for zero (no
/// ack yet) or a malformed ballot field.
pub fn unpack_ack_tag(tag: i64) -> Option<(u64, u64, usize)> {
    if tag <= 0 {
        return None;
    }
    let word = tag as u64;
    let (turn, proposer) = unpack_ballot(word & ((1 << BALLOT_BITS) - 1))?;
    Some((word >> BALLOT_BITS, turn, proposer))
}

/// Longest joiner host a proposal can carry: covers every IPv6 literal
/// (at most 45 bytes) and any practical DNS name; the bound is what
/// makes the guarded-list join block fixed-width, so proposals keep
/// their exact-arity misparse protection.
pub const MAX_JOIN_HOST_BYTES: usize = 63;
/// Guarded-list words holding the host bytes, 7 per word (7 bytes keep
/// every word a non-negative `i64`, like all SST counter columns).
const JOIN_HOST_WORDS: usize = MAX_JOIN_HOST_BYTES.div_ceil(7);
/// Presence bit of the join meta word (a zero block means "no join").
const JOIN_PRESENT: u64 = 1 << 49;
/// `as_sender` bit of the join meta word.
const JOIN_SENDER: u64 = 1 << 48;
/// Host byte length of the join meta word: bits 16..22.
const JOIN_LEN_SHIFT: u32 = 16;
/// Every meta bit the codec defines; anything else set is a misparse.
const JOIN_META_MASK: u64 = JOIN_PRESENT | JOIN_SENDER | (0x3f << JOIN_LEN_SHIFT) | 0xffff;

/// A joiner's advertised endpoint as it travels in the leader's
/// [`Proposal`]: any `host:port` — IPv4, bracketed IPv6 literal, or DNS
/// name — plus the sender flag of the row it will occupy. (The packed
/// predecessor of this codec carried IPv4 octets only.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEndpoint {
    /// Hostname, IPv4 dotted quad, or IPv6 literal (no brackets).
    pub host: String,
    /// The joiner's concrete listen port (never 0).
    pub port: u16,
    /// Whether the joiner enters as a multicast sender.
    pub as_sender: bool,
}

impl JoinEndpoint {
    /// Parses `host:port` (IPv6 literals bracketed: `[::1]:7000`).
    ///
    /// # Errors
    ///
    /// A human-readable reason: missing/invalid port, port 0, empty
    /// host, or a host longer than [`MAX_JOIN_HOST_BYTES`].
    pub fn parse(addr: &str, as_sender: bool) -> Result<JoinEndpoint, String> {
        let (host, port_str) = if let Some(rest) = addr.strip_prefix('[') {
            let (host, after) = rest
                .split_once(']')
                .ok_or_else(|| format!("{addr}: unclosed IPv6 bracket"))?;
            let port_str = after
                .strip_prefix(':')
                .ok_or_else(|| format!("{addr}: missing port after IPv6 literal"))?;
            (host, port_str)
        } else {
            addr.rsplit_once(':')
                .ok_or_else(|| format!("{addr}: missing port (expected host:port)"))?
        };
        let port: u16 = port_str
            .parse()
            .map_err(|_| format!("{addr}: invalid port"))?;
        if port == 0 {
            return Err(format!("{addr}: a joiner must advertise a concrete port"));
        }
        if host.is_empty() {
            return Err(format!("{addr}: empty host"));
        }
        if host.len() > MAX_JOIN_HOST_BYTES {
            return Err(format!(
                "{addr}: host exceeds the {MAX_JOIN_HOST_BYTES}-byte proposal bound"
            ));
        }
        Ok(JoinEndpoint {
            host: host.to_string(),
            port,
            as_sender,
        })
    }

    /// The dialable `host:port` form (IPv6 literals re-bracketed).
    pub fn addr(&self) -> String {
        if self.host.contains(':') {
            format!("[{}]:{}", self.host, self.port)
        } else {
            format!("{}:{}", self.host, self.port)
        }
    }
}

/// Appends the fixed-width join block (`1 + JOIN_HOST_WORDS` words) to a
/// proposal encoding: a meta word carrying presence, the sender flag,
/// the host byte length and the port, then the host bytes packed 7 per
/// word. An absent join is the all-zero block, so "no join" costs
/// nothing to distinguish and old-style pure-removal proposals stay
/// visually obvious in a region dump.
fn encode_join_block(join: Option<&JoinEndpoint>, out: &mut Vec<i64>) {
    let Some(j) = join else {
        out.extend(std::iter::repeat_n(0, 1 + JOIN_HOST_WORDS));
        return;
    };
    let bytes = j.host.as_bytes();
    assert!(
        !bytes.is_empty() && bytes.len() <= MAX_JOIN_HOST_BYTES,
        "join host must be 1..={MAX_JOIN_HOST_BYTES} bytes (validated at parse)"
    );
    let mut meta = JOIN_PRESENT | ((bytes.len() as u64) << JOIN_LEN_SHIFT) | j.port as u64;
    if j.as_sender {
        meta |= JOIN_SENDER;
    }
    out.push(meta as i64);
    for chunk in 0..JOIN_HOST_WORDS {
        let mut w = 0u64;
        for (i, &b) in bytes.iter().skip(chunk * 7).take(7).enumerate() {
            w |= (b as u64) << (8 * i);
        }
        out.push(w as i64);
    }
}

/// Decodes a join block. `Some(None)` is a well-formed absent join (the
/// all-zero block); `None` rejects anything malformed — presence bit
/// missing on a non-zero block, undefined meta bits, a length outside
/// `1..=MAX_JOIN_HOST_BYTES`, non-zero padding past the host bytes, or
/// host bytes that are not UTF-8 — so a torn or hostile list read can
/// never install a garbage endpoint.
fn decode_join_block(items: &[i64]) -> Option<Option<JoinEndpoint>> {
    debug_assert_eq!(items.len(), 1 + JOIN_HOST_WORDS);
    let meta = items[0] as u64;
    if meta == 0 {
        return if items[1..].iter().all(|&w| w == 0) {
            Some(None)
        } else {
            None
        };
    }
    if meta & JOIN_PRESENT == 0 || meta & !JOIN_META_MASK != 0 {
        return None;
    }
    let len = ((meta >> JOIN_LEN_SHIFT) & 0x3f) as usize;
    if len == 0 || len > MAX_JOIN_HOST_BYTES {
        return None;
    }
    let mut bytes = Vec::with_capacity(JOIN_HOST_WORDS * 7);
    for &w in &items[1..] {
        let w = w as u64;
        if w >> 56 != 0 {
            return None; // packed words carry at most 7 host bytes
        }
        bytes.extend((0..7).map(|i| (w >> (8 * i)) as u8));
    }
    if bytes[len..].iter().any(|&b| b != 0) {
        return None; // canonical encodings zero-pad past the host
    }
    bytes.truncate(len);
    let host = String::from_utf8(bytes).ok()?;
    Some(Some(JoinEndpoint {
        host,
        port: meta as u16,
        as_sender: meta & JOIN_SENDER != 0,
    }))
}

/// The bitmap with the bits of `rows` set.
///
/// # Panics
///
/// Panics if a row exceeds [`MAX_BITMAP_ROW`].
pub fn bits_of(rows: impl IntoIterator<Item = usize>) -> u64 {
    let mut bits = 0u64;
    for r in rows {
        assert!(r <= MAX_BITMAP_ROW, "row {r} exceeds suspicion bitmap");
        bits |= 1 << r;
    }
    bits
}

/// The rows whose bits are set (marker bits ignored).
pub fn rows_of(bits: u64) -> Vec<usize> {
    (0..=MAX_BITMAP_ROW)
        .filter(|r| bits & (1 << r) != 0)
        .collect()
}

/// The deterministic leader among `active` rows under suspicion bitmap
/// `suspected`: the lowest-ranked row no one suspects. `None` if every
/// active row is suspected (no quorum to reconfigure).
pub fn leader(active: &[usize], suspected: u64) -> Option<usize> {
    active
        .iter()
        .copied()
        .filter(|&r| suspected & (1 << r) == 0)
        .min()
}

/// Why a failed set cannot be removed from a view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// A failed row is not a current member.
    UnknownNode(usize),
    /// Removing the failed set would leave a subgroup with no members.
    WouldEmptySubgroup(SubgroupId),
    /// Fewer than two members would remain.
    TooFewSurvivors,
    /// A join would push the new row past [`MAX_BITMAP_ROW`].
    TooManyRows,
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::UnknownNode(n) => write!(f, "node {n} is not a member"),
            ReconfigError::WouldEmptySubgroup(g) => {
                write!(f, "removal would empty subgroup {g}")
            }
            ReconfigError::TooFewSurvivors => write!(f, "a view needs at least two members"),
            ReconfigError::TooManyRows => {
                write!(f, "a join would exceed the suspicion bitmap's row capacity")
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Derives the next view after removing `failed` from `old`: the
/// top-level member list is preserved (rows keep their ids), every
/// subgroup drops the failed rows, and a subgroup whose senders all died
/// keeps its first surviving member as a (quiet) sender so its sequence
/// space stays defined. The next view id is `old.id() + 1`.
///
/// Every node must call this with the identical `(old, failed)` pair —
/// the proposal carries the failed set for exactly that reason — so all
/// survivors derive bit-identical views.
///
/// # Errors
///
/// [`ReconfigError`] when a failed row is unknown, a subgroup would be
/// emptied, or fewer than two members would survive.
pub fn removal_view(old: &View, failed: &BTreeSet<usize>) -> Result<View, ReconfigError> {
    let next_subgroups = surviving_subgroups(old, failed)?;
    let next = ViewBuilder::with_members(old.id() + 1, old.members().to_vec())
        .subgroups_from(next_subgroups)
        .build()
        .expect("a validated removal view always builds");
    Ok(next)
}

/// The subgroup list of the next view after dropping `failed`, validated
/// exactly as [`removal_view`] does (shared by the removal and join
/// derivations, which must filter identically).
fn surviving_subgroups(
    old: &View,
    failed: &BTreeSet<usize>,
) -> Result<Vec<Subgroup>, ReconfigError> {
    for &f in failed {
        if !old.contains(NodeId(f)) {
            return Err(ReconfigError::UnknownNode(f));
        }
    }
    let survivors: Vec<NodeId> = old
        .members()
        .iter()
        .copied()
        .filter(|m| !failed.contains(&m.0))
        .collect();
    if survivors.len() < 2 {
        return Err(ReconfigError::TooFewSurvivors);
    }
    let mut next_subgroups = Vec::with_capacity(old.subgroups().len());
    for (g, sg) in old.subgroups().iter().enumerate() {
        let members: Vec<NodeId> = sg
            .members
            .iter()
            .copied()
            .filter(|m| !failed.contains(&m.0))
            .collect();
        if members.is_empty() {
            return Err(ReconfigError::WouldEmptySubgroup(SubgroupId(g)));
        }
        let senders: Vec<NodeId> = sg
            .senders
            .iter()
            .copied()
            .filter(|m| !failed.contains(&m.0))
            .collect();
        let senders = if senders.is_empty() {
            vec![members[0]]
        } else {
            senders
        };
        next_subgroups.push(Subgroup {
            members,
            senders,
            window: sg.window,
            max_msg_size: sg.max_msg_size,
        });
    }
    Ok(next_subgroups)
}

/// Derives the next view when a fresh node joins (paper §2.1 treats joins
/// and removals as the same epoch transition): the failed rows are
/// filtered exactly as in [`removal_view`], then one new row — id
/// `old.members().len()`, the next never-used row — is appended to the
/// top-level membership and to each subgroup `joins` names (as a sender
/// where its flag says so). Returns the view together with the joiner's
/// row id.
///
/// Every survivor must call this with the identical `(old, failed,
/// joins)` triple. A joining process enters every subgroup, and its
/// sender flag travels in the leader's [`Proposal`] (inside its
/// [`JoinEndpoint`] block); a new row of the survivors' own process is
/// known to all of them. So the whole cluster derives bit-identical views.
///
/// # Errors
///
/// The [`removal_view`] errors, plus [`ReconfigError::TooManyRows`] when
/// the new row would not fit the suspicion bitmap.
///
/// # Panics
///
/// Panics if `joins` names a subgroup outside `old`, or one twice.
pub fn join_view(
    old: &View,
    failed: &BTreeSet<usize>,
    joins: &[(SubgroupId, bool)],
) -> Result<(View, usize), ReconfigError> {
    let new_row = old.members().len();
    if new_row > MAX_BITMAP_ROW {
        return Err(ReconfigError::TooManyRows);
    }
    let mut next_subgroups = surviving_subgroups(old, failed)?;
    for &(g, as_sender) in joins {
        let sg = &mut next_subgroups[g.0];
        sg.members.push(NodeId(new_row));
        if as_sender {
            sg.senders.push(NodeId(new_row));
        }
    }
    let mut members = old.members().to_vec();
    members.push(NodeId(new_row));
    let next = ViewBuilder::with_members(old.id() + 1, members)
        .subgroups_from(next_subgroups)
        .build()
        .expect("a validated join view always builds");
    Ok((next, new_row))
}

/// The [`join_view`] `joins` of a joiner that enters every subgroup of
/// `view` (as a sender of each when `as_sender`), as a joining process
/// always does.
pub fn every_subgroup(view: &View, as_sender: bool) -> Vec<(SubgroupId, bool)> {
    (0..view.subgroups().len())
        .map(|g| (SubgroupId(g), as_sender))
        .collect()
}

/// The leader's next-view proposal, published once per transition through
/// the SST's guarded proposal list and adopted verbatim by every
/// survivor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// The proposed next view id (always the old epoch + 1).
    pub vid: u64,
    /// The row that published this proposal. Together with `turn` it
    /// forms the proposal's *ballot* — what an ack names, so a superseded
    /// proposal can never collect acks meant for its successor.
    pub proposer: usize,
    /// Re-proposal counter within this view id: 0 for the original
    /// leader's proposal, bumped past every ballot a takeover leader has
    /// seen when it re-proposes.
    pub turn: u64,
    /// Bitmap of rows leaving the view (plus [`PLANNED_BIT`] for planned
    /// reconfigurations). The survivor set — and therefore who must ack
    /// and install — is derived from this word, never from local
    /// suspicion state, so all survivors agree on it.
    pub failed: u64,
    /// The joiner's endpoint when this transition also admits a fresh
    /// row; `None` for pure removals. Carrying the endpoint in the
    /// proposal is what lets every survivor grow its transport
    /// identically without a coordinator RPC.
    pub join: Option<JoinEndpoint>,
    /// Ragged-trim cut per subgroup: the last sequence number delivered
    /// in the old epoch (−1 when nothing was in flight).
    pub cuts: Vec<SeqNum>,
}

impl Proposal {
    /// The failed rows (marker bits stripped).
    pub fn failed_rows(&self) -> BTreeSet<usize> {
        rows_of(self.failed).into_iter().collect()
    }

    /// The join intent, when the transition admits a fresh row.
    pub fn join_endpoint(&self) -> Option<&JoinEndpoint> {
        self.join.as_ref()
    }

    /// The packed ballot word (`pack_ballot(turn, proposer)`): the value
    /// an ack tag names for this proposal, and the order along a handoff
    /// chain.
    pub fn ballot(&self) -> u64 {
        pack_ballot(self.turn, self.proposer)
    }

    /// The ack-tag word a survivor publishes when it adopts this
    /// proposal.
    pub fn ack_tag(&self) -> i64 {
        pack_ack_tag(self.vid, self.turn, self.proposer)
    }

    /// Whether `other` carries the identical next-view content — same
    /// vid, failed set, join and cuts — differing at most in its ballot.
    /// Along a correct handoff chain every ballot of one vid is
    /// content-equal; the engine asserts this when re-tagging.
    pub fn same_content(&self, other: &Proposal) -> bool {
        self.vid == other.vid
            && self.failed == other.failed
            && self.join == other.join
            && self.cuts == other.cuts
    }

    /// Encodes onto the SST guarded-list items: `[vid, ballot, failed,
    /// join-block…, cuts…]` (the join block is fixed-width — see
    /// [`JoinEndpoint`] — so the arity stays exact).
    pub fn encode(&self) -> Vec<i64> {
        let mut items = Vec::with_capacity(Proposal::list_capacity(self.cuts.len()));
        items.push(self.vid as i64);
        items.push(self.ballot() as i64);
        items.push(self.failed as i64);
        encode_join_block(self.join.as_ref(), &mut items);
        items.extend_from_slice(&self.cuts);
        items
    }

    /// Decodes a guarded-list read; `None` for anything but a well-formed
    /// proposal with exactly `num_subgroups` cuts, a canonical ballot
    /// word and a valid join block.
    pub fn decode(items: &[i64], num_subgroups: usize) -> Option<Proposal> {
        if items.len() != Proposal::list_capacity(num_subgroups) {
            return None;
        }
        let (turn, proposer) = unpack_ballot(items[1] as u64)?;
        let join = decode_join_block(&items[3..4 + JOIN_HOST_WORDS])?;
        Some(Proposal {
            vid: items[0] as u64,
            proposer,
            turn,
            failed: items[2] as u64,
            join,
            cuts: items[4 + JOIN_HOST_WORDS..].to_vec(),
        })
    }

    /// The list capacity a view's proposal column needs.
    pub fn list_capacity(num_subgroups: usize) -> usize {
        3 + 1 + JOIN_HOST_WORDS + num_subgroups
    }
}

/// The takeover adoption rule, as a pure function of what a successor
/// leader can read from its mirror: the ack tags of the active rows and
/// every well-formed same-vid proposal visible in their guarded lists
/// (each adopter echoes the proposal it acknowledged into its own list,
/// so a tag is never visible without its content). If *any* row has
/// tagged an ack at `vid`, the successor must re-propose the content of
/// the highest tagged ballot verbatim — a partially-acked trim may
/// already have been delivered somewhere and is never contradicted.
/// `None` means no ack exists and the successor computes a fresh trim.
pub fn takeover_adoption<'a>(
    vid: u64,
    tags: &[i64],
    proposals: &'a [Proposal],
) -> Option<&'a Proposal> {
    let best = tags
        .iter()
        .filter_map(|&t| unpack_ack_tag(t))
        .filter(|&(v, _, _)| v == vid)
        .map(|(_, turn, proposer)| pack_ballot(turn, proposer))
        .max()?;
    proposals
        .iter()
        .find(|p| p.vid == vid && p.ballot() == best)
}

/// The decentralized ragged trim for one subgroup: the minimum frozen
/// receive frontier over the surviving members. Exactly
/// [`RaggedTrim::compute`] over the frontier values a leader reads from
/// its mirror; kept here so tests can pin the equivalence with the
/// centralized computation.
///
/// # Panics
///
/// Panics if `frozen` is empty (an emptied subgroup is rejected by
/// [`removal_view`], not trimmed).
pub fn trim_from_frontiers(frozen: &[SeqNum]) -> SeqNum {
    RaggedTrim::compute(frozen).deliver_through()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn view5() -> View {
        ViewBuilder::new(5)
            .subgroup(&[0, 1, 2], &[0, 1, 2], 4, 32)
            .subgroup(&[2, 3, 4], &[3, 4], 4, 32)
            .build()
            .unwrap()
    }

    #[test]
    fn bitmap_roundtrip() {
        let bits = bits_of([0, 3, 5]);
        assert_eq!(bits, 0b101001);
        assert_eq!(rows_of(bits), vec![0, 3, 5]);
        assert_eq!(rows_of(bits | PLANNED_BIT), vec![0, 3, 5]);
    }

    #[test]
    #[should_panic]
    fn bitmap_row_bound_enforced() {
        bits_of([MAX_BITMAP_ROW + 1]);
    }

    #[test]
    fn leader_is_lowest_unsuspected() {
        let active = [0, 1, 2, 3];
        assert_eq!(leader(&active, 0), Some(0));
        assert_eq!(leader(&active, bits_of([0])), Some(1));
        assert_eq!(leader(&active, bits_of([0, 1, 3])), Some(2));
        assert_eq!(leader(&active, bits_of([0, 1, 2, 3])), None);
        // Marker bits never shadow a row.
        assert_eq!(leader(&active, PLANNED_BIT), Some(0));
    }

    #[test]
    fn removal_view_drops_failed_from_subgroups_only() {
        let next = removal_view(&view5(), &BTreeSet::from([2])).unwrap();
        assert_eq!(next.id(), 1);
        // Top-level membership keeps all rows (ids are stable)...
        assert_eq!(next.members().len(), 5);
        // ...but no subgroup contains the failed node.
        assert!(next.subgroups().iter().all(|sg| !sg.contains(NodeId(2))));
        assert_eq!(next.subgroups()[0].members.len(), 2);
        assert_eq!(next.subgroups()[1].members.len(), 2);
    }

    #[test]
    fn removal_view_keeps_quiet_sender_when_all_senders_die() {
        // Subgroup 1's senders are {3, 4}; removing both keeps node 2 as a
        // quiet sender so the sequence space stays defined.
        let next = removal_view(&view5(), &BTreeSet::from([3, 4])).unwrap();
        assert_eq!(next.subgroups()[1].members, vec![NodeId(2)]);
        assert_eq!(next.subgroups()[1].senders, vec![NodeId(2)]);
    }

    #[test]
    fn removal_view_errors() {
        assert_eq!(
            removal_view(&view5(), &BTreeSet::from([9])).unwrap_err(),
            ReconfigError::UnknownNode(9)
        );
        assert_eq!(
            removal_view(&view5(), &BTreeSet::from([0, 1, 2])).unwrap_err(),
            ReconfigError::WouldEmptySubgroup(SubgroupId(0))
        );
        assert_eq!(
            removal_view(&view5(), &BTreeSet::from([0, 1, 3, 4])).unwrap_err(),
            ReconfigError::TooFewSurvivors
        );
    }

    #[test]
    fn proposal_roundtrip() {
        let p = Proposal {
            vid: 7,
            proposer: 3,
            turn: 2,
            failed: bits_of([1, 4]) | PLANNED_BIT,
            join: None,
            cuts: vec![-1, 42, 0],
        };
        let items = p.encode();
        assert_eq!(items.len(), Proposal::list_capacity(3));
        assert_eq!(Proposal::decode(&items, 3), Some(p.clone()));
        assert_eq!(p.failed_rows(), BTreeSet::from([1, 4]));
        assert_eq!(p.join_endpoint(), None);
        // Wrong arity is rejected, never misparsed.
        assert_eq!(Proposal::decode(&items, 2), None);
        assert_eq!(Proposal::decode(&[], 0), None);
        // A corrupt ballot word is rejected, never misparsed.
        let mut bad = items.clone();
        bad[1] = 0;
        assert_eq!(Proposal::decode(&bad, 3), None);
        let mut bad = items.clone();
        bad[1] |= 1 << 30; // stray bits above the packed ballot
        assert_eq!(Proposal::decode(&bad, 3), None);
    }

    #[test]
    fn ballot_and_ack_tag_pack() {
        assert_eq!(unpack_ballot(pack_ballot(0, 0)), Some((0, 0)));
        assert_eq!(
            unpack_ballot(pack_ballot(MAX_TURN, MAX_BITMAP_ROW)),
            Some((MAX_TURN, MAX_BITMAP_ROW))
        );
        // Zero is "no ballot", not ballot (0, 0).
        assert_eq!(unpack_ballot(0), None);
        assert_eq!(unpack_ack_tag(0), None);
        assert_eq!(unpack_ack_tag(pack_ack_tag(9, 1, 2)), Some((9, 1, 2)));
        // A proposer field past the bitmap is malformed.
        assert_eq!(unpack_ballot(MAX_BITMAP_ROW as u64 + 2), None);
    }

    #[test]
    fn takeover_adopts_highest_tagged_ballot() {
        let original = Proposal {
            vid: 3,
            proposer: 0,
            turn: 0,
            failed: bits_of([4]),
            join: None,
            cuts: vec![17, -1],
        };
        let reproposal = Proposal {
            turn: 1,
            proposer: 1,
            ..original.clone()
        };
        let visible = vec![original.clone(), reproposal.clone()];
        // No tags: fresh trim.
        assert_eq!(takeover_adoption(3, &[0, 0, 0], &visible), None);
        // One ack of the original: adopt it.
        let t0 = original.ack_tag();
        assert_eq!(takeover_adoption(3, &[0, t0, 0], &visible), Some(&original));
        // Acks of both ballots: the highest wins.
        let t1 = reproposal.ack_tag();
        assert_eq!(
            takeover_adoption(3, &[t0, t1, 0], &visible),
            Some(&reproposal)
        );
        // A stale tag from an earlier vid never forces adoption.
        let stale = pack_ack_tag(2, 5, 1);
        assert_eq!(takeover_adoption(3, &[stale], &visible), None);
    }

    #[test]
    fn join_endpoint_parse_and_addr() {
        let v4 = JoinEndpoint::parse("127.0.0.1:7143", true).unwrap();
        assert_eq!(
            (v4.host.as_str(), v4.port, v4.as_sender),
            ("127.0.0.1", 7143, true)
        );
        assert_eq!(v4.addr(), "127.0.0.1:7143");
        let v6 = JoinEndpoint::parse("[::1]:80", false).unwrap();
        assert_eq!(
            (v6.host.as_str(), v6.port, v6.as_sender),
            ("::1", 80, false)
        );
        assert_eq!(v6.addr(), "[::1]:80"); // re-bracketed, dialable
        let name = JoinEndpoint::parse("node-3.cluster.internal:9000", true).unwrap();
        assert_eq!(name.host, "node-3.cluster.internal");

        for bad in [
            "no-port",
            "port-not-a-number:x",
            "empty-port:",
            ":7000",
            "127.0.0.1:0", // a joiner must advertise a concrete port
            "[::1:7000",   // unclosed bracket
            "[::1]7000",   // no colon after the bracket
        ] {
            assert!(JoinEndpoint::parse(bad, true).is_err(), "accepted {bad:?}");
        }
        let long = format!("{}:1", "h".repeat(MAX_JOIN_HOST_BYTES + 1));
        assert!(JoinEndpoint::parse(&long, true).is_err());
        let fits = format!("{}:1", "h".repeat(MAX_JOIN_HOST_BYTES));
        assert!(JoinEndpoint::parse(&fits, true).is_ok());
    }

    #[test]
    fn join_block_rejects_malformed_encodings() {
        let j = JoinEndpoint::parse("[fe80::1]:7143", true).unwrap();
        let mut block = Vec::new();
        encode_join_block(Some(&j), &mut block);
        assert_eq!(block.len(), 1 + JOIN_HOST_WORDS);
        // Every word stays a non-negative i64 (SST counter columns).
        assert!(block.iter().all(|&w| w >= 0));
        assert_eq!(decode_join_block(&block), Some(Some(j.clone())));

        // Presence bit missing on a non-zero block.
        let mut bad = block.clone();
        bad[0] &= !(JOIN_PRESENT as i64);
        assert_eq!(decode_join_block(&bad), None);
        // Undefined meta bits.
        let mut bad = block.clone();
        bad[0] |= 1 << 40;
        assert_eq!(decode_join_block(&bad), None);
        // Zero length with presence.
        let mut bad = block.clone();
        bad[0] &= !((0x3f << JOIN_LEN_SHIFT) as i64);
        assert_eq!(decode_join_block(&bad), None);
        // Non-zero padding past the host bytes.
        let mut bad = block.clone();
        bad[1 + JOIN_HOST_WORDS - 1] |= (0xffu64 << 48) as i64;
        assert_eq!(decode_join_block(&bad), None);
        // A packed word claiming an 8th byte.
        let mut bad = block.clone();
        bad[1] |= 1 << 56;
        assert_eq!(decode_join_block(&bad), None);
        // Host bytes that are not UTF-8.
        let mut bad = block.clone();
        bad[1] = 0xff; // lone 0xff is invalid UTF-8
        let len = 1u64;
        bad[0] = (JOIN_PRESENT | (len << JOIN_LEN_SHIFT) | 7143) as i64;
        for w in &mut bad[2..] {
            *w = 0;
        }
        assert_eq!(decode_join_block(&bad), None);
        // A non-zero tail behind a zero meta word (torn absent block).
        let mut bad = vec![0i64; 1 + JOIN_HOST_WORDS];
        bad[3] = 5;
        assert_eq!(decode_join_block(&bad), None);
        // The all-zero block is the canonical absent join.
        assert_eq!(decode_join_block(&[0i64; 1 + JOIN_HOST_WORDS]), Some(None));
    }

    /// Joins of every subgroup of `view5()`, all with sender flag `s`.
    fn every(s: bool) -> [(SubgroupId, bool); 2] {
        [(SubgroupId(0), s), (SubgroupId(1), s)]
    }

    #[test]
    fn join_view_appends_row_to_every_subgroup() {
        let (next, row) = join_view(&view5(), &BTreeSet::new(), &every(true)).unwrap();
        assert_eq!(row, 5);
        assert_eq!(next.id(), 1);
        assert_eq!(next.members().len(), 6);
        for sg in next.subgroups() {
            assert!(sg.contains(NodeId(5)));
            assert!(sg.senders.contains(&NodeId(5)));
        }
        // A quiet joiner is a member but not a sender.
        let (quiet, _) = join_view(&view5(), &BTreeSet::new(), &every(false)).unwrap();
        assert!(quiet
            .subgroups()
            .iter()
            .all(|sg| { sg.contains(NodeId(5)) && !sg.senders.contains(&NodeId(5)) }));
        // Only the named subgroups gain the row, each with its own flag.
        let joins = [(SubgroupId(1), true)];
        let (some, _) = join_view(&view5(), &BTreeSet::new(), &joins).unwrap();
        assert!(!some.subgroups()[0].contains(NodeId(5)));
        assert!(some.subgroups()[1].senders.contains(&NodeId(5)));
    }

    #[test]
    fn join_view_stops_at_the_bitmap_row_cap() {
        let full = ViewBuilder::new(MAX_BITMAP_ROW + 1)
            .subgroup(&[0, 1], &[0], 4, 32)
            .build()
            .unwrap();
        let joins = [(SubgroupId(0), true)];
        assert_eq!(
            join_view(&full, &BTreeSet::new(), &joins).unwrap_err(),
            ReconfigError::TooManyRows
        );
    }

    #[test]
    fn join_view_filters_failed_rows_like_removal() {
        let failed = BTreeSet::from([2]);
        let (next, row) = join_view(&view5(), &failed, &every(true)).unwrap();
        let removal = removal_view(&view5(), &failed).unwrap();
        assert_eq!(row, 5);
        // Identical filtering of the old rows; the joiner rides on top.
        for (j, r) in next.subgroups().iter().zip(removal.subgroups()) {
            let mut members = j.members.clone();
            assert_eq!(members.pop(), Some(NodeId(5)));
            assert_eq!(members, r.members);
        }
        // Same errors as removal for bad failed sets.
        assert_eq!(
            join_view(&view5(), &BTreeSet::from([9]), &every(true)).unwrap_err(),
            ReconfigError::UnknownNode(9)
        );
        assert_eq!(
            join_view(&view5(), &BTreeSet::from([0, 1, 2]), &every(true)).unwrap_err(),
            ReconfigError::WouldEmptySubgroup(SubgroupId(0))
        );
    }

    /// The alphabet join-endpoint proptests draw hosts from: hostname
    /// characters plus `:` so IPv6-literal bracketing is exercised.
    const HOST_CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.:-";

    proptest! {
        /// The decentralized trim equals the centralized minimum for any
        /// frontier set.
        #[test]
        fn trim_matches_centralized(frontiers in prop::collection::vec(-1i64..1000, 1..12)) {
            let decentralized = trim_from_frontiers(&frontiers);
            let centralized = *frontiers.iter().min().unwrap();
            prop_assert_eq!(decentralized, centralized);
        }

        /// Any proposal — including one carrying a join intent with an
        /// arbitrary UTF-8 host (DNS name, IPv6 literal, anything up to
        /// the byte bound) — survives the guarded-list encoding bit for
        /// bit.
        #[test]
        fn proposal_encoding_roundtrip(
            vid in 1u64..1000,
            proposer in 0usize..=MAX_BITMAP_ROW,
            turn in 0u64..=MAX_TURN,
            failed_rows in prop::collection::vec(0usize..=MAX_BITMAP_ROW, 0..8),
            cuts in prop::collection::vec(-1i64..10_000, 0..6),
            planned in 0u8..2,
            host_chars in prop::collection::vec(0usize..HOST_CHARSET.len(), 0..=MAX_JOIN_HOST_BYTES),
            join_port in 1u16..=u16::MAX,
            join_sender in any::<bool>(),
        ) {
            let mut failed = bits_of(failed_rows);
            if planned == 1 { failed |= PLANNED_BIT; }
            // An empty charset draw means "no join" — the option case.
            let join = (!host_chars.is_empty()).then(|| JoinEndpoint {
                host: host_chars.iter().map(|&i| HOST_CHARSET[i] as char).collect(),
                port: join_port,
                as_sender: join_sender,
            });
            let p = Proposal { vid, proposer, turn, failed, join, cuts };
            let items = p.encode();
            prop_assert_eq!(items.len(), Proposal::list_capacity(p.cuts.len()));
            // Guarded-list items must stay non-negative i64 counters.
            prop_assert!(items[3..4 + JOIN_HOST_WORDS].iter().all(|&w| w >= 0));
            let back = Proposal::decode(&items, p.cuts.len());
            prop_assert_eq!(back.as_ref(), Some(&p));
        }

        /// The ack-tag codec: any in-range `(vid, turn, proposer)` packs
        /// into a positive word and unpacks bit for bit.
        #[test]
        fn ack_tag_roundtrip(
            vid in 0u64..1 << 40,
            turn in 0u64..=MAX_TURN,
            proposer in 0usize..=MAX_BITMAP_ROW,
        ) {
            let tag = pack_ack_tag(vid, turn, proposer);
            prop_assert!(tag > 0, "a real ack tag is never the column's zero");
            prop_assert_eq!(unpack_ack_tag(tag), Some((vid, turn, proposer)));
        }

        /// Ack tags are monotone in the handoff order: a row that re-tags
        /// from one ballot to a later one (higher vid, or same vid and a
        /// higher turn, or same turn and a higher-ranked proposer) always
        /// moves the packed word strictly forward, so the monotonic SST
        /// counter column can carry the tag without ever regressing.
        #[test]
        fn ack_tag_monotone_in_ballot_order(
            a in (0u64..1 << 40, 0u64..=MAX_TURN, 0usize..=MAX_BITMAP_ROW),
            b in (0u64..1 << 40, 0u64..=MAX_TURN, 0usize..=MAX_BITMAP_ROW),
        ) {
            let ta = pack_ack_tag(a.0, a.1, a.2);
            let tb = pack_ack_tag(b.0, b.1, b.2);
            prop_assert_eq!(a < b, ta < tb);
            prop_assert_eq!(a == b, ta == tb);
        }

        /// Takeover equivalence on random SST states: whenever *any* row
        /// holds an ack tag for the dead leader's proposal, the
        /// successor's adopted trim is the dead leader's trim, verbatim.
        /// With no ack anywhere the successor computes a fresh trim from
        /// the frozen frontiers — and that fresh minimum can only be
        /// what the dead leader would itself have proposed over the same
        /// frontier snapshot.
        #[test]
        fn takeover_trim_equals_dead_leaders(
            vid in 1u64..1000,
            cuts in prop::collection::vec(-1i64..10_000, 1..6),
            frontiers in prop::collection::vec(-1i64..10_000, 1..6),
            ack_mask in 0u64..16,
            rows in 3usize..8,
        ) {
            let dead = Proposal {
                vid,
                proposer: 0,
                turn: 0,
                failed: bits_of([rows - 1]),
                join: None,
                cuts: cuts.clone(),
            };
            // Random SST state: rows 1..rows-1 each either tagged the dead
            // leader's ballot or never acked (tag 0).
            let tags: Vec<i64> = (0..rows)
                .map(|r| if r > 0 && ack_mask & (1 << r) != 0 { dead.ack_tag() } else { 0 })
                .collect();
            let visible = vec![dead.clone()];
            match takeover_adoption(vid, &tags, &visible) {
                Some(adopted) => {
                    prop_assert!(tags.iter().any(|&t| t != 0));
                    prop_assert_eq!(&adopted.cuts, &dead.cuts);
                    prop_assert_eq!(adopted, &dead);
                }
                None => {
                    prop_assert!(tags.iter().all(|&t| t == 0));
                    // Fresh trim over the same frozen frontiers is the
                    // same minimum the dead leader would have computed.
                    prop_assert_eq!(
                        trim_from_frontiers(&frontiers),
                        *frontiers.iter().min().unwrap()
                    );
                }
            }
        }

        /// The dialable `addr()` form re-parses to the identical endpoint
        /// for any host — including IPv6-style hosts with colons, which
        /// `addr()` must bracket for the parse to split correctly.
        #[test]
        fn join_endpoint_addr_reparses(
            host_chars in prop::collection::vec(0usize..HOST_CHARSET.len(), 1..=40),
            port in 1u16..=u16::MAX,
            as_sender in any::<bool>(),
        ) {
            let host: String =
                host_chars.iter().map(|&i| HOST_CHARSET[i] as char).collect();
            let j = JoinEndpoint { host, port, as_sender };
            let back = JoinEndpoint::parse(&j.addr(), as_sender).unwrap();
            prop_assert_eq!(back, j);
        }

        /// Leader derivation is stable under interleaved join and removal
        /// markers: the PLANNED_BIT of a join and any set of genuine
        /// removal suspicions never change *which unsuspected row* leads,
        /// and ORing the same bitmaps in any order converges to the same
        /// leader (the suspicion union is a monotonic OR).
        #[test]
        fn leader_stable_under_interleaved_join_and_removal_bitmaps(
            nodes in 2usize..12,
            suspected_rows in prop::collection::vec(0usize..12, 0..6),
            or_order in prop::collection::vec(0usize..6, 0..6),
        ) {
            let active: Vec<usize> = (0..nodes).collect();
            let suspected: Vec<usize> =
                suspected_rows.into_iter().filter(|&r| r < nodes).collect();
            let removal_bits = bits_of(suspected.iter().copied());
            // The planned (join) marker must not shadow any row.
            prop_assert_eq!(
                leader(&active, removal_bits),
                leader(&active, removal_bits | PLANNED_BIT)
            );
            // Any interleaving of partial unions lands on the same leader
            // once the union is complete.
            let mut union = PLANNED_BIT;
            for &i in &or_order {
                if let Some(&r) = suspected.get(i) {
                    union |= 1 << r;
                }
            }
            union |= removal_bits;
            let expect = active.iter().copied().find(|&r| removal_bits & (1 << r) == 0);
            prop_assert_eq!(leader(&active, union), expect);
        }
    }
}
