//! Protocol oracles: checks over per-node delivery streams.
//!
//! An oracle consumes everything each node delivered during a scenario and
//! asserts the paper's guarantees: total order (§2.2), per-sender FIFO,
//! null invisibility (§3.3), failure atomicity across the epoch cut (§2.1)
//! and agreement among survivors. Oracles never look at timing — only at
//! the delivered sequences — so their verdict is deterministic even for the
//! threaded runtime.

use std::collections::{BTreeMap, BTreeSet};

use spindle_core::threaded::Delivered;

/// One oracle verdict.
#[derive(Debug, Clone)]
pub struct OracleCheck {
    /// Stable check name (printed in scenario traces).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// First violation found (empty when passed).
    pub detail: String,
}

impl OracleCheck {
    fn pass(name: &'static str) -> OracleCheck {
        OracleCheck {
            name,
            passed: true,
            detail: String::new(),
        }
    }

    fn fail(name: &'static str, detail: String) -> OracleCheck {
        OracleCheck {
            name,
            passed: false,
            detail,
        }
    }

    fn from(name: &'static str, violation: Option<String>) -> OracleCheck {
        match violation {
            None => OracleCheck::pass(name),
            Some(d) => OracleCheck::fail(name, d),
        }
    }
}

/// Renders verdict lines (`PASS name` / `FAIL name: detail`).
pub fn render_checks(checks: &[OracleCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        if c.passed {
            out.push_str(&format!("  PASS {}\n", c.name));
        } else {
            out.push_str(&format!("  FAIL {}: {}\n", c.name, c.detail));
        }
    }
    out
}

/// Per-epoch, per-subgroup membership, as recorded by the scenario runner
/// after every view change: `epoch -> members of each subgroup`.
pub type EpochMembers = BTreeMap<u64, Vec<Vec<usize>>>;

/// Key of one delivered app message: `(epoch, subgroup, rank, app_index)`.
type MsgKey = (u64, usize, usize, u64);

/// Per node: `(epoch, subgroup) -> ordered (rank, app_index)` sequence.
type ScopedSeqs = BTreeMap<usize, BTreeMap<(u64, usize), Vec<(usize, u64)>>>;

/// Runs every oracle over the threaded runtime's delivery streams.
///
/// * `streams` — everything each node delivered, in its delivery order;
/// * `survivors` — nodes alive (not crashed, not removed) at scenario end;
/// * `epochs` — per-epoch subgroup membership;
/// * `acked` — per `(sender node, subgroup)`: payloads whose send was
///   acknowledged (`send` returned `Ok`);
/// * `expect_complete` — whether the scenario ended in a live configuration
///   in which every surviving sender's acknowledged payload must have been
///   delivered everywhere relevant.
pub fn check_threaded(
    streams: &BTreeMap<usize, Vec<Delivered>>,
    survivors: &BTreeSet<usize>,
    epochs: &EpochMembers,
    acked: &BTreeMap<(usize, usize), Vec<Vec<u8>>>,
    expect_complete: bool,
) -> Vec<OracleCheck> {
    let mut per_scope = ScopedSeqs::new();
    for (&node, stream) in streams {
        let scoped = per_scope.entry(node).or_default();
        for d in stream {
            scoped
                .entry((d.epoch, d.subgroup.0))
                .or_default()
                .push((d.sender_rank, d.app_index));
        }
    }

    let mut checks = vec![
        OracleCheck::from("fifo-per-sender", fifo(&per_scope)),
        OracleCheck::from("seq-monotone", seq_monotone(streams)),
        OracleCheck::from("total-order-prefix", prefix(&per_scope)),
        OracleCheck::from(
            "failure-atomicity",
            atomicity(&per_scope, survivors, epochs),
        ),
        OracleCheck::from("membership-scope", membership_scope(streams, epochs)),
        OracleCheck::from("null-invisibility", nulls(streams)),
        OracleCheck::from("no-duplicates", duplicates(streams)),
    ];
    if expect_complete {
        checks.push(OracleCheck::from(
            "completeness",
            completeness(streams, survivors, epochs, acked),
        ));
    }
    checks
}

/// Counter-consistency oracle: the live observability plane must agree
/// with the ground truth the other oracles already trust. Per node, the
/// registry's `spindle_delivered_total` / `spindle_delivered_bytes_total`
/// fold (summed over epochs, passed in as `delivered: node -> (msgs,
/// bytes)`) must equal the drained delivery stream's length and payload
/// volume; cluster-wide, a wire transport can never have received more
/// `WRITE` frames than were posted (`wire: (posted, received)`, `None`
/// for shared memory). A PASS carries no detail text, so the verdict
/// line is bit-identical across transports (the deterministic-trace
/// contract).
pub fn counter_consistency(
    streams: &BTreeMap<usize, Vec<Delivered>>,
    delivered: &BTreeMap<usize, (u64, u64)>,
    wire: Option<(u64, u64)>,
) -> OracleCheck {
    OracleCheck::from(
        "counter-consistency",
        counter_violation(streams, delivered, wire),
    )
}

fn counter_violation(
    streams: &BTreeMap<usize, Vec<Delivered>>,
    delivered: &BTreeMap<usize, (u64, u64)>,
    wire: Option<(u64, u64)>,
) -> Option<String> {
    for (&node, stream) in streams {
        let (msgs, bytes) = delivered.get(&node).copied().unwrap_or((0, 0));
        let want_msgs = stream.len() as u64;
        let want_bytes: u64 = stream.iter().map(|d| d.data.len() as u64).sum();
        if msgs != want_msgs {
            return Some(format!(
                "node {node}: registry counted {msgs} deliveries, stream has {want_msgs}"
            ));
        }
        if bytes != want_bytes {
            return Some(format!(
                "node {node}: registry counted {bytes} delivered bytes, stream has {want_bytes}"
            ));
        }
    }
    if let Some((posted, received)) = wire {
        if received > posted {
            return Some(format!(
                "wire: {received} frames received exceed {posted} posted"
            ));
        }
    }
    None
}

/// The sim runtime's counter-consistency oracle: every node's
/// [`NodeMetrics`](spindle_core::NodeMetrics) delivery counter must equal
/// its delivery-trace length.
pub fn counter_consistency_sim(
    trace: &[Vec<(usize, usize, u64)>],
    nodes: &[spindle_core::NodeMetrics],
) -> OracleCheck {
    let violation = trace.iter().enumerate().find_map(|(i, t)| {
        let (msgs, want) = (nodes.get(i).map_or(0, |n| n.delivered_msgs), t.len() as u64);
        (msgs != want).then(|| format!("node {i}: delivered_msgs {msgs} != trace length {want}"))
    });
    OracleCheck::from("counter-consistency", violation)
}

/// Per (epoch, subgroup, sender): app indices must be exactly `0, 1, 2, …`
/// — FIFO and gap-free.
fn fifo(per_scope: &ScopedSeqs) -> Option<String> {
    for (&node, scoped) in per_scope {
        for (&(epoch, sg), seq) in scoped {
            let mut next: BTreeMap<usize, u64> = BTreeMap::new();
            for &(rank, idx) in seq {
                let want = next.entry(rank).or_insert(0);
                if idx != *want {
                    return Some(format!(
                        "node {node} epoch {epoch} g{sg}: sender {rank} delivered \
                         app index {idx}, expected {want}"
                    ));
                }
                *want += 1;
            }
        }
    }
    None
}

/// Within one (epoch, subgroup) at one node, global sequence numbers must
/// be strictly increasing (the total order never rewinds or repeats).
/// Unordered (`DeliveryTiming::OnReceive`) deliveries carry `seq == -1`
/// — no place in the total order — and are exempt.
fn seq_monotone(streams: &BTreeMap<usize, Vec<Delivered>>) -> Option<String> {
    for (&node, stream) in streams {
        let mut last: BTreeMap<(u64, usize), i64> = BTreeMap::new();
        for d in stream {
            if d.seq < 0 {
                continue;
            }
            let key = (d.epoch, d.subgroup.0);
            if let Some(&prev) = last.get(&key) {
                if d.seq <= prev {
                    return Some(format!(
                        "node {node} epoch {} g{}: seq {} after {}",
                        d.epoch, d.subgroup.0, d.seq, prev
                    ));
                }
            }
            last.insert(key, d.seq);
        }
    }
    None
}

/// Per (epoch, subgroup): any two nodes' delivery sequences must be
/// prefix-comparable — the total order is one sequence that every node
/// observes a prefix of.
fn prefix(per_scope: &ScopedSeqs) -> Option<String> {
    let scopes: BTreeSet<(u64, usize)> =
        per_scope.values().flat_map(|m| m.keys().copied()).collect();
    for scope in scopes {
        let nodes: Vec<(usize, &Vec<(usize, u64)>)> = per_scope
            .iter()
            .filter_map(|(&n, m)| m.get(&scope).map(|s| (n, s)))
            .collect();
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                let (na, a) = nodes[i];
                let (nb, b) = nodes[j];
                let common = a.len().min(b.len());
                if a[..common] != b[..common] {
                    let at = (0..common).find(|&k| a[k] != b[k]).unwrap_or(0);
                    return Some(format!(
                        "epoch {} g{}: nodes {na} and {nb} diverge at position {at} \
                         ({:?} vs {:?})",
                        scope.0, scope.1, a[at], b[at]
                    ));
                }
            }
        }
    }
    None
}

/// Failure atomicity: within every epoch, all surviving members of a
/// subgroup delivered *identical* sequences — the ragged trim gives
/// all-or-nothing delivery across the cut, and steady state drains fully.
fn atomicity(
    per_scope: &ScopedSeqs,
    survivors: &BTreeSet<usize>,
    epochs: &EpochMembers,
) -> Option<String> {
    for (&epoch, subgroups) in epochs {
        for (sg, members) in subgroups.iter().enumerate() {
            let required: Vec<usize> = members
                .iter()
                .copied()
                .filter(|n| survivors.contains(n))
                .collect();
            let empty = Vec::new();
            let seqs: Vec<(usize, &Vec<(usize, u64)>)> = required
                .iter()
                .map(|&n| {
                    (
                        n,
                        per_scope
                            .get(&n)
                            .and_then(|m| m.get(&(epoch, sg)))
                            .unwrap_or(&empty),
                    )
                })
                .collect();
            for w in seqs.windows(2) {
                let (na, a) = w[0];
                let (nb, b) = w[1];
                if a != b {
                    return Some(format!(
                        "epoch {epoch} g{sg}: survivors {na} ({} msgs) and {nb} ({} msgs) \
                         delivered different sequences",
                        a.len(),
                        b.len()
                    ));
                }
            }
        }
    }
    None
}

/// Mid-run membership growth (and shrinkage) must scope deliveries: a
/// node may deliver in `(epoch, subgroup)` only while the recorded
/// membership of that epoch contains it. In particular a *joiner*
/// observes nothing from before its join epoch (virtual synchrony: the
/// state transfer, not the multicast, brings it up to the cut), and a
/// removed row observes nothing after its eviction epoch.
fn membership_scope(
    streams: &BTreeMap<usize, Vec<Delivered>>,
    epochs: &EpochMembers,
) -> Option<String> {
    for (&node, stream) in streams {
        for d in stream {
            let Some(subgroups) = epochs.get(&d.epoch) else {
                return Some(format!(
                    "node {node} delivered in unrecorded epoch {}",
                    d.epoch
                ));
            };
            let member = subgroups
                .get(d.subgroup.0)
                .is_some_and(|m| m.contains(&node));
            if !member {
                return Some(format!(
                    "node {node} delivered in epoch {} g{} without being a member \
                     (a joiner leaked pre-join traffic, or an evictee outlived its cut)",
                    d.epoch, d.subgroup.0
                ));
            }
        }
    }
    None
}

/// Nulls must never surface: the harness only sends non-empty payloads, so
/// any empty delivery is a null (or a torn read) leaking to the app.
fn nulls(streams: &BTreeMap<usize, Vec<Delivered>>) -> Option<String> {
    for (&node, stream) in streams {
        for d in stream {
            if d.data.is_empty() {
                return Some(format!(
                    "node {node} epoch {} g{}: empty payload delivered at seq {}",
                    d.epoch, d.subgroup.0, d.seq
                ));
            }
        }
    }
    None
}

/// No node delivers the same message twice — neither the same
/// `(epoch, sg, rank, app_index)` slot nor the same payload bytes (a
/// resent-in-new-epoch message must have been delivered by no one in the
/// old epoch).
fn duplicates(streams: &BTreeMap<usize, Vec<Delivered>>) -> Option<String> {
    for (&node, stream) in streams {
        let mut keys: BTreeSet<MsgKey> = BTreeSet::new();
        let mut payloads: BTreeSet<&[u8]> = BTreeSet::new();
        for d in stream {
            if !keys.insert((d.epoch, d.subgroup.0, d.sender_rank, d.app_index)) {
                return Some(format!(
                    "node {node}: epoch {} g{} rank {} app {} delivered twice",
                    d.epoch, d.subgroup.0, d.sender_rank, d.app_index
                ));
            }
            if !payloads.insert(&d.data) {
                return Some(format!(
                    "node {node}: payload {:?} delivered twice",
                    &d.data[..d.data.len().min(12)]
                ));
            }
        }
    }
    None
}

/// Every payload acknowledged to a surviving sender must be delivered by
/// every surviving node that was a member of the subgroup in *all* epochs
/// (late joiners legitimately miss pre-join traffic and are excluded).
fn completeness(
    streams: &BTreeMap<usize, Vec<Delivered>>,
    survivors: &BTreeSet<usize>,
    epochs: &EpochMembers,
    acked: &BTreeMap<(usize, usize), Vec<Vec<u8>>>,
) -> Option<String> {
    for (&(sender, sg), payloads) in acked {
        if !survivors.contains(&sender) {
            continue; // a failed sender's tail may be lost — that's the spec
        }
        let receivers: Vec<usize> = survivors
            .iter()
            .copied()
            .filter(|&n| {
                epochs
                    .values()
                    .all(|sgs| sgs.get(sg).is_some_and(|m| m.contains(&n)))
            })
            .collect();
        for &r in &receivers {
            let got: BTreeSet<&[u8]> = streams
                .get(&r)
                .map(|s| {
                    s.iter()
                        .filter(|d| d.subgroup.0 == sg)
                        .map(|d| d.data.as_slice())
                        .collect()
                })
                .unwrap_or_default();
            for (i, p) in payloads.iter().enumerate() {
                if !got.contains(p.as_slice()) {
                    return Some(format!(
                        "node {r} never delivered acked payload #{i} of sender {sender} in g{sg}"
                    ));
                }
            }
        }
    }
    None
}

/// Oracles for the simulated runtime's [`delivery
/// trace`](spindle_core::RunReport::delivery_trace): per-sender FIFO and
/// pairwise prefix agreement per subgroup, plus (optionally) completion.
pub fn check_sim(
    trace: &[Vec<(usize, usize, u64)>],
    completed: bool,
    expect_complete: bool,
) -> Vec<OracleCheck> {
    // The sim runs a single epoch (no membership changes); map the trace
    // into the threaded oracles' shape with epoch 0 and reuse them.
    let mut per_scope = ScopedSeqs::new();
    for (node, t) in trace.iter().enumerate() {
        let scoped = per_scope.entry(node).or_default();
        for &(sg, rank, idx) in t {
            scoped.entry((0, sg)).or_default().push((rank, idx));
        }
    }
    let mut checks = vec![
        OracleCheck::from("fifo-per-sender", fifo(&per_scope)),
        OracleCheck::from("total-order-prefix", prefix(&per_scope)),
    ];

    if expect_complete {
        checks.push(OracleCheck::from(
            "completeness",
            (!completed).then(|| "run did not reach its delivery target".into()),
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_membership::SubgroupId;

    fn d(epoch: u64, sg: usize, rank: usize, idx: u64, seq: i64, data: &[u8]) -> Delivered {
        Delivered {
            epoch,
            subgroup: SubgroupId(sg),
            sender_rank: rank,
            app_index: idx,
            seq,
            data: data.to_vec(),
        }
    }

    fn epochs_one(nodes: &[usize]) -> EpochMembers {
        let mut e = EpochMembers::new();
        e.insert(0, vec![nodes.to_vec()]);
        e
    }

    #[test]
    fn clean_streams_pass_everything() {
        let mut streams = BTreeMap::new();
        for node in 0..2 {
            streams.insert(node, vec![d(0, 0, 0, 0, 0, b"a0"), d(0, 0, 1, 0, 1, b"b0")]);
        }
        let survivors: BTreeSet<usize> = [0, 1].into();
        let mut acked = BTreeMap::new();
        acked.insert((0usize, 0usize), vec![b"a0".to_vec()]);
        acked.insert((1usize, 0usize), vec![b"b0".to_vec()]);
        let checks = check_threaded(&streams, &survivors, &epochs_one(&[0, 1]), &acked, true);
        assert!(checks.iter().all(|c| c.passed), "{checks:?}");
    }

    #[test]
    fn order_divergence_detected() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"a0"), d(0, 0, 1, 0, 1, b"b0")]);
        streams.insert(1, vec![d(0, 0, 1, 0, 0, b"b0"), d(0, 0, 0, 0, 1, b"a0")]);
        let survivors: BTreeSet<usize> = [0, 1].into();
        let checks = check_threaded(
            &streams,
            &survivors,
            &epochs_one(&[0, 1]),
            &BTreeMap::new(),
            false,
        );
        let prefix = checks
            .iter()
            .find(|c| c.name == "total-order-prefix")
            .unwrap();
        assert!(!prefix.passed);
    }

    #[test]
    fn fifo_gap_detected() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"x"), d(0, 0, 0, 2, 3, b"y")]);
        let survivors: BTreeSet<usize> = [0].into();
        let checks = check_threaded(
            &streams,
            &survivors,
            &epochs_one(&[0]),
            &BTreeMap::new(),
            false,
        );
        assert!(
            !checks
                .iter()
                .find(|c| c.name == "fifo-per-sender")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn atomicity_divergence_between_survivors_detected() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"a0")]);
        streams.insert(1, Vec::new()); // survivor that missed the delivery
        let survivors: BTreeSet<usize> = [0, 1].into();
        let checks = check_threaded(
            &streams,
            &survivors,
            &epochs_one(&[0, 1]),
            &BTreeMap::new(),
            false,
        );
        assert!(
            !checks
                .iter()
                .find(|c| c.name == "failure-atomicity")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn joiner_delivering_pre_join_traffic_detected() {
        // Epoch 0 members {0, 1}; node 2 joins at epoch 1. A delivery by
        // node 2 stamped epoch 0 is a virtual-synchrony leak.
        let mut epochs = EpochMembers::new();
        epochs.insert(0, vec![vec![0, 1]]);
        epochs.insert(1, vec![vec![0, 1, 2]]);
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"a"), d(1, 0, 0, 0, 0, b"b")]);
        streams.insert(2, vec![d(0, 0, 0, 0, 0, b"a")]); // leaked
        let survivors: BTreeSet<usize> = [0, 2].into();
        let checks = check_threaded(&streams, &survivors, &epochs, &BTreeMap::new(), false);
        let scope = checks
            .iter()
            .find(|c| c.name == "membership-scope")
            .unwrap();
        assert!(!scope.passed, "{checks:?}");
        // The clean shape passes: the joiner only sees epoch 1.
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"a"), d(1, 0, 0, 0, 0, b"b")]);
        streams.insert(2, vec![d(1, 0, 0, 0, 0, b"b")]);
        let checks = check_threaded(&streams, &survivors, &epochs, &BTreeMap::new(), false);
        assert!(
            checks
                .iter()
                .find(|c| c.name == "membership-scope")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn duplicate_payload_detected() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"p"), d(1, 0, 0, 0, 0, b"p")]);
        let survivors: BTreeSet<usize> = [0].into();
        let checks = check_threaded(
            &streams,
            &survivors,
            &epochs_one(&[0]),
            &BTreeMap::new(),
            false,
        );
        assert!(
            !checks
                .iter()
                .find(|c| c.name == "no-duplicates")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn lost_acked_payload_detected() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"kept")]);
        streams.insert(1, vec![d(0, 0, 0, 0, 0, b"kept")]);
        let survivors: BTreeSet<usize> = [0, 1].into();
        let mut acked = BTreeMap::new();
        acked.insert((0usize, 0usize), vec![b"kept".to_vec(), b"lost".to_vec()]);
        let checks = check_threaded(&streams, &survivors, &epochs_one(&[0, 1]), &acked, true);
        assert!(
            !checks
                .iter()
                .find(|c| c.name == "completeness")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn empty_payload_flags_null_leak() {
        let mut streams = BTreeMap::new();
        streams.insert(0, vec![d(0, 0, 0, 0, 0, b"")]);
        let survivors: BTreeSet<usize> = [0].into();
        let checks = check_threaded(
            &streams,
            &survivors,
            &epochs_one(&[0]),
            &BTreeMap::new(),
            false,
        );
        assert!(
            !checks
                .iter()
                .find(|c| c.name == "null-invisibility")
                .unwrap()
                .passed
        );
    }

    #[test]
    fn sim_trace_checks() {
        // Node 1's trace is a clean prefix of node 0's: passes.
        let trace = vec![
            vec![(0, 0, 0), (0, 1, 0), (0, 0, 1)],
            vec![(0, 0, 0), (0, 1, 0)],
        ];
        assert!(check_sim(&trace, true, true).iter().all(|c| c.passed));
        // Divergence in the common prefix: fails.
        let bad = vec![vec![(0, 0, 0), (0, 1, 0)], vec![(0, 1, 0)]];
        assert!(check_sim(&bad, true, false).iter().any(|c| !c.passed));
    }
}
