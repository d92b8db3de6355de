//! Unit tests of the threaded cluster.

use std::time::{Duration, Instant};

use spindle_fabric::{MemFabric, NodeId};
use spindle_membership::{SeqNum, SubgroupId, View, ViewBuilder};

use super::{AdmitRequest, Cluster, Delivered, SendError, ViewChangeError};
use crate::config::{DeliveryTiming, SpindleConfig};
use crate::detector::DetectorConfig;
use crate::plan::Plan;
use crate::viewchange::VcBoundary;

fn view(n: usize, senders: usize, window: usize, max_msg: usize) -> View {
    let members: Vec<usize> = (0..n).collect();
    let s: Vec<usize> = (0..senders).collect();
    ViewBuilder::new(n)
        .subgroup(&members, &s, window, max_msg)
        .build()
        .unwrap()
}

fn collect(cluster: &Cluster, node: usize, count: usize) -> Vec<Delivered> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        match cluster.node(node).recv_timeout(Duration::from_secs(10)) {
            Some(d) => out.push(d),
            None => panic!(
                "timed out at node {node} after {} of {count} deliveries",
                out.len()
            ),
        }
    }
    out
}

#[test]
fn single_sender_fifo_everywhere() {
    let cluster = Cluster::start(view(3, 1, 8, 64), SpindleConfig::optimized());
    for i in 0..20u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    for node in 0..3 {
        let got = collect(&cluster, node, 20);
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.sender_rank, 0);
            assert_eq!(d.app_index, i as u64);
            assert_eq!(
                u32::from_le_bytes(d.data[..4].try_into().unwrap()),
                i as u32
            );
            assert_eq!(d.epoch, 0);
        }
    }
    cluster.shutdown();
}

#[test]
fn total_order_identical_across_nodes() {
    let cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
    let total = 3 * 50;
    let sequences: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        for n in 0..3 {
            let node = cluster.node(n);
            s.spawn(move || {
                for i in 0..50u32 {
                    node.send(SubgroupId(0), &i.to_le_bytes()).unwrap();
                }
            });
        }
        (0..3)
            .map(|n| {
                collect(&cluster, n, total)
                    .into_iter()
                    .map(|d| (d.sender_rank, d.app_index))
                    .collect()
            })
            .collect()
    });
    assert_eq!(sequences[0], sequences[1]);
    assert_eq!(sequences[1], sequences[2]);
    // FIFO per sender within the total order.
    for seq in &sequences {
        let mut next = [0u64; 3];
        for &(rank, idx) in seq {
            assert_eq!(idx, next[rank], "per-sender FIFO violated");
            next[rank] += 1;
        }
    }
    cluster.shutdown();
}

#[test]
fn small_window_backpressure() {
    let cluster = Cluster::start(view(2, 1, 2, 32), SpindleConfig::optimized());
    // Far more messages than slots: send() must block and recover.
    for i in 0..100u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    let got = collect(&cluster, 1, 100);
    assert_eq!(got.len(), 100);
    cluster.shutdown();
}

#[test]
fn send_errors() {
    let cluster = Cluster::start(view(2, 1, 4, 16), SpindleConfig::optimized());
    assert_eq!(
        cluster.node(1).send(SubgroupId(0), b"x"),
        Err(SendError::NotASender)
    );
    assert_eq!(
        cluster.node(0).send(SubgroupId(0), &[0u8; 17]),
        Err(SendError::TooLarge { max: 16 })
    );
    cluster.shutdown();
}

#[test]
fn baseline_config_also_correct() {
    let cluster = Cluster::start(view(2, 2, 8, 64), SpindleConfig::baseline());
    for i in 0..10u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
        cluster
            .node(1)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    let a: Vec<_> = collect(&cluster, 0, 20)
        .into_iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    let b: Vec<_> = collect(&cluster, 1, 20)
        .into_iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    assert_eq!(a, b);
    cluster.shutdown();
}

/// Every member gets every 8 KiB payload byte for byte while each sender
/// reuses a slot the moment its message is delivered (window 2, all three
/// rows sending). The copy out of a ring slot (`Batch::push`) runs under the
/// node lock, before the local sender can see the slot free and overwrite
/// it; a copy taken after the lock would read the next message's bytes.
#[test]
fn large_payloads_survive_immediate_slot_reuse() {
    const LEN: usize = 8 * 1024;
    // Debug builds keep the tier-1 run short; CI's stress step runs the full
    // count with --release.
    let per_sender: u64 = if cfg!(debug_assertions) { 150 } else { 1_500 };
    // Differs from the same sender's message two slots earlier or later, and
    // from every other sender's, at every byte.
    let payload = |rank: usize, index: u64| -> Vec<u8> {
        let seed = (index as u8).wrapping_mul(7).wrapping_add(rank as u8 * 85);
        (0..LEN)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    };
    for cfg in [SpindleConfig::optimized(), SpindleConfig::baseline()] {
        let cluster = Cluster::start(view(3, 3, 2, LEN), cfg);
        std::thread::scope(|s| {
            for rank in 0..3 {
                let node = cluster.node(rank);
                s.spawn(move || {
                    for i in 0..per_sender {
                        node.send(SubgroupId(0), &payload(rank, i)).unwrap();
                    }
                });
            }
            for member in 0..3 {
                let node = cluster.node(member);
                s.spawn(move || {
                    let mut next = [0u64; 3];
                    for _ in 0..3 * per_sender {
                        let d = node.recv_timeout(Duration::from_secs(10));
                        let d = d.unwrap_or_else(|| panic!("member {member} timed out"));
                        let (rank, index) = (d.sender_rank, d.app_index);
                        assert_eq!(index, next[rank], "FIFO from sender {rank} at {member}");
                        next[rank] += 1;
                        assert_eq!(d.data.len(), LEN);
                        let torn = d
                            .data
                            .iter()
                            .zip(payload(rank, index))
                            .position(|(a, b)| *a != b);
                        assert_eq!(
                            torn, None,
                            "sender {rank} message {index} at member {member}: first wrong byte"
                        );
                    }
                });
            }
        });
        cluster.shutdown();
    }
}

#[test]
fn multiple_subgroups_isolated() {
    let v = ViewBuilder::new(3)
        .subgroup(&[0, 1], &[0], 8, 32)
        .subgroup(&[1, 2], &[2], 8, 32)
        .build()
        .unwrap();
    let cluster = Cluster::start(v, SpindleConfig::optimized());
    cluster.node(0).send(SubgroupId(0), b"sg0").unwrap();
    cluster.node(2).send(SubgroupId(1), b"sg1").unwrap();
    // Node 1 is in both subgroups and receives both messages.
    let got = collect(&cluster, 1, 2);
    let mut sgs: Vec<usize> = got.iter().map(|d| d.subgroup.0).collect();
    sgs.sort_unstable();
    assert_eq!(sgs, vec![0, 1]);
    // Node 0 receives only its own.
    let d0 = collect(&cluster, 0, 1);
    assert_eq!(d0[0].subgroup, SubgroupId(0));
    cluster.shutdown();
}

#[test]
fn view_change_removes_node_and_continues() {
    let mut cluster = Cluster::start(view(3, 3, 8, 64), SpindleConfig::optimized());
    for i in 0..10u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
        cluster
            .node(1)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    // Drain what's there, then remove node 2.
    let report = cluster.remove_node(2).unwrap();
    assert_eq!(report.epoch, 1);
    // New epoch works: survivors still multicast.
    cluster.node(0).send(SubgroupId(0), b"after").unwrap();
    let mut saw_after = false;
    for _ in 0..1000 {
        if let Some(d) = cluster.node(1).recv_timeout(Duration::from_secs(5)) {
            if d.epoch == 1 && d.data == b"after" {
                saw_after = true;
                break;
            }
        } else {
            break;
        }
    }
    assert!(saw_after, "new-epoch message not delivered");
    // The removed node's handle is closed.
    assert_eq!(
        cluster.node(2).send(SubgroupId(0), b"x"),
        Err(SendError::Closed)
    );
    cluster.shutdown();
}

#[test]
fn leader_crash_mid_transition_fresh_takeover() {
    // The proposing leader (row 0) dies right after posting its
    // proposal, before anyone acked: the takeover leader's fresh
    // trim evicts both corpses in one transition.
    let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
    for i in 0..6u32 {
        cluster
            .node(1)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    cluster.arm_vc_crash(0, VcBoundary::Propose);
    let report = cluster.remove_node(3).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(cluster.view().subgroups_of(NodeId(0)).is_empty());
    assert!(cluster.view().subgroups_of(NodeId(3)).is_empty());
    // Survivors still multicast in the new epoch.
    cluster.node(1).send(SubgroupId(0), b"after").unwrap();
    let mut saw_after = false;
    while let Some(d) = cluster.node(2).recv_timeout(Duration::from_secs(5)) {
        if d.data == b"after" {
            assert_eq!(d.epoch, 1);
            saw_after = true;
            break;
        }
    }
    assert!(saw_after, "new-epoch message not delivered");
    cluster.shutdown();
}

#[test]
fn leader_crash_after_ack_evicted_by_residual_transition() {
    // The leader dies *after* its ack tag landed: the takeover
    // adopts its trim verbatim (the dead leader stays a member for
    // one epoch), and the residual suspicion drives an immediate
    // follow-up transition that evicts it — the caller sees the
    // final state.
    let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
    cluster.arm_vc_crash(0, VcBoundary::Ack);
    let report = cluster.remove_node(3).unwrap();
    assert_eq!(report.epoch, 2, "verbatim install, then residual eviction");
    assert!(cluster.view().subgroups_of(NodeId(0)).is_empty());
    assert!(cluster.view().subgroups_of(NodeId(3)).is_empty());
    // The intermediate epoch, which still carries the dead leader, was
    // recorded by whichever row installed it first.
    let members = |v: &View| v.subgroups()[0].members.clone();
    let views: Vec<_> = cluster.epoch_views().iter().map(|v| members(v)).collect();
    let rows = |ids: &[usize]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    assert_eq!(
        views,
        [rows(&[0, 1, 2, 3]), rows(&[0, 1, 2]), rows(&[1, 2])]
    );
    cluster.node(1).send(SubgroupId(0), b"after").unwrap();
    let mut saw_after = false;
    while let Some(d) = cluster.node(2).recv_timeout(Duration::from_secs(5)) {
        if d.data == b"after" {
            saw_after = true;
            break;
        }
    }
    assert!(saw_after, "post-handoff message not delivered");
    cluster.shutdown();
}

#[test]
fn paused_node_stalls_delivery_until_resumed() {
    // Window larger than the burst: sends queue without blocking even
    // though nothing can deliver while node 2 is paused.
    let cluster = Cluster::start(view(3, 1, 16, 64), SpindleConfig::optimized());
    cluster.pause_node(2);
    for i in 0..10u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    // Node 2 acknowledges nothing, so nothing can stabilize anywhere.
    assert!(
        cluster
            .node(1)
            .recv_timeout(Duration::from_millis(300))
            .is_none(),
        "delivery proceeded despite a paused member"
    );
    cluster.resume_node(2);
    let got = collect(&cluster, 1, 10);
    assert_eq!(got.len(), 10);
    assert_eq!(collect(&cluster, 2, 10).len(), 10);
    cluster.shutdown();
}

#[test]
fn isolated_node_stalls_cluster_until_removed() {
    let mut cluster = Cluster::start(view(3, 3, 4, 64), SpindleConfig::optimized());
    cluster.isolate_node(2);
    cluster.node(0).send(SubgroupId(0), b"during").unwrap();
    // Node 2 hears nothing; its missing ack also stalls nodes 0 and 1.
    assert!(cluster
        .node(2)
        .recv_timeout(Duration::from_millis(300))
        .is_none());
    assert!(cluster.faults().writes_dropped() > 0);
    // One-sided writes are never retransmitted: the partition is
    // repaired by membership, not by healing the link. Removing the
    // isolated node delivers the message at every survivor — either
    // through the ragged-trim cut (epoch 0) or via resend (epoch 1).
    cluster.remove_node(2).unwrap();
    let got = collect(&cluster, 1, 1);
    assert_eq!(got[0].data, b"during");
    assert_eq!(collect(&cluster, 0, 1)[0].data, b"during");
    cluster.shutdown();
}

#[test]
fn dropped_heartbeats_draw_suspicion_on_healthy_node() {
    let det = DetectorConfig {
        heartbeat_interval: Duration::from_millis(1),
        timeout: Duration::from_millis(100),
    };
    let mut cluster =
        Cluster::start_with_detector(view(3, 3, 8, 64), SpindleConfig::optimized(), det);
    std::thread::sleep(Duration::from_millis(20));
    cluster.set_drop_heartbeats(1, true);
    // Node 1 is alive (it can still multicast) yet looks dead.
    cluster.node(1).send(SubgroupId(0), b"alive").unwrap();
    let s = cluster
        .suspicions()
        .recv_timeout(Duration::from_secs(10))
        .expect("suppressed heartbeats must draw a suspicion");
    assert_eq!(s.suspect, 1);
    cluster.shutdown();
}

/// The multi-process deployment path, exercised in one process: two
/// `start_distributed` clusters share one fabric, each hosting a
/// disjoint subset of rows — exactly how `spindle-node` processes
/// share a TCP fabric, minus the sockets.
#[test]
fn distributed_rows_split_across_two_clusters() {
    let v = view(3, 3, 8, 64);
    let plan = Plan::build(&v, true);
    let fabric = MemFabric::new(3, plan.layout.region_words());
    let a = Cluster::start_distributed(
        v.clone(),
        SpindleConfig::optimized(),
        None,
        None,
        &[0],
        fabric.clone(),
    );
    let b = Cluster::start_distributed(v, SpindleConfig::optimized(), None, None, &[1, 2], fabric);
    assert_eq!(a.local_rows().collect::<Vec<_>>(), vec![0]);
    // Remote rows are closed handles.
    assert_eq!(a.node(1).send(SubgroupId(0), b"x"), Err(SendError::Closed));
    for i in 0..5u32 {
        a.node(0).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
        b.node(1).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
    }
    let at_a: Vec<_> = collect(&a, 0, 10)
        .into_iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    let at_b1: Vec<_> = collect(&b, 1, 10)
        .into_iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    let at_b2: Vec<_> = collect(&b, 2, 10)
        .into_iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    assert_eq!(at_a, at_b1);
    assert_eq!(at_b1, at_b2);
    a.shutdown();
    b.shutdown();
}

/// A cluster hosting every row over a pre-built fabric reconfigures as
/// `Cluster::start`'s does: the fabric enters each epoch itself
/// (`Fabric::begin_epoch`), shrinking and growing alike.
#[test]
fn prebuilt_fabric_reconfigures() {
    let v = view(3, 3, 8, 64);
    let plan = Plan::build(&v, true);
    let fabric = MemFabric::new(3, plan.layout.region_words());
    let mut c = Cluster::start_distributed(
        v,
        SpindleConfig::optimized(),
        None,
        None,
        &[0, 1, 2],
        fabric,
    );
    assert_eq!(c.remove_node(2).unwrap().epoch, 1);
    let (joiner, report) = c
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    assert_eq!((joiner, report.epoch), (3, 2));
    assert_eq!(c.fabric().nodes(), 4);
    c.shutdown();
}

/// The socket-free model of the multi-process path: three one-row
/// clusters share one `MemFabric`, row 0 (the leader) dies, and the
/// survivors' own detectors remove it. Both must install the same epoch
/// on the same regions — `begin_epoch` hands every clone of a fabric the
/// same successor — name row 1 the leader, and deliver one order there.
#[test]
fn one_row_clusters_over_one_mem_fabric_remove_their_dead_leader() {
    let v = view(3, 3, 8, 64);
    let fabric = MemFabric::new(3, Plan::build(&v, true).layout.region_words());
    let detector = DetectorConfig {
        heartbeat_interval: Duration::from_millis(2),
        timeout: Duration::from_millis(200),
    };
    let clusters: Vec<Cluster> = (0..3)
        .map(|row| {
            let (cfg, det) = (SpindleConfig::optimized(), Some(detector.clone()));
            Cluster::start_distributed(v.clone(), cfg, det, None, &[row], fabric.clone())
        })
        .collect();
    assert_eq!(clusters[1].leader_row(), Some(0));

    clusters[0].kill(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while clusters[1..].iter().any(|c| c.view().id() == 0) {
        assert!(
            Instant::now() < deadline,
            "the survivors never removed row 0"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (c1, c2) = (&clusters[1], &clusters[2]);
    let epoch = c1.view().id();
    assert_eq!(
        (c2.view().id(), c1.leader_row(), c2.leader_row()),
        (epoch, Some(1), Some(1))
    );
    let (r1, r2) = (
        c1.fabric().region_arc(NodeId(1)),
        c2.fabric().region_arc(NodeId(1)),
    );
    assert!(std::sync::Arc::ptr_eq(&r1, &r2));

    for i in 0..5u32 {
        c1.node(1).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
        c2.node(2).send(SubgroupId(0), &i.to_le_bytes()).unwrap();
    }
    let order = |c: &Cluster, node| -> Vec<(u64, usize, u64)> {
        let got = collect(c, node, 10).into_iter();
        got.map(|d| (d.epoch, d.sender_rank, d.app_index)).collect()
    };
    let at_1 = order(c1, 1);
    assert!(at_1.iter().all(|&(e, _, _)| e == epoch));
    assert_eq!(at_1, order(c2, 2));
    for c in clusters {
        c.shutdown();
    }
}

#[test]
fn view_change_errors() {
    let mut cluster = Cluster::start(view(2, 2, 8, 64), SpindleConfig::optimized());
    assert_eq!(
        cluster.remove_node(5).unwrap_err(),
        ViewChangeError::UnknownNode(5)
    );
    assert_eq!(
        cluster.remove_node(1).unwrap_err(),
        ViewChangeError::TooFewSurvivors
    );
    cluster.shutdown();
}

/// Argument validation runs before any row is triggered: a cluster over
/// a pre-built fabric reports unknown nodes / too-few-survivors / unknown
/// subgroups as `Cluster::start`'s does.
#[test]
fn prebuilt_fabric_reports_argument_errors_first() {
    let v = view(3, 3, 8, 64);
    let plan = Plan::build(&v, true);
    let fabric = MemFabric::new(3, plan.layout.region_words());
    let mut c = Cluster::start_distributed(
        v,
        SpindleConfig::optimized(),
        None,
        None,
        &[0, 1, 2],
        fabric,
    );
    assert_eq!(
        c.remove_node(9).unwrap_err(),
        ViewChangeError::UnknownNode(9)
    );
    assert_eq!(
        c.admit(AdmitRequest::in_process(&[(SubgroupId(7), true)]))
            .unwrap_err(),
        ViewChangeError::UnknownSubgroup(SubgroupId(7))
    );
    // Removing either of the two survivors of a pair would leave a
    // singleton: also reported, not masked.
    c.kill(2);
    assert_eq!(
        c.remove_node(1).unwrap_err(),
        ViewChangeError::TooFewSurvivors
    );
    c.shutdown();
}

/// The suspicion bitmap holds rows 0..=61 (row 62 is `PLANNED_BIT`): an
/// in-process admit into a cluster that has them all is refused before
/// any row is triggered, and the cluster keeps delivering in its epoch.
#[test]
fn in_process_admit_at_the_row_cap_is_refused() {
    let rows = spindle_membership::reconfig::MAX_BITMAP_ROW + 1;
    let v = ViewBuilder::new(rows)
        .subgroup(&[0, 1, 2], &[0], 8, 64)
        .build()
        .unwrap();
    let mut cluster = Cluster::start(v, SpindleConfig::optimized());
    let err = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap_err();
    assert!(matches!(err, ViewChangeError::BadJoinAddress(_)), "{err:?}");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!((cluster.len(), cluster.view().id()), (rows, 0));
    cluster.node(0).send(SubgroupId(0), b"still here").unwrap();
    for node in 0..3 {
        let d = &collect(&cluster, node, 1)[0];
        assert_eq!((d.epoch, &d.data[..]), (0, &b"still here"[..]));
        assert_eq!(cluster.node(node).epoch(), 0);
    }
    cluster.shutdown();
}

/// Shrinking to one live survivor is rejected immediately, even when
/// stale top-level member ids (rows removed in earlier epochs) make
/// the member list look big enough.
#[test]
fn shrink_to_one_live_survivor_rejected_fast() {
    let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
    cluster.remove_node(3).unwrap();
    cluster.remove_node(2).unwrap();
    let t0 = Instant::now();
    assert_eq!(
        cluster.remove_node(1).unwrap_err(),
        ViewChangeError::TooFewSurvivors
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "validation must fail fast, not stall to the VC deadline"
    );
    // The failed attempt left the cluster live: traffic still flows.
    cluster.node(0).send(SubgroupId(0), b"still-on").unwrap();
    let got = collect(&cluster, 1, 1);
    assert_eq!(got[0].data, b"still-on");
    cluster.shutdown();
}

/// The wedge honors the cut: no survivor delivers past the agreed
/// ragged trim in the old epoch — everything beyond it is resent in
/// the new one instead.
#[test]
fn wedged_nodes_never_deliver_past_the_cut() {
    let mut cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
    // Node 2 dies silently: nothing can stabilize (its ack is part of
    // every delivery decision), so node 0's burst stays in flight.
    cluster.kill(2);
    for i in 0..10u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    let report = cluster.remove_node(2).unwrap();
    let cut = report.cuts[0];
    std::thread::sleep(Duration::from_millis(200));
    for node in 0..2 {
        let mut old_epoch: Vec<SeqNum> = Vec::new();
        while let Some(d) = cluster.node(node).recv_timeout(Duration::from_millis(300)) {
            if d.epoch == 0 {
                assert!(
                    d.seq <= cut,
                    "node {node} delivered seq {} past the cut {cut}",
                    d.seq
                );
                old_epoch.push(d.seq);
            }
        }
        // The old epoch is delivered exactly through the cut: node
        // 0's messages are the sequence numbers 0, 3, 6, …, in order.
        // (The cut is a sequence number, not a message count — a null
        // round of node 1 may occupy a number inside it.)
        let expected: Vec<SeqNum> = (0..=cut).filter(|seq| seq % 3 == 0).collect();
        assert_eq!(old_epoch, expected);
    }
    cluster.shutdown();
}

/// Every cluster runs the predicate-thread driver, so an in-process one
/// gets what that driver records in the registry — per surviving row the
/// install count and both phase timings — and `view_change_stats` reads
/// exactly that.
#[test]
fn view_change_durations_recorded() {
    let mut cluster = Cluster::start(view(4, 4, 8, 64), SpindleConfig::optimized());
    assert_eq!(cluster.node(0).view_change_stats(), (0, Duration::ZERO));
    cluster.remove_node(3).unwrap();
    cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    let reg = cluster.obs().registry();
    for row in 0..3 {
        let node = row.to_string();
        let installs = reg.counter_value(spindle_obs::names::VIEW_CHANGES, &[("node", &node)]);
        assert_eq!(installs, Some(2), "row {row}");
        let mut nanos = 0;
        for phase in ["agree", "barrier"] {
            let labels = [("node", node.as_str()), ("phase", phase)];
            let h = reg
                .histogram_snapshot(spindle_obs::names::VIEW_CHANGE_PHASE, &labels)
                .unwrap_or_default();
            assert_eq!(h.count, 2, "row {row} {phase}");
            nanos += h.sum;
        }
        assert!(nanos > 0);
        let stats = cluster.node(row).view_change_stats();
        assert_eq!(stats, (2, Duration::from_nanos(nanos)), "row {row}");
    }
    cluster.shutdown();
}

/// An unordered cluster never delivers a sender's own messages back to it,
/// so nothing takes its send stamps: the store must not grow with them.
#[test]
fn stamp_store_is_bounded_by_the_window() {
    let window = 8;
    let mut cfg = SpindleConfig::optimized();
    cfg.delivery_timing = DeliveryTiming::OnReceive;
    let cluster = Cluster::start(view(3, 1, window, 64), cfg);
    for i in 0..5_000u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    assert_eq!(collect(&cluster, 1, 5_000).len(), 5_000);
    let stamps: usize = {
        let inner = cluster.node(0).shared.inner.lock();
        inner.queued_at.iter().map(Vec::len).sum()
    };
    assert_eq!(stamps, window);
    cluster.shutdown();
}

/// Every delivery of a node's own message is one delivery-latency sample,
/// in the epoch that delivered it: the ones that complete normally, the
/// ones inside a ragged trim, and — once, not twice — the ones a view
/// change finds undelivered and resends in the next epoch.
#[test]
fn latency_sampled_once_per_own_delivery() {
    let mut cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
    let send = |cluster: &Cluster, range: std::ops::Range<u32>| {
        for i in range {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
    };
    send(&cluster, 0..5);
    let mut got = collect(&cluster, 0, 5);
    // Node 2 dies silently: without its rounds the total order cannot
    // pass node 0's next burst, which stays in flight until the view
    // change trims it — all but the head comes back for resend.
    cluster.kill(2);
    send(&cluster, 5..15);
    let report = cluster.remove_node(2).unwrap();
    assert!(report.resent > 0, "nothing was in flight: {report:?}");
    got.extend(collect(&cluster, 0, 10));
    let reg = cluster.obs().registry();
    for epoch in 0..=1u64 {
        let own = got
            .iter()
            .filter(|d| d.epoch == epoch && d.sender_rank == 0)
            .count() as u64;
        let labels = [("node", "0"), ("epoch", &*epoch.to_string())];
        let samples = reg
            .histogram_snapshot(spindle_obs::names::DELIVERY_LATENCY, &labels)
            .map_or(0, |h| h.count);
        assert_eq!(samples, own, "epoch {epoch}");
    }
    assert!(got.iter().all(|d| d.epoch <= 1 && d.sender_rank == 0));
    cluster.shutdown();
}

/// A removed row that was alive and connected runs its own engine, finds
/// itself evicted and closes wedged: its sends must fail, not wait for an
/// unwedge that never comes.
#[test]
fn removed_live_node_send_returns_closed() {
    let mut cluster = Cluster::start(view(3, 3, 8, 64), SpindleConfig::optimized());
    cluster.node(2).send(SubgroupId(0), b"before").unwrap();
    cluster.remove_node(2).unwrap();
    // `send` is `try_send` until it stops answering "try again".
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        match cluster.node(2).try_send(SubgroupId(0), b"after") {
            Err(e) => break assert_eq!(e, SendError::Closed),
            Ok(queued) => assert!(!queued, "a removed node took a send"),
        }
        assert!(
            Instant::now() < deadline,
            "a removed node must answer Closed, promptly"
        );
    }
    cluster.shutdown();
}

/// One fabric per epoch — never one per row, which would be a silent
/// split brain: the factory builds only the first epoch's, and every row
/// enters each later epoch on the fabric whichever row installed it first
/// got from `Fabric::begin_epoch`, with traffic in flight throughout.
#[test]
fn one_fabric_per_epoch() {
    let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counted = std::sync::Arc::clone(&calls);
    let mut cluster = Cluster::start_with_fabric_factory(
        view(4, 4, 16, 64),
        SpindleConfig::optimized(),
        None,
        None,
        move |n, words, faults| {
            counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            MemFabric::with_faults(n, words, faults)
        },
    );
    let in_flight = |cluster: &Cluster, nodes: &[usize]| {
        for i in 0..6u32 {
            for &n in nodes {
                cluster
                    .node(n)
                    .send(SubgroupId(0), &i.to_le_bytes())
                    .unwrap();
            }
        }
    };
    in_flight(&cluster, &[0, 1, 2, 3]);
    cluster.remove_node(3).unwrap();
    in_flight(&cluster, &[0, 1, 2]);
    let (joiner, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    in_flight(&cluster, &[0, 1, joiner]);
    cluster.remove_node(1).unwrap();
    let epochs: Vec<u64> = cluster.epoch_views().iter().map(|v| v.id()).collect();
    assert_eq!(epochs, vec![0, 1, 2, 3]);
    assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    let regions = |node| cluster.node(node).shared.inner.lock().sst.region().clone();
    for node in [0, 2, joiner] {
        let (mine, epoch_fabric) = (regions(node), cluster.fabric().region_arc(NodeId(node)));
        assert!(std::sync::Arc::ptr_eq(&mine, &epoch_fabric));
    }
    // The survivors still agree on one order in the last epoch.
    in_flight(&cluster, &[0, 2, joiner]);
    let last = |node| {
        let mut got = Vec::new();
        while let Some(d) = cluster.node(node).recv_timeout(Duration::from_millis(500)) {
            if d.epoch == 3 {
                got.push((d.sender_rank, d.app_index));
            }
        }
        got
    };
    let at_0 = last(0);
    assert!(
        at_0.len() >= 18,
        "only {} last-epoch deliveries",
        at_0.len()
    );
    assert_eq!(at_0, last(2));
    assert_eq!(at_0, last(joiner));
    cluster.shutdown();
}

/// A superseded fabric keeps its successor alive, and through it every
/// later epoch's, so a row closed for good must let go of its own: after
/// a remove, an admit and a remove, only the last epoch's regions are
/// left, though the removed rows' handles are still held.
#[test]
fn closed_rows_let_go_of_their_epochs_fabric() {
    let mut cluster = Cluster::start(view(4, 4, 16, 64), SpindleConfig::optimized());
    let region = |c: &Cluster| std::sync::Arc::downgrade(&c.fabric().region_arc(NodeId(0)));
    let mut superseded = vec![region(&cluster)];
    cluster.remove_node(3).unwrap();
    superseded.push(region(&cluster));
    let (joiner, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    superseded.push(region(&cluster));
    cluster.remove_node(joiner).unwrap();
    // A removed row's thread drops its own clone when it ends.
    let deadline = Instant::now() + Duration::from_secs(5);
    while superseded.iter().any(|w| w.upgrade().is_some()) {
        assert!(
            Instant::now() < deadline,
            "a superseded fabric outlived its epoch"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(cluster.len(), 5);
    cluster.shutdown();
}

/// The path the repo benchmark never takes (its driver drains with
/// `try_recv`): applications blocked in a receive while their deliveries
/// are handed over, one `send_all` per predicate pass. The channel wakes a
/// receiver only if it is counted as blocked, so a wake-up lost there shows
/// as a receive that waits out the second it is allowed here.
#[test]
fn blocked_consumers_are_woken_for_every_batch() {
    const PER_SENDER: u32 = 200;
    const SLOW: Duration = Duration::from_secs(1);
    let total = 3 * PER_SENDER as usize;
    let cluster = Cluster::start(view(3, 3, 16, 64), SpindleConfig::optimized());
    let streams: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        let consumers: Vec<_> = (0..3)
            .map(|n| {
                let node = cluster.node(n);
                s.spawn(move || {
                    let mut got = Vec::with_capacity(total);
                    while got.len() < total {
                        let t0 = Instant::now();
                        let Some(d) = node.recv_timeout(Duration::from_secs(10)) else {
                            panic!("node {n} timed out after {} of {total}", got.len());
                        };
                        let waited = t0.elapsed();
                        assert!(
                            waited < SLOW,
                            "node {n} waited {waited:?} for delivery {}",
                            got.len()
                        );
                        got.push((d.sender_rank, d.app_index));
                    }
                    got
                })
            })
            .collect();
        for n in 0..3 {
            let node = cluster.node(n);
            s.spawn(move || {
                for i in 0..PER_SENDER {
                    node.send(SubgroupId(0), &i.to_le_bytes()).unwrap();
                }
            });
        }
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[1], streams[2]);
    let mut next = [0u64; 3];
    for &(rank, idx) in &streams[0] {
        assert_eq!(idx, next[rank], "per-sender FIFO violated");
        next[rank] += 1;
    }
    let reg = cluster.obs().registry();
    for n in 0..3 {
        let labels = [("node", &*n.to_string()), ("epoch", "0")];
        assert_eq!(
            reg.counter_value(spindle_obs::names::DELIVERED, &labels),
            Some(total as u64),
            "node {n}"
        );
    }
    cluster.shutdown();
}

/// `spindle_predicate_waits_total{node, kind}` of one row.
fn waits(cluster: &Cluster, row: usize, kind: &str) -> u64 {
    let labels = [("node", &*row.to_string()), ("kind", kind)];
    let reg = cluster.obs().registry();
    reg.counter_value(spindle_obs::names::PREDICATE_WAITS, &labels)
        .unwrap_or(0)
}

/// §2.4's doorbell: a message that finds the cluster idle is delivered
/// everywhere, and what woke each row's parked predicate thread was a write
/// into its replica — the local `try_send` at the sender, a peer's post at
/// the others — not the park's timeout. A write may land in the instant a
/// thread is awake between two parks (it wakes about once a millisecond to
/// look at `stop`), so a row is given a few lone messages to be caught
/// parked by one.
#[test]
fn lone_message_wakes_parked_threads_by_doorbell() {
    let cluster = Cluster::start(view(3, 3, 8, 64), SpindleConfig::optimized());
    let rung = || -> Vec<u64> { (0..3).map(|row| waits(&cluster, row, "rung")).collect() };
    let mut before = Vec::new();
    for round in 0..5u32 {
        std::thread::sleep(Duration::from_millis(50));
        for row in 0..3 {
            assert!(
                waits(&cluster, row, "timeout") > 0,
                "row {row} did not park in 50 idle ms"
            );
        }
        if round == 0 {
            // No detector, no traffic: nothing has rung yet but set-up.
            before = rung();
        }
        let payload = round.to_le_bytes();
        assert_eq!(cluster.node(0).try_send(SubgroupId(0), &payload), Ok(true));
        for row in 0..3 {
            assert_eq!(collect(&cluster, row, 1)[0].data, payload);
        }
        if rung().iter().zip(&before).all(|(now, before)| now > before) {
            break;
        }
    }
    for (row, (now, before)) in rung().iter().zip(&before).enumerate() {
        assert!(
            now > before,
            "row {row} was never woken by a write: rung {before} -> {now}, timeouts {}",
            waits(&cluster, row, "timeout")
        );
    }
    cluster.shutdown();
}

/// What does not ring is seen at the park timeout: `stop` within the 1 ms
/// cap, with or without a detector, and a paused row's missing heartbeats
/// on the detector's clock — parked peers wake for their own next beat and
/// read its counter then.
#[test]
fn parked_threads_still_see_stop_and_silence_on_time() {
    let det = DetectorConfig {
        heartbeat_interval: Duration::from_millis(2),
        timeout: Duration::from_millis(100),
    };
    for det in [None, Some(det)] {
        let cluster = match det.clone() {
            None => Cluster::start(view(3, 3, 8, 64), SpindleConfig::optimized()),
            Some(det) => {
                Cluster::start_with_detector(view(3, 3, 8, 64), SpindleConfig::optimized(), det)
            }
        };
        std::thread::sleep(Duration::from_millis(50));
        let parks: u64 = (0..3)
            .map(|row| waits(&cluster, row, "rung") + waits(&cluster, row, "timeout"))
            .sum();
        assert!(parks > 0, "nobody parked in 50 idle ms");
        if let Some(det) = &det {
            let paused_at = Instant::now();
            cluster.pause_node(2);
            let s = cluster
                .suspicions()
                .recv_timeout(Duration::from_secs(10))
                .expect("a paused row's heartbeats stop");
            assert_eq!(s.suspect, 2);
            let took = paused_at.elapsed();
            // Its last beat may predate the pause by one interval.
            assert!(
                took + det.heartbeat_interval >= det.timeout && took < det.timeout * 3,
                "suspected after {took:?}, timeout {:?}",
                det.timeout
            );
        }
        let t0 = Instant::now();
        cluster.shutdown();
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "shutting down a parked cluster took {took:?}"
        );
    }
}
