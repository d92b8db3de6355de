//! Failure detection and membership-change integration tests: SST
//! heartbeats, silent-crash suspicion, detector-driven view changes, and
//! node joins — the §2.1 machinery around the steady-state protocol.

use std::time::{Duration, Instant};

use spindle::{AdmitRequest, Cluster, DetectorConfig, SpindleConfig, SubgroupId, ViewBuilder};

fn det() -> DetectorConfig {
    DetectorConfig {
        heartbeat_interval: Duration::from_millis(1),
        timeout: Duration::from_millis(150),
    }
}

fn all_senders(n: usize) -> spindle::membership::View {
    let members: Vec<usize> = (0..n).collect();
    ViewBuilder::new(n)
        .subgroup(&members, &members, 16, 64)
        .build()
        .unwrap()
}

fn drain(cluster: &Cluster, node: usize, count: usize) -> Vec<spindle::Delivered> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        match cluster.node(node).recv_timeout(Duration::from_secs(10)) {
            Some(d) => out.push(d),
            None => panic!("node {node}: timed out at {}/{count}", out.len()),
        }
    }
    out
}

#[test]
fn healthy_cluster_raises_no_suspicions() {
    let mut cluster =
        Cluster::start_with_detector(all_senders(3), SpindleConfig::optimized(), det());
    let burst = |cluster: &Cluster, from: u32| {
        for i in from..from + 50 {
            cluster
                .node(0)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
    };
    // Run some traffic well past the timeout.
    burst(&cluster, 0);
    drain(&cluster, 1, 50);
    std::thread::sleep(det().timeout * 2);
    assert!(
        cluster.suspicions().try_recv().is_err(),
        "no node should be suspected in a healthy cluster"
    );
    // Two epoch boundaries under traffic, each followed by a quiet spell:
    // an admit, then the removal of the admitted row. Each predicate thread
    // carries one heartbeat across them; a value that regressed at a
    // boundary would read as death at every peer whose mirror saw the
    // higher one — the joiner, for one, watches the survivors' install
    // barrier beats.
    burst(&cluster, 50);
    let (joiner, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    burst(&cluster, 100);
    std::thread::sleep(det().timeout * 2);
    cluster.remove_node(joiner).unwrap();
    burst(&cluster, 150);
    std::thread::sleep(det().timeout * 2);
    let suspicions: Vec<_> = cluster.suspicions().try_iter().collect();
    assert!(
        suspicions.iter().all(|s| s.suspect == joiner),
        "a survivor was suspected across the transitions: {suspicions:?}"
    );
    cluster.shutdown();
}

#[test]
fn killed_node_is_suspected_by_survivors() {
    let cluster = Cluster::start_with_detector(all_senders(3), SpindleConfig::optimized(), det());
    // Let heartbeats flow first.
    std::thread::sleep(Duration::from_millis(30));
    cluster.kill(2);
    let s = cluster
        .suspicions()
        .recv_timeout(Duration::from_secs(10))
        .expect("suspicion should arrive after the timeout");
    assert_eq!(s.suspect, 2);
    assert_ne!(s.reporter, 2);
    cluster.shutdown();
}

#[test]
fn suspicion_drives_view_change_and_cluster_continues() {
    let mut cluster =
        Cluster::start_with_detector(all_senders(4), SpindleConfig::optimized(), det());
    std::thread::sleep(Duration::from_millis(30));
    cluster.kill(3);
    let s = cluster
        .suspicions()
        .recv_timeout(Duration::from_secs(10))
        .expect("suspicion");
    assert_eq!(s.suspect, 3);
    let report = cluster
        .remove_node(s.suspect)
        .expect("remove suspected node");
    assert_eq!(report.epoch, 1);

    // Survivors still multicast with total order.
    for i in 0..20u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
        cluster
            .node(1)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    let pick = |d: &spindle::Delivered| (d.epoch, d.sender_rank, d.app_index);
    let a: Vec<_> = drain(&cluster, 0, 40)
        .iter()
        .filter(|d| d.epoch == 1)
        .map(pick)
        .collect();
    let b: Vec<_> = drain(&cluster, 1, 40)
        .iter()
        .filter(|d| d.epoch == 1)
        .map(pick)
        .collect();
    assert_eq!(a, b, "survivors must agree on the new-epoch order");
    cluster.shutdown();
}

#[test]
fn suspicion_eventually_reported_by_every_survivor() {
    let cluster = Cluster::start_with_detector(all_senders(4), SpindleConfig::optimized(), det());
    std::thread::sleep(Duration::from_millis(30));
    cluster.kill(0);
    let mut reporters = std::collections::BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while reporters.len() < 3 && Instant::now() < deadline {
        if let Ok(s) = cluster
            .suspicions()
            .recv_timeout(Duration::from_millis(200))
        {
            assert_eq!(s.suspect, 0);
            reporters.insert(s.reporter);
        }
    }
    assert_eq!(
        reporters.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 3],
        "every survivor's detector should notice independently"
    );
    cluster.shutdown();
}

#[test]
fn killed_node_handle_rejects_sends() {
    let cluster = Cluster::start(all_senders(3), SpindleConfig::optimized());
    cluster.kill(1);
    assert_eq!(
        cluster.node(1).send(SubgroupId(0), b"x"),
        Err(spindle::SendError::Closed)
    );
    cluster.shutdown();
}

#[test]
fn join_adds_receiver_that_sees_new_epoch_traffic() {
    let mut cluster = Cluster::start(all_senders(2), SpindleConfig::optimized());
    for i in 0..5u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    drain(&cluster, 1, 5);
    let (joiner, report) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), false)]))
        .unwrap();
    assert_eq!(joiner, 2);
    assert_eq!(report.epoch, 1);
    assert_eq!(cluster.view().subgroups()[0].members.len(), 3);

    cluster.node(0).send(SubgroupId(0), b"welcome").unwrap();
    let d = cluster
        .node(joiner)
        .recv_timeout(Duration::from_secs(10))
        .expect("joiner delivery");
    assert_eq!(d.data, b"welcome");
    assert_eq!(d.epoch, 1);
    cluster.shutdown();
}

#[test]
fn join_as_sender_participates_in_total_order() {
    let mut cluster = Cluster::start(all_senders(2), SpindleConfig::optimized());
    let (joiner, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    assert_eq!(cluster.view().subgroups()[0].senders.len(), 3);

    for i in 0..10u32 {
        for n in [0, 1, joiner] {
            cluster
                .node(n)
                .send(SubgroupId(0), &i.to_le_bytes())
                .unwrap();
        }
    }
    let pick = |d: &spindle::Delivered| (d.sender_rank, d.app_index);
    let seqs: Vec<Vec<_>> = [0, 1, joiner]
        .iter()
        .map(|&n| drain(&cluster, n, 30).iter().map(pick).collect())
        .collect();
    assert_eq!(seqs[0], seqs[1]);
    assert_eq!(seqs[1], seqs[2]);
    // The joiner's messages really are in the order (sender rank 2).
    assert!(seqs[0].iter().any(|&(rank, _)| rank == 2));
    cluster.shutdown();
}

#[test]
fn join_into_one_of_several_subgroups_only() {
    let v = ViewBuilder::new(3)
        .subgroup(&[0, 1], &[0], 8, 32)
        .subgroup(&[1, 2], &[2], 8, 32)
        .build()
        .unwrap();
    let mut cluster = Cluster::start(v, SpindleConfig::optimized());
    let (joiner, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(1), false)]))
        .unwrap();

    cluster.node(0).send(SubgroupId(0), b"sg0").unwrap();
    cluster.node(2).send(SubgroupId(1), b"sg1").unwrap();
    // The joiner is only in subgroup 1.
    let d = cluster
        .node(joiner)
        .recv_timeout(Duration::from_secs(10))
        .expect("joiner delivery");
    assert_eq!(d.subgroup, SubgroupId(1));
    assert_eq!(d.data, b"sg1");
    assert!(cluster
        .node(joiner)
        .recv_timeout(Duration::from_millis(200))
        .is_none());
    cluster.shutdown();
}

#[test]
fn join_rejects_unknown_subgroup() {
    let mut cluster = Cluster::start(all_senders(2), SpindleConfig::optimized());
    let err = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(9), false)]))
        .unwrap_err();
    assert_eq!(
        err,
        spindle::ViewChangeError::UnknownSubgroup(SubgroupId(9))
    );
    // Unchanged on error.
    assert_eq!(cluster.len(), 2);
    assert_eq!(cluster.view().id(), 0);
    cluster.shutdown();
}

#[test]
fn join_then_remove_then_join_again() {
    let mut cluster = Cluster::start(all_senders(2), SpindleConfig::optimized());
    let (a, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    cluster.remove_node(0).unwrap();
    let (b, r) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
        .unwrap();
    assert_eq!((a, b), (2, 3));
    assert_eq!(r.epoch, 3, "join, remove, join = three epoch transitions");

    // Remaining members 1, 2(a), 3(b) multicast fine.
    cluster.node(1).send(SubgroupId(0), b"m1").unwrap();
    cluster.node(a).send(SubgroupId(0), b"m2").unwrap();
    cluster.node(b).send(SubgroupId(0), b"m3").unwrap();
    let got = drain(&cluster, b, 3);
    assert_eq!(got.len(), 3);
    // Removed node is closed.
    assert_eq!(
        cluster.node(0).send(SubgroupId(0), b"x"),
        Err(spindle::SendError::Closed)
    );
    cluster.shutdown();
}

#[test]
fn multi_failure_sequential_removal() {
    let mut cluster =
        Cluster::start_with_detector(all_senders(5), SpindleConfig::optimized(), det());
    std::thread::sleep(Duration::from_millis(30));
    cluster.kill(1);
    cluster.kill(4);
    // Collect suspicions for both.
    let mut suspects = std::collections::BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while suspects.len() < 2 && Instant::now() < deadline {
        if let Ok(s) = cluster
            .suspicions()
            .recv_timeout(Duration::from_millis(200))
        {
            suspects.insert(s.suspect);
        }
    }
    assert_eq!(suspects.into_iter().collect::<Vec<_>>(), vec![1, 4]);
    cluster.remove_node(1).unwrap();
    cluster.remove_node(4).unwrap();
    assert_eq!(cluster.view().subgroups()[0].members.len(), 3);

    cluster.node(0).send(SubgroupId(0), b"still alive").unwrap();
    let d = drain(&cluster, 2, 1);
    assert_eq!(d[0].data, b"still alive");
    assert_eq!(d[0].epoch, 2);
    cluster.shutdown();
}

#[test]
fn in_flight_messages_survive_join() {
    // Messages queued (but possibly undelivered) at the join must be either
    // delivered in epoch 0 through the cut or resent in epoch 1 — never
    // lost, never duplicated.
    let mut cluster = Cluster::start(all_senders(2), SpindleConfig::optimized());
    for i in 0..50u32 {
        cluster
            .node(0)
            .send(SubgroupId(0), &i.to_le_bytes())
            .unwrap();
    }
    let (_, _) = cluster
        .admit(AdmitRequest::in_process(&[(SubgroupId(0), false)]))
        .unwrap();
    let got = drain(&cluster, 1, 50);
    let mut indices: Vec<u32> = got
        .iter()
        .map(|d| u32::from_le_bytes(d.data[..4].try_into().unwrap()))
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..50).collect::<Vec<_>>(), "no loss, no dups");
    cluster.shutdown();
}

#[test]
fn start_configured_combinations() {
    // Detector only.
    let c = Cluster::start_configured(
        all_senders(2),
        SpindleConfig::optimized(),
        Some(det()),
        None,
    );
    c.node(0).send(SubgroupId(0), b"a").unwrap();
    assert!(c.node(1).recv_timeout(Duration::from_secs(5)).is_some());
    c.shutdown();
    // Neither.
    let c = Cluster::start_configured(all_senders(2), SpindleConfig::optimized(), None, None);
    c.node(0).send(SubgroupId(0), b"b").unwrap();
    assert!(c.node(1).recv_timeout(Duration::from_secs(5)).is_some());
    c.shutdown();
}

#[test]
#[should_panic(expected = "ordered delivery")]
fn persistent_mode_rejects_unordered_delivery() {
    let mut cfg = SpindleConfig::optimized();
    cfg.delivery_timing = spindle::DeliveryTiming::OnReceive;
    let dir = std::env::temp_dir().join(format!("spindle-badcfg-{}", std::process::id()));
    let _ = Cluster::start_configured(
        all_senders(2),
        cfg,
        None,
        Some(spindle::PersistConfig::new(dir)),
    );
}
