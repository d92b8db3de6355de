//! Everything at once: a durable cluster with failure detection running
//! continuous traffic through a crash, a detector-driven removal, and a
//! join — the full membership lifecycle with persistence on. The
//! end-of-run checks tie together the guarantees the individual test
//! suites establish separately.

use std::time::{Duration, Instant};

use spindle::persist::read_log;
use spindle::{
    AdmitRequest, Cluster, DetectorConfig, PersistConfig, SpindleConfig, SubgroupId, ViewBuilder,
};

#[test]
fn durable_cluster_survives_crash_removal_and_join() {
    let dir = std::env::temp_dir().join(format!("spindle-fullstack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let members: Vec<usize> = (0..4).collect();
    let view = ViewBuilder::new(4)
        .subgroup(&members, &members, 16, 64)
        .build()
        .unwrap();
    let mut cluster = Cluster::start_configured(
        view,
        SpindleConfig::optimized(),
        Some(DetectorConfig {
            heartbeat_interval: Duration::from_millis(1),
            timeout: Duration::from_millis(100),
        }),
        Some(PersistConfig::new(&dir)),
    );

    let sg = SubgroupId(0);
    let send_burst = |cluster: &Cluster, nodes: &[usize], base: u32| {
        for i in 0..10u32 {
            for &n in nodes {
                let mut p = (n as u32).to_le_bytes().to_vec();
                p.extend_from_slice(&(base + i).to_le_bytes());
                cluster.node(n).send(sg, &p).unwrap();
            }
        }
    };

    // Epoch 0: everyone sends; drain at node 0.
    send_burst(&cluster, &[0, 1, 2, 3], 0);
    for _ in 0..40 {
        cluster
            .node(0)
            .recv_timeout(Duration::from_secs(10))
            .expect("epoch-0 delivery");
    }

    // Node 3 crashes silently; the detector notices; membership heals.
    cluster.kill(3);
    let s = cluster
        .suspicions()
        .recv_timeout(Duration::from_secs(10))
        .expect("suspicion of the crashed node");
    assert_eq!(s.suspect, 3);
    cluster.remove_node(3).unwrap();

    // Epoch 1: survivors stream on.
    send_burst(&cluster, &[0, 1, 2], 100);
    for _ in 0..30 {
        cluster
            .node(0)
            .recv_timeout(Duration::from_secs(10))
            .expect("epoch-1 delivery");
    }

    // A replacement joins as a sender and participates.
    let (joiner, report) = cluster
        .admit(AdmitRequest::in_process(&[(sg, true)]))
        .unwrap();
    assert_eq!(report.epoch, 2);
    send_burst(&cluster, &[0, joiner], 200);
    for _ in 0..20 {
        cluster
            .node(joiner)
            .recv_timeout(Duration::from_secs(10))
            .expect("epoch-2 delivery");
    }

    // Wait for node 0's local persistence to cover everything it delivered
    // in epoch 2: the frontier must reach the *last delivery's* sequence
    // number. (Not 19 — the two silent senders' null rounds occupy
    // sequence numbers too, so 20 messages end past seq 19.)
    let mut last_seq = -1;
    for _ in 0..20 {
        last_seq = cluster
            .node(0)
            .recv_timeout(Duration::from_secs(10))
            .expect("epoch-2 delivery at node 0")
            .seq;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.node(0).local_persisted(sg).unwrap() < last_seq {
        assert!(Instant::now() < deadline, "persistence stalled");
        std::thread::yield_now();
    }
    cluster.shutdown();

    // Post-mortem over the durable logs.
    let log0 = read_log(&dir, &PersistConfig::log_name(0, SubgroupId(0))).unwrap();
    // Node 0 logged every epoch's traffic: 40 + 30 + 20.
    assert_eq!(log0.len(), 90, "node 0 durably logged all three epochs");
    let epochs: Vec<u64> = {
        let mut e: Vec<u64> = log0.iter().map(|r| r.epoch).collect();
        e.dedup();
        e
    };
    assert_eq!(epochs, vec![0, 1, 2], "epochs in order, no interleaving");

    // The crashed node's log is a prefix of node 0's.
    let log3 = read_log(&dir, &PersistConfig::log_name(3, SubgroupId(0))).unwrap();
    assert!(log3.len() <= 40);
    assert_eq!(&log0[..log3.len()], &log3[..]);

    // The joiner logged only epoch 2, and it agrees with node 0's epoch-2
    // suffix.
    let logj = read_log(&dir, &PersistConfig::log_name(joiner, SubgroupId(0))).unwrap();
    assert!(logj.iter().all(|r| r.epoch == 2));
    let node0_e2: Vec<_> = log0.iter().filter(|r| r.epoch == 2).collect();
    assert_eq!(node0_e2.len(), logj.len());
    for (a, b) in node0_e2.iter().zip(&logj) {
        assert_eq!((a.seq, &a.data), (b.seq, &b.data));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
