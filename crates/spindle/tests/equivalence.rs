//! Integration: every optimization configuration delivers exactly the same
//! application-visible result — the Spindle techniques are performance
//! transformations, not semantic changes.

use std::collections::HashMap;
use std::time::Duration;

use spindle::{Cluster, SpindleConfig, SubgroupId, ViewBuilder};

/// Runs a fixed concurrent workload under `cfg` and returns, per node, the
/// delivered `(sender, index, payload)` sequence.
fn run_scenario(cfg: SpindleConfig, n: usize, per_sender: u32) -> Vec<Vec<(usize, u64, Vec<u8>)>> {
    let members: Vec<usize> = (0..n).collect();
    let view = ViewBuilder::new(n)
        .subgroup(&members, &members, 8, 32)
        .build()
        .unwrap();
    let cluster = Cluster::start(view, cfg);
    std::thread::scope(|s| {
        for node in 0..n {
            let h = cluster.node(node);
            s.spawn(move || {
                for i in 0..per_sender {
                    let mut p = (node as u32).to_le_bytes().to_vec();
                    p.extend_from_slice(&i.to_le_bytes());
                    h.send(SubgroupId(0), &p).unwrap();
                }
            });
        }
    });
    let total = n * per_sender as usize;
    let out = (0..n)
        .map(|node| {
            let mut seq = Vec::with_capacity(total);
            while seq.len() < total {
                let d = cluster
                    .node(node)
                    .recv_timeout(Duration::from_secs(60))
                    .expect("delivery");
                seq.push((d.sender_rank, d.app_index, d.data));
            }
            seq
        })
        .collect();
    cluster.shutdown();
    out
}

fn all_configs() -> Vec<(&'static str, SpindleConfig)> {
    vec![
        ("baseline", SpindleConfig::baseline()),
        (
            "+delivery",
            SpindleConfig::baseline().with_delivery_batching(),
        ),
        (
            "+receive",
            SpindleConfig::baseline()
                .with_delivery_batching()
                .with_receive_batching(),
        ),
        ("+send", SpindleConfig::batching_only()),
        ("+nulls", SpindleConfig::batching_only().with_null_sends()),
        ("optimized", SpindleConfig::optimized()),
    ]
}

/// Every configuration delivers the same multiset of messages with intact
/// payloads, identical across nodes within a run.
#[test]
fn all_configs_deliver_same_multiset() {
    let n = 3;
    let per = 40u32;
    for (name, cfg) in all_configs() {
        let per_node = run_scenario(cfg, n, per);
        // Within the run: identical order at every node.
        for node in 1..n {
            assert_eq!(
                per_node[0], per_node[node],
                "{name}: node {node} ordered differently"
            );
        }
        // The multiset is exactly the offered workload.
        let mut counts: HashMap<(usize, u64), u32> = HashMap::new();
        for (rank, idx, data) in &per_node[0] {
            *counts.entry((*rank, *idx)).or_default() += 1;
            let sender = u32::from_le_bytes(data[..4].try_into().unwrap());
            let i = u32::from_le_bytes(data[4..8].try_into().unwrap());
            assert_eq!(
                (sender as usize, i as u64),
                (*rank, *idx),
                "{name}: payload mangled"
            );
        }
        assert_eq!(
            counts.len(),
            n * per as usize,
            "{name}: wrong message count"
        );
        assert!(
            counts.values().all(|&c| c == 1),
            "{name}: duplicate delivery"
        );
    }
}

/// FIFO per sender holds under every configuration.
#[test]
fn fifo_under_every_config() {
    for (name, cfg) in all_configs() {
        let per_node = run_scenario(cfg, 3, 25);
        for seq in &per_node {
            let mut next: HashMap<usize, u64> = HashMap::new();
            for (rank, idx, _) in seq {
                let e = next.entry(*rank).or_default();
                assert_eq!(idx, e, "{name}: FIFO violated for sender {rank}");
                *e += 1;
            }
        }
    }
}

/// The simulated runtime agrees with the threaded runtime on the
/// application-visible outcome (message counts and bytes) for the same
/// logical workload.
#[test]
fn sim_and_threaded_agree_on_outcome() {
    use spindle::{SimCluster, Workload};
    let members: Vec<usize> = (0..3).collect();
    let view = ViewBuilder::new(3)
        .subgroup(&members, &members, 8, 32)
        .build()
        .unwrap();
    let sim = SimCluster::new(view, SpindleConfig::optimized(), Workload::new(40, 8)).run();
    assert!(sim.completed);
    let threaded = run_scenario(SpindleConfig::optimized(), 3, 40);
    for (node, seq) in threaded.iter().enumerate() {
        assert_eq!(
            sim.nodes[node].delivered_msgs as usize,
            seq.len(),
            "delivered counts disagree at node {node}"
        );
    }
}
