//! Persistent atomic multicast (paper footnote 2: "equivalent to the
//! classical durable Paxos").
//!
//! Run with: `cargo run -p spindle --example durable_log`
//!
//! A three-node group runs in durable mode: every delivered message is
//! appended to a per-node checksummed log before the node advances its SST
//! persistence frontier. The example shows the global frontier covering the
//! traffic, then "crashes" the whole process (drops the cluster), reopens
//! the logs cold, and verifies they agree — a replica could rebuild its
//! state by replaying any of them.

use std::time::{Duration, Instant};

use spindle::{Cluster, PersistConfig, SpindleConfig, SubgroupId, ViewBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("spindle-durable-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let view = ViewBuilder::new(3)
        .subgroup(&[0, 1, 2], &[0, 1, 2], 16, 128)
        .build()?;
    let cluster =
        Cluster::start_persistent(view, SpindleConfig::optimized(), PersistConfig::new(&dir));

    // Each node multicasts a few bank-style operations.
    for i in 0..5u32 {
        for n in 0..3 {
            let op = format!("acct{} += {}", n, i * 10);
            cluster.node(n).send(SubgroupId(0), op.as_bytes())?;
        }
    }
    // Consume the deliveries and wait until the *global* persistence
    // frontier (min over members' persisted_num) covers all 15 messages.
    for n in 0..3 {
        for _ in 0..15 {
            cluster
                .node(n)
                .recv_timeout(Duration::from_secs(5))
                .expect("delivery");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let f = cluster.node(0).persistence_frontier(SubgroupId(0)).unwrap();
        if f >= 14 {
            println!("global persistence frontier reached seq {f} (all 15 messages durable)");
            break;
        }
        assert!(Instant::now() < deadline, "frontier stuck at {f}");
        std::thread::yield_now();
    }
    cluster.shutdown(); // "power off"

    // Cold restart: recover each node's log and compare.
    println!("\nrecovering logs from {}:", dir.display());
    let mut reference: Option<Vec<(i64, Vec<u8>)>> = None;
    for n in 0..3 {
        let records = spindle::persist::read_log(&dir, &PersistConfig::log_name(n, SubgroupId(0)))?;
        println!(
            "  node {n}: {} records, last = {:?}",
            records.len(),
            records
                .last()
                .map(|r| String::from_utf8_lossy(&r.data).into_owned()),
        );
        let seq: Vec<(i64, Vec<u8>)> = records.iter().map(|r| (r.seq, r.data.clone())).collect();
        match &reference {
            None => reference = Some(seq),
            Some(r) => assert_eq!(r, &seq, "logs must agree (total order)"),
        }
    }
    println!("\nok: all three durable logs hold the identical 15-operation sequence");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
