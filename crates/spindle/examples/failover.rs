//! Failure-atomic view change (paper §2.1), live.
//!
//! Run with: `cargo run -p spindle --example failover`
//!
//! Four nodes multicast continuously; node 3 is removed mid-stream. The
//! cluster wedges, survivors agree on the ragged trim, deliver exactly
//! through the cut, install epoch 1 with a fresh fabric, and resend any
//! undelivered messages from surviving senders. Messages past the cut from
//! the failed node are delivered by no one — the all-or-nothing guarantee.

use std::time::Duration;

use spindle::{Cluster, SpindleConfig, SubgroupId, ViewBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let view = ViewBuilder::new(4)
        .subgroup(&[0, 1, 2, 3], &[0, 1, 2, 3], 8, 64)
        .build()?;
    let mut cluster = Cluster::start(view, SpindleConfig::optimized());

    // Every node sends a handful of messages.
    for i in 0..6u32 {
        for n in 0..4 {
            let msg = format!("e0 n{n} m{i}");
            cluster.node(n).send(SubgroupId(0), msg.as_bytes())?;
        }
    }

    println!("removing node 3 (crash) ...");
    let report = cluster.remove_node(3)?;
    println!(
        "view change -> epoch {}, ragged-trim cut seq {}, {} message(s) resent",
        report.epoch, report.cuts[0], report.resent
    );

    // New-epoch traffic from the survivors.
    for n in 0..3 {
        let msg = format!("e1 n{n} hello");
        cluster.node(n).send(SubgroupId(0), msg.as_bytes())?;
    }

    // Drain node 0 and show the epochs.
    let mut old_epoch = 0;
    let mut new_epoch = 0;
    while let Some(d) = cluster.node(0).recv_timeout(Duration::from_millis(500)) {
        if d.epoch == 0 {
            old_epoch += 1;
        } else {
            new_epoch += 1;
            println!(
                "  epoch {} seq {:2} from rank {}: {}",
                d.epoch,
                d.seq,
                d.sender_rank,
                String::from_utf8_lossy(&d.data)
            );
        }
    }
    println!("\ndelivered {old_epoch} messages in epoch 0 and {new_epoch} in epoch 1");
    assert!(
        new_epoch >= 3,
        "the survivors' epoch-1 messages were not delivered"
    );
    println!("ok: survivors agreed on the cut and the group kept running");
    cluster.shutdown();
    Ok(())
}
