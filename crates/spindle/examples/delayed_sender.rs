//! The null-send story (paper §3.3, Figure 10), on the simulated cluster.
//!
//! Run with: `cargo run -p spindle --release --example delayed_sender`
//!
//! Four nodes, all senders, 10 KB messages. One sender is delayed by 100 µs
//! per message — with round-robin delivery its lateness would stall
//! everyone. The run is repeated three ways: the baseline (stalls), with
//! batching but no nulls (still stalls behind the laggard), and the full
//! Spindle stack whose null-sends fill the laggard's rounds.

use std::time::Duration;

use spindle::{SenderActivity, SimCluster, SpindleConfig, ViewBuilder, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let view = ViewBuilder::new(4)
        .subgroup(&[0, 1, 2, 3], &[0, 1, 2, 3], 100, 10 * 1024)
        .build()?;
    let workload = Workload::new(2_000, 10 * 1024).with_activity(
        0,
        2,
        SenderActivity::DelayEach(Duration::from_micros(100)),
    );

    println!("4 nodes, all senders; sender rank 2 delayed 100us per send\n");
    for (name, cfg) in [
        ("baseline (no nulls)        ", SpindleConfig::baseline()),
        (
            "batching only (no nulls)   ",
            SpindleConfig::batching_only(),
        ),
        ("full Spindle (null-sends)  ", SpindleConfig::optimized()),
    ] {
        let nulls_on = cfg.null_sends;
        let r = SimCluster::new(view.clone(), cfg, workload.clone()).run();
        assert!(r.completed || !nulls_on, "null-sends did not carry the run");
        let nulls: u64 = r.nodes.iter().map(|n| n.nulls_sent).sum();
        println!(
            "{name} bandwidth {:6.2} GB/s   latency {:8.3} ms   nulls sent {:6}   {}",
            r.bandwidth_gbps(),
            r.mean_latency_ms(),
            nulls,
            if r.completed {
                "completed"
            } else {
                "RAN DRY (delayed sender gates the pipeline)"
            },
        );
    }

    println!(
        "\nThe delayed sender cannot be fixed, but null-sends stop its lateness\n\
         from propagating: the other three senders run at full speed while the\n\
         laggard's rounds are filled with nulls (discarded at delivery)."
    );
    Ok(())
}
