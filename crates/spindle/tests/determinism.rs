//! The deterministic-simulation contract, pinned as a workspace-level test:
//! a `SimCluster` run is a pure function of (view, config, workload, seed).
//! Two runs with the same seed must produce bit-identical reports — every
//! counter, histogram bucket, latency summary and the virtual-time makespan.
//!
//! This is the property that makes recorded seeds usable as regression
//! tests: if it ever breaks, every figure regeneration and every seeded
//! property test in the repo silently loses reproducibility.

use std::time::Duration;

use spindle::{DeliveryTiming, SenderActivity, SimCluster, SpindleConfig, ViewBuilder, Workload};

fn view(n: usize, window: usize, max_msg: usize) -> spindle::View {
    let members: Vec<usize> = (0..n).collect();
    ViewBuilder::new(n)
        .subgroup(&members, &members, window, max_msg)
        .build()
        .unwrap()
}

/// One full report, rendered to its exhaustive `Debug` form. Comparing the
/// rendered form compares every public field of every node's metrics at
/// once (including f64 latency statistics, bit-for-bit).
fn trace(cfg: SpindleConfig, seed: u64) -> String {
    let report = SimCluster::new(view(4, 16, 1024), cfg, Workload::new(200, 1024))
        .with_seed(seed)
        .run();
    assert!(report.completed, "simulation stalled (seed {seed})");
    format!("{report:?}")
}

#[test]
fn same_seed_same_delivery_trace_optimized() {
    for seed in [0, 1, 42, 0xDEAD_BEEF] {
        let a = trace(SpindleConfig::optimized(), seed);
        let b = trace(SpindleConfig::optimized(), seed);
        assert_eq!(a, b, "optimized run diverged under seed {seed}");
    }
}

#[test]
fn same_seed_same_delivery_trace_baseline() {
    let a = trace(SpindleConfig::baseline(), 7);
    let b = trace(SpindleConfig::baseline(), 7);
    assert_eq!(a, b, "baseline run diverged under seed 7");
}

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two tests above compare two runs of one build, so a change that
/// alters what the simulator computes passes them. This one pins the
/// report itself: FNV-1a-64 of the rendered report at seed 42 for every
/// Fig. 5 step, the memcpy, unordered-delivery, null-path (one sender never
/// sends) and delayed-sender configurations. A refactor of the simulator or
/// the protocol pass must leave every constant unchanged; a change that means
/// to alter the simulated numbers updates them in the same commit.
#[test]
fn simulator_reports_match_pinned_fingerprints() {
    let on_receive = SpindleConfig {
        delivery_timing: DeliveryTiming::OnReceive,
        ..SpindleConfig::optimized()
    };
    let delivery = SpindleConfig::baseline().with_delivery_batching();
    let receive = delivery.clone().with_receive_batching();
    let send = receive.clone().with_send_batching();
    let nulls = send.clone().with_null_sends();
    let continuous = Workload::new(200, 1024);
    let memcpy = continuous.clone().with_memcpy();
    let inactive = continuous
        .clone()
        .with_activity(0, 1, SenderActivity::Inactive);
    let delayed = continuous.clone().with_activity(
        0,
        2,
        SenderActivity::DelayEach(Duration::from_micros(20)),
    );
    let grid: [(&str, SpindleConfig, &Workload, u64); 11] = [
        (
            "baseline",
            SpindleConfig::baseline(),
            &continuous,
            0x1e29_8b37_5fb7_e3bb,
        ),
        ("+delivery", delivery, &continuous, 0x83e8_8a47_6d4c_266b),
        ("+receive", receive, &continuous, 0x7fea_b4e3_db83_8dc2),
        // Without early lock release every send batch in these runs holds
        // one message and no null is owed, so +send, +nulls and
        // batching-only render the same report as +receive.
        ("+send", send, &continuous, 0x7fea_b4e3_db83_8dc2),
        ("+nulls", nulls.clone(), &continuous, 0x7fea_b4e3_db83_8dc2),
        (
            "+early-release",
            nulls.with_early_lock_release(),
            &continuous,
            0x21a2_40eb_adaa_c7b8,
        ),
        (
            "batching-only",
            SpindleConfig::batching_only(),
            &continuous,
            0x7fea_b4e3_db83_8dc2,
        ),
        (
            "memcpy",
            SpindleConfig::optimized(),
            &memcpy,
            0x15cd_c90d_86e4_7190,
        ),
        ("on-receive", on_receive, &continuous, 0x5c57_03da_7329_03f4),
        (
            "inactive",
            SpindleConfig::optimized(),
            &inactive,
            0x61d1_98bd_7bb8_84ec,
        ),
        (
            "delayed",
            SpindleConfig::baseline(),
            &delayed,
            0x239f_7268_dda1_5bf0,
        ),
    ];
    let mismatched: Vec<String> = grid
        .into_iter()
        .filter_map(|(name, cfg, workload, pinned)| {
            let report = SimCluster::new(view(4, 16, 1024), cfg, workload.clone())
                .with_seed(42)
                .run();
            let got = fnv1a64(format!("{report:?}").as_bytes());
            (got != pinned).then(|| format!("{name}: {got:#018x} (pinned {pinned:#018x})"))
        })
        .collect();
    assert!(mismatched.is_empty(), "{mismatched:#?}");
}

/// The grid above runs one subgroup of every row. This pins a partial
/// membership: the 5-row, 3-subgroup view of the quickstart example (at
/// 1 KiB), where row 3 only receives, in subgroup 1, and rows 3 and 4 are
/// each outside two subgroups — so per-subgroup member posting and
/// per-row delivery targets are pinned too.
#[test]
fn partial_membership_reports_match_pinned_fingerprints() {
    let view = ViewBuilder::new(5)
        .subgroup(&[0, 1, 2], &[0, 1, 2], 16, 1024)
        .subgroup(&[0, 1, 3], &[0, 1], 16, 1024)
        .subgroup(&[0, 2, 4], &[0, 2, 4], 16, 1024)
        .build()
        .unwrap();
    for (name, cfg, pinned) in [
        (
            "optimized",
            SpindleConfig::optimized(),
            0x3cc1_d720_9dfb_fce9,
        ),
        ("baseline", SpindleConfig::baseline(), 0x4f4b_a8b7_d0d0_e857),
    ] {
        let report = SimCluster::new(view.clone(), cfg, Workload::new(200, 1024))
            .with_seed(42)
            .run();
        assert!(report.completed, "{name}: simulation stalled");
        assert_eq!(report.nodes[0].delivered_msgs, 1_600, "{name}");
        let got = fnv1a64(format!("{report:?}").as_bytes());
        assert_eq!(got, pinned, "{name}: {got:#018x} (pinned {pinned:#018x})");
    }
}
