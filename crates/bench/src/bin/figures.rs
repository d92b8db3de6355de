//! Regenerates every table and figure of the Spindle paper's evaluation.
//!
//! ```text
//! cargo run -p spindle-bench --release --bin figures -- <experiment> [flags]
//!
//! experiments:
//!   table1 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   fig13 fig14 fig15 fig16 fig17 fig18 upcall counters all
//!
//! flags:
//!   --full        paper-scale sweeps (all sizes, more messages, 5 runs)
//!   --runs N      seeded repetitions per point (default 2 quick / 5 full)
//!   --out DIR     CSV output directory (default target/figures)
//! ```
//!
//! Each experiment prints the same rows/series the paper plots and writes a
//! CSV; `EXPERIMENTS.md` records the paper-vs-measured comparison.

use std::sync::Arc;

use spindle_bench::{
    bw, lat, measure, overlapping_subgroups, paper_workload, run_seeds, single_subgroup, us, Opts,
    Pattern, Point, Table, PAPER_MSG, PAPER_WINDOW,
};
use spindle_core::{CostModel, SenderActivity, SpindleConfig, Workload};
use spindle_dds::{DdsExperiment, QosLevel};
use spindle_fabric::Region;
use spindle_membership::ViewBuilder;
use spindle_sst::Sst;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut exp: Option<String> = None;
    let mut runs_override = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.full = true,
            "--runs" => {
                i += 1;
                runs_override = args.get(i).and_then(|s| s.parse().ok());
            }
            "--out" => {
                i += 1;
                if let Some(d) = args.get(i) {
                    opts.out_dir = d.into();
                }
            }
            other if exp.is_none() => exp = Some(other.to_string()),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts.runs = runs_override.unwrap_or(if opts.full { 5 } else { 2 });
    let exp = exp.unwrap_or_else(|| "all".to_string());
    let all = [
        "table1",
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "upcall",
        "counters",
        "nullstress",
        "ablate",
        "rdmc",
        "membership",
        "durability",
    ];
    let list: Vec<&str> = if exp == "all" {
        all.to_vec()
    } else {
        vec![exp.as_str()]
    };
    for e in list {
        let t0 = std::time::Instant::now();
        match e {
            "table1" => table1(&opts),
            "fig1" => fig1(&opts),
            "fig3" => fig3(&opts),
            "fig4" => fig4(&opts),
            "fig5" => fig5(&opts),
            "fig6" => fig6(&opts),
            "fig7" => fig7(&opts),
            "fig8" => fig8(&opts),
            "fig9" => fig9(&opts),
            "fig10" => fig10(&opts),
            "fig11" => fig11(&opts),
            "fig12" => fig12(&opts),
            "fig13" => fig13(&opts),
            "fig14" => fig14(&opts),
            "fig15" => fig15(&opts),
            "fig16" => fig16_17(&opts),
            "fig17" => fig16_17(&opts),
            "fig18" => fig18(&opts),
            "upcall" => upcall(&opts),
            "counters" => counters(&opts),
            "nullstress" => nullstress(&opts),
            "ablate" => ablate(&opts),
            "rdmc" => rdmc(&opts),
            "membership" => membership(&opts),
            "durability" => durability(&opts),
            other => {
                eprintln!("unknown experiment {other}; one of {all:?} or all");
                std::process::exit(2);
            }
        }
        eprintln!("[{e} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}

/// Table 1: the sample SST state for 5 nodes / 3 subgroups, reconstructed
/// with the real layout machinery and the paper's exact values.
fn table1(_opts: &Opts) {
    let view = ViewBuilder::new(5)
        .subgroup(&[0, 1, 2], &[0, 1, 2], 3, 64)
        .subgroup(&[0, 1, 3], &[0, 1], 2, 64)
        .subgroup(&[0, 2, 4], &[0, 2, 4], 1, 64)
        .build()
        .unwrap();
    let plan = spindle_core::Plan::build(&view, false);
    let region = Arc::new(Region::new(plan.layout.region_words()));
    let sst = Sst::new(plan.layout.clone(), region.clone(), 0);
    sst.init();
    // Poke the paper's Table 1a values into node 0's replica. A node only
    // writes its own row in the protocol; here we play "the fabric" and
    // place what the other nodes would have pushed.
    let r = [
        [Some(8), Some(25), Some(-1)],
        [Some(9), Some(21), None],
        [Some(6), None, Some(-1)],
        [None, Some(23), None],
        [None, None, Some(-1)],
    ];
    let d = [
        [Some(6), Some(21), Some(-1)],
        [Some(6), Some(20), None],
        [Some(6), None, Some(-1)],
        [None, Some(21), None],
        [None, None, Some(-1)],
    ];
    let membership: [&[usize]; 3] = [&[0, 1, 2], &[0, 1, 3], &[0, 2, 4]];
    for row in 0..5 {
        for g in 0..3 {
            if let Some(v) = r[row][g] {
                region.store(
                    plan.layout
                        .abs_word(row, plan.cols[g].recv.word_range().start),
                    v as u64,
                );
            }
            if let Some(v) = d[row][g] {
                region.store(
                    plan.layout
                        .abs_word(row, plan.cols[g].deliv.word_range().start),
                    v as u64,
                );
            }
        }
    }
    println!("== table1 — sample SST state at node 0 (paper Table 1a)");
    println!(
        "{:>7} | {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5}",
        "", "r[0]", "r[1]", "r[2]", "d[0]", "d[1]", "d[2]"
    );
    for row in 0..5 {
        let cell = |g: usize, col: spindle_sst::CounterCol| -> String {
            if membership[g].contains(&row) {
                format!("{}", sst.counter(col, row))
            } else {
                "—".to_string()
            }
        };
        println!(
            "{:>7} | {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5}",
            format!("node {row}"),
            cell(0, plan.cols[0].recv),
            cell(1, plan.cols[1].recv),
            cell(2, plan.cols[2].recv),
            cell(0, plan.cols[0].deliv),
            cell(1, plan.cols[1].deliv),
            cell(2, plan.cols[2].deliv),
        );
    }
    // §4.1.2's memory formula at the paper's headline configuration.
    let sg16 = single_subgroup(16, Pattern::All, PAPER_WINDOW, PAPER_MSG);
    let bytes = sg16.subgroups()[0].slot_memory_bytes();
    println!(
        "\nslot memory, 16 members / w=100 / 10KB (paper: ~16MB): {:.1} MB\n",
        bytes as f64 / 1e6
    );
}

/// Figure 1: RDMA write latency vs. message size.
fn fig1(opts: &Opts) {
    let net = CostModel::default().net;
    let mut t = Table::new(
        "fig1",
        "RDMA write latency vs data size (paper: 1.73us @ 1B, 2.46us @ 4KB)",
        "bytes",
        vec!["latency us".into()],
    );
    for p in 0..=20 {
        let bytes = 1usize << p;
        let l = net.write_latency(bytes).as_nanos() as f64 / 1e3;
        t.row(bytes as f64, vec![Point { mean: l, sd: 0.0 }]);
    }
    t.emit(opts);
}

/// Figure 3: single subgroup, 10 KB — opportunistic batching vs. baseline
/// for the three sender patterns.
fn fig3(opts: &Opts) {
    let mut t = Table::new(
        "fig3",
        "single subgroup 10KB: batching vs baseline (GB/s)",
        "subgroup size",
        vec![
            "batching all".into(),
            "batching half".into(),
            "batching one".into(),
            "baseline all".into(),
            "baseline half".into(),
            "baseline one".into(),
        ],
    );
    for n in opts.sizes() {
        let mut points = Vec::new();
        for (cfg, msgs) in [
            (SpindleConfig::batching_only(), opts.msgs()),
            (SpindleConfig::baseline(), opts.msgs_baseline()),
        ] {
            for pat in [Pattern::All, Pattern::Half, Pattern::One] {
                let view = single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG);
                points.push(measure(&view, &cfg, &paper_workload(msgs), opts.runs, bw));
            }
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 4: delivery rate (M msgs/s) across message sizes for the batched
/// stack.
fn fig4(opts: &Opts) {
    let sizes = [1usize, 128, 1024, 10 * 1024];
    let mut series: Vec<String> = sizes.iter().map(|s| format!("{}B all", s)).collect();
    series.push("10KB half".into());
    series.push("10KB one".into());
    let mut t = Table::new(
        "fig4",
        "delivery rate (millions of msgs/s), batched stack",
        "subgroup size",
        series,
    );
    let cfg = SpindleConfig::batching_only();
    for n in opts.sizes() {
        let mut points = Vec::new();
        for &size in &sizes {
            let view = single_subgroup(n, Pattern::All, PAPER_WINDOW, size);
            points.push(measure(
                &view,
                &cfg,
                &Workload::new(opts.msgs(), size),
                opts.runs,
                |r| r.delivery_mmsgs(),
            ));
        }
        for pat in [Pattern::Half, Pattern::One] {
            let view = single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG);
            points.push(measure(
                &view,
                &cfg,
                &paper_workload(opts.msgs()),
                opts.runs,
                |r| r.delivery_mmsgs(),
            ));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 5: batching applied to successively more stages — throughput and
/// latency.
fn fig5(opts: &Opts) {
    let stages: Vec<(&str, SpindleConfig, bool)> = vec![
        ("baseline", SpindleConfig::baseline(), true),
        (
            "+delivery",
            SpindleConfig::baseline().with_delivery_batching(),
            true,
        ),
        (
            "+receive",
            SpindleConfig::baseline()
                .with_delivery_batching()
                .with_receive_batching(),
            false,
        ),
        ("+send", SpindleConfig::batching_only(), false),
    ];
    let mut series = Vec::new();
    for (name, _, _) in &stages {
        series.push(format!("{name} GB/s"));
        series.push(format!("{name} lat ms"));
    }
    let mut t = Table::new(
        "fig5",
        "incremental batching stages, all senders 10KB",
        "subgroup size",
        series,
    );
    for n in opts.sizes() {
        let view = single_subgroup(n, Pattern::All, PAPER_WINDOW, PAPER_MSG);
        let mut points = Vec::new();
        for (_, cfg, slow) in &stages {
            let msgs = if *slow {
                opts.msgs_baseline()
            } else {
                opts.msgs()
            };
            let reports = run_seeds(&view, cfg, &paper_workload(msgs), opts.runs);
            let mut b = spindle_sim::stats::Summary::new();
            let mut l = spindle_sim::stats::Summary::new();
            for r in &reports {
                b.record(bw(r));
                l.record(lat(r));
            }
            points.push(Point {
                mean: b.mean(),
                sd: b.stddev(),
            });
            points.push(Point {
                mean: l.mean(),
                sd: l.stddev(),
            });
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 6: ring-buffer window size sweep.
fn fig6(opts: &Opts) {
    let windows = [5usize, 10, 50, 100, 500, 1000];
    let mut t = Table::new(
        "fig6",
        "window size sweep, all senders 10KB (GB/s)",
        "subgroup size",
        windows.iter().map(|w| format!("w={w}")).collect(),
    );
    let cfg = SpindleConfig::batching_only();
    for n in opts.sizes() {
        let mut points = Vec::new();
        for &w in &windows {
            let view = single_subgroup(n, Pattern::All, w, PAPER_MSG);
            points.push(measure(
                &view,
                &cfg,
                &paper_workload(opts.msgs()),
                opts.runs,
                bw,
            ));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 7: batch-size histograms for the three stages (16 nodes, w=100).
fn fig7(opts: &Opts) {
    let view = single_subgroup(16, Pattern::All, PAPER_WINDOW, PAPER_MSG);
    let reports = run_seeds(
        &view,
        &SpindleConfig::batching_only(),
        &paper_workload(opts.msgs()),
        opts.runs.max(1),
    );
    let mut send = spindle_sim::stats::Histogram::new(1, 64);
    let mut recv = spindle_sim::stats::Histogram::new(1, 256);
    let mut deliv = spindle_sim::stats::Histogram::new(1, 1024);
    for r in &reports {
        let (s, rc, d) = r.batch_histograms();
        send.merge(&s);
        recv.merge(&rc);
        deliv.merge(&d);
    }
    println!("== fig7 — batch-size histograms, 16 senders w=100");
    println!(
        "mean batch sizes send/receive/delivery: {:.2} / {:.2} / {:.2}  (paper: 1.72 / 22.18 / 35.19)",
        send.mean(),
        recv.mean(),
        deliv.mean()
    );
    let emit = |name: &str, h: &spindle_sim::stats::Histogram, buckets: &[u64]| {
        println!(
            "\n(fig7{}) {name} batches — frequency %:",
            name.chars().next().unwrap()
        );
        for &b in buckets {
            let pct = h.frequency_at(b) * 100.0;
            if pct > 0.05 {
                println!("  {b:>4}: {pct:5.1}%  {}", "#".repeat((pct * 1.5) as usize));
            }
        }
    };
    emit("send", &send, &(1..=14).collect::<Vec<u64>>());
    emit("receive", &recv, &(1..=50).collect::<Vec<u64>>());
    emit(
        "delivery",
        &deliv,
        &(1..=6).map(|k| k * 16).collect::<Vec<u64>>(),
    );
    // CSV
    let mut t = Table::new(
        "fig7",
        "batch-size means (send/receive/delivery)",
        "stage",
        vec!["mean batch".into()],
    );
    t.row(
        0.0,
        vec![Point {
            mean: send.mean(),
            sd: 0.0,
        }],
    );
    t.row(
        1.0,
        vec![Point {
            mean: recv.mean(),
            sd: 0.0,
        }],
    );
    t.row(
        2.0,
        vec![Point {
            mean: deliv.mean(),
            sd: 0.0,
        }],
    );
    t.emit(opts);
}

/// Figures 8/9 share the machinery: single ACTIVE subgroup among `g`
/// overlapping subgroups.
fn single_active(opts: &Opts, name: &str, title: &str, cfg: SpindleConfig, msgs: u64) {
    let groups = if opts.full {
        vec![1usize, 2, 5, 10, 20, 50]
    } else {
        vec![1, 2, 5, 10, 50]
    };
    let mut t = Table::new(
        name,
        title,
        "subgroup size",
        groups.iter().map(|g| format!("{g} subgroups")).collect(),
    );
    for n in opts.sizes() {
        let mut points = Vec::new();
        for &g in &groups {
            let view = overlapping_subgroups(n, g, PAPER_WINDOW, PAPER_MSG);
            // Only subgroup 0 is active: every sender of the others is
            // declared but inactive.
            let mut wl = paper_workload(msgs);
            for sg in 1..g {
                for rank in 0..n {
                    wl = wl.with_activity(sg, rank, SenderActivity::Inactive);
                }
            }
            points.push(measure(&view, &cfg, &wl, opts.runs, bw));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

fn fig8(opts: &Opts) {
    single_active(
        opts,
        "fig8",
        "BASELINE, one active of N subgroups (GB/s)",
        SpindleConfig::baseline(),
        opts.msgs_baseline(),
    );
}

fn fig9(opts: &Opts) {
    single_active(
        opts,
        "fig9",
        "batched stack, one active of N subgroups (GB/s)",
        SpindleConfig::batching_only(),
        opts.msgs(),
    );
}

/// Figure 10: the null-send scheme under injected sender delays.
fn fig10(opts: &Opts) {
    let cases: Vec<(String, Option<SenderActivity>, bool)> = vec![
        ("no delayed senders".into(), None, false),
        (
            "1us one".into(),
            Some(SenderActivity::DelayEach(us(1))),
            false,
        ),
        (
            "100us one".into(),
            Some(SenderActivity::DelayEach(us(100))),
            false,
        ),
        ("lengthy one".into(), Some(SenderActivity::Inactive), false),
        (
            "1us half".into(),
            Some(SenderActivity::DelayEach(us(1))),
            true,
        ),
        (
            "100us half".into(),
            Some(SenderActivity::DelayEach(us(100))),
            true,
        ),
        ("lengthy half".into(), Some(SenderActivity::Inactive), true),
    ];
    let mut t = Table::new(
        "fig10",
        "sender delay with null-sends (GB/s)",
        "subgroup size",
        cases.iter().map(|(n, _, _)| n.clone()).collect(),
    );
    let cfg = SpindleConfig::optimized();
    for n in opts.sizes() {
        let view = single_subgroup(n, Pattern::All, PAPER_WINDOW, PAPER_MSG);
        let mut points = Vec::new();
        for (_, activity, half) in &cases {
            let mut wl = paper_workload(opts.msgs());
            if let Some(act) = activity {
                let victims = if *half { (n / 2).max(1) } else { 1 };
                for rank in 0..victims {
                    wl = wl.with_activity(0, rank, *act);
                }
            }
            points.push(measure(&view, &cfg, &wl, opts.runs, bw));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 11: null-send overhead under continuous sending.
fn fig11(opts: &Opts) {
    let mut t = Table::new(
        "fig11",
        "null-sends vs batching-only under continuous sending (GB/s)",
        "subgroup size",
        vec![
            "nulls all".into(),
            "nulls half".into(),
            "nulls one".into(),
            "batching all".into(),
            "batching half".into(),
            "batching one".into(),
        ],
    );
    for n in opts.sizes() {
        let mut points = Vec::new();
        for cfg in [
            SpindleConfig::batching_only().with_null_sends(),
            SpindleConfig::batching_only(),
        ] {
            for pat in [Pattern::All, Pattern::Half, Pattern::One] {
                let view = single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG);
                points.push(measure(
                    &view,
                    &cfg,
                    &paper_workload(opts.msgs()),
                    opts.runs,
                    bw,
                ));
            }
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 12: efficient thread synchronization increment.
fn fig12(opts: &Opts) {
    let stages: Vec<(&str, SpindleConfig, bool)> = vec![
        ("fully optimized", SpindleConfig::optimized(), false),
        (
            "batching+nulls",
            SpindleConfig::batching_only().with_null_sends(),
            false,
        ),
        ("batching only", SpindleConfig::batching_only(), false),
        ("baseline", SpindleConfig::baseline(), true),
    ];
    let mut t = Table::new(
        "fig12",
        "early lock release on top of batching+nulls (GB/s)",
        "subgroup size",
        stages.iter().map(|(n, _, _)| n.to_string()).collect(),
    );
    for n in opts.sizes() {
        let view = single_subgroup(n, Pattern::All, PAPER_WINDOW, PAPER_MSG);
        let mut points = Vec::new();
        for (_, cfg, slow) in &stages {
            let msgs = if *slow {
                opts.msgs_baseline()
            } else {
                opts.msgs()
            };
            points.push(measure(&view, cfg, &paper_workload(msgs), opts.runs, bw));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 13: fully optimized stack with multiple ACTIVE subgroups.
fn fig13(opts: &Opts) {
    let groups = if opts.full {
        vec![1usize, 2, 5, 10, 20, 50]
    } else {
        vec![1, 2, 5, 10]
    };
    let mut t = Table::new(
        "fig13",
        "fully optimized, all subgroups active (GB/s, summed across subgroups)",
        "subgroup size",
        groups.iter().map(|g| format!("{g} subgroups")).collect(),
    );
    let cfg = SpindleConfig::optimized();
    for n in opts.sizes() {
        let mut points = Vec::new();
        for &g in &groups {
            let view = overlapping_subgroups(n, g, PAPER_WINDOW, PAPER_MSG);
            // Scale messages down so total work stays bounded.
            let msgs = (opts.msgs() / g as u64).max(300);
            points.push(measure(&view, &cfg, &paper_workload(msgs), opts.runs, bw));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figure 14: memcpy latency and effective bandwidth vs. size.
fn fig14(opts: &Opts) {
    let m = CostModel::default().memcpy;
    let mut t = Table::new(
        "fig14",
        "memcpy cost model: latency (us) and bandwidth (GB/s)",
        "bytes",
        vec!["latency us".into(), "bandwidth GB/s".into()],
    );
    for p in 2..=20 {
        let bytes = 1usize << p;
        t.row(
            bytes as f64,
            vec![
                Point {
                    mean: m.copy_time(bytes).as_nanos() as f64 / 1e3,
                    sd: 0.0,
                },
                Point {
                    mean: m.effective_bandwidth(bytes) / 1e9,
                    sd: 0.0,
                },
            ],
        );
    }
    t.emit(opts);
}

/// Figure 15: memcpy in send and delivery vs. in-place.
fn fig15(opts: &Opts) {
    let mut t = Table::new(
        "fig15",
        "memcpy on send+delivery vs in-place (GB/s)",
        "subgroup size",
        vec![
            "memcpy all".into(),
            "memcpy half".into(),
            "memcpy one".into(),
            "in-place all".into(),
            "in-place half".into(),
            "in-place one".into(),
        ],
    );
    let cfg = SpindleConfig::optimized();
    let in_place = paper_workload(opts.msgs());
    let workloads = [in_place.clone().with_memcpy(), in_place];
    for n in opts.sizes() {
        let mut points = Vec::new();
        for wl in &workloads {
            for pat in [Pattern::All, Pattern::Half, Pattern::One] {
                let view = single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG);
                points.push(measure(&view, &cfg, wl, opts.runs, bw));
            }
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// Figures 16 + 17: final throughput and latency, fully optimized vs
/// baseline.
fn fig16_17(opts: &Opts) {
    let mut t16 = Table::new(
        "fig16",
        "final throughput, single subgroup (GB/s)",
        "subgroup size",
        vec![
            "optimized all".into(),
            "optimized half".into(),
            "optimized one".into(),
            "baseline all".into(),
            "baseline half".into(),
            "baseline one".into(),
        ],
    );
    let mut series17 = t16.series.clone();
    series17.push("optimized all p99".into());
    series17.push("baseline all p99".into());
    let mut t17 = Table::new(
        "fig17",
        "final latency, single subgroup (ms; mean, plus p99 for all-senders)",
        "subgroup size",
        series17,
    );
    for n in opts.sizes() {
        let mut p16 = Vec::new();
        let mut p17 = Vec::new();
        let mut p99s = Vec::new();
        for (cfg, msgs) in [
            (SpindleConfig::optimized(), opts.msgs()),
            (SpindleConfig::baseline(), opts.msgs_baseline()),
        ] {
            for pat in [Pattern::All, Pattern::Half, Pattern::One] {
                let view = single_subgroup(n, pat, PAPER_WINDOW, PAPER_MSG);
                let reports = run_seeds(&view, &cfg, &paper_workload(msgs), opts.runs);
                let mut b = spindle_sim::stats::Summary::new();
                let mut l = spindle_sim::stats::Summary::new();
                let mut p99 = spindle_sim::stats::Summary::new();
                for r in &reports {
                    b.record(bw(r));
                    l.record(lat(r));
                    p99.record(r.latency_percentile_ms(0.99));
                }
                p16.push(Point {
                    mean: b.mean(),
                    sd: b.stddev(),
                });
                p17.push(Point {
                    mean: l.mean(),
                    sd: l.stddev(),
                });
                if pat == Pattern::All {
                    p99s.push(Point {
                        mean: p99.mean(),
                        sd: p99.stddev(),
                    });
                }
            }
        }
        p17.extend(p99s);
        t16.row(n as f64, p16);
        t17.row(n as f64, p17);
    }
    t16.emit(opts);
    t17.emit(opts);
}

/// Figure 18: DDS bandwidth across the four QoS levels, baseline vs
/// Spindle.
fn fig18(opts: &Opts) {
    let mut series = Vec::new();
    for q in QosLevel::ALL {
        series.push(format!("spindle {q:?}"));
    }
    for q in QosLevel::ALL {
        series.push(format!("baseline {q:?}"));
    }
    let mut t = Table::new(
        "fig18",
        "DDS bandwidth, 1 publisher, 10KB samples (MB/s at subscribers)",
        "subscribers",
        series,
    );
    let subs = if opts.full {
        (2..=16).collect::<Vec<usize>>()
    } else {
        vec![2, 4, 8, 16]
    };
    for n in subs {
        let mut points = Vec::new();
        for spindle in [true, false] {
            for qos in QosLevel::ALL {
                let samples = if spindle {
                    opts.msgs()
                } else {
                    opts.msgs_baseline()
                };
                let mut s = spindle_sim::stats::Summary::new();
                for seed in 1..=opts.runs as u64 {
                    let r = DdsExperiment::new(n, qos, spindle)
                        .with_samples(samples)
                        .with_seed(seed)
                        .run();
                    s.record(DdsExperiment::subscriber_bandwidth_mbs(&r));
                }
                points.push(Point {
                    mean: s.mean(),
                    sd: s.stddev(),
                });
            }
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
}

/// §3.5's upcall-delay sensitivity: 1us/100us/1ms upcalls cost about
/// 9%/90%/99% of throughput.
fn upcall(opts: &Opts) {
    let view = single_subgroup(8, Pattern::All, PAPER_WINDOW, PAPER_MSG);
    let cfg = SpindleConfig::optimized();
    let baseline = measure(&view, &cfg, &paper_workload(opts.msgs()), opts.runs, bw);
    let mut t = Table::new(
        "upcall",
        "delivery upcall delay sensitivity (paper: -9%/-90%/-99%)",
        "upcall us",
        vec!["GB/s".into(), "% of no-delay".into()],
    );
    t.row(
        0.0,
        vec![
            baseline,
            Point {
                mean: 100.0,
                sd: 0.0,
            },
        ],
    );
    for (us_, msgs) in [
        (1u64, opts.msgs()),
        (100, opts.msgs() / 4),
        (1000, opts.msgs() / 20),
    ] {
        let wl = paper_workload(msgs.max(200)).with_upcall_cost(us(us_));
        let p = measure(&view, &cfg, &wl, opts.runs, bw);
        let pct = p.mean / baseline.mean * 100.0;
        t.row(us_ as f64, vec![p, Point { mean: pct, sd: 0.0 }]);
    }
    t.emit(opts);
}

/// §4.1.1's counter comparison at 16 senders: RDMA writes, posting time,
/// sender wait share.
fn counters(opts: &Opts) {
    println!("== counters — §4.1.1 metrics at 16 senders, 10KB, w=100");
    println!(
        "{:>22} | {:>14} | {:>14} | {:>12} | {:>10}",
        "config", "writes/node", "push ops/node", "post s/node", "wait %"
    );
    let view = single_subgroup(16, Pattern::All, PAPER_WINDOW, PAPER_MSG);
    let mut rows = Vec::new();
    for (name, cfg, msgs) in [
        ("baseline", SpindleConfig::baseline(), opts.msgs_baseline()),
        ("fully optimized", SpindleConfig::optimized(), opts.msgs()),
    ] {
        let r = &run_seeds(&view, &cfg, &paper_workload(msgs), 1)[0];
        let n = r.nodes.len() as u64;
        let writes = r.total_writes() / n;
        let pushes: u64 = r.nodes.iter().map(|x| x.push_ops).sum::<u64>() / n;
        let post = r.total_post_time().as_secs_f64() / n as f64;
        let wait = r.sender_wait_share() * 100.0;
        println!("{name:>22} | {writes:>14} | {pushes:>14} | {post:>12.3} | {wait:>9.1}%",);
        rows.push((name, writes, pushes, post, wait, msgs));
    }
    println!(
        "\n(paper, 1M msgs: writes 18.2M -> 1.1M, posting 64.84s -> 4.29s, wait 97.6% -> 52.7%;\n\
         our counts are per-node for the scaled message budget — compare ratios, and see\n\
         EXPERIMENTS.md for the accounting differences.)\n"
    );
}

/// §4.2.3's additional null-send stress cases: all members declared
/// senders but only one actually sends; bursty senders with long pauses.
fn nullstress(opts: &Opts) {
    type Shaper = fn(Workload, usize) -> Workload;
    let cases: &[(&str, Shaper)] = &[
        ("one does all sends", |mut wl, n| {
            for rank in 1..n {
                wl = wl.with_activity(0, rank, SenderActivity::Inactive);
            }
            wl
        }),
        ("one bursty (20 msgs / 2 ms)", |wl, _| {
            wl.with_activity(
                0,
                0,
                SenderActivity::Bursty {
                    burst: 20,
                    pause: us(2_000),
                },
            )
        }),
        ("half bursty (20 msgs / 2 ms)", |mut wl, n| {
            for rank in 0..(n / 2).max(1) {
                wl = wl.with_activity(
                    0,
                    rank,
                    SenderActivity::Bursty {
                        burst: 20,
                        pause: us(2_000),
                    },
                );
            }
            wl
        }),
    ];
    let mut t = Table::new(
        "nullstress",
        "§4.2.3 null-send stress: active senders keep full speed (GB/s)",
        "subgroup size",
        cases
            .iter()
            .flat_map(|(name, _)| [format!("{name} (nulls)"), format!("{name} (no nulls)")])
            .collect(),
    );
    for n in opts.sizes() {
        let view = single_subgroup(n, Pattern::All, PAPER_WINDOW, PAPER_MSG);
        let mut points = Vec::new();
        for (_, shape) in cases {
            let wl = shape(paper_workload(opts.msgs()), n);
            points.push(measure(
                &view,
                &SpindleConfig::optimized(),
                &wl,
                opts.runs,
                bw,
            ));
            points.push(measure(
                &view,
                &SpindleConfig::batching_only(),
                &wl,
                opts.runs,
                bw,
            ));
        }
        t.row(n as f64, points);
    }
    t.emit(opts);
    println!(
        "(paper §4.2.3: \"in all cases the mechanism successfully compensated, allowing the\n\
          active senders to run at full speed\"; the no-nulls columns stall or crawl.)\n"
    );
}

/// Cost-model sensitivity ablation (beyond the paper): how the headline
/// result depends on the two most influential calibration knobs.
fn ablate(opts: &Opts) {
    let view = single_subgroup(8, Pattern::All, PAPER_WINDOW, PAPER_MSG);
    let wl = paper_workload(opts.msgs());

    let mut t = Table::new(
        "ablate_post",
        "sensitivity: per-write posting cost (GB/s at n=8)",
        "post_next ns",
        vec!["optimized".into(), "batching only".into(), "ratio".into()],
    );
    for ns in [250u64, 500, 1_000, 2_000] {
        let cost = CostModel {
            post_next: us(0) + std::time::Duration::from_nanos(ns),
            ..CostModel::default()
        };
        let run = |cfg: SpindleConfig| {
            spindle_core::SimCluster::new(view.clone(), cfg, wl.clone())
                .with_cost(cost.clone())
                .run()
                .bandwidth_gbps()
        };
        let o = run(SpindleConfig::optimized());
        let b = run(SpindleConfig::batching_only());
        t.row(
            ns as f64,
            vec![
                Point { mean: o, sd: 0.0 },
                Point { mean: b, sd: 0.0 },
                Point {
                    mean: o / b,
                    sd: 0.0,
                },
            ],
        );
    }
    t.emit(opts);

    let mut t = Table::new(
        "ablate_link",
        "sensitivity: link bandwidth (GB/s at n=8, optimized)",
        "link GB/s",
        vec!["delivered GB/s".into(), "utilization %".into()],
    );
    for link in [6.25e9, 12.5e9, 25.0e9] {
        let mut cost = CostModel::default();
        cost.net.link_bandwidth = link; // nested field: no struct-update form
        let r = spindle_core::SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone())
            .with_cost(cost)
            .run();
        let cap = link / 1e9 * 8.0 / 7.0; // n/(n-1) ingress limit
        t.row(
            link / 1e9,
            vec![
                Point {
                    mean: r.bandwidth_gbps(),
                    sd: 0.0,
                },
                Point {
                    mean: r.bandwidth_gbps() / cap * 100.0,
                    sd: 0.0,
                },
            ],
        );
    }
    t.emit(opts);

    let mut t = Table::new(
        "ablate_sender",
        "sensitivity: sender per-message cost (GB/s at n=8, optimized)",
        "app_per_msg ns",
        vec!["delivered GB/s".into()],
    );
    for ns in [1_800u64, 3_600, 7_200] {
        let cost = CostModel {
            app_per_msg: std::time::Duration::from_nanos(ns),
            ..CostModel::default()
        };
        let r = spindle_core::SimCluster::new(view.clone(), SpindleConfig::optimized(), wl.clone())
            .with_cost(cost)
            .run();
        t.row(
            ns as f64,
            vec![Point {
                mean: r.bandwidth_gbps(),
                sd: 0.0,
            }],
        );
    }
    t.emit(opts);
}

/// SMC-vs-RDMC crossover (extension; paper Fig. 4 caption): effective
/// multicast bandwidth of SMC's sequential send against RDMC's schedules,
/// over the same calibrated network model. The paper notes that "shifting
/// to \[RDMC\] might be advisable for subgroups with more than 12 members";
/// this experiment locates that crossover.
fn rdmc(opts: &Opts) {
    use spindle_rdmc::{Rdmc, ScheduleKind};

    let net = spindle_fabric::NetModel::default();
    let sizes: Vec<usize> = if opts.full {
        (2..=16).collect()
    } else {
        vec![2, 4, 8, 12, 16]
    };
    let deterministic = |v: f64| Point { mean: v, sd: 0.0 };

    for msg in [10 << 10, 100 << 10, 1 << 20, 10 << 20_usize] {
        // RDMC-style blocking: up to 16 blocks, clamped to [4 KB, 1 MB].
        let block = (msg / 16).clamp(4 << 10, 1 << 20);
        let mut t = Table::new(
            format!("rdmc_{}k", msg >> 10),
            format!(
                "SMC sequential send vs RDMC, {} message, {} blocks (GB/s)",
                human(msg),
                msg.div_ceil(block)
            ),
            "subgroup size",
            vec![
                "sequential (SMC)".into(),
                "binomial pipeline".into(),
                "chain".into(),
                "binomial tree".into(),
            ],
        );
        for &n in &sizes {
            let r = Rdmc::new(n, msg, block).expect("valid rdmc problem");
            let series: Vec<Point> = [
                ScheduleKind::SequentialSend,
                ScheduleKind::BinomialPipeline,
                ScheduleKind::ChainSend,
                ScheduleKind::BinomialTree,
            ]
            .iter()
            .map(|&kind| deterministic(r.bandwidth(&r.schedule(kind), &net) / 1e9))
            .collect();
            t.row(n as f64, series);
        }
        t.emit(opts);
    }

    // Where does the pipeline overtake sequential send? Scan finely.
    let mut t = Table::new(
        "rdmc_crossover",
        "smallest subgroup size where RDMC's pipeline beats sequential send",
        "message KB",
        vec!["crossover n".into()],
    );
    for msg in [4 << 10, 10 << 10, 100 << 10, 1 << 20, 10 << 20_usize] {
        let block = (msg / 16).clamp(4 << 10, 1 << 20);
        let cross = (2..=64)
            .find(|&n| {
                let r = Rdmc::new(n, msg, block).expect("valid rdmc problem");
                r.bandwidth(&r.schedule(ScheduleKind::BinomialPipeline), &net)
                    > r.bandwidth(&r.schedule(ScheduleKind::SequentialSend), &net)
            })
            .unwrap_or(0);
        t.row((msg >> 10) as f64, vec![deterministic(cross as f64)]);
    }
    t.emit(opts);
}

/// Human-readable size for table titles.
fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

/// Membership-operation latency on the threaded runtime (extension): how
/// long the §2.1 epoch transition takes end to end — failure detection,
/// removal (wedge + ragged trim + reinstall + resend), and join — as the
/// group grows. Wall-clock, so absolute numbers depend on the host; the
/// claim to check is that all three stay in the low milliseconds and grow
/// mildly with group size.
fn membership(opts: &Opts) {
    use spindle_core::detector::DetectorConfig;
    use spindle_core::Cluster;
    use spindle_membership::SubgroupId;
    use std::time::{Duration, Instant};

    let sizes = if opts.full {
        vec![3usize, 4, 6, 8, 12, 16]
    } else {
        vec![3usize, 6, 10]
    };
    let det = DetectorConfig {
        heartbeat_interval: Duration::from_millis(1),
        timeout: Duration::from_millis(50),
    };
    let mut t = Table::new(
        "membership",
        "membership ops on the threaded runtime (ms; detector timeout 50 ms)",
        "group size",
        vec![
            "detect (ms)".into(),
            "remove (ms)".into(),
            "join (ms)".into(),
        ],
    );
    for &n in &sizes {
        let mut detect = spindle_sim::stats::Summary::new();
        let mut remove = spindle_sim::stats::Summary::new();
        let mut join = spindle_sim::stats::Summary::new();
        for _ in 0..opts.runs {
            let members: Vec<usize> = (0..n).collect();
            let view = spindle_membership::ViewBuilder::new(n)
                .subgroup(&members, &members, 16, 1024)
                .build()
                .unwrap();
            let mut cluster =
                Cluster::start_with_detector(view, SpindleConfig::optimized(), det.clone());
            // Background traffic so the transition has real state to trim.
            for i in 0..20u32 {
                cluster
                    .node(0)
                    .send(SubgroupId(0), &i.to_le_bytes())
                    .unwrap();
            }
            std::thread::sleep(Duration::from_millis(10)); // heartbeats flowing

            let t0 = Instant::now();
            cluster.kill(n - 1);
            let s = cluster
                .suspicions()
                .recv_timeout(Duration::from_secs(10))
                .expect("suspicion");
            detect.record(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            cluster.remove_node(s.suspect).unwrap();
            remove.record(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            cluster
                .admit(spindle_core::AdmitRequest::in_process(&[(
                    SubgroupId(0),
                    true,
                )]))
                .unwrap();
            join.record(t0.elapsed().as_secs_f64() * 1e3);
            cluster.shutdown();
        }
        let p = |s: &spindle_sim::stats::Summary| Point {
            mean: s.mean(),
            sd: s.stddev(),
        };
        t.row(n as f64, vec![p(&detect), p(&remove), p(&join)]);
    }
    t.emit(opts);
    println!(
        "(detection ~= detector timeout + one heartbeat; removal and join are\n the full wedge -> trim -> reinstall -> resend transition)\n"
    );
}

/// Durable-mode overhead on the threaded runtime (extension; paper
/// footnote 2): delivered throughput of a small group with persistence
/// off, on without fsync, and on with fsync-per-batch.
fn durability(opts: &Opts) {
    use spindle_core::threaded::PersistConfig;
    use spindle_core::Cluster;
    use spindle_membership::SubgroupId;
    use std::time::{Duration, Instant};

    let n = 3;
    let msgs: u32 = if opts.full { 2_000 } else { 500 };
    let size = 10 * 1024;
    let mut t = Table::new(
        "durability",
        format!("persistent multicast cost, n={n}, {msgs} x 10KB per sender (GB/s)"),
        "mode",
        vec!["delivered GB/s".into()],
    );
    let run = |persist: Option<PersistConfig>| -> f64 {
        let members: Vec<usize> = (0..n).collect();
        let view = spindle_membership::ViewBuilder::new(n)
            .subgroup(&members, &members, 64, size)
            .build()
            .unwrap();
        let cluster = match persist {
            None => Cluster::start(view, SpindleConfig::optimized()),
            Some(pc) => Cluster::start_persistent(view, SpindleConfig::optimized(), pc),
        };
        let payload = vec![0xABu8; size];
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for node in 0..n {
                let h = cluster.node(node);
                let p = &payload;
                s.spawn(move || {
                    for _ in 0..msgs {
                        h.send(SubgroupId(0), p).unwrap();
                    }
                });
            }
            for node in 0..n {
                for _ in 0..(n as u32 * msgs) {
                    cluster
                        .node(node)
                        .recv_timeout(Duration::from_secs(60))
                        .expect("delivery");
                }
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let bytes = (n as u64 * msgs as u64 * size as u64) as f64;
        cluster.shutdown();
        bytes / secs / 1e9
    };
    let dir = |tag: &str| {
        let d = std::env::temp_dir().join(format!(
            "spindle-fig-durability-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    for (i, (label, persist)) in [
        ("off", None),
        (
            "log, no fsync",
            Some(PersistConfig::with_options(
                spindle_persist::PersistOptions::new(dir("nofsync"))
                    .sync_policy(spindle_persist::SyncPolicy::Never),
            )),
        ),
        ("log + fsync", Some(PersistConfig::new(dir("fsync")))),
    ]
    .into_iter()
    .enumerate()
    {
        let mut s = spindle_sim::stats::Summary::new();
        for _ in 0..opts.runs {
            s.record(run(persist.clone()));
        }
        println!("  mode {i}: {label}");
        t.row(
            i as f64,
            vec![Point {
                mean: s.mean(),
                sd: s.stddev(),
            }],
        );
    }
    t.emit(opts);
    let _ = std::fs::remove_dir_all(dir("nofsync"));
    let _ = std::fs::remove_dir_all(dir("fsync"));
}
