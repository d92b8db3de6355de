//! The zero-to-cluster proof: three real OS processes, each hosting one
//! node of the view, multicast over loopback TCP and every process's
//! delivery trace satisfies the harness's protocol oracles (total order,
//! per-sender FIFO, no duplicates, completeness of acknowledged sends).
//!
//! The test spawns the `spindle-node` binary three times against a shared
//! TOML config with a pinned seed, waits for all of them, parses the
//! per-process trace files, and hands the streams to
//! `spindle_harness::oracle::check_threaded` — the same oracles the
//! in-process fault scenarios are checked with. On any failure it prints
//! every node's stderr and trace so CI shows exactly what each process
//! saw.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};
use std::time::Duration;

use common::{free_loopback_ports, parse_trace, payload, render_failure, wait_all, NodeProc};
use spindle_core::threaded::Delivered;
use spindle_harness::oracle::{check_threaded, EpochMembers};

const NODES: usize = 3;
const SENDS: u32 = 30;
const PAYLOAD: usize = 24;
const SEED: u64 = 42;

fn spawn_cluster(dir: &std::path::Path) -> Vec<NodeProc> {
    let ports = free_loopback_ports(NODES);
    let addrs: Vec<String> = ports.iter().map(|p| format!("\"127.0.0.1:{p}\"")).collect();
    let config = format!(
        "# written by multi_process.rs\nnodes = [{}]\nwindow = 16\nmax_msg = 64\n",
        addrs.join(", ")
    );
    let config_path = dir.join("cluster.toml");
    std::fs::write(&config_path, config).expect("write config");

    (0..NODES)
        .map(|node| {
            let trace_path = dir.join(format!("trace-n{node}.txt"));
            let child = Command::new(env!("CARGO_BIN_EXE_spindle-node"))
                .arg("--config")
                .arg(&config_path)
                .args(["--node", &node.to_string()])
                .args(["--sends", &SENDS.to_string()])
                .args(["--payload", &PAYLOAD.to_string()])
                .args(["--seed", &SEED.to_string()])
                .args(["--deadline-secs", "60"])
                .args(["--linger-ms", "1200"])
                .arg("--trace-out")
                .arg(&trace_path)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn spindle-node");
            NodeProc { child, trace_path }
        })
        .collect()
}

#[test]
fn three_process_loopback_cluster_satisfies_oracles() {
    let dir = std::env::temp_dir().join(format!("spindle-net-mp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // The bind-then-release port handoff can collide; retry once.
    let mut last_failure = String::new();
    for attempt in 0..2 {
        let mut procs = spawn_cluster(&dir);
        let results = wait_all(&mut procs, Duration::from_secs(90));
        if results.iter().all(|(ok, _, _)| *ok) {
            check_traces(&procs);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last_failure = format!(
            "attempt {attempt}:\n{}",
            render_failure(&results, &procs, |_| "member")
        );
        eprintln!("{last_failure}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    panic!("3-process loopback cluster failed twice:\n{last_failure}");
}

fn check_traces(procs: &[NodeProc]) {
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for (node, p) in procs.iter().enumerate() {
        let text = std::fs::read_to_string(&p.trace_path).expect("trace file");
        let stream = parse_trace(&text);
        assert_eq!(
            stream.len(),
            NODES * SENDS as usize,
            "node {node} trace is incomplete"
        );
        streams.insert(node, stream);
    }

    let survivors: BTreeSet<usize> = (0..NODES).collect();
    let mut epochs = EpochMembers::new();
    epochs.insert(0, vec![(0..NODES).collect()]);
    let mut acked: BTreeMap<(usize, usize), Vec<Vec<u8>>> = BTreeMap::new();
    for node in 0..NODES {
        let payloads = (0..SENDS)
            .map(|c| payload(node, c, PAYLOAD, SEED))
            .collect();
        acked.insert((node, 0), payloads);
    }

    let checks = check_threaded(&streams, &survivors, &epochs, &acked, true);
    for c in &checks {
        assert!(
            c.passed,
            "oracle {} failed on the 3-process run: {}",
            c.name, c.detail
        );
    }
    // Belt and braces: the three totally ordered streams are identical.
    let base: Vec<_> = streams[&0]
        .iter()
        .map(|d| (d.sender_rank, d.app_index))
        .collect();
    for node in 1..NODES {
        let this: Vec<_> = streams[&node]
            .iter()
            .map(|d| (d.sender_rank, d.app_index))
            .collect();
        assert_eq!(base, this, "node {node} delivered a different order");
    }
}
