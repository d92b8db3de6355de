//! The cascaded-failure acceptance test: **five** real OS processes form
//! a loopback TCP cluster with SST failure detection on, and **two** of
//! them die — one silently mid-traffic (`--crash-after-delivered`), and
//! then the *view-change leader itself*, mid-wedge, via the
//! `SPINDLE_VC_CRASH_AT=wedge` fault injection (its engine aborts the
//! process right after posting its wedge flag, before any proposal
//! exists). The three survivors must run the §2.1 handoff by
//! themselves: their per-node detectors convict the silent leader, the
//! next-lowest unsuspected survivor becomes the proposer, finds no
//! proposer-tagged ack to adopt, re-proposes a fresh trim naming *both*
//! corpses, and one agreed view installs — well under the 60-second
//! view-change deadline, verified against the harness's protocol
//! oracles plus a byte-level comparison of the survivors' streams and
//! the reported wedge→install duration.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};
use std::time::Duration;

use common::{free_loopback_ports, parse_trace, payload, wait_all, NodeProc, ProcResult};
use spindle_core::threaded::Delivered;
use spindle_harness::oracle::{check_threaded, EpochMembers};

const NODES: usize = 5;
const SENDS: u32 = 30;
const PAYLOAD: usize = 24;
const SEED: u64 = 31337;
/// The initial view-change leader (lowest row): killed at the wedge
/// boundary of the transition that removes `VICTIM`.
const LEADER: usize = 0;
/// The first casualty: a silent abort mid-traffic that *triggers* the
/// transition the leader then dies inside of.
const VICTIM: usize = 4;

fn spawn_cluster(dir: &std::path::Path) -> Vec<NodeProc> {
    let ports = free_loopback_ports(NODES);
    let addrs: Vec<String> = ports.iter().map(|p| format!("\"127.0.0.1:{p}\"")).collect();
    // Heartbeats on: every process runs the SST detector and drives the
    // view-change engine itself — including inside a transition, which
    // is where the leader's death must be noticed.
    let config = format!(
        "# written by cascade_failover.rs\nnodes = [{}]\nwindow = 16\nmax_msg = 64\n\
         heartbeat_ms = 4\nsuspect_ms = 400\n",
        addrs.join(", ")
    );
    let config_path = dir.join("cluster.toml");
    std::fs::write(&config_path, config).expect("write config");

    (0..NODES)
        .map(|node| {
            let trace_path = dir.join(format!("trace-n{node}.txt"));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_spindle-node"));
            cmd.arg("--config")
                .arg(&config_path)
                .args(["--node", &node.to_string()])
                .args(["--sends", &SENDS.to_string()])
                .args(["--payload", &PAYLOAD.to_string()])
                .args(["--seed", &SEED.to_string()])
                .args(["--deadline-secs", "90"])
                .args(["--linger-ms", "1500"])
                .arg("--trace-out")
                .arg(&trace_path);
            if node == VICTIM {
                // The first casualty aborts mid-traffic: no cleanup,
                // sockets die, the detectors start the transition.
                cmd.args(["--crash-after-delivered", "15"]);
            } else if node == LEADER {
                // The leader's view-change engine is armed to abort the
                // whole process right after posting its wedge flag —
                // before it proposes anything.
                cmd.env("SPINDLE_VC_CRASH_AT", "wedge");
            } else {
                // Survivors finish only after installing the agreed
                // takeover view and seeing every own send delivered back.
                cmd.args(["--min-epoch", "1"]).args(["--quiesce-ms", "900"]);
            }
            let child = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn spindle-node");
            NodeProc { child, trace_path }
        })
        .collect()
}

fn role(node: usize) -> &'static str {
    match node {
        LEADER => "leader, killed mid-wedge",
        VICTIM => "victim, killed mid-traffic",
        _ => "survivor",
    }
}

fn render_failure(results: &[ProcResult], procs: &[NodeProc]) -> String {
    common::render_failure(results, procs, role)
}

#[test]
fn survivors_take_over_after_killing_two_processes_including_the_leader() {
    let dir = std::env::temp_dir().join(format!("spindle-net-cascade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // The bind-then-release port handoff can collide; retry once.
    let mut last_failure = String::new();
    for attempt in 0..2 {
        let mut procs = spawn_cluster(&dir);
        let results = wait_all(&mut procs, Duration::from_secs(120));
        let survivors_ok = results
            .iter()
            .enumerate()
            .all(|(n, (ok, _, _))| n == VICTIM || n == LEADER || *ok);
        let casualties_died = !results[VICTIM].0 && !results[LEADER].0;
        if survivors_ok && casualties_died {
            check_run(&procs, &results);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last_failure = format!("attempt {attempt}:\n{}", render_failure(&results, &procs));
        eprintln!("{last_failure}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    panic!("cascade-failover cluster failed twice:\n{last_failure}");
}

fn check_run(procs: &[NodeProc], results: &[ProcResult]) {
    let survivors: BTreeSet<usize> = (0..NODES).filter(|&n| n != VICTIM && n != LEADER).collect();
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for (node, p) in procs.iter().enumerate() {
        if !survivors.contains(&node) {
            continue; // the casualties aborted; their traces never flushed
        }
        let text = std::fs::read_to_string(&p.trace_path).expect("survivor trace file");
        streams.insert(node, parse_trace(&text));
    }

    // Epoch history: the full mesh in epoch 0, then ONE agreed takeover
    // view naming both corpses — the leader died pre-proposal, so the
    // takeover proposer (next-lowest unsuspected survivor) re-proposed a
    // fresh trim; there is no intermediate epoch.
    let mut epochs = EpochMembers::new();
    epochs.insert(0, vec![(0..NODES).collect()]);
    epochs.insert(1, vec![survivors.iter().copied().collect()]);

    // Completeness covers the surviving senders; the casualties' tails
    // are legitimately lost at the cut (their delivered prefixes are
    // checked by atomicity/prefix instead).
    let mut acked: BTreeMap<(usize, usize), Vec<Vec<u8>>> = BTreeMap::new();
    for &node in &survivors {
        let payloads = (0..SENDS)
            .map(|c| payload(node, c, PAYLOAD, SEED))
            .collect();
        acked.insert((node, 0), payloads);
    }

    let checks = check_threaded(&streams, &survivors, &epochs, &acked, true);
    for c in &checks {
        assert!(
            c.passed,
            "oracle {} failed on the cascade-failover run: {}\n{}",
            c.name,
            c.detail,
            render_failure(results, procs)
        );
    }

    // Byte-level agreement: every survivor delivered the identical
    // stream (same old-epoch prefix through the cut, same takeover-epoch
    // order).
    let mut it = survivors.iter();
    let first = *it.next().expect("non-empty survivor set");
    for &other in it {
        assert_eq!(
            streams[&first], streams[&other],
            "survivors {first} and {other} delivered different streams"
        );
    }
    // The takeover really happened, and traffic flowed after it.
    assert!(
        streams[&first].iter().any(|d| d.epoch == 1),
        "no takeover-epoch deliveries: the handoff never completed"
    );

    // Every survivor's stdout reports exactly one installed view change
    // — the leaderless wedge resolved into a single agreed view — and
    // its wedge→install duration stayed far under the 60 s view-change
    // deadline the pre-handoff engine would have burned through.
    for &node in &survivors {
        let stdout = &results[node].1;
        let tail = stdout
            .split("view-changes: 1 in ")
            .nth(1)
            .unwrap_or_else(|| {
                panic!("node {node} did not report a single view change:\n{stdout}")
            });
        let micros: u64 = tail
            .split_whitespace()
            .next()
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("node {node} malformed view-change report:\n{stdout}"));
        assert!(
            micros < 60_000_000,
            "node {node} wedge→install took {micros} us (the 60 s deadline)"
        );
        println!("n{node} wedge->install: {micros} us");
    }
}
