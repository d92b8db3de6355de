//! The failover acceptance test: three real OS processes form a loopback
//! TCP cluster with SST failure detection on, one process is killed
//! mid-traffic (`--crash-after-delivered` aborts it, sockets dying
//! mid-stream), and the two survivors must reconfigure **by themselves**:
//! their detectors suspect the silent peer, the per-node view-change
//! engines converge through the SST (wedge → proposal → ragged trim →
//! acks), each process installs the next view in place (fresh mirror,
//! fresh sockets, `HELLO` at epoch 1), and acknowledged survivor traffic
//! keeps flowing — all verified against the harness's protocol oracles
//! plus a byte-level comparison of the survivors' delivery streams.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{free_loopback_ports, parse_trace, payload, scrape, wait_all, NodeProc, ProcResult};
use spindle_core::threaded::Delivered;
use spindle_harness::oracle::{check_threaded, EpochMembers};

const NODES: usize = 3;
const SENDS: u32 = 30;
const PAYLOAD: usize = 24;
const SEED: u64 = 4242;
const VICTIM: usize = 2;

/// Watches survivor 0's `/metrics` until the failover shows up in the
/// per-epoch families: a `spindle_delivered_total` series labeled
/// `epoch="1"` and a non-zero `spindle_view_changes_total`. Returns
/// `None` on success.
fn check_failover_metrics(metrics_port: u16) -> Option<String> {
    let addr = format!("127.0.0.1:{metrics_port}");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = String::new();
    while Instant::now() < deadline {
        if let Some(body) = scrape(&addr, "/metrics") {
            let epoch1 = body
                .lines()
                .any(|l| l.starts_with("spindle_delivered_total{") && l.contains("epoch=\"1\""));
            let vc = body
                .lines()
                .any(|l| l.starts_with("spindle_view_changes_total") && !l.ends_with(" 0"));
            if epoch1 && vc {
                return None;
            }
            last = body;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Some(format!(
        "no epoch-1 delivery series / view-change count appeared in /metrics; last scrape:\n{last}"
    ))
}

fn spawn_cluster(dir: &std::path::Path) -> (Vec<NodeProc>, u16) {
    let mut ports = free_loopback_ports(NODES + 1);
    let metrics_port = ports.pop().expect("metrics port");
    let addrs: Vec<String> = ports.iter().map(|p| format!("\"127.0.0.1:{p}\"")).collect();
    // Heartbeats on: every process runs the SST detector and drives the
    // view-change engine itself.
    let config = format!(
        "# written by crash_failover.rs\nnodes = [{}]\nwindow = 16\nmax_msg = 64\n\
         heartbeat_ms = 4\nsuspect_ms = 400\n",
        addrs.join(", ")
    );
    let config_path = dir.join("cluster.toml");
    std::fs::write(&config_path, config).expect("write config");

    let procs = (0..NODES)
        .map(|node| {
            let trace_path = dir.join(format!("trace-n{node}.txt"));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_spindle-node"));
            if node == 0 {
                // Survivor 0 serves the live observability plane; the
                // test watches the failover arrive in its /metrics.
                cmd.args(["--metrics-addr", &format!("127.0.0.1:{metrics_port}")]);
            }
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
                // The victim aborts mid-traffic: no cleanup, sockets die.
                cmd.args(["--crash-after-delivered", "15"]);
            } else {
                // Survivors finish only after installing epoch 1 and
                // seeing every own send delivered back.
                cmd.args(["--min-epoch", "1"]).args(["--quiesce-ms", "900"]);
            }
            let child = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn spindle-node");
            NodeProc { child, trace_path }
        })
        .collect();
    (procs, metrics_port)
}

fn render_failure(results: &[ProcResult], procs: &[NodeProc]) -> String {
    common::render_failure(results, procs, |node| match node {
        VICTIM => "victim",
        _ => "survivor",
    })
}

#[test]
fn survivors_reconfigure_after_killing_one_process() {
    let dir = std::env::temp_dir().join(format!("spindle-net-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // The bind-then-release port handoff can collide; retry once.
    let mut last_failure = String::new();
    for attempt in 0..2 {
        let (mut procs, metrics_port) = spawn_cluster(&dir);
        // Watch the failover arrive in the live per-epoch families while
        // the survivors reconfigure.
        let metrics_violation = check_failover_metrics(metrics_port);
        let results = wait_all(&mut procs, Duration::from_secs(120));
        let survivors_ok = results
            .iter()
            .enumerate()
            .all(|(n, (ok, _, _))| n == VICTIM || *ok);
        let victim_died = !results[VICTIM].0;
        if survivors_ok && victim_died && metrics_violation.is_none() {
            check_run(&procs, &results);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last_failure = format!(
            "attempt {attempt}: failover-metrics: {}\n{}",
            metrics_violation.as_deref().unwrap_or("ok"),
            render_failure(&results, &procs)
        );
        eprintln!("{last_failure}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    panic!("crash-failover cluster failed twice:\n{last_failure}");
}

fn check_run(procs: &[NodeProc], results: &[ProcResult]) {
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for (node, p) in procs.iter().enumerate() {
        if node == VICTIM {
            continue; // the victim aborted; its trace was never written
        }
        let text = std::fs::read_to_string(&p.trace_path).expect("survivor trace file");
        streams.insert(node, parse_trace(&text));
    }

    // Epoch history: the full mesh in epoch 0, survivors only in epoch 1.
    let survivors: BTreeSet<usize> = (0..NODES).filter(|&n| n != VICTIM).collect();
    let mut epochs = EpochMembers::new();
    epochs.insert(0, vec![(0..NODES).collect()]);
    epochs.insert(1, vec![survivors.iter().copied().collect()]);

    // Completeness covers the surviving senders; the victim's tail is
    // legitimately lost at the cut (its delivered prefix is checked by
    // atomicity/prefix instead).
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
            "oracle {} failed on the crash-failover run: {}\n{}",
            c.name,
            c.detail,
            render_failure(results, procs)
        );
    }

    // Byte-level agreement: the survivors delivered the identical stream
    // (same old-epoch prefix through the cut, same new-epoch order).
    let a = &streams[&0];
    let b = &streams[&1];
    assert_eq!(a, b, "survivors delivered different streams");
    // The transition really happened, and traffic flowed after it.
    assert!(
        a.iter().any(|d| d.epoch == 1),
        "no epoch-1 deliveries: the view change never completed"
    );
    // Every survivor's stdout reports the installed view change and its
    // wedge→install duration.
    for &node in &survivors {
        let stdout = &results[node].1;
        assert!(
            stdout.contains("view-changes: 1 in"),
            "node {node} did not report its view change:\n{stdout}"
        );
    }
}
