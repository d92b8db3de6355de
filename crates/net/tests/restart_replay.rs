//! The restart-replay acceptance test — the paper's persistent mode
//! (§2 footnote: Derecho's durable variant logs every delivery) driven
//! end to end through real OS processes: three `spindle-node` processes
//! form a loopback TCP cluster with persistence on (`data_dir` in the
//! cluster file), one process is killed mid-traffic
//! (`--crash-after-delivered` aborts it — no flush, no goodbye), the
//! survivors reconfigure around it, and then the **same node comes
//! back**: a new process restarts with the dead incarnation's
//! `--data-dir`, replays its durable log (torn tail truncated, CRCs
//! checked), and rejoins through `--join` — receiving a **non-empty**
//! durable-log tail in the state-transfer snapshot from its sponsor.
//!
//! Verified against the harness protocol oracles plus the restart
//! contract: the replayed history (written via `--replay-out` in the
//! delivery-trace format) must be a bit-identical prefix of the
//! survivors' delivery stream.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{
    free_loopback_ports, parse_trace, payload, render_proc, wait_all, NodeProc, ProcResult,
};
use spindle_core::threaded::Delivered;
use spindle_harness::oracle::{check_threaded, EpochMembers};

const NODES: usize = 3;
const SENDS: u32 = 30;
const REJOIN_SENDS: u32 = 12;
const PAYLOAD: usize = 24;
const SEED: u64 = 91;
/// The rejoined incarnation sends under a different seed, so its
/// payloads can never collide byte-for-byte with the dead incarnation's
/// (which would trip the duplicate-delivery oracle on a legitimate run),
/// whatever row the sponsor assigns it.
const REJOIN_SEED: u64 = 92;

/// Parses the first unsigned integer immediately following `marker`.
fn stderr_u64(text: &str, marker: &str) -> Option<u64> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

struct RunOutput {
    /// The founder that was killed and restarted.
    victim: usize,
    /// Founder results by row (victim's slot holds its aborted output).
    founders: Vec<ProcResult>,
    /// The restarted incarnation's (ok, stdout, stderr).
    rejoin: ProcResult,
    founder_traces: Vec<PathBuf>,
    rejoin_trace: PathBuf,
    replay_out: PathBuf,
}

/// Runs the cluster, killing founder `victim` mid-traffic and restarting
/// it through founder `sponsor`'s listener.
fn run_cluster(dir: &std::path::Path, victim: usize, sponsor: usize) -> RunOutput {
    let ports = free_loopback_ports(NODES);
    let addrs: Vec<String> = ports.iter().map(|p| format!("\"127.0.0.1:{p}\"")).collect();
    let data_base = dir.join("data");
    // Persistence via the cluster file: every founder resolves the
    // data_dir base to its own per-row directory. Heartbeats on, so the
    // survivors remove the killed process by themselves.
    let config = format!(
        "# written by restart_replay.rs\nnodes = [{}]\nwindow = 16\nmax_msg = 64\n\
         heartbeat_ms = 4\nsuspect_ms = 400\ndata_dir = \"{}\"\nsync_policy = \"every-n=4\"\n",
        addrs.join(", "),
        data_base.display()
    );
    let config_path = dir.join("cluster.toml");
    std::fs::write(&config_path, config).expect("write config");

    let mut procs: Vec<NodeProc> = (0..NODES)
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
            if node == victim {
                // The victim aborts mid-traffic: durable log unsynced
                // past the last fsync window, sockets die, no cleanup.
                cmd.args(["--crash-after-delivered", "15"]);
            } else {
                // Survivors finish only after both the removal and the
                // rejoin installed (the removal occasionally consumes two
                // epochs, so the floor alone is not the finish line — the
                // long quiesce keeps a sponsor alive through the joiner's
                // Refused(Stalled) retry backoff).
                cmd.args(["--min-epoch", "2"])
                    .args(["--quiesce-ms", "2500"]);
            }
            let child = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn spindle-node");
            NodeProc { child, trace_path }
        })
        .collect();

    // Phase 1: wait for the victim's abort, then give the survivors'
    // detectors a beat to suspect it (suspect_ms = 400). The rejoiner
    // dials while the removal may still be in flight — its join is
    // refused (`Stalled`) and retried until the survivors unwedge.
    let end = Instant::now() + Duration::from_secs(60);
    while procs[victim].child.try_wait().ok().flatten().is_none() && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(600));

    // Phase 2: the same node comes back. A fresh process restarts with
    // the dead incarnation's data directory, replays it, and rejoins
    // through the sponsor's listener.
    let rejoin_trace = dir.join(format!("trace-n{victim}-rejoin.txt"));
    let replay_out = dir.join(format!("replay-n{victim}.txt"));
    let rejoin = Command::new(env!("CARGO_BIN_EXE_spindle-node"))
        .arg("--config")
        .arg(&config_path)
        .args(["--join", &format!("127.0.0.1:{}", ports[sponsor])])
        .arg("--data-dir")
        .arg(data_base.join(format!("n{victim}")))
        .arg("--replay-out")
        .arg(&replay_out)
        .args(["--sends", &REJOIN_SENDS.to_string()])
        .args(["--payload", &PAYLOAD.to_string()])
        .args(["--seed", &REJOIN_SEED.to_string()])
        .args(["--deadline-secs", "90"])
        .args(["--linger-ms", "1500"])
        .args(["--quiesce-ms", "900"])
        .arg("--trace-out")
        .arg(&rejoin_trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn restarted spindle-node");
    let mut rejoin_proc = [NodeProc {
        child: rejoin,
        trace_path: rejoin_trace.clone(),
    }];

    let founders = wait_all(&mut procs, Duration::from_secs(120));
    let rejoin = wait_all(&mut rejoin_proc, Duration::from_secs(30)).remove(0);
    RunOutput {
        victim,
        founders,
        rejoin,
        founder_traces: procs.iter().map(|p| p.trace_path.clone()).collect(),
        rejoin_trace,
        replay_out,
    }
}

fn render_failure(run: &RunOutput) -> String {
    let mut out = String::new();
    for (node, result) in run.founders.iter().enumerate() {
        let role = if node == run.victim {
            "victim"
        } else {
            "survivor"
        };
        let name = format!("node {node}");
        out.push_str(&render_proc(&name, role, result, &run.founder_traces[node]));
    }
    out.push_str(&render_proc(
        "restarted node",
        "rejoin",
        &run.rejoin,
        &run.rejoin_trace,
    ));
    if let Ok(replay) = std::fs::read_to_string(&run.replay_out) {
        out.push_str(&format!(
            "replay ({} records):\n{replay}\n",
            replay.lines().count()
        ));
    }
    out
}

#[test]
fn killed_node_restarts_from_its_durable_log_and_rejoins() {
    restart_and_rejoin(2, 0);
}

/// The victim is the view-change leader: the survivors remove it on their
/// own, so the restarted node's sponsor must judge leadership on the epoch
/// its rows installed — a sponsor still naming the dead row would redirect
/// the joiner to it forever.
#[test]
fn killed_leader_restarts_and_rejoins_through_a_survivor() {
    restart_and_rejoin(0, 1);
}

fn restart_and_rejoin(victim: usize, sponsor: usize) {
    // The bind-then-release port handoff can collide; retry once. Each
    // attempt gets a fresh directory — a stale durable log from a failed
    // attempt must not leak into the next one's replay.
    let mut last_failure = String::new();
    for attempt in 0..2 {
        let dir = std::env::temp_dir().join(format!(
            "spindle-net-restart-{}-{victim}-{attempt}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let run = run_cluster(&dir, victim, sponsor);
        let survivors_ok = run
            .founders
            .iter()
            .enumerate()
            .all(|(n, (ok, _, _))| n == victim || *ok);
        let victim_died = !run.founders[victim].0;
        if survivors_ok && victim_died && run.rejoin.0 {
            check_run(&run, victim, sponsor);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last_failure = format!("attempt {attempt}:\n{}", render_failure(&run));
        eprintln!("{last_failure}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    panic!("restart-replay cluster failed twice:\n{last_failure}");
}

fn check_run(run: &RunOutput, victim: usize, sponsor: usize) {
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for node in 0..NODES {
        if node == victim {
            continue; // the first incarnation aborted; no trace written
        }
        let text = std::fs::read_to_string(&run.founder_traces[node]).expect("survivor trace");
        streams.insert(node, parse_trace(&text));
    }
    // The rejoiner's banner names both the row it came back as and the
    // epoch it entered at — neither is a constant. Row ids are stable
    // across removals, so a restarted node is admitted as a *fresh* row
    // (the dead incarnation's row stays retired), and a removal under
    // load occasionally burns an extra epoch on a failed transition
    // before the survivors converge.
    let rejoin_err = &run.rejoin.2;
    let rejoin_row = stderr_u64(rejoin_err, "joined as n")
        .unwrap_or_else(|| panic!("no join banner in rejoin stderr:\n{rejoin_err}"))
        as usize;
    let join_epoch = stderr_u64(rejoin_err, " at epoch ")
        .unwrap_or_else(|| panic!("no join epoch in rejoin stderr:\n{rejoin_err}"));
    assert!(
        join_epoch >= 2,
        "rejoin landed before the removal installed"
    );
    assert!(
        rejoin_row >= NODES,
        "restart was admitted as founding row {rejoin_row}, not a fresh one"
    );
    let rejoin_stream = parse_trace(&std::fs::read_to_string(&run.rejoin_trace).expect("trace"));
    streams.insert(rejoin_row, rejoin_stream);

    // Epoch history: full mesh in epoch 0, survivors alone between the
    // removal and the rejoin, the restarted node's new row from the join
    // epoch on.
    let founders: BTreeSet<usize> = (0..NODES).collect();
    let survivors: BTreeSet<usize> = (0..NODES).filter(|&n| n != victim).collect();
    let mut with_rejoiner = survivors.clone();
    with_rejoiner.insert(rejoin_row);
    let max_epoch = streams
        .values()
        .flat_map(|s| s.iter().map(|d| d.epoch))
        .max()
        .unwrap_or(0);
    let mut epochs = EpochMembers::new();
    epochs.insert(0, vec![founders.iter().copied().collect()]);
    for e in 1..join_epoch {
        epochs.insert(e, vec![survivors.iter().copied().collect()]);
    }
    for e in join_epoch..=max_epoch.max(join_epoch) {
        epochs.insert(e, vec![with_rejoiner.iter().copied().collect()]);
    }

    // Completeness: the survivors' sends and the restarted incarnation's
    // sends are acked; the dead incarnation's tail is legitimately lost
    // at the cut (atomicity/prefix oracles cover its delivered prefix).
    let mut acked: BTreeMap<(usize, usize), Vec<Vec<u8>>> = BTreeMap::new();
    for &node in &survivors {
        let payloads = (0..SENDS)
            .map(|c| payload(node, c, PAYLOAD, SEED))
            .collect();
        acked.insert((node, 0), payloads);
    }
    acked.insert(
        (rejoin_row, 0),
        (0..REJOIN_SENDS)
            .map(|c| payload(rejoin_row, c, PAYLOAD, REJOIN_SEED))
            .collect(),
    );

    let checks = check_threaded(&streams, &with_rejoiner, &epochs, &acked, true);
    for c in &checks {
        assert!(
            c.passed,
            "oracle {} failed on the restart-replay run: {}\n{}",
            c.name,
            c.detail,
            render_failure(run)
        );
    }

    // The restart really replayed durable history before rejoining.
    let replayed = stderr_u64(rejoin_err, "spindle-node: replayed ")
        .unwrap_or_else(|| panic!("no replay banner in rejoin stderr:\n{rejoin_err}"));
    assert!(
        replayed > 0,
        "restart replayed an empty durable log\n{}",
        render_failure(run)
    );
    // The state-transfer snapshot shipped a NON-EMPTY durable-log tail
    // from the sponsor, and the catch-up stream itself carried bytes.
    let catchup_bytes = stderr_u64(rejoin_err, "catch-up ")
        .unwrap_or_else(|| panic!("no catch-up line in rejoin stderr:\n{rejoin_err}"));
    let tail_records = stderr_u64(rejoin_err, "B: ")
        .unwrap_or_else(|| panic!("no snapshot record count in rejoin stderr:\n{rejoin_err}"));
    assert!(
        catchup_bytes > 0,
        "rejoin catch-up carried no bytes\n{}",
        render_failure(run)
    );
    assert!(
        tail_records > 0,
        "sponsor shipped an empty durable-log tail in the snapshot\n{}",
        render_failure(run)
    );

    // The restart contract: the replayed history is bit-identical to the
    // survivors' delivery stream — the replay written by --replay-out is
    // exactly the first `replayed` lines of the sponsor's trace (single
    // subgroup: log order and delivery order coincide).
    let replay_text = std::fs::read_to_string(&run.replay_out).expect("replay-out file");
    let survivor_text =
        std::fs::read_to_string(&run.founder_traces[sponsor]).expect("survivor trace");
    let replay_lines: Vec<&str> = replay_text.lines().collect();
    let survivor_lines: Vec<&str> = survivor_text.lines().collect();
    assert_eq!(replay_lines.len() as u64, replayed);
    assert!(
        replay_lines.len() <= survivor_lines.len(),
        "replay is longer than the survivor's delivery stream\n{}",
        render_failure(run)
    );
    assert_eq!(
        replay_lines,
        &survivor_lines[..replay_lines.len()],
        "replayed history diverges from the survivors' delivery stream\n{}",
        render_failure(run)
    );

    // Join-epoch agreement, byte for byte, across all three processes —
    // the restarted row is a full citizen of the new epoch.
    let from_join = |node: usize| -> Vec<&Delivered> {
        streams[&node]
            .iter()
            .filter(|d| d.epoch >= join_epoch)
            .collect()
    };
    let base = from_join(sponsor);
    assert!(
        !base.is_empty(),
        "no post-join deliveries: the rejoin never carried traffic\n{}",
        render_failure(run)
    );
    for &node in streams.keys().filter(|&&n| n != sponsor) {
        assert_eq!(
            base,
            from_join(node),
            "node {node} delivered a different post-join stream\n{}",
            render_failure(run)
        );
    }

    // Every survivor installed (at least) the removal and the rejoin.
    for &node in &survivors {
        let stdout = &run.founders[node].1;
        let vc = stderr_u64(stdout, "view-changes: ").unwrap_or(0);
        assert!(
            vc >= 2,
            "survivor {node} reports {vc} view changes, expected the \
             removal and the rejoin:\n{stdout}"
        );
    }
}
