//! The distributed-join acceptance test: three real OS processes form a
//! loopback TCP cluster under sustained sends, then a **fourth process
//! joins mid-stream** (`spindle-node --join`): it dials a seed, receives
//! the state-transfer snapshot, the founders drive the resizable epoch
//! transition through the SST (the join intent travels in the leader's
//! proposal; every survivor grows its mirror and peer set in place), and
//! the joiner enters at epoch 1 behind the catch-up barrier — no process
//! restarts. Every process's delivery trace must satisfy the harness
//! oracles (total order, completeness, no duplicates, and
//! membership-scope: the joiner observes nothing older than its join
//! epoch), the joiner's first delivery must be seq 0 of epoch 1, and all
//! four epoch-1 streams must be byte-identical.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{free_loopback_ports, parse_trace, payload, scrape, wait_all, NodeProc, ProcResult};
use spindle_core::detector::DetectorConfig;
use spindle_core::threaded::{AdmitRequest, Cluster, Delivered, ViewChangeError};
use spindle_core::{Plan, SpindleConfig};
use spindle_fabric::{FaultPlan, NodeId};
use spindle_harness::oracle::{check_threaded, EpochMembers};
use spindle_membership::{SubgroupId, ViewBuilder};
use spindle_net::{TcpFabric, TcpFabricConfig, TcpFabricGroup};

const FOUNDERS: usize = 3;
const SENDS: u32 = 30;
const JOINER_SENDS: u32 = 12;
const PAYLOAD: usize = 24;
const SEED: u64 = 7;
const JOINER_ROW: usize = 3;

/// Sum of every `spindle_delivered_total{...}` series in a scrape.
fn delivered_total(body: &str) -> u64 {
    body.lines()
        .filter(|l| l.starts_with("spindle_delivered_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// A `# TYPE` line that appears more than once on a `/metrics` page: every
/// family must be declared exactly once, whoever publishes it.
fn duplicate_type_line(page: &str) -> Option<&str> {
    let mut seen = BTreeSet::new();
    page.lines()
        .filter(|l| l.starts_with("# TYPE"))
        .find(|l| !seen.insert(*l))
}

fn spawn_cluster(dir: &std::path::Path) -> (Vec<NodeProc>, u16) {
    let mut ports = free_loopback_ports(FOUNDERS + 2);
    let metrics_port = ports.pop().expect("metrics port");
    let addrs: Vec<String> = ports[..FOUNDERS]
        .iter()
        .map(|p| format!("\"127.0.0.1:{p}\""))
        .collect();
    let config = format!(
        "# written by join_catchup.rs\nnodes = [{}]\nwindow = 16\nmax_msg = 64\n",
        addrs.join(", ")
    );
    let config_path = dir.join("cluster.toml");
    std::fs::write(&config_path, config).expect("write config");

    let mut procs: Vec<NodeProc> = (0..FOUNDERS)
        .map(|node| {
            let trace_path = dir.join(format!("trace-n{node}.txt"));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_spindle-node"));
            if node == 0 {
                // Founder 0 additionally serves the live observability
                // plane — scraped mid-run by the test body.
                cmd.args(["--metrics-addr", &format!("127.0.0.1:{metrics_port}")]);
            }
            let child = cmd
                .arg("--config")
                .arg(&config_path)
                .args(["--node", &node.to_string()])
                .args(["--sends", &SENDS.to_string()])
                .args(["--payload", &PAYLOAD.to_string()])
                .args(["--seed", &SEED.to_string()])
                .args(["--deadline-secs", "90"])
                .args(["--linger-ms", "1500"])
                // Founders finish only once the join epoch installed and
                // their own sends came back — a joiner changes the total,
                // so a fixed count cannot be the finish line.
                .args(["--min-epoch", "1"])
                .args(["--quiesce-ms", "900"])
                .arg("--trace-out")
                .arg(&trace_path)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn spindle-node");
            NodeProc { child, trace_path }
        })
        .collect();

    // Let the founders' mesh come up and traffic start flowing, then
    // join a fourth process mid-stream through founder 0's listener.
    std::thread::sleep(Duration::from_millis(400));
    let joiner_trace = dir.join(format!("trace-n{JOINER_ROW}.txt"));
    let joiner = Command::new(env!("CARGO_BIN_EXE_spindle-node"))
        .arg("--config")
        .arg(&config_path)
        .args(["--join", &format!("127.0.0.1:{}", ports[0])])
        .args(["--listen", &format!("127.0.0.1:{}", ports[FOUNDERS])])
        .args(["--sends", &JOINER_SENDS.to_string()])
        .args(["--payload", &PAYLOAD.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--deadline-secs", "90"])
        .args(["--linger-ms", "1500"])
        .args(["--quiesce-ms", "900"])
        .arg("--trace-out")
        .arg(&joiner_trace)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn joiner spindle-node");
    procs.push(NodeProc {
        child: joiner,
        trace_path: joiner_trace,
    });
    (procs, metrics_port)
}

/// Scrapes founder 0's `/metrics` twice mid-run and checks the live
/// exposition contract: valid Prometheus text, per-epoch delivery
/// counters and latency quantiles, the wire families, a one-thread wire
/// gauge, every family declared once, and monotone counters between
/// scrapes. Returns `None` on success, or the violation (the caller folds
/// it into the retry loop — the run itself may have failed too, which is
/// the more useful error).
fn check_live_metrics(metrics_port: u16) -> Option<String> {
    let addr = format!("127.0.0.1:{metrics_port}");
    // Wait for traffic: the plane serves from bootstrap, but delivery
    // counters only move once the mesh connects and sends flow.
    let deadline = Instant::now() + Duration::from_secs(30);
    let first = loop {
        if let Some(body) = scrape(&addr, "/metrics") {
            if delivered_total(&body) > 0 {
                break body;
            }
        }
        if Instant::now() > deadline {
            return Some("no /metrics scrape showed deliveries within 30s".into());
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    for want in [
        "# TYPE spindle_delivered_total counter",
        "epoch=\"0\"",
        "spindle_delivery_latency_seconds{",
        "quantile=\"0.99\"",
        "# TYPE spindle_wire_frames_posted_total counter",
        "spindle_wire_threads{node=\"0\"} 1",
    ] {
        if !first.contains(want) {
            return Some(format!("scrape is missing {want:?}:\n{first}"));
        }
    }
    if let Some(twice) = duplicate_type_line(&first) {
        return Some(format!("a family is declared twice ({twice:?}):\n{first}"));
    }
    std::thread::sleep(Duration::from_millis(200));
    let Some(second) = scrape(&addr, "/metrics") else {
        return Some("second /metrics scrape failed".into());
    };
    let (a, b) = (delivered_total(&first), delivered_total(&second));
    if b < a {
        return Some(format!("delivered counter went backwards: {a} -> {b}"));
    }
    None
}

fn render_failure(results: &[ProcResult], procs: &[NodeProc]) -> String {
    common::render_failure(results, procs, |node| match node {
        JOINER_ROW => "joiner",
        _ => "founder",
    })
}

#[test]
fn live_cluster_accepts_a_fourth_process_mid_stream() {
    let dir = std::env::temp_dir().join(format!("spindle-net-join-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // The bind-then-release port handoff can collide; retry once.
    let mut last_failure = String::new();
    for attempt in 0..2 {
        let (mut procs, metrics_port) = spawn_cluster(&dir);
        // Live scrape while the cluster is running the join transition.
        let metrics_violation = check_live_metrics(metrics_port);
        let results = wait_all(&mut procs, Duration::from_secs(120));
        if results.iter().all(|(ok, _, _)| *ok) && metrics_violation.is_none() {
            check_run(&procs, &results);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        last_failure = format!(
            "attempt {attempt}: live-metrics: {}\n{}",
            metrics_violation.as_deref().unwrap_or("ok"),
            render_failure(&results, &procs)
        );
        eprintln!("{last_failure}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    panic!("join-catchup cluster failed twice:\n{last_failure}");
}

fn check_run(procs: &[NodeProc], results: &[ProcResult]) {
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for (node, p) in procs.iter().enumerate() {
        let text = std::fs::read_to_string(&p.trace_path).expect("trace file");
        streams.insert(node, parse_trace(&text));
    }

    // Epoch history: the founders in epoch 0, everyone in epoch 1.
    let all: BTreeSet<usize> = (0..=JOINER_ROW).collect();
    let mut epochs = EpochMembers::new();
    epochs.insert(0, vec![(0..FOUNDERS).collect()]);
    epochs.insert(1, vec![all.iter().copied().collect()]);

    let mut acked: BTreeMap<(usize, usize), Vec<Vec<u8>>> = BTreeMap::new();
    for node in 0..FOUNDERS {
        let payloads = (0..SENDS)
            .map(|c| payload(node, c, PAYLOAD, SEED))
            .collect();
        acked.insert((node, 0), payloads);
    }
    acked.insert(
        (JOINER_ROW, 0),
        (0..JOINER_SENDS)
            .map(|c| payload(JOINER_ROW, c, PAYLOAD, SEED))
            .collect(),
    );

    let checks = check_threaded(&streams, &all, &epochs, &acked, true);
    for c in &checks {
        assert!(
            c.passed,
            "oracle {} failed on the join-catchup run: {}\n{}",
            c.name,
            c.detail,
            render_failure(results, procs)
        );
    }

    // The joiner entered at epoch 1, and its very first delivery is the
    // head of the new epoch's total order — the same (sender, index,
    // seq) every founder delivers first in epoch 1. (The seq is not 0:
    // the founders' null rounds consume sequence numbers invisibly, so
    // with three founding senders the head lands at seq 3 under this
    // pinned seed.)
    let joiner = &streams[&JOINER_ROW];
    assert!(
        !joiner.is_empty(),
        "joiner delivered nothing\n{}",
        render_failure(results, procs)
    );
    assert_eq!(joiner[0].epoch, 1, "joiner's first delivery is not epoch 1");

    // Epoch-1 agreement, byte for byte, across all four processes.
    let epoch1 = |node: usize| -> Vec<&Delivered> {
        streams[&node].iter().filter(|d| d.epoch == 1).collect()
    };
    let base = epoch1(0);
    assert!(
        !base.is_empty(),
        "no epoch-1 deliveries: the join transition never completed\n{}",
        render_failure(results, procs)
    );
    assert_eq!(
        (base[0].epoch, base[0].seq),
        (joiner[0].epoch, joiner[0].seq),
        "joiner's first delivery is not the head of the epoch-1 order\n{}",
        render_failure(results, procs)
    );
    for node in 1..=JOINER_ROW {
        assert_eq!(
            base,
            epoch1(node),
            "node {node} delivered a different epoch-1 stream\n{}",
            render_failure(results, procs)
        );
    }

    // Every founder installed exactly one view change and says so; the
    // joiner reports its state-transfer bytes.
    for (node, (_, stdout, _)) in results.iter().enumerate().take(FOUNDERS) {
        assert!(
            stdout.contains("view-changes: 1 in"),
            "founder {node} did not report the join transition:\n{stdout}"
        );
    }

    // The single-poller contract: each process runs exactly ONE wire
    // service thread (counted from /proc/self/task), whatever the
    // cluster size — and that stays true across the resizable epoch
    // transition that grew the mesh from 3 to 4 rows.
    for (node, (_, stdout, _)) in results.iter().enumerate() {
        assert!(
            stdout.contains(&format!("n{node} wire-threads: 1")),
            "node {node} does not run exactly one wire thread:\n{stdout}"
        );
    }
    assert!(
        results[JOINER_ROW].1.contains("catch-up: ")
            && !results[JOINER_ROW].1.contains("catch-up: 0 B"),
        "joiner did not report its catch-up bytes:\n{}",
        results[JOINER_ROW].1
    );
}

/// An endpoint-less `admit` on an epoch-capable distributed cluster
/// names the real requirement (a joiner endpoint) instead of claiming
/// the fabric is static — with argument validation still first, exactly
/// like `remove_node` — and an endpoint-carrying `admit` enforces the
/// leader-sponsor rule and endpoint validation.
#[test]
fn distributed_join_error_surface() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![
        l0.local_addr().unwrap().to_string(),
        l1.local_addr().unwrap().to_string(),
    ];
    let view = ViewBuilder::new(2)
        .subgroup(&[0, 1], &[0, 1], 8, 64)
        .build()
        .unwrap();
    let words = Plan::build(&view, true).layout.region_words();
    let fab = |me: usize, l: TcpListener| {
        TcpFabric::bootstrap_on_listener(TcpFabricConfig::new(me, addrs.clone(), words), l).unwrap()
    };
    let a = fab(0, l0);
    let b = fab(1, l1);
    a.wait_connected(Duration::from_secs(10)).unwrap();
    b.wait_connected(Duration::from_secs(10)).unwrap();
    let mut ca = Cluster::start_distributed(
        view.clone(),
        SpindleConfig::optimized(),
        None,
        None,
        &[0],
        a,
    );
    let mut cb = Cluster::start_distributed(view, SpindleConfig::optimized(), None, None, &[1], b);

    // Argument validation precedes the capability verdict.
    assert_eq!(
        ca.admit(AdmitRequest::in_process(&[(SubgroupId(9), true)]))
            .unwrap_err(),
        ViewChangeError::UnknownSubgroup(SubgroupId(9))
    );
    // Where the view's rows run in other processes, a joiner is a
    // process too: joins need its endpoint (AdmitRequest::remote /
    // --join), not an in-process row.
    assert_eq!(
        ca.admit(AdmitRequest::in_process(&[(SubgroupId(0), true)]))
            .unwrap_err(),
        ViewChangeError::JoinerAddressRequired
    );
    // Endpoint-carrying admit: endpoint validation first...
    assert!(matches!(
        ca.admit(AdmitRequest::remote("not-an-endpoint", true)),
        Err(ViewChangeError::BadJoinAddress(_))
    ));
    assert!(matches!(
        ca.admit(AdmitRequest::remote("127.0.0.1:0", true)),
        Err(ViewChangeError::BadJoinAddress(_))
    ));
    // ...and IPv6 / hostname endpoints pass validation now that the
    // proposal's join block carries host bytes, so the next verdict is
    // the leader-sponsor rule, not the codec.
    assert!(matches!(
        cb.admit(AdmitRequest::remote("[::1]:9999", true)),
        Err(ViewChangeError::NotLeader { leader: 0 })
    ));
    // ...then the leader-sponsor rule: node 1's host must redirect.
    assert_eq!(
        cb.admit(AdmitRequest::remote("127.0.0.1:9999", true))
            .unwrap_err(),
        ViewChangeError::NotLeader { leader: 0 }
    );
    // Both admission flavors surface errors through the one admit()
    // entry point: in-process joins are validated against the subgroup
    // map, remote joins against the leader-sponsor rule.
    assert_eq!(
        ca.admit(AdmitRequest::in_process(&[(SubgroupId(9), true)]))
            .unwrap_err(),
        ViewChangeError::UnknownSubgroup(SubgroupId(9))
    );
    assert_eq!(
        cb.admit(AdmitRequest::remote("127.0.0.1:9999", true))
            .unwrap_err(),
        ViewChangeError::NotLeader { leader: 0 }
    );
    ca.shutdown();
    cb.shutdown();
}

/// A sponsor dying mid-join costs one attempt, not the seed: the joiner
/// keeps cycling its seed ring (with backoff) until the deadline, so a
/// cluster reconfiguring around a dead sponsor can still admit it on a
/// later pass instead of giving up after one failure per seed.
#[test]
fn joiner_retries_seeds_after_mid_join_sponsor_death() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let killer = TcpListener::bind("127.0.0.1:0").unwrap();
    let killer_addr = killer.local_addr().unwrap().to_string();
    let accepts = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&accepts);
    // Accept and immediately drop every control conversation — a
    // sponsor that dies right after the joiner's JOIN frame.
    std::thread::spawn(move || {
        for stream in killer.incoming() {
            let Ok(stream) = stream else { break };
            counted.fetch_add(1, Ordering::SeqCst);
            drop(stream);
        }
    });

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let advertise = listener.local_addr().unwrap().to_string();
    spindle_net::join_cluster(spindle_net::JoinConfig {
        seeds: vec![killer_addr],
        listener,
        advertise,
        as_sender: true,
        config: SpindleConfig::optimized(),
        detector: None,
        deadline: Duration::from_millis(1200),
        persist: None,
    })
    .map(|j| j.row)
    .unwrap_err();
    // The single seed was re-dialed across backoff passes, not
    // disqualified by its first death.
    let dials = accepts.load(Ordering::SeqCst);
    assert!(dials >= 3, "expected repeated re-dials, saw {dials}");
}

/// The documented sponsor-failover path: the first seed dies mid-join,
/// the joiner re-dials the next seed, and that sponsor drives the real
/// admission (`serve_join`) — the joiner still enters the cluster.
#[test]
fn joiner_falls_through_dead_sponsor_to_live_seed() {
    // Seed one accepts the JOIN and dies on the spot.
    let killer = TcpListener::bind("127.0.0.1:0").unwrap();
    let killer_addr = killer.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in killer.incoming() {
            drop(stream);
        }
    });

    // Seed two is row 0 of a live two-member cluster.
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![
        l0.local_addr().unwrap().to_string(),
        l1.local_addr().unwrap().to_string(),
    ];
    let view = ViewBuilder::new(2)
        .subgroup(&[0, 1], &[0, 1], 8, 64)
        .build()
        .unwrap();
    let words = Plan::build(&view, true).layout.region_words();
    let fa = TcpFabric::bootstrap_on_listener(TcpFabricConfig::new(0, addrs.clone(), words), l0)
        .unwrap();
    let fb = TcpFabric::bootstrap_on_listener(TcpFabricConfig::new(1, addrs.clone(), words), l1)
        .unwrap();
    fa.wait_connected(Duration::from_secs(10)).unwrap();
    fb.wait_connected(Duration::from_secs(10)).unwrap();
    let mut ca = Cluster::start_distributed(
        view.clone(),
        SpindleConfig::optimized(),
        None,
        None,
        &[0],
        fa.clone(),
    );
    let cb = Cluster::start_distributed(view, SpindleConfig::optimized(), None, None, &[1], fb);

    let jl = TcpListener::bind("127.0.0.1:0").unwrap();
    let jaddr = jl.local_addr().unwrap().to_string();
    let seeds = vec![killer_addr, addrs[0].clone()];
    let joiner = std::thread::spawn(move || {
        spindle_net::join_cluster(spindle_net::JoinConfig {
            seeds,
            listener: jl,
            advertise: jaddr,
            as_sender: true,
            config: SpindleConfig::optimized(),
            detector: None,
            deadline: Duration::from_secs(60),
            persist: None,
        })
    });

    // Sponsor duty on the live seed: the JOIN lands on row 0's listener
    // once the dead seed drops the first attempt.
    let req = fa
        .join_requests()
        .recv_timeout(Duration::from_secs(30))
        .expect("the joiner re-dialed the live seed");
    let outcome = spindle_net::serve_join(req, &mut ca, 0, &[]).unwrap();
    assert!(
        matches!(outcome, spindle_net::ServeOutcome::Admitted { row: 2, .. }),
        "unexpected serve outcome: {outcome:?}"
    );
    let joined = joiner
        .join()
        .unwrap()
        .expect("join succeeds through the second seed");
    assert_eq!(joined.row, 2);
    assert_eq!(joined.addrs.len(), 3);
    joined.cluster.shutdown();
    ca.shutdown();
    cb.shutdown();
}

/// A multi-process cluster reconfigures from its predicate threads with no
/// caller involved, so what `Cluster` reports must be what its rows
/// installed. Three one-row clusters share a loopback mesh; row 0 (the
/// leader) dies, and the survivors' own detectors remove it. Row 1's
/// cluster must then report the new view and name itself the leader — a
/// join sponsor that still named row 0 would redirect every joiner to a
/// dead process.
#[test]
fn survivors_read_the_epoch_their_rows_installed() {
    let view = ViewBuilder::new(3)
        .subgroup(&[0, 1, 2], &[0, 1, 2], 8, 64)
        .build()
        .unwrap();
    let words = Plan::build(&view, true).layout.region_words();
    let group = TcpFabricGroup::loopback(3, words, FaultPlan::new()).unwrap();
    let detector = DetectorConfig {
        heartbeat_interval: Duration::from_millis(2),
        timeout: Duration::from_millis(200),
    };
    let clusters: Vec<Cluster<TcpFabric>> = (0..3)
        .map(|row| {
            Cluster::start_distributed(
                view.clone(),
                SpindleConfig::optimized(),
                Some(detector.clone()),
                None,
                &[row],
                group.endpoint(NodeId(row)).clone(),
            )
        })
        .collect();
    assert_eq!(clusters[1].leader_row(), Some(0));

    clusters[0].kill(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let epoch = loop {
        let epoch = clusters[1].node(1).epoch();
        if epoch >= 1 {
            break epoch;
        }
        assert!(
            Instant::now() < deadline,
            "the survivors never removed row 0"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    // (view id, leader row) as row 1's process reports them.
    let seen = (clusters[1].view().id(), clusters[1].leader_row());
    assert_eq!(seen, (epoch, Some(1)));
    assert_eq!(clusters[1].epoch_views().last().unwrap().id(), epoch);
    for c in clusters {
        c.shutdown();
    }
}
