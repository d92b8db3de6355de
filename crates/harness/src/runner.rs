//! Executes scenarios against the real runtimes and reports verdicts.
//!
//! The threaded runner drives a [`Cluster`] through the scenario's event
//! timeline, collects every node's delivery stream (including crashed and
//! removed nodes' pre-failure prefixes), and hands the streams to the
//! [`crate::oracle`] checks. The sim runner executes a seeded
//! [`SimCluster`] with scheduled faults and checks its delivery trace.
//!
//! The returned [`ScenarioOutcome::trace`] contains only deterministic
//! facts — the scenario script, the epoch/membership history, the oracle
//! verdicts, and (for the fully virtual sim runtime) the delivery-trace
//! fingerprint — so rerunning a scenario with the same seed yields a
//! bit-identical trace and verdict.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use spindle_core::threaded::{AdmitRequest, Cluster, Delivered};
use spindle_core::{PersistConfig, SimCluster, Workload};
use spindle_fabric::{Fabric, MemFabric, NodeId};
use spindle_membership::{SubgroupId, View, ViewBuilder};
use spindle_net::TcpFabricGroup;
use spindle_persist::{PersistFaults, PersistOptions};

use crate::oracle::{self, EpochMembers, OracleCheck};
use crate::scenario::{ClusterSpec, Event, Scenario, ScenarioKind, SimScenario, ThreadedScenario};

/// How long one blocking step (a windowed send, a suspicion wait) may take
/// before the runner declares the scenario wedged.
const STEP_DEADLINE: Duration = Duration::from_secs(20);

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Seed it ran under.
    pub seed: u64,
    /// Deterministic replay trace (script + epoch history + verdicts).
    pub trace: String,
    /// Oracle verdicts.
    pub checks: Vec<OracleCheck>,
    /// Harness-level failures (wedged sends, view-change errors, ...).
    pub errors: Vec<String>,
}

impl ScenarioOutcome {
    /// `true` when every oracle passed and the harness hit no errors.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.passed)
    }
}

/// Runs one scenario to a verdict.
pub fn run_scenario(s: &Scenario) -> ScenarioOutcome {
    match &s.kind {
        ScenarioKind::Threaded(t) => run_threaded(s, t),
        ScenarioKind::ThreadedTcp(t) => run_threaded_tcp(s, t),
        ScenarioKind::Sim(sim) => run_sim(s, sim),
    }
}

fn build_view(spec: &ClusterSpec) -> View {
    let mut b = ViewBuilder::new(spec.nodes);
    for sg in &spec.subgroups {
        b = b.subgroup(&sg.members, &sg.senders, sg.window, sg.max_msg);
    }
    b.build().expect("scenario cluster spec must be valid")
}

/// Unique payload: 8-byte `(sender, counter)` header plus deterministic
/// filler up to `size`.
fn payload(node: usize, counter: u32, size: usize) -> Vec<u8> {
    let mut p = Vec::with_capacity(size.max(8));
    p.extend_from_slice(&(node as u32).to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    while p.len() < size {
        p.push((node as u8).wrapping_add(p.len() as u8));
    }
    p
}

fn record_epoch(epochs: &mut EpochMembers, view: &View) {
    epochs.insert(
        view.id(),
        view.subgroups()
            .iter()
            .map(|sg| sg.members.iter().map(|n| n.0).collect())
            .collect(),
    );
}

fn send_blocking<F: Fabric>(
    cluster: &Cluster<F>,
    node: usize,
    sg: usize,
    data: &[u8],
) -> Result<(), String> {
    let deadline = Instant::now() + STEP_DEADLINE;
    loop {
        match cluster.node(node).try_send(SubgroupId(sg), data) {
            Ok(true) => return Ok(()),
            Ok(false) => {
                if Instant::now() > deadline {
                    return Err(format!(
                        "node {node}: send wedged for {STEP_DEADLINE:?} in g{sg}"
                    ));
                }
                // Sleep rather than spin: if delivery is wedged, the
                // predicate threads need the cores more than we do.
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(format!("node {node}: send failed in g{sg}: {e}")),
        }
    }
}

struct ThreadedRun {
    live: BTreeSet<usize>,
    counters: BTreeMap<usize, u32>,
    acked: BTreeMap<(usize, usize), Vec<Vec<u8>>>,
    epochs: EpochMembers,
    errors: Vec<String>,
    /// The durable logs' fault-injection handle (shared with every log
    /// the cluster opens), so the timeline can slow or hang the disk.
    faults: PersistFaults,
}

impl ThreadedRun {
    /// Records every epoch the cluster has installed so far — a chained
    /// takeover transition installs an intermediate epoch inside one
    /// `remove_node` call, and the membership-scope oracle needs it.
    fn record_epochs<F: Fabric>(&mut self, cluster: &Cluster<F>) {
        for v in cluster.epoch_views() {
            record_epoch(&mut self.epochs, &v);
        }
    }

    /// Executes one event.
    fn step<F: Transport>(&mut self, cluster: &mut Cluster<F>, ev: &Event) {
        match ev {
            Event::Burst {
                node,
                sg,
                count,
                size,
            } => {
                for _ in 0..*count {
                    let c = self.counters.entry(*node).or_insert(0);
                    let p = payload(*node, *c, *size);
                    *c += 1;
                    match send_blocking(cluster, *node, *sg, &p) {
                        Ok(()) => self.acked.entry((*node, *sg)).or_default().push(p),
                        Err(e) => {
                            self.errors.push(e);
                            return;
                        }
                    }
                }
            }
            Event::Crash { node } => {
                cluster.kill(*node);
                self.live.remove(node);
            }
            Event::Pause { node } => cluster.pause_node(*node),
            Event::Resume { node } => cluster.resume_node(*node),
            Event::Isolate { node } => {
                cluster.isolate_node(*node);
                cluster.fabric().sever(*node);
            }
            Event::Heal { node } => cluster.heal_node(*node),
            Event::DropHeartbeats { node } => cluster.set_drop_heartbeats(*node, true),
            Event::Throttle { node, micros } => {
                cluster.throttle_node(*node, Duration::from_micros(*micros));
            }
            Event::Remove { node } => match cluster.remove_node(*node) {
                Ok(_) => {
                    self.live.remove(node);
                    self.record_epochs(cluster);
                }
                Err(e) => self.errors.push(format!("remove {node}: {e}")),
            },
            Event::KillLeaderAt { boundary, victim } => {
                let Some(leader) = cluster.leader_row() else {
                    self.errors.push("kill-leader: no live leader row".into());
                    return;
                };
                cluster.arm_vc_crash(leader, *boundary);
                match cluster.remove_node(*victim) {
                    Ok(_) => {
                        // Both corpses are out once remove_node returns —
                        // in one transition (fresh takeover trim) or two
                        // (verbatim adoption, then residual eviction).
                        self.live.remove(victim);
                        self.live.remove(&leader);
                        self.record_epochs(cluster);
                    }
                    Err(e) => self
                        .errors
                        .push(format!("kill-leader({boundary:?}) remove {victim}: {e}")),
                }
            }
            Event::Join { joins } => {
                let j: Vec<(SubgroupId, bool)> =
                    joins.iter().map(|&(g, s)| (SubgroupId(g), s)).collect();
                match cluster.admit(AdmitRequest::in_process(&j)) {
                    Ok((id, _)) => {
                        self.live.insert(id);
                        self.record_epochs(cluster);
                    }
                    Err(e) => self.errors.push(format!("join: {e}")),
                }
            }
            Event::AwaitSuspicion { suspect } => {
                let deadline = Instant::now() + STEP_DEADLINE;
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match cluster.suspicions().recv_timeout(left) {
                        Ok(s) if s.suspect == *suspect => break,
                        Ok(_) => continue, // e.g. an isolated node accusing others
                        Err(_) => {
                            self.errors
                                .push(format!("no suspicion of node {suspect} arrived"));
                            return;
                        }
                    }
                }
                match cluster.remove_node(*suspect) {
                    Ok(_) => {
                        self.live.remove(suspect);
                        self.record_epochs(cluster);
                    }
                    Err(e) => self.errors.push(format!("detector removal {suspect}: {e}")),
                }
                // Every survivor reports independently; drain the rest.
                while cluster.suspicions().try_recv().is_ok() {}
            }
            Event::PersistSyncDelay { micros } => {
                self.faults.set_sync_delay(Duration::from_micros(*micros));
            }
            Event::PersistStall { millis } => {
                self.faults.set_stalled(true);
                std::thread::sleep(Duration::from_millis(*millis));
                self.faults.set_stalled(false);
            }
            Event::Settle { millis } => std::thread::sleep(Duration::from_millis(*millis)),
        }
    }
}

/// Lowers the scenario's persistence knobs into open options around the
/// run's shared fault handle.
fn persist_config(spec: &ClusterSpec, dir: PathBuf, faults: &PersistFaults) -> PersistConfig {
    let mut opts = PersistOptions::new(dir).faults(faults.clone());
    if let Some(policy) = spec.sync_policy {
        opts = opts.sync_policy(policy);
    }
    if let Some(cap) = spec.segment_cap {
        opts = opts.segment_cap(cap);
    }
    PersistConfig::with_options(opts)
}

fn run_threaded(s: &Scenario, t: &ThreadedScenario) -> ScenarioOutcome {
    let view = build_view(&t.spec);
    let persist_dir = t.spec.persist.then(|| fresh_persist_dir(&s.name, s.seed));
    let faults = PersistFaults::new();
    let cluster = Cluster::start_configured(
        view,
        t.spec.config.clone(),
        t.spec.detector.clone(),
        persist_dir
            .clone()
            .map(|d| persist_config(&t.spec, d, &faults)),
    );
    drive_threaded(s, t, cluster, persist_dir, faults)
}

/// The loopback-TCP runner: the identical schedule over a
/// [`TcpFabricGroup`], with [`Event::Isolate`] additionally severing the
/// node's live connections (a real dead link that re-dials after
/// [`Event::Heal`]). Every view change enters a fresh group
/// ([`Fabric::begin_epoch`]), so each epoch gets fresh sockets — the §2.3
/// per-view registration, literally — and the fault events reach the
/// current one through [`Cluster::fabric`].
fn run_threaded_tcp(s: &Scenario, t: &ThreadedScenario) -> ScenarioOutcome {
    let view = build_view(&t.spec);
    let persist_dir = t.spec.persist.then(|| fresh_persist_dir(&s.name, s.seed));
    let faults = PersistFaults::new();
    let cluster = Cluster::start_with_fabric_factory(
        view,
        t.spec.config.clone(),
        t.spec.detector.clone(),
        persist_dir
            .clone()
            .map(|d| persist_config(&t.spec, d, &faults)),
        |n, words, wire_faults| {
            TcpFabricGroup::loopback(n, words, wire_faults).expect("loopback TCP fabric group")
        },
    );
    drive_threaded(s, t, cluster, persist_dir, faults)
}

/// What the threaded runners need of a transport beyond the [`Fabric`]
/// contract, read off the current epoch's fabric.
trait Transport: Fabric {
    /// The dead-link half of [`Event::Isolate`]: severs `node`'s live
    /// connections, where it has any.
    fn sever(&self, _node: usize) {}

    /// Frames posted and received on the wire, where there is one.
    fn wire_totals(&self) -> Option<(u64, u64)> {
        None
    }
}

impl Transport for MemFabric {}

impl Transport for TcpFabricGroup {
    fn sever(&self, node: usize) {
        TcpFabricGroup::sever(self, NodeId(node));
    }

    fn wire_totals(&self) -> Option<(u64, u64)> {
        let t = self.wire_stats_total();
        Some((t.frames_posted, t.frames_received))
    }
}

fn drive_threaded<F: Transport>(
    s: &Scenario,
    t: &ThreadedScenario,
    mut cluster: Cluster<F>,
    persist_dir: Option<PathBuf>,
    faults: PersistFaults,
) -> ScenarioOutcome {
    let mut run = ThreadedRun {
        live: (0..t.spec.nodes).collect(),
        counters: BTreeMap::new(),
        acked: BTreeMap::new(),
        epochs: EpochMembers::new(),
        errors: Vec::new(),
        faults,
    };
    record_epoch(&mut run.epochs, &cluster.view());
    for ev in &t.events {
        run.step(&mut cluster, ev);
        if !run.errors.is_empty() {
            break;
        }
    }

    // Drain every node's channel (crashed/removed nodes hold their
    // pre-failure prefix) until it stays quiet.
    let mut streams: BTreeMap<usize, Vec<Delivered>> = BTreeMap::new();
    for node in 0..cluster.len() {
        let quiet = if run.live.contains(&node) { 400 } else { 100 };
        let mut v = Vec::new();
        while let Some(d) = cluster
            .node(node)
            .recv_timeout(Duration::from_millis(quiet))
        {
            v.push(d);
        }
        streams.insert(node, v);
    }

    // Reconcile the live metrics registry with the drained streams: the
    // predicate threads may still be trickling deliveries into an
    // already-drained node's channel while later nodes drain, so re-drain
    // and re-fold until the registry's per-node delivery counters match
    // the stream lengths (or a deadline passes — then the oracle reports
    // the real mismatch).
    let mut delivered_counts: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let reconcile_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut grew = false;
        for node in 0..cluster.len() {
            let v = streams.entry(node).or_default();
            while let Some(d) = cluster.node(node).recv_timeout(Duration::ZERO) {
                v.push(d);
                grew = true;
            }
        }
        delivered_counts.clear();
        for node in 0..cluster.len() {
            let stats = spindle_core::epoch_stats_for_node(cluster.obs().registry(), node);
            let msgs: u64 = stats.iter().map(|e| e.delivered_msgs).sum();
            let bytes: u64 = stats.iter().map(|e| e.delivered_bytes).sum();
            delivered_counts.insert(node, (msgs, bytes));
        }
        let consistent = (0..cluster.len()).all(|node| {
            let (msgs, _) = delivered_counts.get(&node).copied().unwrap_or((0, 0));
            msgs == streams.get(&node).map_or(0, Vec::len) as u64
        });
        if (consistent && !grew) || Instant::now() > reconcile_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let expect_complete = t.expect_complete && run.errors.is_empty();
    let mut checks = oracle::check_threaded(
        &streams,
        &run.live,
        &run.epochs,
        &run.acked,
        expect_complete,
    );
    checks.push(oracle::counter_consistency(
        &streams,
        &delivered_counts,
        cluster.fabric().wire_totals(),
    ));
    // A failing run dumps the flight recorder to stderr for debugging —
    // never into the deterministic trace. With `SPINDLE_FLIGHTREC_DIR`
    // set (CI soak runs), the dump also lands in a file the workflow can
    // upload as an artifact.
    if !checks.iter().all(|c| c.passed) || !run.errors.is_empty() {
        let dump = cluster.obs().recorder().render();
        eprintln!("[{}] flight recorder at failure:\n{dump}", s.name);
        if let Ok(dir) = std::env::var("SPINDLE_FLIGHTREC_DIR") {
            let path = Path::new(&dir).join(format!("{}-{}.flightrec.txt", s.name, s.seed));
            if std::fs::create_dir_all(&dir).is_ok() {
                let _ = std::fs::write(&path, &dump);
            }
        }
    }
    let num_sgs = t.spec.subgroups.len();
    cluster.shutdown();
    if let Some(dir) = &persist_dir {
        checks.push(check_persist_replay(dir, &streams, &run.live, num_sgs));
        checks.push(check_replay_prefix(dir, &streams, &run.live, num_sgs));
        let _ = std::fs::remove_dir_all(dir);
    }

    let trace = render_trace(s, Some(&run.epochs), &checks, &run.errors, None);
    ScenarioOutcome {
        name: s.name.clone(),
        seed: s.seed,
        trace,
        checks,
        errors: run.errors,
    }
}

fn fresh_persist_dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spindle-harness-{}-{name}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durable-mode oracle: reopening every per-node log (which replays and
/// checksums it) must reproduce exactly the delivery stream the node's
/// channel carried — the restart-replay contract. A *crashed* node is
/// held to prefix semantics instead: the kill can land between a
/// delivery's channel push and its append, so its log may legitimately
/// stop short of its channel stream, but never diverge from it.
fn check_persist_replay(
    dir: &Path,
    streams: &BTreeMap<usize, Vec<Delivered>>,
    live: &BTreeSet<usize>,
    num_sgs: usize,
) -> OracleCheck {
    let violation = persist_violation(dir, streams, live, num_sgs);
    OracleCheck {
        name: "persist-replay",
        passed: violation.is_none(),
        detail: violation.unwrap_or_default(),
    }
}

fn record_matches(r: &spindle_persist::LogRecord, d: &Delivered) -> bool {
    r.epoch == d.epoch
        && r.subgroup as usize == d.subgroup.0
        && r.seq == d.seq
        && r.sender_rank as usize == d.sender_rank
        && r.app_index == d.app_index
        && r.data == d.data
}

fn persist_violation(
    dir: &Path,
    streams: &BTreeMap<usize, Vec<Delivered>>,
    live: &BTreeSet<usize>,
    num_sgs: usize,
) -> Option<String> {
    for (&node, stream) in streams {
        for g in 0..num_sgs {
            let expected: Vec<&Delivered> = stream.iter().filter(|d| d.subgroup.0 == g).collect();
            let name = PersistConfig::log_name(node, SubgroupId(g));
            let records = match spindle_persist::read_log(dir, &name) {
                Ok(r) => r,
                Err(e) => return Some(format!("node {node} g{g}: log unreadable: {e}")),
            };
            let crashed = !live.contains(&node);
            if records.is_empty() && !expected.is_empty() && !crashed {
                return Some(format!("node {node} g{g}: log missing or empty"));
            }
            if records.len() != expected.len() && !crashed {
                return Some(format!(
                    "node {node} g{g}: log has {} records, channel delivered {}",
                    records.len(),
                    expected.len()
                ));
            }
            if crashed && records.len() > expected.len() {
                return Some(format!(
                    "node {node} g{g}: crashed node's log has {} records, beyond its {} \
                     channel deliveries",
                    records.len(),
                    expected.len()
                ));
            }
            for (i, (r, d)) in records.iter().zip(&expected).enumerate() {
                if !record_matches(r, d) {
                    return Some(format!(
                        "node {node} g{g}: record {i} diverges from the delivery stream"
                    ));
                }
            }
        }
    }
    None
}

/// Restart-replay oracle: what a killed node would replay from its data
/// directory on restart must be **bit-identical to the survivors'
/// delivery stream** — a prefix of the agreed total order, not merely
/// self-consistent. This is the contract the `spindle-node` restart path
/// relies on: replayed history equals the prefix the cluster remembers.
fn check_replay_prefix(
    dir: &Path,
    streams: &BTreeMap<usize, Vec<Delivered>>,
    live: &BTreeSet<usize>,
    num_sgs: usize,
) -> OracleCheck {
    let violation = replay_prefix_violation(dir, streams, live, num_sgs);
    OracleCheck {
        name: "replay-prefix-identical",
        passed: violation.is_none(),
        detail: violation.unwrap_or_default(),
    }
}

fn replay_prefix_violation(
    dir: &Path,
    streams: &BTreeMap<usize, Vec<Delivered>>,
    live: &BTreeSet<usize>,
    num_sgs: usize,
) -> Option<String> {
    for &node in streams.keys() {
        if live.contains(&node) {
            continue;
        }
        for g in 0..num_sgs {
            let name = PersistConfig::log_name(node, SubgroupId(g));
            let records = match spindle_persist::read_log(dir, &name) {
                Ok(r) => r,
                Err(e) => return Some(format!("node {node} g{g}: log unreadable: {e}")),
            };
            // Compare against a survivor that is a member of the same
            // subgroup (it delivered at least as much of g's order).
            let Some((survivor, reference)) = live
                .iter()
                .filter_map(|&n| streams.get(&n).map(|st| (n, st)))
                .map(|(n, st)| {
                    let f: Vec<&Delivered> = st.iter().filter(|d| d.subgroup.0 == g).collect();
                    (n, f)
                })
                .max_by_key(|(_, f)| f.len())
            else {
                continue;
            };
            if records.len() > reference.len() {
                return Some(format!(
                    "node {node} g{g}: replayed {} records, but survivor {survivor} \
                     delivered only {}",
                    records.len(),
                    reference.len()
                ));
            }
            for (i, (r, d)) in records.iter().zip(&reference).enumerate() {
                if !record_matches(r, d) {
                    return Some(format!(
                        "node {node} g{g}: replayed record {i} differs from survivor \
                         {survivor}'s delivery stream"
                    ));
                }
            }
        }
    }
    None
}

fn run_sim(s: &Scenario, sim: &SimScenario) -> ScenarioOutcome {
    let members: Vec<usize> = (0..sim.nodes).collect();
    let view = ViewBuilder::new(sim.nodes)
        .subgroup(&members, &members, sim.window, sim.msg_size.max(64))
        .build()
        .expect("sim scenario view");
    let report = SimCluster::new(
        view,
        sim.config.clone(),
        Workload::new(sim.msgs_per_sender, sim.msg_size),
    )
    .with_seed(s.seed)
    .with_faults(sim.faults.clone())
    .with_deadline(Duration::from_millis(sim.deadline_ms))
    .with_delivery_trace()
    .run();

    let mut checks = oracle::check_sim(
        &report.delivery_trace,
        report.completed,
        sim.expect_complete,
    );
    checks.push(oracle::counter_consistency_sim(
        &report.delivery_trace,
        &report.nodes,
    ));
    // The sim is virtual-time deterministic, so the delivery counts and a
    // fingerprint of the full trace belong in the replay trace.
    let mut sim_facts = String::from("sim:\n");
    sim_facts.push_str(&format!("  completed: {}\n", report.completed));
    sim_facts.push_str(&format!("  makespan: {:?}\n", report.makespan));
    for (n, t) in report.delivery_trace.iter().enumerate() {
        sim_facts.push_str(&format!(
            "  node {n}: {} deliveries, trace fnv64 {:016x}\n",
            t.len(),
            fnv64(t)
        ));
    }
    let trace = render_trace(s, None, &checks, &[], Some(&sim_facts));
    ScenarioOutcome {
        name: s.name.clone(),
        seed: s.seed,
        trace,
        checks,
        errors: Vec::new(),
    }
}

/// FNV-1a over the delivery tuples: a stable fingerprint for trace
/// comparison without dumping thousands of tuples. An epoch-0 tuple hashes
/// without its epoch, so a run that never changes view keeps the
/// fingerprint it had before traces carried epochs.
fn fnv64(trace: &[(u64, usize, usize, u64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &(epoch, sg, rank, idx) in trace {
        if epoch != 0 {
            eat(epoch);
        }
        eat(sg as u64);
        eat(rank as u64);
        eat(idx);
    }
    h
}

fn render_trace(
    s: &Scenario,
    epochs: Option<&EpochMembers>,
    checks: &[OracleCheck],
    errors: &[String],
    sim_facts: Option<&str>,
) -> String {
    let mut out = s.script();
    out.push('\n');
    if let Some(epochs) = epochs {
        out.push_str("epochs:\n");
        for (e, sgs) in epochs {
            let groups: Vec<String> = sgs
                .iter()
                .enumerate()
                .map(|(g, m)| format!("g{g}={m:?}"))
                .collect();
            out.push_str(&format!("  {e}: {}\n", groups.join(" ")));
        }
    }
    if let Some(facts) = sim_facts {
        out.push_str(facts);
    }
    out.push_str("oracles:\n");
    out.push_str(&oracle::render_checks(checks));
    for e in errors {
        out.push_str(&format!("error: {e}\n"));
    }
    let verdict = errors.is_empty() && checks.iter().all(|c| c.passed);
    out.push_str(if verdict {
        "verdict: PASS\n"
    } else {
        "verdict: FAIL\n"
    });
    out
}
