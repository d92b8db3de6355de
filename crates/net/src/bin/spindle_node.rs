//! One process of a distributed Spindle cluster.
//!
//! Reads the shared cluster config, bootstraps the TCP fabric (with the
//! `HELLO` handshake), hosts its row of the threaded cluster, runs the
//! seeded multicast workload, and writes its delivery trace. Exit code 0
//! means the node delivered the full expected workload; on a timeout the
//! partial trace goes to stderr so a failing CI run shows exactly what
//! this node saw.
//!
//! With `--join <seed-addrs>` (comma-separated) the process instead
//! *joins a live cluster*: it binds `--listen`, runs the join handshake
//! against the seeds, cycled round-robin until one sponsors it
//! (state-transfer snapshot, resizable epoch transition, catch-up
//! barrier), and then runs the same workload as row `N` of the grown
//! view. Founding members sponsor joins automatically: any `JOIN` that
//! lands on their listener is served from the main loop (the leader
//! commits it; everyone else redirects).
//!
//! With persistence configured (`--data-dir`, or a `data_dir` key in the
//! cluster file) every delivery is appended to a per-subgroup durable
//! log before rejoining counts it done. A killed process restarted over
//! the same `--data-dir` **replays** that log first — torn tails
//! truncated, CRCs checked — prints the recovered record stream summary
//! (and writes it to `--replay-out` in the trace format), then rejoins
//! with `--join`, continuing its history where the crash cut it.
//!
//! Every flag and file key is one row of [`NodeConfig`]'s settings table
//! (flag > cluster-file key > default); `--help` prints the usage text
//! generated from it.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spindle_core::threaded::{Cluster, Delivered, PersistConfig};
use spindle_core::{epoch_stats_for_node, render_epoch_table, Plan, SpindleConfig};
use spindle_membership::SubgroupId;
use spindle_net::{
    config, join, wire_thread_count, EdgeConfig, EdgeServer, NodeConfig, NodeRole, TcpFabric,
    TcpFabricConfig,
};
use spindle_persist::LogRecord;

/// Byte budget of the durable-log tail a sponsor ships in its
/// state-transfer snapshot (the newest records that fit).
const JOIN_TAIL_BUDGET: usize = 256 * 1024;

/// Applies the observability settings: echo level, then the exposition
/// endpoint (served by the fabric's existing poller thread).
fn start_obs(cfg: &NodeConfig, fabric: &TcpFabric, row: usize) -> Result<(), String> {
    if let Some(level) = cfg.log_level {
        fabric.obs_plane().set_level(level);
    }
    if let Some(addr) = &cfg.metrics_addr {
        let bound = fabric
            .serve_metrics(addr.as_str())
            .map_err(|e| format!("cannot bind --metrics-addr {addr}: {e}"))?;
        eprintln!("spindle-node: n{row} serving /metrics and /flightrec on http://{bound}");
    }
    Ok(())
}

/// The deterministic workload payload: `(sender, counter)` header plus
/// seed-derived filler, reproducible by the driving test from
/// `(node, counter, size, seed)` alone.
fn payload(node: usize, counter: u32, size: usize, seed: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(size.max(8));
    p.extend_from_slice(&(node as u32).to_le_bytes());
    p.extend_from_slice(&counter.to_le_bytes());
    let mut x = seed ^ ((node as u64) << 32) ^ counter as u64;
    while p.len() < size {
        // xorshift64 keeps the filler seed-dependent without an RNG dep.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.push(x as u8);
    }
    p
}

fn trace_line(d: &Delivered) -> String {
    let hex: String = d.data.iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{} {} {} {} {} {hex}",
        d.epoch, d.subgroup.0, d.sender_rank, d.app_index, d.seq
    )
}

/// One replayed durable-log record in exactly the delivery-trace line
/// format, so a restarted node's replayed history is directly comparable
/// to the survivors' delivery traces.
fn replay_line(r: &LogRecord) -> String {
    let hex: String = r.data.iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{} {} {} {} {} {hex}",
        r.epoch, r.subgroup, r.sender_rank, r.app_index, r.seq
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spindle-node: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let cfg = NodeConfig::from_args(std::env::args().skip(1), |path| {
        std::fs::read_to_string(path)
    })
    .map_err(|errors| config::report(&errors, &NodeConfig::usage()))?
    .ok_or_else(NodeConfig::usage)?;
    match cfg.role.clone() {
        NodeRole::Member { node } => run_member(&cfg, node),
        NodeRole::Joiner { seeds, listen } => run_joiner(&cfg, seeds, &listen),
    }
}

/// A founding member: bootstrap the full-mesh handshake at epoch 0 and
/// host the configured row.
fn run_member(cfg: &NodeConfig, node: usize) -> Result<(), String> {
    let cluster_cfg = &cfg.cluster;
    let view = cluster_cfg
        .view()
        .map_err(|e| format!("invalid cluster config: {e}"))?;
    let region_words = Plan::build(&view, true).layout.region_words();
    let n_subgroups = view.subgroups().len();
    let senders = cluster_cfg.sender_ids();

    let mut net = TcpFabricConfig::new(node, cluster_cfg.addrs.clone(), region_words);
    net.epoch = view.id();
    let fabric = TcpFabric::bootstrap(net).map_err(|e| format!("bootstrap: {e}"))?;
    start_obs(cfg, &fabric, node)?;
    eprintln!(
        "spindle-node: n{node} listening on {}, awaiting {} peers",
        fabric.local_addr(),
        cluster_cfg.nodes() - 1
    );
    fabric
        .wait_connected(Duration::from_secs(30))
        .map_err(|e| format!("handshake: {e}"))?;
    eprintln!("spindle-node: n{node} mesh up");

    let persist = cfg.persist.as_ref();
    if let Some(p) = persist {
        eprintln!(
            "spindle-node: n{node} persisting to {} ({}, segments of {} B)",
            p.dir.display(),
            p.sync_policy,
            p.segment_cap
        );
    }
    let started = Instant::now();
    let cluster = Cluster::start_distributed(
        view,
        SpindleConfig::optimized(),
        cluster_cfg.detector(),
        persist.cloned().map(PersistConfig::with_options),
        &[node],
        fabric.clone(),
    );
    let i_send = senders.contains(&node);
    let expected = senders.len() as u64 * cfg.run.sends as u64;
    workload(
        cfg,
        cluster,
        fabric,
        node,
        i_send,
        expected,
        started,
        cfg.run.min_epoch,
        0,
        n_subgroups,
    )
}

/// A joiner: replay any durable history under the data directory, run
/// the admission handshake against the seeds (dialed round-robin until
/// one admits us), then host the assigned row of the grown view from its
/// join epoch onward — appending new deliveries after the replayed tail.
fn run_joiner(cfg: &NodeConfig, seeds: Vec<String>, listen: &str) -> Result<(), String> {
    let started = Instant::now();

    // Restart replay: recover the durable history *before* dialing, so a
    // crash-restarted node knows exactly what it already delivered. Torn
    // tails and CRC damage were truncated by the log layer; what is left
    // is the bit-exact prefix of this node's pre-crash delivery stream.
    let mut replayed_records = 0u64;
    let mut replayed_bytes = 0u64;
    if let Some(p) = &cfg.persist {
        let records = spindle_persist::all_records_sorted(&p.dir)
            .map_err(|e| format!("cannot replay {}: {e}", p.dir.display()))?;
        replayed_records = records.len() as u64;
        replayed_bytes = records.iter().map(|r| r.encoded_len() as u64).sum();
        eprintln!(
            "spindle-node: replayed {replayed_records} durable-log records \
             ({replayed_bytes} B) from {}",
            p.dir.display()
        );
        if let Some(path) = &cfg.run.replay_out {
            let mut out = String::with_capacity(records.len() * 48);
            for r in &records {
                out.push_str(&replay_line(r));
                out.push('\n');
            }
            std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }

    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| format!("cannot bind --listen {listen}: {e}"))?;
    let advertise = listener
        .local_addr()
        .map_err(|e| format!("listen addr: {e}"))?
        .to_string();
    eprintln!("spindle-node: joiner listening on {advertise}, dialing seeds {seeds:?}");
    let joined = spindle_net::join_cluster(join::JoinConfig {
        seeds,
        listener,
        advertise,
        as_sender: true,
        config: SpindleConfig::optimized(),
        detector: cfg.cluster.detector(),
        deadline: cfg.run.deadline,
        persist: cfg.persist.clone().map(PersistConfig::with_options),
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "spindle-node: joined as n{} at epoch {} (catch-up {} B: {} log records, \
         frontiers {:?})",
        joined.row,
        joined.epoch,
        joined.catchup_bytes,
        joined.snapshot.records.len(),
        joined.snapshot.frontiers,
    );
    let row = joined.row;
    start_obs(cfg, &joined.fabric, row)?;
    // Publish the replay progress through the metrics registry now that
    // the process has its observability plane.
    if cfg.persist.is_some() {
        let obs = joined.fabric.obs_plane();
        let node = row.to_string();
        let labels = [("node", node.as_str())];
        obs.registry()
            .gauge(
                spindle_obs::names::PERSIST_REPLAY_RECORDS,
                "Records replayed from the data directory before rejoining",
                &labels,
            )
            .set(replayed_records);
        obs.registry()
            .gauge(
                spindle_obs::names::PERSIST_REPLAY_BYTES,
                "Bytes replayed from the data directory before rejoining",
                &labels,
            )
            .set(replayed_bytes);
    }
    let min_epoch = cfg.run.min_epoch.max(joined.epoch);
    let catchup = joined.catchup_bytes;
    workload(
        cfg,
        joined.cluster,
        joined.fabric,
        row,
        true,
        0,
        started,
        min_epoch,
        catchup,
        // A joiner has no parsed topology: defer topic validation to the
        // multicast send itself.
        usize::MAX,
    )
}

/// The durable-log tail this process would ship to a joiner right now:
/// the newest records across all its logs that fit the snapshot budget.
/// Read-only (a fresh scan per join request — joins are rare), so the
/// predicate thread's appends are never blocked; a torn in-flight tail
/// parses as a shorter valid prefix.
fn sponsor_tail(persist_dir: Option<&PathBuf>) -> Vec<LogRecord> {
    let Some(dir) = persist_dir else {
        return Vec::new();
    };
    let records = spindle_persist::all_records_sorted(dir).unwrap_or_default();
    let tail = spindle_persist::tail_within(&records, JOIN_TAIL_BUDGET);
    let skipped = records.len() - tail.len();
    if skipped > 0 {
        eprintln!(
            "spindle-node: join snapshot tail capped at {} of {} records ({} B budget)",
            tail.len(),
            records.len(),
            JOIN_TAIL_BUDGET
        );
    }
    tail.to_vec()
}

/// The shared workload loop: send this node's share (if it is a sender)
/// while collecting deliveries and sponsoring any `JOIN` that lands on
/// the listener. Completion: the full expected total in the steady-state
/// mode, or — with a `min_epoch` (failover and join modes) — the epoch
/// installed, every own send delivered back, and a quiet stream
/// (a crashed peer's undelivered tail is legitimately lost at the cut,
/// and joins change the total, so an exact count is not predictable).
#[allow(clippy::too_many_arguments)]
fn workload(
    cfg: &NodeConfig,
    mut cluster: Cluster<TcpFabric>,
    fabric: TcpFabric,
    row: usize,
    i_send: bool,
    expected: u64,
    started: Instant,
    min_epoch: u64,
    catchup_bytes: u64,
    n_subgroups: usize,
) -> Result<(), String> {
    let run = &cfg.run;
    let persist_dir = cfg.persist.as_ref().map(|p| p.dir.clone());
    // Edge duty: serve external clients through the single-poller relay
    // tier. Subgroup = topic; all topics here are ordered multicast, so
    // every queue runs the default disconnect overflow policy.
    let relay = match &cfg.relay_addr {
        Some(relay_addr) => {
            let addr: std::net::SocketAddr = relay_addr
                .parse()
                .map_err(|e| format!("bad --relay-addr {relay_addr}: {e}"))?;
            let server =
                EdgeServer::bind(addr, EdgeConfig::new(format!("node{row}")), cluster.obs())
                    .map_err(|e| format!("cannot bind --relay-addr {relay_addr}: {e}"))?;
            eprintln!(
                "spindle-node: n{row} relaying external clients on {}",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    let deadline = started + run.deadline;
    let mut sent = 0u32;
    let mut own_delivered = 0u64;
    let mut last_delivery = Instant::now();
    let mut got: Vec<Delivered> = Vec::with_capacity(expected as usize);
    loop {
        // Sponsor duty: serve joiners that dialed our listener. The
        // leader commits them (blocking this loop through the epoch
        // transition — the predicate thread does the protocol work);
        // everyone else redirects. A persistent sponsor ships its
        // durable-log tail as the state-transfer snapshot.
        while let Ok(req) = fabric.join_requests().try_recv() {
            let joiner = req.addr.clone();
            let tail = sponsor_tail(persist_dir.as_ref());
            match join::serve_join(req, &mut cluster, row, &tail) {
                Ok(out) => eprintln!("spindle-node: n{row} served join of {joiner}: {out:?}"),
                Err(e) => eprintln!("spindle-node: n{row} join control to {joiner} failed: {e}"),
            }
        }
        // Relay duty: republish external client samples into the
        // multicast (so they inherit the total order) and ack each.
        if let Some(server) = &relay {
            while let Ok(req) = server.requests().try_recv() {
                let status = if (req.topic as usize) >= n_subgroups {
                    1 // not a topic this cluster carries
                } else {
                    match cluster
                        .node(row)
                        .send(SubgroupId(req.topic as usize), &req.data)
                    {
                        Ok(()) => 0,
                        Err(_) => 2,
                    }
                };
                server.pub_ack(req.client, req.topic, status);
            }
        }
        if i_send && sent < run.sends {
            let p = payload(row, sent, run.payload, run.seed);
            match cluster.node(row).try_send(SubgroupId(0), &p) {
                Ok(true) => sent += 1,
                Ok(false) => {}
                Err(e) => return Err(format!("send failed: {e}")),
            }
        }
        if let Some(d) = cluster.node(row).recv_timeout(Duration::from_millis(5)) {
            if let Some(server) = &relay {
                server.fanout(
                    d.subgroup.0 as u8,
                    d.sender_rank as u32,
                    d.app_index,
                    d.epoch,
                    &d.data,
                );
            }
            if d.data.len() >= 4
                && u32::from_le_bytes(d.data[..4].try_into().expect("4-byte header")) == row as u32
            {
                own_delivered += 1;
            }
            got.push(d);
            last_delivery = Instant::now();
            if run.crash_after > 0 && got.len() >= run.crash_after {
                eprintln!(
                    "spindle-node: n{row} aborting after {} deliveries (--crash-after-delivered)",
                    got.len()
                );
                std::process::abort();
            }
        }
        let done = if run.serve > Duration::ZERO {
            started.elapsed() >= run.serve
        } else if min_epoch > 0 {
            (!i_send || sent == run.sends)
                && cluster.node(row).epoch() >= min_epoch
                && own_delivered >= u64::from(if i_send { run.sends } else { 0 })
                && last_delivery.elapsed() >= run.quiesce
        } else {
            got.len() as u64 >= expected
        };
        if done {
            break;
        }
        if Instant::now() > deadline {
            for d in &got {
                eprintln!("trace n{row}: {}", trace_line(d));
            }
            return Err(format!(
                "n{row}: delivered only {}/{expected} (epoch {}) within {:?} (trace above)",
                got.len(),
                cluster.node(row).epoch(),
                run.deadline
            ));
        }
    }
    let makespan = started.elapsed();

    if let Some(path) = &run.trace_out {
        let mut out = String::with_capacity(got.len() * 48);
        for d in &got {
            out.push_str(&trace_line(d));
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let stats = fabric.wire_stats();
    let (vc_count, vc_time) = cluster.node(row).view_change_stats();
    println!("n{row} wire-threads: {}", wire_thread_count());
    print!(
        "n{row} per-epoch stats:\n{}",
        render_epoch_table(&epoch_stats_for_node(cluster.obs().registry(), row))
    );
    println!(
        "n{row} delivered {} msgs (epoch {}) in {:.3}s | wire: {} frames posted, {} received, {} B sent, {} B received, {} drops, {} connects | view-changes: {} in {} us | catch-up: {} B | {:.3} Mmsg/s",
        got.len(),
        cluster.node(row).epoch(),
        makespan.as_secs_f64(),
        stats.frames_posted,
        stats.frames_received,
        stats.bytes_sent,
        stats.bytes_received,
        stats.frames_dropped,
        stats.reconnects,
        vc_count,
        vc_time.as_micros(),
        catchup_bytes,
        got.len() as f64 / makespan.as_secs_f64() / 1e6,
    );
    let _ = std::io::stdout().flush();

    // Keep serving acks while the peers finish, then shut down.
    std::thread::sleep(run.linger);
    cluster.shutdown();
    Ok(())
}
