//! The traced run's single-threaded stepper: the protocol of one workload
//! driven through its public calls by one thread, in the order the predicate
//! thread uses, with a span around every call.
//!
//! It builds exactly what `Cluster::start*` builds per node — `View` →
//! `Plan::build` → fabric → one `Sst` and one `SubgroupProto` per node — and
//! then plays every node's turn itself, so nothing races and its counts
//! repeat exactly. What the threaded runtime adds on top (locks, the
//! delivery channel, scheduling) is what the end-to-end run measures and
//! this does not.

use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use spindle_core::proto::QueueOutcome;
use spindle_core::{Plan, SubgroupProto};
use spindle_fabric::{Fabric, FaultPlan, MemFabric, NodeId, WriteOp};
use spindle_membership::SubgroupId;
use spindle_net::TcpFabricGroup;
use spindle_persist::{DurableLog, LogRecord, PersistOptions};
use spindle_sim::DetRng;
use spindle_sst::Sst;

use crate::datadir::{self, DataDir};
use crate::oracle::Oracle;
use crate::workloads::{Spec, Transport, NODES};
use crate::{json, metric, Metric};

/// Messages one stepper run pushes through, over all active senders.
const MESSAGES: u64 = 6_000;
/// Messages an active sender queues per round, cycling: the paced phase of
/// the threaded run sees batches of one, saturation sees larger ones.
const BURSTS: [u64; 4] = [1, 2, 4, 8];
const NO_PARENT: u32 = u32::MAX;

/// One timed call. `id` is the span's index in the trace.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    round: u32,
    node: u8,
    /// Messages the call covered.
    msgs: u32,
}

/// Spans kept in memory; with `on == false` calls run untimed, which is how
/// the tracing overhead is measured.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    round: u32,
    round_span: u32,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin_round(&mut self, round: u32) {
        self.round = round;
        if self.on {
            self.round_span = self.spans.len() as u32;
            let now = self.now_ns();
            self.spans.push(Span {
                name: "round",
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                round,
                node: 0,
                msgs: 0,
            });
        }
    }

    fn end_round(&mut self, msgs: u32) {
        if self.on {
            let now = self.now_ns();
            let span = &mut self.spans[self.round_span as usize];
            span.end_ns = now;
            span.msgs = msgs;
        }
    }

    /// Runs `f` as a child of the current round; `f` returns its result and
    /// the number of messages it covered.
    fn call<R>(&mut self, name: &'static str, node: usize, f: impl FnOnce() -> (R, u32)) -> R {
        if !self.on {
            return f().0;
        }
        let start_ns = self.now_ns();
        let (result, msgs) = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.round_span,
            round: self.round,
            node: node as u8,
            msgs,
        });
        result
    }
}

/// Exact counts of one stepper run.
#[derive(Default, PartialEq, Debug)]
struct Counts {
    queued: u64,
    posts: u64,
    nulls: u64,
    send_batches: u64,
    sent: u64,
    delivery_batches: u64,
    delivered: u64,
}

struct Stepper<F: Fabric> {
    fabric: F,
    ssts: Vec<Sst>,
    protos: Vec<SubgroupProto>,
    /// One durable log per node on the persistent workload.
    logs: Vec<Option<DurableLog>>,
    /// Loopback TCP places asynchronously: wait for each post to land so the
    /// next node's turn sees what the threaded run would eventually see.
    wait_visible: bool,
    active: usize,
    payload: Vec<u8>,
    counts: Counts,
    oracle: Oracle,
}

impl<F: Fabric> Stepper<F> {
    fn new(spec: &Spec, seed: u64, dir: Option<&DataDir>, fabric_of: impl Fn(usize) -> F) -> Self {
        let view = spec.view();
        let plan = Plan::build(&view, true);
        let fabric = fabric_of(plan.layout.region_words());
        let ssts: Vec<Sst> = (0..NODES)
            .map(|n| {
                let sst = Sst::new(plan.layout.clone(), fabric.region_arc(NodeId(n)), n);
                sst.init();
                sst
            })
            .collect();
        let protos = (0..NODES)
            .map(|n| SubgroupProto::new(&view, SubgroupId(0), plan.cols[0], n))
            .collect();
        let logs = (0..NODES)
            .map(|n| {
                dir.map(|d| {
                    DurableLog::open_with(&PersistOptions::new(d.path()), &format!("node{n}-g0"))
                        .expect("open durable log")
                        .0
                })
            })
            .collect();
        let mut rng = DetRng::seed(seed);
        let mut payload = vec![0u8; spec.payload];
        for chunk in payload.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        Stepper {
            fabric,
            ssts,
            protos,
            logs,
            wait_visible: spec.transport == Transport::Tcp,
            active: spec.active,
            payload,
            counts: Counts::default(),
            oracle: Oracle::new(NODES, NODES),
        }
    }

    /// Queues up to `burst` messages at `node`; stops at a full window.
    fn queue(&mut self, tracer: &mut Tracer, node: usize, burst: u64) {
        for _ in 0..burst {
            let index = self.protos[node].app_sent;
            self.payload[..8].copy_from_slice(&index.to_le_bytes());
            let (sst, proto, payload) = (&self.ssts[node], &mut self.protos[node], &self.payload);
            let outcome = tracer.call("core.proto.queue", node, || {
                (
                    proto.try_queue_app(sst, payload.len() as u32, Some(payload)),
                    1,
                )
            });
            if outcome == QueueOutcome::WindowFull {
                return;
            }
            self.counts.queued += 1;
        }
    }

    /// One node's turn: the three predicates in `predicate_thread`'s order,
    /// then the writes they asked for.
    fn turn(&mut self, tracer: &mut Tracer, node: usize) {
        let sst = self.ssts[node].clone();
        let members = self.protos[node].member_rows.clone();
        let mut pushes: Vec<Range<usize>> = Vec::new();

        let proto = &mut self.protos[node];
        let r = tracer.call("core.proto.receive", node, || {
            let r = proto.receive_predicate(&sst, true, true, false);
            let rounds = r.new_rounds as u32;
            (r, rounds)
        });
        self.counts.nulls += r.nulls_added;
        pushes.extend(r.ack);

        if proto.my_sender_rank.is_some() {
            let s = tracer.call("core.proto.send", node, || {
                let s = proto.send_predicate(&sst, true, true);
                let msgs = s.as_ref().map_or(0, |s| s.app_msgs as u32);
                (s, msgs)
            });
            if let Some(s) = s {
                if s.app_msgs > 0 {
                    self.counts.send_batches += 1;
                    self.counts.sent += s.app_msgs;
                }
                pushes.extend(s.slot_ranges);
                pushes.extend(s.committed_push);
            }
        }

        let d = tracer.call("core.proto.deliver", node, || {
            let d = proto.delivery_predicate(&sst, true);
            let msgs = d.deliveries.len() as u32;
            (d, msgs)
        });
        if !d.deliveries.is_empty() {
            self.counts.delivery_batches += 1;
            self.counts.delivered += d.deliveries.len() as u64;
        }
        let (slots, sender_rows, pers) =
            (proto.cols.slots, proto.sender_rows.clone(), proto.cols.pers);
        for del in &d.deliveries {
            let data = tracer.call("sst.read_slot", node, || {
                let row = sender_rows[del.rank];
                (
                    sst.read_slot_with_len(slots, row, del.slot, del.len as usize),
                    1,
                )
            });
            let intact = data.len() == self.payload.len()
                && data[..8] == del.app_index.to_le_bytes()
                && data[8..] == self.payload[8..];
            self.oracle.observe(node, del.rank, del.app_index, intact);
            if let Some(log) = self.logs[node].as_mut() {
                let record = LogRecord {
                    epoch: 0,
                    subgroup: 0,
                    seq: del.seq,
                    sender_rank: del.rank as u32,
                    app_index: del.app_index,
                    data,
                };
                tracer.call("persist.append", node, || {
                    (log.append(&record).expect("append to durable log"), 1)
                });
            }
        }
        // No sync span: the workload never fsyncs under load either.
        if let (Some(_), Some(last)) = (self.logs[node].as_ref(), d.deliveries.last()) {
            pushes.push(sst.set_counter(pers, last.seq));
        }
        pushes.extend(d.ack);

        for range in pushes {
            for &m in members.iter().filter(|&&m| m != node) {
                let op = WriteOp::new(NodeId(m), range.clone());
                let fabric = &self.fabric;
                tracer.call("fabric.post", node, || (fabric.post(NodeId(node), &op), 0));
                self.counts.posts += 1;
                if self.wait_visible {
                    let (src, dst) = (sst.region(), fabric.region_arc(NodeId(m)));
                    tracer.call("net.tcp.wait_visible", node, || {
                        while !range.clone().all(|w| dst.load(w) == src.load(w)) {
                            std::thread::yield_now();
                        }
                        ((), 0)
                    });
                }
            }
        }
    }

    /// Steps rounds until [`MESSAGES`] messages are delivered at every node.
    fn steps(&mut self, tracer: &mut Tracer) {
        let per_sender = MESSAGES / self.active as u64;
        let mut round = 0u32;
        while self.counts.delivered < per_sender * self.active as u64 * NODES as u64 {
            let delivered0 = self.counts.delivered;
            tracer.begin_round(round);
            for node in 0..self.active {
                let left = per_sender - self.protos[node].app_sent;
                let burst = BURSTS[round as usize % BURSTS.len()].min(left);
                self.queue(tracer, node, burst);
            }
            for node in 0..NODES {
                self.turn(tracer, node);
            }
            tracer.end_round((self.counts.delivered - delivered0) as u32);
            round += 1;
            assert!(round < 1_000_000, "stepper does not converge");
        }
    }
}

/// What the stepper produced.
pub struct Stepped {
    pub metrics: Vec<Metric>,
    pub trace_file: PathBuf,
    pub correct: bool,
}

/// One stepper run on transport `F`; returns its spans, counts, wall time
/// and oracle verdict.
fn one_run<F: Fabric>(
    spec: &Spec,
    seed: u64,
    spans_on: bool,
    fabric_of: impl Fn(usize) -> F,
) -> (Vec<Span>, Counts, u64, u64) {
    let dir = (spec.transport == Transport::MemPersist)
        .then(|| DataDir::create("stepper").expect("scratch dir under benchmark/out"));
    let mut stepper = Stepper::new(spec, seed, dir.as_ref(), fabric_of);
    let mut tracer = Tracer {
        on: spans_on,
        t0: Instant::now(),
        spans: Vec::new(),
        round: 0,
        round_span: NO_PARENT,
    };
    stepper.steps(&mut tracer);
    let wall_ns = tracer.now_ns();
    let violations = stepper.oracle.order_violations() + stepper.oracle.wrong_payloads();
    (tracer.spans, stepper.counts, wall_ns, violations)
}

fn on_transport(spec: &Spec, seed: u64, spans_on: bool) -> (Vec<Span>, Counts, u64, u64) {
    match spec.transport {
        Transport::Tcp => one_run(spec, seed, spans_on, |words| {
            TcpFabricGroup::loopback(NODES, words, FaultPlan::new()).expect("loopback TCP mesh")
        }),
        Transport::Mem | Transport::MemPersist => {
            one_run(spec, seed, spans_on, |words| MemFabric::new(NODES, words))
        }
    }
}

fn write_trace(name: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let path = datadir::out_dir().join(format!("trace-{name}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "[")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            NO_PARENT => "null".to_owned(),
            p => p.to_string(),
        };
        let comma = if id + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"round\": {}, \"node\": {}, \"msgs\": {}}}{comma}",
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            s.round,
            s.node,
            s.msgs
        )?;
    }
    writeln!(out, "]")?;
    out.flush()?;
    Ok(path)
}

/// Runs the stepper for `spec` twice — spans off, then spans on — and
/// reports per-message self times, exact counts, what no child span explains
/// and what the spans cost.
pub fn run(spec: &Spec, seed: u64) -> Stepped {
    let (_, counts_off, wall_off_ns, _) = on_transport(spec, seed, false);
    let (spans, counts, wall_on_ns, violations) = on_transport(spec, seed, true);
    let trace_file = write_trace(spec.name, &spans).expect("write trace under benchmark/out");

    let total_ns = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    };
    let rounds_ns = total_ns("round");
    let children_ns: u64 = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let msgs = counts.sent.max(1) as f64;
    let per_msg = |name: &str| total_ns(name) as f64 / msgs;

    println!(
        "stepper: {} messages in {} rounds, {} spans, {:.1} ms with spans, {:.1} ms without",
        counts.sent,
        spans.iter().filter(|s| s.name == "round").count(),
        spans.len(),
        wall_on_ns as f64 / 1e6,
        wall_off_ns as f64 / 1e6
    );
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names.iter().filter(|n| **n != "round") {
        let calls = spans.iter().filter(|s| s.name == *name).count();
        println!(
            "  span {:<24} {:>8} calls {:>10.3} ms {:>10.1} ns/msg",
            name,
            calls,
            total_ns(name) as f64 / 1e6,
            per_msg(name)
        );
    }

    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let metrics = vec![
        metric(
            "core.proto.queue_ns_per_msg",
            per_msg("core.proto.queue"),
            "ns",
        ),
        metric(
            "core.proto.send_pred_ns_per_msg",
            per_msg("core.proto.send"),
            "ns",
        ),
        metric(
            "core.proto.recv_pred_ns_per_msg",
            per_msg("core.proto.receive"),
            "ns",
        ),
        metric(
            "core.proto.deliv_pred_ns_per_msg",
            per_msg("core.proto.deliver"),
            "ns",
        ),
        metric(
            "core.proto.posts_per_msg",
            ratio(counts.posts, counts.sent),
            "count",
        ),
        metric(
            "core.proto.nulls_per_msg",
            ratio(counts.nulls, counts.sent),
            "count",
        ),
        metric(
            "core.proto.msgs_per_send_batch",
            ratio(counts.sent, counts.send_batches),
            "count",
        ),
        metric(
            "core.proto.msgs_per_deliv_batch",
            ratio(counts.delivered, counts.delivery_batches),
            "count",
        ),
        metric(
            "sst.copy_out_ns_per_msg",
            ratio(total_ns("sst.read_slot"), counts.delivered),
            "ns",
        ),
        metric("fabric.post_ns_per_msg", per_msg("fabric.post"), "ns"),
        metric(
            "trace.unaccounted_share",
            ratio(rounds_ns.saturating_sub(children_ns), rounds_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            ratio(wall_on_ns.saturating_sub(wall_off_ns), wall_on_ns),
            "ratio",
        ),
    ];
    let complete = counts.queued == counts.sent && counts.delivered == counts.sent * NODES as u64;
    Stepped {
        metrics,
        trace_file,
        correct: violations == 0 && complete && counts == counts_off,
    }
}
