//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! spindle-benchmark --workload W --seed N --seconds S --trace 0|1
//! spindle-benchmark run [--seed N] [--seconds S | --quick] [--runs R] [--sets K]
//! spindle-benchmark layers
//! spindle-benchmark compare A.json B.json
//! ```

mod compare;
mod datadir;
mod driver;
mod json;
mod layers;
mod oracle;
mod stats;
mod stepper;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use spindle_core::Cluster;
use spindle_fabric::Fabric;
use spindle_net::WireStats;
use spindle_obs::{names, HistogramSnapshot};

use datadir::DataDir;
use driver::{Load, Phases, Report};
use workloads::{Spec, Transport, NODES};

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand for building metric lists.
pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Every per-layer metric a traced run prints; `BENCHMARK.json` lists the
/// same names, and a traced run that produces another set fails.
pub const PER_LAYER: [&str; 68] = [
    "core.proto.deliv_pred_ns_per_msg",
    "core.proto.msgs_per_deliv_batch",
    "core.proto.msgs_per_send_batch",
    "core.proto.nulls_per_msg",
    "core.proto.posts_per_msg",
    "core.proto.queue_ns_per_msg",
    "core.proto.recv_pred_ns_per_msg",
    "core.proto.send_pred_ns_per_msg",
    "core.threaded.deliveries_per_drain",
    "core.threaded.drain_ns_per_msg",
    "core.threaded.quiesce_stalls",
    "core.threaded.registry_lat_p50_us",
    "core.threaded.start_ms",
    "core.threaded.try_send_ns_p50",
    "core.threaded.try_send_ns_p99",
    "core.viewchange.admit_ms_p50",
    "core.viewchange.remove_ms_p50",
    "dds.publish_take_us",
    "driver.lat_max_ms",
    "driver.lat_p999_us",
    "driver.lat_p99_us",
    "driver.late_p99_us",
    "driver.paced_cpu_us_per_msg",
    "driver.window_full_ratio",
    "fabric.mem_post_10k_ns",
    "fabric.mem_post_ack_ns",
    "fabric.post_ns_per_msg",
    "fabric.torn_reads_ppm",
    "membership.nulls_owed_ns",
    "membership.prefix_complete_16_ns",
    "membership.seq_roundtrip_ns",
    "net.edge.encode_sample_ns",
    "net.edge.fanout_2sub_us",
    "net.tcp.frames_dropped",
    "net.tcp.frames_per_flush",
    "net.tcp.frames_per_msg",
    "net.tcp.mesh_connect_ms",
    "net.tcp.post_enqueue_8b_ns",
    "net.tcp.post_visible_4k_us",
    "net.tcp.post_visible_8b_us",
    "net.tcp.wire_bytes_per_msg",
    "net.wire.decode_1k_ns",
    "net.wire.encode_1k_ns",
    "obs.counter_inc_ns",
    "obs.hist_record_ns",
    "obs.render_us",
    "persist.append_256_ns",
    "persist.bytes_per_msg",
    "persist.crc32_10k_ns",
    "persist.replay_krec_s",
    "persist.sync_us",
    "rdmc.pipeline_execute_8n_64k_us",
    "sim.deliv_batch_mean",
    "sim.nulls_per_msg",
    "sim.run_ms",
    "sim.send_batch_mean",
    "sim.writes_per_msg",
    "smc.ranges_wrap_ns",
    "smc.scan_32_new_ns",
    "smc.scan_empty_ns",
    "sst.copy_out_ns_per_msg",
    "sst.read_slot_10k_ns",
    "sst.set_counter_ns",
    "sst.slot_header_ns",
    "sst.write_slot_10k_ns",
    "sst.write_slot_64_ns",
    "trace.overhead_share",
    "trace.unaccounted_share",
];

/// Measuring time of one run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;
/// `run --quick`: half a second per bring-up.
const QUICK_SECONDS: f64 = 8.0;

/// Runs `spec` on its transport and reads the [R] per-layer numbers — the
/// driver's own counts and the program's public counters — before shutting
/// the last cluster down.
fn pass(spec: &Spec, seed: u64, seconds: f64, time_calls: bool) -> (Report, Vec<Metric>) {
    let phases = Phases::of(seconds);
    match spec.transport {
        Transport::Mem => {
            let (report, load) = driver::run(spec, seed, &phases, time_calls, || {
                (workloads::start_mem(spec), None)
            });
            read_counters(report, load, WireStats::default())
        }
        Transport::Tcp => {
            let (report, load) = driver::run(spec, seed, &phases, time_calls, || {
                (workloads::start_tcp(spec), None)
            });
            let wire = load.cluster.fabric().wire_stats_total();
            read_counters(report, load, wire)
        }
        Transport::MemPersist => {
            let (report, load) = driver::run(spec, seed, &phases, time_calls, || {
                let dir = DataDir::create(spec.name).expect("create data dir under benchmark/out");
                let cluster = workloads::start_persistent(spec, dir.path());
                (cluster, Some(dir))
            });
            read_counters(report, load, WireStats::default())
        }
    }
}

/// How long the torn-read probe of a traced run sends.
const PROBE: Duration = Duration::from_secs(3);

/// [`driver::torn_reads_ppm`] on `spec`'s transport.
fn torn_reads_ppm(spec: &Spec, seed: u64) -> f64 {
    match spec.transport {
        Transport::Mem => {
            driver::torn_reads_ppm(spec, seed, PROBE, || (workloads::start_mem(spec), None))
        }
        Transport::Tcp => {
            driver::torn_reads_ppm(spec, seed, PROBE, || (workloads::start_tcp(spec), None))
        }
        Transport::MemPersist => driver::torn_reads_ppm(spec, seed, PROBE, || {
            let dir = DataDir::create(spec.name).expect("create data dir under benchmark/out");
            let cluster = workloads::start_persistent(spec, dir.path());
            (cluster, Some(dir))
        }),
    }
}

/// Sums a per-node counter family of the program's registry.
fn counter_sum<F: Fabric>(cluster: &Cluster<F>, name: &str) -> u64 {
    (0..NODES)
        .filter_map(|n| {
            cluster
                .obs()
                .registry()
                .counter_value(name, &[("node", &n.to_string())])
        })
        .sum()
}

/// Merges an epoch-0 histogram family of the program's registry over the
/// nodes.
fn histogram_sum<F: Fabric>(cluster: &Cluster<F>, name: &str) -> HistogramSnapshot {
    let mut all = HistogramSnapshot::default();
    for n in 0..NODES {
        let labels = [("node", &*n.to_string()), ("epoch", "0")];
        if let Some(h) = cluster.obs().registry().histogram_snapshot(name, &labels) {
            all.merge(&h);
        }
    }
    all
}

fn read_counters<F: Fabric>(
    report: Report,
    load: Load<F>,
    wire: WireStats,
) -> (Report, Vec<Metric>) {
    let c = &load.cluster;
    let msgs = load.sent_total().max(1) as f64;
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let appended = counter_sum(c, names::PERSIST_APPENDED);
    let us_at = |sorted: &[u64], q: f64| stats::percentile(sorted, q) as f64 / 1e3;
    let counters = vec![
        metric(
            "driver.window_full_ratio",
            report.window_full_ratio,
            "ratio",
        ),
        metric(
            "driver.late_p99_us",
            us_at(&report.paced_late_ns, 0.99),
            "us",
        ),
        metric("driver.lat_p99_us", us_at(&report.paced_lat_ns, 0.99), "us"),
        metric(
            "driver.lat_p999_us",
            us_at(&report.paced_lat_ns, 0.999),
            "us",
        ),
        metric(
            "driver.lat_max_ms",
            us_at(&report.paced_lat_ns, 1.0) / 1e3,
            "ms",
        ),
        metric(
            "driver.paced_cpu_us_per_msg",
            report.paced_cpu_us_per_msg,
            "us",
        ),
        metric(
            "core.threaded.deliveries_per_drain",
            report.deliveries_per_drain,
            "count",
        ),
        metric(
            "core.threaded.registry_lat_p50_us",
            histogram_sum(c, names::DELIVERY_LATENCY).percentile(0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "core.threaded.quiesce_stalls",
            report.quiesce_stalls as f64,
            "count",
        ),
        metric(
            "net.tcp.frames_per_msg",
            wire.frames_posted as f64 / msgs,
            "count",
        ),
        metric(
            "net.tcp.wire_bytes_per_msg",
            wire.bytes_sent as f64 / msgs,
            "B",
        ),
        metric(
            "net.tcp.frames_per_flush",
            per(wire.frames_received, wire.flushes),
            "count",
        ),
        metric(
            "net.tcp.frames_dropped",
            wire.frames_dropped as f64,
            "count",
        ),
        metric(
            "persist.bytes_per_msg",
            per(counter_sum(c, names::PERSIST_APPENDED_BYTES), appended),
            "B",
        ),
    ];
    drop(load);
    (report, counters)
}

/// The end-to-end metrics of one report, in `BENCHMARK.json` order.
fn end_to_end(r: &Report) -> Vec<Metric> {
    vec![
        metric("setup_s", r.setup_s, "s"),
        metric("goodput_msgs_s", r.goodput_msgs_s, "msg/s"),
        metric("lat_p50_us", r.lat_p50_us, "us"),
        metric("lat_p90_us", r.lat_p90_us, "us"),
        metric("cpu_us_per_msg", r.cpu_us_per_msg, "us"),
        metric("rss_mb", r.rss_mb, "MB"),
    ]
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The last line of a driver-contract run.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn describe(spec: &Spec, seed: u64, seconds: f64) {
    let p = Phases::of(seconds);
    println!(
        "workload {}: {} ({} of {NODES} senders, {} B, window {}), seed {seed}",
        spec.name,
        match spec.transport {
            Transport::Mem => "MemFabric",
            Transport::Tcp => "loopback TCP",
            Transport::MemPersist =>
                "MemFabric + durable log under benchmark/out (SyncPolicy::Never)",
        },
        spec.active,
        spec.payload,
        workloads::WINDOW
    );
    println!("  why: {}", spec.why);
    println!(
        "  {} bring-ups, each: warm-up {:.2} s, saturation {:.2} s closed loop, paced {:.2} s \
         open loop at {} msg/s; one driver thread, {} cpus",
        driver::INSTANCES,
        p.warm.as_secs_f64(),
        p.saturation.as_secs_f64(),
        p.paced.as_secs_f64(),
        driver::PACED_RATE,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "  no message delay injected: latency here is processor and scheduler time, not wire time"
    );
}

fn print_report(r: &Report) {
    print_metrics("end-to-end (tracing off)", &end_to_end(r));
    println!(
        "  samples: every figure is the median over {} bring-ups; \
         goodput counted {} msgs, latency {} msgs",
        r.instances,
        r.saturation_msgs,
        r.paced_lat_ns.len()
    );
    let rates: Vec<String> = r.goodput_each.iter().map(|x| format!("{x:.0}")).collect();
    println!("  goodput per bring-up: {}", rates.join(" "));
    println!(
        "  attempted {} failed {} (failed_ratio {:.3e}): {} sends refused, {} never delivered at \
         every member, {} ordering violations, {} deliveries with wrong bytes",
        r.attempted,
        r.failed,
        r.failed_ratio(),
        r.send_errors,
        r.undelivered,
        r.order_violations,
        r.wrong_payloads
    );
    println!(
        "  {} nudges (nothing delivered for 20 ms, a sender handed two fillers), \
         {} bring-ups given up",
        r.quiesce_stalls, r.given_up
    );
    if r.data_dir_bytes > 0 {
        println!("  data dir held {} bytes", r.data_dir_bytes);
    }
    if let Some(v) = &r.first_violation {
        println!("  ORACLE: {v}");
    }
}

/// `--workload W --seed N --seconds S --trace 0`: the end-to-end run.
fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> ExitCode {
    describe(spec, seed, seconds);
    let (report, counters) = pass(spec, seed, seconds, false);
    print_report(&report);
    print_metrics("read from the program's counters after the run", &counters);
    let correct = report.correct();
    println!(
        "{}",
        result_line(
            correct,
            report.attempted,
            report.failed,
            &end_to_end(&report)
        )
    );
    exit_code(correct)
}

/// `--workload W --trace 1`: every per-layer metric — the fixed-iteration
/// layer timings, the single-threaded stepper, and a call-timed pass of the
/// threaded workload.
fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> ExitCode {
    describe(spec, seed, seconds);
    let mut all = layers::measure();
    let stepped = stepper::run(spec, seed);
    all.extend(stepped.metrics);
    // Half the measuring time: the other half went to the two parts above.
    let (mut report, counters) = pass(spec, seed, seconds / 2.0, true);
    print_report(&report);
    let calls = report.calls.take().expect("call-timed pass");
    let mut sends = calls.try_send_ns;
    sends.sort_unstable();
    all.push(metric(
        "core.threaded.try_send_ns_p50",
        stats::percentile(&sends, 0.5) as f64,
        "ns",
    ));
    all.push(metric(
        "core.threaded.try_send_ns_p99",
        stats::percentile(&sends, 0.99) as f64,
        "ns",
    ));
    all.push(metric(
        "core.threaded.drain_ns_per_msg",
        calls.drain_ns as f64 / sends.len().max(1) as f64 / NODES as f64,
        "ns",
    ));
    all.extend(counters);
    all.push(metric(
        "fabric.torn_reads_ppm",
        torn_reads_ppm(spec, seed),
        "ppm",
    ));
    all.sort_by(|a, b| a.name.cmp(&b.name));
    print_metrics("per-layer", &all);
    println!("  spans written to {}", stepped.trace_file.display());
    let names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, PER_LAYER, "traced run and metric catalogue disagree");
    let correct = report.correct() && stepped.correct;
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &all)
    );
    exit_code(correct)
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    sets: usize,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        sets: 1,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        let num = |s: String, what: &str| {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{what}: `{s}` is not a number"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                let s = value("--seed")?;
                a.seed = s
                    .parse()
                    .map_err(|_| format!("--seed: `{s}` is not a number"))?;
            }
            "--seconds" => a.seconds = num(value("--seconds")?, "--seconds")?.max(1.0),
            "--quick" => a.seconds = QUICK_SECONDS,
            "--trace" => a.trace = num(value("--trace")?, "--trace")? != 0.0,
            "--runs" => a.runs = num(value("--runs")?, "--runs")?.max(1.0) as usize,
            "--sets" => a.sets = num(value("--sets")?, "--sets")?.max(1.0) as usize,
            other => a.rest.push(other.to_owned()),
        }
    }
    Ok(a)
}

fn spec_of(a: &Args) -> Result<Spec, String> {
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("run" | "layers" | "compare")) => (c, &argv[1..]),
        _ => ("", argv),
    };
    let a = parse(rest)?;
    std::fs::create_dir_all(datadir::out_dir()).map_err(|e| format!("benchmark/out: {e}"))?;
    datadir::sweep_stale();
    match command {
        "run" => compare::run_sets(&a.rest, a.seed, a.seconds, a.runs, a.sets),
        "layers" => {
            print_metrics("per-layer, fixed-iteration timings", &layers::measure());
            Ok(ExitCode::SUCCESS)
        }
        "compare" => compare::compare(&a.rest),
        _ if a.trace => Ok(run_traced(&spec_of(&a)?, a.seed, a.seconds)),
        _ => Ok(run_untraced(&spec_of(&a)?, a.seed, a.seconds)),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("spindle-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
