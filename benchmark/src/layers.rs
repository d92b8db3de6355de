//! Per-layer timings taken from outside: single-threaded, fixed-iteration
//! timing of calls into each crate's public functions ([L] in the README).
//!
//! These are guards and attribution aids, not gates: a change to one layer
//! should move its rows here and the end-to-end metric the README names for
//! it, and leave the other rows flat.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spindle_core::{AdmitRequest, Cluster, SimCluster, SpindleConfig, Workload};
use spindle_dds::{DomainBuilder, QosLevel, TopicId};
use spindle_fabric::{Fabric, FaultPlan, MemFabric, NodeId, Region, WriteOp};
use spindle_membership::{nulls_owed, MsgId, SeqSpace, SubgroupId, ViewBuilder};
use spindle_net::edge::{encode_sample, encode_subscribe, EdgeAssembler, EdgeConfig, EdgeFrame};
use spindle_net::wire::{decode_frame, encode_write_frame, WriteFrame};
use spindle_net::{EdgeServer, TcpFabricGroup};
use spindle_obs::{ObsPlane, Registry};
use spindle_persist::{all_records_sorted, crc32, DurableLog, LogRecord, PersistOptions};
use spindle_rdmc::{executor::execute, Rdmc, ScheduleKind};
use spindle_smc::{scan_new, Ring};
use spindle_sst::{CounterCol, LayoutBuilder, SlotsCol, Sst};

use std::hint::black_box;

use crate::datadir::DataDir;
use crate::stats::median;
use crate::workloads::{NODES, WINDOW};
use crate::{metric, Metric};

/// Timed batches per figure; the figure is their median.
const REPS: usize = 5;
/// Records in the log `persist.replay_krec_s` replays.
const REPLAY_RECORDS: u64 = 200_000;

/// Median nanoseconds per call over [`REPS`] batches of `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Median milliseconds of `f` over [`REPS`] calls.
fn ms_per_call(mut f: impl FnMut()) -> f64 {
    ns_per_call(1, &mut f) / 1e6
}

fn one_row_sst(window: usize, max_msg: usize) -> (Sst, CounterCol, SlotsCol) {
    let mut b = LayoutBuilder::new();
    let counter = b.add_counter("received_num", -1);
    let slots = b.add_slots("smc", window, max_msg);
    let layout = Arc::new(b.finish(16));
    let sst = Sst::new(
        layout.clone(),
        Arc::new(Region::new(layout.region_words())),
        0,
    );
    sst.init();
    (sst, counter, slots)
}

fn sst(out: &mut Vec<Metric>) {
    let (sst, counter, slots) = one_row_sst(WINDOW, 10 * 1024);
    let mut v = 0i64;
    out.push(metric(
        "sst.set_counter_ns",
        ns_per_call(200_000, || {
            v += 1;
            black_box(sst.set_counter(counter, v));
        }),
        "ns",
    ));
    out.push(metric(
        "sst.slot_header_ns",
        ns_per_call(200_000, || {
            black_box(sst.slot_header(slots, 0, black_box(3)));
        }),
        "ns",
    ));
    let mut gen = 0u32;
    for (name, len, iters) in [
        ("sst.write_slot_64_ns", 64, 100_000),
        ("sst.write_slot_10k_ns", 10 * 1024, 2_000),
    ] {
        let payload = vec![0xABu8; len];
        out.push(metric(
            name,
            ns_per_call(iters, || {
                gen += 1;
                black_box(sst.write_slot(slots, gen as usize % WINDOW, gen, 7, &payload));
            }),
            "ns",
        ));
    }
    out.push(metric(
        "sst.read_slot_10k_ns",
        ns_per_call(2_000, || {
            black_box(sst.read_slot_with_len(slots, 0, black_box(5), 10 * 1024));
        }),
        "ns",
    ));
}

fn smc(out: &mut Vec<Metric>) {
    let (sst, _, slots) = one_row_sst(100, 64);
    let ring = Ring::new(100);
    for k in 0..32u64 {
        sst.write_slot(slots, ring.slot_of(k), ring.gen_of(k), k, b"x");
    }
    out.push(metric(
        "smc.scan_32_new_ns",
        ns_per_call(20_000, || {
            black_box(scan_new(&sst, slots, ring, 0, 0, 100));
        }),
        "ns",
    ));
    out.push(metric(
        "smc.scan_empty_ns",
        ns_per_call(200_000, || {
            black_box(scan_new(&sst, slots, ring, 0, 32, 100));
        }),
        "ns",
    ));
    out.push(metric(
        "smc.ranges_wrap_ns",
        ns_per_call(100_000, || {
            black_box(ring.contiguous_slot_ranges(black_box(90), 120));
        }),
        "ns",
    ));
}

fn membership(out: &mut Vec<Metric>) {
    let space = SeqSpace::new(16);
    let counts: Vec<u64> = (0..16).map(|i| 1000 + (i % 3)).collect();
    out.push(metric(
        "membership.nulls_owed_ns",
        ns_per_call(500_000, || {
            let newest = MsgId {
                rank: 11,
                index: black_box(1004),
            };
            black_box(nulls_owed(&space, 3, 999, newest));
        }),
        "ns",
    ));
    out.push(metric(
        "membership.prefix_complete_16_ns",
        ns_per_call(200_000, || {
            black_box(space.prefix_complete(black_box(&counts)));
        }),
        "ns",
    ));
    out.push(metric(
        "membership.seq_roundtrip_ns",
        ns_per_call(500_000, || {
            let m = space.msg_of(black_box(123_456));
            black_box(space.seq_of(m));
        }),
        "ns",
    ));
}

fn fabric(out: &mut Vec<Metric>) {
    let fabric = MemFabric::new(2, 4096);
    let ack = WriteOp::new(NodeId(1), 0..1);
    out.push(metric(
        "fabric.mem_post_ack_ns",
        ns_per_call(200_000, || fabric.post(NodeId(0), black_box(&ack))),
        "ns",
    ));
    let slot = WriteOp::new(NodeId(1), 0..1282);
    out.push(metric(
        "fabric.mem_post_10k_ns",
        ns_per_call(5_000, || fabric.post(NodeId(0), black_box(&slot))),
        "ns",
    ));
}

fn net_wire(out: &mut Vec<Metric>) {
    // One 1 KiB slot on the wire: two control words plus 128 payload words.
    let op = WriteOp::new(NodeId(1), 0..130);
    let frame = WriteFrame::for_op(&op, (0..130).collect());
    let mut buf = Vec::with_capacity(2048);
    out.push(metric(
        "net.wire.encode_1k_ns",
        ns_per_call(100_000, || {
            buf.clear();
            black_box(encode_write_frame(black_box(&frame), &mut buf));
        }),
        "ns",
    ));
    out.push(metric(
        "net.wire.decode_1k_ns",
        ns_per_call(100_000, || {
            black_box(decode_frame(black_box(&buf)).expect("frame decodes"));
        }),
        "ns",
    ));
}

fn net_tcp(out: &mut Vec<Metric>) {
    out.push(metric(
        "net.tcp.mesh_connect_ms",
        ms_per_call(|| {
            black_box(TcpFabricGroup::loopback(NODES, 1024, FaultPlan::new()).expect("mesh"));
        }),
        "ms",
    ));
    let fabric = TcpFabricGroup::loopback(2, 1024, FaultPlan::new()).expect("loopback pair");
    let (r0, r1) = (fabric.region_arc(NodeId(0)), fabric.region_arc(NodeId(1)));
    let mut v = 0u64;
    // Words land in increasing order, so the last word of the range being
    // visible means the whole write landed.
    for (name, range, iters) in [
        ("net.tcp.post_visible_8b_us", 0..1, 2_000),
        ("net.tcp.post_visible_4k_us", 1..513, 1_000),
    ] {
        let op = WriteOp::new(NodeId(1), range.clone());
        let last = range.end - 1;
        out.push(metric(
            name,
            ns_per_call(iters, || {
                v += 1;
                r0.store(last, v);
                fabric.post(NodeId(0), &op);
                while r1.load(last) != v {
                    std::thread::yield_now();
                }
            }) / 1e3,
            "us",
        ));
    }
    // The poster's side alone. Bursts are short and each is settled before
    // the next, so the outbound queue never reaches its shedding cap.
    let op = WriteOp::new(NodeId(1), 0..1);
    out.push(metric(
        "net.tcp.post_enqueue_8b_ns",
        ns_per_call(1, || {
            for _ in 0..256 {
                v += 1;
                r0.store(0, v);
                fabric.post(NodeId(0), &op);
            }
            while r1.load(0) != v {
                std::thread::yield_now();
            }
        }) / 256.0,
        "ns",
    ));
}

fn persist(out: &mut Vec<Metric>) {
    let payload = vec![0xA5u8; 10 * 1024];
    out.push(metric(
        "persist.crc32_10k_ns",
        ns_per_call(2_000, || {
            black_box(crc32(black_box(&payload)));
        }),
        "ns",
    ));
    let dir = DataDir::create("layers").expect("scratch dir under benchmark/out");
    let record = |seq: i64| LogRecord {
        epoch: 0,
        subgroup: 0,
        seq,
        sender_rank: 0,
        app_index: seq as u64,
        data: vec![0x5A; 256],
    };
    let mut seq = 0i64;
    {
        let opts = PersistOptions::new(dir.path().join("append"));
        let (mut log, _) = DurableLog::open_with(&opts, "bench").expect("open log");
        out.push(metric(
            "persist.append_256_ns",
            ns_per_call(20_000, || {
                seq += 1;
                log.append(&record(seq)).expect("append");
            }),
            "ns",
        ));
        out.push(metric(
            "persist.sync_us",
            ns_per_call(20, || {
                seq += 1;
                log.append(&record(seq)).expect("append");
                log.sync().expect("sync");
            }) / 1e3,
            "us",
        ));
    }
    // Recovery cost: a fixed segmented log, written once, replayed REPS times.
    let replay_dir = dir.path().join("replay");
    let opts = PersistOptions::new(&replay_dir).segment_cap(8 << 20);
    {
        let (mut log, _) = DurableLog::open_with(&opts, "node0-g0").expect("open log");
        for seq in 0..REPLAY_RECORDS as i64 {
            log.append(&record(seq)).expect("append");
        }
        log.sync().expect("sync");
    }
    let replay_ms = ms_per_call(|| {
        let records = all_records_sorted(&replay_dir).expect("replay");
        assert_eq!(records.len() as u64, REPLAY_RECORDS, "replay lost records");
        black_box(records);
    });
    out.push(metric(
        "persist.replay_krec_s",
        REPLAY_RECORDS as f64 / replay_ms,
        "krec/s",
    ));
    println!(
        "  persist layer timings wrote {} bytes under benchmark/out, removed on return",
        dir.bytes()
    );
}

fn obs(out: &mut Vec<Metric>) {
    let registry = Registry::new();
    let counter = registry.counter("bench_total", "bench", &[("node", "0")]);
    let hist = registry.histogram("bench_seconds", "bench", 1e-9, &[("node", "0")]);
    out.push(metric(
        "obs.counter_inc_ns",
        ns_per_call(1_000_000, || counter.inc()),
        "ns",
    ));
    let mut v = 0u64;
    out.push(metric(
        "obs.hist_record_ns",
        ns_per_call(1_000_000, || {
            v += 977;
            hist.record(black_box(v));
        }),
        "ns",
    ));
    // The shape a 3-node run leaves behind: a few families, a series per node.
    for node in ["0", "1", "2"] {
        for family in ["a_total", "b_total", "c_total"] {
            registry
                .counter(family, "bench", &[("node", node), ("epoch", "0")])
                .inc();
        }
        registry
            .histogram(
                "lat_seconds",
                "bench",
                1e-9,
                &[("node", node), ("epoch", "0")],
            )
            .record(1234);
    }
    out.push(metric(
        "obs.render_us",
        ns_per_call(200, || {
            black_box(registry.render_prometheus());
        }) / 1e3,
        "us",
    ));
}

/// A blocking loopback subscriber of the edge relay.
struct Subscriber {
    stream: TcpStream,
    assembler: EdgeAssembler,
}

impl Subscriber {
    /// Reads until the sample numbered `last` has arrived.
    fn read_through(&mut self, last: u64, buf: &mut [u8]) {
        loop {
            match self.assembler.next_frame().expect("valid edge stream") {
                Some(EdgeFrame::Sample { index, .. }) if index == last => return,
                Some(_) => {}
                None => {
                    let r = self.stream.read(buf).expect("read from relay");
                    assert!(r > 0, "relay closed the subscriber");
                    self.assembler.feed(&buf[..r]);
                }
            }
        }
    }
}

fn net_edge(out: &mut Vec<Metric>) {
    const TOPIC: u8 = 7;
    const BURST: usize = 16;
    let payload = vec![0xEEu8; 256];
    let mut frame = Vec::with_capacity(512);
    out.push(metric(
        "net.edge.encode_sample_ns",
        ns_per_call(200_000, || {
            frame.clear();
            black_box(encode_sample(
                TOPIC,
                0,
                9,
                0,
                black_box(&payload),
                &mut frame,
            ));
        }),
        "ns",
    ));
    let server = EdgeServer::bind(
        "127.0.0.1:0".parse().expect("loopback address"),
        EdgeConfig::new("bench"),
        &ObsPlane::new(),
    )
    .expect("bind edge relay");
    let mut subs: Vec<Subscriber> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut subscribe = Vec::new();
            encode_subscribe(TOPIC, &mut subscribe);
            stream.write_all(&subscribe).expect("subscribe");
            Subscriber {
                stream,
                assembler: EdgeAssembler::new(),
            }
        })
        .collect();
    // Subscriptions are applied by the relay's poller; wait until a probe
    // reaches both clients.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.fanout(TOPIC, 0, 0, 0, b"probe") != subs.len() {
        assert!(
            Instant::now() < deadline,
            "edge subscribers never registered"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = vec![0u8; 64 * 1024];
    // Probes reached whoever was subscribed by then, so the clients hold
    // uneven prefixes; reading through a burst's last index evens them out.
    let mut index = 0u64;
    let mut round = |subs: &mut Vec<Subscriber>| {
        for _ in 0..BURST {
            index += 1;
            assert_eq!(
                server.fanout(TOPIC, 0, index, 0, &payload),
                2,
                "subscriber lost"
            );
        }
        for s in subs.iter_mut() {
            s.read_through(index, &mut buf);
        }
    };
    round(&mut subs);
    out.push(metric(
        "net.edge.fanout_2sub_us",
        ns_per_call(200, || round(&mut subs)) / 1e3,
        "us",
    ));
}

fn dds(out: &mut Vec<Metric>) {
    let dir = DataDir::create("dds").expect("scratch dir under benchmark/out");
    let topic = TopicId(1);
    let domain = DomainBuilder::new(2)
        .topic(topic, &[0], &[1], QosLevel::AtomicMulticast)
        .log_dir(dir.path().to_path_buf())
        .start()
        .expect("start DDS domain");
    let mut sample = [0u8; 64];
    let mut n = 0u64;
    out.push(metric(
        "dds.publish_take_us",
        ns_per_call(2_000, || {
            n += 1;
            sample[..8].copy_from_slice(&n.to_le_bytes());
            domain
                .participant(0)
                .publish(topic, &sample)
                .expect("publish");
            loop {
                if let Some(s) = domain.participant(1).take(topic).expect("take") {
                    assert_eq!(s.data[..8], n.to_le_bytes(), "samples out of order");
                    break;
                }
                std::hint::spin_loop();
            }
        }) / 1e3,
        "us",
    ));
}

fn rdmc(out: &mut Vec<Metric>) {
    let rdmc = Rdmc::new(8, 64 << 10, 8 << 10).expect("rdmc shape");
    let schedule = rdmc.schedule(ScheduleKind::BinomialPipeline);
    let message = vec![0x5Au8; 64 << 10];
    out.push(metric(
        "rdmc.pipeline_execute_8n_64k_us",
        ns_per_call(50, || {
            black_box(execute(&rdmc, &schedule, black_box(&message)).expect("execute"));
        }) / 1e3,
        "us",
    ));
}

fn sim(out: &mut Vec<Metric>) {
    let all: Vec<usize> = (0..NODES).collect();
    let view = ViewBuilder::new(NODES)
        .subgroup(&all, &all, WINDOW, 1024)
        .build()
        .expect("sim view");
    let cluster = SimCluster::new(
        view,
        SpindleConfig::optimized(),
        Workload::new(10_000, 1024),
    )
    .with_seed(42);
    let mut report = cluster.run();
    let run_ms = ms_per_call(|| report = cluster.run());
    assert!(report.completed, "simulated run did not complete");
    let delivered: u64 = report.nodes.iter().map(|n| n.app_sent).sum();
    let nulls: u64 = report.nodes.iter().map(|n| n.nulls_sent).sum();
    let (send, _, deliv) = report.batch_histograms();
    out.push(metric("sim.run_ms", run_ms, "ms"));
    out.push(metric(
        "sim.writes_per_msg",
        report.total_writes() as f64 / delivered as f64,
        "count",
    ));
    out.push(metric(
        "sim.nulls_per_msg",
        nulls as f64 / delivered as f64,
        "count",
    ));
    out.push(metric("sim.send_batch_mean", send.mean(), "count"));
    out.push(metric("sim.deliv_batch_mean", deliv.mean(), "count"));
}

fn core_threaded(out: &mut Vec<Metric>) {
    let all: Vec<usize> = (0..NODES).collect();
    let view = || {
        ViewBuilder::new(NODES)
            .subgroup(&all, &all, WINDOW, 1024)
            .build()
            .expect("view")
    };
    let mut clusters = Vec::with_capacity(REPS);
    out.push(metric(
        "core.threaded.start_ms",
        ms_per_call(|| clusters.push(Cluster::start(view(), SpindleConfig::optimized()))),
        "ms",
    ));
    drop(clusters);

    // View changes under light traffic: each cycle removes the newest member
    // and admits a replacement, with messages in flight at both calls.
    const SG: SubgroupId = SubgroupId(0);
    let mut cluster = Cluster::start(view(), SpindleConfig::optimized());
    let mut victim = NODES - 1;
    let (mut removes, mut admits) = (Vec::new(), Vec::new());
    let traffic = |cluster: &Cluster<MemFabric>| {
        // 1 000 msg/s for 20 ms; the last few are still in flight on return.
        for _ in 0..20 {
            cluster.node(0).send(SG, &[7u8; 64]).expect("send");
            std::thread::sleep(Duration::from_millis(1));
        }
        for row in cluster.local_rows() {
            while cluster.node(row).deliveries().try_recv().is_ok() {}
        }
    };
    for _ in 0..REPS {
        traffic(&cluster);
        let t = Instant::now();
        cluster.remove_node(victim).expect("remove_node");
        removes.push(t.elapsed().as_secs_f64() * 1e3);
        traffic(&cluster);
        let t = Instant::now();
        let (row, _) = cluster
            .admit(AdmitRequest::in_process(&[(SG, true)]))
            .expect("admit");
        admits.push(t.elapsed().as_secs_f64() * 1e3);
        victim = row;
    }
    out.push(metric(
        "core.viewchange.remove_ms_p50",
        median(&removes),
        "ms",
    ));
    out.push(metric(
        "core.viewchange.admit_ms_p50",
        median(&admits),
        "ms",
    ));
}

/// Every [L] metric, in layer order.
pub fn measure() -> Vec<Metric> {
    let mut out = Vec::new();
    core_threaded(&mut out);
    sst(&mut out);
    smc(&mut out);
    membership(&mut out);
    fabric(&mut out);
    net_wire(&mut out);
    net_tcp(&mut out);
    persist(&mut out);
    obs(&mut out);
    net_edge(&mut out);
    dds(&mut out);
    rdmc(&mut out);
    sim(&mut out);
    out
}
