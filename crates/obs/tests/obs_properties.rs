//! The registry/flight-recorder acceptance tests from ISSUE 8:
//! concurrent-increment stress, histogram percentile correctness
//! against a sorted-vector model (proptest), ring wraparound, and the
//! `/metrics` exposition-format golden test.

use proptest::prelude::*;
use spindle_obs::registry::{bucket_of, bucket_upper};
use spindle_obs::{
    FlightEvent, FlightRecord, FlightRecorder, Level, LogHistogram, ObsPlane, Registry,
};

// ---------------------------------------------------------------------
// Concurrent-increment stress: N threads hammer one counter and one
// histogram through clones of the same handles; totals must be exact.
// ---------------------------------------------------------------------

#[test]
fn concurrent_increment_stress() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let reg = Registry::new();
    let counter = reg.counter("stress_total", "stress counter", &[("node", "0")]);
    let hist = reg.histogram("stress_lat", "stress histogram", 1.0, &[]);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let hist = hist.clone();
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total);
    assert_eq!(
        reg.counter_value("stress_total", &[("node", "0")]),
        Some(total)
    );
    let snap = reg.histogram_snapshot("stress_lat", &[]).unwrap();
    assert_eq!(snap.count, total);
    assert_eq!(snap.buckets.iter().sum::<u64>(), total);
    // Sum of 0..total recorded exactly once across all threads.
    assert_eq!(snap.sum, total * (total - 1) / 2);
}

// ---------------------------------------------------------------------
// Histogram percentiles vs a sorted-vector model. The log2 buckets
// report the bucket's inclusive upper bound, so the estimate brackets
// the true nearest-rank percentile: model <= est <= 2 * max(model, 1).
// ---------------------------------------------------------------------

fn model_percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_bracket_sorted_model(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..400)
    ) {
        let hist = LogHistogram::default();
        for &v in &samples {
            hist.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let model = model_percentile(&sorted, q);
            let est = snap.percentile(q);
            prop_assert!(
                model <= est && est <= 2 * model.max(1),
                "q={} model={} est={}", q, model, est
            );
        }
    }

    #[test]
    fn bucket_scheme_is_consistent(v in any::<u64>()) {
        let k = bucket_of(v);
        prop_assert!(v <= bucket_upper(k), "v={} above upper of bucket {}", v, k);
        if k > 0 {
            prop_assert!(v > bucket_upper(k - 1), "v={} not above bucket {}", v, k - 1);
        }
    }
}

// ---------------------------------------------------------------------
// Flight-recorder ring wraparound: capacity bounds the ring, evictions
// are counted, and the retained suffix is the most recent records.
// ---------------------------------------------------------------------

#[test]
fn flight_recorder_ring_wraparound() {
    let rec = FlightRecorder::new(8);
    for i in 0..20u64 {
        rec.push(FlightRecord {
            t_micros: i,
            node: 0,
            level: Level::Info,
            event: FlightEvent::Wedged { epoch: i },
        });
    }
    let (recs, dropped) = rec.dump();
    assert_eq!(recs.len(), 8);
    assert_eq!(dropped, 12);
    let epochs: Vec<u64> = recs
        .iter()
        .map(|r| match r.event {
            FlightEvent::Wedged { epoch } => epoch,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(epochs, (12..20).collect::<Vec<u64>>());
    assert!(rec
        .render()
        .starts_with("... 12 earlier records evicted ..."));
}

// ---------------------------------------------------------------------
// /metrics exposition-format golden test: a registry with one family
// of each kind renders byte-for-byte the expected Prometheus text.
// ---------------------------------------------------------------------

#[test]
fn prometheus_exposition_golden() {
    let reg = Registry::new();
    reg.counter(
        "spindle_delivered_total",
        "Messages delivered",
        &[("node", "0"), ("epoch", "0")],
    )
    .add(7);
    reg.counter(
        "spindle_delivered_total",
        "Messages delivered",
        &[("node", "0"), ("epoch", "1")],
    )
    .add(35);
    reg.gauge("spindle_epoch", "Current epoch", &[("node", "0")])
        .set(1);
    let h = reg.histogram(
        "spindle_delivery_latency_seconds",
        "Send-to-delivery latency",
        1e-9,
        &[("node", "0"), ("epoch", "1")],
    );
    // 10 samples in [2^9, 2^10): every quantile estimate is 2^10 - 1 ns.
    for _ in 0..10 {
        h.record(1000);
    }
    let golden = "\
# HELP spindle_delivered_total Messages delivered
# TYPE spindle_delivered_total counter
spindle_delivered_total{epoch=\"0\",node=\"0\"} 7
spindle_delivered_total{epoch=\"1\",node=\"0\"} 35
# HELP spindle_delivery_latency_seconds Send-to-delivery latency
# TYPE spindle_delivery_latency_seconds summary
spindle_delivery_latency_seconds{epoch=\"1\",node=\"0\",quantile=\"0.5\"} 0.000001023
spindle_delivery_latency_seconds{epoch=\"1\",node=\"0\",quantile=\"0.99\"} 0.000001023
spindle_delivery_latency_seconds{epoch=\"1\",node=\"0\",quantile=\"0.999\"} 0.000001023
spindle_delivery_latency_seconds_sum{epoch=\"1\",node=\"0\"} 0.00001
spindle_delivery_latency_seconds_count{epoch=\"1\",node=\"0\"} 10
# HELP spindle_epoch Current epoch
# TYPE spindle_epoch gauge
spindle_epoch{node=\"0\"} 1
";
    assert_eq!(reg.render_prometheus(), golden);
}

#[test]
fn snapshot_merge_folds_counts() {
    let a = LogHistogram::default();
    let b = LogHistogram::default();
    for v in [1u64, 10, 100] {
        a.record(v);
    }
    for v in [1000u64, 10_000] {
        b.record(v);
    }
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged.count, 5);
    assert_eq!(merged.sum, 11_111);
    assert_eq!(merged.percentile(1.0), bucket_upper(bucket_of(10_000)));
}

#[test]
fn plane_level_gates_echo_not_ring() {
    let plane = ObsPlane::new();
    plane.set_level(Level::Off);
    for i in 0..3 {
        plane.event(Level::Debug, i, FlightEvent::BarrierConfirm { epoch: 1 });
    }
    assert_eq!(plane.recorder().len(), 3);
}
