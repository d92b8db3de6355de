//! Lock-light live metrics: atomic counters/gauges, fixed-bucket log2
//! latency histograms, and a registry that renders Prometheus text.
//!
//! The hot paths (predicate thread, wire poller) never touch a lock:
//! handles are `Arc`'d atomics obtained once (per epoch, for labeled
//! families) from [`Registry::counter`] / [`Registry::histogram`], and
//! every update is a relaxed atomic RMW. The registry's internal mutex
//! is taken only on get-or-create and on snapshot/render — both off the
//! message path.
//!
//! Histograms use 65 fixed power-of-two buckets: value `0` lands in
//! bucket 0, and a value `v > 0` lands in bucket `floor(log2 v) + 1`,
//! i.e. bucket `k >= 1` covers `[2^(k-1), 2^k)`. Percentile estimates
//! report the bucket's *inclusive upper bound* (`2^k - 1`), so for any
//! sample set the estimate `e` of a true percentile `t` satisfies
//! `t <= e < 2 * max(t, 1)` — tight enough for latency tails, with a
//! constant 520-byte footprint and wait-free recording.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a recorded value (see module docs for the scheme).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `k` — the value a percentile
/// estimate reports when the rank falls in that bucket.
#[inline]
pub fn bucket_upper(k: usize) -> u64 {
    if k == 0 {
        0
    } else if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// A monotonically increasing atomic counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram with wait-free recording. Cloning
/// shares the cells, so one handle can be cached per thread.
#[derive(Clone, Debug, Default)]
pub struct LogHistogram(Arc<HistInner>);

impl LogHistogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Concurrent recording makes
    /// the copy approximate (a racing sample may show in `count` but
    /// not yet in a bucket); quiescent snapshots are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LogHistogram`]'s state, mergeable across nodes
/// and queryable for percentile estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank percentile estimate for quantile `q` in `(0, 1]`:
    /// the inclusive upper bound of the bucket holding the sample of
    /// rank `ceil(q * count)`. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Record one sample directly into the owned snapshot — for
    /// single-threaded producers (e.g. the simulator) that fold into
    /// the same percentile machinery without paying for atomics.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Fold another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// What kind of series a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter, rendered as `TYPE counter`.
    Counter,
    /// Instantaneous gauge, rendered as `TYPE gauge`.
    Gauge,
    /// Log2 histogram, rendered as `TYPE summary` with
    /// `quantile="0.5" / "0.99" / "0.999"` series plus `_sum`/`_count`.
    Histogram,
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(LogHistogram),
}

/// One series' value in a [`Registry::collect`] snapshot.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter or gauge reading.
    Scalar(u64),
    /// Histogram state (boxed: the 65-bucket snapshot dwarfs a scalar).
    Histogram(Box<HistogramSnapshot>),
}

type Labels = Vec<(String, String)>;

struct Family {
    kind: MetricKind,
    help: String,
    /// Multiplier applied to histogram values at render time (e.g.
    /// `1e-9` to expose nanosecond samples as seconds). Unused for
    /// counters and gauges.
    scale: f64,
    series: BTreeMap<Labels, Metric>,
}

/// A point-in-time copy of one family, for programmatic folding
/// (per-epoch stats) and for rendering.
pub struct FamilySnapshot {
    /// Family (metric) name.
    pub name: String,
    /// Series kind.
    pub kind: MetricKind,
    /// HELP text.
    pub help: String,
    /// Render-time multiplier for histogram values.
    pub scale: f64,
    /// Every labeled series in deterministic (sorted) order.
    pub series: Vec<(Labels, SeriesValue)>,
}

/// The live metrics registry: get-or-create handles by
/// `(family, labels)`, snapshot at any instant, render as Prometheus
/// text. Shared via [`crate::ObsPlane`].
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Labels are canonicalized by sorting on key, so the same series is
/// reached regardless of argument order and render order is stable.
fn to_owned_labels(labels: &[(&str, &str)]) -> Labels {
    let mut owned: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    owned.sort();
    owned
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_create(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> Metric {
        let mut fams = self.families.lock().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            scale,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric family {name:?} registered twice with different kinds"
        );
        fam.series
            .entry(to_owned_labels(labels))
            .or_insert_with(|| match kind {
                MetricKind::Counter => Metric::Counter(Counter::default()),
                MetricKind::Gauge => Metric::Gauge(Gauge::default()),
                MetricKind::Histogram => Metric::Histogram(LogHistogram::default()),
            })
            .clone()
    }

    /// Get or create a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_create(name, help, MetricKind::Counter, 1.0, labels) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Get or create a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_create(name, help, MetricKind::Gauge, 1.0, labels) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Get or create a histogram series. `scale` converts recorded
    /// integer samples to the exposed unit at render time (e.g. record
    /// nanoseconds, expose seconds with `scale = 1e-9`).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        scale: f64,
        labels: &[(&str, &str)],
    ) -> LogHistogram {
        match self.get_or_create(name, help, MetricKind::Histogram, scale, labels) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Read a counter series if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let fams = self.families.lock().unwrap();
        match fams.get(name)?.series.get(&to_owned_labels(labels))? {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Snapshot a histogram series if it exists.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        let fams = self.families.lock().unwrap();
        match fams.get(name)?.series.get(&to_owned_labels(labels))? {
            Metric::Histogram(h) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Snapshot every family and series, in deterministic order.
    pub fn collect(&self) -> Vec<FamilySnapshot> {
        let fams = self.families.lock().unwrap();
        fams.iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                kind: fam.kind,
                help: fam.help.clone(),
                scale: fam.scale,
                series: fam
                    .series
                    .iter()
                    .map(|(labels, m)| {
                        let v = match m {
                            Metric::Counter(c) => SeriesValue::Scalar(c.get()),
                            Metric::Gauge(g) => SeriesValue::Scalar(g.get()),
                            Metric::Histogram(h) => SeriesValue::Histogram(Box::new(h.snapshot())),
                        };
                        (labels.clone(), v)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format (v0.0.4): `# HELP` / `# TYPE` per family, one line per
    /// series, histograms as summaries with p50/p99/p999 quantiles.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in self.collect() {
            render_family(&mut out, &fam);
        }
        out
    }
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render one family snapshot in Prometheus text format.
pub fn render_family(out: &mut String, fam: &FamilySnapshot) {
    let type_str = match fam.kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "summary",
    };
    let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
    let _ = writeln!(out, "# TYPE {} {}", fam.name, type_str);
    for (labels, value) in &fam.series {
        match value {
            SeriesValue::Scalar(v) => {
                let _ = writeln!(out, "{}{} {}", fam.name, label_block(labels, None), v);
            }
            SeriesValue::Histogram(h) => {
                for (qname, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                    let est = h.percentile(q) as f64 * fam.scale;
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        fam.name,
                        label_block(labels, Some(("quantile", qname))),
                        est
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    fam.name,
                    label_block(labels, None),
                    h.sum as f64 * fam.scale
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    fam.name,
                    label_block(labels, None),
                    h.count
                );
            }
        }
    }
}
