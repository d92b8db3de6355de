//! Run metrics: everything the paper's evaluation section reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use spindle_obs::{names, HistogramSnapshot, Registry, SeriesValue};
use spindle_sim::stats::{Decimator, Histogram, Summary};

/// Delivery statistics for one epoch of one node: how much the view
/// delivered and the latency shape while it was installed. A live
/// node's are read out of its observability registry
/// ([`epoch_stats_for_node`]), so they are exactly what a `/metrics`
/// scrape at that moment shows.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// The epoch (view id) these counters belong to.
    pub epoch: u64,
    /// Ordered messages delivered while this epoch was installed.
    pub delivered_msgs: u64,
    /// Payload bytes delivered while this epoch was installed.
    pub delivered_bytes: u64,
    /// Send→delivery latency of own sends delivered under this epoch,
    /// recorded in nanoseconds.
    pub latency: HistogramSnapshot,
}

impl EpochStats {
    /// Zeroed stats for `epoch`.
    pub fn new(epoch: u64) -> Self {
        EpochStats {
            epoch,
            delivered_msgs: 0,
            delivered_bytes: 0,
            latency: HistogramSnapshot::default(),
        }
    }

    /// Latency percentile in milliseconds (`q` in `(0, 1]`); 0 when no
    /// own sends were delivered under this epoch.
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        self.latency.percentile(q) as f64 / 1e6
    }
}

/// Folds one node's per-epoch delivery series out of a live metrics
/// registry (the `spindle_delivered_total` / `spindle_delivered_bytes_total`
/// / `spindle_delivery_latency_seconds` families, filtered to
/// `node="<node>"`), sorted by epoch — what `spindle-node` and
/// `spindle-loadgen` print through [`render_epoch_table`] as they exit.
pub fn epoch_stats_for_node(registry: &Registry, node: usize) -> Vec<EpochStats> {
    let node_label = node.to_string();
    let mut by_epoch: BTreeMap<u64, EpochStats> = BTreeMap::new();
    for fam in registry.collect() {
        if fam.name != names::DELIVERED
            && fam.name != names::DELIVERED_BYTES
            && fam.name != names::DELIVERY_LATENCY
        {
            continue;
        }
        for (labels, value) in fam.series {
            let mut epoch = None;
            let mut ours = false;
            for (k, v) in &labels {
                match k.as_str() {
                    "epoch" => epoch = v.parse::<u64>().ok(),
                    "node" => ours = *v == node_label,
                    _ => {}
                }
            }
            let Some(epoch) = epoch else { continue };
            if !ours {
                continue;
            }
            let entry = by_epoch
                .entry(epoch)
                .or_insert_with(|| EpochStats::new(epoch));
            match (fam.name.as_str(), value) {
                (x, SeriesValue::Scalar(v)) if x == names::DELIVERED => entry.delivered_msgs += v,
                (x, SeriesValue::Scalar(v)) if x == names::DELIVERED_BYTES => {
                    entry.delivered_bytes += v
                }
                (x, SeriesValue::Histogram(h)) if x == names::DELIVERY_LATENCY => {
                    entry.latency.merge(&h)
                }
                _ => {}
            }
        }
    }
    by_epoch.into_values().collect()
}

/// `stats` as a printable table (one row per epoch; latency columns in
/// milliseconds, `-` when the epoch saw no own-send deliveries to time).
pub fn render_epoch_table(stats: &[EpochStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "epoch", "delivered", "bytes", "p50(ms)", "p99(ms)", "p999(ms)"
    );
    for es in stats {
        let lat = |q: f64| {
            if es.latency.count == 0 {
                "-".to_string()
            } else {
                format!("{:.3}", es.latency_percentile_ms(q))
            }
        };
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>14} {:>10} {:>10} {:>10}",
            es.epoch,
            es.delivered_msgs,
            es.delivered_bytes,
            lat(0.50),
            lat(0.99),
            lat(0.999)
        );
    }
    out
}

/// Per-node counters collected during a run.
///
/// These cover every quantity quoted in the paper's evaluation: RDMA write
/// counts and posting time (§4.1.1), batch-size histograms for the three
/// stages (Figure 7), sender wait time (§4.1.1), null counts (§4.2),
/// per-message latency (Figures 5, 17) and delivered volume (every
/// bandwidth figure).
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// One-sided writes posted (one per destination per push).
    pub writes_posted: u64,
    /// Push operations (one per predicate decision to publish, regardless of
    /// destination count) — comparable to the paper's write-request counts.
    pub push_ops: u64,
    /// Predicate-thread CPU time spent posting writes (§4.1.1).
    pub post_time: Duration,

    /// Messages aggregated per send-predicate firing (Figure 7a).
    pub send_batch: Histogram,
    /// New messages consumed per receive-predicate firing (Figure 7b).
    pub recv_batch: Histogram,
    /// Messages delivered per delivery-predicate firing (Figure 7c).
    pub deliv_batch: Histogram,

    /// Application messages this node sent.
    pub app_sent: u64,
    /// Application messages delivered to this node.
    pub delivered_msgs: u64,
    /// Application payload bytes delivered to this node.
    pub delivered_bytes: u64,
    /// Null rounds this node inserted (§4.2).
    pub nulls_sent: u64,
    /// Null rounds skipped during delivery at this node.
    pub nulls_skipped: u64,

    /// Time the application sender(s) spent blocked on a full window
    /// (§4.1.1's "time waiting to find a free buffer").
    pub sender_wait: Duration,
    /// Send-to-delivery latency of app messages delivered here, in seconds.
    pub latency: Summary,
    /// Bounded latency sample for percentile reporting.
    pub latency_samples: Decimator,
}

impl NodeMetrics {
    /// Creates zeroed metrics. Histogram bucket ranges are sized for the
    /// paper's observed batch sizes (Figure 7) with overflow counting.
    pub fn new() -> Self {
        NodeMetrics {
            writes_posted: 0,
            push_ops: 0,
            post_time: Duration::ZERO,
            send_batch: Histogram::new(1, 64),
            recv_batch: Histogram::new(1, 256),
            deliv_batch: Histogram::new(1, 1024),
            app_sent: 0,
            delivered_msgs: 0,
            delivered_bytes: 0,
            nulls_sent: 0,
            nulls_skipped: 0,
            sender_wait: Duration::ZERO,
            latency: Summary::new(),
            latency_samples: Decimator::new(2048),
        }
    }
}

impl Default for NodeMetrics {
    fn default() -> Self {
        NodeMetrics::new()
    }
}

/// The result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-node metrics, indexed by node id.
    pub nodes: Vec<NodeMetrics>,
    /// Virtual (or wall-clock) time from start to the last counted delivery.
    pub makespan: Duration,
    /// `true` if the run reached its delivery target; `false` if it stalled
    /// or hit the deadline (e.g. the baseline with an inactive sender).
    pub completed: bool,
    /// Per-node ordered delivery records as `(subgroup, sender rank,
    /// app index)` — empty unless the run was created with
    /// [`SimCluster::with_delivery_trace`](crate::SimCluster::with_delivery_trace).
    /// This is what protocol oracles consume (total order, per-sender FIFO,
    /// atomicity); it is part of the deterministic trace contract.
    pub delivery_trace: Vec<Vec<(usize, usize, u64)>>,
}

impl RunReport {
    /// Application-data delivery bandwidth in GB/s, averaged over nodes
    /// (the paper's throughput metric: "application data delivered per unit
    /// time, averaged over all nodes").
    pub fn bandwidth_gbps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        let per_node: f64 = self
            .nodes
            .iter()
            .map(|n| n.delivered_bytes as f64)
            .sum::<f64>()
            / self.nodes.len() as f64;
        per_node / secs / 1e9
    }

    /// Delivery rate in millions of messages per second, averaged over
    /// nodes (Figure 4's metric).
    pub fn delivery_mmsgs(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 || self.nodes.is_empty() {
            return 0.0;
        }
        let per_node: f64 = self
            .nodes
            .iter()
            .map(|n| n.delivered_msgs as f64)
            .sum::<f64>()
            / self.nodes.len() as f64;
        per_node / secs / 1e6
    }

    /// Mean send-to-delivery latency in milliseconds over all nodes.
    pub fn mean_latency_ms(&self) -> f64 {
        let mut all = Summary::new();
        for n in &self.nodes {
            all.merge(&n.latency);
        }
        all.mean() * 1e3
    }

    /// Latency percentile in milliseconds over all nodes' bounded samples
    /// (`q` in `[0, 1]`).
    pub fn latency_percentile_ms(&self, q: f64) -> f64 {
        let mut all = Decimator::new(4096);
        for n in &self.nodes {
            all.merge(&n.latency_samples);
        }
        all.percentile(q) * 1e3
    }

    /// Total writes posted across nodes.
    pub fn total_writes(&self) -> u64 {
        self.nodes.iter().map(|n| n.writes_posted).sum()
    }

    /// Total posting time across nodes.
    pub fn total_post_time(&self) -> Duration {
        self.nodes.iter().map(|n| n.post_time).sum()
    }

    /// Fraction of total sender time spent waiting for a free slot,
    /// averaged over nodes that sent.
    pub fn sender_wait_share(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        let senders: Vec<&NodeMetrics> = self.nodes.iter().filter(|n| n.app_sent > 0).collect();
        if senders.is_empty() {
            return 0.0;
        }
        senders
            .iter()
            .map(|n| n.sender_wait.as_secs_f64() / secs)
            .sum::<f64>()
            / senders.len() as f64
    }

    /// Merged batch-size histograms `(send, receive, delivery)` across all
    /// nodes (Figure 7).
    pub fn batch_histograms(&self) -> (Histogram, Histogram, Histogram) {
        let mut s = Histogram::new(1, 64);
        let mut r = Histogram::new(1, 256);
        let mut d = Histogram::new(1, 1024);
        for n in &self.nodes {
            s.merge(&n.send_batch);
            r.merge(&n.recv_batch);
            d.merge(&n.deliv_batch);
        }
        (s, r, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(bytes: u64, msgs: u64, secs: u64) -> RunReport {
        let mut n = NodeMetrics::new();
        n.delivered_bytes = bytes;
        n.delivered_msgs = msgs;
        RunReport {
            nodes: vec![n.clone(), n],
            makespan: Duration::from_secs(secs),
            completed: true,
            delivery_trace: Vec::new(),
        }
    }

    #[test]
    fn bandwidth_is_per_node_average() {
        let r = report_with(2_000_000_000, 1_000_000, 2);
        assert!((r.bandwidth_gbps() - 1.0).abs() < 1e-9);
        assert!((r.delivery_mmsgs() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_makespan_yields_zero_rates() {
        let r = report_with(100, 10, 0);
        assert_eq!(r.bandwidth_gbps(), 0.0);
        assert_eq!(r.delivery_mmsgs(), 0.0);
    }

    #[test]
    fn latency_merges_across_nodes() {
        let mut a = NodeMetrics::new();
        a.latency.record(0.001);
        let mut b = NodeMetrics::new();
        b.latency.record(0.003);
        let r = RunReport {
            nodes: vec![a, b],
            makespan: Duration::from_secs(1),
            completed: true,
            delivery_trace: Vec::new(),
        };
        assert!((r.mean_latency_ms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sender_wait_share_ignores_non_senders() {
        let mut s = NodeMetrics::new();
        s.app_sent = 10;
        s.sender_wait = Duration::from_millis(500);
        let quiet = NodeMetrics::new();
        let r = RunReport {
            nodes: vec![s, quiet],
            makespan: Duration::from_secs(1),
            completed: true,
            delivery_trace: Vec::new(),
        };
        assert!((r.sender_wait_share() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn histograms_merge() {
        let mut a = NodeMetrics::new();
        a.send_batch.record(2);
        let mut b = NodeMetrics::new();
        b.send_batch.record(2);
        b.deliv_batch.record(32);
        let r = RunReport {
            nodes: vec![a, b],
            makespan: Duration::from_secs(1),
            completed: true,
            delivery_trace: Vec::new(),
        };
        let (s, _, d) = r.batch_histograms();
        assert_eq!(s.count_at(2), 2);
        assert_eq!(d.count_at(32), 1);
    }

    #[test]
    fn epoch_stats_fold_from_registry() {
        use spindle_obs::names;
        let reg = Registry::new();
        reg.counter(names::DELIVERED, "msgs", &[("node", "0"), ("epoch", "0")])
            .add(4);
        reg.counter(names::DELIVERED, "msgs", &[("node", "1"), ("epoch", "0")])
            .add(9); // other node: must be excluded
        reg.counter(
            names::DELIVERED_BYTES,
            "bytes",
            &[("node", "0"), ("epoch", "1")],
        )
        .add(256);
        reg.histogram(
            names::DELIVERY_LATENCY,
            "lat",
            1e-9,
            &[("node", "0"), ("epoch", "1")],
        )
        .record(2_000_000);
        let stats = epoch_stats_for_node(&reg, 0);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].epoch, 0);
        assert_eq!(stats[0].delivered_msgs, 4);
        assert_eq!(stats[1].epoch, 1);
        assert_eq!(stats[1].delivered_bytes, 256);
        assert_eq!(stats[1].latency.count, 1);
        // The 2 ms sample lands in bucket [2^20, 2^21) ns; the estimate is
        // the inclusive upper bound, within 2x of the true value.
        let p50 = stats[1].latency_percentile_ms(0.5);
        assert!((2.0..=4.2).contains(&p50), "p50 {p50}");
        let table = render_epoch_table(&stats);
        assert!(table.contains("epoch"));
        assert_eq!(table.lines().count(), 3);
        assert!(epoch_stats_for_node(&reg, 7).is_empty());
    }
}
