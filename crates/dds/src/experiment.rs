//! The simulated DDS workload of Figure 18.
//!
//! The paper's DDS evaluation: a single topic, a single publisher, 2–16
//! subscribers on distinct nodes, 1 M samples of 10 KB, measured at all
//! four QoS levels for both the baseline and the Spindle-optimized stack.
//! Each QoS level maps onto engine configuration exactly as §4.6 describes:
//!
//! * `Unordered` — deliver on receive (no stability wait);
//! * `AtomicMulticast` — ordered delivery, in-place (data discarded after
//!   the upcall);
//! * `VolatileStorage` — ordered delivery plus a memcpy of each sample into
//!   the receiver's store (the Figure 14 cost model);
//! * `LoggedStorage` — volatile storage plus an SSD log append on the
//!   delivery path.

use std::time::Duration;

use spindle_core::{DeliveryTiming, RunReport, SimCluster, SpindleConfig, SsdModel, Workload};
use spindle_membership::{View, ViewBuilder};

use crate::qos::QosLevel;

/// One Figure 18 data point: a simulated single-topic DDS run.
///
/// # Examples
///
/// ```
/// use spindle_dds::{DdsExperiment, QosLevel};
///
/// let report = DdsExperiment::new(4, QosLevel::AtomicMulticast, true)
///     .with_samples(300)
///     .run();
/// assert!(report.completed);
/// ```
#[derive(Debug, Clone)]
pub struct DdsExperiment {
    subscribers: usize,
    qos: QosLevel,
    spindle: bool,
    samples: u64,
    sample_size: usize,
    window: usize,
    seed: u64,
}

impl DdsExperiment {
    /// A topic with one publisher and `subscribers` subscribers, all on
    /// distinct nodes (the paper stresses the network this way, §4.6).
    /// `spindle` selects the optimized stack; `false` is the baseline.
    pub fn new(subscribers: usize, qos: QosLevel, spindle: bool) -> Self {
        DdsExperiment {
            subscribers,
            qos,
            spindle,
            samples: 5_000,
            sample_size: 10 * 1024,
            window: 100,
            seed: 1,
        }
    }

    /// Number of samples the publisher sends (paper: 1 M; quick runs use
    /// fewer — steady state is reached within a few thousand).
    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = samples;
        self
    }

    /// RNG seed for the run.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The view: node 0 publishes, nodes 1..=subscribers subscribe; the
    /// topic is one subgroup whose only sender is the publisher.
    pub fn view(&self) -> View {
        let members: Vec<usize> = (0..=self.subscribers).collect();
        ViewBuilder::new(self.subscribers + 1)
            .subgroup(&members, &[0], self.window, self.sample_size)
            .build()
            .expect("valid DDS view")
    }

    /// The engine configuration implied by the QoS level and stack choice.
    pub fn config(&self) -> SpindleConfig {
        let mut cfg = if self.spindle {
            SpindleConfig::optimized()
        } else {
            SpindleConfig::baseline()
        };
        if !self.qos.is_ordered() {
            cfg.delivery_timing = DeliveryTiming::OnReceive;
        }
        cfg
    }

    /// The per-delivery application cost implied by the QoS level (the log
    /// append for `LoggedStorage`).
    pub fn upcall_cost(&self) -> Duration {
        if self.qos.persists() {
            SsdModel::default().append_time(self.sample_size)
        } else {
            Duration::ZERO
        }
    }

    /// The application side implied by the QoS level: a storage level
    /// copies each sample out of its slot into the store, and a logged
    /// one also pays the log append in the upcall.
    pub fn workload(&self) -> Workload {
        let mut w =
            Workload::new(self.samples, self.sample_size).with_upcall_cost(self.upcall_cost());
        w.memcpy_on_delivery = self.qos.stores_in_memory();
        w
    }

    /// Runs the experiment.
    pub fn run(&self) -> RunReport {
        SimCluster::new(self.view(), self.config(), self.workload())
            .with_seed(self.seed)
            .run()
    }

    /// Subscriber-side bandwidth in MB/s (Figure 18's unit), averaged over
    /// the subscriber nodes only (the publisher's local deliveries are
    /// excluded, as its NIC is the resource under test).
    pub fn subscriber_bandwidth_mbs(report: &RunReport) -> f64 {
        let secs = report.makespan.as_secs_f64();
        if secs == 0.0 || report.nodes.len() < 2 {
            return 0.0;
        }
        let subs = &report.nodes[1..];
        let per_node =
            subs.iter().map(|n| n.delivered_bytes as f64).sum::<f64>() / subs.len() as f64;
        per_node / secs / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_mapping_matches_qos() {
        let e = DdsExperiment::new(4, QosLevel::Unordered, true);
        assert_eq!(e.config().delivery_timing, DeliveryTiming::OnReceive);
        assert!(!e.workload().memcpy_on_delivery);

        let e = DdsExperiment::new(4, QosLevel::AtomicMulticast, true);
        assert_eq!(e.config().delivery_timing, DeliveryTiming::Ordered);
        assert!(!e.workload().memcpy_on_delivery);

        let e = DdsExperiment::new(4, QosLevel::VolatileStorage, true);
        assert!(e.workload().memcpy_on_delivery);
        assert!(e.upcall_cost().is_zero());

        let e = DdsExperiment::new(4, QosLevel::LoggedStorage, true);
        assert!(e.workload().memcpy_on_delivery && !e.workload().memcpy_on_send);
        assert_eq!(e.workload().upcall_cost, e.upcall_cost());
        assert!(!e.upcall_cost().is_zero());
    }

    #[test]
    fn baseline_config_is_baseline() {
        let e = DdsExperiment::new(4, QosLevel::AtomicMulticast, false);
        assert!(!e.config().send_batching);
        assert!(!e.config().null_sends);
    }

    #[test]
    fn view_shape() {
        let e = DdsExperiment::new(8, QosLevel::AtomicMulticast, true);
        let v = e.view();
        assert_eq!(v.members().len(), 9);
        assert_eq!(v.subgroups()[0].num_senders(), 1);
        assert_eq!(v.subgroups()[0].size(), 9);
    }

    #[test]
    fn spindle_beats_baseline_at_every_qos() {
        for qos in QosLevel::ALL {
            let base = DdsExperiment::new(3, qos, false).with_samples(400).run();
            let opt = DdsExperiment::new(3, qos, true).with_samples(400).run();
            let b = DdsExperiment::subscriber_bandwidth_mbs(&base);
            let o = DdsExperiment::subscriber_bandwidth_mbs(&opt);
            assert!(
                o > b,
                "{qos:?}: spindle {o:.1} MB/s not above baseline {b:.1} MB/s"
            );
        }
    }

    #[test]
    fn qos_cost_ordering_under_spindle() {
        // Heavier QoS never delivers more bandwidth.
        let bw: Vec<f64> = QosLevel::ALL
            .iter()
            .map(|&q| {
                let r = DdsExperiment::new(4, q, true).with_samples(500).run();
                DdsExperiment::subscriber_bandwidth_mbs(&r)
            })
            .collect();
        // unordered >= atomic (small tolerance), and logged is the slowest.
        assert!(
            bw[0] >= bw[1] * 0.9,
            "unordered {} vs atomic {}",
            bw[0],
            bw[1]
        );
        assert!(bw[3] <= bw[1], "logged {} vs atomic {}", bw[3], bw[1]);
        assert!(bw[3] <= bw[2], "logged {} vs volatile {}", bw[3], bw[2]);
    }
}
