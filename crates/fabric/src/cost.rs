//! Calibrated cost models for the simulated fabric.
//!
//! All constants are calibrated against the measurements reported in the
//! Spindle paper and collected in one place so that every figure of the
//! reproduction is traceable to a named parameter:
//!
//! * [`NetModel`] — Figure 1 (RDMA write latency vs. size) plus the ~1 µs
//!   CPU cost of posting a work request (§3.2) and the 12.5 GB/s link.
//! * [`MemcpyModel`] — Figure 14 (memcpy latency/bandwidth vs. size).
//! * [`SsdModel`] — the logged-storage QoS of the DDS (§4.6).

use std::time::Duration;

use serde::{Deserialize, Serialize};

fn nanos_f64(ns: f64) -> Duration {
    Duration::from_nanos(ns.max(0.0).round() as u64)
}

/// Network cost model for one-sided RDMA writes.
///
/// The end-to-end latency of a single write of `s` bytes on an idle fabric
/// is modeled as
///
/// ```text
/// latency(s) = fixed_latency + 2 * (msg_serialize + s / link_bandwidth)
/// ```
///
/// — a flat component (PCIe round trip, NIC processing on both sides, and
/// switch/wire propagation, dominant below ~4 KB: Figure 1's "minimal wire
/// delay" regime) plus egress and ingress serialization at link speed (the
/// "message size" regime). With the default parameters this gives 1.73 µs
/// at 1 B and ≈2.39 µs at 4 KB, matching the paper's 1.73 µs / 2.46 µs
/// within 3 %.
///
/// The fixed component is *latency*, not occupancy: NICs pipeline many
/// outstanding writes, so back-to-back small writes are spaced by the small
/// per-message serialization cost (the NIC's finite message rate), not by
/// the full 1.7 µs.
///
/// # Examples
///
/// ```
/// use spindle_fabric::NetModel;
///
/// let net = NetModel::default();
/// let lat_1b = net.write_latency(1);
/// let lat_4k = net.write_latency(4096);
/// assert!(lat_1b.as_nanos() >= 1_700 && lat_1b.as_nanos() <= 1_800);
/// assert!(lat_4k > lat_1b);
/// assert!(lat_4k.as_nanos() < 2_600);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetModel {
    /// Link bandwidth in bytes/second (paper: 100 Gb/s = 12.5 GB/s).
    pub link_bandwidth: f64,
    /// Pipelined fixed latency per write (PCIe + NIC processing on both
    /// sides + switch propagation).
    pub fixed_latency: Duration,
    /// Per-message serialization on each link direction (the inverse of the
    /// NIC message rate).
    pub msg_serialize: Duration,
    /// CPU time the posting thread spends on one work request (§3.2:
    /// "posting an RDMA request to the NIC takes ~1us"). RDMC's analysis
    /// charges it per transfer; the simulator charges it for the first
    /// post of a predicate body and its cheaper `post_next` for the rest.
    pub post_cost: Duration,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            link_bandwidth: 12.5e9,
            fixed_latency: Duration::from_nanos(1_630),
            msg_serialize: Duration::from_nanos(50),
            post_cost: Duration::from_nanos(1_000),
        }
    }
}

impl NetModel {
    /// Time `bytes` occupy one direction of the link (serialization delay
    /// only, excluding the per-write overhead).
    pub fn occupancy(&self, bytes: usize) -> Duration {
        nanos_f64(bytes as f64 / self.link_bandwidth * 1e9)
    }

    /// Full one-direction link holding time of a write: per-message
    /// serialization plus byte serialization.
    pub fn link_time(&self, bytes: usize) -> Duration {
        self.msg_serialize + self.occupancy(bytes)
    }

    /// End-to-end latency of a single write of `bytes` on an idle fabric:
    /// egress link time + fixed latency + ingress link time.
    pub fn write_latency(&self, bytes: usize) -> Duration {
        self.fixed_latency + self.link_time(bytes) + self.link_time(bytes)
    }

    /// Steady-state bandwidth of a back-to-back stream of `bytes`-sized
    /// writes on one link direction, in bytes/second (per-write overhead
    /// included, so small writes fall well below line rate).
    pub fn stream_bandwidth(&self, bytes: usize) -> f64 {
        let t = self.link_time(bytes).as_nanos() as f64;
        if t == 0.0 {
            self.link_bandwidth
        } else {
            bytes as f64 / t * 1e9
        }
    }
}

/// Local memory-copy cost model (paper Figure 14).
///
/// Latency is a flat base plus a size-proportional term whose rate degrades
/// once the copy spills the last-level-cache-friendly regime:
///
/// ```text
/// latency(s) = base + s / rate(s)
/// rate(s)    = peak_rate                 if s <= cache_bytes
///            = spill_rate                otherwise
/// ```
///
/// Defaults give a flat ≈0.4 µs for small copies (≈1 µs at 10 KB), a peak
/// effective bandwidth in the cache-resident regime, and decline beyond —
/// the paper's observed shape ("latency remains low up to a few KBs, then
/// quickly deteriorates"). The absolute level is calibrated so that the
/// §4.4 experiment (memcpy on the delivery path) costs ≈1 µs per 10 KB
/// message, consistent with Figure 15's modest bandwidth loss.
///
/// # Examples
///
/// ```
/// use spindle_fabric::MemcpyModel;
///
/// let m = MemcpyModel::default();
/// assert!(m.copy_time(64).as_nanos() < 1_000);
/// let bw_small = m.effective_bandwidth(1 << 10);
/// let bw_peak = m.effective_bandwidth(1 << 17);
/// let bw_large = m.effective_bandwidth(1 << 20);
/// assert!(bw_peak > bw_small);
/// assert!(bw_peak > bw_large);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemcpyModel {
    /// Flat call overhead.
    pub base: Duration,
    /// Copy rate while cache-resident, bytes/second.
    pub peak_rate: f64,
    /// Copy rate once the working set spills the cache, bytes/second.
    pub spill_rate: f64,
    /// Size threshold between the two regimes.
    pub cache_bytes: usize,
}

impl Default for MemcpyModel {
    fn default() -> Self {
        MemcpyModel {
            base: Duration::from_nanos(400),
            peak_rate: 16.0e9,
            spill_rate: 4.0e9,
            cache_bytes: 256 << 10,
        }
    }
}

impl MemcpyModel {
    /// Time to copy `bytes` once.
    pub fn copy_time(&self, bytes: usize) -> Duration {
        let rate = if bytes <= self.cache_bytes {
            self.peak_rate
        } else {
            self.spill_rate
        };
        self.base + nanos_f64(bytes as f64 / rate * 1e9)
    }

    /// `bytes / copy_time(bytes)` in bytes/second — the "bandwidth" series
    /// of Figure 14.
    pub fn effective_bandwidth(&self, bytes: usize) -> f64 {
        let t = self.copy_time(bytes).as_nanos() as f64;
        if t == 0.0 {
            self.peak_rate
        } else {
            bytes as f64 / t * 1e9
        }
    }
}

/// Append-only log device model for the DDS "logged storage" QoS.
///
/// An append of `s` bytes costs `flush_latency + s / write_rate`. Appends
/// are serialized per device (the DDS gives the device its own simulated
/// resource).
///
/// # Examples
///
/// ```
/// use spindle_fabric::SsdModel;
///
/// let ssd = SsdModel::default();
/// let t = ssd.append_time(10 * 1024);
/// assert!(t > ssd.append_time(0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdModel {
    /// Sequential write throughput, bytes/second.
    pub write_rate: f64,
    /// Per-append fixed latency (submission + flush amortization).
    pub flush_latency: Duration,
}

impl Default for SsdModel {
    fn default() -> Self {
        SsdModel {
            write_rate: 2.0e9,
            flush_latency: Duration::from_micros(8),
        }
    }
}

impl SsdModel {
    /// Time to append `bytes` to the log.
    pub fn append_time(&self, bytes: usize) -> Duration {
        self.flush_latency + nanos_f64(bytes as f64 / self.write_rate * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_latency_matches_paper_fig1_endpoints() {
        let net = NetModel::default();
        // 1 B: 1.73us flat (paper: 1.73us).
        let l1 = net.write_latency(1).as_nanos() as f64 / 1e3;
        assert!((l1 - 1.73).abs() < 0.05, "1B latency {l1}us");
        // 4 KB: paper reports 2.46us; model gives ~2.39us.
        let l4k = net.write_latency(4096).as_nanos() as f64 / 1e3;
        assert!((l4k - 2.46).abs() < 0.2, "4KB latency {l4k}us");
    }

    #[test]
    fn latency_is_flat_then_size_dominated() {
        let net = NetModel::default();
        let l1 = net.write_latency(1);
        let l4k = net.write_latency(4 << 10);
        let l1m = net.write_latency(1 << 20);
        // Flat regime: <50% growth from 1B to 4KB.
        assert!(l4k.as_nanos() < l1.as_nanos() * 3 / 2);
        // Size regime: 1MB far above base.
        assert!(l1m > Duration::from_micros(100));
    }

    #[test]
    fn occupancy_scales_linearly() {
        let net = NetModel::default();
        let o1 = net.occupancy(10_240);
        let o2 = net.occupancy(20_480);
        let ratio = o2.as_nanos() as f64 / o1.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 0.01);
        // 10 KB at 12.5 GB/s = 819 ns.
        assert!((o1.as_nanos() as i128 - 819).abs() <= 1);
    }

    #[test]
    fn stream_bandwidth_approaches_link_rate_for_large_writes() {
        let net = NetModel::default();
        let bw = net.stream_bandwidth(1 << 20);
        assert!((bw - 12.5e9).abs() / 12.5e9 < 0.01);
    }

    #[test]
    fn small_write_streams_fall_below_line_rate() {
        // The per-message serialization caps small-write utilization.
        let net = NetModel::default();
        let bw_10k = net.stream_bandwidth(10 * 1024);
        let util = bw_10k / net.link_bandwidth;
        assert!(util > 0.85 && util < 0.98, "10KB single-write util {util}");
    }

    #[test]
    fn memcpy_flat_for_small_sizes() {
        let m = MemcpyModel::default();
        let t4 = m.copy_time(4);
        let t1k = m.copy_time(1024);
        // Under ~1KB, latency dominated by the base: <25% apart.
        assert!(t1k.as_nanos() as f64 / (t4.as_nanos() as f64) < 1.25);
    }

    #[test]
    fn memcpy_bandwidth_peaks_then_declines() {
        let m = MemcpyModel::default();
        let bw_small = m.effective_bandwidth(256);
        let bw_mid = m.effective_bandwidth(64 << 10);
        let bw_big = m.effective_bandwidth(4 << 20);
        assert!(bw_mid > bw_small * 5.0);
        assert!(bw_mid > bw_big);
        // ~1us for a 10KB copy (the §4.4 calibration anchor).
        let t10k = m.copy_time(10 * 1024).as_nanos();
        assert!((900..1400).contains(&t10k), "10KB copy {t10k}ns");
    }

    #[test]
    fn ssd_append_has_fixed_and_variable_parts() {
        let ssd = SsdModel::default();
        let t0 = ssd.append_time(0);
        assert_eq!(t0, ssd.flush_latency);
        let t10k = ssd.append_time(10 << 10);
        assert!(t10k > t0);
    }
}
