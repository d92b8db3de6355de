//! The load generator: one thread that sends through `NodeHandle::try_send`,
//! drains every node's delivery channel, checks each delivery, and times the
//! phases of a workload.
//!
//! No message delay is injected anywhere: `MemFabric` places instantly and
//! the TCP workload runs over the host's loopback, so the latencies reported
//! here are processor and scheduler time, not wire time.
//!
//! One run brings the cluster up [`INSTANCES`] times and gives each bring-up
//! an equal share of the measuring time; every end-to-end figure is the
//! median over the bring-ups. How three predicate threads, the pollers and
//! the driver land on two processors differs from bring-up to bring-up and
//! then sticks for seconds, so one long-lived cluster measures one placement;
//! several short-lived ones measure the program.

use std::time::{Duration, Instant};

use spindle_core::threaded::{Delivered, SendError};
use spindle_core::Cluster;
use spindle_fabric::Fabric;
use spindle_membership::SubgroupId;
use spindle_sim::DetRng;

use crate::datadir::DataDir;
use crate::oracle::Oracle;
use crate::stats;
use crate::workloads::{Spec, NODES, WINDOW};

const SG: SubgroupId = SubgroupId(0);
/// Cluster bring-ups per run.
pub const INSTANCES: usize = 16;
/// Messages per second in the paced phase, low enough that on every
/// workload a message is delivered before the next one is due, so the phase
/// measures the latency of a message travelling alone.
pub const PACED_RATE: u64 = 2_000;
/// Per-sender capacity for messages sent but not yet seen at every member.
/// The window bounds what the program holds; this bounds what may sit in
/// the delivery channels on top of that.
const IN_FLIGHT: usize = 1 << 12;
/// Messages of one sender the closed loop keeps outstanding: [`SPARE`] short
/// of the ring window, so that a sender can always be handed one more.
/// A receiver can lose track of a sender's rounds (README, *Known hazards*)
/// and only a further message repairs that; with every window full there is
/// none and the cluster is dead for good.
const OUTSTANDING: u64 = (WINDOW - SPARE) as u64;
/// Slots of every window the closed loop leaves to the nudges: it can take a
/// turn of every sender to repair a receiver, and a nudge sent while the
/// predicate threads were not running repairs nothing.
const SPARE: usize = 8;
/// Messages outstanding and nothing delivered everywhere for this long: the
/// driver hands one sender [`FILLERS`] more messages (the issue's filler).
/// Longer than any pause the scheduler imposes on a predicate thread here.
const NUDGE: Duration = Duration::from_millis(20);
/// Messages outstanding and nothing delivered everywhere for this long, the
/// nudges notwithstanding: the bring-up is given up and what it did not
/// deliver is counted as failed.
const STALL: Duration = Duration::from_secs(5);
/// Messages a nudge hands its sender.
const FILLERS: usize = 2;
/// `due_ns` of a message whose latency is not a sample: a nudge.
const UNTIMED: u64 = u64::MAX;

/// How one bring-up's share of `--seconds` is split.
pub struct Phases {
    /// Closed loop, discarded.
    pub warm: Duration,
    /// Closed loop, measured: goodput and CPU per message.
    pub saturation: Duration,
    /// Open loop at [`PACED_RATE`], measured: latency.
    pub paced: Duration,
}

impl Phases {
    /// Splits `seconds / INSTANCES` into 1 : 11 : 8.
    pub fn of(seconds: f64) -> Phases {
        let part = |n: f64| Duration::from_secs_f64(seconds / INSTANCES as f64 * n / 20.0);
        Phases {
            warm: part(1.0),
            saturation: part(11.0),
            paced: part(8.0),
        }
    }
}

/// What the payloads of a load carry. Either way a sender's message 0 is
/// all zeros, which is what a ring slot nobody wrote yet holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Payloads {
    /// Every message of a sender carries that sender's seeded bytes. A ring
    /// slot then always holds the bytes its next occupant will bring, so the
    /// program's torn slot reads (README, *Known hazards*) return what was
    /// sent. The workloads use this: their operations must not fail.
    PerSender,
    /// The sender's bytes with the app index over the first and the last 8:
    /// a read that overtook the write shows. The torn-read probe uses this.
    PerMessage,
}

/// Writes `app_index` over the first and the last 8 bytes of `payload`.
fn stamp(payload: &mut [u8], app_index: u64) {
    let n = payload.len();
    payload[..8].copy_from_slice(&app_index.to_le_bytes());
    payload[n - 8..].copy_from_slice(&app_index.to_le_bytes());
}

/// Whether a delivery carries exactly the bytes its sender gave the program
/// for it; `templates` holds each sender rank's bytes.
fn payload_ok(payloads: Payloads, templates: &[Vec<u8>], d: &Delivered) -> bool {
    let Some(sent) = templates.get(d.sender_rank) else {
        return false;
    };
    let n = sent.len();
    if d.epoch != 0 || d.subgroup != SG || d.data.len() != n {
        return false;
    }
    if d.app_index == 0 {
        return d.data.iter().all(|&b| b == 0);
    }
    match payloads {
        Payloads::PerSender => d.data == *sent,
        Payloads::PerMessage => {
            let index = d.app_index.to_le_bytes();
            d.data[..8] == index && d.data[8..n - 8] == sent[8..n - 8] && d.data[n - 8..] == index
        }
    }
}

/// Driver-side call timings, kept only in the traced pass.
#[derive(Default)]
pub struct CallTimes {
    /// Every accepted `try_send`, in ns.
    pub try_send_ns: Vec<u64>,
    /// Time inside drains that returned at least one delivery.
    pub drain_ns: u64,
}

/// A started cluster plus everything the driver tracks about its traffic.
pub struct Load<F: Fabric> {
    pub cluster: Cluster<F>,
    /// Scratch directory of a persistent cluster; dropped after the cluster.
    pub dir: Option<DataDir>,
    /// Start of this bring-up → first message delivered everywhere.
    setup: Duration,
    senders: Vec<usize>,
    payloads: Payloads,
    /// The bytes each sender rank sends, made from the seed.
    templates: Vec<Vec<u8>>,
    /// Every sender's message 0.
    zeros: Vec<u8>,
    t0: Instant,
    sent: Vec<u64>,
    /// Per sender: messages delivered at every member.
    completed_of: Vec<u64>,
    due_ns: Vec<Vec<u64>>,
    seen: Vec<Vec<u8>>,
    completed: u64,
    last_completion_ns: u64,
    last_nudge_ns: u64,
    nudges: u64,
    stalled: bool,
    /// Set for the paced phase only: saturation needs no per-message times.
    keep_latencies: bool,
    oracle: Oracle,
    /// Due → last member's delivery reached the driver, current phase.
    lat_ns: Vec<u64>,
    /// Due → `try_send` accepted, paced phase.
    late_ns: Vec<u64>,
    attempts: u64,
    window_full: u64,
    send_errors: u64,
    drains: u64,
    drained: u64,
    calls: Option<CallTimes>,
}

impl<F: Fabric> Load<F> {
    /// Builds the payloads from `seed`, starts the cluster with `start`,
    /// pushes one message through to every member, and then takes every
    /// active sender once round its ring.
    fn start(
        spec: &Spec,
        seed: u64,
        payloads: Payloads,
        start: &impl Fn() -> (Cluster<F>, Option<DataDir>),
    ) -> Load<F> {
        let t0 = Instant::now();
        let mut rng = DetRng::seed(seed);
        let templates = (0..NODES)
            .map(|_| {
                let mut t = vec![0u8; spec.payload];
                for chunk in t.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
                }
                t
            })
            .collect();
        let (cluster, dir) = start();
        let mut load = Load {
            cluster,
            dir,
            setup: Duration::ZERO,
            senders: (0..spec.active).collect(),
            payloads,
            templates,
            zeros: vec![0; spec.payload],
            t0,
            sent: vec![0; NODES],
            completed_of: vec![0; NODES],
            due_ns: vec![vec![0; IN_FLIGHT]; NODES],
            seen: vec![vec![0; IN_FLIGHT]; NODES],
            completed: 0,
            last_completion_ns: 0,
            last_nudge_ns: 0,
            nudges: 0,
            stalled: false,
            keep_latencies: false,
            oracle: Oracle::new(NODES, NODES),
            lat_ns: Vec::new(),
            late_ns: Vec::new(),
            attempts: 0,
            window_full: 0,
            send_errors: 0,
            drains: 0,
            drained: 0,
            calls: None,
        };
        let first = load.senders[0];
        while !load.send(first, UNTIMED) {
            std::thread::yield_now();
        }
        load.quiesce();
        load.setup = t0.elapsed();
        load.fill_rings();
        load
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Messages accepted by `try_send` so far.
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// One `try_send` from `sender` of a message that was due at `due_ns`.
    /// Returns whether the window admitted it.
    fn send(&mut self, sender: usize, due_ns: u64) -> bool {
        let app_index = self.sent[sender];
        let at = app_index as usize % IN_FLIGHT;
        assert_eq!(
            self.seen[sender][at], 0,
            "more than {IN_FLIGHT} messages of one sender in flight"
        );
        let payload = if app_index == 0 {
            &self.zeros
        } else {
            let payload = &mut self.templates[sender];
            if self.payloads == Payloads::PerMessage {
                stamp(payload, app_index);
            }
            &*payload
        };
        self.attempts += 1;
        let t = self.calls.is_some().then(Instant::now);
        let outcome: Result<bool, SendError> = self.cluster.node(sender).try_send(SG, payload);
        match outcome {
            Ok(true) => {
                if let (Some(calls), Some(t)) = (self.calls.as_mut(), t) {
                    calls.try_send_ns.push(t.elapsed().as_nanos() as u64);
                }
                self.due_ns[sender][at] = due_ns;
                self.sent[sender] = app_index + 1;
                true
            }
            Ok(false) => {
                self.window_full += 1;
                false
            }
            Err(_) => {
                self.send_errors += 1;
                false
            }
        }
    }

    /// Empties every node's delivery channel, checking each delivery.
    fn drain(&mut self) -> u64 {
        let t = self.calls.is_some().then(Instant::now);
        let mut got = 0u64;
        for node in 0..NODES {
            while let Ok(d) = self.cluster.node(node).deliveries().try_recv() {
                let now = self.now_ns();
                got += 1;
                let (s, a) = (d.sender_rank, d.app_index);
                let intact = payload_ok(self.payloads, &self.templates, &d);
                self.oracle.observe(node, s, a, intact);
                if s < NODES && a < self.sent[s] {
                    let at = a as usize % IN_FLIGHT;
                    self.seen[s][at] += 1;
                    if self.seen[s][at] == NODES as u8 {
                        self.seen[s][at] = 0;
                        self.completed += 1;
                        self.completed_of[s] += 1;
                        self.last_completion_ns = now;
                        let due = self.due_ns[s][at];
                        if self.keep_latencies && due != UNTIMED {
                            self.lat_ns.push(now.saturating_sub(due));
                        }
                    }
                }
            }
        }
        if got > 0 {
            self.drains += 1;
            self.drained += got;
            if let (Some(calls), Some(t)) = (self.calls.as_mut(), t) {
                calls.drain_ns += t.elapsed().as_nanos() as u64;
            }
        }
        got
    }

    /// With messages outstanding and none delivered everywhere for [`NUDGE`],
    /// hands one active sender, the next in turn, [`FILLERS`] more messages;
    /// after [`STALL`] gives the bring-up up. Call after a drain. Returns whether
    /// it is given up.
    ///
    /// One sender at a time, because both ways a receiver can lose track of
    /// a sender (README, *Known hazards*) are repaired when that sender
    /// pushes its committed-rounds counter, and it pushes it only for null
    /// rounds, which it commits on seeing a message of a later round from
    /// another sender while sending nothing itself. [`FILLERS`] messages,
    /// because the senders' rounds are level at a stall and one message
    /// from a lower rank is of no later round.
    fn unstick(&mut self, now_ns: u64) -> bool {
        if self.completed == self.sent_total() {
            return self.stalled;
        }
        let quiet =
            |since: u64, limit: Duration| now_ns.saturating_sub(since) > limit.as_nanos() as u64;
        if quiet(self.last_completion_ns, STALL) {
            self.stalled = true;
        } else if quiet(self.last_completion_ns.max(self.last_nudge_ns), NUDGE) {
            self.last_nudge_ns = now_ns;
            let sender = self.senders[self.nudges as usize % self.senders.len()];
            self.nudges += 1;
            for _ in 0..FILLERS {
                self.send(sender, UNTIMED);
            }
        }
        self.stalled
    }

    /// Drains until everything sent is delivered at every member, or the
    /// bring-up is given up.
    fn quiesce(&mut self) {
        self.last_completion_ns = self.now_ns();
        while self.completed < self.sent_total() && !self.stalled {
            if self.drain() == 0 {
                std::thread::yield_now();
            }
            self.unstick(self.now_ns());
        }
    }

    /// One `try_send` for `sender` unless it has [`OUTSTANDING`] messages
    /// out, which counts as a refusal by the window.
    fn send_within_window(&mut self, sender: usize, due_ns: u64) -> bool {
        if self.sent[sender] - self.completed_of[sender] < OUTSTANDING {
            return self.send(sender, due_ns);
        }
        self.attempts += 1;
        self.window_full += 1;
        false
    }

    /// Takes every active sender once round its ring and one slot further,
    /// one sender at a time, so that every slot holds the sender's bytes.
    ///
    /// A ring slot nobody wrote yet holds zeros, so a torn read of a slot's
    /// first occupant would still return wrong bytes. With a single sender
    /// sending, a message becomes deliverable only through the null rounds
    /// the other members commit on seeing it, and the sender acknowledges
    /// those after its own write of the message has returned: no member can
    /// read the slot before it is whole. That does not hold for the first
    /// message of a sender's turn, whose round the others may have committed
    /// already; it is message 0, which is all zeros, and message
    /// [`WINDOW`] then brings the sender's bytes to its slot.
    fn fill_rings(&mut self) {
        for i in 0..self.senders.len() {
            let sender = self.senders[i];
            while self.sent[sender] <= WINDOW as u64 && !self.stalled {
                let sent = self.send_within_window(sender, UNTIMED);
                if self.drain() == 0 && !sent {
                    std::thread::yield_now();
                }
                self.unstick(self.now_ns());
            }
            self.quiesce();
        }
    }

    /// Closed loop for `phase`: round-robin one `try_send` per active sender
    /// as fast as the window admits, draining after every round, yielding
    /// the processor when a round could do neither. Returns messages
    /// delivered everywhere per second.
    fn closed_loop(&mut self, phase: Duration) -> f64 {
        let start = self.now_ns();
        let end = start + phase.as_nanos() as u64;
        let completed0 = self.completed;
        self.last_completion_ns = start;
        let mut now = start;
        while now < end && !self.unstick(now) {
            let mut busy = false;
            for i in 0..self.senders.len() {
                busy |= self.send_within_window(self.senders[i], UNTIMED);
            }
            busy |= self.drain() > 0;
            if !busy {
                std::thread::yield_now();
            }
            now = self.now_ns();
        }
        (self.completed - completed0) as f64 * 1e9 / (now - start).max(1) as f64
    }

    /// Open loop for `phase`: message `k` is due at `start + k / rate` and is
    /// timed from then, whenever the window lets it go. Leaves the phase's
    /// latencies in `lat_ns` and the generator's lateness in `late_ns`.
    fn open_loop(&mut self, phase: Duration, rate: u64) {
        let start = self.now_ns();
        let end = start + phase.as_nanos() as u64;
        self.last_completion_ns = start;
        self.keep_latencies = true;
        let due = |k: u64| start + k * 1_000_000_000 / rate;
        let mut k = 0u64;
        loop {
            let mut now = self.now_ns();
            if now >= end || self.unstick(now) {
                break;
            }
            let mut busy = false;
            while due(k) <= now {
                let sender = self.senders[k as usize % self.senders.len()];
                if !self.send(sender, due(k)) {
                    break;
                }
                self.late_ns.push(now - due(k));
                k += 1;
                busy = true;
                now = self.now_ns();
            }
            busy |= self.drain() > 0;
            if !busy {
                std::thread::yield_now();
            }
        }
    }
}

/// What one bring-up measured.
struct Instance {
    setup_s: f64,
    goodput_msgs_s: f64,
    lat_p50_us: f64,
    lat_p90_us: f64,
    cpu_us_per_msg: f64,
    paced_cpu_us_per_msg: f64,
    rss_mb: f64,
    window_full_ratio: f64,
}

/// Everything one pass over a workload measured. End-to-end figures are
/// medians over the bring-ups that were not given up; counts are sums over
/// all.
#[derive(Default)]
pub struct Report {
    /// Bring-ups the medians are taken over.
    pub instances: usize,
    pub setup_s: f64,
    pub goodput_msgs_s: f64,
    pub lat_p50_us: f64,
    pub lat_p90_us: f64,
    pub cpu_us_per_msg: f64,
    /// The same ratio in the paced phase, where it is mostly idle polling.
    pub paced_cpu_us_per_msg: f64,
    pub rss_mb: f64,
    /// Messages `try_send` accepted or refused with an error.
    pub attempted: u64,
    /// Refused sends + messages not delivered at every member + ordering
    /// violations + deliveries with wrong bytes.
    pub failed: u64,
    pub send_errors: u64,
    pub undelivered: u64,
    pub order_violations: u64,
    pub wrong_payloads: u64,
    pub first_violation: Option<String>,
    /// Per-instance goodput, for the report.
    pub goodput_each: Vec<f64>,
    /// Messages delivered everywhere in the saturation phases.
    pub saturation_msgs: u64,
    /// Latency samples of the paced phases, pooled and sorted.
    pub paced_lat_ns: Vec<u64>,
    /// Generator lateness of the paced phases, pooled and sorted.
    pub paced_late_ns: Vec<u64>,
    pub window_full_ratio: f64,
    pub deliveries_per_drain: f64,
    /// Times the driver had to hand the senders a filler message because
    /// nothing was delivered for [`NUDGE`].
    pub quiesce_stalls: u64,
    /// Bring-ups given up after [`STALL`] without a delivery.
    pub given_up: u64,
    pub data_dir_bytes: u64,
    pub calls: Option<CallTimes>,
}

impl Report {
    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every message sent was delivered at every member, in FIFO
    /// and total order, with the bytes that were sent.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.instances > 0
    }
}

/// Runs `spec` on [`INSTANCES`] bring-ups and returns the report together
/// with the last, still-running cluster, so the caller can read the
/// program's own counters before shutting it down.
///
/// A bring-up that is given up (messages outstanding, nothing delivered for
/// [`STALL`]) has its undelivered messages counted in `failed` and is left
/// out of the medians.
pub fn run<F: Fabric>(
    spec: &Spec,
    seed: u64,
    phases: &Phases,
    time_calls: bool,
    start: impl Fn() -> (Cluster<F>, Option<DataDir>),
) -> (Report, Load<F>) {
    let mut done: Vec<Instance> = Vec::with_capacity(INSTANCES);
    let mut report = Report {
        calls: time_calls.then(CallTimes::default),
        ..Report::default()
    };
    let (mut drains, mut drained) = (0u64, 0u64);
    let us = |ns: u64| ns as f64 / 1e3;
    let mut last = None;
    for _ in 0..INSTANCES {
        // The previous cluster's threads must be gone before the next start.
        drop(last.take());
        let mut load = Load::start(spec, seed, Payloads::PerSender, &start);
        load.closed_loop(phases.warm);
        load.calls = report.calls.take();
        let before = (load.attempts, load.window_full, load.completed);
        let cpu0 = stats::other_threads_cpu_s();
        let goodput = load.closed_loop(phases.saturation);
        let saturation_cpu_s = stats::other_threads_cpu_s() - cpu0;
        let saturation_msgs = load.completed - before.2;
        let window_full_ratio =
            (load.window_full - before.1) as f64 / (load.attempts - before.0).max(1) as f64;
        load.quiesce();

        let cpu0 = stats::other_threads_cpu_s();
        let sent0 = load.sent_total();
        load.open_loop(phases.paced, PACED_RATE);
        let paced_cpu_s = stats::other_threads_cpu_s() - cpu0;
        let paced_sent = load.sent_total() - sent0;
        let rss_mb = stats::rss_mb();
        load.quiesce();
        report.calls = load.calls.take();

        let undelivered = load.sent_total() - load.completed;
        report.attempted += load.sent_total() + load.send_errors;
        report.send_errors += load.send_errors;
        report.undelivered += undelivered;
        report.order_violations += load.oracle.order_violations();
        report.wrong_payloads += load.oracle.wrong_payloads();
        if report.first_violation.is_none() {
            report.first_violation = load.oracle.first_violation().map(str::to_owned);
        }
        report.data_dir_bytes += load.dir.as_ref().map_or(0, DataDir::bytes);
        report.quiesce_stalls += load.nudges;
        drains += load.drains;
        drained += load.drained;
        if load.stalled {
            report.given_up += 1;
            println!(
                "  bring-up given up: {undelivered} messages never delivered, counted as failed; \
                 its timings are left out of the medians"
            );
        } else {
            report.saturation_msgs += saturation_msgs;
            load.lat_ns.sort_unstable();
            done.push(Instance {
                setup_s: load.setup.as_secs_f64(),
                goodput_msgs_s: goodput,
                lat_p50_us: us(stats::percentile(&load.lat_ns, 0.5)),
                lat_p90_us: us(stats::percentile(&load.lat_ns, 0.9)),
                cpu_us_per_msg: saturation_cpu_s * 1e6 / saturation_msgs.max(1) as f64,
                paced_cpu_us_per_msg: paced_cpu_s * 1e6 / paced_sent.max(1) as f64,
                rss_mb,
                window_full_ratio,
            });
            report.paced_lat_ns.append(&mut load.lat_ns);
            report.paced_late_ns.append(&mut load.late_ns);
        }
        last = Some(load);
    }

    let med = |f: fn(&Instance) -> f64| stats::median(&done.iter().map(f).collect::<Vec<_>>());
    report.instances = done.len();
    report.failed =
        report.send_errors + report.undelivered + report.order_violations + report.wrong_payloads;
    report.setup_s = med(|i| i.setup_s);
    report.goodput_msgs_s = med(|i| i.goodput_msgs_s);
    report.lat_p50_us = med(|i| i.lat_p50_us);
    report.lat_p90_us = med(|i| i.lat_p90_us);
    report.cpu_us_per_msg = med(|i| i.cpu_us_per_msg);
    report.paced_cpu_us_per_msg = med(|i| i.paced_cpu_us_per_msg);
    report.rss_mb = med(|i| i.rss_mb);
    report.window_full_ratio = med(|i| i.window_full_ratio);
    report.goodput_each = done.iter().map(|i| i.goodput_msgs_s).collect();
    report.deliveries_per_drain = drained as f64 / drains.max(1) as f64;
    report.paced_lat_ns.sort_unstable();
    report.paced_late_ns.sort_unstable();
    (report, last.expect("INSTANCES is at least 1"))
}

/// The torn-read probe: one bring-up of `spec` in closed loop for `phase`
/// with a distinct payload per message, so that a delivery which read its
/// ring slot before the write was whole shows. Returns such deliveries per
/// million. They are a measurement of the fabric layer, not operations of
/// the workload: the workloads send payloads on which the race is harmless.
pub fn torn_reads_ppm<F: Fabric>(
    spec: &Spec,
    seed: u64,
    phase: Duration,
    start: impl Fn() -> (Cluster<F>, Option<DataDir>),
) -> f64 {
    let mut load = Load::start(spec, seed, Payloads::PerMessage, &start);
    load.closed_loop(phase);
    load.quiesce();
    load.oracle.wrong_payloads() as f64 * 1e6 / load.drained.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sender ranks' bytes.
    fn templates() -> Vec<Vec<u8>> {
        (1..3u8)
            .map(|k| (0..64u8).map(|b| b.wrapping_mul(37) | k).collect())
            .collect()
    }

    fn delivered(app_index: u64, data: Vec<u8>) -> Delivered {
        Delivered {
            epoch: 0,
            subgroup: SG,
            sender_rank: 1,
            app_index,
            seq: 0,
            data,
        }
    }

    fn stamped(app_index: u64) -> Vec<u8> {
        let mut p = templates()[1].clone();
        stamp(&mut p, app_index);
        p
    }

    #[test]
    fn only_the_senders_bytes_pass_the_payload_check() {
        let ok = |d: &Delivered| payload_ok(Payloads::PerSender, &templates(), d);
        let sent = templates()[1].clone();
        assert!(ok(&delivered(200, sent.clone())));
        assert!(!ok(&delivered(200, templates()[0].clone())), "other sender");
        let mut flipped = sent.clone();
        flipped[30] ^= 0x40;
        assert!(!ok(&delivered(200, flipped)));
        // A slot nobody wrote yet holds zeros: a read that overtook the
        // first write of a slot.
        let mut torn = sent.clone();
        torn[40..].fill(0);
        assert!(!ok(&delivered(200, torn)));
        assert!(!ok(&delivered(200, sent[..63].to_vec())));
        assert!(!ok(&Delivered {
            epoch: 1,
            ..delivered(200, sent.clone())
        }));
        assert!(!ok(&Delivered {
            sender_rank: 2,
            ..delivered(200, sent.clone())
        }));
        // Message 0 is all zeros, whoever sends it.
        assert!(ok(&delivered(0, vec![0; 64])));
        assert!(!ok(&delivered(0, sent)));
        assert!(!ok(&delivered(1, vec![0; 64])));
    }

    #[test]
    fn a_per_message_payload_shows_a_read_that_overtook_the_write() {
        let ok = |d: &Delivered| payload_ok(Payloads::PerMessage, &templates(), d);
        assert!(ok(&delivered(200, stamped(200))));
        // The slot's previous occupant from byte `upto` on.
        for upto in [0, 8, 32, 56] {
            let mut data = stamped(200);
            data[upto..].copy_from_slice(&stamped(200 - WINDOW as u64)[upto..]);
            assert!(!ok(&delivered(200, data)), "copy stopped at byte {upto}");
        }
        assert!(!ok(&delivered(200, stamped(199))));
    }

    #[test]
    fn a_run_is_correct_only_when_nothing_failed() {
        let run = |failed: u64| Report {
            instances: INSTANCES,
            attempted: 1_000_000,
            failed,
            ..Report::default()
        };
        assert!(run(0).correct());
        assert!(!run(1).correct());
        assert!(!Report::default().correct(), "no bring-up measured");
    }

    #[test]
    fn phases_share_the_seconds_between_the_bring_ups() {
        let p = Phases::of(20.0);
        let each = p.warm + p.saturation + p.paced;
        assert!((each.as_secs_f64() * INSTANCES as f64 - 20.0).abs() < 1e-6);
        assert!(p.saturation > p.paced && p.paced > p.warm);
    }
}
