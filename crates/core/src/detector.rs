//! SST heartbeat failure detection.
//!
//! Derecho detects failures the same way it does everything else: through
//! the SST. Every node keeps a monotonic *heartbeat* counter in its own row
//! and pushes it to all members on a fixed cadence; a peer whose counter
//! stops advancing for longer than a timeout is *suspected* and reported to
//! the membership layer, which runs the §2.1 view change to remove it. The
//! Spindle paper assumes this machinery from Derecho ("a view change or
//! reconfiguration occurs on failures, node joins and leaves"); this module
//! supplies it for the threaded runtime.
//!
//! One ticker per node carries that duty: its own counter and its verdicts
//! on the peers it watches, over its SST replica and a time it is handed —
//! it reads no clock, so each predicate thread of a
//! [`Cluster`](crate::threaded::Cluster) drives it with the real one and the
//! tests with a synthetic one.

use std::ops::Range;
use std::time::{Duration, Instant};

use spindle_sst::{CounterCol, Sst};

/// Configuration for SST heartbeat failure detection.
///
/// # Examples
///
/// ```
/// use spindle_core::detector::DetectorConfig;
/// use std::time::Duration;
///
/// let cfg = DetectorConfig::default();
/// assert!(cfg.timeout > cfg.heartbeat_interval * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// How often each node bumps (and pushes) its heartbeat counter.
    pub heartbeat_interval: Duration,
    /// How long a peer's counter may stand still before suspicion. Must
    /// comfortably exceed the interval (several missed beats), or healthy
    /// nodes get evicted under scheduling jitter.
    pub timeout: Duration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(2),
            timeout: Duration::from_millis(200),
        }
    }
}

#[derive(Debug)]
struct PeerState {
    row: usize,
    last_value: i64,
    last_advance: Instant,
    suspected: bool,
}

/// One node's heartbeat duty, for every loop that must keep it up (the
/// predicate loop, and the agreement and barrier loops of the view-change
/// driver it runs): bump and post the own counter on the cadence, and read
/// the watched peers' counters — a peer whose counter stands still past the
/// timeout is suspected, and reported once.
///
/// A predicate thread owns one for its whole life and [`watch`](Self::watch)es
/// each epoch's peers with it, so the own value never regresses: a regressed
/// counter reads as silence at every peer whose mirror saw the higher one.
#[derive(Debug)]
pub(crate) struct HeartbeatTicker {
    interval: Duration,
    timeout: Duration,
    /// The watched peers' timeout, in detector timeouts.
    leash: u32,
    value: i64,
    last_beat: Instant,
    peers: Vec<PeerState>,
}

impl HeartbeatTicker {
    /// A heartbeat at 0 under `cfg`, first due one interval after `now`,
    /// watching nobody yet.
    pub(crate) fn new(cfg: &DetectorConfig, now: Instant) -> Self {
        HeartbeatTicker {
            interval: cfg.heartbeat_interval,
            timeout: cfg.timeout,
            leash: 1,
            value: 0,
            last_beat: now,
            peers: Vec::new(),
        }
    }

    /// Watches `peers` instead, suspecting one after `leash` detector
    /// timeouts of silence counted from `now`, and keeps the own counter's
    /// value and cadence. Heartbeat counters initialize to 0 in the SST, so
    /// a 0 is *not* progress.
    pub(crate) fn watch(&mut self, peers: &[usize], leash: u32, now: Instant) {
        self.leash = leash;
        self.peers = peers
            .iter()
            .map(|&row| PeerState {
                row,
                last_value: 0,
                last_advance: now,
                suspected: false,
            })
            .collect();
    }

    /// When the own counter is next due: what a loop that blocks between
    /// turns must wake by, so a quiet node's heartbeat keeps its cadence.
    pub(crate) fn next_beat(&self) -> Instant {
        self.last_beat + self.interval
    }

    /// One turn: on the cadence, bumps the own counter `col` of `sst` and
    /// hands the word range to `post`; then reads every watched peer's
    /// counter from `sst`. Returns the peers that just became suspected —
    /// each is reported once.
    pub(crate) fn tick(
        &mut self,
        now: Instant,
        sst: &Sst,
        col: CounterCol,
        post: &mut dyn FnMut(Range<usize>),
    ) -> Vec<usize> {
        if now.duration_since(self.last_beat) >= self.interval {
            self.value += 1;
            self.last_beat = now;
            post(sst.set_counter(col, self.value));
        }
        let mut suspects = Vec::new();
        for p in &mut self.peers {
            // Only an *advance* counts as life: a regressed counter reads
            // as silence.
            let value = sst.counter(col, p.row);
            if value > p.last_value {
                (p.last_value, p.last_advance) = (value, now);
            } else if !p.suspected && now - p.last_advance > self.timeout * self.leash {
                p.suspected = true;
                suspects.push(p.row);
            }
        }
        suspects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(timeout_ms: u64) -> DetectorConfig {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(1),
            timeout: Duration::from_millis(timeout_ms),
        }
    }

    /// A `rows`-row SST holding one heartbeat column, as row 0's replica.
    fn heartbeat_sst(rows: usize) -> (Sst, CounterCol) {
        let mut b = spindle_sst::LayoutBuilder::new();
        let col = b.add_counter("heartbeat", 0);
        let layout = std::sync::Arc::new(b.finish(rows));
        let region = std::sync::Arc::new(spindle_fabric::Region::new(layout.region_words()));
        let sst = Sst::new(layout, region, 0);
        sst.init();
        (sst, col)
    }

    /// Row 0's ticker over a fresh SST, watching some peers from `t0`.
    struct Rig {
        sst: Sst,
        col: CounterCol,
        t0: Instant,
        ticker: HeartbeatTicker,
    }

    impl Rig {
        fn new(rows: usize, peers: &[usize], timeout_ms: u64) -> Rig {
            let (sst, col) = heartbeat_sst(rows);
            let t0 = Instant::now();
            let mut ticker = HeartbeatTicker::new(&cfg(timeout_ms), t0);
            ticker.watch(peers, 1, t0);
            Rig {
                sst,
                col,
                t0,
                ticker,
            }
        }

        /// One turn `ms` after `t0`, once `beats` — `(row, value)` — have
        /// landed in the replica as those rows' pushes would.
        fn tick(&mut self, ms: u64, beats: &[(usize, i64)]) -> Vec<usize> {
            for &(row, value) in beats {
                let word = self
                    .sst
                    .layout()
                    .abs_range(row, self.col.word_range())
                    .start;
                self.sst.region().store(word, value as u64);
            }
            let now = self.t0 + Duration::from_millis(ms);
            self.ticker.tick(now, &self.sst, self.col, &mut |_| ())
        }
    }

    #[test]
    fn healthy_peer_never_suspected() {
        let mut rig = Rig::new(2, &[1], 10);
        for i in 0..100 {
            assert!(rig.tick(i * 5, &[(1, i as i64)]).is_empty());
        }
    }

    #[test]
    fn silent_peer_suspected_after_timeout() {
        let mut rig = Rig::new(2, &[1], 10);
        assert!(rig.tick(1, &[(1, 3)]).is_empty());
        // Stuck at 3: not yet timed out...
        assert!(rig.tick(10, &[]).is_empty());
        // ...and past it.
        assert_eq!(rig.tick(12, &[]), vec![1]);
    }

    #[test]
    fn suspicion_reported_once() {
        let mut rig = Rig::new(2, &[1], 5);
        assert_eq!(rig.tick(6, &[]), vec![1]);
        assert!(rig.tick(60, &[]).is_empty());
    }

    #[test]
    fn advance_resets_timeout_clock() {
        let mut rig = Rig::new(2, &[1], 10);
        assert!(rig.tick(9, &[(1, 1)]).is_empty());
        // 9 ms later would have timed out from t0, but the clock reset.
        assert!(rig.tick(18, &[]).is_empty());
        assert_eq!(rig.tick(20, &[]), vec![1]);
    }

    #[test]
    fn multiple_peers_tracked_independently() {
        let mut rig = Rig::new(4, &[1, 2, 3], 10);
        // 1 and 3 advanced, 2 stayed silent.
        assert_eq!(rig.tick(11, &[(1, 5), (3, 7)]), vec![2]);
        assert!(rig.tick(12, &[(1, 6), (3, 8)]).is_empty());
    }

    #[test]
    fn unmonitored_row_ignored() {
        let mut rig = Rig::new(3, &[1], 5);
        assert!(rig.tick(1_000, &[(1, 1)]).is_empty());
    }

    #[test]
    fn counter_regression_does_not_reset_clock() {
        // Counters are monotonic in the protocol; a regression (stale read
        // ordering) must not count as progress.
        let mut rig = Rig::new(2, &[1], 10);
        assert!(rig.tick(1, &[(1, 5)]).is_empty());
        assert!(rig.tick(5, &[(1, 4)]).is_empty());
        assert_eq!(rig.tick(12, &[]), vec![1]);
    }

    #[test]
    fn default_config_sane() {
        let c = DetectorConfig::default();
        assert!(c.timeout > c.heartbeat_interval);
    }

    #[test]
    fn ticker_bumps_on_cadence_and_reports_once() {
        let ms = Duration::from_millis;
        let c = cfg(10); // beat every 1 ms, suspect after 10 ms
        let (sst, col) = heartbeat_sst(2);
        let t0 = Instant::now();
        let mut posted = Vec::new();
        let mut ticker = HeartbeatTicker::new(&c, t0);
        ticker.watch(&[1], 1, t0);
        // Off the cadence nothing is bumped or posted.
        let early = t0 + Duration::from_micros(500);
        assert!(ticker
            .tick(early, &sst, col, &mut |r| posted.push(r))
            .is_empty());
        assert_eq!((sst.counter(col, 0), posted.len()), (0, 0));
        // On it, the own counter advances by one and its word is posted.
        for beat in 1..=2 {
            ticker.tick(t0 + ms(beat), &sst, col, &mut |r| posted.push(r));
            assert_eq!(sst.counter(col, 0), beat as i64);
        }
        assert_eq!(posted, vec![sst.own_counter_range(col); 2]);
        // The silent peer is reported at the timeout, and only then.
        assert_eq!(ticker.tick(t0 + ms(11), &sst, col, &mut |_| ()), vec![1]);
        assert!(ticker.tick(t0 + ms(12), &sst, col, &mut |_| ()).is_empty());
    }
}
