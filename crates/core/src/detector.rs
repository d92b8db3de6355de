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
//! [`HeartbeatState`] is a pure state machine over `(peer counters, now)`
//! so it can be driven by the real clock in
//! [`Cluster`](crate::threaded::Cluster) and by synthetic clocks in tests.

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

/// One node's view of its peers' heartbeat progress.
///
/// The caller feeds observed counter values (from its local SST replica)
/// through [`HeartbeatState::observe`]; newly suspected peers are returned
/// exactly once.
///
/// # Examples
///
/// ```
/// use spindle_core::detector::{DetectorConfig, HeartbeatState};
/// use std::time::{Duration, Instant};
///
/// let cfg = DetectorConfig {
///     heartbeat_interval: Duration::from_millis(1),
///     timeout: Duration::from_millis(10),
/// };
/// let t0 = Instant::now();
/// let mut hb = HeartbeatState::new(vec![1, 2], &cfg, t0);
/// // Peer 1 beats, peer 2 stays silent past the timeout.
/// assert!(hb.observe(1, 5, t0 + Duration::from_millis(9)).is_none());
/// assert_eq!(hb.observe(2, 0, t0 + Duration::from_millis(11)), Some(2));
/// // Reported once only.
/// assert!(hb.observe(2, 0, t0 + Duration::from_millis(20)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatState {
    peers: Vec<PeerState>,
    timeout: Duration,
}

#[derive(Debug, Clone)]
struct PeerState {
    row: usize,
    last_value: i64,
    last_advance: Instant,
    suspected: bool,
}

impl HeartbeatState {
    /// Starts monitoring `rows` at `now` with the given config. Heartbeat
    /// counters initialize to 0 in the SST, so an observed value of 0 is
    /// *not* progress; the timeout clock for every peer starts at `now`.
    pub fn new(rows: Vec<usize>, cfg: &DetectorConfig, now: Instant) -> Self {
        HeartbeatState {
            peers: rows
                .into_iter()
                .map(|row| PeerState {
                    row,
                    last_value: 0,
                    last_advance: now,
                    suspected: false,
                })
                .collect(),
            timeout: cfg.timeout,
        }
    }

    /// Rows currently monitored.
    pub fn monitored(&self) -> impl Iterator<Item = usize> + '_ {
        self.peers.iter().map(|p| p.row)
    }

    /// Feeds one observation of `row`'s heartbeat counter at time `now`.
    /// Returns `Some(row)` exactly once, at the moment the peer becomes
    /// suspected (no counter advance for longer than the timeout).
    ///
    /// Unmonitored rows are ignored.
    pub fn observe(&mut self, row: usize, value: i64, now: Instant) -> Option<usize> {
        let p = self.peers.iter_mut().find(|p| p.row == row)?;
        p.observe(value, now, self.timeout).then_some(row)
    }

    /// Whether `row` is currently suspected.
    pub fn is_suspected(&self, row: usize) -> bool {
        self.peers.iter().any(|p| p.row == row && p.suspected)
    }

    /// Stops monitoring `row` (it was removed by a view change).
    pub fn forget(&mut self, row: usize) {
        self.peers.retain(|p| p.row != row);
    }
}

impl PeerState {
    /// Feeds one observation; `true` exactly once, at the moment the peer
    /// becomes suspected. Only an *advance* counts as life: a regressed
    /// counter reads as silence.
    fn observe(&mut self, value: i64, now: Instant, timeout: Duration) -> bool {
        if value > self.last_value {
            self.last_value = value;
            self.last_advance = now;
            return false;
        }
        if !self.suspected && now.duration_since(self.last_advance) > timeout {
            self.suspected = true;
            return true;
        }
        false
    }
}

/// One node's heartbeat duty, for every loop that must keep it up (the
/// predicate loop, and the agreement and barrier loops of the distributed
/// view-change driver): bump and post the own counter on the cadence, and
/// feed the peers' counters to a [`HeartbeatState`].
///
/// The own value *continues* from what the SST already holds. A row may
/// have heartbeated in the epoch before this ticker exists (the install
/// barrier does), and [`HeartbeatState`] reads a regressed counter as
/// silence — restarting from zero would look like death at every peer
/// whose mirror already saw the higher value.
#[derive(Debug)]
pub(crate) struct HeartbeatTicker {
    interval: Duration,
    value: i64,
    last_beat: Instant,
    state: HeartbeatState,
}

impl HeartbeatTicker {
    /// Monitors `peers` from `now`; the own counter resumes from the value
    /// `sst` holds in `col`.
    pub(crate) fn new(
        peers: Vec<usize>,
        cfg: &DetectorConfig,
        sst: &Sst,
        col: CounterCol,
        now: Instant,
    ) -> Self {
        HeartbeatTicker {
            interval: cfg.heartbeat_interval,
            value: sst.counter(col, sst.own_row()),
            last_beat: now,
            state: HeartbeatState::new(peers, cfg, now),
        }
    }

    /// Starts over on `peers` under `cfg`, keeping the own counter's value
    /// and cadence: for a loop that carries its heartbeat across an epoch
    /// change into a fresh SST, where the value must not regress either.
    pub(crate) fn watch(&mut self, peers: Vec<usize>, cfg: &DetectorConfig, now: Instant) {
        self.interval = cfg.heartbeat_interval;
        self.state = HeartbeatState::new(peers, cfg, now);
    }

    /// When the own counter is next due: what a loop that blocks between
    /// turns must wake by, so a quiet node's heartbeat keeps its cadence.
    pub(crate) fn next_beat(&self) -> Instant {
        self.last_beat + self.interval
    }

    /// One turn: on the cadence, bumps the own counter `col` of `sst` and
    /// hands the word range to `post`; then reads every monitored peer's
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
        let timeout = self.state.timeout;
        let mut suspects = Vec::new();
        for p in &mut self.state.peers {
            if p.observe(sst.counter(col, p.row), now, timeout) {
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

    #[test]
    fn healthy_peer_never_suspected() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(10), t0);
        for i in 0..100 {
            let now = t0 + Duration::from_millis(i * 5);
            assert_eq!(hb.observe(1, i as i64, now), None);
        }
        assert!(!hb.is_suspected(1));
    }

    #[test]
    fn silent_peer_suspected_after_timeout() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(10), t0);
        assert_eq!(hb.observe(1, 3, t0 + Duration::from_millis(1)), None);
        // Stuck at 3: not yet timed out...
        assert_eq!(hb.observe(1, 3, t0 + Duration::from_millis(10)), None);
        // ...and past it.
        assert_eq!(hb.observe(1, 3, t0 + Duration::from_millis(12)), Some(1));
        assert!(hb.is_suspected(1));
    }

    #[test]
    fn suspicion_reported_once() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(5), t0);
        assert_eq!(hb.observe(1, 0, t0 + Duration::from_millis(6)), Some(1));
        assert_eq!(hb.observe(1, 0, t0 + Duration::from_millis(60)), None);
    }

    #[test]
    fn advance_resets_timeout_clock() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(10), t0);
        assert_eq!(hb.observe(1, 1, t0 + Duration::from_millis(9)), None);
        // 9 ms later would have timed out from t0, but the clock reset.
        assert_eq!(hb.observe(1, 1, t0 + Duration::from_millis(18)), None);
        assert_eq!(hb.observe(1, 1, t0 + Duration::from_millis(20)), Some(1));
    }

    #[test]
    fn multiple_peers_tracked_independently() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1, 2, 3], &cfg(10), t0);
        let t = t0 + Duration::from_millis(11);
        assert_eq!(hb.observe(1, 5, t), None); // advanced
        assert_eq!(hb.observe(2, 0, t), Some(2)); // silent
        assert_eq!(hb.observe(3, 7, t), None); // advanced
        assert!(hb.is_suspected(2));
        assert!(!hb.is_suspected(1));
        assert!(!hb.is_suspected(3));
    }

    #[test]
    fn forget_stops_monitoring() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1, 2], &cfg(5), t0);
        hb.forget(2);
        assert_eq!(hb.observe(2, 0, t0 + Duration::from_secs(1)), None);
        assert_eq!(hb.monitored().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn unmonitored_row_ignored() {
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(5), t0);
        assert_eq!(hb.observe(9, 0, t0 + Duration::from_secs(1)), None);
    }

    #[test]
    fn default_config_sane() {
        let c = DetectorConfig::default();
        assert!(c.timeout > c.heartbeat_interval);
    }

    /// A two-row SST holding one heartbeat column, as row 0's replica.
    fn heartbeat_sst() -> (Sst, CounterCol) {
        let mut b = spindle_sst::LayoutBuilder::new();
        let col = b.add_counter("heartbeat", 0);
        let layout = std::sync::Arc::new(b.finish(2));
        let region = std::sync::Arc::new(spindle_fabric::Region::new(layout.region_words()));
        let sst = Sst::new(layout, region, 0);
        sst.init();
        (sst, col)
    }

    #[test]
    fn ticker_bumps_on_cadence_resumes_from_the_sst_and_reports_once() {
        let ms = Duration::from_millis;
        let c = cfg(10); // beat every 1 ms, suspect after 10 ms
        let (sst, col) = heartbeat_sst();
        let t0 = Instant::now();
        let mut posted = Vec::new();
        let mut ticker = HeartbeatTicker::new(vec![1], &c, &sst, col, t0);
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

        // After an epoch change the SST is fresh but may already hold this
        // row's heartbeat (the install barrier beats too): a new ticker
        // continues from it rather than regressing to 1.
        let (next_sst, next_col) = heartbeat_sst();
        next_sst.set_counter(next_col, 7);
        let t1 = t0 + ms(20);
        let mut ticker = HeartbeatTicker::new(vec![1], &c, &next_sst, next_col, t1);
        ticker.tick(t1 + ms(1), &next_sst, next_col, &mut |_| ());
        assert_eq!(next_sst.counter(next_col, 0), 8);
        // And a ticker carried into a fresh SST keeps its value.
        let (fresh_sst, fresh_col) = heartbeat_sst();
        ticker.watch(vec![1], &c, t1 + ms(1));
        ticker.tick(t1 + ms(2), &fresh_sst, fresh_col, &mut |_| ());
        assert_eq!(fresh_sst.counter(fresh_col, 0), 9);
    }

    #[test]
    fn counter_regression_does_not_reset_clock() {
        // Counters are monotonic in the protocol; a regression (stale read
        // ordering) must not count as progress.
        let t0 = Instant::now();
        let mut hb = HeartbeatState::new(vec![1], &cfg(10), t0);
        assert_eq!(hb.observe(1, 5, t0 + Duration::from_millis(1)), None);
        assert_eq!(hb.observe(1, 4, t0 + Duration::from_millis(5)), None);
        assert_eq!(hb.observe(1, 4, t0 + Duration::from_millis(12)), Some(1));
    }
}
