//! Persistence policy knobs: when to fsync, how large a segment may
//! grow, and the fault-injection hooks the harness uses to model slow
//! or stalled disks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default segment capacity: 64 MiB.
pub const DEFAULT_SEGMENT_CAP: u64 = 64 * 1024 * 1024;

/// When the runtime fsyncs the durable log.
///
/// The policy bounds the *durability window*: the deliveries that a
/// kill -9 can lose. `Always` loses nothing already appended;
/// `EveryN(n)` loses at most `n - 1` appends; `IntervalMs(t)` loses at
/// most `t` milliseconds of appends; `Never` leaves durability to the
/// OS page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Fsync after every append batch.
    #[default]
    Always,
    /// Fsync once at least this many records are unsynced.
    EveryN(u32),
    /// Fsync once the oldest unsynced record is at least this old.
    IntervalMs(u64),
    /// Never fsync (the OS decides when bytes hit the platter).
    Never,
}

impl SyncPolicy {
    /// Parses the CLI/TOML spelling: `always`, `never`, `every-n=<N>`,
    /// or `interval-ms=<T>`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown spellings or
    /// out-of-range parameters (`every-n` requires N >= 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use spindle_persist::SyncPolicy;
    /// assert_eq!(SyncPolicy::parse("every-n=8"), Ok(SyncPolicy::EveryN(8)));
    /// assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
    /// assert!(SyncPolicy::parse("sometimes").is_err());
    /// ```
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        match s {
            "always" => return Ok(SyncPolicy::Always),
            "never" => return Ok(SyncPolicy::Never),
            _ => {}
        }
        if let Some(n) = s.strip_prefix("every-n=") {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("sync policy `{s}`: `{n}` is not a count"))?;
            if n == 0 {
                return Err(format!("sync policy `{s}`: every-n requires N >= 1"));
            }
            return Ok(SyncPolicy::EveryN(n));
        }
        if let Some(t) = s.strip_prefix("interval-ms=") {
            let t: u64 = t
                .parse()
                .map_err(|_| format!("sync policy `{s}`: `{t}` is not a duration in ms"))?;
            return Ok(SyncPolicy::IntervalMs(t));
        }
        Err(format!(
            "unknown sync policy `{s}` (expected always | every-n=<N> | interval-ms=<T> | never)"
        ))
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every-n={n}"),
            SyncPolicy::IntervalMs(t) => write!(f, "interval-ms={t}"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Decides when a [`SyncPolicy`] calls for an fsync.
///
/// Time flows in explicitly (milliseconds from any fixed origin), so
/// schedules are deterministic under test: the caller reports appends
/// with [`SyncScheduler::record_append`], polls [`SyncScheduler::due`],
/// and acknowledges completed fsyncs with [`SyncScheduler::synced`].
#[derive(Debug, Clone)]
pub struct SyncScheduler {
    policy: SyncPolicy,
    pending: u64,
    oldest_dirty_ms: Option<u64>,
}

impl SyncScheduler {
    /// A scheduler with nothing pending.
    pub fn new(policy: SyncPolicy) -> SyncScheduler {
        SyncScheduler {
            policy,
            pending: 0,
            oldest_dirty_ms: None,
        }
    }

    /// Notes one appended (not yet synced) record at time `now_ms`.
    pub fn record_append(&mut self, now_ms: u64) {
        self.pending += 1;
        self.oldest_dirty_ms.get_or_insert(now_ms);
    }

    /// Whether the policy calls for an fsync at time `now_ms`.
    pub fn due(&self, now_ms: u64) -> bool {
        if self.pending == 0 {
            return false;
        }
        match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.pending >= u64::from(n),
            SyncPolicy::IntervalMs(t) => {
                let oldest = self.oldest_dirty_ms.unwrap_or(now_ms);
                now_ms.saturating_sub(oldest) >= t
            }
            SyncPolicy::Never => false,
        }
    }

    /// Acknowledges an fsync completed at time `now_ms`.
    pub fn synced(&mut self, _now_ms: u64) {
        self.pending = 0;
        self.oldest_dirty_ms = None;
    }

    /// Records appended since the last acknowledged fsync.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Timestamp of the oldest unsynced append, if any.
    pub fn oldest_dirty_ms(&self) -> Option<u64> {
        self.oldest_dirty_ms
    }
}

#[derive(Debug, Default)]
struct FaultCells {
    sync_delay_us: AtomicU64,
    stalled: AtomicBool,
}

/// Shared fault-injection handle for a [`DurableLog`](crate::DurableLog).
///
/// Cloning shares the underlying cells, so the harness keeps one handle
/// while the log under test consults the other: a *sync delay* makes
/// every fsync take at least that long (slow disk), and a *stall*
/// blocks fsyncs entirely until cleared (hung disk). Real processes can
/// inject a delay without a handle via the
/// `SPINDLE_PERSIST_FSYNC_DELAY_MS` environment variable.
#[derive(Debug, Clone, Default)]
pub struct PersistFaults {
    inner: Arc<FaultCells>,
}

impl PersistFaults {
    /// A handle with no faults active.
    pub fn new() -> PersistFaults {
        PersistFaults::default()
    }

    /// Makes every subsequent fsync take at least `delay`.
    pub fn set_sync_delay(&self, delay: Duration) {
        self.inner.sync_delay_us.store(
            delay.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// The currently injected fsync delay.
    pub fn sync_delay(&self) -> Duration {
        Duration::from_micros(self.inner.sync_delay_us.load(Ordering::Relaxed))
    }

    /// Stalls (or un-stalls) the disk: while stalled, fsyncs block.
    pub fn set_stalled(&self, stalled: bool) {
        self.inner.stalled.store(stalled, Ordering::Relaxed);
    }

    /// Whether the disk is currently stalled.
    pub fn is_stalled(&self) -> bool {
        self.inner.stalled.load(Ordering::Relaxed)
    }

    /// Applies the active faults: sleeps the injected delay, then waits
    /// out any stall. Called by the log on the fsync path.
    pub(crate) fn apply(&self) {
        let delay = self.sync_delay() + env_sync_delay();
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        while self.is_stalled() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Extra fsync latency requested through the environment
/// (`SPINDLE_PERSIST_FSYNC_DELAY_MS`), read once per process.
fn env_sync_delay() -> Duration {
    static DELAY_MS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let ms = *DELAY_MS.get_or_init(|| {
        std::env::var("SPINDLE_PERSIST_FSYNC_DELAY_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    });
    Duration::from_millis(ms)
}

/// Everything needed to open a durable log:
/// where it lives, when it fsyncs, and when segments roll over.
///
/// # Examples
///
/// ```
/// use spindle_persist::{PersistOptions, SyncPolicy};
///
/// let opts = PersistOptions::new("/tmp/spindle-data")
///     .sync_policy(SyncPolicy::EveryN(8))
///     .segment_cap(4 * 1024 * 1024);
/// assert_eq!(opts.sync_policy, SyncPolicy::EveryN(8));
/// ```
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the log segments (created if missing).
    pub dir: PathBuf,
    /// Fsync cadence.
    pub sync_policy: SyncPolicy,
    /// Bytes after which the active segment rolls over to a new file.
    pub segment_cap: u64,
    /// Fault-injection handle shared with the opened log.
    pub faults: PersistFaults,
}

impl PersistOptions {
    /// Options with the default policy ([`SyncPolicy::Always`]) and
    /// segment capacity ([`DEFAULT_SEGMENT_CAP`]).
    pub fn new(dir: impl Into<PathBuf>) -> PersistOptions {
        PersistOptions {
            dir: dir.into(),
            sync_policy: SyncPolicy::default(),
            segment_cap: DEFAULT_SEGMENT_CAP,
            faults: PersistFaults::default(),
        }
    }

    /// Sets the fsync cadence.
    #[must_use]
    pub fn sync_policy(mut self, policy: SyncPolicy) -> PersistOptions {
        self.sync_policy = policy;
        self
    }

    /// Sets the segment rollover size in bytes (min 1).
    #[must_use]
    pub fn segment_cap(mut self, cap: u64) -> PersistOptions {
        self.segment_cap = cap.max(1);
        self
    }

    /// Shares `faults` with the opened log.
    #[must_use]
    pub fn faults(mut self, faults: PersistFaults) -> PersistOptions {
        self.faults = faults;
        self
    }

    /// A fresh [`SyncScheduler`] for this policy.
    pub fn scheduler(&self) -> SyncScheduler {
        SyncScheduler::new(self.sync_policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for p in [
            SyncPolicy::Always,
            SyncPolicy::EveryN(1),
            SyncPolicy::EveryN(64),
            SyncPolicy::IntervalMs(0),
            SyncPolicy::IntervalMs(250),
            SyncPolicy::Never,
        ] {
            assert_eq!(SyncPolicy::parse(&p.to_string()), Ok(p));
        }
        assert!(SyncPolicy::parse("every-n=0").is_err());
        assert!(SyncPolicy::parse("every-n=x").is_err());
        assert!(SyncPolicy::parse("interval-ms=-1").is_err());
        assert!(SyncPolicy::parse("fsync").is_err());
        assert!(SyncPolicy::parse("").is_err());
    }

    #[test]
    fn scheduler_always_due_after_any_append() {
        let mut s = SyncScheduler::new(SyncPolicy::Always);
        assert!(!s.due(0), "nothing pending, nothing due");
        s.record_append(0);
        assert!(s.due(0));
        s.synced(0);
        assert!(!s.due(100));
    }

    #[test]
    fn scheduler_every_n_waits_for_n() {
        let mut s = SyncScheduler::new(SyncPolicy::EveryN(3));
        s.record_append(0);
        s.record_append(0);
        assert!(!s.due(1_000_000), "2 of 3: not yet");
        s.record_append(0);
        assert!(s.due(0));
        s.synced(0);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn scheduler_interval_tracks_oldest_dirty() {
        let mut s = SyncScheduler::new(SyncPolicy::IntervalMs(10));
        s.record_append(100);
        s.record_append(109);
        assert!(!s.due(109), "oldest append only 9ms old");
        assert!(s.due(110), "oldest append 10ms old");
        s.synced(110);
        assert!(!s.due(10_000), "clean after sync");
    }

    #[test]
    fn scheduler_never_is_never_due() {
        let mut s = SyncScheduler::new(SyncPolicy::Never);
        for t in 0..100 {
            s.record_append(t);
        }
        assert!(!s.due(u64::MAX));
        assert_eq!(s.pending(), 100);
    }

    #[test]
    fn faults_delay_is_observable_on_sync_path() {
        let f = PersistFaults::new();
        f.set_sync_delay(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        f.apply();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        f.set_sync_delay(Duration::ZERO);
    }

    #[test]
    fn faults_stall_blocks_until_cleared() {
        let f = PersistFaults::new();
        f.set_stalled(true);
        let g = f.clone();
        let h = std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            g.apply();
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(20));
        f.set_stalled(false);
        let waited = h.join().unwrap();
        assert!(waited >= Duration::from_millis(10), "stall held {waited:?}");
    }
}
