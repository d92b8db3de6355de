//! Durable mode: [`PersistConfig`] and the hook through which a node's
//! ordered deliveries reach its per-subgroup logs.

use std::collections::HashMap;
use std::io;
use std::time::Instant;

use spindle_membership::SubgroupId;
use spindle_obs::ObsPlane;
use spindle_persist::{DurableLog, LogRecordRef, SyncScheduler};

use super::api::Delivered;

/// Durable-mode configuration (Derecho's persistent atomic multicast,
/// paper footnote 2): every ordered delivery is appended to a per-node,
/// per-subgroup [`spindle_persist::DurableLog`] (segmented, named
/// `node<row>-g<subgroup>`), and each node advertises its persistence
/// frontier through the SST `persisted_num` counter (read it with
/// [`NodeHandle::persistence_frontier`](super::NodeHandle::persistence_frontier)).
///
/// The fsync cadence is governed by
/// [`spindle_persist::PersistOptions::sync_policy`]: appends always land
/// in the log (and the frontier advances with them), while the policy
/// bounds how much of the newest tail an OS crash can lose. Epoch
/// boundaries (view-change drains) and clean shutdown always fsync.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Storage options: directory, sync policy, segment capacity, and
    /// the disk fault-injection handle.
    pub options: spindle_persist::PersistOptions,
}

impl PersistConfig {
    /// Durable logs under `dir`, fsync on every append batch
    /// ([`spindle_persist::SyncPolicy::Always`]).
    pub fn new(dir: impl Into<std::path::PathBuf>) -> PersistConfig {
        PersistConfig {
            options: spindle_persist::PersistOptions::new(dir),
        }
    }

    /// Durable logs with explicit [`spindle_persist::PersistOptions`].
    pub fn with_options(options: spindle_persist::PersistOptions) -> PersistConfig {
        PersistConfig { options }
    }

    /// The data directory holding this node's log segments.
    pub fn dir(&self) -> &std::path::Path {
        &self.options.dir
    }

    /// The name of row `row`'s durable log of subgroup `sg` under
    /// [`dir`](PersistConfig::dir) — what [`spindle_persist::read_log`]
    /// reads it back by.
    pub fn log_name(row: usize, sg: SubgroupId) -> String {
        format!("node{row}-g{}", sg.0)
    }
}

/// One subgroup's durable log plus the scheduler enforcing its
/// [`spindle_persist::SyncPolicy`].
struct PersistLog {
    log: DurableLog,
    sched: SyncScheduler,
}

/// Registry handles of the `spindle_persist_*` metric families, resolved
/// once per node (one label set, no per-epoch churn).
struct PersistObs {
    appended: spindle_obs::Counter,
    appended_bytes: spindle_obs::Counter,
    fsyncs: spindle_obs::Counter,
    fsync_latency: spindle_obs::LogHistogram,
    replayed: spindle_obs::Counter,
}

impl PersistObs {
    /// Fsyncs `entry` and accounts for it — the only place a log is synced.
    fn sync(&self, entry: &mut PersistLog, now_ms: u64) -> io::Result<()> {
        let t0 = Instant::now();
        entry.log.sync()?;
        self.fsyncs.inc();
        self.fsync_latency.record(t0.elapsed().as_nanos() as u64);
        entry.sched.synced(now_ms);
        Ok(())
    }
}

/// One node's durable logs, one per subgroup and opened lazily, with their
/// metrics: the single path from a delivery to stable storage, used by the
/// predicate thread — in its loop, and in the view-change drain it runs.
pub(super) struct PersistHook {
    cfg: PersistConfig,
    row: usize,
    logs: HashMap<usize, PersistLog>,
    obs: PersistObs,
}

/// Milliseconds since this process first touched the persist path — the
/// monotonic clock the [`SyncScheduler`]s run on.
fn persist_now_ms() -> u64 {
    static T0: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_millis() as u64
}

impl PersistHook {
    pub(super) fn new(cfg: PersistConfig, row: usize, obs: &ObsPlane) -> PersistHook {
        let node = row.to_string();
        let labels = [("node", node.as_str())];
        let reg = obs.registry();
        PersistHook {
            cfg,
            row,
            logs: HashMap::new(),
            obs: PersistObs {
                appended: reg.counter(
                    spindle_obs::names::PERSIST_APPENDED,
                    "Deliveries appended to the durable log, by node",
                    &labels,
                ),
                appended_bytes: reg.counter(
                    spindle_obs::names::PERSIST_APPENDED_BYTES,
                    "Bytes appended to the durable log (frames included), by node",
                    &labels,
                ),
                fsyncs: reg.counter(
                    spindle_obs::names::PERSIST_FSYNCS,
                    "Durable-log fsyncs, by node",
                    &labels,
                ),
                fsync_latency: reg.histogram(
                    spindle_obs::names::PERSIST_FSYNC_LATENCY,
                    "Durable-log fsync latency",
                    1e-9,
                    &labels,
                ),
                replayed: reg.counter(
                    spindle_obs::names::PERSIST_REPLAYED,
                    "Records recovered from the durable log at open, by node",
                    &labels,
                ),
            },
        }
    }

    /// Appends `batch` — ordered deliveries, in delivery order — to their
    /// subgroups' logs (opening, and so recovering, a log on first use) and
    /// fsyncs each log whose policy says one is due.
    ///
    /// # Panics
    ///
    /// Panics if a log cannot be opened, appended to or synced: a node that
    /// cannot persist must not advertise a persistence frontier.
    pub(super) fn append(&mut self, batch: &[Delivered]) {
        let now_ms = persist_now_ms();
        for run in batch.chunk_by(|a, b| a.subgroup == b.subgroup) {
            let sg = run[0].subgroup.0;
            let entry = self.logs.entry(sg).or_insert_with(|| {
                let name = PersistConfig::log_name(self.row, run[0].subgroup);
                let (log, recovered) =
                    DurableLog::open_with(&self.cfg.options, &name).expect("open durable log");
                self.obs.replayed.add(recovered.len() as u64);
                PersistLog {
                    log,
                    sched: self.cfg.options.scheduler(),
                }
            });
            let before = entry.log.byte_len();
            for d in run {
                entry
                    .log
                    .append_borrowed(LogRecordRef {
                        epoch: d.epoch,
                        subgroup: sg as u32,
                        seq: d.seq,
                        sender_rank: d.sender_rank as u32,
                        app_index: d.app_index,
                        data: &d.data,
                    })
                    .expect("append to durable log");
                entry.sched.record_append(now_ms);
            }
            self.obs.appended.add(run.len() as u64);
            self.obs.appended_bytes.add(entry.log.byte_len() - before);
            if entry.sched.due(now_ms) {
                self.obs.sync(entry, now_ms).expect("sync durable log");
            }
        }
    }

    /// Fsyncs every log holding appends its policy has deferred — what an
    /// epoch boundary (the cut the new view was agreed on must survive a
    /// crash) and a clean shutdown do regardless of policy. Every log is
    /// tried; the first error is returned.
    pub(super) fn sync_all(&mut self) -> io::Result<()> {
        let now_ms = persist_now_ms();
        let mut result = Ok(());
        for entry in self.logs.values_mut() {
            if entry.sched.pending() > 0 {
                result = result.and(self.obs.sync(entry, now_ms));
            }
        }
        result
    }
}
