//! Typed node configuration: everything a `spindle-node` process needs,
//! assembled once and validated exhaustively.
//!
//! [`NodeConfig`] is the single source of truth for a node process:
//!
//! * **transport** — the shared [`ClusterConfig`] (peer addresses,
//!   window geometry, failure detection) parsed from the cluster file;
//! * **role** — founding [`NodeRole::Member`] hosting a fixed row, or
//!   [`NodeRole::Joiner`] running the admission handshake against seeds;
//! * **persistence** — optional [`PersistSettings`] (data directory,
//!   fsync cadence, segment rollover) lowered into
//!   [`spindle_persist::PersistOptions`];
//! * **observability** — metrics endpoint and stderr echo level;
//! * **relay** — optional edge-relay listener;
//! * **run control** — the workload knobs (sends, payload, seed,
//!   deadlines, fault injection).
//!
//! Values are layered with fixed precedence: **CLI flag > cluster-file
//! key > built-in default**. [`NodeConfigBuilder::build`] collects
//! *every* violation into one [`NodeConfigErrors`] instead of stopping
//! at the first, so a misconfigured deployment surfaces all of its
//! problems in a single run.
//!
//! The builder is how every construction path goes through one set of
//! rules: the `spindle-node` binary lowers `std::env::args` via
//! [`NodeConfigBuilder::apply_cli`], and in-process callers use the typed
//! setters.

use std::path::PathBuf;
use std::time::Duration;

use spindle_persist::{PersistOptions, SyncPolicy, DEFAULT_SEGMENT_CAP};

use crate::bootstrap::{ClusterConfig, ConfigError};

/// Which side of the membership protocol this process runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRole {
    /// A founding member: bootstraps the full mesh at epoch 0 and hosts
    /// row `node` of the configured view.
    Member {
        /// Row index in the cluster file's address list.
        node: usize,
    },
    /// A joiner: binds `listen`, dials the `seeds` round-robin until one
    /// sponsors its admission, and hosts the assigned row of the grown
    /// view.
    Joiner {
        /// Seed addresses of live members to dial.
        seeds: Vec<String>,
        /// Local listen address (`host:port`; port 0 = ephemeral).
        listen: String,
    },
}

/// Durable-log persistence settings, resolved for *this* process (the
/// directory is already per-node — no further suffixing happens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistSettings {
    /// Directory holding this node's durable-log segments.
    pub data_dir: PathBuf,
    /// Fsync cadence for appended deliveries.
    pub sync_policy: SyncPolicy,
    /// Segment rollover size in bytes.
    pub segment_cap: u64,
}

impl PersistSettings {
    /// Lower into the persist crate's open options.
    pub fn options(&self) -> PersistOptions {
        PersistOptions::new(&self.data_dir)
            .sync_policy(self.sync_policy)
            .segment_cap(self.segment_cap)
    }

    /// Lower into the threaded runtime's persistence config.
    pub fn to_persist_config(&self) -> spindle_core::threaded::PersistConfig {
        spindle_core::threaded::PersistConfig::with_options(self.options())
    }
}

/// Observability settings (metrics exposition + stderr echo).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsSettings {
    /// Serve `GET /metrics` / `GET /flightrec` here when set.
    pub metrics_addr: Option<String>,
    /// Stderr echo level override (else `SPINDLE_LOG` applies).
    pub log_level: Option<spindle_obs::Level>,
}

/// Edge-relay settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaySettings {
    /// Listen address for external edge clients.
    pub addr: String,
}

/// Workload and lifecycle knobs for one node process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunControl {
    /// Messages this node multicasts (if it is a sender).
    pub sends: u32,
    /// Payload size in bytes (≥ 8: the `(sender, counter)` header).
    pub payload: usize,
    /// Seed for the deterministic payload filler.
    pub seed: u64,
    /// Write the delivery trace here on success.
    pub trace_out: Option<String>,
    /// Write the restart-replay record stream here before rejoining.
    pub replay_out: Option<String>,
    /// Overall completion deadline.
    pub deadline: Duration,
    /// Grace period after completion (peers may still need acks).
    pub linger: Duration,
    /// Failover mode: finish once this epoch is installed, own sends
    /// delivered back, and the stream quiet for `quiesce`.
    pub min_epoch: u64,
    /// Quiet-stream window for the `min_epoch` completion mode.
    pub quiesce: Duration,
    /// Fault injection: abort the process after this many deliveries.
    pub crash_after: usize,
    /// Duty-cycle mode: serve sponsor/relay duties this long, then exit.
    pub serve: Duration,
}

impl Default for RunControl {
    fn default() -> Self {
        RunControl {
            sends: 20,
            payload: 24,
            seed: 42,
            trace_out: None,
            replay_out: None,
            deadline: Duration::from_secs(60),
            linger: Duration::from_millis(1500),
            min_epoch: 0,
            quiesce: Duration::from_millis(800),
            crash_after: 0,
            serve: Duration::ZERO,
        }
    }
}

/// The fully validated configuration of one `spindle-node` process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Shared transport topology (parsed cluster file).
    pub cluster: ClusterConfig,
    /// Member or joiner.
    pub role: NodeRole,
    /// Durable-log persistence; `None` runs non-persistent.
    pub persist: Option<PersistSettings>,
    /// Metrics endpoint + log level.
    pub obs: ObsSettings,
    /// Edge relay listener.
    pub relay: Option<RelaySettings>,
    /// Workload knobs.
    pub run: RunControl,
}

impl NodeConfig {
    /// Start assembling a configuration.
    pub fn builder() -> NodeConfigBuilder {
        NodeConfigBuilder::default()
    }
}

/// One reason a [`NodeConfig`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeConfigError {
    /// No cluster configuration was provided (`--config` or
    /// [`NodeConfigBuilder::cluster`]).
    MissingConfig,
    /// The cluster file could not be read.
    File {
        /// Path that failed.
        path: String,
        /// OS error rendering.
        msg: String,
    },
    /// The cluster file failed to parse or validate.
    Parse(ConfigError),
    /// A flag was given without its value.
    MissingValue(String),
    /// A flag that is not part of the interface.
    UnknownFlag(String),
    /// A flag value that does not parse.
    BadValue {
        /// The offending flag.
        flag: String,
        /// What was wrong with it.
        msg: String,
    },
    /// Not exactly one of `--node` / `--join`.
    RoleConflict,
    /// `--node` beyond the cluster file's address list.
    NodeOutOfRange {
        /// Requested row.
        node: usize,
        /// Cluster size.
        nodes: usize,
    },
    /// A joiner picked up persistence from the cluster file's `data_dir`
    /// without an explicit `--data-dir`: a rejoiner's row is assigned by
    /// the sponsor, so the per-node subdirectory cannot be derived — it
    /// must name the directory holding its previous incarnation's log.
    JoinerNeedsDataDir,
    /// A run-control or persistence value violates an invariant.
    Invalid {
        /// Which setting.
        what: &'static str,
        /// What the rule is.
        msg: String,
    },
}

impl std::fmt::Display for NodeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeConfigError::MissingConfig => write!(f, "--config is required"),
            NodeConfigError::File { path, msg } => write!(f, "cannot read {path}: {msg}"),
            NodeConfigError::Parse(e) => write!(f, "cluster config: {e}"),
            NodeConfigError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            NodeConfigError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            NodeConfigError::BadValue { flag, msg } => write!(f, "bad value for {flag}: {msg}"),
            NodeConfigError::RoleConflict => {
                write!(f, "exactly one of --node / --join is required")
            }
            NodeConfigError::NodeOutOfRange { node, nodes } => {
                write!(f, "--node {node} out of range (cluster has {nodes} nodes)")
            }
            NodeConfigError::JoinerNeedsDataDir => write!(
                f,
                "a joiner with persistence needs an explicit --data-dir (the cluster \
                 file's data_dir resolves per founding row, which a joiner does not have)"
            ),
            NodeConfigError::Invalid { what, msg } => write!(f, "invalid {what}: {msg}"),
        }
    }
}

/// Every violation found while building a [`NodeConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfigErrors(pub Vec<NodeConfigError>);

impl std::fmt::Display for NodeConfigErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "config error: {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for NodeConfigErrors {}

/// Layered assembly of a [`NodeConfig`] (CLI > file > default). See the
/// module docs for the precedence and validation rules.
#[derive(Debug, Default)]
pub struct NodeConfigBuilder {
    cluster: Option<ClusterConfig>,
    node: Option<usize>,
    join_seeds: Option<Vec<String>>,
    listen: Option<String>,
    data_dir: Option<PathBuf>,
    sync_policy: Option<SyncPolicy>,
    segment_cap: Option<u64>,
    metrics_addr: Option<String>,
    relay_addr: Option<String>,
    log_level: Option<spindle_obs::Level>,
    sends: Option<u32>,
    payload: Option<usize>,
    seed: Option<u64>,
    trace_out: Option<String>,
    replay_out: Option<String>,
    deadline: Option<Duration>,
    linger: Option<Duration>,
    min_epoch: Option<u64>,
    quiesce: Option<Duration>,
    crash_after: Option<usize>,
    serve: Option<Duration>,
    wants_help: bool,
    errors: Vec<NodeConfigError>,
}

impl NodeConfigBuilder {
    /// Provide the cluster topology programmatically (instead of
    /// `--config`). A later `--config` flag replaces it.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Run as founding member `node`.
    pub fn member(mut self, node: usize) -> Self {
        self.node = Some(node);
        self
    }

    /// Run as a joiner dialing `seeds`, listening on `listen`.
    pub fn joiner(
        mut self,
        seeds: impl IntoIterator<Item = impl Into<String>>,
        listen: impl Into<String>,
    ) -> Self {
        self.join_seeds = Some(seeds.into_iter().map(Into::into).collect());
        self.listen = Some(listen.into());
        self
    }

    /// Persist durable logs under `dir` (this process's own directory —
    /// overrides the cluster file's per-node resolution).
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Override the fsync cadence.
    pub fn sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = Some(policy);
        self
    }

    /// Override the segment rollover size.
    pub fn segment_cap(mut self, cap: u64) -> Self {
        self.segment_cap = Some(cap);
        self
    }

    /// Serve metrics on `addr`.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Relay external edge clients on `addr`.
    pub fn relay_addr(mut self, addr: impl Into<String>) -> Self {
        self.relay_addr = Some(addr.into());
        self
    }

    /// Override workload knobs wholesale.
    pub fn run(mut self, run: RunControl) -> Self {
        self.sends = Some(run.sends);
        self.payload = Some(run.payload);
        self.seed = Some(run.seed);
        self.trace_out = run.trace_out;
        self.replay_out = run.replay_out;
        self.deadline = Some(run.deadline);
        self.linger = Some(run.linger);
        self.min_epoch = Some(run.min_epoch);
        self.quiesce = Some(run.quiesce);
        self.crash_after = Some(run.crash_after);
        self.serve = Some(run.serve);
        self
    }

    /// `true` when the CLI stream contained `--help` / `-h`.
    pub fn wants_help(&self) -> bool {
        self.wants_help
    }

    /// Lower a CLI argument stream (without the program name) into the
    /// builder. Malformed flags are *collected*, not fatal — they
    /// surface together with the semantic violations at
    /// [`NodeConfigBuilder::build`].
    pub fn apply_cli(mut self, args: impl IntoIterator<Item = String>) -> Self {
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            macro_rules! value {
                () => {
                    match it.next() {
                        Some(v) => v,
                        None => {
                            self.errors.push(NodeConfigError::MissingValue(a.clone()));
                            continue;
                        }
                    }
                };
            }
            macro_rules! num {
                () => {{
                    let raw = value!();
                    match raw.parse::<u64>() {
                        Ok(n) => n,
                        Err(_) => {
                            self.errors.push(NodeConfigError::BadValue {
                                flag: a.clone(),
                                msg: format!("not a number: {raw}"),
                            });
                            continue;
                        }
                    }
                }};
            }
            match a.as_str() {
                "--config" => {
                    let path = value!();
                    match std::fs::read_to_string(&path) {
                        Ok(text) => match ClusterConfig::parse(&text) {
                            Ok(cfg) => self.cluster = Some(cfg),
                            Err(e) => self.errors.push(NodeConfigError::Parse(e)),
                        },
                        Err(e) => self.errors.push(NodeConfigError::File {
                            path,
                            msg: e.to_string(),
                        }),
                    }
                }
                "--node" => self.node = Some(num!() as usize),
                "--join" => {
                    let seeds: Vec<String> = value!()
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    self.join_seeds = Some(seeds);
                }
                "--listen" => self.listen = Some(value!()),
                "--data-dir" => self.data_dir = Some(PathBuf::from(value!())),
                "--sync-policy" => {
                    let raw = value!();
                    match SyncPolicy::parse(&raw) {
                        Ok(p) => self.sync_policy = Some(p),
                        Err(msg) => self.errors.push(NodeConfigError::BadValue {
                            flag: a.clone(),
                            msg,
                        }),
                    }
                }
                "--segment-cap" => self.segment_cap = Some(num!()),
                "--sends" => self.sends = Some(num!() as u32),
                "--payload" => self.payload = Some(num!() as usize),
                "--seed" => self.seed = Some(num!()),
                "--trace-out" => self.trace_out = Some(value!()),
                "--replay-out" => self.replay_out = Some(value!()),
                "--deadline-secs" => self.deadline = Some(Duration::from_secs(num!())),
                "--linger-ms" => self.linger = Some(Duration::from_millis(num!())),
                "--min-epoch" => self.min_epoch = Some(num!()),
                "--quiesce-ms" => self.quiesce = Some(Duration::from_millis(num!())),
                "--crash-after-delivered" => self.crash_after = Some(num!() as usize),
                "--metrics-addr" => self.metrics_addr = Some(value!()),
                "--relay-addr" => self.relay_addr = Some(value!()),
                "--serve-secs" => self.serve = Some(Duration::from_secs(num!())),
                "--log-level" => {
                    let raw = value!();
                    match spindle_obs::Level::parse(&raw) {
                        Some(level) => self.log_level = Some(level),
                        None => self.errors.push(NodeConfigError::BadValue {
                            flag: a.clone(),
                            msg: format!("expected off|error|info|debug, got {raw}"),
                        }),
                    }
                }
                "--help" | "-h" => self.wants_help = true,
                other => self
                    .errors
                    .push(NodeConfigError::UnknownFlag(other.to_string())),
            }
        }
        self
    }

    /// Validate and assemble. Returns *all* violations at once.
    pub fn build(self) -> Result<NodeConfig, NodeConfigErrors> {
        let mut errors = self.errors;

        let role = match (self.node, &self.join_seeds) {
            (Some(node), None) => Some(NodeRole::Member { node }),
            (None, Some(seeds)) => {
                if seeds.is_empty() {
                    errors.push(NodeConfigError::BadValue {
                        flag: "--join".into(),
                        msg: "no seed addresses given".into(),
                    });
                }
                Some(NodeRole::Joiner {
                    seeds: seeds.clone(),
                    listen: self
                        .listen
                        .clone()
                        .unwrap_or_else(|| "127.0.0.1:0".to_string()),
                })
            }
            _ => {
                errors.push(NodeConfigError::RoleConflict);
                None
            }
        };

        if self.cluster.is_none() {
            errors.push(NodeConfigError::MissingConfig);
        }
        if let (Some(cluster), Some(NodeRole::Member { node })) = (&self.cluster, &role) {
            if *node >= cluster.nodes() {
                errors.push(NodeConfigError::NodeOutOfRange {
                    node: *node,
                    nodes: cluster.nodes(),
                });
            }
        }

        // Persistence: CLI --data-dir is this process's directory as
        // given; the cluster file's data_dir is a *base* every founding
        // member resolves per-row. A joiner cannot do that resolution
        // (its row is sponsor-assigned), so file-only persistence is an
        // error for joiners.
        let file = self.cluster.as_ref();
        let persist_dir = match (
            &self.data_dir,
            file.and_then(|c| c.data_dir.as_ref()),
            &role,
        ) {
            (Some(dir), _, _) => Some(dir.clone()),
            (None, Some(base), Some(NodeRole::Member { node })) => {
                Some(PathBuf::from(base).join(format!("n{node}")))
            }
            (None, Some(_), Some(NodeRole::Joiner { .. })) => {
                errors.push(NodeConfigError::JoinerNeedsDataDir);
                None
            }
            _ => None,
        };
        let sync_policy = self
            .sync_policy
            .or_else(|| file.and_then(|c| c.sync_policy))
            .unwrap_or(SyncPolicy::Always);
        let segment_cap = self
            .segment_cap
            .or_else(|| file.and_then(|c| c.segment_cap))
            .unwrap_or(DEFAULT_SEGMENT_CAP);
        if segment_cap == 0 {
            errors.push(NodeConfigError::Invalid {
                what: "--segment-cap",
                msg: "must be positive".into(),
            });
        }
        let persist = persist_dir.map(|data_dir| PersistSettings {
            data_dir,
            sync_policy,
            segment_cap,
        });

        let defaults = RunControl::default();
        let run = RunControl {
            sends: self.sends.unwrap_or(defaults.sends),
            payload: self.payload.unwrap_or(defaults.payload),
            seed: self.seed.unwrap_or(defaults.seed),
            trace_out: self.trace_out,
            replay_out: self.replay_out,
            deadline: self.deadline.unwrap_or(defaults.deadline),
            linger: self.linger.unwrap_or(defaults.linger),
            min_epoch: self.min_epoch.unwrap_or(defaults.min_epoch),
            quiesce: self.quiesce.unwrap_or(defaults.quiesce),
            crash_after: self.crash_after.unwrap_or(defaults.crash_after),
            serve: self.serve.unwrap_or(defaults.serve),
        };
        if run.payload < 8 {
            errors.push(NodeConfigError::Invalid {
                what: "--payload",
                msg: "must be at least 8 bytes (the (sender, counter) header)".into(),
            });
        }
        if run.deadline.is_zero() {
            errors.push(NodeConfigError::Invalid {
                what: "--deadline-secs",
                msg: "must be positive".into(),
            });
        }
        if run.min_epoch > 0 && run.quiesce >= run.deadline {
            errors.push(NodeConfigError::Invalid {
                what: "--quiesce-ms",
                msg: "quiesce window must be shorter than the deadline".into(),
            });
        }
        if run.replay_out.is_some() && persist.is_none() {
            errors.push(NodeConfigError::Invalid {
                what: "--replay-out",
                msg: "requires persistence (--data-dir or a data_dir cluster key)".into(),
            });
        }

        if !errors.is_empty() {
            return Err(NodeConfigErrors(errors));
        }
        Ok(NodeConfig {
            cluster: self.cluster.expect("checked above"),
            role: role.expect("checked above"),
            persist,
            obs: ObsSettings {
                metrics_addr: self.metrics_addr,
                log_level: self.log_level,
            },
            relay: self.relay_addr.map(|addr| RelaySettings { addr }),
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn cluster(extra: &str) -> ClusterConfig {
        let text = format!(
            "nodes = [\"127.0.0.1:9001\", \"127.0.0.1:9002\", \"127.0.0.1:9003\"]\n\
             window = 16\n\
             max_msg = 256\n\
             {extra}"
        );
        ClusterConfig::parse(&text).unwrap()
    }

    #[test]
    fn member_resolves_file_data_dir_per_row() {
        let cfg = NodeConfig::builder()
            .cluster(cluster("data_dir = \"/tmp/spindle-data\"\n"))
            .member(2)
            .build()
            .unwrap();
        let p = cfg.persist.expect("file data_dir enables persistence");
        assert_eq!(p.data_dir, PathBuf::from("/tmp/spindle-data/n2"));
        assert_eq!(p.sync_policy, SyncPolicy::Always);
        assert_eq!(p.segment_cap, DEFAULT_SEGMENT_CAP);
    }

    #[test]
    fn cli_beats_file_for_every_persist_key() {
        let file =
            cluster("data_dir = \"/tmp/base\"\nsync_policy = \"every-n=4\"\nsegment_cap = 4096\n");
        let cfg = NodeConfig::builder()
            .cluster(file)
            .member(0)
            .apply_cli(args(&[
                "--data-dir",
                "/tmp/mine",
                "--sync-policy",
                "interval-ms=5",
                "--segment-cap",
                "8192",
            ]))
            .build()
            .unwrap();
        let p = cfg.persist.unwrap();
        assert_eq!(p.data_dir, PathBuf::from("/tmp/mine"));
        assert_eq!(p.sync_policy, SyncPolicy::IntervalMs(5));
        assert_eq!(p.segment_cap, 8192);
    }

    #[test]
    fn file_sync_policy_applies_when_cli_silent() {
        let cfg = NodeConfig::builder()
            .cluster(cluster(
                "data_dir = \"/tmp/base\"\nsync_policy = \"never\"\n",
            ))
            .member(1)
            .build()
            .unwrap();
        assert_eq!(cfg.persist.unwrap().sync_policy, SyncPolicy::Never);
    }

    #[test]
    fn joiner_with_file_data_dir_needs_explicit_dir() {
        let err = NodeConfig::builder()
            .cluster(cluster("data_dir = \"/tmp/base\"\n"))
            .joiner(["127.0.0.1:9001"], "127.0.0.1:0")
            .build()
            .unwrap_err();
        assert!(err.0.contains(&NodeConfigError::JoinerNeedsDataDir));
        // An explicit --data-dir resolves it, verbatim.
        let cfg = NodeConfig::builder()
            .cluster(cluster("data_dir = \"/tmp/base\"\n"))
            .joiner(["127.0.0.1:9001"], "127.0.0.1:0")
            .data_dir("/tmp/base/n2")
            .build()
            .unwrap();
        assert_eq!(cfg.persist.unwrap().data_dir, PathBuf::from("/tmp/base/n2"));
    }

    #[test]
    fn all_violations_surface_at_once() {
        let err = NodeConfig::builder()
            .apply_cli(args(&[
                "--payload",
                "4",
                "--bogus",
                "--sync-policy",
                "sometimes",
            ]))
            .build()
            .unwrap_err();
        let msgs: Vec<String> = err.0.iter().map(|e| e.to_string()).collect();
        assert!(err.0.contains(&NodeConfigError::MissingConfig), "{msgs:?}");
        assert!(err.0.contains(&NodeConfigError::RoleConflict), "{msgs:?}");
        assert!(
            err.0
                .contains(&NodeConfigError::UnknownFlag("--bogus".into())),
            "{msgs:?}"
        );
        assert!(
            err.0.iter().any(
                |e| matches!(e, NodeConfigError::BadValue { flag, .. } if flag == "--sync-policy")
            ),
            "{msgs:?}"
        );
        assert!(
            err.0.iter().any(
                |e| matches!(e, NodeConfigError::Invalid { what, .. } if *what == "--payload")
            ),
            "{msgs:?}"
        );
    }

    #[test]
    fn role_is_exactly_one_of_node_or_join() {
        let err = NodeConfig::builder()
            .cluster(cluster(""))
            .member(0)
            .apply_cli(args(&["--join", "127.0.0.1:9001"]))
            .build()
            .unwrap_err();
        assert!(err.0.contains(&NodeConfigError::RoleConflict));
    }

    #[test]
    fn node_must_be_in_range() {
        let err = NodeConfig::builder()
            .cluster(cluster(""))
            .member(7)
            .build()
            .unwrap_err();
        assert!(err
            .0
            .contains(&NodeConfigError::NodeOutOfRange { node: 7, nodes: 3 }));
    }

    #[test]
    fn replay_out_requires_persistence() {
        let err = NodeConfig::builder()
            .cluster(cluster(""))
            .member(0)
            .apply_cli(args(&["--replay-out", "/tmp/replay.txt"]))
            .build()
            .unwrap_err();
        assert!(err.0.iter().any(
            |e| matches!(e, NodeConfigError::Invalid { what, .. } if *what == "--replay-out")
        ));
    }

    #[test]
    fn no_run_flags_yield_the_run_control_defaults() {
        let cfg = NodeConfig::builder()
            .cluster(cluster(""))
            .member(0)
            .build()
            .unwrap();
        assert_eq!(cfg.run, RunControl::default());
    }

    #[test]
    fn joiner_listen_defaults_to_ephemeral_loopback() {
        let cfg = NodeConfig::builder()
            .cluster(cluster(""))
            .apply_cli(args(&["--join", "127.0.0.1:9001, 127.0.0.1:9002"]))
            .build()
            .unwrap();
        assert_eq!(
            cfg.role,
            NodeRole::Joiner {
                seeds: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
                listen: "127.0.0.1:0".into(),
            }
        );
        assert!(cfg.persist.is_none());
    }
}
