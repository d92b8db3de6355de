//! Cluster bootstrap configuration for the `spindle-node` binary.
//!
//! A cluster is described by a small TOML-subset file every process
//! shares, plus a `--node <id>` flag selecting which row this process
//! hosts:
//!
//! ```toml
//! # cluster.toml — one line per key, '#' comments
//! nodes   = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
//! window  = 16
//! max_msg = 64
//! senders = [0, 1, 2]    # optional; default: every node sends
//! heartbeat_ms = 5       # optional; enables SST failure detection
//! suspect_ms   = 500     # optional; suspicion timeout (default 100x beat)
//! data_dir     = "/var/lib/spindle"   # optional; durable logs under <data_dir>/n<id>
//! sync_policy  = "every-n=8"          # optional; always | every-n=<N> | interval-ms=<T> | never
//! segment_cap  = 67108864             # optional; durable-log segment rollover (bytes)
//! ```
//!
//! With `heartbeat_ms` set, every `spindle-node` process runs the SST
//! heartbeat detector and reacts to a silent peer by driving the
//! decentralized view-change engine: the survivors wedge, agree on the
//! ragged trim through the SST, and install the next view over fresh
//! sockets — the cluster keeps running without the dead process.
//!
//! The syntax is deliberately a subset (flat `key = value`, integers,
//! quoted strings, one-level arrays): the build environment is fully
//! offline, so no external TOML crate is available, and this covers the
//! whole configuration surface. The lines are lexed and applied by
//! [`config`](crate::config), through the same table row and setter as
//! the matching command-line flag; this module is what the topology keys
//! land in.

use spindle_membership::{View, ViewBuilder, ViewError};

/// The cluster file's topology keys, range-checked. (Its three
/// persistence keys resolve into
/// [`NodeConfig::persist`](crate::NodeConfig::persist) instead.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Listen address per node, indexed by node id.
    pub addrs: Vec<String>,
    /// SMC ring window of the (single) subgroup.
    pub window: usize,
    /// Maximum payload size in bytes.
    pub max_msg: usize,
    /// Sender node ids; `None` means every node sends.
    pub senders: Option<Vec<usize>>,
    /// SST heartbeat cadence in milliseconds; `None` disables failure
    /// detection (and with it, automatic failover).
    pub heartbeat_ms: Option<u64>,
    /// Suspicion timeout in milliseconds (defaults to 100 heartbeats).
    pub suspect_ms: Option<u64>,
}

impl ClusterConfig {
    /// The SST failure-detector settings, when `heartbeat_ms` is
    /// configured: every process detects silent peers and drives the
    /// decentralized view change itself.
    pub fn detector(&self) -> Option<spindle_core::DetectorConfig> {
        let beat = self.heartbeat_ms?;
        let timeout = self.suspect_ms.unwrap_or(beat.saturating_mul(100));
        Some(spindle_core::DetectorConfig {
            heartbeat_interval: std::time::Duration::from_millis(beat),
            timeout: std::time::Duration::from_millis(timeout),
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.addrs.len()
    }

    /// The sender list (explicit or "all nodes").
    pub fn sender_ids(&self) -> Vec<usize> {
        self.senders
            .clone()
            .unwrap_or_else(|| (0..self.nodes()).collect())
    }

    /// Builds the epoch-0 view every process derives identically from the
    /// shared config: all nodes are members of one subgroup.
    ///
    /// # Errors
    ///
    /// Propagates [`ViewError`] for inconsistent member/sender sets.
    pub fn view(&self) -> Result<View, ViewError> {
        let members: Vec<usize> = (0..self.nodes()).collect();
        ViewBuilder::new(self.nodes())
            .subgroup(&members, &self.sender_ids(), self.window, self.max_msg)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigError, NodeConfig};

    /// The cluster section of a member configured from `text`.
    fn parse(text: &str) -> Result<ClusterConfig, Vec<ConfigError>> {
        let args = ["--config", "cluster.toml", "--node", "0"].map(String::from);
        let cfg = NodeConfig::from_args(args, |_| Ok(text.to_string()))?;
        Ok(cfg.expect("--help was not given").cluster)
    }

    /// Where each violation of `text` was found.
    fn rejected_at(text: &str) -> Vec<String> {
        let errors = parse(text).unwrap_err();
        errors.into_iter().map(|e| e.at).collect()
    }

    const SAMPLE: &str = r#"
# a 3-node loopback cluster
nodes   = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"]
window  = 8
max_msg = 48   # bytes
senders = [0, 2]
"#;

    #[test]
    fn sample_parses() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.nodes(), 3);
        assert_eq!(c.window, 8);
        assert_eq!(c.max_msg, 48);
        assert_eq!(c.sender_ids(), vec![0, 2]);
        assert!(c.detector().is_none(), "detector is opt-in");
        let view = c.view().unwrap();
        assert_eq!(view.members().len(), 3);
    }

    #[test]
    fn detector_keys_parse_with_defaulted_timeout() {
        let c = parse("nodes = [\"a:1\", \"b:2\"]\nheartbeat_ms = 5").unwrap();
        let det = c.detector().unwrap();
        assert_eq!(det.heartbeat_interval, std::time::Duration::from_millis(5));
        assert_eq!(det.timeout, std::time::Duration::from_millis(500));
        let c = parse("nodes = [\"a:1\", \"b:2\"]\nheartbeat_ms = 2\nsuspect_ms = 250").unwrap();
        assert_eq!(
            c.detector().unwrap().timeout,
            std::time::Duration::from_millis(250)
        );
        let errors = parse("nodes = [\"a:1\", \"b:2\"]\nheartbeat_ms = 0").unwrap_err();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].at, "line 2");
        assert_eq!(errors[0].msg, "`heartbeat_ms`: must be positive");
    }

    #[test]
    fn defaults_apply() {
        let c = parse("nodes = [\"a:1\", \"b:2\"]").unwrap();
        assert_eq!(c.window, 16);
        assert_eq!(c.max_msg, 64);
        assert_eq!(c.sender_ids(), vec![0, 1]);
    }

    #[test]
    fn errors_are_typed_and_located() {
        assert_eq!(rejected_at("window = 8"), ["nodes"], "missing key");
        assert_eq!(rejected_at("nodes = [\"a:1\"]"), ["nodes"]);
        assert_eq!(rejected_at("???"), ["line 1", "nodes"]);
        assert_eq!(
            rejected_at("nodes = [\"a:1\", \"b:2\"]\nbogus = 3"),
            ["line 2"]
        );
        assert_eq!(
            rejected_at("nodes = [\"a:1\", \"b:2\"]\nsenders = [5]"),
            ["senders"]
        );
        assert_eq!(rejected_at("nodes = [1, 2]"), ["line 1", "nodes"]);
        assert_eq!(
            rejected_at("nodes = [\"a:1\", \"b:2\"]\nwindow = \"8\""),
            ["line 2"]
        );
    }

    #[test]
    fn every_bad_line_is_reported_not_only_the_first() {
        let errors =
            parse("nodes = [\"a:1\", \"b:2\"]\nwindow = 0\nmax_msg = x\nbogus = 3").unwrap_err();
        let found: Vec<String> = errors.iter().map(ToString::to_string).collect();
        assert_eq!(
            found,
            [
                "line 2: `window`: must be positive",
                "line 3: `max_msg`: expected an integer, a string or an array, got `x`",
                "line 4: unknown key `bogus`",
            ]
        );
    }

    #[test]
    fn arrays_are_one_level_deep() {
        assert_eq!(
            rejected_at("nodes = [[\"a:1\", \"b:2\"]]"),
            ["line 1", "nodes"]
        );
        // Depth costs nothing: the lexer never recurses.
        let deep = format!("nodes = {}", "[".repeat(100_000));
        assert_eq!(rejected_at(&deep), ["line 1", "nodes"]);
    }

    #[test]
    fn comments_and_quotes_interact_correctly() {
        let c = parse("nodes = [\"h#st:1\", \"b:2\"] # trailing").unwrap();
        assert_eq!(c.addrs[0], "h#st:1");
    }
}
