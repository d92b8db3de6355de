//! The settings of a node process: each declared once, each reached by
//! one setter from both the cluster file and the command line.
//!
//! [`NodeConfig`] is what `spindle-node` runs from, and it has exactly
//! one caller: `bin/spindle_node.rs::run()` hands its arguments to
//! [`NodeConfig::from_args`]. (The multi-process tests spawn that binary
//! and the harness describes clusters with its own `ClusterSpec`; neither
//! builds a `NodeConfig`.)
//!
//! Every setting is one row of one table: its `--flag` and/or file `key`
//! spelling, the value placeholder of the usage line, and a plain `fn`
//! that types, range-checks and stores the value. A file line and a flag
//! both resolve a row and call that `fn`, so `segment_cap = "x"` and
//! `--segment-cap x` are rejected by the same code with the same words,
//! and the usage text is generated from the rows.
//!
//! **Order of application is the precedence.** A draft starts at the
//! built-in defaults; the cluster file's `key = value` lines are applied
//! to it first, the command line's `--flag value` pairs second —
//! wherever `--config` sits among the arguments — so a flag beats a key
//! beats a default without any merge step. The cross-field rules (role,
//! row range, persistence directory, ...) run last. Every violation —
//! bad lines, bad flags, broken rules — is collected into one list of
//! [`ConfigError`]s instead of stopping at the first.
//!
//! The table type and its two front-ends are generic in the draft, and
//! `spindle-loadgen` fills its own settings through them.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use spindle_obs::Level;
use spindle_persist::{PersistOptions, SyncPolicy, DEFAULT_SEGMENT_CAP};

use crate::bootstrap::ClusterConfig;

/// One violation: where it was found (`line 3`, `--sends`, or the
/// setting a cross-field rule is about) and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The file line, flag or key at fault.
    pub at: String,
    /// What is wrong with it.
    pub msg: String,
}

impl ConfigError {
    /// A violation at `at`.
    pub fn new(at: impl Into<String>, msg: impl Into<String>) -> ConfigError {
        ConfigError {
            at: at.into(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.at, self.msg)
    }
}

/// What a binary prints when its settings are rejected: every violation,
/// then the usage text.
pub fn report(errors: &[ConfigError], usage: &str) -> String {
    let mut out = String::new();
    for e in errors {
        out.push_str(&format!("config error: {e}\n"));
    }
    out + usage
}

/// A value as a front-end lexed it; the setter gives it its type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Raw<'a> {
    /// A command-line value: untyped text.
    Arg(&'a str),
    /// A bare integer from the file.
    Int(&'a str),
    /// A quoted string from the file, quotes removed.
    Str(&'a str),
    /// A one-level array from the file.
    List(Vec<Raw<'a>>),
}

impl fmt::Display for Raw<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Raw::Arg(s) | Raw::Int(s) => write!(f, "`{s}`"),
            Raw::Str(s) => write!(f, "the string \"{s}\""),
            Raw::List(_) => write!(f, "an array"),
        }
    }
}

impl<'a> Raw<'a> {
    /// The value as the setting's own unsigned integer type (at most 64
    /// bits wide), so a value the field cannot hold is an error and
    /// never a truncation.
    pub fn int<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let max = u64::MAX >> (64 - 8 * std::mem::size_of::<T>());
        match self {
            Raw::Arg(s) | Raw::Int(s) => s.parse().ok().and_then(|n: u64| T::try_from(n).ok()),
            _ => None,
        }
        .ok_or_else(|| format!("expected an integer in 0..={max}, got {self}"))
    }

    /// [`Raw::int`], rejecting zero.
    pub fn positive<T: TryFrom<u64> + Default + PartialEq>(&self) -> Result<T, String> {
        let n = self.int::<T>()?;
        if n == T::default() {
            return Err("must be positive".into());
        }
        Ok(n)
    }

    /// The value as text: any command-line value, or a quoted string.
    pub fn text(&self) -> Result<&'a str, String> {
        match self {
            Raw::Arg(s) | Raw::Str(s) => Ok(s),
            _ => Err(format!("expected a quoted string, got {self}")),
        }
    }

    /// The value as a list: a file array, or a comma-separated
    /// command-line value (blank items dropped).
    pub fn list(self) -> Result<Vec<Raw<'a>>, String> {
        match self {
            Raw::List(items) => Ok(items),
            Raw::Arg(s) => Ok(s
                .split(',')
                .map(str::trim)
                .filter(|part| !part.is_empty())
                .map(Raw::Arg)
                .collect()),
            other => Err(format!("expected an array, got {other}")),
        }
    }
}

/// Types, range-checks and stores one setting's value into a draft `D`;
/// the `Err` says what is wrong with the value.
pub type Setter<D> = fn(&mut D, Raw<'_>) -> Result<(), String>;

/// One setting of a draft `D`: the only place its names, its usage
/// placeholder and its typing live.
pub struct Setting<D> {
    /// Every spelling of the setting, and with it which front-ends accept
    /// it: a `--flag` on the command line, a bare `key` in the settings
    /// file.
    pub names: &'static [&'static str],
    /// Value placeholder shown in the usage text.
    pub value: &'static str,
    /// The one setter both front-ends call.
    pub set: Setter<D>,
}

impl<D> Setting<D> {
    /// A table row.
    pub const fn new(names: &'static [&'static str], value: &'static str, set: Setter<D>) -> Self {
        Setting { names, value, set }
    }

    /// The `--flag` spelling, if the command line accepts the setting.
    pub fn flag(&self) -> Option<&'static str> {
        self.names.iter().copied().find(|n| n.starts_with("--"))
    }

    /// The `key` spelling, if the settings file accepts the setting.
    pub fn key(&self) -> Option<&'static str> {
        self.names.iter().copied().find(|n| !n.starts_with("--"))
    }
}

/// The usage text of `program`: every flag of `table` with its value
/// placeholder, then the file keys if there are any.
pub fn usage<D>(program: &str, table: &[Setting<D>]) -> String {
    let mut out = format!("usage: {program}");
    for (flag, s) in table.iter().filter_map(|s| Some((s.flag()?, s))) {
        out.push_str(&format!(" [{flag} {}]", s.value));
    }
    let keys: Vec<String> = table
        .iter()
        .filter_map(|s| Some(format!("{} = {}", s.key()?, s.value)))
        .collect();
    if !keys.is_empty() {
        out.push_str(&format!("\nfile keys: {}", keys.join(", ")));
    }
    out
}

/// A command line resolved against a table: the rows it names, each with
/// the value it was given, in order.
pub type Given<'t, D> = Vec<(&'t Setting<D>, String)>;

/// The first half of the flag front-end: pairs each `--flag` in `args`
/// (program name removed) with its value; unknown flags and missing
/// values go to `errors`. `None` means `--help` or `-h` was among them.
/// Resolving is separate from [`apply_flags`] so that a caller can apply
/// a settings file named *by* a flag before any flag's value.
pub fn parse_flags<'t, D>(
    table: &'t [Setting<D>],
    args: impl IntoIterator<Item = String>,
    errors: &mut Vec<ConfigError>,
) -> Option<Given<'t, D>> {
    let mut given = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return None;
        }
        match table.iter().find(|s| s.flag() == Some(arg.as_str())) {
            None => errors.push(ConfigError::new(arg, "unknown flag")),
            Some(row) => match args.next() {
                Some(value) => given.push((row, value)),
                None => errors.push(ConfigError::new(arg, "missing value")),
            },
        }
    }
    Some(given)
}

/// The second half: calls each given row's setter on `draft`, in
/// command-line order.
pub fn apply_flags<D>(given: &Given<'_, D>, draft: &mut D, errors: &mut Vec<ConfigError>) {
    for (row, value) in given {
        if let Err(msg) = (row.set)(draft, Raw::Arg(value)) {
            errors.push(ConfigError::new(row.flag().unwrap_or_default(), msg));
        }
    }
}

/// The file front-end: applies each `key = value` line of `text` to
/// `draft` through the row of `table` carrying that key. Blank lines and
/// `#` comments are skipped; every bad line goes to `errors` with its
/// 1-based number and the rest are still applied.
pub fn apply_file<D>(
    table: &[Setting<D>],
    draft: &mut D,
    text: &str,
    errors: &mut Vec<ConfigError>,
) {
    for (i, line) in text.lines().enumerate() {
        let line = outside_quotes(line, '#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let applied = match line.split_once('=') {
            None => Err(format!("expected `key = value`, got `{line}`")),
            Some((key, value)) => {
                let key = key.trim();
                match table.iter().find(|s| s.key() == Some(key)) {
                    None => Err(format!("unknown key `{key}`")),
                    Some(row) => lex(value.trim())
                        .and_then(|value| (row.set)(draft, value))
                        .map_err(|msg| format!("`{key}`: {msg}")),
                }
            }
        };
        if let Err(msg) = applied {
            errors.push(ConfigError::new(format!("line {}", i + 1), msg));
        }
    }
}

/// Splits `s` at every `sep` that is not inside a quoted string.
fn outside_quotes(s: &str, sep: char) -> impl Iterator<Item = &str> {
    let mut in_str = false;
    s.split(move |c| {
        in_str ^= c == '"';
        c == sep && !in_str
    })
}

/// Lexes one right-hand side: a scalar, or an array of scalars. Arrays
/// are one level deep — an item is never lexed as an array, so nesting is
/// a syntax error and lexing never recurses.
fn lex(s: &str) -> Result<Raw<'_>, String> {
    let Some(body) = s.strip_prefix('[') else {
        return lex_scalar(s);
    };
    let body = body.strip_suffix(']').ok_or("unterminated array")?;
    let items = outside_quotes(body, ',').map(str::trim);
    let items = items.filter(|item| !item.is_empty()).map(lex_scalar);
    Ok(Raw::List(items.collect::<Result<_, _>>()?))
}

/// A bare integer or a quoted string.
fn lex_scalar(s: &str) -> Result<Raw<'_>, String> {
    if let Some(body) = s.strip_prefix('"') {
        let body = body.strip_suffix('"').ok_or("unterminated string")?;
        if body.contains('"') {
            return Err("embedded quote in string".into());
        }
        Ok(Raw::Str(body))
    } else if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
        Ok(Raw::Int(s))
    } else {
        Err(format!(
            "expected an integer, a string or an array, got `{s}`"
        ))
    }
}

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
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Shared transport topology (the cluster file's own keys).
    pub cluster: ClusterConfig,
    /// Member or joiner.
    pub role: NodeRole,
    /// Durable-log persistence, resolved for *this* process (the
    /// directory is already per-node); `None` runs non-persistent.
    pub persist: Option<PersistOptions>,
    /// Serve `GET /metrics` / `GET /flightrec` here when set.
    pub metrics_addr: Option<String>,
    /// Stderr echo level override (else `SPINDLE_LOG` applies).
    pub log_level: Option<Level>,
    /// Listen address for external edge clients; `None` runs no relay.
    pub relay_addr: Option<String>,
    /// Workload knobs.
    pub run: RunControl,
}

/// A [`NodeConfig`] being filled. It starts at the defaults, so only the
/// settings that have none are `Option`s.
struct Draft {
    cluster: ClusterConfig,
    node: Option<usize>,
    seeds: Option<Vec<String>>,
    listen: String,
    /// The file's `data_dir`: a base that founding member `r` resolves to
    /// `<base>/n<r>` — which a joiner, whose row the sponsor assigns,
    /// cannot do.
    data_dir_base: Option<String>,
    /// `--data-dir`: this process's directory, verbatim. The one setting
    /// with two slots, because its two sources mean different things.
    data_dir: Option<PathBuf>,
    sync_policy: SyncPolicy,
    segment_cap: u64,
    metrics_addr: Option<String>,
    log_level: Option<Level>,
    relay_addr: Option<String>,
    run: RunControl,
}

/// Every setting of a node process: 21 flags and 9 file keys, three of
/// them both. The usage text lists them in this order.
const SETTINGS: &[Setting<Draft>] = &[
    // Read by `from_args` before any row is applied, hence no setter.
    Setting::new(&["--config"], "<cluster.toml>", |_, _| Ok(())),
    Setting::new(&["nodes"], "[\"HOST:PORT\", ...]", |d, v| {
        strings(v).map(|addrs| d.cluster.addrs = addrs)
    }),
    Setting::new(&["window"], "SLOTS", |d, v| {
        v.positive().map(|n| d.cluster.window = n)
    }),
    Setting::new(&["max_msg"], "BYTES", |d, v| {
        v.positive().map(|n| d.cluster.max_msg = n)
    }),
    Setting::new(&["senders"], "[ID, ...]", |d, v| {
        let ids = v.list()?.iter().map(Raw::int).collect::<Result<_, _>>()?;
        d.cluster.senders = Some(ids);
        Ok(())
    }),
    Setting::new(&["heartbeat_ms"], "MS", |d, v| {
        v.positive().map(|n| d.cluster.heartbeat_ms = Some(n))
    }),
    Setting::new(&["suspect_ms"], "MS", |d, v| {
        v.positive().map(|n| d.cluster.suspect_ms = Some(n))
    }),
    Setting::new(&["--node"], "<id>", |d, v| {
        v.int().map(|n| d.node = Some(n))
    }),
    Setting::new(&["--join"], "<seed-addr>[,<seed-addr>...]", |d, v| {
        let seeds = d.seeds.insert(strings(v)?);
        if seeds.is_empty() {
            return Err("no seed addresses given".into());
        }
        Ok(())
    }),
    Setting::new(&["--listen"], "ADDR", |d, v| {
        v.text().map(|s| d.listen = s.into())
    }),
    Setting::new(&["--data-dir", "data_dir"], "DIR", |d, v| {
        let dir = v.text()?;
        if dir.is_empty() {
            return Err("must not be empty".into());
        }
        match v {
            Raw::Arg(_) => d.data_dir = Some(dir.into()),
            _ => d.data_dir_base = Some(dir.into()),
        }
        Ok(())
    }),
    Setting::new(
        &["--sync-policy", "sync_policy"],
        "always|every-n=<N>|interval-ms=<T>|never",
        |d, v| SyncPolicy::parse(v.text()?).map(|p| d.sync_policy = p),
    ),
    Setting::new(&["--segment-cap", "segment_cap"], "BYTES", |d, v| {
        v.positive().map(|n| d.segment_cap = n)
    }),
    Setting::new(&["--sends"], "N", |d, v| v.int().map(|n| d.run.sends = n)),
    Setting::new(&["--payload"], "BYTES", |d, v| {
        d.run.payload = v.int()?;
        if d.run.payload < 8 {
            return Err("must be at least 8 bytes (the (sender, counter) header)".into());
        }
        Ok(())
    }),
    Setting::new(&["--seed"], "S", |d, v| v.int().map(|n| d.run.seed = n)),
    Setting::new(&["--trace-out"], "PATH", |d, v| {
        v.text().map(|s| d.run.trace_out = Some(s.into()))
    }),
    Setting::new(&["--replay-out"], "PATH", |d, v| {
        v.text().map(|s| d.run.replay_out = Some(s.into()))
    }),
    Setting::new(&["--deadline-secs"], "T", |d, v| {
        v.positive()
            .map(|t| d.run.deadline = Duration::from_secs(t))
    }),
    Setting::new(&["--linger-ms"], "L", |d, v| {
        v.int().map(|t| d.run.linger = Duration::from_millis(t))
    }),
    Setting::new(&["--min-epoch"], "E", |d, v| {
        v.int().map(|n| d.run.min_epoch = n)
    }),
    Setting::new(&["--quiesce-ms"], "Q", |d, v| {
        v.int().map(|t| d.run.quiesce = Duration::from_millis(t))
    }),
    Setting::new(&["--crash-after-delivered"], "N", |d, v| {
        v.int().map(|n| d.run.crash_after = n)
    }),
    Setting::new(&["--metrics-addr"], "ADDR", |d, v| {
        v.text().map(|s| d.metrics_addr = Some(s.into()))
    }),
    Setting::new(&["--relay-addr"], "ADDR", |d, v| {
        v.text().map(|s| d.relay_addr = Some(s.into()))
    }),
    Setting::new(&["--serve-secs"], "T", |d, v| {
        v.int().map(|t| d.run.serve = Duration::from_secs(t))
    }),
    Setting::new(&["--log-level"], "off|error|info|debug", |d, v| {
        let level = Level::parse(v.text()?);
        d.log_level = Some(level.ok_or_else(|| format!("expected off|error|info|debug, got {v}"))?);
        Ok(())
    }),
];

/// A list setting whose items are text.
fn strings(v: Raw<'_>) -> Result<Vec<String>, String> {
    let items = v.list()?;
    items
        .iter()
        .map(|item| item.text().map(String::from))
        .collect()
}

impl NodeConfig {
    /// Builds the configuration from a command line (program name
    /// removed): the draft starts at the defaults, takes the lines of the
    /// `--config` file (its text fetched through `read_file`), then the
    /// flags, then the cross-field rules. `Ok(None)` means `--help` was
    /// asked for.
    ///
    /// # Errors
    ///
    /// Every violation found, never an empty list.
    pub fn from_args(
        args: impl IntoIterator<Item = String>,
        read_file: impl FnOnce(&str) -> std::io::Result<String>,
    ) -> Result<Option<NodeConfig>, Vec<ConfigError>> {
        let mut errors = Vec::new();
        let Some(given) = parse_flags(SETTINGS, args, &mut errors) else {
            return Ok(None);
        };
        let mut draft = Draft {
            cluster: ClusterConfig {
                addrs: Vec::new(),
                window: 16,
                max_msg: 64,
                senders: None,
                heartbeat_ms: None,
                suspect_ms: None,
            },
            node: None,
            seeds: None,
            listen: "127.0.0.1:0".into(),
            data_dir_base: None,
            data_dir: None,
            sync_policy: SyncPolicy::Always,
            segment_cap: DEFAULT_SEGMENT_CAP,
            metrics_addr: None,
            log_level: None,
            relay_addr: None,
            run: RunControl::default(),
        };
        // The last `--config` names the file; its lines go in first.
        let config = given
            .iter()
            .rev()
            .find(|(row, _)| row.names == ["--config"]);
        let text = match config {
            None => Err(ConfigError::new("--config", "is required")),
            Some((_, path)) => read_file(path)
                .map_err(|e| ConfigError::new("--config", format!("cannot read {path}: {e}"))),
        };
        let file_applied = text.is_ok();
        match text {
            Ok(text) => apply_file(SETTINGS, &mut draft, &text, &mut errors),
            Err(unread) => errors.push(unread),
        }
        apply_flags(&given, &mut draft, &mut errors);
        match draft.finish(file_applied, &mut errors) {
            Some(cfg) if errors.is_empty() => Ok(Some(cfg)),
            _ => Err(errors),
        }
    }

    /// The usage text, generated from the settings table.
    pub fn usage() -> String {
        usage("spindle-node", SETTINGS)
    }
}

impl Draft {
    /// The rules that tie settings to each other, then the assembly. A
    /// `None` has pushed the role violation.
    fn finish(self, file_applied: bool, errors: &mut Vec<ConfigError>) -> Option<NodeConfig> {
        let role = match (self.node, self.seeds) {
            (Some(node), None) => Some(NodeRole::Member { node }),
            (None, Some(seeds)) => Some(NodeRole::Joiner {
                seeds,
                listen: self.listen,
            }),
            _ => None,
        };
        let row = self.node.filter(|_| role.is_some());
        // `--data-dir` is this process's directory, verbatim; the file's
        // `data_dir` is a base only a founding row can resolve.
        let base = self.data_dir_base;
        let resolved = || Some(PathBuf::from(base.as_ref()?).join(format!("n{}", row?)));
        let dir = self.data_dir.or_else(resolved);
        let nodes = self.cluster.nodes();
        let senders = self.cluster.senders.as_ref();
        let run = &self.run;
        let rules = [
            (
                role.is_none(),
                "--node / --join",
                "exactly one is required".into(),
            ),
            // Without a file, `--config` is already among the violations.
            (
                file_applied && nodes < 2,
                "nodes",
                format!("a cluster needs at least 2 nodes, got {nodes}"),
            ),
            (
                nodes >= 2 && row.is_some_and(|row| row >= nodes),
                "--node",
                format!(
                    "{} out of range (cluster has {nodes} nodes)",
                    row.unwrap_or(0)
                ),
            ),
            (
                senders.is_some_and(|s| s.is_empty() || s.iter().any(|&id| id >= nodes)),
                "senders",
                format!("sender ids must be non-empty and < {nodes}"),
            ),
            (
                dir.is_none() && base.is_some() && role.is_some(),
                "--data-dir",
                "a joiner with persistence needs it given explicitly (the cluster file's \
                 data_dir resolves per founding row, which a joiner does not have)"
                    .into(),
            ),
            (
                run.min_epoch > 0 && run.quiesce >= run.deadline,
                "--quiesce-ms",
                "quiesce window must be shorter than the deadline".into(),
            ),
            (
                run.replay_out.is_some() && dir.is_none(),
                "--replay-out",
                "requires persistence (--data-dir or a data_dir cluster key)".into(),
            ),
        ];
        for (_, at, msg) in rules.into_iter().filter(|rule| rule.0) {
            errors.push(ConfigError::new(at, msg));
        }
        Some(NodeConfig {
            cluster: self.cluster,
            role: role?,
            persist: dir.map(|dir| PersistOptions {
                sync_policy: self.sync_policy,
                segment_cap: self.segment_cap,
                ..PersistOptions::new(dir)
            }),
            metrics_addr: self.metrics_addr,
            log_level: self.log_level,
            relay_addr: self.relay_addr,
            run: self.run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NODES: &str = "nodes = [\"127.0.0.1:9001\", \"127.0.0.1:9002\", \"127.0.0.1:9003\"]\n\
                         window = 16\n\
                         max_msg = 256\n";

    /// The one entry point, fed a three-node cluster file plus `extra`
    /// lines, and `flags` after `--config`.
    fn build(extra: &str, flags: &[&str]) -> Result<NodeConfig, Vec<ConfigError>> {
        let args = ["--config", "cluster.toml"].iter().chain(flags);
        let cfg = NodeConfig::from_args(args.map(|s| s.to_string()), |_| {
            Ok(format!("{NODES}{extra}"))
        })?;
        Ok(cfg.expect("--help was not given"))
    }

    /// Where each violation was found.
    fn rejected_at(extra: &str, flags: &[&str]) -> Vec<String> {
        let errors = build(extra, flags).unwrap_err();
        errors.into_iter().map(|e| e.at).collect()
    }

    #[test]
    fn member_resolves_file_data_dir_per_row() {
        let cfg = build("data_dir = \"/tmp/spindle-data\"\n", &["--node", "2"]).unwrap();
        let p = cfg.persist.expect("file data_dir enables persistence");
        assert_eq!(p.dir, PathBuf::from("/tmp/spindle-data/n2"));
        assert_eq!(p.sync_policy, SyncPolicy::Always);
        assert_eq!(p.segment_cap, DEFAULT_SEGMENT_CAP);
    }

    #[test]
    fn cli_beats_file_for_every_persist_key() {
        let file = "data_dir = \"/tmp/base\"\nsync_policy = \"every-n=4\"\nsegment_cap = 4096\n";
        let flags = [
            ("--data-dir", "/tmp/mine"),
            ("--sync-policy", "interval-ms=5"),
            ("--segment-cap", "8192"),
        ];
        // Wherever --config sits: the file is applied first, the flags second.
        for config_at in 0..=flags.len() {
            let mut args: Vec<String> = flags
                .iter()
                .flat_map(|(flag, value)| [flag.to_string(), value.to_string()])
                .chain(["--node".to_string(), "0".to_string()])
                .collect();
            args.splice(
                2 * config_at..2 * config_at,
                ["--config".to_string(), "c.toml".to_string()],
            );
            let cfg = NodeConfig::from_args(args, |_| Ok(format!("{NODES}{file}")));
            let p = cfg.unwrap().unwrap().persist.unwrap();
            assert_eq!(p.dir, PathBuf::from("/tmp/mine"));
            assert_eq!(p.sync_policy, SyncPolicy::IntervalMs(5));
            assert_eq!(p.segment_cap, 8192);
        }
        // And a key beats the default.
        let p = build(file, &["--node", "0"]).unwrap().persist.unwrap();
        assert_eq!(p.dir, PathBuf::from("/tmp/base/n0"));
        assert_eq!(p.sync_policy, SyncPolicy::EveryN(4));
        assert_eq!(p.segment_cap, 4096);
    }

    #[test]
    fn file_sync_policy_applies_when_cli_silent() {
        let file = "data_dir = \"/tmp/base\"\nsync_policy = \"never\"\n";
        let cfg = build(file, &["--node", "1"]).unwrap();
        assert_eq!(cfg.persist.unwrap().sync_policy, SyncPolicy::Never);
    }

    #[test]
    fn joiner_with_file_data_dir_needs_explicit_dir() {
        let file = "data_dir = \"/tmp/base\"\n";
        let join = ["--join", "127.0.0.1:9001"];
        assert_eq!(rejected_at(file, &join), ["--data-dir"]);
        // An explicit --data-dir resolves it, verbatim.
        let cfg = build(file, &[&join[..], &["--data-dir", "/tmp/base/n2"]].concat()).unwrap();
        assert_eq!(cfg.persist.unwrap().dir, PathBuf::from("/tmp/base/n2"));
    }

    #[test]
    fn all_violations_surface_at_once() {
        let args = [
            "--payload",
            "4",
            "--bogus",
            "--sync-policy",
            "sometimes",
            "--sends",
        ];
        let errors = NodeConfig::from_args(args.map(String::from), |_| unreachable!("no --config"))
            .unwrap_err();
        let mut found: Vec<String> = errors.iter().map(ToString::to_string).collect();
        found.sort();
        assert_eq!(
            found,
            [
                "--bogus: unknown flag",
                "--config: is required",
                "--node / --join: exactly one is required",
                "--payload: must be at least 8 bytes (the (sender, counter) header)",
                "--sends: missing value",
                "--sync-policy: unknown sync policy `sometimes` (expected always | every-n=<N> \
                 | interval-ms=<T> | never)",
            ]
        );
    }

    #[test]
    fn role_is_exactly_one_of_node_or_join() {
        let both = ["--node", "0", "--join", "127.0.0.1:9001"];
        assert_eq!(rejected_at("", &both), ["--node / --join"]);
        assert_eq!(rejected_at("", &[]), ["--node / --join"]);
        assert_eq!(rejected_at("", &["--join", " , "]), ["--join"]);
    }

    #[test]
    fn node_must_be_in_range() {
        let errors = build("", &["--node", "7"]).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert_eq!(
            errors[0].to_string(),
            "--node: 7 out of range (cluster has 3 nodes)"
        );
    }

    #[test]
    fn replay_out_requires_persistence() {
        let flags = ["--node", "0", "--replay-out", "/tmp/replay.txt"];
        assert_eq!(rejected_at("", &flags), ["--replay-out"]);
        assert!(build("data_dir = \"/tmp/base\"\n", &flags).is_ok());
    }

    #[test]
    fn deadline_and_quiesce_rules() {
        assert_eq!(
            rejected_at("", &["--node", "0", "--deadline-secs", "0"]),
            ["--deadline-secs"]
        );
        let slow = [
            "--node",
            "0",
            "--deadline-secs",
            "1",
            "--quiesce-ms",
            "1000",
        ];
        assert!(
            build("", &slow).is_ok(),
            "quiesce only matters with --min-epoch"
        );
        let failover = [&slow[..], &["--min-epoch", "1"]].concat();
        assert_eq!(rejected_at("", &failover), ["--quiesce-ms"]);
    }

    #[test]
    fn no_run_flags_yield_the_run_control_defaults() {
        let cfg = build("", &["--node", "0"]).unwrap();
        assert_eq!(cfg.run, RunControl::default());
        assert_eq!((cfg.cluster.window, cfg.cluster.max_msg), (16, 256));
        assert!(cfg.persist.is_none() && cfg.metrics_addr.is_none() && cfg.relay_addr.is_none());
    }

    #[test]
    fn joiner_listen_defaults_to_ephemeral_loopback() {
        let cfg = build("", &["--join", "127.0.0.1:9001, 127.0.0.1:9002"]).unwrap();
        assert_eq!(
            cfg.role,
            NodeRole::Joiner {
                seeds: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
                listen: "127.0.0.1:0".into(),
            }
        );
        assert!(cfg.persist.is_none());
    }

    #[test]
    fn a_value_too_wide_for_its_setting_is_rejected_not_truncated() {
        // `--sends` is the one setting narrower than the u64 a flag used
        // to be parsed as: 2^32 was cast to 0 and the node sent nothing.
        let errors = build("", &["--node", "0", "--sends", "4294967296"]).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert_eq!(
            errors[0].to_string(),
            "--sends: expected an integer in 0..=4294967295, got `4294967296`"
        );
        let cfg = build("", &["--node", "0", "--sends", "4294967295"]).unwrap();
        assert_eq!(cfg.run.sends, u32::MAX);
    }

    #[test]
    fn a_key_and_its_flag_are_checked_by_the_same_setter() {
        let by_key = build("segment_cap = 0\n", &["--node", "0"]).unwrap_err();
        let by_flag = build("", &["--node", "0", "--segment-cap", "0"]).unwrap_err();
        assert_eq!(
            by_key[0].to_string(),
            "line 4: `segment_cap`: must be positive"
        );
        assert_eq!(by_flag[0].to_string(), "--segment-cap: must be positive");
        assert_eq!(
            rejected_at("data_dir = \"\"\n", &["--node", "0"]),
            ["line 4"]
        );
        assert_eq!(
            rejected_at("", &["--node", "0", "--data-dir", ""]),
            ["--data-dir"]
        );
        // The file's lexical types hold: a key that takes text wants quotes.
        assert_eq!(rejected_at("data_dir = 5\n", &["--node", "0"]), ["line 4"]);
        // A flag-only setting is not a key, nor the other way round.
        assert_eq!(rejected_at("sends = 5\n", &["--node", "0"]), ["line 4"]);
        assert_eq!(
            rejected_at("", &["--node", "0", "--window", "8"]),
            ["--window", "8"]
        );
    }

    #[test]
    fn an_unreadable_file_is_one_violation() {
        let args = ["--config", "/nonexistent", "--node", "0"].map(String::from);
        let errors = NodeConfig::from_args(args, |path| std::fs::read_to_string(path)).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0]
            .to_string()
            .starts_with("--config: cannot read /nonexistent: "));
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let flags = SETTINGS.iter().filter_map(Setting::flag);
        let keys = SETTINGS.iter().filter_map(Setting::key);
        assert_eq!((flags.clone().count(), keys.clone().count()), (21, 9));
        let usage = NodeConfig::usage();
        assert!(usage.starts_with("usage: spindle-node [--config <cluster.toml>] [--node <id>]"));
        assert!(
            flags.chain(keys).all(|name| usage.contains(name)),
            "{usage}"
        );
        let help = NodeConfig::from_args(["--bogus", "-h"].map(String::from), |_| unreachable!());
        assert!(matches!(help, Ok(None)), "--help wins over every violation");
    }
}
