#![warn(missing_docs)]
//! Deterministic fault-injection scenario harness for Spindle.
//!
//! The integration tests exercise the protocol on mostly-happy paths; this
//! crate turns the [`Cluster`](spindle_core::Cluster) /
//! [`SimCluster`](spindle_core::SimCluster) duality into a
//! scenario-diversity engine in the FoundationDB tradition:
//!
//! * a [`Scenario`] is a seeded, replayable timeline of traffic and faults
//!   — send bursts, silent crashes, predicate-thread pauses, one-node
//!   partitions, heartbeat blackouts, NIC throttling, planned and
//!   detector-driven view changes, joins ([`scenario`]);
//! * scenarios run against all three runtimes ([`runner`]): the threaded
//!   cluster via the fault hooks in `spindle_core::Cluster` and the
//!   [`FaultPlan`](spindle_fabric::FaultPlan) consulted by the fabric —
//!   over shared memory ([`ScenarioKind::Threaded`]) or over a loopback
//!   TCP fabric group ([`ScenarioKind::ThreadedTcp`], where isolation
//!   severs real connections and healing re-dials them) — and the
//!   simulated cluster via scheduled
//!   [`SimFault`](spindle_core::SimFault)s;
//! * protocol [`oracle`]s consume every node's delivery stream and assert
//!   the paper's guarantees: total order, per-sender FIFO, null
//!   invisibility, failure atomicity across the epoch cut, agreement among
//!   survivors, completeness of surviving senders' acknowledged traffic,
//!   and durable-log replay;
//! * a named [`corpus()`] of adversarial scenarios (plus a seed-generated
//!   one) runs in CI via the `scenarios` binary:
//!
//! ```sh
//! cargo run -p spindle-harness --release --bin scenarios -- --seed 42
//! cargo run -p spindle-harness --release --bin scenarios -- churn-storm
//! ```
//!
//! Rerunning any scenario with the same seed yields a bit-identical
//! [`ScenarioOutcome::trace`] and verdict: the trace contains only
//! deterministic facts (the script, the epoch/membership history, oracle
//! verdicts, and — for the fully virtual sim runtime — delivery-trace
//! fingerprints), never wall-clock interleavings.
//!
//! # Example
//!
//! ```
//! use spindle_harness::{run_scenario, random_scenario};
//!
//! let scenario = random_scenario(7);
//! let outcome = run_scenario(&scenario);
//! assert!(outcome.passed(), "{}", outcome.trace);
//! // Same seed ⇒ bit-identical trace.
//! assert_eq!(run_scenario(&random_scenario(7)).trace, outcome.trace);
//! ```

pub mod corpus;
pub mod oracle;
pub mod runner;
pub mod scenario;

pub use corpus::corpus;
pub use oracle::{check_sim, check_threaded, OracleCheck};
pub use runner::{run_scenario, ScenarioOutcome};
pub use scenario::{
    random_scenario, ClusterSpec, Event, Scenario, ScenarioKind, SgSpec, SimScenario,
    ThreadedScenario,
};
