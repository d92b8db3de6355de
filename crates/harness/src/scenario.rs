//! The scenario DSL: a seeded, replayable timeline of traffic and faults.
//!
//! A [`Scenario`] fully describes one adversarial run: the cluster shape,
//! an ordered list of [`Event`]s (send bursts, crashes, pauses, partitions,
//! heartbeat blackouts, planned and detector-driven membership changes,
//! joins), and the seed. Everything is plain data with a stable `Debug`
//! rendering, which is what makes the scenario *trace* reproducible bit for
//! bit: the trace is a pure function of the scenario, never of wall-clock
//! interleavings.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spindle_core::{DetectorConfig, SimFault, SimFaultKind, SpindleConfig, VcBoundary};
use spindle_persist::SyncPolicy;

/// One subgroup of the scenario's cluster.
#[derive(Debug, Clone)]
pub struct SgSpec {
    /// Member node ids.
    pub members: Vec<usize>,
    /// Sender node ids (subset of members).
    pub senders: Vec<usize>,
    /// SMC ring window.
    pub window: usize,
    /// Maximum payload size.
    pub max_msg: usize,
}

/// The cluster a threaded scenario runs against.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of initial nodes (ids `0..nodes`).
    pub nodes: usize,
    /// Subgroup layout.
    pub subgroups: Vec<SgSpec>,
    /// Engine configuration.
    pub config: SpindleConfig,
    /// SST heartbeat failure detection (required by
    /// [`Event::AwaitSuspicion`]).
    pub detector: Option<DetectorConfig>,
    /// Run in durable mode and check log replay against the delivery
    /// streams at the end.
    pub persist: bool,
    /// Durable-log fsync cadence (durable mode only; `None` keeps the
    /// default [`SyncPolicy::Always`]).
    pub sync_policy: Option<SyncPolicy>,
    /// Durable-log segment rollover in bytes (durable mode only; `None`
    /// keeps the default cap). Tiny caps force rotation under scenario
    /// traffic, so replay is exercised across segment boundaries.
    pub segment_cap: Option<u64>,
}

impl ClusterSpec {
    /// `nodes` nodes, all members and senders of one subgroup.
    pub fn all_senders(nodes: usize, window: usize, max_msg: usize) -> ClusterSpec {
        let ids: Vec<usize> = (0..nodes).collect();
        ClusterSpec {
            nodes,
            subgroups: vec![SgSpec {
                members: ids.clone(),
                senders: ids,
                window,
                max_msg,
            }],
            config: SpindleConfig::optimized(),
            detector: None,
            persist: false,
            sync_policy: None,
            segment_cap: None,
        }
    }
}

/// One step of a threaded scenario's timeline. Events execute in order on
/// the driver thread; the cluster's own threads run concurrently.
#[derive(Debug, Clone)]
pub enum Event {
    /// Node `node` sends `count` messages in subgroup `sg` (unique payloads
    /// of `size` bytes, tagged with the sender id and a running counter).
    Burst {
        /// Sending node id.
        node: usize,
        /// Subgroup index.
        sg: usize,
        /// Messages in the burst.
        count: u32,
        /// Payload bytes (at least 8).
        size: usize,
    },
    /// Silent crash: the node's predicate thread vanishes (no protocol
    /// action, heartbeats stop). Membership learns nothing until a
    /// detector or an explicit [`Event::Remove`] acts.
    Crash {
        /// The crashing node.
        node: usize,
    },
    /// Stall the node's predicate thread ([`Event::Resume`] undoes it).
    Pause {
        /// The stalling node.
        node: usize,
    },
    /// End a [`Event::Pause`].
    Resume {
        /// The resuming node.
        node: usize,
    },
    /// One-node network partition: all fabric writes from/to the node are
    /// dropped. On the loopback-TCP runtime the node's live connections
    /// are additionally severed, so the partition is a real dead link.
    /// Repaired by membership (remove the node) or by [`Event::Heal`].
    Isolate {
        /// The partitioned node.
        node: usize,
    },
    /// Ends an [`Event::Isolate`] partition. One-sided writes dropped
    /// while partitioned are *not* retransmitted (RDMA semantics); on the
    /// loopback-TCP runtime the severed connections re-dial on the next
    /// posts. Schedules must therefore quiesce before isolating if
    /// acknowledged traffic is expected to survive without a view change.
    Heal {
        /// The healing node.
        node: usize,
    },
    /// Suppress the node's heartbeat pushes while its data traffic flows —
    /// a healthy node that looks dead to every detector.
    DropHeartbeats {
        /// The blacked-out node.
        node: usize,
    },
    /// Throttle every fabric write the node posts by `micros`.
    Throttle {
        /// The slow node.
        node: usize,
        /// Added per-write stall in microseconds (0 removes the throttle).
        micros: u64,
    },
    /// Planned removal (or repair of a known-crashed/isolated node): runs
    /// the §2.1 epoch transition.
    Remove {
        /// The node to remove.
        node: usize,
    },
    /// A fresh node joins the listed subgroups (`(subgroup, as_sender)`),
    /// taking the next free node id.
    Join {
        /// Subgroup memberships of the joiner.
        joins: Vec<(usize, bool)>,
    },
    /// Arm a crash of the *current leader* at a view-change boundary,
    /// then remove `victim`: the leader dies mid-transition and the
    /// next-lowest unsuspected survivor takes over (the §2.1 handoff
    /// protocol — proposer-tagged acks, verbatim adoption of a
    /// partially-acked trim, residual eviction of a verbatim-kept
    /// corpse). Both the victim and the leader end up out of the view.
    KillLeaderAt {
        /// The protocol boundary the leader's engine dies at.
        boundary: VcBoundary,
        /// The node whose removal triggers the transition.
        victim: usize,
    },
    /// Wait for the failure detector to suspect exactly `suspect`, then
    /// remove it (the detector-driven view change). Requires a detector.
    AwaitSuspicion {
        /// The node that must be suspected.
        suspect: usize,
    },
    /// Slow disk: every durable-log fsync takes at least `micros` extra
    /// (0 removes the fault). Injected at the `DurableLog` layer through
    /// the run's shared [`spindle_persist::PersistFaults`] handle;
    /// durable mode only.
    PersistSyncDelay {
        /// Added per-fsync stall in microseconds.
        micros: u64,
    },
    /// Hung disk: durable-log fsyncs block outright for `millis`, then
    /// the stall clears and the cluster must recover. The driver thread
    /// waits out the window, so no other event runs while the disk
    /// hangs; durable mode only.
    PersistStall {
        /// Stall window in milliseconds.
        millis: u64,
    },
    /// Let the cluster run undisturbed for the given wall-clock time.
    Settle {
        /// Milliseconds to wait.
        millis: u64,
    },
}

/// A threaded-runtime scenario.
#[derive(Debug, Clone)]
pub struct ThreadedScenario {
    /// Cluster shape.
    pub spec: ClusterSpec,
    /// Ordered timeline.
    pub events: Vec<Event>,
    /// Whether the scenario ends live enough that every surviving sender's
    /// acknowledged payload must be delivered (enables the completeness
    /// oracle).
    pub expect_complete: bool,
}

/// A simulated-runtime scenario: a seeded
/// [`SimCluster`](spindle_core::SimCluster) run with scheduled [`SimFault`]s, checked
/// against the delivery-trace oracles. Fully deterministic in virtual time.
#[derive(Debug, Clone)]
pub struct SimScenario {
    /// Cluster size (all nodes are members and senders of one subgroup).
    pub nodes: usize,
    /// SMC ring window.
    pub window: usize,
    /// Messages per sender.
    pub msgs_per_sender: u64,
    /// Payload size in bytes.
    pub msg_size: usize,
    /// Engine configuration.
    pub config: SpindleConfig,
    /// Scheduled faults.
    pub faults: Vec<SimFault>,
    /// Virtual-time deadline in milliseconds.
    pub deadline_ms: u64,
    /// Whether the run must reach its delivery target.
    pub expect_complete: bool,
}

/// Which runtime a scenario drives.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// Real threads over the shared-memory fabric.
    Threaded(ThreadedScenario),
    /// Real threads over a loopback-TCP fabric group
    /// (`spindle_net::TcpFabricGroup`): the identical schedule and
    /// oracles as [`ScenarioKind::Threaded`], but every fabric write
    /// crosses the kernel's TCP stack, and isolation severs live
    /// connections.
    ThreadedTcp(ThreadedScenario),
    /// The deterministic discrete-event cluster.
    Sim(SimScenario),
}

/// A named, seeded, replayable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (used to select scenarios from the `scenarios` binary).
    pub name: String,
    /// The seed: parameterizes generated scenarios and the sim runtime's
    /// RNG. Same seed ⇒ bit-identical trace and verdict.
    pub seed: u64,
    /// The runtime and timeline.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// The deterministic script rendering included in every trace.
    pub fn script(&self) -> String {
        format!(
            "scenario {} (seed {})\n{:#?}",
            self.name, self.seed, self.kind
        )
    }
}

/// Generates a random churn scenario from `seed`: bursts, planned
/// removals, joins, crash+repair pairs, pauses and throttles, always
/// ending in a live configuration so the completeness oracle applies.
/// A pure function of `seed`.
pub fn random_scenario(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = rng.gen_range(3usize..=5);
    let window = 16usize;
    let spec = ClusterSpec::all_senders(nodes, window, 64);

    let mut live: Vec<usize> = (0..nodes).collect();
    let mut next_id = nodes;
    let mut events = Vec::new();
    let steps = rng.gen_range(6usize..=14);
    for _ in 0..steps {
        match rng.gen_range(0u32..10) {
            // Plain burst from a live sender.
            0..=4 => {
                let node = live[rng.gen_range(0..live.len())];
                events.push(Event::Burst {
                    node,
                    sg: 0,
                    count: rng.gen_range(1u32..=10),
                    size: rng.gen_range(8usize..=32),
                });
            }
            // Pause a node, let others trickle (small enough to never block
            // on the window), resume.
            5 => {
                let paused = live[rng.gen_range(0..live.len())];
                let other = live[rng.gen_range(0..live.len())];
                events.push(Event::Pause { node: paused });
                if other != paused {
                    events.push(Event::Burst {
                        node: other,
                        sg: 0,
                        count: rng.gen_range(1u32..=(window as u32 / 4)),
                        size: 16,
                    });
                }
                events.push(Event::Settle { millis: 30 });
                events.push(Event::Resume { node: paused });
            }
            // Throttle (and later implicitly keep) a slow node.
            6 => {
                let node = live[rng.gen_range(0..live.len())];
                events.push(Event::Throttle {
                    node,
                    micros: rng.gen_range(5u64..=40),
                });
            }
            // Planned removal.
            7 => {
                if live.len() > 3 {
                    let victim = live.remove(rng.gen_range(0..live.len()));
                    events.push(Event::Remove { node: victim });
                }
            }
            // Join as a sender.
            8 => {
                if live.len() < 6 {
                    events.push(Event::Join {
                        joins: vec![(0, true)],
                    });
                    live.push(next_id);
                    next_id += 1;
                }
            }
            // Silent crash immediately repaired by a planned removal (the
            // driver must not send between the two, or it could block on a
            // window that can no longer drain).
            _ => {
                if live.len() > 3 {
                    let victim = live.remove(rng.gen_range(0..live.len()));
                    events.push(Event::Crash { node: victim });
                    events.push(Event::Remove { node: victim });
                }
            }
        }
    }
    events.push(Event::Settle { millis: 100 });
    Scenario {
        name: format!("random-churn-{seed}"),
        seed,
        kind: ScenarioKind::Threaded(ThreadedScenario {
            spec,
            events,
            expect_complete: true,
        }),
    }
}

/// The detector settings curated scenarios use: fast beats, a timeout
/// short enough to keep scenarios quick but long past scheduling jitter.
pub fn fast_detector() -> DetectorConfig {
    DetectorConfig {
        heartbeat_interval: Duration::from_millis(1),
        timeout: Duration::from_millis(150),
    }
}

/// Helper for sim scenarios: a crash fault at `at_micros`.
pub fn crash_at(at_micros: u64, node: usize) -> SimFault {
    SimFault {
        at: Duration::from_micros(at_micros),
        kind: SimFaultKind::Crash { node },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scenario_is_a_pure_function_of_seed() {
        for seed in [0u64, 1, 42, 0xFEED] {
            let a = random_scenario(seed);
            let b = random_scenario(seed);
            assert_eq!(a.script(), b.script());
        }
    }

    #[test]
    fn random_scenarios_differ_across_seeds() {
        assert_ne!(random_scenario(1).script(), random_scenario(2).script());
    }

    #[test]
    fn random_scenario_keeps_at_least_three_live() {
        for seed in 0..30u64 {
            let s = random_scenario(seed);
            let ScenarioKind::Threaded(t) = &s.kind else {
                panic!("random scenarios are threaded");
            };
            let mut live: std::collections::BTreeSet<usize> = (0..t.spec.nodes).collect();
            let mut next = t.spec.nodes;
            for e in &t.events {
                match e {
                    Event::Remove { node } | Event::Crash { node } => {
                        live.remove(node);
                    }
                    Event::Join { .. } => {
                        live.insert(next);
                        next += 1;
                    }
                    _ => {}
                }
                // The generator's `live.len() > 3` guards before every
                // removal/crash keep the cluster at 3+ nodes throughout —
                // below that, remove_node could hit TooFewSurvivors.
                assert!(live.len() >= 3, "seed {seed} dropped below 3 live nodes");
            }
            assert!(live.len() >= 3);
        }
    }
}
