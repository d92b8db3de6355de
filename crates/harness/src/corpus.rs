//! The named scenario corpus the `scenarios` binary runs in CI.
//!
//! Each scenario targets one adversarial shape from the paper's §2.1
//! failure model: crashes detected by SST heartbeats, crashes concurrent
//! with a view change, slow and partitioned receivers, membership churn
//! under load, durable-mode restarts, multi-subgroup crossfire, and
//! sim-runtime fault schedules. The `seed` parameterizes the generated
//! member of the corpus and the sim runtimes; every scenario replays bit
//! for bit under the same seed.

use std::time::Duration;

use spindle_core::{SimFault, SimFaultKind, SpindleConfig, VcBoundary};
use spindle_persist::SyncPolicy;

use crate::scenario::{
    crash_at, fast_detector, random_scenario, ClusterSpec, Event, Scenario, ScenarioKind, SgSpec,
    SimScenario, ThreadedScenario,
};

fn threaded(name: &str, seed: u64, spec: ClusterSpec, events: Vec<Event>) -> Scenario {
    Scenario {
        name: name.into(),
        seed,
        kind: ScenarioKind::Threaded(ThreadedScenario {
            spec,
            events,
            expect_complete: true,
        }),
    }
}

fn threaded_tcp(name: &str, seed: u64, spec: ClusterSpec, events: Vec<Event>) -> Scenario {
    Scenario {
        name: name.into(),
        seed,
        kind: ScenarioKind::ThreadedTcp(ThreadedScenario {
            spec,
            events,
            expect_complete: true,
        }),
    }
}

/// The shared isolate→heal schedule run on *both* transports (scenarios
/// 13/14): traffic quiesces, node 2 is partitioned (on TCP: its
/// connections are severed), the partition heals (on TCP: the links
/// re-dial), and fresh traffic from both sides — including the formerly
/// partitioned node — must still satisfy every oracle. The quiesce before
/// the cut matters: one-sided writes dropped while partitioned are never
/// retransmitted, on either transport.
fn isolate_heal_events() -> Vec<Event> {
    vec![
        burst(0, 10),
        burst(1, 10),
        Event::Settle { millis: 250 },
        Event::Isolate { node: 2 },
        Event::Settle { millis: 80 },
        Event::Heal { node: 2 },
        burst(0, 8),
        burst(2, 8),
        Event::Settle { millis: 250 },
    ]
}

fn burst(node: usize, count: u32) -> Event {
    Event::Burst {
        node,
        sg: 0,
        count,
        size: 24,
    }
}

/// The shared crash-failover schedule run on *both* transports
/// (scenarios 16/17): traffic from everyone, node 2 crashes silently
/// mid-stream, the SST heartbeat detector suspects it, the SST-driven
/// view-change engine removes it (on TCP: epoch 1 comes up over fresh
/// sockets), and the survivors' remaining acknowledged traffic must
/// still satisfy every oracle.
fn crash_failover_events() -> Vec<Event> {
    vec![
        Event::Settle { millis: 30 },
        burst(0, 10),
        burst(1, 10),
        burst(2, 6),
        Event::Crash { node: 2 },
        Event::AwaitSuspicion { suspect: 2 },
        burst(0, 8),
        burst(1, 8),
        Event::Settle { millis: 250 },
    ]
}

fn crash_failover_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.detector = Some(fast_detector());
    spec
}

/// The shared join-catchup schedule run on *both* transports (scenarios
/// 18/19): sustained sends from the founding members, a mid-stream join
/// (on TCP: the next epoch's sockets connect the grown mesh), then
/// traffic *from the joiner* interleaved with the founders'. The oracles
/// pin virtual synchrony for growth: the joiner's stream starts at its
/// join epoch (membership-scope), and from there on it is byte-identical
/// to every founder's (failure-atomicity per epoch).
fn join_catchup_events() -> Vec<Event> {
    vec![
        burst(0, 12),
        burst(1, 12),
        burst(2, 8),
        Event::Join {
            joins: vec![(0, true)],
        },
        burst(3, 10),
        burst(0, 8),
        burst(2, 6),
        Event::Settle { millis: 250 },
    ]
}

/// The shared leader-kill schedule run on *both* transports (scenarios
/// 20-27, one pair per view-change boundary): settled traffic from the
/// leader and others, then the leader's engine is armed to die at
/// `boundary` and a planned removal triggers the transition. The
/// next-lowest unsuspected survivor takes over (§2.1 handoff: it
/// adopts the dead leader's proposal verbatim if any proposer-tagged
/// ack exists, else re-proposes a fresh trim), both the victim and the
/// leader leave the view — through a residual eviction epoch when the
/// adoption was verbatim — and the survivors' post-handoff traffic
/// must still satisfy every oracle.
fn leader_kill_events(boundary: VcBoundary) -> Vec<Event> {
    vec![
        burst(0, 8),
        burst(1, 8),
        burst(3, 6),
        Event::Settle { millis: 150 },
        Event::KillLeaderAt {
            boundary,
            victim: 4,
        },
        burst(1, 8),
        burst(2, 8),
        Event::Settle { millis: 250 },
    ]
}

fn leader_kill_spec() -> ClusterSpec {
    ClusterSpec::all_senders(5, 16, 64)
}

/// The full corpus for `seed`.
pub fn corpus(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();

    // 1. Concurrent senders, no faults: the baseline every other scenario
    // degrades from.
    out.push(threaded(
        "smoke-crossfire",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        vec![
            burst(0, 20),
            burst(1, 20),
            burst(2, 20),
            Event::Settle { millis: 100 },
        ],
    ));

    // 2. A receiver stalls (paused predicate thread): cluster-wide delivery
    // stops on its missing acknowledgments, then recovers on resume.
    out.push(threaded(
        "slow-receiver",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        vec![
            Event::Pause { node: 2 },
            burst(0, 6),
            burst(1, 4),
            Event::Settle { millis: 60 },
            Event::Resume { node: 2 },
            burst(0, 10),
            Event::Settle { millis: 100 },
        ],
    ));

    // 3. Silent crash mid-traffic, noticed by SST heartbeats, repaired by a
    // detector-driven view change.
    let mut spec = ClusterSpec::all_senders(4, 16, 64);
    spec.detector = Some(fast_detector());
    out.push(threaded(
        "crash-detected-removal",
        seed,
        spec,
        vec![
            Event::Settle { millis: 30 },
            burst(0, 10),
            burst(2, 5),
            Event::Crash { node: 2 },
            Event::AwaitSuspicion { suspect: 2 },
            burst(0, 10),
            burst(1, 10),
            Event::Settle { millis: 100 },
        ],
    ));

    // 4. A second node crashes silently just before a planned removal runs:
    // the epoch transition must cope with a participant vanishing mid
    // view-change.
    out.push(threaded(
        "crash-during-view-change",
        seed,
        ClusterSpec::all_senders(5, 16, 64),
        vec![
            burst(0, 8),
            burst(1, 8),
            burst(2, 8),
            Event::Crash { node: 4 },
            Event::Remove { node: 3 },
            burst(0, 8),
            burst(2, 8),
            Event::Settle { millis: 100 },
        ],
    ));

    // 5. Membership churn under load: removals and joins interleaved with
    // bursts, including traffic from the joiner.
    out.push(threaded(
        "churn-storm",
        seed,
        ClusterSpec::all_senders(4, 16, 64),
        vec![
            burst(0, 10),
            burst(1, 6),
            Event::Remove { node: 3 },
            burst(0, 6),
            Event::Join {
                joins: vec![(0, true)],
            },
            burst(4, 8),
            burst(2, 6),
            Event::Remove { node: 2 },
            burst(4, 6),
            Event::Join {
                joins: vec![(0, true)],
            },
            burst(5, 6),
            burst(0, 6),
            Event::Settle { millis: 120 },
        ],
    ));

    // 6. Heartbeat blackout: a healthy, actively sending node whose
    // heartbeat pushes are suppressed looks dead and is evicted — its
    // pre-cut traffic must survive atomically.
    let mut spec = ClusterSpec::all_senders(4, 16, 64);
    spec.detector = Some(fast_detector());
    out.push(threaded(
        "heartbeat-blackout",
        seed,
        spec,
        vec![
            Event::Settle { millis: 30 },
            burst(1, 6),
            Event::DropHeartbeats { node: 1 },
            burst(1, 6),
            Event::AwaitSuspicion { suspect: 1 },
            burst(0, 10),
            Event::Settle { millis: 100 },
        ],
    ));

    // 7. A throttled NIC: ordering is untouched, everything just slows.
    out.push(threaded(
        "slow-nic-throttle",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        vec![
            Event::Throttle {
                node: 1,
                micros: 50,
            },
            burst(0, 12),
            burst(1, 12),
            burst(2, 12),
            Event::Throttle { node: 1, micros: 0 },
            burst(0, 8),
            Event::Settle { millis: 100 },
        ],
    ));

    // 8. Two overlapping subgroups with disjoint sender sets; a node in
    // both is removed mid-traffic.
    out.push(threaded(
        "multi-subgroup-crossfire",
        seed,
        ClusterSpec {
            nodes: 4,
            subgroups: vec![
                SgSpec {
                    members: vec![0, 1, 2],
                    senders: vec![0, 1],
                    window: 16,
                    max_msg: 64,
                },
                SgSpec {
                    members: vec![1, 2, 3],
                    senders: vec![2, 3],
                    window: 16,
                    max_msg: 64,
                },
            ],
            config: SpindleConfig::optimized(),
            detector: None,
            persist: false,
            sync_policy: None,
            segment_cap: None,
        },
        vec![
            Event::Burst {
                node: 0,
                sg: 0,
                count: 10,
                size: 24,
            },
            Event::Burst {
                node: 2,
                sg: 1,
                count: 10,
                size: 24,
            },
            Event::Burst {
                node: 1,
                sg: 0,
                count: 8,
                size: 24,
            },
            Event::Burst {
                node: 3,
                sg: 1,
                count: 8,
                size: 24,
            },
            Event::Remove { node: 2 },
            Event::Burst {
                node: 0,
                sg: 0,
                count: 6,
                size: 24,
            },
            Event::Burst {
                node: 3,
                sg: 1,
                count: 6,
                size: 24,
            },
            Event::Settle { millis: 100 },
        ],
    ));

    // 9. Durable mode: every delivery must replay identically from the
    // per-node logs after shutdown, across a view change.
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.persist = true;
    out.push(threaded(
        "persistent-restart-replay",
        seed,
        spec,
        vec![
            burst(0, 10),
            burst(1, 10),
            Event::Settle { millis: 60 },
            Event::Remove { node: 2 },
            burst(0, 6),
            Event::Settle { millis: 120 },
        ],
    ));

    // 10. Sim runtime: a node crashes mid-run; the survivors' detectors
    // convict it on the virtual clock, they remove it and complete the run
    // in epoch 1, their deliveries agreeing in every epoch.
    out.push(Scenario {
        name: "sim-crash-removal".into(),
        seed,
        kind: ScenarioKind::Sim(SimScenario {
            nodes: 3,
            window: 8,
            msgs_per_sender: 400,
            msg_size: 1024,
            config: SpindleConfig::optimized(),
            faults: vec![crash_at(300, 2)],
            deadline_ms: 5_000,
            expect_complete: true,
        }),
    });

    // 11. Sim runtime: a paused predicate thread plus a throttled NIC —
    // pure slowness, so the run must still complete.
    out.push(Scenario {
        name: "sim-slow-predicate".into(),
        seed,
        kind: ScenarioKind::Sim(SimScenario {
            nodes: 3,
            window: 16,
            msgs_per_sender: 150,
            msg_size: 1024,
            config: SpindleConfig::optimized(),
            faults: vec![
                SimFault {
                    at: Duration::from_micros(200),
                    kind: SimFaultKind::PausePredicate {
                        node: 1,
                        pause: Duration::from_millis(1),
                    },
                },
                SimFault {
                    at: Duration::ZERO,
                    kind: SimFaultKind::DelayWrites {
                        node: 0,
                        extra: Duration::from_micros(10),
                    },
                },
            ],
            deadline_ms: 30_000,
            expect_complete: true,
        }),
    });

    // 12. The seed-generated churn scenario.
    out.push(random_scenario(seed));

    // 13/14. The isolate→heal reconnection schedule, once per transport:
    // the identical event list must be oracle-clean over shared memory
    // and over loopback TCP (where isolation severs real connections and
    // healing re-dials them).
    out.push(threaded(
        "isolate-heal-reconnect",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        isolate_heal_events(),
    ));
    out.push(threaded_tcp(
        "loopback-tcp-isolate-heal",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        isolate_heal_events(),
    ));

    // 15. Concurrent senders over loopback TCP, with a mid-run view
    // change (each epoch brings up fresh sockets): the acceptance
    // workload for the real-network transport.
    out.push(threaded_tcp(
        "loopback-tcp-crossfire",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        vec![
            burst(0, 20),
            burst(1, 20),
            burst(2, 20),
            Event::Settle { millis: 150 },
            Event::Join {
                joins: vec![(0, true)],
            },
            burst(3, 10),
            burst(0, 10),
            Event::Settle { millis: 150 },
        ],
    ));

    // 16/17. The crash-failover twins: a silent crash healed by the
    // detector-driven, SST-agreed view change — once per transport. The
    // equivalence test additionally pins that both runs produce the
    // identical epoch history and verdicts.
    out.push(threaded(
        "crash-failover",
        seed,
        crash_failover_spec(),
        crash_failover_events(),
    ));
    out.push(threaded_tcp(
        "loopback-tcp-crash-failover",
        seed,
        crash_failover_spec(),
        crash_failover_events(),
    ));

    // 18/19. The join-catchup twins: mid-stream membership *growth*
    // under sustained sends — once per transport. The equivalence test
    // additionally pins that both runs produce the identical epoch
    // history and verdicts.
    out.push(threaded(
        "join-catchup",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        join_catchup_events(),
    ));
    out.push(threaded_tcp(
        "loopback-tcp-join-catchup",
        seed,
        ClusterSpec::all_senders(3, 16, 64),
        join_catchup_events(),
    ));

    // 20-27. The leader-kill twins: the leader dies at each view-change
    // boundary (wedge / propose / ack / install) mid-transition, and the
    // next-lowest survivor's takeover must leave an oracle-clean stream
    // — once per transport and per boundary. The equivalence test
    // additionally pins that both transports produce the identical epoch
    // history and verdicts (a verbatim adoption yields the same
    // intermediate epoch on both).
    for (tag, boundary) in [
        ("wedge", VcBoundary::Wedge),
        ("propose", VcBoundary::Propose),
        ("ack", VcBoundary::Ack),
        ("install", VcBoundary::Install),
    ] {
        out.push(threaded(
            &format!("leader-kill-{tag}"),
            seed,
            leader_kill_spec(),
            leader_kill_events(boundary),
        ));
        out.push(threaded_tcp(
            &format!("loopback-tcp-leader-kill-{tag}"),
            seed,
            leader_kill_spec(),
            leader_kill_events(boundary),
        ));
    }

    // 28/29. The restart-replay twins: a durable cluster loses a member
    // to a silent crash mid-stream (detector-driven removal), and the
    // survivors stream on. Beyond the usual oracles, the replay-prefix
    // oracle pins the restart contract: what the killed node would
    // replay from its data directory is bit-identical to the survivors'
    // delivery stream — exactly the state a `spindle-node --join`
    // restart carries back into the cluster.
    out.push(threaded(
        "restart-replay-under-traffic",
        seed,
        restart_replay_spec(),
        restart_replay_events(),
    ));
    out.push(threaded_tcp(
        "loopback-tcp-restart-replay",
        seed,
        restart_replay_spec(),
        restart_replay_events(),
    ));

    // 30. Slow disk under traffic: every fsync takes an extra 500 us
    // (injected at the DurableLog layer through the shared fault
    // handle), under a batched sync policy. Ordering and the replay
    // contract must hold regardless of fsync latency.
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.persist = true;
    spec.sync_policy = Some(SyncPolicy::EveryN(4));
    out.push(threaded(
        "slow-fsync-under-traffic",
        seed,
        spec,
        vec![
            burst(0, 8),
            Event::PersistSyncDelay { micros: 500 },
            burst(1, 10),
            burst(2, 10),
            Event::PersistSyncDelay { micros: 0 },
            burst(0, 6),
            Event::Settle { millis: 150 },
        ],
    ));

    // 31. Disk stall and recovery: fsyncs hang outright for 150 ms
    // mid-stream (no detector — a hung disk must not look like a dead
    // node), then the stall clears and traffic resumes. The cluster
    // must recover without a view change and stay oracle-clean.
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.persist = true;
    out.push(threaded(
        "disk-stall-recovery",
        seed,
        spec,
        vec![
            burst(0, 6),
            burst(1, 6),
            Event::PersistStall { millis: 150 },
            burst(1, 8),
            burst(2, 8),
            Event::Settle { millis: 150 },
        ],
    ));

    // 32. Segment rotation: a 256-byte segment cap rolls the durable log
    // over every few records, so shutdown replay (and the replay-prefix
    // oracle after the removal) reads across many segment files.
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.persist = true;
    spec.segment_cap = Some(256);
    out.push(threaded(
        "segmented-log-rotation",
        seed,
        spec,
        vec![
            burst(0, 12),
            burst(1, 12),
            Event::Settle { millis: 60 },
            Event::Remove { node: 2 },
            burst(0, 8),
            Event::Settle { millis: 120 },
        ],
    ));

    out
}

/// The restart-replay schedule (scenarios 28/29): durable traffic, a
/// silent crash, detector-driven removal, then survivor traffic across
/// the epoch boundary.
fn restart_replay_events() -> Vec<Event> {
    vec![
        Event::Settle { millis: 30 },
        burst(0, 10),
        burst(1, 10),
        burst(2, 6),
        Event::Crash { node: 2 },
        Event::AwaitSuspicion { suspect: 2 },
        burst(0, 8),
        burst(1, 8),
        Event::Settle { millis: 250 },
    ]
}

fn restart_replay_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::all_senders(3, 16, 64);
    spec.detector = Some(fast_detector());
    spec.persist = true;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_at_least_eight_named_scenarios() {
        let c = corpus(42);
        assert!(c.len() >= 8, "corpus shrank to {}", c.len());
        let mut names: Vec<&str> = c.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len(), "scenario names must be unique");
    }

    #[test]
    fn corpus_scripts_are_deterministic() {
        let a: Vec<String> = corpus(7).iter().map(|s| s.script()).collect();
        let b: Vec<String> = corpus(7).iter().map(|s| s.script()).collect();
        assert_eq!(a, b);
    }
}
