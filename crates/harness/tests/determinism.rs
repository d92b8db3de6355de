//! The harness determinism contract, extending the pattern of
//! `crates/spindle/tests/determinism.rs` to scenarios: a scenario's replay
//! trace and oracle verdict are a pure function of `(scenario, seed)`.
//! Two runs with the same seed must produce bit-identical traces — the
//! scenario script, the epoch/membership history, every oracle verdict,
//! and (for the sim runtime) the delivery-trace fingerprints. This is what
//! lets a failing scenario's printed seed replay the exact run locally.

use spindle_harness::{corpus, random_scenario, run_scenario, Scenario, ScenarioKind};

fn rerun_is_bit_identical(s: &Scenario) {
    let a = run_scenario(s);
    let b = run_scenario(s);
    assert_eq!(
        a.trace, b.trace,
        "scenario {} diverged across same-seed reruns",
        s.name
    );
    assert_eq!(a.passed(), b.passed());
    assert!(a.passed(), "scenario {} failed:\n{}", s.name, a.trace);
}

#[test]
fn sim_scenarios_replay_bit_identically() {
    for s in corpus(42) {
        if matches!(s.kind, ScenarioKind::Sim(_)) {
            rerun_is_bit_identical(&s);
        }
    }
}

/// The `sim:` facts of each simulated corpus scenario at seed 42 — whether
/// it completed, its makespan, and every node's delivery count and trace
/// fingerprint (`runner::fnv64`) — pinned, where the test above only
/// compares a rerun with a rerun. A change to the simulator, or to the loop
/// it runs, that means to move a simulated run re-pins them.
const SIM_FACTS: [(&str, &str); 2] = [
    (
        "sim-crash-removal",
        "sim:
  completed: true
  makespan: 3.501505ms
  node 0: 873 deliveries, trace fnv64 f3871acc631eb22b
  node 1: 873 deliveries, trace fnv64 f3871acc631eb22b
  node 2: 207 deliveries, trace fnv64 e71f420407213fe2
",
    ),
    (
        "sim-slow-predicate",
        "sim:
  completed: true
  makespan: 1.630353ms
  node 0: 450 deliveries, trace fnv64 74ceae2e8fe56584
  node 1: 450 deliveries, trace fnv64 74ceae2e8fe56584
  node 2: 450 deliveries, trace fnv64 74ceae2e8fe56584
",
    ),
];

#[test]
fn sim_scenarios_keep_their_pinned_fingerprints() {
    let sims: Vec<_> = corpus(42)
        .into_iter()
        .filter(|s| matches!(s.kind, ScenarioKind::Sim(_)))
        .collect();
    assert_eq!(
        sims.len(),
        SIM_FACTS.len(),
        "a simulated scenario has no pin"
    );
    for (name, facts) in SIM_FACTS {
        let s = sims
            .iter()
            .find(|s| s.name == name)
            .expect("pinned scenario in the corpus");
        let trace = run_scenario(s).trace;
        let at = trace.find("sim:\n").expect("a sim trace lists its facts");
        let end = trace.find("oracles:\n").expect("a trace lists its oracles");
        assert_eq!(&trace[at..end], facts, "scenario {name} moved");
    }
}

#[test]
fn threaded_scenario_replays_bit_identically() {
    // One threaded scenario with faults and a view change: the wall-clock
    // interleavings differ between runs, the trace must not.
    let s = corpus(42)
        .into_iter()
        .find(|s| s.name == "crash-during-view-change")
        .expect("corpus scenario present");
    rerun_is_bit_identical(&s);
}

#[test]
fn generated_scenario_replays_bit_identically() {
    rerun_is_bit_identical(&random_scenario(0xC0FFEE));
}

#[test]
fn distinct_seeds_give_distinct_generated_scenarios() {
    let a = random_scenario(1);
    let b = random_scenario(2);
    assert_ne!(a.script(), b.script());
}
