//! Workspace-level smoke of the fault-injection scenario harness through
//! the facade: a curated subset of the corpus (one per fault family —
//! clean crossfire, a crash repaired mid-view-change, a paused receiver,
//! and a sim fault schedule) must pass every protocol oracle. The full
//! corpus runs in CI via the `scenarios` binary; same-seed bit-identical
//! replay is pinned by `crates/harness/tests/determinism.rs`.

use spindle::harness::{corpus, run_scenario};

fn run_named(name: &str) {
    let s = corpus(42)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario {name} missing from corpus"));
    let outcome = run_scenario(&s);
    assert!(outcome.passed(), "{name} failed:\n{}", outcome.trace);
}

#[test]
fn smoke_crossfire_passes_oracles() {
    run_named("smoke-crossfire");
}

#[test]
fn crash_during_view_change_passes_oracles() {
    run_named("crash-during-view-change");
}

#[test]
fn slow_receiver_passes_oracles() {
    run_named("slow-receiver");
}

#[test]
fn sim_crash_removal_passes_oracles() {
    run_named("sim-crash-removal");
}
