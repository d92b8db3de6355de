//! Membership churn on the virtual clock, the stepped twin of `churn.rs`:
//! `SimCluster` runs in which one row crashes — or the leader of the view
//! change that follows halts at one of its boundaries — at a drawn virtual
//! time. Every row runs the threads' own loop body with a heartbeat
//! detector on the virtual clock, so the survivors convict the dead, agree
//! on a cut, install the next view, resend what the cut left and finish the
//! run. Virtual synchrony's contract (§2.1), per epoch: per-sender FIFO, one
//! total order, identical cuts at every survivor, and completion. A failing
//! case replays from its printed inputs: the run is a pure function of them.

use std::time::Duration;

use proptest::prelude::*;
use spindle::core::VcBoundary;
use spindle::{SimCluster, SimFault, SimFaultKind, SpindleConfig, ViewBuilder, Workload};

/// The fault schedule of one case.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Row `victim` crashes.
    Crash { victim: usize },
    /// Row 0, the first view change's leader, halts at `boundary`; row
    /// `victim` crashes and so starts that view change.
    Halt { boundary: VcBoundary, victim: usize },
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    let boundary = prop::sample::select(vec![
        VcBoundary::Wedge,
        VcBoundary::Propose,
        VcBoundary::Ack,
        VcBoundary::Install,
    ]);
    prop_oneof![
        1 => (0usize..5).prop_map(|victim| Fault::Crash { victim }),
        1 => (boundary, 1usize..5).prop_map(|(boundary, victim)| Fault::Halt { boundary, victim }),
    ]
}

/// Subgroup 0 of every row, all sending; subgroup 1 of rows 0–2, rows 1
/// and 2 sending.
fn view(rows: usize) -> spindle::View {
    let all: Vec<usize> = (0..rows).collect();
    ViewBuilder::new(rows)
        .subgroup(&all, &all, 4, 64)
        .subgroup(&[0, 1, 2], &[1, 2], 4, 64)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn crash_schedules_keep_virtual_synchrony(
        rows in 3usize..=5,
        fault in arb_fault(),
        at_us in 0u64..600,
        seed in any::<u64>(),
    ) {
        let at = Duration::from_micros(at_us);
        let crash = |node| SimFault { at, kind: SimFaultKind::Crash { node } };
        // A halted leader and a crashed row leave one survivor of three,
        // which no view can hold: three rows draw a crash.
        let (faults, dead) = match fault {
            Fault::Halt { boundary, victim } if rows > 3 => {
                let victim = 1 + victim % (rows - 1);
                let halt = SimFault {
                    at: Duration::ZERO,
                    kind: SimFaultKind::HaltAt { node: 0, boundary },
                };
                (vec![halt, crash(victim)], vec![0, victim])
            }
            Fault::Crash { victim } | Fault::Halt { victim, .. } => {
                (vec![crash(victim % rows)], vec![victim % rows])
            }
        };
        let report = SimCluster::new(view(rows), SpindleConfig::optimized(), Workload::new(100, 64))
            .with_seed(seed)
            .with_faults(faults)
            .with_deadline(Duration::from_secs(2))
            .with_delivery_trace()
            .run();
        let trace = &report.delivery_trace;

        // FIFO per sender and one total order per (epoch, subgroup), and
        // completion: every survivor delivered its surviving senders'
        // messages.
        for check in spindle_harness::check_sim(trace, report.completed, true) {
            prop_assert!(check.passed, "{}: {:?}", check.name, check.detail);
        }

        // Identical cuts: every epoch a survivor left, it left having
        // delivered exactly what every other survivor delivered in it.
        let survivors: Vec<usize> = (0..rows).filter(|r| !dead.contains(r)).collect();
        let left = trace[survivors[0]].last().map_or(0, |d| d.0);
        let scope = |row: usize, epoch, g| -> Vec<_> {
            trace[row].iter().filter(|d| (d.0, d.1) == (epoch, g)).collect()
        };
        for epoch in 0..left {
            for g in 0..2 {
                let members: Vec<usize> =
                    survivors.iter().copied().filter(|&r| g == 0 || r < 3).collect();
                for pair in members.windows(2) {
                    prop_assert_eq!(
                        scope(pair[0], epoch, g), scope(pair[1], epoch, g),
                        "epoch {} g{}: rows {} and {} left it through different cuts",
                        epoch, g, pair[0], pair[1]
                    );
                }
            }
        }
    }
}
