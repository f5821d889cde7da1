//! Whole-sim scheduler equivalence: the calendar queue must be
//! unobservable.
//!
//! The des-level property test proves both backends pop identical
//! sequences under random workloads; these tests close the loop at the
//! system level — a full replication of every algorithm produces a
//! bit-identical [`RunResult`] whichever scheduler runs the future-event
//! list, and the fingerprint is stable across repeated runs (so a regression
//! in either backend cannot hide behind nondeterminism).

use manet_des::SchedulerKind;
use manet_sim::{Scenario, World};
use p2p_core::AlgoKind;

fn fingerprint(algo: AlgoKind, seed: u64, kind: SchedulerKind) -> u64 {
    let s = Scenario::quick(30, algo, 240);
    World::with_scheduler(s, seed, kind).run().fingerprint()
}

#[test]
fn run_results_are_bit_identical_across_schedulers_for_all_algorithms() {
    for algo in AlgoKind::ALL {
        let heap = fingerprint(algo, 7, SchedulerKind::Heap);
        let cal = fingerprint(algo, 7, SchedulerKind::Calendar);
        assert_eq!(heap, cal, "{algo}: schedulers diverged");
    }
}

#[test]
fn fingerprints_are_reproducible_and_seed_sensitive() {
    let a = fingerprint(AlgoKind::Regular, 7, SchedulerKind::Calendar);
    let b = fingerprint(AlgoKind::Regular, 7, SchedulerKind::Calendar);
    let c = fingerprint(AlgoKind::Regular, 8, SchedulerKind::Calendar);
    assert_eq!(a, b, "same seed must reproduce the same fingerprint");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn equivalence_holds_under_churn_and_faults() {
    // Churn takes nodes down and up, rescheduling timers heavily — the
    // workload that exercises cursor rewinds and wheel rebuilds hardest.
    let mut s = Scenario::quick(24, AlgoKind::Hybrid, 300);
    s.churn = Some(manet_sim::ChurnCfg {
        mean_uptime: 60.0,
        mean_downtime: 30.0,
    });
    let heap = World::with_scheduler(s.clone(), 11, SchedulerKind::Heap)
        .run()
        .fingerprint();
    let cal = World::with_scheduler(s, 11, SchedulerKind::Calendar)
        .run()
        .fingerprint();
    assert_eq!(heap, cal, "churn workload diverged across schedulers");
}
