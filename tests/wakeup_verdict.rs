//! The wakeup checker against its definition, in both recording modes.
//!
//! `check_wakeup` reads the first-step stamps and the winners list a
//! `Run` keeps in both recording modes. These tests pin it to the event
//! walk it replaced (kept here as the oracle): for every shipped wakeup
//! algorithm — correct, randomized, hardened, recoverable and the broken
//! strawmen — at small `n` under zero and seeded toss assignments, and
//! under crash plans, the checker's verdict on the detailed run equals
//! the oracle's, and its verdict on the lightweight run of the same
//! `(alg, n, toss)` equals both.

use llsc_lowerbound::core::{build_all_run, check_wakeup, AdversaryConfig, WakeupViolation};
use llsc_lowerbound::shmem::{
    Algorithm, CrashPlan, CrashScheduler, Executor, ExecutorConfig, ProcessId,
    RecoveringCrashScheduler, RoundRobinScheduler, Run, RunEvent, SeededTosses, TossAssignment,
    ZeroTosses,
};
use llsc_lowerbound::wakeup::{
    correct_algorithms, hardened_algorithms, randomized_algorithms, recoverable_algorithms,
    strawman_algorithms,
};
use std::sync::Arc;

/// A wakeup verdict as comparable data: terminating, winners in order,
/// violations.
type Verdict = (bool, Vec<ProcessId>, Vec<WakeupViolation>);

fn verdict(run: &Run) -> Verdict {
    let check = check_wakeup(run);
    (check.terminating, check.winners, check.violations)
}

/// The wakeup check as a walk over the recorded events: who has tossed or
/// performed a shared op by the time each process returns 1.
fn oracle(run: &Run) -> Verdict {
    assert!(run.is_detailed(), "the oracle walks events");
    let n = run.n();
    let mut violations = Vec::new();
    for p in ProcessId::all(n) {
        if let Some(v) = run.verdict(p) {
            if !matches!(v.as_int(), Some(0) | Some(1)) {
                violations.push(WakeupViolation::NonBinaryReturn {
                    p,
                    value: v.clone(),
                });
            }
        }
    }
    let mut stepped = vec![false; n];
    let mut winners = Vec::new();
    let mut premature_reported = false;
    for ev in run.events() {
        match ev {
            RunEvent::Toss { pid, .. } | RunEvent::SharedOp { pid, .. } => stepped[pid.0] = true,
            RunEvent::Terminated { pid, value } => {
                if value.as_int() == Some(1) {
                    winners.push(*pid);
                    let missing: Vec<ProcessId> =
                        ProcessId::all(n).filter(|q| !stepped[q.0]).collect();
                    if !premature_reported && !missing.is_empty() {
                        premature_reported = true;
                        violations.push(WakeupViolation::PrematureWinner {
                            winner: *pid,
                            missing,
                        });
                    }
                }
            }
        }
    }
    let terminating = run.is_terminating();
    if terminating && winners.is_empty() {
        violations.push(WakeupViolation::NoWinner);
    }
    (terminating, winners, violations)
}

/// The stamps a detailed run derives from its events.
fn event_stamps(run: &Run) -> Vec<Option<u64>> {
    ProcessId::all(run.n())
        .map(|p| {
            run.events()
                .iter()
                .position(|e| e.pid() == p && !matches!(e, RunEvent::Terminated { .. }))
                .map(|i| i as u64)
        })
        .collect()
}

fn stamps(run: &Run) -> Vec<Option<u64>> {
    ProcessId::all(run.n())
        .map(|p| run.first_step_at(p))
        .collect()
}

/// Checks one detailed/lightweight pair of the same execution, returning
/// the shared verdict.
fn assert_equivalent(full: &Run, light: &Run, what: &str) -> Verdict {
    assert!(full.is_detailed() && !light.is_detailed(), "{what}");
    assert_eq!(full.event_count(), light.event_count(), "{what}: same run");
    assert_eq!(stamps(full), event_stamps(full), "{what}: stamps");
    assert_eq!(stamps(light), stamps(full), "{what}: lightweight stamps");
    assert_eq!(light.winners(), full.winners(), "{what}: winners");
    let expected = oracle(full);
    assert_eq!(verdict(full), expected, "{what}: detailed run vs oracle");
    assert_eq!(
        verdict(light),
        expected,
        "{what}: lightweight run vs oracle"
    );
    expected
}

fn assignments() -> Vec<(&'static str, Arc<dyn TossAssignment>)> {
    vec![
        ("zero", Arc::new(ZeroTosses)),
        ("seed 3", Arc::new(SeededTosses::new(3))),
        ("seed 0x5eed", Arc::new(SeededTosses::new(0x5eed))),
    ]
}

fn shipped() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .chain(hardened_algorithms())
        .chain(recoverable_algorithms())
        .chain(strawman_algorithms())
        .collect()
}

#[test]
fn all_runs_give_the_oracle_verdict_in_both_modes() {
    let detailed = AdversaryConfig {
        max_rounds: 2_000,
        ..AdversaryConfig::default()
    };
    let light = AdversaryConfig {
        max_rounds: 2_000,
        ..AdversaryConfig::lightweight()
    };
    let (mut no_winner, mut premature) = (0, 0);
    for alg in shipped() {
        for n in 1..=5 {
            for (label, toss) in assignments() {
                let what = format!("{} n={n} {label}", alg.name());
                let build = |cfg| build_all_run(alg.as_ref(), n, toss.clone(), cfg);
                let (full, lean) = match (build(&detailed), build(&light)) {
                    (Ok(full), Ok(lean)) => (full, lean),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{what}: same error");
                        continue;
                    }
                    (a, b) => panic!("{what}: {:?} vs {:?}", a.err(), b.err()),
                };
                let (_, _, violations) = assert_equivalent(&full.base.run, &lean.base.run, &what);
                for v in &violations {
                    match v {
                        WakeupViolation::NoWinner => no_winner += 1,
                        WakeupViolation::PrematureWinner { .. } => premature += 1,
                        WakeupViolation::NonBinaryReturn { .. } => {}
                    }
                }
            }
        }
    }
    assert!(no_winner > 0, "a strawman yields NoWinner");
    assert!(premature > 0, "a strawman yields PrematureWinner");
}

#[test]
fn crash_plan_runs_give_the_oracle_verdict_in_both_modes() {
    let recoverable: Vec<String> = recoverable_algorithms()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let (mut premature, mut crashes) = (0, 0);
    for alg in randomized_algorithms()
        .into_iter()
        .chain(hardened_algorithms())
        .chain(recoverable_algorithms())
    {
        let alg = alg.as_ref();
        for n in 2..=5 {
            for seed in [1u64, 7, 42] {
                let plan = CrashPlan::seeded(seed, n, 1 + seed as usize % (n - 1), 6 * n as u64);
                let drive = |record_details: bool| {
                    let cfg = ExecutorConfig {
                        record_details,
                        ..ExecutorConfig::default()
                    };
                    let mut exec = Executor::new(alg, n, Arc::new(SeededTosses::new(seed)), cfg);
                    // A starved or crash-stalled run is still a legal
                    // prefix: the verdict is checked on what was recorded.
                    let _ = if recoverable.iter().any(|r| r == alg.name()) {
                        RecoveringCrashScheduler::new(RoundRobinScheduler::new(), &plan, 3, 2)
                            .drive(&mut exec, alg, 20_000)
                    } else {
                        CrashScheduler::new(RoundRobinScheduler::new(), plan.clone())
                            .drive(&mut exec, 20_000)
                    };
                    exec.into_run()
                };
                let what = format!("{} n={n} seed={seed} plan={:?}", alg.name(), plan.crashes());
                let full = drive(true);
                crashes += full.counters().total_crashes();
                let (_, _, violations) = assert_equivalent(&full, &drive(false), &what);
                premature += violations
                    .iter()
                    .filter(|v| matches!(v, WakeupViolation::PrematureWinner { .. }))
                    .count();
            }
        }
    }
    assert!(crashes > 0, "the plans crash processes");
    // Crashes never wake a correct algorithm's winner early.
    assert_eq!(premature, 0);
}
