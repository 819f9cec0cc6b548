//! The experiment-side half of the failure-replay subsystem.
//!
//! `llsc_shmem::repro` serializes, re-executes, and shrinks a
//! [`ReproCase`] — but a case names its algorithm, and only this crate
//! knows the experiment algorithm catalog. This module supplies that
//! glue, and it is also where every degradation trial (E15–E17, E19,
//! E20; see [`crate::degradation`]) is executed and classified, so a
//! trial and the reproducer attached to its failure run the same code:
//!
//! * [`resolve_algorithm`] — the name → constructor registry: the
//!   degradation kinds' catalogs (including the labeled `ObjectWakeup`
//!   rows whose display names disambiguate the backing universal
//!   construction);
//! * `execute_case` — execute a case once and classify the result into
//!   the failure-class vocabulary the experiments share (`recovered`,
//!   `detected-wrong`, `silent-wrong`, `stalled`, `crashed`, `aborted`),
//!   together with the run's counters ([`CaseCounters`]), so nobody
//!   re-executes a case to bill it;
//! * [`run_case_with`] / [`run_case`] — the same under panic isolation:
//!   a panicking execution classifies as `panic`, except a sweep abort
//!   ([`llsc_shmem::TrialAbort`]: cancel token or trial deadline), which
//!   keeps unwinding so the sweep records it as a trial failure;
//! * [`shrink_case`] (and `shrink_run`, which reuses an execution the
//!   caller already has) — materialize the case's schedule into an
//!   explicit pick list and delta-debug it (plus the fault/crash lists)
//!   down to a minimal reproducer with the same failure class.
//!
//! The `llsc replay` and `llsc shrink` subcommands are thin wrappers over
//! these functions.

use crate::degradation::Degradation;
use llsc_core::check_wakeup;
use llsc_shmem::repro::{execute, shrink, ReproCase, ShrinkReport};
use llsc_shmem::{Algorithm, ProcessId, RunOutcome, TrialAbort};
use llsc_wakeup::check_mutex_tokens;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Resolves an algorithm name recorded in a [`ReproCase`] back to a
/// constructor, or `None` for an unknown name.
///
/// The registry scans the degradation kinds' catalogs in a fixed order
/// (`Degradation::REGISTRY_ORDER`: E16's hardened algorithms with
/// their labeled `ObjectWakeup` rows, then E15, E19, and E17 with its
/// unhardened twins), so a name that appears in several catalogs — e.g.
/// `counter-wakeup`, which E15 runs directly and E17 as a twin —
/// resolves to the same construction every time.
pub fn resolve_algorithm(name: &str, n: usize) -> Option<Box<dyn Algorithm>> {
    Degradation::REGISTRY_ORDER.iter().find_map(|kind| {
        (0..kind.algorithm_count())
            .find(|&idx| kind.label(idx, n) == name)
            .map(|idx| kind.algorithm(idx, n))
    })
}

/// Classifies a completed (non-panicking) execution into the shared
/// failure-class vocabulary.
///
/// The outcome decides first (a stall is a stall whatever the partial
/// run's safety looks like — matching E16's bucketing); only runs that
/// actually terminated are judged on correctness and detection telemetry.
pub fn classify(outcome: &RunOutcome, safe: bool, detected: u64) -> &'static str {
    match outcome {
        RunOutcome::BudgetExhausted { .. } => "stalled",
        RunOutcome::Crashed { .. } => "crashed",
        RunOutcome::DivergedLocalBurst { .. } => "aborted",
        RunOutcome::Completed | RunOutcome::FaultInjected { .. } => {
            if safe {
                "recovered"
            } else if detected > 0 {
                "detected-wrong"
            } else {
                "silent-wrong"
            }
        }
    }
}

/// What one case execution cost and suffered, read off the executor
/// after the drive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaseCounters {
    /// Shared-memory accesses, all processes together.
    pub ops: u64,
    /// Faults the fault plan delivered (spurious SC failures plus
    /// corruptions), whether or not the run terminated.
    pub injected: u64,
    /// Detections published to the hardened telemetry registers.
    pub detected: u64,
    /// Crashes delivered (re-crashes included).
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Spurious SC failures a terminated run reports in its
    /// [`RunOutcome::FaultInjected`] outcome (0 for any other outcome).
    pub spurious_sc: u64,
    /// Register corruptions a terminated run reports in its
    /// [`RunOutcome::FaultInjected`] outcome (0 for any other outcome).
    pub corruptions: u64,
    /// Remote memory references under the cache-coherent model.
    pub cc_rmrs: u64,
    /// Remote memory references under the DSM model.
    pub dsm_rmrs: u64,
    /// The worst per-process shared-access count.
    pub max_ops: u64,
    /// The worst per-process DSM RMR count.
    pub max_dsm_rmrs: u64,
}

/// The classified result of one case execution.
#[derive(Clone, Debug)]
pub struct CaseRun {
    /// The replayed [`RunOutcome`]; `None` when the execution panicked.
    pub outcome: Option<RunOutcome>,
    /// The outcome in `Debug` form — the string replay compares
    /// byte-for-byte against [`ReproCase::outcome`] — or `"panic"` when
    /// the execution panicked.
    pub outcome_debug: String,
    /// The failure class (see [`classify`]; `"panic"` for panicking
    /// executions).
    pub class: String,
    /// The explicit schedule trace of the execution (empty on panic).
    pub trace: Vec<ProcessId>,
    /// Whether the recorded run satisfied its safety property: token
    /// distinctness for the recoverable mutex, the wakeup specification
    /// for everything else.
    pub safe: bool,
    /// The run's counters (all zero on panic).
    pub counters: CaseCounters,
}

/// Executes `case` once against an already-resolved algorithm and
/// classifies the result. Panics — including a sweep abort — propagate;
/// [`run_case_with`] is the isolated variant.
pub(crate) fn execute_case(case: &ReproCase, alg: &dyn Algorithm) -> CaseRun {
    let replayed = execute(case, alg);
    let exec = &replayed.exec;
    // Telemetry from both hardened families: the hardened wakeup
    // algorithms publish at one base, the hardened universal
    // constructions at another.
    let detected: u64 = (0..case.n)
        .map(ProcessId)
        .map(|p| {
            let wakeup = exec.memory().peek(llsc_wakeup::hardened_detect_reg(p));
            let universal = exec.memory().peek(llsc_universal::hardened_detect_reg(p));
            wakeup.as_int().unwrap_or(0).max(0) as u64
                + universal.as_int().unwrap_or(0).max(0) as u64
        })
        .sum();
    // The recoverable mutex returns tokens, not wakeup bits: judge it on
    // token distinctness instead of the wakeup conditions.
    let safe = if case.algorithm == "recoverable-mutex" {
        check_mutex_tokens((0..case.n).map(|i| exec.verdict(ProcessId(i))), case.n).is_ok()
    } else {
        check_wakeup(exec.run()).ok()
    };
    let totals = exec.run().counters();
    let (spurious_sc, corruptions) = match replayed.outcome {
        RunOutcome::FaultInjected {
            spurious_sc,
            corruptions,
        } => (spurious_sc, corruptions),
        _ => (0, 0),
    };
    let counters = CaseCounters {
        ops: exec.memory().stats().total(),
        injected: exec.fault_stats().total(),
        detected,
        crashes: totals.total_crashes(),
        recoveries: totals.total_recoveries(),
        spurious_sc,
        corruptions,
        cc_rmrs: totals.total_cc_rmrs(),
        dsm_rmrs: totals.total_dsm_rmrs(),
        max_ops: totals.max_ops(),
        max_dsm_rmrs: totals.dsm_rmrs.iter().copied().max().unwrap_or(0),
    };
    CaseRun {
        outcome_debug: format!("{:?}", replayed.outcome),
        class: classify(&replayed.outcome, safe, detected).to_string(),
        outcome: Some(replayed.outcome),
        trace: replayed.trace,
        safe,
        counters,
    }
}

/// `execute_case` under panic isolation: a panicking execution
/// classifies as `"panic"`. A [`TrialAbort`] — the enclosing sweep's
/// cancel token or trial deadline firing mid-execution — is not a
/// property of the case, so it is never classified: it resumes
/// unwinding into the sweep, which records it as a trial failure.
pub fn run_case_with(case: &ReproCase, alg: &dyn Algorithm) -> CaseRun {
    match catch_unwind(AssertUnwindSafe(|| execute_case(case, alg))) {
        Ok(run) => run,
        Err(payload) if payload.is::<TrialAbort>() => resume_unwind(payload),
        Err(_) => CaseRun {
            outcome: None,
            outcome_debug: "panic".to_string(),
            class: "panic".to_string(),
            trace: Vec::new(),
            safe: false,
            counters: CaseCounters::default(),
        },
    }
}

/// [`run_case_with`] after resolving the case's algorithm by name.
///
/// # Errors
///
/// Returns a message when [`ReproCase::algorithm`] is not in the
/// registry.
pub fn run_case(case: &ReproCase) -> Result<CaseRun, String> {
    let alg = resolve_algorithm(&case.algorithm, case.n)
        .ok_or_else(|| format!("unknown algorithm {:?}", case.algorithm))?;
    Ok(run_case_with(case, alg.as_ref()))
}

/// Materializes and delta-debugs `case` down to a minimal reproducer
/// with the same failure class; `shrink_run` after resolving the
/// algorithm by name and executing the baseline.
///
/// # Errors
///
/// Returns a message when the case's algorithm is unknown.
pub fn shrink_case(case: &ReproCase, max_replays: usize) -> Result<ShrinkReport, String> {
    let alg = resolve_algorithm(&case.algorithm, case.n)
        .ok_or_else(|| format!("unknown algorithm {:?}", case.algorithm))?;
    let baseline = run_case_with(case, alg.as_ref());
    Ok(shrink_run(case, alg.as_ref(), &baseline, max_replays))
}

/// Delta-debugs `case`, whose execution against `alg` is `baseline`,
/// down to a minimal reproducer with the same failure class.
///
/// The baseline both (re)establishes the failure class — the shrink
/// target — and supplies the explicit schedule trace. If replaying that
/// trace preserves the class (it does whenever the case is
/// deterministic, which every seeded case is), the named schedule is
/// swapped for the explicit one so the schedule and process-set passes
/// have something to chew on; otherwise shrinking falls back to the
/// fault/crash lists alone. The returned report's case has its outcome
/// and class fields refreshed from the minimal reproducer's own
/// execution.
pub(crate) fn shrink_run(
    case: &ReproCase,
    alg: &dyn Algorithm,
    baseline: &CaseRun,
    max_replays: usize,
) -> ShrinkReport {
    let target = baseline.class.clone();
    let mut prelude = Vec::new();
    if !case.class.is_empty() && case.class != target {
        prelude.push(format!(
            "note: recorded class {:?} differs from re-executed class {:?}; shrinking \
             toward the re-executed class",
            case.class, target
        ));
    }

    let mut start = case.clone();
    start.class = target.clone();
    if !baseline.trace.is_empty() {
        let materialized = start.materialized(baseline.trace.clone());
        if run_case_with(&materialized, alg).class == target {
            prelude.push(format!(
                "materialized schedule: {} explicit pick(s)",
                baseline.trace.len()
            ));
            start = materialized;
        } else {
            prelude.push(
                "schedule not materialized (trace replay changed the class); shrinking \
                 fault lists only"
                    .to_string(),
            );
        }
    }

    let mut report = shrink(
        &start,
        |cand| Some(run_case_with(cand, alg).class),
        max_replays,
    );
    let final_run = run_case_with(&report.case, alg);
    report.case.outcome = final_run.outcome_debug;
    report.case.class = final_run.class;
    prelude.append(&mut report.log);
    report.log = prelude;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use llsc_shmem::repro::{ScheduleSpec, TossSpec};
    use llsc_shmem::{CrashPlan, FaultPlan};

    fn clean_case(algorithm: &str, n: usize, seed: u64) -> ReproCase {
        ReproCase {
            experiment: "test".to_string(),
            algorithm: algorithm.to_string(),
            n,
            toss: TossSpec::Seeded(seed),
            schedule: ScheduleSpec::RoundRobin,
            crashes: CrashPlan::none(),
            recovery: None,
            faults: FaultPlan::none(),
            max_events: crate::DEFAULT_MAX_EVENTS,
            max_steps: 40_000,
            outcome: String::new(),
            class: String::new(),
            provenance: None,
        }
    }

    #[test]
    fn registry_resolves_every_experiment_name() {
        let labeled = [
            "wakeup-from-fetch&increment[hardened-direct-llsc]",
            "wakeup-from-fetch&increment[hardened-combining-tree]",
            "wakeup-from-fetch&increment[hardened-adt-group-update]",
        ];
        for name in labeled {
            assert!(resolve_algorithm(name, 4).is_some(), "{name}");
        }
        for kind in Degradation::ALL {
            for idx in 0..kind.algorithm_count() {
                let label = kind.label(idx, 4);
                let resolved = resolve_algorithm(&label, 4).expect("catalog names resolve");
                assert_eq!(resolved.name(), kind.algorithm(idx, 4).name(), "{label}");
            }
        }
        assert!(resolve_algorithm("no-such-algorithm", 4).is_none());
    }

    #[test]
    fn recoverable_mutex_case_judged_on_tokens_not_wakeup() {
        // A clean recoverable-mutex run returns tokens 1..=n, which the
        // wakeup checker would reject; the token checker accepts it.
        let case = clean_case("recoverable-mutex", 4, 5);
        let run = run_case(&case).unwrap();
        assert_eq!(run.outcome_debug, "Completed");
        assert_eq!(run.class, "recovered");
        assert!(run.safe);
    }

    #[test]
    fn crashed_recoverable_case_replays_and_shrinks_with_class_preserved() {
        use llsc_shmem::repro::RecoverySpec;

        // Crash-stop (no recovery): the victim stays down and the case
        // classifies as crashed.
        let mut case = clean_case("recoverable-mutex", 4, 9);
        case.crashes = CrashPlan::at([(ProcessId(1), 2)]);
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "crashed");
        case.class = run.class.clone();
        case.outcome = run.outcome_debug;

        let report = shrink_case(&case, 500).unwrap();
        assert_eq!(report.case.class, "crashed", "class preserved");
        let replayed = run_case(&report.case).unwrap();
        assert_eq!(replayed.class, "crashed");
        assert_eq!(replayed.outcome_debug, report.case.outcome);

        // The same crash with a recovery spec revives the victim and the
        // trial completes safely.
        case.recovery = Some(RecoverySpec {
            delay: 4,
            budget: 1,
        });
        let recovered = run_case(&case).unwrap();
        assert_eq!(recovered.class, "recovered");
        assert!(recovered.safe);
    }

    #[test]
    fn clean_cases_classify_as_recovered() {
        let case = clean_case("counter-wakeup", 4, 7);
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "recovered");
        assert_eq!(run.outcome_debug, "Completed");
        assert!(run.safe);
        assert!(!run.trace.is_empty());
    }

    #[test]
    fn run_case_is_deterministic() {
        let case = clean_case("tournament-wakeup", 4, 11);
        let a = run_case(&case).unwrap();
        let b = run_case(&case).unwrap();
        assert_eq!(a.outcome_debug, b.outcome_debug);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn starved_budget_classifies_as_stalled_and_shrinks() {
        let mut case = clean_case("counter-wakeup", 4, 3);
        case.max_events = 10;
        let run = run_case(&case).unwrap();
        assert_eq!(run.class, "stalled");
        assert!(
            run.outcome_debug.starts_with("BudgetExhausted"),
            "{}",
            run.outcome_debug
        );
        case.class = run.class.clone();
        case.outcome = run.outcome_debug;

        let report = shrink_case(&case, 500).unwrap();
        assert_eq!(report.case.class, "stalled", "class preserved");
        assert!(
            report.final_size < report.initial_size.max(run.trace.len()),
            "strictly smaller: {} vs schedule {}",
            report.final_size,
            run.trace.len()
        );
        // The minimal reproducer replays to the class it records.
        let replayed = run_case(&report.case).unwrap();
        assert_eq!(replayed.class, "stalled");
        assert_eq!(replayed.outcome_debug, report.case.outcome);
    }

    #[test]
    fn classify_covers_the_vocabulary() {
        use RunOutcome::*;
        assert_eq!(classify(&Completed, true, 0), "recovered");
        assert_eq!(classify(&Completed, false, 2), "detected-wrong");
        assert_eq!(
            classify(
                &FaultInjected {
                    spurious_sc: 1,
                    corruptions: 0
                },
                false,
                0
            ),
            "silent-wrong"
        );
        assert_eq!(classify(&BudgetExhausted { events: 9 }, true, 0), "stalled");
        assert_eq!(classify(&Crashed { pid: ProcessId(1) }, true, 0), "crashed");
        assert_eq!(
            classify(&DivergedLocalBurst { pid: ProcessId(0) }, true, 0),
            "aborted"
        );
    }
}
