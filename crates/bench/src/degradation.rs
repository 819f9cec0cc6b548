//! One driver for the five degradation experiments (E15–E17, E19, E20).
//!
//! The paper's adversary only ever *delays* processes. The degradation
//! experiments turn that delay into real faults and tally how each
//! algorithm family degrades as the fault level grows:
//!
//! | Kind | Experiment | Faults | `level` |
//! |------|------------|--------|---------|
//! | [`Degradation::Crash`] | E15 | crash-stop | crashed processes `k` |
//! | [`Degradation::MemoryFault`] | E16 | spurious SC failures + corruption | fault budget `f` |
//! | [`Degradation::Chaos`] | E17 | crashes + memory faults + random schedule | chaos intensity |
//! | [`Degradation::Recovery`] | E19 | crash-recovery, CC/DSM RMRs billed | victims `k` |
//! | [`Degradation::ChaosRecovery`] | E20 (simulator half) | chaos tailored to each family's arm | chaos intensity |
//!
//! **The case is the trial.** Each kind owns its experiment's fixed
//! facts — algorithm catalog, step cap, plan window, context string,
//! fault-free invariant, table layout — and [`Degradation::case`] builds
//! the [`ReproCase`] one trial runs. A trial executes that case exactly
//! once (`repro::execute_case`), which also returns the run's
//! counters, and a failing trial's attached reproducer is the same case
//! under the failure's derived seed, so replaying it re-runs the failed
//! trial by construction. Only two extras are kind-specific: E16's
//! zero-cost comparison against the unhardened twin at `f = 0`, and
//! E17's in-trial shrink of every non-recovered case.
//!
//! [`DegradationGrid`] does the rest for every kind: the cell grid, the
//! panic-isolated sweep, reproducer attachment, the checkpoint codec, and
//! the fold into one [`DegradationRow`] per `(algorithm, level)` cell and
//! the table. [`degradation_sweep`] runs it as one in-memory chunk; E20's
//! resumable job runs it chunk by chunk.

use crate::grid::{
    cell_of, decode_failure, encode_failure, field, push_field, run_and_fold, tile, Fold, Grid,
};
use crate::harness::Experiment;
use crate::repro::{execute_case, run_case_with, shrink_run, CaseCounters, CaseRun};
use crate::table::Table;
use llsc_objects::ObjectSpec;
use llsc_shmem::repro::{Provenance, RecoverySpec, ReproCase, ScheduleSpec, TossSpec};
use llsc_shmem::{
    json, Algorithm, ChaosPlan, CrashPlan, FaultPlan, RunOutcome, Sweep, TrialFailure,
};
use llsc_universal::{
    AdtTreeUniversal, CombiningTreeUniversal, DirectLlSc, HardenedAdtTreeUniversal,
    HardenedCombiningTreeUniversal, HardenedDirectLlSc, ObjectImplementation,
};
use llsc_wakeup::{
    CounterWakeup, HardenedCounterWakeup, HardenedRandomizedCounterWakeup,
    HardenedTournamentWakeup, ObjectWakeup, RandomizedCounterWakeup, RecoverableCounterWakeup,
    RecoverableMutex, RecoverableRandCounterWakeup, ReductionKind, TournamentWakeup,
};
use std::ops::Range;
use std::sync::Arc;

/// The per-trial event budget of every degradation experiment unless
/// overridden (`--max-events`, a job spec's `max_events`): generous
/// enough that only an honest stall, a stranded survivor, or deliberate
/// starvation keeps a trial from finishing.
pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000;

/// The per-trial replay budget E17's in-trial shrink gets.
const SHRINK_BUDGET: usize = 160;

/// One degradation experiment. See the module docs for the table of
/// kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// E15: the wakeup solutions the paper's bound covers, plus the
    /// oblivious universal construction solving wakeup through the
    /// fetch&increment reduction, under crash-stop faults.
    Crash,
    /// E16: the hardened wakeup solutions and hardened universal
    /// constructions under seeded memory faults.
    MemoryFault,
    /// E17: the hardened wakeup trio and its unhardened twins under one
    /// [`ChaosPlan`] composing crashes, memory faults and a seeded random
    /// schedule.
    Chaos,
    /// E19: the recoverable algorithms under the crash-*recovery*
    /// adversary, billed in CC and DSM remote memory references.
    Recovery,
    /// E20, simulator half: the hardened trio (memory-fault arm) and the
    /// recoverable trio (crash-recovery arm) under chaos plans tailored
    /// to each family. The hardware half (`bench_e20`) runs the same
    /// cases on real threads.
    ChaosRecovery,
}

impl Degradation {
    /// Every kind, in experiment order.
    pub const ALL: [Degradation; 5] = [
        Degradation::Crash,
        Degradation::MemoryFault,
        Degradation::Chaos,
        Degradation::Recovery,
        Degradation::ChaosRecovery,
    ];

    /// The order [`crate::repro::resolve_algorithm`] scans the catalogs
    /// in (E20's catalog is drawn from E16's and E19's, so it adds no
    /// name).
    pub(crate) const REGISTRY_ORDER: [Degradation; 4] = [
        Degradation::MemoryFault,
        Degradation::Crash,
        Degradation::Recovery,
        Degradation::Chaos,
    ];

    /// The experiment tag (`"e15"`, …), recorded in every reproducer.
    pub fn tag(self) -> &'static str {
        match self {
            Degradation::Crash => "e15",
            Degradation::MemoryFault => "e16",
            Degradation::Chaos => "e17",
            Degradation::Recovery => "e19",
            Degradation::ChaosRecovery => "e20",
        }
    }

    /// The size of the kind's algorithm catalog.
    pub fn algorithm_count(self) -> usize {
        match self {
            Degradation::Crash => 4,
            Degradation::Recovery => 3,
            Degradation::MemoryFault | Degradation::Chaos | Degradation::ChaosRecovery => 6,
        }
    }

    /// Algorithm `idx` of the kind's catalog, at `n` processes.
    ///
    /// # Panics
    ///
    /// If `idx >= self.algorithm_count()`.
    pub fn algorithm(self, idx: usize, n: usize) -> Box<dyn Algorithm> {
        match (self, idx) {
            (Degradation::Crash, 0) => Box::new(TournamentWakeup),
            (Degradation::Crash, 1) => Box::new(CounterWakeup),
            (Degradation::Crash, 2) => Box::new(RandomizedCounterWakeup),
            (Degradation::Crash, 3) => via_fetch_increment(n, AdtTreeUniversal::new),
            (Degradation::MemoryFault, 0) => Box::new(HardenedCounterWakeup),
            (Degradation::MemoryFault, 1) => Box::new(HardenedTournamentWakeup),
            (Degradation::MemoryFault, 2) => Box::new(HardenedRandomizedCounterWakeup),
            (Degradation::MemoryFault, 3) => via_fetch_increment(n, HardenedDirectLlSc::new),
            (Degradation::MemoryFault, 4) => {
                via_fetch_increment(n, HardenedCombiningTreeUniversal::new)
            }
            (Degradation::MemoryFault, 5) => via_fetch_increment(n, HardenedAdtTreeUniversal::new),
            (Degradation::Recovery, 0) => Box::new(RecoverableMutex),
            (Degradation::Recovery, 1) => Box::new(RecoverableCounterWakeup),
            (Degradation::Recovery, 2) => Box::new(RecoverableRandCounterWakeup),
            (Degradation::Chaos | Degradation::ChaosRecovery, 0..=2) => {
                Degradation::MemoryFault.algorithm(idx, n)
            }
            (Degradation::Chaos, 3..=5) => unhardened_twin(idx - 3, n),
            (Degradation::ChaosRecovery, 3..=5) => Degradation::Recovery.algorithm(idx - 3, n),
            _ => panic!(
                "{} has {} algorithms; there is no algorithm {idx}",
                self.tag(),
                self.algorithm_count()
            ),
        }
    }

    /// The name algorithm `idx` is recorded under — in table rows,
    /// contexts and reproducers. It is the algorithm's own name, except
    /// for E16's three `ObjectWakeup` rows, whose reduction wrapper's
    /// name alone does not say which hardened construction backs it.
    pub fn label(self, idx: usize, n: usize) -> String {
        match (self, idx) {
            (Degradation::MemoryFault, 3) => {
                "wakeup-from-fetch&increment[hardened-direct-llsc]".to_string()
            }
            (Degradation::MemoryFault, 4) => {
                "wakeup-from-fetch&increment[hardened-combining-tree]".to_string()
            }
            (Degradation::MemoryFault, 5) => {
                "wakeup-from-fetch&increment[hardened-adt-group-update]".to_string()
            }
            _ => self.algorithm(idx, n).name().to_string(),
        }
    }

    /// What the kind's fault level counts, as its table's column names
    /// it.
    fn level_name(self) -> &'static str {
        match self {
            Degradation::Crash | Degradation::Recovery => "crashed",
            Degradation::MemoryFault => "faults",
            Degradation::Chaos | Degradation::ChaosRecovery => "intensity",
        }
    }

    /// The step cap every trial's drive runs under (on both backends,
    /// for E20). Runs a fault leaves spinning stop here.
    pub fn max_steps(self) -> u64 {
        match self {
            Degradation::Chaos => 20_000,
            _ => 40_000,
        }
    }

    /// The early event window the kind's seeded plans place their faults
    /// in, where every algorithm still has live waiters to strand and SCs
    /// in flight.
    fn window(self, n: usize) -> u64 {
        match self {
            Degradation::MemoryFault => 4 * n as u64,
            _ => 8 * n as u64,
        }
    }

    /// The crash-recovery regime algorithm `idx` runs under: victims come
    /// back `n` events after each crash and may be re-crashed once (two
    /// crashes per victim in total) — enough to land re-crashes inside
    /// recovery sections without making completion hopeless. `None` for
    /// crash-stop kinds and for E20's memory-fault arm.
    pub fn recovery(self, idx: usize, n: usize) -> Option<RecoverySpec> {
        let recovers = match self {
            Degradation::Recovery => true,
            Degradation::ChaosRecovery => idx >= 3,
            _ => false,
        };
        recovers.then_some(RecoverySpec {
            delay: n as u64,
            budget: 2,
        })
    }

    /// E20's adversary arm for algorithm `idx`; `None` for other kinds.
    pub fn arm(self, idx: usize) -> Option<&'static str> {
        (self == Degradation::ChaosRecovery).then_some(if idx < 3 {
            "memory-faults"
        } else {
            "crash-recovery"
        })
    }

    /// The replayable case one trial runs: algorithm `idx` at `n`
    /// processes and fault level `level`, every plan and the toss
    /// assignment seeded from `seed`.
    pub fn case(self, idx: usize, n: usize, level: usize, seed: u64, max_events: u64) -> ReproCase {
        let window = self.window(n);
        let toss = TossSpec::Seeded(seed);
        let algorithm = self.label(idx, n);
        match self {
            Degradation::Chaos | Degradation::ChaosRecovery => {
                let chaos = ChaosPlan::seeded(seed, n, level, window);
                let mut case = chaos.to_case(
                    self.tag(),
                    &algorithm,
                    n,
                    toss,
                    max_events,
                    self.max_steps(),
                );
                if self == Degradation::ChaosRecovery {
                    // The plan tailored to the algorithm's capability arm,
                    // so `llsc replay` and the hardware half run exactly
                    // what the simulator sweep did.
                    let recovery = self.recovery(idx, n);
                    (case.crashes, case.faults) = crate::xcheck::chaos_arm(&chaos, recovery);
                    case.recovery = recovery;
                }
                case
            }
            Degradation::Crash | Degradation::MemoryFault | Degradation::Recovery => {
                let memory = self == Degradation::MemoryFault;
                ReproCase {
                    experiment: self.tag().to_string(),
                    algorithm,
                    n,
                    toss,
                    schedule: ScheduleSpec::RoundRobin,
                    crashes: if memory {
                        CrashPlan::none()
                    } else {
                        CrashPlan::seeded(seed, n, level, window)
                    },
                    recovery: self.recovery(idx, n),
                    faults: if memory {
                        FaultPlan::seeded(seed, level, level, window)
                    } else {
                        FaultPlan::none()
                    },
                    max_events,
                    max_steps: self.max_steps(),
                    outcome: String::new(),
                    class: String::new(),
                    provenance: None,
                }
            }
        }
    }

    /// The reproduction context a failing trial records: algorithm, plan
    /// summary, and toss seed.
    fn context(self, idx: usize, n: usize, level: usize, seed: u64) -> String {
        let window = self.window(n);
        let plan = match self {
            Degradation::Crash => format!("crash-plan:k={level},window={window}"),
            Degradation::MemoryFault => FaultPlan::seeded(seed, level, level, window).summary(),
            Degradation::Chaos => ChaosPlan::seeded(seed, n, level, window).summary(),
            Degradation::Recovery => {
                let spec = self.recovery(idx, n).expect("every E19 trial recovers");
                format!(
                    "recovery-crash-plan:k={level},window={window},delay={},budget={}",
                    spec.delay, spec.budget
                )
            }
            Degradation::ChaosRecovery => format!(
                "arm={} {}",
                self.arm(idx).expect("every E20 algorithm has an arm"),
                ChaosPlan::seeded(seed, n, level, window).summary()
            ),
        };
        format!(
            "alg={} n={n} {plan} tosses=seeded:{seed:#018x}",
            self.label(idx, n)
        )
    }

    /// Kinds whose tables count aborted trials isolate panics inside the
    /// execution (classifying them `panic`); the others let a panic fail
    /// the trial with its own payload.
    fn isolates_panics(self) -> bool {
        matches!(self, Degradation::Chaos | Degradation::ChaosRecovery)
    }

    /// Whether the kind's table has a column for `class`. A class it
    /// cannot show (say, a diverged local section in E15) fails the trial
    /// instead of vanishing from the counts.
    fn tallies(self, class: &str) -> bool {
        match self {
            Degradation::Crash | Degradation::Recovery => class != "aborted",
            Degradation::MemoryFault => !matches!(class, "aborted" | "crashed"),
            Degradation::Chaos | Degradation::ChaosRecovery => true,
        }
    }

    /// The level-0 invariant: without faults every trial must complete
    /// (correctly, for E16) or recover. A violation panics, which the
    /// sweep records as a [`TrialFailure`].
    fn check_fault_free(self, alg: &dyn Algorithm, run: &CaseRun, seed: u64) {
        let name = alg.name();
        // Only the isolated kinds (E17, E20) can see a panicked run, and
        // they judge the class instead.
        let outcome = run.outcome.as_ref();
        let completed = matches!(outcome, Some(RunOutcome::Completed));
        let outcome = outcome.map_or(String::new(), ToString::to_string);
        match self {
            Degradation::Crash => assert!(
                completed,
                "{name}: fault-free trial must complete, got {outcome} (seed {seed:#018x})"
            ),
            Degradation::MemoryFault => assert!(
                completed && run.safe,
                "{name}: fault-free trial must complete correctly, got {outcome} \
                 (seed {seed:#018x})"
            ),
            Degradation::Recovery => assert!(
                completed,
                "{name}: crash-free trial must complete, got {outcome} (seed {seed:#018x})"
            ),
            Degradation::Chaos | Degradation::ChaosRecovery => assert!(
                run.class == "recovered",
                "{name}: chaos-free trial must recover, got {} ({}) (seed {seed:#018x})",
                run.class,
                run.outcome_debug
            ),
        }
    }

    /// Runs one trial: `case` (built by [`Degradation::case`] for
    /// algorithm `idx` at `level` under `seed`, possibly with overridden
    /// knobs) executed once, checked against the level-0 invariant, and
    /// reduced to what its cell tallies. At `level = 0`, E16 also runs
    /// the unhardened twin and asserts it spent exactly as many shared
    /// accesses; E17 shrinks every non-recovered case on the spot.
    pub(crate) fn trial(
        self,
        idx: usize,
        level: usize,
        seed: u64,
        case: &ReproCase,
    ) -> TrialResult {
        let n = case.n;
        let alg = self.algorithm(idx, n);
        let alg = alg.as_ref();
        let run = if self.isolates_panics() {
            run_case_with(case, alg)
        } else {
            execute_case(case, alg)
        };
        if level == 0 {
            self.check_fault_free(alg, &run, seed);
        }
        assert!(
            self.tallies(&run.class),
            "{}: {} has no column for class {} ({})",
            alg.name(),
            self.tag(),
            run.class,
            run.outcome_debug
        );
        let mut shrunk = None;
        if self == Degradation::MemoryFault && level == 0 {
            let twin = unhardened_twin(idx, n);
            let ops = run.counters.ops;
            let twin_ops = execute_case(case, twin.as_ref()).counters.ops;
            assert_eq!(
                ops,
                twin_ops,
                "{}: hardening must be zero-cost without faults, but spent {ops} \
                 accesses vs the twin's {twin_ops} (seed {seed:#018x})",
                alg.name()
            );
        }
        if self == Degradation::Chaos && run.class != "recovered" {
            let mut failing = case.clone();
            failing.outcome = run.outcome_debug.clone();
            failing.class = run.class.clone();
            shrunk = Some(shrink_run(&failing, alg, &run, SHRINK_BUDGET).final_size);
        }
        TrialResult {
            class: run.class,
            safe: run.safe,
            counters: run.counters,
            shrunk,
        }
    }

    /// An empty cell for algorithm `idx` at `level`.
    pub(crate) fn row(self, idx: usize, n: usize, level: usize) -> DegradationRow {
        DegradationRow {
            algorithm: self.label(idx, n),
            arm: self.arm(idx),
            level,
            safety_ok: true,
            ..DegradationRow::default()
        }
    }

    /// The kind's table over `rows`, for a sweep at `n` processes with
    /// `reps` trials per cell.
    pub fn table(self, n: usize, reps: usize, rows: &[DegradationRow]) -> Table {
        let title = match self {
            Degradation::Crash => {
                format!("E15 - crash-fault degradation (n = {n}, {reps} trials per cell)")
            }
            Degradation::MemoryFault => {
                format!("E16 - memory-fault degradation (n = {n}, {reps} trials per cell)")
            }
            Degradation::Chaos => {
                format!("E17 - combined chaos mode (n = {n}, {reps} trials per cell)")
            }
            Degradation::Recovery => {
                let spec = self.recovery(0, n).expect("every E19 trial recovers");
                format!(
                    "E19 - recovery cost vs crash intensity (n = {n}, {reps} trials per cell, \
                     recovery delay {}, crash budget {})",
                    spec.delay, spec.budget
                )
            }
            Degradation::ChaosRecovery => format!(
                "E20 - cross-backend chaos: degradation class and recovery RMR cost vs fault \
                 intensity (n = {n}, {reps} trials per cell, simulator backend)"
            ),
        };
        let headers = match self {
            Degradation::Crash => {
                "algorithm,crashed,trials,completed,crash reported,budget exhausted,safety"
            }
            Degradation::MemoryFault => {
                "algorithm,faults,trials,recovered,detected wrong,silent wrong,stalled,injected,\
                 detected,mean ops"
            }
            Degradation::Chaos => {
                "algorithm,intensity,trials,recovered,detected wrong,silent wrong,stalled,crashed,\
                 aborted,median shrunk size"
            }
            Degradation::Recovery => {
                "algorithm,crashed,trials,completed,crash reported,budget exhausted,crashes,\
                 recoveries,CC RMRs,DSM RMRs,safety"
            }
            Degradation::ChaosRecovery => {
                "algorithm,arm,intensity,trials,recovered,detected wrong,silent wrong,stalled,\
                 crashed,aborted,crashes,recoveries,spurious SC,corruptions,CC RMRs,DSM RMRs"
            }
        };
        let mut table = Table::new(title, headers.split(','));
        for r in rows {
            let safety = if r.safety_ok { "ok" } else { "VIOLATED" }.to_string();
            let head = [r.algorithm.clone()]
                .into_iter()
                .chain(r.arm.map(str::to_string))
                .chain([r.level.to_string(), r.trials.to_string()]);
            let classes = [
                r.recovered,
                r.detected_wrong,
                r.silent_wrong,
                r.stalled,
                r.crashed,
                r.aborted,
            ]
            .map(|c| c.to_string());
            let cells: Vec<String> = match self {
                Degradation::Crash => head
                    .chain([r.completed(), r.crashed, r.stalled].map(|c| c.to_string()))
                    .chain([safety])
                    .collect(),
                Degradation::MemoryFault => head
                    .chain(classes.into_iter().take(4))
                    .chain([r.injected, r.detected].map(|c| c.to_string()))
                    .chain([format!("{:.1}", r.mean_ops())])
                    .collect(),
                Degradation::Chaos => head
                    .chain(classes)
                    .chain([r
                        .median_shrunk()
                        .map_or_else(|| "-".to_string(), |m| m.to_string())])
                    .collect(),
                Degradation::Recovery => head
                    .chain([r.completed(), r.crashed, r.stalled].map(|c| c.to_string()))
                    .chain([r.crashes, r.recoveries, r.cc_rmrs, r.dsm_rmrs].map(|c| c.to_string()))
                    .chain([safety])
                    .collect(),
                Degradation::ChaosRecovery => head
                    .chain(classes)
                    .chain(
                        [
                            r.crashes,
                            r.recoveries,
                            r.spurious_sc,
                            r.corruptions,
                            r.cc_rmrs,
                            r.dsm_rmrs,
                        ]
                        .map(|c| c.to_string()),
                    )
                    .collect(),
            };
            table.row(cells);
        }
        table
    }
}

/// The unhardened twin of E16's algorithm `idx` — the zero-cost baseline
/// every `f = 0` trial is compared against, access for access.
fn unhardened_twin(idx: usize, n: usize) -> Box<dyn Algorithm> {
    match idx {
        0 => Box::new(CounterWakeup),
        1 => Box::new(TournamentWakeup),
        2 => Box::new(RandomizedCounterWakeup),
        3 => via_fetch_increment(n, DirectLlSc::new),
        4 => via_fetch_increment(n, CombiningTreeUniversal::new),
        5 => via_fetch_increment(n, AdtTreeUniversal::new),
        _ => unreachable!("E16 has 6 algorithms"),
    }
}

/// Wakeup solved through the fetch&increment reduction, over the
/// universal construction `imp` builds for the reduction's object.
fn via_fetch_increment<U: ObjectImplementation + 'static>(
    n: usize,
    imp: impl FnOnce(Arc<dyn ObjectSpec>) -> U,
) -> Box<dyn Algorithm> {
    let kind = ReductionKind::FetchIncrement;
    Box::new(ObjectWakeup::new(kind, n, Arc::new(imp(kind.spec_for(n)))))
}

/// What one trial contributes to its cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialResult {
    /// The failure class (see [`crate::repro::classify`]).
    pub class: String,
    /// Whether the run satisfied its algorithm's safety property.
    pub safe: bool,
    /// The run's counters.
    pub counters: CaseCounters,
    /// E17: the size of the minimal reproducer shrunk from a
    /// non-recovered trial.
    pub shrunk: Option<usize>,
}

/// One `(algorithm, level)` cell of a degradation experiment: the class
/// histogram, the safety verdict, and the cost sums over the cell's
/// trials. Each kind's table shows the columns it measures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegradationRow {
    /// Algorithm name: its own name, or E16's label naming the
    /// construction behind an `ObjectWakeup` row.
    pub algorithm: String,
    /// E20's adversary arm (`"memory-faults"` for the hardened trio,
    /// `"crash-recovery"` for the recoverable trio; see
    /// [`crate::xcheck::chaos_arm`]); `None` for other kinds.
    pub arm: Option<&'static str>,
    /// The fault level: crashed processes (E15, E19), fault budget (E16),
    /// or chaos intensity (E17, E20).
    pub level: usize,
    /// Trials tallied (failed trials are reported separately).
    pub trials: usize,
    /// Trials that terminated with a correct answer.
    pub recovered: usize,
    /// Trials that terminated wrong with a published detection.
    pub detected_wrong: usize,
    /// Trials that terminated wrong with no detection — the failure
    /// mode hardening exists to eliminate.
    pub silent_wrong: usize,
    /// Trials that exhausted their event or step budget with every
    /// process live (E15/E19 call them budget-exhausted).
    pub stalled: usize,
    /// Trials whose step cap fired while a victim was down (E15/E19:
    /// crash reported).
    pub crashed: usize,
    /// Trials that aborted: local-burst divergence, or a panic inside
    /// the isolated execution (E17, E20).
    pub aborted: usize,
    /// Whether every trial satisfied its algorithm's safety property
    /// (wakeup conditions, or token distinctness for the mutex).
    pub safety_ok: bool,
    /// Shared-memory accesses across the cell.
    pub ops: u64,
    /// Faults delivered across the cell.
    pub injected: u64,
    /// Detections published across the cell.
    pub detected: u64,
    /// Crashes delivered across the cell (re-crashes included).
    pub crashes: u64,
    /// Recoveries performed across the cell.
    pub recoveries: u64,
    /// Spurious SC failures reported by terminated runs across the cell.
    pub spurious_sc: u64,
    /// Register corruptions reported by terminated runs across the cell.
    pub corruptions: u64,
    /// CC-model remote memory references across the cell.
    pub cc_rmrs: u64,
    /// DSM-model remote memory references across the cell.
    pub dsm_rmrs: u64,
    /// E17: minimal-reproducer sizes of the cell's non-recovered trials,
    /// in trial order.
    pub shrunk: Vec<usize>,
}

impl DegradationRow {
    /// Adds one trial to the cell.
    pub(crate) fn tally(&mut self, t: &TrialResult) {
        self.trials += 1;
        let class = match t.class.as_str() {
            "recovered" => &mut self.recovered,
            "detected-wrong" => &mut self.detected_wrong,
            "silent-wrong" => &mut self.silent_wrong,
            "stalled" => &mut self.stalled,
            "crashed" => &mut self.crashed,
            _ => &mut self.aborted,
        };
        *class += 1;
        self.safety_ok &= t.safe;
        let c = &t.counters;
        self.ops += c.ops;
        self.injected += c.injected;
        self.detected += c.detected;
        self.crashes += c.crashes;
        self.recoveries += c.recoveries;
        self.spurious_sc += c.spurious_sc;
        self.corruptions += c.corruptions;
        self.cc_rmrs += c.cc_rmrs;
        self.dsm_rmrs += c.dsm_rmrs;
        self.shrunk.extend(t.shrunk);
    }

    /// Trials in which every process terminated, right or wrong.
    pub fn completed(&self) -> usize {
        self.recovered + self.detected_wrong + self.silent_wrong
    }

    /// Mean shared-memory accesses per trial — E16's cost axis (extra
    /// accesses come from retries and backoff); 0 for an empty cell.
    pub fn mean_ops(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.ops as f64 / self.trials as f64
        }
    }

    /// The lower median of [`DegradationRow::shrunk`]; `None` when every
    /// trial recovered.
    pub fn median_shrunk(&self) -> Option<usize> {
        let mut sizes = self.shrunk.clone();
        sizes.sort_unstable();
        sizes.get(sizes.len().checked_sub(1)? / 2).copied()
    }
}

/// The grid of degradation experiment `kind` at `n` processes: one cell
/// per `(algorithm, level)`, algorithm-major, `reps` trials each, every
/// trial under `max_events` and its own derived seed.
///
/// Trials are panic-isolated ([`Sweep::run_fallible`]): a level-0
/// invariant violation, a starved `max_events` or a trial deadline
/// becomes a [`TrialFailure`] carrying the trial's context and its
/// [`ReproCase`] — the trial's own case under the failure's derived seed,
/// with the classified outcome and provenance recorded.
pub struct DegradationGrid {
    kind: Degradation,
    n: usize,
    levels: Vec<usize>,
    reps: usize,
    max_events: u64,
    /// Recovery `(delay, budget)` overrides; 0 keeps the case's own.
    recovery: (u64, u64),
    cells: Vec<Range<usize>>,
}

impl DegradationGrid {
    /// Every algorithm of `kind`'s catalog at every level in `levels`.
    pub fn new(
        kind: Degradation,
        n: usize,
        levels: &[usize],
        reps: usize,
        max_events: u64,
    ) -> DegradationGrid {
        let cells = kind.algorithm_count() * levels.len();
        DegradationGrid {
            kind,
            n,
            levels: levels.to_vec(),
            reps,
            max_events,
            recovery: (0, 0),
            cells: tile(std::iter::repeat_n(reps, cells)),
        }
    }

    /// Overrides the recovery delay and respawn budget of every case that
    /// recovers crashed processes (`0` keeps the case's own value).
    pub fn with_recovery(mut self, delay: u64, budget: u64) -> DegradationGrid {
        self.recovery = (delay, budget);
        self
    }

    /// `(algorithm, level)` of cell `cell`.
    fn coords(&self, cell: usize) -> (usize, usize) {
        let per_alg = self.levels.len();
        (cell / per_alg, self.levels[cell % per_alg])
    }

    /// The case one trial of algorithm `a` at `level` runs under `seed`.
    fn case(&self, a: usize, level: usize, seed: u64) -> ReproCase {
        let mut case = self.kind.case(a, self.n, level, seed, self.max_events);
        if let Some(recovery) = case.recovery.as_mut() {
            let (delay, budget) = self.recovery;
            recovery.delay = if delay > 0 { delay } else { recovery.delay };
            recovery.budget = if budget > 0 { budget } else { recovery.budget };
        }
        case
    }
}

impl Grid for DegradationGrid {
    type Trial = Result<TrialResult, TrialFailure>;
    type Row = DegradationRow;

    fn cells(&self) -> &[Range<usize>] {
        &self.cells
    }

    fn label(&self, cell: usize) -> String {
        let (a, level) = self.coords(cell);
        let (n, name) = (self.n, self.kind.level_name());
        format!("alg={} n={n} {name}={level}", self.kind.label(a, n))
    }

    /// One fallible sweep over the whole span, so its trials share one
    /// work queue across cells. Never an `Err`: a failed trial is a
    /// record.
    fn run(&self, span: Range<usize>, sweep: &Sweep) -> Result<Vec<Self::Trial>, String> {
        let (kind, n) = (self.kind, self.n);
        let coords = |index| self.coords(cell_of(&self.cells, index));
        let mut results = sweep.run_fallible(
            span,
            |trial| {
                let (a, level) = coords(trial.index);
                kind.trial(a, level, trial.seed, &self.case(a, level, trial.seed))
            },
            |trial| {
                let (a, level) = coords(trial.index);
                kind.context(a, n, level, trial.seed)
            },
        );
        // A trial cancelled before it started has nothing to reproduce.
        let started = results.iter_mut().filter_map(|r| r.as_mut().err());
        for failure in started.filter(|f| f.attempts > 0) {
            let (a, level) = coords(failure.index);
            let mut case = self.case(a, level, failure.derived_seed);
            case.provenance = Some(Provenance {
                sweep_seed: sweep.seed,
                trial_index: failure.index,
                attempt: failure.attempts.saturating_sub(1),
            });
            let run = run_case_with(&case, kind.algorithm(a, n).as_ref());
            case.outcome = run.outcome_debug;
            case.class = run.class;
            failure.repro = Some(case.to_json());
        }
        Ok(results)
    }

    /// A `chaos` record keeps what the E20 table reads — the class and
    /// the recovery counters — the only degradation kind that runs as a
    /// job.
    fn encode(&self, trial: &Self::Trial, out: &mut String) {
        let t = match trial {
            Ok(t) => t,
            Err(failure) => return encode_failure(failure, out),
        };
        let c = &t.counters;
        push_field(out, "kind", "chaos");
        push_field(out, "class", &t.class);
        for (key, value) in [
            ("crashes", c.crashes),
            ("recoveries", c.recoveries),
            ("spurious_sc", c.spurious_sc),
            ("corruptions", c.corruptions),
            ("cc_rmrs", c.cc_rmrs),
            ("dsm_rmrs", c.dsm_rmrs),
        ] {
            push_field(out, key, value);
        }
    }

    fn decode(&self, index: usize, record: &json::Value) -> Result<Self::Trial, String> {
        if field::<String>(record, "kind")? == "failure" {
            return Ok(Err(decode_failure(index, record)?));
        }
        Ok(Ok(TrialResult {
            class: field(record, "class")?,
            safe: true,
            counters: CaseCounters {
                crashes: field(record, "crashes")?,
                recoveries: field(record, "recoveries")?,
                spurious_sc: field(record, "spurious_sc")?,
                corruptions: field(record, "corruptions")?,
                cc_rmrs: field(record, "cc_rmrs")?,
                dsm_rmrs: field(record, "dsm_rmrs")?,
                ..CaseCounters::default()
            },
            shrunk: None,
        }))
    }

    fn fold(&self, cells: &[Option<&[Self::Trial]>]) -> Fold<DegradationRow> {
        let (mut rows, mut failures, mut incomplete) = (Vec::new(), Vec::new(), Vec::new());
        for (c, trials) in cells.iter().enumerate() {
            let (a, level) = self.coords(c);
            let Some(trials) = trials else {
                let name = self.kind.level_name();
                incomplete.push(format!("alg={} {name}={level}", self.kind.label(a, self.n)));
                continue;
            };
            let mut row = self.kind.row(a, self.n, level);
            for trial in *trials {
                match trial {
                    Ok(t) => row.tally(t),
                    Err(failure) => failures.push(failure.clone()),
                }
            }
            rows.push(row);
        }
        Fold {
            table: self.kind.table(self.n, self.reps, &rows),
            rows,
            failures,
            incomplete,
        }
    }
}

/// Runs degradation experiment `kind` at `n` processes — its
/// [`DegradationGrid`] as one in-memory chunk — and returns the table and
/// rows plus every failed trial.
///
/// # Panics
///
/// If `reps` is 0.
pub fn degradation_sweep(
    kind: Degradation,
    n: usize,
    levels: &[usize],
    reps: usize,
    max_events: u64,
    sweep: &Sweep,
) -> (Experiment<DegradationRow>, Vec<TrialFailure>) {
    assert!(reps >= 1, "need at least one repetition per cell");
    let grid = DegradationGrid::new(kind, n, levels, reps, max_events);
    let Fold {
        table,
        rows,
        failures,
        ..
    } = run_and_fold(&grid, sweep);
    (Experiment { table, rows }, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A sweep whose trial deadline has passed by the first poll: any
    /// execution that records 512 events is aborted.
    fn expired() -> Sweep {
        Sweep::sequential().with_trial_timeout(Duration::from_nanos(1))
    }

    fn assert_deadline(failure: &TrialFailure) {
        assert!(
            failure
                .payload
                .starts_with("trial wall-clock deadline exceeded after "),
            "{failure}"
        );
    }

    #[test]
    fn trial_deadlines_fail_trials_of_every_kind_and_are_never_classified() {
        // Whether some trial at this level runs long enough to poll. E17,
        // E19 and E20 trials end early (no survivor is left spinning), so
        // the isolated classifier and the shrink oracle they run through
        // are driven directly in the next test.
        for (kind, level, polls) in [
            (Degradation::Crash, 4, true),
            (Degradation::MemoryFault, 8, true),
            (Degradation::Chaos, 4, false),
            (Degradation::Recovery, 4, false),
            (Degradation::ChaosRecovery, 4, false),
        ] {
            let (exp, failures) =
                degradation_sweep(kind, 8, &[level], 2, DEFAULT_MAX_EVENTS, &expired());
            assert_eq!(!failures.is_empty(), polls, "{}", kind.tag());
            failures.iter().for_each(assert_deadline);
            let tallied: usize = exp.rows.iter().map(|r| r.trials).sum();
            assert_eq!(tallied + failures.len(), kind.algorithm_count() * 2);
            assert!(
                exp.rows.iter().all(|r| r.aborted == 0),
                "{}: an abort is a failure, not a class",
                kind.tag()
            );
        }
    }

    #[test]
    fn a_deadline_inside_the_isolated_classifier_or_the_shrink_oracle_fails_the_trial() {
        // E16's hardened ADT construction stalls at f = 8: a long run, so
        // the expired deadline fires inside every execution of it.
        let kind = Degradation::MemoryFault;
        let case = kind.case(5, 8, 8, 1, DEFAULT_MAX_EVENTS);
        let alg = kind.algorithm(5, 8);
        let baseline = run_case_with(&case, alg.as_ref());
        assert_eq!(baseline.class, "stalled");
        let isolated = expired().run_fallible(
            0..1,
            |_| run_case_with(&case, alg.as_ref()).class,
            |_| String::new(),
        );
        let shrunk = expired().run_fallible(
            0..1,
            |_| shrink_run(&case, alg.as_ref(), &baseline, 10).final_size,
            |_| String::new(),
        );
        assert_deadline(isolated[0].as_ref().expect_err("the abort is not a class"));
        assert_deadline(
            shrunk[0]
                .as_ref()
                .expect_err("the oracle hands the abort on"),
        );
    }
}
