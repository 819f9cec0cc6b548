//! Exhaustive subset sweeps: Lemma 5.2 (and optionally the appendix
//! claims) over every `S ⊆ {p_0, …, p_{n-1}}`.
//!
//! This is the heaviest verification loop in the repository — `2^n`
//! `(S, A)`-runs per `(All, A)`-run — and it is embarrassingly parallel:
//! each subset's run is built independently against the shared
//! `(All, A)`-run. [`indist_all_subsets`] therefore fans the masks out
//! over a [`Sweep`], one mask per claimed trial, and merges per-subset
//! tallies in mask order so the report is identical at any thread count.
//!
//! Each sweep worker keeps one [`Executor`] as its scratch: it is reset
//! for every mask, and the finished `(S, A)`-run goes back to it
//! ([`Executor::recycle_run`]), so histories and the event vector keep
//! their capacity from one mask to the next.

use crate::all_run::{build_all_run, AdversaryConfig, AllRun};
use crate::claims::check_appendix_claims;
use crate::indist::check_indistinguishability;
use crate::s_run::build_s_run_with;
use crate::upsets::ProcSet;
use llsc_shmem::{Algorithm, Executor, ProcessId, RunError, Sweep, TossAssignment};
use std::fmt;
use std::sync::Arc;

/// The aggregate outcome of an exhaustive subset sweep.
#[derive(Clone, Debug, Default)]
pub struct SubsetSweepReport {
    /// Subsets `S` tested (always `2^n`).
    pub subsets: usize,
    /// Individual Lemma 5.2 state comparisons performed (process checks
    /// plus register checks, summed over subsets).
    pub comparisons: usize,
    /// Appendix-claim instances evaluated (0 unless claims were checked).
    pub claim_instances: usize,
    /// Total simulated executor events across the `(All, A)`-run and every
    /// `(S, A)`-run of the sweep — the denominator of the bench-smoke
    /// events/sec figure.
    pub events: u64,
    /// Always 0: every `(S, A)`-run is executed in full. The field stays
    /// for code that still reads it.
    pub replayed_events: u64,
    /// Every violation found, rendered with the subset that exposed it.
    /// Sound machinery leaves this empty.
    pub violations: Vec<String>,
}

impl SubsetSweepReport {
    /// `true` iff no subset exposed a violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for SubsetSweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subset sweep: {} subsets, {} comparisons, {} claim instances, {} violation(s)",
            self.subsets,
            self.comparisons,
            self.claim_instances,
            self.violations.len()
        )
    }
}

/// What one subset trial (one mask) contributed to the sweep — the
/// checkpointable per-trial unit of a chunked subset job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetTrialRecord {
    /// The subset bitmask (trial index within the `2^n` space).
    pub mask: usize,
    /// Lemma 5.2 comparisons performed for this subset.
    pub comparisons: usize,
    /// Appendix-claim instances evaluated (0 unless claims were checked).
    pub claim_instances: usize,
    /// Simulated events of this subset's `(S, A)`-run.
    pub events: u64,
    /// Violations exposed by this subset, rendered with the subset.
    pub violations: Vec<String>,
}

/// The output of one contiguous mask-range of a subset sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetChunk {
    /// Events of the shared `(All, A)`-run (identical for every chunk of
    /// the same sweep — counted once at assembly).
    pub all_events: u64,
    /// One record per mask, in mask order.
    pub records: Vec<SubsetTrialRecord>,
}

/// Checks Lemma 5.2 — and, when `check_claims` is set, claims A.2 – A.9 —
/// for the subset masks `trials.start .. trials.end` of an `n`-process
/// system, fanning them out over `sweep`. Bit `i` of a mask puts `p_i`
/// in `S`. Records come back in mask order.
///
/// This is the chunkable core of [`indist_all_subsets`]: the `(All, A)`-run
/// is rebuilt deterministically per call (it depends only on
/// `(alg, n, toss, cfg)`), so concatenating the records of any partition
/// of `0 .. 2^n` reproduces the full sweep exactly — see
/// [`report_from_subset_records`].
///
/// # Errors
///
/// Returns [`RunError::UnsupportedSweep`] when `n > 16` or the range
/// exceeds the `2^n` trial space (pre-flight validation; no run is
/// started). Otherwise propagates the first (lowest-mask) [`RunError`]
/// the `(All, A)`-run or any `(S, A)`-run reports.
pub fn indist_subset_range(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
    check_claims: bool,
    sweep: &Sweep,
    trials: std::ops::Range<usize>,
) -> Result<SubsetChunk, RunError> {
    if n > 16 || trials.end > 1usize << n || trials.start > trials.end {
        return Err(RunError::UnsupportedSweep { n, end: trials.end });
    }
    let all = build_all_run(alg, n, toss.clone(), cfg)?;
    let records = sweep
        .run_range(
            trials,
            || Executor::new(alg, n, toss.clone(), cfg.executor),
            |exec, trial| subset_trial(exec, alg, &all, cfg, check_claims, trial.index),
        )
        .into_iter()
        .collect::<Result<Vec<SubsetTrialRecord>, RunError>>()?;
    Ok(SubsetChunk {
        all_events: all.base.run.event_count(),
        records,
    })
}

/// One mask of a subset sweep: builds the `(S, A)`-run on `exec`, checks
/// it, and hands the run back to `exec` for the next mask.
fn subset_trial(
    exec: &mut Executor,
    alg: &dyn Algorithm,
    all: &AllRun,
    cfg: &AdversaryConfig,
    check_claims: bool,
    mask: usize,
) -> Result<SubsetTrialRecord, RunError> {
    let s: ProcSet = ProcessId::all(all.n())
        .filter(|p| mask & (1 << p.0) != 0)
        .collect();
    let srun = build_s_run_with(exec, alg, &s, all, cfg)?;
    let lemma = check_indistinguishability(all, &srun);
    let mut record = SubsetTrialRecord {
        mask,
        comparisons: lemma.process_checks + lemma.register_checks,
        claim_instances: 0,
        events: srun.base.run.event_count(),
        violations: lemma
            .violations
            .iter()
            .map(|v| format!("S={s:?}: {v}"))
            .collect(),
    };
    if check_claims {
        let claims = check_appendix_claims(all, &srun);
        record.claim_instances = claims.instances;
        record
            .violations
            .extend(claims.violations.iter().map(|v| format!("S={s:?}: {v}")));
    }
    exec.recycle_run(srun.base.run);
    Ok(record)
}

/// Assembles a [`SubsetSweepReport`] from per-mask records — a pure fold,
/// so any chunking of the mask space yields the same report as long as
/// `records` is presented in mask order.
pub fn report_from_subset_records(
    all_events: u64,
    records: &[SubsetTrialRecord],
) -> SubsetSweepReport {
    let mut report = SubsetSweepReport {
        events: all_events,
        ..SubsetSweepReport::default()
    };
    for record in records {
        report.subsets += 1;
        report.comparisons += record.comparisons;
        report.claim_instances += record.claim_instances;
        report.events += record.events;
        report.violations.extend(record.violations.iter().cloned());
    }
    report
}

/// Checks Lemma 5.2 — and, when `check_claims` is set, claims A.2 – A.9 —
/// on every subset of an `n`-process system, fanning the `2^n` masks out
/// over `sweep`.
///
/// The `(All, A)`-run is built **once** per sweep and shared immutably by
/// all worker threads; each trial builds one `(S, A)`-run against it on
/// its worker's reusable executor and compares, and every `(S, A)`-run
/// shares the `(All, A)`-run's initial-memory map. Tallies are merged in
/// mask order, so the report does not depend on `sweep.threads`.
///
/// # Errors
///
/// Returns [`RunError::UnsupportedSweep`] when `n > 16` (the enumeration
/// is exhaustive). Otherwise propagates the first [`RunError`] the
/// `(All, A)`-run or any `(S, A)`-run reports.
pub fn indist_all_subsets(
    alg: &dyn Algorithm,
    n: usize,
    toss: Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
    check_claims: bool,
    sweep: &Sweep,
) -> Result<SubsetSweepReport, RunError> {
    let chunk = indist_subset_range(alg, n, toss, cfg, check_claims, sweep, 0..1usize << n)?;
    Ok(report_from_subset_records(chunk.all_events, &chunk.records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s_run::build_s_run;
    use llsc_shmem::dsl::{done, ll, mv, sc, swap, toss};
    use llsc_shmem::{FnAlgorithm, Program, RegisterId, SeededTosses, Value, ZeroTosses};

    fn llsc_contenders() -> impl Algorithm {
        FnAlgorithm::new("llsc", |pid: ProcessId, _n| {
            fn attempt(pid: ProcessId) -> llsc_shmem::dsl::Step {
                ll(RegisterId(0), move |_| {
                    sc(RegisterId(0), Value::from(pid.0 as i64), move |ok, _| {
                        if ok {
                            done(Value::from(1i64))
                        } else {
                            attempt(pid)
                        }
                    })
                })
            }
            attempt(pid).into_program()
        })
    }

    #[test]
    fn sweep_report_is_thread_count_invariant() {
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let base = indist_all_subsets(
            &alg,
            5,
            Arc::new(ZeroTosses),
            &cfg,
            true,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(base.ok(), "{:?}", base.violations);
        assert_eq!(base.subsets, 32);
        assert!(base.comparisons > 0);
        assert!(base.claim_instances > 0);
        for threads in [2, 4, 8] {
            let par = indist_all_subsets(
                &alg,
                5,
                Arc::new(ZeroTosses),
                &cfg,
                true,
                &Sweep::with_threads(threads),
            )
            .unwrap();
            assert_eq!(par.subsets, base.subsets, "threads={threads}");
            assert_eq!(par.comparisons, base.comparisons, "threads={threads}");
            assert_eq!(par.claim_instances, base.claim_instances);
            assert_eq!(par.violations, base.violations);
        }
    }

    #[test]
    fn chunked_ranges_concatenate_to_the_full_sweep() {
        let alg = llsc_contenders();
        let cfg = AdversaryConfig::default();
        let full = indist_all_subsets(
            &alg,
            5,
            Arc::new(ZeroTosses),
            &cfg,
            true,
            &Sweep::sequential(),
        )
        .unwrap();
        // An uneven partition of the 32-mask space, executed out of order
        // and at a different thread count per chunk.
        let mut all_events = 0;
        let mut records = Vec::new();
        for (offset, count, threads) in [(20, 12, 3), (0, 7, 1), (7, 13, 2)] {
            let chunk = indist_subset_range(
                &alg,
                5,
                Arc::new(ZeroTosses),
                &cfg,
                true,
                &Sweep::with_threads(threads),
                offset..offset + count,
            )
            .unwrap();
            assert_eq!(chunk.records.len(), count);
            all_events = chunk.all_events;
            records.extend(chunk.records);
        }
        records.sort_by_key(|r| r.mask);
        let assembled = report_from_subset_records(all_events, &records);
        assert_eq!(assembled.subsets, full.subsets);
        assert_eq!(assembled.comparisons, full.comparisons);
        assert_eq!(assembled.claim_instances, full.claim_instances);
        assert_eq!(assembled.events, full.events);
        assert_eq!(assembled.violations, full.violations);
    }

    #[test]
    fn claims_can_be_skipped() {
        let alg = llsc_contenders();
        let report = indist_all_subsets(
            &alg,
            4,
            Arc::new(ZeroTosses),
            &AdversaryConfig::default(),
            false,
            &Sweep::sequential(),
        )
        .unwrap();
        assert!(report.ok());
        assert_eq!(report.claim_instances, 0);
        assert!(report.to_string().contains("16 subsets"));
    }

    /// Every round-1 shape (LL/SC contention, movers, swappers, instant
    /// terminators) plus coin tosses that pick the register.
    fn mixed_tossing() -> impl Algorithm {
        FnAlgorithm::new("mixed-toss", |pid: ProcessId, _n| {
            let prog: Box<dyn Program> = match pid.0 % 4 {
                0 => toss(move |c| {
                    ll(RegisterId(c % 2), move |_| {
                        sc(RegisterId(c % 2), Value::from(pid.0 as i64), |ok, _| {
                            done(Value::from(ok))
                        })
                    })
                })
                .into_program(),
                1 => mv(RegisterId(0), RegisterId(2), || done(Value::from(0i64))).into_program(),
                2 => swap(RegisterId(1), Value::from(7i64), |_| {
                    done(Value::from(0i64))
                })
                .into_program(),
                _ => done(Value::from(0i64)).into_program(),
            };
            prog
        })
    }

    #[test]
    fn records_match_a_fresh_construction_for_every_mask() {
        let alg = mixed_tossing();
        let cfg = AdversaryConfig::default();
        let n = 5;
        let assignments: [Arc<dyn TossAssignment>; 2] =
            [Arc::new(ZeroTosses), Arc::new(SeededTosses::new(9))];
        for toss in assignments {
            let all = build_all_run(&alg, n, toss.clone(), &cfg).unwrap();
            for threads in [1, 3] {
                let sweep = Sweep::with_threads(threads);
                let chunk =
                    indist_subset_range(&alg, n, toss.clone(), &cfg, true, &sweep, 0..1 << n)
                        .unwrap();
                for (mask, record) in chunk.records.iter().enumerate() {
                    let s: ProcSet = ProcessId::all(n)
                        .filter(|p| mask & (1 << p.0) != 0)
                        .collect();
                    let fresh = build_s_run(&alg, n, toss.clone(), &s, &all, &cfg).unwrap();
                    let lemma = check_indistinguishability(&all, &fresh);
                    let claims = check_appendix_claims(&all, &fresh);
                    assert_eq!(record.mask, mask);
                    assert_eq!(record.events, fresh.base.run.event_count(), "mask={mask}");
                    assert_eq!(
                        record.comparisons,
                        lemma.process_checks + lemma.register_checks,
                        "mask={mask}"
                    );
                    assert_eq!(record.claim_instances, claims.instances, "mask={mask}");
                    assert!(record.violations.is_empty(), "{:?}", record.violations);
                }
            }
        }
    }
}
