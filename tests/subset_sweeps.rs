//! The exhaustive subset sweep against its definition.
//!
//! `indist_subset_range` builds each mask's `(S, A)`-run on a per-worker
//! executor that is reset and handed its previous run back between masks.
//! These tests pin that reuse to the plain construction: for every
//! shipped wakeup algorithm at `n ≤ 6`, under zero tosses and two seeded
//! assignments, every record the sweep returns equals the one a fresh
//! `build_s_run` plus the Lemma 5.2 and appendix-claim checks give for
//! the same mask — at 1, 2 and 4 threads and over uneven range
//! partitions.

use llsc_lowerbound::core::{
    build_all_run, build_s_run, check_appendix_claims, check_indistinguishability,
    indist_subset_range, AdversaryConfig, ProcSet, SubsetTrialRecord,
};
use llsc_lowerbound::shmem::{
    Algorithm, ProcessId, SeededTosses, Sweep, TossAssignment, ZeroTosses,
};
use llsc_lowerbound::wakeup::{correct_algorithms, randomized_algorithms};
use std::sync::Arc;

fn shipped() -> Vec<Box<dyn Algorithm>> {
    correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .collect()
}

fn assignments() -> Vec<Arc<dyn TossAssignment>> {
    vec![
        Arc::new(ZeroTosses),
        Arc::new(SeededTosses::new(3)),
        Arc::new(SeededTosses::new(0x5eed)),
    ]
}

/// The records of a sweep over `0..2^n`, built mask by mask from scratch.
fn fresh_records(
    alg: &dyn Algorithm,
    n: usize,
    toss: &Arc<dyn TossAssignment>,
    cfg: &AdversaryConfig,
) -> Vec<SubsetTrialRecord> {
    let all = build_all_run(alg, n, toss.clone(), cfg).unwrap();
    (0..1usize << n)
        .map(|mask| {
            let s: ProcSet = ProcessId::all(n)
                .filter(|p| mask & (1 << p.0) != 0)
                .collect();
            let srun = build_s_run(alg, n, toss.clone(), &s, &all, cfg).unwrap();
            let lemma = check_indistinguishability(&all, &srun);
            let claims = check_appendix_claims(&all, &srun);
            let violations = lemma
                .violations
                .iter()
                .map(ToString::to_string)
                .chain(claims.violations.iter().map(ToString::to_string))
                .map(|v| format!("S={s:?}: {v}"))
                .collect();
            SubsetTrialRecord {
                mask,
                comparisons: lemma.process_checks + lemma.register_checks,
                claim_instances: claims.instances,
                events: srun.base.run.event_count(),
                violations,
            }
        })
        .collect()
}

/// Uneven partitions of `0..total`: a short head, a single mask, and two
/// unequal tails.
fn partition(total: usize) -> Vec<std::ops::Range<usize>> {
    let mut cuts = vec![0, total / 7, total / 7 + 1, total / 2 + 1, total];
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1].min(total)).collect()
}

#[test]
fn sweep_records_equal_fresh_per_mask_construction() {
    let cfg = AdversaryConfig::default();
    for alg in shipped() {
        let alg = alg.as_ref();
        for n in 1..=6 {
            for (t, toss) in assignments().iter().enumerate() {
                let at = format!("{} n={n} toss#{t}", alg.name());
                let expected = fresh_records(alg, n, toss, &cfg);
                for threads in [1, 2, 4] {
                    let chunk = indist_subset_range(
                        alg,
                        n,
                        toss.clone(),
                        &cfg,
                        true,
                        &Sweep::with_threads(threads),
                        0..1 << n,
                    )
                    .unwrap();
                    assert_eq!(chunk.records, expected, "{at} threads={threads}");
                }
                let mut pieces = Vec::new();
                for (i, range) in partition(1 << n).into_iter().enumerate() {
                    let sweep = Sweep::with_threads(1 + i % 3);
                    let chunk =
                        indist_subset_range(alg, n, toss.clone(), &cfg, true, &sweep, range)
                            .unwrap();
                    pieces.extend(chunk.records);
                }
                assert_eq!(pieces, expected, "{at} partitioned");
            }
        }
    }
}
