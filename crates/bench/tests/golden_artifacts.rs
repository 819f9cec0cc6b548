//! Golden-artifact regression tests.
//!
//! Determinism is the regression oracle: a refactor of the simulator,
//! the trial engine, or an experiment driver must not change a single
//! byte of experiment output. Each fixture under `tests/fixtures/` is a
//! `table_eN --json` artifact captured before the rework it pins (the
//! binaries are byte-identical at every `--threads`); these tests
//! regenerate the artifacts in-process with the same parameters and
//! assert byte equality at 1, 4, and 8 worker threads.
//!
//! * `e4`, `e13` pin the subset-sweep hot path;
//! * `e15`, `e16`, `e17`, `e19`, `e20` pin the degradation experiments
//!   at their table binaries' defaults;
//! * `eN-starved` pin the same experiments under `--max-events 40`,
//!   where trials fail: the failure payloads, contexts, and attached
//!   repro cases are part of the contract too.

use llsc_bench::table::Table;
use llsc_bench::{degradation_sweep, Degradation, DEFAULT_MAX_EVENTS};
use llsc_shmem::Sweep;

/// Asserts that `artifact(sweep)` equals `fixture` at 1, 4, and 8
/// threads.
fn assert_matches_fixture(name: &str, fixture: &str, artifact: impl Fn(&Sweep) -> String) {
    for threads in [1, 4, 8] {
        assert_eq!(
            artifact(&Sweep::with_threads(threads)),
            fixture,
            "{name} artifact diverged from its fixture at --threads {threads}"
        );
    }
}

/// The artifact of degradation experiment `kind` with its table
/// binary's grid.
fn degradation_artifact(kind: Degradation, max_events: u64, sweep: &Sweep) -> String {
    let (n, levels, reps): (usize, &[usize], usize) = match kind {
        Degradation::Crash | Degradation::Recovery | Degradation::ChaosRecovery => {
            (8, &[0, 1, 2, 4], 6)
        }
        Degradation::MemoryFault => (8, &[0, 1, 2, 4, 8], 6),
        Degradation::Chaos => (6, &[0, 1, 2, 4], 4),
    };
    let (exp, failures) = degradation_sweep(kind, n, levels, reps, max_events, sweep);
    Table::render_json_artifact_with_failures(&[&exp.table], &failures)
}

/// E4 with the `table_e4` parameters (`ns = [4, 6]`, seeds `0, 1, 42`).
#[test]
fn e4_artifact_matches_old_path_fixture() {
    assert_matches_fixture("E4", include_str!("fixtures/e4.json"), |sweep| {
        let exp = llsc_bench::e4_indistinguishability(&[4, 6], &[0, 1, 42], sweep);
        Table::render_json_artifact_with_failures(&[&exp.table], &[])
    });
}

/// E13 with the `table_e13` parameters (`ns = [4, 6]`, `ZeroTosses`).
#[test]
fn e13_artifact_matches_old_path_fixture() {
    assert_matches_fixture("E13", include_str!("fixtures/e13.json"), |sweep| {
        let exp = llsc_bench::e13_appendix_claims(&[4, 6], sweep);
        Table::render_json_artifact_with_failures(&[&exp.table], &[])
    });
}

/// E15 with the `table_e15` parameters (`n = 8`, `ks = [0, 1, 2, 4]`,
/// 6 reps).
#[test]
fn e15_artifact_matches_fixture() {
    assert_matches_fixture("E15", include_str!("fixtures/e15.json"), |sweep| {
        degradation_artifact(Degradation::Crash, DEFAULT_MAX_EVENTS, sweep)
    });
}

/// E16 with the `table_e16` parameters (`n = 8`, `fs = [0, 1, 2, 4, 8]`,
/// 6 reps).
#[test]
fn e16_artifact_matches_fixture() {
    assert_matches_fixture("E16", include_str!("fixtures/e16.json"), |sweep| {
        degradation_artifact(Degradation::MemoryFault, DEFAULT_MAX_EVENTS, sweep)
    });
}

/// E17 with the `table_e17` parameters (`n = 6`, intensities
/// `[0, 1, 2, 4]`, 4 reps), median shrunk sizes included.
#[test]
fn e17_artifact_matches_fixture() {
    assert_matches_fixture("E17", include_str!("fixtures/e17.json"), |sweep| {
        degradation_artifact(Degradation::Chaos, DEFAULT_MAX_EVENTS, sweep)
    });
}

/// E19 with the `table_e19` parameters (`n = 8`, `ks = [0, 1, 2, 4]`,
/// 6 reps), both RMR cost models' counters included.
#[test]
fn e19_artifact_matches_fixture() {
    assert_matches_fixture("E19", include_str!("fixtures/e19.json"), |sweep| {
        degradation_artifact(Degradation::Recovery, DEFAULT_MAX_EVENTS, sweep)
    });
}

/// E20 (simulator half) with the `table_e20` parameters (`n = 8`,
/// `intensities = [0, 1, 2, 4]`, 6 reps).
#[test]
fn e20_artifact_matches_fixture() {
    assert_matches_fixture("E20", include_str!("fixtures/e20.json"), |sweep| {
        degradation_artifact(Degradation::ChaosRecovery, DEFAULT_MAX_EVENTS, sweep)
    });
}

/// Every degradation experiment under `--max-events 40`: failure rows
/// with their payloads, contexts, and attached repro cases.
#[test]
fn starved_artifacts_match_fixtures() {
    use Degradation::*;
    for (kind, fixture) in [
        (Crash, include_str!("fixtures/e15-starved.json")),
        (MemoryFault, include_str!("fixtures/e16-starved.json")),
        (Chaos, include_str!("fixtures/e17-starved.json")),
        (Recovery, include_str!("fixtures/e19-starved.json")),
        (ChaosRecovery, include_str!("fixtures/e20-starved.json")),
    ] {
        assert_matches_fixture(&format!("{}-starved", kind.tag()), fixture, |sweep| {
            degradation_artifact(kind, 40, sweep)
        });
    }
}
