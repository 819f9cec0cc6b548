//! The harness's two load-bearing guarantees, checked end to end:
//!
//! 1. **Thread-count invariance** — every experiment's rendered table and
//!    JSON artifact are byte-identical whether the sweep runs on 1, 4, or
//!    8 worker threads. The committed `EXPERIMENTS.md` tables depend on
//!    this: `--threads` may only change wall-clock time, never output.
//! 2. **JSON round-trip** — the `{"tables":[…]}` artifact parses back to
//!    exactly the tables that produced it.
//!
//! The binary-level test drives a real `table_*` executable (the fastest
//! one) through its command line, comparing stdout and artifact bytes
//! across thread counts.

use llsc_bench::harness::Sweep;
use llsc_bench::table::Table;
use std::process::Command;

/// Small-instance experiment calls that together cover every sweep shape
/// the harness uses: per-config fan-out (E1), per-(alg, n) fan-out (E5),
/// per-seed fan-out (E6), nested subset fan-out (E4, E13), and
/// per-schedule fan-out (E14). The paper's checks that E4, E6 and E13
/// fold into failures (Lemma 5.2, Theorem 6.1, claims A.2–A.9) must all
/// hold.
fn fast_experiments(sweep: &Sweep) -> Vec<Table> {
    let e4 = llsc_bench::e4_indistinguishability(&[4, 5], &[1, 2], sweep);
    let e6 = llsc_bench::e6_randomized_expectation(&[4, 8], 8, sweep);
    let e13 = llsc_bench::e13_appendix_claims(&[4, 5], sweep);
    for (id, failures) in [
        ("E4", &e4.failures),
        ("E6", &e6.failures),
        ("E13", &e13.failures),
    ] {
        assert!(failures.is_empty(), "{id} reports failures: {failures:?}");
    }
    vec![
        llsc_bench::e1_secretive_schedules(&[4, 16], 4, sweep).table,
        e4.table,
        llsc_bench::e5_wakeup_lower_bound(&[4, 16], sweep).table,
        e6.table,
        e13.table,
        llsc_bench::e14_stress_portfolio(5, sweep).table,
    ]
}

#[test]
fn experiments_are_thread_count_invariant() {
    let baseline = fast_experiments(&Sweep::sequential());
    for threads in [4, 8] {
        let tables = fast_experiments(&Sweep::with_threads(threads));
        assert_eq!(tables.len(), baseline.len());
        for (got, want) in tables.iter().zip(&baseline) {
            assert_eq!(
                got.render(),
                want.render(),
                "table `{}` differs at {threads} threads",
                want.title()
            );
            assert_eq!(
                got.render_json(),
                want.render_json(),
                "JSON for `{}` differs at {threads} threads",
                want.title()
            );
        }
    }
}

#[test]
fn json_artifact_round_trips() {
    let tables = fast_experiments(&Sweep::with_threads(2));
    let refs: Vec<&Table> = tables.iter().collect();
    let artifact = Table::render_json_artifact(&refs);
    let parsed = Table::from_json_artifact(&artifact).expect("artifact parses");
    assert_eq!(parsed.len(), tables.len());
    for (got, want) in parsed.iter().zip(&tables) {
        assert_eq!(got.title(), want.title());
        assert_eq!(got.headers(), want.headers());
        assert_eq!(got.rows(), want.rows());
        assert_eq!(got.render(), want.render());
    }
    // Re-rendering the parsed tables reproduces the artifact byte for byte.
    let reparsed_refs: Vec<&Table> = parsed.iter().collect();
    assert_eq!(Table::render_json_artifact(&reparsed_refs), artifact);
}

#[test]
fn binary_output_is_thread_count_invariant() {
    let exe = env!("CARGO_BIN_EXE_table_e13");
    let dir = std::env::temp_dir();
    let mut outputs = Vec::new();
    for threads in ["1", "4", "8"] {
        let json_path = dir.join(format!("llsc_e13_t{threads}.json"));
        let out = Command::new(exe)
            .args(["--threads", threads, "--json"])
            .arg(&json_path)
            .output()
            .expect("table_e13 runs");
        assert!(out.status.success(), "exit status at --threads {threads}");
        let artifact = std::fs::read(&json_path).expect("artifact written");
        let _ = std::fs::remove_file(&json_path);
        outputs.push((out.stdout, artifact));
    }
    let (stdout_1, artifact_1) = &outputs[0];
    for (stdout_t, artifact_t) in &outputs[1..] {
        assert_eq!(stdout_t, stdout_1, "stdout differs across thread counts");
        assert_eq!(
            artifact_t, artifact_1,
            "JSON artifact differs across thread counts"
        );
    }
    // And the artifact is well-formed.
    let text = String::from_utf8(artifact_1.clone()).expect("utf-8 artifact");
    let tables = Table::from_json_artifact(&text).expect("artifact parses");
    assert_eq!(tables.len(), 1);
}
