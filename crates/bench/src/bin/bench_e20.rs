//! E20: cross-backend chaos validation — degradation class and recovery
//! cost under injected faults, on the simulator and on real threads.
//!
//! Every trial seeds one [`ChaosPlan`] and tailors it to the
//! algorithm's capability arm (`llsc_bench::xcheck::chaos_arm`): the
//! hardened wakeup trio faces the memory-fault arm (spurious SC
//! failures + register corruption), the crash-recoverable trio faces
//! the crash-recovery arm (thread kills + spurious SC). The *same plan*
//! then runs on the deterministic simulator and on the CAS-based
//! hardware backend (one OS thread per process, crashes as real thread
//! deaths), and each run is classified with the shared degradation
//! vocabulary. The artifact records every row plus a `"divergence"`
//! array of (algorithm, intensity, seed) cells where the two backends
//! disagree on the class — expected occasionally, since the OS chooses
//! the hardware interleaving, but `silent-wrong` is never acceptable on
//! either backend.
//!
//! A trial that goes silently wrong, panics a thread, or exhausts its
//! respawn budget is recorded in the artifact's `"failures"` array and
//! the binary exits nonzero (`--respawn-budget 0` forces the
//! exhaustion path deliberately — CI uses it to prove the failure
//! machinery stays wired).
//!
//! On a single-core host the atomic-backend numbers measure
//! synchronization *overhead* (threads time-slice on one CPU), not
//! scaling — see the E20 entry in EXPERIMENTS.md.
//!
//! Usage: `bench_e20 [--out PATH] [--n 4] [--intensities 0,2,4]
//! [--trials 3] [--backend sim|atomic|both] [--respawn-budget N]`
//! (defaults: `BENCH_pr10.json`, n = 4, intensities {0, 2, 4},
//! 3 trials per cell, both backends, the arm's own budget).
//!
//! [`ChaosPlan`]: llsc_shmem::ChaosPlan

use llsc_bench::repro::run_case_with;
use llsc_bench::xcheck::{run_hw_chaos, BackendKind};
use llsc_bench::{Degradation, DEFAULT_MAX_EVENTS};
use llsc_shmem::{json, RecoverySpec};
use std::process::ExitCode;

/// Degradation classes that fail the bench outright, on either backend.
fn class_is_failure(class: &str) -> bool {
    matches!(class, "silent-wrong" | "panic" | "respawn-exhausted")
}

/// One classified trial row, from either backend.
struct Row {
    algorithm: String,
    arm: &'static str,
    backend: BackendKind,
    intensity: usize,
    seed: u64,
    class: String,
    max_ops: u64,
    max_dsm_rmrs: u64,
    spurious_sc: u64,
    corruptions: u64,
    crashes: u64,
    respawns: u64,
    detected: u64,
    outcome: String,
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_pr10.json");
    let mut n: usize = 4;
    let mut intensities: Vec<usize> = vec![0, 2, 4];
    let mut trials: u64 = 3;
    let mut backends = vec![BackendKind::Sim, BackendKind::Atomic];
    let mut respawn_budget: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--n" => {
                n = args
                    .next()
                    .expect("--n needs a value")
                    .parse()
                    .expect("--n must be a positive integer");
                assert!(n >= 2, "--n must be >= 2 (chaos needs a victim and a peer)");
            }
            "--intensities" => {
                intensities = args
                    .next()
                    .expect("--intensities needs a comma-separated list")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .expect("--intensities entries must be integers")
                    })
                    .collect();
                assert!(
                    !intensities.is_empty(),
                    "--intensities must list at least one"
                );
            }
            "--trials" => {
                trials = args
                    .next()
                    .expect("--trials needs a value")
                    .parse()
                    .expect("--trials must be a positive integer");
                assert!(trials >= 1, "--trials must be >= 1");
            }
            "--backend" => {
                let which = args.next().expect("--backend needs sim|atomic|both");
                backends = match which.as_str() {
                    "both" => vec![BackendKind::Sim, BackendKind::Atomic],
                    one => vec![BackendKind::parse(one)
                        .unwrap_or_else(|| panic!("unknown backend `{one}` (sim|atomic|both)"))],
                };
            }
            "--respawn-budget" => {
                respawn_budget = Some(
                    args.next()
                        .expect("--respawn-budget needs a value")
                        .parse()
                        .expect("--respawn-budget must be a non-negative integer"),
                );
            }
            other => {
                eprintln!(
                    "error: unknown flag `{other}`\nusage: bench_e20 [--out PATH] [--n 4] \
                     [--intensities 0,2,4] [--trials 3] [--backend sim|atomic|both] \
                     [--respawn-budget N]"
                );
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    // Class disagreements between the two backends for the same
    // (algorithm, intensity, seed) cell.
    let mut divergence: Vec<(String, usize, u64, String, String)> = Vec::new();
    let kind = Degradation::ChaosRecovery;
    for a in 0..kind.algorithm_count() {
        let alg = kind.algorithm(a, n);
        let arm = kind.arm(a).expect("every E20 algorithm has an arm");
        // The hardware side may tighten the respawn budget (0 forces the
        // escalation path); the simulator side keeps the arm's own
        // regime — its recovery semantics have no budget-0 encoding.
        let hw_recovery = kind.recovery(a, n).map(|r| RecoverySpec {
            delay: r.delay,
            budget: respawn_budget.unwrap_or(r.budget),
        });
        for &intensity in &intensities {
            for seed in 1..=trials {
                // The simulator side runs under the event budget, the
                // hardware side under the step cap and the trial deadline.
                let case = kind.case(a, n, intensity, seed, DEFAULT_MAX_EVENTS);
                let mut cell: Vec<(BackendKind, String)> = Vec::new();
                for &backend in &backends {
                    let row = match backend {
                        BackendKind::Sim => {
                            let run = run_case_with(&case, alg.as_ref());
                            let c = run.counters;
                            Row {
                                algorithm: alg.name().to_string(),
                                arm,
                                backend,
                                intensity,
                                seed,
                                class: run.class,
                                max_ops: c.max_ops,
                                max_dsm_rmrs: c.max_dsm_rmrs,
                                spurious_sc: c.spurious_sc,
                                corruptions: c.corruptions,
                                crashes: c.crashes,
                                respawns: c.recoveries,
                                detected: c.detected,
                                outcome: run.outcome_debug,
                            }
                        }
                        BackendKind::Atomic => {
                            let run = run_hw_chaos(
                                alg.as_ref(),
                                n,
                                seed,
                                &case.faults,
                                &case.crashes,
                                hw_recovery,
                                kind.max_steps(),
                            );
                            Row {
                                algorithm: alg.name().to_string(),
                                arm,
                                backend,
                                intensity,
                                seed,
                                class: run.class.to_string(),
                                max_ops: run.max_ops,
                                max_dsm_rmrs: run.max_dsm_rmrs,
                                spurious_sc: run.spurious_sc,
                                corruptions: run.corruptions,
                                crashes: run.crashes,
                                respawns: run.respawns,
                                detected: run.detected,
                                outcome: run.outcome_text,
                            }
                        }
                    };
                    print_row(&row);
                    cell.push((backend, row.class.clone()));
                    rows.push(row);
                }
                if let [(BackendKind::Sim, sim_class), (BackendKind::Atomic, hw_class)] = &cell[..]
                {
                    if sim_class != hw_class {
                        divergence.push((
                            alg.name().to_string(),
                            intensity,
                            seed,
                            sim_class.clone(),
                            hw_class.clone(),
                        ));
                    }
                }
            }
        }
    }

    let failures: Vec<&Row> = rows.iter().filter(|r| class_is_failure(&r.class)).collect();

    let mut json = String::from("{\"bench\":\"pr10\",\"n\":");
    json.push_str(&n.to_string());
    json.push_str(",\"trials\":");
    json.push_str(&trials.to_string());
    json.push_str(",\"cases\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"experiment\":\"e20\",\"algorithm\":\"{}\",\"arm\":\"{}\",\"backend\":\"{}\",\
             \"intensity\":{},\"seed\":{},\"class\":\"{}\",\"max_ops\":{},\"max_dsm_rmrs\":{},\
             \"spurious_sc\":{},\"corruptions\":{},\"crashes\":{},\"respawns\":{},\"detected\":{}}}",
            r.algorithm,
            r.arm,
            r.backend.name(),
            r.intensity,
            r.seed,
            r.class,
            r.max_ops,
            r.max_dsm_rmrs,
            r.spurious_sc,
            r.corruptions,
            r.crashes,
            r.respawns,
            r.detected
        ));
    }
    json.push_str("],\"divergence\":[");
    for (i, (alg, intensity, seed, sim_class, hw_class)) in divergence.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"algorithm\":\"{alg}\",\"intensity\":{intensity},\"seed\":{seed},\
             \"sim_class\":\"{sim_class}\",\"hw_class\":\"{hw_class}\"}}"
        ));
    }
    json.push_str("],\"failures\":[");
    for (i, r) in failures.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"algorithm\":\"{}\",\"backend\":\"{}\",\"intensity\":{},\"seed\":{},\
             \"class\":\"{}\",\"outcome\":",
            r.algorithm,
            r.backend.name(),
            r.intensity,
            r.seed,
            r.class
        ));
        json::push_string(&mut json, &r.outcome);
        json.push('}');
    }
    json.push_str("]}\n");
    llsc_shmem::atomic_write(std::path::Path::new(&out), json)
        .expect("cannot write the bench artifact");
    eprintln!("wrote {out}");
    if !divergence.is_empty() {
        eprintln!(
            "{} cell(s) diverged between backends (recorded in the artifact)",
            divergence.len()
        );
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} trial(s) failed", failures.len());
        ExitCode::FAILURE
    }
}

fn print_row(r: &Row) {
    println!(
        "e20 {alg:<34} arm={arm:<14} backend={backend:<6} intensity={i} seed={seed} \
         class={class:<17} max_ops={ops:<6} max_dsm={dsm:<6} sc_fails={sc} corruptions={co} \
         crashes={cr} respawns={re} detected={de}",
        alg = r.algorithm,
        arm = r.arm,
        backend = r.backend.name(),
        i = r.intensity,
        seed = r.seed,
        class = r.class,
        ops = r.max_ops,
        dsm = r.max_dsm_rmrs,
        sc = r.spurious_sc,
        co = r.corruptions,
        cr = r.crashes,
        re = r.respawns,
        de = r.detected
    );
}
