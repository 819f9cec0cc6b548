//! Bench-smoke: wall-clock baselines and counted-work gates for the
//! subset-sweep hot path.
//!
//! Times E4 (Lemma 5.2 indistinguishability, exhaustive over subsets),
//! E6 (sampled randomized expectation), and E13 (appendix claims) with
//! [`llsc_bench::harness::measure_case`] — the exact workloads of the
//! corresponding `table_*` binaries — and writes a `BENCH_pr4.json`
//! artifact recording, per experiment: the id, min/mean wall-clock, and
//! (for the subset sweeps) simulated executor events per run and per
//! second. The E4 case also records the heap allocations per
//! `(S, A)`-run event, and the E6 case the heap allocations per sampled
//! `(All, A)`-run event, both counted by this binary's global allocator.
//!
//! Four deterministic gates make the binary exit nonzero:
//!
//! * no E4, E6 or E13 run may report a failure — a Lemma 5.2 or
//!   appendix-claim violation, or a sample whose winner beats the
//!   Theorem 6.1 bound;
//! * the E4 and E13 `events_per_run` must equal [`E4_EVENTS`] and
//!   [`E13_EVENTS`] (any drift means the simulated work changed);
//! * the `(S, A)`-run allocations per event must stay at or below
//!   [`S_RUN_ALLOCS_PER_EVENT_CEILING`];
//! * the sampled `(All, A)`-run allocations per event must stay at or
//!   below [`SAMPLED_ALL_RUN_ALLOCS_PER_EVENT_CEILING`].
//!
//! All are exact, so they hold on noisy shared CI runners where
//! wall-clock is trend-watching only.
//!
//! Usage: `bench_smoke [--out PATH] [--samples N] [--label NAME]`
//! (defaults: `BENCH_pr4.json`, 10 samples, label `pr4`). Single-threaded
//! sweeps throughout, so the numbers are comparable on a 1-core host.

use llsc_bench::harness::measure_case;
use llsc_core::{build_all_run, build_s_run_with, sample_expectation, AdversaryConfig, ProcSet};
use llsc_shmem::{Algorithm, Executor, ProcessId, SeededTosses, Sweep, TossAssignment, ZeroTosses};
use llsc_wakeup::{correct_algorithms, randomized_algorithms};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated events of one E4 run (`n ∈ {4, 6}`, seeds `{0, 1, 42}`).
const E4_EVENTS: u64 = 20_195;
/// Simulated events of one E13 run (`n ∈ {4, 6}`, zero tosses).
const E13_EVENTS: u64 = 6_468;
/// Ceiling on heap allocations per `(S, A)`-run event over the E4 grid,
/// set just above the measured 3.392.
const S_RUN_ALLOCS_PER_EVENT_CEILING: f64 = 3.5;
/// Ceiling on heap allocations per sampled `(All, A)`-run event (E6 at
/// `n = 256`), set about 5% above the measured 1.477 (2.657 while samples
/// recorded events, histories, snapshots and the `UP` history).
const SAMPLED_ALL_RUN_ALLOCS_PER_EVENT_CEILING: f64 = 1.55;

/// The system allocator plus a counter of allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments, so
// this allocator upholds the `GlobalAlloc` contract exactly as `System`
// does; the counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Case {
    id: &'static str,
    min_ms: f64,
    mean_ms: f64,
    /// Total simulated executor events of one run, when the experiment
    /// reports them (the subset sweeps do; E6 rows do not).
    events: Option<u64>,
    /// Heap allocations per simulated event of the case's hot path, and
    /// the JSON key it is written under (E4 and E6 only).
    allocs_per_event: Option<(&'static str, f64)>,
}

/// Heap allocations per `(S, A)`-run event over the E4 grid, built the way
/// the subset sweeps build them: one reused executor per `(All, A)`-run,
/// every finished run recycled into it. Only `build_s_run_with` is
/// counted.
fn s_run_allocs_per_event() -> f64 {
    let cfg = AdversaryConfig::default();
    let (mut allocs, mut events) = (0u64, 0u64);
    let algs: Vec<Box<dyn Algorithm>> = correct_algorithms()
        .into_iter()
        .chain(randomized_algorithms())
        .collect();
    for alg in &algs {
        let alg = alg.as_ref();
        for n in [4, 6] {
            for seed in [0, 1, 42] {
                let toss: Arc<dyn TossAssignment> = if seed == 0 {
                    Arc::new(ZeroTosses)
                } else {
                    Arc::new(SeededTosses::new(seed))
                };
                let all = build_all_run(alg, n, toss.clone(), &cfg).expect("E4 all-run");
                let mut exec = Executor::new(alg, n, toss, cfg.executor);
                for mask in 0..1usize << n {
                    let s: ProcSet = ProcessId::all(n)
                        .filter(|p| mask & (1 << p.0) != 0)
                        .collect();
                    let before = ALLOCS.load(Ordering::Relaxed);
                    let srun = build_s_run_with(&mut exec, alg, &s, &all, &cfg).expect("E4 s-run");
                    allocs += ALLOCS.load(Ordering::Relaxed) - before;
                    events += srun.base.run.event_count();
                    exec.recycle_run(srun.base.run);
                }
            }
        }
    }
    allocs as f64 / events as f64
}

/// Heap allocations per sampled `(All, A)`-run event: every randomized
/// algorithm at `n = 256` under E6's configuration, ten seeds each. Only
/// `sample_expectation` is counted; the events come from an uncounted
/// build of the same run.
fn sampled_all_run_allocs_per_event() -> f64 {
    const N: usize = 256;
    let cfg = AdversaryConfig {
        max_rounds: 10_000,
        ..AdversaryConfig::default()
    };
    let (mut allocs, mut events) = (0u64, 0u64);
    for alg in randomized_algorithms() {
        let alg = alg.as_ref();
        for seed in 0..10 {
            let before = ALLOCS.load(Ordering::Relaxed);
            sample_expectation(alg, N, seed, &cfg).expect("E6 sample");
            allocs += ALLOCS.load(Ordering::Relaxed) - before;
            let all =
                build_all_run(alg, N, Arc::new(SeededTosses::new(seed)), &cfg).expect("E6 all-run");
            events += all.base.run.event_count();
        }
    }
    allocs as f64 / events as f64
}

fn main() {
    let mut out = String::from("BENCH_pr4.json");
    let mut label = String::from("pr4");
    let mut samples: u32 = 10;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--label" => label = args.next().expect("--label needs a name"),
            "--samples" => {
                samples = args
                    .next()
                    .expect("--samples needs a value")
                    .parse()
                    .expect("--samples must be a positive integer");
                assert!(samples > 0, "--samples must be >= 1");
            }
            other => {
                eprintln!(
                    "error: unknown flag `{other}`\nusage: bench_smoke [--out PATH] [--samples N] [--label NAME]"
                );
                std::process::exit(2);
            }
        }
    }

    let sweep = Sweep::sequential();
    let mut cases = Vec::new();

    let e4 = llsc_bench::e4_indistinguishability(&[4, 6], &[0, 1, 42], &sweep);
    let e4_events: u64 = e4.rows.iter().map(|r| r.events).sum();
    let allocs_per_event = s_run_allocs_per_event();
    let (min, mean) = measure_case(samples, || {
        llsc_bench::e4_indistinguishability(&[4, 6], &[0, 1, 42], &sweep)
    });
    println!(
        "e4  min {min:>10.3?}  mean {mean:>10.3?}  ({e4_events} events/run, \
         {allocs_per_event:.3} s-run allocs/event)"
    );
    cases.push(Case {
        id: "e4",
        min_ms: min.as_secs_f64() * 1e3,
        mean_ms: mean.as_secs_f64() * 1e3,
        events: Some(e4_events),
        allocs_per_event: Some(("s_run_allocs_per_event", allocs_per_event)),
    });

    let e6 = llsc_bench::e6_randomized_expectation(&[4, 16, 64], 30, &sweep);
    let sampled_allocs_per_event = sampled_all_run_allocs_per_event();
    let (min, mean) = measure_case(samples, || {
        llsc_bench::e6_randomized_expectation(&[4, 16, 64], 30, &sweep)
    });
    println!(
        "e6  min {min:>10.3?}  mean {mean:>10.3?}  \
         ({sampled_allocs_per_event:.3} sampled all-run allocs/event)"
    );
    cases.push(Case {
        id: "e6",
        min_ms: min.as_secs_f64() * 1e3,
        mean_ms: mean.as_secs_f64() * 1e3,
        events: None,
        allocs_per_event: Some(("sampled_all_run_allocs_per_event", sampled_allocs_per_event)),
    });

    let e13 = llsc_bench::e13_appendix_claims(&[4, 6], &sweep);
    let e13_events: u64 = e13.rows.iter().map(|r| r.events).sum();
    let (min, mean) = measure_case(samples, || llsc_bench::e13_appendix_claims(&[4, 6], &sweep));
    println!("e13 min {min:>10.3?}  mean {mean:>10.3?}  ({e13_events} events/run)");
    cases.push(Case {
        id: "e13",
        min_ms: min.as_secs_f64() * 1e3,
        mean_ms: mean.as_secs_f64() * 1e3,
        events: Some(e13_events),
        allocs_per_event: None,
    });

    let mut json = format!("{{\"bench\":\"{label}\",\"samples\":");
    json.push_str(&samples.to_string());
    json.push_str(",\"cases\":[");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"experiment\":\"{}\",\"wall_ms_min\":{:.3},\"wall_ms_mean\":{:.3}",
            c.id, c.min_ms, c.mean_ms
        ));
        if let Some(events) = c.events {
            let eps = events as f64 / (c.min_ms / 1e3);
            json.push_str(&format!(
                ",\"events_per_run\":{events},\"events_per_sec\":{:.0}",
                eps
            ));
        }
        if let Some((key, a)) = c.allocs_per_event {
            json.push_str(&format!(",\"{key}\":{a:.3}"));
        }
        json.push('}');
    }
    json.push_str("]}\n");
    llsc_shmem::atomic_write(std::path::Path::new(&out), json)
        .expect("cannot write the bench artifact");
    eprintln!("wrote {out}");

    let mut gate_ok = true;
    for f in e4.failures.iter().chain(&e6.failures).chain(&e13.failures) {
        eprintln!("check gate FAILED: {} ({})", f.payload, f.context);
        gate_ok = false;
    }
    for (id, events, pinned) in [
        ("e4", e4_events, E4_EVENTS),
        ("e13", e13_events, E13_EVENTS),
    ] {
        if events != pinned {
            eprintln!("events gate FAILED for {id}: {events} events per run, pinned {pinned}");
            gate_ok = false;
        }
    }
    for (what, measured, ceiling) in [
        (
            "(S, A)-run",
            allocs_per_event,
            S_RUN_ALLOCS_PER_EVENT_CEILING,
        ),
        (
            "sampled (All, A)-run",
            sampled_allocs_per_event,
            SAMPLED_ALL_RUN_ALLOCS_PER_EVENT_CEILING,
        ),
    ] {
        if measured > ceiling {
            eprintln!(
                "allocation gate FAILED: {measured:.3} allocations per {what} event, \
                 ceiling {ceiling}"
            );
            gate_ok = false;
        }
    }
    if !gate_ok {
        std::process::exit(1);
    }
}
