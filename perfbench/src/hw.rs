//! The real-thread workloads: `hw-trials` and `hw-llsc-loop`.

use crate::alloc;
use crate::layers::{write_spans, LayerMetrics};
use crate::report::{fastest, run_passes, Ctx, Outcome};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use llsc_atomics::{run_threads_watchdog, HwMemory, HwRun};
use llsc_objects::FetchIncrement;
use llsc_shmem::dsl::{done, ll, sc, Step};
use llsc_shmem::{
    run_sequential, Algorithm, ExecutionBackend, FnAlgorithm, ProcessId, RegisterId, SeededTosses,
    SimBackend, Value, ZeroTosses,
};
use llsc_universal::{DirectLlSc, ImplAlgorithm};
use llsc_wakeup::CounterWakeup;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Processes per trial; the driver adds its watchdog thread.
const HW_N: usize = 2;
/// Per-process action budget, as in the cross-validation harness.
const MAX_STEPS: u64 = 1_000_000;
/// Per-trial wall-clock deadline, as in the cross-validation harness.
const DEADLINE: Duration = Duration::from_secs(60);
/// LL/SC increments each process of `hw-llsc-loop` completes.
const LOOP_K: u32 = 8000;
/// The register the loop increments.
const COUNTER: RegisterId = RegisterId(0);
/// Null-program runs that fix the driver floor (p99 has 20 beyond).
const FLOOR_TRIALS: usize = 2000;
/// Problems recorded in full; later ones are only counted.
const MAX_PROBLEMS: usize = 5;

/// What a correct trial returns.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Wakeup: exactly one process returns 1, the others 0.
    OneWinner,
    /// Fetch&increment: the responses are a permutation of `0..n`.
    Permutation,
    /// Every process returns `LOOP_K` and the counter ends at `n·LOOP_K`.
    Total,
}

/// One algorithm a workload runs, with its expected outcome and the ops
/// of its contention-free run.
struct Case<'a> {
    alg: &'a dyn Algorithm,
    expect: Expect,
    minimal_ops: u64,
}

impl<'a> Case<'a> {
    fn new(alg: &'a dyn Algorithm, expect: Expect) -> Case<'a> {
        let backend = SimBackend::for_algorithm(alg, HW_N, Arc::new(ZeroTosses));
        let minimal_ops = run_sequential(&backend, alg, MAX_STEPS)
            .map_or(0, |run| run.per_process_ops.iter().sum());
        Case {
            alg,
            expect,
            minimal_ops,
        }
    }
}

/// The benchmark's own LL/SC loop: `k` increments of register 0, each an
/// LL followed by an SC that is retried until it succeeds.
fn increment_loop(done_so_far: u32) -> Step {
    if done_so_far == LOOP_K {
        return done(Value::from(i64::from(LOOP_K)));
    }
    ll(COUNTER, move |v| {
        let next = v.as_int().unwrap_or(i128::MIN) + 1;
        sc(COUNTER, Value::from(next), move |ok, _| {
            increment_loop(done_so_far + u32::from(ok))
        })
    })
}

fn llsc_loop() -> impl Algorithm {
    FnAlgorithm::new("perfbench-llsc-loop", |_pid: ProcessId, _n| {
        increment_loop(0).into_program()
    })
    .with_initial_memory(vec![(COUNTER, Value::from(0i64))])
}

fn null_program() -> impl Algorithm {
    FnAlgorithm::new("perfbench-null", |_pid: ProcessId, _n| {
        done(Value::Unit).into_program()
    })
}

/// Checks a finished trial; returns its shared ops.
fn check(expect: Expect, run: &HwRun, mem: &HwMemory) -> Result<u64, String> {
    let ints: Vec<Option<i128>> = run.responses().iter().map(Value::as_int).collect();
    let ok = match expect {
        Expect::OneWinner => {
            ints.iter().filter(|v| **v == Some(1)).count() == 1
                && ints.iter().all(|v| matches!(v, Some(0) | Some(1)))
        }
        Expect::Permutation => {
            let mut got: Vec<i128> = ints.iter().flatten().copied().collect();
            got.sort_unstable();
            got == (0..HW_N as i128).collect::<Vec<_>>()
        }
        Expect::Total => {
            let total = i128::from(LOOP_K) * HW_N as i128;
            ints.iter().all(|v| *v == Some(i128::from(LOOP_K)))
                && mem.peek(COUNTER).as_int() == Some(total)
        }
    };
    if ok {
        Ok(run.results.iter().map(|r| r.ops).sum())
    } else {
        Err(format!(
            "{expect:?}: responses {ints:?}, counter {:?}",
            mem.peek(COUNTER)
        ))
    }
}

/// One trial: `HwMemory::for_algorithm` plus `run_threads_watchdog`, the
/// unit `trial_*` latencies time. Returns the latency in seconds and the
/// checked shared-op count.
fn trial(case: &Case, seed: u64, t: &mut Tracer) -> (f64, Result<u64, String>) {
    t.next_request();
    let start = Instant::now();
    let (mem, run) = t.span("perfbench.trial", |t| {
        let mem = t.span("atomics.memory", |_| {
            HwMemory::for_algorithm(case.alg, HW_N, Arc::new(SeededTosses::new(seed)))
        });
        mem.set_recording(false);
        let run = t.span("atomics.driver", |_| {
            run_threads_watchdog(case.alg, &mem, MAX_STEPS, DEADLINE)
        });
        (mem, run)
    });
    let latency = start.elapsed().as_secs_f64();
    let checked = run
        .map_err(|e| format!("{e:?}"))
        .and_then(|run| check(case.expect, &run, &mem));
    (latency, checked)
}

/// Tallies of a closed loop of trials.
#[derive(Debug, Default)]
struct Tally {
    latencies: Vec<f64>,
    ops: u64,
    minimal_ops: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, case: &Case, (latency, checked): (f64, Result<u64, String>)) {
        self.latencies.push(latency);
        match checked {
            Ok(ops) => {
                self.ops += ops;
                self.minimal_ops += case.minimal_ops;
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < MAX_PROBLEMS {
                    self.errors.push(e);
                }
            }
        }
    }

    fn report_into(&self, out: &mut Outcome) {
        out.attempted += self.latencies.len() as u64;
        out.failed += self.failed;
        for e in &self.errors {
            out.problem(format!("trial failed: {e}"));
        }
    }
}

/// Runs `trials` trials, cycling through `cases`; the trial index seeds
/// each trial's toss assignment.
fn run_trials(
    ctx: &Ctx,
    cases: &[Case],
    first: usize,
    trials: usize,
    t: &mut Tracer,
    tally: &mut Tally,
) {
    for i in first..first + trials {
        let case = &cases[i % cases.len()];
        tally.record(case, trial(case, ctx.derive(1000 + i as u64), t));
    }
}

/// The null-program floor: `run_threads_watchdog` alone, p50 and p99 in
/// microseconds, plus allocations per run.
fn driver_floor(ctx: &Ctx, out: &mut Outcome) -> (f64, f64, f64) {
    let null = null_program();
    let mut latencies = Vec::with_capacity(FLOOR_TRIALS);
    let mut allocs = 0;
    for i in 0..FLOOR_TRIALS {
        let mem = HwMemory::for_algorithm(
            &null,
            HW_N,
            Arc::new(SeededTosses::new(ctx.derive(i as u64))),
        );
        mem.set_recording(false);
        let before = alloc::count();
        let start = Instant::now();
        let run = run_threads_watchdog(&null, &mem, MAX_STEPS, DEADLINE);
        latencies.push(start.elapsed().as_secs_f64());
        allocs += alloc::count() - before;
        if let Err(e) = run {
            out.problem(format!("null program failed: {e:?}"));
            out.failed += 1;
        }
    }
    out.attempted += FLOOR_TRIALS as u64;
    (
        median(&latencies) * 1e6,
        percentile(&latencies, 99.0) * 1e6,
        allocs as f64 / FLOOR_TRIALS as f64,
    )
}

/// A closed loop of short trials: `CounterWakeup` and `DirectLlSc`
/// fetch&increment, alternating.
pub fn hw_trials(ctx: &Ctx, trace: bool) -> Outcome {
    let setup = || {
        let spec = Arc::new(FetchIncrement::new(32));
        (
            DirectLlSc::new(spec),
            vec![FetchIncrement::op(); HW_N],
            CounterWakeup,
        )
    };
    let (imp, ops, wakeup) = setup();
    let fetch_inc = ImplAlgorithm::new(&imp, &ops);
    let cases = [
        Case::new(&wakeup, Expect::OneWinner),
        Case::new(&fetch_inc, Expect::Permutation),
    ];
    let loops = Loops {
        per_pass: 1000,
        traced: 2000,
    };
    run_workload(ctx, trace, setup, &cases, loops, "hw-trials")
}

/// A closed loop of long trials of the benchmark's LL/SC increment loop.
pub fn hw_llsc_loop(ctx: &Ctx, trace: bool) -> Outcome {
    let alg = llsc_loop();
    let cases = [Case::new(&alg, Expect::Total)];
    let loops = Loops {
        per_pass: 20,
        traced: 200,
    };
    run_workload(ctx, trace, llsc_loop, &cases, loops, "hw-llsc-loop")
}

/// Trial counts of a hardware workload.
#[derive(Clone, Copy, Debug)]
struct Loops {
    /// Trials per pass of the untraced run.
    per_pass: usize,
    /// Trials of each loop of the traced run.
    traced: usize,
}

fn run_workload<S>(
    ctx: &Ctx,
    trace: bool,
    setup: impl FnMut() -> S,
    cases: &[Case],
    loops: Loops,
    name: &str,
) -> Outcome {
    let mut out = Outcome::default();
    if trace {
        return traced(ctx, cases, loops.traced, name, out);
    }
    let mut tally = Tally::default();
    let mut off = Tracer::off();
    let mut ops = Vec::new();
    let p = run_passes(ctx.seconds, 3, setup, |pass| {
        let before = tally.ops;
        let first = pass * loops.per_pass;
        run_trials(ctx, cases, first, loops.per_pass, &mut off, &mut tally);
        ops.push((tally.ops - before) as f64);
    });
    tally.report_into(&mut out);
    out.pass_metrics(&p, &vec![loops.per_pass as f64; p.walls.len()], &ops);
    let us: Vec<f64> = tally.latencies.iter().map(|s| s * 1e6).collect();
    out.detail(
        "trial_p50_us",
        median(&us),
        "us",
        format!("median of {} trials", us.len()),
    );
    out.tail("trial_us", &us, "us");
    out.detail(
        "ops_per_trial",
        tally.ops as f64 / tally.latencies.len() as f64,
        "count",
        format!(
            "{} minimal",
            tally.minimal_ops as f64 / tally.latencies.len() as f64
        ),
    );
    out
}

fn traced(ctx: &Ctx, cases: &[Case], trials: usize, name: &str, mut out: Outcome) -> Outcome {
    let (wall_untraced, untraced) = fastest(|| {
        let mut tally = Tally::default();
        run_trials(ctx, cases, 0, trials, &mut Tracer::off(), &mut tally);
        tally
    });
    let (floor_p50, floor_p99, allocs_per_run) = driver_floor(ctx, &mut out);
    let mut tracer = Tracer::off();
    let (wall_traced, traced) = fastest(|| {
        tracer = Tracer::recording(4 * trials);
        let mut tally = Tally::default();
        run_trials(ctx, cases, 0, trials, &mut tracer, &mut tally);
        tally
    });
    for tally in untraced.iter().chain(&traced) {
        tally.report_into(&mut out);
        if (tally.latencies.len(), tally.minimal_ops) != (trials, untraced[0].minimal_ops) {
            out.problem("traced and untraced loops completed different trials".to_string());
        }
    }
    let untraced = &untraced[0];
    write_spans(ctx, name, &tracer, &mut out);

    let us: Vec<f64> = untraced.latencies.iter().map(|s| s * 1e6).collect();
    let trial_p50 = median(&us);
    let ops_per_trial = untraced.ops as f64 / us.len() as f64;
    let m = LayerMetrics {
        trial_us: (trial_p50, tail(&us).map_or(f64::NAN, |t| t.value)),
        driver_floor_us: (floor_p50, floor_p99),
        driver_share: floor_p50 / trial_p50,
        driver_allocs_per_run: allocs_per_run,
        memory_setup_us: median(&tracer.durations("atomics.memory")) * 1e-3,
        memory_ns_per_op: (trial_p50 - floor_p50) * 1e3 / ops_per_trial,
        memory_retry_ratio: 1.0 - untraced.minimal_ops as f64 / untraced.ops as f64,
        overhead_s: wall_traced - wall_untraced,
        ..LayerMetrics::default()
    };
    m.emit(&mut out);
    out.tail("trial_us", &us, "us");
    out.detail(
        "wall_untraced_s",
        wall_untraced,
        "s",
        format!("{trials} trials"),
    );
    out.detail(
        "wall_traced_s",
        wall_traced,
        "s",
        format!("{} spans", tracer.spans().len()),
    );
    out.detail("ops_per_trial", ops_per_trial, "count", String::new());
    out
}
