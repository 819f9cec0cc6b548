//! The `subset-sweep` workload: the E4+E13 grid of exhaustive subset
//! sweeps.

use crate::layers::{write_spans, LayerMetrics};
use crate::report::{fastest, run_passes, Ctx, Outcome, TRACE_ROUNDS};
use crate::trace::{layer_totals, Tracer};
use llsc_core::{
    build_all_run, build_s_run_with, check_appendix_claims, check_indistinguishability,
    indist_all_subsets, AdversaryConfig, ProcSet,
};
use llsc_shmem::{Algorithm, Executor, ProcessId, SeededTosses, Sweep, TossAssignment, ZeroTosses};
use llsc_wakeup::{correct_algorithms, randomized_algorithms};
use std::sync::Arc;

/// Processes of the subset sweeps: `2^12 = 4096` subsets per sweep.
const SUBSET_N: usize = 12;

/// Work counted for one `(algorithm, toss assignment)` cell of the
/// subset grid. Every field is deterministic in the cell's inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Totals {
    subsets: u64,
    comparisons: u64,
    claim_instances: u64,
    events: u64,
}

/// Zero-toss totals at `n = 12` with the appendix claims checked, per
/// algorithm. The seeded passes of the deterministic algorithms (which
/// never toss) repeat the comparisons and events.
const PINNED: [(&str, Totals); 6] = [
    ("counter-wakeup", pinned(192_514, 1_257_471, 98_460)),
    ("bitset-wakeup", pinned(192_514, 1_257_471, 98_460)),
    ("tournament-wakeup", pinned(275_763, 245_760, 56_116)),
    ("gossip-wakeup", pinned(489_207, 1_350_974, 120_927)),
    (
        "randomized-counter-wakeup",
        pinned(327_682, 1_306_623, 147_636),
    ),
    ("backoff-wakeup", pinned(192_514, 1_257_471, 143_595)),
];

const fn pinned(comparisons: u64, claim_instances: u64, events: u64) -> Totals {
    Totals {
        subsets: 1 << SUBSET_N,
        comparisons,
        claim_instances,
        events,
    }
}

/// Everything the subset sweeps need before the first trial.
struct SubsetSetup {
    algs: Vec<Box<dyn Algorithm>>,
    /// Zero tosses (claims checked), then two seeded assignments.
    tosses: Vec<Arc<dyn TossAssignment>>,
    cfg: AdversaryConfig,
    sweep: Sweep,
}

impl SubsetSetup {
    fn new(ctx: &Ctx) -> SubsetSetup {
        SubsetSetup {
            algs: correct_algorithms()
                .into_iter()
                .chain(randomized_algorithms())
                .collect(),
            tosses: vec![
                Arc::new(ZeroTosses),
                Arc::new(SeededTosses::new(ctx.derive(1))),
                Arc::new(SeededTosses::new(ctx.derive(2))),
            ],
            cfg: AdversaryConfig::default(),
            sweep: Sweep::with_threads(ctx.threads),
        }
    }

    fn cells(&self) -> usize {
        self.algs.len() * self.tosses.len()
    }
}

/// One cell's outcome from `indist_all_subsets`.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    alg: &'static str,
    toss: usize,
    totals: Totals,
    replayed: u64,
    violations: Vec<String>,
    error: Option<String>,
}

/// One pass over the grid: 18 `indist_all_subsets` sweeps.
fn sweep_pass(s: &SubsetSetup, sweep: &Sweep) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(s.cells());
    for alg in &s.algs {
        for (toss, assignment) in s.tosses.iter().enumerate() {
            let result = indist_all_subsets(
                alg.as_ref(),
                SUBSET_N,
                assignment.clone(),
                &s.cfg,
                toss == 0,
                sweep,
            );
            cells.push(match result {
                Ok(r) => Cell {
                    alg: alg.name(),
                    toss,
                    totals: Totals {
                        subsets: r.subsets as u64,
                        comparisons: r.comparisons as u64,
                        claim_instances: r.claim_instances as u64,
                        events: r.events,
                    },
                    replayed: r.replayed_events,
                    violations: r.violations,
                    error: None,
                },
                Err(e) => Cell {
                    alg: alg.name(),
                    toss,
                    totals: Totals::default(),
                    replayed: 0,
                    violations: Vec::new(),
                    error: Some(format!("{e:?}")),
                },
            });
        }
    }
    cells
}

/// Checks one pass against the pinned totals and the run's first pass;
/// returns the failed trials.
fn check_pass(cells: &[Cell], first: &[Cell], out: &mut Outcome) -> u64 {
    let subsets = 1u64 << SUBSET_N;
    let mut failed = 0;
    for (cell, first) in cells.iter().zip(first) {
        let at = format!("{} toss#{}", cell.alg, cell.toss);
        if let Some(e) = &cell.error {
            out.problem(format!("{at}: run error {e}"));
            failed += subsets;
            continue;
        }
        if !cell.violations.is_empty() {
            out.problem(format!(
                "{at}: {} violation(s), first {}",
                cell.violations.len(),
                cell.violations[0]
            ));
            failed += (cell.violations.len() as u64).min(subsets);
        }
        if cell.totals.subsets != subsets {
            out.problem(format!(
                "{at}: {} subsets, expected {subsets}",
                cell.totals.subsets
            ));
        }
        if cell != first {
            out.problem(format!("{at}: totals differ from the run's first pass"));
        }
        let Some(&(_, pinned)) = PINNED.iter().find(|(name, _)| *name == cell.alg) else {
            out.problem(format!("{at}: no pinned totals"));
            continue;
        };
        let deterministic = !matches!(cell.alg, "randomized-counter-wakeup" | "backoff-wakeup");
        let expected = match (cell.toss, deterministic) {
            (0, _) => Some(pinned),
            (_, true) => Some(Totals {
                claim_instances: 0,
                ..pinned
            }),
            (_, false) => None,
        };
        if let Some(expected) = expected {
            if cell.totals != expected {
                out.problem(format!(
                    "{at}: totals {:?}, pinned {expected:?}",
                    cell.totals
                ));
            }
        }
    }
    failed
}

/// Counts gathered by the benchmark's own per-mask composition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Composed {
    totals: Totals,
    all_events: u64,
    all_rounds: u64,
    s_events: u64,
    violations: u64,
}

/// The subset grid rebuilt call by call on one thread: `build_all_run`
/// once per cell, then `build_s_run_with`, `check_indistinguishability`
/// and (zero tosses only) `check_appendix_claims` for every mask, each
/// call inside its layer's span.
fn compose_subsets(s: &SubsetSetup, t: &mut Tracer) -> Result<Composed, String> {
    let mut c = Composed::default();
    for alg in &s.algs {
        let alg = alg.as_ref();
        for (toss, assignment) in s.tosses.iter().enumerate() {
            t.next_request();
            t.span("perfbench.compose", |t| -> Result<(), String> {
                let all = t
                    .span("core.all_run", |_| {
                        build_all_run(alg, SUBSET_N, assignment.clone(), &s.cfg)
                    })
                    .map_err(|e| format!("{} all-run: {e:?}", alg.name()))?;
                c.all_events += all.base.run.event_count();
                c.all_rounds += all.base.num_rounds() as u64;
                c.totals.events += all.base.run.event_count();
                let mut exec = Executor::new(alg, SUBSET_N, assignment.clone(), s.cfg.executor);
                for mask in 0..1usize << SUBSET_N {
                    let set: ProcSet = (0..SUBSET_N)
                        .filter(|i| mask & (1 << i) != 0)
                        .map(ProcessId)
                        .collect();
                    let srun = t
                        .span("core.s_run", |_| {
                            build_s_run_with(&mut exec, alg, &set, &all, &s.cfg)
                        })
                        .map_err(|e| format!("{} s-run {mask:#x}: {e:?}", alg.name()))?;
                    let lemma = t.span("core.indist", |_| check_indistinguishability(&all, &srun));
                    c.totals.subsets += 1;
                    c.totals.comparisons += (lemma.process_checks + lemma.register_checks) as u64;
                    c.violations += lemma.violations.len() as u64;
                    c.s_events += srun.base.run.event_count();
                    c.totals.events += srun.base.run.event_count();
                    if toss == 0 {
                        let claims = t.span("core.claims", |_| check_appendix_claims(&all, &srun));
                        c.totals.claim_instances += claims.instances as u64;
                        c.violations += claims.violations.len() as u64;
                    }
                }
                Ok(())
            })?;
        }
    }
    Ok(c)
}

fn sum_totals(cells: &[Cell]) -> Totals {
    cells.iter().fold(Totals::default(), |a, c| Totals {
        subsets: a.subsets + c.totals.subsets,
        comparisons: a.comparisons + c.totals.comparisons,
        claim_instances: a.claim_instances + c.totals.claim_instances,
        events: a.events + c.totals.events,
    })
}

/// The `subset-sweep` workload.
pub fn subset_sweep(ctx: &Ctx, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let s = SubsetSetup::new(ctx);
    if trace {
        return subset_sweep_traced(ctx, &s, out);
    }

    let mut first: Option<Vec<Cell>> = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut events = Vec::new();
    let p = run_passes(
        ctx.seconds,
        3,
        || SubsetSetup::new(ctx),
        |_| {
            let cells = sweep_pass(&s, &s.sweep);
            attempted += s.cells() as u64 * (1 << SUBSET_N);
            let reference = first.get_or_insert_with(|| cells.clone());
            failed += check_pass(&cells, reference, &mut out);
            events.push(sum_totals(&cells).events as f64);
        },
    );
    out.attempted = attempted;
    out.failed = failed;
    let trials = vec![(s.cells() << SUBSET_N) as f64; p.walls.len()];
    out.pass_metrics(&p, &trials, &events);
    let replayed: u64 = first.iter().flatten().map(|c| c.replayed).sum();
    out.detail(
        "events_per_pass",
        events[0],
        "count",
        format!("{replayed} replayed from Gray-code checkpoints"),
    );
    out
}

fn subset_sweep_traced(ctx: &Ctx, s: &SubsetSetup, mut out: Outcome) -> Outcome {
    let (wall_n, passes_n) = fastest(|| sweep_pass(s, &s.sweep));
    let (wall_1, passes_1) = fastest(|| sweep_pass(s, &Sweep::sequential()));
    let (wall_cu, untraced) = fastest(|| compose_subsets(s, &mut Tracer::off()));
    let mut tracer = Tracer::off();
    let (wall_ct, traced) = fastest(|| {
        tracer = Tracer::recording(s.cells() * (3 << SUBSET_N));
        compose_subsets(s, &mut tracer)
    });

    let cells = &passes_n[0];
    out.attempted = 4 * TRACE_ROUNDS as u64 * s.cells() as u64 * (1 << SUBSET_N);
    for pass in passes_n.iter().chain(&passes_1) {
        out.failed += check_pass(pass, cells, &mut out);
    }
    let sweep_totals = sum_totals(cells);
    let mut composed: Option<Composed> = None;
    for result in untraced.into_iter().chain(traced) {
        let c = match result {
            Ok(c) => c,
            Err(e) => {
                out.problem(format!("composition failed: {e}"));
                continue;
            }
        };
        if c.totals != sweep_totals {
            out.problem(format!(
                "composition totals {:?} differ from the sweep's {sweep_totals:?}",
                c.totals
            ));
        }
        if composed.is_some_and(|first| first != c) {
            out.problem(format!("composition {c:?} differs from the first one"));
        }
        if c.violations > 0 {
            out.problem(format!("composition found {} violation(s)", c.violations));
            out.failed += c.violations;
        }
        composed = Some(c);
    }
    let composed = composed.unwrap_or_default();
    write_spans(ctx, "subset-sweep", &tracer, &mut out);

    let layers = layer_totals(tracer.spans());
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let (all, srun, indist, claims) = (
        layer("core.all_run"),
        layer("core.s_run"),
        layer("core.indist"),
        layer("core.claims"),
    );
    let replayed: u64 = cells.iter().map(|c| c.replayed).sum();
    let m = LayerMetrics {
        s_run: (srun, composed.s_events),
        indist: (indist, composed.totals.comparisons),
        claims: (claims, composed.totals.claim_instances),
        all_run: (all, composed.all_events, composed.all_rounds),
        subsets_self_s: wall_1 - (all.self_s() + srun.self_s() + indist.self_s() + claims.self_s()),
        replayed_share: replayed as f64 / sweep_totals.events as f64,
        speedup: wall_1 / wall_n,
        threads: ctx.threads,
        overhead_s: wall_ct - wall_cu,
        ..LayerMetrics::default()
    };
    m.emit(&mut out);
    out.detail(
        "wall_nproc_s",
        wall_n,
        "s",
        format!("{} threads", ctx.threads),
    );
    out.detail("wall_1thread_s", wall_1, "s", String::new());
    out.detail("compose_untraced_s", wall_cu, "s", String::new());
    out.detail(
        "compose_traced_s",
        wall_ct,
        "s",
        format!("{} spans", tracer.spans().len()),
    );
    out
}
