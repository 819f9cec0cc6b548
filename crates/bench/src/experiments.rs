//! The experiment implementations behind the `table_*` binaries.
//!
//! Every function runs its independent trials on the shared [`Sweep`]
//! engine and returns the rendered table plus the typed rows, so tests
//! (and `EXPERIMENTS.md` updates) can consume the numbers directly. E4,
//! E6 and E13 are described once as a [`Grid`] ([`SubsetGrid`],
//! [`SampleGrid`]) that the resumable job layer runs too; their table
//! functions run the grid as one in-memory chunk and return its [`Fold`],
//! failures included. All experiments are deterministic: fixed seeds,
//! fixed toss assignments, and trial results merged in index order, so
//! the tables are byte-identical at every thread count.

use crate::grid::{
    cell_of, check_failure, field, list_field, opt_field, opt_text, overlaps, push_field,
    push_list, run_and_fold, tile, Fold, Grid,
};
use crate::harness::Experiment;
use crate::table::Table;
use llsc_core::{
    build_all_run, ceil_log4, flow_report, indist_subset_range, report_from_samples,
    sample_expectation, secretive_complete_schedule, verify_lower_bound, AdversaryConfig,
    ExpectationSample, MoveConfig, ProcSet, SubsetTrialRecord,
};
use llsc_shmem::json;
// Re-exported for callers that predate the move of the seeding helpers
// into `llsc_core` (see `crates/core/src/secretive.rs`).
pub use llsc_core::random_move_config;
use llsc_objects::FetchIncrement;
use llsc_shmem::{Algorithm, ProcessId, RegisterId, SeededTosses, Sweep, ZeroTosses};
use llsc_universal::{
    measure, AdtTreeUniversal, CombiningTreeUniversal, DirectLlSc, HerlihyUniversal, MeasureConfig,
    ObjectImplementation, ScheduleKind,
};
use llsc_wakeup::{
    correct_algorithms, randomized_algorithms, ObjectWakeup, ReductionKind, TournamentWakeup,
};
use std::ops::Range;
use std::sync::Arc;

/// The E4 table title.
pub const E4_TITLE: &str =
    "E4 - Lemma 5.2: (All,A)-run vs (S,A)-run indistinguishability, exhaustive over S";
/// The E6 table title.
pub const E6_TITLE: &str =
    "E6 - randomized wakeup: sampled expected complexity vs c*log4(n) (Lemma 3.1)";
/// The E13 table title.
pub const E13_TITLE: &str = "E13 - appendix claims A.2-A.9 + Lemma 5.2, exhaustive over subsets";

/// The `(algorithm index, n)` product used by the per-algorithm sweeps.
fn alg_size_pairs(algs: usize, ns: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(algs * ns.len());
    for a in 0..algs {
        for &n in ns {
            pairs.push((a, n));
        }
    }
    pairs
}

/// One row of E1: secretive-schedule statistics for a configuration size.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Number of moving processes.
    pub n: usize,
    /// Configurations tried.
    pub configs: usize,
    /// Worst movers-list length over all registers and configurations
    /// (Lemma 4.1 caps this at 2).
    pub worst_movers: usize,
    /// Number of Lemma 4.2 restriction checks performed (all must hold).
    pub restriction_checks: usize,
}

/// E1/E2: Lemma 4.1 and 4.2 over random move configurations, plus the
/// Section-4 chain (E11). Random configurations fan out over the sweep.
pub fn e1_secretive_schedules(
    sizes: &[usize],
    configs_per_size: usize,
    sweep: &Sweep,
) -> Experiment<E1Row> {
    let mut table = Table::new(
        "E1/E2 - secretive complete schedules: Lemma 4.1 (movers <= 2) and Lemma 4.2 (restriction)",
        [
            "n",
            "configs",
            "worst movers",
            "Lemma 4.2 checks",
            "verdict",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        // Each random configuration is one independent trial returning its
        // (worst movers, restriction checks) tally.
        let tallies = sweep.run_range(
            0..configs_per_size,
            || (),
            |(), trial| {
                let c = trial.index;
                let regs = (n as u64 / 2).max(2);
                let cfg = random_move_config(n, regs, c as u64 * 7919 + n as u64);
                let sigma = secretive_complete_schedule(&cfg);
                let flows = flow_report(&sigma, &cfg);
                let mut worst = 0usize;
                let mut restriction_checks = 0usize;
                for (&r, (src, m)) in &flows {
                    assert!(m.len() <= 2, "Lemma 4.1 violated at {r}");
                    worst = worst.max(m.len());
                    // Lemma 4.2: restricting to exactly the movers preserves
                    // the source.
                    let keep: ProcSet = m.iter().copied().collect();
                    let restricted = llsc_core::restrict(&sigma, &keep);
                    let restricted_flows = flow_report(&restricted, &cfg);
                    let restricted_src = restricted_flows.get(&r).map(|(s, _)| *s).unwrap_or(r);
                    assert_eq!(restricted_src, *src, "Lemma 4.2 violated at {r}");
                    restriction_checks += 1;
                }
                (worst, restriction_checks)
            },
        );
        let worst = tallies.iter().map(|&(w, _)| w).max().unwrap_or(0);
        let restriction_checks: usize = tallies.iter().map(|&(_, c)| c).sum();
        // The paper's chain example as a fixed configuration.
        let chain = MoveConfig::from_iter(
            (0..n).map(|i| (ProcessId(i), RegisterId(i as u64), RegisterId(i as u64 + 1))),
        );
        let sigma = secretive_complete_schedule(&chain);
        assert!(llsc_core::is_secretive(&sigma, &chain));
        table.row([
            n.to_string(),
            (configs_per_size + 1).to_string(),
            worst.to_string(),
            restriction_checks.to_string(),
            "PASS".to_string(),
        ]);
        rows.push(E1Row {
            n,
            configs: configs_per_size + 1,
            worst_movers: worst,
            restriction_checks,
        });
    }
    Experiment { table, rows }
}

/// One row of E3: UP growth for one algorithm at one `n`.
#[derive(Clone, Debug)]
pub struct E3Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Rounds of the `(All, A)`-run.
    pub rounds: usize,
    /// The largest `|UP(X, r)|` observed (at the final round).
    pub max_up: usize,
    /// Whether `|UP(X, r)| <= 4^r` held at every round.
    pub lemma_5_1: bool,
}

/// E3: Lemma 5.1 — `|UP(X, r)| <= 4^r` across the shipped algorithms,
/// one `(algorithm, n)` run per trial.
pub fn e3_up_growth(ns: &[usize], sweep: &Sweep) -> Experiment<E3Row> {
    let mut table = Table::new(
        "E3 - Lemma 5.1: UP-set growth |UP(X, r)| <= 4^r under the Figure-2 adversary",
        ["algorithm", "n", "rounds", "max |UP|", "4^r cap ok"],
    );
    // Rolling UP tracking: Lemma 5.1 only needs per-round max sizes, and
    // full histories cost Θ(rounds · Σ|UP|) memory at n = 1024.
    let cfg = AdversaryConfig {
        track_up_history: false,
        ..AdversaryConfig::default()
    };
    let algs = correct_algorithms();
    let pairs = alg_size_pairs(algs.len(), ns);
    let rows = sweep.run(&pairs, |_trial, &(a, n)| {
        let alg = &algs[a];
        let all = build_all_run(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg)
            .expect("E3 runs stay within the default executor budgets");
        let rounds = all.base.num_rounds();
        let max_up = all.up.max_up_size(rounds);
        let ok = all.up.lemma_5_1_holds();
        assert!(ok, "{} n={n}", alg.name());
        E3Row {
            algorithm: alg.name().to_string(),
            n,
            rounds,
            max_up,
            lemma_5_1: ok,
        }
    });
    for r in &rows {
        table.row([
            r.algorithm.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            r.max_up.to_string(),
            r.lemma_5_1.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E4 or E13: one algorithm at one `n`, over every subset
/// `S` and (E4) every toss assignment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubsetRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Subsets `S` tested, over all toss assignments.
    pub subsets: usize,
    /// Individual state comparisons performed.
    pub comparisons: usize,
    /// Violations found (Lemma 5.2, plus claims A.2–A.9 for E13).
    pub violations: usize,
    /// Total simulated executor events across the sweeps behind this row,
    /// each `(All, A)`-run counted once.
    pub events: u64,
}

/// The E4/E13 grid: one cell per `(algorithm, n, toss seed)`, one trial
/// per subset mask, run through [`indist_subset_range`].
pub struct SubsetGrid {
    algs: Vec<Box<dyn Algorithm>>,
    cells: Vec<Range<usize>>,
    /// `(algorithm, n, toss seed)` of each cell; a row merges the
    /// `seeds` consecutive cells of one `(algorithm, n)`.
    coords: Vec<(usize, usize, u64)>,
    seeds: usize,
    claims: bool,
    cfg: AdversaryConfig,
}

impl SubsetGrid {
    /// Every wakeup algorithm at every `n` in `ns` under every toss seed
    /// (`0` means [`ZeroTosses`]): Lemma 5.2 for E4, plus claims A.2–A.9
    /// with `claims` (E13, zero tosses). `max_events` overrides the
    /// executor's event budget unless 0.
    pub fn new(ns: &[usize], toss_seeds: &[u64], claims: bool, max_events: u64) -> SubsetGrid {
        let algs: Vec<Box<dyn Algorithm>> = correct_algorithms()
            .into_iter()
            .chain(randomized_algorithms())
            .collect();
        let coords: Vec<(usize, usize, u64)> = alg_size_pairs(algs.len(), ns)
            .into_iter()
            .flat_map(|(a, n)| toss_seeds.iter().map(move |&seed| (a, n, seed)))
            .collect();
        let mut cfg = AdversaryConfig::default();
        if max_events > 0 {
            cfg.executor.max_events = max_events;
        }
        SubsetGrid {
            algs,
            cells: tile(coords.iter().map(|&(_, n, _)| 1 << n.min(16))),
            coords,
            seeds: toss_seeds.len(),
            claims,
            cfg,
        }
    }
}

impl Grid for SubsetGrid {
    type Trial = SubsetTrialRecord;
    type Row = SubsetRow;

    fn cells(&self) -> &[Range<usize>] {
        &self.cells
    }

    /// E13 runs zero tosses only, so its labels name no toss seed.
    fn label(&self, cell: usize) -> String {
        let (a, n, seed) = self.coords[cell];
        let alg = self.algs[a].name();
        if self.claims {
            format!("alg={alg} n={n}")
        } else {
            format!("alg={alg} n={n} toss_seed={seed}")
        }
    }

    /// One record per mask; each cell's shared `(All, A)`-run is billed
    /// to its mask 0, so summing a cell's `events` counts it once.
    fn run(&self, span: Range<usize>, sweep: &Sweep) -> Result<Vec<SubsetTrialRecord>, String> {
        let mut records = Vec::with_capacity(span.len());
        for (cell, masks) in overlaps(&self.cells, span) {
            let (a, n, seed) = self.coords[cell];
            let toss: Arc<dyn llsc_shmem::TossAssignment> = match seed {
                0 => Arc::new(ZeroTosses),
                seed => Arc::new(SeededTosses::new(seed)),
            };
            let alg = self.algs[a].as_ref();
            let chunk = indist_subset_range(alg, n, toss, &self.cfg, self.claims, sweep, masks)
                .map_err(|e| format!("{}: {e:?}", self.label(cell)))?;
            let first = records.len();
            records.extend(chunk.records);
            if let Some(mask0) = records.get_mut(first).filter(|r| r.mask == 0) {
                mask0.events += chunk.all_events;
            }
        }
        Ok(records)
    }

    /// A `subset` record keeps what the table reads; `events` (typed rows
    /// only) is not kept and reads back as 0.
    fn encode(&self, r: &SubsetTrialRecord, out: &mut String) {
        push_field(out, "kind", "subset");
        push_field(out, "mask", r.mask);
        push_field(out, "comparisons", r.comparisons);
        push_field(out, "claims", r.claim_instances);
        push_list(out, "violations", &r.violations);
    }

    fn decode(&self, _index: usize, record: &json::Value) -> Result<SubsetTrialRecord, String> {
        Ok(SubsetTrialRecord {
            mask: field(record, "mask")?,
            comparisons: field(record, "comparisons")?,
            claim_instances: field(record, "claims")?,
            events: 0,
            violations: list_field(record, "violations")?,
        })
    }

    /// One row per `(algorithm, n)`; every violation is also a failure.
    fn fold(&self, cells: &[Option<&[SubsetTrialRecord]>]) -> Fold<SubsetRow> {
        let table = if self.claims {
            Table::new(E13_TITLE, ["algorithm", "n", "subsets", "violations"])
        } else {
            let headers = ["algorithm", "n", "subsets", "comparisons", "violations"];
            Table::new(E4_TITLE, headers)
        };
        let mut fold = Fold {
            table,
            rows: Vec::new(),
            failures: Vec::new(),
            incomplete: Vec::new(),
        };
        for first in (0..cells.len()).step_by(self.seeds.max(1)) {
            let (a, n, _) = self.coords[first];
            let mut row = SubsetRow {
                algorithm: self.algs[a].name().to_string(),
                n,
                ..SubsetRow::default()
            };
            let block = first..first + self.seeds;
            let Some(records) = cells[block.clone()]
                .iter()
                .copied()
                .collect::<Option<Vec<_>>>()
            else {
                fold.incomplete.push(format!("alg={} n={n}", row.algorithm));
                continue;
            };
            for (c, records) in block.zip(records) {
                for (i, r) in records.iter().enumerate() {
                    row.subsets += 1;
                    row.comparisons += r.comparisons;
                    row.violations += r.violations.len();
                    row.events += r.events;
                    fold.failures.extend(r.violations.iter().map(|v| {
                        let context = format!("{} mask={}", self.label(c), r.mask);
                        check_failure(
                            self.cells[c].start + i,
                            self.coords[c].2,
                            v.clone(),
                            context,
                        )
                    }));
                }
            }
            let mut cols = vec![
                row.algorithm.clone(),
                n.to_string(),
                row.subsets.to_string(),
            ];
            if !self.claims {
                cols.push(row.comparisons.to_string());
            }
            cols.push(row.violations.to_string());
            fold.table.row(cols);
            fold.rows.push(row);
        }
        fold
    }
}

/// E4: Lemma 5.2 — `(All, A)` vs `(S, A)` indistinguishability over every
/// subset `S` (exhaustive; keep `n` small) and several toss assignments.
/// The `2^n` subsets of each run fan out over the sweep.
pub fn e4_indistinguishability(ns: &[usize], seeds: &[u64], sweep: &Sweep) -> Fold<SubsetRow> {
    run_and_fold(&SubsetGrid::new(ns, seeds, false, 0), sweep)
}

/// One row of E5: the wakeup lower bound for one algorithm at one `n`.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// `ceil(log4 n)` — the Theorem 6.1 bound.
    pub bound: u64,
    /// The winner's measured shared-access step count.
    pub winner_steps: u64,
    /// `t(R)`: the worst process's step count.
    pub max_steps: u64,
    /// Whether the bound held.
    pub holds: bool,
}

/// E5: Theorem 6.1 — winner step counts vs `ceil(log4 n)`, one
/// `(algorithm, n)` verification per trial.
pub fn e5_wakeup_lower_bound(ns: &[usize], sweep: &Sweep) -> Experiment<E5Row> {
    let mut table = Table::new(
        "E5 - Theorem 6.1: wakeup winner's shared-access steps vs ceil(log4 n)",
        [
            "algorithm",
            "n",
            "ceil(log4 n)",
            "winner steps",
            "t(R)",
            "bound",
        ],
    );
    // Rolling UP tracking suffices for the bound (a terminated winner's
    // UP set is final); the refutation path rebuilds full history on
    // demand.
    let cfg = AdversaryConfig {
        track_up_history: false,
        ..AdversaryConfig::default()
    };
    let algs = correct_algorithms();
    let pairs = alg_size_pairs(algs.len(), ns);
    let rows = sweep.run(&pairs, |_trial, &(a, n)| {
        let alg = &algs[a];
        let rep = verify_lower_bound(alg.as_ref(), n, Arc::new(ZeroTosses), &cfg)
            .expect("E5 runs stay within the default executor budgets");
        assert!(rep.wakeup.ok() && rep.bound_holds, "{} n={n}", alg.name());
        E5Row {
            algorithm: alg.name().to_string(),
            n,
            bound: ceil_log4(n),
            winner_steps: rep.winner_steps,
            max_steps: rep.max_steps,
            holds: rep.bound_holds,
        }
    });
    for r in &rows {
        table.row([
            r.algorithm.clone(),
            r.n.to_string(),
            r.bound.to_string(),
            r.winner_steps.to_string(),
            r.max_steps.to_string(),
            "HOLDS".to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E6: expected complexity of a randomized algorithm.
#[derive(Clone, Debug)]
pub struct E6Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Empirical termination rate `c`.
    pub termination_rate: f64,
    /// Mean winner steps over terminating runs.
    pub mean_winner_steps: f64,
    /// Minimum winner steps (the Lemma 3.1 `k`).
    pub min_winner_steps: u64,
    /// The Lemma 3.1 bound `c * k`.
    pub lemma_3_1_bound: f64,
    /// `log4 n`.
    pub log4_n: f64,
}

/// The E6 grid: one cell per `(randomized algorithm, n)`, one trial per
/// toss-assignment sample (its cell-local index is its toss seed), run
/// through [`sample_expectation`].
pub struct SampleGrid {
    algs: Vec<Box<dyn Algorithm>>,
    cells: Vec<Range<usize>>,
    /// `(algorithm, n)` of each cell.
    coords: Vec<(usize, usize)>,
    cfg: AdversaryConfig,
}

impl SampleGrid {
    /// `samples` toss assignments for every randomized algorithm at every
    /// `n` in `ns`. `max_events` overrides the executor's event budget
    /// unless 0.
    pub fn new(ns: &[usize], samples: u64, max_events: u64) -> SampleGrid {
        let algs = randomized_algorithms();
        let coords = alg_size_pairs(algs.len(), ns);
        let mut cfg = AdversaryConfig {
            max_rounds: 10_000,
            ..AdversaryConfig::default()
        };
        if max_events > 0 {
            cfg.executor.max_events = max_events;
        }
        SampleGrid {
            algs,
            cells: tile(coords.iter().map(|_| samples as usize)),
            coords,
            cfg,
        }
    }
}

impl Grid for SampleGrid {
    type Trial = ExpectationSample;
    type Row = E6Row;

    fn cells(&self) -> &[Range<usize>] {
        &self.cells
    }

    fn label(&self, cell: usize) -> String {
        let (a, n) = self.coords[cell];
        format!("alg={} n={n}", self.algs[a].name())
    }

    fn run(&self, span: Range<usize>, sweep: &Sweep) -> Result<Vec<ExpectationSample>, String> {
        let results = sweep.run_range(
            span,
            || (),
            |(), t| {
                let cell = cell_of(&self.cells, t.index);
                let (a, n) = self.coords[cell];
                let seed = (t.index - self.cells[cell].start) as u64;
                sample_expectation(self.algs[a].as_ref(), n, seed, &self.cfg)
                    .map_err(|e| format!("{}: {e:?}", self.label(cell)))
            },
        );
        results.into_iter().collect()
    }

    fn encode(&self, s: &ExpectationSample, out: &mut String) {
        push_field(out, "kind", "sample");
        push_field(out, "terminated", u8::from(s.terminated));
        push_field(out, "wakeup_ok", u8::from(s.wakeup_ok));
        push_field(out, "winner_steps", opt_text(s.winner_steps));
        push_field(out, "max_steps", opt_text(s.max_steps));
    }

    fn decode(&self, _index: usize, record: &json::Value) -> Result<ExpectationSample, String> {
        Ok(ExpectationSample {
            terminated: field::<u8>(record, "terminated")? == 1,
            wakeup_ok: field::<u8>(record, "wakeup_ok")? == 1,
            winner_steps: opt_field(record, "winner_steps")?,
            max_steps: opt_field(record, "max_steps")?,
        })
    }

    /// One row per cell; a terminated sample whose winner took fewer than
    /// `ceil(log4 n)` shared-access steps refutes Theorem 6.1 and is a
    /// failure.
    fn fold(&self, cells: &[Option<&[ExpectationSample]>]) -> Fold<E6Row> {
        let headers = [
            "algorithm",
            "n",
            "c",
            "E[winner]",
            "min winner",
            "c*k",
            "log4(n)",
        ];
        let mut fold = Fold {
            table: Table::new(E6_TITLE, headers),
            rows: Vec::new(),
            failures: Vec::new(),
            incomplete: Vec::new(),
        };
        for (c, samples) in cells.iter().enumerate() {
            let Some(samples) = samples else {
                fold.incomplete.push(self.label(c));
                continue;
            };
            let (a, n) = self.coords[c];
            let bound = ceil_log4(n);
            for (i, s) in samples.iter().enumerate() {
                if let Some(w) = s.winner_steps.filter(|&w| s.terminated && w < bound) {
                    fold.failures.push(check_failure(
                        self.cells[c].start + i,
                        i as u64,
                        format!(
                            "winner took {w} shared-access step(s), below ceil(log4 n) = {bound}"
                        ),
                        format!("{} toss_seed={i}", self.label(c)),
                    ));
                }
            }
            let rep = report_from_samples(self.algs[a].name(), n, samples);
            fold.table.row([
                rep.algorithm.clone(),
                n.to_string(),
                format!("{:.2}", rep.termination_rate),
                format!("{:.1}", rep.mean_winner_steps),
                rep.min_winner_steps.to_string(),
                format!("{:.2}", rep.lemma_3_1_bound),
                format!("{:.2}", rep.log4_n),
            ]);
            fold.rows.push(E6Row {
                algorithm: rep.algorithm,
                n,
                termination_rate: rep.termination_rate,
                mean_winner_steps: rep.mean_winner_steps,
                min_winner_steps: rep.min_winner_steps,
                lemma_3_1_bound: rep.lemma_3_1_bound,
                log4_n: rep.log4_n,
            });
        }
        fold
    }
}

/// E6: the randomized bound — sampled expected complexity vs
/// `c * log4(n)` (Lemma 3.1 + Theorem 6.1). Every toss-assignment sample
/// of every `(algorithm, n)` estimate fans out over one sweep.
pub fn e6_randomized_expectation(ns: &[usize], samples: u64, sweep: &Sweep) -> Fold<E6Row> {
    run_and_fold(&SampleGrid::new(ns, samples, 0), sweep)
}

/// One row of E7: a Theorem 6.2 reduction at one `n`.
#[derive(Clone, Debug)]
pub struct E7Row {
    /// The reduction (object type).
    pub kind: ReductionKind,
    /// Number of processes.
    pub n: usize,
    /// Ops per process on the object (`k` of Corollary 6.1).
    pub ops_per_process: u32,
    /// Winner's shared steps.
    pub winner_steps: u64,
    /// `ceil(log4 n)`.
    pub bound: u64,
    /// Whether wakeup held and the bound held.
    pub ok: bool,
}

/// E7: Theorem 6.2 — all eight wakeup-from-object reductions over the
/// direct LL/SC implementation of each object, one `(object, n)` run per
/// trial.
pub fn e7_reductions(ns: &[usize], sweep: &Sweep) -> Experiment<E7Row> {
    let mut table = Table::new(
        "E7 - Theorem 6.2: wakeup via one shared object (direct LL/SC implementation)",
        [
            "object",
            "n",
            "k (ops/proc)",
            "winner steps",
            "ceil(log4 n)",
            "verdict",
        ],
    );
    let cfg = AdversaryConfig::default();
    let kinds = ReductionKind::all();
    let mut cases = Vec::new();
    for kind in kinds {
        for &n in ns {
            cases.push((kind, n));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(kind, n)| {
        let alg = ObjectWakeup::direct(kind, n);
        let rep = verify_lower_bound(&alg, n, Arc::new(ZeroTosses), &cfg)
            .expect("E7 reduction runs stay within the default executor budgets");
        let ok = rep.wakeup.ok() && rep.bound_holds;
        assert!(ok, "{kind} n={n}");
        E7Row {
            kind,
            n,
            ops_per_process: kind.ops_per_process(),
            winner_steps: rep.winner_steps,
            bound: ceil_log4(n),
            ok,
        }
    });
    for r in &rows {
        table.row([
            r.kind.label().to_string(),
            r.n.to_string(),
            r.ops_per_process.to_string(),
            r.winner_steps.to_string(),
            r.bound.to_string(),
            "PASS".to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E8/E9: construction costs at one `n`.
#[derive(Clone, Debug)]
pub struct E8Row {
    /// Number of processes.
    pub n: usize,
    /// ADT Group-Update tree, adversary schedule.
    pub adt: u64,
    /// Naive LL/SC combining tree, adversary schedule.
    pub naive_tree: u64,
    /// Herlihy announce-and-help, adversary schedule.
    pub herlihy: u64,
    /// Direct LL/SC object, adversary schedule.
    pub direct: u64,
}

/// E8/E9: the tightness sweep — worst-case shared ops per operation for
/// every construction under the Figure-2 adversary. Each
/// `(n, construction)` measurement is one trial.
pub fn e8_universal_constructions(ns: &[usize], sweep: &Sweep) -> Experiment<E8Row> {
    let mut table = Table::new(
        "E8/E9 - worst-case shared ops per operation (fetch&increment under the adversary)",
        [
            "n",
            "adt-tree",
            "naive-tree",
            "herlihy",
            "direct",
            "log2(n)+2",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    const IMPS: usize = 4;
    let mut cases = Vec::new();
    for &n in ns {
        for imp in 0..IMPS {
            cases.push((n, imp));
        }
    }
    let costs = sweep.run(&cases, |_trial, &(n, imp)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let imp: Box<dyn ObjectImplementation> = match imp {
            0 => Box::new(AdtTreeUniversal::new(spec.clone())),
            1 => Box::new(CombiningTreeUniversal::new(spec.clone())),
            2 => Box::new(HerlihyUniversal::new(spec.clone())),
            _ => Box::new(DirectLlSc::new(spec.clone())),
        };
        measure(
            imp.as_ref(),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E8 measurements complete within the configured budgets")
        .max_ops
    });
    let mut rows = Vec::new();
    for (group, &n) in costs.chunks_exact(IMPS).zip(ns) {
        let row = E8Row {
            n,
            adt: group[0],
            naive_tree: group[1],
            herlihy: group[2],
            direct: group[3],
        };
        table.row([
            n.to_string(),
            row.adt.to_string(),
            row.naive_tree.to_string(),
            row.herlihy.to_string(),
            row.direct.to_string(),
            ((n as f64).log2() as u64 + 2).to_string(),
        ]);
        rows.push(row);
    }
    Experiment { table, rows }
}

/// One row of E9: one construction under every schedule.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// The construction's name.
    pub implementation: String,
    /// Number of processes.
    pub n: usize,
    /// Worst-case ops under the contention-free sequential schedule
    /// (`None` where the schedule is unsupported — the ADT tree's
    /// followers poll and need fairness).
    pub sequential: Option<u64>,
    /// Worst-case ops under round-robin.
    pub round_robin: u64,
    /// Worst-case ops under a seeded random interleaving.
    pub random: u64,
    /// Worst-case ops under the Figure-2 adversary.
    pub adversary: u64,
}

/// E9: schedule ablation — how each construction's worst-case cost depends
/// on the schedule, complementing E8's adversary-only sweep. Each
/// `(n, construction)` row (four measurements) is one trial.
pub fn e9_schedule_ablation(ns: &[usize], sweep: &Sweep) -> Experiment<E9Row> {
    let mut table = Table::new(
        "E9 - schedule ablation: worst-case shared ops per operation (fetch&increment)",
        [
            "construction",
            "n",
            "sequential",
            "round-robin",
            "random",
            "adversary",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    const IMPS: usize = 4;
    let mut cases = Vec::new();
    for &n in ns {
        for imp in 0..IMPS {
            cases.push((n, imp));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(n, imp)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let (imp, supports_sequential): (Box<dyn ObjectImplementation>, bool) = match imp {
            0 => (Box::new(AdtTreeUniversal::new(spec.clone())), false),
            1 => (Box::new(CombiningTreeUniversal::new(spec.clone())), true),
            2 => (Box::new(HerlihyUniversal::new(spec.clone())), true),
            _ => (Box::new(DirectLlSc::new(spec.clone())), true),
        };
        let run = |kind: ScheduleKind| {
            measure(imp.as_ref(), spec.as_ref(), n, &ops, kind, &cfg)
                .expect("E9 measurements complete within the configured budgets")
                .max_ops
        };
        E9Row {
            implementation: imp.name(),
            n,
            sequential: supports_sequential.then(|| run(ScheduleKind::Sequential)),
            round_robin: run(ScheduleKind::RoundRobin),
            random: run(ScheduleKind::RandomInterleave { seed: 17 }),
            adversary: run(ScheduleKind::Adversary),
        }
    });
    for row in &rows {
        table.row([
            row.implementation.clone(),
            row.n.to_string(),
            row.sequential
                .map(|v| v.to_string())
                .unwrap_or_else(|| "n/a".into()),
            row.round_robin.to_string(),
            row.random.to_string(),
            row.adversary.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E10: direct-implementation costs.
#[derive(Clone, Debug)]
pub struct E10Row {
    /// Number of processes.
    pub n: usize,
    /// Solo (sequential-schedule) cost.
    pub solo: u64,
    /// Contended (adversary-schedule) cost.
    pub contended: u64,
    /// The oblivious `O(log n)` tree under the adversary, for contrast.
    pub oblivious_tree: u64,
}

/// E10: the non-oblivious escape hatch — the direct LL/SC object costs a
/// constant 2 ops solo (below any growing bound), at the price of `Θ(n)`
/// under full contention. One `n` per trial.
pub fn e10_direct_escape_hatch(ns: &[usize], sweep: &Sweep) -> Experiment<E10Row> {
    let mut table = Table::new(
        "E10 - semantics-exploiting direct LL/SC object: solo vs contended",
        [
            "n",
            "direct solo",
            "direct contended",
            "adt-tree (adversary)",
        ],
    );
    let cfg = MeasureConfig {
        check_linearizability: false,
        ..MeasureConfig::default()
    };
    let rows = sweep.run(ns, |_trial, &n| {
        let spec = Arc::new(FetchIncrement::new(32));
        let ops = vec![FetchIncrement::op(); n];
        let direct = DirectLlSc::new(spec.clone());
        let solo = measure(
            &direct,
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Sequential,
            &cfg,
        )
        .expect("E10 solo runs complete within the configured budgets")
        .max_ops;
        let contended = measure(
            &direct,
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E10 adversary runs complete within the configured budgets")
        .max_ops;
        let tree = measure(
            &AdtTreeUniversal::new(spec.clone()),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            &cfg,
        )
        .expect("E10 tree runs complete within the configured budgets")
        .max_ops;
        assert_eq!(solo, 2, "solo cost is constant");
        E10Row {
            n,
            solo,
            contended,
            oblivious_tree: tree,
        }
    });
    for r in &rows {
        table.row([
            r.n.to_string(),
            r.solo.to_string(),
            r.contended.to_string(),
            r.oblivious_tree.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E10b: structural implementations' solo cost vs data size.
#[derive(Clone, Debug)]
pub struct E10bRow {
    /// Implementation name.
    pub implementation: String,
    /// Initial items in the structure.
    pub initial: usize,
    /// Solo shared ops for one operation.
    pub solo_ops: u64,
}

/// E10b: the *structural* escape hatches — pointer-based LL/SC queue and
/// stack whose solo per-operation cost is a small constant regardless of
/// structure size (contrast with every oblivious construction's Ω(log n)).
/// Each initial size (queue + stack measurement) is one trial.
pub fn e10b_structural_escape_hatches(sizes: &[usize], sweep: &Sweep) -> Experiment<E10bRow> {
    use llsc_objects::{Queue, Stack};
    use llsc_universal::{MsQueue, TreiberStack};
    let mut table = Table::new(
        "E10b - structural LL/SC implementations: solo ops per operation vs structure size",
        ["implementation", "initial items", "solo ops"],
    );
    let cfg = MeasureConfig::default();
    let pairs = sweep.run(sizes, |_trial, &initial| {
        let spec = Arc::new(Queue::with_numbered_items(initial));
        let imp = MsQueue::new(Queue::with_numbered_items(initial));
        let ops = vec![Queue::dequeue_op()];
        let r = measure(&imp, spec.as_ref(), 1, &ops, ScheduleKind::Sequential, &cfg)
            .expect("E10b solo queue runs complete within the configured budgets");
        assert!(r.linearizable);
        let queue_row = E10bRow {
            implementation: imp.name(),
            initial,
            solo_ops: r.max_ops,
        };

        let spec = Arc::new(Stack::with_numbered_items(initial));
        let imp = TreiberStack::new(Stack::with_numbered_items(initial));
        let ops = vec![Stack::pop_op()];
        let r = measure(&imp, spec.as_ref(), 1, &ops, ScheduleKind::Sequential, &cfg)
            .expect("E10b solo stack runs complete within the configured budgets");
        assert!(r.linearizable);
        let stack_row = E10bRow {
            implementation: imp.name(),
            initial,
            solo_ops: r.max_ops,
        };
        [queue_row, stack_row]
    });
    let rows: Vec<E10bRow> = pairs.into_iter().flatten().collect();
    for r in &rows {
        table.row([
            r.implementation.clone(),
            r.initial.to_string(),
            r.solo_ops.to_string(),
        ]);
    }
    Experiment { table, rows }
}

/// One row of E12: multi-use amortised costs of the direct object.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// Number of processes.
    pub n: usize,
    /// Operations per process.
    pub k: usize,
    /// Amortised worst cost, solo schedule.
    pub solo: f64,
    /// Amortised worst cost, adversary schedule.
    pub adversary: f64,
}

/// E12: `k`-use amortised shared-access cost of the direct LL/SC object
/// (Corollary 6.1's `k`-use setting, measured from the other side). One
/// `(n, k)` cell per trial.
pub fn e12_multi_use(ns: &[usize], ks: &[usize], sweep: &Sweep) -> Experiment<E12Row> {
    use llsc_universal::measure_multi_use;
    let mut table = Table::new(
        "E12 - k-use amortised shared ops per operation (direct LL/SC fetch&increment)",
        ["n", "k", "solo", "adversary"],
    );
    let mut cases = Vec::new();
    for &n in ns {
        for &k in ks {
            cases.push((n, k));
        }
    }
    let rows = sweep.run(&cases, |_trial, &(n, k)| {
        let spec = Arc::new(FetchIncrement::new(32));
        let imp: Arc<dyn ObjectImplementation> = Arc::new(DirectLlSc::new(spec.clone()));
        let ops: Vec<Vec<llsc_shmem::Value>> =
            (0..n).map(|_| vec![FetchIncrement::op(); k]).collect();
        let solo = measure_multi_use(
            Arc::clone(&imp),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Sequential,
            100_000_000,
        )
        .expect("E12 solo runs complete within the step budget");
        let adv = measure_multi_use(
            Arc::clone(&imp),
            spec.as_ref(),
            n,
            &ops,
            ScheduleKind::Adversary,
            100_000_000,
        )
        .expect("E12 adversary runs complete within the step budget");
        assert!(solo.responses_consistent && adv.responses_consistent);
        E12Row {
            n,
            k,
            solo: solo.max_amortised,
            adversary: adv.max_amortised,
        }
    });
    for r in &rows {
        table.row([
            r.n.to_string(),
            r.k.to_string(),
            format!("{:.2}", r.solo),
            format!("{:.2}", r.adversary),
        ]);
    }
    Experiment { table, rows }
}

/// E13: the appendix claims (A.2-A.9) plus Lemma 5.2, exhaustively over
/// subsets, for every shipped wakeup algorithm. The `2^n` subsets of each
/// check fan out over the sweep.
pub fn e13_appendix_claims(ns: &[usize], sweep: &Sweep) -> Fold<SubsetRow> {
    run_and_fold(&SubsetGrid::new(ns, &[0], true, 0), sweep)
}

/// One row of E14: stress-portfolio outcomes.
#[derive(Clone, Debug)]
pub struct E14Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Schedules tried.
    pub tried: usize,
    /// Schedules passed.
    pub passed: usize,
    /// Whether the algorithm is expected to pass everything.
    pub expected_clean: bool,
}

/// E14: the partial-schedule stress portfolio over correct algorithms and
/// strawmen — what the Figure-2 adversary alone cannot show. Each
/// algorithm's portfolio schedules fan out over the sweep.
pub fn e14_stress_portfolio(n: usize, sweep: &Sweep) -> Experiment<E14Row> {
    use llsc_core::{standard_portfolio, stress_wakeup_sweep};
    use llsc_wakeup::strawman_algorithms;
    let mut table = Table::new(
        "E14 - wakeup stress portfolio (partition/sequential/random schedules)",
        ["algorithm", "tried", "passed", "verdict"],
    );
    let portfolio = standard_portfolio(n, 4);
    let mut rows = Vec::new();
    let cases: Vec<(Box<dyn Algorithm>, bool)> = correct_algorithms()
        .into_iter()
        .map(|a| (a, true))
        .chain(strawman_algorithms().into_iter().map(|a| (a, false)))
        .collect();
    for (alg, expected_clean) in cases {
        let report = stress_wakeup_sweep(
            alg.as_ref(),
            n,
            Arc::new(ZeroTosses),
            &portfolio,
            5_000_000,
            sweep,
        )
        .expect("E14 stress schedules stay within the default executor budgets");
        if expected_clean {
            assert!(report.ok(), "{}: {report}", alg.name());
        } else {
            assert!(!report.ok(), "{} should fail stress", alg.name());
        }
        table.row([
            alg.name().to_string(),
            report.schedules_tried.to_string(),
            report.passed.to_string(),
            if report.ok() { "clean" } else { "caught" }.to_string(),
        ]);
        rows.push(E14Row {
            algorithm: alg.name().to_string(),
            tried: report.schedules_tried,
            passed: report.passed,
            expected_clean,
        });
    }
    Experiment { table, rows }
}

/// E5 extra: the tournament winner across a wide sweep — the tightness
/// witness for the wakeup problem itself. One `n` per trial.
pub fn e5_tournament_tightness(ns: &[usize], sweep: &Sweep) -> Experiment<(usize, u64, u64)> {
    let mut table = Table::new(
        "E5b - tournament wakeup: winner steps vs the log4 bound (tightness for wakeup)",
        ["n", "ceil(log4 n)", "winner steps", "ratio"],
    );
    let cfg = AdversaryConfig {
        track_up_history: false,
        ..AdversaryConfig::default()
    };
    let rows = sweep.run(ns, |_trial, &n| {
        let rep = verify_lower_bound(&TournamentWakeup, n, Arc::new(ZeroTosses), &cfg)
            .expect("E5b runs stay within the default executor budgets");
        assert!(rep.wakeup.ok() && rep.bound_holds);
        (n, ceil_log4(n), rep.winner_steps)
    });
    for &(n, bound, winner_steps) in &rows {
        table.row([
            n.to_string(),
            bound.to_string(),
            winner_steps.to_string(),
            format!("{:.2}", winner_steps as f64 / bound.max(1) as f64),
        ]);
    }
    Experiment { table, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degradation::{degradation_sweep, Degradation, DegradationRow, DEFAULT_MAX_EVENTS};
    use llsc_shmem::{ReproCase, TrialFailure};

    /// Degradation experiment `kind` on one thread.
    fn sequential(
        kind: Degradation,
        n: usize,
        levels: &[usize],
        reps: usize,
        max_events: u64,
    ) -> (Experiment<DegradationRow>, Vec<TrialFailure>) {
        degradation_sweep(kind, n, levels, reps, max_events, &Sweep::sequential())
    }

    #[test]
    fn e20_arms_match_family_capabilities_with_zero_silent_wrong() {
        let (exp, failures) = sequential(
            Degradation::ChaosRecovery,
            6,
            &[0, 2],
            2,
            DEFAULT_MAX_EVENTS,
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 intensities");
        for r in &exp.rows {
            assert_eq!(
                r.silent_wrong, 0,
                "{}: chaos-validated families never go silently wrong",
                r.algorithm
            );
            assert_eq!(r.trials, 2);
            assert!(
                r.cc_rmrs > 0 && r.dsm_rmrs > 0,
                "{}: RMRs billed",
                r.algorithm
            );
            if r.level == 0 {
                assert_eq!(
                    r.recovered, r.trials,
                    "{}: clean trials recover",
                    r.algorithm
                );
                assert_eq!((r.crashes, r.spurious_sc, r.corruptions), (0, 0, 0));
            }
            match r.arm.expect("every E20 row has an arm") {
                "memory-faults" => {
                    assert_eq!(
                        (r.crashes, r.recoveries),
                        (0, 0),
                        "{}: the hardened trio never faces the crash layer",
                        r.algorithm
                    );
                }
                "crash-recovery" => {
                    assert_eq!(
                        r.corruptions, 0,
                        "{}: the recoverable trio never faces corruption",
                        r.algorithm
                    );
                    assert_eq!(
                        r.recoveries, r.crashes,
                        "{}: every delivered crash is recovered",
                        r.algorithm
                    );
                }
                other => panic!("unknown arm {other}"),
            }
        }
        // The fault layers actually fire at intensity 2.
        let delivered: u64 = exp
            .rows
            .iter()
            .filter(|r| r.level > 0)
            .map(|r| r.crashes + r.spurious_sc + r.corruptions)
            .sum();
        assert!(delivered > 0, "intensity-2 cells must deliver faults");
    }

    #[test]
    fn e19_recovers_crashes_and_bills_rmrs() {
        let (exp, failures) = sequential(Degradation::Recovery, 6, &[0, 2], 3, DEFAULT_MAX_EVENTS);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 6, "3 algorithms x 2 crash counts");
        for r in &exp.rows {
            assert!(r.safety_ok, "{}: safety must survive recovery", r.algorithm);
            assert_eq!(r.trials, 3);
            assert_eq!(
                r.completed() + r.crashed + r.stalled,
                r.trials,
                "{}: every trial classifies",
                r.algorithm
            );
            assert!(
                r.cc_rmrs > 0 && r.dsm_rmrs > 0,
                "{}: RMRs billed",
                r.algorithm
            );
            if r.level == 0 {
                assert_eq!(
                    r.completed(),
                    3,
                    "{}: crash-free trials complete",
                    r.algorithm
                );
                assert_eq!((r.crashes, r.recoveries), (0, 0));
            } else {
                assert!(r.crashes > 0, "{}: victims actually crash", r.algorithm);
                assert_eq!(
                    r.recoveries, r.crashes,
                    "{}: every delivered crash is recovered",
                    r.algorithm
                );
            }
        }
    }

    #[test]
    fn e1_small_sweep_passes() {
        let exp = e1_secretive_schedules(&[4, 9], 5, &Sweep::sequential());
        assert_eq!(exp.rows.len(), 2);
        assert!(exp.rows.iter().all(|r| r.worst_movers <= 2));
    }

    #[test]
    fn e3_small_sweep_passes() {
        let exp = e3_up_growth(&[4, 8], &Sweep::sequential());
        assert!(exp.rows.iter().all(|r| r.lemma_5_1));
    }

    #[test]
    fn e5_small_sweep_passes() {
        let exp = e5_wakeup_lower_bound(&[4, 16], &Sweep::sequential());
        assert!(exp
            .rows
            .iter()
            .all(|r| r.holds && r.winner_steps >= r.bound));
    }

    #[test]
    fn e8_small_sweep_shows_separation() {
        let exp = e8_universal_constructions(&[16, 64], &Sweep::sequential());
        for r in &exp.rows {
            assert!(r.adt < r.herlihy);
            assert!(r.adt < r.naive_tree);
        }
    }

    #[test]
    fn e10_solo_cost_is_constant() {
        let exp = e10_direct_escape_hatch(&[4, 32], &Sweep::sequential());
        assert!(exp.rows.iter().all(|r| r.solo == 2));
        assert!(exp.rows.iter().all(|r| r.contended >= r.n as u64));
    }

    #[test]
    fn random_move_config_has_no_self_moves() {
        for seed in 0..10 {
            let cfg = random_move_config(12, 6, seed);
            for p in cfg.processes() {
                let (src, dst) = cfg.get(p).unwrap();
                assert_ne!(src, dst);
            }
        }
    }

    #[test]
    fn e15_classifies_crash_outcomes_and_stays_safe() {
        let (exp, failures) = sequential(Degradation::Crash, 8, &[0, 2], 3, DEFAULT_MAX_EVENTS);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 8, "4 algorithms x 2 crash counts");
        let mut stranded = 0;
        for r in &exp.rows {
            assert!(
                r.safety_ok,
                "{}: wakeup safety must survive crashes",
                r.algorithm
            );
            assert_eq!(r.trials, 3);
            assert_eq!(
                r.completed() + r.crashed + r.stalled,
                r.trials,
                "{}: every trial classifies",
                r.algorithm
            );
            if r.level == 0 {
                assert_eq!(
                    r.completed(),
                    3,
                    "{}: fault-free trials complete",
                    r.algorithm
                );
            } else {
                stranded += r.crashed + r.stalled;
            }
        }
        // A victim that terminates before its crash point survives, so not
        // every k=2 trial strands a survivor — but some must.
        assert!(stranded > 0, "k=2 trials must strand some survivor");
    }

    #[test]
    fn e15_starved_budget_surfaces_isolated_failures() {
        let (exp, failures) = sequential(Degradation::Crash, 8, &[0], 2, 10);
        assert!(!failures.is_empty(), "starved k=0 trials must panic");
        assert!(failures
            .iter()
            .all(|f| f.payload.contains("fault-free trial must complete")));
        // Every failure carries its reproduction context: algorithm, crash
        // plan, and the toss seed.
        assert!(failures
            .iter()
            .all(|f| f.context.contains("crash-plan:k=0") && f.context.contains("tosses=seeded")));
        // Panics are isolated: the experiment still renders its table.
        assert!(exp.table.render().contains("E15"));
    }

    #[test]
    fn e16_fault_free_trials_recover_at_twin_cost() {
        let (exp, failures) = sequential(Degradation::MemoryFault, 8, &[0], 2, DEFAULT_MAX_EVENTS);
        // The zero-cost comparison runs inside each trial; a mismatch
        // would surface here as a failure.
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 6, "one f=0 cell per hardened algorithm");
        for r in &exp.rows {
            assert_eq!(r.recovered, r.trials, "{}: f=0 must recover", r.algorithm);
            assert_eq!(r.injected, 0, "{}: f=0 injects nothing", r.algorithm);
            assert_eq!(r.detected, 0, "{}: f=0 detects nothing", r.algorithm);
        }
    }

    #[test]
    fn e16_classifies_every_faulty_trial() {
        let (exp, failures) =
            sequential(Degradation::MemoryFault, 8, &[1, 4], 3, DEFAULT_MAX_EVENTS);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 fault budgets");
        let mut injected_total = 0;
        for r in &exp.rows {
            assert_eq!(r.trials, 3);
            assert_eq!(
                r.recovered + r.detected_wrong + r.silent_wrong + r.stalled,
                r.trials,
                "{}: every trial classifies into exactly one bucket",
                r.algorithm
            );
            assert_eq!(
                r.silent_wrong, 0,
                "{}: hardened algorithms never fail silently",
                r.algorithm
            );
            injected_total += r.injected;
        }
        assert!(injected_total > 0, "some scheduled faults must land");
    }

    #[test]
    fn e16_starved_budget_surfaces_isolated_failures_with_context() {
        let (exp, failures) = sequential(Degradation::MemoryFault, 8, &[0], 1, 40);
        assert!(!failures.is_empty(), "starved f=0 trials must panic");
        assert!(failures
            .iter()
            .all(|f| f.context.contains("fault-plan:none") && f.context.contains("alg=")));
        assert!(exp.table.render().contains("E16"));
    }

    #[test]
    fn starved_failures_carry_replayable_reproducers() {
        let (_, failures) = sequential(Degradation::MemoryFault, 8, &[0], 1, 40);
        assert!(!failures.is_empty(), "starved f=0 trials must panic");
        for f in &failures {
            let json = f.repro.as_ref().expect("failures carry a repro case");
            let case = ReproCase::from_json(json).expect("attached repro round-trips");
            assert_eq!(case.experiment, "e16");
            // The experiment-level assert panicked, but the underlying
            // execution is an honest stall — that's what the case records.
            assert_eq!(case.class, "stalled");
            let run = crate::repro::run_case(&case).expect("algorithm resolves");
            assert_eq!(run.outcome_debug, case.outcome, "replay is byte-identical");
            let prov = case.provenance.expect("provenance recorded");
            assert_eq!(prov.trial_index, f.index);
            assert_eq!(prov.attempt, f.attempts - 1);
        }
    }

    #[test]
    fn e17_classifies_chaos_trials_and_shrinks_reproducers() {
        let (exp, failures) = sequential(Degradation::Chaos, 4, &[0, 3], 2, DEFAULT_MAX_EVENTS);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(exp.rows.len(), 12, "6 algorithms x 2 intensities");
        let mut failing_cells = 0;
        for r in &exp.rows {
            assert_eq!(r.trials, 2);
            assert_eq!(
                r.recovered + r.detected_wrong + r.silent_wrong + r.stalled + r.crashed + r.aborted,
                r.trials,
                "{}: every trial classifies into exactly one bucket",
                r.algorithm
            );
            assert_eq!(
                r.median_shrunk().is_some(),
                r.recovered < r.trials,
                "{}: the median tracks exactly the failing trials",
                r.algorithm
            );
            if r.level == 0 {
                assert_eq!(
                    r.recovered, r.trials,
                    "{}: chaos-free trials recover",
                    r.algorithm
                );
            } else if r.recovered < r.trials {
                failing_cells += 1;
            }
        }
        assert!(failing_cells > 0, "intensity-3 chaos must break something");
    }

    #[test]
    fn e6_fold_reports_a_winner_below_the_bound_as_a_failure() {
        let grid = SampleGrid::new(&[16], 2, 0);
        let sample = |winner| ExpectationSample {
            terminated: true,
            wakeup_ok: true,
            winner_steps: Some(winner),
            max_steps: Some(winner),
        };
        let samples = [sample(2), sample(0)];
        let cells: Vec<Option<&[ExpectationSample]>> =
            grid.cells().iter().map(|_| Some(&samples[..])).collect();
        let fold = grid.fold(&cells);
        assert_eq!(fold.rows.len(), cells.len(), "the rows still render");
        assert_eq!(
            fold.failures.len(),
            cells.len(),
            "one refuted sample per cell"
        );
        let f = &fold.failures[0];
        assert_eq!((f.index, f.seed), (1, 1), "sample 1 ran under toss seed 1");
        assert!(
            f.payload.contains("below ceil(log4 n) = 2"),
            "{}",
            f.payload
        );
        assert!(f.context.ends_with("n=16 toss_seed=1"), "{}", f.context);
    }

    /// One small grid of `kind`: every table and every failure (with its
    /// context and attached reproducer) merges in index order, at a
    /// healthy budget and at a starved one that fails trials.
    fn assert_identical_across_thread_counts(
        kind: Degradation,
        n: usize,
        levels: [usize; 2],
        reps: usize,
    ) {
        for max_events in [DEFAULT_MAX_EVENTS, 60] {
            let run = |sweep: &Sweep| {
                let (exp, failures) = degradation_sweep(kind, n, &levels, reps, max_events, sweep);
                (exp.table.render_json(), exp.rows, failures)
            };
            let base = run(&Sweep::sequential());
            for threads in [2, 4] {
                assert!(
                    run(&Sweep::with_threads(threads)) == base,
                    "{} differs at threads={threads}, max_events={max_events}",
                    kind.tag()
                );
            }
        }
    }

    #[test]
    fn e15_is_identical_across_thread_counts() {
        assert_identical_across_thread_counts(Degradation::Crash, 8, [0, 1], 2);
    }

    #[test]
    fn e16_is_identical_across_thread_counts() {
        assert_identical_across_thread_counts(Degradation::MemoryFault, 8, [0, 2], 2);
    }

    #[test]
    fn e17_is_identical_across_thread_counts() {
        assert_identical_across_thread_counts(Degradation::Chaos, 4, [0, 2], 1);
    }

    #[test]
    fn e19_is_identical_across_thread_counts() {
        assert_identical_across_thread_counts(Degradation::Recovery, 6, [0, 2], 2);
    }

    #[test]
    fn e20_is_identical_across_thread_counts() {
        assert_identical_across_thread_counts(Degradation::ChaosRecovery, 6, [0, 2], 2);
    }

    #[test]
    fn tables_are_identical_across_thread_counts() {
        let base = e1_secretive_schedules(&[4, 9], 6, &Sweep::sequential());
        for threads in [2, 4, 8] {
            let par = e1_secretive_schedules(&[4, 9], 6, &Sweep::with_threads(threads));
            assert_eq!(par.table.render(), base.table.render(), "threads={threads}");
            assert_eq!(par.table.render_json(), base.table.render_json());
        }
    }
}
