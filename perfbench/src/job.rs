//! The `adversary-job` workload: E6 sampled runs through the job engine.

use crate::layers::{write_spans, LayerMetrics};
use crate::report::{fastest, run_passes, Ctx, Outcome, TRACE_ROUNDS};
use crate::trace::{layer_totals, Tracer};
use llsc_bench::job::{run_job, JobControl, JobExperiment, JobSpec, JobStatus};
use llsc_bench::table::Table;
use llsc_bench::E6_TITLE;
use llsc_core::{
    build_all_run, check_wakeup, estimate_expected_complexity_sweep, report_from_samples,
    AdversaryConfig, ExpectationReport, ExpectationSample,
};
use llsc_shmem::{Algorithm, SeededTosses, Sweep};
use llsc_wakeup::randomized_algorithms;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Processes of the sampled adversary runs.
const JOB_N: usize = 256;
/// Toss-assignment samples per algorithm.
const JOB_SAMPLES: u64 = 30;

/// The E6 configuration the job's trials run under.
fn job_cfg() -> AdversaryConfig {
    AdversaryConfig {
        max_rounds: 10_000,
        ..AdversaryConfig::default()
    }
}

/// Everything a job pass needs before `run_job`, which creates the
/// directory itself.
struct JobSetup {
    dir: PathBuf,
    spec: JobSpec,
}

fn job_setup(ctx: &Ctx, pass: usize) -> JobSetup {
    JobSetup {
        dir: ctx.work.join(format!("job-{pass}")),
        spec: JobSpec {
            name: "perfbench-adversary-job".to_string(),
            seed: ctx.seed,
            ns: vec![JOB_N],
            samples: JOB_SAMPLES,
            ..JobSpec::default_for(JobExperiment::E6)
        },
    }
}

/// One sampled `(All, A)`-run, composed as `sample_expectation` does, with
/// its event and round counts kept.
struct Sampled {
    sample: ExpectationSample,
    events: u64,
    rounds: u64,
}

fn compose_sample(
    alg: &dyn Algorithm,
    seed: u64,
    cfg: &AdversaryConfig,
    t: &mut Tracer,
) -> Result<Sampled, String> {
    let all = t
        .span("core.all_run", |_| {
            build_all_run(alg, JOB_N, Arc::new(SeededTosses::new(seed)), cfg)
        })
        .map_err(|e| format!("{} seed {seed}: {e:?}", alg.name()))?;
    let (events, rounds) = (all.base.run.event_count(), all.base.num_rounds() as u64);
    if !all.base.completed {
        return Ok(Sampled {
            sample: ExpectationSample {
                terminated: false,
                wakeup_ok: false,
                winner_steps: None,
                max_steps: None,
            },
            events,
            rounds,
        });
    }
    let check = t.span("core.wakeup", |_| check_wakeup(&all.base.run));
    Ok(Sampled {
        sample: ExpectationSample {
            terminated: true,
            wakeup_ok: check.ok(),
            winner_steps: check.first_winner().map(|w| all.base.run.shared_steps(w)),
            max_steps: Some(all.base.run.max_shared_steps()),
        },
        events,
        rounds,
    })
}

/// The job's E6 artifact as the plain sweep's reports render it.
fn e6_artifact(reports: &[ExpectationReport]) -> String {
    let mut table = Table::new(
        E6_TITLE,
        [
            "algorithm",
            "n",
            "c",
            "E[winner]",
            "min winner",
            "c*k",
            "log4(n)",
        ],
    );
    for rep in reports {
        table.row([
            rep.algorithm.clone(),
            rep.n.to_string(),
            format!("{:.2}", rep.termination_rate),
            format!("{:.1}", rep.mean_winner_steps),
            rep.min_winner_steps.to_string(),
            format!("{:.2}", rep.lemma_3_1_bound),
            format!("{:.2}", rep.log4_n),
        ]);
    }
    Table::render_json_artifact(&[&table])
}

/// What one `run_job` left behind.
struct JobResult {
    artifact: Result<String, String>,
    checkpoints: u64,
    dir_bytes: u64,
}

fn run_one_job(job: &JobSetup, threads: usize) -> JobResult {
    let artifact = run_job(&job.dir, &job.spec, threads, &JobControl::new()).and_then(|r| {
        if r.status != JobStatus::Complete || !r.failed.is_empty() {
            return Err(format!(
                "job status {:?}, {} failed chunk(s)",
                r.status,
                r.failed.len()
            ));
        }
        let path = r.artifact.ok_or("complete job wrote no artifact")?;
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    });
    let (mut checkpoints, mut dir_bytes) = (0, 0);
    for (path, bytes) in files_under(&job.dir) {
        dir_bytes += bytes;
        checkpoints += u64::from(path.parent().is_some_and(|p| p.ends_with("checkpoints")));
    }
    JobResult {
        artifact,
        checkpoints,
        dir_bytes,
    }
}

fn files_under(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            let bytes = entry.metadata().map_or(0, |m| m.len());
            out.push((path, bytes));
        }
    }
    out
}

/// The reports of every randomized algorithm plus the summed events and
/// rounds of their sampled runs.
#[derive(Debug, Default)]
struct JobComposed {
    reports: Vec<ExpectationReport>,
    events: u64,
    rounds: u64,
}

/// Samples of every randomized algorithm, composed on `sweep`'s threads
/// without spans (the reference of the untraced run) or on this thread
/// with spans.
fn compose_job(
    algs: &[Box<dyn Algorithm>],
    sweep: Option<&Sweep>,
    t: &mut Tracer,
) -> Result<JobComposed, String> {
    let cfg = job_cfg();
    let seeds: Vec<u64> = (0..JOB_SAMPLES).collect();
    let mut c = JobComposed::default();
    for alg in algs {
        let alg = alg.as_ref();
        let sampled: Vec<Result<Sampled, String>> = match sweep {
            Some(sweep) => sweep.run(&seeds, |_, &seed| {
                compose_sample(alg, seed, &cfg, &mut Tracer::off())
            }),
            None => seeds
                .iter()
                .map(|&seed| {
                    t.next_request();
                    t.span("perfbench.compose", |t| compose_sample(alg, seed, &cfg, t))
                })
                .collect(),
        };
        let sampled = sampled
            .into_iter()
            .collect::<Result<Vec<Sampled>, String>>()?;
        c.events += sampled.iter().map(|s| s.events).sum::<u64>();
        c.rounds += sampled.iter().map(|s| s.rounds).sum::<u64>();
        let samples: Vec<ExpectationSample> = sampled.into_iter().map(|s| s.sample).collect();
        c.reports
            .push(report_from_samples(alg.name(), JOB_N, &samples));
    }
    Ok(c)
}

/// Checks a job's artifact against the reference reports.
fn check_job(result: &JobResult, reports: &[ExpectationReport], out: &mut Outcome) -> u64 {
    let trials = 2 * JOB_SAMPLES;
    match &result.artifact {
        Err(e) => {
            out.problem(format!("job failed: {e}"));
            trials
        }
        Ok(artifact) => {
            let mut failed = 0;
            for rep in reports.iter().filter(|r| !r.all_meet_bound) {
                out.problem(format!("{}: a winner beat the log4 n bound", rep.algorithm));
                failed += rep.samples as u64;
            }
            if *artifact != e6_artifact(reports) {
                out.problem("job rows differ from the plain sweep's rows".to_string());
                failed = trials;
            }
            failed
        }
    }
}

/// The `adversary-job` workload.
pub fn adversary_job(ctx: &Ctx, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let algs = randomized_algorithms();
    if trace {
        return adversary_job_traced(ctx, &algs, out);
    }

    let mut results = Vec::new();
    // A pass includes reading the artifact and removing the job directory,
    // both small next to the job.
    let p = run_passes(
        ctx.seconds,
        3,
        || {
            (
                randomized_algorithms(),
                Sweep::with_threads(ctx.threads),
                job_setup(ctx, 0),
            )
        },
        |pass| {
            let job = job_setup(ctx, pass);
            results.push(run_one_job(&job, ctx.threads));
            std::fs::remove_dir_all(&job.dir).ok();
        },
    );
    let trials = 2 * JOB_SAMPLES;
    out.attempted = trials * results.len() as u64;
    let sweep = Sweep::with_threads(ctx.threads);
    let events = match compose_job(&algs, Some(&sweep), &mut Tracer::off()) {
        Ok(c) => {
            for r in &results {
                out.failed += check_job(r, &c.reports, &mut out);
            }
            c.events
        }
        Err(e) => {
            out.problem(format!("reference sweep failed: {e}"));
            out.failed = out.attempted;
            0
        }
    };
    let passes = p.walls.len();
    out.pass_metrics(
        &p,
        &vec![trials as f64; passes],
        &vec![events as f64; passes],
    );
    out.detail("events_per_pass", events as f64, "count", String::new());
    out
}

fn adversary_job_traced(ctx: &Ctx, algs: &[Box<dyn Algorithm>], mut out: Outcome) -> Outcome {
    let cfg = job_cfg();
    let seeds: Vec<u64> = (0..JOB_SAMPLES).collect();
    let (wall_job, results) = fastest(|| {
        let job = job_setup(ctx, 0);
        let result = run_one_job(&job, ctx.threads);
        std::fs::remove_dir_all(&job.dir).ok();
        result
    });
    let plain = |sweep: &Sweep| {
        fastest(|| {
            algs.iter()
                .map(|alg| {
                    estimate_expected_complexity_sweep(alg.as_ref(), JOB_N, &seeds, &cfg, sweep)
                        .map_err(|e| format!("{}: {e:?}", alg.name()))
                })
                .collect::<Result<Vec<ExpectationReport>, String>>()
        })
    };
    let (wall_n, plain_n) = plain(&Sweep::with_threads(ctx.threads));
    let (wall_1, plain_1) = plain(&Sweep::sequential());
    let mut tracer = Tracer::off();
    let (wall_ct, composed) = fastest(|| {
        tracer = Tracer::recording(4 * JOB_SAMPLES as usize * algs.len());
        compose_job(algs, None, &mut tracer)
    });

    out.attempted = 4 * TRACE_ROUNDS as u64 * 2 * JOB_SAMPLES;
    let mut counted = JobComposed::default();
    let mut tables = Vec::new();
    for reports in plain_n.iter().chain(&plain_1) {
        tables.push(reports.clone().map(|r| (e6_artifact(&r), r)));
    }
    for c in composed {
        tables.push(c.map(|c| {
            let table = (e6_artifact(&c.reports), c.reports.clone());
            counted = c;
            table
        }));
    }
    match tables.iter().find_map(|t| t.as_ref().ok()) {
        Some((reference, reports)) => {
            for result in &results {
                out.failed += check_job(result, reports, &mut out);
            }
            for table in &tables {
                match table {
                    Ok((rows, _)) if rows == reference => {}
                    Ok(_) => out.problem("sweep rows differ between runs".to_string()),
                    Err(e) => out.problem(format!("sweep failed: {e}")),
                }
            }
        }
        None => {
            out.problem("every sweep failed".to_string());
            out.failed = out.attempted;
        }
    }
    write_spans(ctx, "adversary-job", &tracer, &mut out);

    let layers = layer_totals(tracer.spans());
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let m = LayerMetrics {
        all_run: (layer("core.all_run"), counted.events, counted.rounds),
        wakeup: layer("core.wakeup"),
        job_self_s: wall_job - wall_n,
        job_checkpoints: results[0].checkpoints,
        job_dir_bytes: results[0].dir_bytes,
        speedup: wall_1 / wall_n,
        threads: ctx.threads,
        overhead_s: wall_ct - wall_1,
        ..LayerMetrics::default()
    };
    m.emit(&mut out);
    out.detail(
        "wall_job_s",
        wall_job,
        "s",
        format!("{} threads", ctx.threads),
    );
    out.detail("wall_plain_nproc_s", wall_n, "s", String::new());
    out.detail("wall_plain_1thread_s", wall_1, "s", String::new());
    out.detail(
        "compose_traced_s",
        wall_ct,
        "s",
        format!("{} spans", tracer.spans().len()),
    );
    out
}
