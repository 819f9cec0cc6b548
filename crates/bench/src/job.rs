//! Checkpointed, resumable sweep jobs.
//!
//! The `2^n` subset sweeps (E4/E13), the sampled expectation sweep
//! (E6), and the chaos degradation sweep (E20, simulator half) are the
//! repository's longest-running workloads, and a plain `table_e*`
//! invocation loses everything when the process dies. A *job* runs the
//! experiment's [`Grid`] — the description its table binary folds in
//! memory — one chunk of the flat trial index space at a time, on an
//! ordinary [`Sweep`], and after every chunk persists the accumulated
//! trial records (through the grid's codec) as an atomic, checksummed
//! checkpoint ([`llsc_shmem::checkpoint`]). The artifact is the grid's
//! fold of those records, so a job killed at *any* point — `SIGKILL`
//! included — resumes from its newest valid checkpoint to the table
//! binary's artifact, byte for byte, at any thread count.
//!
//! Trial failures are records: a stalled or panicking trial is
//! checkpointed as a `failure` record with its reproducer, a refuted
//! check is a failure of the fold, and either way the artifact lists it,
//! the manifest counts it (`failed_trials`) and [`job_exit_code`] is 1.
//! Only run errors, timeouts and interrupts fail a chunk attempt:
//!
//! * **chunk watchdog** — each chunk attempt runs its sweeps under a
//!   fresh cancel token ([`Sweep::with_cancel`]) and an optional
//!   wall-clock deadline; on expiry the runner raises the token, the
//!   attempt's in-flight trials stop at their next executor poll, and
//!   the attempt is recorded as a timeout. No other sweep in the process
//!   sees the token.
//! * **bounded retry with deterministic backoff** — a failed chunk
//!   attempt sleeps `backoff_ms · 2^attempt` and retries, up to the
//!   spec's retry budget.
//! * **interrupt flush** — a [`JobControl`] interrupt flag (wired to
//!   SIGINT/SIGTERM by the `llsc job` CLI) raises the in-flight chunk's
//!   token the same way, flushes a final checkpoint, and exits with the
//!   interrupted status; nothing completed is lost.
//! * **graceful degradation** — a chunk that exhausts its retry budget
//!   is recorded in the job manifest as failed; the job still completes,
//!   emitting a *partial* artifact (rows whose trials all finished) plus
//!   an explicit `incomplete` manifest and a nonzero exit.
//!
//! Layout of a job directory:
//!
//! ```text
//! <dir>/spec.json                  the JobSpec (written by `run`)
//! <dir>/checkpoints/ckpt-*.llsc    rolling checkpoints (2 newest kept)
//! <dir>/artifact.json              final {"tables":[…],"failures":[…]} artifact
//! <dir>/manifest.json              status, chunk ledger, failures
//! ```

use crate::degradation::{Degradation, DegradationGrid, DEFAULT_MAX_EVENTS};
use crate::experiments::{SampleGrid, SubsetGrid};
use crate::grid::{self, field, list_field, push_field, push_list, Grid};
use crate::table::Table;
use llsc_shmem::json;
use llsc_shmem::{atomic_write, checkpoint, Sweep};
use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The experiments a job can drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobExperiment {
    /// E4 — Lemma 5.2 indistinguishability, exhaustive over subsets.
    E4,
    /// E6 — sampled expected complexity of the randomized algorithms.
    E6,
    /// E13 — appendix claims A.2–A.9 + Lemma 5.2, exhaustive over subsets.
    E13,
    /// E20 — chaos degradation classes and recovery RMR cost (the
    /// simulator half; the hardware half is `bench_e20`).
    E20,
}

impl JobExperiment {
    /// Parses the artifact's experiment tag (`"e4"`, `"e6"`, `"e13"`,
    /// `"e20"`).
    ///
    /// # Errors
    ///
    /// Names the unknown tag.
    pub fn parse(tag: &str) -> Result<JobExperiment, String> {
        match tag {
            "e4" => Ok(JobExperiment::E4),
            "e6" => Ok(JobExperiment::E6),
            "e13" => Ok(JobExperiment::E13),
            "e20" => Ok(JobExperiment::E20),
            other => Err(format!(
                "unknown job experiment `{other}` (want e4, e6, e13, or e20)"
            )),
        }
    }

    /// The artifact tag this experiment serialises as.
    pub fn tag(&self) -> &'static str {
        match self {
            JobExperiment::E4 => "e4",
            JobExperiment::E6 => "e6",
            JobExperiment::E13 => "e13",
            JobExperiment::E20 => "e20",
        }
    }
}

/// A resumable job's complete description. Everything a trial's result
/// depends on lives here, so the spec *is* the reproducibility contract:
/// two runs of the same spec — chunked or not, interrupted or not, at any
/// thread count — emit byte-identical artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Which experiment the job drives.
    pub experiment: JobExperiment,
    /// A human-readable job name (recorded in the manifest).
    pub name: String,
    /// The sweep seed; per-trial seeds derive from `(seed, index)`.
    pub seed: u64,
    /// Process counts to sweep.
    pub ns: Vec<usize>,
    /// Toss-assignment seeds (E4 only; `0` means
    /// [`ZeroTosses`](llsc_shmem::ZeroTosses)).
    pub toss_seeds: Vec<u64>,
    /// Toss samples per `(algorithm, n)` estimate (E6), or trials per
    /// `(algorithm, intensity)` cell (E20).
    pub samples: u64,
    /// Chaos intensities to sweep (E20 only).
    pub intensities: Vec<u64>,
    /// Recovery-delay override for E20's crash-recovery arm (`0` keeps
    /// the arm's own regime). Part of the fingerprint: two jobs with
    /// different recovery knobs never share checkpoints.
    pub recovery_delay: u64,
    /// Respawn-budget override for E20's crash-recovery arm (`0` keeps
    /// the arm's own regime).
    pub respawn_budget: u64,
    /// Number of chunks the trial space is partitioned into. Chunk
    /// boundaries depend on this alone — never on the thread count — so
    /// checkpoints from different `--threads` runs are interchangeable.
    pub chunks: usize,
    /// Extra attempts granted to a failing chunk before it is recorded as
    /// permanently failed.
    pub retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps `backoff_ms · 2^k`
    /// before retrying (deterministic, no jitter).
    pub backoff_ms: u64,
    /// Per-chunk wall-clock watchdog in milliseconds (`0` disables it).
    pub chunk_timeout_ms: u64,
    /// Per-trial executor event budget override (`0` keeps the default).
    /// Starving it is the supported way to exercise the retry-exhaustion
    /// path end to end.
    pub max_events: u64,
}

impl JobSpec {
    /// The default spec for an experiment — the same parameter grid the
    /// experiment's `table_*` binary uses, split into 8 chunks with a
    /// small retry budget.
    pub fn default_for(experiment: JobExperiment) -> JobSpec {
        let (ns, toss_seeds, samples, intensities) = match experiment {
            JobExperiment::E4 => (vec![4, 6], vec![0, 1, 42], 0, vec![]),
            JobExperiment::E6 => (vec![4, 16, 64], vec![], 30, vec![]),
            JobExperiment::E13 => (vec![4, 6], vec![], 0, vec![]),
            // The table_e20 grid: 6 algorithms x 4 intensities x 6 reps.
            JobExperiment::E20 => (vec![8], vec![], 6, vec![0, 1, 2, 4]),
        };
        JobSpec {
            experiment,
            name: format!("{}-job", experiment.tag()),
            seed: 0,
            ns,
            toss_seeds,
            samples,
            intensities,
            recovery_delay: 0,
            respawn_budget: 0,
            chunks: 8,
            retries: 2,
            backoff_ms: 50,
            chunk_timeout_ms: 0,
            max_events: 0,
        }
    }

    /// Renders the spec in its canonical JSON form (all scalars as
    /// strings, fixed key order — the form [`JobSpec::fingerprint`]
    /// hashes).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"version\":\"1\"");
        push_field(&mut out, "experiment", self.experiment.tag());
        push_field(&mut out, "name", &self.name);
        push_field(&mut out, "seed", self.seed);
        push_list(&mut out, "ns", &self.ns);
        push_list(&mut out, "toss_seeds", &self.toss_seeds);
        push_list(&mut out, "intensities", &self.intensities);
        for (key, value) in [
            ("samples", self.samples),
            ("recovery_delay", self.recovery_delay),
            ("respawn_budget", self.respawn_budget),
            ("chunks", self.chunks as u64),
            ("retries", u64::from(self.retries)),
            ("backoff_ms", self.backoff_ms),
            ("chunk_timeout_ms", self.chunk_timeout_ms),
            ("max_events", self.max_events),
        ] {
            push_field(&mut out, key, value);
        }
        out.push_str("}\n");
        out
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Names the first missing, malformed or invalid field.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let value = json::parse(text)?;
        let spec = (|| -> Result<JobSpec, String> {
            let version: String = field(&value, "version")?;
            if version != "1" {
                return Err(format!("unsupported version `{version}`"));
            }
            Ok(JobSpec {
                experiment: JobExperiment::parse(&field::<String>(&value, "experiment")?)?,
                name: field(&value, "name")?,
                seed: field(&value, "seed")?,
                ns: list_field(&value, "ns")?,
                toss_seeds: list_field(&value, "toss_seeds")?,
                samples: field(&value, "samples")?,
                intensities: list_field(&value, "intensities")?,
                recovery_delay: field(&value, "recovery_delay")?,
                respawn_budget: field(&value, "respawn_budget")?,
                chunks: field(&value, "chunks")?,
                retries: field(&value, "retries")?,
                backoff_ms: field(&value, "backoff_ms")?,
                chunk_timeout_ms: field(&value, "chunk_timeout_ms")?,
                max_events: field(&value, "max_events")?,
            })
        })()
        .map_err(|e| format!("job spec: {e}"))?;
        if spec.chunks == 0 {
            return Err("job spec: `chunks` must be at least 1".into());
        }
        if spec.ns.is_empty() {
            return Err("job spec: `ns` must not be empty".into());
        }
        if spec.ns.contains(&0) {
            return Err("job spec: every n must be positive".into());
        }
        if matches!(spec.experiment, JobExperiment::E4 | JobExperiment::E13)
            && spec.ns.iter().any(|&n| n > 16)
        {
            return Err("job spec: exhaustive subset sweeps need n <= 16".into());
        }
        match spec.experiment {
            JobExperiment::E4 if spec.toss_seeds.is_empty() => {
                Err("job spec: e4 needs at least one toss seed".into())
            }
            JobExperiment::E6 if spec.samples == 0 => {
                Err("job spec: e6 needs at least one sample".into())
            }
            JobExperiment::E20 if spec.ns.len() != 1 => {
                Err("job spec: e20 sweeps exactly one n per job".into())
            }
            JobExperiment::E20 if spec.intensities.is_empty() => {
                Err("job spec: e20 needs at least one intensity".into())
            }
            JobExperiment::E20 if spec.samples == 0 => {
                Err("job spec: e20 needs at least one trial per cell".into())
            }
            _ => Ok(spec),
        }
    }

    /// The FNV-1a fingerprint of the canonical rendering — recorded in
    /// every checkpoint so `resume` refuses state from a different spec.
    pub fn fingerprint(&self) -> u64 {
        llsc_shmem::fnv64(self.render().as_bytes())
    }

    /// The spec's grid — the one map from experiment to the description
    /// its table binary folds — with the spec's overrides applied.
    fn grid(&self) -> Box<dyn SpecGrid> {
        let (ns, max_events) = (&self.ns, self.max_events);
        match self.experiment {
            JobExperiment::E4 => Box::new(SubsetGrid::new(ns, &self.toss_seeds, false, max_events)),
            JobExperiment::E13 => Box::new(SubsetGrid::new(ns, &[0], true, max_events)),
            JobExperiment::E6 => Box::new(SampleGrid::new(ns, self.samples, max_events)),
            JobExperiment::E20 => {
                let levels: Vec<usize> = self.intensities.iter().map(|&i| i as usize).collect();
                let max_events = if max_events > 0 {
                    max_events
                } else {
                    DEFAULT_MAX_EVENTS
                };
                let n = ns.first().copied().unwrap_or_default();
                let kind = Degradation::ChaosRecovery;
                Box::new(
                    DegradationGrid::new(kind, n, &levels, self.samples as usize, max_events)
                        .with_recovery(self.recovery_delay, self.respawn_budget),
                )
            }
        }
    }

    /// Total trials in the job's flat index space.
    pub fn total_trials(&self) -> usize {
        self.grid().total()
    }
}

/// The job engine's view of a [`Grid`], its trial type erased.
trait SpecGrid {
    fn total(&self) -> usize;

    fn drive(
        &self,
        dir: &Path,
        spec: &JobSpec,
        loaded: Option<checkpoint::LoadedCheckpoint>,
        threads: usize,
        control: &JobControl,
    ) -> Result<JobReport, String>;
}

impl<G: Grid> SpecGrid for G {
    fn total(&self) -> usize {
        grid::total(self)
    }

    fn drive(
        &self,
        dir: &Path,
        spec: &JobSpec,
        loaded: Option<checkpoint::LoadedCheckpoint>,
        threads: usize,
        control: &JobControl,
    ) -> Result<JobReport, String> {
        drive(self, dir, spec, loaded, threads, control)
    }
}

/// Splits `total` trials into `chunks` contiguous `(start, len)` ranges,
/// the first `total % chunks` of them one trial longer. Depends only on
/// its arguments, so chunk boundaries are stable across invocations.
pub fn chunk_bounds(total: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, total.max(1));
    let base = total / chunks;
    let extra = total % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        bounds.push((start, len));
        start += len;
    }
    bounds
}

/// A chunk that exhausted its retry budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkFailure {
    /// The failed chunk's index.
    pub chunk: usize,
    /// Attempts consumed (1 + retries).
    pub attempts: u32,
    /// Failure kind: `run-error`, `panic`, or `timeout`.
    pub kind: String,
    /// The last attempt's error message.
    pub message: String,
    /// What the chunk covers — experiment, trial range, and the
    /// overlapped `(algorithm, n, toss seed)` cells — enough to reproduce
    /// the failure by re-running this spec's chunk alone.
    pub context: String,
}

/// How a job invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Every chunk completed; the artifact is whole.
    Complete,
    /// At least one chunk exhausted its retry budget; the artifact is
    /// partial and the manifest lists what is missing.
    Incomplete,
    /// The run was interrupted (signal or [`JobControl`] stop); resume
    /// with `llsc job resume`.
    Interrupted,
}

impl JobStatus {
    /// The manifest's status string.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Complete => "complete",
            JobStatus::Incomplete => "incomplete",
            JobStatus::Interrupted => "interrupted",
        }
    }
}

/// Cooperative control handles for a running job: an interrupt flag (the
/// CLI wires SIGINT/SIGTERM to it) and a deterministic stop-after hook
/// used by the kill/resume tests to simulate a crash at an exact chunk
/// boundary.
#[derive(Clone, Debug, Default)]
pub struct JobControl {
    /// Set to request a graceful stop: the in-flight chunk is aborted,
    /// a final checkpoint is flushed, and the runner returns
    /// [`JobStatus::Interrupted`].
    pub interrupt: Arc<AtomicBool>,
    /// Stop (as if interrupted) after this many chunks have been
    /// *executed by this invocation* — a crash simulation for tests.
    pub stop_after_chunks: Option<usize>,
}

impl JobControl {
    /// A control handle that never interrupts.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    fn interrupted(&self) -> bool {
        self.interrupt.load(Ordering::SeqCst)
    }
}

/// What a job invocation did, for the CLI to report and map to an exit
/// code.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// How the invocation ended.
    pub status: JobStatus,
    /// Chunks completed over the job's lifetime (including prior
    /// invocations).
    pub completed_chunks: usize,
    /// Total chunks in the spec.
    pub total_chunks: usize,
    /// Chunks that exhausted their retry budget in this invocation.
    pub failed: Vec<ChunkFailure>,
    /// Failures the artifact lists: failed trials and refuted checks of
    /// the rows it holds.
    pub failed_trials: usize,
    /// Checkpoints that were skipped as invalid while loading state.
    pub fallback_notes: Vec<String>,
    /// The final artifact path (written unless the run was interrupted).
    pub artifact: Option<PathBuf>,
}

/// In-memory job state, round-tripped through checkpoints.
struct JobState<T> {
    completed: BTreeSet<usize>,
    /// The recorded trials' global indices, ascending.
    indices: Vec<usize>,
    /// Their results, in the same order.
    trials: Vec<T>,
    next_seq: u64,
    fallback_notes: Vec<String>,
}

impl<T> JobState<T> {
    fn fresh() -> JobState<T> {
        JobState {
            completed: BTreeSet::new(),
            indices: Vec::new(),
            trials: Vec::new(),
            next_seq: 1,
            fallback_notes: Vec::new(),
        }
    }

    /// Records the results of trials `start .. start + trials.len()`,
    /// replacing any already recorded there.
    fn insert(&mut self, start: usize, trials: Vec<T>) {
        let end = start + trials.len();
        let lo = self.indices.partition_point(|&i| i < start);
        let hi = self.indices.partition_point(|&i| i < end);
        self.indices.splice(lo..hi, start..end);
        self.trials.splice(lo..hi, trials);
    }

    /// Each cell's results, or `None` where some are missing.
    fn by_cell(&self, cells: &[Range<usize>]) -> Vec<Option<&[T]>> {
        cells
            .iter()
            .map(|cell| {
                let lo = self.indices.partition_point(|&i| i < cell.start);
                let hi = self.indices.partition_point(|&i| i < cell.end);
                (hi - lo == cell.len()).then(|| &self.trials[lo..hi])
            })
            .collect()
    }
}

fn checkpoint_dir(dir: &Path) -> PathBuf {
    dir.join("checkpoints")
}

/// The spec file inside a job directory.
pub fn spec_path(dir: &Path) -> PathBuf {
    dir.join("spec.json")
}

/// The final artifact inside a job directory.
pub fn artifact_path(dir: &Path) -> PathBuf {
    dir.join("artifact.json")
}

/// The manifest inside a job directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Renders a checkpoint payload: the spec's fingerprint, the completed
/// chunks and one record per trial — its index and cell, then the fields
/// the grid's codec writes.
fn render_checkpoint<G: Grid>(spec: &JobSpec, grid: &G, state: &JobState<G::Trial>) -> String {
    let mut out = String::from("{\"experiment\":");
    json::push_string(&mut out, spec.experiment.tag());
    push_field(
        &mut out,
        "spec_fnv64",
        format!("{:016x}", spec.fingerprint()),
    );
    let rng = "trial seeds derive as split_mix over (seed, index)";
    push_field(
        &mut out,
        "rng",
        format!("sweep_seed={:#018x}; {rng}", spec.seed),
    );
    push_list(&mut out, "completed", &state.completed);
    out.push_str(",\"records\":[");
    let cells = grid.cells();
    for (i, (index, trial)) in state.indices.iter().zip(&state.trials).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"index\":");
        json::push_string(&mut out, &index.to_string());
        push_field(&mut out, "cell", grid::cell_of(cells, *index));
        grid.encode(trial, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Parses a checkpoint payload, checks it belongs to `spec`, and returns
/// it with its completed chunks.
fn open_checkpoint(
    spec: &JobSpec,
    payload: &[u8],
) -> Result<(json::Value, BTreeSet<usize>), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "checkpoint payload is not UTF-8")?;
    let value = json::parse(text)?;
    let fnv: String = field(&value, "spec_fnv64").map_err(|e| format!("checkpoint: {e}"))?;
    let expected = format!("{:016x}", spec.fingerprint());
    if fnv != expected {
        return Err(format!(
            "checkpoint belongs to a different job spec (fingerprint {fnv}, expected {expected})"
        ));
    }
    let completed = list_field(&value, "completed").map_err(|e| format!("checkpoint: {e}"))?;
    Ok((value, completed.into_iter().collect()))
}

/// An opened checkpoint's trial records, still encoded.
fn trial_records(value: &json::Value) -> Result<&[json::Value], String> {
    value
        .field("records")
        .ok_or("checkpoint: missing `records`")?
        .array_or("checkpoint `records`")
}

/// Loads a job's state from a checkpoint, decoding its records with the
/// grid's codec.
fn load_state<G: Grid>(
    spec: &JobSpec,
    grid: &G,
    loaded: &checkpoint::LoadedCheckpoint,
) -> Result<JobState<G::Trial>, String> {
    let (value, completed) = open_checkpoint(spec, &loaded.payload)?;
    let mut records = trial_records(&value)?
        .iter()
        .map(|record| {
            let index = field(record, "index")?;
            Ok((index, grid.decode(index, record)?))
        })
        .collect::<Result<Vec<(usize, G::Trial)>, String>>()
        .map_err(|e| format!("trial record: {e}"))?;
    records.sort_by_key(|r| r.0);
    records.dedup_by_key(|r| r.0);
    let (indices, trials) = records.into_iter().unzip();
    Ok(JobState {
        completed,
        indices,
        trials,
        next_seq: loaded.seq + 1,
        fallback_notes: loaded
            .skipped
            .iter()
            .map(|s| format!("seq={}: {}", s.seq, s.error))
            .collect(),
    })
}

/// How one chunk attempt ended.
enum AttemptOutcome<T> {
    Success(T),
    Interrupted,
    Failed { kind: &'static str, message: String },
}

/// Runs one chunk attempt under the wall-clock watchdog and the
/// interrupt flag. The body executes on a scoped worker thread and runs
/// its sweeps on `sweep` with a fresh cancel token; on timeout or
/// interrupt the monitor raises that token, the body's in-flight trials
/// stop at their next executor poll, and the attempt is classified from
/// what the monitor saw. A body that returns after the token was raised
/// produced no result — it may carry the cancelled trials as failures —
/// so it is classified like one that unwound or returned an error.
fn run_chunk_guarded<T: Send>(
    timeout: Option<Duration>,
    interrupt: &AtomicBool,
    sweep: Sweep,
    body: impl FnOnce(&Sweep) -> Result<T, String> + Send,
) -> AttemptOutcome<T> {
    let cancel = Arc::new(AtomicBool::new(false));
    let sweep = sweep.with_cancel(cancel.clone());
    let done = AtomicBool::new(false);
    type Attempt<T> = (std::thread::Result<Result<T, String>>, bool);
    let slot: Mutex<Option<Attempt<T>>> = Mutex::new(None);
    let (mut interrupted, mut timed_out) = (false, false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let result = catch_unwind(AssertUnwindSafe(|| body(&sweep)));
            let cancelled = cancel.load(Ordering::SeqCst);
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some((result, cancelled));
            done.store(true, Ordering::SeqCst);
        });
        let started = Instant::now();
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
            if interrupt.load(Ordering::SeqCst) {
                interrupted = true;
            } else if timeout.is_some_and(|limit| started.elapsed() > limit) {
                timed_out = true;
            }
            if interrupted || timed_out {
                cancel.store(true, Ordering::SeqCst);
            }
        }
    });
    let (result, cancelled) = slot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .expect("worker stored its result before setting done");
    let (kind, message) = match result {
        Ok(Ok(trials)) if !cancelled => return AttemptOutcome::Success(trials),
        Ok(Ok(_)) => ("run-error", "its trials were cancelled".to_string()),
        Ok(Err(message)) => ("run-error", message),
        Err(panic) => ("panic", llsc_shmem::panic_message(panic.as_ref())),
    };
    if interrupted {
        AttemptOutcome::Interrupted
    } else if timed_out {
        AttemptOutcome::Failed {
            kind: "timeout",
            message: format!("chunk exceeded its wall-clock budget ({message})"),
        }
    } else {
        AttemptOutcome::Failed { kind, message }
    }
}

fn render_manifest<T, R>(
    spec: &JobSpec,
    status: JobStatus,
    state: &JobState<T>,
    total_trials: usize,
    total_chunks: usize,
    failed: &[ChunkFailure],
    fold: &grid::Fold<R>,
) -> String {
    let mut out = String::from("{\"name\":");
    json::push_string(&mut out, &spec.name);
    push_field(&mut out, "experiment", spec.experiment.tag());
    push_field(&mut out, "status", status.tag());
    for (key, value) in [
        ("chunks", total_chunks),
        ("completed", state.completed.len()),
        ("trials", state.trials.len()),
        ("total_trials", total_trials),
        ("failed_trials", fold.failures.len()),
    ] {
        push_field(&mut out, key, value);
    }
    push_list(&mut out, "incomplete_rows", &fold.incomplete);
    out.push_str(",\"failed\":[");
    for (i, f) in failed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"chunk\":");
        json::push_string(&mut out, &f.chunk.to_string());
        push_field(&mut out, "attempts", f.attempts);
        push_field(&mut out, "kind", &f.kind);
        push_field(&mut out, "message", &f.message);
        push_field(&mut out, "context", &f.context);
        out.push('}');
    }
    out.push(']');
    push_list(&mut out, "fallback_checkpoints", &state.fallback_notes);
    out.push_str("}\n");
    out
}

/// Starts a job in `dir` from `spec`, writing `spec.json` first. Refuses
/// a directory that already has checkpoints (resume instead).
///
/// # Errors
///
/// An invalid spec, I/O errors, or a populated checkpoint directory;
/// chunk execution errors surface through the returned report's `failed`
/// list.
pub fn run_job(
    dir: &Path,
    spec: &JobSpec,
    threads: usize,
    control: &JobControl,
) -> Result<JobReport, String> {
    let spec = JobSpec::parse(&spec.render())?;
    if !checkpoint::list_seqs(&checkpoint_dir(dir)).is_empty() {
        return Err(format!(
            "{} already has checkpoints; use `llsc job resume`",
            dir.display()
        ));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    atomic_write(&spec_path(dir), spec.render())
        .map_err(|e| format!("cannot write {}: {e}", spec_path(dir).display()))?;
    spec.grid().drive(dir, &spec, None, threads, control)
}

/// Resumes the job in `dir` from its newest valid checkpoint (or from
/// scratch when no checkpoint survived), re-executing only missing
/// chunks. Previously failed chunks get a fresh retry budget.
///
/// # Errors
///
/// A missing or unparseable `spec.json`, or a checkpoint that belongs to
/// a different spec.
pub fn resume_job(dir: &Path, threads: usize, control: &JobControl) -> Result<JobReport, String> {
    let spec = load_spec(dir)?;
    let loaded = checkpoint::load_latest(&checkpoint_dir(dir));
    spec.grid().drive(dir, &spec, loaded, threads, control)
}

/// Loads a job directory's spec.
///
/// # Errors
///
/// A missing or unparseable `spec.json`.
pub fn load_spec(dir: &Path) -> Result<JobSpec, String> {
    let path = spec_path(dir);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JobSpec::parse(&text)
}

/// The job loop on `grid`: runs every chunk not yet completed (from
/// `loaded`'s state, or from scratch), checkpointing after each, then
/// writes the grid's fold as the artifact, and the manifest.
fn drive<G: Grid>(
    grid: &G,
    dir: &Path,
    spec: &JobSpec,
    loaded: Option<checkpoint::LoadedCheckpoint>,
    threads: usize,
    control: &JobControl,
) -> Result<JobReport, String> {
    let mut state = match &loaded {
        Some(loaded) => load_state(spec, grid, loaded)?,
        None => JobState::fresh(),
    };
    let total = grid::total(grid);
    let bounds = chunk_bounds(total, spec.chunks);
    let ckpt_dir = checkpoint_dir(dir);
    let flush = |state: &mut JobState<G::Trial>| {
        let payload = render_checkpoint(spec, grid, state);
        checkpoint::write(&ckpt_dir, state.next_seq, payload.as_bytes())
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
        state.next_seq += 1;
        Ok::<(), String>(())
    };
    let mut failed: Vec<ChunkFailure> = Vec::new();
    let mut executed = 0usize;
    let mut interrupted = false;

    for (chunk, &(start, len)) in bounds.iter().enumerate() {
        if state.completed.contains(&chunk) {
            continue;
        }
        if control.interrupted() || control.stop_after_chunks.is_some_and(|cap| executed >= cap) {
            interrupted = true;
            break;
        }

        let span = start..start + len;
        let attempts = 1 + spec.retries;
        let mut last_failure: Option<(&'static str, String)> = None;
        for attempt in 0..attempts {
            if attempt > 0 && spec.backoff_ms > 0 {
                // Deterministic exponential backoff, interrupt-aware.
                let sleep = Duration::from_millis(spec.backoff_ms << (attempt - 1));
                let waited = Instant::now();
                while waited.elapsed() < sleep && !control.interrupted() {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            if control.interrupted() {
                interrupted = true;
                break;
            }
            let timeout =
                (spec.chunk_timeout_ms > 0).then(|| Duration::from_millis(spec.chunk_timeout_ms));
            let sweep = Sweep::with_threads(threads).seeded(spec.seed);
            let outcome = run_chunk_guarded(timeout, &control.interrupt, sweep, |sweep| {
                grid.run(span.clone(), sweep)
            });
            match outcome {
                AttemptOutcome::Success(trials) => {
                    state.insert(start, trials);
                    state.completed.insert(chunk);
                    last_failure = None;
                    break;
                }
                AttemptOutcome::Interrupted => {
                    interrupted = true;
                    break;
                }
                AttemptOutcome::Failed { kind, message } => {
                    last_failure = Some((kind, message));
                }
            }
        }
        if let Some((kind, message)) = last_failure {
            failed.push(ChunkFailure {
                chunk,
                attempts,
                kind: kind.to_string(),
                message,
                context: format!(
                    "{} trials {start}..{}: {}",
                    spec.experiment.tag(),
                    span.end,
                    grid::span_labels(grid, span.clone())
                ),
            });
        }
        executed += 1;
        flush(&mut state)?;
        if interrupted {
            break;
        }
    }
    // Flush a final checkpoint so even a run interrupted before its first
    // chunk boundary leaves a resumable, validated state on disk.
    flush(&mut state)?;

    let status = if interrupted || control.interrupted() {
        JobStatus::Interrupted
    } else if failed.is_empty() && state.completed.len() == bounds.len() {
        JobStatus::Complete
    } else {
        JobStatus::Incomplete
    };

    let fold = grid.fold(&state.by_cell(grid.cells()));
    let artifact = if status == JobStatus::Interrupted {
        None
    } else {
        let path = artifact_path(dir);
        let rendered = Table::render_json_artifact_with_failures(&[&fold.table], &fold.failures);
        atomic_write(&path, rendered)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some(path)
    };
    let manifest = render_manifest(spec, status, &state, total, bounds.len(), &failed, &fold);
    atomic_write(&manifest_path(dir), manifest)
        .map_err(|e| format!("cannot write {}: {e}", manifest_path(dir).display()))?;

    Ok(JobReport {
        status,
        completed_chunks: state.completed.len(),
        total_chunks: bounds.len(),
        failed,
        failed_trials: fold.failures.len(),
        fallback_notes: state.fallback_notes,
        artifact,
    })
}

/// The exit code a job outcome maps to: 0 complete with no failures, 1
/// complete with failures in its artifact (the table binaries' contract)
/// or incomplete (partial artifact + manifest), 130 interrupted (resume
/// to continue).
pub fn job_exit_code(report: &JobReport) -> u8 {
    match report.status {
        JobStatus::Complete if report.failed_trials == 0 => 0,
        JobStatus::Complete | JobStatus::Incomplete => 1,
        JobStatus::Interrupted => 130,
    }
}

/// Renders a human-readable status report for the job in `dir` without
/// executing anything: spec summary, checkpoint progress, and — when a
/// manifest exists — the last invocation's outcome.
///
/// # Errors
///
/// A missing or unparseable `spec.json`, or an unreadable checkpoint
/// that matches a different spec.
pub fn job_status(dir: &Path) -> Result<String, String> {
    let spec = load_spec(dir)?;
    let bounds = chunk_bounds(spec.total_trials(), spec.chunks);
    let mut out = format!(
        "job `{}` ({}) in {}\n  trials: {} in {} chunk(s), sweep seed {:#018x}\n",
        spec.name,
        spec.experiment.tag(),
        dir.display(),
        spec.total_trials(),
        bounds.len(),
        spec.seed,
    );
    match checkpoint::load_latest(&checkpoint_dir(dir)) {
        Some(loaded) => {
            let (value, completed) = open_checkpoint(&spec, &loaded.payload)?;
            out.push_str(&format!(
                "  checkpoint: seq {} with {}/{} chunk(s) complete, {} trial record(s)\n",
                loaded.seq,
                completed.len(),
                bounds.len(),
                trial_records(&value)?.len(),
            ));
            for s in &loaded.skipped {
                out.push_str(&format!(
                    "  skipped invalid checkpoint seq={}: {}\n",
                    s.seq, s.error
                ));
            }
        }
        None => out.push_str("  checkpoint: none\n"),
    }
    if let Ok(manifest) = std::fs::read_to_string(manifest_path(dir)) {
        if let Ok(value) = json::parse(&manifest) {
            let text = |key: &str| value.field(key).and_then(json::Value::as_str);
            if let Some(status) = text("status") {
                out.push_str(&format!("  last invocation: {status}\n"));
            }
            if let Some(failed) = text("failed_trials").filter(|&n| n != "0") {
                out.push_str(&format!("  failed trials: {failed}\n"));
            }
            if let Some(failed) = value.field("failed").and_then(json::Value::as_array) {
                for f in failed {
                    let chunk = f
                        .field("chunk")
                        .and_then(json::Value::as_str)
                        .unwrap_or("?");
                    let kind = f.field("kind").and_then(json::Value::as_str).unwrap_or("?");
                    out.push_str(&format!("  failed chunk {chunk}: {kind}\n"));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degradation::TrialResult;
    use crate::repro::CaseCounters;
    use llsc_core::{ExpectationSample, SubsetTrialRecord};
    use llsc_shmem::rng::trial_seed;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("llsc-job-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_e4_spec() -> JobSpec {
        JobSpec {
            ns: vec![3],
            toss_seeds: vec![0],
            chunks: 4,
            retries: 0,
            backoff_ms: 0,
            ..JobSpec::default_for(JobExperiment::E4)
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        for experiment in [
            JobExperiment::E4,
            JobExperiment::E6,
            JobExperiment::E13,
            JobExperiment::E20,
        ] {
            let spec = JobSpec::default_for(experiment);
            let back = JobSpec::parse(&spec.render()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.fingerprint(), spec.fingerprint());
        }
    }

    #[test]
    fn spec_parse_rejects_bad_documents() {
        assert!(JobSpec::parse("{}").is_err());
        assert!(JobSpec::parse("not json").is_err());
        let spec = JobSpec::default_for(JobExperiment::E4);
        assert!(JobSpec::parse(&spec.render().replace("\"e4\"", "\"e99\"")).is_err());
        assert!(JobSpec::parse(
            &spec
                .render()
                .replace("\"version\":\"1\"", "\"version\":\"2\"")
        )
        .is_err());
        let no_chunks = JobSpec { chunks: 0, ..spec };
        assert!(JobSpec::parse(&no_chunks.render()).is_err());
    }

    #[test]
    fn chunk_bounds_partition_the_space() {
        assert_eq!(chunk_bounds(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(chunk_bounds(4, 8), vec![(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(chunk_bounds(0, 3), vec![(0, 0)]);
        let bounds = chunk_bounds(97, 8);
        assert_eq!(bounds.len(), 8);
        assert_eq!(bounds.iter().map(|&(_, l)| l).sum::<usize>(), 97);
        let mut expected = 0;
        for (start, len) in bounds {
            assert_eq!(start, expected);
            expected = start + len;
        }
    }

    #[test]
    fn cells_cover_the_trial_space_in_row_order() {
        let spec = tiny_e4_spec();
        let grid = SubsetGrid::new(&spec.ns, &spec.toss_seeds, false, 0);
        let cells = grid.cells();
        assert_eq!(cells.len(), 6, "6 algorithms x 1 n x 1 toss seed");
        assert_eq!(spec.total_trials(), 6 * 8);
        assert_eq!(cells[0].start, 0);
        assert_eq!(cells[5].start, 40);
        assert_eq!(
            grid::span_labels(&grid, 7..9),
            "alg=counter-wakeup n=3 toss_seed=0; alg=bitset-wakeup n=3 toss_seed=0"
        );
        let e6 = JobSpec {
            ns: vec![4, 8],
            samples: 5,
            ..JobSpec::default_for(JobExperiment::E6)
        };
        assert_eq!(e6.total_trials(), 2 * 2 * 5);
    }

    /// Runs `spec` to completion as a job in a fresh directory and
    /// returns its report and artifact.
    fn run_to_artifact(name: &str, spec: &JobSpec) -> (JobReport, String) {
        let dir = scratch_dir(name);
        let report = run_job(&dir, spec, 2, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Complete, "{:?}", report.failed);
        let artifact = std::fs::read_to_string(artifact_path(&dir)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (report, artifact)
    }

    #[test]
    fn complete_job_artifact_matches_the_table_binary() {
        let direct = crate::e4_indistinguishability(&[3], &[0], &Sweep::sequential());
        let (_, artifact) = run_to_artifact("e4-identity", &tiny_e4_spec());
        assert_eq!(artifact, Table::render_json_artifact(&[&direct.table]));
    }

    #[test]
    fn stop_and_resume_reproduces_the_uninterrupted_artifact() {
        let dir = scratch_dir("e13-resume");
        let spec = JobSpec {
            ns: vec![4],
            chunks: 5,
            retries: 0,
            backoff_ms: 0,
            ..JobSpec::default_for(JobExperiment::E13)
        };
        let stopper = JobControl {
            stop_after_chunks: Some(2),
            ..JobControl::new()
        };
        let first = run_job(&dir, &spec, 1, &stopper).unwrap();
        assert_eq!(first.status, JobStatus::Interrupted);
        assert_eq!(first.completed_chunks, 2);
        assert!(first.artifact.is_none());
        // Resume at a different thread count.
        let second = resume_job(&dir, 3, &JobControl::new()).unwrap();
        assert_eq!(second.status, JobStatus::Complete);
        let resumed = std::fs::read_to_string(second.artifact.unwrap()).unwrap();

        let clean_dir = scratch_dir("e13-clean");
        let clean = run_job(&clean_dir, &spec, 2, &JobControl::new()).unwrap();
        let uninterrupted = std::fs::read_to_string(clean.artifact.unwrap()).unwrap();
        assert_eq!(resumed, uninterrupted);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn e20_job_artifact_matches_the_chaos_sweep() {
        let spec = JobSpec {
            ns: vec![4],
            intensities: vec![0, 2],
            samples: 2,
            chunks: 3,
            ..JobSpec::default_for(JobExperiment::E20)
        };
        let (direct, failures) = crate::degradation_sweep(
            Degradation::ChaosRecovery,
            4,
            &[0, 2],
            2,
            DEFAULT_MAX_EVENTS,
            &Sweep::sequential(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        let (_, artifact) = run_to_artifact("e20-identity", &spec);
        assert_eq!(artifact, Table::render_json_artifact(&[&direct.table]));
    }

    #[test]
    fn starved_e20_trials_are_records_not_failed_chunks() {
        // A stalled trial fails alone: the chunk completes, every trial is
        // recorded, and the artifact is the table path's, reproducers
        // included.
        let spec = JobSpec {
            ns: vec![4],
            intensities: vec![0],
            samples: 2,
            chunks: 1,
            max_events: 40,
            ..JobSpec::default_for(JobExperiment::E20)
        };
        let kind = Degradation::ChaosRecovery;
        let (direct, failures) =
            crate::degradation_sweep(kind, 4, &[0], 2, 40, &Sweep::sequential());
        assert!(!failures.is_empty() && failures.iter().all(|f| f.repro.is_some()));
        let dir = scratch_dir("e20-starved");
        let report = run_job(&dir, &spec, 2, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Complete);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(report.failed_trials, failures.len());
        assert_eq!(job_exit_code(&report), 1, "failures in the artifact exit 1");
        let manifest = std::fs::read_to_string(manifest_path(&dir)).unwrap();
        let counts = format!(
            "\"trials\":\"12\",\"total_trials\":\"12\",\"failed_trials\":\"{}\"",
            failures.len()
        );
        assert!(manifest.contains(&counts), "{manifest}");
        assert_eq!(
            std::fs::read_to_string(artifact_path(&dir)).unwrap(),
            Table::render_json_artifact_with_failures(&[&direct.table], &failures)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn e20_recovery_knobs_change_the_fingerprint() {
        let base = JobSpec::default_for(JobExperiment::E20);
        let tightened = JobSpec {
            respawn_budget: 1,
            ..base.clone()
        };
        let delayed = JobSpec {
            recovery_delay: 7,
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), tightened.fingerprint());
        assert_ne!(base.fingerprint(), delayed.fingerprint());
        let widened = JobSpec {
            intensities: vec![0, 1, 2, 4, 8],
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), widened.fingerprint());
    }

    #[test]
    fn e6_job_matches_the_expectation_sweep() {
        let spec = JobSpec {
            ns: vec![4],
            samples: 6,
            chunks: 3,
            ..JobSpec::default_for(JobExperiment::E6)
        };
        let direct = crate::e6_randomized_expectation(&[4], 6, &Sweep::sequential());
        let (_, artifact) = run_to_artifact("e6-identity", &spec);
        assert_eq!(artifact, Table::render_json_artifact(&[&direct.table]));
    }

    #[test]
    fn retry_exhaustion_degrades_to_an_incomplete_manifest() {
        let dir = scratch_dir("starved");
        let spec = JobSpec {
            ns: vec![3],
            toss_seeds: vec![0],
            chunks: 2,
            retries: 1,
            backoff_ms: 1,
            max_events: 1, // starve the executor: every chunk fails
            ..JobSpec::default_for(JobExperiment::E4)
        };
        let report = run_job(&dir, &spec, 1, &JobControl::new()).unwrap();
        assert_eq!(report.status, JobStatus::Incomplete);
        assert_eq!(report.failed.len(), 2);
        assert_eq!(report.failed[0].attempts, 2, "1 try + 1 retry");
        assert_eq!(report.failed[0].kind, "run-error");
        assert!(report.failed[0].context.contains("e4 trials 0..24"));
        let manifest = std::fs::read_to_string(manifest_path(&dir)).unwrap();
        assert!(manifest.contains("\"status\":\"incomplete\""));
        assert!(manifest.contains("\"failed\":[{\"chunk\":\"0\""));
        // The partial artifact exists and simply has no completed rows.
        let artifact = std::fs::read_to_string(artifact_path(&dir)).unwrap();
        assert!(artifact.contains("\"rows\":[]"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_refuses_a_directory_with_checkpoints() {
        let dir = scratch_dir("refuse");
        let spec = tiny_e4_spec();
        run_job(&dir, &spec, 1, &JobControl::new()).unwrap();
        let err = run_job(&dir, &spec, 1, &JobControl::new()).unwrap_err();
        assert!(err.contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_spec() {
        let dir = scratch_dir("spec-mismatch");
        run_job(&dir, &tiny_e4_spec(), 1, &JobControl::new()).unwrap();
        // Rewrite the spec with a different grid; the checkpoint's
        // fingerprint no longer matches.
        let other = JobSpec {
            toss_seeds: vec![0, 1],
            ..tiny_e4_spec()
        };
        atomic_write(&spec_path(&dir), other.render()).unwrap();
        let err = resume_job(&dir, 1, &JobControl::new()).unwrap_err();
        assert!(err.contains("different job spec"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_reports_progress_without_executing() {
        let dir = scratch_dir("status");
        let spec = tiny_e4_spec();
        let stopper = JobControl {
            stop_after_chunks: Some(1),
            ..JobControl::new()
        };
        run_job(&dir, &spec, 1, &stopper).unwrap();
        let status = job_status(&dir).unwrap();
        assert!(status.contains("1/4 chunk(s) complete"), "{status}");
        assert!(status.contains("last invocation: interrupted"), "{status}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A chunk body that mimics an executor-polling trial: it spins until
    /// the monitor raises the token it was given, then panics the way the
    /// executor's poll does.
    fn polling_body(sweep: &Sweep) -> Result<(), String> {
        let token = sweep.cancel.as_ref().expect("the attempt carries a token");
        loop {
            if token.load(Ordering::SeqCst) {
                std::panic::panic_any(llsc_shmem::TrialAbort::Cancelled { events: 0 });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A chunk body that mimics a fallible sweep: it waits for the token,
    /// then returns normally, the cancelled trials recorded as failures.
    fn returning_body(sweep: &Sweep) -> Result<(), String> {
        let token = sweep.cancel.as_ref().expect("the attempt carries a token");
        while !token.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    #[test]
    fn guarded_chunk_classifies_interrupts() {
        for body in [polling_body, returning_body] {
            let interrupt = AtomicBool::new(true);
            let outcome = run_chunk_guarded(None, &interrupt, Sweep::sequential(), body);
            assert!(matches!(outcome, AttemptOutcome::Interrupted));
        }
    }

    #[test]
    fn guarded_chunk_classifies_timeouts() {
        let timeout = Some(Duration::from_millis(30));
        for (body, expected) in [
            (
                polling_body as fn(&Sweep) -> Result<(), String>,
                "sweep cancelled after 0 recorded events",
            ),
            (returning_body, "its trials were cancelled"),
        ] {
            let interrupt = AtomicBool::new(false);
            match run_chunk_guarded(timeout, &interrupt, Sweep::sequential(), body) {
                AttemptOutcome::Failed { kind, message } => {
                    assert_eq!(kind, "timeout");
                    assert!(message.contains(expected), "{message}");
                }
                _ => panic!("expected a timeout failure"),
            }
        }
    }

    /// Records `trials` from global index `start` in a checkpoint of
    /// `spec`, loads it back through `grid`'s codec and checks that
    /// nothing changed; returns the payload.
    fn assert_round_trips<G: Grid>(
        spec: &JobSpec,
        grid: &G,
        start: usize,
        trials: Vec<G::Trial>,
    ) -> String
    where
        G::Trial: PartialEq + std::fmt::Debug,
    {
        let mut state = JobState::fresh();
        state.completed = [0, 2].into_iter().collect();
        state.insert(start, trials);
        let loaded = checkpoint::LoadedCheckpoint {
            seq: 4,
            payload: render_checkpoint(spec, grid, &state).into_bytes(),
            skipped: Vec::new(),
        };
        let back = load_state(spec, grid, &loaded).unwrap();
        assert_eq!(back.completed, state.completed);
        assert_eq!((back.indices, back.trials), (state.indices, state.trials));
        assert_eq!(back.next_seq, 5);
        let text = String::from_utf8(loaded.payload).unwrap();
        assert!(text.contains(&format!("{:016x}", spec.fingerprint())));
        assert!(text.contains("trial seeds derive as split_mix"));
        text
    }

    #[test]
    fn trial_records_round_trip_through_checkpoint_json() {
        let subset = SubsetTrialRecord {
            mask: 3,
            comparisons: 17,
            claim_instances: 2,
            events: 0,
            violations: vec!["S={p0}: bad \"state\"".into()],
        };
        let grid = SubsetGrid::new(&[3], &[0], false, 0);
        assert_round_trips(&tiny_e4_spec(), &grid, 3, vec![subset]);

        let spec = JobSpec::default_for(JobExperiment::E6);
        let grid = SampleGrid::new(&spec.ns, spec.samples, 0);
        let sample = ExpectationSample {
            terminated: true,
            wakeup_ok: false,
            winner_steps: Some(4),
            max_steps: None,
        };
        let text = assert_round_trips(&spec, &grid, 9, vec![sample]);
        // `none` is the one spelling of an absent count.
        let garbled = text.replace("\"max_steps\":\"none\"", "\"max_steps\":\"n0ne\"");
        assert_ne!(garbled, text);
        let loaded = checkpoint::LoadedCheckpoint {
            seq: 4,
            payload: garbled.into_bytes(),
            skipped: Vec::new(),
        };
        let err = load_state(&spec, &grid, &loaded)
            .err()
            .expect("a bad count fails to load");
        assert!(err.contains("bad `max_steps`"), "{err}");

        let spec = JobSpec::default_for(JobExperiment::E20);
        let grid = DegradationGrid::new(Degradation::ChaosRecovery, 8, &[0], 6, 40);
        let recovered = TrialResult {
            class: "recovered".into(),
            safe: true,
            counters: CaseCounters {
                spurious_sc: 2,
                cc_rmrs: 7,
                ..CaseCounters::default()
            },
            shrunk: None,
        };
        let failed = llsc_shmem::TrialFailure {
            index: 4,
            seed: 9,
            derived_seed: 10,
            payload: "stalled \"hard\"".into(),
            context: "alg=recoverable-mutex".into(),
            attempts: 2,
            repro: Some("{}".into()),
        };
        assert_round_trips(&spec, &grid, 3, vec![Ok(recovered), Err(failed)]);
        // The provenance helper the rng field documents.
        assert_ne!(trial_seed(spec.seed, 0), trial_seed(spec.seed, 1));
    }
}
