//! One description per checkpointable experiment: grid, trial, fold.
//!
//! E4/E13 ([`crate::SubsetGrid`]), E6 ([`crate::SampleGrid`]) and the
//! degradation experiments ([`crate::degradation::DegradationGrid`]) are
//! each written once, as a [`Grid`]: cells laid out back to back over one
//! flat trial index space, a runner for any range of it, the checkpoint
//! codec of one trial's result, and a fold from results to table, typed
//! rows and failures. The table functions run every cell as
//! one in-memory chunk and fold ([`run_and_fold`]); the job layer
//! ([`crate::job`]) runs the same index space chunk by chunk,
//! checkpoints each chunk through the codec, and folds what it has — so a
//! complete job's artifact is the table's, byte for byte.
//!
//! **A failing trial is a record, not an error.** A degradation trial
//! that stalls or panics comes back from [`Grid::run`] as a
//! [`TrialFailure`] with its reproducer, and a refuted lemma or bound is
//! a failure the fold reports. Only an `Err` from [`Grid::run`] — a run
//! error or an abort — fails the chunk that hit it.

use crate::table::Table;
use llsc_shmem::{json, Sweep, TrialFailure};
use std::fmt::Display;
use std::ops::Range;
use std::str::FromStr;

/// Lays cells of the given lengths out back to back from index 0: a
/// cell is a contiguous range of a grid's flat trial index space.
pub fn tile(lens: impl IntoIterator<Item = usize>) -> Vec<Range<usize>> {
    let mut end = 0;
    lens.into_iter()
        .map(|len| {
            end += len;
            end - len..end
        })
        .collect()
}

/// What a fold produces.
#[derive(Clone, Debug)]
pub struct Fold<R> {
    /// The rendered table (complete rows only).
    pub table: Table,
    /// The typed rows behind the table.
    pub rows: Vec<R>,
    /// Every failed trial and refuted check, in trial order.
    pub failures: Vec<TrialFailure>,
    /// Labels of the rows left out because some of their trials are
    /// missing (a job with failed chunks).
    pub incomplete: Vec<String>,
}

/// A checkpointable experiment. See the module docs.
pub trait Grid: Sync {
    /// One trial's result: what a checkpoint keeps and the fold reads.
    type Trial: Send;
    /// The fold's typed row.
    type Row;

    /// The cells, in row order, tiling `0 .. total` contiguously.
    fn cells(&self) -> &[Range<usize>];

    /// Names cell `cell` for a failed chunk's context.
    fn label(&self, cell: usize) -> String;

    /// Runs the trials `span` (global indices, across cells) on `sweep`,
    /// returning one result per trial in index order.
    ///
    /// # Errors
    ///
    /// A run error or an abort, which fails the enclosing chunk.
    fn run(&self, span: Range<usize>, sweep: &Sweep) -> Result<Vec<Self::Trial>, String>;

    /// Appends `trial`'s checkpoint fields, `kind` first, each as
    /// `,"key":"value"`.
    fn encode(&self, trial: &Self::Trial, out: &mut String);

    /// Reads back what [`Grid::encode`] wrote for the trial at global
    /// `index`. A record kind only ever gains fields, and a field it
    /// gains takes a default when absent, so older checkpoints still
    /// load.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    fn decode(&self, index: usize, record: &json::Value) -> Result<Self::Trial, String>;

    /// Folds every cell's results — `None` where some are missing, which
    /// leaves its row out as incomplete.
    fn fold(&self, cells: &[Option<&[Self::Trial]>]) -> Fold<Self::Row>;
}

/// Total trials in `grid`'s flat index space.
pub fn total<G: Grid>(grid: &G) -> usize {
    grid.cells().last().map_or(0, |cell| cell.end)
}

/// The cell of `cells` holding global trial `index`.
pub fn cell_of(cells: &[Range<usize>], index: usize) -> usize {
    cells.partition_point(|cell| cell.end <= index)
}

/// The cells `span` overlaps, as `(cell, cell-local trial range)`.
pub fn overlaps(
    cells: &[Range<usize>],
    span: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    cells.iter().enumerate().filter_map(move |(i, cell)| {
        let (lo, hi) = (span.start.max(cell.start), span.end.min(cell.end));
        (lo < hi).then(|| (i, lo - cell.start..hi - cell.start))
    })
}

/// The labels of the cells `span` overlaps, `; `-separated.
pub fn span_labels<G: Grid>(grid: &G, span: Range<usize>) -> String {
    let labels: Vec<String> = overlaps(grid.cells(), span)
        .map(|(i, _)| grid.label(i))
        .collect();
    labels.join("; ")
}

/// Runs every cell of `grid` as one in-memory chunk, then folds.
///
/// # Panics
///
/// With the run error, if there is one (the table harness records the
/// panic as the experiment's failure).
pub fn run_and_fold<G: Grid>(grid: &G, sweep: &Sweep) -> Fold<G::Row> {
    let trials = grid
        .run(0..total(grid), sweep)
        .unwrap_or_else(|e| panic!("{e}"));
    let cells: Vec<Option<&[G::Trial]>> = grid
        .cells()
        .iter()
        .map(|cell| Some(&trials[cell.clone()]))
        .collect();
    grid.fold(&cells)
}

/// The failure a fold reports for a trial whose check was refuted; `seed`
/// is what reproduces the trial (its toss seed).
pub fn check_failure(index: usize, seed: u64, payload: String, context: String) -> TrialFailure {
    TrialFailure {
        index,
        seed,
        derived_seed: seed,
        payload,
        context,
        attempts: 1,
        repro: None,
    }
}

/// Appends `,"key":"value"` — every checkpoint field is a JSON string.
pub(crate) fn push_field(out: &mut String, key: &str, value: impl Display) {
    out.push_str(&format!(",\"{key}\":"));
    json::push_string(out, &value.to_string());
}

/// Appends `,"key":["item",…]`.
pub(crate) fn push_list<T: Display>(
    out: &mut String,
    key: &str,
    items: impl IntoIterator<Item = T>,
) {
    out.push_str(&format!(",\"{key}\":["));
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, &item.to_string());
    }
    out.push(']');
}

/// Reads the string field `key` of a JSON object as a `T`.
pub(crate) fn field<T: FromStr>(record: &json::Value, key: &str) -> Result<T, String> {
    let entry = record
        .field(key)
        .ok_or_else(|| format!("missing `{key}`"))?;
    parse_entry(entry, key)
}

/// Reads the string-list field `key` of a JSON object as `T`s.
pub(crate) fn list_field<T: FromStr>(record: &json::Value, key: &str) -> Result<Vec<T>, String> {
    let entries = record
        .field(key)
        .ok_or_else(|| format!("missing `{key}`"))?;
    let entries = entries.array_or(&format!("`{key}`"))?;
    entries
        .iter()
        .map(|entry| parse_entry(entry, key))
        .collect()
}

fn parse_entry<T: FromStr>(entry: &json::Value, key: &str) -> Result<T, String> {
    let text = entry.str_or(&format!("`{key}`"))?;
    text.parse().map_err(|_| format!("bad `{key}`"))
}

/// An optional count as a checkpoint field: its digits, or `none`.
pub(crate) fn opt_text(value: Option<u64>) -> String {
    value.map_or_else(|| "none".into(), |v| v.to_string())
}

/// Reads back what [`opt_text`] wrote in field `key`.
pub(crate) fn opt_field(record: &json::Value, key: &str) -> Result<Option<u64>, String> {
    match field::<String>(record, key)?.as_str() {
        "none" => Ok(None),
        text => text.parse().map(Some).map_err(|_| format!("bad `{key}`")),
    }
}

/// Appends the fields of a `failure` record: a trial the sweep recorded
/// as failed, with everything its artifact row shows.
pub(crate) fn encode_failure(failure: &TrialFailure, out: &mut String) {
    push_field(out, "kind", "failure");
    push_field(out, "seed", failure.seed);
    push_field(out, "derived_seed", failure.derived_seed);
    push_field(out, "attempts", failure.attempts);
    push_field(out, "message", &failure.payload);
    push_field(out, "context", &failure.context);
    if let Some(repro) = &failure.repro {
        push_field(out, "repro", repro);
    }
}

/// Reads back what [`encode_failure`] wrote for the trial at `index`.
pub(crate) fn decode_failure(index: usize, record: &json::Value) -> Result<TrialFailure, String> {
    Ok(TrialFailure {
        index,
        seed: field(record, "seed")?,
        derived_seed: field(record, "derived_seed")?,
        attempts: field(record, "attempts")?,
        payload: field(record, "message")?,
        context: field(record, "context")?,
        repro: record
            .field("repro")
            .map(|_| field(record, "repro"))
            .transpose()?,
    })
}
