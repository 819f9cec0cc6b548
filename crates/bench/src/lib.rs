//! # llsc-bench: experiment regenerators
//!
//! One function per experiment in `EXPERIMENTS.md`, each printing the
//! table its `table_*` binary regenerates. The paper under reproduction is
//! a theory paper without numbered tables or figures, so the "tables" here
//! are the mechanised checks of its lemmas and theorems plus the
//! complexity sweeps that exhibit each bound's shape:
//!
//! | Binary | Experiment | Paper artifact |
//! |--------|------------|----------------|
//! | `table_e1` | E1/E2/E11 | Lemmas 4.1 & 4.2 (secretive schedules) |
//! | `table_e3` | E3 | Lemma 5.1 (`\|UP\| <= 4^r`) |
//! | `table_e4` | E4 | Lemma 5.2 (indistinguishability) |
//! | `table_e5` | E5 | Theorem 6.1 (wakeup winner >= `log4 n`) |
//! | `table_e6` | E6 | Lemma 3.1 (randomized expected complexity) |
//! | `table_e7` | E7 | Theorem 6.2 (the eight object reductions) |
//! | `table_e8` | E8/E9 | tightness: `O(log n)` tree vs `Theta(n)` baselines |
//! | `table_e10` | E10 | the non-oblivious constant-time escape hatch |
//! | `table_e15` | E15 | crash-fault degradation (graceful failure modes) |
//! | `table_e16` | E16 | memory-fault degradation (hardened algorithms) |
//! | `table_e17` | E17 | combined chaos mode (crash + memory faults + random schedule) |
//! | `table_e19` | E19 | recovery cost vs crash intensity (CC/DSM RMRs) |
//! | `table_e20` | E20 | cross-backend chaos, simulator half |
//!
//! The five degradation experiments (E15–E17, E19, E20) share one
//! driver, [`degradation`]: each trial executes the experiment's own
//! repro case once. E4, E6, E13 and the degradation experiments are each
//! a [`grid::Grid`], which the table functions run in memory and the
//! resumable [`job`] layer runs in checkpointed chunks.
//!
//! Each function returns the rendered table plus its typed rows (a grid's
//! [`grid::Fold`] also carries its failures) so integration tests can
//! assert on the numbers without re-parsing stdout. Every binary accepts `--threads N`
//! (deterministic parallel fan-out; output byte-identical at any thread
//! count), `--json PATH` (a structured artifact of the same tables), and
//! the sweep-resilience flags `--seed S`, `--retries N`, and
//! `--trial-timeout-ms MS`; fault-injection binaries additionally accept
//! `--max-events N` and report isolated trial failures in the artifact's
//! `"failures"` array, each carrying a replayable repro case
//! (`--repro-dir DIR` writes them as files for `llsc replay` /
//! `llsc shrink`; see [`repro`]); see [`harness`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degradation;
pub mod experiments;
pub mod grid;
pub mod harness;
pub mod job;
pub mod repro;
pub mod table;
pub mod xcheck;

pub use degradation::{degradation_sweep, Degradation, DegradationRow, DEFAULT_MAX_EVENTS};
pub use experiments::*;
