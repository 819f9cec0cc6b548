//! E19: recovery cost vs crash intensity for the recoverable algorithms.
//!
//! Crashed processes are revived through their recovery sections (the
//! crash-recovery fault model), and every trial is billed in remote
//! memory references under both the CC and DSM cost models. Like the
//! other fault binaries it accepts `--max-events N` (starving it
//! exercises the budget-exhaustion and trial-failure paths) and exits
//! nonzero when any panic-isolated trial fails, recording the failures
//! in the JSON artifact's `"failures"` array.
use llsc_bench::harness::HarnessOpts;
use llsc_bench::{degradation_sweep, Degradation, DEFAULT_MAX_EVENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    let sweep = opts.sweep();
    let max_events = opts.max_events.unwrap_or(DEFAULT_MAX_EVENTS);
    let (exp, failures) = degradation_sweep(
        Degradation::Recovery,
        8,
        &[0, 1, 2, 4],
        6,
        max_events,
        &sweep,
    );
    opts.emit_with_failures(&[&exp.table], &failures)
}
