//! E16: memory-fault degradation of the hardened wakeup solutions.
//!
//! Each trial arms a seeded fault plan (spurious SC failures plus
//! transient register corruption) against one retry/backoff-hardened
//! algorithm and classifies the result: recovered, detected-wrong,
//! silent-wrong, or stalled. Like `table_e15` this binary injects faults,
//! so it also accepts `--max-events N` (starving it exercises the
//! trial-failure path) and exits nonzero when any panic-isolated trial
//! fails, recording the failures in the JSON artifact's `"failures"`
//! array. Every `f = 0` trial additionally asserts the zero-cost
//! guarantee: the hardened algorithm's shared-access count must exactly
//! match its unhardened twin's.
use llsc_bench::harness::HarnessOpts;
use llsc_bench::{degradation_sweep, Degradation, DEFAULT_MAX_EVENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    let sweep = opts.sweep();
    let max_events = opts.max_events.unwrap_or(DEFAULT_MAX_EVENTS);
    let (exp, failures) = degradation_sweep(
        Degradation::MemoryFault,
        8,
        &[0, 1, 2, 4, 8],
        6,
        max_events,
        &sweep,
    );
    opts.emit_with_failures(&[&exp.table], &failures)
}
