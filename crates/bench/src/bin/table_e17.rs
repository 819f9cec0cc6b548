//! E17: combined chaos mode — every adversary at once.
//!
//! Each trial composes crash faults, memory faults (spurious SC failures
//! plus transient register corruption), and a seeded random schedule
//! into one chaos plan, runs a hardened wakeup solution or its
//! unhardened twin under it, and classifies the result with the shared
//! failure-class vocabulary. Every non-recovered trial is packaged as a
//! replayable repro case and delta-debugged on the spot; each cell
//! reports the failure-class histogram plus the median
//! minimal-reproducer size. Like the other fault binaries this one
//! accepts `--max-events N` and exits nonzero when any panic-isolated
//! trial fails (every `intensity = 0` trial must recover), recording the
//! failures — with attached repro cases — in the JSON artifact's
//! `"failures"` array.
use llsc_bench::harness::HarnessOpts;
use llsc_bench::{degradation_sweep, Degradation, DEFAULT_MAX_EVENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    let sweep = opts.sweep();
    let max_events = opts.max_events.unwrap_or(DEFAULT_MAX_EVENTS);
    let (exp, failures) =
        degradation_sweep(Degradation::Chaos, 6, &[0, 1, 2, 4], 4, max_events, &sweep);
    opts.emit_with_failures(&[&exp.table], &failures)
}
