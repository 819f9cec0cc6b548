//! The per-layer metrics of a traced run and where its spans go.

use crate::report::{Ctx, Outcome};
use crate::trace::{LayerTotal, Tracer};

/// Every per-layer metric of `BENCHMARK.json`. A layer the workload does
/// not enter keeps its zero default.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    /// `core.s_run`: spans and events.
    pub s_run: (LayerTotal, u64),
    /// `core.indist`: spans and comparisons.
    pub indist: (LayerTotal, u64),
    /// `core.claims`: spans and claim instances.
    pub claims: (LayerTotal, u64),
    /// `core.all_run`: spans, events and rounds.
    pub all_run: (LayerTotal, u64, u64),
    /// `core.wakeup`: spans.
    pub wakeup: LayerTotal,
    /// 1-thread `indist_all_subsets` wall minus the composition's self time.
    pub subsets_self_s: f64,
    /// Replayed share of the sweep's events.
    pub replayed_share: f64,
    /// `run_job` wall minus the plain sweep's.
    pub job_self_s: f64,
    /// Checkpoints one job writes.
    pub job_checkpoints: u64,
    /// Bytes one job leaves in its directory.
    pub job_dir_bytes: u64,
    /// 1-thread over `threads`-thread wall time of the sweep.
    pub speedup: f64,
    /// Sweep threads.
    pub threads: usize,
    /// Trial latency, p50 and tail, microseconds.
    pub trial_us: (f64, f64),
    /// Null-program driver latency, p50 and p99, microseconds.
    pub driver_floor_us: (f64, f64),
    /// Floor p50 over trial p50.
    pub driver_share: f64,
    /// Allocations per null-program driver run.
    pub driver_allocs_per_run: f64,
    /// Median `HwMemory::for_algorithm` time, microseconds.
    pub memory_setup_us: f64,
    /// (trial p50 - floor p50) per shared op, nanoseconds.
    pub memory_ns_per_op: f64,
    /// 1 - minimal ops / ops performed.
    pub memory_retry_ratio: f64,
    /// Traced minus untraced wall time.
    pub overhead_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl LayerMetrics {
    /// Adds every per-layer metric to `out`, in `BENCHMARK.json` order.
    pub fn emit(&self, out: &mut Outcome) {
        let (s, s_events) = self.s_run;
        out.metric("core.s_run.calls", s.calls as f64, "count");
        out.metric("core.s_run.self_s", s.self_s(), "s");
        out.metric("core.s_run.events", s_events as f64, "count");
        out.metric(
            "core.s_run.allocs_per_event",
            ratio(s.allocs as f64, s_events as f64),
            "allocs/event",
        );
        let (i, comparisons) = self.indist;
        out.metric("core.indist.calls", i.calls as f64, "count");
        out.metric("core.indist.self_s", i.self_s(), "s");
        out.metric("core.indist.comparisons", comparisons as f64, "count");
        out.metric("core.indist.allocs", i.allocs as f64, "count");
        let (c, instances) = self.claims;
        out.metric("core.claims.calls", c.calls as f64, "count");
        out.metric("core.claims.self_s", c.self_s(), "s");
        out.metric("core.claims.instances", instances as f64, "count");
        out.metric("core.subsets.self_s", self.subsets_self_s, "s");
        out.metric("core.subsets.replayed_share", self.replayed_share, "ratio");
        let (a, a_events, rounds) = self.all_run;
        out.metric("core.all_run.calls", a.calls as f64, "count");
        out.metric("core.all_run.self_s", a.self_s(), "s");
        out.metric("core.all_run.events", a_events as f64, "count");
        out.metric("core.all_run.rounds", rounds as f64, "count");
        out.metric(
            "core.all_run.allocs_per_event",
            ratio(a.allocs as f64, a_events as f64),
            "allocs/event",
        );
        out.metric("core.wakeup.self_s", self.wakeup.self_s(), "s");
        out.metric("bench.job.self_s", self.job_self_s, "s");
        out.metric(
            "bench.job.checkpoints",
            self.job_checkpoints as f64,
            "count",
        );
        out.metric("bench.job.dir_bytes", self.job_dir_bytes as f64, "bytes");
        out.metric("shmem.sweep.speedup", self.speedup, "ratio");
        out.metric(
            "shmem.sweep.efficiency",
            ratio(self.speedup, self.threads as f64),
            "ratio",
        );
        out.metric("atomics.driver.trial_p50_us", self.trial_us.0, "us");
        out.metric("atomics.driver.trial_tail_us", self.trial_us.1, "us");
        out.metric("atomics.driver.floor_p50_us", self.driver_floor_us.0, "us");
        out.metric("atomics.driver.floor_p99_us", self.driver_floor_us.1, "us");
        out.metric("atomics.driver.share", self.driver_share, "ratio");
        out.metric(
            "atomics.driver.allocs_per_run",
            self.driver_allocs_per_run,
            "count",
        );
        out.metric("atomics.memory.setup_us", self.memory_setup_us, "us");
        out.metric("atomics.memory.ns_per_op", self.memory_ns_per_op, "ns");
        out.metric(
            "atomics.memory.retry_ratio",
            self.memory_retry_ratio,
            "ratio",
        );
        out.metric("trace.overhead_s", self.overhead_s, "s");
    }
}

/// Writes the spans to `.bench_out/spans-<workload>-seed<n>.tsv`, beside
/// the run's work directory so that they outlive the run, and names the
/// file in a detail.
pub fn write_spans(ctx: &Ctx, workload: &str, tracer: &Tracer, out: &mut Outcome) {
    let path = ctx
        .work
        .parent()
        .unwrap_or(&ctx.work)
        .join(format!("spans-{workload}-seed{}.tsv", ctx.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => out.detail(
            "spans",
            tracer.spans().len() as f64,
            "count",
            path.display().to_string(),
        ),
        Err(e) => out.problem(format!("cannot write {}: {e}", path.display())),
    }
}
