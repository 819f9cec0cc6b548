//! What one run measured and checked, and how it is printed.

use crate::stats;
use llsc_shmem::json::push_string;
use std::path::PathBuf;
use std::time::Instant;

/// The inputs every workload receives.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// How long the measured phase should last.
    pub seconds: f64,
    /// Worker threads for the simulator sweeps (`nproc`).
    pub threads: usize,
    /// A private scratch directory inside the checkout.
    pub work: PathBuf,
}

impl Ctx {
    /// A 64-bit value derived from the workload seed and `stream`
    /// (SplitMix64 finalizer), so distinct streams are independent.
    pub fn derive(&self, stream: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Context printed beside the value (sample counts, percentiles).
    pub note: String,
}

/// The result of one run of one workload.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that failed: a run error, a violation or a wrong result.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further figures, printed but not part of the result line.
    pub details: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric of the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        });
    }

    /// Adds a printed figure that is not part of the result line.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.details.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// Records the median of `samples` as a result-line metric and the
    /// highest percentile with at least ten samples beyond it as a detail.
    pub fn timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.metric(name, stats::median(samples), unit);
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        self.metrics.last_mut().expect("just pushed").note = format!(
            "median of {} samples, min {lo:.6}, max {hi:.6}",
            samples.len()
        );
        self.tail(name, samples, unit);
    }

    /// Records the tail of `samples` as a detail named after `name`.
    pub fn tail(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        match stats::tail(samples) {
            Some(t) => self.detail(
                &format!("{name}.tail"),
                t.value,
                unit,
                format!(
                    "p{} of {} samples, {} beyond",
                    t.percentile, t.samples, t.beyond
                ),
            ),
            None => self.detail(
                &format!("{name}.tail"),
                f64::NAN,
                unit,
                format!("no percentile has 10 of {} samples beyond", samples.len()),
            ),
        }
    }

    /// Records the end-to-end metrics of a run of passes: `setup_s` (median
    /// set-up sample), `wall_s` (median pass), `trials_per_s` and
    /// `events_per_s` (median over passes of each pass's rate, given each
    /// pass's trials and events) and `peak_rss_mb`.
    pub fn pass_metrics(&mut self, p: &Passes, trials: &[f64], events: &[f64]) {
        let rate = |counts: &[f64]| {
            let rates: Vec<f64> = counts.iter().zip(&p.walls).map(|(c, w)| c / w).collect();
            stats::median(&rates)
        };
        self.metric("setup_s", stats::median(&p.setup), "s");
        self.metrics.last_mut().expect("just pushed").note =
            format!("median of {} samples", p.setup.len());
        self.timing("wall_s", &p.walls, "s");
        self.metric("trials_per_s", rate(trials), "1/s");
        self.metric("events_per_s", rate(events), "1/s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    /// `true` when every check passed, no trial failed and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_string(&mut out, &m.name);
            out.push_str(&format!(":{{\"value\":{},\"unit\":", json_number(m.value)));
            push_string(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Human-readable lines: every metric and detail with its unit, then
    /// the failed checks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.details) {
            out.push_str(&format!(
                "  {:<34} {:>18} {:<8} {}\n",
                m.name,
                if m.value.is_finite() {
                    format!("{:.6}", m.value)
                } else {
                    "-".to_string()
                },
                m.unit,
                m.note
            ));
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "  {:<34} {:>18} {:<8} {} failed of {} attempted\n",
            "error_rate",
            format!("{rate:.6}"),
            "ratio",
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            out.push_str(&format!("  FAILED CHECK: {p}\n"));
        }
        for m in self.metrics.iter().filter(|m| !m.value.is_finite()) {
            out.push_str(&format!("  FAILED CHECK: {} is not a number\n", m.name));
        }
        out
    }
}

/// A JSON number for `v`; a value that is not finite is written as 0 and
/// makes the run incorrect (see [`Outcome::correct`]).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Set-up batches timed before the first pass.
const SETUP_BATCHES_FIRST: usize = 25;
/// Set-up batches timed before each later pass.
const SETUP_BATCHES_BETWEEN: usize = 4;
/// Set-ups per batch; a batch's mean is one sample.
const SETUP_PER_BATCH: usize = 20;

/// What a run of passes measured, in seconds.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of each pass.
    pub walls: Vec<f64>,
    /// Set-up samples: each the mean of `SETUP_PER_BATCH` set-ups.
    pub setup: Vec<f64>,
}

/// Calls `pass` until `seconds` have elapsed or the next pass would end
/// past them, and at least `min_passes` times, timing each call. Before
/// every pass, outside its timing, it times batches of `setup` calls, so
/// the set-up samples span the whole run rather than one moment of it;
/// set-ups are dropped after their batch's clock stops.
pub fn run_passes<S>(
    seconds: f64,
    min_passes: usize,
    mut setup: impl FnMut() -> S,
    mut pass: impl FnMut(usize),
) -> Passes {
    let start = Instant::now();
    let mut p = Passes::default();
    loop {
        let batches = if p.walls.is_empty() {
            SETUP_BATCHES_FIRST
        } else {
            SETUP_BATCHES_BETWEEN
        };
        for _ in 0..batches {
            let mut kept = Vec::with_capacity(SETUP_PER_BATCH);
            let t = Instant::now();
            for _ in 0..SETUP_PER_BATCH {
                kept.push(std::hint::black_box(setup()));
            }
            p.setup
                .push(t.elapsed().as_secs_f64() / SETUP_PER_BATCH as f64);
        }
        let t = Instant::now();
        pass(p.walls.len());
        p.walls.push(t.elapsed().as_secs_f64());
        let next_end = start.elapsed().as_secs_f64() + p.walls.last().copied().unwrap_or(0.0);
        if p.walls.len() >= min_passes && next_end > seconds {
            return p;
        }
    }
}

/// Runs of each timed step in a traced run; the fastest is reported, which
/// keeps brief interference from other processes out of the per-layer
/// differences.
pub const TRACE_ROUNDS: usize = 2;

/// Calls `f` `TRACE_ROUNDS` times; returns the fastest wall time in seconds
/// and every result, in call order.
pub fn fastest<T>(mut f: impl FnMut() -> T) -> (f64, Vec<T>) {
    let mut best = f64::INFINITY;
    let mut results = Vec::with_capacity(TRACE_ROUNDS);
    for _ in 0..TRACE_ROUNDS {
        let t = Instant::now();
        results.push(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, results)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.metric("wall_s", 1.25, "s");
        o.timing("lat_us", &[3.0, 1.0, 2.0], "us");
        assert_eq!(
            o.result_json(),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\
             \"wall_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"lat_us\":{\"value\":2,\"unit\":\"us\"}}}"
        );
        o.metric("peak_rss_mb", f64::NAN, "MiB");
        assert!(!o.correct(), "a metric that is not a number fails the run");
        assert!(o.result_json().contains("\"peak_rss_mb\":{\"value\":0,"));
        o.metrics.pop();
        o.failed = 1;
        assert!(!o.correct());
        assert!(o.result_json().starts_with("{\"correct\":false,"));
    }

    #[test]
    fn derived_streams_differ_and_repeat() {
        let ctx = Ctx {
            seed: 5,
            seconds: 1.0,
            threads: 1,
            work: PathBuf::new(),
        };
        assert_eq!(ctx.derive(1), ctx.derive(1));
        assert_ne!(ctx.derive(1), ctx.derive(2));
        let other = Ctx {
            seed: 6,
            ..ctx.clone()
        };
        assert_ne!(ctx.derive(1), other.derive(1));
    }

    #[test]
    fn run_passes_honours_the_minimum_and_samples_setup_throughout() {
        let mut setups = 0;
        let p = run_passes(0.0, 3, || setups += 1, |_| {});
        assert_eq!(p.walls.len(), 3);
        let samples = SETUP_BATCHES_FIRST + 2 * SETUP_BATCHES_BETWEEN;
        assert_eq!(p.setup.len(), samples);
        assert_eq!(setups, samples * SETUP_PER_BATCH);
    }

    #[test]
    fn pass_rates_are_medians_of_per_pass_rates() {
        let p = Passes {
            walls: vec![1.0, 2.0, 4.0],
            setup: vec![0.5, 0.1, 0.3],
        };
        let mut o = Outcome::default();
        o.pass_metrics(&p, &[10.0, 10.0, 10.0], &[8.0, 40.0, 8.0]);
        let value = |name: &str| o.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("setup_s"), Some(0.3));
        assert_eq!(value("wall_s"), Some(2.0));
        assert_eq!(value("trials_per_s"), Some(5.0));
        assert_eq!(value("events_per_s"), Some(8.0));
    }
}
