//! `perfbench`: the repository benchmark.
//!
//! Runs one named workload for a fixed time, checks every output, and
//! prints its metrics; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod hw;
mod job;
mod layers;
mod meta;
mod report;
mod stats;
mod subsets;
mod trace;

use report::{Ctx, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload <subset-sweep|adversary-job|hw-trials|hw-llsc-loop> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// A workload: runs for the context's time, traced or not.
type Workload = fn(&Ctx, bool) -> Outcome;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("subset-sweep", subsets::subset_sweep),
    ("adversary-job", job::adversary_job),
    ("hw-trials", hw::hw_trials),
    ("hw-llsc-loop", hw::hw_llsc_loop),
];

/// Checked command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|(name, _)| name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout root: the parent of this package's directory when run
/// through `cargo`, else the current directory.
fn checkout_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates").is_dir() {
        cwd
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        alloc::enable();
    }
    let root = checkout_root();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = root
        .join(".bench_out")
        .join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        threads,
        work,
    };
    let (name, run) = WORKLOADS[args.workload];
    let meta = meta::Meta::collect(&root, threads, args.seed);
    println!(
        "perfbench {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = run(&ctx, args.trace);
    std::fs::remove_dir_all(&ctx.work).ok();
    println!("meta {}", meta.to_json());
    print!("{}", outcome.render());
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let ok = parse_args(&args(
            "--workload hw-trials --seed 3 --seconds 10 --trace 1",
        ));
        assert_eq!(
            ok,
            Ok(Args {
                workload: 2,
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload hw-trials --seed -1 --seconds 10 --trace 0",
            "--workload hw-trials --seed 3 --seconds 0 --trace 0",
            "--workload hw-trials --seed 3 --seconds 10 --trace 2",
            "--workload hw-trials --seed 3 --seconds 10",
            "--workload hw-trials --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
