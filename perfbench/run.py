#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or all of them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the workspace crates. It is built into
$CARGO_TARGET_DIR, or .bench_build when that is unset. With a single
workload, the last line of standard output is the workload's JSON result.
With `all`, each workload runs in a process of its own, one after the
other, and the last line maps each workload to its result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["subset-sweep", "adversary-job", "hw-trials", "hw-llsc-loop"]


def build():
    """Builds the benchmark; exits with cargo's status if that fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if status != 0:
        print(f"perfbench: build failed with status {status}", file=sys.stderr)
        sys.exit(status)
    return os.path.join(target, "release", "perfbench")


def run(binary, workload, rest):
    """Runs one workload, echoing its output; returns (status, last line)."""
    proc = subprocess.run([binary, "--workload", workload] + rest, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main(argv):
    if "--workload" not in argv[:-1]:
        print(__doc__, file=sys.stderr)
        return 2
    at = argv.index("--workload")
    workload = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    binary = build()
    if workload != "all":
        status, _ = run(binary, workload, rest)
        return status
    results, worst = {}, 0
    for name in WORKLOADS:
        status, last = run(binary, name, rest)
        worst = worst or status
        try:
            results[name] = json.loads(last)
        except ValueError:
            results[name] = None
            worst = worst or 1
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
