#!/usr/bin/env python3
"""Builds and runs the HUGE engine benchmark.

    python3 perfbench/run.py --workload <lj-square|eu-path|eu-path-budget> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `perfbench` package
(release profile, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when
that is unset, then runs one measurement. Generated inputs and the engine's
spill files go to a scratch directory under `.bench_tmp/`, removed when the
run ends; the benchmark's own spans are written to `.bench_out/`. The last
line of standard output is the result JSON; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lj-square", "eu-path", "eu-path-budget")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target: Path) -> Path:
    """Builds the benchmark binary and returns its path; exits on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    cwd = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target if target.is_absolute() else cwd / target)

    workdir = cwd / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spill = workdir / "tmp"
    spill.mkdir(parents=True, exist_ok=True)
    spans = cwd / ".bench_out" / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # The engine spills Grace partitions under the temp directory.
    env = dict(os.environ, TMPDIR=str(spill))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--spans-out", str(spans)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.splitlines()
    if done.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        return done.returncode
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: the benchmark printed no result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
