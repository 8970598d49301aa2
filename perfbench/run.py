#!/usr/bin/env python3
"""Builds the warehouse-alloc benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <replay-fleet|replay-bigheap|survey> \
        --seed <n> --seconds <n> --trace <0|1>

The Rust package next to this file is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`). Its output is passed through,
preceded by an environment stamp, and its last line -- the JSON result -- is
checked against the metric lists of BENCHMARK.json. The exit status is the
benchmark's own: non-zero when the build, the arguments or a correctness
gate fail, and then no result line is printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def command_output(argv, cwd=None):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def git_commit():
    top = command_output(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"], cwd=ROOT) or "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {wrong}")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = command_output(["rustc", "--version"]) or "unknown"
    print(f"env: nproc={os.cpu_count()} rustc=\"{rustc}\" commit={git_commit()}", flush=True)
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:],
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines))
        return run.returncode
    trace = sys.argv[sys.argv.index("--trace") + 1] == "1"
    try:
        check_result(lines[-1], trace)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        print("\n".join(lines[:-1]))
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
