#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload grade-http --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

The Go toolchain's cache, the binary, journal segments and span dumps
all live under .bench_build/ in the repository root, so a run reads and
writes nothing outside the checkout. The last line of standard output
is the run's JSON result; it is checked against the metric names and
units in BENCHMARK.json before it is printed.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        # The go command keeps its env file and telemetry under the
        # user config directory; keep those inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly -buildvcs=false",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def die_with_parent():
    # The benchmark must not outlive this wrapper, even if it is killed.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload, echoing its output; returns its checked result."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=die_with_parent)
    held = None
    try:
        for line in proc.stdout:
            if held is not None:
                sys.stdout.write(held)
            held = line
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if code != 0 or held is None:
        if held is not None:
            sys.stdout.write(held)
        sys.exit(f"perfbench: {workload} exited with code {code}")
    result = json.loads(held)
    want = spec["per_layer" if trace else "end_to_end"]
    check(result, {m["name"]: m["unit"] for m in want})
    return result, held


def check(result, want):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: result keys {sorted(result)}")
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if got != want:
        sys.exit(f"perfbench: metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    build()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload != "all":
        if args.workload not in names:
            sys.exit(f"perfbench: unknown workload {args.workload!r} (want one of {', '.join(names)} or all)")
        sys.stdout.write(run_workload(spec, args.workload, args.seed, seconds, args.trace)[1])
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        r, _ = run_workload(spec, name, args.seed, seconds, args.trace)
        total["correct"] &= r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
        for m, v in r["metrics"].items():
            total["metrics"][f"{name}/{m}"] = v
    print(json.dumps(total))


if __name__ == "__main__":
    main()
