#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

    python3 perfbench/sets.py run OUT [--first-seed 1] [--trace 0|1] [--repo DIR ...]
    python3 perfbench/sets.py compare A [B]

`run` runs every workload once for each of ten seeds (first-seed,
first-seed+1, ...), each run as long as BENCHMARK.json's run_seconds,
and stores each run's standard output as OUT/<workload>/seed<N>.txt.
Given two or more --repo checkouts (parent and change, say), it runs
them in pairs, alternating which goes first, into OUT/<i>/ for the i-th
repo.

`compare` reads one or two such directories. For one set it prints, per
workload and end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) against the metric's bound from
BENCHMARK.json. For two sets (A the parent or first set, B the change or
second set) it adds the delta of B's median against A's and the verdict
of the choosing-metrics rule: improved (B better in at least nine tenths
of the seed-paired runs, by more than A's interquartile range), unresolved
(a spread wider than the bound, unless every B run beats every A run),
regressed (B's median worse by more than the bound) or within bound.
It also lists every run marked not comparable and every exact-repeat
count that differs between runs of one seed.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seeds in a set: the bounds were set on sets of this size.
RUNS = 10

# Per-layer counts that must repeat exactly for one seed.
EXACT = ["tgen.tests", "atpg.calls", "atpg.backtracks", "fsim.size_u_vectors",
         "wire.result_bytes", "cluster.subjobs"]


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_run(args):
    repos = [os.path.abspath(r) for r in (args.repo or [ROOT])]
    for w in [x["name"] for x in load_spec(repos[0])["workloads"]]:
        for i in range(RUNS):
            seed = args.first_seed + i
            order = list(enumerate(repos))
            if i % 2:
                order.reverse()
            for k, repo in order:
                out = os.path.join(args.out, str(k) if len(repos) > 1 else "", w)
                os.makedirs(out, exist_ok=True)
                path = os.path.join(out, f"seed{seed}.txt")
                cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"), "--workload", w,
                       "--seed", str(seed), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=repo, stdout=subprocess.PIPE, text=True)
                with open(path, "w") as f:
                    f.write(proc.stdout)
                last = proc.stdout.strip().splitlines()[-1:] or [""]
                print(f"{w} seed {seed} repo {k}: exit {proc.returncode} {last[0][:160]}", flush=True)
                if proc.returncode != 0:
                    sys.exit(f"run failed; output in {path}")


def load_set(d):
    """Returns {workload: {seed: (result, marks)}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*", "seed*.txt"))):
        w = os.path.basename(os.path.dirname(path))
        seed = int(os.path.basename(path)[4:-4])
        lines = open(path).read().strip().splitlines()
        if not lines:
            continue
        marks = [l for l in lines if l.startswith("not comparable:")]
        runs.setdefault(w, {})[seed] = (json.loads(lines[-1]), marks)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[1], q[2]


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else float("inf")


def verdict(a, b, pairs, better, bound):
    lower = better == "lower"
    ma, mb = statistics.median(a), statistics.median(b)
    q1, _, q3 = quartiles(a)
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if pairs and wins >= 0.9 * len(pairs) and (mb < ma if lower else mb > ma) and abs(mb - ma) > q3 - q1:
        return "improved"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    return "regressed" if worse > bound else "within bound"


def values(runs, metric):
    return {seed: r["metrics"][metric]["value"] for seed, (r, _) in runs.items() if metric in r["metrics"]}


def cmd_compare(args):
    spec = load_spec()
    sets = [load_set(d) for d in args.sets]
    for label, s in zip("AB", sets):
        for w, runs in sorted(s.items()):
            for seed, (r, marks) in sorted(runs.items()):
                if not r["correct"] or r["failed"]:
                    print(f"{label} {w} seed {seed}: {r['failed']} of {r['attempted']} ops failed or wrong")
                for m in marks:
                    print(f"{label} {w} seed {seed}: {m}")

    head = f"{'workload':14} {'metric':16} {'bound':>6} | {'A median':>11} {'A q1..q3':>23} {'spread':>7}"
    if len(sets) == 2:
        head += f" | {'B median':>11} {'B q1..q3':>23} {'spread':>7} | {'B vs A':>7}  verdict"
    print(head)
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            cols = []
            per = []
            for s in sets:
                v = values(s.get(w, {}), m["name"])
                if not v:
                    break
                xs = list(v.values())
                q1, med, q3 = quartiles(xs)
                flag = "!" if m["name"] != "setup_s" and spread(xs) > m["bound"] / 3 else " "
                cols.append(f"{med:11.5g} {q1:11.5g}..{q3:<10.5g} {100 * spread(xs):6.2f}%{flag}")
                per.append(v)
            if len(per) != len(sets):
                continue
            line = f"{w:14} {m['name']:16} {100 * m['bound']:5.1f}% | " + " | ".join(cols)
            if len(per) == 2:
                a, b = per
                pairs = [(a[k], b[k]) for k in sorted(set(a) & set(b))]
                ma, mb = statistics.median(a.values()), statistics.median(b.values())
                worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
                line += f" | {100 * worse:+6.2f}%  " + verdict(list(a.values()), list(b.values()), pairs, m["better"], m["bound"])
            print(line)
    print("spread is (q3 - q1) / median; ! marks a spread above a third of the bound; "
          "B vs A is positive when B is worse")

    for w in [x["name"] for x in spec["workloads"]]:
        for name in EXACT:
            by_seed = {}
            for s in sets:
                for seed, v in values(s.get(w, {}), name).items():
                    by_seed.setdefault(seed, set()).add(v)
            for seed, vs in sorted(by_seed.items()):
                if len(vs) > 1:
                    print(f"{w} seed {seed}: {name} differs between runs: {sorted(vs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--repo", action="append", help="checkout to run (repeat for paired runs)")
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+", metavar="DIR")
    args = ap.parse_args()
    if args.cmd == "compare" and len(args.sets) > 2:
        ap.error("compare takes one or two sets")
    {"run": cmd_run, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
