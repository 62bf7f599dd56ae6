#!/usr/bin/env python3
"""Compare two checkouts with the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pr N \\
        --seeds 2001 ... 2010 [--workloads ladder-qq corpus ...] \\
        [--trace-seeds 2001 2002] [--note TEXT]

For each workload and seed it runs `perfbench/run.py --trace 0` once in
each checkout, the side that runs first alternating from seed to seed,
with the run length of the change's BENCHMARK.json.  It writes
`BENCH_<N>.json` into the change checkout: per workload and end-to-end
metric, each side's runs, median and quartiles, the pairs the change won,
and whether the change stays within the metric's bound.  With
`--trace-seeds` it also runs `--trace 1` twice per side per seed and keeps
every per-layer metric that is nonzero on either side: of each time (unit
`s`) the lower of the two runs, of every other metric the first run's
value, recording a problem when the second run reads another.  Only the
standard library is used; each run is a fresh process in its own
checkout.  A checkout that holds `__pycache__` directories under `src/`
is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_bench(checkout, workload, seed, seconds, trace):
    """The result line and the record line of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} printed no "
                 f"result (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def bytecode_caches(checkout):
    """The `__pycache__` directories under the checkout's `src/`.  With them
    a cold `cli` command skips compiling, so that side reads faster."""
    return sorted(root for root, _, _ in os.walk(os.path.join(checkout, "src"))
                  if os.path.basename(root) == "__pycache__")


def git_state(checkout):
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True).stdout.strip()
    sha = git("rev-parse", "HEAD")
    return f"{sha}+dirty" if git("status", "--porcelain", "--untracked-files=no") else sha


def quartiles(runs):
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def side(runs):
    q1, q3 = quartiles(runs)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(r, 4) for r in runs]}


def compare(spec, parent_runs, change_runs):
    """One end-to-end metric: both sides, change wins and the bound."""
    sign = 1 if spec["better"] == "lower" else -1
    diffs = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    p, c = side(parent_runs), side(change_runs)
    iqr = p["q3"] - p["q1"]
    ratio = c["median"] / p["median"] if p["median"] else float("nan")
    return {
        "unit": spec["unit"], "bound": spec["bound"], "parent": p, "change": c,
        "change_wins": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "change_over_parent": round(ratio, 4),
        "within_bound": sign * (ratio - 1) <= spec["bound"],
        "parent_iqr": round(iqr, 4),
        "gain_beyond_parent_iqr": sign * (p["median"] - c["median"]) > iqr,
    }


def merge_traces(specs, first, second, seed, problems):
    """One seed's per-layer values on one side, from its two traced runs:
    of each time (unit `s`) the lower, since a run can be slowed but not
    sped up by the machine; of every other metric the first run's value,
    appending to problems when the second run reads another."""
    out = {}
    for spec in specs:
        name = spec["name"]
        a, b = (r["metrics"][name]["value"] for r in (first, second))
        if spec["unit"] == "s":
            out[name] = min(a, b)
            continue
        if a != b:
            problems.append(f"seed {seed}: {name} reads {a} in the first "
                            f"traced run and {b} in the second")
        out[name] = a
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--pr", type=int, required=True, help="N of BENCH_<N>.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args()
    for checkout in (args.parent, args.change):
        cached = bytecode_caches(checkout)
        if cached:
            sys.exit(f"bench_pairs: {cached[0]} holds bytecode caches, which "
                     f"make cold cli commands skip compiling; delete every "
                     f"__pycache__ under {os.path.join(checkout, 'src')}")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}

    end_to_end = {}
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                result, _ = run_bench(sides[name], w, seed, seconds, 0)
                runs[name].append(result)
                print(f"{w} seed {seed} {name}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f} "
                      f"correct {result['correct']}", file=sys.stderr)
        end_to_end[w] = {
            "pairs": len(args.seeds),
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "failed": {k: sum(r["failed"] for r in rs) for k, rs in runs.items()},
            "attempted": {k: sum(r["attempted"] for r in rs) for k, rs in runs.items()},
            "metrics": {
                spec["name"]: compare(
                    spec, *([r["metrics"][spec["name"]]["value"] for r in runs[k]]
                            for k in ("parent", "change")))
                for spec in bench["end_to_end"]},
        }

    per_layer = {}
    for w in workloads if args.trace_seeds else ():
        values = {"parent": [], "change": []}
        entry = {"seeds": args.trace_seeds, "correct": {}, "problems": {}}
        for i, seed in enumerate(args.trace_seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {"parent": [], "change": []}
            for name in order * 2:
                result, record = run_bench(sides[name], w, seed, seconds, 1)
                runs[name].append(result)
                entry["correct"][name] = entry["correct"].get(name, True) and result["correct"]
                entry["problems"].setdefault(name, []).extend(record.get("problems", []))
            for name, (first, second) in runs.items():
                values[name].append(merge_traces(
                    bench["per_layer"], first, second, seed,
                    entry["problems"][name]))
        for spec in bench["per_layer"]:
            series = {k: [v[spec["name"]] for v in vs] for k, vs in values.items()}
            if any(v for vs in series.values() for v in vs):
                entry[spec["name"]] = series
        per_layer[w] = entry

    out = {
        "pr": args.pr,
        "change": args.note,
        "parent": git_state(args.parent),
        "change_sha": git_state(args.change),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.platform(),
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds} --trace 0, one run per side per seed, seeds "
                   f"{args.seeds}, the side that runs first alternating from "
                   f"seed to seed; each side runs from its own checkout. Times "
                   f"are reference seconds (RefClock, perfbench/workloads.py). "
                   f"Quartiles: statistics.quantiles n=4, inclusive. "
                   f"change_wins counts pairs where the change reads better. "
                   f"Per-layer values come from --trace 1 runs, two per side "
                   f"per seed in per_layer.seeds, interleaved as the pairs "
                   f"are: each time (unit s) is the lower of the two, every "
                   f"other value is the first run's, and a value that differs "
                   f"between the two runs is listed in per_layer problems."),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    path = os.path.join(args.change, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
