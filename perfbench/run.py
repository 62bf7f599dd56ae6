#!/usr/bin/env python3
"""coringlab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workloads are `ladder-qq`,
`ladder-gf`, `corpus` and `cli` (see `workloads.py` for why each exists).
One process generates all load, with no worker threads; `cli` runs its
commands as child processes one at a time.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json:
set-up time (the median of several fresh processes that import coringlab
and build the inputs), the median wall time of one repetition of the
workload's task list, verdict latency (median and tail) and peak RSS.
Times are in reference seconds: see `RefClock` in `workloads.py`.
With `--trace 1` it runs the task list untraced and then with the layer
tracer of `tracer.py` installed, and reports the per-layer metrics, the
tracing overhead among them.  Both modes check every verdict, exit code,
stdout and output digest against the seed commit's results
(`expected.json`), and print one JSON result as the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("ladder-qq", "ladder-gf", "corpus", "cli")
# Repetitions per run at --seconds 15 (other values scale them), fixed so
# that every run of a workload has the same sample count and the same tail
# percentile.  One repetition takes about 1.7, 0.4, 2.3 and 2.2 reference
# seconds.  The counts put the tail (the 11th slowest verdict) in the
# middle of one verdict kind rather than at the edge between two: with 7
# repetitions it is the median of the 7 n = 4 product checks on ladder-qq,
# of the 7 checks of the faster lifted product on corpus and of the 7
# `build lift` commands on cli; with 19 it sits mid-way through the 19
# n = 5 product checks on ladder-gf.
REPS_AT_15_S = {"ladder-qq": 7, "ladder-gf": 19, "corpus": 7, "cli": 7}
MIN_REPS = 3
TRACED_REPS = 2
SETUP_PROBES = 11

# Which layer metric each workload is predicted to use; the traced run
# fails its check when one of them is 0 there.
_LADDER_USES = (
    "exactla.matmul.calls", "exactla.matmul.identity_operands",
    "exactla.kron.calls", "exactla.kron.identity_operands",
    "exactla.identity.calls", "bimodule.space.calls", "bimodule.space.built",
    "bimodule.pipe.stages", "bimodule.pipe.done.self_s",
    "coring.compare_maps.calls", "cowreath.check_cowreath.s",
    "coring.check_coring.s", "equation.coassoc.s", "equation.cw-coassoc.s",
    "gc.collections")
USES = {
    "ladder-qq": _LADDER_USES + ("exactla.scalar.calls.qq",),
    "ladder-gf": _LADDER_USES + ("exactla.scalar.calls.gf",),
    "corpus": (
        "exactla.col.calls", "exactla.echelon.add.calls",
        "exactla.echelon.add.rank_gain_ratio", "exactla.echelon.reduce.calls",
        "bimodule.tensor_over.calls", "bimodule.tensor_over.built",
        "bimodule.tensor_over.hit_ratio", "bimodule.tensor_over.relations",
        "bimodule.descent.self_s", "coring.compare_maps.mismatches",
        "ore.table.self_s", "ore.skew_mul.calls", "ore.check_ore_wreath.s",
        "exactla.scalar.calls.qq", "exactla.scalar.calls.gf", "gc.collections"),
    "cli": ("session.parse.s", "session.parse.bytes", "session.serialize.s",
            "session.serialize.bytes", "cli.import_s", "cli.main.self_s",
            "bimodule.tensor_over.calls", "gc.collections"),
}
# Over the ground field every quotient is flat: no relations, no echelon.
ZERO = {w: ("exactla.echelon.add.calls", "bimodule.tensor_over.relations")
        for w in ("ladder-qq", "ladder-gf")}
# Counters that depend on allocation history rather than on the inputs.
NONDETERMINISTIC = ("gc.collections",)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.pop("CORINGLAB_SESSION", None)
    env["PYTHONPATH"] = SRC
    return env


def load_program():
    """Import coringlab from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "coringlab", "__init__.py")):
        fail(f"no coringlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import coringlab
    if os.path.dirname(os.path.dirname(os.path.abspath(coringlab.__file__))) != SRC:
        fail(f"imported coringlab from {coringlab.__file__}, not {SRC}")


def environment(args, reps):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": reps,
        "rungs": list(wl.RUNGS),
    }


def git_sha():
    """HEAD of the checkout's own .git, if it has one (it is not looked up
    outside the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


# ---------------------------------------------------------------------------
# workloads and the correctness gate


def make_workload(name, tmp):
    if name == "ladder-qq":
        return wl.Ladder("QQ")
    if name == "ladder-gf":
        return wl.Ladder("GF")
    if name == "corpus":
        return wl.CorpusWorkload()
    return wl.CliWorkload(ROOT, child_env(), os.path.relpath(tmp, ROOT))


def expected_outcomes(name):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    if name.startswith("ladder"):
        out = {}
        for n in wl.RUNGS:
            out[f"n{n}.check_cowreath"] = ("pass", (), "")
            out[f"n{n}.cowreath_product"] = ("pass", (), f"{golden[str(n)]}:values-ok")
            out[f"n{n}.check_coring"] = ("pass", (), "")
        return out
    return {k: (v[0], tuple(v[1]), v[2]) for k, v in golden.items()}


def failed_verdicts(outcomes, expected):
    bad = sorted(k for k in expected.keys() | outcomes.keys()
                 if outcomes.get(k) != expected.get(k))
    for k in bad[:5]:
        print(f"perfbench: verdict {k}: got {outcomes.get(k)}, "
              f"expected {expected.get(k)}", file=sys.stderr)
    return len(bad)


def run_rep(workload, seed, tracer=None, child=None):
    """One repetition: fresh caches and inputs (untimed), then the timed
    task list.  Returns (wall in reference seconds, Rep)."""
    from coringlab.bimodule import clear_caches
    clear_caches()
    inputs = workload.build_inputs(seed)
    rep = wl.Rep(tracer)
    gc.collect()
    rep.clock.mark()
    if child is None:
        workload.run(inputs, rep)
    else:
        workload.run(inputs, rep, child)
    rep.clock.mark()
    return rep.clock.total(), rep


# ---------------------------------------------------------------------------
# end-to-end measurement


def setup_seconds(name, seed):
    """Median over fresh processes of the time from process start until the
    inputs are built (for cli: until `import coringlab.cli` returns), in
    reference seconds; and the raw median."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)]
    times, raw = [], []
    for i in range(SETUP_PROBES + 1):  # the first one writes bytecode caches
        before = wl.calibration_point()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        child_speed = proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            fail(f"set-up probe for {name} failed")
        if i:
            # the probe may run on another core: scale by the speed measured
            # in the parent before it and in the probe right after set-up
            times.append(elapsed * wl.CAL_NOMINAL_S * 2 / (before + float(child_speed)))
            raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def tail(latencies):
    """The highest whole percentile with at least ten samples beyond it,
    nearest-rank; returns (percentile, value)."""
    n = len(latencies)
    if n <= 10:
        fail(f"{n} verdicts are too few for a tail percentile")
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(latencies)[rank - 1]


def measure(args, workload, reps, expected):
    walls, raw_walls, latencies, failed, attempted = [], [], [], 0, 0
    for _ in range(reps):
        wall, rep = run_rep(workload, args.seed)
        walls.append(wall)
        raw_walls.append(rep.clock.raw_total())
        latencies.extend(rep.latencies)
        attempted += len(rep.latencies)
        failed += failed_verdicts(rep.outcomes, expected)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    p, tail_s = tail(latencies)
    setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "verdict_p50_ms": statistics.median(latencies) * 1000,
        "verdict_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    record = {"tail_percentile": p, "verdict_samples": len(latencies),
              "failed_share": failed / attempted,
              "walls_s": walls, "raw_walls_s": raw_walls,
              "raw_setup_s": raw_setup_s}
    return metrics, record, attempted, failed, True


# ---------------------------------------------------------------------------
# traced measurement


def layer_metrics(snap):
    """The per-layer metrics of BENCHMARK.json from one repetition's raw
    tracer snapshot."""
    g = lambda k: snap.get(k, 0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    out = dict(snap)
    out.update({
        "exactla.echelon.add.rank_gain_ratio": ratio(
            g("exactla.echelon.add.rank_gains"), g("exactla.echelon.add.calls")),
        "bimodule.tensor_over.hit_ratio": ratio(
            g("bimodule.tensor_over.calls") - g("bimodule.tensor_over.built"),
            g("bimodule.tensor_over.calls")),
        "bimodule.tensor_over.flat_share": ratio(
            g("bimodule.tensor_over.flat"), g("bimodule.tensor_over.built")),
        "bimodule.space.built": g("bimodule.space.build.calls"),
        "bimodule.space.self_s": g("bimodule.space.self_s") + g("bimodule.space.build.self_s"),
        "bimodule.pipe.stages": g("bimodule.pipe.stage.calls"),
    })
    return out


def counters(snap):
    return {k: v for k, v in snap.items()
            if isinstance(v, int) and k not in NONDETERMINISTIC}


def measure_traced(args, workload, reps, expected):
    from tracer import Tracer
    untraced = [run_rep(workload, args.seed) for _ in range(reps)]
    tracer = Tracer()
    traced, snaps, child_spans, child_files = [], [], [], []
    child = cli_child_factory(child_files)
    if args.workload != "cli":
        tracer.install()
    try:
        for _ in range(reps):
            tracer.reset()
            if args.workload == "cli":
                child_files.clear()
                traced.append(run_rep(workload, args.seed, child=child))
                snap, spans = merge_child_metrics(child_files)
                child_spans.extend(spans)
            else:
                traced.append(run_rep(workload, args.seed, tracer))
                snap = tracer.snapshot()
            snaps.append(snap)
    finally:
        tracer.uninstall()

    attempted = failed = 0
    for _, rep in untraced + traced:
        attempted += len(rep.latencies)
        failed += failed_verdicts(rep.outcomes, expected)
    problems = []
    if any(rep.outcomes != untraced[0][1].outcomes for _, rep in untraced + traced):
        problems.append("traced and untraced verdicts or digests differ")
    if any(counters(s) != counters(snaps[0]) for s in snaps):
        problems.append("deterministic counters differ between repetitions")

    metrics = {}
    for snap in map(layer_metrics, snaps):
        for k, v in snap.items():
            metrics[k] = metrics.get(k, 0) + v / len(snaps)
    metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                   - statistics.median(w for w, _ in untraced))
    for k in USES.get(args.workload, ()):
        if not metrics.get(k):
            problems.append(f"{k} is 0 on {args.workload}")
    for k in ZERO.get(args.workload, ()):
        if metrics.get(k):
            problems.append(f"{k} is {metrics[k]} on {args.workload}, expected 0")
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)

    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "verdict"],
                   "spans": tracer.spans + child_spans}, fh)
    record = {"spans": os.path.relpath(spans_path, ROOT),
              "untraced_walls_s": [w for w, _ in untraced],
              "traced_walls_s": [w for w, _ in traced],
              "problems": problems,
              "layers": dict(sorted(metrics.items()))}
    return metrics, record, attempted, failed, not problems


def cli_child_factory(snaps):
    """argv prefixes that run one CLI command under the tracer; each child
    leaves its metrics and spans in a file that `snaps` collects."""
    os.makedirs(WORK, exist_ok=True)

    def child(name):
        path = os.path.join(WORK, f"cli-{len(snaps)}.json")
        snaps.append((name, path))
        return [sys.executable, os.path.join(HERE, "cli_child.py"), path]
    return child


def merge_child_metrics(snaps):
    """Sum the children's metrics (maxima stay maxima); renumber their spans
    apart and tag each with its command's name as the verdict id."""
    total, spans, offset = {}, [], 0
    for name, path in snaps:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(path)
        for k, v in data["metrics"].items():
            total[k] = max(total.get(k, 0), v) if k.endswith("max_dim") or \
                k.endswith("max_leaf_flat_dim") else total.get(k, 0) + v
        spans.extend([offset + sid, sname, t0, t1,
                      None if parent is None else offset + parent, name]
                     for sid, sname, t0, t1, parent, _ in data["spans"])
        offset += 1 + max((s[0] for s in data["spans"]), default=-1)
    return total, spans


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    reps = max(MIN_REPS, round(REPS_AT_15_S[args.workload] * args.seconds / 15))
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=WORK)
    try:
        workload = make_workload(args.workload, tmp)
        expected = expected_outcomes(args.workload)
        if args.trace:
            metrics, record, attempted, failed, ok = measure_traced(
                args, workload, TRACED_REPS, expected)
        else:
            metrics, record, attempted, failed, ok = measure(
                args, workload, reps, expected)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record.update(environment(args, TRACED_REPS if args.trace else reps))
    print(json.dumps({"record": record}))
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics.get(s["name"], 0), "unit": s["unit"]}
                    for s in specs},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
