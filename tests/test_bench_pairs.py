"""`scripts/bench_pairs.py` refuses a checkout whose `src/` holds bytecode
caches, since cold `cli` commands there skip compiling and read faster,
and runs each trace seed twice per side, keeping the lower of each time."""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def checkout(tmp_path, name, *files):
    root = tmp_path / name
    for f in ("src/pkg/__init__.py",) + files:
        (root / f).parent.mkdir(parents=True, exist_ok=True)
        (root / f).write_text("")
    return str(root)


def test_clean_checkout_has_no_caches(tmp_path):
    root = checkout(tmp_path, "clean", "perfbench/__pycache__/run.pyc",
                    "tests/__pycache__/t.pyc")
    assert bench_pairs.bytecode_caches(root) == []


def test_caches_under_src_are_found(tmp_path):
    root = checkout(tmp_path, "cached", "src/pkg/__pycache__/a.pyc",
                    "src/pkg/sub/__pycache__/b.pyc")
    assert bench_pairs.bytecode_caches(root) == [
        os.path.join(root, "src", "pkg", "__pycache__"),
        os.path.join(root, "src", "pkg", "sub", "__pycache__")]


@pytest.mark.parametrize("cached_side", ["parent", "change"])
def test_main_refuses_a_cached_checkout(tmp_path, monkeypatch, cached_side):
    sides = {side: checkout(tmp_path, side) for side in ("parent", "change")}
    sides[cached_side] = checkout(tmp_path, cached_side,
                                  "src/pkg/__pycache__/a.pyc")
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", sides["parent"], "--change",
        sides["change"], "--pr", "0", "--seeds", "1"])
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main()
    assert os.path.join(sides[cached_side], "src", "pkg", "__pycache__") in str(
        exit_.value.code)
    assert not os.path.exists(os.path.join(sides["change"], "BENCH_0.json"))


def test_trace_seeds_run_twice_per_side(tmp_path, monkeypatch):
    """Each trace seed runs twice per side, interleaved in the seed's order.
    A time keeps the lower of its two runs; a count keeps the first run's
    value, and a count that differs between the two is a problem."""
    sides = {side: checkout(tmp_path, side) for side in ("parent", "change")}
    bench = {"run_seconds": 1, "workloads": [{"name": "w"}],
             "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                             "bound": 0.2}],
             "per_layer": [{"name": "x.s", "unit": "s", "better": "lower"},
                           {"name": "x.calls", "unit": "count", "better": "lower"}]}
    with open(os.path.join(sides["change"], "BENCHMARK.json"), "w") as fh:
        json.dump(bench, fh)
    # the traced runs of (side, seed), in order: (x.s, x.calls)
    traced = {("parent", 1): [(3.0, 5), (1.0, 5)], ("change", 1): [(0.5, 5), (2.0, 5)],
              ("parent", 2): [(4.0, 6), (4.5, 6)], ("change", 2): [(1.5, 5), (1.0, 7)]}
    calls = []

    def fake_run_bench(root, workload, seed, seconds, trace):
        side = os.path.basename(root)
        calls.append((side, seed, trace))
        x_s, x_calls = traced[side, seed].pop(0) if trace else (0.0, 0)
        metrics = {"wall_s": {"value": 1.0}, "x.s": {"value": x_s},
                   "x.calls": {"value": x_calls}}
        return ({"metrics": metrics, "correct": True, "failed": 0, "attempted": 1},
                {"problems": []})

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", sides["parent"], "--change",
        sides["change"], "--pr", "0", "--seeds", "1", "--trace-seeds", "1", "2"])
    assert bench_pairs.main() == 0
    assert [c for c in calls if c[2]] == [
        ("parent", 1, 1), ("change", 1, 1), ("parent", 1, 1), ("change", 1, 1),
        ("change", 2, 1), ("parent", 2, 1), ("change", 2, 1), ("parent", 2, 1)]
    with open(os.path.join(sides["change"], "BENCH_0.json")) as fh:
        out = json.load(fh)
    layer = out["per_layer"]["w"]
    assert layer["x.s"] == {"parent": [1.0, 4.0], "change": [0.5, 1.0]}
    assert layer["x.calls"] == {"parent": [5, 6], "change": [5, 5]}
    assert layer["problems"] == {
        "parent": [],
        "change": ["seed 2: x.calls reads 5 in the first traced run and 7 in "
                   "the second"]}
    assert "two per side per seed" in out["method"]
