"""`scripts/bench_pairs.py` refuses a checkout whose `src/` holds bytecode
caches, since cold `cli` commands there skip compiling and read faster."""

import importlib.util
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
