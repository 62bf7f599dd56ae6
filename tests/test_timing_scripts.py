"""The private functions that `scripts/time_ladder.py` (`KERNELS`) and
`scripts/time_lifts.py` (`PARTS`) wrap to count and time must each be
defined on the owner the script names, not inherited by it, so that a
deleted or renamed function fails here instead of the script silently
wrapping an inherited one; and a small ladder rung and the first lift
case run through the scripts' counting wrappers and pass, with the list
kernel, the union-finds and the decided equations each counted."""

import importlib.util
import os

import pytest

from coringlab.exactla import QQ

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


time_ladder, time_lifts = load("time_ladder"), load("time_lifts")


@pytest.mark.parametrize("owner, name", time_ladder.KERNELS + time_lifts.PARTS,
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_wrapped_function_is_defined_on_its_owner(owner, name):
    assert name in vars(owner)


def test_ladder_rung_runs_through_the_counted_kernels():
    reals = [vars(owner)[name] for owner, name in time_ladder.KERNELS]
    (times, ok, dim), (lists, rows) = time_ladder.counted_kernels(
        time_ladder.run_rung, QQ, 2)
    assert ok and dim == 4 and len(times) == 6
    assert lists > 0
    assert [vars(owner)[name] for owner, name in time_ladder.KERNELS] == reals


def test_lift_case_runs_through_the_timed_parts():
    reals = [vars(owner)[name] for owner, name in time_lifts.PARTS]
    _, entwine, c, d = next(time_lifts.cases())
    (times, ok, lifted, prod), spent, calls, hits = time_lifts.timed_parts(
        time_lifts.run_case, entwine, c, d)
    assert ok and len(times) == 4 and len(spent) == len(time_lifts.PARTS)
    counted = dict(zip((name for _, name in time_lifts.PARTS), calls))
    assert counted["_padded_lists"] > 0
    assert counted["_union_find"] > 0
    assert counted["_decided"] > 0
    assert [vars(owner)[name] for owner, name in time_lifts.PARTS] == reals
