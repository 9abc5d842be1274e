"""Observability decorators must commute and never perturb results.

Every permutation of the tracer / metrics / attribution / checked
decorators stacked on one machine must produce a simulated outcome
bit-identical to the bare run — the observer-neutrality contract the
``decorators`` fuzz oracle enforces, pinned here exhaustively for a
fixed configuration (and spot-checked with the run under the host
profiler's stack sampler, and under a degraded scenario).
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import permutations

import pytest

from repro.analysis.fuzz import FuzzDraw, run_decorated
from repro.sim.reference import run_case

BASE = FuzzDraw(
    app="IS",
    app_kwargs=(("n_keys", 128), ("nbuckets", 16), ("seed", 0)),
    system="RCinv",
    nprocs=4,
)

STACKS_4 = list(permutations(("tracer", "metrics", "attrib", "checked")))


@pytest.fixture(scope="module")
def bare():
    return json.loads(json.dumps(
        run_case(BASE.factory(), BASE.system, BASE.verify, config=BASE.config())
    ))


def _stacked(draw):
    return json.loads(json.dumps(run_decorated(draw)))


@pytest.mark.parametrize("stack", STACKS_4, ids="-".join)
def test_all_four_decorator_orders_are_neutral(stack, bare):
    assert _stacked(replace(BASE, decorators=stack)) == bare


@pytest.mark.parametrize(
    "stack",
    [
        ("profiler", "tracer", "metrics", "attrib", "checked"),
        ("checked", "attrib", "metrics", "tracer", "profiler"),
        ("metrics", "profiler", "checked"),
    ],
    ids="-".join,
)
def test_profiler_composes_with_other_decorators(stack, bare):
    assert _stacked(replace(BASE, decorators=stack)) == bare


def test_stacking_is_neutral_under_degradation():
    degraded = replace(
        BASE, scenario="bursty", knobs=(("duty", 0.5), ("factor", 2.0))
    )
    bare = json.loads(json.dumps(
        run_case(degraded.factory(), degraded.system, degraded.verify,
                 config=degraded.config())
    ))
    stacked = replace(degraded, decorators=("checked", "tracer", "metrics", "attrib"))
    assert _stacked(stacked) == bare
