"""Acceptance gate: one test per criterion, each printed as a pass/fail line.

Every check is exact (zero counterexamples / exact counts) and carries a
wall-clock budget.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import itertools
import os
import time

import pytest

from strategies import as_genfn, closure_closed_form, pointwise_leq
from test_mutants import MUTANTS
from waning import (
    OMEGA,
    GenFn,
    closure,
    count_with_first_value_below,
    enumerate_below,
    enumerate_universe,
    is_waning,
    run_suite,
    staircase,
    universe_size,
)
from waning.harness import all_posets


def _finish(num: str, label: str, started: float, budget: float, ok: bool):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} [{label}]: {verdict} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} found violations"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _suite_criterion(num, label, budget, name, **kwargs):
    started = time.perf_counter()
    report = run_suite(name, **kwargs)
    _finish(num, label, started, budget, report.ok)


def test_criterion_01_census():
    started = time.perf_counter()
    ok = all(count_with_first_value_below(c) == 2**c for c in range(11))
    _finish("01", "waning census", started, 1.0, ok)


def test_criterion_02_closure_laws():
    started = time.perf_counter()
    values = [0, 1, 2, 3, 4, OMEGA]
    candidates = enumerate_below(staircase(4))
    ok = True
    for size in range(5):
        for prefix in itertools.product(values, repeat=size):
            for tail in (0, OMEGA):
                for omega in (0, OMEGA):
                    f = GenFn(prefix=prefix, tail=tail, omega=omega)
                    c = closure(f)
                    window = (
                        0 if c.const_omega else c.support_end
                    ) + size + 2
                    ok &= is_waning(as_genfn(c))
                    ok &= pointwise_leq(c, f, window)
                    ok &= closure(as_genfn(c)) == c
                    ok &= all(
                        c(i) == closure_closed_form(f, i) for i in range(window)
                    )
                    if tail == 0 and omega == 0 and OMEGA not in prefix:
                        for h in candidates:
                            horizon = max(h.support_end, size) + 1
                            if pointwise_leq(h, f, horizon):
                                ok &= pointwise_leq(h, c, horizon)
    _finish("02", "closure laws", started, 10.0, ok)


def test_criterion_03_neighbourhood_basis():
    _suite_criterion(
        "03", "neighbourhood basis", 60.0, "basis", bound=5, seed=1, sample=200
    )


def test_criterion_03c_neighbourhood_basis_bound7():
    _suite_criterion(
        "03c",
        "neighbourhood basis at bound 7",
        3.0,
        "basis",
        bound=7,
        seed=1,
        sample=200,
        jobs=1,
    )


def test_criterion_03d_universe_bound7():
    # __wrapped__ builds I_7 afresh and leaves the cache as it was
    started = time.perf_counter()
    ok = len(enumerate_universe.__wrapped__(7)) == universe_size(7)
    _finish("03d", "universe enumeration at bound 7", started, 3.0, ok)


def test_criterion_04_closure_neighbourhoods():
    _suite_criterion(
        "04",
        "closure neighbourhood equality and refinement",
        60.0,
        "much-wan",
        bound=5,
        seed=1,
        sample=100,
    )


def test_criterion_04b_closure_neighbourhoods_bound6():
    _suite_criterion(
        "04b",
        "closure neighbourhood equality and refinement at bound 6",
        10.0,
        "much-wan",
        bound=6,
        seed=1,
        sample=100,
        jobs=1,
    )


def test_criterion_04c_closure_neighbourhoods_bound7():
    _suite_criterion(
        "04c",
        "closure neighbourhood equality and refinement at bound 7",
        3.0,
        "much-wan",
        bound=7,
        seed=1,
        sample=100,
        jobs=1,
    )


def test_criterion_05_continuity():
    jobs = min(4, os.cpu_count() or 1)
    _suite_criterion(
        "05",
        "multiplication continuity",
        300.0,
        "continuity",
        bound=5,
        seed=1,
        sample=100,
        jobs=jobs,
    )


def test_criterion_05b_continuity_bound6():
    _suite_criterion(
        "05b",
        "multiplication continuity at bound 6",
        10.0,
        "continuity",
        bound=6,
        seed=1,
        sample=100,
        jobs=1,
    )


def test_criterion_06_order_dichotomy():
    _suite_criterion(
        "06", "order dichotomy", 10.0, "order", seed=1, sample=50
    )


def test_criterion_07_poset_embedding():
    started = time.perf_counter()
    posets = all_posets()
    sizes = {}
    for p in posets:
        sizes[len(p.elements)] = sizes.get(len(p.elements), 0) + 1
    ok = sizes[4] == 219 and len(posets) == 242
    ok &= run_suite("embed").ok
    _finish("07", "finite poset embedding", started, 30.0, ok)


def test_criterion_08_chains():
    _suite_criterion("08", "chains", 10.0, "chains", seed=1, sample=20)


def test_criterion_09_wany_identities():
    _suite_criterion("09", "wany identities", 10.0, "remark", bound=5)


def test_criterion_10_noncompactness():
    _suite_criterion(
        "10", "cover escape witnesses", 5.0, "compactness", seed=1, sample=20
    )


def test_criterion_11_collapse_isomorphism():
    _suite_criterion("11", "collapse map isomorphism", 30.0, "d-map", bound=4)


def test_criterion_11b_collapse_isomorphism_bound_6():
    _suite_criterion("11b", "collapse map isomorphism", 10.0, "d-map", bound=6)


def test_criterion_12_dual_symmetry():
    _suite_criterion(
        "12", "cross-family incomparability", 10.0, "dual", bound=4, seed=1, sample=50
    )


def test_criterion_13_mutant_gate():
    # every deliberate fault of tests/test_mutants.py fails its check
    started = time.perf_counter()
    escaped = []
    for fault, check in MUTANTS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            fault(monkeypatch)
            if check():
                escaped.append(fault.__name__)
    if escaped:
        print(f"faults no check caught: {escaped}")
    _finish("13", "mutant gate", started, 5.0, not escaped)
