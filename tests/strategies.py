"""Shared hypothesis strategies, brute-force oracles and test helpers."""

import contextlib
import dataclasses
import os
import random
import signal

import hypothesis.strategies as st
import pytest

from waning import (
    OMEGA,
    GenFn,
    PBij,
    WaningFn,
    closure,
    collapse,
    enumerate_universe,
    is_omega,
    member,
    product_containment_check,
    valid_r_min,
    waning_sample,
)
from waning import descriptors as de
from waning import harness
from waning.descriptors import (
    DomMiss,
    Dual,
    FixBelow,
    ImMiss,
    Intersection,
    PointHit,
    UBasic,
    Wany,
    WNbhd,
)


@st.composite
def pbijs(draw, max_point=7, max_size=4):
    size = draw(st.integers(0, max_size))
    xs = draw(
        st.lists(st.integers(0, max_point), min_size=size, max_size=size, unique=True)
    )
    ys = draw(
        st.lists(st.integers(0, max_point), min_size=size, max_size=size, unique=True)
    )
    return PBij(zip(xs, ys))


@st.composite
def waning_fns(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return WaningFn(const_omega=True)
    prefix = draw(st.integers(0, 3))
    drops = draw(st.lists(st.integers(1, 8), max_size=4, unique=True))
    return WaningFn(omega_prefix=prefix, drops=tuple(sorted(drops, reverse=True)))


@st.composite
def genfns(draw):
    values = st.one_of(st.integers(0, 5), st.just(OMEGA))
    prefix = tuple(draw(st.lists(values, max_size=4)))
    tail = draw(st.sampled_from([0, OMEGA]))
    omega = draw(st.sampled_from([0, OMEGA]))
    return GenFn(prefix=prefix, tail=tail, omega=omega)


@st.composite
def wnbhds(draw, max_point=4):
    f = draw(waning_fns())
    g = draw(pbijs(max_point=max_point, max_size=3))
    return WNbhd(f, g, valid_r_min(f, g) + draw(st.integers(0, 2)))


def descriptors(max_point=4):
    """Descriptors of every kind over points up to ``max_point``, with
    duals and intersections nested."""
    point = st.integers(0, max_point)
    points = st.frozensets(point, max_size=3)
    leaves = st.one_of(
        st.builds(PointHit, point, point),
        st.builds(DomMiss, point),
        st.builds(ImMiss, point),
        st.builds(UBasic, waning_fns() | genfns(), st.integers(0, 3), points),
        wnbhds(max_point),
        st.builds(Wany, st.integers(0, 3), st.lists(points, min_size=1, max_size=3)),
        st.builds(FixBelow, pbijs(max_point=max_point, max_size=3), point),
    )
    return st.recursive(
        leaves,
        lambda inner: st.builds(Dual, inner)
        | st.builds(Intersection, st.lists(inner, max_size=3)),
        max_leaves=6,
    )


def closure_closed_form(f: GenFn, i: int):
    """Independent oracle: max(0, min over j <= i of f(j) - (i - j))."""
    best = None
    for j in range(i + 1):
        v = f(j)
        term = v if is_omega(v) else v - (i - j)
        best = term if best is None else min(best, term)
    return best if is_omega(best) else max(0, best)


def as_genfn(w: WaningFn) -> GenFn:
    """The waning function ``w`` with its leading values listed: the same
    function as a GenFn, for checking code that takes either type."""
    if w.const_omega:
        return GenFn(tail=OMEGA, omega=OMEGA)
    return GenFn(prefix=tuple(w(i) for i in range(w.support_end)))


def pointwise_leq(f, g, horizon: int) -> bool:
    """f(i) <= g(i) for all finite i up to a horizon covering both supports."""
    return all(f(i) <= g(i) for i in range(horizon))


def rebuilt(value):
    """``value`` built again through the public constructors, parts first,
    so that every constructor check runs on it.  Only the fields that the
    constructor takes are passed; the others, such as ``depth``, it sets."""
    if isinstance(value, tuple):
        return tuple(map(rebuilt, value))
    if not dataclasses.is_dataclass(value):
        return value
    fields = [f for f in dataclasses.fields(value) if f.init]
    return type(value)(**{f.name: rebuilt(getattr(value, f.name)) for f in fields})


def assert_rebuilds(value):
    """Oracle for a value built without its constructor's checks: the checked
    rebuild must succeed and be the same value."""
    copy = rebuilt(value)
    assert copy == value and hash(copy) == hash(value)


def swap_conjugate(g, h):
    """A deliberate fault for ``collapse``: collapse conjugated by the
    transposition (0 1).  Injective and multiplicative, and an automorphism
    of I_{B-n} once B - n >= 2, but not the inverse of the shift once
    B - n >= 1."""
    t = {0: 1, 1: 0}
    return PBij([(t.get(x, x), t.get(y, y)) for x, y in collapse(g, h).pairs])


def basis_refinement_one_less(monkeypatch):
    """A deliberate fault for ``basis_refinement``: one less, where the
    radius is still valid."""
    real = de.basis_refinement

    def fault(f, n, avoid, g):
        # still a valid radius, so the neighbourhood is still built
        return max(real(f, n, avoid, g) - 1, de.valid_r_min(f, g))

    monkeypatch.setattr(de, "basis_refinement", fault)


def closure_drops_its_last_drop(monkeypatch):
    """A deliberate fault for ``closure``, where the harness and the
    witnesses read it: the last drop of the waning closure is dropped."""

    def fault(f):
        w = closure(f)
        return w if w.const_omega else WaningFn(w.omega_prefix, w.drops[:-1])

    monkeypatch.setattr(harness, "closure", fault)
    monkeypatch.setattr(de, "closure", fault)


def least_joint_radius(f, a, b, r):
    """A deliberate fault for ``continuity_p``: the least radius valid for
    both factors.  Many products of its neighbourhoods leave the target."""
    return max(valid_r_min(f, a), valid_r_min(f, b))


def matches_all_products(f, a, b, bound) -> bool:
    """Whether ``product_containment_check`` agrees with the oracle that
    forms every product of the two factor neighbourhoods and tests each one."""
    c = a * b
    r = valid_r_min(f, c)
    p = de.continuity_p(f, a, b, r)
    wa, wb, wc = WNbhd(f, a, p), WNbhd(f, b, p), WNbhd(f, c, r)
    us = enumerate_universe(bound)
    left = [d for d in us if member(wa, d)]
    right = [e for e in us if member(wb, e)]
    naive = sorted(
        (d * e).pairs for d in left for e in right if not member(wc, d * e)
    )
    rep = product_containment_check(f, a, b, bound)
    return rep.cases == len(left) * len(right) and naive == sorted(
        w.pairs for _, w in rep.counterexamples
    )


def products_match_below_continuity_p() -> bool:
    """``matches_all_products`` on 300 seeded triples at bound 3, with
    ``continuity_p`` lowered to ``least_joint_radius``: so many products
    escape that classes whose products differ in membership would show."""
    rng = random.Random(0)
    fs, small = waning_sample(), enumerate_universe(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(de, "continuity_p", least_joint_radius)
        for _ in range(300):
            f, a, b = rng.choice(fs), rng.choice(small), rng.choice(small)
            if not matches_all_products(f, a, b, 3):
                return False
    return True


def count_forks(monkeypatch):
    """Patch ``harness.os.fork`` to record the caller's pid on each fork;
    returns the record."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(harness.os, "fork", counting_fork)
    return forks


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the enclosed block if it is still running after ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
