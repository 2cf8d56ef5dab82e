"""Shared hypothesis strategies, brute-force oracles and test helpers."""

import contextlib
import signal

import hypothesis.strategies as st
import pytest

from waning import OMEGA, GenFn, PBij, WaningFn, is_omega


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


def closure_closed_form(f: GenFn, i: int):
    """Independent oracle: max(0, min over j <= i of f(j) - (i - j))."""
    best = None
    for j in range(i + 1):
        v = f(j)
        term = v if is_omega(v) else v - (i - j)
        best = term if best is None else min(best, term)
    return best if is_omega(best) else max(0, best)


def pointwise_leq(f, g, horizon: int) -> bool:
    """f(i) <= g(i) for all finite i up to a horizon covering both supports."""
    return all(f(i) <= g(i) for i in range(horizon))


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
