import pickle
from itertools import dropwhile

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypothesis import settings

from strategies import (
    assert_rebuilds,
    closure_closed_form,
    deadline,
    genfns,
    pointwise_leq,
    waning_fns,
)
from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    OMEGA,
    SIZE_LIMIT,
    BoundTooLarge,
    DomainError,
    GenFn,
    OmegaEntries,
    WaningFn,
    closure,
    count_with_first_value_below,
    descending_chain_element,
    enumerate_below,
    is_omega,
    is_waning,
    join,
    meet,
    preceq,
    staircase,
)


def horizon(*fns):
    ends = [0 if w.const_omega else w.support_end for w in fns]
    return max(ends) + 2


# the worked piecewise example: OMEGA up to 42, then 1337 - x, then 0
EXAMPLE = GenFn(
    prefix=tuple([OMEGA] * 43 + [1337 - x for x in range(43, 69)]),
    tail=0,
    omega=0,
)


def test_eval_example_fixture():
    assert EXAMPLE(50) == 1287
    assert is_omega(EXAMPLE(10))
    assert EXAMPLE(69) == 0
    assert EXAMPLE(OMEGA) == 0
    assert is_waning(EXAMPLE)


def test_eval_tail_form_at_top_point():
    assert WaningFn(drops=(3, 1))(OMEGA) == 0
    assert is_omega(CONST_OMEGA(OMEGA))


def test_is_waning_examples():
    assert is_waning(GenFn())
    assert not is_waning(GenFn(prefix=(2, 2)))
    assert is_waning(GenFn(prefix=(OMEGA, 3, 2, 1)))
    # constant OMEGA on the finite indices only is not waning
    assert not is_waning(GenFn(tail=OMEGA, omega=0))
    assert is_waning(GenFn(tail=OMEGA, omega=OMEGA))


def test_closure_examples():
    assert closure(GenFn(prefix=(5, 5, 5))) == WaningFn(drops=(5, 4, 3))
    w = WaningFn(omega_prefix=1, drops=(4, 2))
    assert closure(w.as_genfn()) == w
    assert closure(GenFn(tail=OMEGA, omega=0)) == CONST_OMEGA


def test_closure_of_example_fixture():
    got = closure(EXAMPLE)
    assert got.omega_prefix == 43
    assert got.drops == tuple(1337 - x for x in range(43, 69))


@given(genfns())
def test_closure_laws(f):
    c = closure(f)
    assert is_waning(c.as_genfn())
    window = (0 if c.const_omega else c.support_end) + len(f.prefix) + 2
    assert pointwise_leq(c, f, window)
    assert closure(c.as_genfn()) == c
    for i in range(window):
        assert c(i) == closure_closed_form(f, i)


def test_preceq_examples():
    assert preceq(WaningFn(drops=(3, 1)), WaningFn(drops=(2,)))
    f, g = WaningFn(drops=(5, 1)), WaningFn(drops=(3, 2, 1))
    assert not preceq(f, g) and not preceq(g, f)
    assert preceq(f, f)
    assert preceq(CONST_OMEGA, f) and not preceq(f, CONST_OMEGA)
    assert preceq(f, CONST_ZERO)


def test_join_examples():
    assert join(WaningFn(drops=(5, 1)), WaningFn(drops=(3, 2, 1))) == WaningFn(
        drops=(3, 1)
    )
    f = WaningFn(drops=(4, 2))
    assert join(f, CONST_OMEGA) == f
    assert join(f, CONST_ZERO) == CONST_ZERO


def test_meet_examples():
    assert meet(
        WaningFn(drops=(5, 1)), WaningFn(drops=(3, 2, 1))
    ) == WaningFn(drops=(5, 2, 1))
    f = WaningFn(drops=(4, 2))
    assert meet(f, f) == f
    assert meet(CONST_OMEGA, f) == CONST_OMEGA


@given(waning_fns(), waning_fns())
def test_meet_is_pointwise_max(f, g):
    m = meet(f, g)
    for i in range(horizon(f, g)):
        assert m(i) == max(f(i), g(i))
    assert is_waning(m.as_genfn())


@given(waning_fns(), waning_fns(), waning_fns())
def test_join_is_least_upper_bound(f, g, h):
    j = join(f, g)
    assert preceq(f, j) and preceq(g, j)
    if preceq(f, h) and preceq(g, h):
        assert preceq(j, h)


@given(waning_fns(), waning_fns())
def test_join_meet_algebra(f, g):
    assert join(f, g) == join(g, f)
    assert join(f, f) == f
    m = meet(f, g)
    assert preceq(m, f) and preceq(m, g)


@given(waning_fns(), waning_fns(), waning_fns())
def test_join_associative(f, g, h):
    assert join(join(f, g), h) == join(f, join(g, h))


def _preceq_by_index(f, g):
    if f.const_omega:
        return True
    if g.const_omega:
        return False
    end = max(f.support_end, g.support_end)
    return all(f(i) >= g(i) for i in range(end))


def _join_by_index(f, g):
    if f.const_omega:
        return g
    if g.const_omega:
        return f
    end = max(f.support_end, g.support_end)
    values = GenFn(prefix=tuple(min(f(i), g(i)) for i in range(end)))
    assert is_waning(values)
    return closure(values)


def _meet_by_index(f, g):
    if f.const_omega or g.const_omega:
        return CONST_OMEGA
    end = max(f.support_end, g.support_end)
    values = GenFn(prefix=tuple(max(f(i), g(i)) for i in range(end)))
    assert is_waning(values)
    return closure(values)


@given(waning_fns(), waning_fns())
@settings(max_examples=300)
def test_lattice_matches_per_index_definitions(f, g):
    assert preceq(f, g) == _preceq_by_index(f, g)
    assert join(f, g) == _join_by_index(f, g)
    assert meet(f, g) == _meet_by_index(f, g)


def test_lattice_of_far_omega_prefixes():
    far = WaningFn(omega_prefix=10**8)
    far_drops = WaningFn(omega_prefix=10**8, drops=(3, 1))
    with deadline(2):
        assert preceq(far, CONST_ZERO) and preceq(far_drops, far)
        assert not preceq(far, far_drops)
        assert join(far, far_drops) == far
        assert meet(far, far_drops) == far_drops


def test_closure_and_as_genfn_size_limit():
    # an OMEGA tail unwinds one finite value v into v drops
    unwound = closure(GenFn(prefix=(SIZE_LIMIT,), tail=OMEGA))
    assert unwound.drops == tuple(range(SIZE_LIMIT, 0, -1))
    with pytest.raises(BoundTooLarge):
        closure(GenFn(prefix=(SIZE_LIMIT + 1,), tail=OMEGA))
    assert len(WaningFn(omega_prefix=SIZE_LIMIT).as_genfn().prefix) == SIZE_LIMIT
    with pytest.raises(BoundTooLarge):
        WaningFn(omega_prefix=SIZE_LIMIT, drops=(1,)).as_genfn()


def test_enumerate_below_examples():
    assert enumerate_below(WaningFn(drops=(1,))) == [
        CONST_ZERO,
        WaningFn(drops=(1,)),
    ]
    assert enumerate_below(CONST_ZERO) == [CONST_ZERO]
    assert len(enumerate_below(WaningFn(drops=(2,)))) == 3
    with pytest.raises(OmegaEntries):
        enumerate_below(CONST_OMEGA)
    with pytest.raises(OmegaEntries):
        enumerate_below(WaningFn(omega_prefix=1, drops=(1,)))


def test_enumerate_below_is_downset():
    f = WaningFn(drops=(3, 2))
    below = enumerate_below(f)
    assert len(set(below)) == len(below)
    for h in below:
        assert pointwise_leq(h, f, horizon(h, f))
        assert preceq(f, h)


def test_enumerate_below_size_limit():
    # 2 ** 17 functions lie below staircase(17): refused before enumerating
    with pytest.raises(BoundTooLarge):
        enumerate_below(staircase(17))
    # one drop of value v has v + 1 functions below it
    assert len(enumerate_below(WaningFn(drops=(SIZE_LIMIT - 1,)))) == SIZE_LIMIT
    with pytest.raises(BoundTooLarge):
        enumerate_below(WaningFn(drops=(SIZE_LIMIT,)))


def test_census_counts():
    for c in range(11):
        assert count_with_first_value_below(c) == 2**c


def test_census_membership():
    fns = enumerate_below(staircase(3))
    assert len(fns) == 8
    assert all(w(0) <= 3 for w in fns)


def test_census_subset_bijection():
    # independent construction: a function starting at v >= 1 is exactly a
    # choice of which values below v remain nonzero
    import itertools

    c = 5
    built = {CONST_ZERO}
    for v in range(1, c + 1):
        for size in range(v):
            for rest in itertools.combinations(range(v - 1, 0, -1), size):
                built.add(WaningFn(drops=(v, *rest)))
    assert built == set(enumerate_below(staircase(c)))
    assert len(built) == 2**c


def test_chain_examples():
    assert descending_chain_element(0) == CONST_ZERO
    assert descending_chain_element(2) == WaningFn(drops=(2,))
    assert preceq(descending_chain_element(5), descending_chain_element(4))
    assert not preceq(descending_chain_element(4), descending_chain_element(5))


def test_canonical_equality_is_pointwise():
    f = WaningFn(omega_prefix=1, drops=(3, 1))
    g = WaningFn(omega_prefix=1, drops=(3, 2))
    assert f != g
    assert any(f(i) != g(i) for i in range(horizon(f, g)))
    same = WaningFn(omega_prefix=1, drops=(3, 1))
    assert f == same and hash(f) == hash(same)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drops": (2.5,)},
        {"drops": (True,)},
        {"drops": (3, "1")},
        {"omega_prefix": 1.5},
        {"omega_prefix": True},
        {"omega_prefix": -1},
        {"omega_prefix": -1, "const_omega": True},
    ],
)
def test_non_integer_entries_rejected_not_truncated(kwargs):
    with pytest.raises(DomainError, match="not a natural"):
        WaningFn(**kwargs)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"const_omega": True, "drops": (1,)}, "no finite data"),
        ({"const_omega": True, "omega_prefix": 2}, "no finite data"),
        ({"drops": (2, 0)}, "stay positive"),
        ({"drops": (1, 2)}, "not strictly decreasing"),
        ({"drops": (2, 2)}, "not strictly decreasing"),
    ],
)
def test_malformed_canonical_forms_refused(kwargs, match):
    with pytest.raises(DomainError, match=match):
        WaningFn(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"prefix": (2.5,)},
        {"tail": -1},
        {"omega": True},
        {"prefix": ("omega",)},
    ],
)
def test_genfn_rejects_values_outside_the_extended_naturals(kwargs):
    with pytest.raises(DomainError, match="natural or OMEGA"):
        GenFn(**kwargs)


@given(st.integers(0, 10**6))
def test_extnat_algebra(n):
    assert n < OMEGA and not OMEGA <= n
    assert OMEGA + n == OMEGA and OMEGA - n == OMEGA
    assert min(n, OMEGA) == n and max(n, OMEGA) == OMEGA
    assert is_omega(OMEGA) and not is_omega(n)
    assert pickle.loads(pickle.dumps(OMEGA)) == OMEGA


def test_is_waning_rejects_bad_shapes():
    for values in ([2, 2], [0, 3], [3, OMEGA]):
        assert not is_waning(GenFn(prefix=tuple(values)))


def stepping_call(f, i):
    """Oracle: evaluate a canonical form by testing the OMEGA run, then
    stepping into the drops."""
    if i < 0:
        raise DomainError(f"negative index {i}")
    if f.const_omega:
        return OMEGA
    if is_omega(i):
        return 0
    if i < f.omega_prefix:
        return OMEGA
    j = i - f.omega_prefix
    return f.drops[j] if j < len(f.drops) else 0


def stepping_closure(f):
    """Oracle: the closure's step rules, calling ``f`` at every index."""
    i = 0
    while is_omega(f(i)):
        if i >= len(f.prefix) and is_omega(f.tail):
            return CONST_OMEGA
        i += 1
    omega_prefix, value = i, f(i)
    drops = []
    while value != 0:
        drops.append(value)
        i += 1
        value = min(f(i), value - 1)
    return WaningFn(omega_prefix, tuple(drops))


@given(waning_fns(), st.one_of(st.integers(-3, 16), st.just(OMEGA)))
@example(CONST_OMEGA, -1)
def test_call_matches_stepping_definition(f, i):
    if i < 0:
        with pytest.raises(DomainError):
            f(i)
        with pytest.raises(DomainError):
            stepping_call(f, i)
        return
    assert f(i) == stepping_call(f, i)


@pytest.mark.parametrize(
    "f", [WaningFn(drops=(3, 2)), CONST_OMEGA, GenFn(prefix=(3,)), GenFn(tail=OMEGA)]
)
@pytest.mark.parametrize("i", [0.5, 1.5, 2.0, True, "1", None])
def test_call_refuses_an_index_that_is_not_a_natural_or_omega(f, i):
    with pytest.raises(DomainError, match="natural or OMEGA"):
        f(i)


extnats = st.one_of(st.integers(0, 9), st.just(OMEGA))


def _omega_run_then_drops_then_zeros(values):
    """Oracle: an OMEGA run, then a strictly decreasing positive run, then
    zeros, split at the first non-OMEGA and after the last nonzero value."""
    head = len(values) - len(list(dropwhile(is_omega, values)))
    zeros = len(values) - len(list(dropwhile(lambda v: v == 0, values[::-1])))
    drops = values[head : len(values) - zeros]
    return all(0 < v < OMEGA for v in drops) and all(
        a > b for a, b in zip(drops, drops[1:])
    )


@given(st.lists(extnats, max_size=7))
@settings(max_examples=300)
def test_closure_of_waning_values_agrees_with_them(values):
    prefix = GenFn(prefix=tuple(values))
    assert is_waning(prefix) == _omega_run_then_drops_then_zeros(values)
    if not is_waning(prefix):
        return
    f = closure(prefix)
    assert [f(i) for i in range(len(values) + 2)] == values + [0, 0]
    assert f(OMEGA) == 0


@given(
    st.lists(extnats, max_size=5),
    st.integers(0, 5),
    st.sampled_from([-1, 2.5, True, None, "omega"]),
)
@example([1], 1, "omega")
def test_genfn_refuses_a_non_natural_entry(values, at, bad):
    values.insert(at, bad)
    with pytest.raises(DomainError, match="natural or OMEGA"):
        GenFn(prefix=tuple(values))


@given(st.lists(extnats, max_size=6), extnats, extnats)
@settings(max_examples=300)
def test_closure_matches_stepping_definition(prefix, tail, omega):
    f = GenFn(prefix=tuple(prefix), tail=tail, omega=omega)
    assert closure(f) == stepping_closure(f)


def test_closure_oracle_edges():
    cases = [
        GenFn(prefix=(OMEGA, OMEGA), tail=OMEGA, omega=0),
        GenFn(prefix=(OMEGA, OMEGA), tail=3),
        GenFn(prefix=(OMEGA, 4, OMEGA, OMEGA), tail=OMEGA),
        GenFn(prefix=(2, OMEGA), tail=OMEGA),
        GenFn(prefix=(OMEGA, 0), tail=OMEGA),
        GenFn(tail=5),
    ]
    expected = [
        CONST_OMEGA,
        WaningFn(2, (3, 2, 1)),
        WaningFn(1, (4, 3, 2, 1)),
        WaningFn(0, (2, 1)),
        WaningFn(1),
        WaningFn(0, (5, 4, 3, 2, 1)),
    ]
    for f, want in zip(cases, expected):
        assert closure(f) == stepping_closure(f) == want
    with pytest.raises(BoundTooLarge):
        closure(GenFn(tail=SIZE_LIMIT + 1))


EXTNATS = st.integers(0, 6) | st.just(OMEGA)


@given(st.builds(GenFn, st.lists(EXTNATS, max_size=5).map(tuple), EXTNATS, EXTNATS))
def test_closure_passes_the_checked_constructor(f):
    assert_rebuilds(closure(f))


@given(waning_fns(), waning_fns())
def test_join_and_meet_pass_the_checked_constructor(f, g):
    assert_rebuilds(join(f, g))
    assert_rebuilds(meet(f, g))


def test_enumerate_below_passes_the_checked_constructor():
    for c in range(7):
        for w in enumerate_below(staircase(c)):
            assert_rebuilds(w)
