import itertools
from contextlib import nullcontext
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    as_genfn,
    assert_rebuilds,
    deadline,
    descriptors,
    genfns,
    much_wan_witness_via_closure,
    pbijs,
    waning_fns,
)
from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    OMEGA,
    DomainError,
    SIZE_LIMIT,
    BadBase,
    BoundTooLarge,
    DomMiss,
    Dual,
    EMPTY,
    FixBelow,
    GenFn,
    ImMiss,
    Intersection,
    InvalidDescriptor,
    InvalidR,
    NoWitness,
    NotMember,
    PBij,
    PointHit,
    PreconditionError,
    SetDescriptor,
    UBasic,
    Wany,
    WaningFn,
    WNbhd,
    basis_refinement,
    closure,
    continuity_p,
    cover_witness,
    cross_family_witness,
    enumerate_universe,
    equality_check,
    member,
    much_wan_witness,
    order_counterexample,
    subset_check,
    tfprime_refinement,
    valid_r_min,
    waning_sample,
)
from waning.descriptors import MAX_NESTING, _agrees_below, _reach
from waning.serialize import descriptor_from_obj, descriptor_to_obj


def pb(*pairs):
    return PBij(pairs)


def brute_subset(d1, d2, bound):
    """Independent oracle: scan the whole universe for violations."""
    return [
        h
        for h in enumerate_universe(bound)
        if member(d1, h) and not member(d2, h)
    ]


def brute_equal(d1, d2, bound):
    return not brute_subset(d1, d2, bound) and not brute_subset(d2, d1, bound)


def test_member_point_sets():
    assert member(PointHit(0, 1), pb((0, 1), (3, 2)))
    assert not member(PointHit(0, 1), pb((0, 2)))
    assert member(DomMiss(4), pb((0, 1)))
    assert not member(DomMiss(0), pb((0, 1)))
    assert member(ImMiss(4), pb((0, 1)))
    assert not member(ImMiss(1), pb((0, 1)))


def test_member_ubasic():
    d = UBasic(CONST_ZERO, 1, {0})
    assert member(d, pb((0, 1)))
    assert not member(d, pb((1, 0)))
    assert not member(UBasic(WaningFn(drops=(2,)), 1, {0}), EMPTY)


def test_member_wnbhd():
    d = WNbhd(CONST_ZERO, pb((0, 0)), 1)
    assert member(d, pb((0, 0), (2, 3)))
    assert not member(d, pb((0, 1)))
    # a mistake inside range(r) outside im(g) is counted
    d2 = WNbhd(CONST_ZERO, pb((0, 3)), 2)
    assert not member(d2, pb((0, 3), (5, 1)))
    assert member(WNbhd(WaningFn(drops=(1,)), EMPTY, 2), pb((4, 1)))


def test_member_wnbhd_validity():
    # radius 0 restricts g to nothing, so the size values disagree
    with pytest.raises(InvalidDescriptor):
        WNbhd(WaningFn(drops=(2, 1)), pb((5, 5)), 0)


def test_wnbhd_refuses_a_function_that_is_not_waning():
    with pytest.raises(InvalidDescriptor, match="not a waning function"):
        WNbhd(GenFn(prefix=(2, 1)), EMPTY, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: WNbhd(CONST_ZERO, [(0, 0)], 1), "not a partial bijection"),
        (lambda: FixBelow([(0, 0)], 1), "not a partial bijection"),
        (lambda: UBasic("x", 0, ()), "not a waning or eventually-constant function"),
    ],
    ids=["wnbhd-g", "fixbelow-g", "ubasic-f"],
)
def test_constructors_refuse_parts_of_the_wrong_type(build, message):
    with pytest.raises(InvalidDescriptor, match=message):
        build()


def test_member_wany():
    d = Wany(2, [frozenset()])
    for h in enumerate_universe(4):
        assert member(d, h) == (not h.domain & {0, 1})


def test_invalid_descriptors_rejected_at_construction():
    with pytest.raises(InvalidDescriptor):
        descriptor_from_obj({"W": {"f": {"drops": [2, 1]}, "g": [[5, 5]], "r": 0}})
    with pytest.raises(InvalidDescriptor):
        Wany(0, [])


def test_parts_that_are_not_descriptors_refused_at_construction():
    for make in (
        lambda: Dual(5),
        lambda: Intersection(["x", 5]),
        lambda: Intersection((DomMiss(0), 5)),
    ):
        with pytest.raises(InvalidDescriptor, match="not a descriptor"):
            make()


def test_every_kind_is_a_set_descriptor():
    kinds = [
        PointHit(0, 1),
        DomMiss(0),
        ImMiss(0),
        UBasic(CONST_ZERO, 0, ()),
        WNbhd(CONST_ZERO, EMPTY, 0),
        Wany(0, [()]),
        Dual(DomMiss(0)),
        Intersection(()),
        FixBelow(EMPTY, 0),
    ]
    assert len({type(d) for d in kinds}) == 9
    for d in kinds:
        assert isinstance(d, SetDescriptor)
        # each kind states its own membership test
        assert "_has" in vars(type(d))
        assert d.depth == (1 if isinstance(d, Dual) else 0)


def member_oracle(d, h):
    """Independent oracle: membership from each kind's definition, stated
    with restrictions, images and set operations."""
    if isinstance(d, PointHit):
        return (d.x, d.y) in set(h.pairs)
    if isinstance(d, DomMiss):
        return d.x not in h.domain
    if isinstance(d, ImMiss):
        return d.x not in h.image
    if isinstance(d, UBasic):
        return len(h.image - d.avoid) >= d.n and len(h.image & d.avoid) <= d.f(d.n)
    if isinstance(d, WNbhd):
        mistakes = h.image & set(range(d.r)) - d.g.image
        return h.restrict(d.r) == d.g.restrict(d.r) and len(mistakes) <= d.f(len(d.g))
    if isinstance(d, Wany):
        return h.domain.isdisjoint(range(d.n)) and any(
            h.image.isdisjoint(ys) for ys in d.families
        )
    if isinstance(d, Dual):
        return member_oracle(d.inner, h.inverse())
    if isinstance(d, Intersection):
        return all(member_oracle(part, h) for part in d.parts)
    if isinstance(d, FixBelow):
        return h.restrict(d.r) == d.g.restrict(d.r)
    raise AssertionError(f"no oracle for {d!r}")


@given(descriptors())
@settings(max_examples=200)
def test_member_matches_the_definitions(d):
    for h in enumerate_universe(3):
        assert member(d, h) == member_oracle(d, h)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: member(d, EMPTY),
        _reach,
        descriptor_to_obj,
        lambda d: subset_check(d, DomMiss(0), 2),
        lambda d: subset_check(DomMiss(0), d, 2),
        lambda d: equality_check(d, DomMiss(0), 2),
    ],
    ids=["member", "reach", "encode", "subset-left", "subset-right", "equality"],
)
@pytest.mark.parametrize(
    "value", [5, EMPTY, SetDescriptor()], ids=["int", "pbij", "bare-base"]
)
def test_values_that_are_not_descriptors_refused(call, value):
    with pytest.raises(InvalidDescriptor, match="not a descriptor"):
        call(value)


def test_dual_reaches_every_pair():
    # the scans clamp the reach to their bound
    assert _reach(Dual(ImMiss(0)))[2] == OMEGA
    assert _reach(Intersection((DomMiss(1), Dual(ImMiss(0)))))[2] == OMEGA


@pytest.mark.parametrize("refine", [basis_refinement, tfprime_refinement])
def test_refinements_refuse_a_function_that_is_not_one(refine):
    # the basic set is built first, and its constructor checks f
    with pytest.raises(InvalidDescriptor, match="not a waning"):
        refine("x", 0, [], EMPTY)


@pytest.mark.parametrize(
    "nest", [Dual, lambda d: Intersection((ImMiss(1), d))], ids=["dual", "and"]
)
def test_deepest_descriptors_run_and_deeper_are_refused(nest):
    d = DomMiss(0)
    for _ in range(MAX_NESTING):
        d = nest(d)
    assert d.depth == MAX_NESTING
    assert member(d, pb((1, 2)))
    _reach(d)
    repr(d)
    hash(d)
    assert descriptor_from_obj(descriptor_to_obj(d)) == d
    assert subset_check(d, d, 2).ok
    with pytest.raises(ValueError, match="nests deeper"):
        nest(d)


def test_radius_not_a_natural_refused_at_construction():
    # a negative radius would give subset scans sources below 0
    for r in (-1, 1.5, True, OMEGA):
        with pytest.raises(DomainError, match="not a natural"):
            FixBelow(EMPTY, r)
        with pytest.raises(DomainError, match="not a natural"):
            WNbhd(CONST_ZERO, EMPTY, r)
    with pytest.raises(DomainError):
        WNbhd(CONST_OMEGA, EMPTY, -2)


@pytest.mark.parametrize("v", [-1, 1.5, True])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: PointHit(v, 0),
        lambda v: PointHit(0, v),
        DomMiss,
        ImMiss,
        lambda v: UBasic(CONST_ZERO, v, {0}),
        lambda v: UBasic(CONST_ZERO, 0, {0, v}),
        lambda v: Wany(v, [{0}]),
        lambda v: Wany(0, [{0}, {2, v}]),
    ],
)
def test_points_and_sizes_not_naturals_refused_at_construction(make, v):
    with pytest.raises(DomainError, match="not a natural"):
        make(v)


small_pbijs = pbijs(max_point=4, max_size=3)


@given(small_pbijs, small_pbijs, st.integers(0, 6))
def test_agrees_below_matches_restrict(h, g, r):
    assert _agrees_below(h, g, r) == (h.restrict(r) == g.restrict(r))


def test_wany_families_canonical():
    assert Wany(1, [{1, 3}, {0}]) == Wany(1, [{0}, {3, 1}, {0}])


def test_member_dual_and_fix():
    assert member(Dual(DomMiss(1)), pb((0, 1))) == member(
        DomMiss(1), pb((1, 0))
    )
    assert member(FixBelow(pb((0, 0)), 1), pb((0, 0), (5, 2)))
    assert not member(FixBelow(pb((0, 0)), 1), pb((1, 2)))
    assert member(Intersection(()), EMPTY)


def test_valid_r_min_examples():
    assert valid_r_min(CONST_ZERO, pb((0, 0))) == 0
    assert valid_r_min(CONST_OMEGA, pb((3, 1), (7, 2))) == 0
    assert valid_r_min(WaningFn(drops=(2, 1)), pb((5, 5))) == 6


@given(waning_fns(), pbijs())
def test_valid_r_monotone_and_minimal(f, g):
    r = valid_r_min(f, g)
    size_value = f(len(g))
    for p in range(r, r + 4):
        assert f(p) <= size_value == f(len(g.restrict(p)))
    for p in range(r):
        assert not (f(p) <= size_value == f(len(g.restrict(p))))
    # WNbhd applies the same rule
    for p in range(r + 4):
        with _raises_if(p < r, InvalidDescriptor):
            WNbhd(f, g, p)


def _valid(f, g, r):
    return f(r) <= f(len(g)) == f(len(g.restrict(r)))


def _raises_if(invalid, error):
    return pytest.raises(error, match="not valid") if invalid else nullcontext()


@given(
    waning_fns(),
    genfns(),
    pbijs(max_point=5, max_size=3),
    pbijs(max_point=5, max_size=3),
    st.integers(0, 8),
)
def test_witnesses_refuse_exactly_the_invalid_radii(f, gen, a, b, r):
    # the refusals follow valid_r_min, and so the definition in _valid
    invalid = r < valid_r_min(f, a * b)
    assert invalid == (not _valid(f, a * b, r))
    with _raises_if(invalid, InvalidR):
        continuity_p(f, a, b, r)
    fp = closure(gen)
    invalid = r < valid_r_min(fp, a)
    assert invalid == (not _valid(fp, a, r))
    with _raises_if(invalid, PreconditionError):
        much_wan_witness(gen, a, r)


def stepping_valid_r_min(f, g):
    """Oracle: try radii 0, 1, 2, ... until one is valid.  The closed form is
    checked against this definition by test_valid_r_monotone_and_minimal."""
    r = 0
    while not _valid(f, g, r):
        r += 1
    return r


def stepping_basis_refinement(f, n, avoid, g):
    """Oracle: from the least valid radius clearing ``avoid``, step until n
    image points of g outside ``avoid`` are shown."""
    r = stepping_valid_r_min(f, g)
    if avoid:
        r = max(r, max(avoid) + 1)
    while sum(1 for x, y in g.pairs if x < r and y not in avoid) < n:
        r += 1
    return r


def stepping_continuity_p(f, a, b, r):
    """Oracle: the least p >= 1 valid for both factors and clearing the
    images of {0..r} under a and under the inverse of b."""
    a_bound = max((y for x, y in a.pairs if x <= r), default=-1)
    b_bound = max((x for x, y in b.pairs if y <= r), default=-1)
    p = 1
    while not (_valid(f, a, p) and _valid(f, b, p) and p > max(a_bound, b_bound)):
        p += 1
    return p


@given(
    waning_fns(),
    pbijs(max_point=5),
    st.integers(0, 4),
    st.frozensets(st.integers(0, 6), max_size=3),
)
def test_basis_refinement_matches_stepping_search(f, g, n, avoid):
    n = min(n, sum(1 for _, y in g.pairs if y not in avoid))
    if not member(UBasic(f, n, avoid), g):
        return
    assert basis_refinement(f, n, avoid, g) == stepping_basis_refinement(
        f, n, avoid, g
    )


@given(
    waning_fns(),
    pbijs(max_point=5, max_size=3),
    pbijs(max_point=5, max_size=3),
    st.integers(0, 3),
)
def test_continuity_p_matches_stepping_search(f, a, b, extra):
    r = valid_r_min(f, a * b) + extra
    assert continuity_p(f, a, b, r) == stepping_continuity_p(f, a, b, r)


def test_radii_of_a_far_source_return_at_once():
    f = WaningFn(drops=(1,))
    far = pb((10**8, 0))
    with deadline(2):
        assert valid_r_min(f, far) == 10**8 + 1
        assert basis_refinement(f, 1, (), far) == 10**8 + 1
        assert continuity_p(f, far, pb((0, 0)), 10**8 + 1) == 10**8 + 1
        assert continuity_p(f, pb((0, 0)), far, 1) == 10**8 + 1


def test_basis_refinement_examples():
    assert basis_refinement(CONST_ZERO, 1, {0}, pb((1, 2))) == 2
    assert basis_refinement(CONST_OMEGA, 1, set(), pb((0, 0))) == 1
    with pytest.raises(NotMember):
        basis_refinement(CONST_ZERO, 1, {0}, EMPTY)


@given(waning_fns(), pbijs(max_point=4, max_size=3))
@settings(max_examples=60)
def test_basis_refinement_minimal(f, g):
    n = min(1, len(g))
    avoid = frozenset({0})
    if not member(UBasic(f, n, avoid), g):
        return
    r = basis_refinement(f, n, avoid, g)

    def clauses(p):
        shown = sum(1 for x, y in g.pairs if x < p and y not in avoid)
        return p > max(avoid) and shown >= n and p >= valid_r_min(f, g)

    assert clauses(r)
    assert all(not clauses(p) for p in range(r))


def test_basis_refinement_containment():
    cases = [
        (CONST_ZERO, 1, frozenset({0}), pb((1, 2))),
        (CONST_OMEGA, 1, frozenset(), pb((0, 0))),
        (WaningFn(drops=(2, 1)), 1, frozenset({1}), pb((0, 0), (2, 3))),
    ]
    for f, n, avoid, g in cases:
        r = basis_refinement(f, n, avoid, g)
        assert member(WNbhd(f, g, r), g)
        assert not brute_subset(WNbhd(f, g, r), UBasic(f, n, avoid), 5)


def test_much_wan_example():
    f = GenFn(prefix=(5, 5, 5))
    g = pb((0, 0))
    got = much_wan_witness(f, g, 1)
    assert got == Intersection(
        (FixBelow(g, 1), UBasic(f, 0, frozenset({0})))
    )
    assert brute_equal(got, WNbhd(closure(f), g, 1), 5)


def test_much_wan_waning_input_is_identity():
    f = WaningFn(drops=(3, 1))
    g = pb((1, 4))
    r = valid_r_min(f, g)
    got = much_wan_witness(as_genfn(f), g, r)
    assert brute_equal(got, WNbhd(f, g, r), 4)


def test_much_wan_omega_branch():
    got = much_wan_witness(GenFn(tail=OMEGA, omega=OMEGA), pb((0, 2)), 0)
    assert got == FixBelow(pb((0, 2)), 0)
    assert all(member(got, h) for h in enumerate_universe(3))


def test_much_wan_precondition():
    with pytest.raises(PreconditionError):
        much_wan_witness(GenFn(prefix=(2, 1)), pb((5, 5)), 0)


# eventually-constant functions with a finite nonzero tail, some of them
# with a closure of more than SIZE_LIMIT drops
long_tails = st.builds(
    GenFn,
    st.lists(st.integers(0, 5) | st.just(OMEGA), max_size=4).map(tuple),
    st.sampled_from([2, SIZE_LIMIT, 10**6]),
)


@given(
    genfns() | waning_fns() | long_tails,
    pbijs(max_point=6, max_size=4),
    st.integers(0, 9) | st.just(SIZE_LIMIT + 1),
)
def test_much_wan_witness_matches_the_closure_oracle(f, g, r):
    def outcome(witness):
        try:
            return witness(f, g, r)
        except (PreconditionError, BoundTooLarge) as exc:
            return type(exc)

    try:
        closure(f)
    except BoundTooLarge:
        # the oracle refuses every radius; the witness reads f only up to |g|
        assert outcome(much_wan_witness_via_closure) is BoundTooLarge
        return
    assert outcome(much_wan_witness) == outcome(much_wan_witness_via_closure)


def test_much_wan_witness_answers_a_closure_past_the_size_limit():
    f, g = GenFn(tail=10**6), pb((0, 1))
    with pytest.raises(BoundTooLarge):
        closure(f)
    with deadline(2):
        got = much_wan_witness(f, g, 2)
    # the closure is 10^6 - k up to 10^6, so |g| = 1 leaves a budget of
    # 999,999 mistakes: at bound 4 only the agreement below 2 binds
    assert got == Intersection((FixBelow(g, 2), UBasic(f, 0, frozenset({0, 1}))))
    assert brute_equal(got, FixBelow(g, 2), 4)


def test_tfprime_positive_branch():
    f = GenFn(prefix=(5, 5, 5))
    got = tfprime_refinement(f, 1, {0}, pb((1, 2)))
    assert got == UBasic(closure(f), 1, frozenset({0}))
    assert member(got, pb((1, 2)))
    assert not brute_subset(got, UBasic(f, 1, frozenset({0})), 5)


def test_tfprime_zero_branch():
    f = GenFn(prefix=(5, 5, 5))
    g = pb((0, 1), (1, 2), (2, 3))
    assert closure(f)(len(g)) == 0
    got = tfprime_refinement(f, 1, {0}, g)
    assert isinstance(got, WNbhd)
    assert member(got, g)
    assert not brute_subset(got, UBasic(f, 1, frozenset({0})), 5)
    with pytest.raises(NotMember):
        tfprime_refinement(f, 1, {2}, pb((0, 2)))


def test_tfprime_on_waning_input_stays_basic():
    w = WaningFn(drops=(3, 1))
    got = tfprime_refinement(as_genfn(w), 1, {0}, pb((1, 2)))
    assert got == UBasic(w, 1, frozenset({0}))
    g = pb((0, 1), (1, 2))
    assert w(len(g)) == 0
    got = tfprime_refinement(as_genfn(w), 1, {4}, g)
    assert isinstance(got, WNbhd) and got.f == w


@pytest.mark.parametrize("w", waning_sample())
def test_witnesses_read_a_waning_fn_as_its_genfn(w):
    us = enumerate_universe(4)

    def members(d):
        return [h for h in us if member(d, h)]

    f = as_genfn(w)
    for g in enumerate_universe(2):
        r = valid_r_min(w, g)
        for radius in (r, r + 2):
            got = much_wan_witness(w, g, radius)
            assert members(got) == members(much_wan_witness(f, g, radius))
        for n, avoid in ((0, {0}), (1, {1}), (1, ())):
            if member(UBasic(w, n, avoid), g):
                got = tfprime_refinement(w, n, avoid, g)
                assert members(got) == members(tfprime_refinement(f, n, avoid, g))


def test_continuity_examples():
    assert continuity_p(CONST_ZERO, pb((0, 1)), pb((1, 2)), 1) == 2
    assert continuity_p(CONST_ZERO, EMPTY, EMPTY, 0) == 1
    # at OMEGA every validity clause holds, only the point bounds matter
    assert continuity_p(CONST_OMEGA, pb((0, 1)), pb((1, 2)), 1) == 2
    # here a*b = {(5,5)} and radius 0 sees none of it
    with pytest.raises(InvalidR):
        continuity_p(WaningFn(drops=(2, 1)), pb((5, 5)), pb((5, 5)), 0)


def test_continuity_guarantee_brute():
    f, a, b = CONST_ZERO, pb((0, 1)), pb((1, 2))
    c = a * b
    r = valid_r_min(f, c)
    p = continuity_p(f, a, b, r)
    us = enumerate_universe(4)
    for d in us:
        if not member(WNbhd(f, a, p), d):
            continue
        for e in us:
            if member(WNbhd(f, b, p), e):
                assert member(WNbhd(f, c, r), d * e)


def test_order_counterexample_examples():
    n, b, h = order_counterexample(CONST_ZERO, WaningFn(drops=(1,)), 2)
    assert (n, b, h) == (0, 1, pb((2, 0)))
    n, b, h = order_counterexample(
        WaningFn(drops=(1,)), WaningFn(drops=(2, 1)), 3
    )
    assert (n, b, h) == (0, 2, pb((3, 0), (4, 1)))
    with pytest.raises(NoWitness):
        order_counterexample(WaningFn(drops=(2,)), WaningFn(drops=(2,)), 9)
    with pytest.raises(PreconditionError):
        order_counterexample(CONST_ZERO, WaningFn(drops=(1,)), 1)


def test_order_counterexample_size_limit():
    f, g = WaningFn(drops=(SIZE_LIMIT - 1,)), WaningFn(drops=(SIZE_LIMIT,))
    n, b, h = order_counterexample(f, g, SIZE_LIMIT + 1)
    assert (n, b, len(h)) == (0, SIZE_LIMIT, SIZE_LIMIT)
    f, g = WaningFn(drops=(SIZE_LIMIT,)), WaningFn(drops=(10**8,))
    with deadline(2), pytest.raises(BoundTooLarge):
        order_counterexample(f, g, 10**9)


def test_order_counterexample_far_omega_prefix():
    far = WaningFn(omega_prefix=10**8)
    with deadline(2), pytest.raises(NoWitness):
        order_counterexample(CONST_OMEGA, far, 5)
    with deadline(2), pytest.raises(BoundTooLarge):
        order_counterexample(far, WaningFn(omega_prefix=10**8, drops=(1,)), 5)


def test_much_wan_witness_size_limit():
    f = GenFn(prefix=(1,))
    assert much_wan_witness(f, EMPTY, SIZE_LIMIT).parts[0] == FixBelow(EMPTY, SIZE_LIMIT)
    with pytest.raises(BoundTooLarge):
        much_wan_witness(f, EMPTY, SIZE_LIMIT + 1)


def test_order_counterexample_against_omega():
    # a finite separation bound exists even when the other value is OMEGA
    n, b, h = order_counterexample(CONST_ZERO, CONST_OMEGA, 9)
    assert (n, b) == (0, 1)
    assert member(WNbhd(CONST_OMEGA, PBij.identity(n), 9), h)
    assert not member(WNbhd(CONST_ZERO, PBij.identity(n), b), h)


@given(waning_fns(), waning_fns())
@settings(max_examples=60)
def test_order_membership_facts(f, g):
    ends = [0 if w.const_omega else w.support_end for w in (f, g)]
    r = sum(ends) + max(f.drops, default=0) + 2
    try:
        n, b, h = order_counterexample(f, g, r)
    except NoWitness:
        assert all(f(i) >= g(i) for i in range(max(ends) + 1))
        return
    ident = PBij.identity(n)
    assert member(WNbhd(g, ident, r), h)
    assert not member(WNbhd(f, ident, b), h)


def test_cover_witness_examples():
    assert cover_witness(0, EMPTY, set(), set(range(10)), True) == pb((0, 10))
    assert cover_witness(1, pb((0, 1)), {2}, set(range(10)), True) == pb(
        (0, 1), (1, 10)
    )
    base = pb((0, 3))
    assert cover_witness(1, base, {2}, set(), False) == base
    with pytest.raises(BadBase):
        cover_witness(1, pb((2, 0)), set(), set(), False)
    with pytest.raises(BadBase):
        cover_witness(1, pb((0, 2)), {2}, set(), False)


@given(waning_fns(), waning_fns(), st.integers(0, 3))
@settings(max_examples=100)
def test_order_counterexample_is_a_checked_element(f, g, extra):
    r = (0 if f.const_omega else f.support_end) + max(f.drops, default=0) + 2 + extra
    try:
        _, _, h = order_counterexample(f, g, r)
    except NoWitness:
        return
    assert h == PBij(list(h.pairs))


@given(
    st.integers(0, 5),
    pbijs(max_point=5, max_size=3),
    st.frozensets(st.integers(0, 6), max_size=3),
    st.frozensets(st.integers(0, 6), max_size=3),
    st.booleans(),
)
def test_cover_witness_is_a_checked_element(n, h0, avoid, covered, dommiss):
    if any(x >= n for x in h0.domain) or h0.image & avoid:
        with pytest.raises(BadBase):
            cover_witness(n, h0, avoid, covered, dommiss)
        return
    h = cover_witness(n, h0, avoid, covered, dommiss)
    assert h == PBij(list(h.pairs))


def test_witnesses_refuse_points_that_are_not_naturals():
    for n in (-1, 2.5, True):
        with pytest.raises(DomainError):
            cover_witness(n, EMPTY, set(), {0}, False)
    # checked before the empty subfamily returns the base unchanged
    for args in ((-1, EMPTY, [], [], False), (0, EMPTY, [-1], [0], False)):
        with pytest.raises(DomainError, match="not a natural"):
            cover_witness(*args)
    for r in (2.5, 7.0):
        with pytest.raises(DomainError):
            order_counterexample(CONST_ZERO, WaningFn(drops=(1,)), r)
    for v in (-1, 2.5, True):
        with pytest.raises(DomainError):
            cross_family_witness(v, 0)
        with pytest.raises(DomainError):
            cross_family_witness(0, v)
    # an OMEGA radius passes the validity test that f(r) makes
    for r in (-1, 2.5, True, OMEGA):
        with pytest.raises(DomainError, match="not a natural"):
            much_wan_witness(GenFn(prefix=(2,)), EMPTY, r)
        with pytest.raises(DomainError, match="not a natural"):
            continuity_p(WaningFn(drops=(2,)), pb((0, 0)), pb((0, 1)), r)


@pytest.mark.parametrize(
    "call",
    [
        lambda: UBasic(CONST_ZERO, 0, [1, True]),
        lambda: Wany(0, [[0, False]]),
        lambda: cover_witness(0, EMPTY, [1, 1.0], [], True),
        lambda: basis_refinement(CONST_ZERO, 0, [True], EMPTY),
        lambda: basis_refinement(CONST_ZERO, 0, [1, True], EMPTY),
        lambda: tfprime_refinement(GenFn(), 0, [1, 1.0], EMPTY),
    ],
    ids=["ubasic", "wany", "cover", "basis", "basis-merged", "tfprime-merged"],
)
def test_points_checked_before_a_set_merges_them(call):
    # True and 1.0 equal 1, so a set built first would hide them
    with pytest.raises(DomainError, match="not a natural"):
        call()


@given(genfns() | waning_fns(), pbijs(max_point=5, max_size=3), st.integers(0, 3))
def test_much_wan_witness_passes_the_checked_constructors(f, g, extra):
    assert_rebuilds(much_wan_witness(f, g, valid_r_min(closure(f), g) + extra))


@given(
    genfns() | waning_fns(),
    st.integers(0, 2),
    st.frozensets(st.integers(0, 6), max_size=3),
    pbijs(max_point=5, max_size=3),
)
def test_tfprime_refinement_passes_the_checked_constructors(f, n, avoid, g):
    try:
        d = tfprime_refinement(f, n, avoid, g)
    except NotMember:
        return
    assert_rebuilds(d)


@given(waning_fns(), st.integers(0, 9), st.integers(0, 9))
def test_cross_family_witness_separates_off_the_top(f, x, r):
    h = cross_family_witness(x, r)
    w = WNbhd(f, EMPTY, r)
    assert h == pb((x, r))
    assert not member(DomMiss(x), h) and not member(ImMiss(x), h.inverse())
    # off the top f(0) >= 1 allows the one mistake; at the top only x >= r works
    separated = member(Dual(w), h) and member(w, h.inverse())
    assert separated == (f != CONST_ZERO or x >= r)


@given(descriptors(), pbijs(max_point=4, max_size=3))
@settings(max_examples=200)
def test_dual_involution_and_semantics(d, h):
    assert member(Dual(d), h) == member(d, h.inverse())
    assert member(Dual(Dual(d)), h) == member(d, h)


@given(descriptors(), pbijs(max_point=4, max_size=3))
@settings(max_examples=20)
def test_deep_dual_chain_answers_by_parity(d, h):
    # the deepest chain that can be built: Duals up to MAX_NESTING levels
    levels = MAX_NESTING - d.depth
    deep = d
    for _ in range(levels):
        deep = Dual(deep)
    assert deep.depth == MAX_NESTING
    assert member(deep, h) == member(Dual(d) if levels % 2 else d, h)


# Bad input to the witnesses, whose sets skip their constructors' checks: the
# witnesses make those checks themselves, and every combination below must
# raise the error of the first check that fails, in the order stated by
# _much_wan_refusal and _refinement_refusal.
BASE = pb((0, 1), (2, 0))
FUNCTIONS = [
    GenFn(prefix=(1,)),  # its closure is 0 at |BASE|: tfprime builds a W set
    GenFn(prefix=(3, 3, 3)),  # positive there: tfprime builds a U set
    WaningFn(drops=(2, 1)),
    None,
    "x",
    lambda k: 0,  # callable, as the witnesses call f, but no function type
    BASE,
]
# a stand-in with BASE's pairs and image reads as BASE up to a type check
ELEMENTS = [
    BASE, None, BASE.pairs, SimpleNamespace(pairs=BASE.pairs, image=BASE.image)
]
# the first of each is valid: the radius 4 shows every pair of BASE, so it
# is valid for every f, and BASE lies in the basic set (f, 0, {3})
RADII = [4, True, 4.0, -1]
SIZES = [0, True, 4.0, -1]
POINTS = [[3], [True], [3.0], [-1]]


def _natural(v):
    return type(v) is int and v >= 0


NOT_NATURAL = DomainError, "is not a natural"
NO_PAIRS = AttributeError, "has no attribute 'pairs'"
NOT_A_PBIJ = InvalidDescriptor, "not a partial bijection"
NOT_A_FUNCTION = InvalidDescriptor, "not a waning or eventually-constant function"


def _much_wan_refusal(f, g, r):
    """(error, part of its message) of the first check much_wan_witness
    fails, or None."""
    if not _natural(r):
        return NOT_NATURAL
    if not hasattr(g, "pairs"):
        return NO_PAIRS
    if not callable(f):
        return TypeError, "is not callable"
    if not isinstance(g, PBij):
        return NOT_A_PBIJ
    if not isinstance(f, (GenFn, WaningFn)):
        return NOT_A_FUNCTION
    return None


def _refinement_refusal(refine, f, n, avoid, g):
    """(error, part of its message) of the first check a refinement fails,
    or None."""
    if not _natural(n):
        return NOT_NATURAL
    if not isinstance(f, (GenFn, WaningFn)):
        return NOT_A_FUNCTION
    if not all(map(_natural, avoid)):
        return NOT_NATURAL
    if not hasattr(g, "pairs"):
        return NO_PAIRS
    if refine is basis_refinement:
        # its radius reads f's canonical form, which a GenFn lacks
        return None if isinstance(f, WaningFn) else (AttributeError, "const_omega")
    # only the W set that tfprime_refinement builds at a closure 0 checks g
    if not isinstance(g, PBij) and closure(f)(len(g.pairs)) == 0:
        return NOT_A_PBIJ
    return None


def _assert_refused(call, want):
    try:
        call()
    except Exception as error:  # the type is compared exactly, not by subclass
        assert want and type(error) is want[0] and want[1] in str(error), error
    else:
        assert want is None


def test_much_wan_witness_refuses_bad_input_in_its_order():
    for f, g, r in itertools.product(FUNCTIONS, ELEMENTS, RADII):
        _assert_refused(lambda: much_wan_witness(f, g, r), _much_wan_refusal(f, g, r))


@pytest.mark.parametrize(
    "refine", [tfprime_refinement, basis_refinement], ids=["tfprime", "basis"]
)
def test_refinements_refuse_bad_input_in_their_order(refine):
    for f, g, n, avoid in itertools.product(FUNCTIONS, ELEMENTS, SIZES, POINTS):
        want = _refinement_refusal(refine, f, n, avoid, g)
        _assert_refused(lambda: refine(f, n, avoid, g), want)
