import itertools
import pickle

import pytest
import hypothesis.strategies as st
from hypothesis import given

from strategies import assert_rebuilds, pbijs
from waning import (
    EMPTY,
    DomainError,
    PBij,
    PreconditionError,
    collapse,
)


def pb(*pairs):
    return PBij(pairs)


def test_compose_examples():
    assert pb((0, 1)) * pb((1, 2)) == pb((0, 2))
    a = pb((0, 3), (1, 4))
    assert a * a.inverse() == pb((0, 0), (1, 1))
    assert pb((0, 1)) * pb((2, 3)) == EMPTY


def test_invert_examples():
    assert pb((0, 3), (1, 4)).inverse() == pb((3, 0), (4, 1))
    assert EMPTY.inverse() == EMPTY
    assert pb((2, 2)).inverse() == pb((2, 2))


def test_restrict_examples():
    g = pb((0, 5), (3, 1), (7, 2))
    assert g.restrict(4) == pb((0, 5), (3, 1))
    assert g.restrict(0) == EMPTY
    assert g.restrict(8) == g


def test_validation_rejects_non_bijections():
    with pytest.raises(DomainError):
        PBij([(0, 1), (0, 2)])
    with pytest.raises(DomainError):
        PBij([(0, 1), (2, 1)])
    with pytest.raises(DomainError):
        PBij([(-1, 0)])


@pytest.mark.parametrize(
    "pairs", [[(1.5, 2)], [(1.5, 2), (True, 0)], [(0, False)], [("1", 2)]]
)
def test_non_integer_points_rejected_not_truncated(pairs):
    with pytest.raises(DomainError, match="not a natural"):
        PBij(pairs)


def test_lookup_cache_leaves_value_semantics_alone():
    pairs = [(3, 1), (0, 5), (4, 4)]
    used = PBij(pairs)
    assert used.get(3) == 1 and used.get(2) is None
    assert used.has_target(5) and not used.has_target(0)
    assert used.image == {1, 4, 5} and used.domain == {0, 3, 4}
    fresh = PBij(pairs)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "PBij({0↦5, 3↦1, 4↦4})"
    for original in (used, fresh):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == fresh and hash(copy) == hash(fresh)
        assert copy.get(0) == 5 and copy.has_target(1) and not copy.has_target(3)
        assert copy.domain == {0, 3, 4} and copy.image == {1, 4, 5}


@given(pbijs(), pbijs(), st.integers(0, 8))
def test_from_sorted_builds_what_the_constructor_builds(a, b, r):
    # products, inverses and restrictions are built by _from_sorted
    for g in (PBij._from_sorted(a.pairs), a * b, a.inverse(), a.restrict(r)):
        assert_rebuilds(g)
        g.get(0), g.image  # both lookups filled, through their slots
        assert_rebuilds(g)


def rank(avoid, x):
    """The number of naturals below x outside ``avoid``, counted one by one."""
    return sum(1 for v in range(x) if v not in avoid)


def collapse_oracle(g: PBij, h: PBij) -> PBij:
    """h's pairs off g, each source ranked outside dom(g) and each target
    outside im(g)."""
    return PBij(
        (rank(g.domain, x), rank(g.image, y)) for x, y in h.pairs if x not in g.domain
    )


def test_collapse_examples():
    g, h = pb((0, 0)), pb((0, 0), (2, 5))
    assert collapse(g, h) == pb((1, 4)) == collapse_oracle(g, h)
    assert collapse(g, g) == EMPTY
    g2, h2 = pb((1, 0)), pb((1, 0), (0, 2))
    assert collapse(g2, h2) == pb((0, 1)) == collapse_oracle(g2, h2)


def test_collapse_requires_extension():
    with pytest.raises(PreconditionError):
        collapse(pb((0, 0)), pb((1, 1)))


@given(pbijs())
def test_partial_identities(a):
    left = a * a.inverse()
    right = a.inverse() * a
    assert all(x == y for x, y in left.pairs) and left.domain == a.domain
    assert all(x == y for x, y in right.pairs) and right.domain == a.image
    assert a * a.inverse() * a == a


@given(pbijs(), pbijs(), pbijs())
def test_compose_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(pbijs())
def test_invert_involution(a):
    assert a.inverse().inverse() == a


@given(pbijs())
def test_collapse_matches_oracle_on_extensions(h):
    # partial identities, and every sub-map of h, whose domain and image
    # may have gaps
    sub_maps = [
        PBij(kept)
        for k in range(len(h) + 1)
        for kept in itertools.combinations(h.pairs, k)
    ]
    for g in [PBij.identity(n) for n in range(3)] + sub_maps:
        if h.extends(g):
            assert collapse(g, h) == collapse_oracle(g, h)
            assert len(collapse(g, h)) == len(h) - len(g)


def test_collapse_isomorphism_for_non_identity_idempotent():
    from waning import enumerate_universe

    g = pb((1, 1), (3, 3))
    ups = [h for h in enumerate_universe(4) if h.extends(g)]
    images = {collapse(g, h) for h in ups}
    assert len(images) == len(ups)
    for h in ups:
        for k in ups:
            assert collapse(g, h * k) == collapse(g, h) * collapse(g, k)


@given(
    st.sets(st.integers(0, 5), max_size=3),
    pbijs(max_point=9, max_size=3),
    pbijs(max_point=9, max_size=3),
)
def test_collapse_multiplicative_over_random_idempotents(fixed, h_extra, k_extra):
    g = PBij((x, x) for x in fixed)
    taken = g.domain | g.image

    def extend(extra):
        pairs = [
            (x, y)
            for x, y in extra.pairs
            if x not in taken and y not in taken
        ]
        return PBij(g.pairs + tuple(pairs))

    h, k = extend(h_extra), extend(k_extra)
    assert (h * k).extends(g)
    assert collapse(g, h * k) == collapse(g, h) * collapse(g, k)
