import itertools

import pytest
from hypothesis import given, settings

from strategies import waning_fns
from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    Comparison,
    DomainError,
    FinitePoset,
    GenFn,
    InvalidPoset,
    PolishTopology,
    WaningFn,
    compare,
    descending_chain_element,
    embed_poset,
    hasse_dot,
    join_topology,
    preceq,
    waning_sample,
)


def test_dual_top_canonicalizes():
    assert PolishTopology(CONST_ZERO, dual=True) == PolishTopology(CONST_ZERO)


def test_topology_refuses_a_label_that_is_not_waning():
    with pytest.raises(DomainError, match="not a waning function"):
        PolishTopology(GenFn())


@pytest.mark.parametrize("dual", ["yes", 1, None])
def test_topology_refuses_a_side_that_is_not_a_bool(dual):
    # a truthy label that is not True would make a topology incomparable
    # with itself, as compare tests the sides with ==
    with pytest.raises(DomainError, match="dual must be a bool"):
        PolishTopology(WaningFn(drops=(1,)), dual)


def test_compare_examples():
    t = PolishTopology(WaningFn(drops=(1,)))
    top = PolishTopology(CONST_ZERO)
    assert compare(t, top) == Comparison.COARSER_STRICT
    assert compare(top, t) == Comparison.FINER_STRICT
    assert compare(top, PolishTopology(CONST_ZERO, dual=True)) == Comparison.EQUAL
    assert (
        compare(PolishTopology(CONST_OMEGA), PolishTopology(CONST_OMEGA, dual=True))
        == Comparison.INCOMPARABLE
    )


def test_compare_cross_family_top():
    dual = PolishTopology(WaningFn(drops=(2,)), dual=True)
    top = PolishTopology(CONST_ZERO)
    assert compare(top, dual) == Comparison.FINER_STRICT
    assert compare(dual, top) == Comparison.COARSER_STRICT


def test_join_examples():
    j = join_topology(
        PolishTopology(WaningFn(drops=(5, 1))),
        PolishTopology(WaningFn(drops=(3, 2, 1))),
    )
    assert j == PolishTopology(WaningFn(drops=(3, 1)))
    mixed = join_topology(
        PolishTopology(CONST_OMEGA), PolishTopology(CONST_OMEGA, dual=True)
    )
    assert mixed == PolishTopology(CONST_ZERO)
    t = PolishTopology(WaningFn(drops=(2,)), dual=True)
    assert join_topology(t, t) == t


@given(waning_fns(), waning_fns())
@settings(max_examples=60)
def test_compare_antisymmetric_flip(f, g):
    for dual in (False, True):
        t1, t2 = PolishTopology(f, dual), PolishTopology(g, dual)
        c12, c21 = compare(t1, t2), compare(t2, t1)
        flips = {
            Comparison.EQUAL: Comparison.EQUAL,
            Comparison.FINER_STRICT: Comparison.COARSER_STRICT,
            Comparison.COARSER_STRICT: Comparison.FINER_STRICT,
            Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
        }
        assert c21 == flips[c12]


@given(waning_fns(), waning_fns())
@settings(max_examples=60)
def test_join_topology_is_upper_bound(f, g):
    for dual1, dual2 in itertools.product((False, True), repeat=2):
        t1, t2 = PolishTopology(f, dual1), PolishTopology(g, dual2)
        j = join_topology(t1, t2)
        for t in (t1, t2):
            assert compare(t, j) in (Comparison.EQUAL, Comparison.COARSER_STRICT)


def test_join_topology_is_least():
    # every common upper bound in the sample lies above the join: the sample
    # members above t1 and above t2 are all above join(t1, t2)
    ts = [PolishTopology(f, dual) for f in waning_sample() for dual in (False, True)]

    def above(t):
        coarser = (Comparison.EQUAL, Comparison.COARSER_STRICT)
        return frozenset(u for u in ts if compare(t, u) in coarser)

    ups = {t: above(t) for t in ts}
    for t1, t2 in itertools.product(ts, repeat=2):
        j = join_topology(t1, t2)
        if j not in ups:
            ups[j] = above(j)
        assert ups[t1] & ups[t2] <= ups[j], (t1, t2)


def chain_poset():
    return FinitePoset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")])


def antichain_poset():
    return FinitePoset(["a", "b"], [("a", "a"), ("b", "b")])


def test_poset_repr_is_a_function_of_the_value():
    p = FinitePoset(["a", "b"], [("b", "b"), ("a", "b"), ("a", "a")])
    text = "FinitePoset(elements=('a', 'b'), leq=[('a', 'a'), ('a', 'b'), ('b', 'b')])"
    assert repr(p) == text
    # the constructor reads the repr back
    assert eval(text) == p


def test_poset_validation():
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "a"], [("a", "a")])
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"], [])
    with pytest.raises(InvalidPoset):
        FinitePoset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])
    with pytest.raises(InvalidPoset):
        FinitePoset(
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )
    with pytest.raises(InvalidPoset):
        FinitePoset(["a"], [("a", "a"), ("a", "z")])


@pytest.mark.parametrize("elements, leq", [([1], [(1, 1)]), (["1"], [("1", 1)])])
def test_poset_refuses_labels_that_are_not_strings(elements, leq):
    with pytest.raises(DomainError, match="labels must be strings, got 1"):
        FinitePoset(elements, leq)


@pytest.mark.parametrize(
    "elements, leq",
    [
        # a string is iterable: "ab" would be the labels a and b, and the
        # leq entry "ab" the pair (a, b)
        ("ab", [("a", "a"), ("b", "b")]),
        ({"a": 0, "b": 1}, [("a", "a"), ("b", "b")]),
        (["a", "b"], [("a", "a"), ("b", "b"), "ab"]),
        (["a"], [("a", "a", "a")]),
    ],
    ids=["elements-string", "elements-dict", "leq-entry-string", "leq-entry-triple"],
)
def test_poset_refuses_shapes_that_are_not_arrays(elements, leq):
    with pytest.raises(DomainError, match="expected an array"):
        FinitePoset(elements, leq)


def test_embed_antichain_example():
    mapping = embed_poset(antichain_poset())
    multisets = {
        tuple(sorted([*w.drops, 0], reverse=True)) for w in mapping.values()
    }
    assert multisets == {(8, 4, 0), (7, 5, 0)}
    fa, fb = mapping["a"], mapping["b"]
    assert not preceq(fa, fb) and not preceq(fb, fa)


def test_embed_chain_and_singleton():
    mapping = embed_poset(chain_poset())
    assert preceq(mapping["a"], mapping["b"])
    assert not preceq(mapping["b"], mapping["a"])
    single = embed_poset(FinitePoset(["x"], [("x", "x")]))
    assert set(single) == {"x"}


def test_hasse_single_node():
    dot = hasse_dot([CONST_ZERO])
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_hasse_chain_path():
    fns = [descending_chain_element(n) for n in range(3)]
    dot = hasse_dot(fns)
    assert dot.count("label=") == 3
    assert dot.count("->") == 2
    # later chain elements are coarser; covers point towards the constant-0 top
    assert "n2 -> n1" in dot and "n1 -> n0" in dot


def test_hasse_antichain_no_edges():
    mapping = embed_poset(antichain_poset())
    dot = hasse_dot(mapping.values())
    assert dot.count("label=") == 2
    assert "->" not in dot


def test_hasse_transitive_reduction():
    fns = [CONST_ZERO, WaningFn(drops=(1,)), WaningFn(drops=(2,))]
    dot = hasse_dot(fns)
    # three-element chain: only the two covering edges survive
    assert dot.count("->") == 2
