import copy
import dataclasses
import json
import pickle

import pytest

from waning import (
    CONST_OMEGA,
    CONST_ZERO,
    EMPTY,
    OMEGA,
    DomainError,
    Dual,
    DomMiss,
    FinitePoset,
    FixBelow,
    GenFn,
    ImMiss,
    Intersection,
    PBij,
    PointHit,
    PolishTopology,
    UBasic,
    Wany,
    WaningFn,
    WNbhd,
    subset_check,
)
from waning.descriptors import MAX_NESTING
from waning.serialize import (
    descriptor_from_obj,
    descriptor_to_obj,
    dumps,
    fn_from_obj,
    genfn_from_obj,
    genfn_to_obj,
    nats_from_obj,
    pb_from_obj,
    pb_to_obj,
    poset_from_obj,
    topology_from_obj,
    topology_to_obj,
    value_from_obj,
    value_to_obj,
    waning_from_obj,
    waning_to_obj,
)


def test_value_round_trip():
    assert value_from_obj(value_to_obj(OMEGA)) == OMEGA
    assert value_from_obj(value_to_obj(7)) == 7
    assert value_to_obj(OMEGA) == "omega"
    assert OMEGA != 3 and 3 != OMEGA and not (OMEGA != OMEGA)


def _nested(value):
    """value, then every value inside its fields and tuples, depth first."""
    yield value
    if isinstance(value, tuple):
        for part in value:
            yield from _nested(part)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _nested(getattr(value, field.name))


def test_values_round_trip_through_pickle_and_copy():
    looked_up = PBij([(3, 1), (0, 2)])
    assert looked_up.get(0) == 2 and looked_up.has_target(1)  # both lookups
    f = WaningFn(omega_prefix=1, drops=(3, 1))
    gen = GenFn(prefix=(1, OMEGA), tail=0, omega=OMEGA)
    leaves = (
        PointHit(0, 1),
        DomMiss(2),
        ImMiss(3),
        UBasic(gen, 1, {0, 4}),
        WNbhd(f, looked_up, 4),
        Wany(1, [[2], [3, 5]]),
        FixBelow(looked_up, 2),
    )
    nested = Intersection((Dual(Intersection(leaves)), Dual(Dual(DomMiss(0)))))
    assert nested.depth == 3
    values = (
        looked_up,
        EMPTY,
        f,
        CONST_OMEGA,
        CONST_ZERO,
        gen,
        *leaves,
        nested,
        PolishTopology(f, dual=True),
        FinitePoset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")]),
        subset_check(DomMiss(0), ImMiss(0), 2),
    )
    for value in values:
        copies = (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        )
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
            for a, b in zip(_nested(twin), _nested(value)):
                # depth is no compared field, so equality does not cover it
                assert getattr(a, "depth", 0) == getattr(b, "depth", 0)
                assert not hasattr(a, "__dict__") and not hasattr(b, "__dict__")
    for twin in (pickle.loads(pickle.dumps(looked_up)), copy.deepcopy(looked_up)):
        assert twin.get(3) == 1 and twin.has_target(2) and not twin.has_target(0)
        assert twin.domain == {0, 3} and twin.image == {1, 2}


def test_pb_round_trip():
    p = PBij([(3, 1), (0, 5)])
    assert pb_to_obj(p) == [[0, 5], [3, 1]]
    assert pb_from_obj(pb_to_obj(p)) == p


def test_waning_round_trip():
    for w in (CONST_OMEGA, WaningFn(omega_prefix=2, drops=(4, 1)), WaningFn()):
        assert waning_from_obj(waning_to_obj(w)) == w
    assert waning_to_obj(CONST_OMEGA) == {"const": "omega"}


def test_genfn_round_trip():
    f = GenFn(prefix=(OMEGA, 3), tail=0, omega=0)
    assert genfn_from_obj(genfn_to_obj(f)) == f
    assert genfn_to_obj(f)["prefix"] == ["omega", 3]


def test_fn_from_obj_discriminates():
    assert isinstance(fn_from_obj({"prefix": [1], "tail": 0, "omega": 0}), GenFn)
    assert isinstance(fn_from_obj({"omega_prefix": 0, "drops": [2]}), WaningFn)
    assert isinstance(fn_from_obj({"const": "omega"}), WaningFn)
    # prefix and tail have defaults, so omega alone is a GenFn too
    assert fn_from_obj({"omega": "omega"}) == GenFn(omega=OMEGA)


def test_descriptor_round_trip_all_tags():
    g = PBij([(0, 0)])
    descriptors = [
        PointHit(1, 2),
        DomMiss(0),
        ImMiss(3),
        UBasic(WaningFn(drops=(2,)), 1, {0, 4}),
        UBasic(GenFn(prefix=(3, 3)), 0, set()),
        WNbhd(WaningFn(), g, 1),
        Wany(2, [frozenset({0}), frozenset({1, 3})]),
        Dual(DomMiss(1)),
        Intersection((DomMiss(0), ImMiss(1))),
        FixBelow(g, 2),
    ]
    for d in descriptors:
        obj = descriptor_to_obj(d)
        assert descriptor_from_obj(json.loads(dumps(obj))) == d


@pytest.mark.parametrize(
    "tag, wrap", [("dual", lambda d: d), ("and", lambda d: [{"immiss": 1}, d])]
)
def test_descriptor_nesting_is_capped(tag, wrap):
    obj = {"dommiss": 0}
    for _ in range(MAX_NESTING):
        obj = {tag: wrap(obj)}
    d = descriptor_from_obj(obj)
    assert d.depth == MAX_NESTING and descriptor_to_obj(d) == obj
    with pytest.raises(ValueError, match="nests deeper"):
        descriptor_from_obj({tag: wrap(obj)})
    # the decoder recurses as deep as the parsed object goes
    for _ in range(2000):
        obj = {tag: wrap(obj)}
    with pytest.raises(RecursionError):
        descriptor_from_obj(obj)


def test_topology_round_trip():
    for t in (
        PolishTopology(CONST_OMEGA),
        PolishTopology(WaningFn(drops=(3,)), dual=True),
    ):
        assert topology_from_obj(topology_to_obj(t)) == t
    # canonicalisation survives the wire
    assert topology_from_obj({"dual": {"omega_prefix": 0, "drops": []}}) == (
        PolishTopology(WaningFn())
    )


def test_poset_from_obj():
    p = poset_from_obj(
        {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"], ["a", "b"]]}
    )
    assert p.le("a", "b") and not p.le("b", "a")


@pytest.mark.parametrize(
    "obj",
    [
        {"elements": [1.5, True], "leq": [[1.5, 1.5], [True, True]]},
        {"elements": ["1"], "leq": [[1, "1"]]},
    ],
)
def test_poset_labels_must_be_strings(obj):
    with pytest.raises(DomainError, match="labels must be strings"):
        poset_from_obj(obj)


@pytest.mark.parametrize(
    "obj",
    [
        # a string is iterable: "ab" would be the labels a and b, and the
        # leq entry "ab" the pair (a, b)
        {"elements": "ab", "leq": [["a", "a"], ["b", "b"]]},
        {"elements": ["a", "b"], "leq": [["a", "a"], ["b", "b"], "ab"]},
        {"elements": ["a"], "leq": [["a", "a", "a"]]},
        {"elements": ["a"], "leq": "aa"},
    ],
    ids=["elements-string", "leq-entry-string", "leq-entry-triple", "leq-string"],
)
def test_poset_arrays_must_be_arrays(obj):
    with pytest.raises(DomainError, match="expected an array"):
        poset_from_obj(obj)


@pytest.mark.parametrize(
    "parse, obj",
    [
        (descriptor_from_obj, {"dommiss": 2.7}),
        (descriptor_from_obj, {"dommiss": True}),
        (waning_from_obj, {"omega_prefix": 1.9, "drops": []}),
        (waning_from_obj, {"omega_prefix": 0, "drops": [3.5]}),
        (pb_from_obj, [[0.2, 1]]),
        (nats_from_obj, [2.7]),
    ],
)
def test_non_integers_rejected_not_truncated(parse, obj):
    with pytest.raises(DomainError):
        parse(obj)


@pytest.mark.parametrize(
    "parse, obj",
    [
        (waning_from_obj, {"drop": [3]}),
        (waning_from_obj, {"const": "omega", "drops": [1]}),
        (genfn_from_obj, {"prefix": [1], "tails": 0}),
        (topology_from_obj, {"direct": {"omega_prefix": 0, "dropz": [1]}}),
        (descriptor_from_obj, {"U": {"f": {"drops": []}, "n": 0, "x": [1]}}),
        (descriptor_from_obj, {"W": {"f": {"drops": []}, "g": [], "r": 0, "R": 1}}),
        (descriptor_from_obj, {"wany": {"n": 0, "Ys": [[]], "ys": [[0]]}}),
        (descriptor_from_obj, {"fix": {"g": [], "r": 0, "n": 1}}),
        (poset_from_obj, {"elements": ["a"], "leq": [["a", "a"]], "geq": []}),
    ],
)
def test_unknown_keys_rejected(parse, obj):
    with pytest.raises(DomainError, match="unknown keys"):
        parse(obj)


@pytest.mark.parametrize(
    "parse, text",
    [
        # json.loads reads Infinity as math.inf, which is OMEGA
        (genfn_from_obj, '{"prefix":[Infinity]}'),
        (genfn_from_obj, '{"tail":Infinity}'),
        (genfn_from_obj, '{"omega":Infinity}'),
        (nats_from_obj, '{"0":0}'),
        (pb_from_obj, '{"0":0}'),
        (waning_from_obj, "[]"),
        (genfn_from_obj, "[]"),
        (descriptor_from_obj, '{"dommiss":0,"immiss":0}'),
        (descriptor_from_obj, '{"point":[0,0]}'),
        (topology_from_obj, '{"left":{"drops":[]}}'),
        (poset_from_obj, '["a"]'),
    ],
)
def test_malformed_payloads_refused(parse, text):
    with pytest.raises(DomainError):
        parse(json.loads(text))


def test_raw_omega_is_not_encoded():
    with pytest.raises(ValueError):
        dumps([OMEGA])
    assert dumps([value_to_obj(OMEGA)]) == '["omega"]'
