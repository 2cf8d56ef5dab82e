import json

import pytest

from waning import (
    CONST_OMEGA,
    OMEGA,
    DomainError,
    Dual,
    DomMiss,
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
)
from waning.serialize import (
    MAX_NESTING,
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
    assert descriptor_to_obj(descriptor_from_obj(obj)) == obj
    with pytest.raises(ValueError, match="nests deeper"):
        descriptor_from_obj({tag: wrap(obj)})


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
