"""JSON encodings for all public value types.

Extended naturals serialize as ints with the single non-numeric token
``"omega"``; every integer field must be a JSON natural, so floats, bools
and negatives raise ``DomainError`` instead of being truncated, and so does
an object key that the decoder does not read.  Partial bijections are sorted
arrays of two-element arrays, sets of naturals arrays of naturals, and
poset labels JSON strings.
Waning functions are ``{"const":"omega"}`` or ``{"omega_prefix":k,"drops":[...]}``;
eventually-constant functions are ``{"prefix":[...],"tail":v,"omega":v}``.
Descriptors are tagged objects, topologies ``{"direct":...}``/``{"dual":...}``.
The descriptor constructors refuse ``dual`` and ``and`` nested more than
``descriptors.MAX_NESTING`` deep with ValueError, so the encoder recurses at
most that far; the decoder recurses as deep as the parsed object goes.
A body of the wrong shape, such as ``{"hit":5}``, raises whatever indexing
or unpacking it raises (TypeError, KeyError, IndexError or ValueError); the
CLI reports that as a usage error.
"""

from __future__ import annotations

import json
from typing import Any

from .descriptors import (
    Dual,
    DomMiss,
    FixBelow,
    ImMiss,
    Intersection,
    PointHit,
    SetDescriptor,
    UBasic,
    Wany,
    WNbhd,
)
from .errors import DomainError, InvalidDescriptor
from .functions import OMEGA, ExtNat, GenFn, WaningFn, check_nat, is_omega, nat_set
from .pbij import PBij


def value_to_obj(v: ExtNat) -> Any:
    return "omega" if is_omega(v) else int(v)


def _check_keys(obj: Any, *keys: str) -> None:
    """Raise DomainError when ``obj`` is an object with a key outside ``keys``."""
    unknown = sorted(obj.keys() - set(keys)) if isinstance(obj, dict) else ()
    if unknown:
        raise DomainError(f"unknown keys {unknown} in {obj!r}")


def value_from_obj(obj: Any) -> ExtNat:
    """A natural or "omega"; a JSON ``Infinity``, which ``json.loads`` reads
    as OMEGA, is refused."""
    if obj == "omega":
        return OMEGA
    check_nat(obj)
    return obj


def nats_from_obj(obj: Any) -> frozenset[int]:
    """A set of naturals, from an array of JSON naturals; checked before the
    set is built, where ``true`` and ``1.0`` would merge into ``1``."""
    if not isinstance(obj, list):
        raise DomainError(f"expected an array of naturals, got {obj!r}")
    return nat_set(obj)


def pb_to_obj(p: PBij) -> list:
    return [[x, y] for x, y in p.pairs]


def pb_from_obj(obj: Any) -> PBij:
    if not isinstance(obj, list):
        raise DomainError(f"expected an array of pairs, got {obj!r}")
    return PBij(obj)


def waning_to_obj(w: WaningFn) -> dict:
    if w.const_omega:
        return {"const": "omega"}
    return {"omega_prefix": w.omega_prefix, "drops": list(w.drops)}


def waning_from_obj(obj: Any) -> WaningFn:
    if not isinstance(obj, dict):
        raise DomainError(f"expected a waning-function object, got {obj!r}")
    if obj == {"const": "omega"}:
        return WaningFn(const_omega=True)
    _check_keys(obj, "omega_prefix", "drops")
    return WaningFn(obj.get("omega_prefix", 0), obj.get("drops", ()))


def genfn_to_obj(f: GenFn) -> dict:
    return {
        "prefix": [value_to_obj(v) for v in f.prefix],
        "tail": value_to_obj(f.tail),
        "omega": value_to_obj(f.omega),
    }


def genfn_from_obj(obj: Any) -> GenFn:
    if not isinstance(obj, dict):
        raise DomainError(f"expected a function object, got {obj!r}")
    _check_keys(obj, "prefix", "tail", "omega")
    return GenFn(
        prefix=tuple(value_from_obj(v) for v in obj.get("prefix", ())),
        tail=value_from_obj(obj.get("tail", 0)),
        omega=value_from_obj(obj.get("omega", 0)),
    )


def fn_to_obj(f) -> dict:
    return waning_to_obj(f) if isinstance(f, WaningFn) else genfn_to_obj(f)


def fn_from_obj(obj: Any):
    """Accept either encoding.  An object with any of ``prefix``, ``tail`` or
    ``omega`` is a ``GenFn``, each key having a default; any other object is
    a ``WaningFn``, read from ``const``, ``omega_prefix`` and ``drops``."""
    if isinstance(obj, dict) and obj.keys() & {"prefix", "tail", "omega"}:
        return genfn_from_obj(obj)
    return waning_from_obj(obj)


def descriptor_to_obj(d: SetDescriptor) -> dict:
    if isinstance(d, PointHit):
        return {"hit": [d.x, d.y]}
    if isinstance(d, DomMiss):
        return {"dommiss": d.x}
    if isinstance(d, ImMiss):
        return {"immiss": d.x}
    if isinstance(d, UBasic):
        return {"U": {"f": fn_to_obj(d.f), "n": d.n, "X": sorted(d.avoid)}}
    if isinstance(d, WNbhd):
        return {"W": {"f": waning_to_obj(d.f), "g": pb_to_obj(d.g), "r": d.r}}
    if isinstance(d, Wany):
        return {
            "wany": {"n": d.n, "Ys": sorted(sorted(ys) for ys in d.families)}
        }
    if isinstance(d, Dual):
        return {"dual": descriptor_to_obj(d.inner)}
    if isinstance(d, Intersection):
        return {"and": [descriptor_to_obj(p) for p in d.parts]}
    if isinstance(d, FixBelow):
        return {"fix": {"g": pb_to_obj(d.g), "r": d.r}}
    raise InvalidDescriptor(f"not a descriptor: {d!r}")


def descriptor_from_obj(obj: Any) -> SetDescriptor:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise DomainError(f"expected a single-tag descriptor object, got {obj!r}")
    tag, body = next(iter(obj.items()))
    # the constructors refuse points, sizes and radii that are not naturals,
    # and nesting past descriptors.MAX_NESTING
    if tag == "hit":
        x, y = body
        return PointHit(x, y)
    if tag == "dommiss":
        return DomMiss(body)
    if tag == "immiss":
        return ImMiss(body)
    if tag == "U":
        _check_keys(body, "f", "n", "X")
        return UBasic(
            fn_from_obj(body["f"]), body["n"], nats_from_obj(body.get("X", []))
        )
    if tag == "W":
        _check_keys(body, "f", "g", "r")
        return WNbhd(waning_from_obj(body["f"]), pb_from_obj(body["g"]), body["r"])
    if tag == "wany":
        _check_keys(body, "n", "Ys")
        return Wany(body["n"], (nats_from_obj(ys) for ys in body["Ys"]))
    if tag == "dual":
        return Dual(descriptor_from_obj(body))
    if tag == "and":
        return Intersection(descriptor_from_obj(p) for p in body)
    if tag == "fix":
        _check_keys(body, "g", "r")
        return FixBelow(pb_from_obj(body["g"]), body["r"])
    raise DomainError(f"unknown descriptor tag {tag!r}")


def topology_to_obj(t) -> dict:
    key = "dual" if t.dual else "direct"
    return {key: waning_to_obj(t.f)}


def topology_from_obj(obj: Any):
    # local import: the topology module depends on this one
    from .topology import PolishTopology

    if not isinstance(obj, dict) or len(obj) != 1:
        raise DomainError(f"expected a topology object, got {obj!r}")
    tag, body = next(iter(obj.items()))
    if tag == "direct":
        return PolishTopology(waning_from_obj(body))
    if tag == "dual":
        return PolishTopology(waning_from_obj(body), dual=True)
    raise DomainError(f"unknown topology tag {tag!r}")


def poset_from_obj(obj: Any):
    from .topology import FinitePoset

    if not isinstance(obj, dict):
        raise DomainError(f"expected a poset object, got {obj!r}")
    _check_keys(obj, "elements", "leq")
    return FinitePoset(obj.get("elements", []), obj.get("leq", []))


def dumps(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False, allow_nan=False)
