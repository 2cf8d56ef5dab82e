"""Command-line front end.

One binary with subcommands covering the calculus (waning-check, closure,
eval), the lattice (compare, join, chain, below, embed, hasse), membership
and refinement witnesses (member, subset, witness), and the verification
suites (verify).  Values cross the boundary as JSON; "omega" is the single
non-numeric token.  Each value is decoded once, by a ``serialize`` decoder.
Usage errors (text that is not JSON or too deep to decode, a payload of the
wrong shape, a ``--poset`` or ``--out`` file that cannot be opened) exit 2,
domain errors (a negative ``--n``, ``--r``, ``--sample`` or ``--jobs`` among
them) exit 1, and checks that find counterexamples exit 3.  A reader that
closes stdout early, as ``| head`` does, ends the run quietly with SIGPIPE's 141.
The parser is built once per process; each ``main`` call parses into a
fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from . import descriptors as de
from . import serialize as se
from .errors import WaningError
from .functions import (
    OMEGA,
    WaningFn,
    check_nat,
    closure,
    descending_chain_element,
    enumerate_below,
    is_waning,
)
from .harness import available_cpus, run_suite, subset_check, suite_names
from .topology import compare, embed_poset, hasse_dot, join_topology


class _UsageError(Exception):
    pass


def _decode(text: str, flag: str, parse):
    """``parse`` applied to the JSON in ``text``.

    Text that is not JSON or nests too deep for ``json`` to decode, or a
    payload whose shape ``parse`` cannot index or unpack, is a usage error;
    a value that ``parse`` refuses stays a WaningError.
    """
    try:
        return parse(json.loads(text))
    except json.JSONDecodeError as exc:
        raise _UsageError(f"flag {flag} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # raised by json's decoder; descriptor_from_obj stops well before
        raise _UsageError(f"flag {flag} nests too deep to decode") from exc
    except (TypeError, KeyError, IndexError, ValueError) as exc:
        raise _UsageError(f"flag {flag} is malformed: {exc!r}") from exc


def _parse_index(text: str):
    if text == "omega":
        return OMEGA
    try:
        return int(text)
    except ValueError as exc:
        raise _UsageError(f"expected a natural or \"omega\", got {text!r}") from exc


def _open(path: str, flag: str, mode: str = "r"):
    try:
        return open(path, mode)
    except OSError as exc:
        raise _UsageError(f"cannot open {flag} {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with _open(out, "--out", "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _genfn_arg(args):
    fn = _decode(args.f, "--f", se.fn_from_obj)
    return fn.as_genfn() if isinstance(fn, WaningFn) else fn


def _cmd_waning_check(args) -> int:
    print("true" if is_waning(_genfn_arg(args)) else "false")
    return 0


def _cmd_closure(args) -> int:
    print(se.dumps(se.waning_to_obj(closure(_genfn_arg(args)))))
    return 0


def _cmd_eval(args) -> int:
    fn = _decode(args.f, "--f", se.fn_from_obj)
    value = fn(_parse_index(args.index))
    print(se.dumps(se.value_to_obj(value)))
    return 0


def _cmd_compare(args) -> int:
    t1 = _decode(args.t1, "--t1", se.topology_from_obj)
    t2 = _decode(args.t2, "--t2", se.topology_from_obj)
    print(compare(t1, t2).value)
    return 0


def _cmd_join(args) -> int:
    t1 = _decode(args.t1, "--t1", se.topology_from_obj)
    t2 = _decode(args.t2, "--t2", se.topology_from_obj)
    print(se.dumps(se.topology_to_obj(join_topology(t1, t2))))
    return 0


def _cmd_chain(args) -> int:
    print(se.dumps(se.waning_to_obj(descending_chain_element(args.n))))
    return 0


def _cmd_below(args) -> int:
    f = _decode(args.f, "--f", se.waning_from_obj)
    print(se.dumps([se.waning_to_obj(w) for w in enumerate_below(f)]))
    return 0


def _cmd_embed(args) -> int:
    with _open(args.poset, "--poset") as fh:
        poset = _decode(fh.read(), "--poset", se.poset_from_obj)
    mapping = embed_poset(poset)
    print(
        se.dumps({label: se.waning_to_obj(w) for label, w in mapping.items()})
    )
    return 0


def _cmd_hasse(args) -> int:
    fns = [_decode(text, "--f", se.waning_from_obj) for text in args.f]
    _emit(hasse_dot(fns), args.out)
    return 0


def _cmd_member(args) -> int:
    d = _decode(args.d, "--d", se.descriptor_from_obj)
    h = _decode(args.pb, "--pb", se.pb_from_obj)
    print("true" if de.member(d, h) else "false")
    return 0


def _report_exit(report, out: Optional[str]) -> int:
    print(report.summary())
    for inputs, witness in report.counterexamples:
        print(f"counterexample {se.dumps(se.pb_to_obj(witness))} {inputs}")
    if out:
        _emit(json.dumps(report.to_obj(), indent=2), out)
    return 0 if report.ok else 3


def _cmd_subset(args) -> int:
    d1 = _decode(args.d1, "--d1", se.descriptor_from_obj)
    d2 = _decode(args.d2, "--d2", se.descriptor_from_obj)
    return _report_exit(subset_check(d1, d2, args.bound), args.out)


def _require(args, *names) -> None:
    missing = [name for name in names if getattr(args, name, None) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise _UsageError(f"witness --kind {args.kind} needs {flags}")


def _cmd_witness(args) -> int:
    kind = args.kind
    if kind == "order":
        _require(args, "f", "g", "r")
        f = _decode(args.f, "--f", se.waning_from_obj)
        g = _decode(args.g, "--g", se.waning_from_obj)
        n, b, h = de.order_counterexample(f, g, args.r)
        print(se.dumps({"n": n, "b": b, "h": se.pb_to_obj(h)}))
        return 0
    if kind == "basis":
        _require(args, "f", "pb")
        f = _decode(args.f, "--f", se.waning_from_obj)
        g = _decode(args.pb, "--pb", se.pb_from_obj)
        avoid = _decode(args.X, "--X", se.nats_from_obj)
        print(se.dumps({"r": de.basis_refinement(f, args.n or 0, avoid, g)}))
        return 0
    if kind == "much-wan":
        _require(args, "f", "pb", "r")
        f = _genfn_arg(args)
        g = _decode(args.pb, "--pb", se.pb_from_obj)
        print(se.dumps(se.descriptor_to_obj(de.much_wan_witness(f, g, args.r))))
        return 0
    if kind == "tfprime":
        _require(args, "f", "pb")
        f = _genfn_arg(args)
        g = _decode(args.pb, "--pb", se.pb_from_obj)
        avoid = _decode(args.X, "--X", se.nats_from_obj)
        result = de.tfprime_refinement(f, args.n or 0, avoid, g)
        print(se.dumps(se.descriptor_to_obj(result)))
        return 0
    # "cover", the last of the kinds that argparse's choices let through
    _require(args, "pb")
    h0 = _decode(args.pb, "--pb", se.pb_from_obj)
    avoid = _decode(args.X, "--X", se.nats_from_obj)
    covered = _decode(args.m, "--m", se.nats_from_obj)
    w = de.cover_witness(args.n or 0, h0, avoid, covered, args.dommiss)
    print(se.dumps(se.pb_to_obj(w)))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        bound=args.bound,
        seed=args.seed,
        sample=args.sample,
        jobs=args.jobs or available_cpus(),
    )
    return _report_exit(report, args.out)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waning",
        description="Calculus of waning functions, neighbourhood descriptors, "
        "and bounded-universe verification for topologies on partial bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **flags):
        p = sub.add_parser(name)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(handler=handler)

    fn_flag = {"required": True, "help": "function JSON"}
    cmd("waning-check", _cmd_waning_check, f=fn_flag)
    cmd("closure", _cmd_closure, f=fn_flag)
    # eval's --n is an index that may be "omega", so it stays off args.n,
    # which main checks as a natural
    index = {"required": True, "dest": "index", "help": "index or \"omega\""}
    cmd("eval", _cmd_eval, f=fn_flag, n=index)
    topo = {"required": True, "help": "topology JSON"}
    cmd("compare", _cmd_compare, t1=topo, t2=topo)
    cmd("join", _cmd_join, t1=topo, t2=topo)
    cmd("chain", _cmd_chain, n={"type": int, "required": True})
    cmd("below", _cmd_below, f=fn_flag)
    cmd(
        "embed",
        _cmd_embed,
        poset={"required": True, "help": "path to a poset JSON file"},
    )
    cmd(
        "hasse",
        _cmd_hasse,
        f={"action": "append", "required": True, "help": "waning JSON (repeatable)"},
        out={},
    )
    cmd(
        "member",
        _cmd_member,
        d={"required": True, "help": "descriptor JSON"},
        pb={"required": True, "help": "partial bijection JSON"},
    )
    cmd(
        "subset",
        _cmd_subset,
        d1={"required": True},
        d2={"required": True},
        bound={"type": int, "default": 4},
        out={},
    )
    cmd(
        "witness",
        _cmd_witness,
        kind={
            "choices": ["order", "basis", "much-wan", "tfprime", "cover"],
            "default": "order",
        },
        f={"help": "function JSON"},
        g={"help": "waning JSON"},
        pb={"help": "partial bijection JSON"},
        n={"type": int},
        r={"type": int},
        X={"default": "[]", "help": "set JSON"},
        m={"default": "[]", "help": "covered-values JSON"},
        dommiss={"action": "store_true"},
    )
    cmd(
        "verify",
        _cmd_verify,
        suite={"required": True, "choices": list(suite_names())},
        bound={"type": int},
        seed={"type": int, "default": 1},
        sample={"type": int},
        jobs={"type": int, "default": 0},
        out={},
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a negative --n or --r is refused even where the command ignores it
        for flag in ("n", "r"):
            value = vars(args).get(flag)
            if value is not None:
                check_nat(value, name=f"--{flag}")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WaningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early; point it at devnull so that the flush at
        # exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
