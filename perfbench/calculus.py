"""The direct-call batch of the ``calculus`` workload.

The batch is built from a seed before anything is timed.  Grids that the
acceptance criteria already fix (the criterion-02 closure grid, all pairs of
``waning_sample()``, the census, all posets) are taken whole; the seed picks
the remaining arguments of the witness functions over ``waning_sample() x
I_4`` and the inputs of the in-process ``cli.main`` calls.  Inputs depend on
``seed % VARIANTS`` only, so ``digests.json`` can record the expected outputs
of every seed: one digest per group of calls and variant, written by
``python3 perfbench/calculus.py --record`` from the code the benchmark was
defined on.

    python3 perfbench/calculus.py --seed N --group G

prints every call of group G, one replayable line each, with its output.
Run it in two checkouts and diff the outputs to find the call that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import shlex
import sys
from collections.abc import Mapping
from pathlib import Path

VARIANTS = 64
DIGESTS = Path(__file__).with_name("digests.json")

# the library calls of each group, as (module, function); cli groups call cli.main
LIBRARY_GROUPS = {
    "closure": ("functions", "closure"),
    "preceq": ("functions", "preceq"),
    "join": ("functions", "join"),
    "census": ("functions", "count_with_first_value_below"),
    "embed_poset": ("topology", "embed_poset"),
    "hasse_dot": ("topology", "hasse_dot"),
    "valid_r_min": ("descriptors", "valid_r_min"),
    "basis_refinement": ("descriptors", "basis_refinement"),
    "continuity_p": ("descriptors", "continuity_p"),
    "much_wan_witness": ("descriptors", "much_wan_witness"),
    "tfprime_refinement": ("descriptors", "tfprime_refinement"),
    "order_counterexample": ("descriptors", "order_counterexample"),
    "cover_witness": ("descriptors", "cover_witness"),
}
CLI_GROUPS = ("cli.closure", "cli.member", "cli.witness", "cli.compare")
CLI_CALLS_PER_GROUP = 25


def _wn_obj(f) -> dict:
    if f.const_omega:
        return {"const": "omega"}
    return {"omega_prefix": f.omega_prefix, "drops": list(f.drops)}


def _ext_obj(v, w):
    return "omega" if v is w.OMEGA else v


def _gen_obj(f, w) -> dict:
    return {
        "prefix": [_ext_obj(v, w) for v in f.prefix],
        "tail": _ext_obj(f.tail, w),
        "omega": _ext_obj(f.omega, w),
    }


def _pb_obj(g) -> list:
    return [list(p) for p in g.pairs]


def _subset(rng: random.Random, pool, max_size: int) -> frozenset:
    pool = list(pool)
    return frozenset(rng.sample(pool, rng.randint(0, min(max_size, len(pool)))))


def _basic_args(rng, f, g, w):
    """(n, avoid) with g inside UBasic(f, n, avoid), by the set's definition."""
    avoid = _subset(rng, range(5), 3)
    inside = sum(1 for _, y in g.pairs if y in avoid)
    n = rng.randint(0, len(g) - inside)
    if inside > f(n):
        avoid = frozenset()
    return n, avoid


def _safe_radius(f, g) -> int:
    ends = [0 if v.const_omega else v.support_end for v in (f, g)]
    return sum(ends) + max(f.drops, default=0) + 2


def _genfn_grid(w) -> list:
    values = [0, 1, 2, 3, 4, w.OMEGA]
    return [
        w.GenFn(prefix=prefix, tail=tail, omega=omega)
        for size in range(5)
        for prefix in itertools.product(values, repeat=size)
        for tail in (0, w.OMEGA)
        for omega in (0, w.OMEGA)
    ]


def build_batch(w, seed: int) -> list[tuple[str, tuple]]:
    """Every call of one pass, as (group, arguments), for the imported package ``w``.

    Building uses the library only where an argument must satisfy a
    precondition (valid radii, out-of-order pairs), so a library fault
    surfaces here as an exception, before anything is timed.
    """
    rng = random.Random(seed % VARIANTS)
    fs = w.waning_sample()
    i4 = w.enumerate_universe(4)
    grid = _genfn_grid(w)
    ops: list[tuple[str, tuple]] = [("closure", (f,)) for f in grid]
    ops += [("preceq", (f, g)) for f in fs for g in fs]
    ops += [("join", (f, g)) for f in fs for g in fs]
    ops += [("census", (c,)) for c in range(13)]
    posets = w.all_posets()
    ops += [("embed_poset", (p,)) for p in posets]
    ops += [
        ("hasse_dot", (tuple(w.embed_poset(p).values()),)) for p in posets
    ]
    for f in fs:
        unordered = [g for g in fs if not w.preceq(f, g)]
        for g in i4:
            ops.append(("valid_r_min", (f, g)))
            n, avoid = _basic_args(rng, f, g, w)
            ops.append(("basis_refinement", (f, n, avoid, g)))
            b = rng.choice(i4)
            r = w.valid_r_min(f, g * b) + rng.randint(0, 2)
            ops.append(("continuity_p", (f, g, b, r)))
            gen = rng.choice(grid)
            r = w.valid_r_min(w.closure(gen), g) + rng.randint(0, 2)
            ops.append(("much_wan_witness", (gen, g, r)))
            n, avoid = _basic_args(rng, gen, g, w)
            ops.append(("tfprime_refinement", (gen, n, avoid, g)))
            if unordered:
                other = rng.choice(unordered)
                r = _safe_radius(f, other) + rng.randint(0, 2)
                ops.append(("order_counterexample", (f, other, r)))
            n = rng.randint(0, 4)
            h0 = w.PBij([(x, y) for x, y in g.pairs if x < n])
            avoid = _subset(rng, set(range(8)) - h0.image, 2)
            covered = _subset(rng, range(12), 10)
            ops.append(("cover_witness", (n, h0, avoid, covered, rng.random() < 0.5)))
    ops += _cli_ops(w, rng, fs, i4, grid)
    return ops


def _cli_ops(w, rng, fs, i4, grid) -> list[tuple[str, tuple]]:
    ops = []
    dumps = json.dumps
    for _ in range(CLI_CALLS_PER_GROUP):
        gen = rng.choice(grid)
        ops.append(("cli.closure", (["closure", "--f", dumps(_gen_obj(gen, w))],)))
        f, g, h = rng.choice(fs), rng.choice(i4), rng.choice(i4)
        r = w.valid_r_min(f, g) + rng.randint(0, 2)
        d = {"W": {"f": _wn_obj(f), "g": _pb_obj(g), "r": r}}
        ops.append(
            ("cli.member", (["member", "--d", dumps(d), "--pb", dumps(_pb_obj(h))],))
        )
        n, avoid = _basic_args(rng, f, g, w)
        argv = ["witness", "--kind", "basis", "--f", dumps(_wn_obj(f))]
        argv += ["--pb", dumps(_pb_obj(g)), "--n", str(n), "--X", dumps(sorted(avoid))]
        ops.append(("cli.witness", (argv,)))
        t1 = {rng.choice(("direct", "dual")): _wn_obj(rng.choice(fs))}
        t2 = {rng.choice(("direct", "dual")): _wn_obj(rng.choice(fs))}
        ops.append(
            ("cli.compare", (["compare", "--t1", dumps(t1), "--t2", dumps(t2)],))
        )
    return ops


def _call_cli(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def bind(w, ops) -> list:
    """Resolve each call through its module; bind after installing wrappers."""
    modules = {name: getattr(w, name) for name in ("functions", "topology", "descriptors")}
    main = importlib.import_module("waning.cli").main
    bound = []
    for group, args in ops:
        if group in LIBRARY_GROUPS:
            module, name = LIBRARY_GROUPS[group]
            bound.append((getattr(modules[module], name), args))
        else:
            bound.append((_call_cli, (main, *args)))
    return bound


def run(bound) -> list:
    """Call every bound op; an exception is kept as the op's result."""
    results = []
    for fn, args in bound:
        try:
            results.append(fn(*args))
        except Exception as exc:  # a failed op is counted, not fatal
            results.append(exc)
    return results


def render(w, value) -> str:
    """Canonical text of one output, in the library's JSON wire format."""
    se = w.serialize
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, w.WaningFn):
        return se.dumps(se.waning_to_obj(value))
    if isinstance(value, w.PBij):
        return se.dumps(se.pb_to_obj(value))
    if isinstance(value, tuple):
        return "[" + ",".join(render(w, v) for v in value) + "]"
    if isinstance(value, Mapping):
        return "{" + ",".join(f"{k}:{render(w, value[k])}" for k in sorted(value)) + "}"
    return se.dumps(se.descriptor_to_obj(value))


def _text(w, value) -> str:
    if isinstance(value, Exception):
        return f"raised {type(value).__name__}"
    try:
        return render(w, value)
    except Exception as exc:  # an output of a changed type fails its digest
        return f"unrenderable {type(value).__name__}: {exc!r}"


def digests(w, ops, results) -> dict[str, str]:
    lines: dict[str, list[str]] = {}
    for (group, _), value in zip(ops, results):
        lines.setdefault(group, []).append(_text(w, value))
    return {
        group: hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
        for group, texts in lines.items()
    }


def expected_digests(seed: int) -> dict[str, str]:
    return json.loads(DIGESTS.read_text())[str(seed % VARIANTS)]


def expr(w, value) -> str:
    """A Python expression that rebuilds an argument from the package's names."""
    if value is w.OMEGA:
        return "OMEGA"
    if isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, w.WaningFn):
        if value.const_omega:
            return "CONST_OMEGA"
        return f"WaningFn(omega_prefix={value.omega_prefix}, drops={value.drops!r})"
    if isinstance(value, w.GenFn):
        prefix = ", ".join(expr(w, v) for v in value.prefix)
        prefix = f"({prefix},)" if value.prefix else "()"
        return f"GenFn(prefix={prefix}, tail={expr(w, value.tail)}, omega={expr(w, value.omega)})"
    if isinstance(value, w.PBij):
        return f"PBij({[tuple(p) for p in value.pairs]!r})"
    if isinstance(value, frozenset):
        return f"frozenset({sorted(value)!r})"
    if isinstance(value, w.FinitePoset):
        return f"FinitePoset({list(value.elements)!r}, {sorted(value.leq)!r})"
    if isinstance(value, (tuple, list)):
        body = ", ".join(expr(w, v) for v in value)
        return f"({body},)" if isinstance(value, tuple) else f"[{body}]"
    raise TypeError(f"no expression for {value!r}")


def replay(w, group: str, args: tuple) -> str:
    """The one-line command that repeats a single call of the batch."""
    if group in CLI_GROUPS:
        return "waning " + shlex.join(args[0])
    _, name = LIBRARY_GROUPS[group]
    call = f"{name}({', '.join(expr(w, a) for a in args)})"
    return f'PYTHONPATH=src python3 -c "from waning import *; print(repr({call}))"'


def _import_waning():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import waning

    return waning


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--group", choices=[*LIBRARY_GROUPS, *CLI_GROUPS])
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    w = _import_waning()
    if args.record:
        table = {}
        for variant in range(VARIANTS):
            ops = build_batch(w, variant)
            table[str(variant)] = digests(w, ops, run(bind(w, ops)))
        DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        return 0
    ops = [op for op in build_batch(w, args.seed) if args.group in (None, op[0])]
    for (group, call_args), value in zip(ops, run(bind(w, ops))):
        print(f"{replay(w, group, call_args)}  # -> {_text(w, value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
