"""Per-layer counts and self times, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
``PBij.__mul__``/``inverse``/``restrict``, by a wrapper that counts calls and
accumulates self time: the wrapper's busy time minus the time spent in other
wrapped calls beneath it.  A function imported by name into another module is
replaced there too, by identity, so every call path is seen.  Spans stay in
memory; ``metrics`` turns them into the benchmark's per-layer metrics.

The wrappers live in this process only.  Work done in pool workers is not
seen, so traced passes run in-process (``jobs=1``).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("harness", "descriptors", "pbij", "functions", "topology", "serialize", "cli")
PBIJ_METHODS = {"mul": "__mul__", "inverse": "inverse", "restrict": "restrict"}
DESCRIPTOR_KINDS = (
    "PointHit", "DomMiss", "ImMiss", "UBasic", "WNbhd",
    "Wany", "Dual", "Intersection", "FixBelow",
)

# per-layer metric -> (end-to-end metric it should move, workload it shows on)
TARGETS = {
    "harness.enumerate_universe.s": ("setup_s", "suites-b6-jobs2"),
    "harness.enumerate_universe.elements": ("setup_s", "suites-b6-jobs2"),
    "harness.pool.children_cpu_s": ("verify_s.*", "suites-b6-jobs2"),
    "harness.pool.util": ("verify_s.*", "suites-b6-jobs2"),
    **{f"descriptors.member.calls.{k}": ("verify_s.*", "suites-b5, suites-b6-jobs2")
       for k in DESCRIPTOR_KINDS},
    "descriptors.member.s": ("verify_s.*", "suites-b5, suites-b6-jobs2"),
    "descriptors.member.true_ratio": ("verify_s.*", "suites-b5, suites-b6-jobs2"),
    **{f"pbij.mul.{u}": ("verify_s.continuity", "suites-b5, suites-b6-jobs2")
       for u in ("calls", "s")},
    **{f"pbij.restrict.{u}": ("verify_s.*", "suites-b5, suites-b6-jobs2")
       for u in ("calls", "s")},
    **{f"pbij.{n}.{u}": ("verdict_s", "calculus")
       for n in ("inverse", "collapse") for u in ("calls", "s")},
    **{f"descriptors.{n}.{u}": ("calculus_calls_per_s", "calculus")
       for n in ("valid_r_min", "basis_refinement", "continuity_p", "much_wan_witness",
                 "tfprime_refinement", "order_counterexample", "cover_witness")
       for u in ("calls", "s")},
    **{f"{n}.{u}": ("calculus_calls_per_s, verdict_s", "calculus")
       for n in ("functions.closure", "functions.preceq", "functions.join",
                 "functions.enumerate_below", "topology.embed_poset",
                 "topology.hasse_dot", "serialize.dumps", "cli.main")
       for u in ("calls", "s")},
}


def _is_public_function(module, name: str, value) -> bool:
    # unwrap sees through lru_cache; callable instances such as EMPTY are data
    return (
        not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(value))
        and value.__module__ == module.__name__
    )


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.member_kinds: Counter = Counter()
        self.member_true = 0
        self.elements = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - started
                stat[0] += 1
                stat[1] += busy - stack.pop()
                if stack:
                    stack[-1] += busy
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_member(self, args, result) -> None:
        self.member_kinds[type(args[0]).__name__] += 1
        self.member_true += bool(result)

    def install(self) -> None:
        """Wrap the layers of the imported ``waning`` package, once."""
        modules = [importlib.import_module(f"waning.{layer}") for layer in LAYERS]
        package = importlib.import_module("waning")
        replacements = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in list(vars(module).items()):
                if not _is_public_function(module, attr, value):
                    continue
                after = None
                if (layer, attr) == ("descriptors", "member"):
                    after = self._after_member
                elif (layer, attr) == ("harness", "enumerate_universe"):
                    after = self._universe_counter(value)
                replacements[id(value)] = self._wrap(f"{layer}.{attr}", value, after)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)])
        pbij = modules[LAYERS.index("pbij")].PBij
        for short, method in PBIJ_METHODS.items():
            original = pbij.__dict__[method]
            self._restore.append((pbij, method, original))
            setattr(pbij, method, self._wrap(f"pbij.{short}", original))

    def _universe_counter(self, enumerate_universe):
        info = getattr(enumerate_universe, "cache_info", None)
        misses = [info().misses if info else 0]

        def after(args, result):
            # only enumerations that ran count; cached returns add no elements
            now = info().misses if info else misses[0] + 1
            if now != misses[0]:
                self.elements += len(result)
            misses[0] = now

        return after

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def active(self):
        """Trace the calls made inside the block; counts add up across blocks."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every traced per-layer metric, as name -> (value, unit)."""
        out = {}

        def stat(name):
            return self.stats.get(name, [0, 0.0])

        out["harness.enumerate_universe.s"] = (stat("harness.enumerate_universe")[1], "s")
        out["harness.enumerate_universe.elements"] = (self.elements, "count")
        for kind in DESCRIPTOR_KINDS:
            out[f"descriptors.member.calls.{kind}"] = (self.member_kinds[kind], "count")
        member_calls, member_s = stat("descriptors.member")
        out["descriptors.member.s"] = (member_s, "s")
        out["descriptors.member.true_ratio"] = (
            self.member_true / member_calls if member_calls else 0.0, "ratio")
        for name in TARGETS:
            base, _, unit = name.rpartition(".")
            if name in out or unit not in ("calls", "s") or base.count(".") != 1:
                continue
            calls, self_s = stat(base)
            out[name] = (calls, "count") if unit == "calls" else (self_s, "s")
        return out
