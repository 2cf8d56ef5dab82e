"""Benchmark of waning: how long a verdict takes, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--workload all`` runs the three workloads one after another.

Each run first times set-up on its own: ``import waning`` plus the first,
uncached ``enumerate_universe(B)`` for every bound the workload uses, done
``SETUP_REPS`` times on fresh imports.  It then repeats the workload's timed
body (a pass) while another pass still fits in ``--seconds``, at least once,
and reports medians over passes.  Times are wall seconds scaled to a
reference host speed (see ``speed.py``); ``*_wall_s`` and ``host_speed``
give the unscaled figures.  Every pass is checked: each suite report must
have no counterexamples and its expected case count, and the outputs of the
calculus batch must match the recorded digests.  Each failed operation
prints a line that replays it.

With ``--trace 1`` the run makes one untraced pass at the workload's settings,
then one traced pass on a fresh import, in-process (``jobs=1``), and reports
the per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
``verdict_s``.  The last line of standard output is the result as JSON; the
run settings and every metric go to ``.bench_results/`` as well.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calculus
import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_REPS = 7
SHOWN_FAILURES = 50  # the results file lists them all

# suite, bound, sample, jobs, seed (None: the run's --seed)
SUITE_WORKLOADS = {
    # the acceptance gate (criteria 03-05): defaults, serial; pool bypassed
    "suites-b5": [
        ("basis", 5, 200, 1, None),
        ("much-wan", 5, 100, 1, None),
        # a continuity case costs |left| x |right| products, a heavy-tailed
        # amount (456k-960k products per run for seeds 1-3), so the gate's
        # seed is kept; basis and much-wan cost the same for every seed
        ("continuity", 5, 100, 1, 1),
    ],
    # B = 6 through the fork pool; samples cut to a few seconds each.  At seed
    # 1 the eighth continuity case alone forms 2.39M products (about 45 s)
    "suites-b6-jobs2": [
        ("basis", 6, 20, 2, None),
        ("much-wan", 6, 10, 2, None),
        ("continuity", 6, 7, 2, 1),
    ],
}
CALCULUS_SUITES = [  # the eight light suites, at their default bound and sample
    ("order", 4, 50, 1, None),
    ("remark", 5, 0, 1, None),
    ("dual", 4, 50, 1, None),
    ("d-map", 4, 0, 1, None),
    ("census", 0, 0, 1, None),
    ("chains", 0, 20, 1, None),
    ("embed", 0, 0, 1, None),
    ("compactness", 0, 20, 1, None),
]
WORKLOADS = (*SUITE_WORKLOADS, "calculus")

# report.cases per suite and sample, as the code the benchmark was defined on gives
EXPECTED_CASES = {
    "basis": lambda s: s,
    "much-wan": lambda s: 2 * s,
    "continuity": lambda s: s,
    "order": lambda s: s * s,
    "remark": lambda s: 10,
    "dual": lambda s: s,
    "d-map": lambda s: 3,
    "census": lambda s: 11,
    "chains": lambda s: 100 + s,
    "embed": lambda s: 242,
    "compactness": lambda s: s,
}
END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_TOTALS = ("trace.verdict_s", "trace.untraced_verdict_s", "trace.overhead_s")


def _universe_bounds(specs) -> list[int]:
    # continuity and dual draw elements from I_3; the calculus batch's I_4 is
    # the bound of order, dual and d-map
    bounds = {bound for _, bound, *_ in specs if bound}
    if any(spec[0] in ("continuity", "dual") for spec in specs):
        bounds.add(3)
    return sorted(bounds)


def fresh_import():
    """Import ``waning`` from ``src/`` anew, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "waning" or m.startswith("waning.")]:
        del sys.modules[name]
    w = importlib.import_module("waning")
    if Path(w.__file__).resolve().parent != SRC / "waning":
        raise SystemExit(f"imported waning from {w.__file__}, not from {SRC}")
    return w


def timed_setup(bounds) -> tuple[object, float]:
    gc.collect()
    started = time.perf_counter()
    w = fresh_import()
    for bound in bounds:
        w.enumerate_universe(bound)
    return w, time.perf_counter() - started


class Workload:
    """The timed body of one workload, its checks, and its failure log."""

    def __init__(self, name: str, seed: int, jobs_cap: int):
        self.name = name
        self.seed = seed
        specs = SUITE_WORKLOADS.get(name, CALCULUS_SUITES)
        self.suites = [
            (suite, bound, sample, min(jobs, jobs_cap), seed if fixed is None else fixed)
            for suite, bound, sample, jobs, fixed in specs
        ]
        self.bounds = _universe_bounds(self.suites)
        self.attempted = 0
        self.failures: list[tuple[str, str, int]] = []  # (what, replay line, ops)

    def settings(self) -> list[dict]:
        keys = ("suite", "bound", "sample", "jobs", "seed")
        return [dict(zip(keys, spec)) for spec in self.suites]

    def prepare(self, w) -> None:
        """Build the calculus batch (untimed) for the imported package."""
        if self.name == "calculus":
            self.ops = calculus.build_batch(w, self.seed)
            self.expected = calculus.expected_digests(self.seed)

    def one_pass(self, w, serial: bool = False) -> tuple[dict, list]:
        """Run the body once; return its timings in seconds and the batch outputs."""
        run_suite = importlib.import_module("waning.harness").run_suite
        times = {}
        if self.name == "calculus":
            bound_ops = calculus.bind(w, self.ops)
        gc.collect()
        started = time.perf_counter()
        for suite, bound, sample, jobs, seed in self.suites:
            jobs = 1 if serial else jobs
            replay = (f"waning verify --suite {suite} --bound {bound} --seed {seed} "
                      f"--sample {sample} --jobs {jobs}")
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                report = run_suite(suite, bound=bound, seed=seed, sample=sample, jobs=jobs)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failures.append((f"{suite} raised {exc!r}", replay, 1))
                continue
            finally:
                times[f"verify_s.{suite}"] = time.perf_counter() - t0
            expected = EXPECTED_CASES[suite](sample)
            if not report.ok or report.cases != expected:
                self.failures.append((
                    f"{suite}: {len(report.counterexamples)} counterexamples, "
                    f"{report.cases} cases (expected 0 and {expected})", replay, 1))
        results = []
        if self.name == "calculus":
            t0 = time.perf_counter()
            results = calculus.run(bound_ops)
            times["batch_s"] = time.perf_counter() - t0
        times["verdict_s"] = time.perf_counter() - started
        return times, results

    def check_batch(self, w, results) -> None:
        """Count the batch's calls, and fail those that raised or changed output."""
        if self.name != "calculus":
            return
        self.attempted += len(self.ops)
        raised = set()
        for (group, args), value in zip(self.ops, results):
            if isinstance(value, Exception):
                raised.add(group)
                self.failures.append((f"{group} raised {value!r}",
                                      calculus.replay(w, group, args), 1))
        got = calculus.digests(w, self.ops, results)
        for group, digest in self.expected.items():
            if got.get(group) == digest or group in raised:
                continue
            # the digest covers the whole group, so every call in it counts
            count = sum(1 for g, _ in self.ops if g == group)
            self.failures.append((
                f"{group}: outputs of its {count} calls differ from the recorded digest",
                f"python3 perfbench/calculus.py --seed {self.seed} --group {group}", count))


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_passes(work: Workload, w, seconds: float, meter: speed.Speedometer) -> list[dict]:
    """Passes while another fits in ``seconds``; times scaled to reference speed."""
    passes = []
    started = time.perf_counter()
    while True:
        mark = meter.mark()
        times, results = work.one_pass(w)
        factor = meter.factor(mark)
        work.check_batch(w, results)
        del results  # so peak memory holds one pass's outputs, however many passes
        passes.append({**{k: v * factor for k, v in times.items()},
                       "verdict_wall_s": times["verdict_s"], "host_speed": factor})
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def untraced_metrics(work: Workload, seconds: float) -> tuple[dict, list[dict]]:
    """Timed set-up, then passes; medians over passes, and the passes."""
    meter = speed.Speedometer()
    meter.start()
    try:
        mark = meter.mark()
        setups = []
        for _ in range(SETUP_REPS):
            w, elapsed = timed_setup(work.bounds)
            setups.append(elapsed)
        setup_factor = meter.factor(mark)
        work.prepare(w)
        passes = run_passes(work, w, seconds, meter)
    finally:
        meter.stop()
    out = {name: (statistics.median(p[name] for p in passes), "s")
           for name in passes[0] if name != "batch_s"}
    out["host_speed"] = (out["host_speed"][0], "ratio")
    if work.name == "calculus":
        rate = statistics.median(len(work.ops) / p["batch_s"] for p in passes)
        out["calculus_calls_per_s"] = (rate, "1/s")
    out["setup_s"] = (statistics.median(setups) * setup_factor, "s")
    out["setup_wall_s"] = (statistics.median(setups), "s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return out, passes


def traced_metrics(work: Workload) -> dict:
    """One untraced pass, then one traced in-process pass on a fresh import.

    Times are scaled to reference speed by the factor of their own pass.
    """
    meter = speed.Speedometer()
    meter.start()
    try:
        w = fresh_import()
        for bound in work.bounds:
            w.enumerate_universe(bound)
        work.prepare(w)
        cpu_before = children_cpu_s()
        mark = meter.mark()
        untraced, results = work.one_pass(w)
        untraced_factor = meter.factor(mark)
        children = children_cpu_s() - cpu_before
        work.check_batch(w, results)
        w = fresh_import()
        trace = tracer.Tracer()
        mark = meter.mark()
        with trace.active():
            for bound in work.bounds:
                w.enumerate_universe(bound)
        work.prepare(w)
        with trace.active():
            traced, results = work.one_pass(w, serial=True)
        factor = meter.factor(mark)
    finally:
        meter.stop()
    work.check_batch(w, results)
    pooled = sum(jobs * untraced[f"verify_s.{suite}"]
                 for suite, _, _, jobs, _ in work.suites if jobs > 1)
    out = {name: (value * factor if unit == "s" else value, unit)
           for name, (value, unit) in trace.metrics().items()}
    out["harness.pool.children_cpu_s"] = (children * untraced_factor, "s")
    out["harness.pool.util"] = (children / pooled if pooled else 0.0, "ratio")
    verdict = untraced["verdict_s"] * untraced_factor
    out["trace.verdict_s"] = (traced["verdict_s"] * factor, "s")
    out["trace.untraced_verdict_s"] = (verdict, "s")
    out["trace.overhead_s"] = (out["trace.verdict_s"][0] - verdict, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "waning" / "__init__.py").is_file():
        print(f"no waning package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd).returncode)
        return max(codes)
    sys.path.insert(0, str(SRC))

    affinity = len(os.sched_getaffinity(0))
    work = Workload(args.workload, args.seed, jobs_cap=affinity)
    if args.trace:
        metrics, runs = traced_metrics(work), []
    else:
        metrics, runs = untraced_metrics(work, args.seconds)
    failed = sum(count for _, _, count in work.failures)
    metrics["failed_ratio"] = (failed / work.attempted, "ratio")

    settings = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(runs) or 1, "setup_reps": SETUP_REPS,
        "suites": work.settings(), "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(), "affinity": affinity,
        "host": platform.node(), "commit": git_commit(),
    }
    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    print("settings " + json.dumps(settings))
    for what, replay, _ in work.failures[:SHOWN_FAILURES]:
        print(f"FAILED {what}\n  replay: {replay}")
    if len(work.failures) > SHOWN_FAILURES:
        print(f"... {len(work.failures) - SHOWN_FAILURES} more failures in {out}")
    for name, (value, unit) in metrics.items():
        target = tracer.TARGETS.get(name) if args.trace else None
        note = f"  -> {target[0]} on {target[1]}" if target else ""
        print(f"{name} {value:.6g} {unit}{note}")
    if args.trace:
        print("traced pass ran in-process (jobs=1); harness.pool.* come from the "
              "untraced pass at the workload's jobs")
        wanted = [*tracer.TARGETS, *TRACE_TOTALS]
    else:
        wanted = list(END_TO_END)
    RESULTS.mkdir(exist_ok=True)
    record = {"settings": settings, "attempted": work.attempted, "failed": failed,
              "failures": work.failures, "pass_times": runs,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": work.attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
