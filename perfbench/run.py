"""Benchmark of the trielect package: one workload per invocation.

    python3 perfbench/run.py --workload fair-run --seed 1 --seconds 25 --trace 0

Imports trielect from ``src/`` beside this directory (never an installed
copy), sets it up several times from the seed, then repeats the
workload's fixed work in rounds for about ``--seconds`` seconds and checks
every output.  Times are reported in reference seconds, corrected for
the host's speed by a calibration kernel (see ``Calibration``).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the Python version, ``nproc``, the seed, the
sample counts and the exact counts of one round.

With ``--trace 1`` the first half of the time runs untraced rounds and the
second half traced ones; spans go to ``<out-dir>/trace-<workload>.jsonl``.
Exact counts of each (workload, seed, trace) go to ``<out-dir>/counts/``;
a later run of the same code and seed whose counts differ fails.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("algorithm", "config", "generators", "oracle", "rules", "scheduler", "support", "views")
SETUP_REPEATS = 5
SETUP_BUDGET_S = 4.0
# Host-speed calibration: three runs of a fixed pure-Python kernel are
# timed between operations, at most every CALIBRATION_INTERVAL_S.  Each
# reported time is scaled by KERNEL_REF_S / (median of the kernel samples
# nearest to it), i.e. expressed in seconds at the speed where the kernel
# takes KERNEL_REF_S.  That value is the kernel's median on the 2-vCPU Xeon
# VM where the baseline was measured.  On a shared host the speed of the
# whole machine drifts by 10-25 % over seconds to minutes; the kernel
# drifts with it, and the ratio does not.
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_NEAREST = 9
KERNEL_REF_S = 1.8e-3

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, instrument  # noqa: E402

# What one unit of ``work_per_s`` is on each workload.
WORK_ITEM = {
    "fair-run": ("scheduler.activations", "activations_per_s"),
    "checked-runs": ("scheduler.activations", "activations_per_s"),
    "sweep": ("oracle.states", "states_per_s"),
    "grow": ("generators.random_support.cells", "cells_per_s"),
}


def load_trielect() -> SimpleNamespace:
    """Import trielect afresh from ``src/`` (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "trielect" or m.startswith("trielect.")]:
        del sys.modules[name]
    pkg = importlib.import_module("trielect")
    if Path(pkg.__file__).resolve().parent != SRC / "trielect":
        raise ImportError(f"trielect was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"trielect.{name}") for name in LAYERS
    })


def kernel_seconds() -> float:
    """Time one run of the calibration kernel: dict, tuple and set work like trielect's."""
    t0 = time.perf_counter()
    d = {i: (i, i & 7) for i in range(2000)}
    acc = 0
    for _ in range(3):
        for k, v in dict(d).items():
            if v[1] in (1, 3, 5):
                acc += k
        acc += len({(k, v[1]) for k, v in d.items() if k & 1})
    return time.perf_counter() - t0


class Calibration:
    """Timestamped kernel samples, to express measured times in reference seconds."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []

    def sample(self) -> None:
        for _ in range(3):
            self.times.append(time.perf_counter())
            self.kernel.append(kernel_seconds())

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= CALIBRATION_INTERVAL_S

    def to_reference(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, scaled by the samples nearest its midpoint."""
        mid = start + seconds / 2
        j = bisect.bisect(self.times, mid)
        window = range(max(0, j - CALIBRATION_NEAREST), min(len(self.times), j + CALIBRATION_NEAREST))
        near = sorted(window, key=lambda i: abs(self.times[i] - mid))[:CALIBRATION_NEAREST]
        return seconds * KERNEL_REF_S / statistics.median(self.kernel[i] for i in near)


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("trielect/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Round:
    """Timings, checks and output digests of one pass over a workload's fixed work."""

    def __init__(self):
        self.durations: list[float] = []
        self.item_times: list[float | None] = []  # None for an op that yields no items
        self.items = 0
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        self.counts: dict[str, int] = {}  # tracer counts of this round
        self.starts: list[float] = []
        self.stopped = False  # the next operation could not be built


def run_round(workload, cal: Calibration, tracer: Tracer | None) -> Round:
    rnd = Round()
    ops = workload.ops()
    while True:
        if cal.due():
            cal.sample()
        try:
            op = next(ops)
        except StopIteration:
            break
        except Exception:  # a failed earlier op can leave later ops unbuildable
            rnd.failures.append("workload stopped: " + traceback.format_exc(limit=3))
            rnd.failed_ops += 1
            rnd.stopped = True
            break
        if tracer is not None:
            op = tracer.wrap("bench.op", op)
            tracer.activate()
        t0 = time.perf_counter()
        rnd.starts.append(t0)
        try:
            items, item_s, output = op()
        except Exception:  # counted as a failed operation; the round goes on
            rnd.durations.append(time.perf_counter() - t0)
            rnd.item_times.append(None)
            rnd.digests.append("raised")
            rnd.failures.append("operation raised: " + traceback.format_exc(limit=3))
            rnd.failed_ops += 1
            continue
        finally:
            if tracer is not None:
                tracer.deactivate()
        rnd.durations.append(time.perf_counter() - t0)
        rnd.items += items
        rnd.item_times.append((rnd.durations[-1] if item_s is None else item_s) if items else None)
        problems = workload.check(output)
        rnd.failures.extend(problems)
        rnd.failed_ops += bool(problems)
        rnd.digests.append(workload.digest(output) + ("!" if problems else ""))
    return rnd


def run_rounds(workload, cal: Calibration, budget_s: float, reference: Round | None = None,
               tracer: Tracer | None = None) -> list[Round]:
    """At least one round, then more while the next is expected to fit in ``budget_s``.

    Every round must reproduce the outputs of ``reference`` (default: the
    first round) and, when traced, the exact counts of the first round.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        before = tracer.snapshot() if tracer else {}
        rnd = run_round(workload, cal, tracer)
        if tracer:
            rnd.counts = {k: v - before.get(k, 0) for k, v in tracer.snapshot().items()}
        rounds.append(rnd)
        reference = reference or rnd
        if rnd.digests != reference.digests:
            rnd.failures.append("round output differs from the first round")
            rnd.failed_ops += max(1, sum(a != b for a, b in zip(rnd.digests, reference.digests)))
        if rnd.counts != rounds[0].counts:
            rnd.failures.append("round counts differ from the first round")
            rnd.failed_ops += 1
        spent = time.perf_counter() - t0
        if time.perf_counter() - start + spent > budget_s:
            return rounds


def typical(rounds: list[Round], cal: Calibration) -> tuple[list[float], float]:
    """Per-operation median over rounds and the summed item-producing time,
    both in reference seconds (see KERNEL_REF_S)."""
    n = min(len(r.durations) for r in rounds)
    durations = [
        statistics.median(cal.to_reference(r.starts[i], r.durations[i]) for r in rounds)
        for i in range(n)
    ]
    item_s = sum(
        statistics.median(cal.to_reference(r.starts[i], r.item_times[i]) for r in rounds)
        for i in range(n)
        if all(r.item_times[i] is not None for r in rounds)
    )
    return durations, item_s


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile, interpolated between observed samples (never past the largest)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer, rounds: list[Round], overhead: float) -> dict:
    stats = tracer.stats
    n_rounds = len(rounds)
    per_round = rounds[0].counts

    def calls(name):
        return per_round.get(f"{name}.calls", 0)

    def per_call(name, scale):
        s = stats.get(name)
        return s[1] / s[0] * scale if s and s[0] else 0.0

    def secs(name, field=1):
        s = stats.get(name)
        return s[field] / n_rounds if s else 0.0

    def ratio(counter, name):
        return per_round.get(counter, 0) / calls(name) if calls(name) else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name, scale, unit, field in (
        ("algorithm.step_register", 1e6, "us", "us_per_call"),
        ("config.with_register", 1e6, "us", "us_per_call"),
        ("rules.check_r4", 1e6, "us", "us_per_call"),
        ("scheduler.violation_count", 1e6, "us", "us_per_call"),
        ("views.local_check_r4", 1e6, "us", "us_per_call"),
        ("views.build_view", 1e6, "us", "us_per_call"),
        ("support.Support.init", 1e6, "us", "us_per_call"),
        ("oracle.ConfigGraph.init", 1e6, "us", "us_per_call"),
        ("oracle.ConfigGraph.successor", 1e9, "ns", "ns_per_call"),
    ):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.{field}", per_call(name, scale), unit)
    put("algorithm.step_register.changed_ratio",
        ratio("algorithm.step_register.changed", "algorithm.step_register"), "ratio")
    put("oracle.ConfigGraph.successor.changed_ratio",
        ratio("oracle.ConfigGraph.successor.changed", "oracle.ConfigGraph.successor"), "ratio")
    put("algorithm.activation_step.calls", calls("algorithm.activation_step"), "count")
    for counter in ("line1_fired", "line2_fired", "conflicts_resolved"):
        name = f"algorithm.activation_step.{counter}"
        put(name, per_round.get(name, 0), "count")
    put("scheduler.run.calls", calls("scheduler.run"), "count")
    put("scheduler.run.self_s", secs("scheduler.run", 2), "s")
    put("scheduler.activations", per_round.get("scheduler.activations", 0), "count")
    put("generators.random_support.calls", calls("generators.random_support"), "count")
    cells = per_round.get("generators.random_support.cells", 0)
    put("generators.random_support.us_per_cell",
        secs("generators.random_support") / cells * 1e6 if cells else 0.0, "us")
    for name in ("generators.erosion_orientation", "generators.random_registers",
                 "generators.enumerate_supports", "oracle.check_silence",
                 "oracle.check_reachability", "oracle.check_unique_sink",
                 "oracle.find_unfair_cycle"):
        put(f"{name}.s", secs(name), "s")
    put("support.is_simply_connected.calls", calls("support.is_simply_connected"), "count")
    put("support.is_simply_connected.s", secs("support.is_simply_connected"), "s")
    put("oracle.states", per_round.get("oracle.states", 0), "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self_s(layer) / n_rounds, "s")
    put("trace.overhead_frac", overhead, "ratio")
    return m


def check_counts(out_dir: Path, key: str, code: str, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same code and seed left behind."""
    path = out_dir / "counts" / f"{key}.json"
    failures = []
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["code"] == code and earlier["counts"] != counts:
            failures.append(f"exact counts differ from an earlier run of the same code: {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": code, "counts": counts}, sort_keys=True, indent=1))
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "trielect" / "__init__.py").is_file():
        print(f"perfbench: no trielect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    cal = Calibration()
    setups: list[tuple[float, float]] = []  # (start, seconds)
    warm_up_failures: list[str] = []  # each counts one failed operation
    while len(setups) < SETUP_REPEATS and (len(setups) < 3 or sum(s for _, s in setups) < SETUP_BUDGET_S):
        cal.sample()
        t0 = time.perf_counter()
        T = load_trielect()
        workload = cls(T, args.seed, args.tiny)
        try:
            workload.warm_up()
        except Exception:
            warm_up_failures.append("warm-up raised: " + traceback.format_exc(limit=3))
        setups.append((t0, time.perf_counter() - t0))
    cal.sample()

    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = run_rounds(workload, cal, budget)
    counts = {WORK_ITEM[args.workload][0]: rounds[0].items}
    traced: list[Round] = []
    if args.trace:
        tracer = Tracer()
        instrument(tracer, T)
        traced = run_rounds(workload, cal, budget, rounds[0], tracer)
        counts = {k: v for k, v in sorted(traced[0].counts.items()) if not k.startswith("bench.")}

    all_rounds = rounds + traced
    failures = warm_up_failures + [f for r in all_rounds for f in r.failures]
    counts["outputs"] = hashlib.sha1("|".join(rounds[0].digests).encode()).hexdigest()[:16]
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    count_failures = check_counts(out_dir, key, code_digest(), counts)
    failures += count_failures
    attempted = len(warm_up_failures) + sum(len(r.durations) + r.stopped for r in all_rounds)
    failed = min(attempted, len(warm_up_failures) + len(count_failures)
                 + sum(r.failed_ops for r in all_rounds))
    for f in failures[:20]:
        print("FAILED:", f, file=sys.stderr)

    if cal.due():
        cal.sample()
    samples, item_s = typical(rounds, cal)
    samples = samples or [0.0]  # no operation could be built; already counted as failed
    wall = sum(samples)
    # No items means every item-producing operation failed; that is already
    # counted, so the throughput reads 0 instead of stopping the report.
    work_per_s = rounds[0].items / item_s if item_s else 0.0
    if args.trace:
        overhead = sum(typical(traced, cal)[0]) / wall - 1 if wall else 0.0
        metrics = per_layer_metrics(tracer, traced, overhead)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out_dir / f"trace-{args.workload}.jsonl"), {
            "workload": args.workload, "seed": args.seed, "rounds": len(traced),
            "stats": {k: {"calls": s[0], "s": s[1], "self_s": s[2]} for k, s in tracer.stats.items()},
        })
    else:
        metrics = {
            "setup_s": {"value": statistics.median(cal.to_reference(*s) for s in setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_ms_p50": {"value": statistics.median(samples) * 1e3, "unit": "ms"},
            "op_ms_p95": {"value": quantile(samples, 95) * 1e3, "unit": "ms"},
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "setup_repeats": len(setups), "rounds": len(rounds), "op_samples": len(samples),
        "kernel_s": {"value": statistics.median(cal.kernel), "unit": "s"},
        "raw_setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
        "raw_wall_s": {"value": statistics.median(sum(r.durations) for r in rounds), "unit": "s"},
        WORK_ITEM[args.workload][1]: {"value": work_per_s, "unit": "1/s"},
        "ops_failed_frac": {"value": failed / attempted if attempted else 0.0, "unit": "ratio"},
        "round_counts": counts,
    }
    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
