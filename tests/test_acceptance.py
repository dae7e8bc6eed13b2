"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import io
import random
import time

import pytest

from trielect.algorithm import activation_step
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    hexagon,
    line,
    parallelogram,
    random_registers,
    random_support,
    triangle3,
)
from trielect.oracle import (
    ConfigGraph,
    check_reachability,
    check_silence,
    check_unique_sink,
    find_unfair_cycle,
)
from trielect.rules import is_valid, sinks
from trielect.scheduler import (
    Outcome,
    RandomSequential,
    Scripted,
    run,
)
from trielect.support import check_angle_census, boundary_witness
from trielect.views import infer_triangle_labels, local_check_r4
from trielect.rules import check_r4

import itertools

from trielect.lattice import ALL_PORTMAPS, Cell
from trielect.config import ALL_IN, Configuration
from trielect.support import Support

from reference import triangles_at


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 4 and 8 share their artifacts with criterion 10 -----------------


@pytest.fixture(scope="module")
def fair_runs():
    """1000 random-scheduler runs with per-step invariant checking."""
    rng = random.Random(0xF00D)
    outcomes = []
    t0 = time.time()
    for trial in range(1000):
        n = rng.randint(5, 25)
        support = random_support(n, rng.randrange(2**32))
        cfg = random_registers(support, rng.randrange(2**32), 0.1)
        res = run(
            cfg,
            RandomSequential(rng.randrange(2**32)),
            max_steps=10**6,
            check_invariants=True,
        )
        retried = False
        if res.outcome is not Outcome.FINAL:
            retry = run(
                cfg,
                RandomSequential(rng.randrange(2**32) + 1),
                max_steps=10**6,
                check_invariants=True,
            )
            retried = True
            outcomes.append((res, retry))
        else:
            outcomes.append((res, None))
        del retried
    return outcomes, time.time() - t0


@pytest.fixture(scope="module")
def found_cycles():
    """Unfair-cycle search over a spread of shapes up to 8 cells."""
    candidates = [
        triangle3(),
        line(4),
        parallelogram(2, 2),
        parallelogram(2, 3),
        hexagon(1),
    ]
    found = []
    for support in candidates:
        cycle = find_unfair_cycle(support, max_states=600_000)
        if cycle is not None:
            found.append(cycle)
    return found


def test_criterion_1_unique_sink_exhaustive():
    t0 = time.time()
    checked = 0
    bad = 0
    for n in range(1, 8):
        for support in enumerate_supports(n):
            rep = check_unique_sink(support)
            checked += rep.valid
            bad += len(rep.counterexamples)
    elapsed = time.time() - t0
    _report(
        1,
        bad == 0 and elapsed < 600,
        f"unique sink over all rule-passing orientations, n<=7: "
        f"{checked} valid orientations, {bad} counterexamples, {elapsed:.1f}s",
    )


def test_criterion_2_silence():
    states = 0
    bad = 0
    for n in range(1, 6):
        for support in enumerate_supports(n):
            rep = check_silence(support)
            states += rep.states
            bad += len(rep.mismatches)
    _report(2, bad == 0, f"final <=> valid over {states} register states, n<=5")


def test_criterion_3_reachability():
    states = 0
    bad = 0
    for n in range(1, 6):
        for support in enumerate_supports(n):
            rep = check_reachability(support)
            states += rep.states
            bad += len(rep.unreachable)
    _report(
        3,
        bad == 0,
        f"a valid final state is reachable from every one of {states} states, n<=5",
    )


def test_criterion_4_empirical_convergence(fair_runs):
    outcomes, elapsed = fair_runs
    finals = sum(1 for res, _ in outcomes if res.outcome is Outcome.FINAL)
    good_finals = all(
        is_valid(res.config) and len(sinks(res.config)) == 1
        for res, _ in outcomes
        if res.outcome is Outcome.FINAL
    )
    retries_ok = all(
        retry is not None
        and retry.outcome is Outcome.FINAL
        and is_valid(retry.config)
        and len(sinks(retry.config)) == 1
        for res, retry in outcomes
        if res.outcome is not Outcome.FINAL
    )
    _report(
        4,
        finals >= 999 and good_finals and retries_ok,
        f"{finals}/1000 random-scheduler runs final with a unique sink "
        f"(cap 1e6, conflicts 0.1, n in 5..25, {elapsed:.1f}s); retries ok",
    )


def test_criterion_5_angle_census():
    checked = 0
    bad = 0
    for n in range(3, 8):
        for support in enumerate_supports(n):
            if not support.is_two_connected():
                continue
            checked += 1
            if not check_angle_census(support):
                bad += 1
    _report(
        5,
        checked > 0 and bad == 0,
        f"2*n60 + n120 - n240 == 6 on all {checked} 2-connected supports, 3<=n<=7",
    )


def test_criterion_6_boundary_witness():
    checked = 0
    failures = 0
    for n in range(2, 8):
        for support in enumerate_supports(n):
            try:
                boundary_witness(support)
            except Exception:
                failures += 1
            checked += 1
    _report(
        6,
        failures == 0,
        f"boundary witness found on all {checked} simply connected supports, 2<=n<=7",
    )


def test_criterion_7_chirality_inference():
    p, q, r = Cell(0, 0), Cell(1, 0), Cell(0, 1)
    r2 = Cell(1, -1)
    tri = triangle3()
    cases = 0
    bad = 0
    # Every port-map product, ``pms[i]`` the port map of cell number i.
    for pms in itertools.product(ALL_PORTMAPS, repeat=3):
        cfg = Configuration(tri, pms, {c: ALL_IN for c in tri})
        for a, b, c3 in itertools.permutations((p, q, r)):
            cases += 1
            if infer_triangle_labels(cfg, a, b, c3) != (
                cfg.port_of(b, c3),
                cfg.port_of(c3, b),
            ):
                bad += 1
    tri_cases = cases

    rhomb = Support([p, q, r, r2])
    cases = 0
    for pms in itertools.product(ALL_PORTMAPS, repeat=4):
        cfg = Configuration(rhomb, pms, {c: ALL_IN for c in rhomb})
        for a, b, c3 in ((p, q, r), (q, p, r), (p, q, r2), (q, p, r2)):
            cases += 1
            if infer_triangle_labels(cfg, a, b, c3) != (
                cfg.port_of(b, c3),
                cfg.port_of(c3, b),
            ):
                bad += 1
    rhomb_cases = cases

    rng = random.Random(0xC0FFEE)
    comparisons = 0
    from trielect.generators import random_portmaps

    while comparisons < 10_000:
        s = random_support(rng.randint(3, 9), rng.randrange(2**32))
        cfg = random_registers(
            s, rng.randrange(2**32), 0.15, random_portmaps(s, rng.randrange(2**32))
        )
        for cell in s:
            if not triangles_at(cfg, cell):
                continue
            comparisons += 1
            if local_check_r4(cfg, cell) != check_r4(cfg, cell):
                bad += 1
    _report(
        7,
        bad == 0,
        f"label inference exact on {tri_cases} lone-triangle and {rhomb_cases} "
        f"rhombus cases; local triangle rule agrees with omniscient on "
        f"{comparisons} randomized particles",
    )


def test_criterion_8_unfair_cycle(found_cycles):
    ok = len(found_cycles) >= 1
    details = []
    for cycle in found_cycles:
        graph = ConfigGraph(cycle.support)
        if any(graph.is_valid(st) for st in cycle.states):
            ok = False
        # bit-exact replay, step by step and through the scheduler
        cfg = cycle.initial_config()
        for i, cell in enumerate(cycle.script):
            cfg, _ = activation_step(cfg, cell)
            if graph.pack(cfg) != cycle.states[(i + 1) % cycle.period]:
                ok = False
        res = run(
            cycle.initial_config(),
            Scripted(cycle.script),
            max_steps=2 * cycle.period,
            check_invariants=True,
        )
        if res.outcome is not Outcome.CAP_EXCEEDED or res.config != cycle.initial_config():
            ok = False
        if not cycle.lemmas().clean:
            ok = False
        details.append(f"{len(cycle.support)} cells period {cycle.period}")
    _report(
        8,
        ok,
        f"{len(found_cycles)} valid-free cycles found (n<=8), replayed bit-exactly, "
        f"stable-edge facts hold: {', '.join(details)}",
    )


def test_criterion_9_erosion_construction():
    from reference import globally_acyclic

    checked = 0
    bad = 0
    for n in range(1, 8):
        for support in enumerate_supports(n):
            cfg = erosion_orientation(support)
            checked += 1
            if not (
                is_valid(cfg) and len(sinks(cfg)) == 1 and globally_acyclic(cfg)
            ):
                bad += 1
    _report(
        9,
        bad == 0,
        f"erosion orientation valid, acyclic, single sink on all {checked} supports, n<=7",
    )


def test_criterion_10_step_invariants(fair_runs, found_cycles):
    # Criteria 4 and 8 executed with check_invariants=True; any violation
    # of post-activation rules or count monotonicity raises there.  This
    # re-verifies monotonicity on the trace logs of fresh runs.
    from reference import read_trace

    rng = random.Random(0xBEEF)
    events_checked = 0
    ok = True
    for _ in range(50):
        support = random_support(rng.randint(5, 25), rng.randrange(2**32))
        cfg = random_registers(support, rng.randrange(2**32), 0.1)
        trace = io.StringIO()
        run(
            cfg,
            RandomSequential(rng.randrange(2**32)),
            max_steps=10**6,
            check_invariants=True,
            trace_file=trace,
        )
        counts = [row[-1] for row in read_trace(trace.getvalue())]
        if any(a < b for a, b in zip(counts, counts[1:])):
            ok = False
        events_checked += len(counts)
    runs_count = len(fair_runs[0])
    cycles_count = len(found_cycles)
    _report(
        10,
        ok,
        f"post-activation rules and monotone violation counts held across "
        f"{runs_count} fair runs, {cycles_count} cycle replays, and "
        f"{events_checked} freshly traced events",
    )
