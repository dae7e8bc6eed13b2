import io
import random

import pytest

from trielect.lattice import Cell
from trielect.algorithm import ActivationEffect, activation_step, step_register
from trielect.config import all_in_configuration
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    hexagon,
    random_portmaps,
    random_registers,
    random_support,
)
from trielect.oracle import CompiledSupport, ConfigGraph
from trielect.rules import is_valid, sinks
from trielect.scheduler import (
    Outcome,
    RandomSequential,
    RoundRobin,
    Scripted,
    _fire,
    _register,
    analyze_cycle,
    detect_final,
    run,
    violation_count,
)

from reference import reference_run


def test_detect_final(tri, hex1):
    assert detect_final(erosion_orientation(hex1))
    pair = all_in_configuration(random_support(2, 3))
    assert not detect_final(pair)
    single = all_in_configuration(random_support(1, 0))
    assert detect_final(single)


def test_run_on_final_config_stops_immediately(hex1):
    cfg = erosion_orientation(hex1)
    res = run(cfg, RandomSequential(0))
    assert res.outcome is Outcome.FINAL and res.steps == 0
    assert res.config == cfg


def test_round_robin_triangle_reaches_unique_sink(tri):
    res = run(all_in_configuration(tri), RoundRobin(), record_trace=True)
    assert res.outcome is Outcome.FINAL
    assert is_valid(res.config)
    assert len(sinks(res.config)) == 1
    assert res.steps == len(res.events) > 0


def test_random_runs_deterministic_per_seed():
    s = random_support(9, 21)
    cfg = random_registers(s, 5, 0.2, random_portmaps(s, 8))
    a = run(cfg, RandomSequential(99), record_trace=True)
    b = run(cfg, RandomSequential(99), record_trace=True)
    assert a.steps == b.steps
    assert a.config == b.config
    assert [e.activated for e in a.events] == [e.activated for e in b.events]
    c = run(cfg, RandomSequential(100), record_trace=True)
    assert (
        [e.activated for e in c.events] != [e.activated for e in a.events]
        or c.config == a.config
    )


def test_violation_count_monotone_along_runs():
    rng = random.Random(17)
    for _ in range(25):
        s = random_support(rng.randint(3, 12), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.2)
        res = run(cfg, RandomSequential(rng.randrange(10**9)),
                  record_trace=True, check_invariants=True)
        assert res.outcome is Outcome.FINAL
        counts = [e.post_violation_count for e in res.events]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_final_outcomes_are_valid_single_sink():
    rng = random.Random(23)
    for _ in range(20):
        s = random_support(rng.randint(2, 15), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.1)
        res = run(cfg, RandomSequential(rng.randrange(10**9)))
        assert res.outcome is Outcome.FINAL
        assert is_valid(res.config)
        assert len(sinks(res.config)) == 1


def test_scripted_no_op_entries_allowed(tri):
    cfg = erosion_orientation(tri)
    res = run(cfg, Scripted((Cell(0, 0),)), max_steps=5)
    # final configuration detected before any scripted event fires
    assert res.outcome is Outcome.FINAL and res.steps == 0

    pair = all_in_configuration(random_support(2, 1))
    cells = sorted(pair.support.cells)
    res = run(pair, Scripted((cells[0], cells[0], cells[1])), max_steps=10,
              record_trace=True)
    assert res.outcome is Outcome.FINAL


def test_scripted_requires_nonempty():
    with pytest.raises(ValueError):
        Scripted(())


def test_cap_exceeded_reports_cap(tri):
    cfg = all_in_configuration(tri)
    res = run(cfg, RandomSequential(3), max_steps=0)
    assert res.outcome is Outcome.CAP_EXCEEDED or res.outcome is Outcome.FINAL
    assert res.steps == 0


def test_trace_file_format(tmp_path, tri):
    cfg = all_in_configuration(tri)
    buf = io.StringIO()
    res = run(cfg, RoundRobin(), trace_file=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# trace shape=")
    assert "scheduler=roundrobin" in lines[0]
    assert len(lines) == res.steps + 1
    for line in lines[1:]:
        parts = line.split()
        assert len(parts) == 7
        int(parts[0]); int(parts[1]); int(parts[2])
        assert parts[3] in "01" and parts[4] in "01" and parts[5] in "01"


def test_analyze_cycle_rejects_non_periodic(tri):
    a = all_in_configuration(tri)
    b, _ = activation_step(a, Cell(0, 0))
    with pytest.raises(ValueError):
        analyze_cycle([a, b], [Cell(0, 0)])
    with pytest.raises(ValueError):
        analyze_cycle([a, b, a], [Cell(0, 0)])


def test_analyze_cycle_full_final_window(hex1):
    cfg = erosion_orientation(hex1)
    rep = analyze_cycle([cfg, cfg], [sorted(hex1.cells)[0]])
    assert rep.unstable_edges == frozenset()
    assert len(rep.stable_edges) == len(cfg.edges())


def test_analyze_cycle_on_found_cycle(hexagon_cycle):
    cycle = hexagon_cycle
    configs, cells = cycle.window()
    rep = analyze_cycle(configs, cells)
    assert rep.period == cycle.period
    assert rep.clean
    assert rep.stable_out_violations == () and rep.unstable_spread_violations == ()
    assert rep.stable_edges and rep.unstable_edges


# -- the compiled engine against the object-based reference ---------------------


def _seeded_runs():
    """One random start per size 1..25, each with all three scheduler kinds."""
    rng = random.Random(2024)
    for n in range(1, 26):
        s = random_support(n, rng.randrange(2**31))
        cfg = random_registers(
            s, rng.randrange(2**31), 0.2, random_portmaps(s, rng.randrange(2**31))
        )
        script = Scripted(tuple(rng.choice(sorted(s.cells)) for _ in range(7)))
        for kind in (RandomSequential(rng.randrange(2**31)), RoundRobin(), script):
            yield cfg, kind, 200 if kind is script else 10**6


def _assert_same_run(drive_args, record_trace, check_invariants, with_file):
    cfg, kind, cap = drive_args
    got_file, want_file = (io.StringIO(), io.StringIO()) if with_file else (None, None)
    flags = dict(record_trace=record_trace, check_invariants=check_invariants)
    got = run(cfg, kind, cap, trace_file=got_file, **flags)
    want = reference_run(cfg, kind, cap, trace_file=want_file, **flags)
    assert (got.outcome, got.steps) == (want.outcome, want.steps)
    assert got.config == want.config
    assert got.events == want.events
    if with_file:
        assert got_file.getvalue() == want_file.getvalue()


@pytest.mark.parametrize(
    "record_trace, check_invariants, with_file",
    [(False, False, False), (True, False, False), (False, True, False), (True, True, True)],
)
def test_run_matches_reference_run(record_trace, check_invariants, with_file):
    for args in _seeded_runs():
        _assert_same_run(args, record_trace, check_invariants, with_file)


def test_run_matches_reference_run_on_a_thousand_cells():
    s = hexagon(18)
    cfg = random_registers(s, 41, 0.25, random_portmaps(s, 40))
    assert len(s) >= 1000
    _assert_same_run((cfg, RandomSequential(42), 10**6), False, False, False)


def test_engine_step_matches_reference_and_packed_steps():
    """Every cell of every state of every support with n <= 4."""
    rng = random.Random(5)
    for n in range(1, 5):
        for s in enumerate_supports(n):
            portmaps = random_portmaps(s, rng.randrange(2**31))
            graph = ConfigGraph(s)
            compiled = CompiledSupport(s)
            rows = list(zip(compiled.half, compiled.dirs, compiled.tri_dirs, compiled.tri_far))
            for state in graph.all_states():
                cfg = graph.unpack(state, portmaps)
                out = compiled.flags(cfg)
                assert out == bytes(state >> h & 1 for h in range(compiled.n_half_edges))
                for ci, (p, row) in enumerate(zip(compiled.cells, rows)):
                    half, dirs = row[:2]
                    before, after, line1, line2, conflicts = _fire(out, *row)
                    reg, effect = step_register(cfg, p)
                    assert _register(cfg, p, dirs, before) == cfg.regs[p]
                    assert _register(cfg, p, dirs, after) == reg
                    assert ActivationEffect(before != after, line1, line2, conflicts) == effect
                    packed = state
                    for h, d in zip(half, dirs):
                        packed = packed & ~(1 << h) | (after >> d & 1) << h
                    assert packed == graph.successor(state, ci)


def test_incremental_violation_count_matches_full_recount():
    rng = random.Random(31)
    for _ in range(20):
        s = random_support(rng.randint(3, 20), rng.randrange(2**31))
        cfg = random_registers(s, rng.randrange(2**31), 0.2, random_portmaps(s, rng.randrange(2**31)))
        res = run(cfg, RandomSequential(rng.randrange(2**31)), record_trace=True)
        replay = cfg
        for event in res.events:
            replay, _ = activation_step(replay, event.activated[0])
            assert event.post_violation_count == violation_count(replay)
        assert replay == res.config
