import io
import random

import pytest

import reference
import trielect.scheduler as scheduler
from trielect.lattice import Cell, N_DIRS, neighbor, port_to_dir
from trielect.algorithm import ActivationEffect, activation_step, step_register
from trielect.config import IN, OUT, REGISTER, ConfigError, all_in_configuration
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    hexagon,
    random_portmaps,
    random_registers,
    random_support,
)
from trielect.oracle import ConfigGraph, UnfairCycle
from trielect.support import Support
from trielect.rules import check_r2, check_r3, check_r4, is_valid, sinks, violating_particles
from trielect.scheduler import (
    Outcome,
    RandomSequential,
    RoundRobin,
    Scripted,
    StepInvariantError,
    _DEPS,
    _breaks,
    _masks,
    _set,
    _valid_single_sink,
    _violates,
    detect_final,
    run,
    violating_cells,
    violation_count,
)

from reference import (
    analyze_cycle,
    assert_masks_match_regs,
    read_trace,
    reference_fire,
    reference_run,
    trace_flags,
)


def _traced_run(*args, **kwargs):
    """``run`` with its trace log read back: ``(result, trace rows)``."""
    buf = io.StringIO()
    res = run(*args, trace_file=buf, **kwargs)
    return res, read_trace(buf.getvalue())


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
    res, rows = _traced_run(all_in_configuration(tri), RoundRobin())
    assert res.outcome is Outcome.FINAL
    assert is_valid(res.config)
    assert len(sinks(res.config)) == 1
    assert res.steps == len(rows) > 0


def test_random_runs_deterministic_per_seed():
    s = random_support(9, 21)
    cfg = random_registers(s, 5, 0.2, random_portmaps(s, 8))
    a, a_rows = _traced_run(cfg, RandomSequential(99))
    b, b_rows = _traced_run(cfg, RandomSequential(99))
    assert a.steps == b.steps
    assert a.config == b.config
    assert a_rows == b_rows
    c, c_rows = _traced_run(cfg, RandomSequential(100))
    assert [row[1] for row in c_rows] != [row[1] for row in a_rows] or c.config == a.config


@pytest.mark.parametrize("seed", [None, 1.0, "3"])
def test_seeds_must_be_explicit_ints(seed):
    """``random.Random(None)`` would seed from OS entropy: the scheduler and
    the three seeded generators refuse any seed that is not an ``int``."""
    s = hexagon(1)
    makers = (
        lambda: RandomSequential(seed),
        lambda: random_support(5, seed),
        lambda: random_portmaps(s, seed),
        lambda: random_registers(s, seed),
    )
    for make in makers:
        with pytest.raises(TypeError, match="^seed must be an int, not "):
            make()


def test_violation_count_monotone_along_runs():
    rng = random.Random(17)
    for _ in range(25):
        s = random_support(rng.randint(3, 12), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.2)
        res, rows = _traced_run(cfg, RandomSequential(rng.randrange(10**9)), check_invariants=True)
        assert res.outcome is Outcome.FINAL
        counts = [row[-1] for row in rows]
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
    res, rows = _traced_run(pair, Scripted((cells[0], cells[0], cells[1])), max_steps=10)
    assert res.outcome is Outcome.FINAL
    assert len(rows) == res.steps


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
    window = UnfairCycle(hex1, (ConfigGraph(hex1).pack(cfg),), (sorted(hex1.cells)[0],))
    rep = window.lemmas()
    assert rep.unstable_edges == frozenset()
    assert rep.stable_edges == frozenset(hex1.edges())


def test_analyze_cycle_on_found_cycle(hexagon_cycle):
    cycle = hexagon_cycle
    rep = cycle.lemmas()
    assert rep.period == cycle.period
    assert rep.clean
    assert rep.stable_out_violations == () and rep.unstable_spread_violations == ()
    assert rep.stable_edges and rep.unstable_edges


def _named_cells(violations):
    return [message.split(" has ")[0] for message in violations]


def _assert_lemmas_match_reference(window, portmaps):
    """``window.lemmas()`` against ``reference.analyze_cycle`` on the same
    window unpacked with ``portmaps``: both edge sets, and the cells each
    violation list names, in order."""
    graph = ConfigGraph(window.support)
    configs = [graph.unpack(state, portmaps) for state in window.states]
    try:
        want = analyze_cycle(configs + configs[:1], window.script)
    except ValueError:
        with pytest.raises(ValueError, match="conflict"):
            window.lemmas()
        return None
    got = window.lemmas()
    assert (got.period, got.activated) == (want.period, want.activated)
    assert got.stable_edges == want.stable_edges
    assert got.unstable_edges == want.unstable_edges
    assert _named_cells(got.stable_out_violations) == _named_cells(want.stable_out_violations)
    assert _named_cells(got.unstable_spread_violations) == _named_cells(
        want.unstable_spread_violations
    )
    return got


def _random_windows(count, seed):
    """Seeded windows over every support with 2 <= n <= 5 and hexagon1: a
    period of 1 to 4 states in which each edge either keeps a directed code
    or draws one of In/In, a->b and b->a per state; one window in twenty
    also puts a conflict into one state.  The script is random cells."""
    rng = random.Random(seed)
    supports = [s for n in range(2, 6) for s in enumerate_supports(n)] + [hexagon(1)]
    for _ in range(count):
        s = rng.choice(supports)
        n_edges = len(s.edges())
        period = rng.randint(1, 4)
        held = [rng.choice((1, 2)) if rng.random() < 0.5 else None for _ in range(n_edges)]
        states = []
        for _ in range(period):
            codes = [h if h is not None else rng.randrange(3) for h in held]
            states.append(sum(code << 2 * i for i, code in enumerate(codes)))
        if rng.random() < 0.05:
            k = rng.randrange(period)
            states[k] |= 3 << 2 * rng.randrange(n_edges)
        script = tuple(rng.choice(s.order) for _ in range(period))
        yield UnfairCycle(s, tuple(states), script), random_portmaps(s, rng.randrange(2**31))


def test_lemmas_match_reference_analyze_cycle(hexagon_cycle):
    """``UnfairCycle.lemmas`` reads directions where the reference reads
    ports, under random port maps: the same edges and violating cells on
    the hexagon1 cycle and on 3,000 seeded random windows."""
    rng = random.Random(3)
    for _ in range(5):
        portmaps = random_portmaps(hexagon_cycle.support, rng.randrange(2**31))
        assert _assert_lemmas_match_reference(hexagon_cycle, portmaps).clean
    reports = [_assert_lemmas_match_reference(*w) for w in _random_windows(3000, 11)]
    checked = [rep for rep in reports if rep is not None]
    assert len(checked) < len(reports)  # some windows held a conflict
    assert any(rep.clean for rep in checked)
    # every kind of violation was met
    messages = [m for rep in checked for m in rep.stable_out_violations]
    assert any("is activated" in m for m in messages)
    assert any("unstable edges [" in m for m in messages)
    spreads = [m for rep in checked for m in rep.unstable_spread_violations]
    assert {m[m.index("directions"):].count(",") + 1 for m in spreads} == {1, 2, 3}


# -- the mask engine against the object-based reference -------------------------


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


def _assert_same_run(drive_args, check_invariants, with_file):
    cfg, kind, cap = drive_args
    got_file, want_file = (io.StringIO(), io.StringIO()) if with_file else (None, None)
    got = run(cfg, kind, cap, check_invariants=check_invariants, trace_file=got_file)
    want = reference_run(cfg, kind, cap, check_invariants=check_invariants, trace_file=want_file)
    assert (got.outcome, got.steps) == (want.outcome, want.steps)
    assert got.config == want.config
    if with_file:
        assert got_file.getvalue() == want_file.getvalue()


@pytest.mark.parametrize(
    "check_invariants, with_file", [(False, False), (False, True), (True, False), (True, True)]
)
def test_run_matches_reference_run(check_invariants, with_file):
    for args in _seeded_runs():
        _assert_same_run(args, check_invariants, with_file)


def test_run_matches_reference_run_on_a_thousand_cells():
    """From the same random registers: a random run with nothing observed,
    then round robin (2,731 steps) with invariants checked and the trace
    file compared."""
    s = hexagon(18)
    cfg = random_registers(s, 41, 0.25, random_portmaps(s, 40))
    assert len(s) >= 1000
    _assert_same_run((cfg, RandomSequential(42), 10**6), False, False)
    _assert_same_run((cfg, RoundRobin(), 10**6), True, True)


def _packed_masks(state, graph):
    """``(mine, theirs)`` read off a packed oracle state: per cell, the
    directions of its own and of the far-side Out half-edges."""
    mine, theirs = [], []
    for half in graph.half_at:
        mine.append(sum(1 << d for d, h in enumerate(half) if h >= 0 and state >> h & 1))
        theirs.append(sum(1 << d for d, h in enumerate(half) if h >= 0 and state >> (h ^ 1) & 1))
    return mine, theirs


def test_engine_step_matches_reference_and_packed_steps():
    """Every cell of every state of every support with n <= 4: the engine's
    masks, the next-mask formula (``reference_fire``, and ``run``'s inline
    block through a one-step scripted run), the engine's write of the step,
    and the trace's flag formula against ``step_register``'s effect, both
    as ``trace_flags`` states it and as a one-step traced run writes it (a
    final state takes no step, so it writes no line)."""
    rng = random.Random(5)
    for n in range(1, 5):
        for s in enumerate_supports(n):
            portmaps = random_portmaps(s, rng.randrange(2**31))
            graph = ConfigGraph(s)
            cells, present, around = s.order, s.present, s.around
            assert cells == graph.cells
            for state in range(1 << 2 * graph.n_edges):
                cfg = graph.unpack(state, portmaps)
                mine, theirs = _masks(cfg)
                assert (mine, theirs) == _packed_masks(state, graph)
                live = not detect_final(cfg)
                for ci, (p, half) in enumerate(zip(cells, graph.half_at)):
                    before = mine[ci]
                    after = reference_fire(ci, mine, theirs, present, around)
                    reg, effect = step_register(cfg, p)
                    assert REGISTER[cfg.portmaps[p]][before] == cfg.regs[p]
                    assert REGISTER[cfg.portmaps[p]][after] == reg
                    flags = (effect.line1_fired, effect.line2_fired, effect.changed)
                    assert trace_flags(before, after, theirs[ci], present[ci]) == flags
                    res, rows = _traced_run(cfg, Scripted((p,)), max_steps=1)
                    assert res.config.regs[p] == reg
                    assert [row[1:5] for row in rows] == ([(p, *flags)] if live else [])
                    packed = state
                    for d, h in enumerate(half):
                        if h >= 0:
                            packed = packed & ~(1 << h) | (after >> d & 1) << h
                    assert packed == graph.successor(state, ci)
                    stepped = mine[:], theirs[:]
                    _set(ci, after, *stepped, around)
                    assert stepped == _packed_masks(packed, graph)


def _assert_steps_reach_only_deps(mine, theirs, present, around, near):
    """Apply the engine's step (``_set`` to the next mask ``reference_fire``
    gives) at each cell ``ci`` in turn, from the same masks: every cell of
    ``near(ci)`` but ``ci`` and the neighbours ``_DEPS[flip]`` names keeps
    its next mask and its ``_breaks`` value, and ``ci`` keeps its next mask."""

    def values(x, mine, theirs):
        return reference_fire(x, mine, theirs, present, around), _breaks(x, mine, theirs, around)

    for ci in range(len(mine)):
        after = reference_fire(ci, mine, theirs, present, around)
        flip = mine[ci] ^ after
        stepped = mine[:], theirs[:]
        _set(ci, after, *stepped, around)
        assert reference_fire(ci, *stepped, present, around) == after, ci
        reach = {ci, *(around[ci][d] for d in _DEPS[flip])}
        for x in near(ci):
            if x not in reach:
                assert values(x, *stepped) == values(x, mine, theirs), (ci, x, flip)


def test_dependency_table_covers_every_step_on_every_small_state():
    """Every cell of every 4^E state, conflicts included, of every support
    with n <= 4; all cells are compared."""
    for n in range(1, 5):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            every = range(n)
            for state in range(1 << 2 * graph.n_edges):
                mine, theirs = _packed_masks(state, graph)
                _assert_steps_reach_only_deps(mine, theirs, s.present, s.around, lambda ci: every)


def test_dependency_table_covers_every_step_at_scale():
    """Seeded random registers on 300 to 2,000 cells.  ``_set`` writes only
    ``mine[ci]`` and ``theirs`` at ``ci``'s neighbours, and the next mask
    and ``_breaks`` at a cell read only its own and its neighbours' masks, so
    the cells within two steps of ``ci`` are all a step can reach; all of
    them are compared."""
    rng = random.Random(17)
    for n in (300, 900, 2000):
        s = random_support(n, rng.randrange(2**31))
        portmaps = random_portmaps(s, rng.randrange(2**31))
        cfg = random_registers(s, rng.randrange(2**31), 0.25, portmaps)
        around = s.around

        def near(ci):
            return {y for x in (ci, *around[ci]) if x >= 0 for y in (x, *around[x]) if y >= 0}

        _assert_steps_reach_only_deps(*_masks(cfg), s.present, around, near)


def test_final_configuration_rejects_out_toward_an_empty_cell():
    s = random_support(12, 8)
    cfg = random_registers(s, 9, 0.2, random_portmaps(s, 10))
    cells, present = s.order, s.present
    mine, _ = _masks(cfg)
    assert cfg.with_masks(bytes(mine)) == cfg
    ci = next(ci for ci, m in enumerate(present) if m != 0b111111)
    empty = next(d for d in range(N_DIRS) if not present[ci] >> d & 1)
    mine[ci] |= 1 << empty
    with pytest.raises(ConfigError, match=f"cell \\({cells[ci].q} {cells[ci].r}\\) port"):
        cfg.with_masks(bytes(mine))


def test_incremental_violation_count_matches_full_recount():
    rng = random.Random(31)
    for _ in range(20):
        s = random_support(rng.randint(3, 20), rng.randrange(2**31))
        cfg = random_registers(s, rng.randrange(2**31), 0.2, random_portmaps(s, rng.randrange(2**31)))
        res, rows = _traced_run(cfg, RandomSequential(rng.randrange(2**31)))
        replay = cfg
        for _, p, _, _, _, violations in rows:
            replay, _ = activation_step(replay, p)
            assert violations == violation_count(replay)
        assert replay == res.config


def test_breaks_matches_rule_checks_on_every_small_state():
    """``_breaks`` equals ``_violates`` (not R2 and R3 and R4, on the object path)
    at every cell of every 4^E state, conflicts included, of every support with n <= 4,
    and ``_valid_single_sink`` equals ``is_valid`` with exactly one sink."""
    rng = random.Random(7)
    for n in range(1, 5):
        for s in enumerate_supports(n):
            portmaps = random_portmaps(s, rng.randrange(2**31))
            graph = ConfigGraph(s)
            cells, present, around = s.order, s.present, s.around
            for state in range(1 << 2 * graph.n_edges):
                cfg = graph.unpack(state, portmaps)
                mine, theirs = _masks(cfg)
                for ci, p in enumerate(cells):
                    assert _breaks(ci, mine, theirs, around) == _violates(cfg, p), (state, p)
                violations = sum(_breaks(ci, mine, theirs, around) for ci in range(len(cells)))
                assert _valid_single_sink(mine, theirs, present, violations) == (
                    is_valid(cfg) and len(sinks(cfg)) == 1
                ), state


def test_breaks_matches_rule_checks_on_random_configurations():
    rng = random.Random(11)
    r4_only = 0
    for n in (5, 9, 17, 33, 70, 150):
        for conflict_prob in (0.1, 0.4):
            s = random_support(n, rng.randrange(2**31))
            cfg = random_registers(
                s, rng.randrange(2**31), conflict_prob, random_portmaps(s, rng.randrange(2**31))
            )
            cells, present, around = s.order, s.present, s.around
            mine, theirs = _masks(cfg)
            for ci, p in enumerate(cells):
                assert _breaks(ci, mine, theirs, around) == _violates(cfg, p), p
                r4_only += check_r2(cfg, p) and check_r3(cfg, p) and not check_r4(cfg, p)
            for c in (cfg, erosion_orientation(s)):
                mine, theirs = _masks(c)
                violations = sum(_breaks(ci, mine, theirs, around) for ci in range(len(cells)))
                assert _valid_single_sink(mine, theirs, present, violations) == (
                    is_valid(c) and len(sinks(c)) == 1
                )
    assert r4_only  # the triangle branch was exercised


def test_violating_cells_match_the_object_path_pointwise():
    """``violating_cells``, the mask reader ``run`` and ``verify`` on the
    command line decide with, names as cell numbers the particles
    ``rules.violating_particles`` names, and the count of zero masks
    equals the count of sinks: on every 4^E state of every support with
    n <= 4, and on seeded random registers, their runs' final
    configurations and erosion orientations up to 300 cells."""
    rng = random.Random(23)
    configs = []
    for n in range(1, 5):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            portmaps = random_portmaps(s, rng.randrange(2**31))
            configs += [graph.unpack(state, portmaps) for state in range(1 << 2 * graph.n_edges)]
    for n in (5, 12, 40, 120, 300):
        s = random_support(n, rng.randrange(2**31))
        portmaps = random_portmaps(s, rng.randrange(2**31))
        for conflict_prob in (0.0, 0.25, 1.0):
            cfg = random_registers(s, rng.randrange(2**31), conflict_prob, portmaps)
            configs += [cfg, run(cfg, RandomSequential(rng.randrange(2**31))).config]
        configs.append(erosion_orientation(s, portmaps))
    verdicts = set()
    for cfg in configs:
        number = cfg.support.number
        expected = sorted(number[p] for p in violating_particles(cfg))
        assert violating_cells(cfg) == expected, cfg.serialize()
        assert cfg.masks.count(0) == len(sinks(cfg))
        verdicts.add(bool(expected))
    assert verdicts == {False, True}


def test_run_refuses_an_unknown_scheduler_kind():
    cfg = random_registers(hexagon(1), 1)
    for kind, name in ((None, "NoneType"), ("random", "str"), (RandomSequential, "type")):
        with pytest.raises(TypeError, match=f"^unknown scheduler kind {name}$"):
            run(cfg, kind)


def test_run_results_store_masks_that_match_their_registers(monkeypatch):
    """Final, capped and failing configurations of every scheduler kind."""
    rng = random.Random(29)
    s = random_support(25, rng.randrange(2**31))
    cfg = random_registers(s, rng.randrange(2**31), 0.3, random_portmaps(s, rng.randrange(2**31)))
    script = Scripted(tuple(reversed(s.order)))
    for kind in (RandomSequential(rng.randrange(2**31)), RoundRobin(), script):
        for cap in (0, 7, 10**4):
            res = run(cfg, kind, max_steps=cap, check_invariants=True)
            assert res.outcome is (Outcome.CAP_EXCEEDED if cap < 10 else Outcome.FINAL)
            assert_masks_match_regs(res.config)
            assert res.config.support is cfg.support and res.config.portmaps is cfg.portmaps
    monkeypatch.setattr(scheduler, "_set", _SkipLine2Once(s.present, 1))
    with pytest.raises(StepInvariantError) as got:
        run(cfg, RandomSequential(3), check_invariants=True)
    assert_masks_match_regs(got.value.config)


class _SkipLine2Once:
    """``scheduler._set`` that skips line 2 on one activation.

    ``run`` keeps each cell's next mask and applies it
    with one ``_set`` call per activation that changes the register,
    which under a random scheduler is every activation.  On the first
    activation numbered ``start`` or later at which line 2 fires, this
    wrapper writes the mask line 1 left instead.
    """

    def __init__(self, present, start: int):
        self.present = present
        self.start = start
        self.activations = 0
        self.skipped_at = None

    def __call__(self, ci, after, mine, theirs, around):
        self.activations += 1
        line1_mask = self.present[ci] & ~theirs[ci]
        if after != line1_mask and self.skipped_at is None and self.activations >= self.start:
            self.skipped_at = self.activations
            after = line1_mask
        _set(ci, after, mine, theirs, around)


class _ActivationStepSkippingLine2Once:
    """``activation_step`` that skips line 2 on one activation, as above."""

    def __init__(self, start: int):
        self.start = start
        self.activations = 0
        self.skipped_at = None

    def __call__(self, c, p):
        new, effect = activation_step(c, p)
        self.activations += 1
        if not effect.line2_fired or self.skipped_at is not None or self.activations < self.start:
            return new, effect
        self.skipped_at = self.activations
        pm = c.portmaps[p]
        reg = []
        for port in range(N_DIRS):
            n = neighbor(p, port_to_dir(pm, port))
            line1_out = n in c.support.cells and c.link_toward(n, p) is IN
            reg.append(OUT if line1_out else IN)
        reg = tuple(reg)
        changed = reg != c.regs[p]
        effect = ActivationEffect(changed, effect.line1_fired, False, effect.conflicts_resolved)
        return (c.with_register(p, reg) if changed else c), effect


def test_step_invariant_error_carries_the_failing_step_configuration(monkeypatch):
    rng = random.Random(53)
    s = random_support(14, rng.randrange(2**31))
    cfg = random_registers(s, rng.randrange(2**31), 0.2, random_portmaps(s, rng.randrange(2**31)))
    kind = RandomSequential(rng.randrange(2**31))
    start = 6

    fire = _SkipLine2Once(s.present, start)
    monkeypatch.setattr(scheduler, "_set", fire)
    with pytest.raises(StepInvariantError) as got:
        run(cfg, kind, check_invariants=True)
    monkeypatch.undo()

    step = _ActivationStepSkippingLine2Once(start)
    monkeypatch.setattr(reference, "activation_step", step)
    with pytest.raises(StepInvariantError) as want:
        reference_run(cfg, kind, check_invariants=True)

    assert fire.skipped_at is not None and fire.skipped_at == step.skipped_at
    assert f"step {fire.skipped_at}:" in str(got.value)
    assert got.value.config == want.value.config
    assert got.value.config != cfg


def test_final_check_raises_on_a_final_state_that_is_not_valid_single_sink(monkeypatch):
    """The end-of-run check raises with the final configuration attached: on a
    directed 6-cycle around a hole (final and valid, but without a sink), and,
    with a ``RULE`` that sends every particle In, on the all-In start: final
    under that rule, and invalid."""
    ring = [neighbor(Cell(0, 0), d) for d in range(N_DIRS)]
    cycle = all_in_configuration(Support(ring))
    for a, b in zip(ring, ring[1:] + ring[:1]):
        reg = list(cycle.regs[a])
        reg[cycle.port_of(a, b)] = OUT
        cycle = cycle.with_register(a, tuple(reg))
    assert is_valid(cycle) and not sinks(cycle) and detect_final(cycle)
    with pytest.raises(StepInvariantError, match="final configuration is not a valid") as got:
        run(cycle, RoundRobin(), check_invariants=True)
    assert got.value.config == cycle

    s = random_support(9, 4)
    cfg = all_in_configuration(s, random_portmaps(s, 6))
    assert not is_valid(cfg) and not detect_final(cfg)
    monkeypatch.setattr(scheduler, "RULE", (None,) * len(scheduler.RULE))
    assert run(cfg, RandomSequential(0)).steps == 0
    with pytest.raises(StepInvariantError, match="final configuration is not a valid") as got:
        run(cfg, RandomSequential(0), check_invariants=True)
    assert got.value.config == cfg
    monkeypatch.undo()
    valid = erosion_orientation(s)
    assert run(valid, RandomSequential(0), check_invariants=True).config == valid
