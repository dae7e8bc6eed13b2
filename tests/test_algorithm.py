import random

import pytest

from trielect import views
from trielect.lattice import Cell, N_DIRS
from trielect.algorithm import activation_step, is_activable, step_register
from trielect.config import Configuration, EdgeOrientation, IN, OUT, all_in_configuration
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    line,
    random_portmaps,
    random_registers,
    random_support,
)
from trielect.oracle import ConfigGraph
from trielect.rules import check_r2, check_r3, check_r4
from trielect.scheduler import Scripted, run
from trielect.support import Support

from reference import CellRegisters, resolve_conflicts


def set_ports(cfg, cell, *ports, state=OUT):
    reg = list(CellRegisters(cfg)[cell])
    for p in ports:
        reg[p] = state
    return cfg.with_register(cell, tuple(reg))


def random_config(rng, n_lo=2, n_hi=10, conflict=0.2):
    s = random_support(rng.randint(n_lo, n_hi), rng.randrange(10**9))
    return random_registers(
        s, rng.randrange(10**9), conflict, random_portmaps(s, rng.randrange(10**9))
    )


def test_resolve_conflicts_single_edge():
    s = Support([Cell(0, 0), Cell(1, 0)])
    cfg = all_in_configuration(s)
    p, q = Cell(0, 0), Cell(1, 0)
    cfg = set_ports(cfg, p, cfg.port_of(p, q))
    cfg = set_ports(cfg, q, cfg.port_of(q, p))
    assert cfg.orientation(p, q) is EdgeOrientation.CONFLICT
    resolved = resolve_conflicts(cfg, p)
    assert resolved.orientation(p, q) is EdgeOrientation.B_TO_A  # q's Out stands
    assert resolve_conflicts(resolved, p) == resolved  # identity without conflicts


def test_resolve_conflicts_two_edges(tri):
    cfg = all_in_configuration(tri)
    p, q, r = Cell(0, 0), Cell(1, 0), Cell(0, 1)
    cfg = set_ports(cfg, p, cfg.port_of(p, q), cfg.port_of(p, r))
    cfg = set_ports(cfg, q, cfg.port_of(q, p))
    cfg = set_ports(cfg, r, cfg.port_of(r, p))
    assert cfg.orientation(p, q) is EdgeOrientation.CONFLICT
    assert cfg.orientation(p, r) is EdgeOrientation.CONFLICT
    resolved = resolve_conflicts(cfg, p)
    assert resolved.orientation(p, q) is EdgeOrientation.B_TO_A
    assert resolved.orientation(p, r) is EdgeOrientation.B_TO_A


def test_line1_orients_single_undirected():
    s = Support([Cell(0, 0), Cell(1, 0)])
    cfg = all_in_configuration(s)
    p = Cell(0, 0)
    after, effect = activation_step(cfg, p)
    assert effect.changed and effect.line1_fired and not effect.line2_fired
    assert after.orientation(p, Cell(1, 0)) is EdgeOrientation.A_TO_B


def test_line2_clears_directed_triangle(tri):
    cfg = all_in_configuration(tri)
    p, q, r = Cell(0, 0), Cell(1, 0), Cell(0, 1)
    cfg = set_ports(cfg, q, cfg.port_of(q, r))
    cfg = set_ports(cfg, r, cfg.port_of(r, p))
    cfg = set_ports(cfg, p, cfg.port_of(p, q))
    # directed 3-cycle; R1 holds at p, line 2 must fire alone
    after, effect = activation_step(cfg, p)
    assert effect.changed and not effect.line1_fired and effect.line2_fired
    assert after.outgoing_ports(p) == ()
    assert after.orientation(p, q) is EdgeOrientation.UNDIRECTED


def test_net_identity_step_is_not_activable():
    # Four undirected edges at non-consecutive ports: line 1 fires, rule
    # check fails, line 2 reverts; the register round-trips exactly.
    s = Support([Cell(0, 0), Cell(1, 0), Cell(-1, 0), Cell(0, 1), Cell(0, -1)])
    cfg = all_in_configuration(s)
    center = Cell(0, 0)
    reg, effect = step_register(cfg, center)
    assert reg == CellRegisters(cfg)[center]
    assert effect.line1_fired and effect.line2_fired and not effect.changed
    assert not is_activable(cfg, center)


def test_valid_configuration_has_no_activable_particle(hex1):
    cfg = erosion_orientation(hex1)
    for p in hex1:
        assert not is_activable(cfg, p)


def test_out_plus_undirected_is_activable():
    s = Support([Cell(0, 0), Cell(1, 0), Cell(-1, 0)])
    cfg = all_in_configuration(s)
    p = Cell(0, 0)
    cfg = set_ports(cfg, p, cfg.port_of(p, Cell(1, 0)))
    assert cfg.orientation(p, Cell(-1, 0)) is EdgeOrientation.UNDIRECTED
    assert is_activable(cfg, p)


def test_single_particle_never_activable():
    cfg = all_in_configuration(random_support(1, 0))
    assert not is_activable(cfg, Cell(0, 0))


def test_post_activation_rules_hold():
    rng = random.Random(1234)
    for _ in range(200):
        cfg = random_config(rng)
        p = rng.choice(sorted(cfg.support.cells))
        after, _ = activation_step(cfg, p)
        assert check_r2(after, p) and check_r3(after, p) and check_r4(after, p)


def test_step_dichotomy():
    # Relative to the post-conflict state, a changing step either turns
    # every undirected edge outgoing or every outgoing edge undirected.
    rng = random.Random(4321)
    for _ in range(300):
        cfg = random_config(rng)
        p = rng.choice(sorted(cfg.support.cells))
        pre = resolve_conflicts(cfg, p)
        after, effect = activation_step(cfg, p)
        if CellRegisters(after)[p] == CellRegisters(pre)[p]:
            continue
        nbs = pre.support.occupied_neighbors(p)
        pre_undirected = [
            n for n in nbs if pre.orientation(p, n) is EdgeOrientation.UNDIRECTED
        ]
        pre_out = [n for n in nbs if pre.orientation(p, n) is EdgeOrientation.A_TO_B]
        all_oriented = all(
            after.orientation(p, n) is EdgeOrientation.A_TO_B for n in pre_undirected
        ) and all(
            after.orientation(p, n) is EdgeOrientation.A_TO_B for n in pre_out
        )
        all_cleared = after.outgoing_ports(p) == ()
        assert all_oriented != all_cleared  # exactly one of the two outcomes


def test_only_own_register_changes():
    rng = random.Random(777)
    for _ in range(100):
        cfg = random_config(rng)
        p = rng.choice(sorted(cfg.support.cells))
        after, _ = activation_step(cfg, p)
        for q in cfg.support:
            if q != p:
                assert CellRegisters(after)[q] == CellRegisters(cfg)[q]


def test_locality_far_cells_do_not_matter():
    rng = random.Random(2718)
    tried = 0
    while tried < 60:
        cfg = random_config(rng, n_lo=6, n_hi=14)
        cells = sorted(cfg.support.cells)
        p = rng.choice(cells)
        near = {p, *cfg.support.occupied_neighbors(p)}
        far = [c for c in cells if c not in near]
        if not far:
            continue
        other = random_registers(
            cfg.support, rng.randrange(10**9), 0.2, cfg.portmaps
        )
        mutated = cfg
        for f in far:
            mutated = mutated.with_register(f, CellRegisters(other)[f])
        a, ea = step_register(cfg, p)
        b, eb = step_register(mutated, p)
        assert a == b and ea == eb
        tried += 1


def test_activation_rejects_unoccupied(tri):
    with pytest.raises(ValueError):
        activation_step(all_in_configuration(tri), Cell(5, 5))


def test_synchronous_daemon_loops_on_two_cells():
    """Every cell of line(2) activated at once, each reading the same
    configuration, goes In/In -> Out/Out -> In/In: the synchronous daemon
    is back at its start after two rounds and never converges."""
    cfg = all_in_configuration(line(2))
    a, b = cfg.support.order
    seen = [cfg.orientation(a, b)]
    for _ in range(2):
        cfg = cfg.with_registers({p: step_register(cfg, p)[0] for p in cfg.support})
        seen.append(cfg.orientation(a, b))
    assert seen == [EdgeOrientation.UNDIRECTED, EdgeOrientation.CONFLICT, EdgeOrientation.UNDIRECTED]
    assert cfg == all_in_configuration(line(2))


def test_reference_step_builds_no_configuration(monkeypatch):
    """``step_register`` tests its trial register in place: ``is_activable``
    runs with every way to build a configuration refused, at every cell of
    a seeded 300-cell configuration and of every 4^E state of every support
    with n <= 4."""
    rng = random.Random(37)
    configs = []
    for n in range(1, 5):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            portmaps = random_portmaps(s, rng.randrange(2**31))
            configs += [graph.unpack(state, portmaps) for state in range(1 << 2 * graph.n_edges)]
    s = random_support(300, rng.randrange(2**31))
    configs.append(random_registers(s, rng.randrange(2**31), 0.25, random_portmaps(s, rng.randrange(2**31))))

    def refuse(*args, **kwargs):
        raise AssertionError("the reference step built a configuration")

    monkeypatch.setattr(Configuration, "_of", refuse)
    monkeypatch.setattr(Configuration, "with_registers", refuse)
    verdicts = {is_activable(cfg, p) for cfg in configs for p in cfg.support}
    assert verdicts == {False, True}


def test_step_follows_the_particles_view(monkeypatch):
    """``step_register`` decides line 2's R4 from the particle's view, not
    omnisciently: with ``views._candidates`` answering the other value of
    q's port toward r, the step disagrees with the engine's one-step run,
    which reads the stored masks, on some state of a support with n <= 4
    under random port maps."""
    real = views._candidates

    def other(step, i, pm, p0, p1, q, r):
        q1 = q[2]
        return [((2 * q1 - x) % N_DIRS, y) for x, y in real(step, i, pm, p0, p1, q, r)]

    monkeypatch.setattr(views, "_candidates", other)
    rng = random.Random(41)
    disagreements = 0
    for n in (3, 4):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            portmaps = random_portmaps(s, rng.randrange(2**31))
            for state in range(1 << 2 * graph.n_edges):
                cfg = graph.unpack(state, portmaps)
                for p in s.order:
                    reg, _ = step_register(cfg, p)
                    engine = run(cfg, Scripted((p,)), max_steps=1).config
                    disagreements += CellRegisters(engine)[p] != reg
    assert disagreements
