import itertools
import random

import pytest

from trielect.lattice import ALL_PORTMAPS, Cell, N_DIRS, direction_from, neighbor, neighbors
from trielect.config import (
    IN,
    OUT,
    REGISTER,
    Configuration,
    EdgeOrientation,
    all_in_configuration,
)
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    random_portmaps,
    random_registers,
    random_support,
)
from trielect.rules import (
    RULE,
    check_r1,
    check_r2,
    check_r3,
    check_r4,
    is_valid,
    rule_report,
    sinks,
    violating_particles,
    _consecutive_cyclic,
)

from trielect.views import build_view, in_view, infer_triangle_labels, local_check_r4

from reference import (
    CellRegisters,
    arithmetic_port_to_dir,
    brute_sinks,
    coordinate_check_r1,
    coordinate_check_r2,
    coordinate_check_r3,
    coordinate_check_r4,
    coordinate_in_view,
    coordinate_local_check_r4,
    coordinate_orientation,
    coordinate_outgoing_ports,
    coordinate_port_of,
    formula_queries,
    remove_particle,
    triangles_at,
)


def set_ports(cfg, cell, *ports, state=OUT):
    reg = list(CellRegisters(cfg)[cell])
    for p in ports:
        reg[p] = state
    return cfg.with_register(cell, tuple(reg))


def directed_triangle(tri, reverse=False):
    """p->q->r->p over the lone triangle (identity port maps)."""
    cfg = all_in_configuration(tri)
    p, q, r = Cell(0, 0), Cell(1, 0), Cell(0, 1)
    edges = [(p, q), (q, r), (r, p)]
    if reverse:
        edges = [(b, a) for a, b in edges]
    for a, b in edges:
        cfg = set_ports(cfg, a, cfg.port_of(a, b))
    return cfg


def test_r1(tri):
    cfg = all_in_configuration(tri)
    p, q = Cell(0, 0), Cell(1, 0)
    assert not check_r1(cfg, p)  # undirected edges
    directed = directed_triangle(tri)
    for c in tri:
        assert check_r1(directed, c)
    conflict = set_ports(set_ports(cfg, p, cfg.port_of(p, q)), q, cfg.port_of(q, p))
    assert not check_r1(conflict, p)
    assert not check_r1(conflict, q)


def test_r2(hex1):
    cfg = all_in_configuration(hex1)
    z = Cell(0, 0)
    assert check_r2(cfg, z)
    assert check_r2(set_ports(cfg, z, 0, 1, 2), z)
    assert not check_r2(set_ports(cfg, z, 0, 1, 2, 3), z)


def test_r3(hex1):
    cfg = all_in_configuration(hex1)
    z = Cell(0, 0)
    assert check_r3(cfg, z)  # empty arc passes
    assert check_r3(set_ports(cfg, z, 1, 2, 3), z)
    assert check_r3(set_ports(cfg, z, 5, 0), z)  # wraps
    assert not check_r3(set_ports(cfg, z, 0, 3), z)


def test_consecutive_cyclic_helper():
    assert _consecutive_cyclic(())
    assert _consecutive_cyclic((4,))
    assert _consecutive_cyclic((5, 0, 1))
    assert not _consecutive_cyclic((0, 2))
    assert _consecutive_cyclic(tuple(range(6)))


def test_r4(tri):
    cyc = directed_triangle(tri)
    for c in tri:
        assert not check_r4(cyc, c)
    cfg = all_in_configuration(tri)
    p, q, r = Cell(0, 0), Cell(1, 0), Cell(0, 1)
    acyclic = set_ports(cfg, p, cfg.port_of(p, q), cfg.port_of(p, r))
    acyclic = set_ports(acyclic, q, acyclic.port_of(q, r))
    for c in tri:
        assert check_r4(acyclic, c)
    # one undirected edge cannot close a cycle
    partial = set_ports(cfg, p, cfg.port_of(p, q))
    partial = set_ports(partial, q, partial.port_of(q, r))
    for c in tri:
        assert check_r4(partial, c)


def test_rule_admits_only_masks_of_charge_zero_but_the_sink():
    """The local charge lemma behind unique sink: at every Out mask ``m``
    that ``RULE`` admits, read as stored, ``1 - |m| + |m & rot(m)|`` is 1
    when ``m`` is 0 and 0 otherwise.  ``rot`` shifts by one direction, so
    the last term counts the triangles at the cell that it is Out on both
    near edges of: Out points only at occupied cells, and neighbours in
    consecutive directions are adjacent.  Summed over a valid orientation,
    the charges give the sink count V - E + T."""
    for m in range(1 << N_DIRS):
        if RULE[m] is None:
            continue
        rot = (m << 1 | m >> N_DIRS - 1) & (1 << N_DIRS) - 1
        charge = 1 - m.bit_count() + (m & rot).bit_count()
        assert charge == (m == 0), f"Out mask {m:06b} has charge {charge}"


def test_sinks(tri, hex1):
    single = all_in_configuration(random_support(1, 0))
    assert sinks(single) == frozenset({Cell(0, 0)})
    allin = all_in_configuration(tri)
    assert sinks(allin) == tri.cells
    ero = erosion_orientation(hex1)
    assert len(sinks(ero)) == 1


def test_sinks_match_reference_on_random_configs():
    rng = random.Random(99)
    for _ in range(40):
        s = random_support(rng.randint(2, 12), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.2,
                               random_portmaps(s, rng.randrange(10**9)))
        assert set(sinks(cfg)) == brute_sinks(cfg)


def test_is_valid_and_report(tri, hex1):
    ero = erosion_orientation(hex1)
    assert is_valid(ero)
    rep = rule_report(ero)
    assert rep.valid and len(rep.sinks) == 1 and not rep.violating
    assert len(rep.to_records()) == 7
    assert rep.to_text().startswith("valid=yes sinks=1")

    cyc = directed_triangle(tri)
    assert not is_valid(cyc)
    assert violating_particles(cyc) == tri.cells
    bad = rule_report(cyc)
    assert not bad.valid
    assert "FAIL" in bad.to_text()


def test_rule_table_matches_reference_at_hexagon_centre(hex1):
    """``RULE`` against ``check_r2/3/4`` at the centre of ``hexagon(1)``
    under random port maps.  The centre is Out on each of the 64 masks,
    each ring cell is Out toward it or not at random, so a spoke may be a
    conflict or undirected, and the six ring edges take every orientation.  R2 and R3 hold iff the entry is not None; R4
    fails iff a triple closes: both near edges directed, x Out on the far
    edge and the other corner not Out back.  Each triple names a triangle:
    its near edges lead to x and to the corner ``bit`` points x at."""
    rng = random.Random(17)
    z = Cell(0, 0)
    cz = hex1.number[z]
    ring = hex1.around[cz]
    directed = (EdgeOrientation.A_TO_B, EdgeOrientation.B_TO_A)
    seen = {"broken": 0, "open": 0, "closed": 0}
    for m in range(1 << N_DIRS):
        for ring_code in range(1 << N_DIRS):
            masks = [0] * len(hex1)
            masks[cz] = m
            for d, cj in enumerate(ring):
                if rng.random() < 0.5:
                    masks[cj] |= 1 << (d + 3) % N_DIRS
                # Ring edge d joins the cells at d and d + 1, at d + 2 from the first.
                if ring_code >> d & 1:
                    masks[cj] |= 1 << (d + 2) % N_DIRS
                else:
                    masks[ring[(d + 1) % N_DIRS]] |= 1 << (d + 5) % N_DIRS
            pms = random_portmaps(hex1, rng.randrange(2**31))
            regs = {c: REGISTER[pm][mask] for c, pm, mask in zip(hex1.order, pms, masks)}
            cfg = Configuration(hex1, pms, regs)
            entry = RULE[m]
            assert (entry is None) == (not (check_r2(cfg, z) and check_r3(cfg, z))), m
            if entry is None:
                seen["broken"] += 1
                continue
            closes = False
            for x_dir, bit, near in entry:
                x = neighbor(z, x_dir)
                y = neighbor(x, bit.bit_length() - 1)
                corners = [neighbor(z, d) for d in range(N_DIRS) if near >> d & 1]
                assert sorted(corners) == sorted([x, y]), (m, x_dir)
                near_directed = all(cfg.orientation(z, c) in directed for c in corners)
                closes |= near_directed and cfg.orientation(x, y) is EdgeOrientation.A_TO_B
            assert check_r4(cfg, z) == (not closes), (m, ring_code)
            seen["closed" if closes else "open"] += 1
    assert all(seen.values()), seen


def test_r2_r3_depend_only_on_own_register():
    rng = random.Random(5)
    for _ in range(30):
        s = random_support(rng.randint(3, 9), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.2)
        p = rng.choice(sorted(s.cells))
        before = (check_r2(cfg, p), check_r3(cfg, p))
        other = rng.choice([c for c in s.cells if c != p])
        mutated = random_registers(s, rng.randrange(10**9), 0.2)
        cfg2 = cfg.with_register(other, CellRegisters(mutated)[other])
        assert (check_r2(cfg2, p), check_r3(cfg2, p)) == before


def _arc_ends(outs):
    """(low end, high end) of a cyclically contiguous nonempty port set."""
    present = set(outs)
    start = next(p for p in present if (p - 1) % 6 not in present)
    return start, (start + len(present) - 1) % 6


def test_observation_rule_consecutive_flips():
    # Growing or shrinking the outgoing arc at one of its ends keeps R3.
    from trielect.lattice import neighbor, port_to_dir

    rng = random.Random(31)
    checked = 0
    while checked < 200:
        s = random_support(rng.randint(3, 10), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.0)
        for p in s:
            outs = cfg.outgoing_ports(p)
            if not outs or len(outs) == 6 or not check_r3(cfg, p):
                continue
            lo, hi = _arc_ends(outs)
            for flip in ((lo - 1) % 6, (hi + 1) % 6):
                target = neighbor(p, port_to_dir(cfg.portmaps[s.number[p]], flip))
                if target in s.cells and flip not in outs:
                    assert check_r3(set_ports(cfg, p, flip), p)
                    checked += 1
            for end in {lo, hi}:
                assert check_r3(set_ports(cfg, p, end, state=IN), p)
                checked += 1


def test_observation_remove_particle_preserves_r124():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        s = random_support(rng.randint(3, 10), rng.randrange(10**9))
        cfg = random_registers(s, rng.randrange(10**9), 0.15,
                               random_portmaps(s, rng.randrange(10**9)))
        removable = sorted(s.cells - s.articulation_points())
        p = rng.choice(removable)
        if len(s) == 1:
            continue
        smaller = remove_particle(cfg, p)
        for q in smaller.support:
            if check_r1(cfg, q):
                assert check_r1(smaller, q)
            if check_r2(cfg, q):
                assert check_r2(smaller, q)
            if check_r4(cfg, q):
                assert check_r4(smaller, q)
            checked += 1


# -- the numbered readers against the coordinate readers ---------------------------


def _assert_view_readers_agree(cfg, every_walk):
    """``in_view`` and ``infer_triangle_labels`` on every formula question;
    with ``every_walk``, also on every label of view_4, and on every label
    of view_3 with one step's exit or entry port replaced by each of -1..6."""
    for p in cfg.support:
        labels = []
        for q, r in triangles_at(cfg, p):
            labels += formula_queries(cfg, p, q, r)
            assert infer_triangle_labels(cfg, p, q, r) == (
                coordinate_port_of(cfg, q, r), coordinate_port_of(cfg, r, q))
        if every_walk:
            labels += build_view(cfg, p, 4).labels
            for label in build_view(cfg, p, 3).labels:
                for i, (exit_port, entry_port) in enumerate(label):
                    for port in range(-1, N_DIRS + 1):
                        labels.append(label[:i] + ((port, entry_port),) + label[i + 1:])
                        labels.append(label[:i] + ((exit_port, port),) + label[i + 1:])
        for label in labels:
            assert in_view(cfg, p, label) == coordinate_in_view(cfg, p, label), (p, label)


def _assert_rule_readers_agree(cfg):
    """R1-R4, local R4, sinks and the edge readers at every particle."""
    cells = cfg.support.cells
    for p in cfg.support:
        numbered = (check_r1(cfg, p), check_r2(cfg, p), check_r3(cfg, p), check_r4(cfg, p),
                    local_check_r4(cfg, p), cfg.outgoing_ports(p))
        coordinate = (coordinate_check_r1(cfg, p), coordinate_check_r2(cfg, p),
                      coordinate_check_r3(cfg, p), coordinate_check_r4(cfg, p),
                      coordinate_local_check_r4(cfg, p), coordinate_outgoing_ports(cfg, p))
        assert numbered == coordinate, p
        for n in neighbors(p):
            assert cfg.port_of(p, n) == coordinate_port_of(cfg, p, n)
            if n in cells:
                assert cfg.orientation(p, n) is coordinate_orientation(cfg, p, n)
    assert sinks(cfg) == {p for p in cfg.support if not coordinate_outgoing_ports(cfg, p)}


def _states(s, codes, portmaps):
    """The configuration whose edge ``k`` (in ``Support.edges`` order) has
    code ``codes[k]``: bit 0 Out at its lower cell, bit 1 Out at its higher."""
    masks = dict.fromkeys(s, 0)
    for (a, b), code in zip(s.edges(), codes):
        d = direction_from(a, b)
        if code & 1:
            masks[a] |= 1 << d
        if code & 2:
            masks[b] |= 1 << (d + 3) % N_DIRS
    regs = {
        c: tuple(OUT if masks[c] >> arithmetic_port_to_dir(portmaps[s.number[c]], port) & 1 else IN
                 for port in range(N_DIRS))
        for c in s
    }
    return Configuration(s, portmaps, regs)


def _covering_portmaps(s, rng):
    """Twelve port-map assignments; each cell meets all twelve maps once."""
    draws = [rng.sample(ALL_PORTMAPS, len(ALL_PORTMAPS)) for _ in s.order]
    return [tuple(drawn[t] for drawn in draws) for t in range(len(ALL_PORTMAPS))]


def test_numbered_readers_match_coordinate_readers_on_every_small_state():
    """Every support of at most three cells, all 4^E states, under twelve
    seeded port-map assignments that show every cell all twelve maps."""
    rng = random.Random(2024)
    states = 0
    for n in (1, 2, 3):
        for s in enumerate_supports(n):
            for portmaps in _covering_portmaps(s, rng):
                # Views read port maps only, so one state per assignment does.
                _assert_view_readers_agree(_states(s, (0,) * len(s.edges()), portmaps),
                                           every_walk=True)
                for codes in itertools.product(range(4), repeat=len(s.edges())):
                    _assert_rule_readers_agree(_states(s, codes, portmaps))
                    states += 1
    assert states == 12 * (1 + 3 * 4 + 9 * 16 + 2 * 64)


def test_numbered_readers_match_coordinate_readers_on_four_cell_supports():
    """A seeded sample of 48 states on each of the 44 four-cell supports,
    each state under a fresh random port-map assignment; every walk of the
    view on two of them."""
    rng = random.Random(4)
    supports = enumerate_supports(4)
    assert len(supports) == 44
    for s in supports:
        edges = len(s.edges())
        for i in range(48):
            portmaps = tuple(rng.choice(ALL_PORTMAPS) for _ in s.order)
            cfg = _states(s, [rng.randrange(4) for _ in range(edges)], portmaps)
            _assert_rule_readers_agree(cfg)
            if i % 24 == 0:
                _assert_view_readers_agree(cfg, every_walk=True)


@pytest.mark.parametrize("n, seed", [(300, 1), (900, 2), (2000, 3)])
def test_numbered_readers_match_coordinate_readers_at_scale(n, seed):
    """Random supports of 300 to 2,000 cells, random port maps, registers
    with conflict probability 0.25."""
    s = random_support(n, seed)
    cfg = random_registers(s, seed + 1, 0.25, random_portmaps(s, seed + 2))
    _assert_rule_readers_agree(cfg)
    _assert_view_readers_agree(cfg, every_walk=False)
    assert not all(check_r4(cfg, p) for p in s), "no triangle closes a cycle"
