import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from trielect.lattice import CYCLIC_RUN, N_DIRS, Cell, neighbors
from trielect.config import ALL_IN, EdgeOrientation, OUT
from trielect.generators import (
    _GROWTH,
    _SHAPE,
    ErosionError,
    _erode,
    enumerate_supports,
    erosion_order,
    erosion_orientation,
    hexagon,
    line,
    parallelogram,
    random_portmaps,
    random_registers,
    random_support,
    ring18,
    ring18_cells,
    shape_by_name,
    triangle3,
)
from trielect.rules import is_valid, sinks
from trielect.scheduler import RandomSequential, run
from trielect.support import (
    KeyFrame,
    Support,
    SupportError,
    format_shape_text,
    symmetry_canonical_keys,
)

from reference import (
    CellRegisters,
    are_adjacent,
    canonical_cells,
    empty_component_count,
    globally_acyclic,
    neighbor_mask_random_support,
    randrange_random_register_masks,
    reference_enumerate_supports,
    reference_erosion_order,
    reference_random_portmaps,
    reference_random_support,
    reference_random_support_prefixes,
    rescan_erode,
    rooted_growth_shapes,
    simply_connected_shape_count,
    symmetry_canonical_cells,
)

# Values computed by the rooted-growth oracle in reference.py (n <= 6) and by
# the enumerator itself (n = 7, 8).  With the fixed supports that have a hole,
# 1, 12 and 99 at n = 6, 7 and 8, they give the fixed polyhex counts of OEIS
# A001207: 814, 3,652 and 16,689.
SIMPLY_CONNECTED_COUNTS = {1: 1, 2: 3, 3: 11, 4: 44, 5: 186, 6: 813, 7: 3640, 8: 16590}


def test_enumerate_counts_frozen():
    for n, expected in SIMPLY_CONNECTED_COUNTS.items():
        assert len(enumerate_supports(n)) == expected


def test_enumerate_matches_independent_oracle_counts():
    for n in range(1, 6):
        assert len(enumerate_supports(n)) == simply_connected_shape_count(n)


def test_enumerate_matches_independent_oracle_shapes():
    for n in range(1, 6):
        ours = {canonical_cells(s.cells) for s in enumerate_supports(n)}
        theirs = {
            canonical_cells(shape)
            for shape in rooted_growth_shapes(n)
            if empty_component_count(shape) == 0
        }
        assert ours == theirs


def test_enumerate_no_duplicates_and_all_simply_connected():
    for n in (4, 5):
        sup = enumerate_supports(n)
        keys = {canonical_cells(s.cells) for s in sup}
        assert len(keys) == len(sup)
        assert all(s.is_simply_connected() for s in sup)


def test_enumerate_symmetry_reduction():
    # Distinct shapes under the full 12-element symmetry group.
    expected = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 81, 7: 331, 8: 1435}
    for n, count in expected.items():
        assert len(enumerate_supports(n, canonical="symmetry")) == count


@pytest.mark.parametrize("canonical", ["translation", "symmetry"])
def test_enumerate_matches_cell_tuple_reference(canonical):
    """The key enumeration lists the same supports in the same order as the
    ``Cell``-tuple enumeration it replaced."""
    for n in range(1, 8):
        ours = [s.order for s in enumerate_supports(n, canonical)]
        assert ours == [s.order for s in reference_enumerate_supports(n, canonical)], n


def test_symmetry_canonical_keys_match_cells():
    """On the keys of a canonical translate, ``symmetry_canonical_keys`` is
    the rotation reference ``symmetry_canonical_cells``, for seeded random
    supports of up to 80 cells."""
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 81)
        cells = canonical_cells(random_support(n, rng.randrange(2**31)).cells)
        frame = KeyFrame.centred(n)
        keys = symmetry_canonical_keys([frame.key(q, r) for q, r in cells], frame)
        expected = symmetry_canonical_cells(cells)
        assert Support._from_keys(list(keys), frame).order == expected


def test_random_support_properties():
    for seed in range(10):
        s = random_support(12, seed)
        assert len(s) == 12
        assert s.is_simply_connected()
    assert random_support(8, 5).cells == random_support(8, 5).cells
    assert len(random_support(1, 0)) == 1


def test_random_support_matches_flood_fill_grower():
    # One seed draws the same cells whatever n is, so a single flood-fill
    # growth gives the reference for every n at once.
    for seed in range(16):
        for n, cells in enumerate(reference_random_support_prefixes(40, seed), start=1):
            assert random_support(n, seed).cells == cells
    *_, cells = reference_random_support_prefixes(150, 11)
    assert random_support(150, 11).cells == cells


def test_flood_fill_prefixes_are_flood_fill_grown_supports():
    prefixes = list(reference_random_support_prefixes(30, 13))
    assert len(prefixes) == 30
    for n in (1, 2, 12, 30):
        assert prefixes[n - 1] == reference_random_support(n, 13).cells


def test_random_support_matches_neighbor_mask_grower_at_scale():
    for n, seed in ((10_000, 0), (20_000, 3)):
        assert random_support(n, seed).cells == neighbor_mask_random_support(n, seed).cells


def _growth_law(n):
    """Exact law of ``random_support(n, ·)`` up to translation, as canonical
    cell tuples: each step adds a uniform cell of the growable frontier,
    read off the flood fill."""
    law = {frozenset({Cell(0, 0)}): Fraction(1)}
    for _ in range(n - 1):
        grown = Counter()
        for cells, p in law.items():
            frontier = {nb for c in cells for nb in neighbors(c) if nb not in cells}
            growable = [nb for nb in frontier if empty_component_count(cells | {nb}) == 0]
            for nb in growable:
                grown[cells | {nb}] += p / len(growable)
        law = grown
    shapes = Counter()
    for cells, p in law.items():
        shapes[canonical_cells(cells)] += p
    return shapes


def test_random_support_law_at_four_cells():
    law = _growth_law(4)
    assert len(law) == SIMPLY_CONNECTED_COUNTS[4] and sum(law.values()) == 1
    trials = 20_000
    seen = Counter(canonical_cells(random_support(4, seed).cells) for seed in range(trials))
    assert set(seen) <= set(law)
    chi2 = sum((seen[k] - trials * p) ** 2 / (trials * p) for k, p in law.items())
    # 86.5 is the 0.9999 quantile of chi-square with 43 degrees of freedom.
    assert chi2 < 86.5, float(chi2)


def test_growth_table_matches_cyclic_run_branches():
    """``_GROWTH[d][old]`` gives the mask and the move the branches on
    ``CYCLIC_RUN`` gave, for every mask and direction: a rim cell is
    listed iff its mask is a nonempty run."""
    for d in range(N_DIRS):
        bit = 1 << (d + 3) % N_DIRS
        for old in range(1 << N_DIRS):
            mask = old | bit
            move = 0
            if CYCLIC_RUN[mask]:
                if not (old and CYCLIC_RUN[old]):
                    move = 1
            elif CYCLIC_RUN[old]:
                move = -1
            assert _GROWTH[d][old] == (mask, move), (d, old)


def test_growth_table_leaves_shape_cells_as_they_are():
    """The extra entry of every direction maps a cell of the shape to
    itself with move 0: a neighbour already grown stays grown and never
    joins or leaves the growable list."""
    assert _SHAPE == 1 << N_DIRS
    for d in range(N_DIRS):
        assert len(_GROWTH[d]) == _SHAPE + 1
        assert _GROWTH[d][_SHAPE] == (_SHAPE, 0), d


def test_erosion_refuses_holed_supports():
    for s in (ring18().support, Support(hexagon(1).cells - {Cell(0, 0)})):
        with pytest.raises(SupportError, match="simply connected"):
            erosion_orientation(s)
        with pytest.raises(SupportError, match="simply connected"):
            erosion_order(s)


def test_random_support_large():
    for seed in (0, 1, 2):
        s = random_support(5000, seed)
        assert len(s) == 5000
        assert s.is_simply_connected()


def test_erosion_order_matches_flood_fill_reference():
    supports = [s for n in range(1, 7) for s in enumerate_supports(n)]
    supports += [random_support(n, seed) for n in (12, 40, 150) for seed in (2, 3)]
    for s in supports:
        assert erosion_order(s) == reference_erosion_order(s)


def test_erode_matches_rescan_erosion():
    supports = [s for n in range(1, 6) for s in enumerate_supports(n)]
    supports += [random_support(n, seed) for n, seed in ((10_000, 1), (20_000, 3))]
    # A parallelogram and the diagonal line, on which no cell but an end is erodible.
    supports += [parallelogram(100, 100), Support([Cell(i, -i) for i in range(2000)])]
    for s in supports:
        assert _erode(s) == rescan_erode(s)


def test_erosion_order_line():
    order = erosion_order(line(3))
    # the middle cell disconnects; it can never go first
    assert order[0] != Cell(1, 0)
    assert set(order) == set(line(3).cells)


def test_erosion_orientation_fixtures(tri, hex1):
    for s in (tri, hex1, line(4), parallelogram(2, 3)):
        cfg = erosion_orientation(s)
        assert is_valid(cfg)
        assert len(sinks(cfg)) == 1
        assert globally_acyclic(cfg)
    last = erosion_order(hex1)[-1]
    assert sinks(erosion_orientation(hex1)) == frozenset({last})


def test_erosion_rejects_holed_support():
    with pytest.raises((SupportError, ErosionError)):
        erosion_orientation(ring18().support)


# sha256 prefixes of seeded outputs: the shape text of random_support(n,
# seed), then the serialised random_registers(s, seed + 1, 0.25, pms) and
# erosion_orientation(s, pms) under pms = random_portmaps(s, seed).  A change
# that moves one of them changes seeded results and has to declare it.
SEEDED_DIGESTS = {
    (20, 1): ("ba9df06b55994ef4", "d919d8c89ad7dda9", "e1ecacfc5dcf613c"),
    (20, 2): ("b4825a85e57082cb", "dd49ea8c794193dc", "6193c8fae3e174e4"),
    (150, 1): ("06a753e14ca296c4", "083865389b6be2f2", "681e917158bf44cc"),
    (150, 2): ("c37cb001e1ea6d47", "0e5d9dce14ee0857", "f871e2afae33af7f"),
    (1000, 1): ("a3b27acbc598c4b2", "f471071a25b99176", "997be558332df59f"),
    (1000, 2): ("7a67eb378786022e", "f10a21409b8f4083", "3587ef95baa392d5"),
}
# The same two configurations on hexagon(18) with seed 5.
HEXAGON18_DIGESTS = ("a1003d9a2dc8b1cc", "b4981fe4434c3948")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _config_digests(s, seed):
    pms = random_portmaps(s, seed)
    return (
        _digest(random_registers(s, seed + 1, 0.25, pms).serialize()),
        _digest(erosion_orientation(s, pms).serialize()),
    )


def test_seeded_generator_outputs_frozen():
    for (n, seed), expected in SEEDED_DIGESTS.items():
        s = random_support(n, seed)
        got = (_digest(format_shape_text(s.cells)),) + _config_digests(s, seed)
        assert got == expected, (n, seed)
    assert _config_digests(hexagon(18), 5) == HEXAGON18_DIGESTS


@pytest.mark.parametrize("n", [1, 7, 300])
def test_random_portmaps_draw_by_cell_number_in_support_order(n):
    """``random_portmaps(s, seed)[i]`` is the map the ``Cell``-keyed draw
    gave ``order[i]``, and every configuration built or stepped from the
    tuple keeps that same object."""
    for seed in range(3):
        s = random_support(n, seed)
        pms = random_portmaps(s, seed + 10)
        assert type(pms) is tuple and len(pms) == n
        expected = reference_random_portmaps(s, seed + 10)
        for i, c in enumerate(s.order):
            assert pms[i] is expected[c]
        cfg = random_registers(s, seed + 1, 0.25, pms)
        assert cfg.portmaps is pms
        assert cfg.with_masks(bytes(n)).portmaps is pms
        assert cfg.with_register(s.order[-1], ALL_IN).portmaps is pms
        assert run(cfg, RandomSequential(seed)).config.portmaps is pms


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 1.0])
def test_draws_match_choice_and_randrange(n, p):
    """The written-out draws pick what ``rng.choice`` and
    ``rng.randrange(3)`` picked."""
    for seed in range(2):
        s = random_support(n, seed)
        pms = random_portmaps(s, seed + 3)
        expected = reference_random_portmaps(s, seed + 3)
        assert all(pm is expected[c] for pm, c in zip(pms, s.order))
        cfg = random_registers(s, seed + 4, p, pms)
        assert cfg.masks == bytes(randrange_random_register_masks(s, seed + 4, p))


def test_random_registers_conflict_probability_zero():
    s = random_support(9, 4)
    cfg = random_registers(s, 11, 0.0)
    for a, b in cfg.support.edges():
        assert cfg.orientation(a, b) is not EdgeOrientation.CONFLICT


def test_random_registers_reproducible():
    s = random_support(9, 4)
    assert random_registers(s, 7, 0.2) == random_registers(s, 7, 0.2)


def test_random_registers_port_statistics():
    # At the default conflict weight every free port is an independent
    # fair coin: expect 50% +- 5% Out over a thousand draws.
    s = hexagon(1)
    edges = s.edges()
    total = 0
    outs = 0
    for seed in range(1000):
        cfg = random_registers(s, seed)
        regs = CellRegisters(cfg)
        for a, b in edges:
            total += 2
            outs += regs[a][cfg.port_of(a, b)] is OUT
            outs += regs[b][cfg.port_of(b, a)] is OUT
    assert abs(outs / total - 0.5) < 0.05


def test_random_registers_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_registers(hexagon(1), 0, 1.5)


def test_fixture_shapes():
    assert len(hexagon(1)) == 7
    assert len(hexagon(2)) == 19
    assert len(parallelogram(2, 3)) == 6
    assert len(line(5)) == 5
    assert len(triangle3()) == 3


def test_ring18_fixture():
    cfg = ring18()
    s = cfg.support
    assert len(s) == 18
    assert not s.is_simply_connected()
    cells = ring18_cells()
    for i, c in enumerate(cells):
        occ = s.occupied_neighbors(c)
        assert set(occ) == {cells[(i - 1) % 18], cells[(i + 1) % 18]}
        assert sorted(cfg.port_of(c, n) for n in occ) == [2, 4]
    # non-consecutive ring cells are never adjacent
    for i in range(18):
        for j in range(i + 2, 18):
            if (i, j) != (0, 17):
                assert not are_adjacent(cells[i], cells[j])


def test_ring18_identical_local_signature():
    cfg = ring18()
    signatures = {
        tuple(sorted(cfg.port_of(c, n) for n in cfg.support.occupied_neighbors(c)))
        for c in cfg.support
    }
    assert signatures == {(2, 4)}


def test_shape_by_name():
    assert shape_by_name("hexagon1").cells == hexagon(1).cells
    assert shape_by_name("line4").cells == line(4).cells
    assert shape_by_name("parallelogram2x3").cells == parallelogram(2, 3).cells
    assert shape_by_name("triangle3").cells == triangle3().cells
    assert len(shape_by_name("ring18")) == 18
    with pytest.raises(ValueError):
        shape_by_name("dodecahedron")
    # Sizes are ASCII digits only: ``int`` would read each of these.
    for name, form in (
        ("hexagon1_0", "hexagonK"),
        ("hexagon-1", "hexagonK"),
        ("line 3", "lineN"),
        ("line+3", "lineN"),
        ("line\u0663", "lineN"),
        ("line3 ", "lineN"),
        ("parallelogram 2x3", "parallelogramWxH"),
        ("parallelogram2x3\n", "parallelogramWxH"),
    ):
        with pytest.raises(ValueError, match=f"^shape name {re.escape(repr(name))} does not match {form}$"):
            shape_by_name(name)


def test_erosion_non_sinks_have_outgoing_edges(hex1):
    cfg = erosion_orientation(hex1)
    sink_set = sinks(cfg)
    for c in hex1:
        if c in sink_set:
            assert cfg.outgoing_ports(c) == ()
        else:
            assert cfg.outgoing_ports(c)
