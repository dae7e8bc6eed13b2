import random
from collections import Counter

import pytest

from trielect import support as support_module
from trielect.lattice import CYCLIC_RUN, Cell, N_DIRS, neighbor, neighbors
from trielect.support import (
    _EULER,
    _is_connected,
    FlatPairWitness,
    KeyFrame,
    PendingWitness,
    SixtyWitness,
    Support,
    SupportError,
    angle_class,
    automorphisms,
    ARTICULATION,
    PENDING,
    boundary_cycle,
    check_angle_census,
    format_shape_text,
    boundary_witness,
    parse_shape_text,
)
from trielect.generators import enumerate_supports, hexagon, parallelogram, random_support, ring18

from reference import (
    canonical_cells,
    empty_component_count,
    enclosed_components,
    flood_connected,
    neighbor_mask,
    reference_boundary_class,
    reference_numbering,
    rooted_growth_shapes,
    symmetry_canonical_cells,
)


def test_constructor_rejects_empty_and_disconnected():
    with pytest.raises(SupportError):
        Support([])
    with pytest.raises(SupportError):
        Support([Cell(0, 0), Cell(2, 0)])
    # Spans narrower than the cell count, so only the flood can tell.
    with pytest.raises(SupportError, match="not connected"):
        Support([Cell(0, 0), Cell(0, 1), Cell(0, 2), Cell(2, 0)])
    # Cells far apart are refused before a frame as wide as their span.
    for far in (Cell(0, 10**12), Cell(10**12, 0), Cell(-(10**12), 10**12)):
        with pytest.raises(SupportError, match="not connected"):
            Support([Cell(0, 0), far])


def test_simply_connected_basics(hex1):
    assert Support([Cell(0, 0), Cell(1, 0)]).is_simply_connected()
    assert hex1.is_simply_connected()
    assert not ring18().support.is_simply_connected()


def _punched(cells: frozenset[Cell], rng: random.Random, tries: int) -> Support:
    """``cells`` less up to ``tries`` random cells, each left out only if
    the rest stays connected."""
    cells = set(cells)
    for _ in range(tries):
        c = rng.choice(sorted(cells))
        try:
            Support(cells - {c})
        except SupportError:
            continue
        cells.remove(c)
    return Support(cells)


def test_simply_connected_matches_component_oracle():
    """``is_simply_connected`` and ``hole_cells`` against the box labelling of
    ``reference.enclosed_components`` on sampled small supports, the ring,
    holes meeting at one cell, and seeded hexagons and random supports
    punched while they stay connected, until a thousand have holes."""
    rng = random.Random(20240811)
    shapes = [s.cells for n in (4, 5, 6) for s in enumerate_supports(n)]
    supports = [Support(cells) for cells in rng.sample(shapes, 60)]
    supports.append(ring18().support)
    # Two or three neighbours of one cell punched out: holes that meet at that cell.
    apart = [(d, d + 2) for d in range(6)] + [(d, d + 3) for d in range(3)]
    for centre in (Cell(0, 0), Cell(1, 0), Cell(-1, 2)):
        for dirs in apart + [(0, 2, 4), (1, 3, 5)]:
            punched = {neighbor(centre, d) for d in dirs}
            supports.append(Support(hexagon(3).cells - punched))
    cases = [(s, enclosed_components(s.cells)) for s in supports]
    holed = sum(bool(comps) for _, comps in cases)
    while holed < 1000:
        if rng.random() < 0.7:
            base = hexagon(rng.randrange(2, 5))
        else:
            base = random_support(rng.randrange(15, 50), rng.randrange(2**31))
        s = _punched(base.cells, rng, rng.randrange(1, 10))
        cases.append((s, enclosed_components(s.cells)))
        holed += bool(cases[-1][1])
    by_count = Counter()
    meeting = 0
    for s, comps in cases:
        assert s.is_simply_connected() == (not comps), sorted(s.cells)
        assert s.hole_cells() == frozenset().union(*comps), sorted(s.cells)
        by_count[min(len(comps), 3)] += 1
        meeting += any(
            sum(any(nb in comp for nb in neighbors(c)) for comp in comps) >= 2 for c in s
        )
    assert by_count[2] >= 200 and by_count[3] >= 150 and meeting >= 250, (by_count, meeting)


def test_euler_table_matches_the_two_sum_formula():
    """``_EULER[mask]`` is six times the cell's share of V - E + T: on all
    64 masks, 6 less 3 per occupied direction plus 2 per pair of
    cyclically consecutive ones, counted direction by direction; and over
    supports with and without holes, the masks' sum is six times the
    count the two sums over ``present`` give."""
    assert len(_EULER) == 1 << N_DIRS
    for mask in range(1 << N_DIRS):
        occupied = [d for d in range(N_DIRS) if mask >> d & 1]
        corners = [d for d in occupied if (d + 1) % N_DIRS in occupied]
        assert _EULER[mask] == 6 - 3 * len(occupied) + 2 * len(corners), mask
    holed = [ring18().support, Support(hexagon(1).cells - {Cell(0, 0)})]
    for s in (*holed, hexagon(3), *enumerate_supports(5)):
        edge_ends = sum(m.bit_count() for m in s.present)
        corners = sum((m & (m >> 1 | m << 5)).bit_count() for m in s.present)
        euler = len(s) - edge_ends // 2 + corners // 3
        assert euler == (0 if s in holed else 1)
        assert sum(_EULER[m] for m in s.present) == 6 * euler


def test_simply_connected_iff_no_hole_cells_on_every_small_support():
    """Every connected support of at most seven cells, holed or not, and
    the holed shapes ``ring18`` and ``hexagon(1)`` without its centre."""
    supports = [Support(shape) for n in range(1, 8) for shape in rooted_growth_shapes(n)]
    supports += [ring18().support, Support(hexagon(1).cells - {Cell(0, 0)})]
    holed = 0
    for s in supports:
        holes = s.hole_cells()
        assert s.is_simply_connected() == (not holes), sorted(s.cells)
        holed += bool(holes)
    assert holed >= 3, holed


def test_constructor_floods_cells_that_pass_the_span_precheck(monkeypatch):
    """Cells spread over fewer q and r values than there are cells get
    past the precheck, so the flood over ``around`` must refuse them."""
    floods = []

    def counted(around):
        floods.append(len(around))
        return _is_connected(around)

    monkeypatch.setattr(support_module, "_is_connected", counted)
    for cells in ([(0, 0), (1, 1)], [(0, 0), (0, 1), (2, 0), (2, 1)]):
        with pytest.raises(SupportError, match="not connected"):
            Support([Cell(q, r) for q, r in cells])
        assert floods == [len(cells)]
        floods.clear()
    random_support(40, 5)
    assert floods == [40]


def test_is_connected_matches_a_coordinate_flood():
    """``_is_connected`` on the numbering of seeded random subsets of a
    hexagon and of lines, against ``reference.flood_connected``."""
    rng = random.Random(3141)
    pools = [sorted(hexagon(3).cells), [Cell(q, 0) for q in range(8)], [Cell(0, r) for r in range(8)]]
    outcomes = Counter()
    for _ in range(3000):
        pool = rng.choice(pools)
        cells = rng.sample(pool, rng.randrange(1, min(len(pool), 14) + 1))
        around = reference_numbering(cells)[3]
        expected = flood_connected(set(cells))
        assert _is_connected(around) == expected, sorted(cells)
        outcomes[expected] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 300, outcomes


def test_cell_numbering_agrees_with_the_lattice():
    """``order``, ``number``, ``around`` and ``present`` against
    ``lattice.neighbors`` and ``neighbor_mask``, and the edges, occupied
    neighbours and boundary read off them, on every support with n <= 6,
    the ring and seeded random supports of up to 300 cells."""
    rng = random.Random(19)
    supports = [s for n in range(1, 7) for s in enumerate_supports(n)]
    supports.append(ring18().support)
    supports += [random_support(n, rng.randrange(2**31)) for n in (7, 25, 60, 150, 300)]
    for s in supports:
        cells = sorted(s.cells)
        assert s.order == tuple(cells) == tuple(s)
        assert s.number == {c: i for i, c in enumerate(cells)}
        assert len(s.around) == len(s.present) == len(cells)
        for i, c in enumerate(cells):
            nbs = neighbors(c)
            assert s.around[i] == tuple(cells.index(nb) if nb in s.cells else -1 for nb in nbs)
            assert s.present[i] == neighbor_mask(c, s.cells)
            assert s.occupied_neighbors(c) == tuple(nb for nb in nbs if nb in s.cells)
        assert s.edges() == [(a, b) for a in cells for b in neighbors(a) if b in s.cells and a < b]
        assert s.boundary() == {c for c in cells if any(nb not in s.cells for nb in neighbors(c))}


def _assert_numbered_as_reference(s: Support, cells) -> None:
    ref_cells, order, number, around, present = reference_numbering(cells)
    assert s.cells == ref_cells
    assert s.order == order
    assert all(type(c) is Cell and type(c.q) is int and type(c.r) is int for c in s.order)
    assert s.number == number
    assert s.around == around
    assert s.present == present


def test_numbering_matches_cell_keyed_reference():
    """``cells``, ``order``, ``number``, ``around`` and ``present``, built on
    int keys, against the ``Cell``-keyed numbering: on supports made by the
    generators' keys and by ``Support`` from their cells, fixtures up to
    2,000 cells, a far translate, duplicates and a one-shot generator."""
    rng = random.Random(26)
    made = [s for n in range(1, 7) for s in enumerate_supports(n)]
    made += [random_support(rng.randrange(1, 301), rng.randrange(2**31)) for _ in range(200)]
    made += [hexagon(18), parallelogram(40, 25), Support((i, -i) for i in range(2000))]
    for s in made:
        _assert_numbered_as_reference(s, s.cells)
        _assert_numbered_as_reference(Support(s.cells), s.cells)
        shuffled = list(s.cells)
        rng.shuffle(shuffled)
        _assert_numbered_as_reference(Support(shuffled), s.cells)
    far = 10**12
    for dq, dr in ((far, -far), (-far, far + 7), (3 * far, 5 * far)):
        for base in (hexagon(2), made[-5], made[-1]):
            moved = [Cell(q + dq, r + dr) for q, r in base.cells]
            _assert_numbered_as_reference(Support(moved), moved)
    cells = list(hexagon(3).cells)
    _assert_numbered_as_reference(Support(cells + cells[::3] + [(0, 0)]), cells)
    _assert_numbered_as_reference(Support((q, r) for q, r in cells), cells)
    _assert_numbered_as_reference(Support([Cell(5, -5)]), [Cell(5, -5)])


def _filled(s: Support, name: str) -> bool:
    """Whether the cached property ``name`` holds a value, without reading it."""
    return name in s.__dict__


def _assert_decoded_as_keys(s: Support) -> None:
    """``order``, ``number`` and ``cells``, filled on first read, against
    each key decoded on its own as ``(q0 + key // w, r0 + key % w)``."""
    w, q0, r0 = s._frame
    eager = tuple(Cell(q0 + k // w, r0 + k % w) for k in s._keys)
    assert s.order == eager
    assert _filled(s, "order")
    assert s.number == {c: i for i, c in enumerate(eager)}
    assert _filled(s, "number")
    assert s.cells == set(eager)
    assert tuple(s) == eager and len(s) == len(eager)


def test_lazy_cells_match_an_eager_decoding_of_the_keys():
    """Every support with n <= 7, as enumerated and as built from its
    cells, and seeded 10^4-cell supports, as grown and as loaded by
    ``deserialize`` from the erosion orientation's file text."""
    from trielect.config import deserialize
    from trielect.generators import erosion_orientation

    for n in range(1, 8):
        for s in enumerate_supports(n):
            assert not _filled(s, "order") and not _filled(s, "number")
            _assert_decoded_as_keys(s)
            _assert_decoded_as_keys(Support(s._decode()))
    for seed in (5, 6):
        s = random_support(10**4, seed)
        assert not _filled(s, "order")
        text = erosion_orientation(s).serialize()
        _assert_decoded_as_keys(s)
        loaded = deserialize(text).support
        _assert_decoded_as_keys(loaded)
        assert loaded == s


def test_generate_orient_draw_run_and_check_build_no_cells():
    """The numbers-first path: growing, the erosion orientation, port maps
    and registers, an unobserved run, the unique-sink check, the edge
    count and ``edges()`` leave ``order`` and ``number`` unfilled."""
    from trielect.generators import erosion_orientation, random_portmaps, random_registers
    from trielect.oracle import check_unique_sink
    from trielect.scheduler import RandomSequential, RoundRobin, run

    for n, seed in ((10, 1), (10, 2), (150, 3)):
        s = random_support(n, seed)
        erosion_orientation(s)
        config = random_registers(s, seed + 1, 0.25, random_portmaps(s, seed + 2))
        run(config, RandomSequential(seed + 3))
        run(config, RoundRobin())
        if s.edge_count() <= 24:
            check_unique_sink(s)
        assert len(s) == n and s.is_simply_connected()
        assert len(s.edges()) == s.edge_count()
        assert not _filled(s, "order") and not _filled(s, "number"), (n, seed)


@pytest.mark.parametrize("fill", [False, True])
def test_support_pickles_with_cells_unfilled_or_filled(fill):
    """A pickled or copied support equals its original and has its cells
    filled exactly where the original had; pickling fills nothing in the
    original.  ``enum --jobs`` sends supports to worker processes this
    way."""
    import copy
    import pickle

    for s in (random_support(40, 8), hexagon(2), enumerate_supports(5)[7]):
        if fill:
            s.cells
        protocols = range(2, pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(s, protocol)) for protocol in protocols]
        copies += [copy.copy(s), copy.deepcopy(s)]
        assert _filled(s, "order") == _filled(s, "number") == fill
        for twin in copies:
            assert _filled(twin, "order") == _filled(twin, "number") == fill
            assert (twin._keys, twin._frame) == (s._keys, s._frame)
            assert (twin.around, twin.present) == (s.around, s.present)
            assert twin == s and hash(twin) == hash(s)
            assert twin.boundary() == s.boundary() and twin.blocks() == s.blocks()
            _assert_decoded_as_keys(twin)


@pytest.mark.parametrize("bad", [0.5, "a", None])
def test_coordinates_must_be_ints(bad):
    for cell in ((bad, 0), (0, bad)):
        with pytest.raises(SupportError, match=r"cell \(.*\) has a coordinate that is not an int") as err:
            Support([(0, 0), (1, 0), cell])
        assert repr(bad) in str(err.value)
    # A float equal to an int is refused too: keys would be floats.
    with pytest.raises(SupportError, match=r"cell \(1\.0, 0\)"):
        Support([Cell(0, 0), Cell(1.0, 0)])


def test_key_frame_orders_and_steps_like_cells():
    """Key order is (q, r) order and ``steps`` are the direction offsets, for
    every cell and neighbour with r in the frame, including far ones."""
    for frame in (KeyFrame.centred(3), KeyFrame(5, 10**12, -(10**12))):
        w, q0, r0 = frame
        cells = [Cell(q0 + q, r0 + r) for q in range(-2, 3) for r in range(1, w - 1)]
        keys = {c: frame.key(*c) for c in cells}
        assert sorted(cells, key=keys.get) == sorted(cells)
        for c in cells:
            assert divmod(keys[c], w) == (c.q - q0, c.r - r0)
            for d, step in enumerate(frame.steps):
                assert keys[c] + step == frame.key(*neighbor(c, d))


def test_cyclic_run_growth_test_matches_flood_fill():
    # Adding an empty neighbour to a simply connected shape keeps it simply
    # connected exactly when the cell's occupied neighbours form one run.
    for n in range(1, 7):
        for shape in rooted_growth_shapes(n):
            if empty_component_count(shape):
                continue
            frontier = {nb for c in shape for nb in neighbors(c)} - shape
            for c in frontier:
                grows = CYCLIC_RUN[neighbor_mask(c, shape)]
                assert grows == (empty_component_count(shape | {c}) == 0), (sorted(shape), c)


def test_classify_matches_reference():
    for n in range(2, 7):
        for s in enumerate_supports(n):
            for c in s.boundary():
                assert str(s.classify(c)) == reference_boundary_class(s.cells, c)


def test_boundary(hex1, line3):
    ring = {c for c in hex1.cells if c != Cell(0, 0)}
    assert hex1.boundary() == frozenset(ring)
    assert line3.boundary() == line3.cells
    single = Support([Cell(0, 0)])
    assert single.boundary() == single.cells


def test_classify_examples(tri, hex1, line3):
    for c in tri:
        assert tri.classify(c) == angle_class(60)
    for c in hex1.boundary():
        assert hex1.classify(c) == angle_class(120)
    assert line3.classify(Cell(1, 0)) == ARTICULATION
    assert line3.classify(Cell(0, 0)) == PENDING


def test_classify_240():
    # Hexagon with one ring cell removed: the centre joins the boundary
    # with five consecutive occupied neighbours.
    s = Support(hexagon(1).cells - {Cell(1, 0)})
    assert s.classify(Cell(0, 0)) == angle_class(240)


def test_classify_never_300():
    for n in range(2, 7):
        for s in enumerate_supports(n):
            for c in s.boundary():
                cls = s.classify(c)
                assert cls.angle != 300


def test_classify_rejects_off_boundary(hex1):
    with pytest.raises(SupportError):
        hex1.classify(Cell(0, 0))
    with pytest.raises(SupportError):
        hex1.classify(Cell(9, 9))


def test_classify_rejects_lone_particle():
    single = Support([Cell(0, 0)])
    assert single.is_simply_connected()
    with pytest.raises(SupportError, match="lone particle"):
        single.classify(Cell(0, 0))


def test_articulation_points(hex1, line3):
    assert line3.articulation_points() == frozenset({Cell(1, 0)})
    assert hex1.articulation_points() == frozenset()
    bowtie = Support([Cell(0, 0), Cell(1, 0), Cell(0, 1), Cell(-1, 0), Cell(0, -1)])
    assert Cell(0, 0) in bowtie.articulation_points()


def test_articulation_matches_removal_definition():
    rng = random.Random(7)
    shapes = [s for n in (4, 5, 6) for s in enumerate_supports(n)]
    for s in rng.sample(shapes, 50):
        expected = set()
        for c in s.cells:
            rest = s.cells - {c}
            if not rest:
                continue
            seed = next(iter(rest))
            seen = {seed}
            stack = [seed]
            while stack:
                x = stack.pop()
                for nb in s.occupied_neighbors(x):
                    if nb != c and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if len(seen) != len(rest):
                expected.add(c)
        assert s.articulation_points() == frozenset(expected)


def test_check_angle_census_examples(tri, hex1, para23):
    assert check_angle_census(tri)
    assert check_angle_census(hex1)
    assert check_angle_census(para23)


def test_check_angle_census_preconditions(line3):
    with pytest.raises(SupportError):
        check_angle_census(line3)  # articulation point
    with pytest.raises(SupportError):
        check_angle_census(Support([Cell(0, 0), Cell(1, 0)]))


def test_boundary_cycle_hexagon(hex1):
    cycle = boundary_cycle(hex1)
    assert len(cycle) == 6
    assert set(cycle) == set(hex1.boundary())
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in hex1.occupied_neighbors(a)


def test_boundary_witness_cases(tri, hex1):
    assert isinstance(boundary_witness(Support([Cell(0, 0), Cell(1, 0)])), PendingWitness)
    assert isinstance(boundary_witness(tri), SixtyWitness)
    w = boundary_witness(hex1)
    assert isinstance(w, FlatPairWitness)
    assert w.path == ()  # adjacent 120-degree pair


def test_boundary_witness_rejects_non_simply_connected():
    with pytest.raises(SupportError):
        boundary_witness(ring18().support)


def test_canonical_cells():
    cells = [Cell(5, 5), Cell(6, 5), Cell(5, 6)]
    assert canonical_cells(cells) == (Cell(0, 0), Cell(0, 1), Cell(1, 0))
    assert canonical_cells(canonical_cells(cells)) == canonical_cells(cells)


def test_symmetry_canonical_identifies_rotations():
    base = [Cell(0, 0), Cell(1, 0), Cell(2, 0)]
    rotated = [Cell(0, 0), Cell(0, 1), Cell(0, 2)]
    assert symmetry_canonical_cells(base) == symmetry_canonical_cells(rotated)
    # but translation canonicalisation keeps them apart
    assert canonical_cells(base) != canonical_cells(rotated)


def test_shape_text_roundtrip(hex1):
    text = format_shape_text(hex1.cells)
    assert Support(parse_shape_text(text)).cells == hex1.cells
    assert "\n" in text and text.endswith("\n")


def test_parse_shape_text_errors():
    with pytest.raises(SupportError):
        parse_shape_text("0 0\n1\n")
    with pytest.raises(SupportError):
        parse_shape_text("# only a comment\n")
    with pytest.raises(SupportError):
        parse_shape_text("0 zero\n")


def test_boundary_witness_flat_pair_in_leaf_block():
    # Two hexagons joined by a bridge edge: no pending particle, no
    # 60-degree particle anywhere, so the witness must come from a leaf
    # block's boundary with the block's articulation point skipped.
    first = hexagon(1).cells
    second = {Cell(c.q + 3, c.r) for c in first}
    s = Support(first | second)
    assert s.is_simply_connected()
    assert not any(len(s.occupied_neighbors(c)) == 1 for c in s)
    w = boundary_witness(s)
    assert isinstance(w, FlatPairWitness)
    assert s.classify(w.first) == angle_class(120)
    assert s.classify(w.second) == angle_class(120)
    for c in w.path:
        assert s.classify(c) == angle_class(180)


def test_automorphisms_map_every_support_onto_itself():
    """``automorphisms`` lists each non-identity symmetry of the 12 that
    maps a support onto a translate of itself, on every support with
    2 <= n <= 6 (229 of the 1,057 have one) and on ``hexagon1`` (11): as
    many as the reference rotations and mirror find, each a permutation of
    the cell numbers that sends the neighbour at d to the image's neighbour
    at the image of d."""
    supports = [s for n in range(2, 7) for s in enumerate_supports(n)]
    assert len(supports) == 1057
    symmetric = 0
    for s in supports + [hexagon(1)]:
        found = automorphisms(s)
        own = canonical_cells(s.cells)
        images = []
        for reflect in (False, True):
            img = [Cell(c.q + c.r, -c.r) for c in s.order] if reflect else list(s.order)
            for _ in range(6):
                img = [Cell(-c.r, c.q + c.r) for c in img]
                images.append(canonical_cells(img) == own)
        assert len(found) == images.count(True) - 1, sorted(s.cells)
        assert len(set(found)) == len(found)
        for cells, dirs in found:
            assert sorted(cells) == list(range(len(s))) and sorted(dirs) == list(range(6))
            assert dirs != tuple(range(6))
            for i, row in enumerate(s.around):
                for d, j in enumerate(row):
                    assert s.around[cells[i]][dirs[d]] == (cells[j] if j >= 0 else -1)
        symmetric += bool(found)
    assert symmetric == 229 + 1
    assert len(automorphisms(hexagon(1))) == 11
