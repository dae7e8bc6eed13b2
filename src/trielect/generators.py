"""Shape construction and register initialisation.

Growth and enumeration hold cells as the integer keys of a
``support.KeyFrame`` centred on the origin, wide enough for every cell
and neighbour of an n-cell shape grown from it: a neighbour is a key
plus a step, key order is (q, r) order, and a finished shape's sorted
keys go to ``Support._from_keys``, which numbers them and keeps them,
making no ``Cell`` until a reader asks for one.  Enumeration grows simply connected supports one cell at
a time, deduplicating canonical translates at every size (key tuples
whose smallest key is the origin's); growth from simply
connected shapes is complete because any such shape can lose an erodible
boundary cell and stay simply connected.  Growth and erosion share one
local test, ``lattice.CYCLIC_RUN`` over a mask of occupied directions:
adding an empty neighbour of a simply connected shape keeps it simply
connected exactly when the cell's occupied neighbours form one cyclic
run.  Random growth keeps every empty cell next to the shape with its
mask of occupied directions, and the cells that pass (the growable
frontier) as a sorted list, and adds one uniform draw from them per cell;
an added cell ORs one bit into each empty neighbour's mask, and only
those neighbours can change their answer, which one lookup in a table
built from ``CYCLIC_RUN`` (``_GROWTH``) gives; the shape's own cells stay
in the same dict under a value that the table's extra entry leaves as it
is, so a neighbour costs one probe whether it is empty or not.
Removing a cell whose occupied
neighbours form one run of one to three cells (``lattice.ERODIBLE``)
cannot disconnect the rest, because that run is itself a path.  The
erosion orientation walks that reduction forwards: repeatedly remove the
smallest such particle, kept on a heap that a removal refills with the
neighbours it makes erodible (a removal visits only the neighbours
``lattice.SET_DIRS`` lists for its mask), then direct every edge from the
earlier-removed to the later-removed endpoint.  The result satisfies all
four validity rules, is globally acyclic, and its unique sink is the
last particle standing.  Erosion and both register initialisations work
on the support's cell numbers, with one Out mask per cell over global
directions, which is what a ``Configuration`` stores: the masks are
handed over as they are, with no register built, and so are port maps,
a tuple by cell number that ``random_portmaps`` draws in cell order.
Every seeded draw is ``random``'s own written out over ``getrandbits``:
``randrange(k)`` and ``choice`` of ``k`` items call
``getrandbits(k.bit_length())`` until the result is below ``k``, so the
generators make the same calls and give the same outputs without two
Python frames per draw.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, insort
from .lattice import (
    ALL_PORTMAPS,
    CYCLIC_RUN,
    Cell,
    ERODIBLE,
    N_DIRS,
    PortMap,
    SET_DIRS,
    direction_from,
    neighbor,
)
from .config import Configuration, PortMaps, all_in_configuration, identity_portmaps
from .support import KeyFrame, Support, SupportError, symmetry_canonical_keys


class ErosionError(RuntimeError):
    """No erodible particle exists; would contradict the erosion guarantee."""


def check_seed(seed: object) -> None:
    """Raise ``TypeError`` unless ``seed`` is an ``int`` (not a ``bool``)
    and ``ValueError`` if it is negative: ``random.Random`` would seed
    ``None`` from OS entropy, ``-s`` as ``s`` and ``True`` as ``1``."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, not {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


# -- enumeration ---------------------------------------------------------------

#: Per direction ``d``, the bit at which the neighbour in direction ``d`` of
#: a cell sees that cell in its mask of occupied directions.
_SEEN = tuple(back for _, back in SET_DIRS[(1 << N_DIRS) - 1])


def enumerate_supports(n: int, canonical: str = "translation") -> list[Support]:
    """All simply connected supports of ``n`` cells, one per canonical form.

    ``canonical`` is ``"translation"`` (default) or ``"symmetry"`` for
    deduplication up to the full 12-element lattice symmetry group.  The
    list is sorted by canonical cells.

    Shapes are sorted tuples of keys in ``KeyFrame.centred(n)``, which
    fits every cell within ``n`` of the origin.  A translation-canonical
    shape starts with the origin's key; a grown shape whose new cell sorts
    first is shifted by that cell's key difference to the origin.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if canonical not in ("translation", "symmetry"):
        raise ValueError(f"unknown canonicalisation {canonical!r}")
    frame = KeyFrame.centred(n)
    origin = frame.key(0, 0)
    steps = tuple(zip(frame.steps, _SEEN))
    shapes: set[tuple[int, ...]] = {(origin,)}
    for _ in range(n - 1):
        grown: set[tuple[int, ...]] = set()
        for shape in shapes:
            cellset = set(shape)
            rim: dict[int, int] = {}
            for k in shape:
                for step, bit in steps:
                    x = k + step
                    if x not in cellset:
                        rim[x] = rim.get(x, 0) | bit
            for x, mask in rim.items():
                if CYCLIC_RUN[mask]:
                    if x < origin:
                        shift = origin - x
                        grown.add((origin, *[k + shift for k in shape]))
                    else:
                        i = bisect_left(shape, x)
                        grown.add(shape[:i] + (x,) + shape[i:])
        if canonical == "symmetry":
            grown = {symmetry_canonical_keys(shape, frame) for shape in grown}
        shapes = grown
    return [Support._from_keys(list(shape), frame) for shape in sorted(shapes)]


#: The ``rim`` value of a cell of the shape in ``random_support``: one
#: past the six-bit masks, so ``_GROWTH`` reads it in its extra entry.
_SHAPE = 1 << N_DIRS


def _growth_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """``_GROWTH[d][mask]``: ``(new, move)`` for an empty cell with occupied
    directions ``mask`` when the cell at ``(d + 3) % 6`` from it is added,
    i.e. for the added cell's neighbour at ``d``.  ``new`` is ``mask`` with
    that bit set.  The growable frontier holds the rim cells whose mask is
    a nonempty ``CYCLIC_RUN``, so the cell is listed after iff ``new`` is
    one run and was listed before iff ``mask`` is a nonempty one; ``move``
    is 1 where it joins the list, -1 where it leaves and 0 where neither.
    One more entry per direction, ``_GROWTH[d][_SHAPE]``, is
    ``(_SHAPE, 0)``: a cell of the shape stays one and moves nothing."""
    table = []
    for bit in _SEEN:
        row = []
        for mask in range(1 << N_DIRS):
            new = mask | bit
            after = CYCLIC_RUN[new]
            row.append((new, after - (bool(mask) and CYCLIC_RUN[mask])))
        row.append((_SHAPE, 0))
        table.append(tuple(row))
    return tuple(table)


_GROWTH = _growth_table()


def random_support(n: int, seed: int) -> Support:
    """Random simply connected support grown cell by cell.

    Cells are keys in ``KeyFrame.centred(n)``, which holds every cell
    within ``n`` of the origin, so key order is (q, r) order.  ``rim`` maps
    each empty cell next to the shape to its mask of occupied directions,
    and each cell of the shape to ``_SHAPE``.
    The growable frontier is the rim cells whose mask is one cyclic run,
    held as a sorted list of keys; each step pops the one at index
    ``rng.randrange(len(growable))``, drawn as ``randrange``'s own
    rejection loop over ``getrandbits`` (``getrandbits(k.bit_length())``
    until the result is below ``k``), so every growable cell is equally
    likely.  Adding a cell sets one bit in the mask of each empty
    neighbour, and only those can join or leave the list: one lookup in
    ``_GROWTH``, a table built from ``CYCLIC_RUN`` by direction and mask,
    gives the new mask and whether the cell joins, leaves or stays.  Its
    extra entry leaves a neighbour in the shape as it is, so each
    neighbour costs one probe of ``rim`` and no test of membership.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_seed(seed)
    draw = random.Random(seed).getrandbits
    frame = KeyFrame.centred(n)
    origin = frame.key(0, 0)
    rim = {origin + step: bit for step, bit in zip(frame.steps, _SEEN)}
    growable = sorted(rim)
    rim[origin] = _SHAPE
    cells = [origin]
    get = rim.get
    steps = tuple(zip(frame.steps, _GROWTH))
    for _ in range(n - 1):
        k = len(growable)
        bits = k.bit_length()
        i = draw(bits)
        while i >= k:
            i = draw(bits)
        c = growable.pop(i)
        rim[c] = _SHAPE
        cells.append(c)
        for step, table in steps:
            x = c + step
            rim[x], move = table[get(x, 0)]
            if move:
                if move > 0:
                    insort(growable, x)
                else:
                    del growable[bisect_left(growable, x)]
    cells.sort()
    del rim, get, growable  # freed before the numbering's peak
    return Support._from_keys(cells, frame)


# -- erosion orientation ---------------------------------------------------------


def erosion_order(s: Support) -> list[Cell]:
    """Removal order: each step takes the smallest erodible cell.

    A cell is erodible while others remain if its remaining occupied
    neighbours number 1..3 and sit on consecutive ports; removing it then
    keeps the remainder connected and simply connected.
    """
    return [s.order[i] for i in _erode(s)[0]]


def _erode(s: Support) -> tuple[list[int], list[int]]:
    """``erosion_order`` by cell number (numbers follow sorted order), and by
    number the mask of the neighbours each cell still had when it went.

    A removal changes only its neighbours' masks, so the heap holds every
    erodible cell; an entry found gone or no longer erodible is dropped.
    The removed cell's mask lists its remaining neighbours, and
    ``lattice.SET_DIRS`` gives each one's direction and the bit it sees the
    cell at; the remaining masks are symmetric, so that bit is set and
    the removal flips it off.
    """
    if not s.is_simply_connected():
        raise SupportError("erosion orientation requires a simply connected support")
    around = s.around
    present = list(s.present)
    heap = [i for i, mask in enumerate(present) if ERODIBLE[mask]]  # sorted, so a heap
    left = bytearray(b"\x01") * len(present)
    gone: list[int] = []
    for _ in range(len(present) - 1):
        while True:
            if not heap:
                raise ErosionError(
                    f"no erodible particle among {[c for c, x in zip(s.order, left) if x]}"
                )
            i = heapq.heappop(heap)
            mask = present[i]
            if left[i] and ERODIBLE[mask]:
                break
        left[i] = 0
        gone.append(i)
        row = around[i]
        for d, back in SET_DIRS[mask]:
            j = row[d]
            present[j] = m = present[j] ^ back
            if ERODIBLE[m]:
                heapq.heappush(heap, j)
    gone.append(left.index(1))
    return gone, present


def erosion_orientation(
    s: Support, portmaps: PortMaps | None = None
) -> Configuration:
    """Acyclic all-directed configuration induced by the erosion order:
    each cell is Out toward the neighbours that outlast it."""
    return _configuration(s, portmaps, _erode(s)[1])


def _configuration(
    s: Support, portmaps: PortMaps | None, masks: list[int]
) -> Configuration:
    """Cell number ``i`` Out toward the directions in ``masks[i]``, under ``portmaps``."""
    pms = portmaps if portmaps is not None else identity_portmaps(s)
    return Configuration.from_masks(s, pms, masks)


# -- random registers -------------------------------------------------------------


def random_portmaps(s: Support, seed: int) -> PortMaps:
    """One uniform port map per cell number, drawn in ``Support.order``.

    Each draw is ``rng.choice(ALL_PORTMAPS)``'s own: ``getrandbits(4)``
    until the result is below 12, so it makes the same calls as
    ``choice`` and picks the same map, without two Python frames per cell.
    """
    check_seed(seed)
    draw = random.Random(seed).getrandbits
    k = len(ALL_PORTMAPS)
    bits = k.bit_length()
    pms = []
    for _ in range(len(s)):
        i = draw(bits)
        while i >= k:
            i = draw(bits)
        pms.append(ALL_PORTMAPS[i])
    return tuple(pms)


#: The directions whose neighbour has the larger cell number: cells are
#: numbered in (q, r) order, and directions 0, 1 and 5 raise q or keep q
#: and raise r.
_LATER = 1 << 0 | 1 << 1 | 1 << 5


#: ``random_registers``' default chance of an Out/Out edge, at which every
#: free port is an independent fair coin.
CONFLICT_PROBABILITY = 0.25


def random_registers(
    s: Support,
    seed: int,
    conflict_probability: float = CONFLICT_PROBABILITY,
    portmaps: PortMaps | None = None,
) -> Configuration:
    """Arbitrary initial registers: per edge, Out/Out with the given
    probability, otherwise uniform over the three conflict-free states.

    Ports toward empty cells always hold In.  Edges draw in
    ``Support.edges`` order: per cell number, its ``lattice.SET_DIRS``
    among the ``_LATER`` directions.  Each edge calls ``rng.random()``,
    and unless that gives Out/Out draws ``rng.randrange(3)`` as
    ``randrange`` does: ``getrandbits(2)`` until the result is below 3.
    """
    if not 0.0 <= conflict_probability <= 1.0:
        raise ValueError("conflict probability must lie in [0, 1]")
    check_seed(seed)
    rng = random.Random(seed)
    uniform, draw = rng.random, rng.getrandbits
    masks = [0] * len(s)
    for i, (row, present) in enumerate(zip(s.around, s.present)):
        out = masks[i]
        for d, back in SET_DIRS[present & _LATER]:
            # Bit 0: Out at i toward ``row[d]``; bit 1: Out from it toward i.
            if uniform() < conflict_probability:
                outs = 3
            else:
                outs = draw(2)
                while outs == 3:
                    outs = draw(2)
            if outs & 1:
                out |= 1 << d
            if outs & 2:
                masks[row[d]] |= back
        masks[i] = out
    return _configuration(s, portmaps, masks)


# -- named fixtures ---------------------------------------------------------------


def triangle3() -> Support:
    return Support([Cell(0, 0), Cell(1, 0), Cell(0, 1)])


def line(n: int) -> Support:
    if n < 1:
        raise ValueError("n must be >= 1")
    return Support([Cell(i, 0) for i in range(n)])


def hexagon(k: int) -> Support:
    """All cells within hex distance k of the origin (1 + 3k(k+1) cells)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cells = [
        Cell(q, r)
        for q in range(-k, k + 1)
        for r in range(-k, k + 1)
        if (abs(q) + abs(r) + abs(q + r)) // 2 <= k
    ]
    return Support(cells)


def parallelogram(w: int, h: int) -> Support:
    if w < 1 or h < 1:
        raise ValueError("sides must be >= 1")
    return Support([Cell(q, r) for q in range(w) for r in range(h)])


# Closed 18-step tour whose every step turns by 60 degrees, so each cell
# sees its two ring neighbours through directions two apart.
_RING18_TURNS = (1, 1, -1) * 6


def ring18_cells() -> list[Cell]:
    cells = [Cell(0, 0)]
    d = 0
    for turn in _RING18_TURNS[:-1]:
        cells.append(neighbor(cells[-1], d))
        d = (d + turn) % N_DIRS
    return cells


def ring18() -> Configuration:
    """The 18-particle ring: every particle reaches its two occupied
    neighbours through local ports 2 and 4.  Not simply connected; kept
    as the canonical negative fixture.
    """
    cells = ring18_cells()
    support = Support(cells)
    n = len(cells)
    portmaps: list[PortMap | None] = [None] * n
    for i, c in enumerate(cells):
        d_prev = direction_from(c, cells[(i - 1) % n])
        d_next = direction_from(c, cells[(i + 1) % n])
        delta = (d_next - d_prev) % N_DIRS
        # Ports 2 and 4 differ by two, matching the direction gap; the
        # chirality sign absorbs which way around the gap runs.
        if delta == 2:
            pm = PortMap((d_prev - 2) % N_DIRS, 1)
        elif delta == 4:
            pm = PortMap((d_prev + 2) % N_DIRS, -1)
        else:
            raise SupportError(f"ring cell {c} does not turn by 60 degrees")
        assert neighbor(c, (pm.offset + pm.chirality * 2) % N_DIRS) == cells[(i - 1) % n]
        assert neighbor(c, (pm.offset + pm.chirality * 4) % N_DIRS) == cells[(i + 1) % n]
        portmaps[support.number[c]] = pm
    return all_in_configuration(support, tuple(portmaps))


def shape_by_name(name: str) -> Support:
    """Resolve CLI shape names: triangle3, lineN, hexagonK, parallelogramWxH, ring18."""
    if name == "triangle3":
        return triangle3()
    if name == "ring18":
        return ring18().support
    if name.startswith("line"):
        make, form, sizes = line, "lineN", (name[4:],)
    elif name.startswith("hexagon"):
        make, form, sizes = hexagon, "hexagonK", (name[7:],)
    elif name.startswith("parallelogram"):
        w, _, h = name[len("parallelogram"):].partition("x")
        make, form, sizes = parallelogram, "parallelogramWxH", (w, h)
    else:
        raise ValueError(f"unknown shape name {name!r}")
    args = [_shape_size(name, text, form) for text in sizes]
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"shape name {name!r}: {exc} in {form}") from None


def _shape_size(name: str, text: str, form: str) -> int:
    """A size in a shape name: ASCII digits only, so no sign, space,
    underscore or other script's digit is read as part of a number."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"shape name {name!r} does not match {form}")
    return int(text)
