"""Occupied-cell sets and their boundary structure.

A Support is a finite nonempty connected set of occupied cells.  It
numbers its cells at construction, in sorted order, and keeps per cell
``around[i]``, its neighbours' numbers by direction (-1 where the cell
is empty), and ``present[i]``, the six-bit mask of its occupied
directions.  Connectivity, simple connectivity (an Euler count), the
edge count, the boundary and the boundary class read these; the
scheduler's engine, the packed oracle, register validation and the
generators read them too, so the numbering is decided here only.  Cells
are made only at the edges: ``order`` (``order[i]`` is cell number
``i``) and ``number``, its one ``Cell`` index, which maps back, are
decoded from the sorted keys the first time a reader asks for them and
kept from then on, so a support that is only grown, oriented and run
never builds a ``Cell``.  ``in`` reads ``number`` and ``cells`` is a
read-only view of its keys; ``==``, ``hash`` and iteration read
``order``, and ``len`` reads ``around``.  The numbering runs on one integer key per cell,
defined here only by ``KeyFrame``: in a frame of width ``w``, cell
``(q, r)`` has key ``(q - q0) * w + (r - r0)``, where ``w`` is wider
than the r-range of the cells and their neighbours.  So key order is
(q, r) order, and the neighbour in direction ``d`` has the key plus
``dq * w + dr``.  One routine sorts the keys, numbers them in an
int-keyed dict and reads each neighbour's number with one int add and
one lookup; ``Support(cells)`` frames and keys its cells (every
coordinate must be an ``int``, and cells spread over as many q or r
values as there are cells are refused as disconnected before a frame is
made), and the generators, which grow and enumerate shapes on keys, hand
their keys to the internal ``Support._from_keys``.  Every support, generated or not, is then
flooded once over ``around`` and refused unless connected; the flood
reads an empty neighbour (-1) off a sentinel slot, so it tests no
index.  Simple connectivity is one table lookup per cell, ``_EULER``,
summed to six times V - E + T; only ``hole_cells``, which names enclosed
cells once a support is found not simply connected, floods the empty
cells.  Articulation points and blocks are memoised on first use.
Boundary cells of a simply connected support fall into a strict
trichotomy: pending (one occupied neighbour), articulation point,
or a theta-angle particle whose occupied neighbours form a single cyclic
arc spanning theta degrees.  A 300-degree angle cannot occur: an arc of
six would mean every neighbour is occupied, contradicting boundary
membership.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import islice, repeat
from operator import eq
from typing import Callable, Iterable, Iterator, KeysView, NamedTuple, Union

from .lattice import (
    CYCLIC_RUN,
    DIR_OFFSETS,
    Cell,
    N_DIRS,
    common_neighbors,
    neighbors,
)


class SupportError(ValueError):
    """Raised for supports violating a constructor or operation precondition."""


class BoundaryStructureError(RuntimeError):
    """Raised when a boundary fact that should be guaranteed fails to hold.

    Hitting this on a simply connected support would falsify the boundary
    trichotomy or the simple-polygon structure it relies on.
    """


class BoundaryKind(Enum):
    PENDING = "pending"
    ARTICULATION = "articulation"
    ANGLE = "angle"


class BoundaryClass(NamedTuple):
    kind: BoundaryKind
    angle: int | None = None  # degrees, set only for ANGLE

    def __str__(self) -> str:
        if self.kind is BoundaryKind.ANGLE:
            return f"angle({self.angle})"
        return self.kind.value


PENDING = BoundaryClass(BoundaryKind.PENDING)
ARTICULATION = BoundaryClass(BoundaryKind.ARTICULATION)


def angle_class(degrees: int) -> BoundaryClass:
    if degrees not in (60, 120, 180, 240):
        raise ValueError(f"impossible boundary angle {degrees}")
    return BoundaryClass(BoundaryKind.ANGLE, degrees)


_ALL_DIRS = (1 << N_DIRS) - 1

#: ``_EULER[mask]``: six times a cell's share of V - E + T, where ``mask``
#: is its occupied directions: 6 for the cell, -3 per edge (each shared by
#: two cells) and +2 per triangle corner (pairs of cyclically consecutive
#: directions; each triangle has three).  So a support's masks sum to 6
#: exactly when V - E + T = 1.
_EULER = tuple(
    6 - 3 * m.bit_count() + 2 * (m & (m >> 1 | m << 5)).bit_count()
    for m in range(1 << N_DIRS)
)


class KeyFrame(NamedTuple):
    """Integer keys for cells: ``(q, r)`` has key ``(q - q0) * w + (r - r0)``.

    A frame serves the cells, and their neighbours, whose r lies in
    ``[r0, r0 + w)``.  There ``divmod(key, w)`` is ``(q - q0, r - r0)``,
    key order is (q, r) order, the neighbour in direction ``d`` of a key
    is the key plus ``steps[d]`` (``dq * w + dr``), and the difference of
    two keys is the key translation between their cells.
    """

    w: int
    q0: int = 0
    r0: int = 0

    @classmethod
    def centred(cls, radius: int) -> KeyFrame:
        """The frame of every cell with ``abs(r) <= radius``."""
        return cls(2 * radius + 1, 0, -radius)

    @property
    def steps(self) -> tuple[int, ...]:
        w = self.w
        return tuple([dq * w + dr for dq, dr in DIR_OFFSETS])

    def key(self, q: int, r: int) -> int:
        return (q - self.q0) * self.w + r - self.r0


class Support:
    """Immutable connected set of occupied cells with cached geometry.

    ``order`` and ``number`` are cached properties: the first read stores
    the value in the instance ``__dict__``, where every later read finds
    it without a Python call.  They are not slots behind ``__getattr__``:
    a class with ``__getattr__`` makes every one of its attribute reads
    take CPython's unspecialised path, ``around`` and ``present`` too.
    """

    __slots__ = (
        "_keys",
        "_frame",
        "__dict__",
        "around",
        "present",
        "_boundary",
        "_articulation",
        "_blocks",
    )

    def __init__(self, cells: Iterable[Cell]):
        cells = list(cells)
        if not cells:
            raise SupportError("support must contain at least one cell")
        qs = [q for q, _ in cells]
        rs = [r for _, r in cells]
        if {*map(type, qs), *map(type, rs)} != {int}:
            for q, r in cells:
                if not (isinstance(q, int) and isinstance(r, int)):
                    raise SupportError(f"cell ({q!r}, {r!r}) has a coordinate that is not an int")
        # A connected shape of n cells spans fewer than n values of q and of
        # r; checked first, so the frame below is at most n + 2 wide.
        q0, r0 = min(qs), min(rs) - 1
        if max(qs) - q0 >= len(cells) or max(rs) - r0 > len(cells):
            raise SupportError("support is not connected")
        # Cells sit at r - r0 in [1, w - 2], so their neighbours fit the frame.
        w = max(rs) - r0 + 2
        base = q0 * w + r0
        keys = [q * w + r - base for q, r in zip(qs, rs)]
        del cells, qs, rs
        keys.sort()
        # Once sorted, equal keys (duplicate cells) sit side by side.
        if any(map(eq, keys, islice(keys, 1, None))):
            keys = sorted(set(keys))
        self._number(keys, KeyFrame(w, q0, r0))

    @classmethod
    def _from_keys(cls, keys: list[int], frame: KeyFrame) -> Support:
        """The support of the cells with the sorted, distinct ``keys`` of
        ``frame``, every one of which, with its neighbours, lies in the
        frame's r window.  The support keeps ``keys``, which the caller
        must not change after.  Internal to the package: the frame and key
        preconditions, which ``Support(cells)`` establishes and the
        generators keep, are not checked here, but ``_number`` floods the
        cells and refuses them unless connected, as it does for every
        support."""
        self = cls.__new__(cls)
        self._number(keys, frame)
        return self

    def _number(self, keys: list[int], frame: KeyFrame) -> None:
        """Number the cells of the sorted, distinct ``keys``, and keep them.

        Cell ``i`` has ``keys[i]``, and a neighbour's number is one
        int-keyed lookup of the cell's key plus the direction's step.  No
        ``Cell`` is made here: ``_decode`` makes them from ``keys`` and
        ``frame`` when ``order`` is first read.
        """
        index = dict(zip(keys, range(len(keys))))
        get = index.get
        s0, s1, s2, s3, s4, s5 = frame.steps
        # Both tuples are built from lists: ``tuple`` of an iterator of
        # unknown length grows by repeated reallocation, which fragments the
        # C heap, so building many small supports kept raising the RSS.
        self.around = around = tuple([
            (get(k + s0, -1), get(k + s1, -1), get(k + s2, -1),
             get(k + s3, -1), get(k + s4, -1), get(k + s5, -1))
            for k in keys
        ])
        del index, get
        self.present = tuple([
            (a >= 0) | (b >= 0) << 1 | (c >= 0) << 2 | (d >= 0) << 3 | (e >= 0) << 4 | (f >= 0) << 5
            for a, b, c, d, e, f in around
        ])
        if not _is_connected(around):
            raise SupportError("support is not connected")
        self._keys = keys
        self._frame = frame
        self._boundary: frozenset[Cell] | None = None
        self._articulation: frozenset[Cell] | None = None
        self._blocks: tuple[frozenset[Cell], ...] | None = None

    def _decode(self) -> tuple[Cell, ...]:
        """The cells by number: those of the keys, in key order, which is
        sorted order.

        Coordinates come from one int per value of q and of r present.
        """
        keys = self._keys
        w, q0, r0 = self._frame
        low = keys[0] // w
        qs = list(range(q0 + low, q0 + keys[-1] // w + 1))
        rem = w.__rmod__
        bottom = min(map(rem, keys))
        rs = list(range(r0 + bottom, r0 + max(map(rem, keys)) + 1))
        new = tuple.__new__
        return tuple([
            new(Cell, (qs[q - low], rs[r - bottom])) for q, r in map(divmod, keys, repeat(w))
        ])

    order = cached_property(_decode)

    @cached_property
    def number(self) -> dict[Cell, int]:
        """Each cell's number: the one ``Cell`` index."""
        return dict(zip(self.order, range(len(self.around))))

    # -- basic queries ----------------------------------------------------

    @property
    def cells(self) -> KeysView[Cell]:
        """The cells as a set, read-only: the keys of ``number``."""
        return self.number.keys()

    def __len__(self) -> int:
        return len(self.around)

    def __contains__(self, c: Cell) -> bool:
        return c in self.number

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.order)

    def __eq__(self, other: object) -> bool:
        # Sorted, so two supports have equal cells iff equal ``order``s.
        return self is other or (isinstance(other, Support) and self.order == other.order)

    def __hash__(self) -> int:
        return hash(self.order)

    def __repr__(self) -> str:
        return f"Support({len(self)} cells, first={self.order[0]})"

    def edge_count(self) -> int:
        """The number of occupied adjacent pairs, read off ``present``."""
        return sum(map(int.bit_count, self.present)) // 2

    def occupied_neighbors(self, c: Cell) -> tuple[Cell, ...]:
        """The occupied neighbours of ``c``, by direction."""
        order = self.order
        return tuple(order[j] for j in self.around[self.number[c]] if j >= 0)

    def edges(self) -> list[tuple[Cell, Cell]]:
        """All occupied adjacent pairs ``(a, b)`` with ``a < b``: by ``a``, then
        by the direction from ``a`` to ``b``.  Cells not yet decoded are
        decoded for this list only, so counting edges through it leaves
        ``order`` empty; ``edge_count`` counts without any ``Cell``."""
        order = self.__dict__.get("order") or self._decode()
        return [(order[i], order[j]) for i, row in enumerate(self.around) for j in row if i < j]

    # -- boundary and holes -----------------------------------------------

    def boundary(self) -> frozenset[Cell]:
        """Occupied cells with at least one empty neighbour."""
        if self._boundary is None:
            self._boundary = frozenset(
                c for c, mask in zip(self.order, self.present) if mask != _ALL_DIRS
            )
        return self._boundary

    def is_simply_connected(self) -> bool:
        """True iff the support encloses no empty region.

        The occupancy graph is plane and connected, and its bounded faces
        are its T triangles of mutually adjacent cells plus one face per
        enclosed empty region, so Euler's formula reads V - E + T = 1 - holes.
        Each cell sees its edges as occupied directions and its triangle
        corners as pairs of cyclically consecutive occupied directions, so
        six times the count is the sum over cells of ``_EULER[mask]``, one
        lookup per cell.
        """
        return sum(map(_EULER.__getitem__, self.present)) == 6

    def hole_cells(self) -> frozenset[Cell]:
        """The empty cells of every enclosed region.

        One region's cells next to the support are connected among
        themselves, and the smallest empty neighbour, left of every support
        cell, is outer.  So the outer region is flooded through empty
        neighbours only, and the enclosed ones from those left over.
        """
        number = self.number
        rim = {nb for c in self.boundary() for nb in neighbors(c) if nb not in number}
        outer = _flood({min(rim)}, rim.__contains__)
        return frozenset(_flood(rim - outer, lambda nb: nb not in number))

    # -- articulation points and blocks -------------------------------------

    def articulation_points(self) -> frozenset[Cell]:
        if self._articulation is None:
            self._compute_blocks()
        return self._articulation  # type: ignore[return-value]

    def blocks(self) -> tuple[frozenset[Cell], ...]:
        """2-connected components of the occupancy graph (bridges give 2-cell blocks)."""
        if self._blocks is None:
            self._compute_blocks()
        return self._blocks  # type: ignore[return-value]

    def is_two_connected(self) -> bool:
        return not self.articulation_points()

    def _compute_blocks(self) -> None:
        # Iterative lowpoint computation with an edge stack.
        disc: dict[Cell, int] = {}
        low: dict[Cell, int] = {}
        parent: dict[Cell, Cell | None] = {}
        aps: set[Cell] = set()
        blocks: list[frozenset[Cell]] = []
        edge_stack: list[tuple[Cell, Cell]] = []
        counter = 0

        root = self.order[0]
        if len(self.order) == 1:
            self._articulation = frozenset()
            self._blocks = (frozenset({root}),)
            return

        parent[root] = None
        stack: list[tuple[Cell, Iterator[Cell]]] = [(root, iter(self.occupied_neighbors(root)))]
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0

        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if v not in disc:
                    parent[v] = u
                    disc[v] = low[v] = counter
                    counter += 1
                    edge_stack.append((u, v))
                    if u is root:
                        root_children += 1
                    stack.append((v, iter(self.occupied_neighbors(v))))
                    advanced = True
                    break
                elif v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:
                    if parent[p] is not None:
                        aps.add(p)
                    members: set[Cell] = set()
                    while edge_stack and disc[edge_stack[-1][0]] >= disc[u]:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                    if edge_stack and edge_stack[-1] == (p, u):
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                    members.add(p)
                    members.add(u)
                    blocks.append(frozenset(members))
        if root_children > 1:
            aps.add(root)
        self._articulation = frozenset(aps)
        self._blocks = tuple(blocks)

    # -- boundary classification -------------------------------------------

    def classify(self, p: Cell) -> BoundaryClass:
        """Trichotomy of a boundary particle: pending / articulation / angle."""
        i = self.number.get(p)
        if i is None:
            raise SupportError(f"{p} is not occupied")
        mask = self.present[i]
        if mask == _ALL_DIRS:
            raise SupportError(f"{p} is not on the boundary")
        if len(self.order) == 1:
            raise SupportError(f"{p} is a lone particle, which has no boundary class")
        occupied = mask.bit_count()
        if occupied == 1:
            return PENDING
        if p in self.articulation_points():
            return ARTICULATION
        if not CYCLIC_RUN[mask]:
            raise BoundaryStructureError(
                f"occupied neighbours of {p} do not form one arc but {p} is not "
                "an articulation point; support cannot be simply connected"
            )
        return angle_class(60 * (occupied - 1))


def _is_connected(around: tuple[tuple[int, ...], ...]) -> bool:
    """True iff every cell number is reached from cell 0 through ``around``.

    ``seen`` has one more slot than there are cells, at index n, set from
    the start: an empty neighbour, -1, indexes it and so reads as seen,
    and each row is unpacked with no test of ``j >= 0``.
    """
    n = len(around)
    seen = bytearray(n + 1)
    seen[0] = seen[n] = 1
    stack = [0]
    push, pop = stack.append, stack.pop
    while stack:
        a, b, c, d, e, f = around[pop()]
        if not seen[a]:
            seen[a] = 1
            push(a)
        if not seen[b]:
            seen[b] = 1
            push(b)
        if not seen[c]:
            seen[c] = 1
            push(c)
        if not seen[d]:
            seen[d] = 1
            push(d)
        if not seen[e]:
            seen[e] = 1
            push(e)
        if not seen[f]:
            seen[f] = 1
            push(f)
    return 0 not in seen


def _flood(seeds: set[Cell], inside: Callable[[Cell], bool]) -> set[Cell]:
    """``seeds`` and every cell reached from them through cells ``inside``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for nb in neighbors(stack.pop()):
            if nb not in seen and inside(nb):
                seen.add(nb)
                stack.append(nb)
    return seen


# -- boundary polygon -------------------------------------------------------


def boundary_cycle(s: Support) -> list[Cell]:
    """Boundary cells of a 2-connected support in polygon order.

    Consecutive cells share exactly one empty common neighbour; each
    boundary cell lies on exactly two such edges, so the boundary is a
    simple cycle.  The walk starts at the smallest boundary cell and the
    direction is fixed by the smaller of its two partners.
    """
    if len(s) < 3 or not s.is_two_connected():
        raise SupportError("boundary polygon requires a 2-connected support of >= 3 cells")
    bnd = s.boundary()
    partners: dict[Cell, list[Cell]] = {c: [] for c in bnd}
    for c in sorted(bnd):
        for n in s.occupied_neighbors(c):
            if n in bnd:
                empties = [x for x in common_neighbors(c, n) if x not in s]
                if len(empties) == 2:
                    raise BoundaryStructureError(
                        f"edge {c}-{n} has two empty common neighbours in a "
                        "2-connected support; support cannot be simply connected"
                    )
                if empties:
                    partners[c].append(n)
    for c, ns in partners.items():
        if len(ns) != 2:
            raise BoundaryStructureError(
                f"boundary cell {c} lies on {len(ns)} boundary edges, expected 2"
            )
    start = min(bnd)
    cycle = [start]
    prev, cur = None, start
    nxt = min(partners[start])
    while nxt != start:
        cycle.append(nxt)
        prev, cur = cur, nxt
        a, b = partners[cur]
        nxt = b if a == prev else a
    if len(cycle) != len(bnd):
        raise BoundaryStructureError("boundary walk did not visit every boundary cell")
    return cycle


# -- Euler-style census check ------------------------------------------------


def check_angle_census(s: Support) -> bool:
    """Angle census identity for 2-connected supports: 2*n60 + n120 - n240 == 6."""
    if len(s) < 3:
        raise SupportError("census identity needs at least three particles")
    if not s.is_two_connected():
        raise SupportError("census identity needs a 2-connected support")
    census = {60: 0, 120: 0, 180: 0, 240: 0}
    for c in s.boundary():
        cls = s.classify(c)
        if cls.kind is not BoundaryKind.ANGLE:
            raise BoundaryStructureError(f"unexpected {cls} on 2-connected boundary")
        census[cls.angle] += 1  # type: ignore[index]
    return 2 * census[60] + census[120] - census[240] == 6


# -- boundary witness --------------------------------------------------------


class PendingWitness(NamedTuple):
    cell: Cell


class SixtyWitness(NamedTuple):
    cell: Cell


class FlatPairWitness(NamedTuple):
    """Two 120-degree particles joined along the boundary by 180-degree cells."""

    first: Cell
    second: Cell
    path: tuple[Cell, ...]


Witness = Union[PendingWitness, SixtyWitness, FlatPairWitness]


def boundary_witness(s: Support) -> Witness:
    """Find the guaranteed boundary feature of a simply connected support.

    Every simply connected support with >= 2 particles contains a pending
    particle, a 60-degree particle, or two 120-degree particles joined by a
    (possibly empty) boundary path of 180-degree particles.  The returned
    witness is validated against the full support before being returned;
    failure to find one raises BoundaryStructureError, which would falsify
    the statement.
    """
    if len(s) < 2:
        raise SupportError("witness needs at least two particles")
    if not s.is_simply_connected():
        raise SupportError("witness is only guaranteed for simply connected supports")

    for c in s:
        if len(s.occupied_neighbors(c)) == 1:
            return PendingWitness(c)

    # No pending particle: every leaf block is 2-connected with >= 3 cells.
    cut = s.articulation_points()
    block = _leaf_block(s, cut)
    inner_cut = block & cut
    excluded = next(iter(inner_cut)) if inner_cut else None
    sub = Support(block)

    for c in sub:
        if excluded is not None and c == excluded:
            continue
        if c in sub.boundary() and sub.classify(c) == angle_class(60):
            witness: Witness = SixtyWitness(c)
            _validate_witness(s, witness)
            return witness

    cycle = boundary_cycle(sub)
    angles = {c: sub.classify(c) for c in cycle}
    m = len(cycle)
    idx120 = [
        i
        for i, c in enumerate(cycle)
        if angles[c] == angle_class(120) and c != excluded
    ]
    for a, b in zip(idx120, idx120[1:] + idx120[:1]):
        gap = [cycle[i % m] for i in range(a + 1, a + 1 + (b - a - 1) % m)]
        if excluded is not None and excluded in gap:
            continue
        if all(angles[c] == angle_class(180) for c in gap):
            witness = FlatPairWitness(cycle[a], cycle[b], tuple(gap))
            _validate_witness(s, witness)
            return witness
    raise BoundaryStructureError(
        f"no boundary witness found on {s!r}; the boundary trichotomy is falsified"
    )


def _leaf_block(s: Support, cut: frozenset[Cell]) -> frozenset[Cell]:
    """A block containing at most one articulation point of ``s``."""
    best = None
    for block in s.blocks():
        inner = len(block & cut)
        if inner <= 1:
            key = (len(block), sorted(block))
            if best is None or key < best[0]:
                best = (key, block)
    if best is None:
        raise BoundaryStructureError("block tree has no leaf; impossible for a finite graph")
    return best[1]


def _validate_witness(s: Support, w: Witness) -> None:
    if isinstance(w, PendingWitness):
        ok = len(s.occupied_neighbors(w.cell)) == 1
    elif isinstance(w, SixtyWitness):
        ok = s.classify(w.cell) == angle_class(60)
    else:
        ok = (
            s.classify(w.first) == angle_class(120)
            and s.classify(w.second) == angle_class(120)
            and all(s.classify(c) == angle_class(180) for c in w.path)
        )
    if not ok:
        raise BoundaryStructureError(f"witness {w} does not hold in the full support")


# -- canonical forms ----------------------------------------------------------


def _symmetries() -> tuple[tuple[int, int, int, int], ...]:
    """The 12 lattice symmetries fixing the origin, each ``(a, b, c, d)``
    mapping ``(q, r)`` to ``(a q + b r, c q + d r)``: the six rotations by
    60 degrees, and the same after the mirror ``(q, r) -> (q + r, -r)``."""
    out = []
    for a, b, c, d in ((1, 0, 0, 1), (1, 1, 0, -1)):
        for _ in range(6):
            a, b, c, d = -c, -d, a + c, b + d  # then rotate: (q, r) -> (-r, q + r)
            out.append((a, b, c, d))
    return tuple(out)


_SYMMETRIES = _symmetries()


def symmetry_canonical_keys(keys: Iterable[int], frame: KeyFrame) -> tuple[int, ...]:
    """The smallest canonical translate, over the 12-element lattice
    symmetry group, of a connected shape of at most ``frame.w`` cells given
    as keys, for shapes whose canonical translates fit ``frame``.  A
    canonical translate has its smallest cell at the origin.

    A symmetry is linear in ``divmod(key, w)``, and every image is a
    connected shape, so its r spread is below ``w`` and its keys
    ``(a w + c) q + (b w + d) r`` sort like its cells: the image's smallest
    key moved to the origin's key gives its canonical translate.
    """
    w = frame.w
    origin = frame.key(0, 0)
    pairs = [divmod(k, w) for k in keys]
    best: tuple[int, ...] | None = None
    for a, b, c, d in _SYMMETRIES:
        x, y = a * w + c, b * w + d
        image = sorted([x * q + y * r for q, r in pairs])
        shift = origin - image[0]
        cand = tuple([k + shift for k in image])
        if best is None or cand < best:
            best = cand
    assert best is not None
    return best


def automorphisms(s: Support) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The lattice symmetries other than the identity that map ``s`` onto
    itself, each as ``(cells, dirs)``: ``cells[i]`` is the number of the
    image of cell ``i`` and ``dirs[d]`` the image of direction ``d``.

    A symmetry's image of ``s`` is a translate of ``s`` iff the translate
    that moves the image's smallest cell onto ``s``'s smallest cell lies in
    ``s``, since both have ``len(s)`` cells.
    """
    number = s.number
    q0, r0 = s.order[0]
    found = []
    for a, b, c, d in _SYMMETRIES:
        if (a, b, c, d) == (1, 0, 0, 1):
            continue
        image = [(a * q + b * r, c * q + d * r) for q, r in s.order]
        mq, mr = min(image)
        cells = tuple([number.get((q + q0 - mq, r + r0 - mr), -1) for q, r in image])
        if -1 not in cells:
            dirs = tuple([DIR_OFFSETS.index((a * x + b * y, c * x + d * y)) for x, y in DIR_OFFSETS])
            found.append((cells, dirs))
    return found


# -- shape files --------------------------------------------------------------


def parse_shape_text(text: str) -> list[Cell]:
    """Parse the one-cell-per-line ``q r`` shape format ('#' comments allowed)."""
    cells = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SupportError(f"line {lineno}: expected 'q r', got {raw!r}")
        try:
            cells.append(Cell(int(parts[0]), int(parts[1])))
        except ValueError:
            raise SupportError(f"line {lineno}: non-integer coordinate in {raw!r}") from None
    if not cells:
        raise SupportError("contains no cells")
    return cells


def format_shape_text(cells: Iterable[Cell]) -> str:
    return "".join(f"{c.q} {c.r}\n" for c in sorted(set(cells)))
