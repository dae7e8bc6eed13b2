"""Axial geometry of the infinite triangular grid and private port labellings.

Cells are integer axial pairs (q, r).  The six global directions run
counter-clockwise through the fixed unit offsets below, so opposite
directions differ by 3 mod 6.  The global frame exists only inside the
simulator: particles themselves see the grid through a private PortMap
that relabels directions as local ports 0..5, with an arbitrary rotation
offset and an arbitrary handedness.  Nothing in the particle-visible API
may leak a global direction.
"""

from __future__ import annotations

from typing import NamedTuple

#: Global direction index, 0..5 counter-clockwise.
Dir = int

N_DIRS = 6

# Unit offsets for directions 0..5 (counter-clockwise).
DIR_OFFSETS: tuple[tuple[int, int], ...] = (
    (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1),
)

_OFFSET_TO_DIR = {off: d for d, off in enumerate(DIR_OFFSETS)}


class Cell(NamedTuple):
    """A node of the grid in axial coordinates."""

    q: int
    r: int


def neighbor(c: Cell, d: Dir) -> Cell:
    dq, dr = DIR_OFFSETS[d % N_DIRS]
    return Cell(c.q + dq, c.r + dr)


def neighbors(c: Cell) -> tuple[Cell, ...]:
    """The six adjacent cells of ``c``, indexed by direction."""
    return tuple(Cell(c.q + dq, c.r + dr) for dq, dr in DIR_OFFSETS)


def direction_from(a: Cell, b: Cell) -> Dir:
    """Direction index such that stepping from ``a`` reaches ``b``."""
    try:
        return _OFFSET_TO_DIR[(b.q - a.q, b.r - a.r)]
    except KeyError:
        raise ValueError(f"cells {a} and {b} are not adjacent") from None


def _cyclic_run_table() -> tuple[bool, ...]:
    table = []
    for mask in range(1 << N_DIRS):
        runs = sum(
            1
            for d in range(N_DIRS)
            if mask >> d & 1 and not mask >> ((d - 1) % N_DIRS) & 1
        )
        table.append(runs <= 1)
    return tuple(table)


#: ``CYCLIC_RUN[mask]`` is True iff the set bits of a six-bit direction (or
#: port) mask form one cyclically contiguous run.  The empty and the full
#: mask both pass.  This is the one reading of "consecutive ports" that the
#: rule checkers, the reference step, the packed oracle and the scheduler's
#: compiled engine share.  It is also the local test of growth: an empty
#: cell next to a simply connected set joins it without opening a hole
#: exactly when the cell's occupied neighbours form one run.
CYCLIC_RUN = _cyclic_run_table()

#: ``ERODIBLE[mask]`` is True iff the set bits of ``mask`` form one cyclic
#: run of one to three bits.  A cell whose occupied neighbours are such a
#: run can leave a simply connected set without disconnecting it, since
#: the run is itself a path.
ERODIBLE = tuple(1 <= m.bit_count() <= 3 and CYCLIC_RUN[m] for m in range(1 << N_DIRS))

def _set_dirs_table() -> tuple[tuple[tuple[Dir, int], ...], ...]:
    """Each entry is the entry of the mask without its highest direction
    ``d``, plus ``d``: one lookup per mask, not a test of all six bits."""
    table: list[tuple[tuple[Dir, int], ...]] = [()]
    for mask in range(1, 1 << N_DIRS):
        d = mask.bit_length() - 1
        table.append(table[mask ^ 1 << d] + ((d, 1 << (d + 3) % N_DIRS),))
    return tuple(table)


#: ``SET_DIRS[mask]``: ``(d, 1 << (d + 3) % 6)`` for every direction ``d``
#: set in ``mask``, in increasing order: the direction and the bit at which
#: the neighbour in that direction sees the cell.  A loop over the set
#: bits of a direction mask reads this instead of shift-testing all six.
#: Where masks are symmetric (bit ``d`` of a cell's mask is set iff the
#: neighbour at ``d`` has the cell's bit set), that bit is the one to flip
#: at the neighbour when the edge at ``d`` changes.
SET_DIRS = _set_dirs_table()


def common_neighbors(a: Cell, b: Cell) -> set[Cell]:
    """The two cells adjacent to both endpoints of an edge."""
    d = direction_from(a, b)
    return {neighbor(a, (d - 1) % N_DIRS), neighbor(a, (d + 1) % N_DIRS)}


class PortMap:
    """A particle's private bijection between local ports and directions.

    ``offset`` is the direction of port 0; ``chirality`` is +1 when ports
    increase counter-clockwise and -1 when they increase clockwise.
    Consecutive ports always reach neighbouring nodes.  ``dirs[port]`` is
    the direction of a port and ``ports[d]`` the port facing direction
    ``d``; both are derived from the two fields and take no part in
    equality or the repr.

    There is one object per labelling: ``PortMap(offset, chirality)``,
    ``pickle`` and ``copy`` all return the one in ``ALL_PORTMAPS``.  So
    equal port maps are identical and the identity hash, computed in C,
    agrees with equality; every ``OUT_MASK``/``REGISTER`` lookup hashes one.
    A port map is frozen: assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``, as the frozen dataclass it was
    did.  It is a plain class so that importing the package loads neither
    ``dataclasses`` nor the ``inspect`` that it imports.
    """

    __slots__ = ("offset", "chirality", "dirs", "ports")

    offset: int
    chirality: int
    dirs: tuple[Dir, ...]
    ports: tuple[int, ...]

    def __new__(cls, offset: int, chirality: int) -> PortMap:
        try:
            return _SHARED[offset, chirality]
        except KeyError:
            pass
        if not 0 <= offset < N_DIRS:
            raise ValueError(f"port map offset {offset} out of range")
        raise ValueError(f"chirality must be +1 or -1, got {chirality}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PortMap:
            return NotImplemented
        return (self.offset, self.chirality) == (other.offset, other.chirality)  # type: ignore[attr-defined]

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"PortMap(offset={self.offset}, chirality={self.chirality})"

    def __reduce__(self) -> tuple[type[PortMap], tuple[int, int]]:
        return PortMap, (self.offset, self.chirality)

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _shared_portmaps() -> dict[tuple[int, int], PortMap]:
    shared = {}
    for chirality in (1, -1):
        for offset in range(N_DIRS):
            m = object.__new__(PortMap)
            for name, value in (
                ("offset", offset),
                ("chirality", chirality),
                ("dirs", tuple((offset + chirality * port) % N_DIRS for port in range(N_DIRS))),
                ("ports", tuple((chirality * (d - offset)) % N_DIRS for d in range(N_DIRS))),
            ):
                object.__setattr__(m, name, value)
            shared[offset, chirality] = m
    return shared


#: ``_SHARED[offset, chirality]``: the one ``PortMap`` of that labelling.
_SHARED = _shared_portmaps()

#: All twelve distinct port labellings of a particle.
ALL_PORTMAPS: tuple[PortMap, ...] = tuple(_SHARED.values())

#: Offset 0, counter-clockwise: the same object as ``ALL_PORTMAPS[0]``, so
#: lookups keyed by it in the register tables match by identity.
IDENTITY_PORTMAP = ALL_PORTMAPS[0]


def port_to_dir(m: PortMap, port: int) -> Dir:
    return m.dirs[port]


def dir_to_port(m: PortMap, d: Dir) -> int:
    return m.ports[d]
