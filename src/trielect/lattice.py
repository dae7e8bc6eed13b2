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

from dataclasses import dataclass
from typing import Iterator, NamedTuple

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


def opposite(d: Dir) -> Dir:
    return (d + 3) % N_DIRS


def are_adjacent(a: Cell, b: Cell) -> bool:
    return (b.q - a.q, b.r - a.r) in _OFFSET_TO_DIR


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
#: compiled engine share.
CYCLIC_RUN = _cyclic_run_table()


def common_neighbors(a: Cell, b: Cell) -> set[Cell]:
    """The two cells adjacent to both endpoints of an edge."""
    d = direction_from(a, b)
    return {neighbor(a, (d - 1) % N_DIRS), neighbor(a, (d + 1) % N_DIRS)}


@dataclass(frozen=True, slots=True)
class PortMap:
    """A particle's private bijection between local ports and directions.

    ``offset`` is the direction of port 0; ``chirality`` is +1 when ports
    increase counter-clockwise and -1 when they increase clockwise.
    Consecutive ports always reach neighbouring nodes.
    """

    offset: int
    chirality: int

    def __post_init__(self) -> None:
        if not 0 <= self.offset < N_DIRS:
            raise ValueError(f"port map offset {self.offset} out of range")
        if self.chirality not in (1, -1):
            raise ValueError(f"chirality must be +1 or -1, got {self.chirality}")


IDENTITY_PORTMAP = PortMap(0, 1)

#: All twelve distinct port labellings of a particle.
ALL_PORTMAPS: tuple[PortMap, ...] = tuple(
    PortMap(off, chi) for chi in (1, -1) for off in range(N_DIRS)
)


def port_to_dir(m: PortMap, port: int) -> Dir:
    return (m.offset + m.chirality * port) % N_DIRS


def dir_to_port(m: PortMap, d: Dir) -> int:
    return (m.chirality * (d - m.offset)) % N_DIRS


def ports(c: Cell, m: PortMap) -> Iterator[tuple[int, Cell]]:
    """Yield (port, neighbouring cell) for each of the six local ports."""
    for p in range(N_DIRS):
        yield p, neighbor(c, port_to_dir(m, p))
