"""Local validity checkers and the certificate they add up to.

A configuration is valid when every particle passes all four checks:

  R1  every incident particle edge is directed and both sides agree;
  R2  at most three outgoing edges (edges to empty cells count incoming);
  R3  the outgoing ports form one cyclically contiguous run;
  R4  no triangle of particles carries a directed 3-cycle.

R1 fails on undirected edges and on Out/Out conflicts alike.  For R4 only
coherently directed edges can close a cycle; undirected and conflict
edges cannot.  Global cycles longer than three are deliberately not
forbidden: a valid configuration still has exactly one sink, which is the
elected leader.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import CYCLIC_RUN, Cell, N_DIRS, neighbor
from .config import Configuration, EdgeOrientation


def _consecutive_cyclic(ports: tuple[int, ...]) -> bool:
    """True iff the distinct ports form one contiguous run on the 6-cycle (empty passes)."""
    mask = 0
    for p in ports:
        mask |= 1 << p
    return CYCLIC_RUN[mask]


def check_r1(c: Configuration, p: Cell) -> bool:
    """Every edge at ``p`` is agreed-directed: no undirected, no conflict."""
    for n in c.support.occupied_neighbors(p):
        o = c.orientation(p, n)
        if o is EdgeOrientation.UNDIRECTED or o is EdgeOrientation.CONFLICT:
            return False
    return True


def check_r2(c: Configuration, p: Cell) -> bool:
    """At most three outgoing edges."""
    return len(c.outgoing_ports(p)) <= 3


def check_r3(c: Configuration, p: Cell) -> bool:
    """Outgoing ports are cyclically consecutive."""
    return _consecutive_cyclic(c.outgoing_ports(p))


def triangles_at(c: Configuration, p: Cell) -> list[tuple[Cell, Cell]]:
    """Occupied neighbour pairs (q, r) of ``p`` at consecutive directions."""
    cells = c.support.cells
    nbs = [neighbor(p, d) for d in range(N_DIRS)]
    out = []
    for d in range(N_DIRS):
        q, r = nbs[d], nbs[(d + 1) % N_DIRS]
        if q in cells and r in cells:
            out.append((q, r))
    return out


def _directed(c: Configuration, a: Cell, b: Cell) -> bool:
    return c.orientation(a, b) is EdgeOrientation.A_TO_B


def check_r4(c: Configuration, p: Cell) -> bool:
    """No triangle containing ``p`` is a directed 3-cycle (omniscient reading)."""
    for q, r in triangles_at(c, p):
        if _directed(c, p, q) and _directed(c, q, r) and _directed(c, r, p):
            return False
        if _directed(c, p, r) and _directed(c, r, q) and _directed(c, q, p):
            return False
    return True


def sinks(c: Configuration) -> frozenset[Cell]:
    """Particles with no outgoing edges."""
    return frozenset(p for p in c.support if not c.outgoing_ports(p))


def violating_particles(c: Configuration) -> frozenset[Cell]:
    return frozenset(
        p
        for p in c.support
        if not (check_r1(c, p) and check_r2(c, p) and check_r3(c, p) and check_r4(c, p))
    )


def is_valid(c: Configuration) -> bool:
    return not violating_particles(c)


@dataclass(frozen=True)
class RuleReport:
    per_particle: dict[Cell, tuple[bool, bool, bool, bool]]
    valid: bool
    sinks: frozenset[Cell]
    violating: frozenset[Cell]

    def to_records(self) -> list[str]:
        """One line per particle: ``q r r1 r2 r3 r4``."""
        lines = []
        for p in sorted(self.per_particle):
            flags = " ".join("ok" if b else "FAIL" for b in self.per_particle[p])
            lines.append(f"{p.q} {p.r} {flags}")
        return lines

    def to_text(self) -> str:
        head = f"valid={'yes' if self.valid else 'no'} sinks={len(self.sinks)}"
        return "\n".join([head] + self.to_records())


def rule_report(c: Configuration) -> RuleReport:
    per = {
        p: (check_r1(c, p), check_r2(c, p), check_r3(c, p), check_r4(c, p))
        for p in c.support
    }
    violating = frozenset(p for p, flags in per.items() if not all(flags))
    return RuleReport(
        per_particle=per,
        valid=not violating,
        sinks=sinks(c),
        violating=violating,
    )
