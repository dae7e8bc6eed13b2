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

The ``check_r*`` functions and ``sinks`` are the object reference.  They
read a ``Configuration``'s port maps and registers only, along the
support's cell numbering: the neighbour of p at direction d is
``around[number[p]][d]``, cell number j's port map is ``portmaps[j]``
and its register ``register(j)``, and the port facing d is the port
map's ``ports[d]``.  They are the omniscient verdict only: what a
particle itself reads, R4 inferred from its view included, is in
``views``, and ``algorithm.step_register`` is built on that.  ``RULE``
is the same R2/R3/R4 as one 64-entry table over a cell's Out mask, read
as stored by the scheduler's mask engine and by ``oracle.ConfigGraph``;
the reference reads neither it nor the stored masks
(``Configuration.masks``) nor the register tables ``config.OUT_MASK``
and ``config.REGISTER``, so tests that compare the two compare
independent derivations.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import CYCLIC_RUN, Cell, N_DIRS
from .config import OUT, Configuration


def _consecutive_cyclic(ports: tuple[int, ...]) -> bool:
    """True iff the distinct ports form one contiguous run on the 6-cycle (empty passes)."""
    mask = 0
    for p in ports:
        mask |= 1 << p
    return CYCLIC_RUN[mask]


def _rule_table() -> tuple[tuple[tuple[int, int, int], ...] | None, ...]:
    table: list[tuple[tuple[int, int, int], ...] | None] = []
    for mask in range(1 << N_DIRS):
        if mask.bit_count() > 3 or not CYCLIC_RUN[mask]:
            table.append(None)
            continue
        twice = mask | mask << N_DIRS
        # ``twice >> d & 3`` is 1 where the run ends at d, 2 where it starts at
        # d + 1: the triangle with corners at d and d + 1 has the cell Out
        # toward x at d + flip only, and x's far edge leads to the other
        # corner, at d + 2 from x for flip 0 and at d + 5 for flip 1.
        table.append(tuple(
            ((d + flip) % N_DIRS, 1 << (d + 2 + 3 * flip) % N_DIRS, 1 << d | 1 << (d + 1) % N_DIRS)
            for d in range(N_DIRS)
            if (flip := (twice >> d & 3) - 1) in (0, 1)
        ))
    return tuple(table)


#: ``RULE[mask]``: the repair rule at a cell whose Out flags over
#: directions are ``mask``.  None if R2 or R3 breaks; else one ``(x_dir,
#: bit, near)`` triple for each of the at most two triangles, at the ends
#: of the Out run, that can close a directed 3-cycle: the direction of the
#: neighbour ``x`` the cell is Out toward, the bit of ``x``'s Out mask on
#: the triangle's far edge, and the cell's two near edges.  The triangle
#: is a directed 3-cycle iff both near edges are directed and ``x`` is Out
#: on the far edge while the other corner is not.
RULE = _rule_table()


def check_r1(c: Configuration, p: Cell) -> bool:
    """Every edge at ``p`` is agreed-directed: no undirected, no conflict."""
    register, portmaps = c.register, c.portmaps
    i = c.number_of(p)
    reg, ports = register(i), portmaps[i].ports
    for d, j in enumerate(c.support.around[i]):
        # Directed and agreed iff exactly one end holds Out.
        if j >= 0 and (reg[ports[d]] is OUT) is (
            register(j)[portmaps[j].ports[(d + 3) % N_DIRS]] is OUT
        ):
            return False
    return True


def check_r2(c: Configuration, p: Cell) -> bool:
    """At most three outgoing edges."""
    return len(c.outgoing_ports(p)) <= 3


def check_r3(c: Configuration, p: Cell) -> bool:
    """Outgoing ports are cyclically consecutive."""
    return _consecutive_cyclic(c.outgoing_ports(p))


def check_r4(c: Configuration, p: Cell) -> bool:
    """No triangle containing ``p`` is a directed 3-cycle (omniscient reading)."""
    register, portmaps = c.register, c.portmaps
    i = c.number_of(p)
    reg = register(i)
    row = c.support.around[i]
    ports = portmaps[i].ports
    for d in range(N_DIRS):
        j, k = row[d], row[(d + 1) % N_DIRS]
        if j < 0 or k < 0:
            continue
        q_reg, q_ports = register(j), portmaps[j].ports
        r_reg, r_ports = register(k), portmaps[k].ports
        # q lies at d from p and r at d + 1, so r lies at d + 2 from q, and
        # p at d + 3 from q and at d + 4 from r.  ``xy``: x is Out toward y.
        pq, qp = reg[ports[d]] is OUT, q_reg[q_ports[(d + 3) % N_DIRS]] is OUT
        qr, rq = q_reg[q_ports[(d + 2) % N_DIRS]] is OUT, r_reg[r_ports[(d + 5) % N_DIRS]] is OUT
        rp, pr = r_reg[r_ports[(d + 4) % N_DIRS]] is OUT, reg[ports[(d + 1) % N_DIRS]] is OUT
        if pq and not qp and qr and not rq and rp and not pr:  # p -> q -> r -> p
            return False
        if pr and not rp and rq and not qr and qp and not pq:  # p -> r -> q -> p
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


class RuleReport(NamedTuple):
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
