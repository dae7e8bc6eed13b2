"""Port-label views and chirality inference inside triangles.

The label of a walk is the sequence of (exit port, entry port) pairs it
traverses; view_k(p) is the set of labels of all walks of length at most
k starting at p.  Walks may revisit cells: the label of a walk determines
the walk, so views are prefix-deterministic, and using walks rather than
simple paths only ever adds labels.

A particle p in a triangle pqr knows its own two ports on the triangle
and the ports its neighbours assign to the shared edges.  The ports q and
r use for the third edge qr are each one of two values consecutive to the
known ones, giving four candidate labelings.  Exactly one candidate
survives the view_3 membership formula below, even when p and q share a
second common neighbour; from it p recovers q's handedness relative to
its own and the full orientation of every edge in the triangle, which is
all the triangle rule needs.  Depth 3 suffices and is the default
everywhere.

Because a label names at most one walk, "label in view_3(p)" is answered
by walking it: ``in_view`` follows the exit ports from p along the
support's cell numbering and checks each entry port against the port the
next cell assigns to the edge.  A step reads the direction of the exit
port from the port map's ``dirs``, the next cell number from
``Support.around``, that cell's port map, and its port facing back from
the map's ``ports``.  The formula asks about a dozen such questions per
triangle, so ``local_check_r4`` and ``infer_triangle_labels`` never build
the whole view; ``build_view`` is the definition of view_k and the
reference ``in_view`` is tested against.  Like the omniscient checkers in
``rules``, these readers see a configuration's port maps and registers
only, and local R4 learns the far edge of a triangle from view
membership alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .lattice import Cell, N_DIRS, neighbor, port_to_dir
from .config import OUT, Configuration

#: Sequence of (exit port at step i, entry port at step i+1) pairs.
PathLabel = tuple[tuple[int, int], ...]

VIEW_DEPTH = 3


class ChiralityInferenceError(RuntimeError):
    """No or several candidate labelings satisfy the view formula.

    Raising this would falsify the triangle-chirality statement; it is
    never expected on well-formed configurations.
    """


@dataclass(frozen=True)
class View:
    owner: Cell
    depth: int
    labels: frozenset[PathLabel]

    def __contains__(self, label: PathLabel) -> bool:
        return label in self.labels


def build_view(c: Configuration, p: Cell, k: int = VIEW_DEPTH) -> View:
    """Labels of all walks of length <= k over occupied cells starting at p."""
    if p not in c.support.cells:
        raise ValueError(f"{p} is not occupied")
    if k < 1:
        raise ValueError("view depth must be >= 1")
    labels: set[PathLabel] = set()
    frontier: list[tuple[Cell, PathLabel]] = [(p, ())]
    for _ in range(k):
        nxt: list[tuple[Cell, PathLabel]] = []
        for cell, label in frontier:
            pm = c.portmaps[cell]
            for port in range(N_DIRS):
                n = neighbor(cell, port_to_dir(pm, port))
                if n not in c.support.cells:
                    continue
                extended = label + ((port, c.port_of(n, cell)),)
                labels.add(extended)
                nxt.append((n, extended))
        frontier = nxt
    return View(owner=p, depth=k, labels=frozenset(labels))


def in_view(c: Configuration, p: Cell, label: PathLabel) -> bool:
    """``label in build_view(c, p).labels``, decided by walking the label.

    Holds iff the label is non-empty, no longer than ``VIEW_DEPTH``, and
    the walk it names exists: every exit port leads to an occupied cell
    whose port back along the edge is the recorded entry port.
    """
    if not 0 < len(label) <= VIEW_DEPTH:
        return False
    support, portmaps = c.support, c.portmaps
    order, around = support.order, support.around
    i = support.number[p]
    pm = portmaps[p]
    for exit_port, entry_port in label:
        if not 0 <= exit_port < N_DIRS:
            return False
        d = pm.dirs[exit_port]
        i = around[i][d]
        if i < 0:
            return False
        pm = portmaps[order[i]]
        if pm.ports[(d + 3) % N_DIRS] != entry_port:
            return False
    return True


def _formula_holds(
    has: Callable[[PathLabel], bool],
    p0: int,
    p1: int,
    q1: int,
    r1: int,
    x: int,
    y: int,
) -> bool:
    """Membership formula deciding whether edge qr is labelled (x, y).

    ``has`` answers view_3(p) membership.  p0/p1 are p's ports toward
    r/q; q1 and r1 are the ports q and r assign to their edges with p.
    The derived port numbers continue each particle's 0..5 progression in
    the sense fixed by the candidate.
    """
    q0 = (2 * q1 - x) % N_DIRS
    r2 = (2 * r1 - y) % N_DIRS
    r5 = (2 * y - r1) % N_DIRS
    p2 = (2 * p1 - p0) % N_DIRS
    return (
        has(((p1, q1), (x, y), (r1, p0)))  # around the triangle
        and has(((p0, r1), (y, x), (q1, p1)))  # and back
        and not (has(((p1, q1), (q0, r2))) and has(((p2, r5),)))  # not the other triangle
    )


def _infer(
    has: Callable[[PathLabel], bool], p0: int, p1: int, q1: int, r1: int
) -> tuple[int, int]:
    matches = [
        (x, y)
        for x in ((q1 + 1) % N_DIRS, (q1 - 1) % N_DIRS)
        for y in ((r1 + 1) % N_DIRS, (r1 - 1) % N_DIRS)
        if _formula_holds(has, p0, p1, q1, r1, x, y)
    ]
    if len(matches) != 1:
        raise ChiralityInferenceError(
            f"{len(matches)} candidate labelings survive the view formula"
        )
    return matches[0]


def infer_triangle_labels(c: Configuration, p: Cell, q: Cell, r: Cell) -> tuple[int, int]:
    """True port labels (q's port toward r, r's port toward q), seen from p.

    Uses only view_3(p) membership (``in_view``) plus the labels q and r
    assign to their edges with p: the far edge's labels come from the view.
    """
    support, portmaps = c.support, c.portmaps
    number, around = support.number, support.around
    i, j, k = number[p], number[q], number[r]
    row = around[i]
    if j not in row or k not in row or k not in around[j]:
        raise ValueError(f"{p}, {q}, {r} do not form a triangle")
    dq, dr = row.index(j), row.index(k)
    p_ports = portmaps[p].ports
    p1, p0 = p_ports[dq], p_ports[dr]
    q1 = portmaps[q].ports[(dq + 3) % N_DIRS]
    r1 = portmaps[r].ports[(dr + 3) % N_DIRS]
    try:
        return _infer(partial(in_view, c, p), p0, p1, q1, r1)
    except ChiralityInferenceError as exc:
        raise ChiralityInferenceError(f"edge {q}-{r} seen from {p}: {exc}") from None


def local_check_r4(c: Configuration, p: Cell) -> bool:
    """Triangle rule at ``p`` computed from view_3(p) and neighbour registers.

    Agrees pointwise with the omniscient checker: the only extra knowledge
    the omniscient version uses is the labelling of the far edge of each
    triangle, which the view formula recovers.
    """
    support, regs, portmaps = c.support, c.regs, c.portmaps
    order = support.order
    row = support.around[support.number[p]]
    reg, ports = regs[p], portmaps[p].ports
    has = partial(in_view, c, p)
    for d in range(N_DIRS):
        j, k = row[d], row[(d + 1) % N_DIRS]
        if j < 0 or k < 0:
            continue
        q, r = order[j], order[k]
        # q lies at d from p and r at d + 1; each meets p from the opposite side.
        p1, p0 = ports[d], ports[(d + 1) % N_DIRS]
        q1 = portmaps[q].ports[(d + 3) % N_DIRS]
        r1 = portmaps[r].ports[(d + 4) % N_DIRS]
        q_to_r, r_to_q = _infer(has, p0, p1, q1, r1)
        q_reg, r_reg = regs[q], regs[r]
        # ``xy``: x is Out toward y.
        pq, qp = reg[p1] is OUT, q_reg[q1] is OUT
        pr, rp = reg[p0] is OUT, r_reg[r1] is OUT
        qr, rq = q_reg[q_to_r] is OUT, r_reg[r_to_q] is OUT
        if pq and not qp and qr and not rq and rp and not pr:  # p -> q -> r -> p
            return False
        if pr and not rp and rq and not qr and qp and not pq:  # p -> r -> q -> p
            return False
    return True
