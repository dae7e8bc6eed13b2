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
by walking it, and every walk goes through one step helper,
``_stepper``: it leaves a cell number with its port map through an exit
port and returns the next cell number, that cell's port map (read by
number, ``Configuration.portmaps[j]``) and the entry port, the next
cell's port back along the edge.  ``in_view`` walks a whole label with
it.  The formula asks about sixteen labels per triangle, four per
candidate, but they share their walks, and ``_candidates`` takes each
walk once.  The walk from p to q and on out of q's port x reaches one
cell, and the entry port there is the only y the first conjunct can
accept: so of the four candidates only the two values of x remain, each
with the y its walk fixes, and the other conjuncts are single walks.
``local_check_r4`` and ``infer_triangle_labels`` therefore never build
the whole view; ``build_view`` is the definition of view_k and the
reference the walks are tested against.  Like the omniscient checkers in
``rules``, these readers see a configuration's port maps and registers
only, each read by cell number (``portmaps[j]``, ``register(j)``), and
local R4 learns the far edge of a triangle from view walks alone,
walking only for the triangles whose far edge can close a directed
3-cycle (see ``local_check_r4``).  Every reader raises ``ConfigError``
for a cell outside the support.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .lattice import Cell, N_DIRS, PortMap, neighbor, port_to_dir
from .config import OUT, ConfigError, Configuration

#: Sequence of (exit port at step i, entry port at step i+1) pairs.
PathLabel = tuple[tuple[int, int], ...]

VIEW_DEPTH = 3


class ChiralityInferenceError(RuntimeError):
    """No or several candidate labelings satisfy the view formula.

    Raising this would falsify the triangle-chirality statement; it is
    never expected on well-formed configurations.  ``local_check_r4``
    infers only the triangles whose near edges form a directed path
    through the particle, so it can raise this only for such a triangle;
    ``infer_triangle_labels`` infers the triangle it is asked about.
    """


class View(NamedTuple):
    owner: Cell
    depth: int
    labels: frozenset[PathLabel]

    def __contains__(self, label: PathLabel) -> bool:
        return label in self.labels


def build_view(c: Configuration, p: Cell, k: int = VIEW_DEPTH) -> View:
    """Labels of all walks of length <= k over occupied cells starting at p."""
    c.number_of(p)  # a cell outside the support is a ConfigError
    if k < 1:
        raise ValueError("view depth must be >= 1")
    labels: set[PathLabel] = set()
    frontier: list[tuple[Cell, PathLabel]] = [(p, ())]
    for _ in range(k):
        nxt: list[tuple[Cell, PathLabel]] = []
        for cell, label in frontier:
            pm = c.portmaps[c.number_of(cell)]
            for port in range(N_DIRS):
                n = neighbor(cell, port_to_dir(pm, port))
                if n not in c.support:
                    continue
                extended = label + ((port, c.port_of(n, cell)),)
                labels.add(extended)
                nxt.append((n, extended))
        frontier = nxt
    return View(owner=p, depth=k, labels=frozenset(labels))


#: Where a walk step arrives: the cell number, its port map, the entry port.
Arrival = tuple[int, PortMap, int]
Step = Callable[[int, PortMap, int], "Arrival | None"]


def _stepper(c: Configuration) -> Step:
    """The one walk step over ``c``'s support.

    ``step(i, pm, exit_port)`` leaves cell number ``i``, whose port map is
    ``pm``, through ``exit_port`` and returns the next cell's number, its
    port map and its port back along the edge (the entry port), or None
    when the exit port faces an empty cell.
    """
    portmaps, around = c.portmaps, c.support.around

    def step(i: int, pm: PortMap, exit_port: int) -> Arrival | None:
        d = pm.dirs[exit_port]
        j = around[i][d]
        if j < 0:
            return None
        pm = portmaps[j]
        return j, pm, pm.ports[(d + 3) % N_DIRS]

    return step


def in_view(c: Configuration, p: Cell, label: PathLabel) -> bool:
    """``label in build_view(c, p).labels``, decided by walking the label.

    Holds iff the label is non-empty, no longer than ``VIEW_DEPTH``, and
    the walk it names exists: every exit port leads to an occupied cell
    whose port back along the edge is the recorded entry port.
    """
    i = c.number_of(p)
    if not 0 < len(label) <= VIEW_DEPTH:
        return False
    step = _stepper(c)
    pm = c.portmaps[i]
    for exit_port, entry_port in label:
        if not 0 <= exit_port < N_DIRS:
            return False
        at = step(i, pm, exit_port)
        if at is None or at[2] != entry_port:
            return False
        i, pm, _ = at
    return True


def _candidates(
    step: Step, i: int, pm: PortMap, p0: int, p1: int, q: Arrival, r: Arrival
) -> list[tuple[int, int]]:
    """Every labelling (x, y) of the far edge qr that the view formula accepts.

    ``i`` and ``pm`` are p's cell number and port map, and p0/p1 its ports
    toward r/q.  ``q`` and ``r`` are ``step(i, pm, p1)`` and ``step(i, pm,
    p0)``, the near edges' walks, which p reads off its own and its
    neighbours' ports; their entry ports are q1 and r1.  A candidate is x
    in q1 +- 1 for q's port toward r and y in r1 +- 1 for r's port toward
    q, and the formula accepts it iff, in view_3(p),

    - ``((p1, q1), (x, y), (r1, p0))`` is a label: around the triangle;
    - ``((p0, r1), (y, x), (q1, p1))`` is a label: and back;
    - not both ``((p1, q1), (q0, r2))`` and ``((p2, r5),)`` are labels:
      not the other triangle on pq.  Here q0 = 2 q1 - x, r2 = 2 r1 - y,
      r5 = 2 y - r1 and p2 = 2 p1 - p0 continue each particle's port
      progression in the sense the candidate fixes.

    Walking q's exit x fixes the only y the first label can carry, and q0
    is the other value of x, whose walk from q is already taken.
    """
    qi, qpm, q1 = q
    ri, rpm, r1 = r
    x_up, x_down = (q1 + 1) % N_DIRS, (q1 - 1) % N_DIRS
    up, down = step(qi, qpm, x_up), step(qi, qpm, x_down)
    matches = []
    for x, far, other in ((x_up, up, down), (x_down, down, up)):
        if far is None:
            continue
        fi, fpm, y = far
        if (y - r1) % N_DIRS not in (1, N_DIRS - 1):
            continue
        home = step(fi, fpm, r1)
        if home is None or home[2] != p0:
            continue
        mid = step(ri, rpm, y)
        if mid is None or mid[2] != x:
            continue
        home = step(mid[0], mid[1], q1)
        if home is None or home[2] != p1:
            continue
        if other is not None and other[2] == (2 * r1 - y) % N_DIRS:
            beside = step(i, pm, (2 * p1 - p0) % N_DIRS)
            if beside is not None and beside[2] == (2 * y - r1) % N_DIRS:
                continue
        matches.append((x, y))
    return matches


def _infer(
    step: Step, i: int, pm: PortMap, p0: int, p1: int, q: Arrival, r: Arrival
) -> tuple[int, int]:
    matches = _candidates(step, i, pm, p0, p1, q, r)
    if len(matches) != 1:
        raise ChiralityInferenceError(
            f"{len(matches)} candidate labelings survive the view formula"
        )
    return matches[0]


def infer_triangle_labels(c: Configuration, p: Cell, q: Cell, r: Cell) -> tuple[int, int]:
    """True port labels (q's port toward r, r's port toward q), seen from p.

    Uses only walks of view_3(p) plus the labels q and r assign to their
    edges with p: the far edge's labels come from the view.
    """
    i, j, k = c.number_of(p), c.number_of(q), c.number_of(r)
    around = c.support.around
    row = around[i]
    if j not in row or k not in row or k not in around[j]:
        raise ValueError(f"{p}, {q}, {r} do not form a triangle")
    pm = c.portmaps[i]
    p0, p1 = pm.ports[row.index(k)], pm.ports[row.index(j)]
    step = _stepper(c)
    try:
        return _infer(step, i, pm, p0, p1, step(i, pm, p1), step(i, pm, p0))
    except ChiralityInferenceError as exc:
        raise ChiralityInferenceError(f"edge {q}-{r} seen from {p}: {exc}") from None


def local_check_r4(c: Configuration, p: Cell) -> bool:
    """Triangle rule at ``p`` computed from view_3(p) and neighbour registers.

    Agrees pointwise with the omniscient checker: the only extra knowledge
    the omniscient version uses is the labelling of the far edge of each
    triangle, which the view formula recovers.  The far edge of a triangle
    p, q, r can close a directed 3-cycle only when p's two near edges,
    which p reads off its own and its neighbours' registers, already form
    a directed path through p: r -> p -> q or q -> p -> r.  So the four
    near-edge flags are read first and the far edge is inferred only for
    those triangles; a ``ChiralityInferenceError`` can come only from a
    triangle that is still inferred.
    """
    register, portmaps = c.register, c.portmaps
    i = c.number_of(p)
    row = c.support.around[i]
    pm = portmaps[i]
    reg, ports = register(i), pm.ports
    step = _stepper(c)
    for d in range(N_DIRS):
        j, k = row[d], row[(d + 1) % N_DIRS]
        if j < 0 or k < 0:
            continue
        q_pm, r_pm = portmaps[j], portmaps[k]
        # q lies at d from p and r at d + 1; each meets p from the opposite side.
        p1, p0 = ports[d], ports[(d + 1) % N_DIRS]
        q1, r1 = q_pm.ports[(d + 3) % N_DIRS], r_pm.ports[(d + 4) % N_DIRS]
        q_reg, r_reg = register(j), register(k)
        # ``xy``: x is Out toward y.
        pq, qp = reg[p1] is OUT, q_reg[q1] is OUT
        pr, rp = reg[p0] is OUT, r_reg[r1] is OUT
        ahead = pq and not qp and rp and not pr  # r -> p -> q
        if not ahead and not (pr and not rp and qp and not pq):  # nor q -> p -> r
            continue
        q_to_r, r_to_q = _infer(step, i, pm, p0, p1, (j, q_pm, q1), (k, r_pm, r1))
        qr, rq = q_reg[q_to_r] is OUT, r_reg[r_to_q] is OUT
        if (qr and not rq) if ahead else (rq and not qr):  # closes the cycle
            return False
    return True
