"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written with different algorithms from the
package: enumeration by rooted canonical growth instead of canonical-form
deduplication, hole detection by labelling the empty components of the
bounding box instead of an Euler count or a flood from the support's
empty neighbours, and sink/orientation facts recomputed from first
principles.  Expected values frozen into the tests were produced by these
functions.  ``reference_random_support`` (and its prefix-yielding twin
``reference_random_support_prefixes``), ``reference_erosion_order`` and
``reference_boundary_class`` re-derive with flood fills what the package
reads off one cyclic-run lookup, and ``reference_articulation_points``
and ``reference_blocks`` what ``Support`` reads off one lowpoint pass:
the cells whose removal disconnects the rest, and the classes of edges
that no one cell's removal separates; ``flood_connected`` is their flood, by
coordinates and a set of cells, against which ``support._is_connected``,
the flood over cell numbers, is checked.  ``neighbor_mask`` is the six-bit
mask of a cell's neighbours in a set, by coordinates.
``reference_numbering`` is the ``Cell``-keyed numbering and
``reference_enumerate_supports`` the ``Cell``-tuple enumeration that
``Support`` and ``generators`` ran before they keyed cells by ints, with
the canonical forms it deduplicated by: ``canonical_cells``, the
translate whose smallest cell is the origin, and
``symmetry_canonical_cells``, the smallest of those over the 12 lattice
symmetries by repeated rotation.
``neighbor_mask_random_support`` and
``rescan_erode`` are the grower and the erosion that ``generators`` ran
before it kept rim masks and an erosion heap: six set lookups per
neighbour of an added cell, and a scan from the first remaining cell
after every removal.  ``reference_run`` is the object-based loop that
``scheduler.run`` replaced, kept as the oracle its compiled engine must
reproduce bit for bit, and ``reference_replay`` the per-event loop
``render --trace`` used before it replayed through the engine.
``reference_fire`` is the next-mask formula ``run`` evaluates inline,
as the function it was before the engine's loop took it in; the tests
compare it with ``step_register`` cell by cell.
``reference_reaches`` is the reverse search ``oracle.check_reachability``
ran before its lazy SCC pass: all predecessor lists built up front, then a
backward flood from the targets.  ``reference_silence`` is the scan
``oracle.check_silence`` ran before it searched for the final states:
``move`` and ``is_valid`` on every one of the 4^E states, and
``reference_two_ended_silence`` the one it ran before it read the valid
states off the unique-sink lanes: ``is_valid`` on every final state and
``move`` on every valid orientation.  ``reference_unique_sink`` is the
loop ``oracle.check_unique_sink`` ran before it decided all orientations
at once in lane integers: one ``is_valid`` test and one sink count,
``packed_sinks``, per orientation, enumerated edge by edge by
``orientation_states``.
``reference_find_unfair_cycle`` is the depth-first search
``oracle.find_unfair_cycle`` ran before it listed each state's moves
once: every frame resumes ``move`` at the cell after its last move, and
it marks one seen bit per packed state, with no automorphism marks.
``geometric_is_valid`` is ``ConfigGraph.is_valid`` as it was before it
read validity off ``move``: R2/R3 off each cell's own-pattern table and
R4 off two 3-bit cycle masks per triangle, built from the geometry.
``base3_rank`` is a conflict-free state's index in
``conflict_free_states``, digit by digit, and ``permuted_state`` moves
each half-edge of a state to its image under a half-edge permutation.  The
``coordinate_*`` readers (R1-R4, ``outgoing_ports``, ``orientation``,
``port_of``, ``in_view`` and local R4) are the rule and view readers
before they walked the support's cell numbering: neighbours by coordinate
offsets, ports and directions by the port map's arithmetic formula, as
``arithmetic_port_to_dir`` and ``arithmetic_dir_to_port`` give them, and
``triangles_at`` lists a particle's triangles the same way.
``reference_formula_holds`` is the view formula as ``views`` evaluated it
before it shared walks between the candidates: four questions to a
membership test per candidate, each label walked from p again.
``reference_infer`` asks it of all four candidates, and
``formula_queries`` lists the labels it asks about.
``analyze_cycle`` checks the two cycle lemmas on configurations, port by
port, as ``oracle.UnfairCycle.lemmas`` does on packed states.
``CellRegisters`` is a configuration's registers as a ``Cell``-keyed
mapping, each read by the cell's number through ``register`` when it is
looked up: the one reading by which tests name, compare and edit
registers cell by cell.  ``register_masks`` reads a configuration's Out
masks off its registers, port by port through ``arithmetic_port_to_dir``,
and ``assert_masks_match_regs`` checks that they equal the stored
``masks``.
``portmap_at`` looks a cell's port map up by its number, and
``reference_random_portmaps`` is the ``Cell``-keyed draw
``generators.random_portmaps`` made before port maps were kept by cell
number, with ``rng.choice``.  ``randrange_random_register_masks`` is the
draw ``generators.random_registers`` made with ``rng.randrange(3)``
over every neighbour of every cell.
``resolve_conflicts`` and ``remove_particle`` are single-purpose
configuration edits, and ``read_trace``, ``trace_flags`` (the trace's
flag formula, read off a cell's masks), ``mirrored``, ``are_adjacent``
and ``relative_chirality`` small readings, that only tests need.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from trielect.algorithm import activation_step, is_activable
from trielect.lattice import (
    ALL_PORTMAPS,
    CYCLIC_RUN,
    DIR_OFFSETS,
    Cell,
    N_DIRS,
    PortMap,
    direction_from,
    neighbor,
    neighbors,
    port_to_dir,
)
from trielect.support import Support
from trielect.config import (
    IN,
    LINK_ORIENTATION,
    OUT,
    REGISTER,
    ConfigError,
    Configuration,
    EdgeOrientation,
    Registers,
)
from trielect.rules import RULE, check_r2, check_r3, check_r4, is_valid, sinks
from trielect.rules import _consecutive_cyclic
from trielect.scheduler import (
    ExecutionResult,
    Outcome,
    RandomSequential,
    RoundRobin,
    StepInvariantError,
    _kind_label,
    detect_final,
    shape_hash,
)
from trielect.oracle import (
    ConfigGraph,
    CycleReport,
    SilenceReport,
    UnfairCycle,
    UniqueSinkReport,
    final_states,
)
from trielect.views import VIEW_DEPTH, ChiralityInferenceError, infer_triangle_labels


def enclosed_components(cells: frozenset[Cell]) -> list[set[Cell]]:
    """The enclosed empty cells, one set per component: the empty components
    of the margin-1 box that do not touch its frame."""
    qs = [q for q, _ in cells]
    rs = [r for _, r in cells]
    q0 = min(qs) - 1
    r0 = min(rs) - 1
    # Box cell (q, r) sits at index (q - q0 + 1) * h + r - r0 + 1 of a grid
    # with one more blocked ring outside the frame, so no step leaves it.
    w = max(qs) - q0 + 4
    h = max(rs) - r0 + 4
    free = bytearray([0]) * (w * h)
    for i in range(1, w - 1):
        free[i * h + 1 : i * h + h - 1] = b"\x01" * (h - 2)
    for q, r in cells:
        free[(q - q0 + 1) * h + r - r0 + 1] = 0
    steps = [dq * h + dr for dq, dr in neighbors(Cell(0, 0))]

    def flood(start: int) -> list[int]:
        free[start] = 0
        comp = [start]
        for i in comp:
            for s in steps:
                if free[i + s]:
                    free[i + s] = 0
                    comp.append(i + s)
        return comp

    # The frame is empty and connected: one flood from its corner (q0, r0)
    # clears every component that touches it.
    flood(h + 1)
    return [
        {Cell(i // h + q0 - 1, i % h + r0 - 1) for i in flood(start)}
        for start in range(w * h)
        if free[start]
    ]


def empty_component_count(cells: frozenset[Cell]) -> int:
    """Number of enclosed empty components inside the margin-1 box."""
    return len(enclosed_components(cells))


def neighbor_mask(c: Cell, occupied: Container[Cell]) -> int:
    """Six-bit mask whose bit ``d`` is set iff the neighbour of ``c`` in
    direction ``d`` belongs to ``occupied`` (a cell set or a Support)."""
    q, r = c
    mask = 0
    for d, (dq, dr) in enumerate(DIR_OFFSETS):
        # A plain pair hashes and compares equal to the Cell it names.
        if (q + dq, r + dr) in occupied:
            mask |= 1 << d
    return mask


def reference_numbering(cells: Iterable[Cell]) -> tuple:
    """``(cells, order, number, around, present)`` of ``Support(cells)``,
    numbered as ``Support.__init__`` did before it keyed cells by ints: a
    sorted tuple of ``Cell``s, and one tuple-keyed lookup per neighbour."""
    cellset = frozenset(Cell(q, r) for q, r in cells)
    order = tuple(sorted(cellset))
    number = {c: i for i, c in enumerate(order)}
    around = tuple(
        tuple(number.get((q + dq, r + dr), -1) for dq, dr in DIR_OFFSETS) for q, r in order
    )
    present = tuple(sum(1 << d for d, j in enumerate(row) if j >= 0) for row in around)
    return cellset, order, number, around, present


def canonical_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Translate so the smallest cell sits at the origin; sort the rest."""
    cs = sorted(Cell(q, r) for q, r in cells)
    dq, dr = cs[0]
    return tuple(Cell(q - dq, r - dr) for q, r in cs)


def _rot60(c: Cell) -> Cell:
    return Cell(-c.r, c.q + c.r)


def _mirror(c: Cell) -> Cell:
    return Cell(c.q + c.r, -c.r)


def symmetry_canonical_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """Smallest canonical translate over the 12-element lattice symmetry group."""
    base = [Cell(q, r) for q, r in cells]
    best: tuple[Cell, ...] | None = None
    for reflect in (False, True):
        img = [_mirror(c) for c in base] if reflect else list(base)
        for _ in range(6):
            img = [_rot60(c) for c in img]
            cand = canonical_cells(img)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def reference_enumerate_supports(n: int, canonical: str = "translation") -> list[Support]:
    """``generators.enumerate_supports`` as it grew ``Cell`` tuples: every
    frontier cell of every shape tested with ``neighbor_mask``, and each
    grown shape canonicalised as cells."""
    canon = canonical_cells if canonical == "translation" else symmetry_canonical_cells
    shapes = {canon([Cell(0, 0)])}
    for _ in range(n - 1):
        grown = set()
        for shape in shapes:
            cellset = set(shape)
            frontier = {nb for c in shape for nb in neighbors(c) if nb not in cellset}
            for nb in frontier:
                if CYCLIC_RUN[neighbor_mask(nb, cellset)]:
                    grown.add(canon(cellset | {nb}))
        shapes = grown
    return [Support(shape) for shape in sorted(shapes)]


def rooted_growth_shapes(n: int) -> list[frozenset[Cell]]:
    """All fixed n-cell shapes, each exactly once, by rooted canonical growth.

    The root is the (r, q)-lexicographic minimum, pinned at the origin: a
    cell may be added only if it is larger than the origin in that order,
    and once a frontier cell is skipped it stays forbidden in that branch.
    No canonical-form deduplication is involved.
    """

    def allowed(c: Cell) -> bool:
        return (c.r, c.q) > (0, 0)

    results: list[frozenset[Cell]] = []
    origin = Cell(0, 0)

    def rec(shape: frozenset[Cell], untried: tuple[Cell, ...], seen: frozenset[Cell]) -> None:
        if len(shape) == n:
            results.append(shape)
            return
        while untried:
            c, untried = untried[0], untried[1:]
            fresh = tuple(
                nb for nb in neighbors(c) if allowed(nb) and nb not in seen
            )
            rec(shape | {c}, untried + fresh, seen | set(fresh))
        return

    if n == 1:
        return [frozenset({origin})]
    first = tuple(nb for nb in neighbors(origin) if allowed(nb))
    rec(frozenset({origin}), first, frozenset(first) | {origin})
    return results


def simply_connected_shape_count(n: int) -> int:
    return sum(
        1 for shape in rooted_growth_shapes(n) if empty_component_count(shape) == 0
    )


def flood_connected(cells: set[Cell]) -> bool:
    """True iff ``cells`` is connected: a flood by coordinates from one cell."""
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors(stack.pop()):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def _runs(dirs: list[int]) -> int:
    """Number of maximal cyclic runs among the directions ``dirs``."""
    return sum(1 for d in dirs if (d - 1) % 6 not in dirs)


def reference_random_support(n: int, seed: int) -> Support:
    """``generators.random_support`` with a flood fill per candidate cell.

    Each step rebuilds the frontier, keeps the cells after which no empty
    component is enclosed, sorts them and adds the one at one uniform draw.
    """
    rng = random.Random(seed)
    cells = {Cell(0, 0)}
    while len(cells) < n:
        frontier = {nb for c in cells for nb in neighbors(c) if nb not in cells}
        growable = sorted(
            nb for nb in frontier if empty_component_count(frozenset(cells | {nb})) == 0
        )
        cells.add(growable[rng.randrange(len(growable))])
    return Support(cells)


def reference_random_support_prefixes(n: int, seed: int) -> Iterator[frozenset[Cell]]:
    """The cells of ``reference_random_support(k, seed)`` for k = 1..n, in
    one growth: each step draws once, so a seed grows nested shapes."""
    rng = random.Random(seed)
    cells = {Cell(0, 0)}
    yield frozenset(cells)
    while len(cells) < n:
        frontier = {nb for c in cells for nb in neighbors(c) if nb not in cells}
        growable = sorted(
            nb for nb in frontier if empty_component_count(frozenset(cells | {nb})) == 0
        )
        cells.add(growable[rng.randrange(len(growable))])
        yield frozenset(cells)


def neighbor_mask_random_support(n: int, seed: int) -> Support:
    """``generators.random_support`` rechecking each empty neighbour of an
    added cell with ``neighbor_mask`` and a bisection into the list."""
    rng = random.Random(seed)
    cells = {(0, 0)}
    growable = sorted(DIR_OFFSETS)
    while len(cells) < n:
        q, r = growable.pop(rng.randrange(len(growable)))
        cells.add((q, r))
        for dq, dr in DIR_OFFSETS:
            x = (q + dq, r + dr)
            if x in cells:
                continue
            i = bisect_left(growable, x)
            listed = i < len(growable) and growable[i] == x
            if CYCLIC_RUN[neighbor_mask(x, cells)]:
                if not listed:
                    growable.insert(i, x)
            elif listed:
                del growable[i]
    return Support(cells)


def rescan_erode(s: Support) -> tuple[list[int], list[int]]:
    """``generators._erode`` by a scan from the first remaining cell after
    every removal: the order by cell number, and the masks cells went with."""
    around = s.around
    present = list(s.present)
    left = list(range(len(present)))
    gone: list[int] = []
    while len(left) > 1:
        for k, i in enumerate(left):
            mask = present[i]
            if 1 <= mask.bit_count() <= 3 and CYCLIC_RUN[mask]:
                break
        else:
            raise AssertionError(f"no erodible cell among {[s.order[i] for i in left]}")
        gone.append(left.pop(k))
        for d in range(N_DIRS):
            if mask >> d & 1:
                present[around[i][d]] &= ~(1 << (d + 3) % N_DIRS)
    return gone + left, present


def reference_erosion_order(s: Support) -> list[Cell]:
    """``generators.erosion_order`` that also floods the rest for connectivity."""
    remaining = set(s.cells)
    order = []
    while len(remaining) > 1:
        for c in sorted(remaining):
            occ = [d for d in range(6) if neighbor(c, d) in remaining]
            if 1 <= len(occ) <= 3 and _runs(occ) == 1 and flood_connected(remaining - {c}):
                order.append(c)
                remaining.remove(c)
                break
        else:
            raise AssertionError(f"no erodible cell among {sorted(remaining)}")
    return order + sorted(remaining)


def reference_boundary_class(cells: frozenset[Cell], p: Cell) -> str:
    """Boundary class of ``p`` as ``str(BoundaryClass)``, from first principles:
    one occupied neighbour is pending, a cell whose removal disconnects the
    rest is an articulation point, otherwise the occupied neighbours must
    form one run of k cells spanning 60 * (k - 1) degrees.
    """
    occ = [d for d in range(6) if neighbor(p, d) in cells]
    if len(occ) == 1:
        return "pending"
    if not flood_connected(set(cells) - {p}):
        return "articulation"
    assert _runs(occ) == 1, f"{p} is no articulation point but has {_runs(occ)} arcs"
    return f"angle({60 * (len(occ) - 1)})"


def _component_of(cells: frozenset[Cell]) -> dict[Cell, Cell]:
    """Each cell's component in ``cells``, named by the first cell its
    flood by coordinates started from."""
    of: dict[Cell, Cell] = {}
    for start in cells:
        if start in of:
            continue
        of[start] = start
        stack = [start]
        while stack:
            for nb in neighbors(stack.pop()):
                if nb in cells and nb not in of:
                    of[nb] = start
                    stack.append(nb)
    return of


def reference_articulation_points(cells: frozenset[Cell]) -> frozenset[Cell]:
    """The cells whose removal leaves the rest of ``cells`` disconnected."""
    return frozenset(
        c for c in cells if len(set(_component_of(cells - {c}).values())) > 1
    )


def reference_blocks(cells: frozenset[Cell]) -> set[frozenset[Cell]]:
    """The blocks of ``cells``' occupancy graph by their definition: two
    edges share a block iff no single cell's removal separates them, that
    is, leaves the ends of one that remain and those of the other in two
    components.  A block is the cells of one class of edges; a lone cell
    is one block."""
    if len(cells) == 1:
        return {cells}
    edges = [(a, b) for a in cells for b in neighbors(a) if b in cells and a < b]
    without = [(c, _component_of(cells - {c})) for c in cells]

    def together(e: tuple[Cell, Cell], f: tuple[Cell, Cell]) -> bool:
        return all(len({of[x] for x in e + f if x != c}) == 1 for c, of in without)

    classes: list[list[tuple[Cell, Cell]]] = []
    for e in edges:
        home = next((cls for cls in classes if together(cls[0], e)), None)
        if home is None:
            classes.append([e])
        else:
            home.append(e)
    return {frozenset(x for e in cls for x in e) for cls in classes}


def directed_edge_list(c: Configuration) -> list[tuple[Cell, Cell]]:
    out = []
    for a, b in c.support.edges():
        o = c.orientation(a, b)
        if o is EdgeOrientation.A_TO_B:
            out.append((a, b))
        elif o is EdgeOrientation.B_TO_A:
            out.append((b, a))
    return out


def globally_acyclic(c: Configuration) -> bool:
    """Kahn peeling over the coherently directed edges."""
    indeg = {p: 0 for p in c.support}
    succ = {p: [] for p in c.support}
    for a, b in directed_edge_list(c):
        succ[a].append(b)
        indeg[b] += 1
    queue = [p for p in c.support if indeg[p] == 0]
    seen = 0
    while queue:
        p = queue.pop()
        seen += 1
        for q in succ[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    return seen == len(c.support)


def brute_sinks(c: Configuration) -> set[Cell]:
    targets = {p: 0 for p in c.support}
    for a, _ in directed_edge_list(c):
        targets[a] += 1
    conflicted = set()
    for a, b in c.support.edges():
        if c.orientation(a, b) is EdgeOrientation.CONFLICT:
            conflicted.add(a)
            conflicted.add(b)
    return {p for p, k in targets.items() if k == 0 and p not in conflicted}


def resolve_conflicts(c: Configuration, p: Cell) -> Configuration:
    """Yield ``p``'s side of every conflict edge; everything else untouched."""
    regs = CellRegisters(c)
    reg = list(regs[p])
    pm = portmap_at(c, p)
    changed = False
    for port in range(N_DIRS):
        n = neighbor(p, port_to_dir(pm, port))
        if n in c.support and reg[port] is OUT and regs[n][c.port_of(n, p)] is OUT:
            reg[port] = IN
            changed = True
    return c.with_register(p, tuple(reg)) if changed else c


def remove_particle(c: Configuration, p: Cell) -> Configuration:
    """Configuration on the support minus ``p``: the vacated cell becomes
    empty and every neighbour's port toward it is reset to In."""
    if p not in c.support:
        raise ValueError(f"{p} is not occupied")
    new_support = Support(c.support.cells - {p})
    portmaps = tuple(portmap_at(c, q) for q in new_support.order)
    regs = {q: list(CellRegisters(c)[q]) for q in new_support}
    for q in c.support.occupied_neighbors(p):
        regs[q][c.port_of(q, p)] = IN
    return Configuration(new_support, portmaps, {q: tuple(r) for q, r in regs.items()})


def reference_run(
    c0: Configuration,
    kind,
    max_steps: int = 1_000_000,
    check_invariants: bool = False,
    trace_file=None,
) -> ExecutionResult:
    """``scheduler.run`` on the object path, O(n) work per step.

    Each step rebuilds the live list in sorted cell order, activates with
    ``activation_step``, and refreshes the activability and the rule checks
    (``check_r2``/``check_r3``/``check_r4``) of the activated particle and
    its occupied neighbours, the only particles a step can affect, keeping
    a running violation count.
    """
    cells = tuple(c0.support)
    config = c0
    activable = {p: is_activable(config, p) for p in cells}
    rng = random.Random(kind.seed) if isinstance(kind, RandomSequential) else None
    rr_index = script_index = 0
    observed = check_invariants or trace_file is not None
    if observed:
        violating = {p: not _rules_hold(config, p) for p in cells}
        violations = sum(violating.values())
    if trace_file is not None:
        trace_file.write(
            f"# trace shape={shape_hash(config)} scheduler={_kind_label(kind)} cap={max_steps}\n"
        )

    def finish(steps: int) -> ExecutionResult:
        if check_invariants and (not is_valid(config) or len(sinks(config)) != 1):
            raise StepInvariantError("final configuration is not a valid single-sink state", config)
        return ExecutionResult(Outcome.FINAL, config, steps)

    step = 0
    while step < max_steps:
        live = [p for p in cells if activable[p]]
        if not live:
            return finish(step)
        if rng is not None:
            p = live[rng.randrange(len(live))]
        elif isinstance(kind, RoundRobin):
            while not activable[cells[rr_index % len(cells)]]:
                rr_index += 1
            p = cells[rr_index % len(cells)]
            rr_index += 1
        else:
            p = kind.cells[script_index % len(kind.cells)]
            script_index += 1
        config, effect = activation_step(config, p)
        step += 1
        near = (p, *config.support.occupied_neighbors(p))
        for q in near:
            activable[q] = is_activable(config, q)

        post = None
        if observed:
            prev = violations
            if effect.changed:
                for q in near:
                    bad = not _rules_hold(config, q)
                    violations += bad - violating[q]
                    violating[q] = bad
            post = violations
        if check_invariants:
            if violating[p]:
                raise StepInvariantError(f"step {step}: {p} violates a repairable rule", config)
            if post > prev:
                raise StepInvariantError(f"step {step}: violation count rose", config)
        if trace_file is not None:
            trace_file.write(
                f"{step - 1} {p.q} {p.r} {int(effect.line1_fired)} {int(effect.line2_fired)} "
                f"{int(effect.changed)} {post}\n"
            )

    if detect_final(config):
        return finish(step)
    return ExecutionResult(Outcome.CAP_EXCEEDED, config, step)


def reference_fire(
    ci: int,
    mine: list[int],
    theirs: list[int],
    present: Sequence[int],
    around: Sequence[tuple[int, ...]],
) -> int:
    """The Out mask of cell ``ci`` after one activation, read off the
    masks; nothing is written.

    Resolving conflicts and then line 1 leave the cell Out exactly toward
    ``present & ~theirs``, so every edge at the cell is directed when
    line 2's test runs: ``RULE`` alone decides R2 and R3, and a triangle
    it names is a directed 3-cycle iff its far edge is.
    """
    free = present[ci] & ~theirs[ci]
    corners = RULE[free]
    if corners is None:
        return 0
    a = around[ci]
    for xd, bit, _ in corners:
        x = a[xd]
        if mine[x] & ~theirs[x] & bit:
            return 0
    return free


def _rules_hold(c: Configuration, p: Cell) -> bool:
    return check_r2(c, p) and check_r3(c, p) and check_r4(c, p)


def reference_replay(c0: Configuration, cells) -> Configuration:
    """``c0`` after activating ``cells`` in order on the object path, one
    ``activation_step`` and one configuration copy per event."""
    config = c0
    for p in cells:
        config, _ = activation_step(config, p)
    return config


def reference_reaches(total: int, move, is_valid) -> bytearray:
    """1 for each state ``0 .. total - 1`` from which a valid state without
    a move is reachable, else 0, by a backward search from those targets.
    ``move(state, start)`` is ``oracle.ConfigGraph.move``'s contract; every
    move of every state is collected by resuming it."""
    reverse: list[list[int]] = [[] for _ in range(total)]
    targets = []
    for state in range(total):
        found = move(state, 0)
        if found is None and is_valid(state):
            targets.append(state)
        while found is not None:
            ci, nxt = found
            reverse[nxt].append(state)
            found = move(state, ci + 1)
    reached = bytearray(total)
    stack = list(targets)
    for t in targets:
        reached[t] = 1
    while stack:
        v = stack.pop()
        for u in reverse[v]:
            if not reached[u]:
                reached[u] = 1
                stack.append(u)
    return reached


def orientation_states(e: int) -> Iterator[int]:
    """The 2^e all-directed packed states in lane order: state k gives
    edge i code 2, Out at its larger endpoint, where bit i of k is set,
    and code 1 where it is clear."""
    for k in range(1 << e):
        yield sum((2 if k >> i & 1 else 1) << 2 * i for i in range(e))


def packed_sinks(graph: ConfigGraph, state: int) -> list[Cell]:
    """The cells of ``graph`` Out on none of their own half-edges in ``state``."""
    return [c for c, (_, own, _, _) in zip(graph.cells, graph._rows) if not state & own]


def reference_unique_sink(s: Support) -> UniqueSinkReport:
    """``oracle.check_unique_sink``'s report from one ``is_valid`` test and
    one sink count per orientation, in lane order."""
    graph = ConfigGraph(s)
    e = graph.n_edges
    valid = 0
    counterexamples = []
    for state in orientation_states(e):
        if not graph.is_valid(state):
            continue
        valid += 1
        if len(packed_sinks(graph, state)) != 1:
            counterexamples.append(graph.unpack(state).serialize())
    return UniqueSinkReport(s, 1 << e, valid, tuple(counterexamples))


def reference_two_ended_silence(s: Support) -> SilenceReport:
    """``oracle.check_silence``'s report from ``is_valid`` on every state
    ``final_states`` lists and ``move`` on every orientation that passes
    ``is_valid``."""
    graph = ConfigGraph(s)
    bad = [(st, "final-but-invalid") for st in final_states(graph) if not graph.is_valid(st)]
    for state in orientation_states(graph.n_edges):
        if graph.is_valid(state) and graph.move(state) is not None:
            bad.append((state, "valid-but-activable"))
    bad.sort()
    return SilenceReport(
        s, 1 << 2 * graph.n_edges,
        tuple(tag + "\n" + graph.unpack(state).serialize() for state, tag in bad),
    )


def reference_silence(s: Support) -> SilenceReport:
    """final <=> valid by comparing ``move(state) is None`` with
    ``is_valid`` on every packed state of ``s``, Out/Out included."""
    graph = ConfigGraph(s)
    mismatches = []
    count = 0
    for state in range(1 << 2 * graph.n_edges):
        count += 1
        final = graph.move(state) is None
        if final != graph.is_valid(state):
            tag = "final-but-invalid" if final else "valid-but-activable"
            mismatches.append(tag + "\n" + graph.unpack(state).serialize())
    return SilenceReport(s, count, tuple(mismatches))


def reference_find_unfair_cycle(s: Support) -> UnfairCycle | None:
    """``oracle.find_unfair_cycle``'s result from a depth-first search
    whose frames hold (state, start) and resume ``move(state, start)``;
    the cell that stepped out of each state is the index before its
    start."""
    graph = ConfigGraph(s)
    move = graph.move
    seen = bytearray((2 * graph._lo >> 3) + 1)
    depth_of: dict[int, int] = {}
    for seed in graph.conflict_free_states():
        if seen[seed >> 3] >> (seed & 7) & 1:
            continue
        seen[seed >> 3] |= 1 << (seed & 7)
        depth_of[seed] = 0
        state, start = seed, 0
        path: list[tuple[int, int]] = []
        while True:
            found = move(state, start)
            if found is None:
                del depth_of[state]
                if not path:
                    break
                state, start = path.pop()
                continue
            start = found[0] + 1
            nxt = found[1]
            if seen[nxt >> 3] >> (nxt & 7) & 1:
                if nxt in depth_of:
                    loop = path[depth_of[nxt]:] + [(state, start)]
                    return UnfairCycle(
                        s,
                        tuple(st for st, _ in loop),
                        tuple(graph.cells[resume - 1] for _, resume in loop),
                    )
                continue
            seen[nxt >> 3] |= 1 << (nxt & 7)
            path.append((state, start))
            depth_of[nxt] = len(path)
            state, start = nxt, 0
    return None


def geometric_is_valid(graph: ConfigGraph, state: int) -> bool:
    """Every edge directed, no cell's own-pattern entry -1 (R2 or R3), and
    no triangle p, q, r directed p -> q -> r -> p or p -> r -> q -> p, read
    as three half-edges all Out."""
    lo = graph._lo
    if (state ^ state >> 1) & lo != lo:
        return False
    if any(table[state & own] < 0 for _, own, _, table in graph._rows):
        return False
    half_at = graph.half_at
    for row, half in zip(graph.support.around, half_at):
        for d in range(N_DIRS):
            cj, ck = row[d], row[(d + 1) % N_DIRS]
            if cj < 0 or ck < 0:
                continue
            pq, pr, qr = half[d], half[(d + 1) % N_DIRS], half_at[cj][(d + 2) % N_DIRS]
            for cycle in (1 << pq | 1 << qr | 1 << (pr ^ 1), 1 << pr | 1 << (qr ^ 1) | 1 << (pq ^ 1)):
                if state & cycle == cycle:
                    return False
    return True


def base3_rank(state: int, e: int) -> int:
    """The index of conflict-free ``state`` among the 3^e states, edge i
    being the base-3 digit of weight 3^i."""
    return sum((state >> 2 * i & 3) * 3**i for i in range(e))


def permuted_state(state: int, image: Sequence[int]) -> int:
    """``state`` with the bit of each half-edge h moved to ``image[h]``."""
    moved = 0
    while state:
        low = state & -state
        moved |= 1 << image[low.bit_length() - 1]
        state ^= low
    return moved


def read_trace(text: str) -> list[tuple[int, Cell, int, int, int, int]]:
    """The event lines of a trace log as ``(step, cell, line1, line2,
    changed, violations)``, after checking that it opens with its header."""
    header, *lines = text.splitlines()
    assert header.startswith("# trace shape="), header
    rows = []
    for line in lines:
        step, q, r, line1, line2, changed, violations = map(int, line.split())
        rows.append((step, Cell(q, r), line1, line2, changed, violations))
    return rows


def trace_flags(before: int, after: int, theirs: int, present: int) -> tuple[bool, bool, bool]:
    """``(line1, line2, changed)`` of an activation that took a cell's Out
    mask from ``before`` to ``after``, given its ``theirs`` and ``present``
    masks: the formula ``scheduler.run`` writes its trace flags with."""
    free = present & ~theirs
    return bool(free & ~before), after != free, before != after


def mirrored(o: EdgeOrientation) -> EdgeOrientation:
    """The orientation of edge b-a, given that of a-b."""
    if o is EdgeOrientation.A_TO_B:
        return EdgeOrientation.B_TO_A
    if o is EdgeOrientation.B_TO_A:
        return EdgeOrientation.A_TO_B
    return o


def are_adjacent(a: Cell, b: Cell) -> bool:
    """Axial hex distance 1, from the coordinates alone."""
    dq, dr = b.q - a.q, b.r - a.r
    return abs(dq) + abs(dr) + abs(dq + dr) == 2


def relative_chirality(c: Configuration, p: Cell, q: Cell, r: Cell) -> int:
    """+1 if q numbers its ports in the same rotational sense as p, else -1,
    read off ``views.infer_triangle_labels`` from p's view."""
    x, _ = infer_triangle_labels(c, p, q, r)
    p1 = c.port_of(p, q)
    p0 = c.port_of(p, r)
    q1 = c.port_of(q, p)
    sp = 1 if (p1 - p0) % N_DIRS == 1 else -1
    sq = 1 if (x - q1) % N_DIRS == 1 else -1
    # p measures r against q, q measures r against p: the third corner sits
    # on opposite rotational sides of the shared edge, and the two sign
    # flips cancel.
    return sp * sq


def portmap_at(c: Configuration, p: Cell) -> PortMap:
    """``p``'s port map, read by its cell number."""
    return c.portmaps[c.support.number[p]]


def reference_random_portmaps(s: Support, seed: int) -> dict[Cell, PortMap]:
    """One uniform port map per cell, drawn while iterating ``s``."""
    rng = random.Random(seed)
    return {c: rng.choice(ALL_PORTMAPS) for c in s}


def randrange_random_register_masks(
    s: Support, seed: int, conflict_probability: float
) -> list[int]:
    """The Out masks by cell number that ``generators.random_registers``
    drew before it wrote ``randrange``'s rejection loop out: every
    neighbour of every cell visited, edges kept where the neighbour's
    number is larger, and ``rng.randrange(3)`` per edge that is not
    Out/Out."""
    rng = random.Random(seed)
    masks = [0] * len(s)
    for i, row in enumerate(s.around):
        for d, j in enumerate(row):
            if j <= i:
                continue
            outs = 3 if rng.random() < conflict_probability else rng.randrange(3)
            if outs & 1:
                masks[i] |= 1 << d
            if outs & 2:
                masks[j] |= 1 << (d + 3) % N_DIRS
    return masks


def arithmetic_port_to_dir(m: PortMap, port: int) -> int:
    return (m.offset + m.chirality * port) % N_DIRS


def arithmetic_dir_to_port(m: PortMap, d: int) -> int:
    return (m.chirality * (d - m.offset)) % N_DIRS


class CellRegisters(Mapping[Cell, Registers]):
    """``c``'s registers by cell, each read by the cell's number when looked up."""

    def __init__(self, c: Configuration):
        self.c = c

    def __getitem__(self, p: Cell) -> Registers:
        return self.c.register(self.c.support.number[p])

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.c.support.order)

    def __len__(self) -> int:
        return len(self.c.support.order)


def register_masks(c: Configuration) -> bytes:
    """Per cell number, the global directions ``c``'s register is Out toward."""
    regs = CellRegisters(c)
    return bytes(
        sum(1 << arithmetic_port_to_dir(portmap_at(c, p), port)
            for port in range(N_DIRS) if regs[p][port] is OUT)
        for p in c.support.order
    )


def assert_masks_match_regs(c: Configuration) -> None:
    """``c.masks`` and ``c``'s registers name the same links, and each
    register is the shared ``REGISTER`` object."""
    assert c.masks == register_masks(c)
    for i, (p, mask) in enumerate(zip(c.support.order, c.masks)):
        assert c.register(i) is REGISTER[portmap_at(c, p)][mask]


def coordinate_port_of(c: Configuration, a: Cell, b: Cell) -> int:
    return arithmetic_dir_to_port(portmap_at(c, a), direction_from(a, b))


def coordinate_orientation(c: Configuration, a: Cell, b: Cell) -> EdgeOrientation:
    if a not in c.support or b not in c.support:
        raise ConfigError(f"edge {a}-{b} is not between occupied cells")
    regs = CellRegisters(c)
    out_a = regs[a][coordinate_port_of(c, a, b)] is OUT
    out_b = regs[b][coordinate_port_of(c, b, a)] is OUT
    return LINK_ORIENTATION[out_a][out_b]


def coordinate_outgoing_ports(c: Configuration, p: Cell) -> tuple[int, ...]:
    pm, reg = portmap_at(c, p), CellRegisters(c)[p]
    return tuple(
        port
        for port in range(N_DIRS)
        if reg[port] is OUT and neighbor(p, arithmetic_port_to_dir(pm, port)) in c.support
    )


def triangles_at(c: Configuration, p: Cell) -> list[tuple[Cell, Cell]]:
    """Occupied neighbour pairs (q, r) of ``p`` at consecutive directions."""
    cells = c.support.cells
    nbs = neighbors(p)
    return [
        (nbs[d], nbs[(d + 1) % N_DIRS])
        for d in range(N_DIRS)
        if nbs[d] in cells and nbs[(d + 1) % N_DIRS] in cells
    ]


def coordinate_check_r1(c: Configuration, p: Cell) -> bool:
    for n in neighbors(p):
        if n in c.support.cells:
            o = coordinate_orientation(c, p, n)
            if o is EdgeOrientation.UNDIRECTED or o is EdgeOrientation.CONFLICT:
                return False
    return True


def coordinate_check_r2(c: Configuration, p: Cell) -> bool:
    return len(coordinate_outgoing_ports(c, p)) <= 3


def coordinate_check_r3(c: Configuration, p: Cell) -> bool:
    return _consecutive_cyclic(coordinate_outgoing_ports(c, p))


def _directed(c: Configuration, a: Cell, b: Cell) -> bool:
    return coordinate_orientation(c, a, b) is EdgeOrientation.A_TO_B


def coordinate_check_r4(c: Configuration, p: Cell) -> bool:
    for q, r in triangles_at(c, p):
        if _directed(c, p, q) and _directed(c, q, r) and _directed(c, r, p):
            return False
        if _directed(c, p, r) and _directed(c, r, q) and _directed(c, q, p):
            return False
    return True


def coordinate_in_view(c: Configuration, p: Cell, label) -> bool:
    if not 0 < len(label) <= VIEW_DEPTH:
        return False
    cells, portmaps, number = c.support.cells, c.portmaps, c.support.number
    q, r = p
    pm = portmap_at(c, p)
    for exit_port, entry_port in label:
        if not 0 <= exit_port < N_DIRS:
            return False
        d = arithmetic_port_to_dir(pm, exit_port)
        dq, dr = DIR_OFFSETS[d]
        q += dq
        r += dr
        if (q, r) not in cells:
            return False
        pm = portmaps[number[q, r]]
        if arithmetic_dir_to_port(pm, (d + 3) % N_DIRS) != entry_port:
            return False
    return True


def reference_formula_holds(
    has: Callable[[tuple], bool], p0: int, p1: int, q1: int, r1: int, x: int, y: int
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


def reference_infer(
    has: Callable[[tuple], bool], p0: int, p1: int, q1: int, r1: int
) -> tuple[int, int]:
    matches = [
        (x, y)
        for x in ((q1 + 1) % N_DIRS, (q1 - 1) % N_DIRS)
        for y in ((r1 + 1) % N_DIRS, (r1 - 1) % N_DIRS)
        if reference_formula_holds(has, p0, p1, q1, r1, x, y)
    ]
    if len(matches) != 1:
        raise ChiralityInferenceError(
            f"{len(matches)} candidate labelings survive the view formula"
        )
    return matches[0]


def coordinate_local_check_r4(c: Configuration, p: Cell) -> bool:
    has = partial(coordinate_in_view, c, p)
    regs = CellRegisters(c)
    for q, r in triangles_at(c, p):
        q_to_r, r_to_q = reference_infer(
            has,
            coordinate_port_of(c, p, r),
            coordinate_port_of(c, p, q),
            coordinate_port_of(c, q, p),
            coordinate_port_of(c, r, p),
        )
        pq = coordinate_orientation(c, p, q)
        pr = coordinate_orientation(c, p, r)
        qr = LINK_ORIENTATION[regs[q][q_to_r] is OUT][regs[r][r_to_q] is OUT]
        fwd = (
            pq is EdgeOrientation.A_TO_B
            and qr is EdgeOrientation.A_TO_B
            and pr is EdgeOrientation.B_TO_A
        )
        bwd = (
            pr is EdgeOrientation.A_TO_B
            and qr is EdgeOrientation.B_TO_A
            and pq is EdgeOrientation.B_TO_A
        )
        if fwd or bwd:
            return False
    return True


def formula_queries(c: Configuration, p: Cell, q: Cell, r: Cell) -> list:
    """Every label the view formula asks about triangle pqr seen from p, for
    all four candidate labelings: sixteen questions."""
    p0, p1 = coordinate_port_of(c, p, r), coordinate_port_of(c, p, q)
    q1, r1 = coordinate_port_of(c, q, p), coordinate_port_of(c, r, p)
    asked = []

    def record(label) -> bool:
        asked.append(label)
        return True  # keeps the formula asking every question

    for x in ((q1 + 1) % N_DIRS, (q1 - 1) % N_DIRS):
        for y in ((r1 + 1) % N_DIRS, (r1 - 1) % N_DIRS):
            reference_formula_holds(record, p0, p1, q1, r1, x, y)
    return asked


def analyze_cycle(configs, activated) -> CycleReport:
    """``oracle.UnfairCycle.lemmas`` on the object path: a periodic window
    of configurations (the first repeated at the end), ``activated[i]``
    taking ``configs[i]`` to ``configs[i + 1]``, read edge by edge through
    ``orientation`` and the owners' ports.

    Stable edges are those never undirected inside the window; a window
    with a conflict edge is rejected.  Checked: a particle with a stable
    outgoing edge is never activated and all its edges are stable; a
    particle met by an unstable edge has at least two unstable edges not
    forming one consecutive run of ports, or at least four.
    """
    if len(configs) < 2 or configs[0] != configs[-1]:
        raise ValueError("window is not an exactly periodic configuration cycle")
    if len(activated) != len(configs) - 1:
        raise ValueError("activation list does not match the window length")
    base = configs[0]
    edges = base.support.edges()
    orientations = {e: set() for e in edges}
    for cfg in configs[:-1]:
        for e in edges:
            o = cfg.orientation(*e)
            if o is EdgeOrientation.CONFLICT:
                raise ValueError(f"window contains a conflict edge {e}")
            orientations[e].add(o)

    stable = frozenset(
        e for e, os in orientations.items() if EdgeOrientation.UNDIRECTED not in os
    )
    unstable = frozenset(edges) - stable
    activated_cells = frozenset(activated)

    stable_out = []
    for p in base.support:
        has_stable_out = any(
            (e in stable)
            and base.orientation(p, e[1] if e[0] == p else e[0]) is EdgeOrientation.A_TO_B
            for e in edges
            if p in e
        )
        if not has_stable_out:
            continue
        if p in activated_cells:
            stable_out.append(f"{p} has a stable outgoing edge but is activated")
        bad = [e for e in unstable if p in e]
        if bad:
            stable_out.append(f"{p} has a stable outgoing edge but unstable edges {bad}")

    spread = []
    for p in base.support:
        ports = tuple(
            base.port_of(p, e[1] if e[0] == p else e[0]) for e in unstable if p in e
        )
        if not ports:
            continue
        if len(ports) >= 4:
            continue
        if len(ports) >= 2 and not _consecutive_cyclic(ports):
            continue
        spread.append(f"{p} has unstable edges only on ports {sorted(ports)}")

    return CycleReport(
        period=len(configs) - 1,
        stable_edges=stable,
        unstable_edges=unstable,
        activated=tuple(activated),
        stable_out_violations=tuple(stable_out),
        unstable_spread_violations=tuple(spread),
    )
