"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written with different algorithms from the
package: enumeration by rooted canonical growth instead of canonical-form
deduplication, hole detection by labelling empty components instead of a
frame flood fill, and sink/orientation facts recomputed from first
principles.  Expected values frozen into the tests were produced by these
functions.  ``reference_run`` is the object-based loop that
``scheduler.run`` replaced, kept as the oracle its compiled engine must
reproduce bit for bit.
"""

from __future__ import annotations

import random

from trielect.algorithm import activation_step, is_activable
from trielect.lattice import Cell, neighbors
from trielect.config import Configuration, EdgeOrientation
from trielect.rules import check_r2, check_r3, check_r4, is_valid, sinks
from trielect.scheduler import (
    ExecutionResult,
    Outcome,
    RandomSequential,
    RoundRobin,
    StepInvariantError,
    TraceEvent,
    _kind_label,
    detect_final,
    shape_hash,
    violation_count,
)


def empty_component_count(cells: frozenset[Cell]) -> int:
    """Number of enclosed empty components inside the margin-1 box."""
    q0 = min(c.q for c in cells) - 1
    r0 = min(c.r for c in cells) - 1
    q1 = max(c.q for c in cells) + 1
    r1 = max(c.r for c in cells) + 1
    box = [
        Cell(q, r)
        for q in range(q0, q1 + 1)
        for r in range(r0, r1 + 1)
        if Cell(q, r) not in cells
    ]
    unseen = set(box)
    enclosed = 0
    while unseen:
        seed = unseen.pop()
        comp = {seed}
        stack = [seed]
        touches_frame = seed.q in (q0, q1) or seed.r in (r0, r1)
        while stack:
            c = stack.pop()
            for nb in neighbors(c):
                if nb in unseen:
                    unseen.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
                    if nb.q in (q0, q1) or nb.r in (r0, r1):
                        touches_frame = True
        if not touches_frame:
            enclosed += 1
    return enclosed


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


def directed_edge_list(c: Configuration) -> list[tuple[Cell, Cell]]:
    out = []
    for a, b in c.edges():
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
    for a, b in c.edges():
        if c.orientation(a, b) is EdgeOrientation.CONFLICT:
            conflicted.add(a)
            conflicted.add(b)
    return {p for p, k in targets.items() if k == 0 and p not in conflicted}


def reference_run(
    c0: Configuration,
    kind,
    max_steps: int = 1_000_000,
    record_trace: bool = False,
    check_invariants: bool = False,
    trace_file=None,
) -> ExecutionResult:
    """``scheduler.run`` on the object path, O(n) work per step.

    Each step rebuilds the live list in sorted cell order, activates with
    ``activation_step``, refreshes activability of the activated particle
    and its neighbours with ``is_activable`` and recounts violations over
    the whole support.
    """
    cells = tuple(c0.support)
    config = c0
    activable = {p: is_activable(config, p) for p in cells}
    rng = random.Random(kind.seed) if isinstance(kind, RandomSequential) else None
    rr_index = script_index = 0
    events: list[TraceEvent] = []
    prev = violation_count(config) if check_invariants else None
    if trace_file is not None:
        trace_file.write(
            f"# trace shape={shape_hash(config)} scheduler={_kind_label(kind)} cap={max_steps}\n"
        )

    def finish(steps: int) -> ExecutionResult:
        if check_invariants and (not is_valid(config) or len(sinks(config)) != 1):
            raise StepInvariantError("final configuration is not a valid single-sink state", config)
        return ExecutionResult(Outcome.FINAL, config, steps, events)

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
        for q in (p, *config.support.occupied_neighbors(p)):
            activable[q] = is_activable(config, q)

        post = None
        if check_invariants:
            post = violation_count(config)
            if not (check_r2(config, p) and check_r3(config, p) and check_r4(config, p)):
                raise StepInvariantError(f"step {step}: {p} violates a repairable rule", config)
            if post > prev:
                raise StepInvariantError(f"step {step}: violation count rose", config)
            prev = post
        elif record_trace or trace_file is not None:
            post = violation_count(config)
        if record_trace:
            events.append(TraceEvent(step - 1, (p,), effect, post))
        if trace_file is not None:
            trace_file.write(
                f"{step - 1} {p.q} {p.r} {int(effect.line1_fired)} {int(effect.line2_fired)} "
                f"{int(effect.changed)} {post}\n"
            )

    if detect_final(config):
        return finish(step)
    return ExecutionResult(Outcome.CAP_EXCEEDED, config, step, events)
