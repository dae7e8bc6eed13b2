"""Execution drivers and termination detection.

The contract surface is sequential scheduling.  Uniform random choice
among activable particles realises the required fairness: any
configuration recurring forever keeps every one-step successor reachable
with fixed positive probability, so every successor also recurs.  Round
robin and scripted drivers exist for determinism and for replaying
adversarial executions.

``run`` holds the paper's per-particle state directly: two lists of
six-bit masks over global directions, ``mine[ci]`` (the particle's own
Out flags) and ``free[ci]`` (bit ``d`` set iff the cell at ``d`` is
occupied and not Out toward it: the Out mask that resolving conflicts and
line 1 leave).  Cell numbers, ``around[ci]`` (the neighbours' cell
numbers by direction, -1 where the cell is empty) and ``present[ci]``
(the mask of occupied directions) are the support's own
(``Support.around``, ``Support.present``); ``run`` builds nothing per
support, and reads the cells themselves, ``Support.order``, only for a
trace's labels and header and for an invariant error's message.  It keeps every particle's next Out
mask in ``fire[ci]``, computed by one block at the top of its loop: it
looks ``free`` up in ``rules.RULE`` and reads the at most two triangles
it names off ``mine & free`` of the neighbour the particle is Out toward.
The particle is activable iff ``fire[ci] != mine[ci]``, and the loop
applies an activation itself, the one writer of both lists after
``_masks``: it flips one ``free`` bit at each neighbour whose edge
changed, off ``lattice.SET_DIRS`` (the table erosion walks too), and
writes ``mine[ci]``.  The block then recomputes ``fire`` only at the
neighbours ``_DEPS[flip]`` names, the ones a step can change (the
cell's own next mask reads none of its own Out flags): O(1) table work
instead of copying the configuration.  The same block's first pass over every cell
fills ``fire``; it touches ``fire[x]`` and the activable list only where
the mask changed, and a no-op step refreshes nothing.
The activable particles are kept as a sorted list of cell numbers,
updated with ``bisect`` for the activated particle and those cells only.
Cell numbers follow the support's sorted cell order, so the list equals
the one a rebuild from scratch would give, and round robin picks the
first activable cell after its last pick, wrapping round, with one
``bisect_left`` on it.  The random draw is
``random.Random.randrange(k)``'s own rejection loop written out, with
``getrandbits`` bound once per run: ``r = getrandbits(k.bit_length())``
until ``r < k``.  That is exactly what ``randrange(k)`` does for ``k >
0`` through ``_randbelow``, so it makes the same ``getrandbits`` calls,
picks the same particle and leaves the generator in the same state,
without two Python frames per step.  Every run is bit-identical to
driving ``algorithm.activation_step`` step by step, which the tests
check against an object-based reference loop.

``Configuration`` stays the boundary: ``run`` takes one and returns one.
A configuration stores these very masks (``Configuration.masks``), so
there is no round trip through registers: ``mine`` starts as
``list(c0.masks)``, and the final, capped or failing configuration is
built once from ``bytes(mine)`` by ``Configuration.with_masks``, whose one
test per cell refuses Out toward an empty cell.  When per-step checks or
traces are asked for, ``_breaks`` reads R2, R3 and R4 off the same masks and the ``RULE``
bound at its definition (``run`` reads ``scheduler.RULE`` per call) for the
activated particle and the neighbours ``_DEPS[flip]`` names, the only
particles whose status a step can change, and keeps the violation count
up to date cell by cell, building nothing per step; a configuration is
built mid-run only for the step that breaks a check, and the activated
cell is read only to name it in that check's message.
The trace log written to ``trace_file`` is a run's one per-step record:
a header, then one ``step q r line1 line2 changed violations`` line per
event, the last field the violation count after the step.  Its flags are
read off the masks the step already holds, with ``free[ci]`` the edges
line 1 leaves Out: line 1 fired iff ``free[ci] & ~before`` (an edge was
undirected once conflicts were settled), line 2 iff ``after !=
free[ci]`` and the register changed iff ``flip``.  The ``q r``
labels are formatted once per traced run, and the header's ``shape=``
digest is hashed from them, so observing a run builds no object per
step; the unobserved loop does none of this work.
The end-of-run check reads the masks too (``_valid_single_sink``): R1
holds iff ``mine == free`` at every cell, no particle breaks
a rule and exactly one particle has ``mine == 0``.  ``violating_cells``
reads the same R1 and ``_breaks`` off any configuration's masks; ``run``
and ``verify`` on the command line decide with it.  ``violation_count``
is the object-path full recount through ``rules.check_r2/3/4``.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from enum import Enum
from typing import IO, NamedTuple, Sequence, Union

from .lattice import Cell, N_DIRS, SET_DIRS
from .config import Configuration
from .support import SupportError
from .generators import check_seed
from .rules import RULE, check_r2, check_r3, check_r4

# ``activation_step`` and ``step_register`` stay importable from this
# module: the benchmark's traced run wraps them here, beside
# ``violation_count``.
from .algorithm import activation_step, is_activable, step_register  # noqa: F401


# -- scheduler kinds -------------------------------------------------------------


# A ``NamedTuple`` body cannot define ``__new__``, so the kinds that check
# their field do it in a thin subclass of their field tuple.


class _RandomSequential(NamedTuple):
    seed: int


class RandomSequential(_RandomSequential):
    __slots__ = ()

    def __new__(cls, seed: int) -> RandomSequential:
        check_seed(seed)
        return super().__new__(cls, seed)


class RoundRobin(NamedTuple):
    def __bool__(self) -> bool:
        return True  # a tuple with no fields is empty, and so would be false


class _Scripted(NamedTuple):
    cells: tuple[Cell, ...]


class Scripted(_Scripted):
    """Cyclic list of cells to activate; a non-activable entry is a no-op event."""

    __slots__ = ()

    def __new__(cls, cells: tuple[Cell, ...]) -> Scripted:
        if not cells:
            raise ValueError("scripted schedule must list at least one cell")
        return super().__new__(cls, cells)


SchedulerKind = Union[RandomSequential, RoundRobin, Scripted]


class Outcome(Enum):
    FINAL = "final"
    CAP_EXCEEDED = "cap"


class ExecutionResult(NamedTuple):
    outcome: Outcome
    config: Configuration
    steps: int

    @property
    def is_final(self) -> bool:
        return self.outcome is Outcome.FINAL


class StepInvariantError(AssertionError):
    """A per-step guarantee failed; the offending configuration is attached."""

    def __init__(self, message: str, config: Configuration):
        super().__init__(message + "\n" + config.serialize())
        self.config = config


# -- helpers ----------------------------------------------------------------------


def detect_final(c: Configuration) -> bool:
    """True iff no particle's activation would change any register."""
    return not any(is_activable(c, p) for p in c.support)


def _violates(c: Configuration, p: Cell) -> bool:
    return not (check_r2(c, p) and check_r3(c, p) and check_r4(c, p))


def violation_count(c: Configuration) -> int:
    """Number of particles breaking the out-degree, consecutiveness or triangle rule."""
    return sum(1 for p in c.support if _violates(c, p))


def shape_hash(c: Configuration) -> str:
    """The first 12 hex digits of the sha1 of ``support.format_shape_text``
    of the support, written from ``Support.order``, which is already
    sorted and distinct."""
    return _labels_hash([f"{p.q} {p.r}" for p in c.support.order])


def _labels_hash(labels: list[str]) -> str:
    """``shape_hash`` from the ``q r`` labels of the cells in order."""
    return hashlib.sha1("".join(f"{label}\n" for label in labels).encode()).hexdigest()[:12]


def _kind_label(kind: SchedulerKind) -> str:
    if isinstance(kind, RandomSequential):
        return f"random seed={kind.seed}"
    if isinstance(kind, RoundRobin):
        return "roundrobin"
    return f"script len={len(kind.cells)}"


# -- the mask engine ---------------------------------------------------------------


#: ``_DEPS[flip]``: the directions ``d - 1``, ``d`` and ``d + 1`` for every
#: ``d`` in ``flip``.  A step that flips the edges toward ``flip`` can
#: change the next mask and ``_breaks`` only at the stepping cell and its
#: neighbours in these directions: the far end of a flipped edge reads it
#: through ``free``, and the two cells adjacent to both its ends read it
#: as a triangle's far edge.  The stepping cell's own next mask reads
#: none of its own edges' Out flags, so only its ``_breaks`` can change.
_DEPS = tuple(
    tuple(
        d
        for d in range(N_DIRS)
        if flip & (1 << (d - 1) % N_DIRS | 1 << d | 1 << (d + 1) % N_DIRS)
    )
    for flip in range(1 << N_DIRS)
)


def _masks(c: Configuration) -> tuple[list[int], list[int]]:
    """``(mine, free)`` of ``c`` by cell number: per cell, its Out
    directions and the occupied ones whose neighbour is not Out toward it."""
    mine = list(c.masks)
    free = list(c.support.present)
    for m, a in zip(mine, c.support.around):
        if m:
            for d, back in SET_DIRS[m]:
                free[a[d]] ^= back
    return mine, free


def _breaks(
    ci: int,
    mine: list[int],
    free: list[int],
    present: Sequence[int],
    around: Sequence[tuple[int, ...]],
    rule: Sequence = RULE,
) -> bool:
    """True iff cell ``ci`` breaks R2, R3 or R4 under the masks.

    Unlike ``run``'s next-mask block this assumes nothing about the
    edges: bit ``d`` of ``present & ~(mine ^ free)`` is set iff the edge
    at ``d`` is directed, and a triangle closes a directed 3-cycle only
    when both its near edges and its far edge are directed; undirected
    and conflict edges never close one, as in ``rules.check_r4``.
    """
    m = mine[ci]
    corners = rule[m]
    if corners is None:
        return True
    directed = present[ci] & ~(m ^ free[ci])
    a = around[ci]
    for xd, bit, near in corners:
        if directed & near == near:
            x = a[xd]
            if mine[x] & free[x] & bit:
                return True
    return False


def _valid_single_sink(mine: list[int], free: list[int], violations: int) -> bool:
    """True iff every edge has exactly one Out side (R1: ``mine == free``
    at every cell), no cell ``_breaks`` (``violations`` counts those that
    do) and exactly one cell has no Out flag: a sink."""
    if violations or mine != free:
        return False
    return mine.count(0) == 1


def violating_cells(c: Configuration) -> list[int]:
    """The cell numbers, ascending, of the particles that break a rule in
    ``c``, read off ``c.masks``: R1 where ``mine != free``, R2, R3 and R4
    where ``_breaks``.  The same particles as
    ``rules.violating_particles(c)`` on the object path."""
    mine, free = _masks(c)
    present, around = c.support.present, c.support.around
    return [ci for ci in range(len(mine))
            if mine[ci] != free[ci] or _breaks(ci, mine, free, present, around)]


# -- the driver --------------------------------------------------------------------


#: ``run``'s default cap on events.
MAX_STEPS = 1_000_000


def run(
    c0: Configuration,
    kind: SchedulerKind,
    max_steps: int = MAX_STEPS,
    check_invariants: bool = False,
    trace_file: IO[str] | None = None,
) -> ExecutionResult:
    """Drive ``c0`` until final or ``max_steps`` events have been applied.

    ``check_invariants`` asserts, after every event, that the activated
    particle satisfies the three repairable rules and that the count of
    particles violating any of them never increases.  ``trace_file``,
    if given, receives the trace log.
    """
    if not isinstance(kind, (RandomSequential, RoundRobin, Scripted)):
        raise TypeError(f"unknown scheduler kind {type(kind).__name__}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if isinstance(kind, Scripted):
        unknown = sorted({p for p in kind.cells if p not in c0.support})
        if unknown:
            listed = ", ".join(f"({c.q} {c.r})" for c in unknown)
            raise SupportError(f"scripted cells not in the support: {listed}")
    support = c0.support
    present, around = support.present, support.around
    n = len(present)
    mine, free = _masks(c0)

    # ``fire[ci]`` is cell ``ci``'s next Out mask: the cell is activable
    # iff it differs from ``mine[ci]``.  The loop's first block recomputes
    # it at ``a[d]`` for ``d`` in ``dirs``: every cell at first, then the
    # neighbours ``_DEPS[flip]`` names after a step that flips edges.
    fire = mine[:]
    live: list[int] = []
    a: Sequence[int] = range(n)
    dirs: Sequence[int] = a
    rule = RULE

    draw = random.Random(kind.seed).getrandbits if isinstance(kind, RandomSequential) else None
    round_robin = isinstance(kind, RoundRobin)
    rr = 0
    script: list[int] = []
    if isinstance(kind, Scripted):
        script = [support.number[p] for p in kind.cells]
    script_index = 0

    observed = check_invariants or trace_file is not None
    if observed:
        violating = bytearray(_breaks(ci, mine, free, present, around) for ci in range(n))
        violations = sum(violating)

    if trace_file is not None:
        labels = [f"{p.q} {p.r}" for p in support.order]
        trace_file.write(
            f"# trace shape={_labels_hash(labels)} scheduler={_kind_label(kind)}"
            f" cap={max_steps}\n"
        )

    def current() -> Configuration:
        return c0.with_masks(bytes(mine))

    def result(outcome: Outcome) -> ExecutionResult:
        final = current()
        if outcome is Outcome.FINAL and check_invariants:
            if not _valid_single_sink(mine, free, violations):
                raise StepInvariantError(
                    "final configuration is not a valid single-sink state", final
                )
        return ExecutionResult(outcome, final, step)

    step = 0
    while True:
        for d in dirs:
            x = a[d]
            if x < 0:
                continue
            # Resolving conflicts and then line 1 leave the cell Out
            # exactly toward ``free[x]``, so every edge at the cell is
            # directed when line 2's test runs: ``RULE`` alone decides R2
            # and R3, and a triangle it names is a directed 3-cycle iff
            # its far edge, read off the neighbour at ``xd``, is.
            nxt = free[x]
            corners = rule[nxt]
            if corners is None:
                nxt = 0
            else:
                ax = around[x]
                for xd, bit, _ in corners:
                    y = ax[xd]
                    if mine[y] & free[y] & bit:
                        nxt = 0
                        break
            old = fire[x]
            if nxt != old:
                fire[x] = nxt
                m = mine[x]
                if old == m:
                    insort(live, x)
                elif nxt == m:
                    del live[bisect_left(live, x)]

        if not live:
            return result(Outcome.FINAL)
        if step >= max_steps:
            return result(Outcome.CAP_EXCEEDED)

        # The activated cell's step leaves ``fire[ci]`` as it is, so an
        # activable cell leaves ``live``.
        if draw is not None:
            # ``randrange(k)``'s own rejection loop, without its frames.
            k = len(live)
            bits = k.bit_length()
            r = draw(bits)
            while r >= k:
                r = draw(bits)
            ci = live[r]
            del live[r]
        elif round_robin:
            # The first activable cell at or after ``rr``, wrapping round.
            r = bisect_left(live, rr) % len(live)
            ci = live[r]
            del live[r]
            rr = ci + 1
        else:
            ci = script[script_index % len(script)]
            script_index += 1
            if fire[ci] != mine[ci]:
                del live[bisect_left(live, ci)]

        before = mine[ci]
        after = fire[ci]
        step += 1
        flip = before ^ after
        if flip:
            a = around[ci]
            for d, back in SET_DIRS[flip]:
                free[a[d]] ^= back
            mine[ci] = after
        dirs = _DEPS[flip]

        if not observed:
            continue
        prev_violations = violations
        if flip:
            v = _breaks(ci, mine, free, present, around)
            violations += v - violating[ci]
            violating[ci] = v
            for d in dirs:
                x = a[d]
                if x >= 0:
                    v = _breaks(x, mine, free, present, around)
                    violations += v - violating[x]
                    violating[x] = v
        if check_invariants:
            if violating[ci]:
                p = support.order[ci]
                raise StepInvariantError(
                    f"step {step}: activated particle {p} violates a repairable rule",
                    current(),
                )
            if violations > prev_violations:
                raise StepInvariantError(
                    f"step {step}: violation count rose {prev_violations} -> {violations}",
                    current(),
                )
        if trace_file is not None:
            line1 = free[ci]
            trace_file.write(
                f"{step - 1} {labels[ci]} {1 if line1 & ~before else 0} "
                f"{0 if after == line1 else 1} {1 if flip else 0} {violations}\n"
            )
