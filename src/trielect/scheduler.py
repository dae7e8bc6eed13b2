"""Execution drivers and termination detection.

The contract surface is sequential scheduling.  Uniform random choice
among activable particles realises the required fairness: any
configuration recurring forever keeps every one-step successor reachable
with fixed positive probability, so every successor also recurs.  Round
robin and scripted drivers exist for determinism and for replaying
adversarial executions.

``run`` holds the paper's per-particle state directly: two lists of
six-bit masks over global directions, ``mine[ci]`` (the particle's own
Out flags) and ``theirs[ci]`` (bit ``d`` set iff the neighbour at ``d``
is Out toward it).  Cell numbers, ``around[ci]`` (the neighbours' cell
numbers by direction, -1 where the cell is empty) and ``present[ci]``
(the mask of occupied directions) are the support's own
(``Support.order``, ``Support.around``, ``Support.present``); ``run``
builds nothing per support.  It keeps every particle's next Out
mask in ``fire[ci]``, computed by one block at the top of its loop: it
looks ``present & ~theirs`` up in ``rules.RULE`` and reads the at most
two triangles it names off the masks of the neighbour the particle is Out
toward.  The particle is activable iff ``fire[ci] != mine[ci]``, and an
activation applies it.  A step writes ``mine[ci]`` and flips one
``theirs`` bit at each neighbour whose edge changed (``_set``, the one
writer), and the block then recomputes ``fire`` at the activated cell's
neighbours only (``_DEPS[flip]`` names the ones a step can change, and
the cell's own next mask reads none of its own Out flags): O(1) table
work instead of copying the configuration.  The same block's first pass
over every cell fills ``fire``; it touches ``fire[x]`` and the activable
list only where the mask changed, and a no-op step refreshes nothing.
The activable particles are kept as a sorted list of cell numbers,
updated with ``bisect`` for the activated particle and those cells only.
Cell numbers follow the support's sorted cell order, so the list equals
the one a rebuild from scratch would give.  The random draw is
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
traces are asked for, ``_breaks`` reads R2, R3 and R4 off the same masks and ``RULE`` for the
activated particle and the neighbours ``_DEPS[flip]`` names, the only
particles whose status a step can change, and keeps the violation count
up to date cell by cell, building nothing per step; a configuration is
built mid-run only for the step that breaks a check, and the activated
cell is read only to name it in that check's message.
The trace log written to ``trace_file`` is a run's one per-step record:
a header, then one ``step q r line1 line2 changed violations`` line per
event, the last field the violation count after the step.  Its flags are
read off the masks the step already holds, with ``free = present &
~theirs``, the edges line 1 leaves Out: line 1 fired iff ``free &
~before`` (an edge was undirected once conflicts were settled), line 2
iff ``after != free`` and the register changed iff ``flip``.  The ``q r``
labels are formatted once per traced run, so observing a run builds no
object per step; the unobserved loop does none of this work.
The end-of-run check reads the masks too (``_valid_single_sink``): R1
holds iff ``mine ^ theirs == present`` at every cell, no particle breaks
a rule and exactly one particle has ``mine == 0``.  ``violating_cells``
reads the same R1 and ``_breaks`` off any configuration's masks; ``run``
and ``verify`` on the command line decide with it.  ``violation_count``
is the object-path full recount through ``rules.check_r2/3/4``.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import IO, Sequence, Union

from .lattice import Cell, N_DIRS
from .config import Configuration
from .support import SupportError, format_shape_text
from .generators import check_seed
from .rules import RULE, check_r2, check_r3, check_r4

# ``activation_step`` and ``step_register`` stay importable from this
# module: the benchmark's traced run wraps them here, beside
# ``violation_count``.
from .algorithm import activation_step, is_activable, step_register  # noqa: F401


# -- scheduler kinds -------------------------------------------------------------


@dataclass(frozen=True)
class RandomSequential:
    seed: int

    def __post_init__(self) -> None:
        check_seed(self.seed)


@dataclass(frozen=True)
class RoundRobin:
    pass


@dataclass(frozen=True)
class Scripted:
    """Cyclic list of cells to activate; a non-activable entry is a no-op event."""

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("scripted schedule must list at least one cell")


SchedulerKind = Union[RandomSequential, RoundRobin, Scripted]


class Outcome(Enum):
    FINAL = "final"
    CAP_EXCEEDED = "cap"


@dataclass
class ExecutionResult:
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
    text = format_shape_text(c.support.cells)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def _kind_label(kind: SchedulerKind) -> str:
    if isinstance(kind, RandomSequential):
        return f"random seed={kind.seed}"
    if isinstance(kind, RoundRobin):
        return "roundrobin"
    return f"script len={len(kind.cells)}"


# -- the mask engine ---------------------------------------------------------------


#: ``_FLIPS[mask]``: ``(d, 1 << (d + 3) % 6)`` for every direction ``d`` in
#: ``mask``, i.e. the neighbour's ``theirs`` bit an Out flag toward ``d`` sets.
_FLIPS = tuple(
    tuple((d, 1 << (d + 3) % N_DIRS) for d in range(N_DIRS) if mask >> d & 1)
    for mask in range(1 << N_DIRS)
)

#: ``_DEPS[flip]``: the directions ``d - 1``, ``d`` and ``d + 1`` for every
#: ``d`` in ``flip``.  A step that flips the edges toward ``flip`` can
#: change the next mask and ``_breaks`` only at the stepping cell and its
#: neighbours in these directions: the far end of a flipped edge reads it
#: through ``theirs``, and the two cells adjacent to both its ends read it
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
    """``(mine, theirs)`` of ``c`` by cell number: per cell, the directions
    it is Out toward, and those whose neighbour is Out toward it."""
    mine = list(c.masks)
    theirs = [0] * len(mine)
    for m, a in zip(mine, c.support.around):
        for d, back in _FLIPS[m]:
            theirs[a[d]] |= back
    return mine, theirs


def _set(
    ci: int, after: int, mine: list[int], theirs: list[int], around: Sequence[tuple[int, ...]]
) -> None:
    """Make ``after`` the Out mask of cell ``ci``, flipping the ``theirs``
    bit of every neighbour whose edge changed."""
    a = around[ci]
    for d, back in _FLIPS[mine[ci] ^ after]:
        theirs[a[d]] ^= back
    mine[ci] = after


def _breaks(
    ci: int, mine: list[int], theirs: list[int], around: Sequence[tuple[int, ...]]
) -> bool:
    """True iff cell ``ci`` breaks R2, R3 or R4 under the masks.

    Unlike ``run``'s next-mask block this assumes nothing about the
    edges: bit ``d`` of ``mine ^ theirs`` is set iff the edge at ``d`` is
    directed, and a triangle closes a directed 3-cycle only when both its
    near edges and its far edge are directed; undirected and conflict
    edges never close one, as in ``rules.check_r4``.
    """
    m = mine[ci]
    corners = RULE[m]
    if corners is None:
        return True
    directed = m ^ theirs[ci]
    a = around[ci]
    for xd, bit, near in corners:
        if directed & near == near:
            x = a[xd]
            if mine[x] & ~theirs[x] & bit:
                return True
    return False


def _valid_single_sink(
    mine: list[int], theirs: list[int], present: Sequence[int], violations: int
) -> bool:
    """True iff every edge has exactly one Out side (R1: ``mine ^ theirs ==
    present`` at every cell), no cell ``_breaks`` (``violations`` counts
    those that do) and exactly one cell has no Out flag: a sink."""
    if violations or any(m ^ t != p for m, t, p in zip(mine, theirs, present)):
        return False
    return mine.count(0) == 1


def violating_cells(c: Configuration) -> list[int]:
    """The cell numbers, ascending, of the particles that break a rule in
    ``c``, read off ``c.masks``: R1 where ``mine ^ theirs != present``,
    R2, R3 and R4 where ``_breaks``.  The same particles as
    ``rules.violating_particles(c)`` on the object path."""
    mine, theirs = _masks(c)
    present, around = c.support.present, c.support.around
    return [ci for ci, occupied in enumerate(present)
            if mine[ci] ^ theirs[ci] != occupied or _breaks(ci, mine, theirs, around)]


# -- the driver --------------------------------------------------------------------


def run(
    c0: Configuration,
    kind: SchedulerKind,
    max_steps: int = 1_000_000,
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
        unknown = sorted(set(kind.cells) - c0.support.cells)
        if unknown:
            listed = ", ".join(f"({c.q} {c.r})" for c in unknown)
            raise SupportError(f"scripted cells not in the support: {listed}")
    support = c0.support
    cells, present, around = support.order, support.present, support.around
    n = len(cells)
    mine, theirs = _masks(c0)

    # ``fire[ci]`` is cell ``ci``'s next Out mask: the cell is activable
    # iff it differs from ``mine[ci]``.  ``todo`` names the cells whose
    # next mask the loop's first block recomputes: every cell at first,
    # then the activated cell's neighbours after a step that changes it.
    fire = mine[:]
    live: list[int] = []
    todo: Sequence[int] = range(n)
    rule = RULE

    draw = random.Random(kind.seed).getrandbits if isinstance(kind, RandomSequential) else None
    round_robin = isinstance(kind, RoundRobin)
    rr_index = 0
    script: list[int] = []
    if isinstance(kind, Scripted):
        script = [support.number[p] for p in kind.cells]
    script_index = 0

    observed = check_invariants or trace_file is not None
    if observed:
        violating = bytearray(_breaks(ci, mine, theirs, around) for ci in range(n))
        violations = sum(violating)

    if trace_file is not None:
        labels = [f"{p.q} {p.r}" for p in cells]
        trace_file.write(
            f"# trace shape={shape_hash(c0)} scheduler={_kind_label(kind)}"
            f" cap={max_steps}\n"
        )

    def current() -> Configuration:
        return c0.with_masks(bytes(mine))

    def result(outcome: Outcome) -> ExecutionResult:
        final = current()
        if outcome is Outcome.FINAL and check_invariants:
            if not _valid_single_sink(mine, theirs, present, violations):
                raise StepInvariantError(
                    "final configuration is not a valid single-sink state", final
                )
        return ExecutionResult(outcome, final, step)

    step = 0
    while True:
        for x in todo:
            if x < 0:
                continue
            # Resolving conflicts and then line 1 leave the cell Out
            # exactly toward ``nxt``, so every edge at the cell is directed
            # when line 2's test runs: ``RULE`` alone decides R2 and R3,
            # and a triangle it names is a directed 3-cycle iff its far
            # edge, read off the neighbour at ``xd``, is.
            nxt = present[x] & ~theirs[x]
            corners = rule[nxt]
            if corners is None:
                nxt = 0
            else:
                ax = around[x]
                for xd, bit, _ in corners:
                    y = ax[xd]
                    if mine[y] & ~theirs[y] & bit:
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
        else:
            if round_robin:
                while fire[rr_index % n] == mine[rr_index % n]:
                    rr_index += 1
                ci = rr_index % n
                rr_index += 1
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
            _set(ci, after, mine, theirs, around)
            todo = a = around[ci]
        else:
            todo = ()

        if not observed:
            continue
        prev_violations = violations
        if flip:
            v = _breaks(ci, mine, theirs, around)
            violations += v - violating[ci]
            violating[ci] = v
            for d in _DEPS[flip]:
                x = a[d]
                if x >= 0:
                    v = _breaks(x, mine, theirs, around)
                    violations += v - violating[x]
                    violating[x] = v
        if check_invariants:
            if violating[ci]:
                raise StepInvariantError(
                    f"step {step}: activated particle {cells[ci]} violates a repairable rule",
                    current(),
                )
            if violations > prev_violations:
                raise StepInvariantError(
                    f"step {step}: violation count rose {prev_violations} -> {violations}",
                    current(),
                )
        if trace_file is not None:
            free = present[ci] & ~theirs[ci]
            trace_file.write(
                f"{step - 1} {labels[ci]} {1 if free & ~before else 0} "
                f"{0 if after == free else 1} {1 if flip else 0} {violations}\n"
            )
