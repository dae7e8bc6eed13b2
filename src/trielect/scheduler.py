"""Execution drivers, termination detection and periodic-cycle analysis.

The contract surface is sequential scheduling.  Uniform random choice
among activable particles realises the required fairness: any
configuration recurring forever keeps every one-step successor reachable
with fixed positive probability, so every successor also recurs.  Round
robin and scripted drivers exist for determinism and for replaying
adversarial executions.

``run`` compiles the support once (``oracle.CompiledSupport``) and keeps
the state as a ``bytearray`` of per-half-edge Out flags in the oracle's
packed layout.  One activation reads only the activated particle's
half-edges and their far sides, looks its new Out mask up in
``oracle.RULE`` and reads the far edges of the at most two triangles
the entry names; it can change activability only for that particle and
its six neighbours, so a step costs O(1) table work instead of copying
the configuration.  The activable particles are kept as a sorted list
of cell numbers, updated with ``bisect`` for those seven cells only.
Cell numbers follow the support's sorted cell order, so the list equals
the one a rebuild from scratch would give, and
``live[rng.randrange(len(live))]`` picks the same particle with the same
random draws: every run is bit-identical to driving
``algorithm.activation_step`` step by step, which the tests check
against an object-based reference loop.

``Configuration`` stays the boundary: ``run`` takes one and returns one,
built once at the end from the registers that changed.  When per-step
checks or traces are asked for, ``_breaks`` reads R2, R3 and R4 off the
same Out flags and ``RULE`` for the activated particle and its
neighbours, the only particles whose status a step can change, and
keeps the violation count up to date; a configuration is built mid-run
only for the step that breaks a check.  The end-of-run check reads the
flags too (``_valid_single_sink``): every edge has exactly one Out side,
no particle breaks a rule and exactly one particle has no Out.
``violation_count`` is the object-path full recount through
``rules.check_r2/3/4``.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Sequence, Union

from .lattice import Cell, N_DIRS, dir_to_port
from .config import IN, OUT, Configuration, EdgeOrientation, Registers
from .support import SupportError, format_shape_text
from .oracle import RULE, CompiledSupport
from .rules import check_r2, check_r3, check_r4, _consecutive_cyclic

# ``activation_step`` and ``step_register`` stay importable from this
# module: the benchmark's traced run wraps them here, beside
# ``violation_count``.
from .algorithm import ActivationEffect, activation_step, is_activable, step_register  # noqa: F401


# -- scheduler kinds -------------------------------------------------------------


@dataclass(frozen=True)
class RandomSequential:
    seed: int


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


@dataclass(frozen=True)
class TraceEvent:
    step: int
    activated: tuple[Cell, ...]
    effect: ActivationEffect
    post_violation_count: int | None = None


@dataclass
class ExecutionResult:
    outcome: Outcome
    config: Configuration
    steps: int
    events: list[TraceEvent] = field(default_factory=list)

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


# -- the compiled engine ------------------------------------------------------------


def _fire(
    out: bytearray, half: tuple[int, ...], dirs: tuple[int, ...], far: tuple[int, ...]
) -> tuple[int, int, bool, bool, int]:
    """One activation of a cell, computed from the Out flags ``out``.

    The arguments after ``out`` are the cell's rows of a
    ``CompiledSupport`` (``half``, ``dirs`` and ``far_at``).  Returns
    ``(before, after, line1, line2, conflicts)``: the cell's Out flags
    before and after as masks over directions, then the fields of its
    ``ActivationEffect``.  ``out`` is not written.

    Resolving conflicts and then line 1 leave the cell Out exactly on the
    edges whose far side is In, so every edge at the cell is directed
    when line 2's test runs: ``RULE`` alone decides R2 and R3, and a
    triangle it names is a directed 3-cycle iff its far edge is.
    """
    before = after = conflicts = 0
    line1 = False
    for h, d in zip(half, dirs):
        if out[h ^ 1]:
            if out[h]:
                before |= 1 << d
                conflicts += 1
        else:
            if out[h]:
                before |= 1 << d
            else:
                line1 = True
            after |= 1 << d
    entry = RULE[after]
    ok = entry is not None
    if ok:
        for d, flip in entry:
            h = far[d]
            if h >= 0 and out[h ^ flip] and not out[h ^ flip ^ 1]:
                ok = False
                break
    return before, after if ok else 0, line1, not ok, conflicts


def _breaks(
    out: bytearray, half: tuple[int, ...], dirs: tuple[int, ...], far: tuple[int, ...]
) -> bool:
    """True iff the cell breaks R2, R3 or R4 under the Out flags ``out``.

    Takes the cell's rows of a ``CompiledSupport``, like ``_fire``, but
    assumes nothing about the edges: ``mine`` and ``theirs`` are the
    masks of the cell's own and the far-side Out flags, and bit ``d`` of
    ``mine ^ theirs`` is set iff the edge at ``d`` is directed.  A
    triangle ``RULE`` names closes a directed 3-cycle only when both its
    near edges and its far edge are directed; undirected and conflict
    edges never close one, as in ``rules.check_r4``.
    """
    mine = theirs = 0
    for h, d in zip(half, dirs):
        if out[h]:
            mine |= 1 << d
        if out[h ^ 1]:
            theirs |= 1 << d
    entry = RULE[mine]
    if entry is None:
        return True
    directed = mine ^ theirs
    directed |= directed << N_DIRS
    for d, flip in entry:
        h = far[d]
        if h >= 0 and directed >> d & 3 == 3 and out[h ^ flip] and not out[h ^ flip ^ 1]:
            return True
    return False


def _valid_single_sink(out: bytearray, half: list[tuple[int, ...]], violations: int) -> bool:
    """True iff every edge has exactly one Out side (R1), no cell ``_breaks``
    (``violations`` counts those that do) and exactly one cell of ``half``,
    a ``CompiledSupport``'s per-cell half-edges, has no Out flag: a sink."""
    if violations or not all(a != b for a, b in zip(out[::2], out[1::2])):
        return False
    return sum(not any(out[h] for h in hs) for hs in half) == 1


def _register(c: Configuration, p: Cell, dirs: tuple[int, ...], mask: int) -> Registers:
    """The register of ``p`` that is Out exactly toward the directions in ``mask``."""
    pm = c.portmaps[p]
    reg = [IN] * N_DIRS
    for d in dirs:
        if mask >> d & 1:
            reg[dir_to_port(pm, d)] = OUT
    return tuple(reg)


# -- the driver --------------------------------------------------------------------


def run(
    c0: Configuration,
    kind: SchedulerKind,
    max_steps: int = 1_000_000,
    record_trace: bool = False,
    check_invariants: bool = False,
    trace_file: IO[str] | None = None,
) -> ExecutionResult:
    """Drive ``c0`` until final or ``max_steps`` events have been applied.

    ``check_invariants`` asserts, after every event, that the activated
    particle satisfies the three repairable rules and that the count of
    particles violating any of them never increases.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if isinstance(kind, Scripted):
        unknown = sorted(set(kind.cells) - c0.support.cells)
        if unknown:
            raise SupportError(f"scripted cells not in the support: {unknown}")
    compiled = CompiledSupport(c0.support)
    cells = compiled.cells
    n = len(cells)
    half, dirs, nbrs, far_at = compiled.half, compiled.dirs, compiled.nbrs, compiled.far_at
    out = compiled.flags(c0)

    activable = bytearray(n)
    for ci in range(n):
        before, after, *_ = _fire(out, half[ci], dirs[ci], far_at[ci])
        activable[ci] = before != after
    live = [ci for ci in range(n) if activable[ci]]

    rng = random.Random(kind.seed) if isinstance(kind, RandomSequential) else None
    round_robin = isinstance(kind, RoundRobin)
    rr_index = 0
    script: list[int] = []
    if isinstance(kind, Scripted):
        number = {p: ci for ci, p in enumerate(cells)}
        script = [number[p] for p in kind.cells]
    script_index = 0

    tracing = record_trace or trace_file is not None
    observed = check_invariants or tracing
    events: list[TraceEvent] = []
    # Out masks of the cells whose register changed, by cell number.
    final_masks: dict[int, int] = {}
    if observed:
        violating = bytearray(_breaks(out, half[ci], dirs[ci], far_at[ci]) for ci in range(n))
        violations = sum(violating)

    if trace_file is not None:
        trace_file.write(
            f"# trace shape={shape_hash(c0)} scheduler={_kind_label(kind)}"
            f" cap={max_steps}\n"
        )

    def current() -> Configuration:
        return c0.with_registers({
            cells[ci]: _register(c0, cells[ci], dirs[ci], mask)
            for ci, mask in final_masks.items()
        })

    def result(outcome: Outcome) -> ExecutionResult:
        final = current()
        if outcome is Outcome.FINAL and check_invariants:
            if not _valid_single_sink(out, half, violations):
                raise StepInvariantError(
                    "final configuration is not a valid single-sink state", final
                )
        return ExecutionResult(outcome, final, step, events)

    step = 0
    while step < max_steps:
        if not live:
            return result(Outcome.FINAL)

        if rng is not None:
            ci = live[rng.randrange(len(live))]
        elif round_robin:
            while not activable[rr_index % n]:
                rr_index += 1
            ci = rr_index % n
            rr_index += 1
        else:
            ci = script[script_index % len(script)]
            script_index += 1

        before, after, line1, line2, conflicts = _fire(out, half[ci], dirs[ci], far_at[ci])
        step += 1
        changed = before != after
        if changed:
            for h, d in zip(half[ci], dirs[ci]):
                out[h] = after >> d & 1
            for x in (ci, *nbrs[ci]):
                b, a, *_ = _fire(out, half[x], dirs[x], far_at[x])
                now = b != a
                if now != activable[x]:
                    activable[x] = now
                    if now:
                        insort(live, x)
                    else:
                        del live[bisect_left(live, x)]
            final_masks[ci] = after

        if not observed:
            continue
        p = cells[ci]
        prev_violations = violations
        if changed:
            for x in (ci, *nbrs[ci]):
                v = _breaks(out, half[x], dirs[x], far_at[x])
                violations += v - violating[x]
                violating[x] = v
        if check_invariants:
            if violating[ci]:
                raise StepInvariantError(
                    f"step {step}: activated particle {p} violates a repairable rule",
                    current(),
                )
            if violations > prev_violations:
                raise StepInvariantError(
                    f"step {step}: violation count rose {prev_violations} -> {violations}",
                    current(),
                )
        if tracing:
            effect = ActivationEffect(changed, line1, line2, conflicts)
            if record_trace:
                events.append(TraceEvent(step - 1, (p,), effect, violations))
            if trace_file is not None:
                trace_file.write(
                    f"{step - 1} {p.q} {p.r} {int(line1)} {int(line2)} "
                    f"{int(changed)} {violations}\n"
                )

    return result(Outcome.FINAL if not live else Outcome.CAP_EXCEEDED)


# -- periodic-cycle analysis ---------------------------------------------------------


Edge = tuple[Cell, Cell]


@dataclass(frozen=True)
class CycleReport:
    period: int
    stable_edges: frozenset[Edge]
    unstable_edges: frozenset[Edge]
    activated: tuple[Cell, ...]
    stable_out_violations: tuple[str, ...]
    unstable_spread_violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.stable_out_violations and not self.unstable_spread_violations


def analyze_cycle(
    configs: Sequence[Configuration], activated: Sequence[Cell]
) -> CycleReport:
    """Classify edges of an exactly periodic window as stable or unstable.

    ``configs`` must hold period+1 configurations with the last equal to
    the first; ``activated[i]`` produced ``configs[i+1]`` from
    ``configs[i]``.  Stable edges are those never undirected inside the
    window.  Windows containing conflict edges are rejected: a conflict
    can never re-form, so it cannot live on a cycle unless frozen, and
    frozen conflicts have no stable/unstable reading.

    Two facts about such windows are checked and reported:
      - a particle with a stable outgoing edge is never activated in the
        period and all its edges are stable;
      - a particle met by an unstable edge has at least two unstable
        edges not forming one consecutive run of ports, or at least four.
    """
    if len(configs) < 2 or configs[0] != configs[-1]:
        raise ValueError("window is not an exactly periodic configuration cycle")
    if len(activated) != len(configs) - 1:
        raise ValueError("activation list does not match the window length")
    base = configs[0]
    edges = base.edges()
    orientations: dict[Edge, set[EdgeOrientation]] = {e: set() for e in edges}
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

    stable_out: list[str] = []
    for p in base.support:
        has_stable_out = any(
            (e in stable)
            and configs[0].orientation(p, e[1] if e[0] == p else e[0])
            is EdgeOrientation.A_TO_B
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

    spread: list[str] = []
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
