"""Brute-force ground truth over packed register states.

A register state of a support is packed two bits per edge in canonical
edge order: bit 2i is the smaller endpoint's Out flag on edge i, bit 2i+1
the larger endpoint's.  The full space (4^E states) honours arbitrary
initialisation including Out/Out; the conflict-free subspace (3^E) is
closed under sequential activation because no step ever writes Out onto
an edge whose far side is already Out.

The per-particle transition implemented here is an independent, table
driven rewrite of the reference step; tests compare the two pointwise.
Everything the step needs is precomputed per support by
``CompiledSupport``, which the scheduler's engine shares: incident edge
bit positions, occupied directions and the triangle bit patterns; the
64-entry cyclic-run table is ``lattice.CYCLIC_RUN``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .lattice import CYCLIC_RUN, DIR_OFFSETS, Cell, N_DIRS, PortMap, dir_to_port
from .config import (
    ALL_IN,
    Configuration,
    IN,
    OUT,
    identity_portmaps,
)
from .support import Support


class StateSpaceTooLarge(ValueError):
    pass


class CompiledSupport:
    """Flat per-cell tables of one support, in the packed half-edge layout.

    Cells are numbered ``0..n-1`` in sorted order.  Edge ``i`` is the
    ``i``-th edge of ``Support.edges()``; half-edge ``2i`` is its smaller
    endpoint's Out flag and ``2i+1`` the larger one's, so ``h ^ 1`` is
    always the far side of half-edge ``h``.  For cell ``ci``:

      - ``dirs[ci]``: directions toward occupied neighbours, ascending;
      - ``half[ci]``: the cell's own half-edges in that order;
      - ``nbrs[ci]``: the neighbours' cell numbers in that order;
      - ``tri_dirs[ci]``: directions ``d`` whose neighbours at ``d`` and
        ``d + 1`` are both occupied, i.e. the triangles at the cell;
      - ``tri_far[ci]``: for each such triangle, the half-edge of the
        neighbour at ``d`` toward the neighbour at ``d + 1``.

    Tables are tuples; equal direction tuples are shared between cells,
    and every half-edge number is one int object, so a thousand-cell
    support compiles to well under a megabyte.
    """

    __slots__ = ("cells", "n_half_edges", "dirs", "half", "nbrs", "tri_dirs", "tri_far")

    def __init__(self, support: Support):
        self.cells: tuple[Cell, ...] = tuple(support)
        index = {c: i for i, c in enumerate(self.cells)}
        # Cell numbers by direction; plain (q, r) tuples hash like Cells.
        around = [[index.get((q + dq, r + dr)) for dq, dr in DIR_OFFSETS] for q, r in self.cells]
        half_at: list[list[int | None]] = [[None] * N_DIRS for _ in self.cells]
        n_half = 0
        for i, row in enumerate(around):
            for d, j in enumerate(row):
                if j is not None and i < j:
                    half_at[i][d] = n_half
                    half_at[j][(d + 3) % N_DIRS] = n_half + 1
                    n_half += 2
        self.n_half_edges = n_half
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.dirs: list[tuple[int, ...]] = []
        self.half: list[tuple[int, ...]] = []
        self.nbrs: list[tuple[int, ...]] = []
        self.tri_dirs: list[tuple[int, ...]] = []
        self.tri_far: list[tuple[int, ...]] = []
        for row, hrow in zip(around, half_at):
            ds, hs, ns, tds, far = [], [], [], [], []
            for d, j in enumerate(row):
                if j is None:
                    continue
                ds.append(d)
                hs.append(hrow[d])
                ns.append(j)
                if row[(d + 1) % N_DIRS] is not None:
                    tds.append(d)
                    far.append(half_at[j][(d + 2) % N_DIRS])
            self.dirs.append(shared.setdefault(tuple(ds), tuple(ds)))
            self.half.append(tuple(hs))
            self.nbrs.append(tuple(ns))
            self.tri_dirs.append(shared.setdefault(tuple(tds), tuple(tds)))
            self.tri_far.append(tuple(far))

    def flags(self, config: Configuration) -> bytearray:
        """The Out flag of every half-edge of ``config``, one byte each."""
        out = bytearray(self.n_half_edges)
        for ci, p in enumerate(self.cells):
            pm, reg = config.portmaps[p], config.regs[p]
            for h, d in zip(self.half[ci], self.dirs[ci]):
                if reg[dir_to_port(pm, d)] is OUT:
                    out[h] = 1
        return out


class ConfigGraph:
    """Sequential successor relation over the packed states of one support."""

    def __init__(self, support: Support):
        self.support = support
        self.edges: tuple[tuple[Cell, Cell], ...] = tuple(support.edges())
        self.n_edges = len(self.edges)
        self._compiled = compiled = CompiledSupport(support)
        self.cells: tuple[Cell, ...] = compiled.cells

        # Incident structure per cell: (my_bit, other_bit, direction).
        self._inc: list[tuple[tuple[int, int, int], ...]] = []
        # Triangle structure per cell: bit positions of the six half-edges.
        self._tri: list[tuple[tuple[int, int, int, int, int, int], ...]] = []
        for ci, half in enumerate(compiled.half):
            dirs = compiled.dirs[ci]
            self._inc.append(tuple((h, h ^ 1, d) for h, d in zip(half, dirs)))
            at = dict(zip(dirs, half))
            self._tri.append(tuple(
                (at[d], at[d] ^ 1, at[(d + 1) % N_DIRS], at[(d + 1) % N_DIRS] ^ 1, far, far ^ 1)
                for d, far in zip(compiled.tri_dirs[ci], compiled.tri_far[ci])
            ))

        # Global triangle list (each unordered triangle once) for validity:
        # the copy seen from the smallest corner, whose two half-edges on
        # the triangle are then both even.
        self._triangles: list[tuple[int, int, int, int, int, int]] = [
            t for tris in self._tri for t in tris if not (t[0] & 1 or t[2] & 1)
        ]

    # -- state transitions ---------------------------------------------------

    def successor(self, state: int, ci: int) -> int:
        """State after activating cell index ``ci`` (equal state if not activable)."""
        inc = self._inc[ci]
        new = state
        for mine, other, _ in inc:
            if state >> mine & 1 and state >> other & 1:
                new &= ~(1 << mine)
        for mine, other, _ in inc:
            if not (new >> mine & 1) and not (new >> other & 1):
                new |= 1 << mine
        outmask = 0
        for mine, _, d in inc:
            if new >> mine & 1:
                outmask |= 1 << d
        ok = outmask.bit_count() <= 3 and CYCLIC_RUN[outmask]
        if ok:
            for pq_p, pq_q, pr_p, pr_r, qr_q, qr_r in self._tri[ci]:
                pq = (new >> pq_p & 1, new >> pq_q & 1)
                pr = (new >> pr_p & 1, new >> pr_r & 1)
                qr = (new >> qr_q & 1, new >> qr_r & 1)
                if pq == (1, 0) and qr == (1, 0) and pr == (0, 1):
                    ok = False
                    break
                if pr == (1, 0) and qr == (0, 1) and pq == (0, 1):
                    ok = False
                    break
        if not ok:
            for mine, _, _ in inc:
                new &= ~(1 << mine)
        return new

    def activable(self, state: int, ci: int) -> bool:
        return self.successor(state, ci) != state

    def successors(self, state: int) -> list[tuple[int, int]]:
        """(cell index, next state) for every activable cell."""
        out = []
        for ci in range(len(self.cells)):
            nxt = self.successor(state, ci)
            if nxt != state:
                out.append((ci, nxt))
        return out

    def is_final(self, state: int) -> bool:
        return all(self.successor(state, ci) == state for ci in range(len(self.cells)))

    def r234_ok(self, state: int) -> bool:
        for ci in range(len(self.cells)):
            outmask = 0
            for mine, _, d in self._inc[ci]:
                if state >> mine & 1:
                    outmask |= 1 << d
            if outmask.bit_count() > 3 or not CYCLIC_RUN[outmask]:
                return False
        for pq_p, pq_q, pr_p, pr_r, qr_q, qr_r in self._triangles:
            pq = (state >> pq_p & 1, state >> pq_q & 1)
            pr = (state >> pr_p & 1, state >> pr_r & 1)
            qr = (state >> qr_q & 1, state >> qr_r & 1)
            if pq == (1, 0) and qr == (1, 0) and pr == (0, 1):
                return False
            if pr == (1, 0) and qr == (0, 1) and pq == (0, 1):
                return False
        return True

    def is_valid(self, state: int) -> bool:
        for i in range(self.n_edges):
            if (state >> 2 * i) & 3 not in (1, 2):
                return False
        return self.r234_ok(state)

    def sinks(self, state: int) -> list[Cell]:
        out = []
        for ci, c in enumerate(self.cells):
            if not any(state >> mine & 1 for mine, _, _ in self._inc[ci]):
                out.append(c)
        return out

    # -- conversions -----------------------------------------------------------

    def pack(self, config: Configuration) -> int:
        if config.support.cells != self.support.cells:
            raise ValueError("configuration lives on a different support")
        return sum(1 << h for h, flag in enumerate(self._compiled.flags(config)) if flag)

    def unpack(
        self, state: int, portmaps: Mapping[Cell, PortMap] | None = None
    ) -> Configuration:
        pms = dict(portmaps) if portmaps is not None else identity_portmaps(self.support)
        regs = {c: list(ALL_IN) for c in self.cells}
        cfg = Configuration(self.support, pms, {c: ALL_IN for c in self.cells})
        for i, (a, b) in enumerate(self.edges):
            if state >> 2 * i & 1:
                regs[a][cfg.port_of(a, b)] = OUT
            if state >> (2 * i + 1) & 1:
                regs[b][cfg.port_of(b, a)] = OUT
        return Configuration(self.support, pms, {c: tuple(r) for c, r in regs.items()})

    # -- state enumeration --------------------------------------------------------

    def all_states(self) -> range:
        return range(1 << 2 * self.n_edges)

    def conflict_free_states(self) -> Iterator[int]:
        """All 3^E states without any Out/Out edge, in base-3 index order."""
        state = 0
        digits = [0] * self.n_edges
        yield 0
        total = 3**self.n_edges
        for _ in range(total - 1):
            i = 0
            while digits[i] == 2:
                digits[i] = 0
                state &= ~(3 << 2 * i)
                i += 1
            digits[i] += 1
            state = (state & ~(3 << 2 * i)) | (digits[i] << 2 * i)
            yield state

    def conflict_free_index(self, state: int) -> int:
        idx = 0
        mult = 1
        for i in range(self.n_edges):
            code = state >> 2 * i & 3
            if code == 3:
                raise ValueError("state has a conflict edge")
            idx += code * mult
            mult *= 3
        return idx

    def dump(self, fh, max_states: int = 1 << 16) -> int:
        """Line-delimited node/edge dump: ``state valid final`` then
        ``state cell_q cell_r successor`` per transition.  Returns the
        number of states written."""
        total = 1 << 2 * self.n_edges
        if total > max_states:
            raise StateSpaceTooLarge(f"4^{self.n_edges} states is over budget")
        for state in self.all_states():
            fh.write(f"n {state} {int(self.is_valid(state))} {int(self.is_final(state))}\n")
            for ci, nxt in self.successors(state):
                c = self.cells[ci]
                fh.write(f"e {state} {c.q} {c.r} {nxt}\n")
        return total


# -- report types ------------------------------------------------------------------


@dataclass(frozen=True)
class UniqueSinkReport:
    support: Support
    orientations: int
    valid: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


@dataclass(frozen=True)
class SilenceReport:
    support: Support
    states: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


@dataclass(frozen=True)
class ReachabilityReport:
    support: Support
    states: int
    unreachable: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.unreachable


@dataclass(frozen=True)
class UnfairCycle:
    """A cycle in the sequential successor graph, with its replay script."""

    support: Support
    states: tuple[int, ...]
    script: tuple[Cell, ...]

    @property
    def period(self) -> int:
        return len(self.script)

    def initial_config(self) -> Configuration:
        return ConfigGraph(self.support).unpack(self.states[0])

    def window(self) -> tuple[list[Configuration], list[Cell]]:
        """Configurations of one full period (first repeated at the end)."""
        graph = ConfigGraph(self.support)
        configs = [graph.unpack(s) for s in self.states]
        configs.append(graph.unpack(self.states[0]))
        return configs, list(self.script)


# -- exhaustive checks ----------------------------------------------------------------


def check_unique_sink(s: Support, max_edges: int = 24) -> UniqueSinkReport:
    """Every all-directed orientation passing the rules has exactly one sink."""
    graph = ConfigGraph(s)
    e = graph.n_edges
    if e > max_edges:
        raise StateSpaceTooLarge(f"2^{e} orientations is over budget")
    valid = 0
    counterexamples = []
    total = 1 << e
    for bits in range(total):
        state = 0
        for i in range(e):
            code = 1 if not (bits >> i & 1) else 2
            state |= code << 2 * i
        if not graph.r234_ok(state):
            continue
        valid += 1
        if len(graph.sinks(state)) != 1:
            counterexamples.append(graph.unpack(state).serialize())
    return UniqueSinkReport(s, total, valid, tuple(counterexamples))


def check_silence(s: Support, max_states: int = 1 << 22) -> SilenceReport:
    """final <=> valid over every register state, Out/Out included."""
    graph = ConfigGraph(s)
    if 1 << 2 * graph.n_edges > max_states:
        raise StateSpaceTooLarge(f"4^{graph.n_edges} states is over budget")
    mismatches = []
    count = 0
    for state in graph.all_states():
        count += 1
        final = graph.is_final(state)
        valid = graph.is_valid(state)
        if final != valid:
            tag = "final-but-invalid" if final else "valid-but-activable"
            mismatches.append(tag + "\n" + graph.unpack(state).serialize())
    return SilenceReport(s, count, tuple(mismatches))


def check_reachability(s: Support, max_states: int = 1 << 22) -> ReachabilityReport:
    """Some valid final state is reachable from every register state."""
    graph = ConfigGraph(s)
    total = 1 << 2 * graph.n_edges
    if total > max_states:
        raise StateSpaceTooLarge(f"4^{graph.n_edges} states is over budget")
    reverse: list[list[int]] = [[] for _ in range(total)]
    targets = []
    for state in graph.all_states():
        succs = graph.successors(state)
        for _, nxt in succs:
            reverse[nxt].append(state)
        if not succs and graph.is_valid(state):
            targets.append(state)
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
    unreachable = tuple(
        graph.unpack(state).serialize()
        for state in graph.all_states()
        if not reached[state]
    )
    return ReachabilityReport(s, total, unreachable)


def find_unfair_cycle(s: Support, max_states: int = 2_000_000) -> UnfairCycle | None:
    """Search the conflict-free state space for a sequential cycle.

    Any cycle avoids valid states automatically: valid states are final
    and have no outgoing transitions.  Conflict edges can never re-form,
    so restricting to the 3^E conflict-free subspace loses only cycles
    decorated with a permanently frozen Out/Out edge.
    """
    graph = ConfigGraph(s)
    total = 3**graph.n_edges
    if total > max_states:
        raise StateSpaceTooLarge(f"3^{graph.n_edges} states is over budget")
    n_cells = len(graph.cells)
    color = bytearray(total)  # 0 white, 1 gray, 2 black
    depth_of: dict[int, int] = {}

    for seed in graph.conflict_free_states():
        if color[graph.conflict_free_index(seed)]:
            continue
        # Frames: [state, next cell index to try, activating cell index from parent]
        stack: list[list[int]] = [[seed, 0, -1]]
        color[graph.conflict_free_index(seed)] = 1
        depth_of[seed] = 0
        while stack:
            frame = stack[-1]
            state, child = frame[0], frame[1]
            if child >= n_cells:
                color[graph.conflict_free_index(state)] = 2
                del depth_of[state]
                stack.pop()
                continue
            frame[1] += 1
            nxt = graph.successor(state, child)
            if nxt == state:
                continue
            idx = graph.conflict_free_index(nxt)
            if color[idx] == 1:
                start = depth_of[nxt]
                states = [stack[i][0] for i in range(start, len(stack))]
                cells = [graph.cells[stack[i][2]] for i in range(start + 1, len(stack))]
                cells.append(graph.cells[child])
                return UnfairCycle(s, tuple(states), tuple(cells))
            if color[idx] == 0:
                color[idx] = 1
                depth_of[nxt] = len(stack)
                stack.append([nxt, 0, child])
    return None


# -- omniscient helpers ------------------------------------------------------------------


def remove_particle(c: Configuration, p: Cell) -> Configuration:
    """Configuration on the support minus ``p``: the vacated cell becomes
    empty and every neighbour's port toward it is reset to In."""
    if p not in c.support.cells:
        raise ValueError(f"{p} is not occupied")
    new_support = Support(c.support.cells - {p})
    portmaps = {q: c.portmaps[q] for q in new_support}
    regs = {q: list(c.regs[q]) for q in new_support}
    for q in c.support.occupied_neighbors(p):
        regs[q][c.port_of(q, p)] = IN
    return Configuration(new_support, portmaps, {q: tuple(r) for q, r in regs.items()})
