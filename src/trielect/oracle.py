"""Brute-force ground truth over packed register states.

A register state of a support is packed two bits per edge: bit 2i is
the smaller-numbered endpoint's Out flag on edge i, bit 2i+1 the larger
one's.  Edges are numbered in one loop, ``_half_edges``, over
``Support.around``, by smaller endpoint and then by direction, which is
the order of ``Support.edges()``; ``ConfigGraph`` and
``orientation_lanes`` both read it.  The full space (4^E states) honours
arbitrary initialisation including Out/Out; the conflict-free subspace
(3^E) is closed under sequential activation because no step ever writes
Out onto an edge whose far side is already Out.

``ConfigGraph`` numbers the half-edges of a support's cells and steps
and checks whole states with mask algebra (a pair swap, the identity
``mine = not theirs``, per-cell own-pattern tables that read each
``rules.RULE`` triple through the half-edge numbering, and validity as
an all-directed state without a move), an independent rewrite of the
reference step that tests compare pointwise.  Its step
scan, ``move(state, start)``, returns the first activable cell at or
after ``start`` with the state it steps to; finality, single steps,
``final_states`` and ``reach_fates`` resume it cell by cell, as most of
their states are settled by a first move.  ``successors(state)`` runs
the same row test over every cell in one pass and lists every next
state; ``find_unfair_cycle``, which explores every move of every state
it reaches, walks those lists.  States convert to and from
configurations through ``Configuration.masks``, the Out masks by cell
number, with no register built; ``unpack`` takes the port maps as a
tuple by cell number, as ``Configuration`` keeps them.

The exhaustive checks: ``check_unique_sink`` decides all 2^E
orientations at once from ``orientation_lanes``, which holds one bit per
orientation in Python ints (lane k is orientation k) and computes R2/R3
per cell by a Shannon expansion over its Out flags, R4 per triangle and
the sink count with one/many accumulators, with no ``ConfigGraph`` and
no search; a graph is built only to unpack a counterexample.
Both of the next two checks rest on one lemma, which
``tests/test_oracle.py::test_no_move_makes_a_conflict_and_a_conflict_endpoint_clears_it``
pins: no step makes an Out/Out edge, and every endpoint of one can step
and clear it.
``check_silence`` decides final <=> valid on all 4^E states from both
ends: it compares the final states ``final_states`` lists (a depth-first
search over the codes 0, 1 and 2 of each edge, as by the lemma no final
state holds code 3, in a greedy order that completes rows early, that
runs a cell's row of ``move`` as soon as every edge it reads is fixed,
and drops the branch if the cell is activable) with the valid ones
``lane_states`` reads off the lanes;
``check_reachability`` gives the conflict-free states a fate in one
lazy Tarjan pass (``reach_fates``), rooted at ``conflict_free_states``,
which takes the codes of the lowest six edges from one table, that
settles a root on its first move where it can, stops a walk at a valid
final state or a state known to reach one, and pops a component that
cannot, and settles the conflict states by the lemma, falling back to a
pass from every state only if some conflict-free state cannot;
``find_unfair_cycle`` runs a depth-first search over the conflict-free
states with one successor list per frame of its path and one seen bit
per base-3 rank, 3^E bits, which per-byte tables compute from a packed
state; it takes its seeds in rank order from the first unseen bit.
When a state finishes, so does every image of it under the support's
automorphisms (``ConfigGraph.automorphisms``), which the search marks
seen too: a finished state cannot reach a cycle, and an automorphism
maps moves onto moves, so neither can its images.  The search skips
them, but meets the states that reach a cycle in the same order as
without the marks, so it finds the same cycle.
``UnfairCycle.lemmas`` checks the two facts the convergence proof needs
about a periodic execution, one about stable edges and one about how
unstable edges spread, on the packed states of the period: an edge's
code is 0 where it is undirected, so one OR over the states gives every
unstable edge, and each cell's own half-edge bits read the rest.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MethodType, SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple

from .lattice import ERODIBLE, Cell, N_DIRS, SET_DIRS
from .config import Configuration, PortMaps, identity_portmaps
from .rules import RULE
from .support import Support, automorphisms


class StateSpaceTooLarge(ValueError):
    pass


class ConfigGraph:
    """Sequential successor relation over the packed states of one support.

    Every method reads a whole state with a few int operations.  ``LO``
    is the mask of the even bits, and ``swap_pairs(s) = (s >> 1 & LO) |
    (s & LO) << 1`` holds the Out flag of half-edge ``h ^ 1`` at bit ``h``.
    So ``nsw = ~swap_pairs(state)`` marks the half-edges whose far side is
    In, and ``state & nsw`` those directed away from their owner.

    An activated cell with own half-edges ``own`` is Out on exactly
    ``own & nsw`` after resolving conflicts and line 1 (``mine = not
    theirs``).  Its own-pattern table is ``RULE`` with each entry mapped
    to half-edge bits once: -1 where R2 or R3 breaks, else, per triangle,
    the half-edge of ``x`` on the far edge, which closes a directed
    triangle when directed away from ``x``.  Line 2 fires iff the entry
    meets ``state & nsw | pattern``.  A far half-edge is never the cell's
    own, so only ``state & nsw`` meets a triangle; the pattern is there
    for -1, whose pattern is never empty while ``state & nsw`` is 0 in a
    state with no directed edge.  The successor is ``state & ~own`` plus
    the pattern unless line 2 fires.

    ``is_valid``: every edge is directed iff ``(state ^ state >> 1) & LO
    == LO``, and such a state is valid iff it has no move.  There ``own &
    nsw`` is ``state & own``, so a cell steps exactly when line 2 fires:
    where its entry is -1 (R2 or R3 breaks) or where it names a far
    half-edge of a directed triangle (R4).  A directed triangle is Out
    from each corner toward one other corner and In from the third, so it
    sits at an end of the corner's Out run, where ``RULE`` looks.
    Validity thus reads ``RULE`` alone, as a variant of the rule needs.
    """

    def __init__(self, support: Support):
        self.support = support
        around = support.around
        half_at = _half_edges(around)
        self.half_at: tuple[tuple[int, ...], ...] = tuple(map(tuple, half_at))
        self.n_edges = support.edge_count()

        self._lo = ((1 << 2 * self.n_edges) - 1) // 3  # 0b0101...01
        # Per cell: (its index, own half-edges, every other half-edge, own-pattern table).
        rows: list[tuple[int, int, int, dict[int, int]]] = []
        for ci, (row, half) in enumerate(zip(around, self.half_at)):
            own = sum(1 << h for h in half if h >= 0)
            rows.append((ci, own, ~own, _own_pattern_table(half, row, half_at)))
        self._rows: tuple[tuple[int, int, int, dict[int, int]], ...] = tuple(rows)

    @property
    def cells(self) -> tuple[Cell, ...]:
        """The support's cells by number, decoded only when read."""
        return self.support.order

    # -- state transitions ---------------------------------------------------

    def move(self, state: int, start: int = 0) -> tuple[int, int] | None:
        """(cell index, next state) for the first activable cell with index
        at least ``start``, or None if there is none."""
        lo = self._lo
        nsw = ~((state >> 1 & lo) | (state & lo) << 1)
        away = state & nsw
        for ci, own, keep, table in self._rows[start:]:
            after = own & nsw
            if (away | after) & table[after]:
                after = 0
            if after != state & own:
                return ci, state & keep | after
        return None

    def successors(self, state: int) -> list[int]:
        """The state every activable cell steps to, in cell order: the row
        test of ``move`` over every row in one pass."""
        lo = self._lo
        nsw = ~((state >> 1 & lo) | (state & lo) << 1)
        away = state & nsw
        found = []
        for _, own, keep, table in self._rows:
            after = own & nsw
            if (away | after) & table[after]:
                after = 0
            if after != state & own:
                found.append(state & keep | after)
        return found

    def successor(self, state: int, ci: int) -> int:
        """State after activating cell index ``ci`` (equal state if not activable)."""
        found = self.move(state, ci)
        return found[1] if found is not None and found[0] == ci else state

    def all_directed(self, state: int) -> bool:
        """Every edge directed: on a state without a move, ``is_valid``."""
        lo = self._lo
        return (state ^ state >> 1) & lo == lo

    def is_valid(self, state: int) -> bool:
        return self.all_directed(state) and self.move(state) is None

    def automorphisms(self) -> list[tuple[int, ...]]:
        """The support's ``support.automorphisms`` as half-edge permutations
        ``image[h]``, each kept only if it maps every row onto its image
        cell's row.  The own half-edges of a cell map onto those of its
        image by construction; each entry of the own-pattern table must map
        onto the entry of the image pattern, -1 onto -1.  Then
        ``successors`` of an image state are the images of the successors,
        so a ``RULE`` that lacks a symmetry of the lattice drops it here."""
        rows, half_at = self._rows, self.half_at
        found = []
        for cells, dirs in automorphisms(self.support):
            image = [0] * (2 * self.n_edges)
            for half, target in zip(half_at, cells):
                for d, h in enumerate(half):
                    if h >= 0:
                        image[h] = half_at[target][dirs[d]]
            if all(
                rows[j][3][_moved(bits, image)] == (entry if entry < 0 else _moved(entry, image))
                for (_, _, _, table), j in zip(rows, cells)
                for bits, entry in table.items()
            ):
                found.append(tuple(image))
        return found

    # -- conversions -----------------------------------------------------------

    def pack(self, config: Configuration) -> int:
        if config.support != self.support:
            raise ValueError("configuration lives on a different support")
        state = 0
        for mask, half in zip(config.masks, self.half_at):
            # A Configuration is never Out toward an empty cell, so h >= 0.
            for d, h in enumerate(half):
                if mask >> d & 1:
                    state |= 1 << h
        return state

    def unpack(
        self, state: int, portmaps: PortMaps | None = None
    ) -> Configuration:
        pms = portmaps if portmaps is not None else identity_portmaps(self.support)
        masks = [
            sum(1 << d for d, h in enumerate(half) if h >= 0 and state >> h & 1)
            for half in self.half_at
        ]
        return Configuration.from_masks(self.support, pms, masks)

    # -- state enumeration --------------------------------------------------------

    def conflict_free_states(self) -> Iterator[int]:
        """All 3^E states without any Out/Out edge, in base-3 index order.

        The lowest k = min(E, 6) edges are the fastest digits, and their
        3^k codes are the first 3^k entries of ``_LOW_STATES``, so each
        high part is OR-ed onto that list; a carry over edges k and up
        steps the high part once per 3^k states."""
        k = min(self.n_edges, _LOW_EDGES)
        low = _LOW_STATES[: 3**k]
        unit = 1 << 2 * k
        lo = self._lo & -unit  # the even bits of edges k and up
        high = 0
        for _ in range(3 ** (self.n_edges - k)):
            yield from map(high.__or__, low)
            twos = (high >> 1 & ~high & lo) * 3  # every high edge with code 2
            carry = (twos + unit) & ~twos  # the lowest high edge without: add 1 there, clear below
            high = (high & ~(carry - 1)) + carry


def _moved(bits: int, image: list[int]) -> int:
    """The half-edge set ``bits`` with each half-edge h moved to ``image[h]``."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << image[low.bit_length() - 1]
        bits ^= low
    return out


def rank_tables(image: Iterable[int]) -> tuple[list[int], ...]:
    """Four per-byte tables for the base-3 rank of a conflict-free state,
    edge i being digit i, after each half-edge h moves to ``image[h]``:
    the rank is ``t[0][s & 255] + t[1][s >> 8 & 255] + t[2][s >> 16 & 255]
    + t[3][s >> 24]`` for a state ``s`` below 2^32, that is E <= 16.

    A conflict-free edge has code 0, 1 or 2, each at most one bit, so the
    rank is linear in the bits: half-edge h weighs 3^(h >> 1), twice that
    when odd.  Table k sums the weights of the set bits of its byte."""
    weights = [(1 + (h & 1)) * 3 ** (h >> 1) for h in image]
    weights += [0] * (32 - len(weights))
    tables = []
    for k in range(4):
        table = [0]
        for w in weights[8 * k : 8 * k + 8]:
            table += [x + w for x in table]
        tables.append(table)
    return tuple(tables)


#: The rank tables of the identity, which serve every support.
_RANK = rank_tables(range(32))


def _low_states(e: int) -> list[int]:
    """The conflict-free states of the lowest ``e`` edges in base-3 rank
    order.  Edge i is digit i, so each edge adds its codes 1 and 2 above
    the list so far."""
    states = [0]
    for i in range(e):
        states = [state | code << 2 * i for code in range(3) for state in states]
    return states


#: ``_LOW_STATES[d]``: the conflict-free state of the lowest ``_LOW_EDGES``
#: edges whose base-3 rank is ``d``; its first 3^k entries are those of the
#: lowest k edges.
_LOW_EDGES = 6
_LOW_STATES = _low_states(_LOW_EDGES)
#: ``_CODES[d]``: the four edge codes whose base-3 rank is ``d < 81``, as a byte.
_CODES = _LOW_STATES[:81]
#: The first byte of a seen-bit array with an unseen bit.
_UNSEEN_BYTE = re.compile(b"[^\xff]")


def _half_edges(around: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """``half_at[ci][d]``: the half-edge of cell ``ci`` toward direction
    ``d``, -1 where that cell is empty.  Edges are numbered by smaller
    endpoint, then direction; edge i has half-edge 2i at its smaller
    endpoint and 2i + 1 at its larger one, so ``h ^ 1`` is the far side
    of ``h``."""
    half_at = [[-1] * N_DIRS for _ in around]
    n_half = 0
    for ci, row in enumerate(around):
        for d, cj in enumerate(row):
            if ci < cj:
                half_at[ci][d] = n_half
                half_at[cj][(d + 3) % N_DIRS] = n_half + 1
                n_half += 2
    return half_at


def _own_pattern_table(
    half: tuple[int, ...], row: tuple[int, ...], half_at: list[list[int]]
) -> dict[int, int]:
    """A cell's ``RULE`` entry for every pattern of Out flags on its own
    half-edges (``half`` and its neighbours ``row`` by direction, -1 where
    missing): -1 if it breaks R2 or R3, else the far half-edges that close
    a directed 3-cycle when directed away from their owner ``x``.  A
    pattern is Out only toward occupied cells, so ``x`` exists; its
    half-edge toward the other corner is -1 where that corner is empty."""
    patterns = [(0, 0)]  # (own half-edges, directions), each grown from a smaller subset
    for d, h in enumerate(half):
        if h >= 0:
            patterns += [(bits | 1 << h, mask | 1 << d) for bits, mask in patterns]
    # The two triangles of an entry have different far edges, so the sum is their union.
    return {
        bits: -1 if (entry := RULE[mask]) is None
        else sum(
            1 << f for x_dir, bit, _ in entry
            if (f := half_at[row[x_dir]][bit.bit_length() - 1]) >= 0
        )
        for bits, mask in patterns
    }


# -- report types ------------------------------------------------------------------


class UniqueSinkReport(NamedTuple):
    support: Support
    orientations: int
    valid: int
    counterexamples: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


class SilenceReport(NamedTuple):
    support: Support
    states: int
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


class ReachabilityReport(NamedTuple):
    support: Support
    states: int
    unreachable: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.unreachable


Edge = tuple[Cell, Cell]


class CycleReport(NamedTuple):
    """``UnfairCycle.lemmas``: the edges of a periodic window split into
    stable and unstable, and the particles that break either fact."""

    period: int
    stable_edges: frozenset[Edge]
    unstable_edges: frozenset[Edge]
    activated: tuple[Cell, ...]
    stable_out_violations: tuple[str, ...]
    unstable_spread_violations: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.stable_out_violations and not self.unstable_spread_violations


class UnfairCycle(NamedTuple):
    """A cycle in the sequential successor graph, with its replay script."""

    support: Support
    states: tuple[int, ...]
    script: tuple[Cell, ...]

    @property
    def period(self) -> int:
        return len(self.script)

    def initial_config(self) -> Configuration:
        return ConfigGraph(self.support).unpack(self.states[0])

    def lemmas(self) -> CycleReport:
        """Classify the edges of the period as stable or unstable and check
        the two facts the convergence proof needs about such a window.

        An edge is stable iff it is never undirected in the period (code
        0 in none of ``states``).  A window with a conflict edge (code 3)
        is rejected: a conflict never re-forms, so it lives on a cycle
        only frozen, and a frozen conflict has no stable reading.  The
        facts:
          - a particle Out on a stable edge in ``states[0]`` is never
            activated and has no unstable edge;
          - a particle met by an unstable edge has at least four, or at
            least two not forming one cyclic run.  A port map is a
            rotation or a reflection, so a cyclic run of ports is one of
            directions too, and the test is ``lattice.ERODIBLE`` over
            directions.
        """
        graph = ConfigGraph(self.support)
        lo = graph._lo
        undirected = 0
        for state in self.states:
            if state & state >> 1 & lo:
                raise ValueError("window contains a conflict edge")
            undirected |= ~(state | state >> 1) & lo
        unstable = undirected | undirected << 1  # both half-edges of each
        stable_out = self.states[0] & ~unstable
        edges = self.support.edges()
        activated = frozenset(self.script)
        stable_out_violations = []
        spread_violations = []
        for p, half, (_, own, _, _) in zip(graph.cells, graph.half_at, graph._rows):
            dirs = [d for d, h in enumerate(half) if h >= 0 and unstable >> h & 1]
            if stable_out & own:
                if p in activated:
                    stable_out_violations.append(f"{p} has a stable outgoing edge but is activated")
                if dirs:
                    bad = [edges[half[d] >> 1] for d in dirs]
                    stable_out_violations.append(
                        f"{p} has a stable outgoing edge but unstable edges {bad}"
                    )
            if ERODIBLE[sum(1 << d for d in dirs)]:
                spread_violations.append(f"{p} has unstable edges only on directions {dirs}")
        return CycleReport(
            period=self.period,
            stable_edges=frozenset(e for i, e in enumerate(edges) if not undirected >> 2 * i & 1),
            unstable_edges=frozenset(e for i, e in enumerate(edges) if undirected >> 2 * i & 1),
            activated=self.script,
            stable_out_violations=tuple(stable_out_violations),
            unstable_spread_violations=tuple(spread_violations),
        )


# -- exhaustive checks ----------------------------------------------------------------


#: ``_CORNERS[mask]``: the directions d with d and d + 1 in ``mask``, the
#: triangles at a cell.
_CORNERS = tuple(
    tuple(d for d, _ in SET_DIRS[m & (m >> 1 | m << N_DIRS - 1)]) for m in range(1 << N_DIRS)
)


def lane_variables(e: int) -> list[int]:
    """``x[i]`` for each of ``e`` edges: lane k is set iff bit i of k is,
    over 2^e lanes.  A block of 2^i clear and 2^i set lanes is doubled by
    shifts up to 2^e; a division of the full mask by the block's repeat
    would cost far more at e = 20 and above."""
    x = []
    for i in range(e):
        width = 2 << i
        lanes = ((1 << (1 << i)) - 1) << (1 << i)
        while width < 1 << e:
            lanes |= lanes << width
            width <<= 1
        x.append(lanes)
    return x


def _spread_table() -> tuple[int, ...]:
    """Each entry is the entry of ``b >> 1`` shifted up by two, plus bit 0
    of ``b``: one lookup per byte, not a sum over its bits."""
    spread = [0]
    for b in range(1, 256):
        spread.append(spread[b >> 1] << 2 | b & 1)
    return tuple(spread)


#: ``_SPREAD[b]``: byte ``b`` with bit i moved to bit 2i.
_SPREAD = _spread_table()


def lane_states(lanes: int, e: int) -> list[int]:
    """The packed states of the set lanes of ``lanes`` over ``e`` edges, in
    increasing order: lane k gives edge i code 2 where bit i of k is set,
    else 1, so its state is ``LO`` plus k with bit i moved to bit 2i.  The
    lanes k = 8j + t of byte j share ``LO`` plus the spread of j shifted up
    by 6, one table lookup per byte of j, and add the spread of t."""
    lo = ((1 << 2 * e) - 1) // 3
    states: list[int] = []
    for j, byte in enumerate(lanes.to_bytes((lanes.bit_length() + 7) // 8, "little")):
        if byte:
            base, high, shift = lo, j, 6
            while high:
                base += _SPREAD[high & 255] << shift
                high >>= 8
                shift += 16
            states += [base + _SPREAD[t] for t in range(8) if byte >> t & 1]
    return states


@lru_cache(maxsize=1)
def _rule_fates(rule: tuple) -> bytes:
    """``fates[mask << 6 | rest]`` for disjoint direction masks: 0 if no
    Out mask ``mask | sub``, ``sub`` a subset of ``rest``, breaks R2 or R3
    in ``rule``, 1 if every one does, else 2.  Keyed on the table itself,
    so a different ``RULE`` gets its own."""
    fates = bytearray(1 << 2 * N_DIRS)
    for rest in range(1 << N_DIRS):
        low = rest & -rest
        for mask in range(1 << N_DIRS):
            if mask & rest:
                continue
            at = mask << N_DIRS | rest
            if rest:
                taken, left = fates[at ^ low | low << N_DIRS], fates[at ^ low]
                fates[at] = taken if taken == left else 2
            else:
                fates[at] = rule[mask] is None
    return bytes(fates)


def orientation_lanes(s: Support) -> tuple[int, int, int]:
    """``(E, valid, single_sink)`` over all 2^E orientations of ``s`` at once.

    ``valid`` and ``single_sink`` are bit vectors with one lane per
    orientation: lane k is the state ``lane_states`` maps it to, where
    bit i of k set means edge i is Out at its larger endpoint.  Lane k of
    ``valid`` is set iff that state is valid, that is passes R2/R3/R4, and
    of ``single_sink`` iff it has exactly one sink.  On the edge variables
    ``x = lane_variables(E)``, the half-edges of edge i are Out on
    ``x[i]`` at its larger endpoint and on the complement at its smaller
    one.  R2/R3 breaks at a cell on the lanes a depth-first Shannon
    expansion over its occupied directions leads to a ``RULE`` entry of
    None; a branch stops as soon as ``_rule_fates`` says every Out mask
    it can still reach breaks, or none does.  R4 breaks on the lanes
    where a triangle's three edges run one way round, either way.  A cell
    is a sink on the lanes where all its half-edges are In, and one/many
    accumulators leave the lanes with exactly one.  Lanes are ints of 2^E
    bits; the E edge variables and about a dozen more are live at once.
    """
    around = s.around
    half_at = _half_edges(around)
    e = s.edge_count()
    full = (1 << (1 << e)) - 1
    x = lane_variables(e)
    fates = _rule_fates(RULE)

    bad = one = many = 0
    for ci, (row, half, present) in enumerate(zip(around, half_at, s.present)):
        # (direction, x, 1 at the larger endpoint): Out where x is set at
        # the larger endpoint, where it is clear at the smaller.
        lits = [(d, x[h >> 1], h & 1) for d, _ in SET_DIRS[present] for h in [half[d]]]
        # A branch holds the lanes ``acc`` whose Out flags on the first j
        # directions of ``lits`` are ``mask``, with ``rest`` still open; it
        # follows Out and leaves In to ``pending``.
        pending = [(0, 0, present, full)]
        while pending:
            j, mask, rest, acc = pending.pop()
            while (fate := fates[mask << N_DIRS | rest]) == 2:
                d, lanes, larger = lits[j]
                on = acc & lanes
                acc ^= on
                if not larger:
                    on, acc = acc, on
                j += 1
                rest ^= 1 << d
                pending.append((j, mask, rest, acc))
                mask |= 1 << d
                acc = on
            if fate:
                bad |= acc
        sink = full
        for _, lanes, larger in lits:
            sink = sink & ~lanes if larger else sink & lanes
        many |= one & sink
        one |= sink
        # Triangle ci, cj, ck with cj at d and ck at d + 1, once from its
        # smallest corner.  It is a directed 3-cycle, either way round, on
        # the lanes where ci -> cj, cj -> ck and ck -> ci are all Out at
        # their tails or all In.
        for d in _CORNERS[present]:
            cj, ck = row[d], row[(d + 1) % N_DIRS]
            if ci < cj and ci < ck:
                h = half_at[cj][(d + 2) % N_DIRS]
                a = full ^ x[half[d] >> 1]
                b = x[h >> 1] if h & 1 else full ^ x[h >> 1]
                c = x[half[(d + 1) % N_DIRS] >> 1]
                bad |= full & ~(a ^ b | b ^ c)
    return e, full & ~bad, one & ~many


def check_unique_sink(s: Support, max_edges: int = 24) -> UniqueSinkReport:
    """Every all-directed orientation passing the rules has exactly one sink.

    ``orientation_lanes`` decides all 2^E orientations at once; a
    ``ConfigGraph`` is built only to unpack the valid orientations whose
    sink count is not one, which ``lane_states`` gives in lane order.
    At E = 24 the lanes are 2 MB ints, and the check allocates about
    83 MB at its peak.
    """
    e = s.edge_count()
    if e > max_edges:
        raise StateSpaceTooLarge(f"2^{e} orientations is over budget")
    _, valid, single = orientation_lanes(s)
    counterexamples: tuple[str, ...] = ()
    if bad := valid & ~single:
        graph = ConfigGraph(s)
        counterexamples = tuple(graph.unpack(state).serialize() for state in lane_states(bad, e))
    return UniqueSinkReport(s, 1 << e, valid.bit_count(), counterexamples)


def final_states(graph: ConfigGraph) -> list[int]:
    """Every state of ``graph`` without a move, in increasing order.

    A depth-first search fixes the edge codes one edge at a time, to 0,
    1 or 2 only: an endpoint of an Out/Out edge always has a move, as
    line 1 clears its own Out there, so no final state holds code 3,
    whatever ``RULE`` is.  A cell's row in ``move`` reads only its read
    set: the edges of its own half-edges and of the far half-edges its
    own-pattern table names, that is its incident edges and the far edges
    of its triangles.  Once the last edge of that set is fixed, the row
    test is exact on the partial state, so the search runs ``move`` over
    only the rows completed at that edge, bound to a namespace that holds
    those rows and ``graph``'s even-bit mask, and drops the branch if any
    cell is activable.  The edges are fixed in a greedy order that
    completes rows early: next come the unfixed read edges, in increasing
    order, of the cell with the fewest of them (the first such cell on a
    tie).  Every cell is tested on the way to a leaf, except a cell
    without edges, which is never activable.  The leaves are sorted at
    the end.
    """
    # Each row with the edges it reads; a row that reads none is never activable.
    reads: list[tuple[tuple[int, int, int, dict[int, int]], set[int]]] = []
    for row in graph._rows:
        bits = row[1]
        for far in row[3].values():
            if far > 0:
                bits |= far
        if bits:
            reads.append((row, {h >> 1 for h in range(bits.bit_length()) if bits >> h & 1}))
    order: list[int] = []
    left = [edges for _, edges in reads]
    while left:
        new = sorted(min(left, key=len))
        order += new
        left = [rest for edges in left if (rest := edges.difference(new))]
    # levels[p] runs ``move`` over the rows whose last read edge is
    # ``order[p]``, and is None where there are none.
    position = {edge: p for p, edge in enumerate(order)}
    rows: list[list[tuple[int, int, int, dict[int, int]]]] = [[] for _ in order]
    for row, edges in reads:
        rows[max(position[edge] for edge in edges)].append(row)
    levels: list[Callable[[int], tuple[int, int] | None] | None] = [
        MethodType(ConfigGraph.move, SimpleNamespace(_lo=graph._lo, _rows=tuple(level_rows)))
        if level_rows else None
        for level_rows in rows
    ]
    # Codes 0, 1 and 2 of each edge: no final state holds code 3.
    codes = [(0, 1 << 2 * edge, 2 << 2 * edge) for edge in order]
    found: list[int] = []

    def fix(state: int, p: int) -> None:
        """Extend ``state``, whose edges ``order[:p]`` are fixed, by every
        code but 3 of edge ``order[p]``."""
        if p == len(order):
            found.append(state)
            return
        move = levels[p]
        for code in codes[p]:
            nxt = state | code
            if move is None or move(nxt) is None:
                fix(nxt, p + 1)

    fix(0, 0)
    found.sort()
    return found


def check_silence(s: Support, max_edges: int = 24) -> SilenceReport:
    """final <=> valid over every register state, Out/Out included, decided
    from both ends without visiting each state: the final states
    ``final_states`` lists against the valid ones, which are all-directed
    and which ``lane_states`` reads off the ``valid`` lanes of
    ``orientation_lanes``.  Each mismatch is tagged with the side it is
    on, in packed-state order.  ``states`` counts the 4^E states this
    decides; ``max_edges`` bounds E, as the lanes hold 2^E bits.
    """
    graph = ConfigGraph(s)
    e = graph.n_edges
    if e > max_edges:
        raise StateSpaceTooLarge(f"2^{e} orientations is over budget")
    final = set(final_states(graph))
    valid = set(lane_states(orientation_lanes(s)[1], e))
    return SilenceReport(s, 1 << 2 * e, tuple(
        ("final-but-invalid" if state in final else "valid-but-activable")
        + "\n" + graph.unpack(state).serialize()
        for state in sorted(final ^ valid)
    ))


#: A state's fate in ``reach_fates``: not yet visited, on the Tarjan stack,
#: reaches a valid final state, or cannot.
UNSEEN, ON_STACK, REACHES, CANNOT = range(4)


def reach_fates(
    total: int,
    move: Callable[[int, int], tuple[int, int] | None],
    is_target: Callable[[int], bool],
    roots: Iterable[int] | None = None,
) -> bytearray:
    """The fate, ``REACHES`` or ``CANNOT``, of every state ``0 .. total - 1``
    of the graph whose moves ``move(state, start)`` lists one at a time (the
    first at index ``start`` or later, as ``ConfigGraph.move`` does); the
    targets are the states without a move that pass ``is_target``.  With
    ``roots``, only the states those reach get a fate; the others stay
    ``UNSEEN``.

    ``is_target`` is called only on a state ``move(state, 0)`` has just
    found to have no move, so it need not test for one:
    ``ConfigGraph.all_directed`` alone gives the valid final states.

    One lazy iterative Tarjan pass.  Every state on the Tarjan stack reaches
    the current DFS node, so a target, or a move to a state that already
    reaches, marks the whole stack ``REACHES``; the walk then restarts from
    the next unseen root.  Otherwise an SCC root that runs out of moves pops
    its component as ``CANNOT``: every move out of it ends in ``CANNOT``.
    A root is first settled on its first move alone where that decides it:
    no move, or a move onto a state that already reaches.
    """
    fate = bytearray(total)
    stack: list[int] = []  # the Tarjan stack
    pos_of: dict[int, int] = {}  # the stack position of each state on it
    for root in range(total) if roots is None else roots:
        if fate[root]:
            continue
        found = move(root, 0)
        if found is None:
            fate[root] = REACHES if is_target(root) else CANNOT
            continue
        if fate[found[1]] == REACHES:
            fate[root] = REACHES
            continue
        fate[root] = ON_STACK
        pos_of[root] = 0
        stack.append(root)
        # The DFS node: its state, stack position, lowest stack position it
        # reaches and the index to resume ``move`` at; ``frames`` holds the
        # same four for every node above it.  ``found`` is its next move.
        state, pos, low, start = root, 0, 0, 0
        frames: list[tuple[int, int, int, int]] = []
        while True:
            if found is not None:
                start = found[0] + 1
                nxt = found[1]
                if fate[nxt] == REACHES:
                    break
                if fate[nxt] == UNSEEN:
                    frames.append((state, pos, low, start))
                    state, pos, low, start = nxt, len(stack), len(stack), 0
                    fate[nxt] = ON_STACK
                    pos_of[nxt] = pos
                    stack.append(nxt)
                elif fate[nxt] == ON_STACK:
                    low = min(low, pos_of[nxt])
            elif not start and is_target(state):
                break
            else:
                if low == pos:
                    for w in stack[pos:]:
                        fate[w] = CANNOT
                        del pos_of[w]
                    del stack[pos:]
                if not frames:
                    break
                child_low = low
                state, pos, low, start = frames.pop()
                low = min(low, child_low)
            found = move(state, start)
        # A break at a target or at a state that reaches leaves the stack to
        # mark; one after the root's component popped leaves it empty.
        for w in stack:
            fate[w] = REACHES
        stack.clear()
        pos_of.clear()
    return fate


def check_reachability(s: Support, max_states: int = 1 << 24) -> ReachabilityReport:
    """Some valid final state is reachable from every register state.

    The pass walks the 3^E conflict-free states only and settles the
    conflict states by a lemma.  Line 1 of a step writes Out only on
    ``own & nsw``, where the far side is In, and line 2 writes no Out at
    all, so no step makes an Out/Out edge: the conflict-free states are
    closed under ``move``.  On a conflict edge, each endpoint's own bit is
    outside ``nsw``, so it is cleared, its Out pattern changes and the
    endpoint is activable; its step removes that conflict and makes no
    other.  Each conflict state therefore reaches a conflict-free state
    within as many steps as it has conflicts, and reaches a valid final
    state if every conflict-free state does.  If some conflict-free state
    cannot, a pass from every state lists all that cannot, conflict
    states included.  ``states`` counts the 4^E states this decides.
    """
    graph = ConfigGraph(s)
    total = 1 << 2 * graph.n_edges
    if total > max_states:
        raise StateSpaceTooLarge(f"4^{graph.n_edges} states is over budget")
    fate = reach_fates(total, graph.move, graph.all_directed, graph.conflict_free_states())
    if CANNOT in fate:
        fate = reach_fates(total, graph.move, graph.all_directed)
    unreachable = []
    state = fate.find(CANNOT)
    while state >= 0:
        unreachable.append(graph.unpack(state).serialize())
        state = fate.find(CANNOT, state + 1)
    return ReachabilityReport(s, total, tuple(unreachable))


def find_unfair_cycle(s: Support, max_states: int = 2_000_000) -> UnfairCycle | None:
    """Search the conflict-free state space for a sequential cycle.

    Any cycle avoids valid states automatically: valid states are final
    and have no outgoing transitions.  Conflict edges can never re-form,
    so restricting to the 3^E conflict-free subspace loses only cycles
    decorated with a permanently frozen Out/Out edge.  A depth-first
    search lists each state's moves once with ``successors`` and walks
    them with one iterator per frame; it marks the states it has seen in
    one bit per base-3 rank (``rank_tables``), and a seen state is on the
    current path (gray) iff it is in ``depth_of``.  Seeds are the unseen
    ranks in increasing order, which is the order of
    ``conflict_free_states``.

    A state that finishes (turns black) before any cycle is found reaches
    no cycle, nor does any image of it under ``graph.automorphisms()``,
    so the search marks those images seen as well.  Every state it skips
    so reaches no cycle, and a walk into such a state returns without
    changing which cycle-reaching states are seen or gray.  So the search
    meets the cycle-reaching states, seeds among them, in the order it
    would without the marks, and returns the same cycle.  A step changes
    only the activated cell's own half-edges, so the cells of a cycle's
    script are read off consecutive states.
    """
    graph = ConfigGraph(s)
    e = graph.n_edges
    total = 3**e
    if total > max_states:
        raise StateSpaceTooLarge(f"3^{e} states is over budget")
    if e > 16:
        raise StateSpaceTooLarge(f"{e} edges is over the 16 the rank tables cover")
    successors = graph.successors
    r0, r1, r2, r3 = _RANK
    images = [rank_tables(image) for image in graph.automorphisms()]
    seen = bytearray((total >> 3) + 1)
    seen[-1] = 0xFF << (total & 7) & 0xFF  # the ranks past 3^E
    depth_of: dict[int, int] = {}

    at = 0
    while unseen := _UNSEEN_BYTE.search(seen, at):
        at = unseen.start()
        bit = (~seen[at] & seen[at] + 1).bit_length() - 1
        seen[at] |= 1 << bit
        rank = 8 * at + bit
        seed = (
            _CODES[rank % 81] | _CODES[rank // 81 % 81] << 8
            | _CODES[rank // 6561 % 81] << 16 | _CODES[rank // 531441] << 24
        )
        depth_of[seed] = 0
        # The walk is at ``state`` and takes its next move from ``nexts``;
        # ``path`` holds the (state, nexts) of every state above it.
        state, nexts = seed, iter(successors(seed))
        path: list[tuple[int, Iterator[int]]] = []
        while True:
            for nxt in nexts:
                rank = r0[nxt & 255] + r1[nxt >> 8 & 255] + r2[nxt >> 16 & 255] + r3[nxt >> 24]
                if seen[rank >> 3] >> (rank & 7) & 1:
                    if nxt in depth_of:
                        loop = [st for st, _ in path[depth_of[nxt]:]] + [state]
                        owners = [(c, row[1]) for c, row in zip(graph.cells, graph._rows)]
                        script = tuple(
                            next(c for c, own in owners if (a ^ b) & own)
                            for a, b in zip(loop, loop[1:] + loop[:1])
                        )
                        return UnfairCycle(s, tuple(loop), script)
                    continue
                seen[rank >> 3] |= 1 << (rank & 7)
                path.append((state, nexts))
                depth_of[nxt] = len(path)
                state, nexts = nxt, iter(successors(nxt))
                break
            else:
                del depth_of[state]
                if images:
                    b0, b1, b2, b3 = state & 255, state >> 8 & 255, state >> 16 & 255, state >> 24
                    for t0, t1, t2, t3 in images:
                        rank = t0[b0] + t1[b1] + t2[b2] + t3[b3]
                        seen[rank >> 3] |= 1 << (rank & 7)
                if not path:
                    break
                state, nexts = path.pop()
    return None
