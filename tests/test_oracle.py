import hashlib
import random

import pytest

from trielect.lattice import CYCLIC_RUN, Cell, direction_from
from trielect.algorithm import activation_step
from trielect import oracle
from trielect.config import EdgeOrientation, deserialize
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    hexagon,
    line,
    random_portmaps,
    random_registers,
    random_support,
    triangle3,
)
from trielect.oracle import (
    CANNOT,
    REACHES,
    ConfigGraph,
    ReachabilityReport,
    StateSpaceTooLarge,
    check_reachability,
    check_silence,
    check_unique_sink,
    final_states,
    find_unfair_cycle,
    reach_fates,
)
from trielect.rules import is_valid, sinks
from trielect.scheduler import Outcome, Scripted, detect_final, run
from trielect.support import Support, automorphisms

from reference import (
    base3_rank,
    geometric_is_valid,
    orientation_states,
    packed_sinks,
    permuted_state,
    reference_find_unfair_cycle,
    reference_reaches,
    reference_silence,
    reference_two_ended_silence,
    reference_unique_sink,
    remove_particle,
)


def test_unique_sink_two_particle_support():
    rep = check_unique_sink(Support([Cell(0, 0), Cell(1, 0)]))
    assert rep.orientations == 2 and rep.valid == 2 and rep.ok


def test_unique_sink_triangle(tri):
    rep = check_unique_sink(tri)
    assert rep.orientations == 8
    assert rep.valid == 6  # the two rotating triangles fail the triangle rule
    assert rep.ok


def test_lane_variables_follow_the_bits_of_the_lane_index():
    """Lane k of ``x[i]`` is bit i of k, over 2^E lanes, for every E <= 12."""
    for e in range(13):
        x = oracle.lane_variables(e)
        assert len(x) == e
        for i, lanes in enumerate(x):
            assert lanes == sum(1 << k for k in range(1 << e) if k >> i & 1), (e, i)


def test_orientation_lanes_match_packed_predicates_pointwise():
    """Lane k of ``valid`` is ``is_valid`` of orientation k, and lane k of
    ``single_sink`` is whether it has exactly one sink, on every support
    with n <= 6 and on seeded random supports with E from 10 to 16;
    ``lane_states`` maps every lane to orientation k."""
    rng = random.Random(20)
    supports = [s for n in range(1, 7) for s in enumerate_supports(n)]
    by_edges = {}
    while len(by_edges) < 7:
        s = random_support(rng.randint(7, 11), rng.randrange(2**31))
        if 10 <= len(s.edges()) <= 16:
            by_edges.setdefault(len(s.edges()), s)
    supports += by_edges.values()
    seen = {"valid": 0, "invalid": 0, "single": 0, "several": 0}
    for s in supports:
        graph = ConfigGraph(s)
        e, valid, single = oracle.orientation_lanes(s)
        assert e == graph.n_edges
        assert valid >> (1 << e) == 0 and single >> (1 << e) == 0
        states = list(orientation_states(e))
        assert oracle.lane_states((1 << (1 << e)) - 1, e) == states, sorted(s.cells)
        for k, state in enumerate(states):
            assert (valid >> k & 1) == graph.is_valid(state), (sorted(s.cells), k)
            assert (single >> k & 1) == (len(packed_sinks(graph, state)) == 1), (sorted(s.cells), k)
            seen["valid" if valid >> k & 1 else "invalid"] += 1
            seen["single" if single >> k & 1 else "several"] += 1
    assert all(seen.values()), seen


def test_unique_sink_matches_reference_loop():
    """The lane check gives the per-orientation loop's report on every
    support with n <= 6."""
    for n in range(1, 7):
        for s in enumerate_supports(n):
            assert check_unique_sink(s) == reference_unique_sink(s), sorted(s.cells)


def test_unique_sink_reports_an_injected_fault_as_the_reference_does(monkeypatch):
    """With R3 dropped from ``RULE`` (a mask of at most three Out flags
    that is not one cyclic run passes with no triangle to check), both
    checks report the same counterexamples in the same order on every
    support with n <= 5: 2,468 of them, one on ``line(3)``."""
    monkeypatch.setattr(oracle, "RULE", tuple(
        () if entry is None and mask.bit_count() <= 3 and not CYCLIC_RUN[mask] else entry
        for mask, entry in enumerate(oracle.RULE)
    ))
    found = 0
    for n in range(1, 6):
        for s in enumerate_supports(n):
            rep = check_unique_sink(s)
            assert rep == reference_unique_sink(s), sorted(s.cells)
            found += len(rep.counterexamples)
    assert found == 2468
    assert len(check_unique_sink(line(3)).counterexamples) == 1


def test_silence_tiny_supports():
    for n in (1, 2, 3):
        for s in enumerate_supports(n):
            rep = check_silence(s)
            assert rep.states == 4 ** len(s.edges())
            assert rep.ok, rep.mismatches[0]


def test_silence_matches_reference_scan():
    """The check from both ends gives the report of the 4^E scan, states
    and mismatches, on every support with n <= 5."""
    for n in range(1, 6):
        for s in enumerate_supports(n):
            assert check_silence(s) == reference_silence(s), sorted(s.cells)


def test_final_states_match_full_move_scan():
    """The search lists exactly the states without a move, in increasing
    order, on every support with n <= 5, on 40 seeded six-cell ones, and
    on three with a hole: ``hexagon1`` without its centre and that ring
    with a cell beside one ring cell or beside two.  The supports with a
    hole have final states with an In/In edge, which are invalid; the
    search, which tries codes 0, 1 and 2 only, lists those too."""
    rng = random.Random(12)
    supports = [s for n in range(1, 6) for s in enumerate_supports(n)]
    supports += [random_support(6, rng.randrange(2**31)) for _ in range(40)]
    assert {len(s.edges()) for s in supports[-40:]} >= {6, 7, 8, 9}
    ring = sorted(hexagon(1).cells - {Cell(0, 0)})
    holed = [Support(ring), Support(ring + [Cell(2, 0)]), Support(ring + [Cell(2, -1)])]
    assert [(len(s), len(s.edges())) for s in holed] == [(6, 6), (7, 7), (7, 8)]
    assert not any(s.is_simply_connected() for s in holed)
    for s in supports + holed:
        graph = ConfigGraph(s)
        expected = [state for state in range(1 << 2 * graph.n_edges) if graph.move(state) is None]
        assert final_states(graph) == expected, sorted(s.cells)
        if s in holed:
            assert not all(map(graph.all_directed, expected)), sorted(s.cells)


def _inject_two_lane_fault(monkeypatch, s):
    """Make validity wrong on two orientations of ``s``, in the ``valid``
    lanes and in ``is_valid`` alike: the first valid one, which is final,
    reads invalid, and the first invalid one, which is activable, valid.
    Returns (rejected, accepted) as packed states."""
    e, valid, _ = oracle.orientation_lanes(s)
    rejected_lane = (valid & -valid).bit_length() - 1
    accepted_lane = (~valid & valid + 1).bit_length() - 1
    rejected, accepted = (oracle.lane_states(1 << k, e)[0] for k in (rejected_lane, accepted_lane))
    graph = ConfigGraph(s)
    assert graph.move(rejected) is None and graph.move(accepted) is not None
    lanes, is_valid = oracle.orientation_lanes, ConfigGraph.is_valid

    def faulty_lanes(support):
        e, valid, single = lanes(support)
        return e, valid ^ (1 << rejected_lane | 1 << accepted_lane), single

    def faulty_is_valid(self, state):
        return state != rejected and (state == accepted or is_valid(self, state))

    monkeypatch.setattr(oracle, "orientation_lanes", faulty_lanes)
    monkeypatch.setattr(ConfigGraph, "is_valid", faulty_is_valid)
    return rejected, accepted


@pytest.mark.parametrize("n_cells", [3, 4])
def test_silence_reports_an_injected_fault_from_both_ends(monkeypatch, n_cells):
    """With the ``valid`` lanes and ``is_valid`` wrong on two orientations,
    rejecting a valid final one and accepting an activable one, the check
    reports each under its tag, in packed-state order, exactly as the 4^E
    scan does."""
    s = max(enumerate_supports(n_cells), key=lambda s: len(s.edges()))
    rejected, accepted = _inject_two_lane_fault(monkeypatch, s)
    rep = check_silence(s)
    assert rep == reference_silence(s)
    graph = ConfigGraph(s)
    expected = sorted([(rejected, "final-but-invalid"), (accepted, "valid-but-activable")])
    assert rep.mismatches == tuple(
        tag + "\n" + graph.unpack(state).serialize() for state, tag in expected
    )


def test_silence_matches_two_ended_scan_at_larger_supports(monkeypatch):
    """On seeded supports with E from 10 to 14, too large for the 4^E scan,
    the check gives the report of ``is_valid`` on every final state and
    ``move`` on every valid orientation, clean and under a two-lane fault."""
    rng = random.Random(23)
    by_edges = {}
    while len(by_edges) < 5:
        s = random_support(rng.randint(7, 9), rng.randrange(2**31))
        if 10 <= len(s.edges()) <= 14:
            by_edges.setdefault(len(s.edges()), s)
    for e, s in sorted(by_edges.items()):
        rep = check_silence(s)
        assert rep.ok and rep == reference_two_ended_silence(s), e
        with monkeypatch.context() as patch:
            _inject_two_lane_fault(patch, s)
            rep = check_silence(s)
            tags = sorted(m.split("\n", 1)[0] for m in rep.mismatches)
            assert tags == ["final-but-invalid", "valid-but-activable"], e
            assert rep == reference_two_ended_silence(s), e


def test_reachability_tiny_supports():
    for n in (1, 2, 3):
        for s in enumerate_supports(n):
            rep = check_reachability(s)
            assert rep.ok, rep.unreachable[0]


def test_budget_guards():
    big = random_support(40, 1)
    with pytest.raises(StateSpaceTooLarge):
        check_silence(big, max_edges=20)
    with pytest.raises(StateSpaceTooLarge):
        find_unfair_cycle(big, max_states=1000)
    with pytest.raises(StateSpaceTooLarge, match="rank tables"):
        find_unfair_cycle(big, max_states=3 ** len(big.edges()))
    with pytest.raises(StateSpaceTooLarge):
        check_reachability(big, max_states=1 << 20)
    with pytest.raises(StateSpaceTooLarge):
        check_unique_sink(big, max_edges=20)


def test_pack_unpack_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        s = random_support(rng.randint(1, 9), rng.randrange(10**9))
        graph = ConfigGraph(s)
        cfg = random_registers(s, rng.randrange(10**9), 0.25)
        state = graph.pack(cfg)
        assert graph.pack(graph.unpack(state)) == state
        assert graph.unpack(state) == cfg  # identity port maps on both sides


def test_half_edges_follow_the_support_edge_order():
    """The packed format: half-edge 2i is the smaller endpoint's side of
    ``Support.edges()[i]`` and 2i + 1 the larger one's; none is missing."""
    supports = [s for n in range(1, 6) for s in enumerate_supports(n)] + [hexagon(3)]
    for s in supports:
        graph = ConfigGraph(s)
        edges = s.edges()
        assert graph.n_edges == len(edges)
        assert sorted(h for row in graph.half_at for h in row if h >= 0) == list(
            range(2 * len(edges))
        )
        for i, (a, b) in enumerate(edges):
            assert graph.half_at[s.number[a]][direction_from(a, b)] == 2 * i
            assert graph.half_at[s.number[b]][direction_from(b, a)] == 2 * i + 1


def test_packed_successor_agrees_with_reference_step():
    rng = random.Random(3)
    for _ in range(40):
        s = random_support(rng.randint(2, 8), rng.randrange(10**9))
        graph = ConfigGraph(s)
        cfg = random_registers(s, rng.randrange(10**9), 0.25)
        state = graph.pack(cfg)
        for ci, cell in enumerate(graph.cells):
            stepped, effect = activation_step(cfg, cell)
            assert graph.pack(stepped) == graph.successor(state, ci)
            assert (graph.successor(state, ci) != state) == effect.changed


def _packed_states_to_check():
    """(graph, port maps, state) triples: every state of every support
    with n <= 3, then seeded random states with n = 5..14: uniform over
    4^E (a quarter of the edges Out/Out), conflict-free-leaning registers
    and the valid erosion orientation."""
    rng = random.Random(8)
    for n in (1, 2, 3):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            portmaps = random_portmaps(s, rng.randrange(2**31))
            for state in range(1 << 2 * graph.n_edges):
                yield graph, portmaps, state
    for n in range(5, 15):
        for _ in range(6):
            s = random_support(n, rng.randrange(2**31))
            graph = ConfigGraph(s)
            portmaps = random_portmaps(s, rng.randrange(2**31))
            for _ in range(8):
                yield graph, portmaps, rng.getrandbits(2 * graph.n_edges)
            yield graph, portmaps, graph.pack(random_registers(s, rng.randrange(2**31), 0.1))
            yield graph, portmaps, graph.pack(erosion_orientation(s))


def test_packed_validity_and_sinks_agree():
    """The packed predicates and steps equal the object path pointwise."""
    seen = {"conflict": 0, "valid": 0, "final": 0, "activable": 0}
    for graph, portmaps, state in _packed_states_to_check():
        cfg = graph.unpack(state, portmaps)
        assert graph.is_valid(state) == is_valid(cfg), state
        assert packed_sinks(graph, state) == sorted(sinks(cfg)), state
        assert (graph.move(state) is None) == detect_final(cfg), state
        expected = []
        for ci, cell in enumerate(graph.cells):
            stepped, effect = activation_step(cfg, cell)
            nxt = graph.pack(stepped)
            assert graph.successor(state, ci) == nxt, (state, ci)
            if effect.changed:
                expected.append((ci, nxt))
        moves, found = [], graph.move(state)
        while found is not None:
            moves.append(found)
            found = graph.move(state, found[0] + 1)
        assert moves == expected, state
        assert graph.successors(state) == [nxt for _, nxt in expected], state
        seen["conflict"] += any(state >> 2 * i & 3 == 3 for i in range(graph.n_edges))
        seen["valid"] += graph.is_valid(state)
        seen["final"] += graph.move(state) is None
        seen["activable"] += bool(expected)
    assert all(seen.values()), seen


def test_is_valid_matches_the_geometric_formula():
    """``is_valid``, all directed and no move, equals the formula of R2/R3
    entries and triangle cycle masks pointwise: on every state of every
    support with n <= 4, on every orientation of ``hexagon1`` and on
    10,000 seeded ``hexagon1`` states."""
    cases = [
        (graph, state)
        for n in range(1, 5)
        for s in enumerate_supports(n)
        for graph in [ConfigGraph(s)]
        for state in range(1 << 2 * graph.n_edges)
    ]
    graph = ConfigGraph(hexagon(1))
    cases += [(graph, state) for state in orientation_states(graph.n_edges)]
    rng = random.Random(31)
    cases += [(graph, rng.getrandbits(2 * graph.n_edges)) for _ in range(10_000)]
    valid = 0
    for graph, state in cases:
        assert graph.is_valid(state) == geometric_is_valid(graph, state), (graph.cells, state)
        valid += graph.is_valid(state)
    assert valid >= 500, valid


def _assert_conjugates(graph, images, states):
    """Each half-edge permutation of ``images`` maps the moves of each of
    ``states`` onto the moves of its image, keeps ``is_valid``, and its
    rank tables give the rank of the image."""
    tables = [oracle.rank_tables(image) for image in images]
    for state in states:
        nexts, valid = graph.successors(state), graph.is_valid(state)
        for image, (t0, t1, t2, t3) in zip(images, tables):
            moved = permuted_state(state, image)
            expected = {permuted_state(nxt, image) for nxt in nexts}
            assert set(graph.successors(moved)) == expected, (graph.cells, image, state)
            assert graph.is_valid(moved) == valid, (graph.cells, image, state)
            rank = t0[state & 255] + t1[state >> 8 & 255] + t2[state >> 16 & 255] + t3[state >> 24]
            assert rank == base3_rank(moved, graph.n_edges), (graph.cells, image, state)


def _seeded_conflict_free_states(graph, count, seed):
    rng = random.Random(seed)
    return [
        sum(rng.randrange(3) << 2 * i for i in range(graph.n_edges)) for _ in range(count)
    ]


def test_automorphisms_conjugate_the_successor_relation():
    """Every lattice automorphism of a support is kept under the paper's
    ``RULE``, and each conjugates ``successors``, keeps ``is_valid`` and
    has rank tables that rank the image state: on every conflict-free
    state of every support with n <= 5, and on 20,000 seeded conflict-free
    states of ``hexagon1``, dealt in turn to its 11 automorphisms."""
    kept = 0
    for n in range(2, 6):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            images = graph.automorphisms()
            assert len(images) == len(automorphisms(s)), sorted(s.cells)
            _assert_conjugates(graph, images, graph.conflict_free_states())
            kept += len(images)
    assert kept >= 50, kept
    graph = ConfigGraph(hexagon(1))
    images = graph.automorphisms()
    assert len(images) == 11
    states = _seeded_conflict_free_states(graph, 20_000, 37)
    for k, image in enumerate(images):
        _assert_conjugates(graph, [image], states[k :: len(images)])


def test_an_asymmetric_rule_keeps_only_the_automorphisms_it_has(monkeypatch):
    """With the ``RULE`` entry of Out flags on directions 0 and 1 made None
    and its five rotations left as they are, ``hexagon1`` keeps only the
    mirror that swaps directions 0 and 1.  It conjugates as before, each
    dropped automorphism breaks ``successors`` on some seeded state, and
    the search still equals the reference on ``hexagon1`` and on every
    support with n <= 5."""
    rule = list(oracle.RULE)
    rule[0b000011] = None
    monkeypatch.setattr(oracle, "RULE", tuple(rule))
    hex1 = hexagon(1)
    graph = ConfigGraph(hex1)
    kept = graph.automorphisms()
    assert len(kept) == 1
    states = _seeded_conflict_free_states(graph, 2_000, 41)
    _assert_conjugates(graph, kept, states)
    for cells, dirs in automorphisms(hex1):
        image = [0] * (2 * graph.n_edges)
        for half, target in zip(graph.half_at, cells):
            for d, h in enumerate(half):
                if h >= 0:
                    image[h] = graph.half_at[target][dirs[d]]
        if tuple(image) in kept:
            assert sorted(dirs[:2]) == [0, 1]
            continue
        assert any(
            set(graph.successors(permuted_state(state, image)))
            != {permuted_state(nxt, image) for nxt in graph.successors(state)}
            for state in states
        ), dirs
    assert find_unfair_cycle(hex1) == reference_find_unfair_cycle(hex1)
    for n in range(2, 6):
        for s in enumerate_supports(n):
            assert find_unfair_cycle(s) == reference_find_unfair_cycle(s), sorted(s.cells)


def test_move_resumes_at_every_start():
    """``move(state, start)`` is the first cell at or after ``start`` that
    ``activation_step`` changes, with the packed state it steps to, for
    every start from 0 to n."""
    for graph, portmaps, state in _packed_states_to_check():
        cfg = graph.unpack(state, portmaps)
        changed = []
        for ci, cell in enumerate(graph.cells):
            stepped, effect = activation_step(cfg, cell)
            if effect.changed:
                changed.append((ci, graph.pack(stepped)))
        for start in range(len(graph.cells) + 1):
            expected = next(((ci, nxt) for ci, nxt in changed if ci >= start), None)
            assert graph.move(state, start) == expected, (state, start)


def test_no_move_makes_a_conflict_and_a_conflict_endpoint_clears_it():
    """The lemma ``check_reachability`` settles the conflict states by,
    pointwise on every state of every support with n <= 4 and on the
    states of ``_packed_states_to_check``: no move makes an Out/Out edge,
    and each endpoint of a conflict edge has a move that clears it.  On
    the same states ``successors`` lists the chain of ``move`` calls."""
    cases = [
        (graph, state)
        for n in range(1, 5)
        for s in enumerate_supports(n)
        for graph in [ConfigGraph(s)]
        for state in range(1 << 2 * graph.n_edges)
    ]
    cases += [(graph, state) for graph, _, state in _packed_states_to_check()]
    conflict_states = 0
    for graph, state in cases:
        lo = graph._lo
        conflicts = state & state >> 1 & lo
        chain, found = [], graph.move(state)
        while found is not None:
            nxt = found[1]
            assert nxt & nxt >> 1 & lo & ~conflicts == 0, (state, found)
            chain.append(nxt)
            found = graph.move(state, found[0] + 1)
        assert graph.successors(state) == chain, state
        owner = {h: ci for ci, row in enumerate(graph.half_at) for h in row if h >= 0}
        for i in range(graph.n_edges):
            if not conflicts >> 2 * i & 1:
                continue
            for ci in owner[2 * i], owner[2 * i + 1]:
                found = graph.move(state, ci)
                assert found is not None and found[0] == ci, (state, ci)
                left = found[1] & found[1] >> 1 & lo
                assert not left >> 2 * i & 1, (state, ci)
                assert left.bit_count() < conflicts.bit_count(), (state, ci)
        conflict_states += bool(conflicts)
    assert conflict_states >= 1000, conflict_states


def _full_root_report(s: Support) -> ReachabilityReport:
    """``check_reachability``'s report from a pass rooted at every state."""
    graph = ConfigGraph(s)
    total = 1 << 2 * graph.n_edges
    fate = reach_fates(total, graph.move, graph.is_valid)
    return ReachabilityReport(
        s,
        total,
        tuple(graph.unpack(st).serialize() for st in range(total) if fate[st] == CANNOT),
    )


def _count_passes(monkeypatch) -> list[bool]:
    """Wrap ``reach_fates`` as ``check_reachability`` calls it; each pass
    appends whether it was given roots."""
    passes = []

    def counted(total, move, is_target, roots=None):
        passes.append(roots is not None)
        return reach_fates(total, move, is_target, roots)

    monkeypatch.setattr(oracle, "reach_fates", counted)
    return passes


def test_reachability_equals_full_root_pass(monkeypatch):
    """On every support with n <= 4, the conflict-free pass gives the
    report of the pass from every state, and needs no second pass."""
    passes = _count_passes(monkeypatch)
    for n in range(1, 5):
        for s in enumerate_supports(n):
            passes.clear()
            assert check_reachability(s) == _full_root_report(s), sorted(s.cells)
            assert passes == [True]


@pytest.mark.parametrize("fault", ["reject one", "accept one"])
def test_reachability_equals_full_root_pass_under_a_fault(monkeypatch, fault):
    """With ``all_directed``, the target test ``check_reachability`` gives
    ``reach_fates``, wrong on the valid final conflict-free states of
    seeded supports with n <= 5, rejecting one of them or all but one, the
    conflict-free pass finds a state that cannot, the pass from every
    state runs, and the report equals that pass's.  Rejecting one never
    strands a conflict state on these sizes; accepting one does."""
    rng = random.Random(14)
    all_directed = ConfigGraph.all_directed
    picked = None

    def faulty(self, state):
        if fault == "reject one":
            return state != picked and all_directed(self, state)
        return state == picked

    passes = _count_passes(monkeypatch)
    conflict_lines = 0
    for n in range(2, 6):
        for _ in range(6):
            s = random_support(n, rng.randrange(2**31))
            graph = ConfigGraph(s)
            finals = [st for st in graph.conflict_free_states() if graph.move(st) is None]
            picked = rng.choice([st for st in finals if graph.is_valid(st)])
            monkeypatch.setattr(ConfigGraph, "all_directed", faulty)
            passes.clear()
            rep = check_reachability(s)
            assert passes == [True, False]
            assert rep == _full_root_report(s), sorted(s.cells)
            assert rep.unreachable
            monkeypatch.setattr(ConfigGraph, "all_directed", all_directed)
            states = [graph.pack(deserialize(text)) for text in rep.unreachable]
            conflict_lines += sum(bool(st & st >> 1 & graph._lo) for st in states)
    assert (conflict_lines > 0) == (fault == "accept one"), conflict_lines


def _reach_fates_agree(total, move, is_valid) -> bytearray:
    fate = reach_fates(total, move, is_valid)
    reached = reference_reaches(total, move, is_valid)
    assert [f == REACHES for f in fate] == [bool(r) for r in reached]
    assert fate.count(REACHES) + fate.count(CANNOT) == total
    return fate


def test_reach_fates_match_reverse_search_on_random_graphs():
    """The lazy SCC pass against the reverse-search reference on seeded
    graphs of 1-12 nodes, driven through a stand-in ``move``: up to four
    moves per node at indices 0-3, self-loops allowed, and ``is_valid`` true
    on a random half of the nodes, final or not."""
    rng = random.Random(20)
    seen = {
        "no target": 0,
        "all reach": 0,
        "some cannot": 0,
        "cannot on a cycle": 0,
        "root's first move onto a lower state that reaches": 0,
        "root's first move onto a lower state that cannot": 0,
    }
    for _ in range(3000):
        total = rng.randint(1, 12)
        succ = [
            [(ci, rng.randrange(total)) for ci in sorted(rng.sample(range(4), rng.randint(0, 3)))]
            for _ in range(total)
        ]
        valid = [rng.random() < 0.5 for _ in range(total)]

        def move(state, start):
            return next(((ci, nxt) for ci, nxt in succ[state] if ci >= start), None)

        fate = _reach_fates_agree(total, move, valid.__getitem__)
        cannot = [v for v in range(total) if fate[v] == CANNOT]
        seen["no target"] += not any(valid[v] and not succ[v] for v in range(total))
        seen["all reach"] += not cannot
        seen["some cannot"] += bool(cannot)
        reach = []  # reach[v]: the nodes one or more moves from v
        for v in range(total):
            frontier, reach_v = [nxt for _, nxt in succ[v]], set()
            while frontier:
                u = frontier.pop()
                if u not in reach_v:
                    reach_v.add(u)
                    frontier += [nxt for _, nxt in succ[u]]
            reach.append(reach_v)
        seen["cannot on a cycle"] += any(v in reach[v] for v in cannot)
        # A node no lower node reaches is a root of the pass, and every
        # lower node is settled when its turn comes: a first move onto one
        # that reaches settles it at once, one onto one that cannot walks on.
        for v in range(total):
            if succ[v] and succ[v][0][1] < v and not any(v in reach[u] for u in range(v)):
                first = fate[succ[v][0][1]]
                seen["root's first move onto a lower state that reaches"] += first == REACHES
                seen["root's first move onto a lower state that cannot"] += first == CANNOT
    assert min(seen.values()) >= 300, seen


def test_reach_fates_match_reverse_search_on_small_supports():
    for n in range(1, 5):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            fate = _reach_fates_agree(1 << 2 * graph.n_edges, graph.move, graph.is_valid)
            assert fate.count(REACHES) == len(fate)


def test_reach_fates_with_all_directed_equal_those_with_is_valid():
    """On every support with n <= 5, rooted at the conflict-free states as
    ``check_reachability`` roots its first pass and at every state, the
    fates with ``all_directed`` as the target test equal those with
    ``is_valid``: ``reach_fates`` asks the test only of states without a
    move, which the wrapped test checks."""
    for n in range(1, 6):
        for s in enumerate_supports(n):
            graph = ConfigGraph(s)
            asked = []

            def target(state):
                asked.append(state)
                return graph.all_directed(state)

            total = 1 << 2 * graph.n_edges
            for roots in (list(graph.conflict_free_states()), None):
                asked.clear()
                fate = reach_fates(total, graph.move, target, roots)
                assert fate == reach_fates(total, graph.move, graph.is_valid, roots), sorted(s.cells)
                assert asked and all(graph.move(state) is None for state in asked)


def test_erosion_state_is_final_and_valid(hex1):
    graph = ConfigGraph(hex1)
    state = graph.pack(erosion_orientation(hex1))
    assert graph.is_valid(state) and graph.move(state) is None


def test_conflict_free_enumeration():
    """The enumeration lists each of the 3^E conflict-free states once, on
    supports with E = 3, 4, 5, 8 and 12 (hexagon1), the largest being every
    edge Out at its larger end, and the identity's rank tables, which index
    ``find_unfair_cycle``'s seen bits, give the i-th state rank i."""
    supports = [
        triangle3(),
        line(5),
        line(6),
        next(s for s in enumerate_supports(6) if len(s.edges()) == 8),
        hexagon(1),
    ]
    assert [len(s.edges()) for s in supports] == [3, 4, 5, 8, 12]
    for support in supports:
        graph = ConfigGraph(support)
        e = graph.n_edges
        states = list(graph.conflict_free_states())
        assert len(states) == len(set(states)) == 3**e
        assert all(st >> 2 * j & 3 != 3 for st in states for j in range(e))
        assert max(states) == sum(2 << 2 * j for j in range(e))
        t0, t1, t2, t3 = oracle.rank_tables(range(32))
        ranks = [t0[st & 255] + t1[st >> 8 & 255] + t2[st >> 16 & 255] + t3[st >> 24] for st in states]
        assert ranks == list(range(3**e))


def test_find_unfair_cycle_single_particle():
    assert find_unfair_cycle(Support([Cell(0, 0)])) is None


def test_find_unfair_cycle_none_on_tiny_supports():
    # Exhaustive: no support of up to six cells admits a periodic execution.
    for n in (2, 3, 4, 5, 6):
        for s in enumerate_supports(n):
            assert find_unfair_cycle(s) is None


def test_find_unfair_cycle_matches_reference_search_on_hexagon(hex1, hexagon_cycle):
    assert reference_find_unfair_cycle(hex1) == hexagon_cycle


#: The six-cell supports with a cycle once R2 bounds a cell to two Out flags.
CYCLES_UNDER_BOUND_TWO = [
    [(0, 0), (0, 1), (0, 2), (1, -1), (1, 0), (1, 1)],
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
    [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)],
    [(0, 0), (0, 1), (1, -1), (1, 0), (2, -2), (2, -1)],
    [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
    [(0, 0), (1, -1), (1, 0), (2, -2), (2, -1), (2, 0)],
    [(0, 0), (1, -1), (1, 0), (2, -2), (2, -1), (3, -2)],
    [(0, 0), (1, -1), (1, 0), (2, -1), (2, 0), (3, -1)],
]


def test_find_unfair_cycle_matches_reference_search_under_a_fault(monkeypatch):
    """With every ``RULE`` entry of three Out flags dropped (R2 bounds a
    cell to two), both searches return the same result on every five-cell
    support (no cycle) and the same cycle on each six-cell support that
    has one."""
    monkeypatch.setattr(oracle, "RULE", tuple(
        None if mask.bit_count() == 3 else entry for mask, entry in enumerate(oracle.RULE)
    ))
    for s in enumerate_supports(5):
        assert find_unfair_cycle(s) is None
        assert reference_find_unfair_cycle(s) is None, sorted(s.cells)
    for cells in CYCLES_UNDER_BOUND_TWO:
        s = Support([Cell(q, r) for q, r in cells])
        cycle = find_unfair_cycle(s)
        assert cycle is not None, cells
        assert reference_find_unfair_cycle(s) == cycle, cells


def test_find_unfair_cycle_hexagon(hex1, hexagon_cycle):
    cycle = hexagon_cycle
    assert cycle.period == len(cycle.script) == len(cycle.states)
    graph = ConfigGraph(hex1)
    # no state on the cycle is valid
    for st in cycle.states:
        assert not graph.is_valid(st)
    # script replays bit-exactly through the reference step
    cfg = cycle.initial_config()
    for i, cell in enumerate(cycle.script):
        cfg, effect = activation_step(cfg, cell)
        assert effect.changed
        assert graph.pack(cfg) == cycle.states[(i + 1) % cycle.period]
    assert cfg == cycle.initial_config()


def test_find_unfair_cycle_skips_the_images_of_finished_states(monkeypatch, hexagon_cycle):
    """On ``hexagon1`` the search lists the moves of at most 30,000 states,
    27,980 since it marks the automorphic images of finished states seen
    (98,574 before), and returns the pinned cycle."""
    listed = []
    successors = ConfigGraph.successors

    def counted(self, state):
        listed.append(state)
        return successors(self, state)

    monkeypatch.setattr(ConfigGraph, "successors", counted)
    assert find_unfair_cycle(hexagon(1)) == hexagon_cycle
    assert len(listed) <= 30_000, len(listed)


def test_find_unfair_cycle_hexagon_is_pinned(hexagon_cycle):
    """The search finds the same cycle of hexagon1: its period and sha256
    prefixes of its states and its script."""
    cycle = hexagon_cycle
    script = " ".join(f"{p.q},{p.r}" for p in cycle.script)
    assert cycle.period == 12
    assert hashlib.sha256(repr(cycle.states).encode()).hexdigest()[:16] == "9351b5136c3ab9e6"
    assert hashlib.sha256(script.encode()).hexdigest()[:16] == "4b0f9c282c08ead2"


def test_cycle_replay_through_scheduler(hexagon_cycle):
    cycle = hexagon_cycle
    c0 = cycle.initial_config()
    res = run(c0, Scripted(cycle.script), max_steps=3 * cycle.period)
    assert res.outcome is Outcome.CAP_EXCEEDED
    assert res.config == c0


def test_remove_particle(hex1):
    cfg = erosion_orientation(hex1)
    ring_cell = sorted(hex1.boundary())[0]
    smaller = remove_particle(cfg, ring_cell)
    assert ring_cell not in smaller.support.cells
    for q in smaller.support:
        for n in smaller.support.occupied_neighbors(q):
            assert smaller.orientation(q, n) is not EdgeOrientation.CONFLICT
    with pytest.raises(ValueError):
        remove_particle(cfg, Cell(9, 9))
