import itertools
import random
from functools import partial

import pytest

from trielect.lattice import ALL_PORTMAPS, N_DIRS, Cell
from trielect.config import ALL_IN, ConfigError, Configuration, OUT, all_in_configuration
from trielect.generators import (
    enumerate_supports,
    erosion_orientation,
    hexagon,
    random_portmaps,
    random_registers,
    random_support,
    triangle3,
)
from trielect.rules import check_r1, check_r2, check_r3, check_r4
from trielect.support import Support
from trielect.views import (
    VIEW_DEPTH,
    _candidates,
    _stepper,
    build_view,
    in_view,
    infer_triangle_labels,
    local_check_r4,
)

from reference import (
    CellRegisters,
    formula_queries,
    reference_formula_holds,
    reference_infer,
    relative_chirality,
    triangles_at,
)

P, Q, R = Cell(0, 0), Cell(1, 0), Cell(0, 1)
R2 = Cell(1, -1)  # second common neighbour of P and Q


def portmap_config(support, assignment):
    """All-In registers under the port map ``assignment[c]`` of each cell ``c``."""
    pms = [None] * len(support)
    for c, pm in assignment.items():
        pms[support.number[c]] = pm
    return Configuration(support, tuple(pms), {c: ALL_IN for c in support})


def test_view_of_isolated_pair():
    s = Support([P, Q])
    cfg = portmap_config(s, {P: ALL_PORTMAPS[0], Q: ALL_PORTMAPS[0]})
    v = build_view(cfg, P, 3)
    # one walk per length: P->Q, P->Q->P, P->Q->P->Q
    assert v.labels == {
        ((0, 3),),
        ((0, 3), (3, 0)),
        ((0, 3), (3, 0), (0, 3)),
    }


def test_view_triangle_depth1_matches_hand_enumeration():
    cfg = portmap_config(triangle3(), {c: ALL_PORTMAPS[0] for c in triangle3()})
    v = build_view(cfg, P, 1)
    assert v.labels == {((0, 3),), ((1, 4),)}


def test_view_prefix_determinism():
    rng = random.Random(42)
    for _ in range(30):
        s = random_support(rng.randint(2, 9), rng.randrange(10**9))
        cfg = random_registers(s, 0, 0.0, random_portmaps(s, rng.randrange(10**9)))
        p = rng.choice(sorted(s.cells))
        labels = build_view(cfg, p, 3).labels
        by_exit_sequence = {}
        for lab in labels:
            key = tuple(a for a, _ in lab)
            by_exit_sequence.setdefault(key, set()).add(tuple(b for _, b in lab))
        for entries in by_exit_sequence.values():
            assert len(entries) == 1


def test_view_size_bound():
    rng = random.Random(9)
    for _ in range(20):
        s = random_support(rng.randint(1, 10), rng.randrange(10**9))
        cfg = random_registers(s, 0, 0.0)
        p = rng.choice(sorted(s.cells))
        labels = build_view(cfg, p, 3).labels
        assert len(labels) <= 6 + 6**2 + 6**3


def test_infer_lone_triangle_exhaustive():
    tri = triangle3()
    for pms in itertools.product(ALL_PORTMAPS, repeat=3):
        cfg = portmap_config(tri, dict(zip((P, Q, R), pms)))
        for a, b, c in itertools.permutations((P, Q, R)):
            assert infer_triangle_labels(cfg, a, b, c) == (
                cfg.port_of(b, c),
                cfg.port_of(c, b),
            )


def test_infer_rhombus_exhaustive_sample():
    # Full product over the triangle corners, random fourth particle.
    rng = random.Random(77)
    rhomb = Support([P, Q, R, R2])
    for pms in itertools.product(ALL_PORTMAPS, repeat=3):
        assignment = dict(zip((P, Q, R), pms))
        assignment[R2] = rng.choice(ALL_PORTMAPS)
        cfg = portmap_config(rhomb, assignment)
        for a, b, c in ((P, Q, R), (Q, P, R), (P, Q, R2), (Q, P, R2)):
            assert infer_triangle_labels(cfg, a, b, c) == (
                cfg.port_of(b, c),
                cfg.port_of(c, b),
            )


def test_relative_chirality_exhaustive_triangle():
    tri = triangle3()
    for pms in itertools.product(ALL_PORTMAPS, repeat=3):
        assignment = dict(zip((P, Q, R), pms))
        cfg = portmap_config(tri, assignment)
        for a, b, c in itertools.permutations((P, Q, R)):
            assert (
                relative_chirality(cfg, a, b, c)
                == assignment[a].chirality * assignment[b].chirality
            )


def test_infer_rejects_non_triangle():
    s = Support([Cell(0, 0), Cell(1, 0), Cell(2, 0)])
    cfg = portmap_config(s, {c: ALL_PORTMAPS[0] for c in s})
    with pytest.raises(ValueError):
        infer_triangle_labels(cfg, Cell(0, 0), Cell(1, 0), Cell(2, 0))


def test_local_r4_matches_omniscient_on_random_configs():
    rng = random.Random(271828)
    comparisons = 0
    while comparisons < 2000:
        s = random_support(rng.randint(3, 9), rng.randrange(10**9))
        cfg = random_registers(
            s, rng.randrange(10**9), 0.15, random_portmaps(s, rng.randrange(10**9))
        )
        for p in s:
            if not triangles_at(cfg, p):
                continue
            assert local_check_r4(cfg, p) == check_r4(cfg, p)
            comparisons += 1


def test_local_r4_detects_directed_triangle():
    tri = triangle3()
    cfg = portmap_config(tri, {c: ALL_PORTMAPS[7] for c in tri})
    order = [(P, Q), (Q, R), (R, P)]
    for a, b in order:
        reg = list(CellRegisters(cfg)[a])
        reg[cfg.port_of(a, b)] = OUT
        cfg = cfg.with_register(a, tuple(reg))
    for c in tri:
        assert not local_check_r4(cfg, c)
        assert not check_r4(cfg, c)


def _membership_cases():
    """Every support with n <= 4, triangle3, hexagon1 and hexagon2 under random port maps."""
    rng = random.Random(314)
    supports = [s for n in range(1, 5) for s in enumerate_supports(n)]
    supports += [triangle3(), hexagon(1), hexagon(2)]
    for s in supports:
        yield random_registers(s, 0, 0.0, random_portmaps(s, rng.randrange(10**9)))


def _altered(label, i, exit_port=None, entry_port=None):
    step = (
        label[i][0] if exit_port is None else exit_port,
        label[i][1] if entry_port is None else entry_port,
    )
    return label[:i] + (step,) + label[i + 1:]


def test_in_view_matches_build_view():
    """Every label of view_4, so every view_3 label and every 4-step walk,
    plus view_3 labels with one exit or entry port altered."""
    for cfg in _membership_cases():
        for p in cfg.support:
            view = build_view(cfg, p, VIEW_DEPTH).labels
            assert not in_view(cfg, p, ())
            for label in build_view(cfg, p, VIEW_DEPTH + 1).labels:
                assert in_view(cfg, p, label) == (label in view), label
            for label in view:
                for i in range(len(label)):
                    for port in range(-1, N_DIRS + 1):
                        for altered in (_altered(label, i, entry_port=port),
                                        _altered(label, i, exit_port=port)):
                            assert in_view(cfg, p, altered) == (altered in view), altered


def test_in_view_answers_every_formula_query():
    """Every label the membership formula asks about, for all four candidates."""
    for cfg in _membership_cases():
        for p in cfg.support:
            view = build_view(cfg, p, VIEW_DEPTH).labels
            for q, r in triangles_at(cfg, p):
                ports = (cfg.port_of(p, r), cfg.port_of(p, q), cfg.port_of(q, p), cfg.port_of(r, p))
                asked = formula_queries(cfg, p, q, r)
                assert len(asked) == 16
                for label in asked:
                    assert in_view(cfg, p, label) == (label in view), label
                assert (reference_infer(partial(in_view, cfg, p), *ports)
                        == reference_infer(view.__contains__, *ports))


def _assert_candidates_match_reference(cfg):
    """``_candidates`` accepts a labelling of the far edge iff the reference
    formula does over the built view, for all four candidates of every
    triangle at every particle.  Returns how many candidates only the
    "not the other triangle" conjunct rejects: the reference asked with a
    view cut to its three-step labels, which that conjunct never asks
    about, accepts them."""
    step = _stepper(cfg)
    other_triangle = 0
    for p in cfg.support:
        view = build_view(cfg, p, VIEW_DEPTH)
        three_steps = {label for label in view.labels if len(label) == 3}
        i = cfg.support.number[p]
        pm = cfg.portmaps[i]
        for q, r in triangles_at(cfg, p):
            p0, p1, q1, r1 = (cfg.port_of(p, r), cfg.port_of(p, q),
                              cfg.port_of(q, p), cfg.port_of(r, p))
            accepted = _candidates(step, i, pm, p0, p1, step(i, pm, p1), step(i, pm, p0))
            assert len(accepted) == 1
            for x in ((q1 + 1) % N_DIRS, (q1 - 1) % N_DIRS):
                for y in ((r1 + 1) % N_DIRS, (r1 - 1) % N_DIRS):
                    expected = reference_formula_holds(view.__contains__, p0, p1, q1, r1, x, y)
                    assert ((x, y) in accepted) == expected, (p, q, r, x, y)
                    other_triangle += not expected and reference_formula_holds(
                        three_steps.__contains__, p0, p1, q1, r1, x, y)
    return other_triangle


def test_candidates_match_reference_formula():
    """Every triangle of every particle of the membership cases, of the
    lone triangle and the rhombus under every port-map product of three
    corners, and of hexagon2 under port-map seed 220, where the "not the
    other triangle" conjunct decides a candidate."""
    for cfg in _membership_cases():
        _assert_candidates_match_reference(cfg)
    rng = random.Random(78)
    tri, rhomb = triangle3(), Support([P, Q, R, R2])
    for pms in itertools.product(ALL_PORTMAPS, repeat=3):
        _assert_candidates_match_reference(portmap_config(tri, dict(zip((P, Q, R), pms))))
        assignment = dict(zip((P, Q, R), pms))
        assignment[R2] = rng.choice(ALL_PORTMAPS)
        _assert_candidates_match_reference(portmap_config(rhomb, assignment))
    hex2 = hexagon(2)
    assert _assert_candidates_match_reference(all_in_configuration(hex2, random_portmaps(hex2, 220)))


@pytest.mark.parametrize("init", ["erosion", "random"])
def test_local_r4_matches_omniscient_at_scale(init):
    """Every particle of a 2,000-cell support under random port maps, with
    the erosion orientation or random registers (conflict probability 0.1)."""
    s = random_support(2000, 11)
    portmaps = random_portmaps(s, 12)
    if init == "erosion":
        cfg = erosion_orientation(s, portmaps)
    else:
        cfg = random_registers(s, 13, 0.1, portmaps)
    verdicts = [check_r4(cfg, p) for p in s]
    assert [local_check_r4(cfg, p) for p in s] == verdicts
    assert all(verdicts) == (init == "erosion")


def test_inference_exact_on_every_triangle_at_scale():
    """The inputs of ``test_local_r4_matches_omniscient_at_scale``, whose
    local R4 infers only the triangles that can close a cycle: the inferred
    far-edge labels are the true ones at every corner of every triangle,
    with q and r taken in both orders."""
    s = random_support(2000, 11)
    cfg = all_in_configuration(s, random_portmaps(s, 12))
    corners = 0
    for p in s:
        for q, r in triangles_at(cfg, p):
            for a, b in ((q, r), (r, q)):
                truth = cfg.port_of(a, b), cfg.port_of(b, a)
                assert infer_triangle_labels(cfg, p, a, b) == truth
                corners += 1
    assert corners > 6 * len(s)


def test_readers_reject_a_cell_outside_the_support():
    """Rule, view and edge readers name the cell in a ``ConfigError``."""
    cfg = random_registers(hexagon(1), 1, 0.1, random_portmaps(hexagon(1), 2))
    far, p, q, r = Cell(5, 5), Cell(0, 0), Cell(1, 0), Cell(0, 1)
    readers = [
        lambda: local_check_r4(cfg, far),
        lambda: infer_triangle_labels(cfg, far, q, r),
        lambda: infer_triangle_labels(cfg, p, far, r),
        lambda: infer_triangle_labels(cfg, p, q, far),
        lambda: in_view(cfg, far, ((0, 0),)),
        lambda: in_view(cfg, far, ()),
        lambda: build_view(cfg, far),
        lambda: check_r1(cfg, far),
        lambda: check_r2(cfg, far),
        lambda: check_r3(cfg, far),
        lambda: check_r4(cfg, far),
        lambda: cfg.orientation(far, p),
    ]
    for read in readers:
        with pytest.raises(ConfigError, match=r"Cell\(q=5, r=5\)"):
            read()
