import copy
import dataclasses
import pickle

import pytest

from trielect.lattice import (
    ALL_PORTMAPS,
    IDENTITY_PORTMAP,
    Cell,
    N_DIRS,
    PortMap,
    SET_DIRS,
    common_neighbors,
    dir_to_port,
    direction_from,
    neighbor,
    neighbors,
    port_to_dir,
)
from trielect.support import Support

from reference import are_adjacent, neighbor_mask


def test_neighbors_of_origin():
    assert neighbors(Cell(0, 0)) == (
        Cell(1, 0), Cell(0, 1), Cell(-1, 1), Cell(-1, 0), Cell(0, -1), Cell(1, -1),
    )


def test_neighbors_translation_invariance():
    c = Cell(2, -1)
    base = neighbors(Cell(0, 0))
    assert neighbors(c) == tuple(Cell(2 + b.q, -1 + b.r) for b in base)


def test_opposite_direction_symmetry():
    for c in (Cell(0, 0), Cell(3, -2), Cell(-5, 7)):
        for d in range(N_DIRS):
            assert neighbors(neighbors(c)[d])[(d + 3) % N_DIRS] == c


def test_neighbors_distinct_and_adjacency_symmetric():
    c = Cell(-3, 4)
    nbs = neighbors(c)
    assert len(set(nbs)) == N_DIRS
    for n in nbs:
        assert are_adjacent(c, n) and are_adjacent(n, c)


def test_port_to_dir_examples():
    assert port_to_dir(PortMap(2, 1), 3) == 5
    assert port_to_dir(PortMap(0, -1), 1) == 5


def test_port_dir_bijection_all_portmaps():
    assert len(ALL_PORTMAPS) == 12
    for m in ALL_PORTMAPS:
        dirs = {port_to_dir(m, p) for p in range(N_DIRS)}
        assert dirs == set(range(N_DIRS))
        for p in range(N_DIRS):
            assert dir_to_port(m, port_to_dir(m, p)) == p


def test_consecutive_ports_reach_adjacent_cells():
    c = Cell(0, 0)
    for m in ALL_PORTMAPS:
        for p in range(N_DIRS):
            a = neighbor(c, port_to_dir(m, p))
            b = neighbor(c, port_to_dir(m, (p + 1) % N_DIRS))
            assert are_adjacent(a, b)


def test_common_neighbors():
    assert common_neighbors(Cell(0, 0), Cell(1, 0)) == {Cell(1, -1), Cell(0, 1)}
    assert common_neighbors(Cell(0, 0), Cell(0, 1)) == {Cell(1, 0), Cell(-1, 1)}
    for d in range(N_DIRS):
        pair = common_neighbors(Cell(0, 0), neighbors(Cell(0, 0))[d])
        assert len(pair) == 2
        for x in pair:
            assert are_adjacent(x, Cell(0, 0))
            assert are_adjacent(x, neighbors(Cell(0, 0))[d])


def test_common_neighbors_rejects_non_adjacent():
    with pytest.raises(ValueError):
        common_neighbors(Cell(0, 0), Cell(2, 0))


def test_direction_from_roundtrip():
    c = Cell(4, -2)
    for d in range(N_DIRS):
        assert direction_from(c, neighbor(c, d)) == d


def test_neighbor_mask_reads_sets_and_supports():
    c = Cell(4, -2)
    for mask in range(1 << N_DIRS):
        cells = {neighbor(c, d) for d in range(N_DIRS) if mask >> d & 1}
        assert neighbor_mask(c, cells) == mask
        assert neighbor_mask(c, cells | {c, Cell(9, 9)}) == mask
        if mask:
            assert neighbor_mask(c, Support(cells | {c})) == mask


def test_portmap_validation():
    with pytest.raises(ValueError, match="offset 6 out of range"):
        PortMap(6, 1)
    with pytest.raises(ValueError, match="offset -1 out of range"):
        PortMap(-1, 1)
    with pytest.raises(ValueError, match="chirality must be"):
        PortMap(0, 2)
    with pytest.raises(ValueError, match="chirality must be"):
        PortMap(0, 0)


def test_identity_portmap_is_the_first_of_all_portmaps():
    assert IDENTITY_PORTMAP is ALL_PORTMAPS[0]
    assert (IDENTITY_PORTMAP.offset, IDENTITY_PORTMAP.chirality) == (0, 1)


def test_port_direction_tables_match_the_arithmetic_formula():
    for m in ALL_PORTMAPS:
        for x in range(N_DIRS):
            assert port_to_dir(m, x) == (m.offset + m.chirality * x) % N_DIRS
            assert dir_to_port(m, x) == (m.chirality * (x - m.offset)) % N_DIRS


def test_portmap_keeps_its_value_semantics():
    for m in ALL_PORTMAPS:
        twin = PortMap(m.offset, m.chirality)
        assert twin == m and hash(twin) == hash(m)
        assert (twin.dirs, twin.ports) == (m.dirs, m.ports)
        assert repr(twin) == f"PortMap(offset={m.offset}, chirality={m.chirality})"
        assert pickle.loads(pickle.dumps(m)) == m
        assert copy.deepcopy(m) == m
        for attr in ("offset", "chirality", "dirs", "ports"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, attr, getattr(m, attr))
    assert len(set(ALL_PORTMAPS)) == 12
    assert PortMap(2, -1) != PortMap(2, 1) and PortMap(2, -1) != PortMap(3, -1)


def test_set_dirs_list_each_set_direction_with_the_opposite_bit():
    assert len(SET_DIRS) == 1 << N_DIRS
    for mask, entries in enumerate(SET_DIRS):
        assert [d for d, _ in entries] == [d for d in range(N_DIRS) if mask >> d & 1]
        for d, back in entries:
            assert back == 1 << (d + 3) % N_DIRS
