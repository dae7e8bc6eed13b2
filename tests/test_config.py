import ast
import copy
import pickle
import random
from pathlib import Path

import pytest

from trielect.lattice import (
    ALL_PORTMAPS,
    Cell,
    N_DIRS,
    PortMap,
    IDENTITY_PORTMAP,
    neighbor,
    port_to_dir,
)
from trielect.config import (
    ALL_IN,
    OUT_MASK,
    REGISTER,
    ConfigError,
    Configuration,
    EdgeOrientation,
    IN,
    OUT,
    LinkState,
    all_in_configuration,
    deserialize,
    identity_portmaps,
)
from trielect.generators import (
    erosion_orientation,
    random_portmaps,
    random_registers,
    random_support,
    ring18,
    triangle3,
)
from trielect.oracle import ConfigGraph
from trielect.support import Support

from reference import CellRegisters, assert_masks_match_regs, mirrored


def pair_config(a_links=ALL_IN, b_links=ALL_IN):
    from trielect.support import Support

    s = Support([Cell(0, 0), Cell(1, 0)])
    return Configuration(
        s,
        identity_portmaps(s),
        {Cell(0, 0): a_links, Cell(1, 0): b_links},
    )


def reg(**ports):
    links = [IN] * 6
    for name, st in ports.items():
        links[int(name[1])] = st
    return tuple(links)


def test_orientation_table():
    a, b = Cell(0, 0), Cell(1, 0)
    # a reaches b through port 0, b reaches a through port 3 (identity maps)
    cases = [
        (ALL_IN, ALL_IN, EdgeOrientation.UNDIRECTED),
        (reg(p0=OUT), ALL_IN, EdgeOrientation.A_TO_B),
        (ALL_IN, reg(p3=OUT), EdgeOrientation.B_TO_A),
        (reg(p0=OUT), reg(p3=OUT), EdgeOrientation.CONFLICT),
    ]
    for la, lb, expected in cases:
        c = pair_config(la, lb)
        assert c.orientation(a, b) is expected
        assert c.orientation(b, a) is mirrored(expected)


def test_orientation_rejects_bad_cells():
    c = pair_config()
    with pytest.raises(ConfigError):
        c.orientation(Cell(0, 0), Cell(5, 5))
    with pytest.raises(ValueError):
        c.orientation(Cell(0, 0), Cell(0, 0))


def test_edge_readers_reject_empty_and_non_adjacent_cells():
    c = pair_config(reg(p0=OUT), ALL_IN)
    a, far, empty = Cell(0, 0), Cell(2, 0), Cell(0, 1)
    for call in (
        lambda: c.port_of(empty, a),
        lambda: c.orientation(a, empty),
        lambda: c.orientation(empty, a),
        lambda: c.outgoing_ports(empty),
    ):
        with pytest.raises(ConfigError):
            call()
    c3 = Configuration(
        Support([a, Cell(1, 0), far]), (IDENTITY_PORTMAP,) * 3,
        {x: ALL_IN for x in (a, Cell(1, 0), far)},
    )
    for call in (
        lambda: c3.port_of(a, far),
        lambda: c3.orientation(a, far),
        lambda: c3.orientation(a, a),
    ):
        with pytest.raises(ValueError, match="not adjacent") as exc:
            call()
        assert not isinstance(exc.value, ConfigError)
    # A port toward an adjacent empty cell exists and holds In.
    assert c.port_of(a, empty) == 1 and c.register(c.number_of(a))[1] is IN


def test_outgoing_ports():
    c = pair_config(reg(p0=OUT), ALL_IN)
    assert c.outgoing_ports(Cell(0, 0)) == (0,)
    assert c.outgoing_ports(Cell(1, 0)) == ()
    single = all_in_configuration(random_support(1, 3))
    assert single.outgoing_ports(Cell(0, 0)) == ()


def test_empty_port_out_rejected():
    with pytest.raises(ConfigError) as exc:
        pair_config(reg(p1=OUT), ALL_IN)
    assert "(0 0)" in str(exc.value) and "port 1" in str(exc.value)


def test_out_toward_empty_names_the_lowest_offending_port_for_every_port_map():
    s = random_support(6, 4)
    for pm in ALL_PORTMAPS:
        cfg = all_in_configuration(s, (pm,) * len(s))
        for c in s:
            for mask in range(1 << N_DIRS):
                links = tuple(OUT if mask >> port & 1 else IN for port in range(N_DIRS))
                offending = [
                    port
                    for port in range(N_DIRS)
                    if links[port] is OUT and neighbor(c, port_to_dir(pm, port)) not in s.cells
                ]
                if not offending:
                    assert CellRegisters(cfg.with_register(c, links))[c] == links
                    continue
                message = f"cell ({c.q} {c.r}) port {offending[0]} is Out toward an empty cell"
                with pytest.raises(ConfigError) as exc:
                    cfg.with_register(c, links)
                assert str(exc.value) == message
                with pytest.raises(ConfigError) as exc:
                    Configuration(s, cfg.portmaps, {**CellRegisters(cfg), c: links})
                assert str(exc.value) == message


@pytest.mark.parametrize(
    "bad",
    [None, 5, "IIIIII", ("I",) * 6, (IN,) * 5, (IN,) * 7, [[IN]] * 6, (1,) * 6, (IN,) * 5 + ("O",)],
)
def test_register_that_is_not_six_link_states_is_a_config_error(bad):
    c = pair_config()
    with pytest.raises(ConfigError, match="must be six link states"):
        c.with_register(Cell(0, 0), bad)
    with pytest.raises(ConfigError, match="must be six link states"):
        Configuration(c.support, c.portmaps, {**CellRegisters(c), Cell(0, 0): bad})


def test_port_map_that_is_not_a_port_map_is_a_config_error():
    c = pair_config()
    i = c.support.number[Cell(0, 0)]
    for bad in (None, (0, 1), [0, 1]):
        with pytest.raises(ConfigError, match="must be a PortMap"):
            Configuration(c.support, c.portmaps[:i] + (bad,) + c.portmaps[i + 1:], CellRegisters(c))


#: Every entry point that takes port maps, called with ``pms`` on ``s``.
PORT_MAP_ENTRY_POINTS = {
    "Configuration": lambda s, pms: Configuration(s, pms, {c: ALL_IN for c in s}),
    "from_masks": lambda s, pms: Configuration.from_masks(s, pms, bytes(len(s))),
    "all_in_configuration": all_in_configuration,
    "erosion_orientation": erosion_orientation,
    "random_registers": lambda s, pms: random_registers(s, 1, 0.25, pms),
    "ConfigGraph.unpack": lambda s, pms: ConfigGraph(s).unpack(0, pms),
}


@pytest.mark.parametrize("bad", ["cell-keyed dict", "one entry short", "non-PortMap entry"])
@pytest.mark.parametrize("entry", sorted(PORT_MAP_ENTRY_POINTS))
def test_port_maps_other_than_a_tuple_by_cell_number_are_a_config_error(tri, entry, bad):
    pms = identity_portmaps(tri)
    pms, message = {
        "cell-keyed dict": (
            dict(zip(tri.order, pms)), "port maps must be a tuple by cell number, not a dict"
        ),
        "one entry short": (pms[:-1], "2 port maps for a support of 3 cells"),
        "non-PortMap entry": (
            pms[:1] + ((0, 1),) + pms[2:], f"port map of {tri.order[1]} must be a PortMap"
        ),
    }[bad]
    with pytest.raises(ConfigError) as exc:
        PORT_MAP_ENTRY_POINTS[entry](tri, pms)
    assert str(exc.value) == message
    assert PORT_MAP_ENTRY_POINTS[entry](tri, identity_portmaps(tri)).portmaps == identity_portmaps(tri)


def test_with_register_validates():
    c = pair_config()
    with pytest.raises(ConfigError):
        c.with_register(Cell(0, 0), reg(p2=OUT))
    c2 = c.with_register(Cell(0, 0), reg(p0=OUT))
    assert c2.orientation(Cell(0, 0), Cell(1, 0)) is EdgeOrientation.A_TO_B
    # original untouched
    assert c.orientation(Cell(0, 0), Cell(1, 0)) is EdgeOrientation.UNDIRECTED


def test_update_outside_the_support_is_a_config_error():
    c = pair_config()
    with pytest.raises(ConfigError, match=r"Cell\(q=5, r=5\) is not in the support"):
        c.with_register(Cell(5, 5), ALL_IN)
    with pytest.raises(ConfigError, match=r"Cell\(q=5, r=5\) is not in the support"):
        c.with_registers({Cell(0, 0): reg(p0=OUT), Cell(5, 5): ALL_IN})
    assert CellRegisters(c)[Cell(0, 0)] == ALL_IN


def test_constructor_requires_matching_keys(tri):
    pms = identity_portmaps(tri)
    regs = {c: ALL_IN for c in tri}
    del regs[Cell(0, 0)]
    with pytest.raises(ConfigError):
        Configuration(tri, pms, regs)


def test_mismatched_portmaps_and_registers_name_missing_and_extra(tri):
    pms = identity_portmaps(tri)
    regs = {c: ALL_IN for c in tri}
    gone, stray = Cell(0, 0), Cell(5, 5)
    bad_pms = pms[:-1]
    bad_regs = {c: r for c, r in regs.items() if c != gone} | {stray: ALL_IN}
    tail = "(missing=[Cell(q=0, r=0)], extra=[Cell(q=5, r=5)])"
    with pytest.raises(ConfigError) as exc:
        Configuration(tri, bad_pms, regs)
    assert str(exc.value) == "2 port maps for a support of 3 cells"
    with pytest.raises(ConfigError) as exc:
        Configuration(tri, pms, bad_regs)
    assert str(exc.value) == "registers do not match support " + tail


@pytest.mark.parametrize(
    "cell_line, message",
    [
        ("0 0 0 | 0 +1 | I I I I I I", "line 4: expected 'q r' as two integers, got '0 0 0'"),
        ("0 x | 0 +1 | I I I I I I", "line 4: expected 'q r' as two integers, got '0 x'"),
        ("0 0 | 0 | I I I I I I", "line 4: expected 'offset chirality' as two integers, got '0'"),
        ("0 0 | 0 1 1 | I I I I I I",
         "line 4: expected 'offset chirality' as two integers, got '0 1 1'"),
    ],
)
def test_register_line_errors_name_the_field(cell_line, message):
    with pytest.raises(ConfigError) as exc:
        deserialize(f"shape\n0 0\ncells\n{cell_line}\n")
    assert str(exc.value) == message


def test_serialize_roundtrip_random():
    for seed in range(8):
        s = random_support(7, seed)
        cfg = random_registers(s, seed, 0.3, random_portmaps(s, seed + 99))
        again = deserialize(cfg.serialize())
        assert again == cfg
        assert again.serialize() == cfg.serialize()


def test_mask_register_tables_round_trip_for_every_port_map_and_mask():
    assert set(REGISTER) == set(OUT_MASK) == set(ALL_PORTMAPS)
    for pm in ALL_PORTMAPS:
        assert len(OUT_MASK[pm]) == 1 << N_DIRS
        for mask in range(1 << N_DIRS):
            reg = REGISTER[pm][mask]
            assert reg == tuple(
                OUT if mask >> port_to_dir(pm, port) & 1 else IN for port in range(N_DIRS)
            )
            assert OUT_MASK[pm][reg] == mask
            # Equal port maps built afresh and registers rebuilt from a list index alike.
            assert OUT_MASK[PortMap(pm.offset, pm.chirality)][tuple(list(reg))] == mask


def test_link_states_rebuilt_any_way_key_the_register_tables():
    # LinkState hashes by identity; every way of rebuilding a member must
    # give back the same object, or register lookups would miss.
    assert (IN.value, OUT.value, repr(IN), repr(OUT)) == ("I", "O", "I", "O")
    assert IN != OUT and IN == LinkState("I") and OUT == LinkState.OUT
    assert len({IN, OUT, LinkState("I"), LinkState("O")}) == 2
    for pm in ALL_PORTMAPS:
        for mask, reg in enumerate(REGISTER[pm]):
            for rebuilt in (
                pickle.loads(pickle.dumps(reg)),
                copy.deepcopy(reg),
                tuple(LinkState(link.value) for link in reg),
            ):
                assert rebuilt == reg and all(a is b for a, b in zip(rebuilt, reg))
                assert OUT_MASK[pm][rebuilt] == mask


def test_deserialize_reads_the_shared_port_maps_and_registers():
    s = random_support(40, 5)
    cfg = random_registers(s, 6, 0.25, random_portmaps(s, 7))
    back = deserialize(cfg.serialize())
    assert back == cfg
    for i in range(len(s)):
        assert back.portmaps[i] is ALL_PORTMAPS[ALL_PORTMAPS.index(cfg.portmaps[i])]
        assert back.register(i) is REGISTER[IDENTITY_PORTMAP][OUT_MASK[IDENTITY_PORTMAP][cfg.register(i)]]
    text = cfg.serialize()
    for bad, message in (("| 6 +1 |", "offset 6 out of range"), ("| 0 +2 |", "chirality must be")):
        with pytest.raises(ConfigError, match=message):
            deserialize(text.replace("| 0 +1 |", bad, 1).replace("| 0 -1 |", bad, 1))


def test_serialize_deterministic(tri):
    a = all_in_configuration(tri).serialize()
    b = all_in_configuration(tri).serialize()
    assert a == b
    assert a.splitlines()[0] == "shape"


def test_deserialize_errors_name_location():
    good = all_in_configuration(triangle3()).serialize()
    # flip one register to Out toward an empty cell
    bad = good.replace("0 1 | 0 +1 | I I I I I I", "0 1 | 0 +1 | I I O I I I")
    with pytest.raises(ConfigError) as exc:
        deserialize(bad)
    assert "(0 1)" in str(exc.value) and "port 2" in str(exc.value)

    missing = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(ConfigError) as exc:
        deserialize(missing)
    assert str(exc.value) == "port maps do not match support (missing=[(1 0)], extra=[])"

    with pytest.raises(ConfigError):
        deserialize(good.replace("shape", "shap", 1))


def test_deserialize_rejects_duplicates_and_unknown_cells():
    good = all_in_configuration(triangle3()).serialize()
    lines = good.splitlines()
    dup = "\n".join(lines + [lines[-1]]) + "\n"
    with pytest.raises(ConfigError):
        deserialize(dup)
    alien = good + "9 9 | 0 +1 | I I I I I I\n"
    with pytest.raises(ConfigError):
        deserialize(alien)
    # A repeated shape line is refused too, at its second occurrence.
    repeated = good.replace("shape\n0 0\n", "shape\n0 0\n# again\n0 0\n", 1)
    with pytest.raises(ConfigError) as exc:
        deserialize(repeated)
    assert str(exc.value) == "line 4: duplicate shape cell (0 0)"


def test_comments_and_blank_lines_ignored(tri):
    cfg = all_in_configuration(tri)
    text = "# header\n\n" + cfg.serialize().replace("cells", "cells\n# mid comment")
    assert deserialize(text) == cfg


def test_port_of_uses_private_portmap():
    from trielect.support import Support

    s = Support([Cell(0, 0), Cell(1, 0)])
    pms = [None] * 2
    pms[s.number[Cell(0, 0)]], pms[s.number[Cell(1, 0)]] = PortMap(2, -1), IDENTITY_PORTMAP
    c = Configuration(s, tuple(pms), {Cell(0, 0): ALL_IN, Cell(1, 0): ALL_IN})
    # direction 0 under offset 2, chirality -1: port = -(0 - 2) = 2
    assert c.port_of(Cell(0, 0), Cell(1, 0)) == 2
    assert c.port_of(Cell(1, 0), Cell(0, 0)) == 3


def _legal_registers(s, pms, rng):
    """A register per cell, Out at random toward occupied cells only."""
    regs = {}
    for c in s:
        pm = pms[s.number[c]]
        regs[c] = tuple(
            OUT if neighbor(c, port_to_dir(pm, port)) in s.cells and rng.random() < 0.5 else IN
            for port in range(N_DIRS)
        )
    return regs


def test_masks_and_regs_agree_on_every_construction_path():
    rng = random.Random(3)
    for n in (1, 2, 7, 30):
        s = random_support(n, rng.randrange(2**31))
        pms = random_portmaps(s, rng.randrange(2**31))
        built = Configuration(s, pms, _legal_registers(s, pms, rng))
        from_masks = random_registers(s, rng.randrange(2**31), 0.3, pms)
        made = [
            built,
            from_masks,
            Configuration.from_masks(s, pms, built.masks),
            built.with_masks(from_masks.masks),
            all_in_configuration(s, pms),
            erosion_orientation(s, pms),
            deserialize(from_masks.serialize()),
        ]
        graph = ConfigGraph(s) if len(s.edges()) <= 8 else None
        if graph is not None:
            made.append(graph.unpack(graph.pack(from_masks), pms))
        # Updates of a configuration built from registers and of one built from masks.
        for base in (built, from_masks):
            updates = _legal_registers(s, pms, rng)
            c = rng.choice(s.order)
            made.append(base.with_register(c, updates[c]))
            made.append(base.with_registers({c: updates[c] for c in rng.sample(s.order, (n + 1) // 2)}))
        for cfg in made:
            assert_masks_match_regs(cfg)
    assert_masks_match_regs(ring18())


def test_equality_and_hash_read_the_support_port_maps_and_registers():
    """``a == b`` iff the cells, port maps and registers are equal, as
    they were compared before masks were stored; equal ones hash alike."""
    rng = random.Random(9)
    s = random_support(6, 2)
    other = random_support(6, 5)
    assert s.cells != other.cells and len(s) == len(other)
    pool = []
    for _ in range(12):
        support = rng.choice((s, s, other))
        pms = rng.choice((identity_portmaps(support), random_portmaps(support, 1)))
        regs = _legal_registers(support, pms, random.Random(rng.randrange(3)))
        pool.append(Configuration(support, pms, regs))
        pool.append(deserialize(pool[-1].serialize()))
    for a in pool:
        for b in pool:
            same = (a.support.cells == b.support.cells and a.portmaps == b.portmaps
                    and CellRegisters(a) == CellRegisters(b))
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)
        for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert copied == a and hash(copied) == hash(a)
    # Equal masks on a different support, and equal masks under other port maps.
    assert all_in_configuration(s) != all_in_configuration(other)
    assert all_in_configuration(s) != all_in_configuration(s, random_portmaps(s, 1))
    assert all_in_configuration(s) != all_in_configuration(s).masks


def test_out_toward_an_empty_cell_is_refused_on_every_path():
    s = random_support(6, 4)
    for pm in (IDENTITY_PORTMAP, PortMap(3, -1)):
        pms = (pm,) * len(s)
        cfg = all_in_configuration(s, pms)
        for i, c in enumerate(s.order):
            for mask in range(1 << N_DIRS):
                empty = mask & ~s.present[i]
                if not empty:
                    continue
                links = REGISTER[pm][mask]
                port = min(pm.ports[d] for d in range(N_DIRS) if empty >> d & 1)
                message = f"cell ({c.q} {c.r}) port {port} is Out toward an empty cell"
                masks = bytearray(cfg.masks)
                masks[i] = mask
                text = cfg.serialize().replace(
                    f"{c.q} {c.r} | {pm.offset} {'+1' if pm.chirality == 1 else '-1'} | I I I I I I",
                    f"{c.q} {c.r} | {pm.offset} {'+1' if pm.chirality == 1 else '-1'} | "
                    + " ".join(link.value for link in links),
                )
                for build in (
                    lambda: Configuration(s, pms, {**CellRegisters(cfg), c: links}),
                    lambda: cfg.with_register(c, links),
                    lambda: cfg.with_registers({c: links}),
                    lambda: Configuration.from_masks(s, pms, masks),
                    lambda: cfg.with_masks(bytes(masks)),
                    lambda: deserialize(text),
                ):
                    with pytest.raises(ConfigError) as exc:
                        build()
                    assert str(exc.value) == message
    # Bits above the six directions are refused too.
    for high in (1 << 6, 1 << 7):
        with pytest.raises(ConfigError, match=r"mask of cell \(.*\) is not six bits"):
            cfg.with_masks(bytes([high]) + cfg.masks[1:])


def test_from_masks_checks_its_arguments(tri):
    pms = identity_portmaps(tri)
    with pytest.raises(ConfigError, match="2 masks for a support of 3 cells"):
        Configuration.from_masks(tri, pms, bytes(2))
    with pytest.raises(ConfigError, match="4 masks for a support of 3 cells"):
        all_in_configuration(tri).with_masks(bytes(4))
    with pytest.raises(ConfigError, match="sequence of six-bit ints"):
        Configuration.from_masks(tri, pms, [0, 0, 256])
    with pytest.raises(ConfigError, match="sequence of six-bit ints"):
        Configuration.from_masks(tri, pms, [0, 0, None])
    with pytest.raises(ConfigError, match="4 port maps for a support of 3 cells"):
        Configuration.from_masks(tri, pms + (IDENTITY_PORTMAP,), bytes(3))
    for bad in (None, (0, 1), [0, 1]):
        with pytest.raises(ConfigError, match="must be a PortMap"):
            Configuration.from_masks(tri, (bad,) + pms[1:], bytes(3))
    assert Configuration.from_masks(tri, pms, [0, 0, 0]) == all_in_configuration(tri)


def test_object_reference_reads_neither_masks_nor_the_register_tables():
    """``rules``, ``algorithm`` and ``views`` read registers through
    ``register(i)`` and the port maps only, so comparing them with the mask
    engine and the oracle compares independent derivations."""
    package = Path(__file__).resolve().parent.parent / "src" / "trielect"
    forbidden = {"masks", "_regs", "from_masks", "with_masks", "OUT_MASK", "REGISTER"}
    for module in ("rules", "algorithm", "views"):
        nodes = list(ast.walk(ast.parse((package / f"{module}.py").read_text())))
        names = (
            {node.id for node in nodes if isinstance(node, ast.Name)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            | {node.name for node in nodes if isinstance(node, ast.alias)}
        )
        assert not names & forbidden, (module, names & forbidden)
