"""Per-particle link registers and full system states.

Each particle owns six link entries, one per local port, each holding In
or Out.  A pair of registers induces the orientation of the shared edge:
(Out, In) directs it toward the In side, (In, In) leaves it undirected,
and (Out, Out) is a transient conflict that only arbitrary initialisation
can produce.  Ports facing empty cells always hold In; every constructor
and mutation path enforces that invariant.

Registers are indexed by local port, not by global direction, so any code
reading them is forced through the owning particle's PortMap.  That keeps
the simulated particles honest: there is no shared rotation or chirality
to lean on.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from .lattice import (
    ALL_PORTMAPS,
    Cell,
    IDENTITY_PORTMAP,
    N_DIRS,
    PortMap,
    dir_to_port,
    direction_from,
)
from .support import Support


class ConfigError(ValueError):
    """Malformed configuration data or violated register invariant."""


class LinkState(Enum):
    IN = "I"
    OUT = "O"

    # Members are singletons that compare by identity, so the identity hash
    # agrees with equality; it hashes in C, where ``Enum``'s hashes the name
    # in Python, and every register-keyed lookup hashes six of them.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # keeps fixture dumps short
        return self.value


IN = LinkState.IN
OUT = LinkState.OUT

#: Six link entries indexed by local port.
Registers = tuple[LinkState, ...]

ALL_IN: Registers = (IN,) * N_DIRS


class EdgeOrientation(Enum):
    A_TO_B = "a->b"
    B_TO_A = "b->a"
    UNDIRECTED = "undirected"
    CONFLICT = "conflict"


#: ``LINK_ORIENTATION[a is OUT][b is OUT]`` is the orientation that the
#: links ``a`` and ``b`` at the two ends of edge a-b give it.
LINK_ORIENTATION: tuple[tuple[EdgeOrientation, EdgeOrientation], ...] = (
    (EdgeOrientation.UNDIRECTED, EdgeOrientation.B_TO_A),
    (EdgeOrientation.A_TO_B, EdgeOrientation.CONFLICT),
)


def _mask_tables() -> tuple[
    dict[PortMap, tuple[Registers, ...]], dict[PortMap, dict[Registers, int]]
]:
    # The 64 registers by their mask over ports, shared by every port map.
    by_ports = [
        tuple(OUT if m >> port & 1 else IN for port in range(N_DIRS)) for m in range(1 << N_DIRS)
    ]
    registers: dict[PortMap, tuple[Registers, ...]] = {}
    masks: dict[PortMap, dict[Registers, int]] = {}
    for pm in ALL_PORTMAPS:
        # ports[mask]: the mask over ports facing the directions in ``mask``,
        # from its lowest direction and the entry for the rest.
        ports = [0] * (1 << N_DIRS)
        for d in range(N_DIRS):
            ports[1 << d] = 1 << dir_to_port(pm, d)
        for mask in range(1, 1 << N_DIRS):
            ports[mask] = ports[mask & -mask] | ports[mask & (mask - 1)]
        registers[pm] = regs = tuple(by_ports[p] for p in ports)
        masks[pm] = dict(zip(regs, range(1 << N_DIRS)))
    return registers, masks


#: ``REGISTER[pm][mask]``: the register of a particle with port map ``pm``
#: that is Out exactly toward the global directions in the six-bit
#: ``mask``.  ``OUT_MASK[pm][reg]`` is the mask of register ``reg``.
#: Neither table knows the support: a register Out toward an empty cell
#: is rejected only where a ``Configuration`` is built or updated.
REGISTER, OUT_MASK = _mask_tables()

#: The links of each of the 64 registers as ``serialize`` writes them, and
#: back: ``deserialize`` reads registers as these shared objects.
_LINK_TEXT = {reg: " ".join(link.value for link in reg) for reg in REGISTER[IDENTITY_PORTMAP]}
_REGISTER_OF_TEXT = {text: reg for reg, text in _LINK_TEXT.items()}


def identity_portmaps(support: Support) -> dict[Cell, PortMap]:
    return {c: IDENTITY_PORTMAP for c in support}


class Configuration:
    """A support plus every particle's port map and link register."""

    __slots__ = ("support", "portmaps", "regs")

    def __init__(
        self,
        support: Support,
        portmaps: Mapping[Cell, PortMap],
        regs: Mapping[Cell, Registers],
    ):
        for what, mapping in (("port maps", portmaps), ("registers", regs)):
            if (keys := set(mapping)) != support.cells:
                missing, extra = sorted(support.cells - keys), sorted(keys - support.cells)
                raise ConfigError(f"{what} do not match support (missing={missing}, extra={extra})")
        self.support = support
        self.portmaps = dict(portmaps)
        self.regs = {}
        for c in support:
            self.regs[c] = _check_register(support, c, self.portmaps[c], regs[c])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self.support.cells == other.support.cells
            and self.portmaps == other.portmaps
            and self.regs == other.regs
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.support.cells,
                tuple(sorted(self.portmaps.items())),
                tuple(sorted(self.regs.items())),
            )
        )

    def __repr__(self) -> str:
        return f"Configuration({len(self.support)} cells)"

    # -- register access ----------------------------------------------------

    def number_of(self, c: Cell) -> int:
        """``c``'s number in the support's cell numbering."""
        i = self.support.number.get(c)
        if i is None:
            raise ConfigError(f"cell {c} is not in the support")
        return i

    def port_of(self, c: Cell, toward: Cell) -> int:
        """Local port of ``c`` whose edge leads to the adjacent cell ``toward``."""
        pm = self.portmaps.get(c)
        if pm is None:
            raise ConfigError(f"cell {c} is not in the support")
        return pm.ports[direction_from(c, toward)]

    def link_toward(self, c: Cell, toward: Cell) -> LinkState:
        port = self.port_of(c, toward)
        return self.regs[c][port]

    def with_register(self, c: Cell, reg: Registers) -> "Configuration":
        """Copy of this configuration with one register replaced (re-validated)."""
        return self.with_registers({c: reg})

    def with_registers(self, updates: Mapping[Cell, Registers]) -> "Configuration":
        """Copy of this configuration with the given registers replaced (re-validated)."""
        new = Configuration.__new__(Configuration)
        new.support = self.support
        new.portmaps = self.portmaps
        new.regs = dict(self.regs)
        for c, reg in updates.items():
            pm = self.portmaps.get(c)
            if pm is None:
                raise ConfigError(f"cell {c} is not in the support")
            new.regs[c] = _check_register(self.support, c, pm, reg)
        return new

    # -- derived edge facts ---------------------------------------------------

    def orientation(self, a: Cell, b: Cell) -> EdgeOrientation:
        number = self.support.number
        i, j = number.get(a), number.get(b)
        if i is None or j is None:
            raise ConfigError(f"edge {a}-{b} is not between occupied cells")
        try:
            d = self.support.around[i].index(j)
        except ValueError:
            raise ValueError(f"cells {a} and {b} are not adjacent") from None
        out_a = self.regs[a][self.portmaps[a].ports[d]] is OUT
        out_b = self.regs[b][self.portmaps[b].ports[(d + 3) % N_DIRS]] is OUT
        return LINK_ORIENTATION[out_a][out_b]

    def outgoing_ports(self, c: Cell) -> tuple[int, ...]:
        """Ports of ``c`` holding Out toward an occupied neighbour."""
        present = self.support.present[self.number_of(c)]
        dirs = self.portmaps[c].dirs
        reg = self.regs[c]
        return tuple(p for p in range(N_DIRS) if reg[p] is OUT and present >> dirs[p] & 1)

    # -- serialisation --------------------------------------------------------

    def serialize(self) -> str:
        lines = ["shape"]
        for c in self.support:
            lines.append(f"{c.q} {c.r}")
        lines.append("cells")
        for c in self.support:
            pm = self.portmaps[c]
            chir = "+1" if pm.chirality == 1 else "-1"
            lines.append(f"{c.q} {c.r} | {pm.offset} {chir} | {_LINK_TEXT[self.regs[c]]}")
        return "\n".join(lines) + "\n"


def _check_register(support: Support, c: Cell, pm: PortMap, reg: Registers) -> Registers:
    try:
        masks = OUT_MASK[pm]
    except (TypeError, KeyError):
        raise ConfigError(f"port map of {c} must be a PortMap") from None
    try:
        reg = tuple(reg)
        mask = masks[reg]
    except (TypeError, KeyError):
        raise ConfigError(f"register of {c} must be six link states") from None
    empty = mask & ~support.present[support.number[c]]
    if empty:
        port = min(dir_to_port(pm, d) for d in range(N_DIRS) if empty >> d & 1)
        raise ConfigError(f"cell ({c.q} {c.r}) port {port} is Out toward an empty cell")
    return reg


def all_in_configuration(
    support: Support, portmaps: Mapping[Cell, PortMap] | None = None
) -> Configuration:
    pms = dict(portmaps) if portmaps is not None else identity_portmaps(support)
    return Configuration(support, pms, {c: ALL_IN for c in support})


def deserialize(text: str) -> Configuration:
    """Parse the two-block configuration format written by ``serialize``."""
    shape_cells: list[Cell] = []
    reg_lines: list[tuple[int, str]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "shape":
            section = "shape"
            continue
        if line == "cells":
            section = "cells"
            continue
        if section == "shape":
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(f"line {lineno}: expected 'q r' in shape block")
            try:
                shape_cells.append(Cell(int(parts[0]), int(parts[1])))
            except ValueError:
                raise ConfigError(f"line {lineno}: non-integer coordinate") from None
        elif section == "cells":
            reg_lines.append((lineno, line))
        else:
            raise ConfigError(f"line {lineno}: content before 'shape' header")
    if not shape_cells:
        raise ConfigError("missing or empty shape block")
    support = Support(shape_cells)

    portmaps: dict[Cell, PortMap] = {}
    regs: dict[Cell, Registers] = {}
    for lineno, line in reg_lines:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected 'q r | offset chirality | links'")
        q, r = _int_pair(lineno, parts[0], "q r")
        off, chi = _int_pair(lineno, parts[1], "offset chirality")
        try:
            pm = PortMap(off, chi)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        cell = Cell(q, r)
        if cell not in support.cells:
            raise ConfigError(f"line {lineno}: cell ({q} {r}) is not in the shape block")
        if cell in portmaps:
            raise ConfigError(f"line {lineno}: duplicate entry for cell ({q} {r})")
        reg = _REGISTER_OF_TEXT.get(" ".join(parts[2].split()))
        if reg is None:
            raise ConfigError(f"line {lineno}: links must be six of I/O")
        portmaps[cell] = pm
        regs[cell] = reg
    return Configuration(support, portmaps, regs)


def _int_pair(lineno: int, text: str, fields: str) -> tuple[int, int]:
    """``text``, the ``fields`` field of register line ``lineno``, as two integers."""
    try:
        a, b = map(int, text.split())
    except ValueError:
        raise ConfigError(
            f"line {lineno}: expected '{fields}' as two integers, got {text!r}"
        ) from None
    return a, b


def load(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def save(config: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.serialize())
