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
    Cell,
    IDENTITY_PORTMAP,
    N_DIRS,
    PortMap,
    dir_to_port,
    direction_from,
    neighbor,
    port_to_dir,
)
from .support import Support


class ConfigError(ValueError):
    """Malformed configuration data or violated register invariant."""


class LinkState(Enum):
    IN = "I"
    OUT = "O"

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

    def mirrored(self) -> "EdgeOrientation":
        if self is EdgeOrientation.A_TO_B:
            return EdgeOrientation.B_TO_A
        if self is EdgeOrientation.B_TO_A:
            return EdgeOrientation.A_TO_B
        return self


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
        if set(portmaps) != support.cells:
            missing = support.cells - set(portmaps)
            extra = set(portmaps) - support.cells
            raise ConfigError(f"port maps do not match support (missing={sorted(missing)}, extra={sorted(extra)})")
        if set(regs) != support.cells:
            missing = support.cells - set(regs)
            extra = set(regs) - support.cells
            raise ConfigError(f"registers do not match support (missing={sorted(missing)}, extra={sorted(extra)})")
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

    def port_of(self, c: Cell, toward: Cell) -> int:
        """Local port of ``c`` whose edge leads to the adjacent cell ``toward``."""
        return dir_to_port(self.portmaps[c], direction_from(c, toward))

    def link(self, c: Cell, port: int) -> LinkState:
        return self.regs[c][port]

    def link_toward(self, c: Cell, toward: Cell) -> LinkState:
        return self.regs[c][self.port_of(c, toward)]

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
            new.regs[c] = _check_register(self.support, c, self.portmaps[c], reg)
        return new

    # -- derived edge facts ---------------------------------------------------

    def orientation(self, a: Cell, b: Cell) -> EdgeOrientation:
        if a not in self.support.cells or b not in self.support.cells:
            raise ConfigError(f"edge {a}-{b} is not between occupied cells")
        side_a = self.link_toward(a, b)  # raises if not adjacent
        side_b = self.link_toward(b, a)
        if side_a is OUT:
            return EdgeOrientation.CONFLICT if side_b is OUT else EdgeOrientation.A_TO_B
        return EdgeOrientation.B_TO_A if side_b is OUT else EdgeOrientation.UNDIRECTED

    def outgoing_ports(self, c: Cell) -> tuple[int, ...]:
        """Ports of ``c`` holding Out toward an occupied neighbour."""
        pm = self.portmaps[c]
        reg = self.regs[c]
        return tuple(
            p
            for p in range(N_DIRS)
            if reg[p] is OUT and neighbor(c, port_to_dir(pm, p)) in self.support.cells
        )

    def edges(self) -> list[tuple[Cell, Cell]]:
        return self.support.edges()

    # -- serialisation --------------------------------------------------------

    def serialize(self) -> str:
        lines = ["shape"]
        for c in self.support:
            lines.append(f"{c.q} {c.r}")
        lines.append("cells")
        for c in self.support:
            pm = self.portmaps[c]
            chir = "+1" if pm.chirality == 1 else "-1"
            links = " ".join(st.value for st in self.regs[c])
            lines.append(f"{c.q} {c.r} | {pm.offset} {chir} | {links}")
        return "\n".join(lines) + "\n"


def _check_register(support: Support, c: Cell, pm: PortMap, reg: Registers) -> Registers:
    reg = tuple(reg)
    if len(reg) != N_DIRS or not all(isinstance(st, LinkState) for st in reg):
        raise ConfigError(f"register of {c} must be six link states")
    for p in range(N_DIRS):
        if reg[p] is OUT and neighbor(c, port_to_dir(pm, p)) not in support.cells:
            raise ConfigError(
                f"cell ({c.q} {c.r}) port {p} is Out toward an empty cell"
            )
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
        try:
            q, r = (int(x) for x in parts[0].split())
            off_s, chi_s = parts[1].split()
            pm = PortMap(int(off_s), int(chi_s))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        cell = Cell(q, r)
        if cell not in support.cells:
            raise ConfigError(f"line {lineno}: cell ({q} {r}) is not in the shape block")
        if cell in portmaps:
            raise ConfigError(f"line {lineno}: duplicate entry for cell ({q} {r})")
        link_syms = parts[2].split()
        if len(link_syms) != N_DIRS or any(s not in ("I", "O") for s in link_syms):
            raise ConfigError(f"line {lineno}: links must be six of I/O")
        portmaps[cell] = pm
        regs[cell] = tuple(IN if s == "I" else OUT for s in link_syms)

    missing = support.cells - set(portmaps)
    if missing:
        raise ConfigError(f"missing portmap/register entry for cells {sorted(missing)}")
    try:
        return Configuration(support, portmaps, regs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def save(config: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.serialize())
