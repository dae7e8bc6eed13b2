"""Per-particle link registers and full system states.

Each particle owns six link entries, one per local port, each holding In
or Out.  A pair of registers induces the orientation of the shared edge:
(Out, In) directs it toward the In side, (In, In) leaves it undirected,
and (Out, Out) is a transient conflict that only arbitrary initialisation
can produce.  Ports facing empty cells always hold In; every constructor
and mutation path enforces that invariant.

A ``Configuration`` stores its state as the paper does, six link flags
per particle: ``masks``, one byte per cell number (``Support.order``)
whose bit ``d`` is set iff the particle is Out toward global direction
``d``.  The invariant is then one test per cell, ``mask & ~present``
must be 0.  The mask engine (``scheduler.run``), the generators and the
oracle read and write ``masks`` directly.

Beside them, ``portmaps`` is a tuple of one ``PortMap`` per cell number,
taken by every constructor and shared by every update.  Registers are
indexed by local port, not by global direction, so any code reading them
is forced through the owning particle's PortMap.  Every particle-local
reader (``rules``, ``algorithm``, ``views`` and the edge readers here)
goes through ``register(i)`` and ``portmaps`` only, by the cell numbers
it already holds, never through ``masks``; ``register(i)`` reads cell
number ``i``'s register off its mask by ``REGISTER``, and nothing is
built or kept per configuration.  That keeps the simulated particles
honest: there is no shared rotation or chirality to lean on.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NoReturn

from .lattice import (
    ALL_PORTMAPS,
    Cell,
    IDENTITY_PORTMAP,
    N_DIRS,
    PortMap,
    dir_to_port,
    direction_from,
)
from .support import Support, parse_int


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


#: One port map per cell number, in ``Support.order``.
PortMaps = tuple[PortMap, ...]


def identity_portmaps(support: Support) -> PortMaps:
    return (IDENTITY_PORTMAP,) * len(support)


class Configuration:
    """A support plus every particle's port map and link register.

    The stored state is ``portmaps`` and ``masks``: cell number ``i`` has
    port map ``portmaps[i]`` and Out mask ``masks[i]`` over global
    directions, and nothing else is stored about the registers.
    ``register(i)`` reads cell number ``i``'s as ``REGISTER[pm][mask]``.
    """

    __slots__ = ("support", "portmaps", "masks")

    def __init__(
        self,
        support: Support,
        portmaps: PortMaps,
        regs: Mapping[Cell, Registers],
    ):
        _check_portmaps(support, portmaps)
        if (keys := set(regs)) != (cells := support.number.keys()):
            missing, extra = sorted(cells - keys), sorted(keys - cells)
            raise ConfigError(f"registers do not match support (missing={missing}, extra={extra})")
        self.support = support
        self.portmaps = portmaps
        self.masks = bytes(
            _mask_of(c, pm, regs[c], present)
            for c, pm, present in zip(support.order, portmaps, support.present)
        )

    @classmethod
    def from_masks(
        cls, support: Support, portmaps: PortMaps, masks: Iterable[int]
    ) -> "Configuration":
        """Cell number ``i`` Out toward the global directions in ``masks[i]``."""
        _check_portmaps(support, portmaps)
        try:
            masks = bytes(masks)
        except (TypeError, ValueError):
            raise ConfigError("masks must be a sequence of six-bit ints") from None
        _check_masks(support, portmaps, masks)
        return cls._of(support, portmaps, masks)

    @classmethod
    def _of(cls, support: Support, portmaps: PortMaps, masks: bytes) -> "Configuration":
        """The configuration of ``masks``; nothing is checked."""
        new = cls.__new__(cls)
        new.support = support
        new.portmaps = portmaps
        new.masks = masks
        return new

    def with_masks(self, masks: bytes) -> "Configuration":
        """This configuration with cell number ``i`` Out toward ``masks[i]``."""
        _check_masks(self.support, self.portmaps, masks)
        return self._of(self.support, self.portmaps, masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self.masks == other.masks
            and self.support == other.support
            and (self.portmaps is other.portmaps or self.portmaps == other.portmaps)
        )

    def __hash__(self) -> int:
        return hash((self.support, self.masks, self.portmaps))

    def __repr__(self) -> str:
        return f"Configuration({len(self.support)} cells)"

    # -- register access ----------------------------------------------------

    def register(self, i: int) -> Registers:
        """Cell number ``i``'s register, indexed by its local ports."""
        return REGISTER[self.portmaps[i]][self.masks[i]]

    def number_of(self, c: Cell) -> int:
        """``c``'s number in the support's cell numbering."""
        i = self.support.number.get(c)
        if i is None:
            raise ConfigError(f"cell {c} is not in the support")
        return i

    def port_of(self, c: Cell, toward: Cell) -> int:
        """Local port of ``c`` whose edge leads to the adjacent cell ``toward``."""
        return self.portmaps[self.number_of(c)].ports[direction_from(c, toward)]

    def with_register(self, c: Cell, reg: Registers) -> "Configuration":
        """Copy of this configuration with one register replaced (re-validated)."""
        return self.with_registers({c: reg})

    def with_registers(self, updates: Mapping[Cell, Registers]) -> "Configuration":
        """Copy of this configuration with the given registers replaced (re-validated)."""
        support, pms = self.support, self.portmaps
        number, present = support.number, support.present
        masks = bytearray(self.masks)
        for c, reg in updates.items():
            i = number.get(c)
            if i is None:
                raise ConfigError(f"cell {c} is not in the support")
            masks[i] = _mask_of(c, pms[i], reg, present[i])
        return self._of(support, pms, bytes(masks))

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
        pms = self.portmaps
        out_a = self.register(i)[pms[i].ports[d]] is OUT
        out_b = self.register(j)[pms[j].ports[(d + 3) % N_DIRS]] is OUT
        return LINK_ORIENTATION[out_a][out_b]

    def outgoing_ports(self, c: Cell) -> tuple[int, ...]:
        """Ports of ``c`` holding Out toward an occupied neighbour."""
        i = self.number_of(c)
        present, dirs = self.support.present[i], self.portmaps[i].dirs
        reg = self.register(i)
        return tuple(p for p in range(N_DIRS) if reg[p] is OUT and present >> dirs[p] & 1)

    # -- serialisation --------------------------------------------------------

    def serialize(self) -> str:
        order = self.support.order
        lines = ["shape"]
        for c in order:
            lines.append(f"{c.q} {c.r}")
        lines.append("cells")
        for c, pm, mask in zip(order, self.portmaps, self.masks):
            chir = "+1" if pm.chirality == 1 else "-1"
            lines.append(f"{c.q} {c.r} | {pm.offset} {chir} | {_LINK_TEXT[REGISTER[pm][mask]]}")
        return "\n".join(lines) + "\n"


def _check_portmaps(support: Support, portmaps: object) -> None:
    """Refuse ``portmaps`` unless it is a tuple of one ``PortMap`` per cell number."""
    if not isinstance(portmaps, tuple):
        kind = type(portmaps).__name__
        raise ConfigError(f"port maps must be a tuple by cell number, not a {kind}")
    if len(portmaps) != len(support):
        raise ConfigError(f"{len(portmaps)} port maps for a support of {len(support)} cells")
    # One pass over the types in C; the cells are decoded only to name a bad one.
    if set(map(type, portmaps)) != {PortMap}:
        for c, pm in zip(support.order, portmaps):
            if not isinstance(pm, PortMap):
                raise ConfigError(f"port map of {c} must be a PortMap")


def _check_masks(support: Support, portmaps: PortMaps, masks: bytes) -> None:
    """Refuse ``masks`` unless it has one mask per cell, each Out toward
    occupied cells only."""
    present = support.present
    if len(masks) != len(present):
        raise ConfigError(f"{len(masks)} masks for a support of {len(present)} cells")
    # ``mask & ~present`` at every cell in one AND: byte i of each int is cell i's.
    if int.from_bytes(masks, "little") & ~int.from_bytes(bytes(present), "little"):
        i, c = next((i, c) for i, c in enumerate(support.order) if masks[i] & ~present[i])
        _refuse(c, portmaps[i], masks[i] & ~present[i])


def _mask_of(c: Cell, pm: PortMap, reg: Registers, present: int) -> int:
    """The Out mask over global directions of ``c``'s register ``reg``
    under ``pm``, refused unless it is Out toward ``present`` only."""
    try:
        mask = OUT_MASK[pm][tuple(reg)]
    except (TypeError, KeyError):
        raise ConfigError(f"register of {c} must be six link states") from None
    if mask & ~present:
        _refuse(c, pm, mask & ~present)
    return mask


def _refuse(c: Cell, pm: PortMap, empty: int) -> NoReturn:
    """Raise for cell ``c`` Out toward the empty directions in ``empty``."""
    if empty >> N_DIRS:
        raise ConfigError(f"mask of cell ({c.q} {c.r}) is not six bits")
    port = min(dir_to_port(pm, d) for d in range(N_DIRS) if empty >> d & 1)
    raise ConfigError(f"cell ({c.q} {c.r}) port {port} is Out toward an empty cell")


def all_in_configuration(
    support: Support, portmaps: PortMaps | None = None
) -> Configuration:
    pms = portmaps if portmaps is not None else identity_portmaps(support)
    return Configuration.from_masks(support, pms, bytes(len(support)))


#: A ``masks`` byte of ``deserialize`` that no register line has set yet.
_UNSET = 0xFF


def deserialize(text: str) -> Configuration:
    """Parse the two-block configuration format written by ``serialize``."""
    shape_cells: list[Cell] = []
    reg_lines: list[tuple[int, str]] = []
    section = None
    # ``Cell(q, r)`` without the named tuple's Python-level ``__new__``.
    new_cell = tuple.__new__
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
                shape_cells.append(new_cell(Cell, (parse_int(parts[0]), parse_int(parts[1]))))
            except ValueError:
                raise ConfigError(f"line {lineno}: non-integer coordinate") from None
        elif section == "cells":
            reg_lines.append((lineno, line))
        else:
            raise ConfigError(f"line {lineno}: content before 'shape' header")
    if not shape_cells:
        raise ConfigError("missing or empty shape block")
    support = Support(shape_cells)
    if len(support) < len(shape_cells):
        _refuse_repeat(text)
    number = support.number

    portmaps: list[PortMap | None] = [None] * len(support)
    masks = bytearray([_UNSET]) * len(support)
    # ``parsed[tail]``: the port map and Out mask of a line whose text after
    # its first ``|`` is ``tail`` and parsed before.
    parsed: dict[str, tuple[PortMap, int]] = {}
    for lineno, line in reg_lines:
        head, _, tail = line.partition("|")
        known = parsed.get(tail)
        if known is None:
            fields = tail.split("|")
            if len(fields) != 2:
                raise ConfigError(f"line {lineno}: expected 'q r | offset chirality | links'")
        q, r = _int_pair(lineno, head, "q r")
        if known is None:
            off, chi = _int_pair(lineno, fields[0], "offset chirality")
            try:
                pm = PortMap(off, chi)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        else:
            pm, mask = known
        cell = new_cell(Cell, (q, r))
        i = number.get(cell)
        if i is None:
            raise ConfigError(f"line {lineno}: cell ({q} {r}) is not in the shape block")
        if masks[i] != _UNSET:
            raise ConfigError(f"line {lineno}: duplicate entry for cell ({q} {r})")
        if known is None:
            reg = _REGISTER_OF_TEXT.get(" ".join(fields[1].split()))
            if reg is None:
                raise ConfigError(f"line {lineno}: links must be six of I/O")
            mask = OUT_MASK[pm][reg]
            parsed[tail] = pm, mask
        portmaps[i] = pm
        masks[i] = mask
    if _UNSET in masks:
        missing = ", ".join(f"({q} {r})" for (q, r), m in zip(support.order, masks) if m == _UNSET)
        raise ConfigError(f"port maps do not match support (missing=[{missing}], extra=[])")
    masks, pms = bytes(masks), tuple(portmaps)
    _check_masks(support, pms, masks)
    return Configuration._of(support, pms, masks)


def _refuse_repeat(text: str) -> NoReturn:
    """Raise for the first shape line of ``text``, which ``deserialize``
    has parsed, that repeats a cell: read again on this error path only,
    so a good file keeps no line numbers for its shape block."""
    seen = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line in ("shape", "cells"):
            section = line
        elif line and section == "shape":
            q, r = map(int, line.split())
            if (q, r) in seen:
                raise ConfigError(f"line {lineno}: duplicate shape cell ({q} {r})")
            seen.add((q, r))
    raise AssertionError("no shape cell is repeated")


def _int_pair(lineno: int, text: str, fields: str) -> tuple[int, int]:
    """``text``, the ``fields`` field of register line ``lineno``, as two integers."""
    try:
        a, b = map(parse_int, text.split())
    except ValueError:
        raise ConfigError(
            f"line {lineno}: expected '{fields}' as two integers, got {text.strip()!r}"
        ) from None
    return a, b


def load(path: str) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def save(config: Configuration, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.serialize())
