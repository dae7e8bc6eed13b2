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

Registers are indexed by local port, not by global direction, so any code
reading them is forced through the owning particle's PortMap.  Every
particle-local reader (``rules``, ``algorithm``, ``views`` and the edge
readers here) goes through ``regs`` and ``portmaps`` only, never through
``masks``; ``regs`` is derived from the masks by ``REGISTER`` on its
first read, and no path hands a register dict on.  That keeps the
simulated particles honest: there is no shared rotation or chirality to
lean on.
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
    """A support plus every particle's port map and link register.

    The stored state is ``masks``: the Out mask of cell number ``i`` over
    global directions is ``masks[i]``, and nothing else is stored about
    the registers.  ``regs`` reads the masks as registers,
    ``REGISTER[pm][mask]``: the property builds the dict at most once per
    configuration, on its first read, and is the only code that fills
    ``_regs`` (None until then).
    """

    __slots__ = ("support", "portmaps", "masks", "_regs")

    def __init__(
        self,
        support: Support,
        portmaps: Mapping[Cell, PortMap],
        regs: Mapping[Cell, Registers],
    ):
        for what, mapping in (("port maps", portmaps), ("registers", regs)):
            _check_keys(support, what, mapping)
        self.support = support
        self.portmaps = pms = dict(portmaps)
        present = support.present
        self.masks = bytes(
            _mask_of(c, pms[c], regs[c], present[i]) for i, c in enumerate(support.order)
        )
        self._regs: dict[Cell, Registers] | None = None

    @classmethod
    def from_masks(
        cls, support: Support, portmaps: Mapping[Cell, PortMap], masks: Iterable[int]
    ) -> "Configuration":
        """Cell number ``i`` Out toward the global directions in ``masks[i]``."""
        _check_keys(support, "port maps", portmaps)
        pms = dict(portmaps)
        for c, pm in pms.items():
            if not isinstance(pm, PortMap):
                raise ConfigError(f"port map of {c} must be a PortMap")
        try:
            masks = bytes(masks)
        except (TypeError, ValueError):
            raise ConfigError("masks must be a sequence of six-bit ints") from None
        _check_masks(support, pms, masks)
        return cls._of(support, pms, masks)

    @classmethod
    def _of(cls, support: Support, portmaps: dict[Cell, PortMap], masks: bytes) -> "Configuration":
        """The configuration of ``masks``; nothing is checked."""
        new = cls.__new__(cls)
        new.support = support
        new.portmaps = portmaps
        new.masks = masks
        new._regs = None
        return new

    def with_masks(self, masks: bytes) -> "Configuration":
        """This configuration with cell number ``i`` Out toward ``masks[i]``."""
        _check_masks(self.support, self.portmaps, masks)
        return self._of(self.support, self.portmaps, masks)

    @property
    def regs(self) -> dict[Cell, Registers]:
        """Every particle's register by cell, built on the first read."""
        regs = self._regs
        if regs is None:
            pms = self.portmaps
            self._regs = regs = {
                c: REGISTER[pms[c]][m] for c, m in zip(self.support.order, self.masks)
            }
        return regs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Configuration)
            and self.masks == other.masks
            and (self.support is other.support or self.support.cells == other.support.cells)
            and (self.portmaps is other.portmaps or self.portmaps == other.portmaps)
        )

    def __hash__(self) -> int:
        pms = self.portmaps
        return hash((self.support.cells, self.masks, tuple(map(pms.__getitem__, self.support.order))))

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
        # The built registers without the property's call, or build them.
        return (self._regs or self.regs)[c][port]

    def with_register(self, c: Cell, reg: Registers) -> "Configuration":
        """Copy of this configuration with one register replaced (re-validated)."""
        return self.with_registers({c: reg})

    def with_registers(self, updates: Mapping[Cell, Registers]) -> "Configuration":
        """Copy of this configuration with the given registers replaced (re-validated)."""
        support, pms = self.support, self.portmaps
        number, present = support.number, support.present
        masks = bytearray(self.masks)
        for c, reg in updates.items():
            pm = pms.get(c)
            if pm is None:
                raise ConfigError(f"cell {c} is not in the support")
            i = number[c]
            masks[i] = _mask_of(c, pm, reg, present[i])
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
        regs = self.regs
        out_a = regs[a][self.portmaps[a].ports[d]] is OUT
        out_b = regs[b][self.portmaps[b].ports[(d + 3) % N_DIRS]] is OUT
        return LINK_ORIENTATION[out_a][out_b]

    def outgoing_ports(self, c: Cell) -> tuple[int, ...]:
        """Ports of ``c`` holding Out toward an occupied neighbour."""
        present = self.support.present[self.number_of(c)]
        dirs = self.portmaps[c].dirs
        reg = (self._regs or self.regs)[c]
        return tuple(p for p in range(N_DIRS) if reg[p] is OUT and present >> dirs[p] & 1)

    # -- serialisation --------------------------------------------------------

    def serialize(self) -> str:
        order, pms = self.support.order, self.portmaps
        lines = ["shape"]
        for c in order:
            lines.append(f"{c.q} {c.r}")
        lines.append("cells")
        for c, mask in zip(order, self.masks):
            pm = pms[c]
            chir = "+1" if pm.chirality == 1 else "-1"
            lines.append(f"{c.q} {c.r} | {pm.offset} {chir} | {_LINK_TEXT[REGISTER[pm][mask]]}")
        return "\n".join(lines) + "\n"


def _check_keys(support: Support, what: str, mapping: Mapping[Cell, object]) -> None:
    if (keys := set(mapping)) != support.cells:
        missing, extra = sorted(support.cells - keys), sorted(keys - support.cells)
        raise ConfigError(f"{what} do not match support (missing={missing}, extra={extra})")


def _check_masks(support: Support, portmaps: Mapping[Cell, PortMap], masks: bytes) -> None:
    """Refuse ``masks`` unless it has one mask per cell, each Out toward
    occupied cells only."""
    present = support.present
    if len(masks) != len(present):
        raise ConfigError(f"{len(masks)} masks for a support of {len(present)} cells")
    # ``mask & ~present`` at every cell in one AND: byte i of each int is cell i's.
    if int.from_bytes(masks, "little") & ~int.from_bytes(bytes(present), "little"):
        i, c = next((i, c) for i, c in enumerate(support.order) if masks[i] & ~present[i])
        _refuse(c, portmaps[c], masks[i] & ~present[i])


def _mask_of(c: Cell, pm: PortMap, reg: Registers, present: int) -> int:
    """The Out mask over global directions of ``c``'s register ``reg``
    under ``pm``, refused unless it is Out toward ``present`` only."""
    try:
        masks = OUT_MASK[pm]
    except (TypeError, KeyError):
        raise ConfigError(f"port map of {c} must be a PortMap") from None
    try:
        mask = masks[tuple(reg)]
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
    support: Support, portmaps: Mapping[Cell, PortMap] | None = None
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
                shape_cells.append(new_cell(Cell, (int(parts[0]), int(parts[1]))))
            except ValueError:
                raise ConfigError(f"line {lineno}: non-integer coordinate") from None
        elif section == "cells":
            reg_lines.append((lineno, line))
        else:
            raise ConfigError(f"line {lineno}: content before 'shape' header")
    if not shape_cells:
        raise ConfigError("missing or empty shape block")
    support = Support(shape_cells)
    number = support.number

    portmaps: dict[Cell, PortMap] = {}
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
        portmaps[cell] = pm
        masks[i] = mask
    if _UNSET in masks:
        missing = [c for c, m in zip(support.order, masks) if m == _UNSET]
        raise ConfigError(f"port maps do not match support (missing={missing}, extra=[])")
    masks = bytes(masks)
    _check_masks(support, portmaps, masks)
    return Configuration._of(support, portmaps, masks)


def _int_pair(lineno: int, text: str, fields: str) -> tuple[int, int]:
    """``text``, the ``fields`` field of register line ``lineno``, as two integers."""
    try:
        a, b = map(int, text.split())
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
