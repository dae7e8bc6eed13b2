"""The two-line repair step and the activability predicate.

An activated particle first settles any Out/Out conflict on its edges by
yielding its own side to In (possible only against arbitrary initial
registers; sequential execution never creates new conflicts).  Then:

  line 1: if some incident edge is still undirected, mark every
          undirected edge outgoing;
  line 2: if, after line 1, the particle breaks the out-degree,
          consecutiveness or triangle rule, mark every outgoing edge
          undirected.

Both lines always run; a particle is activable exactly when the combined
effect changes its register.  Note the step that orients k undirected
edges and immediately retracts them nets to the identity, so such a
particle does not count as activable.  After any activation the out-degree,
consecutiveness and triangle rules hold at the activated particle.

Only the particle's own register is written, and only the registers and
port labels of the particle and its six neighbours are read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Cell, N_DIRS, neighbor, port_to_dir
from .config import Configuration, IN, OUT, Registers
from .rules import check_r2, check_r3, check_r4


@dataclass(frozen=True)
class ActivationEffect:
    changed: bool
    line1_fired: bool
    line2_fired: bool
    conflicts_resolved: int


def step_register(c: Configuration, p: Cell) -> tuple[Registers, ActivationEffect]:
    """New register of ``p`` after one activation, without building the config."""
    pm = c.portmaps[p]
    before = c.regs[p]
    reg = list(before)
    occupied: list[tuple[int, Cell]] = []
    for port in range(N_DIRS):
        n = neighbor(p, port_to_dir(pm, port))
        if n in c.support.cells:
            occupied.append((port, n))

    conflicts = 0
    for port, n in occupied:
        if reg[port] is OUT and c.link_toward(n, p) is OUT:
            reg[port] = IN
            conflicts += 1

    undirected = [
        port for port, n in occupied if reg[port] is IN and c.link_toward(n, p) is IN
    ]
    line1 = bool(undirected)
    if line1:
        for port in undirected:
            reg[port] = OUT

    line2 = False
    if not _r234_with(c, p, tuple(reg)):
        line2 = True
        for port, _ in occupied:
            if reg[port] is OUT:
                reg[port] = IN

    after = tuple(reg)
    return after, ActivationEffect(after != before, line1, line2, conflicts)


def _r234_with(c: Configuration, p: Cell, reg: Registers) -> bool:
    """R2, R3 and R4 at ``p`` with ``p``'s register hypothetically replaced."""
    trial = c.with_register(p, reg)
    return check_r2(trial, p) and check_r3(trial, p) and check_r4(trial, p)


def activation_step(c: Configuration, p: Cell) -> tuple[Configuration, ActivationEffect]:
    """Apply one activation of ``p``; only ``p``'s register may change."""
    if p not in c.support.cells:
        raise ValueError(f"{p} is not occupied")
    reg, effect = step_register(c, p)
    if not effect.changed:
        return c, effect
    return c.with_register(p, reg), effect


def is_activable(c: Configuration, p: Cell) -> bool:
    """True iff activating ``p`` would change its register."""
    _, effect = step_register(c, p)
    return effect.changed
