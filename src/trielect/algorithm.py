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
``step_register`` tests line 2 on the would-be register in place, through
``rules.r4_at`` for R4, and builds no configuration, so a step costs the
same at any support size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import CYCLIC_RUN, Cell, N_DIRS
from .config import ALL_IN, Configuration, IN, OUT, Registers

# ``check_r4`` stays importable here, where the benchmark's traced run wraps it.
from .rules import check_r4, r4_at  # noqa: F401


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
    i, order = c.number_of(p), c.support.order
    row = c.support.around[i]
    occupied = [(port, order[row[d]]) for port, d in enumerate(pm.dirs) if row[d] >= 0]

    conflicts = 0
    for port, n in occupied:
        if reg[port] is OUT and c.link_toward(n, p) is OUT:
            reg[port] = IN
            conflicts += 1

    undirected = [
        port for port, n in occupied if reg[port] is IN and c.link_toward(n, p) is IN
    ]
    for port in undirected:
        reg[port] = OUT

    # Line 2 marks every outgoing edge undirected; ports toward empty
    # cells hold In already, so the register becomes all In.
    trial = tuple(reg)
    line2 = not _r234_with(c, i, trial)
    after = ALL_IN if line2 else trial
    return after, ActivationEffect(after != before, bool(undirected), line2, conflicts)


def _r234_with(c: Configuration, i: int, reg: Registers) -> bool:
    """R2, R3 and R4 at cell number ``i`` with its register hypothetically
    ``reg``, which is Out toward occupied cells only: its Out ports are the
    outgoing ones ``check_r2`` and ``check_r3`` count."""
    out = sum(1 << port for port in range(N_DIRS) if reg[port] is OUT)
    return out.bit_count() <= 3 and CYCLIC_RUN[out] and r4_at(c, i, reg)


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
