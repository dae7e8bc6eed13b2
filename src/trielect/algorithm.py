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

Only the particle's own register is written.  The particle reads its own
register, its neighbours' registers and the port labels of its depth-3
view, each by cell number: ``register(j)`` and ``portmaps[j]``.
``step_register`` tests line 2 on the would-be register in place: R2 and
R3 off its Out ports, and R4 as the particle infers it from its view,
through ``views.local_r4_at``, never through the omniscient
``rules.check_r4``.  So it raises ``views.ChiralityInferenceError`` where
inference fails, which never happens for a valid port-map assignment, as
inference reads port maps only.  It builds no configuration;
``activation_step`` builds one only for a changed register, by copying
the masks, so a chained step costs about the same at any support size.
"""

from __future__ import annotations

from typing import NamedTuple

from .lattice import CYCLIC_RUN, Cell, N_DIRS
from .config import ALL_IN, Configuration, IN, OUT, Registers
from .views import local_r4_at

# ``check_r4`` stays importable here, where the benchmark's traced run wraps it.
from .rules import check_r4  # noqa: F401


class ActivationEffect(NamedTuple):
    changed: bool
    line1_fired: bool
    line2_fired: bool
    conflicts_resolved: int


def step_register(c: Configuration, p: Cell) -> tuple[Registers, ActivationEffect]:
    """New register of ``p`` after one activation, without building the config."""
    i, register, portmaps = c.number_of(p), c.register, c.portmaps
    before = register(i)
    reg = list(before)
    row = c.support.around[i]
    # Each occupied port with the neighbour's link back along its edge.
    occupied = [
        (port, register(j)[portmaps[j].ports[(d + 3) % N_DIRS]])
        for port, d in enumerate(portmaps[i].dirs)
        if (j := row[d]) >= 0
    ]

    conflicts = 0
    for port, back in occupied:
        if reg[port] is OUT and back is OUT:
            reg[port] = IN
            conflicts += 1

    undirected = [port for port, back in occupied if reg[port] is IN and back is IN]
    for port in undirected:
        reg[port] = OUT

    # Line 2 marks every outgoing edge undirected; ports toward empty
    # cells hold In already, so the register becomes all In.  The trial
    # register is Out toward occupied cells only: its Out ports are the
    # outgoing ones R2 and R3 count.
    trial = tuple(reg)
    out = sum(1 << port for port in range(N_DIRS) if trial[port] is OUT)
    line2 = not (out.bit_count() <= 3 and CYCLIC_RUN[out] and local_r4_at(c, i, trial))
    after = ALL_IN if line2 else trial
    return after, ActivationEffect(after != before, bool(undirected), line2, conflicts)


def activation_step(c: Configuration, p: Cell) -> tuple[Configuration, ActivationEffect]:
    """Apply one activation of ``p``; only ``p``'s register may change."""
    if p not in c.support:
        raise ValueError(f"{p} is not occupied")
    reg, effect = step_register(c, p)
    if not effect.changed:
        return c, effect
    return c.with_register(p, reg), effect


def is_activable(c: Configuration, p: Cell) -> bool:
    """True iff activating ``p`` would change its register."""
    _, effect = step_register(c, p)
    return effect.changed
