"""The four benchmark workloads and the layer boundaries the traced run wraps.

A workload is built from the seed once per set-up (``__init__`` plus
``warm_up``).  ``ops()`` yields the operations of one round, the
workload's fixed work; every round repeats the same inputs, so every
round must produce the same outputs.  An operation returns
``(items, item_s, output)``: the units of work it did (activations,
oracle states or grown cells), the seconds spent producing them (``None``
when that is the whole operation) and what ``check`` inspects.  ``check``
returns one message per failed output check and never raises.

Workloads reach trielect only through the module namespace ``T`` and look
every function up at call time, so the traced run's patches take effect.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from types import SimpleNamespace
from typing import Callable, Iterator

from tracing import Tracer

Op = Callable[[], tuple]


def config_digest(config) -> str:
    return hashlib.sha1(config.serialize().encode()).hexdigest()[:16]


def valid_single_sink(T: SimpleNamespace, config) -> bool:
    return T.rules.is_valid(config) and len(T.rules.sinks(config)) == 1


class FairRun:
    """``gen --shape/--random … --init random|all-in`` then ``run --scheduler random``."""

    name = "fair-run"

    def __init__(self, T: SimpleNamespace, seed: int, tiny: bool):
        self.T = T
        rng = random.Random(seed)
        G = T.generators
        if tiny:
            supports = [G.shape_by_name("hexagon2"), G.shape_by_name("parallelogram4x3"),
                        G.random_support(10, rng.randrange(2**31))]
        else:
            supports = [G.shape_by_name("hexagon18"), G.shape_by_name("parallelogram40x25"),
                        G.random_support(300, rng.randrange(2**31))]
        self.inputs = []
        for sup in supports:
            s = rng.randrange(2**31)
            portmaps = G.random_portmaps(sup, s)
            self.inputs.append((G.random_registers(sup, s + 1, 0.25, portmaps), rng.randrange(2**31)))
            self.inputs.append((T.config.all_in_configuration(sup), rng.randrange(2**31)))

    def warm_up(self) -> None:
        G = self.T.generators
        small = G.random_registers(G.hexagon(2), 1)
        self.T.scheduler.run(small, self.T.scheduler.RandomSequential(1))

    def ops(self) -> Iterator[Op]:
        S = self.T.scheduler
        for config, sched_seed in self.inputs:
            def op(config=config, sched_seed=sched_seed):
                result = S.run(config, S.RandomSequential(sched_seed))
                return result.steps, None, result
            yield op

    def check(self, result) -> list[str]:
        if not result.is_final:
            return [f"run hit the step cap after {result.steps} activations"]
        if not valid_single_sink(self.T, result.config):
            return ["final configuration is not valid with one sink"]
        return []

    def digest(self, result) -> str:
        return f"{result.steps}:{config_digest(result.config)}"


class CheckedRuns:
    """The acceptance gate's traffic: small random runs with every check on."""

    name = "checked-runs"

    def __init__(self, T: SimpleNamespace, seed: int, tiny: bool):
        self.T = T
        rng = random.Random(seed)
        # Every size in 5..top equally often: the seed picks shapes, registers
        # and schedules, not the size mix, which dominates the run time.
        per_size, top = (2, 9) if tiny else (10, 25)
        self.trials = [(n, rng.randrange(2**31)) for _ in range(per_size) for n in range(5, top + 1)]

    def warm_up(self) -> None:
        self._trial(8, 1)

    def ops(self) -> Iterator[Op]:
        for n, s in self.trials:
            yield lambda n=n, s=s: self._trial(n, s)

    def _trial(self, n: int, s: int) -> tuple:
        T = self.T
        G, S = T.generators, T.scheduler
        sup = G.random_support(n, s)
        config = G.random_registers(sup, s + 1, 0.1, G.random_portmaps(sup, s + 2))
        result = S.run(config, S.RandomSequential(s + 3), check_invariants=True,
                       trace_file=io.StringIO())
        final = result.config
        mismatches = sum(
            T.views.local_check_r4(final, p) != T.rules.check_r4(final, p) for p in final.support
        )
        return result.steps, None, (result, mismatches)

    def check(self, output) -> list[str]:
        result, mismatches = output
        failures = []
        if not result.is_final:
            failures.append(f"run hit the step cap after {result.steps} activations")
        if mismatches:
            failures.append(f"local R4 differs from omniscient R4 at {mismatches} particles")
        return failures

    def digest(self, output) -> str:
        result, mismatches = output
        return f"{result.steps}:{mismatches}:{config_digest(result.config)}"


# Number of simply connected supports of n cells, up to translation.
SUPPORTS = {3: 11, 4: 44, 5: 186, 6: 813}


class Sweep:
    """``enum`` and ``search-unfair`` with ``--jobs 1``: the packed-state oracle."""

    name = "sweep"

    def __init__(self, T: SimpleNamespace, seed: int, tiny: bool):
        self.T = T
        self.seed = seed
        self.n_reach, self.n_sink = (3, 4) if tiny else (5, 6)
        self.cycle_support = T.generators.hexagon(1)

    def warm_up(self) -> None:
        O = self.T.oracle
        for s in self.T.generators.enumerate_supports(3):
            O.check_silence(s)
            O.check_reachability(s)
            O.check_unique_sink(s)

    def ops(self) -> Iterator[Op]:
        # The seed fixes only the order the supports are checked in; the
        # checks are order-independent, so every seed does the same work.
        O, G = self.T.oracle, self.T.generators
        order = random.Random(self.seed)
        enumerated: dict[int, list] = {}

        def enumerate_op(n: int) -> tuple:
            enumerated[n] = G.enumerate_supports(n)
            return 0, None, ("enumerate", n, enumerated[n])

        def states_op(check: str, support) -> tuple:
            t0 = time.perf_counter()
            report = getattr(O, check)(support)
            dt = time.perf_counter() - t0
            count = report.orientations if check == "check_unique_sink" else report.states
            return count, dt, (check, support, report)

        # Each enumeration runs before the generator resumes to read its result.
        yield lambda: enumerate_op(self.n_reach)
        supports = order.sample(enumerated[self.n_reach], len(enumerated[self.n_reach]))
        for check in ("check_silence", "check_reachability"):
            for s in supports:
                yield lambda check=check, s=s: states_op(check, s)
        yield lambda: enumerate_op(self.n_sink)
        for s in order.sample(enumerated[self.n_sink], len(enumerated[self.n_sink])):
            yield lambda s=s: states_op("check_unique_sink", s)
        yield lambda: (0, None, ("cycle", self.cycle_support, O.find_unfair_cycle(self.cycle_support)))

    def check(self, output) -> list[str]:
        kind, subject, report = output
        if kind == "enumerate":
            expected = SUPPORTS[subject]
            return [] if len(report) == expected else [
                f"enumerate_supports({subject}) gave {len(report)} supports, expected {expected}"]
        if kind == "cycle":
            return self._check_cycle(subject, report)
        failures = []
        if not report.ok:
            failures.append(f"{kind} found a counterexample on {sorted(subject.cells)}")
        # Only check_silence counts the states it visits; the other two
        # reports state their totals from the edge count.
        edges = len(subject.edges())
        if kind == "check_silence" and report.states != 4**edges:
            failures.append(f"check_silence visited {report.states} states on {edges} edges, "
                            f"expected {4**edges}")
        if kind == "check_unique_sink" and report.valid < 1:
            failures.append(f"check_unique_sink found no valid orientation on {sorted(subject.cells)}")
        return failures

    def _check_cycle(self, support, cycle) -> list[str]:
        """The loop holds no valid state and replays bit-exactly through ``Scripted``."""
        if cycle is None:
            return [f"no unfair cycle found on {len(support)} cells"]
        T = self.T
        graph = T.oracle.ConfigGraph(support)
        failures = []
        if any(graph.is_valid(s) for s in cycle.states):
            failures.append("the unfair cycle passes through a valid state")
        start = cycle.initial_config()
        config = start
        for i, cell in enumerate(cycle.script):
            config, effect = T.algorithm.activation_step(config, cell)
            expected = cycle.states[(i + 1) % cycle.period]
            if not effect.changed or graph.pack(config) != expected:
                failures.append(f"replay step {i} leaves the recorded cycle")
                break
        S = T.scheduler
        replay = S.run(start, S.Scripted(cycle.script), max_steps=3 * cycle.period)
        if replay.is_final or replay.config != start:
            failures.append("Scripted replay of three periods does not return to the start")
        return failures

    def digest(self, output) -> str:
        kind, subject, report = output
        if kind == "enumerate":
            return f"{subject}:{len(report)}"
        if kind == "cycle":
            return "none" if report is None else f"{report.period}:{report.states[0]}"
        if kind == "check_unique_sink":
            return f"{kind}:{report.ok}:{report.valid}"
        return f"{kind}:{report.ok}"


class Grow:
    """``gen --random N --init erosion`` on several seeds."""

    name = "grow"

    def __init__(self, T: SimpleNamespace, seed: int, tiny: bool):
        self.T = T
        rng = random.Random(seed)
        count, self.n = (2, 20) if tiny else (16, 150)
        self.seeds = [rng.randrange(2**31) for _ in range(count)]

    def warm_up(self) -> None:
        G = self.T.generators
        G.erosion_orientation(G.random_support(20, 1))

    def ops(self) -> Iterator[Op]:
        G = self.T.generators
        for s in self.seeds:
            def op(s=s):
                t0 = time.perf_counter()
                support = G.random_support(self.n, s)
                grown = time.perf_counter() - t0
                return len(support), grown, (support, G.erosion_orientation(support))
            yield op

    def check(self, output) -> list[str]:
        support, config = output
        failures = []
        if len(support) != self.n or not support.is_simply_connected():
            failures.append(f"grown support of {len(support)} cells is not a simply connected {self.n}")
        if not valid_single_sink(self.T, config):
            failures.append("erosion orientation is not valid with one sink")
        return failures

    def digest(self, output) -> str:
        return config_digest(output[1])


WORKLOADS = {w.name: w for w in (FairRun, CheckedRuns, Sweep, Grow)}


def instrument(tracer: Tracer, T: SimpleNamespace) -> None:
    """Wrap each layer boundary where the layer above looks the callee up."""

    def changed_register(result, args):
        if result[1].changed:
            tracer.count("algorithm.step_register.changed")

    def effect(result, args):
        e = result[1]
        tracer.count("algorithm.activation_step.line1_fired", int(e.line1_fired))
        tracer.count("algorithm.activation_step.line2_fired", int(e.line2_fired))
        tracer.count("algorithm.activation_step.conflicts_resolved", e.conflicts_resolved)

    def changed_state(result, args):
        if result != args[1]:
            tracer.count("oracle.ConfigGraph.successor.changed")

    def activations(result, args):
        tracer.count("scheduler.activations", result.steps)

    def cells(result, args):
        tracer.count("generators.random_support.cells", len(result))

    def states(result, args):
        tracer.count("oracle.states", result.states)

    def orientations(result, args):
        tracer.count("oracle.states", result.orientations)

    patches = [
        (T.scheduler, "run", "scheduler.run", activations),
        (T.scheduler, "activation_step", "algorithm.activation_step", effect),
        (T.scheduler, "step_register", "algorithm.step_register", changed_register),
        (T.scheduler, "violation_count", "scheduler.violation_count", None),
        (T.algorithm, "step_register", "algorithm.step_register", changed_register),
        (T.algorithm, "check_r4", "rules.check_r4", None),
        (T.config.Configuration, "with_register", "config.with_register", None),
        (T.views, "local_check_r4", "views.local_check_r4", None),
        (T.views, "build_view", "views.build_view", None),
        (T.generators, "random_support", "generators.random_support", cells),
        (T.generators, "random_registers", "generators.random_registers", None),
        (T.generators, "erosion_orientation", "generators.erosion_orientation", None),
        (T.generators, "enumerate_supports", "generators.enumerate_supports", None),
        (T.support.Support, "__init__", "support.Support.init", None),
        (T.support.Support, "is_simply_connected", "support.is_simply_connected", None),
        (T.oracle.ConfigGraph, "__init__", "oracle.ConfigGraph.init", None),
        (T.oracle.ConfigGraph, "successor", "oracle.ConfigGraph.successor", changed_state),
        (T.oracle, "check_silence", "oracle.check_silence", states),
        (T.oracle, "check_reachability", "oracle.check_reachability", states),
        (T.oracle, "check_unique_sink", "oracle.check_unique_sink", orientations),
        (T.oracle, "find_unfair_cycle", "oracle.find_unfair_cycle", None),
    ]
    for owner, attr, name, observe in patches:
        tracer.add(owner, attr, name, observe)
