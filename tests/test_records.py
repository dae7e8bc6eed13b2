"""Value semantics of the records: the reports, the scheduler kinds,
``ExecutionResult``, ``ActivationEffect``, ``View``, ``RuleReport``, the
boundary classes and the witnesses are named tuples, so importing trielect
builds no dataclass methods."""

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import trielect
from trielect.algorithm import ActivationEffect
from trielect.config import all_in_configuration
from trielect.generators import erosion_orientation, hexagon, triangle3
from trielect.lattice import Cell
from trielect.oracle import (
    CycleReport,
    ReachabilityReport,
    SilenceReport,
    UnfairCycle,
    UniqueSinkReport,
)
from trielect.rules import rule_report
from trielect.scheduler import ExecutionResult, Outcome, RandomSequential, RoundRobin, Scripted, run
from trielect.support import (
    BoundaryClass,
    BoundaryKind,
    FlatPairWitness,
    PendingWitness,
    SixtyWitness,
)
from trielect.views import build_view

A, B, C = Cell(0, 0), Cell(1, 0), Cell(0, 1)


def _records():
    """Per record type: a record, an equal one built apart, and one that differs."""
    tri, hex1 = triangle3(), hexagon(1)
    all_in, eroded = all_in_configuration(tri), erosion_orientation(tri)

    def cycle_report(period):
        return CycleReport(period, frozenset({(A, B)}), frozenset({(A, C)}), (A, B), (), ("x",))

    return [
        (UniqueSinkReport(tri, 8, 1, ()), UniqueSinkReport(triangle3(), 8, 1, ()),
         UniqueSinkReport(tri, 8, 1, ("bad",))),
        (SilenceReport(tri, 64, ()), SilenceReport(triangle3(), 64, ()), SilenceReport(hex1, 64, ())),
        (ReachabilityReport(tri, 64, ()), ReachabilityReport(triangle3(), 64, ()),
         ReachabilityReport(tri, 63, ())),
        (cycle_report(2), cycle_report(2), cycle_report(3)),
        (UnfairCycle(hex1, (5, 9), (A, B)), UnfairCycle(hexagon(1), (5, 9), (A, B)),
         UnfairCycle(hex1, (5, 9), (B, A))),
        (rule_report(all_in), rule_report(all_in_configuration(tri)), rule_report(eroded)),
        (ActivationEffect(True, False, True, 2), ActivationEffect(True, False, True, 2),
         ActivationEffect(True, False, True, 1)),
        (build_view(all_in, A), build_view(all_in_configuration(tri), A), build_view(all_in, B)),
        (BoundaryClass(BoundaryKind.ANGLE, 60), BoundaryClass(BoundaryKind.ANGLE, 60),
         BoundaryClass(BoundaryKind.ANGLE, 120)),
        (PendingWitness(A), PendingWitness(Cell(0, 0)), PendingWitness(B)),
        (SixtyWitness(A), SixtyWitness(Cell(0, 0)), SixtyWitness(B)),
        (FlatPairWitness(A, B, (C,)), FlatPairWitness(A, B, (C,)), FlatPairWitness(A, B, ())),
        (RandomSequential(3), RandomSequential(3), RandomSequential(4)),
        (RoundRobin(), RoundRobin(), Scripted((A,))),
        (Scripted((A, B)), Scripted((A, B)), Scripted((B, A))),
        (run(all_in, RoundRobin()), run(all_in_configuration(tri), RoundRobin()),
         run(all_in, RoundRobin(), max_steps=1)),
    ]


RECORDS = _records()


def test_every_record_type_is_covered():
    assert [type(r).__name__ for r, _, _ in RECORDS] == [
        "UniqueSinkReport", "SilenceReport", "ReachabilityReport", "CycleReport",
        "UnfairCycle", "RuleReport", "ActivationEffect", "View", "BoundaryClass",
        "PendingWitness", "SixtyWitness", "FlatPairWitness", "RandomSequential",
        "RoundRobin", "Scripted", "ExecutionResult",
    ]


@pytest.mark.parametrize("record, twin, other", RECORDS, ids=lambda r: type(r).__name__)
def test_repr_and_equality(record, twin, other):
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"
    assert record == twin and not record != twin
    assert record != other and not record == other


def test_repr_strings():
    assert repr(RandomSequential(3)) == "RandomSequential(seed=3)"
    assert repr(RoundRobin()) == "RoundRobin()"
    assert repr(Scripted((A,))) == "Scripted(cells=(Cell(q=0, r=0),))"
    assert repr(ActivationEffect(True, False, True, 2)) == (
        "ActivationEffect(changed=True, line1_fired=False, line2_fired=True, conflicts_resolved=2)"
    )
    assert repr(PendingWitness(A)) == "PendingWitness(cell=Cell(q=0, r=0))"
    assert str(BoundaryClass(BoundaryKind.ANGLE, 240)) == "angle(240)"
    assert str(BoundaryClass(BoundaryKind.PENDING)) == "pending"


@pytest.mark.parametrize("record, twin, other", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_set(record, twin, other):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


@pytest.mark.parametrize("record, twin, other", RECORDS, ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record, twin, other):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_scheduler_kinds_check_their_field():
    for seed in (None, 1.5):
        with pytest.raises(TypeError, match="seed must be an int"):
            RandomSequential(seed)
    with pytest.raises(ValueError, match="at least one cell"):
        Scripted(())
    assert bool(RoundRobin()) is True


def test_no_trielect_class_is_a_dataclass():
    found = []
    for info in pkgutil.iter_modules(trielect.__path__):
        module = importlib.import_module(f"trielect.{info.name}")
        found += [
            f"{module.__name__}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__.startswith("trielect")
            and dataclasses.is_dataclass(obj)
        ]
    assert found == [], (
        f"dataclasses {found}: this test keeps dataclass builds, and the import of "
        "dataclasses with inspect, out of import time. Each @dataclass generates and "
        "compiles its methods when its module is imported; make a new record a "
        "typing.NamedTuple instead, or a plain class with __slots__ as lattice.PortMap is"
    )
