"""The package's public names, its import cost, its record types and the
guards its public calls keep against bad input."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fairdetach
from fairdetach import (
    AmalgamationSpec,
    ColoredMultigraph,
    DetachmentMap,
    DetachmentReport,
    DetachmentTrace,
    Feasibility,
    GddParams,
    HamDecomposition,
    Multigraph,
    MoveSet,
    StepRecord,
    assert_step_relations,
    detach_step,
    evenly_equitable_coloring,
    verify_detachment,
)
from helpers import outcome


def test_every_public_name_resolves() -> None:
    missing = [name for name in fairdetach.__all__ if not hasattr(fairdetach, name)]
    assert missing == []


def test_cli_import_loads_neither_dataclasses_nor_inspect() -> None:
    """Every CLI process imports the library first, and each of these
    modules costs milliseconds a process never uses."""
    src = str(Path(fairdetach.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import fairdetach.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout == "[]\n"


# (record, its fields in constructor order, other values for the same fields,
# frozen, hashable); NamedTuple records also equal the tuple of their fields
MOVES = MoveSet({1: {2: 1}}, {1: 1})
RECORDS = [
    (MoveSet, {"edge_moves": {1: {2: 1}}, "loop_moves": {1: 1}},
     {"edge_moves": {}, "loop_moves": {1: 1}}, True, False),
    (StepRecord, {"y": 0, "v_new": 1, "eta_y_before": 2, "moves": MOVES},
     {"y": 0, "v_new": 1, "eta_y_before": 3, "moves": MOVES}, True, False),
    (DetachmentTrace, {"steps": [StepRecord(0, 1, 2, MOVES)]}, {"steps": []}, False, False),
    (AmalgamationSpec, {"eta": {0: 2, 1: 1}}, {"eta": {0: 3, 1: 1}}, True, False),
    (DetachmentMap, {"fibers": {0: [0, 1]}}, {"fibers": {0: [1, 0]}}, True, False),
    (GddParams, {"sizes": (2, 3), "lambda1": 1, "lambda2": 2},
     {"sizes": (2, 3), "lambda1": 1, "lambda2": 3}, True, True),
    (Feasibility, {"feasible": False, "k": None, "condition": "G2", "reason": "odd"},
     {"feasible": False, "k": None, "condition": "G3", "reason": "odd"}, True, True),
    (HamDecomposition, {"host": Multigraph([0, 1]), "cycles": ((0, 1),)},
     {"host": Multigraph([0, 1]), "cycles": ((1, 0),)}, True, False),
    (DetachmentReport, {"verdicts": {"A1": (True, None)}},
     {"verdicts": {"A1": (False, "w")}}, False, False),
]


@pytest.mark.parametrize(
    "record, fields, other, frozen, hashable", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_contract(record, fields, other, frozen, hashable) -> None:
    """Construction by position and by keyword, value equality, a repr that
    names the class, frozen fields, hashing, and copies that stay equal."""
    by_position = record(*copy.deepcopy(list(fields.values())))
    by_keyword = record(**copy.deepcopy(fields))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
    assert by_position != record(**other)
    assert repr(by_position).startswith(record.__name__ + "(")
    assert copy.copy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position
    name, value = next(iter(other.items()))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
    else:
        setattr(by_position, name, value)
        assert by_position == record(**{**fields, name: value})
    if hashable:
        assert hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    if isinstance(by_position, tuple):
        assert by_position == tuple(fields.values())


def test_record_defaults_are_fresh() -> None:
    assert DetachmentTrace() == DetachmentTrace([])
    assert DetachmentTrace().steps is not DetachmentTrace().steps
    assert DetachmentReport().verdicts is not DetachmentReport().verdicts
    assert Feasibility(True) == Feasibility(True, None, None, None)
    assert GddParams((3, 2), 1, 2) == GddParams((2, 3), 1, 2)


# (name, call, its outcome): guards on caller input that no other test
# reaches; `outcome` gives the exception's type and message
CM, ETA, PSI = ColoredMultigraph, AmalgamationSpec, DetachmentMap


def looped(vertices, n: int) -> ColoredMultigraph:
    """One color on the vertices, with n loops at each."""
    cg = CM(1, vertices)
    for v in vertices:
        cg.layer(1).add_loops(v, n)
    return cg


GUARDS = [
    ("add_vertex", lambda: Multigraph().add_vertex(-1),
     ("GraphError", "vertex ids must be nonnegative, got -1")),
    ("add_edges", lambda: Multigraph([0, 1]).add_edges(0, 1, -1),
     ("GraphError", "negative edge count -1")),
    ("add_loops", lambda: Multigraph([0]).add_loops(0, -1),
     ("GraphError", "negative loop count -1")),
    ("no colors", lambda: CM(0, [0]),
     ("GraphError", "color count must be positive, got 0")),
    ("rows_at", lambda: CM(1, [0]).rows_at(1),
     ("GraphError", "unknown vertex 1")),
    ("eta value", lambda: ETA({0: 2}).value(1),
     ("GraphError", "eta is undefined at vertex 1")),
    ("eta domain", lambda: ETA({0: 2}).validate_against(Multigraph([0, 1])),
     ("PreconditionError", "eta must be defined on exactly the graph's vertices")),
    ("fiber", lambda: PSI({0: [0]}).fiber(1),
     ("GraphError", "no fiber for host vertex 1")),
    ("fiber domain", lambda: PSI({0: [0]}).validate(ETA({0: 1, 1: 1})),
     ("GraphError", "fibers must cover exactly the host vertex set")),
    ("fiber overlap", lambda: PSI({0: [0, 0]}),
     ("GraphError", "vertex 0 is listed twice in the fiber of 0")),
    ("verify colors",
     lambda: verify_detachment(CM(1, [0]), ETA({0: 1}), PSI({0: [0]}), CM(2, [0])),
     ("GraphError", "color counts differ: 1 vs 2")),
    ("verify fibers",
     lambda: verify_detachment(CM(1, [0]), ETA({0: 2}), PSI({0: [0, 1]}), CM(1, [0, 2])),
     ("GraphError", "fibers do not partition the detached vertex set")),
    ("verify onto",
     lambda: verify_detachment(CM(1, [0]), ETA({1: 1}), PSI({1: [0]}), CM(1, [0])),
     ("GraphError", "psi is not onto the host vertex set")),
    ("step eta 1", lambda: assert_step_relations(CM(1, [0]), CM(1, [0, 1]), 0, 1, ETA({0: 1})),
     (False, "eta(0) was 1, below the step precondition")),
    ("step colors", lambda: assert_step_relations(CM(1, [0]), CM(2, [0, 1]), 0, 1, ETA({0: 2})),
     ("GraphError", "color counts differ: 1 vs 2")),
    ("evencolor", lambda: evenly_equitable_coloring(Multigraph([0]), 0),
     ("PreconditionError", "need at least one color, got 0")),
    ("step at y", lambda: detach_step(CM(1, [0]), ETA({0: 1}), 1),
     ("GraphError", "eta is undefined at vertex 1")),
    ("step eta", lambda: detach_step(CM(1, [0, 1]), ETA({0: 2}), 0),
     ("PreconditionError", "eta must be defined on exactly the graph's vertices")),
    ("step eta off the graph", lambda: detach_step(looped([0], 2), ETA({0: 2, 1: 3}), 0),
     ("PreconditionError", "eta must be defined on exactly the graph's vertices")),
    ("step loops kept", lambda: detach_step(looped([0, 1], 2), ETA({0: 2, 1: 1}), 0),
     ("PreconditionError", "vertex 1 keeps eta=1 but carries 2 loops")),
]


@pytest.mark.parametrize("call, want", [row[1:] for row in GUARDS], ids=[row[0] for row in GUARDS])
def test_library_guards_name_the_bad_input(call, want) -> None:
    assert outcome(call) == want
