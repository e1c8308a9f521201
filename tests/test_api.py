"""The package's public names, its import cost and its record types."""

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
    DetachmentMap,
    DetachmentReport,
    DetachmentTrace,
    EulerCircuit,
    Feasibility,
    GddParams,
    HamDecomposition,
    Multigraph,
    MoveSet,
    StepRecord,
)


def test_every_public_name_resolves() -> None:
    missing = [name for name in fairdetach.__all__ if not hasattr(fairdetach, name)]
    assert missing == []


def test_cli_import_loads_neither_dataclasses_nor_inspect() -> None:
    """Every CLI process imports the library first, and each of these two
    modules costs milliseconds a process never uses."""
    src = str(Path(fairdetach.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import fairdetach.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
    (DetachmentMap, {"psi": {0: 0, 1: 0}, "fibers": {0: [0, 1]}},
     {"psi": {0: 0, 1: 0}, "fibers": {0: [1, 0]}}, True, False),
    (GddParams, {"sizes": (2, 3), "lambda1": 1, "lambda2": 2},
     {"sizes": (2, 3), "lambda1": 1, "lambda2": 3}, True, True),
    (Feasibility, {"feasible": False, "k": None, "condition": "G2", "reason": "odd"},
     {"feasible": False, "k": None, "condition": "G3", "reason": "odd"}, True, True),
    (HamDecomposition, {"host": Multigraph([0, 1]), "cycles": ((0, 1),)},
     {"host": Multigraph([0, 1]), "cycles": ((1, 0),)}, True, False),
    (EulerCircuit, {"steps": ((0, 0), (0, 0))}, {"steps": ((0, 0),)}, True, True),
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
    assert DetachmentMap({0: 0}) == DetachmentMap({0: 0}, {})
    assert Feasibility(True) == Feasibility(True, None, None, None)
    assert GddParams((3, 2), 1, 2) == GddParams((2, 3), 1, 2)
