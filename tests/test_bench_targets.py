"""The benchmark tracer (bench/tracer.py) wraps library functions by name
and silently skips a private name that no longer exists, so its metrics
would read 0; every name it lists must still resolve in the library."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    """Import bench/tracer.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_tracer_target_resolves() -> None:
    tracer = load_tracer()
    assert tracer.TARGETS
    unresolved = []
    for module, attr, key in tracer.TARGETS:
        importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(sys.modules[module], cls_name, object))
        else:
            found = bool(tracer.find_bindings(module, attr))
        if not found:
            unresolved.append(f"{module}.{attr} ({key})")
    assert not unresolved, unresolved


def test_tracer_apply_phase_sees_every_step() -> None:
    """Each engine step applies its record through `engine.apply_moves`, so
    the tracer's apply-moves phase times real work on every step."""
    importlib.import_module("fairdetach.cli")  # the tracer wraps every target module
    from fairdetach.engine import detach_all
    from fairdetach.multigraph import AmalgamationSpec, ColoredMultigraph

    cg = ColoredMultigraph(1, [0])
    cg.layer(1).add_loops(0, 5)
    tracer = load_tracer()
    with tracer.Tracer() as t:
        detach_all(cg, AmalgamationSpec({0: 5}))
    assert t.calls("engine.apply_moves") == t.calls("engine.step") == 4
    assert tracer.leftover_wrappers() == []
