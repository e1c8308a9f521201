"""Span tracer that wraps fairdetach functions where callers bind them.

The library binds names at import time (`from .bee import bee_coloring`), so
replacing a function in its defining module is not enough: every module
attribute that holds the same function object is replaced, and every one is
put back by `restore`.  Methods are wrapped on their class.  No library
source is touched.

Each wrapped call opens a span.  A span's key is fixed by the function and,
for the engine phases, by the enclosing span: the first `bee_coloring` call
of an engine step is the fan coloring, the second the pick coloring.  Per key
the tracer keeps the call count, the inclusive time (outermost span of that
key only, so nested copies are not counted twice) and the self time (span
time minus its child spans).  Self times of all keys sum to the traced time,
so wall time minus that sum is the part no layer accounts for.

Private helpers (names starting with "_") may disappear when the library is
restructured; a missing one is skipped and its metrics read 0.  A missing
public name is an error.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Tuple

# (module, attribute or Class.method, span key)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("fairdetach.engine", "detach_all", "engine.detach"),
    ("fairdetach.engine", "_step", "engine.step"),
    ("fairdetach.engine", "build_split_bipartite", "engine.fan_build"),
    ("fairdetach.engine", "condition3_colors", "engine.cond3"),
    ("fairdetach.engine", "_component_map", "engine.component_map"),
    ("fairdetach.engine", "refine", "engine.refine"),
    ("fairdetach.engine", "apply_moves", "engine.apply_moves"),
    ("fairdetach.bee", "bee_coloring", "bee.coloring"),
    ("fairdetach.bee", "_peel_class", "bee.peel"),
    ("fairdetach.flows", "feasible_circulation", "flows.circulation"),
    ("fairdetach.multigraph", "ColoredMultigraph.underlying", "multigraph.underlying"),
    ("fairdetach.multigraph", "ColoredMultigraph.copy", "multigraph.copy"),
    ("fairdetach.multigraph", "Multigraph.copy", "multigraph.copy"),
    ("fairdetach.evencolor", "evenly_equitable_coloring", "evencolor.coloring"),
    ("fairdetach.hamilton", "ham_decompose_lambda_kn", "hamilton.generate"),
    ("fairdetach.hamilton", "ham_decompose_gdd", "hamilton.generate"),
    ("fairdetach.hamilton", "_extract_cycle", "hamilton.extract"),
    ("fairdetach.hamilton", "_relabel", "hamilton.relabel"),
    ("fairdetach.verify", "verify_ham_decomposition", "verify.check"),
    ("fairdetach.verify", "verify_detachment", "verify.check"),
    ("fairdetach.document", "dumps", "document.dumps"),
    ("fairdetach.document", "loads", "document.loads"),
    ("fairdetach.document", "graph_to_doc", "document.convert"),
    ("fairdetach.document", "doc_to_graph", "document.convert"),
    ("fairdetach.document", "decomposition_to_doc", "document.convert"),
    ("fairdetach.document", "doc_to_decomposition", "document.convert"),
    ("fairdetach.cli", "main", "cli.main"),
)

# engine helpers count as step phases only when an engine step calls them
_STEP_PHASES = {
    "engine.fan_build",
    "engine.cond3",
    "engine.component_map",
    "engine.refine",
    "engine.apply_moves",
}
_BEE_PHASES = ("engine.fan_color", "engine.pick_color")

ENGINE_KEYS = (
    "engine.detach",
    "engine.step",
    "engine.other",
    *sorted(_STEP_PHASES),
)
BEE_COLORING_KEYS = (*_BEE_PHASES, "bee.coloring")
BEE_KEYS = (*BEE_COLORING_KEYS, "bee.peel")
HAMILTON_KEYS = (
    "hamilton.generate",
    "hamilton.cross",
    "hamilton.extract",
    "hamilton.relabel",
)

WRAPPED_MARK = "__bench_wrapped__"


def _library_modules() -> List[Any]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "fairdetach" or name.startswith("fairdetach."))
    ]


def find_bindings(module: str, attr: str) -> List[Tuple[Any, str, Any]]:
    """Every (owner, name, function) through which callers reach the target."""
    owner: Any = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    if attr.startswith("_") and not hasattr(owner, attr):
        return []
    fn = getattr(owner, attr)
    return [
        (m, name, fn)
        for m in _library_modules()
        for name, value in sorted(vars(m).items())
        if value is fn
    ]


def binding_name(owner: Any, name: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{name}"
    return f"{owner.__name__}.{name}"


def leftover_wrappers() -> List[str]:
    """Names of library bindings that still hold a tracer wrapper."""
    out = []
    for m in _library_modules():
        for name, value in vars(m).items():
            if getattr(value, WRAPPED_MARK, False):
                out.append(binding_name(m, name))
            if isinstance(value, type) and value.__module__ == m.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPED_MARK, False):
                        out.append(binding_name(value, meth))
    return out


class Tracer:
    """Per-key call counts and times, plus the workload counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # key -> [calls, incl_s, self_s]
        self.counters: Dict[str, int] = {
            "bee.classes_peeled": 0,
            "bee.classes_kept": 0,
            "flows.arcs": 0,
            "flows.nodes": 0,
            "flows.infeasible": 0,
            "document.bytes_out": 0,
            "cli.nonzero_exits": 0,
        }
        self.patched: List[Tuple[Any, str, Any]] = []
        self._stack: List[List[Any]] = []  # [key, start, child_s, bee_calls]
        self._active: Dict[str, int] = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        try:
            for module, attr, key in TARGETS:
                for owner, name, fn in find_bindings(module, attr):
                    self.patched.append((owner, name, fn))
                    setattr(owner, name, self._wrap(fn, key))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self.patched:
            owner, name, fn = self.patched.pop()
            setattr(owner, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _key(self, base: str) -> str:
        parent = self._stack[-1] if self._stack else None
        pkey = parent[0] if parent else None
        if base in _STEP_PHASES:
            return base if pkey == "engine.step" else "engine.other"
        if base == "bee.coloring" and pkey == "engine.step":
            idx = parent[3]
            parent[3] += 1
            return _BEE_PHASES[idx] if idx < len(_BEE_PHASES) else base
        if base == "hamilton.generate" and pkey == "hamilton.generate":
            return "hamilton.cross"
        return base

    def _wrap(self, fn: Callable[..., Any], base: str) -> Callable[..., Any]:
        stack = self._stack
        active = self._active
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = self._key(base)
            frame = [key, 0.0, 0.0, 0]
            stack.append(frame)
            active[key] = active.get(key, 0) + 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                active[key] -= 1
                row = stats.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                if not active[key]:
                    row[1] += dur
                row[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            self._count(key, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count(self, key: str, args: Tuple[Any, ...], result: Any) -> None:
        c = self.counters
        if key == "engine.fan_color":
            c["bee.classes_kept"] += 2  # the step keeps classes 1 and 2
        elif key == "bee.peel":
            if self._stack and self._stack[-1][0] == "engine.fan_color":
                c["bee.classes_peeled"] += 1
        elif key == "flows.circulation":
            c["flows.nodes"] += args[0]
            c["flows.arcs"] += len(args[1])
            c["flows.infeasible"] += result is None
        elif key == "document.dumps":
            c["document.bytes_out"] += len(result.encode("utf-8"))
        elif key == "cli.main" and result != 0:
            c["cli.nonzero_exits"] += 1

    # -- summaries -----------------------------------------------------------

    def calls(self, *keys: str) -> int:
        return int(sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys))

    def incl(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def self_time(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer values of one traced pass whose wall time was wall_s."""
        c = self.counters
        peeled = c["bee.classes_peeled"]
        return {
            "engine.steps": self.calls("engine.step"),
            "engine.fan_build_s": self.incl("engine.fan_build"),
            "engine.fan_color_s": self.incl("engine.fan_color"),
            "engine.cond3_s": self.incl("engine.cond3"),
            "engine.component_map_s": self.incl("engine.component_map"),
            "engine.refine_s": self.incl("engine.refine"),
            "engine.pick_color_s": self.incl("engine.pick_color"),
            "engine.apply_moves_s": self.incl("engine.apply_moves"),
            "engine.self_s": self.self_time(*ENGINE_KEYS),
            "bee.calls": self.calls(*BEE_COLORING_KEYS),
            "bee.classes_peeled": peeled,
            "bee.classes_kept": c["bee.classes_kept"],
            "bee.class_use_ratio": c["bee.classes_kept"] / peeled if peeled else 0.0,
            "bee.self_s": self.self_time(*BEE_KEYS),
            "flows.calls": self.calls("flows.circulation"),
            "flows.arcs": c["flows.arcs"],
            "flows.nodes": c["flows.nodes"],
            "flows.infeasible": c["flows.infeasible"],
            "flows.s": self.incl("flows.circulation"),
            "multigraph.underlying_calls": self.calls("multigraph.underlying"),
            "multigraph.underlying_s": self.incl("multigraph.underlying"),
            "multigraph.copy_calls": self.calls("multigraph.copy"),
            "multigraph.copy_s": self.incl("multigraph.copy"),
            "evencolor.calls": self.calls("evencolor.coloring"),
            "evencolor.s": self.incl("evencolor.coloring"),
            "hamilton.cross_s": self.incl("hamilton.cross"),
            "hamilton.extract_s": self.incl("hamilton.extract"),
            "hamilton.relabel_s": self.incl("hamilton.relabel"),
            "hamilton.self_s": self.self_time(*HAMILTON_KEYS),
            "verify.calls": self.calls("verify.check"),
            "verify.s": self.incl("verify.check"),
            "document.dumps_s": self.incl("document.dumps"),
            "document.loads_s": self.incl("document.loads"),
            "document.convert_s": self.incl("document.convert"),
            "document.bytes_out": c["document.bytes_out"],
            "cli.calls": self.calls("cli.main"),
            "cli.self_s": self.self_time("cli.main"),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "unattributed_s": wall_s - self.self_time(*self.stats),
        }
