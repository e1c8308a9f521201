#!/usr/bin/env python3
"""Benchmark of the fairdetach library: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload kn_ladder --seed 1000 --seconds 30 --trace 0

The workload runs in this process, single-threaded, as a closed loop of one
instance at a time.  Whole passes over the workload's instances run until
`--seconds` is used up.  Set-up (library import plus input generation;
see `timed_setup`) runs SETUPS times and its median is reported; the
set-ups are spread over the run, one before each pass, because the host is
slower or faster for seconds at a time.

Times are reported in reference seconds.  A shared host runs the same code
up to twice as slow for seconds at a time, which no statistic over one run
can remove.  So a fixed piece of pure-Python work that does not touch the
library (`reference_seconds`) is timed before and after every stretch of
about PROBE_EVERY_S of instances, and before and after every set-up; each
measured time is multiplied by REFERENCE_S over the mean of the two
reference times around it.  On a quiet core of a 2-vCPU x86-64 VM the
reference work takes about REFERENCE_S, so reference seconds are close to
seconds there.  A library change moves them in proportion; code that slowed
the interpreter as a whole would be scaled away.  The record line keeps the
unscaled pass and set-up times.

Every output is
checked: an instance fails when its check is false, the CLI exits nonzero,
it raises, or its output digest differs from that instance's first run.
A pass whose workload digest differs from the one recorded in
bench/digests.json counts every instance of the pass as failed, so output
that changes between processes or commits is a failure too.

With `--trace 0` every pass runs untraced and the end-to-end metrics are
reported.  With `--trace 1` untraced and traced passes alternate, and the
per-layer metrics are reported: medians over the traced passes, plus the
tracing overhead against the untraced passes.  Metric names and units come
from BENCHMARK.json; bench/layers.json says which end-to-end metric each
per-layer metric should move.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it holds
the full record: environment, workload digest, failure share and both
metric sets.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median
REFERENCE_S = 0.01  # nominal time of reference_seconds()
PROBE_EVERY_S = 0.3  # instance time between two reference probes

SPEC: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RECORDED_DIGESTS: Dict[str, str] = json.loads(
    (BENCH_DIR / "digests.json").read_text(encoding="utf-8")
)


def digest_key(name: str, seed: int) -> str:
    return f"{name}@{seed}" if name in workloads.SEEDED else name


_REFERENCE_DATA = [
    {"u": i % 97, "v": i * 31 % 89, "c": [i * k % 9 for k in range(5)]} for i in range(400)
]


def reference_seconds() -> float:
    """Time a fixed piece of pure-Python work that does not touch the library.

    The garbage collector is off meanwhile, so the library's live objects
    cannot change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i % 7
        counts: Dict[Tuple[int, int], int] = {}
        for _ in range(3):
            for e in json.loads(json.dumps(_REFERENCE_DATA)):
                key = (e["u"], e["v"])
                counts[key] = counts.get(key, 0) + sum(e["c"])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two reference probes."""
    return (before + after) / (2 * REFERENCE_S)


# builds a workload's inputs; returns them and the seconds that took
SetUp = Callable[[], Tuple[Sequence[workloads.Instance], float]]


class Measurement:
    """Set-up times and the outcomes of every pass over one workload's instances."""

    def __init__(self, set_up: SetUp, recorded: Optional[str] = None) -> None:
        self._set_up = set_up
        self.recorded = recorded
        self.instances: List[workloads.Instance] = []
        self.setup_times: List[float] = []  # reference seconds
        self.raw_setup_times: List[float] = []
        self.times: List[List[float]] = []  # per instance, untraced passes, reference seconds
        self.reference: List[Optional[str]] = []
        self.walls: Dict[bool, List[float]] = {False: [], True: []}  # reference seconds
        self.raw_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.layer_runs: List[Dict[str, float]] = []
        self.pass_digests: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def set_up(self) -> None:
        """Rebuild the inputs; every set-up yields the same instances."""
        before = reference_seconds()
        instances, seconds = self._set_up()
        speed = slowdown(before, reference_seconds())
        if not self.instances:
            self.times = [[] for _ in instances]
            self.reference = [None] * len(instances)
        elif len(instances) != len(self.instances):
            raise RuntimeError("set-ups built different numbers of instances")
        self.instances = list(instances)
        self.setup_times.append(seconds / speed)
        self.raw_setup_times.append(seconds)

    def run_pass(self, traced: bool) -> None:
        whole = hashlib.sha256()
        failed_before = self.failed
        raw = wall = 0.0  # instance time of the pass, in seconds and reference seconds
        with tracer.Tracer() if traced else contextlib.nullcontext() as tr:
            before = reference_seconds()
            stretch: List[Tuple[int, float]] = []  # (instance, seconds) since `before`
            for idx, inst in enumerate(self.instances):
                stretch.append((idx, self._run_instance(idx, inst, whole)))
                if idx + 1 < len(self.instances) and sum(t for _, t in stretch) < PROBE_EVERY_S:
                    continue
                after = reference_seconds()
                speed = slowdown(before, after)
                for i, seconds in stretch:
                    raw += seconds
                    wall += seconds / speed
                    if not traced:
                        self.times[i].append(seconds / speed)
                before, stretch = after, []
        self.walls[traced].append(wall)
        self.raw_walls[traced].append(raw)
        digest = whole.hexdigest()
        self.pass_digests.append(digest)
        if self.recorded is not None and digest != self.recorded:
            kind = "traced" if traced else "untraced"
            self.errors.append(
                f"{kind} pass digest {digest} differs from the recorded {self.recorded}"
            )
            # every instance of the pass counts as failed, each at most once
            self.failed = failed_before + len(self.instances)
        if tr:
            # the tracer clocks seconds; scale its times like the pass's
            layers = tr.layer_metrics(raw)
            self.layer_runs.append(
                {k: v * wall / raw if k.endswith("_s") else v for k, v in layers.items()}
            )

    def _run_instance(self, idx: int, inst: workloads.Instance, whole: Any) -> float:
        """Run one instance, check its output and return the seconds it took."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok, out = inst.run()
            problem = None if ok else "output check failed"
        except Exception as exc:  # a failing instance is counted, never fatal
            ok, out = False, b""
            problem = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        whole.update(out)
        digest = hashlib.sha256(out).hexdigest()
        if ok:
            if self.reference[idx] is None:
                self.reference[idx] = digest
            elif digest != self.reference[idx]:
                ok, problem = False, "output differs from its first run"
        if not ok:
            self.failed += 1
            self.errors.append(f"{inst.label}: {problem}")
        return dt

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    def end_to_end(self) -> Dict[str, float]:
        medians = sorted(statistics.median(t) for t in self.times if t)
        return {
            # one pass as the sum of each instance's median, so a slow stretch
            # within a pass counts only for the instances it hit
            "wall_s": sum(medians),
            "instance_p50_s": statistics.median(medians),
            # Nearest rank: the slowest instance when there are at most 20.
            # The largest of 500 medians of a few noisy samples each would
            # follow the noise rather than the library.
            "instance_p95_s": medians[math.ceil(0.95 * len(medians)) - 1],
        }

    def per_layer(self) -> Dict[str, float]:
        out = {
            name: statistics.median(run[name] for run in self.layer_runs)
            for name in self.layer_runs[0]
        }
        out["trace_overhead_s"] = statistics.median(self.walls[True]) - statistics.median(
            self.walls[False]
        )
        return out


def forget_library() -> None:
    """Drop fairdetach from the module cache so the next import is timed in full."""
    for name in list(sys.modules):
        if name == "fairdetach" or name.startswith("fairdetach."):
            del sys.modules[name]


def timed_setup(
    name: str, seed: int, workdir: Path, tiny: bool
) -> Tuple[List[workloads.Instance], float]:
    """Import the library afresh and build the inputs; return them and the time taken.

    Writing the documents to disk is not timed: creating a file on a shared
    VM takes 0.04 ms or 1 ms for tens of seconds at a time, with the host's
    disk load, and no library change can alter that cost.
    """
    forget_library()
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    instances, docs = workloads.setup(name, seed, workdir, tiny)
    seconds = time.perf_counter() - t0
    workloads.write_documents(docs)
    return instances, seconds


def measure(
    set_up: SetUp, seconds: float, traced: bool, recorded: Optional[str] = None
) -> Measurement:
    """Whole passes until the next one would overrun `seconds`.

    Untraced only, or untraced and traced alternating; at least one of each.
    A set-up precedes each of the first SETUPS passes; any left over run
    after the last pass.  Every pass's workload digest is checked against
    `recorded`, if given.
    """
    m = Measurement(set_up, recorded)
    kinds = (False, True) if traced else (False,)
    start = time.perf_counter()
    last: Dict[bool, float] = {}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() - start + last[kind] > seconds:
            break
        if len(m.setup_times) < SETUPS:
            m.set_up()
        t0 = time.perf_counter()
        m.run_pass(kind)
        last[kind] = time.perf_counter() - t0
        i += 1
    while len(m.setup_times) < SETUPS:
        m.set_up()
    return m


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_benchmark(args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    recorded = None if args.tiny else RECORDED_DIGESTS.get(digest_key(args.workload, args.seed))
    m = measure(
        lambda: timed_setup(args.workload, args.seed, workdir, args.tiny),
        args.seconds,
        bool(args.trace),
        recorded,
    )
    lib_file = Path(sys.modules["fairdetach"].__file__ or "").resolve()
    if SRC.resolve() not in lib_file.parents:
        raise RuntimeError(f"fairdetach was imported from {lib_file}, not from the checkout")
    e2e = m.end_to_end()
    e2e["setup_s"] = statistics.median(m.setup_times)
    e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = m.pass_digests[0]
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": environment(),
        "instances": len(m.instances),
        "passes": {"untraced": len(m.walls[False]), "traced": len(m.walls[True])},
        "pass_walls_s": {"untraced": m.walls[False], "traced": m.walls[True]},
        "pass_walls_raw_s": {"untraced": m.raw_walls[False], "traced": m.raw_walls[True]},
        "setup_runs_s": m.setup_times,
        "setup_runs_raw_s": m.raw_setup_times,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_frac": m.fail_frac,
        "errors": m.errors[:20],
        "digest": digest,
        "recorded_digest": recorded,
        "end_to_end": with_units(e2e, END_TO_END),
    }
    if args.trace:
        record["per_layer"] = with_units(m.per_layer(), PER_LAYER)
    return record


def report(record: Dict[str, Any]) -> None:
    name = record["workload"]
    print(
        f"{name}: seed {record['seed']}, {record['instances']} instances, "
        f"passes {record['passes']['untraced']} untraced + {record['passes']['traced']} traced, "
        f"attempted {record['attempted']}, failed {record['failed']}, "
        f"fail_frac {record['fail_frac']:.4f}"
    )
    for error in record["errors"]:
        print(f"  FAIL {error}")
    recorded = record["recorded_digest"]
    if recorded is None:
        note = "no recorded digest"
    elif recorded == record["digest"]:
        note = "matches the recorded digest"
    else:
        note = f"DIFFERS from the recorded {recorded}"
    print(f"  digest sha256:{record['digest']} ({note})")
    section = "per_layer" if record["trace"] else "end_to_end"
    for metric, v in record[section].items():
        print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record[section],
            }
        )
    )


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1000, help="seed of the detach_docs batch")
    p.add_argument("--seconds", type=float, default=36.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fairdetach" / "__init__.py").is_file():
        print("error: the library source src/fairdetach is missing", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        record = run_benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
