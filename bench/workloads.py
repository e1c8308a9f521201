"""The benchmark workloads and their inputs.

`setup` imports the library and builds every input of one workload; its
time is the benchmark's set-up cost.  It returns a list of instances and
the documents they read, which `write_documents` puts on disk before the
instances run.  Each instance is one closed-loop request: it runs the library on its input,
checks the output, and returns whether the check passed together with the
canonical output bytes that go into the workload digest.

Instances call the library through module attributes looked up at call
time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

# (n, lambda) of ham_decompose_lambda_kn
KN_LADDER = ((21, 1), (41, 1), (61, 1), (31, 2))
# (parts p, part size a, lambda1, lambda2) of ham_decompose_gdd
GDD_MIX = ((5, 8, 2, 3), (7, 5, 2, 3), (6, 6, 2, 3))
# host documents in the CLI batch, seeds --seed .. --seed + DETACH_DOCS - 1
DETACH_DOCS = 500

# small stand-ins that run the same code paths in well under a second
TINY = {
    "kn_ladder": ((5, 1), (7, 1), (4, 2)),
    "gdd_mix": ((3, 2, 2, 1), (3, 3, 1, 2)),
    "detach_docs": 8,
}

NAMES = ("kn_ladder", "gdd_mix", "detach_docs")
# workloads whose inputs depend on --seed; the others are fixed lists
SEEDED = frozenset({"detach_docs"})

MODULES = (
    "cli",
    "document",
    "fuzzgen",
    "hamilton",
    "multigraph",
    "verify",
)


@dataclass(frozen=True)
class Instance:
    label: str
    run: Callable[[], Tuple[bool, bytes]]


def import_library() -> SimpleNamespace:
    return SimpleNamespace(
        **{m: importlib.import_module(f"fairdetach.{m}") for m in MODULES}
    )


Documents = Dict[Path, str]  # file path -> text


def setup(
    name: str, seed: int, workdir: Path, tiny: bool = False
) -> Tuple[List[Instance], Documents]:
    """Import the library and build the inputs of workload `name`: its
    instances and the documents under `workdir` that they read."""
    lib = import_library()
    if name == "kn_ladder":
        return [_kn_instance(lib, n, lam) for n, lam in (TINY[name] if tiny else KN_LADDER)], {}
    if name == "gdd_mix":
        return [_gdd_instance(lib, *p) for p in (TINY[name] if tiny else GDD_MIX)], {}
    if name == "detach_docs":
        return _detach_docs(lib, seed, TINY[name] if tiny else DETACH_DOCS, workdir)
    raise ValueError(f"unknown workload {name!r}")


def write_documents(docs: Documents) -> None:
    for path, text in docs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")


def _decomposition_instance(
    lib: SimpleNamespace,
    label: str,
    generate: Callable[[], object],
    want_host: object,
    want_cycles: int,
) -> Instance:
    """Generate, check against the exact host and the independent checker, serialize."""

    def run() -> Tuple[bool, bytes]:
        dec = generate()
        ok, _ = lib.verify.verify_ham_decomposition(dec.host, list(dec.cycles))
        ok = ok and dec.host == want_host and dec.cycle_count == want_cycles
        text = lib.document.dumps(lib.document.decomposition_to_doc(dec))
        return ok, text.encode("utf-8")

    return Instance(label, run)


def _kn_instance(lib: SimpleNamespace, n: int, lam: int) -> Instance:
    host = lib.multigraph.Multigraph(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            host.add_edges(u, v, lam)
    return _decomposition_instance(
        lib,
        f"K{n}x{lam}",
        lambda: lib.hamilton.ham_decompose_lambda_kn(n, lam),
        host,
        lam * (n - 1) // 2,
    )


def _gdd_instance(lib: SimpleNamespace, p: int, a: int, l1: int, l2: int) -> Instance:
    params = lib.hamilton.GddParams((a,) * p, l1, l2)
    degree = l1 * (a - 1) + l2 * a * (p - 1)
    return _decomposition_instance(
        lib,
        f"GDD{p}x{a}({l1},{l2})",
        lambda: lib.hamilton.ham_decompose_gdd(params),
        params.build_graph(),
        degree // 2,
    )


def _detach_docs(
    lib: SimpleNamespace, seed: int, count: int, workdir: Path
) -> Tuple[List[Instance], Documents]:
    """One host document per seed; the library only ever sees the files."""
    out, docs = [], {}
    for i in range(count):
        cg, eta = lib.fuzzgen.random_detach_instance(random.Random(seed + i))
        host = workdir / f"host{i:04d}.json"
        docs[host] = lib.document.dumps(lib.document.graph_to_doc(cg, eta=eta))
        out.append(_cli_instance(lib, f"seed{seed + i}", host, workdir / f"out{i:04d}.json"))
    return out, docs


def _cli_instance(lib: SimpleNamespace, label: str, host: Path, out: Path) -> Instance:
    """`fairdetach detach HOST -o OUT` then `fairdetach verify HOST OUT`, in-process."""

    def run() -> Tuple[bool, bytes]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = lib.cli.main(["detach", str(host), "-o", str(out)])
                if rc == 0:
                    rc = lib.cli.main(["verify", str(host), str(out)])
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc == 0, out.read_bytes() if rc == 0 else b""

    return Instance(label, run)
