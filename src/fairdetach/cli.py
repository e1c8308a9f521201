"""Command-line frontend: detach, ham, verify, fuzz, export.

Exit codes: 0 success, 1 verification failure, 2 precondition violation,
3 infeasible parameters, 4 malformed input.  Commands raise
InfeasibleError, PreconditionError, DocumentError or OSError and `main`
alone turns them into exit codes; `fuzz` reports an instance that raises
anything as a FAIL line naming its seed.  All outputs are deterministic for
identical inputs; --seed only drives the fuzz instance generator.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Callable, List, Optional

from . import document
from .engine import detach_all
from .errors import DocumentError, GraphError, InfeasibleError, PreconditionError
from .bee import bee_coloring, is_balanced, is_equalized, is_equitable
from .evencolor import evenly_equitable_coloring, is_evenly_equitable
from .fuzzgen import (
    random_bipartite,
    random_detach_instance,
    random_even_multigraph,
)
from .hamilton import GddParams, ham_decompose_gdd, ham_decompose_lambda_kn
from .verify import verify_detachment, verify_ham_decomposition

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_INFEASIBLE = 3
EXIT_MALFORMED = 4


def _read(path: str) -> str:
    try:
        if path == "-":  # bytes, as text stdin may pass bad bytes on as surrogates
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise DocumentError(f"{name} is not UTF-8 text: {exc}") from exc


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_detach(args: argparse.Namespace) -> int:
    cg, eta, _ = document.doc_to_graph(document.loads(_read(args.input)))
    if eta is None:
        raise DocumentError("document carries no eta map")
    g, psi, trace = detach_all(cg, eta)
    _write(args.output, document.dumps(document.graph_to_doc(g, psi=psi)))
    if args.trace:  # one JSON line per step; each dumps ends with a newline
        records = (
            {
                "step": i,
                "from": rec.y,
                "new": rec.v_new,
                "eta_before": rec.eta_y_before,
                "moved": rec.moves.moved_total(),
            }
            for i, rec in enumerate(trace.steps)
        )
        _write(args.trace, "".join(document.dumps(record) for record in records))
    return EXIT_OK


def cmd_ham(args: argparse.Namespace) -> int:
    gdd_flags = [args.parts, args.size, args.sizes, args.l1, args.l2]
    use_gdd = any(v is not None for v in gdd_flags)
    use_kn = args.n is not None or args.lam is not None
    if use_gdd == use_kn:
        raise PreconditionError("give either --n/--lambda or --parts/--size(s)/--l1/--l2")
    if use_kn:
        if args.n is None or args.lam is None:
            raise PreconditionError("--n and --lambda are both required")
        dec = ham_decompose_lambda_kn(args.n, args.lam)
    else:
        # --sizes gives the part count itself, so --parts is needed only
        # with --size
        required = [("--l1", args.l1), ("--l2", args.l2)]
        if args.sizes is None:
            required.insert(0, ("--parts", args.parts))
        missing = [flag for flag, value in required if value is None]
        if len(missing) == 1:
            raise PreconditionError(f"{missing[0]} is required")
        if missing:
            names = ", ".join(missing[:-1]) + " and " + missing[-1]
            raise PreconditionError(f"{names} are required")
        if (args.size is None) == (args.sizes is None):
            raise PreconditionError("give exactly one of --size or --sizes")
        if args.size is not None:
            sizes = [args.size] * args.parts
        else:
            try:
                sizes = [int(s) for s in args.sizes.split(",")]
            except ValueError:
                raise PreconditionError(f"bad --sizes {args.sizes!r}") from None
            if args.parts is not None and len(sizes) != args.parts:
                raise PreconditionError(
                    f"--sizes lists {len(sizes)} parts, --parts says {args.parts}"
                )
        dec = ham_decompose_gdd(GddParams(tuple(sizes), args.l1, args.l2))
    _write(args.output, document.dumps(document.decomposition_to_doc(dec)))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if len(args.documents) > 2:
        raise PreconditionError("verify takes one or two documents")
    first = document.loads(_read(args.documents[0]))
    if len(args.documents) == 1:
        if first.get("kind") != "decomposition":
            raise DocumentError("single-document verify expects a decomposition")
        dec = document.doc_to_decomposition(first)
        ok, witness = verify_ham_decomposition(dec.host, list(dec.cycles))
        if args.json:
            _write(None, document.dumps({"ok": ok, "witness": witness}))
        else:
            print(f"cycles: {'ok' if ok else 'FAIL'}" + (f"  [{witness}]" if witness else ""))
        return EXIT_OK if ok else EXIT_VERIFY
    second = document.loads(_read(args.documents[1]))
    h, eta, _ = document.doc_to_graph(first)
    g, _, psi = document.doc_to_graph(second)
    if eta is None:
        raise DocumentError("first document carries no eta map")
    if psi is None:
        raise DocumentError("second document carries no psi map")
    try:
        report = verify_detachment(h, eta, psi, g)
    except GraphError as exc:  # the two documents describe no one detachment
        raise DocumentError(str(exc)) from exc
    if args.json:
        verdicts = {n: {"ok": ok, "witness": w} for n, (ok, w) in report.verdicts.items()}
        _write(None, document.dumps({"ok": report.ok, "verdicts": verdicts}))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _fuzz_one(kind: str, seed: int) -> Optional[str]:
    """The failure line of one fuzz instance, or None; a crash is a failure."""
    try:
        failure = _fuzz_check(kind, random.Random(seed))
    except Exception as exc:
        failure = f"{kind}: {type(exc).__name__}: {exc}"
    return None if failure is None else f"seed {seed}: {failure}"


def _fuzz_check(kind: str, rng: random.Random) -> Optional[str]:
    if kind == "detach":
        cg, eta = random_detach_instance(rng)
        g, psi, _ = detach_all(cg, eta)
        report = verify_detachment(cg, eta, psi, g)
        if not report.ok:
            name, witness = report.first_failure() or ("?", None)
            return f"{name} failed: {witness}"
    elif kind == "bee":
        bg = random_bipartite(rng)
        k = rng.randint(1, 5)
        classes = bee_coloring(bg, k)
        if not (
            is_balanced(bg, classes)
            and is_equitable(bg, classes)
            and is_equalized(bg, classes)
            and [sum(col) for col in zip(*classes)] == [n for _, _, n in bg[2]]
        ):
            return "coloring contract violated"
    elif kind == "evencolor":
        g = random_even_multigraph(rng)
        k = rng.randint(1, 5)
        cg = evenly_equitable_coloring(g, k)
        if not (is_evenly_equitable(cg) and cg.underlying() == g):
            return "even coloring contract violated"
    else:
        raise ValueError(f"unknown fuzz kind {kind}")
    return None


def cmd_fuzz(args: argparse.Namespace) -> int:
    kinds = ["detach", "bee", "evencolor"] if args.kind == "all" else [args.kind]
    job_kinds = [kind for kind in kinds for _ in range(args.count)]
    job_seeds = [args.seed + i for _ in kinds for i in range(args.count)]
    # a pool starts every worker up front, so start no more than can be busy
    workers = min(args.jobs, len(job_seeds), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fuzz_one, job_kinds, job_seeds))
    else:
        results = list(map(_fuzz_one, job_kinds, job_seeds))
    failures = [res for res in results if res]
    for line in failures:
        print(f"FAIL {line}")
    print(f"ran {len(results)} instances, {len(failures)} failures")
    return EXIT_OK if not failures else EXIT_VERIFY


def cmd_export(args: argparse.Namespace) -> int:
    doc = document.loads(_read(args.input))
    # render the parsed document, so export accepts what verify accepts
    if doc["kind"] == "graph":
        doc = document.graph_to_doc(*document.doc_to_graph(doc))
    else:
        doc = document.decomposition_to_doc(document.doc_to_decomposition(doc))
    _write(args.output, document.to_dot(doc))
    return EXIT_OK


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= low, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _detach_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="graph document with an eta map ('-' for stdin)")
    p.add_argument("-o", "--output", default="-", help="detached graph document")
    p.add_argument("--trace", help="write step trace (JSON lines) to this path")


def _ham_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="complete graph order")
    p.add_argument("--lambda", dest="lam", type=int, help="edge multiplicity")
    p.add_argument("--parts", type=int, help="number of parts (implied by --sizes)")
    p.add_argument("--size", type=int, help="uniform part size")
    p.add_argument("--sizes", help="comma-separated part sizes")
    p.add_argument("--l1", type=int, help="intra-part multiplicity")
    p.add_argument("--l2", type=int, help="inter-part multiplicity")
    p.add_argument("-o", "--output", default="-", help="decomposition document")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "documents",
        nargs="+",
        help="either HOST_DOC DETACHED_DOC or one decomposition document",
    )
    p.add_argument(
        "--json", action="store_true", help="print one JSON report instead of text lines"
    )


def _fuzz_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=_int_at_least(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument(
        "--kind",
        choices=["detach", "bee", "evencolor", "all"],
        default="detach",
    )


def _export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="document path ('-' for stdin)")
    p.add_argument("-o", "--output", default="-", help="DOT output path")


# name -> (help, add_args, handler); the one definition of every command
COMMANDS = {
    "detach": ("detach a colored multigraph per its eta map", _detach_args, cmd_detach),
    "ham": ("generate a Hamiltonian decomposition", _ham_args, cmd_ham),
    "verify": ("verify a detachment pair or a decomposition", _verify_args, cmd_verify),
    "fuzz": ("run random instances through generator+verifier", _fuzz_args, cmd_fuzz),
    "export": ("render a document as DOT", _export_args, cmd_export),
}


def build_parser() -> argparse.ArgumentParser:
    """The full tree: a top-level parser with one sub-parser per command."""
    parser = argparse.ArgumentParser(
        prog="fairdetach",
        description="Fair detachments of edge-colored multigraphs and "
        "Hamiltonian decomposition generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse argv with a parser for the named command alone.

    argparse formats help on every add_argument, so building all five
    sub-parsers costs more than a small command's work.  The full tree is
    built only where its texts differ from one command's parser: no
    command named, and leftover arguments, which it reports at the top
    level.  Both paths print the same texts and give the same namespace.
    """
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        _, add_args, handler = COMMANDS[name]
        parser = argparse.ArgumentParser(prog=f"fairdetach {name}")
        add_args(parser)
        parser.set_defaults(func=handler, command=name)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; the documented exceptions become exit codes here only."""
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: condition {exc.condition}: {exc.message}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
