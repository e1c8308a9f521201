"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time

import pytest

from fairdetach import document
from fairdetach.bee import bee_coloring, is_balanced, is_equalized, is_equitable
from fairdetach.engine import detach_all
from fairdetach.errors import InfeasibleError
from fairdetach.evencolor import evenly_equitable_coloring, is_evenly_equitable
from fairdetach.fuzzgen import (
    random_bipartite,
    random_detach_instance,
    random_even_multigraph,
)
from fairdetach.hamilton import (
    GddParams,
    gdd_feasible,
    ham_decompose_gdd,
    ham_decompose_lambda_kn,
)
from fairdetach.verify import is_gdd, verify_detachment, verify_ham_decomposition
from helpers import (
    brute_force_ham_decomposable,
    coloring_violations,
    mixed_edge_count,
    pure_edge_counts,
)

DETACH_SEEDS = range(1000, 1500)
POSITIVE_GDD = [
    ((2, 2), 0, 1, 1),
    ((3, 3, 3), 1, 2, 7),
    ((2, 2, 2), 2, 1, 3),
    ((3, 3), 1, 2, 4),  # k = (1*(3-1) + 2*3*(2-1)) / 2
]


def _criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def _run_detach_suite():
    docs = []
    failures = []
    for seed in DETACH_SEEDS:
        rng = random.Random(seed)
        cg, eta = random_detach_instance(rng)
        g, psi, _ = detach_all(cg, eta)
        report = verify_detachment(cg, eta, psi, g)
        if not report.ok:
            failures.append((seed, report.first_failure()))
        docs.append(document.dumps(document.graph_to_doc(g, psi=psi)))
    return docs, failures


def test_criterion_1_detachment_property_suite() -> None:
    start = time.perf_counter()
    _, failures = _run_detach_suite()
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        f"{len(DETACH_SEEDS)} random detachments satisfy all fairness conditions",
        not failures and elapsed < 60.0,
        f"failures={failures[:3]}, {elapsed:.1f}s",
    )


def _run_lambda_kn_suite():
    docs = []
    problems = []
    for n in range(2, 10):
        for lam in range(1, 4):
            if (lam * (n - 1)) % 2 == 0:
                dec = ham_decompose_lambda_kn(n, lam)
                ok, witness = verify_ham_decomposition(dec.host, list(dec.cycles))
                if dec.cycle_count != lam * (n - 1) // 2 or not ok:
                    problems.append((n, lam, witness))
                docs.append(document.dumps(document.decomposition_to_doc(dec)))
            else:
                try:
                    ham_decompose_lambda_kn(n, lam)
                    problems.append((n, lam, "missed infeasibility"))
                except InfeasibleError:
                    pass
    return docs, problems


def test_criterion_2_lambda_complete_graphs() -> None:
    start = time.perf_counter()
    _, problems = _run_lambda_kn_suite()
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "lambda-fold complete graphs for n in 2..9, lambda in 1..3",
        not problems and elapsed < 30.0,
        f"problems={problems}, {elapsed:.1f}s",
    )


def _run_gdd_suite():
    docs = []
    problems = []
    times = []
    for sizes, l1, l2, want_k in POSITIVE_GDD:
        t0 = time.perf_counter()
        params = GddParams(sizes, l1, l2)
        dec = ham_decompose_gdd(params)
        ok, witness = verify_ham_decomposition(dec.host, list(dec.cycles))
        shape_ok = is_gdd(dec.host, params, params.part_blocks())
        if dec.cycle_count != want_k or not ok or not shape_ok:
            problems.append((sizes, l1, l2, dec.cycle_count, witness))
        times.append(time.perf_counter() - t0)
        docs.append(document.dumps(document.decomposition_to_doc(dec)))
    return docs, problems, times


def test_criterion_3_gdd_positive_instances() -> None:
    docs, problems, times = _run_gdd_suite()
    _criterion(
        3,
        "group divisible instances produce verified decompositions with exact counts",
        not problems and all(t < 10.0 for t in times),
        f"problems={problems}, max {max(times):.1f}s",
    )


def test_criterion_4_gdd_negative_instances() -> None:
    checks = []
    f = gdd_feasible(GddParams((2, 3), 1, 2))
    checks.append(not f.feasible and f.condition == "(i)")
    f = gdd_feasible(GddParams((2, 2), 3, 1))
    checks.append(not f.feasible and f.condition == "(ii)")
    f = gdd_feasible(GddParams((2, 2), 4, 1))
    checks.append(not f.feasible and f.condition == "(iii)")
    # ground truth for one small even-degree infeasible instance: two
    # disjoint triangles, 6 edges; exhaustive search finds no decomposition
    params = GddParams((3, 3), 1, 0)
    f = gdd_feasible(params)
    checks.append(not f.feasible and f.condition == "trivial (ii)")
    checks.append(not brute_force_ham_decomposable(params.build_graph()))
    _criterion(
        4,
        "infeasible instances are rejected with the right condition labels, "
        "one confirmed by exhaustive search",
        all(checks),
        f"checks={checks}",
    )


def test_criterion_5_coloring_contracts() -> None:
    start = time.perf_counter()
    bad = 0
    for seed in range(2000, 2500):
        rng = random.Random(seed)
        bg = random_bipartite(rng, max_side=8, max_mult=6)
        k = rng.randint(1, 5)
        c = bee_coloring(bg, k)
        if not (
            is_balanced(bg, c)
            and is_equitable(bg, c)
            and is_equalized(bg, c)
            and not coloring_violations(bg[2], c, k)
        ):
            bad += 1
    for seed in range(3000, 3200):
        rng = random.Random(seed)
        g = random_even_multigraph(rng)
        k = rng.randint(1, 5)
        cg = evenly_equitable_coloring(g, k)
        if not (is_evenly_equitable(cg) and cg.underlying() == g):
            bad += 1
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "500 balanced/equitable/equalized + 200 evenly-equitable colorings",
        bad == 0 and elapsed < 60.0,
        f"failures={bad}, {elapsed:.1f}s",
    )


def test_criterion_6_cycle_counting_bounds() -> None:
    ok = True
    detail = ""
    for sizes, l1, l2, _ in POSITIVE_GDD:
        params = GddParams(sizes, l1, l2)
        dec = ham_decompose_gdd(params)
        a = params.sizes[0]
        p = params.p
        blocks = params.part_blocks()
        for cyc in dec.cycles:
            if any(c > a - 1 for c in pure_edge_counts(cyc, blocks)):
                ok, detail = False, f"pure bound broken on {sizes}"
            if mixed_edge_count(cyc, blocks) < p:
                ok, detail = False, f"mixed bound broken on {sizes}"
    # equality case: l1 == l2*a*(p-1) forces exact pure/mixed counts
    params = GddParams((2, 2), 2, 1)
    dec = ham_decompose_gdd(params)
    blocks = params.part_blocks()
    for cyc in dec.cycles:
        if pure_edge_counts(cyc, blocks) != [1, 1] or mixed_edge_count(cyc, blocks) != 2:
            ok, detail = False, "equality case not exact"
    _criterion(
        6,
        "per-cycle pure/mixed edge bounds, with equality when the budget is tight",
        ok,
        detail,
    )


def test_criterion_7_determinism() -> None:
    docs1, _ = _run_detach_suite()
    docs2, _ = _run_detach_suite()
    kn1, _ = _run_lambda_kn_suite()
    kn2, _ = _run_lambda_kn_suite()
    gdd1, _, _ = _run_gdd_suite()
    gdd2, _, _ = _run_gdd_suite()
    _criterion(
        7,
        "repeated runs emit byte-identical documents",
        docs1 == docs2 and kn1 == kn2 and gdd1 == gdd2,
    )
