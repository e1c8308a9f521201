#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances.

Run from the repository root:

    python3 bench/selftest.py

Checks that every named metric is printed with its unit, that the traced
run puts back every library binding it wrapped, that traced and untraced
passes produce the same digest, and that failing instances, and passes
whose digest differs from the recorded one, are counted in `failed` and
`fail_frac` rather than raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import unittest
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def run_cli(*argv: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--seconds", "0.3", "--tiny", *argv])
    if rc != 0:
        raise AssertionError(f"run.main exited {rc}")
    return out.getvalue().splitlines()


def measure(instances: list, traced: bool, recorded: Optional[str] = None) -> run.Measurement:
    """One pass of each kind over inputs set up once, without re-importing."""
    return run.measure(lambda: (instances, 0.0), 0.0, traced, recorded)


class BenchSelfTest(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = run.WORK / f"selftest-{os.getpid()}"

    def tearDown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()

    def instances(self, name: str) -> list:
        shutil.rmtree(self.workdir, ignore_errors=True)
        instances, docs = workloads.setup(name, 7, self.workdir, tiny=True)
        workloads.write_documents(docs)
        return instances

    def test_every_metric_printed_with_unit(self) -> None:
        wanted = {0: run.END_TO_END, 1: run.PER_LAYER}
        for name in workloads.NAMES:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    lines = run_cli("--workload", name, "--trace", str(trace))
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), list(wanted[trace]))
                    for metric, unit in wanted[trace].items():
                        self.assertEqual(metrics[metric]["unit"], unit)
                        self.assertIsInstance(metrics[metric]["value"], (int, float))
                        pattern = rf"^  {re.escape(metric)} = \S+ {re.escape(unit)}$"
                        self.assertTrue(
                            any(re.match(pattern, line) for line in lines),
                            f"{metric} not printed with unit {unit}",
                        )
                    self.assertEqual(len(json.loads(lines[-2])["setup_runs_s"]), run.SETUPS)
                    if trace == 0:
                        self.assertGreater(metrics["wall_s"]["value"], 0)
                        self.assertGreater(metrics["setup_s"]["value"], 0)

    def test_layer_table_and_workloads_match_benchmark_json(self) -> None:
        moves = json.loads((run.BENCH_DIR / "layers.json").read_text(encoding="utf-8"))
        self.assertEqual(list(moves["moves"]), list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in run.SPEC["workloads"]], list(workloads.NAMES))

    def test_traced_run_restores_every_binding(self) -> None:
        instances = self.instances("gdd_mix")
        before = [
            binding
            for module, attr, _ in tracer.TARGETS
            for binding in tracer.find_bindings(module, attr)
        ]
        names = {tracer.binding_name(owner, name) for owner, name, _ in before}
        # names bound by `from .x import y` are wrapped where the caller reads them
        for site in (
            "fairdetach.engine.bee_coloring",
            "fairdetach.bee.feasible_circulation",
            "fairdetach.evencolor.feasible_circulation",
            "fairdetach.hamilton.detach_all",
            "fairdetach.cli.detach_all",
            "fairdetach.multigraph.ColoredMultigraph.copy",
        ):
            self.assertIn(site, names)
        self.assertEqual(tracer.find_bindings("fairdetach.bee", "_gone_helper"), [])
        with tracer.Tracer():
            self.assertEqual(set(tracer.leftover_wrappers()), names)
        m = measure(instances, True)
        self.assertEqual(m.failed, 0)
        self.assertEqual(len(set(m.pass_digests)), 1, "traced digest differs")
        layers = m.per_layer()
        self.assertGreater(layers["engine.fan_color_s"], 0)
        self.assertGreater(layers["flows.calls"], 0)
        # one fan and one pick coloring per engine step
        self.assertEqual(layers["bee.calls"], 2 * layers["engine.steps"])
        self.assertGreater(layers["bee.classes_peeled"], layers["bee.classes_kept"] / 2)
        self.assertGreater(layers["hamilton.cross_s"], 0)
        self.assertEqual(tracer.leftover_wrappers(), [])
        for owner, name, fn in before:
            self.assertIs(getattr(owner, name), fn, tracer.binding_name(owner, name))

    def test_bindings_restored_when_an_instance_raises(self) -> None:
        instances = self.instances("kn_ladder")
        hamilton = sys.modules["fairdetach.hamilton"]
        real = hamilton.ham_decompose_lambda_kn

        def broken(n: int, lam: int) -> None:
            raise RuntimeError("forced")

        hamilton.ham_decompose_lambda_kn = broken
        try:
            m = measure(instances, True)
        finally:
            hamilton.ham_decompose_lambda_kn = real
        self.assertEqual(m.failed, m.attempted)
        self.assertTrue(all("RuntimeError: forced" in e for e in m.errors))
        self.assertEqual(tracer.leftover_wrappers(), [])

    def test_forced_verification_failure_is_counted(self) -> None:
        instances = self.instances("kn_ladder")
        verify = sys.modules["fairdetach.verify"]
        real = verify.verify_ham_decomposition
        verify.verify_ham_decomposition = lambda host, cycles: (False, "forced")
        try:
            m = measure(instances, False)
        finally:
            verify.verify_ham_decomposition = real
        self.assertEqual(m.attempted, len(instances))
        self.assertEqual(m.failed, m.attempted)
        self.assertEqual(m.fail_frac, 1.0)

    def test_digest_differing_from_recorded_is_counted(self) -> None:
        instances = self.instances("kn_ladder")
        good = measure(instances, False).pass_digests[0]
        m = measure(instances, True, good)
        self.assertEqual(m.failed, 0)
        m = measure(instances, True, "0" * 64)
        self.assertEqual(m.attempted, 2 * len(instances))  # one untraced, one traced pass
        self.assertEqual(m.failed, m.attempted)
        self.assertEqual(m.fail_frac, 1.0)
        self.assertTrue(all("differs from the recorded" in e for e in m.errors))

    def test_forced_cli_failure_is_counted(self) -> None:
        instances = self.instances("detach_docs")
        cli = sys.modules["fairdetach.cli"]
        real = cli.verify_detachment

        class Failing:
            ok = False

            def lines(self) -> list:
                return ["forced: FAIL"]

        cli.verify_detachment = lambda *args: Failing()
        try:
            m = measure(instances, True)
        finally:
            cli.verify_detachment = real
        self.assertEqual(m.failed, m.attempted)
        self.assertEqual(m.per_layer()["cli.nonzero_exits"], len(instances))


if __name__ == "__main__":
    unittest.main()
