from __future__ import annotations

import io
import json
import random
import subprocess
import sys

import pytest

from fairdetach import document
from fairdetach.engine import detach_all
from fairdetach.errors import DocumentError
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.multigraph import AmalgamationSpec, ColoredMultigraph
from fairdetach.verify import CONDITION_ORDER


def run_cli(*args, stdin: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "fairdetach", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def write_three_loop_doc(path) -> None:
    doc = {
        "version": "v1",
        "kind": "graph",
        "k": 1,
        "vertices": [0],
        "edges": [],
        "loops": [[0, 1, 3]],
        "eta": [[0, 3]],
    }
    path.write_text(json.dumps(doc))


def test_detach_three_loops_gives_triangle(tmp_path) -> None:
    src = tmp_path / "h.json"
    write_three_loop_doc(src)
    out = tmp_path / "g.json"
    res = run_cli("detach", str(src), "-o", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert doc["vertices"] == [0, 1, 2]
    assert doc["loops"] == []
    assert len(doc["edges"]) == 3
    assert doc["psi"] == [[0, [0, 1, 2]]]


def test_detach_eta_guard_exits_two_and_names_vertex(tmp_path) -> None:
    src = tmp_path / "h.json"
    doc = {
        "version": "v1",
        "kind": "graph",
        "k": 1,
        "vertices": [0, 1],
        "edges": [],
        "loops": [[1, 1, 2]],
        "eta": [[0, 2], [1, 1]],
    }
    src.write_text(json.dumps(doc))
    res = run_cli("detach", str(src))
    assert res.returncode == 2
    assert "vertex 1" in res.stderr


def test_detach_missing_eta_is_malformed(tmp_path) -> None:
    src = tmp_path / "h.json"
    doc = {
        "version": "v1",
        "kind": "graph",
        "k": 1,
        "vertices": [0],
        "edges": [],
        "loops": [],
    }
    src.write_text(json.dumps(doc))
    res = run_cli("detach", str(src))
    assert res.returncode == 4


def _detach_malformed(tmp_path, **fields):
    doc = {
        "version": "v1",
        "kind": "graph",
        "k": 1,
        "vertices": [0, 1],
        "edges": [],
        "loops": [[0, 1, 2]],
        "eta": [[0, 2], [1, 1]],
    }
    doc.update(fields)
    src = tmp_path / "h.json"
    src.write_text(json.dumps(doc))
    return run_cli("detach", str(src))


def test_detach_list_endpoint_is_malformed(tmp_path) -> None:
    res = _detach_malformed(tmp_path, edges=[[0, [1], 1, 1]])
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


def test_detach_vertex_in_two_fibers_is_malformed(tmp_path) -> None:
    res = _detach_malformed(tmp_path, psi=[[0, [0, 1]], [1, [1]]])
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


def test_detach_boolean_eta_is_malformed(tmp_path) -> None:
    res = _detach_malformed(tmp_path, eta=[[0, True], [1, 1]])
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


def test_detach_non_list_edges_is_malformed(tmp_path) -> None:
    res = _detach_malformed(tmp_path, edges=5)
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


def test_detach_output_passes_verify(tmp_path) -> None:
    src = tmp_path / "h.json"
    write_three_loop_doc(src)
    out = tmp_path / "g.json"
    trace = tmp_path / "trace.jsonl"
    res = run_cli("detach", str(src), "-o", str(out), "--trace", str(trace))
    assert res.returncode == 0
    assert len(trace.read_text().splitlines()) == 2
    res = run_cli("verify", str(src), str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    assert "A7: ok" in res.stdout


def test_verify_flags_tampering(tmp_path) -> None:
    src = tmp_path / "h.json"
    write_three_loop_doc(src)
    out = tmp_path / "g.json"
    run_cli("detach", str(src), "-o", str(out))
    doc = json.loads(out.read_text())
    doc["edges"][0][3] = 2  # double one edge
    bad = tmp_path / "bad.json"
    bad.write_text(document.dumps(doc))
    res = run_cli("verify", str(src), str(bad))
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_ham_complete_graph() -> None:
    res = run_cli("ham", "--n", "5", "--lambda", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["cycles"]) == 2


def test_ham_gdd_seven_cycles() -> None:
    res = run_cli("ham", "--parts", "3", "--size", "3", "--l1", "1", "--l2", "2")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["cycles"]) == 7


def test_ham_infeasible_names_condition() -> None:
    res = run_cli("ham", "--parts", "2", "--sizes", "2,3", "--l1", "1", "--l2", "2")
    assert res.returncode == 3
    assert "condition (i)" in res.stderr


def test_ham_sizes_imply_part_count(capsys) -> None:
    from fairdetach.cli import main

    expected = run_cli("ham", "--parts", "3", "--sizes", "3,3,3", "--l1", "1", "--l2", "2")
    assert expected.returncode == 0
    res = run_cli("ham", "--sizes", "3,3,3", "--l1", "1", "--l2", "2")
    assert res.returncode == 0
    assert res.stdout == expected.stdout
    cases = [
        (["--parts", "2", "--sizes", "3,3,3", "--l1", "1", "--l2", "2"],
         "error: --sizes lists 3 parts, --parts says 2"),
        (["--sizes", "3,3,3", "--l2", "2"], "error: --l1 is required"),
        (["--sizes", "3,3,3"], "error: --l1 and --l2 are required"),
        (["--size", "3", "--l1", "1", "--l2", "2"], "error: --parts is required"),
        (["--size", "3"], "error: --parts, --l1 and --l2 are required"),
        (["--parts", "3", "--l1", "1", "--l2", "2"],
         "error: give exactly one of --size or --sizes"),
        (["--sizes", "3,x", "--l1", "1", "--l2", "2"], "error: bad --sizes '3,x'"),
        (["--n", "5", "--l1", "1"], "error: give either --n/--lambda or"),
        (["--n", "5"], "error: --n and --lambda are both required"),
    ]
    for argv, message in cases:
        assert main(["ham", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith(message), argv


def test_ham_parity_infeasible() -> None:
    res = run_cli("ham", "--n", "4", "--lambda", "1")
    assert res.returncode == 3
    res = run_cli("ham", "--parts", "2", "--size", "2", "--l1", "3", "--l2", "1")
    assert res.returncode == 3
    assert "condition (ii)" in res.stderr


def test_ham_cross_budget_infeasible() -> None:
    res = run_cli("ham", "--parts", "2", "--size", "2", "--l1", "4", "--l2", "1")
    assert res.returncode == 3
    assert "condition (iii)" in res.stderr


def test_ham_output_verifies() -> None:
    res = run_cli("ham", "--parts", "3", "--size", "2", "--l1", "2", "--l2", "1")
    assert res.returncode == 0
    res2 = run_cli("verify", "-", stdin=res.stdout)
    assert res2.returncode == 0
    assert "cycles: ok" in res2.stdout


def test_verify_rejects_malformed(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("verify", str(bad)).returncode == 4
    bad.write_text(json.dumps({"version": "v0", "kind": "graph"}))
    assert run_cli("verify", str(bad)).returncode == 4


def test_verify_non_list_host_edges_is_malformed(tmp_path) -> None:
    bad = tmp_path / "dec.json"
    host = {"vertices": [0, 1], "edges": 5}
    bad.write_text(
        json.dumps({"version": "v1", "kind": "decomposition", "host": host, "cycles": []})
    )
    res = run_cli("verify", str(bad))
    assert res.returncode == 4
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "argv",
    [["detach", "{bad}"], ["verify", "{bad}"], ["verify", "{host}", "{bad}"],
     ["export", "{bad}"]],
)
@pytest.mark.parametrize("stdin", [False, True])
def test_non_utf8_input_is_malformed(argv, stdin, tmp_path, monkeypatch, capsys) -> None:
    from fairdetach.cli import main

    host = tmp_path / "h.json"
    write_three_loop_doc(host)
    raw = b'{"version": "v1", "kind": "graph\xff"}'
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    if stdin:  # a text stdin that, like Python's own, lets undecodable bytes through
        wrapper = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", wrapper)
    name = "stdin" if stdin else str(bad)
    argv = [arg.format(host=host, bad="-" if stdin else bad) for arg in argv]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} is not UTF-8 text: 'utf-8' codec can't")
    assert captured.out == ""


def test_deeply_nested_json_is_malformed(tmp_path, capsys) -> None:
    from fairdetach.cli import main

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for command in ("detach", "verify", "export"):
        assert main([command, str(deep)]) == 4
        assert capsys.readouterr().err == "error: not valid JSON: nesting too deep\n"
    with pytest.raises(DocumentError, match="nesting too deep"):
        document.loads('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")


def test_integer_past_the_digit_limit_is_malformed(tmp_path) -> None:
    bad = tmp_path / "big.json"
    bad.write_text('{"version": "v1", "kind": "graph", "k": ' + "9" * 5000 + "}")
    res = run_cli("detach", str(bad))
    assert res.returncode == 4
    assert res.stderr.startswith("error: not valid JSON: Exceeds the limit")


def _verify_json(*paths):
    res = run_cli("verify", "--json", *map(str, paths))
    assert res.stderr == ""
    assert res.stdout == document.dumps(json.loads(res.stdout))  # canonical
    return res.returncode, json.loads(res.stdout)


def test_verify_json_reports_every_verdict(tmp_path) -> None:
    src = tmp_path / "h.json"
    write_three_loop_doc(src)
    out = tmp_path / "g.json"
    assert run_cli("detach", str(src), "-o", str(out)).returncode == 0
    code, report = _verify_json(src, out)
    assert code == 0
    passed = {"ok": True, "witness": None}
    assert report == {"ok": True, "verdicts": {name: passed for name in CONDITION_ORDER}}

    doc = json.loads(out.read_text())
    doc["edges"][0][3] = 2  # double one edge, as in test_verify_flags_tampering
    bad = tmp_path / "bad.json"
    bad.write_text(document.dumps(doc))
    code, report = _verify_json(src, bad)
    assert code == 1
    assert report["ok"] is False
    failed = {name: v["witness"] for name, v in report["verdicts"].items() if not v["ok"]}
    assert failed == {
        "conservation": "color 1: 3 edges became 4",
        "A1": "d(0)=3 not within d(0)/eta = 6/3",
        "A2": "color 1: d(0)=3 not within 6/3",
        "A3": "m(0,1)=2 not within 3/3",
        "A4": "color 1: m(0,1)=2 not within 3/3",
    }
    verdicts = [(name, report["verdicts"][name]) for name in CONDITION_ORDER]
    assert run_cli("verify", str(src), str(bad)).stdout.splitlines() == [
        f"{name}: ok" if v["ok"] else f"{name}: FAIL  [{v['witness']}]" for name, v in verdicts
    ]


def test_verify_json_on_a_decomposition(tmp_path) -> None:
    dec = tmp_path / "dec.json"
    assert run_cli("ham", "--n", "5", "--lambda", "1", "-o", str(dec)).returncode == 0
    assert _verify_json(dec) == (0, {"ok": True, "witness": None})
    doc = json.loads(dec.read_text())
    doc["cycles"] = doc["cycles"][1:]
    dec.write_text(json.dumps(doc))
    code, report = _verify_json(dec)
    assert code == 1
    assert report["ok"] is False
    assert report["witness"].endswith("cycles use 0, host has 1")


def test_fuzz_command() -> None:
    res = run_cli("fuzz", "--count", "5", "--seed", "3", "--kind", "all")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "15 instances, 0 failures" in res.stdout


def test_fuzz_worker_pool_prints_what_the_serial_run_prints() -> None:
    args = ("fuzz", "--count", "4", "--kind", "all")
    serial = run_cli(*args, "--jobs", "1")
    pooled = run_cli(*args, "--jobs", "2")
    assert serial.returncode == pooled.returncode == 0, pooled.stderr
    assert pooled.stdout == serial.stdout
    assert "ran 12 instances" in pooled.stdout


def test_fuzz_reports_a_crash_and_keeps_running(monkeypatch, capsys) -> None:
    from fairdetach import cli

    calls = []

    def crash_on_second(cg, eta):
        calls.append(cg)
        if len(calls) == 2:
            raise RuntimeError("planted fault")
        return detach_all(cg, eta)

    monkeypatch.setattr(cli, "detach_all", crash_on_second)
    code = cli.main(["fuzz", "--count", "3", "--kind", "detach", "--seed", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert captured.out == (
        "FAIL seed 6: detach: RuntimeError: planted fault\n"
        "ran 3 instances, 1 failures\n"
    )
    assert "Traceback" not in captured.err
    assert len(calls) == 3


@pytest.mark.parametrize(
    "args, message",
    [
        (("--count", "-1"), "must be at least 0"),
        (("--jobs", "0"), "must be at least 1"),
        (("--count", "x"), "invalid integer"),
    ],
)
def test_fuzz_rejects_bad_counts(args, message) -> None:
    res = run_cli("fuzz", *args)
    assert res.returncode == 2
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert "instances" not in res.stdout


def test_fuzz_zero_count_runs_nothing() -> None:
    res = run_cli("fuzz", "--count", "0")
    assert res.returncode == 0, res.stderr
    assert "ran 0 instances, 0 failures" in res.stdout


def test_export_dot(tmp_path) -> None:
    """Each edge or loop record is drawn once, its multiplicity above 1 in its label."""
    src = tmp_path / "h.json"
    doc = {"version": "v1", "kind": "graph", "k": 2, "vertices": [0, 1],
           "edges": [[0, 1, 1, 3], [0, 1, 2, 1]], "loops": [[0, 2, 2]]}
    src.write_text(json.dumps(doc))
    res = run_cli("export", str(src))
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("graph G {")
    assert [line for line in res.stdout.splitlines() if " -- " in line] == [
        '  0 -- 1 [label="c1 x3", colorindex=1];',
        '  0 -- 1 [label="c2", colorindex=2];',
        '  0 -- 0 [label="c2 x2", colorindex=2];',
    ]


def test_export_non_list_cycles_is_malformed(tmp_path) -> None:
    bad = tmp_path / "dec.json"
    host = {"vertices": [0, 1], "edges": []}
    bad.write_text(
        json.dumps({"version": "v1", "kind": "decomposition", "host": host, "cycles": 5})
    )
    res = run_cli("export", str(bad))
    assert res.returncode == 4
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


def test_export_list_endpoint_is_malformed(tmp_path) -> None:
    bad = tmp_path / "h.json"
    doc = {"version": "v1", "kind": "graph", "k": 1, "vertices": [0, 1],
           "edges": [[0, [1], 1, 1]], "loops": []}
    bad.write_text(json.dumps(doc))
    res = run_cli("export", str(bad))
    assert res.returncode == 4
    assert res.stderr.startswith("error:")
    assert res.stdout == ""


def test_export_decomposition_draws_each_cycle(tmp_path) -> None:
    dec = tmp_path / "dec.json"
    assert run_cli("ham", "--n", "5", "--lambda", "1", "-o", str(dec)).returncode == 0
    res = run_cli("export", str(dec))
    assert res.returncode == 0, res.stderr
    assert res.stdout.count(" -- ") == 10  # K_5 has 10 edges
    assert 'label="c2"' in res.stdout


def test_cli_outputs_are_byte_identical_across_runs(tmp_path) -> None:
    a = run_cli("ham", "--parts", "3", "--size", "3", "--l1", "1", "--l2", "2")
    b = run_cli("ham", "--parts", "3", "--size", "3", "--l1", "1", "--l2", "2")
    assert a.stdout == b.stdout
    src = tmp_path / "h.json"
    write_three_loop_doc(src)
    r1 = run_cli("detach", str(src))
    r2 = run_cli("detach", str(src))
    assert r1.stdout == r2.stdout


def test_document_round_trip() -> None:
    cg = ColoredMultigraph(2, range(3))
    cg.layer(1).add_edges(0, 1, 2)
    cg.layer(2).add_loops(2, 1)
    eta = AmalgamationSpec({0: 1, 1: 2, 2: 2})
    doc = document.graph_to_doc(cg, eta=eta)
    assert document.loads(document.dumps(doc)) == doc
    back, eta2, _ = document.doc_to_graph(doc)
    assert back == cg
    assert eta2 is not None and eta2.eta == eta.eta
    assert document.graph_to_doc(back, eta=eta2) == doc


def test_decomposition_round_trip() -> None:
    """A decomposition document reads back as the host and cycles written,
    also when the host carries a loop of multiplicity 1."""
    from fairdetach.hamilton import HamDecomposition, walecki_odd

    dec = walecki_odd(5)
    looped = dec.host.copy()
    looped.add_loops(0, 1)
    for want in (dec, HamDecomposition(looped, dec.cycles)):
        doc = document.decomposition_to_doc(want)
        assert document.loads(document.dumps(doc)) == doc
        back = document.doc_to_decomposition(doc)
        assert back.host == want.host
        assert back.cycles == want.cycles


def test_psi_round_trip() -> None:
    """The map the engine returns and the one read back from its document
    have the same fibers, and psi sends each vertex of g into its fiber."""
    instances = [random_detach_instance(random.Random(seed)) for seed in range(40)]
    for cg, eta in instances:
        g, psi, _ = detach_all(cg, eta)
        doc = document.graph_to_doc(g, psi=psi)
        _, _, psi2 = document.doc_to_graph(doc)
        assert psi2 is not None
        assert psi2.fibers == psi.fibers
        for m in (psi, psi2):
            assert sorted(m.psi) == g.vertices
            assert all(u in m.fiber(w) for u, w in m.psi.items())


_GRAPH_DOC = {
    "version": "v1",
    "kind": "graph",
    "k": 2,
    "vertices": [0, 1],
    "edges": [[0, 1, 1, 2]],
    "loops": [[0, 2, 1]],
    "eta": [[0, 2], [1, 1]],
    "psi": [[0, [0]], [1, [1]]],
}
_HOST = {"vertices": [0, 1], "edges": [[0, 1, 2]], "loops": [[0, 1]]}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kind", "decomposition", "expected a graph document"),
        ("k", True, "k must be a positive integer"),
        ("vertices", None, "missing vertex list"),
        ("vertices", [0, -1], "vertices must be nonnegative integers"),
        ("vertices", [0, 1, 1], "duplicate vertex ids"),
        ("edges", {}, "edges must be a list of records"),
        ("edges", [[0, 1, 1]], "edge record [0, 1, 1] must be [u, v, color, mult] "
         "of nonnegative integers"),
        ("edges", [[0, 1, 1, 1.0]], "edge record [0, 1, 1, 1.0] must be "
         "[u, v, color, mult] of nonnegative integers"),
        ("edges", [[0, 0, 1, 1]], "bad edge endpoints [0, 0, 1, 1]"),
        ("edges", [[0, 5, 1, 1]], "bad edge endpoints [0, 5, 1, 1]"),
        ("edges", [[0, 1, 3, 1]], "edge color 3 out of range"),
        ("edges", [[0, 1, 1, 0]], "bad multiplicity in [0, 1, 1, 0]"),
        ("loops", "x", "loops must be a list of records"),
        ("loops", [[0, 1]], "loop record [0, 1] must be [v, color, mult] "
         "of nonnegative integers"),
        ("loops", [[5, 1, 1]], "bad loop vertex [5, 1, 1]"),
        ("loops", [[0, 0, 1]], "loop color 0 out of range"),
        ("loops", [[0, 1, 0]], "bad multiplicity in [0, 1, 0]"),
        ("eta", {}, "eta must be a list of [vertex, count]"),
        ("eta", [[0]], "eta record [0] must be [vertex, count]"),
        ("eta", [["0", 2]], "eta names unknown vertex '0'"),
        ("eta", [[0, 0]], "eta(0) must be a positive integer"),
        ("eta", [[0, 2], [0, 2]], "duplicate eta record for vertex 0"),
        ("eta", [[0, 2]], "eta must cover every vertex"),
        ("psi", {}, "psi must be a list of [host, fiber]"),
        ("psi", [[0, 0]], "psi record [0, 0] must be [host, [members...]]"),
        ("psi", [[-1, [0]]], "psi host vertex -1 must be a nonnegative integer"),
        ("psi", [[0, [0]], [0, [1]]], "duplicate fiber for host vertex 0"),
        ("psi", [[0, [0, 7]]], "fiber of 0 names unknown vertices"),
        ("psi", [[0, [0]], [1, [0]]], "bad psi: vertex 0 appears in two fibers"),
        ("psi", [[0, [0, 0]]], "bad psi: vertex 0 is listed twice in the fiber of 0"),
    ],
)
def test_graph_document_errors_name_the_record(field, value, message) -> None:
    doc = dict(_GRAPH_DOC, **{field: value})
    if value is None:
        del doc[field]
    with pytest.raises(DocumentError) as err:
        document.doc_to_graph(doc)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "host, message",
    [
        ([], "host must be an object"),
        (dict(_HOST, vertices="01"), "missing vertex list"),
        (dict(_HOST, edges=None), "edges must be a list of records"),
        (dict(_HOST, edges=[[0, 1, 1, 1]]), "host edge record [0, 1, 1, 1] must be "
         "[u, v, mult] of nonnegative integers"),
        (dict(_HOST, edges=[[1, 1, 1]]), "bad host edge [1, 1, 1]"),
        (dict(_HOST, edges=[[0, 1, 0]]), "bad multiplicity in [0, 1, 0]"),
        (dict(_HOST, loops=0), "loops must be a list of records"),
        (dict(_HOST, loops=[[0, False]]), "host loop record [0, False] must be "
         "[v, mult] of nonnegative integers"),
        (dict(_HOST, loops=[[2, 1]]), "bad host loop [2, 1]"),
        (dict(_HOST, loops=[[0, 0]]), "bad multiplicity in [0, 0]"),
    ],
)
def test_host_object_errors_name_the_record(host, message) -> None:
    doc = {"version": "v1", "kind": "decomposition", "host": host, "cycles": []}
    with pytest.raises(DocumentError) as err:
        document.doc_to_decomposition(doc)
    assert str(err.value) == message


def test_exit_codes_are_mapped_in_main(tmp_path, capsys) -> None:
    from fairdetach.cli import main

    host = tmp_path / "h.json"
    write_three_loop_doc(host)
    g, psi, _ = detach_all(*document.doc_to_graph(json.loads(host.read_text()))[:2])
    mismatched = tmp_path / "g.json"  # fiber of 0 is one vertex short of eta = 3
    psi_doc = document.graph_to_doc(g, psi=psi)
    psi_doc["psi"] = [[0, [0, 1]]]
    mismatched.write_text(json.dumps(psi_doc))
    missing = str(tmp_path / "missing.json")
    cases = [
        (["ham", "--parts", "2", "--sizes", "0,2", "--l1", "1", "--l2", "1"], 2,
         "error: part sizes must be positive"),
        (["ham", "--n", "1", "--lambda", "1"], 2, "error: need n >= 2"),
        (["verify", str(host), str(mismatched)], 4, "error: fiber of 0 has size 2"),
        (["verify", str(host), str(host), str(host)], 2,
         "error: verify takes one or two documents"),
        (["verify", missing, str(host), str(host)], 2,
         "error: verify takes one or two documents"),
        (["verify", str(host)], 4, "error: single-document verify expects"),
        (["detach", missing], 4, "error: "),
        (["verify", missing], 4, "error: "),
        (["export", missing], 4, "error: "),
    ]
    for argv, code, message in cases:
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(message), (argv, err)


ROUND_TRIP_HOST = {
    "version": "v1",
    "kind": "graph",
    "k": 2,
    "vertices": [0, 1],
    "edges": [[0, 1, 1, 3], [0, 1, 2, 2]],
    "loops": [[0, 1, 3], [1, 2, 2]],
    "eta": [[0, 3], [1, 2]],
}


@pytest.mark.parametrize(
    "doc, want",
    [
        (
            ROUND_TRIP_HOST,
            b'{"eta_before":3,"from":0,"moved":3,"new":2,"step":0}\n'
            b'{"eta_before":2,"from":0,"moved":4,"new":3,"step":1}\n'
            b'{"eta_before":2,"from":1,"moved":4,"new":4,"step":2}\n',
        ),
        (dict(ROUND_TRIP_HOST, loops=[], eta=[[0, 1], [1, 1]]), b""),
    ],
    ids=["three_steps", "no_steps"],
)
def test_detach_trace_bytes_are_pinned(tmp_path, doc, want) -> None:
    from fairdetach.cli import main

    host = tmp_path / "h.json"
    host.write_text(json.dumps(doc))
    trace = tmp_path / "t.jsonl"
    assert main(["detach", str(host), "-o", str(tmp_path / "g.json"), "--trace", str(trace)]) == 0
    assert trace.read_bytes() == want


def test_one_process_runs_commands_like_separate_processes(tmp_path, capsys) -> None:
    from fairdetach.cli import main

    host = tmp_path / "h.json"
    host.write_text(json.dumps(ROUND_TRIP_HOST))
    commands = [
        ["detach", str(host), "-o", "{out}/g.json", "--trace", "{out}/t.jsonl"],
        ["verify", str(host), "{out}/g.json"],
        ["ham", "--n", "7", "--lambda", "1", "-o", "{out}/dec.json"],
        ["export", "{out}/dec.json"],
        ["detach", "--no-such-flag", str(host)],
        ["detach", str(host)],
    ]
    runs = {}
    for side in ("one_process", "separate"):
        out = tmp_path / side
        out.mkdir()
        results = []
        for command in commands:
            argv = [arg.format(out=out) for arg in command]
            if side == "separate":
                res = run_cli(*argv)
                results.append((res.returncode, res.stdout, res.stderr))
                continue
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors exit directly
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs[side] = (results, files)
    assert [code for code, _, _ in runs["separate"][0]] == [0, 0, 0, 0, 2, 0]
    assert runs["one_process"] == runs["separate"]
    assert sorted(runs["separate"][1]) == ["dec.json", "g.json", "t.jsonl"]


TOP_USAGE = "usage: fairdetach [-h] {detach,ham,verify,fuzz,export} ...\n"
DETACH_USAGE = "usage: fairdetach detach [-h] [-o OUTPUT] [--trace TRACE] input\n"
HAM_USAGE = (
    "usage: fairdetach ham [-h] [--n N] [--lambda LAM] [--parts PARTS]\n"
    "                      [--size SIZE] [--sizes SIZES] [--l1 L1] [--l2 L2]\n"
    "                      [-o OUTPUT]\n"
)
VERIFY_USAGE = "usage: fairdetach verify [-h] [--json] documents [documents ...]\n"
FUZZ_USAGE = (
    "usage: fairdetach fuzz [-h] [--count COUNT] [--seed SEED] [--jobs JOBS]\n"
    "                       [--kind {detach,bee,evencolor,all}]\n"
)
EXPORT_USAGE = "usage: fairdetach export [-h] [-o OUTPUT] input\n"

# (argv, exit code, stdout, stderr) as argparse of CPython 3.11 prints them
# 80 columns wide; other Python versions word and wrap help differently.
CLI_TEXTS = [
    (["-h"], 0, TOP_USAGE + """
Fair detachments of edge-colored multigraphs and Hamiltonian decomposition
generators.

positional arguments:
  {detach,ham,verify,fuzz,export}
    detach              detach a colored multigraph per its eta map
    ham                 generate a Hamiltonian decomposition
    verify              verify a detachment pair or a decomposition
    fuzz                run random instances through generator+verifier
    export              render a document as DOT

options:
  -h, --help            show this help message and exit
""", ""),
    (["detach", "-h"], 0, DETACH_USAGE + """
positional arguments:
  input                 graph document with an eta map ('-' for stdin)

options:
  -h, --help            show this help message and exit
  -o OUTPUT, --output OUTPUT
                        detached graph document
  --trace TRACE         write step trace (JSON lines) to this path
""", ""),
    (["ham", "-h"], 0, HAM_USAGE + """
options:
  -h, --help            show this help message and exit
  --n N                 complete graph order
  --lambda LAM          edge multiplicity
  --parts PARTS         number of parts (implied by --sizes)
  --size SIZE           uniform part size
  --sizes SIZES         comma-separated part sizes
  --l1 L1               intra-part multiplicity
  --l2 L2               inter-part multiplicity
  -o OUTPUT, --output OUTPUT
                        decomposition document
""", ""),
    (["verify", "-h"], 0, VERIFY_USAGE + """
positional arguments:
  documents   either HOST_DOC DETACHED_DOC or one decomposition document

options:
  -h, --help  show this help message and exit
  --json      print one JSON report instead of text lines
""", ""),
    (["fuzz", "-h"], 0, FUZZ_USAGE + """
options:
  -h, --help            show this help message and exit
  --count COUNT
  --seed SEED
  --jobs JOBS
  --kind {detach,bee,evencolor,all}
""", ""),
    (["export", "-h"], 0, EXPORT_USAGE + """
positional arguments:
  input                 document path ('-' for stdin)

options:
  -h, --help            show this help message and exit
  -o OUTPUT, --output OUTPUT
                        DOT output path
""", ""),
    ([], 2, "", TOP_USAGE
     + "fairdetach: error: the following arguments are required: command\n"),
    (["nope"], 2, "", TOP_USAGE
     + "fairdetach: error: argument command: invalid choice: 'nope' "
     "(choose from 'detach', 'ham', 'verify', 'fuzz', 'export')\n"),
    (["detach"], 2, "", DETACH_USAGE
     + "fairdetach detach: error: the following arguments are required: input\n"),
    (["verify"], 2, "", VERIFY_USAGE
     + "fairdetach verify: error: the following arguments are required: documents\n"),
    (["export"], 2, "", EXPORT_USAGE
     + "fairdetach export: error: the following arguments are required: input\n"),
    (["detach", "-o"], 2, "", DETACH_USAGE
     + "fairdetach detach: error: argument -o/--output: expected one argument\n"),
    (["ham", "--n", "x"], 2, "", HAM_USAGE
     + "fairdetach ham: error: argument --n: invalid int value: 'x'\n"),
    (["fuzz", "--count", "-1"], 2, "", FUZZ_USAGE
     + "fairdetach fuzz: error: argument --count: must be at least 0, got -1\n"),
    (["fuzz", "--jobs", "0"], 2, "", FUZZ_USAGE
     + "fairdetach fuzz: error: argument --jobs: must be at least 1, got 0\n"),
    (["fuzz", "--kind", "nope"], 2, "", FUZZ_USAGE
     + "fairdetach fuzz: error: argument --kind: invalid choice: 'nope' "
     "(choose from 'detach', 'bee', 'evencolor', 'all')\n"),
    (["detach", "--dot", "x"], 2, "", TOP_USAGE
     + "fairdetach: error: unrecognized arguments: --dot\n"),
    (["detach", "a", "b"], 2, "", TOP_USAGE
     + "fairdetach: error: unrecognized arguments: b\n"),
    (["ham", "--n", "5", "--lambda", "1", "--zzz"], 2, "", TOP_USAGE
     + "fairdetach: error: unrecognized arguments: --zzz\n"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", CLI_TEXTS, ids=[" ".join(c[0]) or "bare" for c in CLI_TEXTS]
)
def test_help_and_usage_errors_print_pinned_texts(
    argv, code, out, err, monkeypatch, capsys
) -> None:
    """Help and usage errors exit from argparse; their exact texts are pinned."""
    from fairdetach.cli import main

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out, captured.err) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["detach", "h.json", "-o", "g.json", "--trace", "t.jsonl"],
        ["ham", "--sizes", "3,3", "--l1", "1", "--l2", "2"],
        ["verify", "--json", "h.json", "g.json"],
        ["fuzz", "--kind", "all", "--jobs", "2"],
        ["export", "-", "-o", "x.dot"],
    ],
)
def test_one_command_parser_gives_the_full_tree_namespace(argv) -> None:
    from fairdetach.cli import _parse, build_parser

    assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))
