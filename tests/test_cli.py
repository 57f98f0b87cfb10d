"""Command-line interface: exit codes, JSON output, determinism, batch."""

from __future__ import annotations

import json
import tracemalloc

from edgepack import (Graph, generate_named, random_cubic, to_edge_list_text,
                      to_graph6)
from edgepack.cli import EXIT_INTERNAL, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sharp_example_unsat(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "subdivided_k33",
                           "--sequence", "1^2,2^3")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "unsat" and doc["method"] == "exact"


def test_solve_sharp_example_sat_lists_six_classes(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "subdivided_k33",
                           "--sequence", "1^2,2^4")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "sat"
    assert len(doc["classes"]) == 6
    assert sorted(e for cl in doc["classes"] for e in cl) == list(range(10))


def test_solve_pipeline_method(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "petersen",
                           "--sequence", "1^2,2^4", "--method", "pipeline")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "greedy"


def test_solve_pipeline_rejects_other_sequences(capsys):
    code, _, err = run_cli(capsys, "solve", "--family", "c6",
                           "--sequence", "1^2", "--method", "pipeline")
    assert code == 2
    assert "pipeline" in err


def test_batch_pipeline_rejects_other_sequences_before_any_graph(capsys):
    code, out, err = run_cli(capsys, "batch", "--family", "petersen",
                             "--sequence", "1^3,3")
    assert (code, out) == (2, "")
    assert "pipeline" in err
    code, out, _ = run_cli(capsys, "batch", "--family", "petersen",
                           "--sequence", "1^3,3", "--method", "exact")
    assert code == 1
    assert json.loads(out)["results"][0]["status"] == "unsat"


def test_budget_bounds_the_pipeline_exact_fallback(capsys, monkeypatch):
    # with no greedy or switch attempt, only the exact fallback can answer
    monkeypatch.setattr("edgepack.solver._RETRIES", 0)
    code, out, _ = run_cli(capsys, "solve", "--family", "random_cubic",
                           "--n", "14", "--seed", "1", "--sequence", "1^2,2^4",
                           "--method", "pipeline", "--budget", "3")
    assert code == 3
    assert json.loads(out)["status"] == "fail"
    code, out, _ = run_cli(capsys, "batch", "--family", "random_cubic",
                           "--n", "14", "--seed", "1", "--count", "1",
                           "--budget", "3")
    assert code == 3
    assert json.loads(out)["results"][0]["status"] == "fail"


def test_verify_roundtrip_and_corruption(tmp_path, capsys):
    g = generate_named("subdivided_k33")
    el = tmp_path / "g.el"
    el.write_text(to_edge_list_text(g))
    code, out, _ = run_cli(capsys, "solve", "--input", str(el),
                           "--sequence", "1^2,2^4")
    assert code == 0
    classes = json.loads(out)["classes"]
    col = tmp_path / "c.json"
    col.write_text(json.dumps({"classes": classes}))
    code, out, _ = run_cli(capsys, "verify", "--input", str(el),
                           "--sequence", "1^2,2^4", "--coloring", str(col))
    assert code == 0
    assert json.loads(out)["status"] == "valid"
    # corrupt: merge class 3 into class 2
    bad = [list(c) for c in classes]
    bad[2] += bad[3]
    bad[3] = []
    col.write_text(json.dumps({"classes": bad}))
    code, out, _ = run_cli(capsys, "verify", "--input", str(el),
                           "--sequence", "1^2,2^4", "--coloring", str(col))
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "invalid" and doc["violations"]


def test_verify_partial_coloring_is_usage_error(tmp_path, capsys):
    g = generate_named("c6")
    el = tmp_path / "g.el"
    el.write_text(to_edge_list_text(g))
    col = tmp_path / "c.json"
    col.write_text(json.dumps({"classes": [[0, 2]]}))
    code, _, err = run_cli(capsys, "verify", "--input", str(el),
                           "--sequence", "1^2", "--coloring", str(col))
    assert code == 2


def test_gen_and_distance(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "prism")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    code, out, _ = run_cli(capsys, "gen", "--family", "petersen",
                           "--format", "graph6")
    assert code == 0
    code, out, _ = run_cli(capsys, "distance", "--family", "c6", "0", "3")
    assert code == 0
    assert json.loads(out)["distance"] == 2


def test_distance_disconnected_null(tmp_path, capsys):
    el = tmp_path / "g.el"
    el.write_text("0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "distance", "--input", str(el), "0", "1")
    assert code == 0
    assert json.loads(out)["distance"] is None


def test_audit_command(capsys):
    code, out, _ = run_cli(capsys, "audit", "--family", "petersen", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["stable"] is True
    assert doc["charges"]["total_initial"] == doc["charges"]["total_net"]
    assert doc["lemmas"]["no_cycle"]["holds"]


def test_batch_graph6_file(tmp_path, capsys):
    path = tmp_path / "batch.g6"
    lines = [to_graph6(random_cubic(12, s)) for s in range(4)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path),
                           "--method", "pipeline")
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs"] == 4 and doc["counts"]["sat"] == 4
    assert [rec["index"] for rec in doc["results"]] == [0, 1, 2, 3]


def test_batch_bad_line_exit2(tmp_path, capsys):
    path = tmp_path / "batch.g6"
    lines = [to_graph6(random_cubic(10, s)) for s in range(3)]
    lines.insert(1, "not-a-graph6-line!!!")
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path),
                           "--method", "pipeline")
    assert code == 2
    doc = json.loads(out)
    assert doc["errors"] == 1
    assert doc["counts"]["sat"] == 3
    statuses = {rec["index"]: rec["status"] for rec in doc["results"]}
    assert statuses[1] == "error"


def test_batch_non_subcubic_line_is_an_error_record(tmp_path, capsys):
    k5 = Graph([(i, j) for i in range(5) for j in range(i + 1, 5)])
    path = tmp_path / "batch.g6"
    path.write_text("\n".join(to_graph6(g) for g in
                              (random_cubic(10, 0), k5, random_cubic(10, 2))) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == 2
    doc = json.loads(out)
    assert [rec["status"] for rec in doc["results"]] == ["sat", "error", "sat"]
    assert "subcubic" in doc["results"][1]["error"]


def test_batch_memory_does_not_grow_with_count(capsys):
    # graphs and their distance tables are dropped once each is recorded
    peaks = []
    for count in ("2", "8"):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "batch", "--family", "random_cubic",
                                 "--n", "500", "--count", count)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 1.25 * peaks[0]


def test_solve_accepts_graph6_input(tmp_path, capsys):
    path = tmp_path / "one.g6"
    path.write_text(to_graph6(generate_named("petersen")) + "\n")
    code, out, _ = run_cli(capsys, "solve", "--input", str(path),
                           "--sequence", "1^3,2")
    assert code == 0
    assert json.loads(out)["status"] == "sat"


def test_batch_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == 0
    assert json.loads(out)["graphs"] == 0


def test_batch_generated_family(capsys):
    code, out, _ = run_cli(capsys, "batch", "--family", "random_cubic",
                           "--n", "14", "--seed", "5", "--count", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs"] == 3 and doc["counts"]["sat"] == 3


def test_batch_checks_count_and_n_before_generating(capsys):
    for count in ("0", "1"):
        code, out, err = run_cli(capsys, "batch", "--family", "random_cubic",
                                 "--count", count)
        assert (code, out) == (2, "")
        assert err == "error: --family random_cubic needs --n\n"
    code, out, err = run_cli(capsys, "batch", "--family", "petersen", "--count", "-1")
    assert (code, out, err) == (2, "", "error: --count must be >= 0\n")
    code, out, _ = run_cli(capsys, "batch", "--family", "random_cubic",
                           "--n", "10", "--count", "0")
    assert code == 0 and json.loads(out)["graphs"] == 0


def test_batch_tsv_format(capsys):
    code, out, _ = run_cli(capsys, "batch", "--family", "random_cubic",
                           "--n", "10", "--seed", "0", "--count", "2",
                           "--format", "tsv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 3 and rows[-1].startswith("#")


def test_determinism_byte_identical(capsys):
    args = ("solve", "--family", "petersen", "--sequence", "1^2,2^4",
            "--method", "pipeline", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    args = ("audit", "--family", "random_cubic", "--n", "16", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_budget_exhaustion_exit3(capsys):
    code, out, _ = run_cli(capsys, "solve", "--family", "random_cubic",
                           "--n", "30", "--seed", "2",
                           "--sequence", "1^2,2^4", "--budget", "5")
    assert code == 3
    assert json.loads(out)["status"] == "unknown"


def test_audit_budget_exhaustion_exit3(capsys):
    code, out, _ = run_cli(capsys, "audit", "--family", "random_cubic",
                           "--n", "40", "--budget", "10")
    assert code == 3
    doc = json.loads(out)
    assert doc["stable"] is False
    assert doc["lemmas"]["stability"] is None


def test_negative_budget_is_usage_error(capsys):
    for argv in (("solve", "--family", "petersen", "--sequence", "1^2,2^4"),
                 ("solve", "--family", "petersen", "--sequence", "1^2,2^4",
                  "--method", "pipeline"),
                 ("audit", "--family", "petersen"),
                 ("batch", "--family", "petersen", "--count", "2")):
        code, out, err = run_cli(capsys, *argv, "--budget", "-1")
        assert (code, out, err) == (2, "", "error: --budget must be >= 0\n"), argv
    code, _, _ = run_cli(capsys, "solve", "--family", "petersen",
                         "--sequence", "1^2,2^4", "--budget", "0")
    assert code == 3


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("edgepack.cli.solve_exact", boom)
    code, out, err = run_cli(capsys, "solve", "--family", "petersen",
                             "--sequence", "1^2,2^4")
    assert code == EXIT_INTERNAL
    assert code not in (0, 1, 2, 3)
    assert out == ""
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal: RuntimeError: boom"


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "solve", "--sequence", "1^2")
    assert code == 2
    code, _, _ = run_cli(capsys, "gen", "--family", "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense-command")
    assert code == 2
