"""Exit codes and output of the ``invdom`` subcommands.

0 ok, 1 a check failed, 2 input or usage error, 3 violated precondition,
4 internal contradiction.  The selftest checks themselves are swept on
n <= 6 by test_harness.py::test_selftest_check_holds_up_to_six_vertices;
here selftest runs only as far as its exit code and its report need.
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from invdom import cli, constructions, generate, harness, naive, solvers
from invdom.certificates import InverseCertificate, check_inverse_certificate
from invdom.errors import InternalContradiction, LemmaViolated
from invdom.generate import cycle_graph
from invdom.graph import Graph, mask_of
from invdom.graph6 import parse_graph6, write_graph6
from invdom.harness import (
    EXIT_CHECK_FAILED,
    EXIT_CONTRADICTION,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_PRECONDITION,
    GraphReport,
)
from oracles import complete_graph, path_graph


def test_selftest_passes_and_exits_0(capsys):
    assert cli.main(["selftest", "--max-n", "3"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


SELFTEST_6 = """\
PASS  graph6 round-trip: 208/208
PASS  gamma vs oracle: 208/208
PASS  alpha vs oracle: 208/208
PASS  inverse gamma vs oracle: 155/155
PASS  strong inverse vs oracle: 155/155
PASS  induced bipartite vs oracle: 208/208
PASS  split by component: 208/208
PASS  Ore complement dominates: 155/155
PASS  optimal-set audits: 155/155
PASS  main construction in bound: 155/155
PASS  ISR pair machinery: 155/155
PASS  single-edge padding shifts: 155/155
selftest: PASS
"""


def test_selftest_output_up_to_six_vertices_is_pinned(capsys):
    """Every row and count: 208 graphs with 1 <= n <= 6, 155 of them
    isolate-free."""
    assert cli.main(["selftest", "--max-n", "6"]) == EXIT_OK
    assert capsys.readouterr().out == SELFTEST_6


def test_failing_selftest_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(harness, "selftest", lambda max_n: False)
    assert cli.main(["selftest"]) == EXIT_CHECK_FAILED
    assert "selftest: FAIL" in capsys.readouterr().out


def test_a_failing_check_names_its_graph_and_the_sweep_goes_on(monkeypatch, capsys):
    planted = []
    real = constructions.biglemma_trichotomy

    def trichotomy(g, d):
        if g.n == 4 and all(nbrs.bit_count() == 2 for nbrs in g.adj):  # C4
            planted.append({"error": "planted", "context": {"d": repr(d)},
                            "graph6": write_graph6(g)})
            raise LemmaViolated("planted", {"d": d})
        return real(g, d)

    monkeypatch.setattr(constructions, "biglemma_trichotomy", trichotomy)
    assert cli.main(["selftest", "--max-n", "4"]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith(("PASS", "FAIL"))] == [
        ("FAIL  " if name == "optimal-set audits" else "PASS  ") + name
        for name, _, _ in harness.SELFTEST_CHECKS
    ]
    fail = next(i for i, line in enumerate(lines) if line.startswith("FAIL"))
    graph6, problem = lines[fail + 1].split(": ", 1)
    assert [json.loads(problem)] == planted
    assert graph6.strip() == planted[0]["graph6"]
    assert lines[-1] == "selftest: FAIL"


@pytest.mark.parametrize("max_n", ["0", "1"])
def test_selftest_rejects_fewer_than_two_vertices(max_n, capsys):
    assert cli.main(["selftest", "--max-n", max_n]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "--max-n must be at least 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("max_n", ["9", "12"])
def test_selftest_rejects_more_than_eight_vertices_before_generating(max_n, monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"all_graphs({n}) was called")

    monkeypatch.setattr(generate, "all_graphs", refuse)
    assert cli.main(["selftest", "--max-n", max_n]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "--max-n must be at most 8" in captured.err
    assert captured.out == ""


def test_search_is_an_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--n", "5", "--p", "0.5", "--count", "1", "--seed", "1"])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "invalid choice: 'search'" in capsys.readouterr().err
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["analyze", "construct", "selftest", "verify"]


def verify(tmp_path, lines, *extra):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in lines))
    argv = ["verify", str(corpus), "--out", str(tmp_path / "out.jsonl"),
            "--counterexamples", str(tmp_path / "bad.g6"), *extra]
    return cli.main(argv)


GOOD = [write_graph6(g) for g in (cycle_graph(5), path_graph(4), complete_graph(3))]
# a graph6 long size form for 65 vertices, one more than a Graph can hold
TOO_LARGE = "~?@@" + "?" * 347


def test_verify_exits_0_and_skips_bad_lines(tmp_path):
    assert verify(tmp_path, GOOD + ["not a graph", TOO_LARGE]) == EXIT_OK
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == len(GOOD)
    assert not (tmp_path / "bad.g6").exists()


ISOLATE = write_graph6(Graph(3, [(0, 1)]))


@pytest.mark.parametrize(
    "lines, checks, skipped",
    [(["?", "A_"], (), 0), ([ISOLATE, "A_"], (), 1), ([ISOLATE, "A_"], ("--checks", "strong"), 1),
     ([ISOLATE, "A_"], ("--checks", "main_thm"), 1), ([ISOLATE, "A_"], ("--checks", "b"), 0)],
    ids=["empty-graph", "isolate", "isolate-strong", "isolate-main_thm", "isolate-b"],
)
def test_verify_counts_only_graphs_with_isolates_as_skipped(lines, checks, skipped, tmp_path, capsys):
    # every check but b needs an isolate-free graph
    assert verify(tmp_path, lines, *checks) == EXIT_OK
    assert f"verified 2 graphs: 0 failures, {skipped} skipped for isolates" in capsys.readouterr().err


@pytest.mark.parametrize("checks, warned", [("b", False), ("strong", True), ("main_thm", True)])
def test_analyze_warns_of_isolates_only_for_a_check_that_needs_none(checks, warned, capsys):
    assert cli.main(["analyze", "@", "--checks", checks]) == EXIT_OK
    assert ("isolated vertices" in capsys.readouterr().err) == warned


def test_verify_strict_exits_2_on_a_bad_line(tmp_path):
    assert verify(tmp_path, GOOD + ["not a graph"], "--strict") == EXIT_INPUT_ERROR


def test_verify_exits_2_when_no_line_parses(tmp_path):
    assert verify(tmp_path, ["not a graph", "???garbage"]) == EXIT_INPUT_ERROR


def test_verify_exits_2_on_a_missing_corpus_and_keeps_the_old_output(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    out.write_text("old report\n")
    assert cli.main(["verify", str(tmp_path / "missing.g6"), "--out", str(out)]) == EXIT_INPUT_ERROR
    assert out.read_text() == "old report\n"
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "out, counterexamples",
    [("corpus.g6", None), ("link.g6", None), (None, "corpus.g6"), (None, "link.g6"),
     ("old.jsonl", "old.jsonl"), ("new.jsonl", "new.jsonl")],
    ids=["out-corpus", "out-link", "counterexamples-corpus", "counterexamples-link",
         "out-counterexamples", "out-counterexamples-new"],
)
def test_verify_exits_2_when_an_output_is_the_corpus_or_the_other_output(
    out, counterexamples, tmp_path, monkeypatch, capsys
):
    """An output that names the corpus or the other output, directly or
    through a link, is refused before any file is opened."""
    monkeypatch.setattr(harness, "analyze_graph", failing_report)
    monkeypatch.chdir(tmp_path)
    Path("corpus.g6").write_text("".join(line + "\n" for line in GOOD))
    Path("link.g6").symlink_to("corpus.g6")
    Path("old.jsonl").write_text("old report\n")
    argv = ["verify", "corpus.g6"]
    argv += ["--out", out] if out else []
    argv += ["--counterexamples", counterexamples] if counterexamples else []
    assert cli.main(argv) == EXIT_INPUT_ERROR
    assert Path("corpus.g6").read_text() == "".join(line + "\n" for line in GOOD)
    assert Path("old.jsonl").read_text() == "old report\n"
    assert sorted(os.listdir(tmp_path)) == ["corpus.g6", "link.g6", "old.jsonl"]
    captured = capsys.readouterr()
    assert "are the same file" in captured.err and captured.out == ""


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter with this checkout's ``src`` first on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_python_m_invdom_runs_the_cli():
    done = _fresh_python("-m", "invdom", "selftest", "--max-n", "3")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: PASS"


def test_the_certificate_checker_imports_no_solver():
    done = _fresh_python("-c", "import sys, invdom.graph6, invdom.certificates; "
                               "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'invdom'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "invdom", "invdom.certificates", "invdom.errors", "invdom.graph", "invdom.graph6",
    ]


NOT_UTF8 = b"Dhc\n\xff\xfe\n"


@pytest.mark.parametrize("strict, code", [([], EXIT_OK), (["--strict"], EXIT_INPUT_ERROR)])
@pytest.mark.parametrize("from_stdin", [False, True])
def test_a_line_that_is_not_utf8_is_a_bad_line(from_stdin, strict, code, tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(NOT_UTF8)
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    out = tmp_path / "out.jsonl"
    argv = ["verify", "-" if from_stdin else str(corpus), "--out", str(out), *strict]
    assert cli.main(argv) == code
    assert [json.loads(line)["graph6"] for line in out.read_text().splitlines()] == ["Dhc"]
    assert "line 2: non-ascii" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "FILE"], ["analyze", "--edges", "FILE"], ["construct", "FILE", "--which", "main"]],
    ids=["analyze", "analyze-edges", "construct"],
)
def test_a_graph_file_that_is_not_utf8_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff\xfe\n")
    assert cli.main([str(path) if arg == "FILE" else arg for arg in argv]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--edges", "MISSING"],
        ["analyze", "DIR"],
        ["construct", "DIR", "--which", "main"],
        ["analyze", "--edges", "BIG"],
        ["verify", "GOOD", "--out", "NOWHERE"],
        ["verify", "GOOD", "--jobs", "0"],
        ["verify", "GOOD", "--jobs", str((os.cpu_count() or 1) + 1)],
        ["analyze", TOO_LARGE],
    ],
    ids=["missing-edges", "analyze-dir", "construct-dir", "edges-too-large",
         "verify-out-unwritable", "verify-no-jobs", "verify-jobs-above-cpus", "graph6-too-large"],
)
def test_an_input_error_exits_2_without_a_traceback(argv, tmp_path, capsys, monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("an input error must not start worker processes")

    monkeypatch.setattr(harness, "Pool", no_pool)
    (tmp_path / "big.edges").write_text("0 70\n")
    (tmp_path / "good.g6").write_text(GOOD[0] + "\n")
    paths = {"MISSING": tmp_path / "missing.edges", "DIR": tmp_path, "BIG": tmp_path / "big.edges",
             "GOOD": tmp_path / "good.g6", "NOWHERE": tmp_path / "no" / "such" / "x"}
    assert cli.main([str(paths.get(arg, arg)) for arg in argv]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_analyze_refuses_a_graph_and_an_edge_file_together(tmp_path, capsys):
    path = tmp_path / "empty.edges"
    path.write_text("")
    assert cli.main(["analyze", GOOD[0], "--edges", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "not both" in captured.err and captured.out == ""


def test_analyze_takes_64_vertices_in_the_long_graph6_form(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text("0 63\n")
    assert cli.main(["analyze", "--edges", str(path)]) == EXIT_OK
    label, g6 = capsys.readouterr().out.splitlines()[0].split()
    assert label == "graph6" and g6.startswith("~")
    assert parse_graph6(g6) == Graph(64, [(0, 63)])


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_an_unknown_check_name_exits_2(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, GOOD[0], "--checks", "conjecture,nope"])
    assert exit_info.value.code == EXIT_INPUT_ERROR
    assert "unknown checks: nope" in capsys.readouterr().err


def _report_without_timing(command, tmp_path, capsys, *extra) -> list[str]:
    """The report ``analyze`` prints or ``verify`` writes for GOOD[0], less
    its elapsed_micros field."""
    if command == "analyze":
        assert cli.main(["analyze", GOOD[0], *extra]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
    else:
        assert verify(tmp_path, GOOD[:1], *extra) == EXIT_OK
        lines = (tmp_path / "out.jsonl").read_text().splitlines()
    return [re.sub(r',"elapsed_micros":\d+', "", line) for line in lines]


@pytest.mark.parametrize("spelling", ["", " ", ","])
@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_a_checks_value_that_names_no_check_means_every_check(command, spelling, tmp_path, capsys):
    default = _report_without_timing(command, tmp_path, capsys)
    assert '"main_thm_ok":true' in default[-1]
    assert _report_without_timing(command, tmp_path, capsys, "--checks", spelling) == default


def failing_report(g, graph6_str=None, checks=harness.ALL_CHECKS):
    return GraphReport(graph6=graph6_str, n=g.n, m=g.m, gamma=1, alpha=1, conjecture_ok=False)


def test_verify_exits_1_on_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "analyze_graph", failing_report)
    assert verify(tmp_path, GOOD) == EXIT_CHECK_FAILED
    assert (tmp_path / "bad.g6").read_text().splitlines() == GOOD


def test_verify_writes_no_counterexamples_file_unless_asked(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "analyze_graph", failing_report)
    monkeypatch.chdir(tmp_path)
    Path("corpus.g6").write_text("".join(line + "\n" for line in GOOD))
    assert cli.main(["verify", "corpus.g6", "--out", "out.jsonl"]) == EXIT_CHECK_FAILED
    assert sorted(os.listdir(tmp_path)) == ["corpus.g6", "out.jsonl"]
    err = capsys.readouterr().err
    assert [line.split()[-1] for line in err.splitlines() if "FAILED" in line] == GOOD
    assert "counterexamples written" not in err


def raise_contradiction(g, d_set, **_known):
    raise InternalContradiction("planted contradiction", {"d_set": d_set})


def test_verify_exits_4_and_logs_the_contradiction(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(constructions, "theorem_main_construct", raise_contradiction)
    assert verify(tmp_path, GOOD[:1]) == EXIT_CONTRADICTION
    err = capsys.readouterr().err.splitlines()
    prefix = "line 1: contradiction "
    logged = [json.loads(line[len(prefix):]) for line in err if line.startswith(prefix)]
    d_set = solvers.gamma(cycle_graph(5))[1]
    assert logged == [{
        "error": "planted contradiction", "context": {"d_set": repr(d_set)}, "graph6": GOOD[0],
    }]
    report = json.loads((tmp_path / "out.jsonl").read_text())
    assert report["main_thm_ok"] is False and "contradiction" not in report


@pytest.mark.parametrize(
    "which, g",
    [(which, cycle_graph(4)) for which in ("main", "bipartite", "inddom")]
    + [("gamma5", Graph(10, [(2 * i, 2 * i + 1) for i in range(5)]))],
)
def test_construct_exits_0_and_prints_a_certificate(which, g, capsys):
    assert cli.main(["construct", write_graph6(g), "--which", which]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    payload = json.loads(out[0])
    k = naive.gamma_naive(g)[0]
    assert payload["which"] == which and payload["d_size"] == k
    cert = InverseCertificate(
        mask_of(payload["d_set"]), mask_of(payload["t_set"]),
        payload["bound_kind"], payload["bound_value"],
    )
    assert check_inverse_certificate(g, cert, k) == []


def test_construct_exits_3_on_a_violated_precondition(capsys):
    argv = ["construct", write_graph6(cycle_graph(4)), "--which", "gamma5"]
    assert cli.main(argv) == EXIT_PRECONDITION
    assert "gamma = 2, need exactly 5" in capsys.readouterr().err


def test_construct_inddom_exits_4_when_the_trichotomy_fails(monkeypatch, capsys):
    """D is the optimal gamma-set, so finding no special set while the
    structural inequalities fail is a counterexample (exit 4), not a
    violated precondition (exit 3)."""
    monkeypatch.setattr(constructions, "find_special_independent", lambda h, d: None)
    argv = ["construct", write_graph6(cycle_graph(5)), "--which", "inddom"]
    assert cli.main(argv) == EXIT_CONTRADICTION
    dump = json.loads(capsys.readouterr().err)
    assert dump == {
        "error": "no special independent set and the structural inequalities fail",
        "context": {
            "d_set": "5", "|D|": "2", "a": "2", "alpha(D)": "2",
            "a+1 <= alpha(D) <= |D|-3": "False",
            "|V|+a >= 3|D|": "True",
            "|D| >= a+5": "False",
        },
        "graph6": "Dhc",
    }


def test_construct_exits_4_and_dumps_the_contradiction(monkeypatch, capsys):
    monkeypatch.setattr(cli, "theorem_main_construct", raise_contradiction)
    graph6 = write_graph6(cycle_graph(5))
    assert cli.main(["construct", graph6, "--which", "main"]) == EXIT_CONTRADICTION
    dump = json.loads(capsys.readouterr().err)
    assert dump["graph6"] == graph6
    assert dump["error"] == "planted contradiction" and list(dump["context"]) == ["d_set"]
