"""Exit codes of the ``invdom`` subcommands, and the selftest sweep."""

import pytest

from invdom import cli, harness
from invdom.generate import complete_graph, cycle_graph, path_graph
from invdom.graph6 import write_graph6
from invdom.harness import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, GraphReport


def test_selftest_passes_up_to_six_vertices(capsys):
    assert cli.main(["selftest", "--max-n", "6"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_failing_selftest_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(harness, "selftest", lambda max_n: False)
    assert cli.main(["selftest"]) == EXIT_CHECK_FAILED
    assert "selftest: FAIL" in capsys.readouterr().out


def test_search_with_a_counterexample_exits_1(monkeypatch):
    monkeypatch.setattr(harness, "search_run", lambda *args: {"counterexamples": 1})
    assert cli.main(["search", "--n", "5", "--p", "0.5", "--count", "1", "--seed", "1"]) == EXIT_CHECK_FAILED


@pytest.mark.parametrize("n", ["0", "1"])
def test_search_rejects_fewer_than_two_vertices(n, capsys):
    argv = ["search", "--n", n, "--p", "0.5", "--count", "2", "--seed", "1"]
    assert cli.main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "--n must be at least 2" in captured.err
    assert captured.out == ""


def verify(tmp_path, lines, *extra):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("".join(line + "\n" for line in lines))
    argv = ["verify", str(corpus), "--out", str(tmp_path / "out.jsonl"),
            "--counterexamples", str(tmp_path / "bad.g6"), *extra]
    return cli.main(argv)


GOOD = [write_graph6(g) for g in (cycle_graph(5), path_graph(4), complete_graph(3))]


def test_verify_exits_0_and_skips_bad_lines(tmp_path):
    assert verify(tmp_path, GOOD + ["not a graph"]) == EXIT_OK
    assert len((tmp_path / "out.jsonl").read_text().splitlines()) == len(GOOD)
    assert not (tmp_path / "bad.g6").exists()


def test_verify_strict_exits_2_on_a_bad_line(tmp_path):
    assert verify(tmp_path, GOOD + ["not a graph"], "--strict") == EXIT_INPUT_ERROR


def test_verify_exits_2_when_no_line_parses(tmp_path):
    assert verify(tmp_path, ["not a graph", "???garbage"]) == EXIT_INPUT_ERROR


def test_verify_exits_1_on_a_failed_check(tmp_path, monkeypatch):
    def failing(g, graph6_str=None, checks=harness.ALL_CHECKS):
        return GraphReport(graph6=graph6_str, n=g.n, m=g.m, gamma=1, alpha=1,
                           conjecture_ok=False)

    monkeypatch.setattr(harness, "analyze_graph", failing)
    assert verify(tmp_path, GOOD) == EXIT_CHECK_FAILED
    assert (tmp_path / "bad.g6").read_text().splitlines() == GOOD
