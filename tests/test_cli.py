import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from critcolor.cli import run
from critcolor.critical import load_critdb
from critcolor.graphs import complete_graph, from_edges, to_graph6

C5 = to_graph6(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
P4 = to_graph6(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
GREEDY_NEEDS_4 = "G?K}fC"  # chromatic number 3; DSATUR uses 4 colours
K3 = to_graph6(complete_graph(3))
PAW = to_graph6(from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))


def test_free_exit_codes(capsys):
    assert run(["free", "-p", "2P2", "-p", "P4+P1", C5]) == 0
    assert capsys.readouterr().out.strip() == "free"
    assert run(["free", "-p", "C5", C5]) == 1
    out = capsys.readouterr().out
    assert out.startswith("contains C5 at ")


def test_chi_and_decision(capsys):
    assert run(["chi", C5]) == 0
    assert capsys.readouterr().out.startswith("chi=3")
    assert run(["chi", "--k", "2", C5]) == 1
    assert run(["chi", "--k", "3", C5]) == 0


def test_only_json_output_reencodes_the_input(capsys, monkeypatch):
    import critcolor.cli

    encoded = []
    monkeypatch.setattr(critcolor.cli, "to_graph6", lambda g: encoded.append(g) or to_graph6(g))
    assert run(["chi", C5]) == 0
    assert capsys.readouterr().out.startswith("chi=3") and encoded == []
    assert run(["chi", "--json", C5]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == C5 and len(encoded) == 1


def test_critical_verdict(capsys):
    assert run(["critical", "--k", "3", C5]) == 0
    assert "critical" in capsys.readouterr().out
    assert run(["critical", "--k", "3", P4]) == 1
    assert "not critical" in capsys.readouterr().out


def test_cotree(capsys):
    assert run(["cotree", K3]) == 0
    assert capsys.readouterr().out.strip() == "J(0,1,2)"
    assert run(["cotree", P4]) == 1


def test_pair(capsys):
    assert run(["pair", PAW]) == 0
    assert capsys.readouterr().out.strip() == "X={1,2} Y={3} W={0}"
    assert run(["pair", C5]) == 1
    assert "precondition failed" in capsys.readouterr().out


def test_pair_on_the_empty_graph_is_a_failed_precondition(capsys):
    # K0 is complete; as with `cotree ?`, a failed precondition exits 1
    assert run(["pair", "?"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "precondition failed: complete graphs admit no anticomplete pair\n"
    assert captured.err == ""


def test_color_and_bound(capsys):
    assert run(["color", "--ell", "1", C5]) == 0
    assert capsys.readouterr().out.startswith("palette=3 bound=3")
    assert run(["color", "--ell", "1", K3]) == 2  # family violation
    assert "induced K3" in capsys.readouterr().err
    assert run(["bound", "--k", "4", "--ell", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_patterns_above_the_vertex_cap_are_absent_not_errors(capsys):
    # P4+509P1 has 513 vertices, one more than a graph may have: C5 avoids it
    assert run(["color", "--ell", "509", "--clique", "3", C5]) == 0
    assert capsys.readouterr().out.startswith("palette=3 bound=511")
    assert run(["free", "-p", "P4+600P1", C5]) == 0
    assert capsys.readouterr().out.strip() == "free"
    assert run(["enumerate", "--n", "4", "--free", "P4+600P1"]) == 0
    assert len(capsys.readouterr().out.split()) == 11  # every graph on 4 vertices


def test_a_pattern_count_above_the_limit_exits_2_before_building_parts(capsys):
    assert run(["free", "-p", "P4+1000000000P1", "Dhc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: pattern 'P4+1000000000P1' has 1000000001 parts, above the limit 4096" in captured.err


def test_color_no_verify_outside_the_family_exits_2(capsys):
    assert run(["color", "--ell", "1", "--no-verify", "C~"]) == 2  # K4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: graph is not (P4+P1, K3)-free" in captured.err


def test_color_no_verify_above_the_bound_exits_2(capsys):
    assert run(["color", "--ell", "1", "--no-verify", "DJ["]) == 2  # K1+K4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: graph is not (P4+P1, K3)-free" in captured.err
    assert "above the bound 3" in captured.err


@pytest.mark.parametrize("ell, graph, family", [("1", "DHC", "P4+P1"), ("0", "Ch", "P4")])
def test_color_no_verify_with_a_p4_remainder_exits_2(ell, graph, family, capsys):
    assert run(["color", "--ell", ell, "--no-verify", graph]) == 2  # P4+P1, P4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: graph is not ({family}, K3)-free" in captured.err


def test_critical_k_below_1_exits_2(capsys):
    assert run(["critical", "--k", "0", C5]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "k must be at least 1" in captured.err


def test_malformed_graph6_exits_2(capsys):
    assert run(["chi", "D?"]) == 2
    err = capsys.readouterr().err
    assert "byte offset 2" in err


def test_usage_errors_exit_2(capsys):
    assert run(["nonsense"]) == 2
    assert run(["chi"]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_the_module_form_runs_the_cli(capsys):
    # the module form must run the command, not only import the module
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "critcolor.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    done = module("chi", "Dhc")
    assert done.returncode == run(["chi", "Dhc"]) == 0
    assert done.stdout == capsys.readouterr().out == "chi=3 colouring=1,2,1,2,3\n"
    usage = module("chi")
    assert usage.returncode == 2 and "usage:" in usage.stderr


def test_json_document_shape(capsys):
    assert run(["chi", "--json", C5]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"command", "input", "result", "elapsed_ms"}
    assert doc["input"] == C5
    assert doc["result"]["chi"] == 3
    assert len(doc["result"]["assignment"]) == 5


def test_stdin_batch_preserves_order(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{C5}\n{K3}\n"))
    assert run(["chi", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("chi=3 colouring=1,2,1,2,3")
    assert lines[1].startswith("chi=3 colouring=1,2,3")


def test_stdin_batch_worst_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{C5}\n{P4}\n"))
    assert run(["chi", "--k", "2", "-"]) == 1


def test_stdin_batch_json(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{C5}\n{K3}\n"))
    assert run(["cotree", "--json", "-"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == [C5, K3]
    assert doc["result"][0]["cotree"] is None
    assert doc["result"][1]["cotree"] == "J(0,1,2)"


CRITDB_K4_P4P1 = Path(__file__).parent / "data" / "critdb_k4_n7_p4p1.txt"


@pytest.mark.parametrize("command", [
    ["free", "-p", "P4"],
    ["chi"],
    ["chi", "--k", "2"],
    ["critical", "--k", "3"],
    ["cotree"],
    ["pair"],
    ["color", "--ell", "1"],
    ["certify", "--k", "3", "--db", str(CRITDB_K4_P4P1)],
])
@pytest.mark.parametrize("graph", [C5, K3, PAW, "?"])
def test_a_one_line_batch_prints_what_the_argument_form_prints(command, graph, capsys, monkeypatch):
    def outcome(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    line = f"  {graph}\t\n"  # the reader strips what surrounds a line
    assert outcome([*command, "-"], line) == outcome([*command, graph])
    code, out, err = outcome([*command, "--json", graph])
    batch_code, batch_out, batch_err = outcome([*command, "--json", "-"], line)
    assert (batch_code, batch_err) == (code, err)
    if code == 2:  # an error prints no document
        assert out == batch_out == ""
        return
    single, batch = json.loads(out), json.loads(batch_out)
    assert batch["result"] == [single["result"]]
    assert batch["input"] == [single["input"]] == [graph]


def test_stdin_malformed_line_names_the_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\nDhc\nD~x\n"))
    assert run(["chi", "-"]) == 2
    err = capsys.readouterr().err
    assert "line 3:" in err and "byte offset 2" in err


def test_budget_flag(capsys):
    assert run(["chi", "--budget", "1", C5]) == 2
    assert "budget exhausted" in capsys.readouterr().err
    assert run(["chi", "--budget", "abc", "Dhc"]) == 2
    assert "must be a nonnegative node count, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chi", C5],
    ["critical", "--k", "3", C5],
    ["certify", "--k", "2", "--db", "absent.critdb", C5],
])
def test_negative_budget_is_a_usage_error(argv, capsys):
    assert run([*argv[:-1], "--budget", "-3", argv[-1]]) == 2
    err = capsys.readouterr().err
    assert "--budget" in err and "nonnegative" in err and "budget exhausted" not in err
    # a zero budget is a cap like any other
    if argv[0] != "certify":
        assert run([*argv[:-1], "--budget", "0", argv[-1]]) == 2
        assert "budget exhausted" in capsys.readouterr().err


def test_critical_budget_flag_aborts(capsys):
    assert run(["critical", "--budget", "1", "--k", "4", "Fb]lg"]) == 2
    assert "budget exhausted" in capsys.readouterr().err
    assert run(["critical", "--budget", "100000", "--k", "4", "Fb]lg"]) == 0


def test_certify_budget_flag_aborts(tmp_path, capsys):
    target = tmp_path / "odd.critdb"
    k4 = tmp_path / "k4.critdb"
    assert run(["enumerate", "--n", "5", "--critical", "3", "--db", str(target)]) == 0
    assert run(["enumerate", "--n", "5", "--critical", "4", "--db", str(k4)]) == 0
    capsys.readouterr()
    # G?K}fC is 3-colourable, but its greedy colouring needs 4 colours; the
    # K4 search spends 12 nodes and the colouring search 16
    for graph, k, db, budget in ((GREEDY_NEEDS_4, "3", k4, "20"), (C5, "2", target, "1")):
        # the colouring search, then the member check
        assert run(["certify", "--budget", budget, "--k", k, "--db", str(db), graph]) == 2
        assert "budget exhausted" in capsys.readouterr().err
    assert run(["certify", "--budget", "28", "--k", "3", "--db", str(k4), GREEDY_NEEDS_4]) == 0
    assert run(["certify", "--budget", "100000", "--k", "2", "--db", str(target), C5]) == 1
    # a greedy 2-colouring of P4 is the certificate: no node is spent
    assert run(["certify", "--budget", "0", "--k", "2", "--db", str(target), P4]) == 0


def test_certify_budget_caps_the_pattern_searches(capsys, monkeypatch):
    from pathlib import Path

    from critcolor import chroma, critical

    # K12,12,12 is P4-free: the family check and every member search would
    # run to the end before the colouring search spent its first node
    k12_12_12 = to_graph6(from_edges(36, [(u, v) for v in range(36) for u in range(v) if u // 12 != v // 12]))
    db = Path(__file__).parent / "data" / "critdb_k4_n7_p4p1.txt"
    spent, searches = [], []
    real_spend, real_search = chroma._Budget.spend, critical.find_induced_subgraph
    monkeypatch.setattr(chroma._Budget, "spend", lambda self: spent.append(1) or real_spend(self))
    monkeypatch.setattr(critical, "find_induced_subgraph", lambda *a: searches.append(1) or real_search(*a))
    assert run(["certify", "--budget", "1", "--k", "3", "--db", str(db), k12_12_12]) == 2
    assert "budget exhausted" in capsys.readouterr().err
    assert len(spent) == 2 and searches == []


def test_enumerate_streams_graph6(capsys):
    assert run(["enumerate", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["B?", "BG", "BW", "Bw"]
    assert run(["enumerate", "--n", "4", "--free", "P4", "--connected"]) == 0
    from critcolor.graphs import parse_graph6
    for line in capsys.readouterr().out.strip().splitlines():
        assert parse_graph6(line).n == 4


def test_enumerate_db_needs_critical(tmp_path, capsys):
    target = tmp_path / "x.db"
    assert run(["enumerate", "--n", "3", "--db", str(target)]) == 2
    captured = capsys.readouterr()
    assert "--db" in captured.err and "--critical" in captured.err
    assert captured.out == "" and not target.exists()


def test_enumerate_critical_writes_db(tmp_path, capsys):
    target = tmp_path / "odd.critdb"
    assert run(["enumerate", "--n", "7", "--critical", "3", "--db", str(target)]) == 0
    streamed = capsys.readouterr().out.strip().splitlines()
    db = load_critdb(str(target))
    assert list(db.members) == streamed
    assert db.k == 3 and len(streamed) == 3

    assert run(["certify", "--k", "2", "--db", str(target), P4]) == 0
    assert capsys.readouterr().out.startswith("2-colourable")
    assert run(["certify", "--k", "2", "--db", str(target), C5]) == 1
    assert capsys.readouterr().out.startswith("witness")


def test_certify_missing_db_exits_2(tmp_path, capsys):
    assert run(["certify", "--k", "2", "--db", str(tmp_path / "absent"), P4]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_against_cograph_db(tmp_path, capsys):
    target = tmp_path / "p4free.critdb"
    assert run(["enumerate", "--n", "8", "--critical", "4", "--free", "P4",
                "--db", str(target)]) == 0
    capsys.readouterr()
    k5 = "D~{"
    assert run(["certify", "--k", "3", "--db", str(target), k5]) == 1
    out = capsys.readouterr().out
    assert out.startswith("witness C~")  # the K4 member, in graph6
    assert run(["critical", "--k", "4", "C~"]) == 0
    assert "critical" in capsys.readouterr().out


def _readme_examples() -> list[tuple[list[str], str]]:
    """The ``critcolor`` lines of README's command-line block, in order, as
    (arguments, trailing comment) pairs."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("critcolor "):
            command, _, comment = line.partition("#")
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


def test_readme_command_line_examples_run_as_documented(capsys, tmp_path, monkeypatch):
    # A comment "... -> exit N" gives the exit code; any other comment is the
    # first output line, or a prefix of it when it ends in "...", and the
    # command must succeed.  One directory for all: `enumerate --db` writes
    # the file that `certify` reads.
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) >= 10
    for argv, comment in examples:
        code = run(argv)
        lines = capsys.readouterr().out.splitlines()
        expected_exit = re.search(r"-> exit (\d+)$", comment)
        if expected_exit:
            assert code == int(expected_exit.group(1)), argv
            continue
        assert code == 0, argv
        if comment.endswith("..."):
            assert lines[0].startswith(comment[:-3]), (argv, lines[0])
        elif comment:
            assert lines[0] == comment, (argv, lines[0])
