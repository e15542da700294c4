import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import starline
import zoo
from starline import (
    EdgeColoring,
    atlas,
    canonical_form,
    cli,
    emit_edge_list,
    find_violation,
    parse_coloring,
    star_chromatic_index,
)
from starline.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="graph.txt"):
        path = tmp_path / name
        path.write_text(emit_edge_list(g))
        return str(path)

    return write


def last_line(out):
    return out.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# chi
# ----------------------------------------------------------------------

def test_chi_reports_value(run, graph_file):
    code, out, _ = run("chi", graph_file(zoo.complete_bipartite(3, 3)))
    assert code == 0
    assert last_line(out) == "RESULT: 6"


def test_chi_certificate_verifies(run, graph_file, tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run("chi", graph_file(zoo.cube()), "--cert", str(cert_path))
    assert code == 0
    assert last_line(out) == "RESULT: 4"
    coloring = parse_coloring(cert_path.read_text())
    assert find_violation(zoo.cube(), coloring) is None


def test_chi_rejected_certificate_is_an_internal_error(run, graph_file, tmp_path, monkeypatch):
    g = zoo.cube()
    chi, cert = star_chromatic_index(g)
    colors = dict(cert.assignment)
    u = g.edges[0][0]
    colors[0] = colors[next(e for _, e in g.adjacency[u] if e != 0)]  # now improper
    broken = (chi, EdgeColoring(cert.k, colors))
    monkeypatch.setattr(cli, "star_chromatic_index", lambda g, max_k, stats: broken)
    cert_path = tmp_path / "cert.txt"
    code, out, err = run("chi", graph_file(g), "--cert", str(cert_path))
    assert code == 3
    assert "RESULT" not in out
    assert err == "internal error: RuntimeError: solver produced a certificate the verifier rejects\n"
    assert not cert_path.exists()


def test_chi_bounded_search_fails_cleanly(run, graph_file):
    code, out, _ = run("chi", graph_file(zoo.path(5)), "--max-k", "2")
    assert code == 1
    assert last_line(out) == "RESULT: >2"


def test_chi_bounded_search_succeeds(run, graph_file):
    code, out, _ = run("chi", graph_file(zoo.path(5)), "--max-k", "3")
    assert code == 0
    assert last_line(out) == "RESULT: 3"


def test_chi_rejects_negative_max_k(run, graph_file):
    code, out, err = run("chi", graph_file(zoo.path(5)), "--max-k", "-1")
    assert code == 2
    assert "RESULT" not in out
    assert "max_k" in err


@pytest.mark.parametrize("extra", [(), ("--json",), ("--max-k", "5")])
def test_chi_stats_go_to_stderr_only(run, graph_file, extra):
    path = graph_file(zoo.prism())
    plain = run("chi", path, *extra)
    first = run("chi", path, *extra, "--stats")
    again = run("chi", path, *extra, "--stats")
    assert first == again  # node counts repeat exactly
    assert first[:2] == plain[:2]  # same exit code and stdout
    assert plain[2] == ""
    lines = first[2].splitlines()
    # chi_s(prism) = 6: k = 3, 4, 5 fail, k = 6 (when allowed) succeeds
    tried = [3, 4, 5] + ([] if "--max-k" in extra else [6])
    assert [line.split()[1] for line in lines] == [f"k={k}" for k in tried]
    verdicts = [line.split()[2] for line in lines]
    assert verdicts == ["infeasible"] * 3 + ["feasible"] * (len(tried) - 3)
    for line in lines:
        assert re.fullmatch(r"stats k=\d+ (in)?feasible nodes=[1-9]\d*", line)


def test_chi_json(run, graph_file):
    code, out, _ = run("chi", graph_file(zoo.complete(4)), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_s"] == 5
    assert payload["n"] == 4
    assert len(payload["coloring"]) == 6
    assert list(payload) == sorted(payload)


def test_chi_reads_stdin(run, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_edge_list(zoo.cycle(4))))
    code, out, _ = run("chi", "-")
    assert code == 0
    assert last_line(out) == "RESULT: 3"


def test_chi_accepts_graph6_content(run, tmp_path):
    path = tmp_path / "k4.g6"
    path.write_text("C~")
    code, out, _ = run("chi", str(path))
    assert code == 0
    assert last_line(out) == "RESULT: 5"


def test_chi_sniffs_graph6_without_suffix(run, tmp_path):
    path = tmp_path / "graph"
    path.write_text("C~")
    code, out, _ = run("chi", str(path))
    assert code == 0
    assert last_line(out) == "RESULT: 5"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_accepts_valid_coloring(run, graph_file, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("0 1\n1 2\n2 1\n")
    code, out, _ = run("verify", graph_file(zoo.path(4)), str(coloring))
    assert code == 0
    assert last_line(out) == "RESULT: OK"


def test_verify_reports_violation(run, graph_file, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("0 1\n1 2\n2 1\n3 2\n")
    code, out, _ = run("verify", graph_file(zoo.path(5)), str(coloring))
    assert code == 1
    assert "violation: bicolored-path" in out
    assert last_line(out).startswith("RESULT: bicolored-path")


def test_verify_rejects_partial_coloring(run, graph_file, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("0 1\n")
    code, _, err = run("verify", graph_file(zoo.path(4)), str(coloring))
    assert code == 2
    assert "partial" in err


def test_verify_json(run, graph_file, tmp_path):
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("0 1\n1 2\n2 1\n3 2\n")
    code, out, _ = run("verify", graph_file(zoo.path(5)), str(coloring), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violation"]["kind"] == "bicolored-path"
    assert sorted(payload["violation"]["edges"]) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# mad / girth
# ----------------------------------------------------------------------

def test_mad_exact_output(run, graph_file):
    code, out, _ = run("mad", graph_file(zoo.complete(4)))
    assert code == 0
    assert last_line(out) == "RESULT: 3/1"
    assert "witness: 0 1 2 3" in out


def test_mad_json(run, graph_file):
    code, out, _ = run("mad", graph_file(zoo.path(4)), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mad"] == "3/2"


def test_girth_finite_and_infinite(run, graph_file):
    code, out, _ = run("girth", graph_file(zoo.petersen()))
    assert (code, last_line(out)) == (0, "RESULT: 5")
    code, out, _ = run("girth", graph_file(zoo.path(6)))
    assert (code, last_line(out)) == (0, "RESULT: inf")


def test_girth_json_infinite_is_null(run, graph_file):
    _, out, _ = run("girth", graph_file(zoo.path(6)), "--json")
    assert json.loads(out)["girth"] is None


# ----------------------------------------------------------------------
# audit / discharge / covers-cube
# ----------------------------------------------------------------------

def test_audit_pass(run, graph_file):
    code, out, _ = run("audit", graph_file(zoo.complete_bipartite(3, 3)))
    assert code == 0
    assert last_line(out) == "RESULT: PASS (18 predicates)"


def test_audit_fail_lists_witnesses(run, graph_file):
    code, out, _ = run("audit", graph_file(zoo.path(5)))
    assert code == 1
    assert last_line(out) == "RESULT: FAIL (3 predicates)"
    assert "L-deg1(a)" in out
    assert "witnesses=" in out


def test_audit_json(run, graph_file):
    code, out, _ = run("audit", graph_file(zoo.path(5)), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert len(payload["checks"]) == 18


def test_discharge_nonnegative(run, graph_file):
    code, out, _ = run("discharge", graph_file(zoo.diamond()))
    assert code == 0
    assert "R3: 0 -> 2  1/5" in out
    assert last_line(out) == "RESULT: nonnegative"


def test_discharge_negative(run, graph_file):
    code, out, _ = run("discharge", graph_file(zoo.cycle(5)))
    assert code == 1
    assert "flag: bad-run:0,1,2,3,4" in out
    assert last_line(out) == "RESULT: negative (5 vertices, 0 pools)"


def test_discharge_json_conserves(run, graph_file):
    _, out, _ = run("discharge", graph_file(zoo.diamond()), "--json")
    payload = json.loads(out)
    assert payload["conserved"] is True
    assert payload["total"] == "2/5"
    assert len(payload["transfers"]) == 4


def test_covers_cube_positive(run, graph_file):
    code, out, _ = run("covers-cube", graph_file(zoo.cube()))
    assert code == 0
    assert "0 -> 0" in out
    assert last_line(out) == "RESULT: COVERS"


def test_covers_cube_negative(run, graph_file):
    code, out, _ = run("covers-cube", graph_file(zoo.complete(4)))
    assert code == 1
    assert last_line(out) == "RESULT: NONE"


# ----------------------------------------------------------------------
# enumerate / sweep / critical
# ----------------------------------------------------------------------

def test_enumerate_lists_graphs(run):
    code, out, _ = run("enumerate", "--max-n", "4")
    assert code == 0
    assert last_line(out) == "RESULT: 10 graphs"
    assert out.splitlines()[0].startswith("0: n=1 m=0")


def test_enumerate_prints_each_class_as_its_decoded_form(run):
    code, out, _ = run("enumerate", "--max-n", "3", "--mode", "multi")
    assert code == 0
    assert out == (
        "0: n=1 m=0 edges=\n"
        "1: n=2 m=1 edges=0-1\n"
        "2: n=2 m=2 edges=0-1 0-1\n"
        "3: n=2 m=3 edges=0-1 0-1 0-1\n"
        "4: n=3 m=2 edges=0-1 0-2\n"
        "5: n=3 m=3 edges=0-1 0-2 1-2\n"
        "6: n=3 m=3 edges=0-1 0-1 0-2\n"
        "7: n=3 m=4 edges=0-1 0-1 0-2 1-2\n"
        "RESULT: 8 graphs\n"
    )


@pytest.mark.parametrize("command", ["enumerate", "sweep", "critical"])
@pytest.mark.parametrize("max_n", ["-1", "13"])
def test_max_n_out_of_range_is_a_usage_error(run, command, max_n):
    code, out, err = run(command, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max_n must be between 0 and")


def test_enumerate_json(run):
    _, out, _ = run("enumerate", "--max-n", "3", "--mode", "multi", "--json")
    payload = json.loads(out)
    assert payload["count"] == 8
    assert {"n": 2, "m": 3, "edges": [[0, 1], [0, 1], [0, 1]]} in payload["graphs"]


def test_sweep_pass(run, tmp_path):
    cache = tmp_path / "sweep.cache"
    code, out, _ = run("sweep", "--max-n", "5", "--cache", str(cache))
    assert code == 0
    assert last_line(out) == "RESULT: PASS (20 graphs)"
    assert cache.exists()


def test_sweep_uses_env_cache(run, tmp_path, monkeypatch):
    cache = tmp_path / "env.cache"
    monkeypatch.setenv("STARLINE_CACHE", str(cache))
    code, _, _ = run("sweep", "--max-n", "4")
    assert code == 0
    assert cache.exists()


@pytest.mark.parametrize("spelling", ["env", "option"])
def test_sweep_with_an_empty_cache_path_uses_no_cache(run, tmp_path, monkeypatch, spelling):
    monkeypatch.delenv("STARLINE_CACHE", raising=False)
    _, uncached, _ = run("sweep", "--max-n", "3")
    monkeypatch.chdir(tmp_path)
    if spelling == "env":
        monkeypatch.setenv("STARLINE_CACHE", "")
        argv = ("sweep", "--max-n", "3")
    else:
        argv = ("sweep", "--max-n", "3", "--cache", "")
    code, out, err = run(*argv)
    assert (code, out, err) == (0, uncached, "")
    assert last_line(out) == "RESULT: PASS (4 graphs)"
    assert list(tmp_path.iterdir()) == []


def test_sweep_check_selection(run):
    code, out, _ = run("sweep", "--max-n", "4", "--check", "thm13a,main5")
    assert code == 0
    assert "check thm13a" in out
    assert "conj6" not in out


def test_sweep_warns_on_corrupt_cache(run, tmp_path):
    cache = tmp_path / "sweep.cache"
    run("sweep", "--max-n", "4", "--cache", str(cache))
    lines = cache.read_text().splitlines()
    lines[2] = "junk"
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = run("sweep", "--max-n", "4", "--cache", str(cache))
    assert code == 0
    assert "warning:" in err
    assert last_line(out) == "RESULT: PASS (10 graphs)"


def test_sweep_skips_a_non_ascii_cache_line(run, tmp_path):
    cache = tmp_path / "sweep.cache"
    run("sweep", "--max-n", "5", "--cache", str(cache))
    with open(cache, "ab") as fh:
        fh.write(b"\xff\xfe junk\n")
    code, out, err = run("sweep", "--max-n", "5", "--cache", str(cache))
    assert code == 0
    assert err == f"warning: {cache}:22: not ASCII, skipped\n"
    assert last_line(out) == "RESULT: PASS (20 graphs)"


def test_printed_counterexample_reruns_through_chi(run, tmp_path, monkeypatch):
    monkeypatch.delenv("STARLINE_CACHE", raising=False)
    monkeypatch.setitem(atlas._CHI_BOUNDS, "conj6", 4)
    _, out, _ = run("sweep", "--max-n", "5", "--check", "conj6")
    found = re.findall(r"counterexample ([0-9a-f]+): chi_s=(\d+) exceeds 4", out)
    assert found
    for hexform, chi in found:
        path = tmp_path / "found.canon"
        path.write_text(hexform + "\n")
        code, out, _ = run("chi", str(path))
        assert code == 0
        assert last_line(out) == f"RESULT: {chi}"


@pytest.mark.parametrize("text", ["zz", "0301", "0204", "0201 0201", ""])
def test_malformed_canonical_input_is_a_usage_error(run, tmp_path, text):
    path = tmp_path / "bad.canon"
    path.write_text(text)
    code, out, err = run("chi", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sweep_json(run):
    _, out, _ = run("sweep", "--max-n", "4", "--json")
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["graphs"] == 10
    assert {c["name"] for c in payload["checks"]} == {"thm13a", "conj6", "main5", "cube-equiv"}


def test_critical_reports_findings(run):
    code, out, _ = run("critical", "--max-n", "6")
    assert code == 0
    assert last_line(out) == "RESULT: 3 critical graphs"
    assert "lemma audit: pass" in out


def test_critical_json(run):
    _, out, _ = run("critical", "--max-n", "5", "--mode", "multi", "--json")
    payload = json.loads(out)
    assert payload["count"] == 1
    finding = payload["findings"][0]
    assert (finding["n"], finding["m"]) == (5, 7)
    assert finding["lemmas_pass"] is True
    assert finding["charge_nonnegative"] is True
    assert len(finding["deletion_chi"]) == 5


@pytest.fixture
def misreport(monkeypatch):
    """Make the sweep solver report ``chi`` for the class of ``g`` only."""
    monkeypatch.delenv("STARLINE_CACHE", raising=False)
    solve = atlas._solve_graph

    def install(g, chi):
        target = canonical_form(g)

        def solve_one(h):
            density, real_chi = solve(h)
            return density, chi if canonical_form(h) == target else real_chi

        monkeypatch.setattr(atlas, "_solve_graph", solve_one)

    return install


def test_sweep_counterexample_fails(run, misreport):
    misreport(zoo.cycle(5), 6)  # mad 2 is below 12/5
    code, out, _ = run("sweep", "--max-n", "5", "--jobs", "1")
    assert code == 1
    assert "check main5: 14 checked, 1 counterexamples" in out
    assert f"counterexample {canonical_form(zoo.cycle(5)).hex()}: mad=2 below 12/5 but chi_s=6" in out
    assert last_line(out) == "RESULT: FAIL (1 counterexamples)"


def test_sweep_conj6_counterexample_is_only_reported(run, misreport):
    misreport(zoo.diamond(), 7)  # mad 5/2 is not below 12/5
    code, out, _ = run("sweep", "--max-n", "5", "--jobs", "1")
    assert code == 0
    assert "check conj6: 20 checked, 1 counterexamples" in out
    assert "check main5: 14 checked, 0 counterexamples" in out
    assert last_line(out) == "RESULT: PASS (20 graphs, conj6: 1 reported)"


def test_sweep_solver_error_is_an_internal_error(run, monkeypatch):
    monkeypatch.delenv("STARLINE_CACHE", raising=False)

    def broken(g):
        raise RuntimeError("no star coloring found")

    monkeypatch.setattr(atlas, "_solve_graph", broken)
    code, out, err = run("sweep", "--max-n", "4", "--jobs", "1")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: no star coloring found\n"


def test_sweep_partial_certificate_is_an_internal_error(run, monkeypatch):
    monkeypatch.delenv("STARLINE_CACHE", raising=False)
    solve = atlas.star_chromatic_index

    def partial(g):
        chi, cert = solve(g)
        return chi, EdgeColoring(cert.k, {e: c for e, c in cert.assignment.items() if e})

    monkeypatch.setattr(atlas, "star_chromatic_index", partial)
    code, out, err = run("sweep", "--max-n", "3", "--jobs", "1")
    assert code == 3
    assert err == "internal error: RuntimeError: solver produced a certificate the verifier rejects\n"


def test_critical_failed_lemma_audit_fails(run, monkeypatch):
    failing = atlas.lemma_audit(zoo.path(5))
    assert not failing.all_pass
    monkeypatch.setattr(atlas, "lemma_audit", lambda g: failing)
    code, out, _ = run("critical", "--max-n", "5", "--mode", "multi")
    assert code == 1
    assert "lemma audit: FAIL" in out
    assert last_line(out) == "RESULT: 1 critical graphs"


def test_critical_accepts_a_huge_palette(run):
    code, out, _ = run("critical", "--max-n", "5", "--k", "1000000000000")
    assert code == 0
    assert last_line(out) == "RESULT: 0 critical graphs"


def test_readme_documents_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Subcommands\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^### ([\w-]+):", section, flags=re.MULTILINE)
    sub = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert documented == list(sub.choices)


def _readme_examples(subcommands):
    """Each ``$ starline <subcommand> ...`` example in the README's shell
    blocks, as its argument list and the output lines it documents."""
    examples = []
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    for block in blocks:
        for example in re.split(r"^(?=\$ )", block, flags=re.M):
            if not example.startswith("$ starline "):
                continue
            command, *shown = example.strip().splitlines()
            argv = shlex.split(command)[2:]
            if argv[0] in subcommands:
                examples.append((argv, shown))
    return examples


ATLAS_EXAMPLES = _readme_examples(("enumerate", "sweep", "critical"))


def test_readme_shows_each_atlas_subcommand():
    assert sorted(argv[0] for argv, _ in ATLAS_EXAMPLES) == ["critical", "enumerate", "sweep"]


@pytest.mark.parametrize("argv,shown", ATLAS_EXAMPLES, ids=[a[0] for a, _ in ATLAS_EXAMPLES])
def test_readme_example_output(run, tmp_path, monkeypatch, argv, shown):
    """The documented lines: the last one after ``| tail -1``, the ones
    before ``...``, or else the whole output."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STARLINE_CACHE", raising=False)
    if "|" in argv:
        assert argv[argv.index("|"):] == ["|", "tail", "-1"]
        code, out, _ = run(*argv[: argv.index("|")])
        printed = out.splitlines()[-1:]
    elif "..." in shown:
        shown = shown[: shown.index("...")]
        code, out, _ = run(*argv)
        printed = out.splitlines()[: len(shown)]
    else:
        code, out, _ = run(*argv)
        printed = out.splitlines()
    assert code == 0
    assert printed == shown


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------

def test_missing_file_is_usage_error(run):
    code, _, err = run("chi", "/nonexistent/graph.txt")
    assert code == 2
    assert "error:" in err


def test_malformed_graph_is_usage_error(run, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 0\n")
    code, _, err = run("chi", str(path))
    assert code == 2
    assert "loop" in err


def test_empty_input_is_usage_error(run, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert run("chi", str(path))[0] == 2


def test_unknown_subcommand_is_usage_error(run):
    assert run("paint")[0] == 2


def test_unknown_flag_is_usage_error(run, graph_file):
    assert run("chi", graph_file(zoo.path(3)), "--fast")[0] == 2


def test_missing_required_argument_is_usage_error(run):
    assert run("enumerate")[0] == 2


def test_runs_are_deterministic(run, graph_file):
    path = graph_file(zoo.prism())
    first = run("chi", path)
    second = run("chi", path)
    assert first == second


def test_module_entry_point(graph_file):
    # the child interpreter must import the same package as this one, also
    # when only pytest's own path setting put it on sys.path
    src = os.path.dirname(os.path.dirname(starline.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "starline", "girth", graph_file(zoo.cycle(5))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "RESULT: 5"
