import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from loosegeo import autsearch, cli, permgroup
from loosegeo.cli import main
from loosegeo.scheme import MAX_POINTS
from loosegeo.theorems import TheoremReport
from conftest import CORPUS


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_points_text(capsys):
    code, out, _ = run(capsys, "points", CORPUS / "toy.lg", "-q", 2)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["x", "y", "lx#1", "ly#1"]
    assert len(lines) == 8  # header plus 7 points


def test_points_json_extension(capsys):
    code, out, _ = run(capsys, "points", CORPUS / "toy.lg", "-q", 2, "--ext", 2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"q": 2, "ext": 2, "count": 29}


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", CORPUS / "k3.lg", "--json", "-q", 2, "-q", 3)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"2": 7, "3": 13}
    assert payload["polynomial"] == ["1", "1", "1"]


def test_aut_json(capsys):
    code, out, _ = run(capsys, "aut", CORPUS / "toy.lg", "-q", 2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["projective_order"] == 8
    assert payload["combinatorial_order"] == 8
    assert payload["equal"] is True


def test_aut_json_reports_search_counters(capsys):
    code, out, _ = run(capsys, "aut", CORPUS / "k3.lg", "-q", 2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["combinatorial_order"] == payload["projective_order"] == 168
    # PGL(3, 2) is not cyclic; each generator kept lies outside the group of
    # the earlier ones, so there are at most log2(168) < 8 of them
    assert 2 <= payload["combinatorial_generators"] <= 7
    # the first path alone maps each of the 7 points
    assert payload["combinatorial_search_nodes"] >= 7


def test_lines_command(capsys):
    code, out, _ = run(capsys, "lines", CORPUS / "toy.lg", "-q", 2)
    assert code == 0
    assert "11 lines total" in out


def test_matrix_and_kernel(capsys):
    code, out, _ = run(capsys, "matrix", CORPUS / "morphism_contract.lgm", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["injective"] is False
    code, out, _ = run(capsys, "kernel", CORPUS / "morphism_contract.lgm", "-q", 2)
    assert code == 0
    assert "kernel points" in out


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "ddc", CORPUS / "toy.lg", "-q", 2)
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "igp", CORPUS / "gamma2.lg", "-q", 2,
                       "--expected", "true")
    assert code == 1 and out.startswith("FAIL")


def test_verify_skip_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "cenprod", CORPUS / "p3.lg", "-q", 2)
    assert code == 0 and out.startswith("SKIP")


def test_bad_input_exits_two(capsys):
    code, out, err = run(capsys, "points", "no_such_file.lg")
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "verify", "ddc", CORPUS / "p4.lg", "-q", 2)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command", ["matrix", "kernel"])
def test_bad_morphism_exits_two(tmp_path, capsys, command):
    bad = tmp_path / "bad.lgm"
    bad.write_text("nonsense\n")
    stray = tmp_path / "stray.lgm"
    stray.write_text(f"source {CORPUS / 'p4.lg'}\ntarget {CORPUS / 'p3.lg'}\n"
                     "vmap a a\nvmap b b\nvmap c b\nvmap d c\nvmap zz a\n"
                     "emap ab ab\nemap bc @b\nemap cd bc\n")
    for path in (tmp_path / "missing.lgm", bad, stray):
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == "" and err.startswith("error:")


def test_unknown_check_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "fermat", CORPUS / "toy.lg")
    assert exc.value.code == 2


def test_suite_on_mini_manifest(tmp_path, capsys):
    manifest = tmp_path / "mini.txt"
    manifest.write_text(f"graph {CORPUS / 'toy.lg'} ddc,decompose q=2\n")
    code, out, _ = run(capsys, "suite", manifest)
    assert code == 0
    assert "2 checks, 0 failed" in out


@pytest.mark.parametrize("ext", [0, -1])
def test_points_rejects_extension_below_one(capsys, ext):
    code, out, err = run(capsys, "points", CORPUS / "toy.lg", "-q", 2, "--ext", ext)
    assert code == 2
    assert out == "" and err == f"error: extension degree must be at least 1, got {ext}\n"


def test_aut_refuses_a_lift_space_beyond_the_bound(tmp_path, capsys):
    graph = tmp_path / "p4ve.lg"
    graph.write_text((CORPUS / "p4.lg").read_text() + "edge l a -\nedge v1 - -\nedge v2 - -\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "aut", graph, "-q", 2)
    assert time.perf_counter() - start < 30
    assert code == 2 and out == ""
    assert err.startswith("error: the lifts of the identity form a space of dimension 21:")
    assert err.endswith(f"more than the bound {autsearch.MAX_LIFT_CANDIDATES}\n")


def test_aut_refuses_a_search_beyond_the_node_bound(monkeypatch, capsys):
    monkeypatch.setattr(permgroup, "MAX_SEARCH_NODES", 50)
    code, out, err = run(capsys, "aut", CORPUS / "toy.lg", "-q", 3)
    assert code == 2 and out == ""
    assert err == "error: the automorphism search accepted 51 nodes, more than the bound 50\n"


def test_decompose_refuses_an_ambient_space_beyond_the_bound(tmp_path, capsys):
    """Six vertexless edges have only 6(q - 1) points, but PG(11, 4) has
    5,592,405: the decomposition, which lists the ambient space, is refused
    before any listing."""
    graph = tmp_path / "six.lg"
    graph.write_text("".join(f"edge e{i} - -\n" for i in range(6)))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "decompose", graph, "-q", 4)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert err == ("error: PG(11, 4) has 5592405 points, "
                   f"more than the bound {MAX_POINTS} for a decomposition\n")


def test_central_product_reports_are_json(tmp_path, capsys):
    manifest = tmp_path / "mini.txt"
    manifest.write_text(f"graph {CORPUS / 'toy.lg'} thmcp q=2\n"
                        f"graph {CORPUS / 'p4.lg'} cenprod q=2\n")
    code, out, _ = run(capsys, "suite", manifest, "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["theorem"] for r in reports] == ["thmcp", "cenprod"]
    for r in reports:
        assert r["quantities"]["overlaps"]
        for overlap in r["quantities"]["overlaps"]:
            assert set(overlap) == {"factors", "order"}
    # p3 has one inner vertex, so cenprod skips there; p4 reports overlaps
    for graph in ("p3", "p4"):
        code, out, _ = run(capsys, "verify", "cenprod", CORPUS / f"{graph}.lg", "-q", 2, "--json")
        assert code == 0
        json.loads(out)


def test_json_reports_carry_their_wall_time(tmp_path, capsys):
    manifest = tmp_path / "mini.txt"
    manifest.write_text(f"graph {CORPUS / 'toy.lg'} ddc,toy-equal q=2\n")
    code, out, _ = run(capsys, "suite", manifest, "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 2
    for r in reports:
        assert isinstance(r["seconds"], float) and r["seconds"] >= 0
        assert "seconds" not in r["quantities"]
    code, out, _ = run(capsys, "verify", "ddc", CORPUS / "toy.lg", "-q", 2, "--json")
    payload = json.loads(out)
    assert isinstance(payload["seconds"], float) and payload["seconds"] >= 0
    # the text output stays as it was: no timings
    for argv in (("suite", manifest), ("verify", "ddc", CORPUS / "toy.lg", "-q", 2)):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "second" not in out


def test_collineation_witnesses_are_json_data(capsys):
    code, out, _ = run(capsys, "verify", "kernel-trivial", CORPUS / "ve.lg", "-q", 3, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["witnesses"] == [{"matrix": [[0, 1], [1, 0]], "frob": 0}]


@pytest.mark.parametrize("check,q", [("transroot", 5), ("transfund", 4)])
def test_configuration_checks_refuse_large_q_at_once(capsys, check, q):
    start = time.monotonic()
    code, out, err = run(capsys, "verify", check, "-q", q)
    assert time.monotonic() - start < 1
    assert code == 2
    assert out == "" and err.startswith("error:")


def test_transfund_at_q3_counts_without_listing(capsys):
    # 1,516,320 configurations with ends: listing them would take seconds and
    # hundreds of megabytes; the counts are summed per line pair and the
    # orbit sizes read off a stabilizer chain
    start = time.monotonic()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "transfund", "-q", 3, "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 5
    assert peak < 16 * 2**20
    assert code == 0
    quantities = json.loads(out)["quantities"]
    assert quantities == {
        "plain": {"count": 168480, "orbit_size": 168480, "transitive": True},
        "with_ends": {"count": 1516320, "orbit_size": 1516320, "transitive": True},
    }


def test_failed_check_prints_its_reason(capsys):
    code, out, _ = run(capsys, "verify", "inner-tree", CORPUS / "k3.lg")
    assert code == 1
    assert out.splitlines()[0] == (
        f"FAIL  inner-tree [{CORPUS / 'k3.lg'}, q=2]"
        "  # an element moves an inner basis point off the basis"
    )


def test_failed_check_prints_its_witnesses(capsys, monkeypatch):
    def failed(check, graph, q, name, options):
        return TheoremReport(check, name, q, "fail", {"secant_lines": 6}, [("cov", 0, 5), (1, 2)])

    monkeypatch.setattr(cli.theorems, "verify", failed)
    code, out, _ = run(capsys, "verify", "rules", CORPUS / "toy.lg")
    assert code == 1
    assert out.splitlines()[1:] == ["  secant_lines: 6", "  witness: ('cov', 0, 5)", "  witness: (1, 2)"]


@pytest.mark.parametrize("graph,q,order", [("gamma2", 4, 552960), ("k3", 5, 372000)])
def test_aut_reaches_large_groups(capsys, graph, q, order):
    # listing either group would take seconds and hundreds of megabytes; `aut` reads the chains
    start = time.monotonic()
    code, out, _ = run(capsys, "aut", CORPUS / f"{graph}.lg", "-q", q, "--json")
    assert time.monotonic() - start < 5
    assert code == 0
    payload = json.loads(out)
    assert payload["projective_order"] == payload["combinatorial_order"] == order
    assert payload["equal"] is True


@pytest.mark.parametrize("argv", [
    ("verify", "rules", CORPUS / "spider.lg", "-q", 3),
    ("lines", CORPUS / "toy.lg", "-q", 3),
])
def test_output_is_the_same_without_asserts(argv):
    """`python -O` strips assert statements, so no check on the counting
    path may rely on one: the exit code and output must not change."""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys; from loosegeo.cli import main; sys.exit(main(sys.argv[1:]))"
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", code, *map(str, argv)],
                       capture_output=True, text=True, env=env, timeout=120)
        for flags in ((), ("-O",))
    )
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)


def test_verify_rejects_a_bad_truth_value(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "igp", CORPUS / "gamma2.lg", "-q", 2, "--expected", "maybe")
    assert exc.value.code == 2
    assert "maybe" in capsys.readouterr().err
    code, out, _ = run(capsys, "verify", "igp", CORPUS / "gamma2.lg", "-q", 2, "--expected", "no")
    assert code == 0 and out.startswith("PASS")


@pytest.mark.parametrize("option", ["igp_expected=maybe", "q=abc", "q="])
def test_suite_rejects_a_bad_manifest_value(tmp_path, capsys, option):
    manifest = tmp_path / "bad.txt"
    manifest.write_text(f"graph {CORPUS / 'gamma2.lg'} igp {option}\n")
    code, out, err = run(capsys, "suite", manifest)
    assert code == 2 and out == "" and err.startswith("error: line 1: ")


@pytest.mark.parametrize("argv", [
    ("--json", "points", CORPUS / "toy.lg"),
    ("points", CORPUS / "toy.lg", "--json"),
    ("--json", "points", CORPUS / "toy.lg", "--json"),
])
def test_json_is_read_before_or_after_the_command(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["coordinates"] == ["x", "y", "lx#1", "ly#1"]
    code, out, _ = run(capsys, "points", CORPUS / "toy.lg")
    assert out.startswith("x y lx#1 ly#1\n")


def test_suite_and_verify_json_carry_every_report_field(tmp_path, capsys):
    manifest = tmp_path / "mini.txt"
    manifest.write_text(f"graph {CORPUS / 'gamma2.lg'} igp q=2\n"
                        f"graph {CORPUS / 'p3.lg'} cenprod q=2\n")
    code, out, _ = run(capsys, "suite", manifest, "--json")
    assert code == 1
    failed, skipped = json.loads(out)["reports"]
    fields = {"theorem", "graph", "q", "verdict", "quantities", "witnesses", "detail", "seconds"}
    assert set(failed) == set(skipped) == fields
    assert failed["verdict"] == "fail" and failed["witnesses"]
    assert skipped["detail"] == "needs at least two inner vertices"
    code, out, _ = run(capsys, "verify", "igp", CORPUS / "gamma2.lg", "-q", 2, "--json")
    alone = json.loads(out)
    assert code == 1 and set(alone) == fields
    assert alone["witnesses"] == failed["witnesses"]


def test_bad_manifest_or_q_exits_two_before_any_check(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.theorems, "verify", refuse)
    manifest = tmp_path / "bad.txt"
    manifest.write_text(f"global functoriality\ngraph {CORPUS / 'toy.lg'} ddc,ddx\n")
    for argv, message in (
        (("suite", manifest), "error: line 2: unknown check 'ddx'\n"),
        (("suite", CORPUS / "manifest.txt", "-q", 6), "error: q=6 is not a prime power\n"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)
