"""Acceptance gate: one test per criterion, each with its exact expected
values and runtime budget.  Oracles are independent of the code under test
wherever feasible: brute-force membership over the ambient space, exhaustive
matrix stabilizers, and closed-form group orders."""

import time

from loosegeo import autsearch, f1, gfq, matrices, theorems
from loosegeo.permgroup import PermGroup
from loosegeo.scheme import build_scheme, convexity_check, decompose
from conftest import CORPUS, corpus_graph

TREES = ["p3", "p4", "p5", "spider", "fundament"]
ALL_CORPUS = sorted(p.stem for p in CORPUS.glob("*.lg"))


def _clock():
    start = time.monotonic()
    return lambda: time.monotonic() - start


def _brute_toy_points_q2():
    """Membership oracle over the 15 points of PG(3,2), straight from the
    defining support conditions."""
    pts = []
    for p in gfq.projective_points(gfq.get_field(2), 4):
        x, y, ex, ey = p
        in_x = x == 1 and ey == 0
        in_y = y == 1 and ex == 0
        if in_x or in_y:
            pts.append(p)
    return pts


def test_criterion_01_toy_q2():
    elapsed = _clock()
    scheme = build_scheme(corpus_graph("toy"), 2)
    assert scheme.points == sorted(_brute_toy_points_q2())
    assert len(scheme.points) == 7
    proj = autsearch.proj_aut_group(scheme)
    comb = autsearch.comb_aut_group(scheme)
    d, c, q = 2 * 1, 1, 2  # |D| = q(q-1), |C| = q-1
    assert proj.order == comb.order == d * d * c * 2 == 8
    assert proj.perm_group.same_group(comb.perm_group)
    assert elapsed() < 5
    print("CRITERION 1: PASS")


def test_criterion_02_toy_q3():
    elapsed = _clock()
    scheme = build_scheme(corpus_graph("toy"), 3)
    assert len(scheme.points) == 16
    proj = autsearch.proj_aut_group(scheme)
    assert proj.order == 144
    assert elapsed() < 300
    print("CRITERION 2: PASS")


def test_criterion_03_functoriality():
    elapsed = _clock()
    rep = theorems.verify("functoriality", None, 2)
    assert rep.verdict == "pass", rep.witnesses
    assert rep.quantities["total_pairs"] >= rep.quantities["exhaustive_pairs"] + 100
    assert elapsed() < 10
    print("CRITERION 3: PASS")


def test_criterion_04_tree_corpus():
    elapsed = _clock()
    checks = ("kernel-trivial", "inner-tree", "cenprod", "autcomb-eq", "mttrees")
    for name in TREES:
        graph = corpus_graph(name)
        for q in (2, 3):
            ctx = theorems.Context(graph, q, name)
            for check in checks:
                rep = theorems.verify(check, graph, q, name, context=ctx)
                assert rep.verdict != "fail", (name, q, check, rep.quantities)
    assert elapsed() < 600
    print("CRITERION 4: PASS")


def test_criterion_05_roots_and_fundaments_q2():
    elapsed = _clock()
    roots = autsearch.enumerate_roots(2)
    assert roots["transitive"] and roots["count"] == 5040
    funds = autsearch.enumerate_fundaments(2)
    assert funds["transitive"] and funds["count"] == 5040
    assert elapsed() < 60
    print("CRITERION 5: PASS")


def test_criterion_06_convexity():
    for name in ("p3", "p4"):
        for q in (2, 3):
            rep = convexity_check(build_scheme(corpus_graph(name), q))
            assert rep["ok"], rep["failures"]
    print("CRITERION 6: PASS")


def _oracle_perm_group(scheme):
    """Stabilizer by exhaustive matrix enumeration, as a permutation group."""
    perms = [
        autsearch.collineation_point_perm(scheme, autsearch.Collineation(M))
        for M in autsearch.exhaustive_stabilizer(scheme)
    ]
    return PermGroup(perms, len(scheme.points))


def test_criterion_07_gamma_graphs_q2():
    for name, sizes, igp_expected, order in (
        ("gamma1", (12, 2, 1), True, 8),
        ("gamma2", (14, 1, 0), False, 192),
    ):
        scheme = build_scheme(corpus_graph(name), 2)
        rep = decompose(scheme)
        assert rep["sizes"] == sizes and rep["disjoint"]
        assert sum(sizes) == rep["ambient_size"] == 15
        proj = autsearch.proj_aut_group(scheme)
        assert proj.order == order
        assert proj.perm_group.same_group(_oracle_perm_group(scheme))
        igp = autsearch.inner_graph_property(scheme, proj.perms)
        assert igp["holds"] is igp_expected
    print("CRITERION 7: PASS")


def test_criterion_08_degenerate_base_layer():
    for n in range(11):
        assert len(f1.spec_points(n).points) == 2 ** n
    for m in range(5):
        assert f1.proj_c_closed_point_count(m) == gfq.pg_size(2, m + 1)
    print("CRITERION 8: PASS")


def test_criterion_09_rule_suite():
    for name in ALL_CORPUS:
        for q in (2, 3):
            rep = theorems.check_rules(corpus_graph(name), q, name)
            assert rep.verdict == "pass", (name, q, rep.witnesses)
    print("CRITERION 9: PASS")


def test_criterion_10_q4_quotients_report_only():
    for name in ["toy"] + TREES:
        rep = theorems.verify("lemfield-quotient", corpus_graph(name), 4, name)
        # report-only: neither reading is asserted, both are published
        assert rep.verdict == "pass"
        print(
            f"CRITERION 10 report [{name}, q=4]: quotient={rep.quantities['quotient']}"
            f" |k^x|={rep.quantities['multiplicative_group']}"
            f" |Aut(F4)|={rep.quantities['field_automorphisms']}"
        )
    print("CRITERION 10: PASS")
