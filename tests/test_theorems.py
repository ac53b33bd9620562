import pytest

from loosegeo import autsearch, formats, matrices, theorems
from loosegeo.graphs import LooseMorphism
from loosegeo.permgroup import PermGroup
from conftest import CORPUS, corpus_graph
from test_scheme import count_calls


def test_verify_rejects_unknown_check():
    with pytest.raises(ValueError):
        theorems.verify("fermat", corpus_graph("toy"), 2)


def test_verify_requires_graph_for_local_checks():
    with pytest.raises(ValueError):
        theorems.verify("ddc", None, 2)


def test_global_checks_need_no_graph():
    rep = theorems.verify("transroot", None)
    assert (rep.q, rep.verdict, rep.quantities["count"]) == (2, "pass", 5040)


def test_ddc_quantities():
    rep = theorems.verify("ddc", corpus_graph("toy"), 3, "toy")
    assert rep.verdict == "pass"
    assert rep.quantities["D"] == 6
    assert rep.quantities["C"] == 2
    assert rep.quantities["order"] == 144
    # the loose edges written end first: their fresh ends sit in slot 0
    slot0 = formats.parse_graph("vertex x\nvertex y\nedge xy x y\nedge lx - x\nedge ly - y\n")
    assert theorems._toy_shape(corpus_graph("toy")) == ("x", "y", "lx#1", "ly#1")
    assert theorems._toy_shape(slot0) == ("x", "y", "lx#0", "ly#0")
    again = theorems.verify("ddc", slot0, 3, "toy")
    assert (again.verdict, again.quantities) == (rep.verdict, rep.quantities)


def test_ddc_rejects_wrong_shape():
    with pytest.raises(ValueError):
        theorems.verify("ddc", corpus_graph("p4"), 2)


def test_thmcp_factors():
    rep = theorems.verify("thmcp", corpus_graph("toy"), 3, "toy")
    assert rep.verdict == "pass"
    assert rep.quantities["A"] == 12
    assert rep.quantities["B"] == 6
    assert rep.quantities["fixing_group"] == 72


def test_single_inner_vertex_checks_skip():
    for check in ("cenprod", "inner-tree", "mttrees", "autcomb-eq", "igp"):
        rep = theorems.verify(check, corpus_graph("p3"), 2, "p3")
        assert rep.verdict == "skip"
        assert "inner" in rep.detail


def test_mttrees_rejects_non_tree():
    with pytest.raises(ValueError):
        theorems.verify("mttrees", corpus_graph("gamma1"), 2)


def test_mttrees_factorization_p5():
    rep = theorems.verify("mttrees", corpus_graph("p5"), 3, "p5")
    assert rep.verdict == "pass"
    assert rep.quantities["central_product_order"] == 16
    assert rep.quantities["tree_action_order"] == 2
    assert rep.quantities["order"] == 32


def test_inner_tree_decorations_break_symmetry():
    rep = theorems.verify("inner-tree", corpus_graph("spider"), 2, "spider")
    assert rep.verdict == "pass"
    # the inner path w-c-d has a plain flip, killed by the decorations
    assert rep.quantities["plain_tree_group"] == 2
    assert rep.quantities["decorated_tree_group"] == 1


def test_igp_expected_false_counts_as_pass():
    rep = theorems.verify("igp", corpus_graph("gamma2"), 2, "gamma2",
                          options={"expected": False})
    assert rep.verdict == "pass" and rep.quantities["holds"] is False
    rep = theorems.verify("igp", corpus_graph("gamma2"), 2, "gamma2",
                          options={"expected": True})
    assert rep.verdict == "fail"


def test_lemfield_reports_both_readings():
    rep = theorems.verify("lemfield-quotient", corpus_graph("toy"), 4, "toy")
    assert rep.verdict == "pass"
    assert rep.quantities["quotient"] == 2
    assert rep.quantities["multiplicative_group"] == 3
    assert rep.quantities["field_automorphisms"] == 2


@pytest.mark.parametrize("name", ["ve", "k2"])
@pytest.mark.parametrize("q,quotient", [(4, 2), (8, 3), (9, 2)])
def test_lemfield_quotient_is_the_field_degree(name, q, quotient):
    rep = theorems.verify("lemfield-quotient", corpus_graph(name), q, name)
    assert rep.verdict == "pass"
    assert rep.quantities["quotient"] == rep.quantities["field_automorphisms"] == quotient


def test_lemfield_fails_on_a_wrong_linear_order(monkeypatch):
    # a planted linear part that is the whole group: quotient 1, not e = 2
    monkeypatch.setattr(autsearch.ProjAut, "linear_order",
                        property(lambda proj: proj.order))
    rep = theorems.verify("lemfield-quotient", corpus_graph("toy"), 4, "toy")
    assert rep.verdict == "fail"
    assert rep.witnesses == [(1, 2)]


@pytest.mark.parametrize("name", ["p3", "p4", "p5", "spider", "fundament"])
@pytest.mark.parametrize("q", [2, 3])
def test_inner_tree_lists_no_group(name, q, monkeypatch):
    def listed(group):
        raise AssertionError("a group was listed")

    monkeypatch.setattr(PermGroup, "elements", listed)
    rep = theorems.verify("inner-tree", corpus_graph(name), q, name)
    assert rep.verdict == ("skip" if name == "p3" else "pass")


def test_all_morphisms_counts():
    cat = theorems.morphism_catalog()
    point, k2 = cat[0], cat[1]
    assert len(theorems.all_morphisms(point, k2)) == 2
    assert len(theorems.all_morphisms(k2, point)) == 1
    assert len(theorems.all_morphisms(k2, k2)) == 4
    for f in theorems.all_morphisms(cat[3], cat[4]):  # p3 -> k3
        f.validate()


def _functoriality_per_pair(seed=0xF1F1, count=100):
    """The composition law with every pair's three matrices rebuilt by
    `compose_check`: the reference for the matrix table of the check."""
    cat = theorems.morphism_catalog()
    mors = {(i, j): theorems.all_morphisms(g1, g2)
            for i, g1 in enumerate(cat) for j, g2 in enumerate(cat)}
    pairs = [((i, j, k), g, f)
             for i in range(len(cat)) for j in range(len(cat)) for k in range(len(cat))
             for f in mors[(i, j)] for g in mors[(j, k)]]
    exhaustive = len(pairs)
    pairs += [(("random",), g, f) for g, f in theorems.random_composable_pairs(count, seed)]
    witnesses = []
    for tag, g, f in pairs:
        try:
            if not matrices.compose_check(g, f):
                witnesses.append((*tag, f.vmap, g.vmap))
        except ValueError as exc:
            witnesses.append((*tag, f.vmap, g.vmap, str(exc)))
    quantities = {"exhaustive_pairs": exhaustive, "total_pairs": len(pairs), "seed": seed}
    return ("pass" if not witnesses else "fail"), quantities, witnesses[:3]


def _functoriality():
    rep = theorems.verify("functoriality", None, 2)
    return rep.verdict, rep.quantities, rep.witnesses


def test_functoriality_matches_per_pair_reference():
    assert _functoriality() == _functoriality_per_pair() == (
        "pass", {"exhaustive_pairs": 11907, "total_pairs": 12007, "seed": 0xF1F1}, [])


def test_functoriality_catches_a_wrong_vertex_image_in_compose(monkeypatch):
    compose = LooseMorphism.compose

    def wrong(self, other):
        # the first vertex goes to another target vertex: from the one-vertex
        # graph the composite stays a catalog morphism, elsewhere it may be invalid
        h = compose(self, other)
        v = next(iter(h.vmap))
        others = [w for w in h.target.vertices if w != h.vmap[v]]
        if others:
            h.vmap[v] = others[0]
        return h

    monkeypatch.setattr(LooseMorphism, "compose", wrong)
    verdict, quantities, witnesses = _functoriality()
    assert verdict == "fail" and witnesses
    assert len(witnesses[0]) == 5  # a matrix mismatch, not a validation error
    assert (verdict, quantities, witnesses) == _functoriality_per_pair()


def test_functoriality_catches_a_wrong_completion_map(monkeypatch):
    p3 = theorems.morphism_catalog()[3]
    completion_vertex_map = LooseMorphism.completion_vertex_map

    def wrong(self):
        # out of the path a-b-c, a goes to the target's last completion vertex
        out = completion_vertex_map(self)
        if self.source.edges.keys() == p3.edges.keys():
            out["a"] = self.target.completion().names[-1]
        return out

    monkeypatch.setattr(LooseMorphism, "completion_vertex_map", wrong)
    verdict, quantities, witnesses = _functoriality()
    assert verdict == "fail" and witnesses
    assert (verdict, quantities, witnesses) == _functoriality_per_pair()


def test_invalid_composite_is_a_failed_check(monkeypatch):
    compose = LooseMorphism.compose

    def invalid(self, other):
        h = compose(self, other)
        return LooseMorphism(h.source, h.target, {v: "nowhere" for v in h.vmap}, h.emap)

    monkeypatch.setattr(LooseMorphism, "compose", invalid)
    entries = formats.parse_manifest(
        f"global functoriality,transroot q=2\ngraph {CORPUS / 'toy.lg'} ddc q=2\n")
    result = theorems.run_suite(entries, qs=(2,))
    verdicts = [(r.theorem, r.verdict) for r in result["reports"]]
    assert verdicts == [("functoriality", "fail"), ("transroot", "pass"), ("ddc", "pass")]
    witness = result["reports"][0].witnesses[0]
    assert "not a target vertex" in witness[-1]


def test_functoriality_builds_each_catalog_matrix_once(monkeypatch):
    cat = theorems.morphism_catalog()
    morphisms = sum(len(theorems.all_morphisms(a, b)) for a in cat for b in cat)
    assert morphisms == 219
    calls = []
    global_matrix = matrices.global_matrix

    def counted(morphism):
        calls.append(morphism)
        return global_matrix(morphism)

    monkeypatch.setattr(matrices, "global_matrix", counted)
    assert theorems.verify("functoriality", None, 2).verdict == "pass"
    # the catalog's morphisms once, then three per random pair
    assert len(calls) <= morphisms + 3 * 100


def test_functoriality_effort(monkeypatch):
    # compose builds its composite's maps once, without LooseMorphism.__init__;
    # products are computed once per pair of distinct matrices
    inits = count_calls(monkeypatch, ["__init__"], owner=LooseMorphism)
    calls = count_calls(monkeypatch, ["mat_mul"])
    assert theorems.verify("functoriality", None, 2).verdict == "pass"
    assert inits["__init__"] <= 219 + 2 * 100, inits  # the catalog, then f and g per random pair
    assert calls["mat_mul"] == 1618 + 100, calls


def test_random_pairs_are_deterministic():
    a = theorems.random_composable_pairs(count=5, seed=11)
    b = theorems.random_composable_pairs(count=5, seed=11)
    for (g1, f1), (g2, f2) in zip(a, b):
        assert f1.vmap == f2.vmap and f1.emap == f2.emap
        assert g1.vmap == g2.vmap and g1.emap == g2.emap


def test_rules_all_pass_on_toy_and_ve():
    for name in ("toy", "ve"):
        for q in (2, 3):
            rep = theorems.check_rules(corpus_graph(name), q, name)
            assert rep.verdict == "pass", rep.witnesses


@pytest.mark.parametrize("name", ["f", "__cov__", "cov0"])
def test_rules_pass_whatever_the_edges_are_named(name):
    # the monotonicity rule adds a loose edge, under a name no edge has
    graph = formats.parse_graph(f"vertex a\nvertex b\nedge e a b\nedge {name} a -\n")
    rep = theorems.check_rules(graph, 2, "g")
    assert rep.verdict == "pass", rep.witnesses


def test_rules_catch_a_broken_point_set(monkeypatch):
    # sanity that the rule suite is not vacuous: drop a point from a vertex
    # patch and the local-dimension count must fail
    from loosegeo import scheme as scheme_mod

    graph = corpus_graph("toy")
    original = scheme_mod.support_points

    def broken(F, m, masks):
        return original(F, m, masks)[:-1]

    monkeypatch.setattr(scheme_mod, "support_points", broken)
    rep = theorems.check_rules(graph, 2, "toy")
    assert rep.verdict == "fail"


def test_rules_catch_an_unstable_line(monkeypatch):
    # a full line whose count over F_{q^(m+1)} is off changes its
    # classification at degree m + 1, which the stability test reports
    from loosegeo import scheme as scheme_mod

    graph, q = corpus_graph("toy"), 3
    full = [line for line in scheme_mod.classify_lines(scheme_mod.build_scheme(graph, q))
            if len(line.points) == q + 1]
    basis = full[0].basis
    original = scheme_mod.SchemeModel.count_in_subspace

    def off_at_m_plus_1(self, rows, r):
        count = original(self, rows, r)
        return count + 1 if r == self.m + 1 and tuple(rows) == basis else count

    monkeypatch.setattr(scheme_mod.SchemeModel, "count_in_subspace", off_at_m_plus_1)
    rep = theorems.check_rules(graph, q, "toy")
    assert rep.verdict == "fail"
    assert [w[:3] for w in rep.witnesses] == [("stability", "full", basis)]


def test_run_suite_with_manifest_subset(tmp_path):
    manifest = tmp_path / "mini.txt"
    manifest.write_text(
        f"graph {CORPUS / 'toy.lg'} ddc,toy-equal q=2\n"
        f"graph {CORPUS / 'p3.lg'} kernel-trivial,cenprod q=2\n"
    )
    entries = formats.load_manifest(str(manifest))
    result = theorems.run_suite(entries, qs=(2,))
    assert result["ok"]
    verdicts = {(r.theorem, r.graph): r.verdict for r in result["reports"]}
    assert verdicts[("ddc", "toy")] == "pass"
    assert verdicts[("cenprod", "p3")] == "skip"


def test_suite_keeps_functoriality_under_entry_q_override():
    entries = formats.parse_manifest("global functoriality,transroot q=2\n", base_dir=str(CORPUS))
    result = theorems.run_suite(entries, qs=(3,))
    assert [(r.theorem, r.q) for r in result["reports"]] == [
        ("functoriality", 2), ("transroot", 2)]


def test_suite_runs_functoriality_once_and_transroot_at_each_q():
    entries = formats.parse_manifest("global functoriality,transroot q=2,3\n", base_dir=str(CORPUS))
    result = theorems.run_suite(entries)
    assert [(r.theorem, r.q) for r in result["reports"]] == [
        ("functoriality", 2), ("transroot", 2), ("transroot", 3)]


def test_suite_reads_once_from_checks(monkeypatch):
    monkeypatch.setitem(theorems.CHECKS, "transroot", theorems.CHECKS["transroot"]._replace(once=True))
    entries = formats.parse_manifest("global transroot q=2,3\n", base_dir=str(CORPUS))
    assert [(r.theorem, r.q) for r in theorems.run_suite(entries)["reports"]] == [("transroot", 2)]


@pytest.mark.parametrize("name,fixing,factors", [
    ("p4", 27, [9, 9]),
    ("spider", 486, [54, 9, 9]),
])
def test_cenprod_takes_the_linear_part_at_q4(name, fixing, factors):
    # over F_4 the Frobenius fixes every basis point, so the full fixing
    # group (54 on p4, 972 on spider) is twice the central product
    rep = theorems.verify("cenprod", corpus_graph(name), 4, name)
    assert rep.verdict == "pass"
    assert rep.quantities["fixing_group"] == fixing
    assert rep.quantities["factors"] == factors


def test_thmcp_takes_the_linear_part_at_q4():
    rep = theorems.verify("thmcp", corpus_graph("toy"), 4, "toy")
    assert rep.verdict == "pass"
    assert (rep.quantities["A"], rep.quantities["B"]) == (36, 12)
    assert rep.quantities["fixing_group"] == 432  # 864 with the Frobenius


def _cell_for(needs):
    """A corpus graph with what a check needs, at q=2: none for a global
    check, toy for the toy shape, else p4 (a tree with two inner vertices)."""
    if not needs:
        return None, "-"
    name = "toy" if "toy" in needs else "p4"
    return corpus_graph(name), name


@pytest.mark.parametrize("check", theorems.CHECK_IDS)
def test_every_check_reports_under_its_own_id(check):
    graph, name = _cell_for(theorems.CHECKS[check][0])
    rep = theorems.verify(check, graph, 2, name)
    assert rep.theorem == check
    assert rep.verdict in ("pass", "fail") and rep.seconds > 0


# the corpus graph that lacks each graph shape, and what the refusal says
_LACKS = {
    "toy": ("p4", "requires the two-vertex graph with one loose edge per vertex"),
    "tree": ("gamma1", "requires a loose tree"),
}


@pytest.mark.parametrize("check", theorems.CHECK_IDS)
def test_each_need_refuses_or_skips_with_its_message(check):
    needs = theorems.CHECKS[check][0]
    if not needs:
        assert theorems.refusal(check, None) is None
        return
    for graph, q in ((None, 2), (corpus_graph("toy"), None)):
        with pytest.raises(ValueError, match=f"^check '{check}' needs a graph and q$"):
            theorems.verify(check, graph, q)
    for tag in needs:
        if tag == "inner":
            rep = theorems.verify(check, corpus_graph("p3"), 2, "p3")
            assert (rep.theorem, rep.graph, rep.q) == (check, "p3", 2)
            assert (rep.verdict, rep.detail) == ("skip", "needs at least two inner vertices")
        elif tag != "graph":
            name, message = _LACKS[tag]
            with pytest.raises(ValueError, match=f"^{check} {message}$"):
                theorems.verify(check, corpus_graph(name), 2, name)


def test_suite_cell_builds_one_scheme_for_its_checks(monkeypatch):
    from loosegeo import scheme as scheme_mod

    built = []
    init = scheme_mod.SchemeModel.__init__

    def counted(self, graph, q):
        built.append(len(graph.edges))
        init(self, graph, q)

    monkeypatch.setattr(scheme_mod.SchemeModel, "__init__", counted)
    entries = formats.parse_manifest(f"graph {CORPUS / 'toy.lg'} decompose,rules q=2\n")
    result = theorems.run_suite(entries)
    assert [(r.theorem, r.verdict) for r in result["reports"]] == [
        ("decompose", "pass"), ("rules", "pass")]
    # the cell's scheme, and the one with an added loose edge that rules compares
    assert built == [3, 4]


def test_suite_refuses_a_bad_field_size_before_any_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(theorems, "verify", refuse)
    entries = formats.parse_manifest(f"global transroot\ngraph {CORPUS / 'toy.lg'} ddc\n")
    for qs, message in (((2, 6), "q=6 is not a prime power"),
                        ((256,), "q=256 exceeds supported bound 128")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            theorems.run_suite(entries, qs)
