from loosegeo import formats, matrices, theorems
from loosegeo.graphs import LooseGraph, LooseMorphism
from conftest import CORPUS, corpus_graph


def contraction_morphism():
    return formats.load_morphism(str(CORPUS / "morphism_contract.lgm"))


def test_global_matrix_is_permutation_like_for_identity():
    p3 = corpus_graph("p3")
    ident = LooseMorphism(
        p3, p3,
        {v: v for v in p3.vertices},
        {e: ("edge", e) for e in p3.edges},
    )
    mat = matrices.global_matrix(ident)
    n = len(p3.completion())
    assert mat == tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_compose_check_on_contraction_chain():
    f = contraction_morphism()
    p3 = f.target
    pt = LooseGraph()
    pt.add_vertex("p")
    g = LooseMorphism(
        p3, pt,
        {v: "p" for v in p3.vertices},
        {e: ("vertex", "p") for e in p3.edges},
    )
    assert matrices.compose_check(g, f)


def test_compose_check_random_pairs():
    for g, f in theorems.random_composable_pairs(count=25, seed=7):
        assert matrices.compose_check(g, f)


def test_injectivity_criterion():
    f = contraction_morphism()
    rep = matrices.injectivity_criterion(f)
    # a contraction cannot be injective: target has fewer completion vertices
    assert rep.source_dim == 4 and rep.target_dim == 3
    assert not rep.injective
    p3 = f.target
    ident = LooseMorphism(
        p3, p3, {v: v for v in p3.vertices}, {e: ("edge", e) for e in p3.edges}
    )
    assert matrices.injectivity_criterion(ident).injective


def test_kernel_and_rational_map():
    f = contraction_morphism()
    rep = matrices.kernel_f1(f, q=2)
    assert len(rep["kernel"]) + len(rep["domain"]) == 9  # |X(p4, F_2)|
