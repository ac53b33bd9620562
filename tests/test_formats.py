import pytest
from hypothesis import given, strategies as st

from loosegeo import formats
from loosegeo.graphs import LooseGraph
from conftest import CORPUS, corpus_graph


def test_parse_graph_basic():
    g = formats.parse_graph("vertex a\nvertex b\nedge e a b\nedge l a -\nedge d - -\n")
    assert list(g.vertices) == ["a", "b"]
    assert g.edges == {"e": ("a", "b"), "l": ("a", None), "d": (None, None)}


def test_parse_graph_errors():
    with pytest.raises(formats.FormatError):
        formats.parse_graph("vertex a b\n")
    with pytest.raises(formats.FormatError):
        formats.parse_graph("frob a\n")
    with pytest.raises(formats.FormatError):
        formats.parse_graph("edge e a b\n")  # unknown endpoints


@st.composite
def loose_graphs(draw):
    n = draw(st.integers(0, 5))
    g = LooseGraph()
    names = [f"v{i}" for i in range(n)]
    for v in names:
        g.add_vertex(v)
    n_edges = draw(st.integers(0, 6))
    for k in range(n_edges):
        ends = []
        for _ in range(2):
            if names and draw(st.booleans()):
                ends.append(draw(st.sampled_from(names)))
            else:
                ends.append(None)
        if ends[0] is not None and ends[0] == ends[1]:
            ends[1] = None
        pair = tuple(e for e in ends if e is not None)
        if len(pair) == 2 and any(set(pair) == {a, b} for a, b in g.edges.values() if None not in (a, b)):
            continue
        g.add_edge(f"e{k}", ends[0], ends[1])
    return g


@given(loose_graphs())
def test_graph_round_trip(g):
    back = formats.parse_graph(formats.serialize_graph(g))
    assert list(back.vertices) == list(g.vertices)
    assert back.edges == g.edges


def test_load_morphism_from_corpus():
    m = formats.load_morphism(str(CORPUS / "morphism_contract.lgm"))
    assert m.vmap == {"a": "a", "b": "b", "c": "b", "d": "c"}
    assert m.emap["bc"] == ("vertex", "b")


@pytest.mark.parametrize("extra,message", [
    ("vmap zz a", "vmap 'zz': not a source vertex"),
    ("emap zz ab", "emap 'zz': not a source edge"),
    ("vmap a b", "line 11: vmap 'a' given twice"),
    ("emap ab bc", "line 11: emap 'ab' given twice"),
])
def test_parse_morphism_refuses_a_stray_or_repeated_map(extra, message):
    text = (CORPUS / "morphism_contract.lgm").read_text() + extra + "\n"
    with pytest.raises(ValueError, match=f"^{message}$"):
        formats.parse_morphism(text, base_dir=str(CORPUS))


def test_parse_manifest():
    text = (
        "global functoriality q=2\n"
        "graph toy.lg ddc,rules\n"
        "graph gamma2.lg igp igp_expected=false q=2\n"
    )
    entries = formats.parse_manifest(text, base_dir=str(CORPUS))
    assert entries[0]["graph"] is None and entries[0]["qs"] == (2,)
    assert entries[1]["name"] == "toy" and entries[1]["checks"] == ["ddc", "rules"]
    assert entries[2]["igp_expected"] is False


def test_parse_manifest_rejects_unknown_options():
    with pytest.raises(formats.FormatError):
        formats.parse_manifest("graph toy.lg rules tolerance=1\n", base_dir=str(CORPUS))


def test_corpus_files_all_parse():
    for path in sorted(CORPUS.glob("*.lg")):
        g = formats.load_graph(str(path))
        assert len(g.edges) > 0


def test_parse_bool_accepts_only_truth_words():
    for text, value in (("true", True), ("Yes", True), ("1", True),
                        ("FALSE", False), ("no", False), ("0", False)):
        assert formats.parse_bool(text) is value
    for text in ("maybe", "", "y", "2", "truth"):
        with pytest.raises(formats.FormatError):
            formats.parse_bool(text)


@pytest.mark.parametrize("option", ["igp_expected=maybe", "igp_expected=", "q=abc", "q=", "q=2,"])
def test_parse_manifest_names_the_line_of_a_bad_value(option):
    text = f"global functoriality\ngraph gamma2.lg igp {option}\n"
    with pytest.raises(formats.FormatError, match="^line 2: "):
        formats.parse_manifest(text, base_dir=str(CORPUS))


@pytest.mark.parametrize("text,message", [
    ("global functoriality\ngraph toy.lg ddc,ddx\n", "line 2: unknown check 'ddx'"),
    ("global transroot,ddc\n", "line 1: check 'ddc' needs a graph and q"),
    ("graph toy.lg rules\ngraph p4.lg rules,ddc\n",
     "line 2: ddc requires the two-vertex graph with one loose edge per vertex"),
    ("graph gamma1.lg convexity\n", "line 1: convexity requires a loose tree"),
    ("global transroot\ngraph toy.lg ddc q=2,6\n", "line 2: q=6 is not a prime power"),
    ("global transroot q=256\n", "line 1: q=256 exceeds supported bound 128"),
])
def test_parse_manifest_refuses_a_check_or_q_by_its_line(text, message):
    with pytest.raises(formats.FormatError, match=f"^{message}$"):
        formats.parse_manifest(text, base_dir=str(CORPUS))


@pytest.mark.parametrize("text,message", [
    ("vertex a\nvertex a\n", "line 2: duplicate vertex 'a'"),
    ("vertex a\nvertex b\nedge e a b\nedge e b a\n", "line 4: duplicate edge 'e'"),
    ("vertex a b\n", "line 1: vertex takes one name"),
    ("vertex a\nedge e a b\n", "line 2: edge 'e' references unknown vertex 'b'"),
    ("vertex a\nloop a\n", "line 2: unknown directive 'loop'"),
])
def test_parse_graph_names_the_line_of_a_bad_directive(text, message):
    with pytest.raises(formats.FormatError, match=f"^{message}$"):
        formats.parse_graph(text)
