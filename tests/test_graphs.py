import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit.errors import InvalidVertex, MalformedInput
from ramseykit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    write_graph6,
)

from helpers import all_graphs, random_graphs


def nx_graph6(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


def from_nx(h) -> Graph:
    relabel = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph(
        h.number_of_nodes(),
        frozenset(
            (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
            for u, v in h.edges
        ),
    )


class TestGraph6:
    def test_k4_against_reference_encoder(self):
        k4 = complete_graph(4)
        encoded = nx_graph6(k4)
        assert parse_graph6(encoded) == k4
        assert write_graph6(k4) == encoded

    def test_single_vertex(self):
        assert write_graph6(empty_graph(1)) == "@"
        assert parse_graph6("@") == empty_graph(1)

    def test_k2_round_trip(self):
        s = write_graph6(complete_graph(2))
        assert len(s) == 2
        assert parse_graph6(s) == complete_graph(2)

    def test_d_question_brace(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert write_graph6(g) == "D?{"

    def test_length_formula(self):
        for g in [empty_graph(7), complete_graph(9), path_graph(30), cycle_graph(62)]:
            n = g.n
            assert len(write_graph6(g)) == 1 + (n * (n - 1) // 2 + 5) // 6

    def test_truncated_payload_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph6("D?")  # n=5 needs two payload chars

    def test_three_vertex_payload_is_complete(self):
        # n=3 needs exactly one payload char, so "B_" is a valid line
        g = parse_graph6("B_")
        assert g.n == 3 and g.sorted_edges() == [(0, 1)]
        with pytest.raises(MalformedInput):
            parse_graph6("B")  # no payload at all is truncated

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph6("Bw?")

    def test_bad_byte_rejected(self):
        with pytest.raises(MalformedInput):
            parse_graph6("B\x20")

    def test_header_is_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_exhaustive_round_trip_small(self):
        for n in range(6):
            for g in all_graphs(n):
                assert parse_graph6(write_graph6(g)) == g

    @pytest.mark.parametrize("n", [6, 13, 25, 40, 62])
    def test_randomized_round_trip(self, n):
        for g in random_graphs(n, 20, seed=n):
            s = write_graph6(g)
            assert parse_graph6(s) == g
            assert s == nx_graph6(g)

    def test_long_form(self):
        g = path_graph(70)
        s = write_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g
        assert from_nx(nx.from_graph6_bytes(s.encode())) == g

    def test_extra_long_header_decodes_count(self):
        # "~~" + 6 chars encodes n = 63 * 2^12; the payload is then missing
        with pytest.raises(MalformedInput, match="truncated"):
            parse_graph6("~~???~??")

    @pytest.mark.parametrize("s", ["~", "~?", "~??"])
    def test_truncated_long_form_header(self, s):
        with pytest.raises(MalformedInput, match="^truncated long-form vertex count$"):
            parse_graph6(s)

    @pytest.mark.parametrize("s", ["~~", "~~?????"])
    def test_truncated_extra_long_form_header(self, s):
        with pytest.raises(MalformedInput, match="^truncated extra-long-form vertex count$"):
            parse_graph6(s)

    @pytest.mark.parametrize("s, code", [("~?>?", 62), ("~~???!??", 33)])
    def test_bad_byte_in_a_long_header(self, s, code):
        with pytest.raises(MalformedInput, match=f"^bad graph6 byte {code}$"):
            parse_graph6(s)

    @pytest.mark.parametrize("n", [63, 64, 200, 258, 300])
    def test_long_form_against_reference_encoder(self, n):
        for g in random_graphs(n, 3, seed=n):
            s = write_graph6(g)
            assert s == nx_graph6(g)
            assert parse_graph6(s) == g

    def test_long_path_round_trip(self):
        # 1,123,250 vertex pairs: both directions must be linear in them
        g = path_graph(1500)
        reference = nx_graph6(g)
        assert write_graph6(g) == reference
        assert parse_graph6(reference) == g

    def test_bad_byte_inside_a_long_payload(self):
        s = write_graph6(path_graph(100))
        for bad, code in (("!", 33), ("\x7f", 127), ("\u00e9", 233)):
            with pytest.raises(MalformedInput, match=f"bad graph6 byte {code}"):
                parse_graph6(s[:500] + bad + s[501:])

    def test_reference_decode_agreement(self):
        for g in random_graphs(9, 30, seed=99):
            assert parse_graph6(nx_graph6(g)) == g


class TestEdgeList:
    def test_path(self):
        assert parse_edge_list("0 1\n1 2") == path_graph(3)

    def test_declared_count_keeps_isolated(self):
        g = parse_edge_list("n=4\n0 1")
        assert g.n == 4
        assert g.m == 1

    def test_loop_rejected(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("0 0")

    def test_non_integer_rejected(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("0 x")

    def test_short_declared_count_rejected(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("n=2\n0 5")

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1")
        assert g.m == 1

    @pytest.mark.parametrize("header", ["n = 5", "n =5", "n= 5", " n = 5 "])
    def test_declared_count_with_spaces(self, header):
        assert parse_edge_list(f"{header}\n0 1\n1 2") == parse_edge_list("n=5\n0 1\n1 2")

    def test_blank_lines_between_edges(self):
        assert parse_edge_list("n=4\n0 1\n\n  \n1 2\n") == parse_edge_list("n=4\n0 1\n1 2")


class TestInputChecks:
    """Each refusal names what is wrong with the input."""

    @pytest.mark.parametrize("edge, error, message", [
        ((1, 1), MalformedInput, "loop at vertex 1"),
        ((0, 3), InvalidVertex, "edge (0, 3) outside 0..2"),
        ((-1, 2), InvalidVertex, "edge (-1, 2) outside 0..2"),
        ((2, 0), MalformedInput, "edge (2, 0) not normalized"),
    ])
    def test_graph_refuses_bad_edges(self, edge, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Graph(3, frozenset({edge}))

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph6 string"),
        ("  \n", "empty graph6 string"),
        ("!", "bad graph6 header byte 33"),
        ("\x7fB", "bad graph6 header byte 127"),
    ])
    def test_graph6_refuses_bad_headers(self, text, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            parse_graph6(text)

    @pytest.mark.parametrize("text, message", [
        ("n=x\n0 1", "bad vertex count line 'n=x'"),
        ("n=-1", "negative vertex count"),
        ("n = -1", "negative vertex count"),
        ("n = 1 2\n0 1", "bad vertex count line 'n = 1 2'"),
        ("0 1\n0 1 2", "expected 'u v', got '0 1 2'"),
        ("0 1\n-1 2", "negative vertex id in '-1 2'"),
    ])
    def test_edge_list_refuses_bad_lines(self, text, message):
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            parse_edge_list(text)

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(MalformedInput, match="^cycle needs at least 3 vertices$"):
            cycle_graph(2)
        assert cycle_graph(3) == complete_graph(3)


class TestInducedSubgraph:
    def test_k4_triple_is_triangle(self):
        sub, kept = induced_subgraph(complete_graph(4), [0, 2, 3])
        assert sub == complete_graph(3)
        assert kept == (0, 2, 3)

    def test_c5_adjacent_pair(self):
        sub, _ = induced_subgraph(cycle_graph(5), [0, 1])
        assert sub == complete_graph(2)

    def test_c5_non_adjacent_pair(self):
        sub, _ = induced_subgraph(cycle_graph(5), [0, 2])
        assert sub == empty_graph(2)

    def test_full_set_is_identity(self):
        for g in random_graphs(6, 10, seed=3):
            sub, _ = induced_subgraph(g, range(6))
            assert sub == g

    def test_invalid_vertex(self):
        with pytest.raises(InvalidVertex):
            induced_subgraph(complete_graph(3), [0, 5])

    def test_edge_count_matches_filter(self):
        for g in random_graphs(7, 15, seed=11):
            for s in [(0, 1, 2), (1, 3, 5, 6), (0, 2, 4, 6)]:
                sub, kept = induced_subgraph(g, s)
                expected = sum(1 for u, v in g.edges if u in s and v in s)
                assert sub.m == expected
                assert set(kept) == set(s)


@st.composite
def graphs_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


@settings(max_examples=200)
@given(graphs_strategy(max_n=30))
def test_round_trip_property(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=100)
@given(graphs_strategy())
def test_edge_list_round_trip(g):
    from ramseykit.graphs import write_edge_list

    assert parse_edge_list(write_edge_list(g)) == g
