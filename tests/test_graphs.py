"""Graph model: parsing, bipartitions, extensions, enumeration."""

import random

import pytest

from coxlinks import coxeter, graphs
from coxlinks.graphs import (
    MINUS,
    PLUS,
    GraphError,
    GraphParseError,
    MixedSignCoxeterGraph,
    NotAlternatingError,
    NotBipartiteError,
    add_edge,
    adjacency_matrix,
    enumerate_alternating_trees,
    graph_to_text,
    is_alternating_sign,
    is_vertex_extension,
    parse_graph,
    random_alternating_tree,
    random_edge_augmentation,
    random_vertex_extension,
    remove_vertex,
    sign_bipartition,
    two_coloring,
    vertex_extension,
)

A2 = "vertex a +\nvertex b -\nedge a b\n"
P3 = "vertex a +\nvertex b -\nvertex c +\nedge a b\nedge b c\n"
TRIANGLE = "vertex a +\nvertex b +\nvertex c +\nedge a b\nedge b c\nedge a c\n"

# Unlabeled trees on n = 1, 2, ... vertices (OEIS A000055).
FREE_TREE_CENSUS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def tree_canonical_key(n, edges):
    """Isomorphism-invariant key for an unlabeled tree (AHU, rooted at
    the center; minimum over both centers when there are two).  The
    reference the direct class generator is checked against."""
    if n == 1:
        return (1, 0)
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]
    alive = n
    removed = [False] * n
    layer = [v for v in range(n) if degree[v] == 1]
    while alive > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            alive -= 1
            for u in adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def canon(v, parent):
        return tuple(sorted(canon(u, v) for u in adj[v] if u != parent))

    return (n, min(canon(c, -1) for c in centers))


class TestParsing:
    def test_basic(self):
        g = parse_graph(A2)
        assert g.names == ("a", "b")
        assert g.signs == (PLUS, MINUS)
        assert g.edges == ((0, 1),)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# heading\n\nvertex a +\n  \nvertex b -\nedge a b\n")
        assert g.n == 2

    def test_round_trip(self):
        for text in (A2, P3, TRIANGLE):
            g = parse_graph(text)
            assert parse_graph(graph_to_text(g)) == g

    def test_edge_order_normalized(self):
        g = parse_graph("vertex a +\nvertex b -\nedge b a\n")
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("vertex a\n", 1, "name and a sign"),
        ("vertex a %\n", 1, "bad sign token"),
        ("vertex a +\nvertex a -\n", 2, "duplicate vertex"),
        ("vertex a +\nedge a b\n", 2, "unknown vertex"),
        ("vertex a +\nedge a a\n", 2, "self-edge"),
        ("vertex a +\nvertex b -\nedge a b\nedge b a\n", 4, "repeated edge"),
        ("vertx a +\n", 1, "unknown directive"),
        ("vertex a +\nedge a\n", 2, "two vertex names"),
    ])
    def test_line_numbered_errors(self, text, lineno, fragment):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert exc.value.line == lineno
        assert fragment in str(exc.value)
        assert f"line {lineno}:" in str(exc.value)

    def test_empty_and_disconnected(self):
        with pytest.raises(GraphParseError, match="empty graph"):
            parse_graph("# nothing\n")
        with pytest.raises(GraphParseError, match="not connected"):
            parse_graph("vertex a +\nvertex b -\n")
        for edges in ((), ((0, 1),), ((1, 2),)):
            with pytest.raises(GraphError, match="not connected"):
                MixedSignCoxeterGraph(("a", "b", "c"), (PLUS, MINUS, PLUS), edges)

    def test_one_connectivity_walk_per_parse(self, monkeypatch):
        # the constructor's walk is the only one, its error a parse error
        calls = []
        real = graphs._bipartite_signs

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        monkeypatch.setattr(graphs, "_bipartite_signs", counting)
        parse_graph("vertex a +\nvertex b -\nedge a b\n")
        assert calls == [2]
        with pytest.raises(GraphParseError, match="^graph is not connected$") as exc:
            parse_graph("vertex a +\nvertex b -\n")
        assert exc.value.line is None and calls == [2, 2]

    def test_constructor_validation(self):
        with pytest.raises(GraphError):
            MixedSignCoxeterGraph(("a", "b"), (PLUS, 2), ((0, 1),))
        with pytest.raises(GraphError):
            MixedSignCoxeterGraph(("a", "a"), (PLUS, MINUS), ((0, 1),))

    @pytest.mark.parametrize("name", ["", "a b", " a", "a\t", "a\nb", "a\u00a0b", "a\u2028b",
                                      "\x1c", 1, None])
    def test_names_that_cannot_be_written_back_are_rejected(self, name):
        with pytest.raises(GraphError, match="vertex names"):
            MixedSignCoxeterGraph((name, "c"), (PLUS, MINUS), ((0, 1),))

    def test_round_trip_of_odd_names(self):
        odd = ("#x", "-", "+", "vertex", "edge", "λ", "頂点", "a#b", "ü-1", "😀", "\x00")
        g = MixedSignCoxeterGraph(odd, (PLUS, MINUS) * 5 + (PLUS,),
                                  tuple((i, i + 1) for i in range(len(odd) - 1)))
        assert parse_graph(graph_to_text(g)) == g


class TestBipartitions:
    def test_alternating_detection(self):
        assert is_alternating_sign(parse_graph(A2))
        assert not is_alternating_sign(parse_graph(TRIANGLE))

    def test_sign_bipartition(self):
        g = parse_graph(P3)
        b = sign_bipartition(g)
        assert b.part_plus == frozenset({0, 2})
        assert b.part_minus == frozenset({1})

    def test_sign_bipartition_requires_alternating(self):
        with pytest.raises(NotAlternatingError):
            sign_bipartition(parse_graph(TRIANGLE))

    def test_two_coloring_of_classical_path(self):
        g = parse_graph("vertex a +\nvertex b +\nvertex c +\nedge a b\nedge b c\n")
        b = two_coloring(g)
        assert b.part_plus == frozenset({0, 2})
        assert b.part_minus == frozenset({1})

    def test_two_coloring_rejects_odd_cycle(self):
        with pytest.raises(NotBipartiteError):
            two_coloring(parse_graph(TRIANGLE))

    def test_adjacency_matrix(self):
        g = parse_graph(P3)
        assert adjacency_matrix(g).rows == ((0, 1, 0), (1, 0, 1), (0, 1, 0))


class TestOneColoringWalkPerGraph:
    """A graph is 2-coloured by one _bipartite_signs walk, made by its
    constructor and kept for two_coloring and the Gram polynomial."""

    @pytest.fixture
    def walks(self, monkeypatch) -> list[int]:
        calls = []
        real = graphs._bipartite_signs

        def counting(n, edges):
            calls.append(n)
            return real(n, edges)

        monkeypatch.setattr(graphs, "_bipartite_signs", counting)
        return calls

    @pytest.mark.parametrize("text", [A2, P3, "vertex a +\nvertex b +\nvertex c +\nedge a b\nedge b c\n",
                                      "vertex a +\nvertex b -\nvertex c +\nvertex d -\n"
                                      "edge a b\nedge b c\nedge c d\nedge a d\n"],
                             ids=["a2", "p3", "classical-path", "cycle-4"])
    def test_build_two_coloring_and_gram_polynomial_walk_once(self, walks, text):
        g = parse_graph(text)
        two_coloring(g)
        coxeter._gram_polynomial(g)
        coxeter.bipartite_factors(g)
        assert walks == [g.n]

    def test_dedup_trees_are_walked_once(self, walks):
        for n in range(1, 11):
            del walks[:]
            trees = list(enumerate_alternating_trees(n, dedup=True))
            # the constructor's connectivity walk, and none for the signs
            assert walks == [n] * len(trees)

    def test_dedup_trees_take_their_signs_from_the_levels(self):
        # the signs by level parity are the walk's, vertex 0 positive
        for n in range(1, 11):
            for g in enumerate_alternating_trees(n, dedup=True):
                assert g.signs == graphs._bipartite_signs(n, g.edges) == g._coloring

    def test_labeled_trees_are_walked_once(self, walks):
        # the walk that signs a Pruefer tree is the constructor's colouring
        for n in range(1, 7):
            del walks[:]
            trees = list(enumerate_alternating_trees(n))
            assert walks == [n] * len(trees)
        del walks[:]
        rng = random.Random(1)
        for n in range(2, 12):
            random_alternating_tree(n, rng)
        assert walks == list(range(2, 12))

    def test_labeled_trees_take_their_signs_from_the_walk(self):
        # the signs the walk gives on the sorted edges, vertex 0 positive,
        # are the ones kept as the colouring
        rng = random.Random(2)
        trees = [g for n in range(1, 7) for g in enumerate_alternating_trees(n)]
        trees += [random_alternating_tree(n, rng) for n in range(2, 30)]
        for g in trees:
            assert g.signs == graphs._bipartite_signs(g.n, g.edges) == g._coloring

    def test_odd_cycle_raises_on_the_kept_coloring(self):
        g = parse_graph(TRIANGLE)
        for route in (two_coloring, coxeter._gram_polynomial, coxeter.coxeter_polynomial):
            with pytest.raises(NotBipartiteError, match="odd cycle"):
                route(g)


class TestExtensions:
    def test_vertex_extension_round_trip(self):
        g = parse_graph(A2)
        gp = vertex_extension(g, PLUS, [1])
        assert gp.n == 3
        assert is_alternating_sign(gp)
        assert is_vertex_extension(g, gp)

    def test_vertex_extension_rejects_same_sign_neighbor(self):
        g = parse_graph(A2)
        with pytest.raises(NotAlternatingError):
            vertex_extension(g, PLUS, [0])

    def test_is_vertex_extension_by_name(self):
        a2, p3 = parse_graph(A2), parse_graph(P3)
        assert is_vertex_extension(a2, p3)
        assert not is_vertex_extension(a2, a2)
        assert not is_vertex_extension(p3, a2)
        renamed = parse_graph(
            "vertex x +\nvertex y -\nvertex z +\nedge x y\nedge y z\n")
        assert not is_vertex_extension(a2, renamed)

    def test_remove_vertex_inverts_extension(self):
        g = parse_graph(P3)
        sub = remove_vertex(g, 2)
        assert sub.names == ("a", "b")
        assert sub.edges == ((0, 1),)

    def test_remove_vertex_refuses_disconnection(self):
        g = parse_graph(P3)
        with pytest.raises(GraphError):
            remove_vertex(g, 1)

    def test_add_edge(self):
        g = parse_graph(P3)
        with pytest.raises(GraphError):
            add_edge(g, 0, 1)


class TestEnumeration:
    def test_labeled_tree_counts(self):
        assert sum(1 for _ in enumerate_alternating_trees(2)) == 1
        assert sum(1 for _ in enumerate_alternating_trees(3)) == 3
        assert sum(1 for _ in enumerate_alternating_trees(4)) == 16
        assert sum(1 for _ in enumerate_alternating_trees(5)) == 125

    def test_unlabeled_tree_counts(self):
        counts = tuple(sum(1 for _ in enumerate_alternating_trees(n, dedup=True))
                       for n in range(1, len(FREE_TREE_CENSUS) + 1))
        assert counts == FREE_TREE_CENSUS

    def test_enumerated_trees_are_alternating_trees(self):
        for n, dedup in ((4, False), (1, True), (2, True), (5, True), (8, True), (10, True)):
            for g in enumerate_alternating_trees(n, dedup=dedup):
                assert g.n == n
                assert g.edge_count == n - 1
                assert is_alternating_sign(g)
                assert g.signs[0] == PLUS
                assert g.names == tuple(f"v{i}" for i in range(n))

    def test_enumeration_is_deterministic(self):
        a = [graph_to_text(g) for g in enumerate_alternating_trees(4)]
        b = [graph_to_text(g) for g in enumerate_alternating_trees(4)]
        assert a == b

    def test_canonical_key_invariant_under_relabeling(self):
        path = tree_canonical_key(4, [(0, 1), (1, 2), (2, 3)])
        path_relabeled = tree_canonical_key(4, [(2, 0), (0, 3), (3, 1)])
        star = tree_canonical_key(4, [(0, 1), (0, 2), (0, 3)])
        assert path == path_relabeled
        assert path != star

    def test_dedup_yields_representatives_of_every_class(self):
        for n in range(2, 8):
            keys_all = {tree_canonical_key(n, g.edges)
                        for g in enumerate_alternating_trees(n)}
            keys_dedup = [tree_canonical_key(n, g.edges)
                          for g in enumerate_alternating_trees(n, dedup=True)]
            assert set(keys_dedup) == keys_all
            assert len(keys_dedup) == len(keys_all)

    def test_dedup_matches_networkx_nonisomorphic_trees(self):
        nx = pytest.importorskip("networkx")
        for n in range(1, 11):
            ours = []
            for g in enumerate_alternating_trees(n, dedup=True):
                ours.append(nx.empty_graph(n))
                ours[-1].add_edges_from(g.edges)
            theirs = list(nx.nonisomorphic_trees(n))
            assert len(ours) == len(theirs)
            for t in theirs:
                assert sum(nx.is_isomorphic(t, g) for g in ours) == 1


class TestRandomGenerators:
    def test_random_tree_seeded(self):
        a = random_alternating_tree(6, random.Random(11))
        b = random_alternating_tree(6, random.Random(11))
        assert a == b
        assert a.n == 6 and a.edge_count == 5 and is_alternating_sign(a)

    def test_random_extension_is_extension(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_alternating_tree(rng.randint(2, 6), rng)
            gp = random_vertex_extension(g, rng)
            assert is_vertex_extension(g, gp)
            assert is_alternating_sign(gp)

    def test_random_augmentation_contains_original(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_alternating_tree(rng.randint(2, 7), rng)
            gp = random_edge_augmentation(g, rng)
            assert gp.n == g.n
            assert is_alternating_sign(gp)
            assert set(g.edges) <= set(gp.edges)
