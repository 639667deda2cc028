"""Hypothesis strategies for mixed-sign Coxeter graphs."""

from hypothesis import strategies as st

from coxlinks.graphs import MINUS, PLUS, MixedSignCoxeterGraph


MAX_N = 12
MAX_EXTRA_EDGES = 4


@st.composite
def connected_alternating_graphs(draw):
    """A random alternating tree on 2..MAX_N vertices, with signs
    alternating by depth from a drawn root sign and vertex indices
    shuffled, plus up to MAX_EXTRA_EDGES opposite-sign non-edges."""
    n = draw(st.integers(2, MAX_N))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    depth_sign = [draw(st.sampled_from((PLUS, MINUS)))]
    for i in range(1, n):
        depth_sign.append(-depth_sign[parent[i]])
    perm = draw(st.permutations(range(n)))
    signs = [0] * n
    for i in range(n):
        signs[perm[i]] = depth_sign[i]
    edges = {tuple(sorted((perm[i], perm[parent[i]]))) for i in range(1, n)}
    non_edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if signs[i] != signs[j] and (i, j) not in edges]
    if non_edges:
        edges |= set(draw(st.lists(st.sampled_from(non_edges), unique=True,
                                   max_size=min(MAX_EXTRA_EDGES, len(non_edges)))))
    return MixedSignCoxeterGraph(tuple(f"v{i}" for i in range(n)), tuple(signs),
                                 tuple(sorted(edges)))


@st.composite
def connected_random_sign_graphs(draw):
    """A connected_alternating_graphs graph with every sign drawn anew:
    two-colourable, with any signs, classical ones included."""
    g = draw(connected_alternating_graphs())
    signs = tuple(draw(st.sampled_from((PLUS, MINUS))) for _ in range(g.n))
    return MixedSignCoxeterGraph(g.names, signs, g.edges)


@st.composite
def signed_trees(draw, max_n=60):
    """A random tree on 1..max_n vertices with alternating, all-plus or
    independently drawn signs."""
    n = draw(st.integers(1, max_n))
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    kind = draw(st.sampled_from(("alternating", "plus", "mixed")))
    if kind == "alternating":
        signs = [draw(st.sampled_from((PLUS, MINUS)))]
        for i in range(1, n):
            signs.append(-signs[parent[i]])
    elif kind == "plus":
        signs = [PLUS] * n
    else:
        signs = [draw(st.sampled_from((PLUS, MINUS))) for _ in range(n)]
    return MixedSignCoxeterGraph(tuple(f"v{i}" for i in range(n)), tuple(signs),
                                 tuple((parent[i], i) for i in range(1, n)))
