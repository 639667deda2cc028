"""Mixed-sign Coxeter graphs.

A graph here is finite, simple, connected, with a sign (+1 or -1)
attached to every vertex.  The text format, sign-induced bipartitions,
vertex extensions and the tree enumerations used by the theorem sweeps
all live in this module.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .exact import IntMatrix

Sign = int
PLUS: Sign = 1
MINUS: Sign = -1

_SIGN_TOKENS = {"+": PLUS, "-": MINUS}
_TOKEN_OF_SIGN = {PLUS: "+", MINUS: "-"}


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class NotBipartiteError(GraphError):
    pass


class NotAlternatingError(GraphError):
    pass


@dataclass(frozen=True)
class Bipartition:
    part_plus: frozenset[int]
    part_minus: frozenset[int]


@dataclass(frozen=True)
class MixedSignCoxeterGraph:
    """Immutable sign-labeled graph; vertex order is declaration order."""

    names: tuple[str, ...]
    signs: tuple[Sign, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise GraphError("graph must have at least one vertex")
        if len(set(self.names)) != n:
            raise GraphError("duplicate vertex name")
        # graph_to_text writes names that parse_graph reads back as themselves
        if any(not isinstance(v, str) or v.split() != [v] for v in self.names):
            raise GraphError("vertex names must be nonempty strings free of whitespace")
        if len(self.signs) != n or any(s not in (PLUS, MINUS) for s in self.signs):
            raise GraphError("every vertex needs a sign of +1 or -1")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (0 <= i < j < n):
                raise GraphError(f"invalid edge {e}")
            if e in seen:
                raise GraphError(f"repeated edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if 0 in self._coloring:
            raise GraphError("graph is not connected")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def _coloring(self) -> tuple[Sign, ...]:
        """_bipartite_signs of the graph: the one walk that checks it is
        connected, and that two_coloring reads."""
        return _bipartite_signs(self.n, self.edges)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_set

    def edge_names(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset((self.names[i], self.names[j])) for i, j in self.edges)


def parse_graph(text: str) -> MixedSignCoxeterGraph:
    """Parse the plain-text graph format.

    Directives, one per line: ``# comment``, ``vertex <name> <+|->``,
    ``edge <name> <name>``.  Vertex declaration order fixes the matrix
    index order everywhere else in the package.
    """
    names: list[str] = []
    signs: list[Sign] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 3:
                raise GraphParseError("vertex directive needs a name and a sign", lineno)
            name, sign_tok = tokens[1], tokens[2]
            if sign_tok not in _SIGN_TOKENS:
                raise GraphParseError(f"bad sign token {sign_tok!r} (expected + or -)", lineno)
            if name in index:
                raise GraphParseError(f"duplicate vertex {name!r}", lineno)
            index[name] = len(names)
            names.append(name)
            signs.append(_SIGN_TOKENS[sign_tok])
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise GraphParseError("edge directive needs two vertex names", lineno)
            a, b = tokens[1], tokens[2]
            for v in (a, b):
                if v not in index:
                    raise GraphParseError(f"unknown vertex {v!r}", lineno)
            if a == b:
                raise GraphParseError(f"self-edge at {a!r}", lineno)
            e = (min(index[a], index[b]), max(index[a], index[b]))
            if e in edge_seen:
                raise GraphParseError(f"repeated edge {a!r} {b!r}", lineno)
            edge_seen.add(e)
            edges.append(e)
        else:
            raise GraphParseError(f"unknown directive {tokens[0]!r}", lineno)
    if not names:
        raise GraphParseError("empty graph: no vertices declared")
    try:
        return MixedSignCoxeterGraph(tuple(names), tuple(signs), tuple(edges))
    except GraphError as e:  # all that is left to fail: "graph is not connected"
        raise GraphParseError(str(e)) from None


def graph_to_text(g: MixedSignCoxeterGraph) -> str:
    lines = [f"vertex {name} {_TOKEN_OF_SIGN[sign]}" for name, sign in zip(g.names, g.signs)]
    lines += [f"edge {g.names[i]} {g.names[j]}" for i, j in g.edges]
    return "\n".join(lines) + "\n"


def adjacency_matrix(g: MixedSignCoxeterGraph) -> IntMatrix:
    return IntMatrix._of([dict.fromkeys(nbrs, 1) for nbrs in g.neighbors])


def is_alternating_sign(g: MixedSignCoxeterGraph) -> bool:
    """True when every edge joins a +1 vertex to a -1 vertex."""
    return all(g.signs[i] != g.signs[j] for i, j in g.edges)


def sign_bipartition(g: MixedSignCoxeterGraph) -> Bipartition:
    if not is_alternating_sign(g):
        raise NotAlternatingError("graph is not alternating-sign")
    plus = frozenset(i for i in range(g.n) if g.signs[i] == PLUS)
    return Bipartition(plus, frozenset(range(g.n)) - plus)


def two_coloring(g: MixedSignCoxeterGraph) -> Bipartition:
    """Proper 2-coloring; vertex 0 lands in part_plus.  Raises
    NotBipartiteError on an odd cycle."""
    signs = g._coloring
    for i, j in g.edges:
        if signs[i] == signs[j]:
            raise NotBipartiteError(
                f"graph is not bipartite: odd cycle through {g.names[i]!r}")
    plus = frozenset(i for i in range(g.n) if signs[i] == PLUS)
    return Bipartition(plus, frozenset(range(g.n)) - plus)


def vertex_extension(g: MixedSignCoxeterGraph, sign: Sign,
                     neighbors: Iterable[int]) -> MixedSignCoxeterGraph:
    """Attach one new vertex with the given sign and neighbor set, named
    v<k> for the least k >= n not yet taken."""
    nbrs = sorted(set(neighbors))
    if not nbrs:
        raise GraphError("vertex extension needs a nonempty neighbor set")
    if any(not 0 <= v < g.n for v in nbrs):
        raise GraphError("extension neighbor out of range")
    if any(g.signs[v] == sign for v in nbrs):
        raise NotAlternatingError(
            "extension would join two vertices of equal sign")
    k = g.n
    while f"v{k}" in g.names:
        k += 1
    new = g.n
    return MixedSignCoxeterGraph(
        g.names + (f"v{k}",),
        g.signs + (sign,),
        g.edges + tuple((v, new) for v in nbrs))


def is_vertex_extension(g: MixedSignCoxeterGraph, gp: MixedSignCoxeterGraph) -> bool:
    """True when gp is g plus exactly one vertex, label-preserving:
    every edge of gp not touching the new vertex is an edge of g and
    vice versa."""
    if gp.n != g.n + 1:
        return False
    g_names = set(g.names)
    extra = set(gp.names) - g_names
    if len(extra) != 1 or not g_names <= set(gp.names):
        return False
    w = extra.pop()
    gp_rest = frozenset(e for e in gp.edge_names() if w not in e)
    return gp_rest == g.edge_names()


def remove_vertex(g: MixedSignCoxeterGraph, index: int) -> MixedSignCoxeterGraph:
    """Delete one vertex; raises GraphError if the rest disconnects."""
    if not 0 <= index < g.n:
        raise GraphError("vertex index out of range")
    if g.n == 1:
        raise GraphError("cannot remove the last vertex")
    keep = [i for i in range(g.n) if i != index]
    remap = {old: new for new, old in enumerate(keep)}
    return MixedSignCoxeterGraph(
        tuple(g.names[i] for i in keep),
        tuple(g.signs[i] for i in keep),
        tuple(sorted((remap[i], remap[j]) for i, j in g.edges if index not in (i, j))))


def add_edge(g: MixedSignCoxeterGraph, i: int, j: int) -> MixedSignCoxeterGraph:
    if i == j:
        raise GraphError("self-edge")
    e = (min(i, j), max(i, j))
    if e in g._edge_set:
        raise GraphError("edge already present")
    return MixedSignCoxeterGraph(g.names, g.signs, g.edges + (e,))


def _prufer_edges(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                break
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((min(u, v), max(u, v)))
    return edges


def _bipartite_signs(n: int, edges: Sequence[tuple[int, int]]) -> tuple[Sign, ...]:
    # vertex 0 is + by convention; an odd cycle leaves an edge with equal
    # signs, and a vertex that vertex 0 does not reach keeps sign 0
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    signs: list[Sign] = [0] * n
    signs[0] = PLUS
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if signs[v] == 0:
                signs[v] = -signs[u]
                stack.append(v)
    return tuple(signs)


def _tree_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> MixedSignCoxeterGraph:
    # the signs are the colouring that the constructor's connectivity check
    # reads, so it is cached before the constructor runs and the edges are
    # walked once
    signs = _bipartite_signs(n, edges)
    g = object.__new__(MixedSignCoxeterGraph)
    g.__dict__["_coloring"] = signs
    g.__init__(tuple(f"v{i}" for i in range(n)), signs, tuple(edges))
    return g


def _free_tree_level_sequences(n: int) -> Iterator[list[int]]:
    """One level sequence per unlabeled tree on n >= 2 vertices, rooted at
    a center (Wright, Richmond, Odlyzko and McKay, SIAM J. Comput. 15,
    1986).  The yielded list is overwritten by the next tree.

    The walk starts at the path rooted at its center and steps through
    rooted trees as Beyer and Hedetniemi do.  A tree is kept when the
    root's first subtree is lower than the rest of the tree, or as high
    but smaller, or as high and as large but not lexicographically later;
    otherwise the walk jumps straight to the next tree that is kept.
    """
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))

    def second_subtree() -> int:
        return levels.index(1, 2) if 1 in levels[2:] else n

    def step(p: int) -> None:
        # vertex p moves up a level; the rest repeats the stretch from its parent q
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        for i in range(p, n):
            levels[i] = levels[i - p + q]

    while True:
        m = second_subtree()
        left = [x - 1 for x in levels[1:m]]
        rest = [0] + levels[m:]
        if (max(left), len(left), left) > (max(rest), len(rest), rest):
            jump_high = levels[m - 1] > 2
            step(m - 1)
            if jump_high:
                height = max(levels[1:second_subtree()])
                levels[n - height:] = range(1, height + 1)
        yield levels
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return
        step(p)


def enumerate_alternating_trees(n: int, dedup: bool = False) -> Iterator[MixedSignCoxeterGraph]:
    """All labeled trees on n vertices with the bipartition-induced
    alternating signs (vertex 0 positive).

    Enumeration walks the n**(n-2) Pruefer sequences in lexicographic
    order.  With dedup=True the trees are generated directly one per
    isomorphism class, as the level sequences of the Wright-Richmond-
    Odlyzko-McKay free-tree generator rooted at a center: vertex i joins
    the last earlier vertex one level up, and even levels are positive.
    Coxeter spectra are invariant under relabeling and under the global
    sign flip, so deduplication is a pure optimization for spectra-level
    sweeps.
    """
    if n < 1:
        raise GraphError("tree size must be at least 1")
    if n == 1:
        yield MixedSignCoxeterGraph(("v0",), (PLUS,), ())
        return
    if dedup:
        for levels in _free_tree_level_sequences(n):
            last = [0] * n
            edges = []
            for i in range(1, n):
                last[levels[i]] = i
                edges.append((last[levels[i] - 1], i))
            # every edge joins two adjacent levels and vertex 0 is at level
            # 0, so the 2-colouring is the level parity
            yield _tree_from_edges(n, edges)
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield _tree_from_edges(n, _prufer_edges(seq, n))


def random_alternating_tree(n: int, rng: random.Random) -> MixedSignCoxeterGraph:
    if n < 2:
        raise GraphError("random tree size must be at least 2")
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return _tree_from_edges(n, _prufer_edges(seq, n))


def random_vertex_extension(g: MixedSignCoxeterGraph, rng: random.Random) -> MixedSignCoxeterGraph:
    """Seeded alternating vertex extension: random sign, random nonempty
    subset of the opposite-sign vertices as neighbors."""
    sign = rng.choice((PLUS, MINUS))
    candidates = [i for i in range(g.n) if g.signs[i] != sign]
    if not candidates:
        sign = -sign
        candidates = [i for i in range(g.n) if g.signs[i] != sign]
    k = rng.randint(1, len(candidates))
    return vertex_extension(g, sign, rng.sample(candidates, k))


def random_edge_augmentation(g: MixedSignCoxeterGraph, rng: random.Random) -> MixedSignCoxeterGraph:
    """Add up to three random opposite-sign non-edges; the result
    contains g as a label-preserving subgraph on the same vertex set."""
    candidates = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                  if g.signs[i] != g.signs[j] and not g.has_edge(i, j)]
    if not candidates:
        return g
    k = rng.randint(0, min(3, len(candidates)))
    out = g
    for i, j in rng.sample(candidates, k):
        out = add_edge(out, i, j)
    return out
