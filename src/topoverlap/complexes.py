"""Finite abstract simplicial complexes and their basic combinatorics.

A complex is stored as a downward-closed family of vertex subsets over
non-negative integer vertex ids.  All other modules build on this
representation; complexes are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "SimplicialComplex",
    "ComplexStats",
    "MalformedComplexError",
    "build_complex",
    "stats",
    "barycentric_subdivision",
    "skeleton",
    "induced_subcomplex",
    "as_graph",
]

Simplex = frozenset  # vertex subsets; always non-empty


class MalformedComplexError(ValueError):
    """Raised when input data cannot describe a valid complex."""


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex.

    ``vertices`` is the 0-skeleton as a set of ids, ``simplices`` the full
    downward-closed family (every singleton of ``vertices`` included).
    Use :func:`build_complex` instead of constructing directly.
    """

    vertices: frozenset
    simplices: frozenset

    @cached_property
    def dimension(self) -> int:
        """Max simplex cardinality minus one; -1 for the empty complex."""
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def edges(self) -> tuple:
        """Sorted tuple of 1-simplices as (u, v) pairs with u < v."""
        pairs = [tuple(sorted(s)) for s in self.simplices if len(s) == 2]
        return tuple(sorted(pairs))

    @cached_property
    def degree(self) -> int:
        """Max number of edges at a vertex (0 for edgeless complexes)."""
        counts: dict = {}
        for u, v in self.edges:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        return max(counts.values(), default=0)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def simplex_count(self) -> int:
        return len(self.simplices)

    def maximal_simplices(self) -> list:
        """Inclusion-maximal simplices as sorted tuples, in lexicographic order.

        The family is downward closed, so a simplex is maximal exactly when
        it is a codimension-1 face of no other simplex: one pass over each
        simplex's facets, O(S·d) for S simplices of at most d vertices."""
        covered = {s - {v} for s in self.simplices if len(s) > 1 for v in s}
        return sorted(tuple(sorted(s)) for s in self.simplices if s not in covered)

    def sorted_simplices(self) -> list:
        """Every simplex as a sorted tuple, ordered by (size, lexicographic)."""
        return sorted((tuple(sorted(s)) for s in self.simplices), key=lambda t: (len(t), t))


@dataclass(frozen=True)
class ComplexStats:
    """Headline invariants of a complex.

    ``delta`` is the maximum, over simplices s, of the number of simplices
    sharing at least one vertex with s (s itself included).
    """

    dimension: int
    degree: int
    delta: int
    simplex_count: int


def _assemble(vertices, family) -> SimplicialComplex:
    """Build a complex from an already downward-closed family, checking the
    size bound |simplices| <= |vertices| * 2^degree."""
    cx = SimplicialComplex(frozenset(vertices), frozenset(family))
    if cx.n_vertices and cx.simplex_count > cx.n_vertices * 2**cx.degree:
        raise RuntimeError(
            f"{cx.simplex_count} simplices exceed |vertices| * 2^degree "
            f"for {cx.n_vertices} vertices of degree {cx.degree}"
        )
    return cx


def build_complex(maximal_simplices, extra_vertices=()) -> SimplicialComplex:
    """Downward closure of the given simplices.

    ``extra_vertices`` adds isolated vertices beyond those listed.  Rejects
    negative ids, empty simplices and repeated vertices within one simplex.
    """
    vertices = set(extra_vertices)
    family = set()
    for listed in maximal_simplices:
        seq = list(listed)
        if not seq:
            raise MalformedComplexError("empty simplex listed")
        if any((not isinstance(v, int)) or v < 0 for v in seq):
            raise MalformedComplexError(f"vertex ids must be non-negative integers: {seq}")
        if len(set(seq)) != len(seq):
            raise MalformedComplexError(f"duplicate vertex inside one simplex: {seq}")
        vertices.update(seq)
        for k in range(1, len(seq) + 1):
            family.update(frozenset(c) for c in itertools.combinations(seq, k))
    if any((not isinstance(v, int)) or v < 0 for v in vertices):
        raise MalformedComplexError("vertex ids must be non-negative integers")
    family.update(frozenset((v,)) for v in vertices)
    return _assemble(vertices, family)


def stats(cx: SimplicialComplex) -> ComplexStats:
    """Dimension, degree, delta and simplex count.  The simplices meeting s
    are the union of the stars of its vertices, and a simplex meets no more
    of them than one containing it, so delta is taken over the facets."""
    star: dict = {v: [] for v in cx.vertices}
    for i, s in enumerate(cx.simplices):
        for v in s:
            star[v].append(i)
    delta = 0
    for s in cx.maximal_simplices():
        delta = max(delta, len(set().union(*(star[v] for v in s))))
    out = ComplexStats(cx.dimension, cx.degree, delta, cx.simplex_count)
    if out.delta > out.simplex_count:
        raise RuntimeError(f"delta {out.delta} exceeds the simplex count {out.simplex_count}")
    if out.dimension > max(out.degree, 0):
        raise RuntimeError(f"dimension {out.dimension} exceeds the degree {out.degree}")
    return out


def _clique_levels(nbrs, top: int) -> list:
    """Cliques of at most ``top`` vertices of the graph ``nbrs`` (vertex ->
    set of neighbours): ``levels[k]`` lists those of k+1 vertices as sorted
    tuples in lexicographic order, and only non-empty levels are listed.

    A clique grows only by common neighbours above its largest vertex, so
    each is found once.
    """
    above = {v: {u for u in nbrs[v] if u > v} for v in nbrs}
    levels = []
    level = [((v,), above[v]) for v in sorted(nbrs)]
    while level:
        levels.append([clique for clique, _ in level])
        if len(levels) >= top:
            break
        last = len(levels) + 1 == top  # cliques of the last level never grow
        grown = []
        for clique, common in level:
            for u in sorted(common):
                grown.append((clique + (u,), None if last else common & above[u]))
        level = grown
    return levels


def barycentric_subdivision(cx: SimplicialComplex):
    """Complex of strictly increasing chains of simplices.

    Returns ``(subdivision, labels)`` where ``labels`` maps each new vertex
    id to the original simplex it stands for.  New ids follow the canonical
    (size, lexicographic) order of the original simplices.
    """
    originals = cx.sorted_simplices()
    ids = {frozenset(s): i for i, s in enumerate(originals)}
    labels = {i: frozenset(s) for i, s in enumerate(originals)}

    # the chains are the cliques of the comparability relation, which each
    # simplex gets from its proper faces
    comparable = {i: set() for i in labels}
    for i, s in enumerate(originals):
        for k in range(1, len(s)):
            for face in itertools.combinations(s, k):
                j = ids[frozenset(face)]
                comparable[i].add(j)
                comparable[j].add(i)
    chains = (frozenset(c) for level in _clique_levels(comparable, cx.dimension + 1) for c in level)

    out = _assemble(range(len(originals)), chains)
    if out.dimension != cx.dimension:
        raise RuntimeError(f"subdivision has dimension {out.dimension}, not {cx.dimension}")
    # neighbors of a chain vertex are its cofaces (at most 2^degree, all
    # containing one of its vertices) plus its proper faces (< 2^(dim+1))
    bound = 2**cx.degree + 2 ** (cx.dimension + 1)
    if cx.n_vertices and out.degree > bound:
        raise RuntimeError(f"subdivision degree {out.degree} exceeds 2^degree + 2^(dim+1) = {bound}")
    return out, labels


def skeleton(cx: SimplicialComplex, k: int) -> SimplicialComplex:
    """All simplices of cardinality at most k+1; vertex set unchanged."""
    if k < 0:
        raise ValueError("skeleton dimension must be non-negative")
    return _assemble(cx.vertices, (s for s in cx.simplices if len(s) <= k + 1))


def induced_subcomplex(cx: SimplicialComplex, subset) -> SimplicialComplex:
    """All simplices whose vertices lie in ``subset``."""
    u = frozenset(subset)
    unknown = u - cx.vertices
    if unknown:
        raise MalformedComplexError(f"unknown vertex ids: {sorted(unknown)}")
    return _assemble(u, (s for s in cx.simplices if s <= u))


def as_graph(cx: SimplicialComplex):
    """(sorted vertices, sorted edges) of a complex of dimension <= 1."""
    if cx.dimension > 1:
        raise MalformedComplexError(
            f"expected a graph (dimension <= 1), got dimension {cx.dimension}"
        )
    return tuple(sorted(cx.vertices)), cx.edges
