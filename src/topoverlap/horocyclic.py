"""Coarse constructions of finite complexes into horocyclic products of trees.

The target is modelled directly on tuples of binary strings: a vertex of the
depth-limited product is a (d+1)-tuple of words whose lengths sum to
(d+1)*ell, and two vertices are adjacent when one coordinate of the first
extends the matching coordinate of the second by one trailing character and
vice versa at another coordinate, all remaining coordinates equal.  The
ambient tree is never materialised (a coordinate's height is its length
minus ell).

The source complex is subdivided in two stages: barycentric subdivision,
then the lattice refinement whose vertices are integer weight functions on
chains of simplices with a fixed total weight.  The vertex-wise coding map
from that refinement into the word model is simplicial; together with the
bookkeeping of which original simplex carries each refinement cell it yields
a validated coarse construction with a measured interference constant and a
measured volume.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from ._util import SizeLimitError
from .complexes import (
    MalformedComplexError,
    SimplicialComplex,
    _assemble,
    _clique_levels,
    barycentric_subdivision,
    build_complex,  # noqa: F401  perfbench/tracing.py binds it; --trace 1 fails without
    induced_subcomplex,
)
from .fileio import HEADER_VERTEX_LIMIT
from .reporting import CheckRow

__all__ = [
    "EncodingError",
    "ConstructionError",
    "VertexLimitError",
    "HorocyclicComplex",
    "DLatticeComplex",
    "CoarseConstruction",
    "binary_code",
    "words_adjacent",
    "build_H_ell",
    "build_D_ell",
    "map_s",
    "coarse_construct",
    "identity_construction",
    "validate_construction",
    "compose",
    "write_manifest",
    "parse_manifest",
    "revalidate_manifest",
]

DEFAULT_VERTEX_LIMIT = 10**6


class EncodingError(ValueError):
    """A vertex id does not fit the binary code width."""


class ConstructionError(RuntimeError):
    """An internal guarantee of the construction failed; indicates a bug."""


class VertexLimitError(ConstructionError, SizeLimitError):
    """A construction would create more vertices than its limit allows."""


def _vertex_limit_error(count: int) -> VertexLimitError:
    return VertexLimitError(
        f"would create {count} vertices, more than DEFAULT_VERTEX_LIMIT={DEFAULT_VERTEX_LIMIT}"
    )


def _lattice_vertex_count(z: SimplicialComplex, total: int) -> int:
    """The number of weight functions of total weight ``total`` that
    ``build_D_ell`` makes on the barycentric subdivision of z, counted from
    z's faces alone.  A chain of j simplices topped by a simplex s is an
    ordered partition of s into j blocks, and there are
    j!·S(|s|, j) = sum_i (-1)^i C(j, i) (j - i)^|s| of those; each chain
    carries C(total - 1, j - 1) weight functions."""
    count = 0
    for m, times in Counter(len(s) for s in z.simplices).items():
        for j in range(1, m + 1):
            partitions = sum((-1) ** i * math.comb(j, i) * (j - i) ** m for i in range(j + 1))
            count += times * partitions * math.comb(total - 1, j - 1)
    return count


def binary_code(k: int, i: int, ell: int, d: int) -> str:
    """First ``i`` characters of d+1 concatenated copies of the ell-bit
    big-endian binary representation of ``k``."""
    if not 0 <= k < 2**ell:
        raise EncodingError(f"id {k} does not fit in {ell} bits")
    if not 0 <= i <= (d + 1) * ell:
        raise EncodingError(f"prefix length {i} outside [0, {(d + 1) * ell}]")
    block = format(k, f"0{ell}b")
    return (block * (d + 1))[:i]


def _extends(x: str, y: str) -> bool:
    return len(x) == len(y) + 1 and x.startswith(y)


def words_adjacent(a, b) -> bool:
    """Adjacency of two word tuples: exactly two coordinates differ, one
    growing by a single trailing character and the other shrinking by one."""
    if len(a) != len(b):
        raise ValueError("word tuples must have the same arity")
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diff) != 2:
        return False
    i, j = diff
    return (_extends(a[i], b[i]) and _extends(b[j], a[j])) or (
        _extends(b[i], a[i]) and _extends(a[j], b[j])
    )


def _word_neighbors(w):
    """Rule neighbors of a word tuple that shrink one coordinate and grow a
    later one.  Seen from its other end a rule edge grows the earlier
    coordinate, so each rule edge comes from exactly one of its ends."""
    arity = len(w)
    for j in range(arity):
        if not w[j]:
            continue
        for k in range(j + 1, arity):
            for bit in "01":
                yield tuple(
                    w[t][:-1] if t == j else (w[t] + bit if t == k else w[t])
                    for t in range(arity)
                )


def _flag_complex(
    words, index, d: int, message: str, neighbors=_word_neighbors
) -> SimplicialComplex:
    """Flag completion of the rule edges among ``words`` (``index`` maps each
    word tuple to its id, ``neighbors`` yields a word's rule neighbours that
    shrink one coordinate and grow a later one): the cliques become the
    simplices.  A clique of more than d+1 vertices raises
    ``ConstructionError(message)``."""
    nbrs = {i: set() for i in range(len(words))}
    for i, w in enumerate(words):
        for nb in neighbors(w):
            j = index.get(nb)
            if j is not None:
                nbrs[i].add(j)
                nbrs[j].add(i)
    levels = _clique_levels(nbrs, d + 2)
    if len(levels) > d + 1:
        raise ConstructionError(message)
    return _assemble(range(len(words)), (frozenset(c) for level in levels for c in level))


@dataclass(frozen=True)
class HorocyclicComplex:
    """Finite piece of the horocyclic product in the word model."""

    d: int
    ell: int
    complex: SimplicialComplex
    words: tuple  # vertex id -> word tuple


def build_H_ell(d: int, ell: int) -> HorocyclicComplex:
    """All word tuples of total length (d+1)*ell, with rule edges and flag
    completion.  Vertex ids follow (length profile, words) order."""
    if d < 1 or ell < 1:
        raise ValueError("need d >= 1 and ell >= 1")
    total = (d + 1) * ell
    count = math.comb(total + d, d) * 2**total
    if count > DEFAULT_VERTEX_LIMIT:
        raise _vertex_limit_error(count)

    words = []
    for cut in itertools.combinations(range(total + d), d):
        cuts = (-1, *cut, total + d)
        lengths = [cuts[t + 1] - cuts[t] - 1 for t in range(d + 1)]
        pools = [["".join(b) for b in itertools.product("01", repeat=m)] for m in lengths]
        words.extend(itertools.product(*pools))
    words.sort(key=lambda w: (tuple(len(x) for x in w), w))
    index = {w: i for i, w in enumerate(words)}
    cx = _flag_complex(words, index, d, "flag completion exceeded the product dimension")
    if cx.degree > 2 * d * (d + 1):
        raise ConstructionError(f"product degree {cx.degree} exceeds 2d(d+1) = {2 * d * (d + 1)}")
    return HorocyclicComplex(d, ell, cx, tuple(words))


def _canonical_function(items) -> tuple:
    """Canonical form of a weight function: ((sorted simplex), count) pairs
    ordered by (size, simplex)."""
    out = [(tuple(sorted(simplex)), int(cnt)) for simplex, cnt in items]
    out.sort(key=lambda p: (len(p[0]), p[0]))
    return tuple(out)


def _support_is_chain(sets) -> bool:
    ordered = sorted(map(frozenset, sets), key=len)
    return all(a < b for a, b in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class DLatticeComplex:
    """Lattice refinement of a barycentric complex.

    Vertices are the admissible weight functions (``functions[i]`` is the
    canonical form of vertex i).  ``pairs`` lists each refinement edge once
    as (lower end, upper end), the upper end one move up from the lower, and
    ``edges`` the same edges as sorted (u, v) pairs with u < v.  ``complex``
    holds the vertices with these 1-simplices.
    """

    d: int
    ell: int
    functions: tuple
    pairs: tuple
    edges: tuple

    @cached_property
    def complex(self) -> SimplicialComplex:
        vertices = frozenset(range(len(self.functions)))
        simplices = {frozenset((i,)) for i in vertices} | set(map(frozenset, self.edges))
        return SimplicialComplex(vertices, frozenset(simplices))


def build_D_ell(bary: SimplicialComplex, labels: dict, ell: int, d: int) -> DLatticeComplex:
    """All admissible weight functions on the chains of ``bary`` and their
    increment/decrement 1-simplices.

    ``labels`` identifies each barycentric vertex with its original simplex.
    A vertex is a function with chain support and total weight (d+1)*ell; an
    edge moves one unit of weight between two sets whose join with the
    support is still a chain.
    """
    total = (d + 1) * ell
    chains = sorted(bary.simplices, key=lambda c: (len(c), sorted(c)))
    expected = sum(math.comb(total - 1, len(c) - 1) for c in chains)
    if expected > DEFAULT_VERTEX_LIMIT:
        raise _vertex_limit_error(expected)

    supports = []  # per chain, its sets as sorted tuples by size
    made = []  # (function, chain number, weights)
    for chain in chains:
        sets = sorted((labels[m] for m in chain), key=len)
        if not _support_is_chain(sets):
            raise ConstructionError(f"barycentric simplex {sorted(chain)} is not a chain")
        # the sets of a chain differ in size, so the order by size is canonical
        keys = tuple(tuple(sorted(s)) for s in sets)
        for cut in itertools.combinations(range(1, total), len(sets) - 1):
            bounds = (0, *cut, total)
            weights = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            made.append((tuple(zip(keys, weights)), len(supports), weights))
        supports.append(keys)
    made.sort(key=lambda row: row[0])
    functions = tuple(fn for fn, _, _ in made)
    # position[c][weights] is the vertex of weights on chain c
    position: list = [{} for _ in supports]
    for i, (_, c, weights) in enumerate(made):
        position[c][weights] = i
    distinct = sum(map(len, position))
    if not distinct == len(functions) == expected:
        raise ConstructionError(
            f"{distinct} distinct of {len(functions)} weight functions, expected {expected}"
        )

    # on a barycentric subdivision, a set comparable with every support set
    # is exactly a label whose join with the support chain is a simplex
    sets = tuple(labels.values())
    cache: dict = {}
    chain_of = {keys: c for c, keys in enumerate(supports)}
    moves = [_chain_moves(keys, sets, cache, chain_of) for keys in supports]
    pairs = []
    degree = [0] * len(functions)
    for i, (_, c, weights) in enumerate(made):
        for neighbor, upper in _moves_up(weights, moves[c]):
            j = position[upper][neighbor]
            pairs.append((i, j))
            degree[i] += 1
            degree[j] += 1
    edges = sorted((i, j) if i < j else (j, i) for i, j in pairs)
    if any(a == b for a, b in zip(edges, edges[1:])):
        raise ConstructionError("a refinement edge was found twice")

    original = set(map(frozenset, labels.values()))
    deg_counts: dict = {}
    for s in original:
        if len(s) == 2:
            for v in s:
                deg_counts[v] = deg_counts.get(v, 0) + 1
    delta = max(deg_counts.values(), default=0)
    if max(degree, default=0) > delta * 2**delta:
        raise ConstructionError(
            f"refinement degree {max(degree)} exceeds delta * 2^delta for delta {delta}"
        )
    if len(functions) > len(bary.simplices) * (total + 1) ** d:
        raise ConstructionError(f"{len(functions)} weight functions exceed chains*((d+1)ell+1)^d")
    _check_dimension_witness(chains, labels, functions, total, d, cache)
    return DLatticeComplex(d, ell, functions, tuple(pairs), tuple(edges))


def _move_targets(support, sets, cache: dict) -> list:
    """The sets of ``sets`` that a unit of weight may move to from the
    chain ``support`` (its sets by size): those larger than its least set
    and comparable with every support set, so the support stays a chain.
    Each comes with its size, its position q by size (the number of support
    sets below it) and whether it is a support set; ``cache`` keeps them per
    support.  The support sets differ in size, so a set is comparable with
    all of them exactly when it contains set q - 1 and lies in set q."""
    targets = cache.get(support)
    if targets is None:
        chain = [frozenset(s) for s in support]
        sizes = [len(s) for s in chain]
        targets = cache[support] = []
        for t in sets:
            q = bisect.bisect_left(sizes, len(t))
            if q and chain[q - 1] <= t and (q == len(chain) or t <= chain[q]):
                present = q < len(chain) and sizes[q] == len(t)
                targets.append((len(t), q, present, tuple(sorted(t))))
    return targets


def _chain_moves(support, sets, cache: dict, chain_of: dict) -> list:
    """The moves up from a function on ``support`` as
    (p, q, present, keep, drop): a unit leaves the set at position p for the
    set at position q of the new support (``present`` when it is already a
    support set), and the new support is chain ``keep``, or chain ``drop``
    when the unit was the last at p.  The order is that of
    :func:`_one_move_neighbors`."""
    moves = []
    for p, dec in enumerate(support):
        for size, q, present, inc in _move_targets(support, sets, cache):
            if size <= len(dec):
                continue
            grown = support if present else support[:q] + (inc,) + support[q:]
            moves.append((p, q, present, chain_of[grown], chain_of[grown[:p] + grown[p + 1 :]]))
    return moves


def _moves_up(weights, moves):
    """(weights, chain) of each function one move up from the function of
    ``weights`` on the chain whose ``moves`` are given: ``weights`` spliced
    as :func:`_one_move_neighbors` splices the pairs."""
    for p, q, present, keep, drop in moves:
        left = weights[p] - 1
        head = weights[:p] + (left,) if left else weights[:p]
        if present:
            spliced = head + weights[p + 1 : q] + (weights[q] + 1,) + weights[q + 1 :]
        else:
            spliced = head + weights[p + 1 : q] + (1,) + weights[q:]
        yield spliced, keep if left else drop


def _one_move_neighbors(fn, sets, cache: dict):
    """Weight functions one move up from ``fn``, a canonical function with
    chain support: one unit of weight leaves a support set for a larger set
    of ``sets`` comparable with every support set, so the support stays a
    chain.  Comparable sets differ in size, so each refinement edge is one
    move up from its lower end, and each neighbour is ``fn`` spliced at the
    two sets' positions by size (see :func:`_move_targets`)."""
    targets = _move_targets(tuple(s for s, _ in fn), sets, cache)
    for p, (dec, cnt) in enumerate(fn):
        head = fn[:p] + ((dec, cnt - 1),) if cnt > 1 else fn[:p]
        for size, q, present, inc in targets:
            if size <= len(dec):
                continue
            if present:
                yield head + fn[p + 1 : q] + ((inc, fn[q][1] + 1),) + fn[q + 1 :]
            else:
                yield head + fn[p + 1 : q] + ((inc, 1),) + fn[q:]


def _check_dimension_witness(chains, labels, functions, total, d, cache):
    """The refinement reaches the source dimension: the corner cells of any
    longest chain give d+1 pairwise one-move functions, all among the sorted
    ``functions``."""
    if d == 0 or total < 2:
        return
    longest = max(chains, key=len)
    if len(longest) < d + 1:
        return
    sets = sorted((labels[m] for m in longest), key=len)
    witness = [_canonical_function([(sets[0], total)])]
    for t in range(1, d + 1):
        witness.append(_canonical_function([(sets[0], total - 1), (sets[t], 1)]))
    for fn in witness:
        i = bisect.bisect_left(functions, fn)
        if i == len(functions) or functions[i] != fn:
            raise ConstructionError("a corner cell of a longest chain is not a refinement vertex")
    for a, b in itertools.combinations(witness, 2):
        if b not in set(_one_move_neighbors(a, labels.values(), cache)):
            raise ConstructionError("corner cells of a longest chain are not one move apart")


def map_s(fn, ell: int, d: int, vertex_id_of: dict | None = None) -> tuple:
    """Word tuple of one refinement vertex: coordinate j encodes the minimal
    vertex of the support set of cardinality j, truncated to that set's
    weight; coordinates with no support set stay empty.  A support set that
    repeats a vertex is refused, so the word does not depend on the order
    of the pairs."""
    items = tuple(fn.items() if isinstance(fn, dict) else fn)
    if not _support_is_chain(s for s, _ in items):
        raise MalformedComplexError("support is not a chain")
    if any(c <= 0 for _, c in items):
        raise MalformedComplexError("weights must be positive")
    if sum(c for _, c in items) != (d + 1) * ell:
        raise MalformedComplexError(f"total weight must be {(d + 1) * ell}")
    words = [""] * (d + 1)
    for simplex, weight in items:
        card = len(simplex)
        if card > d + 1:
            raise MalformedComplexError("support set larger than d+1")
        if len(set(simplex)) != card:
            raise MalformedComplexError("support set repeats a vertex")
        ids = [vertex_id_of[v] for v in simplex] if vertex_id_of else list(simplex)
        words[card - 1] = binary_code(min(ids), weight, ell, d)
    return tuple(words)


# The packed coding map.  The word binary_code(k, w, ell, d) of a set with
# minimal id k and weight w is coded as the integer (w << ell) | x, where x is
# k when w >= ell (the word repeats k's ell bits) and k's top w bits when
# w < ell (the word is those bits).  Two codes are equal exactly when their
# words are, codes of one length sort like their words, and 0 codes the empty
# word.  A packed word is the tuple of its d+1 codes; revalidate_manifest keeps
# only the (coordinate, code) pairs of the support sets.


def _chain_coder(support, ell: int, d: int, vertex_id_of: dict | None = None) -> tuple:
    """:func:`map_s`'s checks on one support chain, made once for every
    function on it: the sets form a chain, each has at most d+1 vertices and
    repeats none, and each minimal id fits in ell bits.  Returns
    (coordinates, minimal ids), one entry per set in the order given: the
    set of j+1 vertices is coded at coordinate j."""
    if not _support_is_chain(support):
        raise MalformedComplexError("support is not a chain")
    coords, ids = [], []
    for simplex in support:
        card = len(simplex)
        if card > d + 1:
            raise MalformedComplexError("support set larger than d+1")
        if len(set(simplex)) != card:
            raise MalformedComplexError("support set repeats a vertex")
        k = min(vertex_id_of[v] for v in simplex) if vertex_id_of else min(simplex)
        if not 0 <= k < 2**ell:
            raise EncodingError(f"id {k} does not fit in {ell} bits")
        coords.append(card - 1)
        ids.append(k)
    return tuple(coords), tuple(ids)


def _code_row(ids, weights, ell: int, total: int) -> tuple:
    """Codes of one function's support sets, given the chain's minimal ids,
    after the checks that are the function's own: its weights are positive
    and sum to ``total``."""
    if any(w <= 0 for w in weights):
        raise MalformedComplexError("weights must be positive")
    if sum(weights) != total:
        raise MalformedComplexError(f"total weight must be {total}")
    return tuple((w << ell) | (k if w >= ell else k >> (ell - w)) for k, w in zip(ids, weights))


def _code_chain(support, rows, ell: int, d: int, vertex_id_of: dict | None = None) -> list:
    """The packed word of each function on one support chain, each given by
    its weights in ``rows``: the chain is checked once, each row only for
    its weights."""
    coords, ids = _chain_coder(support, ell, d, vertex_id_of)
    total = (d + 1) * ell
    empty = [0] * (d + 1)
    words = []
    for weights in rows:
        word = empty.copy()
        for j, code in zip(coords, _code_row(ids, weights, ell, total)):
            word[j] = code
        words.append(tuple(word))
    return words


def _render(code: int, ell: int) -> str:
    """The word a code stands for."""
    w, k = code >> ell, code & ((1 << ell) - 1)
    if w < ell:
        return format(k, f"0{w}b") if w else ""
    return (format(k, f"0{ell}b") * (w // ell + 1))[:w]


def _code_extends(x: int, y: int, ell: int) -> bool:
    """Whether the word of code x is that of code y plus one character."""
    if x >> ell != (y >> ell) + 1:
        return False
    mask = (1 << ell) - 1
    # past ell characters a word is fixed by its id; below, y's bits are x's but the last
    return (x & mask) == (y & mask) if x >> ell > ell else (x & mask) >> 1 == y & mask


def _packed_adjacent(a, b, ell: int) -> bool:
    """:func:`words_adjacent` on packed words given as (coordinate, code)
    pairs, where a coordinate left out holds the empty word."""
    ca, cb = dict(a), dict(b)
    diff = [j for j in ca.keys() | cb.keys() if ca.get(j, 0) != cb.get(j, 0)]
    if len(diff) != 2:
        return False
    (ai, aj), (bi, bj) = [ca.get(j, 0) for j in diff], [cb.get(j, 0) for j in diff]
    return (_code_extends(ai, bi, ell) and _code_extends(bj, aj, ell)) or (
        _code_extends(bi, ai, ell) and _code_extends(aj, bj, ell)
    )


def _code_neighbors(word, ell: int):
    """:func:`_word_neighbors` on a tuple of codes, yielding only tuples of
    codes: past ell characters a word grows only by the next bit of its id,
    since the other character leads out of the coding map's words."""
    mask = (1 << ell) - 1
    arity = len(word)
    for j in range(arity):
        w, x = word[j] >> ell, word[j] & mask
        if not w:
            continue
        shrunk = ((w - 1) << ell) | (x if w > ell else x >> 1)
        for k in range(j + 1, arity):
            w2, x2 = word[k] >> ell, word[k] & mask
            if w2 < ell:
                grown = (((w2 + 1) << ell) | (x2 << 1), ((w2 + 1) << ell) | (x2 << 1) | 1)
            else:
                grown = (((w2 + 1) << ell) | x2,)
            for code in grown:
                yield word[:j] + (shrunk,) + word[j + 1 : k] + (code,) + word[k + 1 :]


@dataclass(frozen=True)
class CoarseConstruction:
    """A validated construction record.

    The subdivision is an indexed vertex set with its 1-simplices;
    ``provsets`` maps each stored subdivision simplex (vertex or edge, keyed
    by a frozenset of ids) to the antichain of minimal source simplices
    carrying it -- a singleton for directly built records, possibly larger or
    empty after composition.  ``target`` is the full subcomplex spanned by
    the image.  ``kind`` is "lattice", "identity" or "composite".
    """

    kind: str
    source: SimplicialComplex
    d: int
    ell: int
    functions: tuple | None
    sub_edges: tuple
    vertex_map: tuple
    provsets: dict
    target: SimplicialComplex
    target_words: dict | None
    measured_k: int
    volume: int

    @property
    def n_sub_vertices(self) -> int:
        return len(self.vertex_map)

    def carried_sub_vertices(self) -> list:
        return [i for i in range(len(self.vertex_map)) if self.provsets[frozenset((i,))]]


def _measured_k(target: SimplicialComplex, vertex_map, sub_edges, provsets) -> int:
    """Max over the target's own simplices of the number of distinct carrier
    simplices whose refinement cells have images meeting that simplex; closed
    simplices meet exactly when their vertex sets intersect, so a cell counts
    towards every target vertex in its image.  A clique of the target's
    1-skeleton that is not a simplex does not count."""
    reach = {t: set() for t in target.vertices}
    for i in range(len(vertex_map)):
        t = vertex_map[i]
        if t in reach:
            reach[t].update(provsets[frozenset((i,))])
    for i, j in sub_edges:
        prov = provsets[frozenset((i, j))]
        for t in (vertex_map[i], vertex_map[j]):
            if t in reach:
                reach[t].update(prov)
    best = 0
    for simplex in target.simplices:
        hit = set()
        for t in simplex:
            hit |= reach[t]
        best = max(best, len(hit))
    return best


def _code_width(n: int) -> int:
    """Bits per vertex id in the codes of a source with n vertices."""
    return max(1, (n - 1).bit_length())


def coarse_construct(z: SimplicialComplex) -> CoarseConstruction:
    """Full pipeline: relabel to 0-indexed ids, pick the code width from the
    vertex count, subdivide twice, apply the coding map, and measure.

    The map is checked to be simplicial edge by edge; a violation raises
    ``ConstructionError`` since the construction guarantees it.
    """
    n = z.n_vertices
    if n == 0:
        raise MalformedComplexError("cannot construct from an empty complex")
    relabel = {v: i for i, v in enumerate(sorted(z.vertices))}
    d = z.dimension
    ell = _code_width(n)

    # refused before subdividing: one 9-vertex simplex already has about
    # 14M chains
    count = _lattice_vertex_count(z, (d + 1) * ell)
    if count > DEFAULT_VERTEX_LIMIT:
        raise _vertex_limit_error(count)
    bary, labels = barycentric_subdivision(z)
    lattice = build_D_ell(bary, labels, ell, d)
    functions = lattice.functions

    # a word depends on each support set's size and minimal id and on the
    # weights, so each support chain is checked and coded once
    members: dict = {}
    for i, fn in enumerate(functions):
        members.setdefault(tuple(s for s, _ in fn), []).append(i)
    words = [None] * len(functions)
    top_of = [0] * len(functions)  # number of each function's top among the tops
    tops: dict = {}
    for support, ids in members.items():
        rows = [tuple(w for _, w in functions[i]) for i in ids]
        top = tops.setdefault(support[-1], len(tops))  # the largest set is last
        for i, word in zip(ids, _code_chain(support, rows, ell, d, relabel)):
            words[i] = word
            top_of[i] = top
    image = sorted(set(words), key=lambda w: (tuple(code >> ell for code in w), w))
    target_id = {w: t for t, w in enumerate(image)}
    vertex_map = tuple(target_id[w] for w in words)

    target = _flag_complex(
        image,
        target_id,
        d,
        "image spans a simplex above the source dimension",
        lambda word: _code_neighbors(word, ell),
    )
    # _code_neighbors yields each rule edge from exactly one of its ends, so
    # the target's edges are exactly the adjacent pairs of image words.
    target_edges = set(target.edges)
    sub_edges = lattice.edges
    for i, j in sub_edges:
        a, b = vertex_map[i], vertex_map[j]
        if a != b and ((a, b) if a < b else (b, a)) not in target_edges:
            raise ConstructionError(f"coding map is not simplicial on refinement edge {i}-{j}")

    # a vertex is carried by its top, an edge by its upper end's top (a move
    # up never shrinks the top); reach[t] has a bit for each top carrying a
    # cell whose image meets target vertex t
    carriers = [frozenset((frozenset(top),)) for top in tops]
    provsets = {frozenset((i,)): carriers[top] for i, top in enumerate(top_of)}
    reach = [0] * len(image)
    for i, top in enumerate(top_of):
        reach[vertex_map[i]] |= 1 << top
    for pair in lattice.pairs:
        upper = top_of[pair[1]]
        provsets[frozenset(pair)] = carriers[upper]
        reach[vertex_map[pair[0]]] |= 1 << upper
    measured = 0
    for simplex in target.simplices:
        hit = 0
        for t in simplex:
            hit |= reach[t]
        measured = max(measured, hit.bit_count())
    volume = len(image)
    if volume > len(functions):
        raise ConstructionError(f"volume {volume} exceeds {len(functions)} refinement vertices")
    if measured > 2**z.degree:
        raise ConstructionError(f"measured_k {measured} exceeds 2^degree = {2**z.degree}")
    return CoarseConstruction(
        kind="lattice",
        source=z,
        d=d,
        ell=ell,
        functions=functions,
        sub_edges=sub_edges,
        vertex_map=vertex_map,
        provsets=provsets,
        target=target,
        target_words={t: tuple(_render(code, ell) for code in w) for t, w in enumerate(image)},
        measured_k=measured,
        volume=volume,
    )


def identity_construction(z: SimplicialComplex) -> CoarseConstruction:
    """The record of the identity map, usable as a composition operand."""
    verts = sorted(z.vertices)
    index = {v: i for i, v in enumerate(verts)}
    sub_edges = tuple(sorted((index[u], index[v]) for u, v in z.edges))
    provsets = {frozenset((index[v],)): frozenset((frozenset((v,)),)) for v in verts}
    for i, j in sub_edges:
        provsets[frozenset((i, j))] = frozenset((frozenset((verts[i], verts[j])),))
    vertex_map = tuple(verts)
    measured = _measured_k(z, vertex_map, sub_edges, provsets)
    return CoarseConstruction(
        kind="identity",
        source=z,
        d=max(z.dimension, 0),
        ell=0,
        functions=None,
        sub_edges=sub_edges,
        vertex_map=vertex_map,
        provsets=provsets,
        target=z,
        target_words=None,
        measured_k=measured,
        volume=z.n_vertices,
    )


def validate_construction(cc: CoarseConstruction, k_claim: int, vol_claim: int) -> list:
    """Recompute everything from the record's raw fields and compare with the
    claims: simpliciality, dimension preservation, the interference count
    against ``k_claim`` and the volume against ``vol_claim``."""
    rows = []

    target_edges = set(cc.target.edges)
    bad = 0
    for i, j in cc.sub_edges:
        if not cc.provsets[frozenset((i, j))]:
            continue
        a, b = cc.vertex_map[i], cc.vertex_map[j]
        if a != b and tuple(sorted((a, b))) not in target_edges:
            bad += 1
    rows.append(CheckRow("simplicial", bad, 0, bad == 0))

    src_dim = max(cc.source.dimension, 0)
    tgt_dim = max(cc.target.dimension, 0)
    rows.append(CheckRow("dimension-preserving", tgt_dim, src_dim, tgt_dim <= src_dim))

    measured = _measured_k(cc.target, cc.vertex_map, cc.sub_edges, cc.provsets)
    rows.append(CheckRow("measured_k <= claim", measured, k_claim, measured <= k_claim))

    carried = {cc.vertex_map[i] for i in cc.carried_sub_vertices()}
    rows.append(CheckRow("volume <= claim", len(carried), vol_claim, len(carried) <= vol_claim))
    return rows


def _cells(cc: CoarseConstruction, top: int):
    """(sorted simplex ids, provenance antichain) for every subdivision
    simplex of at most ``top`` vertices.

    A lattice record stores only vertices and edges; its simplices are the
    cliques of its edges.  The two ends of a one-move edge have supports
    that join into a chain, so the support sets in a whole clique are
    pairwise comparable, and pairwise comparable sets form a chain.  A
    clique is carried by the largest top among its vertices' supports.
    """
    if cc.kind == "identity":
        index = {v: i for i, v in enumerate(sorted(cc.source.vertices))}
        return [
            (tuple(sorted(index[v] for v in s)), frozenset((s,)))
            for s in cc.source.simplices
            if len(s) <= top
        ]
    if cc.kind == "lattice":
        tops = [frozenset(fn[-1][0]) for fn in cc.functions]
        nbrs = {i: set() for i in range(len(cc.functions))}
        for i, j in cc.sub_edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return [
            (c, frozenset((max((tops[i] for i in c), key=len),)))
            for level in _clique_levels(nbrs, top)
            for c in level
        ]
    if top > 2:
        raise ConstructionError(
            "composing onto a composite with a target of dimension above 1 is not supported"
        )
    return [(tuple(sorted(key)), prov) for key, prov in cc.provsets.items() if len(key) <= top]


def _min_antichain(sets) -> frozenset:
    out = []
    for s in sorted(sets, key=lambda x: (len(x), sorted(x))):
        if not any(t <= s for t in out):
            out.append(s)
    return frozenset(out)


def compose(cc1: CoarseConstruction, cc2: CoarseConstruction) -> CoarseConstruction:
    """Chain two records where the second was built on the image of the first.

    The composite keeps the second record's subdivision and vertex map but
    re-anchors every provenance antichain in the first source: a carrier of
    the second stage traces back to the minimal carriers of the first-stage
    cells whose images contain it.  Second-stage cells over simplices missed
    by the first image trace back to nothing and drop out of the volume.
    """
    if cc1.target != cc2.source:
        raise MalformedComplexError("target of the first record is not the source of the second")

    max_needed = max((len(s) for prov in cc2.provsets.values() for s in prov), default=1)
    sources1: dict = {}
    for simplex, prov in _cells(cc1, max_needed):
        image = frozenset(cc1.vertex_map[i] for i in simplex)
        if len(image) < len(simplex):
            continue  # collapsed cells are covered by their faces
        sources1.setdefault(image, set()).update(prov)

    def trace(provset) -> frozenset:
        hit = set()
        for carrier in provset:
            hit |= sources1.get(frozenset(carrier), set())
        return _min_antichain(hit)

    new_provsets = {key: trace(prov) for key, prov in cc2.provsets.items()}
    carried = sorted(
        {cc2.vertex_map[i] for i in range(len(cc2.vertex_map)) if new_provsets[frozenset((i,))]}
    )
    new_target = induced_subcomplex(cc2.target, carried)
    measured = _measured_k(new_target, cc2.vertex_map, cc2.sub_edges, new_provsets)
    volume = len(carried)
    if measured > cc1.measured_k * cc2.measured_k:
        raise ConstructionError(
            f"composite measured_k {measured} exceeds {cc1.measured_k} * {cc2.measured_k}"
        )
    if volume > cc2.volume:
        raise ConstructionError(f"composite volume {volume} exceeds {cc2.volume}")
    return CoarseConstruction(
        kind="composite",
        source=cc1.source,
        d=cc2.d,
        ell=cc2.ell,
        functions=cc2.functions,
        sub_edges=cc2.sub_edges,
        vertex_map=cc2.vertex_map,
        provsets=new_provsets,
        target=new_target,
        target_words=None
        if cc2.target_words is None
        else {t: cc2.target_words[t] for t in carried},
        measured_k=measured,
        volume=volume,
    )


def write_manifest(cc: CoarseConstruction) -> str:
    """Text form: one header line `h d ell n measured_k volume`, then one
    line per refinement vertex: `f <support:weight pairs> -> <words>` with
    0-indexed vertex ids and fields in canonical order."""
    if cc.kind != "lattice":
        raise ConstructionError("only directly constructed records have manifests")
    relabel = {v: i for i, v in enumerate(sorted(cc.source.vertices))}
    lines = [f"h {cc.d} {cc.ell} {cc.source.n_vertices} {cc.measured_k} {cc.volume}"]
    written: dict = {}  # support set -> its ids as written
    words = {t: ",".join(word) for t, word in cc.target_words.items()}
    for fn, t in zip(cc.functions, cc.vertex_map):
        parts = []
        for simplex, cnt in fn:
            ids = written.get(simplex)
            if ids is None:
                ids = written[simplex] = "-".join(str(relabel[v]) for v in simplex)
            parts.append(f"{ids}:{cnt}")
        lines.append(f"f {' '.join(parts)} -> {words[t]}")
    return "\n".join(lines) + "\n"


def parse_manifest(text: str):
    """Inverse of :func:`write_manifest`: (d, ell, n, measured_k, volume,
    functions, words), all vertex ids 0-indexed.  Each support set is read
    as a vertex set (`0-0` is `0`) and each function in canonical form."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("h "):
        raise MalformedComplexError("manifest must start with a header line")
    try:
        d, ell, n, k, volume = map(int, lines[0].split()[1:])
    except ValueError:
        raise MalformedComplexError(f"malformed manifest header: {lines[0]!r}") from None
    # map_s builds d + 1 words and codes of (d + 1) * ell characters, so the
    # header is bounded before any line is read: a source of n vertices has
    # dimension below n (an empty one may say 0) and needs _code_width(n)
    # bits per id.
    if n > HEADER_VERTEX_LIMIT or d >= max(n, 1) or ell > _code_width(n):
        raise MalformedComplexError(
            f"manifest header out of range (n <= HEADER_VERTEX_LIMIT={HEADER_VERTEX_LIMIT}, "
            f"d < max(n, 1), ell <= {_code_width(n)}): {lines[0]!r}"
        )
    functions = []
    words = []
    for ln in lines[1:]:
        if not ln.startswith("f ") or " -> " not in ln:
            raise MalformedComplexError(f"unexpected manifest line: {ln!r}")
        body, _, word = ln[2:].partition(" -> ")
        pairs = []
        for part in body.split():
            simplex, _, cnt = part.partition(":")
            try:
                pairs.append((frozenset(int(v) for v in simplex.split("-")), int(cnt)))
            except ValueError:
                raise MalformedComplexError(f"malformed manifest line: {ln!r}") from None
        functions.append(_canonical_function(pairs))
        words.append(tuple(word.split(",")))
    return d, ell, n, k, volume, tuple(functions), tuple(words)


def revalidate_manifest(text: str) -> list:
    """Re-derive everything checkable from a manifest alone.

    A line is admissible when its vertices are below n and the coding map
    accepts its weight function.  Counts the lines that are not, then
    recomputes each admissible line's word, rebuilds the refinement edges
    among those lines from the one-move relation, and replays the
    simpliciality and volume checks against the header claims.
    """
    d, ell, n, k_claim, vol_claim, functions, words = parse_manifest(text)
    rows = []

    # each support chain is checked once, and each admissible line keeps its
    # word packed as the (coordinate, code) pairs of its support sets, so
    # memory follows the manifest's size rather than the header's d and ell
    coders: dict = {}  # support -> (coordinates, minimal ids), None if refused

    def packed(fn):
        support = tuple(s for s, _ in fn)
        if support not in coders:
            try:
                coders[support] = _chain_coder(support, ell, d)
            except (MalformedComplexError, EncodingError):
                coders[support] = None
        if coders[support] is None:
            return None
        coords, ids = coders[support]
        try:
            return tuple(zip(coords, _code_row(ids, [w for _, w in fn], ell, (d + 1) * ell)))
        except MalformedComplexError:
            return None

    admitted = []  # (function, recorded word, packed word) of each admissible line
    for fn, word in zip(functions, words):
        if all(0 <= v < n for s, _ in fn for v in s):
            mapped = packed(fn)
            if mapped is not None:
                admitted.append((fn, word, mapped))
    bad_fn = len(functions) - len(admitted)
    rows.append(CheckRow("functions admissible", bad_fn, 0, bad_fn == 0))

    mismatches = sum(1 for _, word, mapped in admitted if not _word_matches(word, mapped, ell, d))
    rows.append(CheckRow("words match coding map", mismatches, 0, mismatches == 0))

    # the coding map accepted every admitted function, so its support is a
    # chain, and parse_manifest put it in the canonical form the one-move
    # relation splices.  A manifest may repeat a function, so each function
    # keeps the list of its lines.  Each pair of lines one move apart is one
    # move up from exactly one of them, so it is counted once, under the
    # pair of their words; each pair of distinct words is tested once.
    word_id: dict = {}  # packed word -> its number
    line_word = [word_id.setdefault(mapped, len(word_id)) for _, _, mapped in admitted]
    lines_of: dict = {}
    for i, (fn, _, _) in enumerate(admitted):
        lines_of.setdefault(fn, []).append(i)
    sets = {frozenset(s) for fn in lines_of for s, _ in fn}
    cache: dict = {}
    moved: Counter = Counter()  # (word, word) -> line pairs one move apart
    for i, (fn, _, _) in enumerate(admitted):
        for neighbor in _one_move_neighbors(fn, sets, cache):
            for j in lines_of.get(neighbor, ()):
                if line_word[i] != line_word[j]:
                    moved[line_word[i], line_word[j]] += 1
    packed_words = list(word_id)
    bad_edges = sum(
        count
        for (a, b), count in moved.items()
        if not _packed_adjacent(packed_words[a], packed_words[b], ell)
    )
    rows.append(CheckRow("simplicial on rebuilt edges", bad_edges, 0, bad_edges == 0))

    vol = len(word_id)
    rows.append(CheckRow("volume matches header", vol, vol_claim, vol == vol_claim))
    return rows


def _word_matches(word, mapped, ell: int, d: int) -> bool:
    """Whether a recorded word tuple is the packed word ``mapped``, whose
    codes have (d + 1) * ell characters in all.  The coordinate count, the
    total length and each coded coordinate's length are compared before
    that coordinate is rendered, so no rendered word is longer than the
    recorded one; with the total equal, the other coordinates are empty."""
    if len(word) != d + 1 or sum(map(len, word)) != (d + 1) * ell:
        return False
    return all(
        len(word[j]) == code >> ell and word[j] == _render(code, ell) for j, code in mapped
    )
