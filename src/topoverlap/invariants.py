"""Exact dimension-1 invariants with witnesses.

Cutwidth (optimal linear arrangements), the sweep-map overlap bound pair,
balanced vertex separators and the vertex Cheeger constant.  Everything here
is exact: optima come with witnesses, Cheeger values are rationals, and the
only non-certified routine (the annealing heuristic) is clearly marked as an
upper bound.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import SizeLimitError, components_of
from .complexes import SimplicialComplex, as_graph

__all__ = [
    "LinearArrangement",
    "SeparatorWitness",
    "CheegerWitness",
    "To1Bounds",
    "cutwidth_exact",
    "cutwidth_bruteforce",
    "cutwidth_heuristic",
    "sweep_overlap",
    "to1_bounds",
    "separation_cut",
    "cheeger_exact",
    "DEFAULT_DP_LIMIT",
    "DEFAULT_SEARCH_SIZE_LIMIT",
    "DEFAULT_STATE_LIMIT",
    "BRUTEFORCE_LIMIT",
    "SUBSET_SCAN_LIMIT",
]

# cutwidth_exact runs the subset DP on graphs of up to DEFAULT_DP_LIMIT
# vertices (1.5-5 s and 150 MB at 24 on a 2-core Xeon) and the prefix-set
# search on larger ones.  The search refuses a graph whose vertices plus
# edges exceed DEFAULT_SEARCH_SIZE_LIMIT outright, since its prefix sets are
# bit sets over all the vertices and each of its steps scans the choices
# and their edges, and gives up after DEFAULT_STATE_LIMIT steps, each a
# prefix set expanded or looked up.  The slowest graphs tried within both
# limits took about 6 s and 25 MB there to be refused.  Brute force tries
# n! orders.  The Cheeger scan fills one numpy table over all 2^n vertex
# sets: about 15 ms and 12 MB at n = 20 there.  The separator scan tests
# candidates by increasing size until the first balanced one, so its cost
# grows with the separator's size rather than with 2^n: K20, whose
# separator has 10 vertices, takes 431 911 candidates and about 0.4 s.
# Each solver reads its limits when it is called.
DEFAULT_DP_LIMIT = 24
DEFAULT_SEARCH_SIZE_LIMIT = 4096
DEFAULT_STATE_LIMIT = 1 << 17
BRUTEFORCE_LIMIT = 9
SUBSET_SCAN_LIMIT = 20

# The pure-Python subset DP is faster up to 8 vertices and numpy from 9 on.
# Per call of the DP and the order rebuild on random graphs (p = 0.2-0.7) on
# a shared 2-core Xeon, Python against numpy: 0.035-0.054 ms against
# 0.10-0.22 ms at n = 6, 0.15-0.26 ms against 0.15-0.40 ms at n = 8,
# 0.35-0.62 ms against 0.26-0.49 ms at n = 9, 0.78-1.28 ms against
# 0.33-0.69 ms at n = 10.
_PURE_PYTHON_DP_MAX = 8


def _gap_sums(n: int, spans):
    """The n + 1 cuts of an order of n positions: entry i counts the spans
    (a, b), positions a < b in 0..n-1, with a < i <= b, so entries 0 and n
    are 0.  The running sums of a difference array, in O(n + m) for m
    spans; an iterator, so that a caller wanting only the max builds
    nothing."""
    steps = [0] * (n + 1)
    for a, b in spans:
        steps[a + 1] += 1
        steps[b + 1] -= 1
    return itertools.accumulate(steps)


def _spans(order, edges):
    """Each edge as (a, b), its ends' positions in ``order`` with a < b."""
    pos = {v: i for i, v in enumerate(order)}
    for u, v in edges:
        a, b = pos[u], pos[v]
        yield (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LinearArrangement:
    """A vertex ordering together with its cut profile.

    ``order[i]`` is the vertex at position i+1; ``cut_profile[i]`` counts the
    edges vw with position(v) < i+1 <= position(w).  ``width`` is the maximum
    profile entry (0 for at most one vertex).
    """

    order: tuple
    cut_profile: tuple
    width: int

    @classmethod
    def from_order(cls, graph: SimplicialComplex, order) -> "LinearArrangement":
        verts, edges = as_graph(graph)
        order = tuple(order)
        if sorted(order) != list(verts):
            raise ValueError("order is not a bijection on the graph's vertices")
        profile = tuple(itertools.islice(_gap_sums(len(order), _spans(order, edges)), len(order)))
        return cls(order, profile, max(profile, default=0))


@dataclass(frozen=True)
class SeparatorWitness:
    """A minimum balanced separator: removing ``separator`` leaves every
    connected component with at most half of the original vertex count."""

    separator: tuple
    max_component: int


@dataclass(frozen=True)
class CheegerWitness:
    """Exact vertex Cheeger constant |boundary(A)| / |A| with its minimiser.

    ``value`` is a Fraction, or +inf when no witness exists (graphs with at
    most one vertex).
    """

    value: object
    witness_set: tuple | None

    @property
    def is_infinite(self) -> bool:
        return self.witness_set is None


@dataclass(frozen=True)
class To1Bounds:
    """Certified two-sided bounds for the minimal sweep overlap of a graph:
    cutwidth below, cutwidth + degree + 1 above, plus the overlap realized
    by the optimal arrangement's sweep map."""

    lower: int
    upper: int
    realized_overlap: int


def _index_graph(graph: SimplicialComplex):
    """The graph's sorted vertices and its edges as pairs of their indices."""
    verts, edges = as_graph(graph)
    index = {v: i for i, v in enumerate(verts)}
    return verts, [(index[u], index[v]) for u, v in edges]


def _adjacency(n: int, iedges) -> list:
    """The neighbours of each of the vertices 0..n-1 as a bit set."""
    adj = [0] * n
    for u, v in iedges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _suffix_dp_python(n, adj):
    """cut[S] and b[S] for all prefix sets S.

    cut[S] = edges between S and its complement; b[S] = best achievable max
    cut over completions of the prefix S.  b[0] is the cutwidth.
    """
    full = (1 << n) - 1
    deg = [adj[v].bit_count() for v in range(n)]
    cut = [0] * (full + 1)
    for s in range(1, full + 1):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        cut[s] = cut[rest] + deg[v] - 2 * (adj[v] & rest).bit_count()
    inf = float("inf")
    b = [inf] * (full + 1)
    b[full] = 0
    for s in range(full - 1, -1, -1):
        best = inf
        free = full & ~s
        while free:
            bit = free & -free
            t = s | bit
            cand = cut[t]
            if b[t] > cand:
                cand = b[t]
            if cand < best:
                best = cand
            free ^= bit
        b[s] = best
    return cut, b


def _suffix_dp_numpy(n, adj):
    """Same contract as :func:`_suffix_dp_python`, vectorised over subsets."""
    size = 1 << n
    # The sets with top vertex v are T + v for T below 2^v, and
    # cut(T + v) = cut(T) + deg v - 2 |N(v) & T|.  Both cut(T) and deg v are
    # at least |N(v) & T|, so the uint16 subtraction cannot wrap.
    cut = np.zeros(size, dtype=np.uint16)
    for v in range(n):
        low = 1 << v
        inside = np.bitwise_count(np.arange(low, dtype=np.uint32) & (adj[v] & (low - 1)))
        cut[low : 2 * low] = cut[:low] + adj[v].bit_count() - 2 * inside.astype(np.uint16)
    inf = np.uint16(60000)
    b = np.full(size, inf, dtype=np.uint16)
    b[size - 1] = 0
    # Sweep until nothing changes.  Each entry starts at inf or 0 and is only
    # ever lowered to the width of some completion, so b >= b* throughout.  A
    # sweep that changes nothing leaves b[S] <= min_v max(cut[S+v], b[S+v])
    # for every S, and induction down from the full set gives b = b*.  The
    # order rebuild reads whole tables, so only the exact fixed point will do.
    # Since entries are only ever lowered, a sweep that leaves the sum of b
    # unchanged has left every entry unchanged.
    total = int(b.sum(dtype=np.uint64))
    while True:
        for v in range(n):
            shape = (1 << (n - 1 - v), 2, 1 << v)
            bv = b.reshape(shape)
            cv = cut.reshape(shape)
            np.minimum(bv[:, 0, :], np.maximum(cv[:, 1, :], bv[:, 1, :]), out=bv[:, 0, :])
        total, before = int(b.sum(dtype=np.uint64)), total
        if total == before:
            return cut, b


def _dp_order(n, adj):
    """Cutwidth and the lexicographically smallest optimal order (vertex
    indices) from the subset DP."""
    if n <= _PURE_PYTHON_DP_MAX:
        cut, b = _suffix_dp_python(n, adj)
    else:
        cut, b = _suffix_dp_numpy(n, adj)
    width = int(b[0])
    order = []
    s, reached = 0, 0
    for _ in range(n):
        for v in range(n):
            if s >> v & 1:
                continue
            t = s | (1 << v)
            c = int(cut[t])
            if max(reached, c, int(b[t])) <= width:
                order.append(v)
                s, reached = t, max(reached, c)
                break
    return width, order


# Past the DP's vertex limit, cutwidth_exact searches prefix sets instead.
# An order has width <= k iff a chain of prefix sets S, each one vertex
# larger than the last, runs from the empty set to V with every cut(S) <= k.
# The search walks such chains depth first, remembers the prefix sets it has
# found dead, and asks k = lower bound, lower bound + 1, ... in turn.  A
# prefix set closed under the free moves below and with cut k has no move
# left, since every vertex it leaves would raise its cut.  Three exact
# reductions keep the search small.
#
# Free move.  If placing v does not raise the cut, S extends iff S + v does.
#   Move v to the front of a valid completion of S.  Each new prefix is
#   S + v + P where S + P was a prefix before.  The cut is submodular, so
#   cut(S + v + P) <= cut(S + v) - cut(S) + cut(S + P) <= cut(S + P) <= k.
#
# Degree-2 suppression.  Replacing a vertex w with edges to two distinct
#   vertices u and x by one edge ux leaves the cutwidth unchanged.  In an
#   order of the smaller graph, insert w right after the first of u and x:
#   the two gaps made from the one it splits are crossed by as many edges
#   as that gap was.  In an order with w, drop w: each gap between u and x
#   was crossed by uw or by wx and is now crossed by ux, and the gap left
#   where w was is crossed by no more edges than either of the two it
#   merges.  So the width is searched on the multigraph in which such
#   vertices are suppressed one at a time.  A vertex with both edges to one
#   neighbour is kept: its suppression would leave a loop, which crosses no
#   gap, while a cycle has width 2.  On the graph itself the free move does
#   the same work: once one end of a suppressed path is placed, each vertex
#   on it is free in turn, so only the vertices that survive suppression
#   are placed by a choice.
#
# Leaf block.  A leaf l whose neighbour u is unplaced is never chosen alone.
#   Moving l from anywhere before u to just before u, or from after u to
#   just after it, only removes the edge lu from the cuts it passes.  So u
#   is chosen together with a of its leaves placed just before it, which
#   peaks at cut + max(a, d - a) for u's cut change d, and the leaves left
#   over are free moves after u.  In the graph itself a leaf of the
#   suppressed multigraph is the far end of a path hanging from u.
#
# The order is rebuilt on the graph at the optimal width the way the DP
# rebuilds it: at each step the smallest vertex v with cut(S + v) <= k such
# that S + v still extends.  So both return the lexicographically smallest
# optimal order.  While doing so, a connected component with no placed
# vertex can wait: moving all of it to the end of a valid completion only
# takes its edges out of the cuts before, and at the end it needs only its
# own width, which is at most k.


class _StateBudget:
    """Counts the steps of one cutwidth search, against DEFAULT_STATE_LIMIT."""

    def __init__(self):
        self.limit = DEFAULT_STATE_LIMIT
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise SizeLimitError(
                f"cutwidth search gave up after DEFAULT_STATE_LIMIT={self.limit} "
                "steps; use cutwidth_heuristic for an upper bound"
            )


class _PrefixSearch:
    """Whether prefix sets extend to an order of width at most ``k``.

    ``nbrs[v]`` lists v's neighbours, once per edge.  Only the vertices in
    ``choices`` are placed by a choice, each possibly after the leaves in
    ``leaves[v]``, and only those in the bit set ``allowed``; the free moves
    place the rest.  A prefix set extends when it can grow until it holds
    the bit set ``goal``, by default every vertex.  ``cnt`` and ``placed``
    describe the prefix set the search stands on.
    """

    def __init__(self, nbrs, leaves, choices, k: int, budget: _StateBudget):
        self.nbrs = nbrs
        self.deg = deg = [len(a) for a in nbrs]
        self.nbits = [sum(1 << u for u in set(a)) for a in nbrs]
        self.leaves = leaves
        # away from the prefix set a choice peaks at its degree less the
        # leaves it takes along
        self.fresh = sorted((deg[v] - min(len(leaves[v]), deg[v] // 2), v) for v in choices)
        self.choice_bits = self.allowed = sum(1 << v for v in choices)
        self.goal = (1 << len(nbrs)) - 1
        self.k = k
        self.budget = budget
        self.cnt = [0] * len(nbrs)  # edges from each vertex into the prefix set
        self.placed = [False] * len(nbrs)
        self.dead = set()
        self.alive = set()

    def extend(self, v, free=()):
        """Place v, the vertices in ``free``, and every vertex that placing
        them frees.  Return the placed vertices, their bits, the bits of
        their neighbours and the change of the cut."""
        nbrs, deg, cnt, placed, nbits = self.nbrs, self.deg, self.cnt, self.placed, self.nbits
        placed[v] = True
        change = deg[v] - 2 * cnt[v]
        for u in nbrs[v]:
            cnt[u] += 1
        added, bits, reach = [v], 1 << v, nbits[v]
        stack = [*nbrs[v], *free]
        while stack:
            u = stack.pop()
            if placed[u] or deg[u] > 2 * cnt[u]:
                continue
            placed[u] = True
            change += deg[u] - 2 * cnt[u]
            for x in nbrs[u]:
                cnt[x] += 1
            added.append(u)
            bits |= 1 << u
            reach |= nbits[u]
            stack.extend(nbrs[u])
        return added, bits, reach, change

    def retract(self, added):
        nbrs, cnt, placed = self.nbrs, self.cnt, self.placed
        for u in added:
            placed[u] = False
            for x in nbrs[u]:
                cnt[x] -= 1

    def moves(self, s: int, reach: int, c: int) -> list:
        """The choices that keep the cut of the prefix set ``s`` (with
        neighbours ``reach`` and cut ``c``) at most k: vertices next to it
        first, then the others by their peak."""
        self.budget.spend()
        room = self.k - c
        deg, cnt, placed, leaves = self.deg, self.cnt, self.placed, self.leaves
        moves = []
        allowed = self.allowed
        near = reach & ~s & allowed
        while near:
            low = near & -near
            near ^= low
            v = low.bit_length() - 1
            rise = deg[v] - 2 * cnt[v]
            if rise > room:
                if not leaves[v]:
                    continue
                # the leaves placed first take up to half the rise
                first = min(sum(not placed[l] for l in leaves[v]), rise // 2)
                if rise - first > room:
                    continue
            moves.append(v)
        for peak, v in self.fresh:
            if peak > room:
                break
            if not (placed[v] or cnt[v]) and allowed >> v & 1:
                moves.append(v)
        return moves

    def feasible(self, s: int, reach: int, c: int) -> bool:
        """Whether the prefix set ``s`` extends.  ``s`` is closed under free
        moves, ``reach`` holds its vertices' neighbours and ``c`` is its
        cut; the search must stand on ``s``, and stands there again after.
        The depth-first walk keeps its own stack, so its depth is not bound
        by the interpreter's recursion limit."""
        self.budget.spend()
        goal, alive, dead, k = self.goal, self.alive, self.dead, self.k
        if s & goal == goal or s in alive:
            return True
        if s in dead:
            return False
        # one frame per prefix set on the walk: the set, its neighbours, its
        # cut, its untried moves and the vertices placed to reach it
        stack = [(s, reach, c, iter(self.moves(s, reach, c)), [])]
        while stack:
            s, reach, c, moves, _ = stack[-1]
            for v in moves:
                added, bits, more, change = self.extend(v)
                t = s | bits
                if t & goal == goal or t in alive:
                    self.retract(added)
                    for frame in reversed(stack):
                        alive.add(frame[0])
                        self.retract(frame[4])
                    return True
                if c + change == k or t in dead:
                    self.retract(added)
                    continue
                more |= reach
                stack.append((t, more, c + change, iter(self.moves(t, more, c + change)), added))
                break
            else:
                dead.add(s)
                self.retract(stack.pop()[4])
        return False


def _suppressed(n, iedges):
    """The multigraph left when every vertex with edges to two distinct
    neighbours is suppressed, one at a time: a dict per surviving vertex
    from neighbour to edge count, None for a suppressed vertex."""
    mult = [{} for _ in range(n)]
    for u, v in iedges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    # suppression keeps every other degree, and can only make a degree-2
    # vertex's two neighbours one, so a single pass finds every candidate
    for w in range(n):
        if len(mult[w]) == 2 and sum(mult[w].values()) == 2:
            u, x = mult[w]
            del mult[u][w], mult[x][w]
            mult[u][x] = mult[u].get(x, 0) + 1
            mult[x][u] = mult[x].get(u, 0) + 1
            mult[w] = None
    return mult


def _leaf_lists(vertices, mult, local):
    """Per vertex, the leaves of the multigraph ``mult`` among ``vertices``
    that hang from it, and the vertices placed by a choice: all others.
    ``local`` numbers the vertices of the lists."""
    leaves = [[] for _ in local]
    for l in vertices:
        if sum(mult[l].values()) == 1:
            (u,) = mult[l]
            if sum(mult[u].values()) > 1:
                leaves[local[u]].append(local[l])
    riders = {l for ls in leaves for l in ls}
    return leaves, [local[v] for v in vertices if local[v] not in riders]


def _search_width(n, mult, budget: _StateBudget) -> int:
    """Cutwidth of the suppressed multigraph ``mult``: the largest of its
    components' widths, each found by the prefix-set search from below."""
    kernel = [v for v in range(n) if mult[v] is not None]
    edges = [(u, x) for u in kernel for x in mult[u] if u < x]
    comps = [c for c in components_of(kernel, edges) if len(c) > 1]
    degrees = [sum(mult[v].values()) for v in kernel]
    # a vertex splits its edges over the gaps on its two sides
    width = max((d + 1) // 2 for d in degrees) if degrees else 0
    for comp in sorted(comps, key=len, reverse=True):
        local = {v: i for i, v in enumerate(comp)}
        cnbrs = [[local[u] for u, m in mult[v].items() for _ in range(m)] for v in comp]
        leaves, choices = _leaf_lists(comp, mult, local)
        search = _PrefixSearch(cnbrs, leaves, choices, width, budget)
        while not search.feasible(0, 0, 0):
            # a failed walk leaves the search where it started, and its dead
            # prefix sets are dead only at that width
            width = search.k = width + 1
            search.dead.clear()
    return width


def _search_order(n, iedges, mult, width: int, budget: _StateBudget) -> list:
    """The lexicographically smallest order of width ``width`` (the
    cutwidth), rebuilt on the graph itself with the prefix-set search as the
    oracle; ``mult`` is the graph's suppressed multigraph."""
    nbrs = [[] for _ in range(n)]
    for u, v in iedges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    kernel = [v for v in range(n) if mult[v] is not None]
    leaves, choices = _leaf_lists(kernel, mult, range(n))
    search = _PrefixSearch(nbrs, leaves, choices, width, budget)
    comps = components_of(range(n), iedges)
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    comp_bits = [sum(1 << v for v in comp) for comp in comps]
    # the search's goal: the components the order has entered
    goal = 0
    deg, cnt, placed = search.deg, search.cnt, search.placed
    order, s, reach, c, free, first = [], 0, 0, 0, set(), 0
    for _ in range(n):
        while placed[first]:
            first += 1
        for v in range(first, n):
            rise = deg[v] - 2 * cnt[v]
            if placed[v] or c + rise > width:
                continue
            if rise <= 0:
                break  # a free move
            search.goal = goal | comp_bits[comp_of[v]]
            search.allowed = search.goal & search.choice_bits
            added, bits, more, change = search.extend(v, free)
            ok = search.feasible(s | bits, reach | more, c + change)
            search.retract(added)
            if ok:
                break
        else:
            raise RuntimeError("cutwidth search: no vertex extends a feasible prefix set")
        placed[v] = True
        for u in nbrs[v]:
            cnt[u] += 1
            if not placed[u] and deg[u] <= 2 * cnt[u]:
                free.add(u)
        free.discard(v)
        goal |= comp_bits[comp_of[v]]
        order.append(v)
        s |= 1 << v
        reach |= search.nbits[v]
        c += rise
    return order


def _search_cutwidth(n, iedges):
    """Cutwidth and the lexicographically smallest optimal order (vertex
    indices) from the prefix-set search."""
    mult = _suppressed(n, iedges)
    budget = _StateBudget()
    width = _search_width(n, mult, budget)
    return width, _search_order(n, iedges, mult, width, budget)


def _cutwidth(n: int, iedges):
    """(order, cut profile, width) of the lexicographically smallest optimal
    order of the graph on the vertices 0..n-1 with these edges.  The order
    is checked to be a permutation whose own profile peaks at the optimum."""
    if n + len(iedges) > DEFAULT_SEARCH_SIZE_LIMIT:
        raise SizeLimitError(
            f"graph has {n} vertices and {len(iedges)} edges, more than "
            f"DEFAULT_SEARCH_SIZE_LIMIT={DEFAULT_SEARCH_SIZE_LIMIT} in all; "
            "use cutwidth_heuristic for an upper bound"
        )
    if n <= DEFAULT_DP_LIMIT:
        width, order = _dp_order(n, _adjacency(n, iedges))
    else:
        width, order = _search_cutwidth(n, iedges)
    if sorted(order) != list(range(n)):
        raise RuntimeError("cutwidth witness is not an order of the graph's vertices")
    profile = tuple(itertools.islice(_gap_sums(n, _spans(order, iedges)), n))
    if max(profile, default=0) != width:
        raise RuntimeError(f"cutwidth witness has width {max(profile, default=0)}, not the optimum {width}")
    return order, profile, width


def cutwidth_exact(graph: SimplicialComplex) -> LinearArrangement:
    """Optimal linear arrangement, the lexicographically smallest one.

    The cut between a placed prefix and the rest depends only on the prefix
    set.  Up to DEFAULT_DP_LIMIT vertices a dynamic program runs the min-max
    recursion over all 2^n subsets.  Larger graphs go to a depth-first
    search over the prefix sets with cut at most k, for k rising from a
    lower bound.  SizeLimitError refuses a graph whose vertices plus edges
    exceed DEFAULT_SEARCH_SIZE_LIMIT, and ends a search after
    DEFAULT_STATE_LIMIT steps.
    """
    verts, iedges = _index_graph(graph)
    order, profile, width = _cutwidth(len(verts), iedges)
    return LinearArrangement(tuple(verts[v] for v in order), profile, width)


_PERM_CACHE: dict = {}


def _perm_tables(n: int):
    if n not in _PERM_CACHE:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        _PERM_CACHE[n] = (perms, np.argsort(perms, axis=1).astype(np.int8))
    return _PERM_CACHE[n]


def cutwidth_bruteforce(graph: SimplicialComplex) -> LinearArrangement:
    """Cutwidth by evaluating every one of the n! orderings.

    Exists as the independent oracle for :func:`cutwidth_exact`; shares no
    logic with the subset DP beyond the cut-profile definition.
    """
    verts, iedges = _index_graph(graph)
    n = len(verts)
    if n > BRUTEFORCE_LIMIT:
        raise SizeLimitError(f"graph has {n} vertices, more than BRUTEFORCE_LIMIT={BRUTEFORCE_LIMIT}")
    if n <= 1:
        return LinearArrangement(tuple(verts), (0,) * n, 0)
    perms, pos = _perm_tables(n)
    gaps = np.arange(n - 1, dtype=np.int8)
    widths = np.zeros(len(perms), dtype=np.int16)
    counts = np.zeros((len(perms), n - 1), dtype=np.int16)
    for u, v in iedges:
        lo = np.minimum(pos[:, u], pos[:, v])[:, None]
        hi = np.maximum(pos[:, u], pos[:, v])[:, None]
        counts += (lo <= gaps) & (gaps < hi)
    widths = counts.max(axis=1)
    best = int(widths.min())
    first = int(np.argmax(widths == best))  # permutations are in lex order
    order = tuple(verts[i] for i in perms[first])
    return LinearArrangement.from_order(graph, order)


class _SwapOrder:
    """An order of the vertices 0..n-1 under adjacent swaps, with its gap
    cuts, a histogram of their values and its width kept up to date.

    Swapping positions i and i + 1 changes only the cut of gap i + 1, the
    one between them, by a sum over the two vertices' neighbours, so a swap
    costs O(deg) rather than a rescan of the order.
    """

    def __init__(self, order: list, nbrs: list, iedges):
        self.order = order
        self.nbrs = nbrs
        self.pos = [0] * len(order)
        for i, v in enumerate(order):
            self.pos[v] = i
        self.cuts = list(_gap_sums(len(order), _spans(order, iedges)))
        self.hist = [0] * (len(iedges) + 1)
        for c in self.cuts:
            self.hist[c] += 1
        self.width = max(self.cuts)

    def swap(self, i: int) -> int:
        """Swap positions i and i + 1 and return the new width."""
        order, pos = self.order, self.pos
        u, v = order[i], order[i + 1]
        delta = 0
        for w in self.nbrs[u]:
            p = pos[w]
            if p < i:
                delta += 1
            elif p > i + 1:
                delta -= 1
        for w in self.nbrs[v]:
            p = pos[w]
            if p > i + 1:
                delta += 1
            elif p < i:
                delta -= 1
        order[i], order[i + 1] = v, u
        pos[u], pos[v] = i + 1, i
        if delta:
            hist = self.hist
            old = self.cuts[i + 1]
            self.cuts[i + 1] = new = old + delta
            hist[old] -= 1
            hist[new] += 1
            if new > self.width:
                self.width = new
            while not hist[self.width]:  # gaps 0 and n keep a cut of 0
                self.width -= 1
        return self.width


def cutwidth_heuristic(
    graph: SimplicialComplex, seed: int = 0, budget: int = 2000
) -> LinearArrangement:
    """Simulated annealing over adjacent transpositions.

    Returns a valid arrangement, hence a certified upper bound on cutwidth;
    never used in certified inequalities.  Deterministic for a fixed seed.
    """
    verts, iedges = _index_graph(graph)
    n = len(verts)
    if n <= 1:
        return LinearArrangement(tuple(verts), (0,) * n, 0)
    rng = random.Random(seed)
    nbrs = [[] for _ in range(n)]
    for u, v in iedges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def descend(state):
        improved = True
        while improved:
            improved = False
            for i in range(n - 1):
                w = state.width
                if state.swap(i) < w:
                    improved = True
                else:
                    state.swap(i)

    # Orders are of vertex indices; the vertices are sorted, so comparing
    # two orders of indices compares the orders of their vertices.
    best_order = list(range(n))
    best_w = _SwapOrder(best_order, nbrs, iedges).width
    restarts = 3
    for restart in range(restarts):
        order = list(range(n))
        if restart:
            rng.shuffle(order)
        state = _SwapOrder(order, nbrs, iedges)
        temp, cooling = 2.0, 0.995
        for _ in range(budget // restarts):
            i = rng.randrange(n - 1)
            w = state.width
            w2 = state.swap(i)
            # keep a worse order with probability exp((w - w2) / temp)
            if w2 > w and rng.random() >= math.exp((w - w2) / max(temp, 1e-9)):
                state.swap(i)
            temp *= cooling
        descend(state)
        if (state.width, state.order) < (best_w, best_order):
            best_order, best_w = state.order, state.width
    return LinearArrangement.from_order(graph, [verts[i] for i in best_order])


def sweep_overlap(graph: SimplicialComplex, arrangement: LinearArrangement) -> int:
    """Exact overlap of the piecewise-linear sweep map of an arrangement.

    The sweep sends vertex v to its position and edge vw to the interval
    between its endpoint positions.  The overlap at level z counts the closed
    simplices whose image contains z; it can only change at integer levels,
    so the maximum over integer levels and gap midpoints is exact.  A vertex
    contributes only at its own level, so isolated vertices count 1 there
    and nothing elsewhere.
    """
    verts, edges = as_graph(graph)
    order = arrangement.order
    if sorted(order) != list(verts):
        raise ValueError("arrangement does not match the graph")
    if not order:
        return 0
    # The level of the vertex at position L meets it and the edges (a, b)
    # with a <= L <= b: the edges across gap L + 1 of an order one position
    # longer, each stretched to end one position later.  A level between two
    # positions meets only edges that the levels at both of them meet too.
    return 1 + max(_gap_sums(len(order) + 1, ((a, b + 1) for a, b in _spans(order, edges))))


def to1_bounds(graph: SimplicialComplex) -> To1Bounds:
    """Certified sandwich: cutwidth <= minimal sweep overlap <= cutwidth + degree + 1."""
    arrangement = cutwidth_exact(graph)
    lower = arrangement.width
    upper = lower + graph.degree + 1
    realized = sweep_overlap(graph, arrangement)
    if not lower <= realized <= upper:
        raise RuntimeError(f"sweep overlap {realized} outside the sandwich [{lower}, {upper}]")
    return To1Bounds(lower, upper, realized)


def _union_table(masks) -> list:
    """table[x] = the union of ``masks[v]`` over the bits v of x, for every
    x below 2^len(masks), by doubling."""
    table = [0]
    for a in masks:
        table += [t | a for t in table]
    return table


def _separator(n: int, iedges):
    """(removed bit set, largest component left) of the lexicographically
    smallest minimum balanced separator of the graph on the vertices
    0..n-1 with these edges."""
    if n > SUBSET_SCAN_LIMIT:
        raise SizeLimitError(f"graph has {n} vertices, more than SUBSET_SCAN_LIMIT={SUBSET_SCAN_LIMIT}")
    half = n // 2
    split = (n + 1) // 2
    closed = [a | 1 << v for v, a in enumerate(_adjacency(n, iedges))]
    low, high = _union_table(closed[:split]), _union_table(closed[split:])
    low_bits = (1 << split) - 1

    def largest_component(rest: int) -> int:
        largest, left = 0, rest.bit_count()
        while left > largest:
            comp = rest & -rest
            while True:
                grown = (low[comp & low_bits] | high[comp >> split]) & rest
                if grown == comp:
                    break
                comp = grown
            size = comp.bit_count()
            if size > half:
                return size
            largest = max(largest, size)
            rest ^= comp
            left -= size
        return largest

    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    for size in range(n + 1):
        for cand in itertools.combinations(bits, size):
            removed = sum(cand)
            largest = largest_component(full ^ removed)
            if largest <= half:
                return removed, largest
    raise AssertionError("removing all vertices always balances the graph")


def separation_cut(graph: SimplicialComplex) -> SeparatorWitness:
    """Minimum vertex set whose removal leaves all components of order <= n/2.

    Enumerates candidate separators in increasing size, lexicographically
    within a size, so the witness is the lexicographically smallest minimum
    separator.  Each candidate is tested by flood fills over bit sets that
    grow a component by a whole layer per step, from two tables of closed
    neighbourhoods, one per half of the vertices.  A fill stops at the first
    component of more than n/2 vertices, and once the vertices left
    unvisited cannot hold a component larger than the largest found.
    """
    verts, iedges = _index_graph(graph)
    removed, largest = _separator(len(verts), iedges)
    return SeparatorWitness(tuple(v for i, v in enumerate(verts) if removed >> i & 1), largest)


def _lex_first(masks, n: int) -> tuple:
    """The vertex indices of the bit set in ``masks`` (a numpy array of bit
    sets of one size) whose sorted tuple comes first lexicographically: for
    each vertex in turn, keep the sets holding it if any does."""
    for v in range(n):
        if len(masks) == 1:
            break
        has = (masks >> v) & 1 == 1
        if has.any():
            masks = masks[has]
    first = int(masks[0])
    return tuple(v for v in range(n) if first >> v & 1)


def cheeger_exact(graph: SimplicialComplex) -> CheegerWitness:
    """Exact vertex Cheeger constant via a full subset scan on bit sets.

    h = min |boundary(A)| / |A| over non-empty A with |A| <= n/2, as an exact
    Fraction; +inf when n <= 1 (the minimum ranges over an empty set).  The
    witness is the lexicographically smallest minimiser.  One numpy table
    holds the neighbours of every vertex set, the least boundary of each
    size gives the value, and a tie pass over the sizes that reach it picks
    the witness.
    """
    verts, iedges = _index_graph(graph)
    n = len(verts)
    if n > SUBSET_SCAN_LIMIT:
        raise SizeLimitError(f"graph has {n} vertices, more than SUBSET_SCAN_LIMIT={SUBSET_SCAN_LIMIT}")
    if n <= 1:
        return CheegerWitness(float("inf"), None)
    adj = _adjacency(n, iedges)
    # boundary[S] = |N(S) \ S| for every bit set S, from N(S + v) = N(S) | adj[v]
    # for the sets S below v
    near = np.zeros(1 << n, dtype=np.uint32)
    for v, a in enumerate(adj):
        np.bitwise_or(near[: 1 << v], a, out=near[1 << v : 2 << v])
    masks = np.arange(1 << n, dtype=np.uint32)
    near &= ~masks
    boundary = np.bitwise_count(near)
    sizes = np.bitwise_count(masks)
    least = np.full(n + 1, n, dtype=np.uint8)
    np.minimum.at(least, sizes, boundary)
    least = least.tolist()
    value = min(Fraction(least[s], s) for s in range(1, n // 2 + 1))
    # a minimiser of size s has boundary value * s, so only the sizes where
    # that is the least boundary hold one
    best = min(
        _lex_first(np.flatnonzero((sizes == s) & (boundary == least[s])), n)
        for s in range(1, n // 2 + 1)
        if value * s == least[s]
    )
    return CheegerWitness(value, tuple(verts[v] for v in best))
