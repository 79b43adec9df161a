"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from topoverlap import build_complex
from topoverlap.complexes import SimplicialComplex, as_graph


def path(n: int) -> SimplicialComplex:
    return build_complex([[i, i + 1] for i in range(n - 1)], extra_vertices=range(n))


def cycle(n: int) -> SimplicialComplex:
    return build_complex([[i, (i + 1) % n] for i in range(n)])


def clique(n: int) -> SimplicialComplex:
    return build_complex([[i, j] for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> SimplicialComplex:
    return build_complex([[0, i] for i in range(1, leaves + 1)])


def grid(rows: int, cols: int) -> SimplicialComplex:
    edges = [[cols * r + c, cols * r + c + 1] for r in range(rows) for c in range(cols - 1)]
    edges += [[cols * r + c, cols * (r + 1) + c] for r in range(rows - 1) for c in range(cols)]
    return build_complex(edges)


def hypercube(dim: int) -> SimplicialComplex:
    return build_complex(
        [[a, a ^ (1 << b)] for a in range(2**dim) for b in range(dim) if a < a ^ (1 << b)]
    )


def random_graph(rng: random.Random, n: int, p: float) -> SimplicialComplex:
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_complex(edges, extra_vertices=range(n))


def gapped_graph(rng: random.Random, n: int, p: float) -> SimplicialComplex:
    """G(n, p) on n sorted labels drawn from 0..3n, so that labels skip."""
    labels = sorted(rng.sample(range(3 * n + 1), n))
    edges = [[labels[u], labels[v]] for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_complex(edges, extra_vertices=labels)


def random_complex(rng: random.Random, n_max=32, deg_max=6) -> SimplicialComplex:
    """Random complex of dimension <= 2 with bounded edge-degree: sampled
    edges respecting the degree cap, then a random subset of the triangles
    they span."""
    n = rng.randint(1, n_max)
    deg = {v: 0 for v in range(n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    target_m = rng.randint(0, n * deg_max // 2)
    edges = []
    for u, v in pairs:
        if len(edges) >= target_m:
            break
        if deg[u] < deg_max and deg[v] < deg_max:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    eset = set(edges)
    triangles = [
        [u, v, w]
        for u, v in edges
        for w in range(v + 1, n)
        if (u, w) in eset and (v, w) in eset and rng.random() < 0.7
    ]
    return build_complex(triangles + [list(e) for e in edges], extra_vertices=range(n))


# --- independent oracles -------------------------------------------------


def oracle_cutwidth(graph: SimplicialComplex) -> int:
    """Min over all orderings of the max gap crossing count, by definition."""
    verts, edges = as_graph(graph)
    n = len(verts)
    if n <= 1:
        return 0
    best = None
    for perm in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(perm)}
        width = 0
        for gap in range(n - 1):
            width = max(width, sum(1 for u, v in edges if min(pos[u], pos[v]) <= gap < max(pos[u], pos[v])))
        best = width if best is None else min(best, width)
    return best


def oracle_dp_order(n: int, cut, b) -> tuple:
    """Cutwidth and the lexicographically smallest optimal order from the
    subset DP's tables, by walking them: at each step the smallest unplaced
    v whose prefix set S + v keeps every cut so far and b[S + v] at most
    the width.  Reads only the tables, not the graph."""
    width = int(b[0])
    order, s, reached = [], 0, 0
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


def oracle_sweep(graph: SimplicialComplex, order) -> int:
    """Overlap of the sweep map by sampling every integer level and gap
    midpoint against interval membership."""
    verts, edges = as_graph(graph)
    pos = {v: i + 1.0 for i, v in enumerate(order)}
    n = len(verts)
    best = 0
    levels = [float(i) for i in range(1, n + 1)] + [i + 0.5 for i in range(1, n)]
    for z in levels:
        count = sum(1 for v in verts if pos[v] == z)
        count += sum(1 for u, v in edges if min(pos[u], pos[v]) <= z <= max(pos[u], pos[v]))
        best = max(best, count)
    return best


def oracle_separation(graph: SimplicialComplex) -> tuple:
    """The lexicographically smallest minimum balanced separator and the
    order of the largest component it leaves, by scanning vertex subsets by
    size in ``itertools.combinations`` order."""
    verts, edges = as_graph(graph)
    n = len(verts)
    for size in range(n + 1):
        for cand in itertools.combinations(verts, size):
            removed = set(cand)
            comps = _components([v for v in verts if v not in removed],
                                [(u, v) for u, v in edges if u not in removed and v not in removed])
            if all(len(c) <= n / 2 for c in comps):
                return cand, max((len(c) for c in comps), default=0)
    raise AssertionError


def oracle_cheeger(graph: SimplicialComplex):
    """Exact vertex expansion and its lexicographically smallest minimiser,
    as ``(value, witness)``, by scanning all subsets of size <= n/2; None
    when n <= 1."""
    from fractions import Fraction

    verts, edges = as_graph(graph)
    n = len(verts)
    if n <= 1:
        return None
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = witness = None
    for size in range(1, n // 2 + 1):
        for cand in itertools.combinations(verts, size):
            a = set(cand)
            boundary = set().union(*(adj[v] for v in a)) - a
            val = Fraction(len(boundary), len(a))
            if best is None or val < best or (val == best and cand < witness):
                best, witness = val, cand
    return best, witness


def oracle_delta(cx: SimplicialComplex) -> int:
    """Max over simplices s of the simplices meeting s, by intersecting
    every pair."""
    simp = list(cx.simplices)
    return max((sum(1 for t in simp if s & t) for s in simp), default=0)


def oracle_cliques(nbrs: dict, top: int, keep=None) -> list:
    """levels[k] = the (k+1)-vertex cliques of the graph ``nbrs`` in
    lexicographic order, for at most ``top`` vertices, by testing every
    vertex subset for pairwise adjacency; ``keep`` (closed under taking
    subsets) must also accept a clique of 3 or more vertices.  Stops at the
    first empty level."""
    levels = []
    for size in range(1, top + 1):
        level = [
            c
            for c in itertools.combinations(sorted(nbrs), size)
            if all(v in nbrs[u] for u, v in itertools.combinations(c, 2))
            and (keep is None or size < 3 or keep(c))
        ]
        if not level:
            break
        levels.append(level)
    return levels


def oracle_chains(cx: SimplicialComplex) -> set:
    """Every strictly increasing chain of simplices of ``cx``, as a
    frozenset of simplices, by testing every family of at most dim+1
    simplices."""
    simplices = list(cx.simplices)
    out = set()
    for k in range(1, cx.dimension + 2):
        for family in itertools.combinations(simplices, k):
            ordered = sorted(family, key=len)
            if all(a < b for a, b in zip(ordered, ordered[1:])):
                out.add(frozenset(family))
    return out


def oracle_one_move(fn_a, fn_b) -> bool:
    """Two weight functions, given as (simplex, weight) pairs, differ by one
    unit of weight moved from one set to another, and the sets of both
    supports together form a chain, by definition."""
    a = {frozenset(s): c for s, c in fn_a}
    b = {frozenset(s): c for s, c in fn_b}
    keys = sorted(set(a) | set(b), key=len)
    if not all(x < y for x, y in zip(keys, keys[1:])):
        return False
    deltas = sorted(a.get(k, 0) - b.get(k, 0) for k in keys)
    return [x for x in deltas if x] == [-1, 1]


def oracle_profile(host: SimplicialComplex, invariant: str, r_max: int) -> dict:
    """r -> (value, witness) of an exact profile, by walking every vertex
    subset of each size in ``itertools.combinations`` order, skipping the
    disconnected ones and keeping the first strict maximiser."""
    from topoverlap import cutwidth_exact, induced_subcomplex, separation_cut, skeleton

    if host.dimension > 1:
        host = skeleton(host, 1)
    verts, edges = as_graph(host)
    out = {0: (0, ())}
    best, witness = 0, ()
    for r in range(1, r_max + 1):
        for subset in itertools.combinations(verts, r) if r <= len(verts) else ():
            inside = set(subset)
            if len(_components(list(subset), [e for e in edges if e[0] in inside and e[1] in inside])) > 1:
                continue
            sub = induced_subcomplex(host, subset)
            if invariant == "cutwidth":
                val = cutwidth_exact(sub).width
            else:
                val = len(separation_cut(sub).separator)
            if val > best:
                best, witness = val, subset
        out[r] = (best, witness)
    return out


def oracle_translate(k: int, roots, r: int, q: int) -> tuple:
    """``(v, count)`` of the translate search, by trying every shift v in
    {0..r-1}^k and counting the roots m with (m_j - v_j + 1) divisible by r
    in at least q axes; the lexicographically smallest minimiser."""
    best = None
    for v in itertools.product(range(r), repeat=k):
        count = sum(1 for m in roots if sum((x - d + 1) % r == 0 for x, d in zip(m, v)) >= q)
        if best is None or count < best[1]:
            best = (v, count)
    return best


def oracle_anneal(graph: SimplicialComplex, seed: int = 0, budget: int = 2000) -> tuple:
    """``(width, order)`` of the annealing heuristic, rescoring the whole
    order after every swap: three restarts of ``budget // 3`` random
    adjacent swaps under a cooling temperature, each followed by a descent
    through the swaps that lower the width."""
    import math

    verts, edges = as_graph(graph)
    n = len(verts)
    if n <= 1:
        return 0, tuple(verts)
    rng = random.Random(seed)

    def width_of(order):
        pos = {v: i for i, v in enumerate(order)}
        steps = [0] * (n + 1)
        for u, v in edges:
            a, b = sorted((pos[u], pos[v]))
            steps[a + 1] += 1
            steps[b + 1] -= 1
        return max(itertools.accumulate(steps))

    def descend(order):
        order = list(order)
        w = width_of(order)
        improved = True
        while improved:
            improved = False
            for i in range(n - 1):
                order[i], order[i + 1] = order[i + 1], order[i]
                w2 = width_of(order)
                if w2 < w:
                    w = w2
                    improved = True
                else:
                    order[i], order[i + 1] = order[i + 1], order[i]
        return order, w

    best_order = list(verts)
    best_w = width_of(best_order)
    for restart in range(3):
        order = list(verts)
        if restart:
            rng.shuffle(order)
        w = width_of(order)
        temp = 2.0
        for _ in range(budget // 3):
            i = rng.randrange(n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
            w2 = width_of(order)
            if w2 <= w or rng.random() < math.exp((w - w2) / max(temp, 1e-9)):
                w = w2
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
            temp *= 0.995
        order, w = descend(order)
        if (w, order) < (best_w, best_order):
            best_order, best_w = order, w
    return best_w, tuple(best_order)


def _components(verts, edges):
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, comps = set(), []
    for s in verts:
        if s in seen:
            continue
        stack, comp = [s], []
        seen.add(s)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def all_subgraph_values(host: SimplicialComplex, value_fn) -> dict:
    """max of value_fn over ALL subgraphs (any vertex subset, any edge
    subset) with at most r vertices, for every r.  Tiny hosts only."""
    verts, edges = as_graph(host)
    best = {r: 0 for r in range(len(verts) + 1)}
    for size in range(len(verts) + 1):
        for vs in itertools.combinations(verts, size):
            vset = set(vs)
            avail = [e for e in edges if e[0] in vset and e[1] in vset]
            for k in range(len(avail) + 1):
                for es in itertools.combinations(avail, k):
                    sub = build_complex([list(e) for e in es], extra_vertices=vs)
                    val = value_fn(sub)
                    for r in range(size, len(verts) + 1):
                        best[r] = max(best[r], val)
    return best


@pytest.fixture
def rng():
    return random.Random(12345)
