import ast
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoverlap import (
    LinearArrangement,
    SizeLimitError,
    build_complex,
    cheeger_exact,
    cutwidth_bruteforce,
    cutwidth_exact,
    cutwidth_heuristic,
    separation_cut,
    sweep_overlap,
    to1_bounds,
)
from topoverlap import invariants
from topoverlap.invariants import _adjacency, _index_graph, _suffix_dp_numpy, _suffix_dp_python

from conftest import (
    clique,
    cycle,
    gapped_graph,
    grid,
    oracle_anneal,
    oracle_cheeger,
    oracle_cutwidth,
    oracle_separation,
    oracle_sweep,
    path,
    random_graph,
    star,
)


def small_graphs(draw):
    n = draw(st.integers(1, 7))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=12,
        )
    )
    return build_complex([list(e) for e in edges], extra_vertices=range(n))


graphs = st.composite(small_graphs)()


def test_cutwidth_named_values():
    assert cutwidth_exact(path(4)).width == 1
    assert cutwidth_exact(cycle(4)).width == 2
    assert cutwidth_exact(clique(5)).width == 6
    # past the DP's vertex limit
    assert cutwidth_exact(path(30)) == LinearArrangement.from_order(path(30), range(30))
    assert cutwidth_exact(cycle(40)).width == 2
    assert cutwidth_exact(grid(5, 6)).width == 6
    assert cutwidth_bruteforce(clique(4)).width == 4
    assert cutwidth_bruteforce(star(3)).width == 2
    assert cutwidth_bruteforce(build_complex([[0, 1]])).width == 1


def test_cutwidth_rejects_oversized(monkeypatch):
    # past the DP's vertex limit the search refuses once it has taken
    # DEFAULT_STATE_LIMIT steps, and names that limit
    monkeypatch.setattr(invariants, "DEFAULT_STATE_LIMIT", 10)
    with pytest.raises(SizeLimitError, match="DEFAULT_STATE_LIMIT"):
        cutwidth_exact(grid(5, 6))
    with pytest.raises(SizeLimitError):
        cutwidth_bruteforce(path(10))


def test_cutwidth_search_size_limit():
    """Up to DEFAULT_SEARCH_SIZE_LIMIT vertices plus edges the search solves
    a graph; past it the graph is refused before anything of a size
    quadratic in the vertex count is built, whatever its width."""
    limit = invariants.DEFAULT_SEARCH_SIZE_LIMIT
    assert cutwidth_exact(path((limit + 1) // 2)).width == 1
    assert cutwidth_exact(build_complex([], extra_vertices=range(limit))).width == 0
    with pytest.raises(SizeLimitError, match="DEFAULT_SEARCH_SIZE_LIMIT"):
        cutwidth_exact(path((limit + 1) // 2 + 1))
    for graph in [path(10**5), build_complex([], extra_vertices=range(10**5))]:
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="DEFAULT_SEARCH_SIZE_LIMIT"):
                cutwidth_exact(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_cut_profile_yardsticks():
    arr = cutwidth_exact(path(4))
    assert arr.cut_profile[0] == 0
    assert arr.width == max(arr.cut_profile)
    recomputed = LinearArrangement.from_order(path(4), arr.order)
    assert recomputed == arr


def _search(g):
    """The prefix-set search that cutwidth_exact runs past the DP's vertex
    limit, run on any graph."""
    verts, iedges = _index_graph(g)
    width, order = invariants._search_cutwidth(len(verts), iedges)
    arrangement = LinearArrangement.from_order(g, [verts[v] for v in order])
    assert arrangement.width == width
    return arrangement


@given(graphs)
@settings(max_examples=60, deadline=None)
def test_dp_matches_bruteforce_and_oracle(g):
    dp = cutwidth_exact(g)
    bf = cutwidth_bruteforce(g)
    search = _search(g)
    assert dp.width == bf.width == search.width
    # all three search rules return the lexicographically smallest optimum
    assert dp.order == bf.order == search.order
    if g.n_vertices <= 6:
        assert dp.width == oracle_cutwidth(g)


def test_search_matches_bruteforce_seeded():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(7, 9), rng.choice([0.15, 0.25, 0.4, 0.6]))
        got, want = _search(g), cutwidth_bruteforce(g)
        assert (got.width, got.order) == (want.width, want.order), sorted(g.edges)


def test_search_matches_dp_seeded():
    rng = random.Random(32)
    for _ in range(40):
        g = random_graph(rng, rng.randint(10, 20), rng.choice([0.1, 0.15, 0.2]))
        got, want = _search(g), cutwidth_exact(g)
        assert (got.width, got.order) == (want.width, want.order), sorted(g.edges)


def _theta(a, b, c):
    """Two vertices joined by paths with a, b and c inner vertices: after
    suppression a triple edge, or fewer parallel edges and a kept vertex."""
    edges, nxt = [], 2
    for inner in (a, b, c):
        prev = 0
        for _ in range(inner):
            edges.append([prev, nxt])
            prev, nxt = nxt, nxt + 1
        edges.append([prev, 1])
    return build_complex(edges)


def test_search_suppression_cases():
    disjoint = build_complex(
        [[i, (i + 1) % 4] for i in range(4)] + [[4, 5], [4, 6], [4, 7]], extra_vertices=range(9)
    )
    hanging = build_complex([[0, 1], [1, 2], [2, 3], [3, 1], [0, 4], [4, 5]])
    thetas = [_theta(1, 1, 1), _theta(0, 1, 2), _theta(2, 2, 2)]
    for g in [cycle(3), cycle(9), *thetas, disjoint, hanging]:
        got, want = _search(g), cutwidth_bruteforce(g)
        assert (got.width, got.order) == (want.width, want.order), sorted(g.edges)
    # multi-edge kernels, cycles and components, up to 20 vertices, against the DP
    dumbbell = build_complex(
        [[i, (i + 1) % 6] for i in range(6)]
        + [[6 + i, 6 + (i + 1) % 6] for i in range(6)]
        + [[0, 12], [12, 13], [13, 6]]
    )
    chain = build_complex(
        [[i, i + 1] for i in range(15)] + [[0, 5], [5, 10], [10, 15], [3, 16], [16, 17]]
    )
    # the larger component (a star) is the narrower one
    star_and_k4 = build_complex(
        [[0, i] for i in range(1, 6)] + [[u, v] for u in range(6, 10) for v in range(u + 1, 10)]
    )
    for g in [cycle(20), _theta(4, 5, 6), _theta(3, 3, 10), dumbbell, chain, star_and_k4]:
        got, want = _search(g), cutwidth_exact(g)
        assert (got.width, got.order) == (want.width, want.order), sorted(g.edges)
    assert _search(_theta(3, 4, 5)).width == 3


def test_numpy_dp_agrees_with_python_dp(rng):
    # the order rebuild reads cut[t] and b[t] for every prefix set it tries,
    # so the whole tables must agree on both sides of the switch point
    for n in range(9, 16):
        for p in (0.2, 0.7):
            g = random_graph(rng, n, p)
            adj = _adjacency(n, _index_graph(g)[1])
            cut_p, b_p = _suffix_dp_python(n, adj)
            cut_n, b_n = _suffix_dp_numpy(n, adj)
            assert list(map(int, cut_n)) == cut_p
            assert list(map(int, b_n)) == b_p


def test_numpy_dp_stops_at_the_fixed_point():
    # labellings whose optimal chains take many in-place sweeps to settle,
    # plus the empty graph and K_n, which settle after one
    def chain(labels):
        return [[labels[i], labels[i + 1]] for i in range(len(labels) - 1)]

    def zigzag(labels):
        """first, last, second, second to last, ..."""
        half = (len(labels) + 1) // 2
        return [x for i in range(half) for x in (labels[i], labels[-1 - i])][: len(labels)]

    for n in range(9, 15):
        # the caterpillar's spine runs down from n - 1 in steps of 2, and its
        # legs, the other labels in increasing order, hang from its low end up
        spine = list(range(n - 1, -1, -2))
        legs = [[leg, spine[-1 - i % len(spine)]] for i, leg in enumerate(range(n % 2, n, 2))]
        half = n // 2
        graphs = {
            "zigzag path": chain(zigzag(range(n))),
            "star at the last vertex": [[v, n - 1] for v in range(n - 1)],
            "caterpillar": chain(spine) + legs,
            "two components": chain(zigzag(range(half))) + chain(zigzag(range(half, n))),
            "empty": [],
            "clique": [[u, v] for u in range(n) for v in range(u + 1, n)],
        }
        for name, edges in graphs.items():
            verts, iedges = _index_graph(build_complex(edges, extra_vertices=range(n)))
            assert verts == tuple(range(n))
            adj = _adjacency(n, iedges)
            cut_p, b_p = _suffix_dp_python(n, adj)
            cut_n, b_n = _suffix_dp_numpy(n, adj)
            assert list(map(int, cut_n)) == cut_p, (n, name)
            assert list(map(int, b_n)) == b_p, (n, name)


def test_numpy_dp_memory():
    """The DP holds two tables of 2^n uint16 entries, cut and b, and one
    temporary of half a table in each vertex pass: about 6 MB at n = 20.
    A copy of b, or a whole-table comparison, per sweep would pass 7 MB."""
    g = random_graph(random.Random(0), 20, 0.25)
    tracemalloc.start()
    try:
        cutwidth_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_numpy_dp_used_above_threshold(rng):
    g = random_graph(rng, 17, 0.2)
    arr = cutwidth_exact(g)
    assert arr.width == max(arr.cut_profile)
    prof = LinearArrangement.from_order(g, arr.order)
    assert prof.width == arr.width


def test_heuristic_finds_path_optimum():
    for seed in range(5):
        assert cutwidth_heuristic(path(4), seed=seed).width == 1


def test_heuristic_is_valid_upper_bound():
    c4 = cutwidth_heuristic(cycle(4), seed=3)
    assert 2 <= c4.width <= 4
    k5 = cutwidth_heuristic(clique(5), seed=1)
    assert k5.width >= 6


def test_heuristic_deterministic():
    a = cutwidth_heuristic(cycle(8), seed=11, budget=500)
    b = cutwidth_heuristic(cycle(8), seed=11, budget=500)
    assert a == b


def _anneal_graphs():
    """60 seeded graphs: 0 to 2 vertices, then gapped labels with isolated
    vertices, every fourth with a second component far along the labels."""
    rng = random.Random(2525)
    graphs = []
    for i in range(60):
        g = gapped_graph(rng, i if i < 3 else rng.randint(3, 14), rng.choice((0.1, 0.25, 0.5)))
        if i % 4 == 3:
            h = gapped_graph(rng, rng.randint(2, 6), 0.6)
            edges = [list(e) for e in g.edges] + [[u + 100, v + 100] for u, v in h.edges]
            g = build_complex(edges, extra_vertices=list(g.vertices) + [v + 100 for v in h.vertices])
        graphs.append(g)
    return graphs


def test_heuristic_matches_full_rescore_oracle():
    """The annealer keeps every order of the oracle that rescores the whole
    order after each swap, at budgets of 0 to 5 swaps, where the descents
    do nearly all the work, and at the default budget."""
    for i, g in enumerate(_anneal_graphs()):
        budget = (0, 1, 2, 3, 4, 5, 2000)[i % 7]
        width, order = oracle_anneal(g, seed=i, budget=budget)
        arr = cutwidth_heuristic(g, seed=i, budget=budget)
        assert arr == LinearArrangement.from_order(g, order) and arr.width == width, i


def test_sweep_named_values():
    p3 = path(3)
    assert sweep_overlap(p3, LinearArrangement.from_order(p3, (0, 1, 2))) == 3
    edge = build_complex([[0, 1]])
    assert sweep_overlap(edge, LinearArrangement.from_order(edge, (0, 1))) == 2
    iso = build_complex([[0], [1]])
    assert sweep_overlap(iso, LinearArrangement.from_order(iso, (0, 1))) == 1


@given(graphs, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sweep_matches_level_oracle(g, rnd):
    order = sorted(g.vertices)
    rnd.shuffle(order)
    arr = LinearArrangement.from_order(g, order)
    assert sweep_overlap(g, arr) == oracle_sweep(g, order)


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_sandwich_bounds(g):
    if g.n_vertices == 0:
        return
    b = to1_bounds(g)
    assert b.lower <= b.realized_overlap <= b.upper
    assert b.upper == b.lower + g.degree + 1


def test_to1_named_values():
    assert (to1_bounds(path(4)).lower, to1_bounds(path(4)).upper) == (1, 4)
    assert (to1_bounds(cycle(4)).lower, to1_bounds(cycle(4)).upper) == (2, 5)
    assert (to1_bounds(clique(4)).lower, to1_bounds(clique(4)).upper) == (4, 8)


def test_separation_named_values():
    assert separation_cut(path(5)).separator == (2,)
    assert len(separation_cut(clique(4)).separator) == 2
    assert len(separation_cut(grid(3, 3)).separator) == 3


def test_separation_witness_is_lex_smallest_minimum():
    w = separation_cut(clique(4))
    assert w.separator == (0, 1)
    assert w.max_component == 2


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_separation_matches_oracle(g):
    w = separation_cut(g)
    assert (w.separator, w.max_component) == oracle_separation(g)


def test_cheeger_named_values():
    assert cheeger_exact(cycle(4)).value == 1
    p4 = cheeger_exact(path(4))
    assert p4.value == Fraction(1, 2)
    assert p4.witness_set == (0, 1)
    assert cheeger_exact(clique(4)).value == 1
    assert cheeger_exact(build_complex([[0]])).is_infinite


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_cheeger_matches_oracle(g):
    got = cheeger_exact(g)
    expected = oracle_cheeger(g)
    if expected is None:
        assert got.is_infinite
    else:
        assert (got.value, got.witness_set) == expected
        # witness reproduces the value exactly
        a = set(got.witness_set)
        adj = {v: set() for v in g.vertices}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        boundary = set().union(*(adj[v] for v in a)) - a if a else set()
        assert Fraction(len(boundary), len(a)) == got.value


def seeded_scan_graphs():
    """Graphs of up to 14 vertices with gapped labels, made of one to three
    random components and up to two more isolated vertices."""
    rng = random.Random(1111)
    out = []
    for _ in range(120):
        labels = iter(sorted(rng.sample(range(40), 14)))
        edges, vertices = [], []
        for _ in range(rng.randint(1, 3)):
            comp = [next(labels) for _ in range(rng.randint(1, 4))]
            p = rng.choice([0.3, 0.6, 1.0])
            edges += [[u, v] for i, u in enumerate(comp) for v in comp[i + 1:] if rng.random() < p]
            vertices += comp
        vertices += [next(labels) for _ in range(rng.randint(0, 2))]
        out.append(build_complex(edges, extra_vertices=vertices))
    return out


def test_scan_witnesses_match_oracles_on_seeded_graphs():
    for g in seeded_scan_graphs():
        sep = separation_cut(g)
        assert (sep.separator, sep.max_component) == oracle_separation(g)
        h = cheeger_exact(g)
        expected = oracle_cheeger(g)
        if expected is None:
            assert h.is_infinite
        else:
            assert (h.value, h.witness_set) == expected


def test_cheeger_scan_cost_at_the_limit():
    g = random_graph(random.Random(20), 20, 0.25)
    start = time.perf_counter()
    cheeger_exact(g)
    assert time.perf_counter() - start < 1.0
    tracemalloc.start()
    try:
        cheeger_exact(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_separator_scan_cost_on_K20():
    """K20's separator has 10 vertices, found after 431 911 candidates."""
    start = time.perf_counter()
    w = separation_cut(clique(20))
    assert time.perf_counter() - start < 5.0
    assert (w.separator, w.max_component) == (tuple(range(10)), 10)


def test_subset_scan_guards():
    with pytest.raises(SizeLimitError):
        cheeger_exact(path(21))
    with pytest.raises(SizeLimitError):
        separation_cut(path(21))


def test_vertex_limits_refuse_before_any_table():
    """cheeger_exact, separation_cut and cutwidth_bruteforce refuse a graph
    past their vertex limit before they build its bit sets or permutation
    tables, so a 20 000-vertex path is refused in a few MB."""
    g = path(20_000)
    for solver, limit in (
        (cheeger_exact, "SUBSET_SCAN_LIMIT"),
        (separation_cut, "SUBSET_SCAN_LIMIT"),
        (cutwidth_bruteforce, "BRUTEFORCE_LIMIT"),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match=limit):
                solver(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (solver.__name__, peak)


def test_guarantees_run_under_optimize():
    """The guarantees of find_translate, to1_bounds, verify_expander_chain,
    the cutwidth witness (through cutwidth_exact and through profile) and
    the complex size bound are raises, not asserts, so ``python -O`` keeps
    them: each is broken on purpose by patching what it relies on."""
    script = """
import sys
from fractions import Fraction
from topoverlap import CubeSet, build_complex, complexes, cubes, invariants, profiles

def attempt(check):
    try:
        check()
        print("not refused")
    except RuntimeError as exc:
        print("refused:", exc)

print("optimize", sys.flags.optimize)
cubes.cube_in_Y = lambda m, r, q, k: True
attempt(lambda: cubes.find_translate(CubeSet.of(1, [(0,), (1,)]), 2, 1))
invariants.sweep_overlap = lambda graph, arrangement: -1
attempt(lambda: invariants.to1_bounds(build_complex([[0, 1]])))
profiles._ceil_log2 = lambda x: 0
attempt(lambda: profiles.verify_expander_chain(build_complex([[0, 1], [1, 2]]), Fraction(1, 2)))
invariants._dp_order = lambda n, adj: (n, list(range(n)))
attempt(lambda: invariants.cutwidth_exact(build_complex([[0, 1], [1, 2]])))
attempt(lambda: profiles.profile(build_complex([[0, 1], [1, 2]]), "cutwidth", 3))
complexes.SimplicialComplex.degree = property(lambda cx: 0)
attempt(lambda: build_complex([[0, 1]]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert len(lines) == 7 and all(line.startswith("refused: ") for line in lines[1:]), lines


def test_src_has_no_assert_statements():
    """Certification checks must survive ``python -O``, which strips every
    ``assert``; so no module of the package may use one."""
    src = Path(__file__).resolve().parents[1] / "src" / "topoverlap"
    modules = sorted(src.glob("*.py"))
    assert modules
    found = [
        f"{module.name}:{node.lineno}"
        for module in modules
        for node in ast.walk(ast.parse(module.read_text(), str(module)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
