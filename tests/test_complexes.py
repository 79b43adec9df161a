import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoverlap import (
    MalformedComplexError,
    barycentric_subdivision,
    build_complex,
    induced_subcomplex,
    skeleton,
    stats,
)

from topoverlap.complexes import _clique_levels

from conftest import cycle, oracle_chains, oracle_cliques, oracle_delta, path, random_complex


def test_build_triangle_closure():
    cx = build_complex([[0, 1, 2]])
    assert cx.n_vertices == 3
    assert cx.simplex_count == 7
    assert cx.dimension == 2
    assert len(cx.edges) == 3


def test_build_isolated_points():
    cx = build_complex([[0], [1]])
    assert cx.n_vertices == 2
    assert cx.edges == ()


def test_build_hollow_triangle():
    cx = build_complex([[0, 1], [1, 2], [2, 0]])
    assert cx.simplex_count == 6
    assert cx.dimension == 1


def test_build_rejects_bad_input():
    with pytest.raises(MalformedComplexError):
        build_complex([[0, 0, 1]])
    with pytest.raises(MalformedComplexError):
        build_complex([[]])
    with pytest.raises(MalformedComplexError):
        build_complex([[-1, 2]])


maximal_families = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=0,
    max_size=6,
)


@given(maximal_families)
@settings(max_examples=60)
def test_downward_closure_and_size_bound(family):
    cx = build_complex(family)
    for s in cx.simplices:
        for k in range(1, len(s)):
            for sub in itertools.combinations(s, k):
                assert frozenset(sub) in cx.simplices
    if cx.n_vertices:
        assert cx.simplex_count <= cx.n_vertices * 2**cx.degree


@given(maximal_families)
@settings(max_examples=30)
def test_build_idempotent_on_closed_input(family):
    cx = build_complex(family)
    again = build_complex([sorted(s) for s in cx.simplices])
    assert again == cx


def test_stats_examples():
    full = stats(build_complex([[0, 1, 2]]))
    assert (full.dimension, full.degree, full.delta, full.simplex_count) == (2, 2, 7, 7)
    # delta of the 2-edge path: {0,1} meets {0},{1},{0,1},{1,2}
    p3 = stats(build_complex([[0, 1], [1, 2]]))
    assert (p3.dimension, p3.degree, p3.delta, p3.simplex_count) == (1, 2, 4, 5)
    single = stats(build_complex([[0]]))
    assert (single.dimension, single.degree, single.delta, single.simplex_count) == (0, 0, 1, 1)


@given(maximal_families.filter(bool))
@settings(max_examples=30)
def test_stats_delta_matches_pairwise_enumeration(family):
    cx = build_complex(family)
    assert stats(cx).delta == oracle_delta(cx)


def test_stats_delta_matches_pair_scan_on_recipe_complexes(rng):
    for n_max in (8, 32):
        for _ in range(100):
            cx = random_complex(rng, n_max=n_max)
            assert stats(cx).delta == oracle_delta(cx)


def test_barycentric_edge_gives_three_vertex_path():
    cx, labels = barycentric_subdivision(build_complex([[0, 1]]))
    assert cx.n_vertices == 3
    assert len(cx.edges) == 2
    assert sorted(labels.values(), key=len) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_barycentric_triangle_counts():
    cx, _ = barycentric_subdivision(build_complex([[0, 1, 2]]))
    assert cx.n_vertices == 7
    assert len(cx.edges) == 12
    assert sum(1 for s in cx.simplices if len(s) == 3) == 6
    assert cx.dimension == 2


def test_barycentric_triangle_center_degree():
    # the barycentre of the 2-simplex touches all six proper faces, which
    # already exceeds 2^degree of the input; only the coface/face bound holds
    cx, labels = barycentric_subdivision(build_complex([[0, 1, 2]]))
    centre = next(i for i, s in labels.items() if len(s) == 3)
    assert sum(1 for e in cx.edges if centre in e) == 6


def test_barycentric_vertex_fixed_point():
    cx, _ = barycentric_subdivision(build_complex([[0]]))
    assert cx.n_vertices == 1
    assert cx.simplex_count == 1


def test_clique_levels_match_brute_force(rng):
    for _ in range(120):
        n = rng.randint(0, 12)
        p = rng.choice((0.2, 0.5, 0.8))
        nbrs = {v: set() for v in range(n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                nbrs[u].add(v)
                nbrs[v].add(u)
        # every level up to `top`, so also whether a level at `top` exists,
        # which is the cap the flag complexes refuse past
        for top in range(1, n + 2):
            assert _clique_levels(nbrs, top) == oracle_cliques(nbrs, top)


def test_maximal_simplices_match_the_pairwise_definition(rng):
    """A simplex is maximal when it lies strictly inside no other one."""
    for _ in range(60):
        cx = random_complex(rng, n_max=10, deg_max=5)
        maximal = [s for s in cx.simplices if not any(s < t for t in cx.simplices)]
        assert cx.maximal_simplices() == sorted(tuple(sorted(s)) for s in maximal)
    assert build_complex([[0, 1, 2], [2, 3], [4]]).maximal_simplices() == [(0, 1, 2), (2, 3), (4,)]


def test_barycentric_matches_chain_oracle(rng):
    for _ in range(40):
        cx = random_complex(rng, n_max=8, deg_max=4)
        sub, labels = barycentric_subdivision(cx)
        assert [tuple(sorted(labels[i])) for i in sorted(labels)] == cx.sorted_simplices()
        assert sub.vertices == frozenset(labels)
        chains = {frozenset(labels[i] for i in s) for s in sub.simplices}
        assert len(chains) == sub.simplex_count
        assert chains == oracle_chains(cx)


@given(maximal_families)
@settings(max_examples=30, deadline=None)
def test_barycentric_count_properties(family):
    cx = build_complex(family)
    sub, labels = barycentric_subdivision(cx)
    assert sub.n_vertices == cx.simplex_count
    assert sub.dimension == cx.dimension
    assert len(labels) == cx.simplex_count
    # chains enumerated independently: totally ordered subsets of the family
    simp = sorted(cx.simplices, key=lambda s: (len(s), sorted(s)))
    chains = 0
    for k in range(1, cx.dimension + 2):
        for combo in itertools.combinations(simp, k):
            ordered = sorted(combo, key=len)
            if all(a < b for a, b in zip(ordered, ordered[1:])):
                chains += 1
    assert sub.simplex_count == chains


def test_skeleton_examples():
    full = build_complex([[0, 1, 2]])
    assert skeleton(full, 1) == build_complex([[0, 1], [1, 2], [2, 0]])
    assert skeleton(full, 0) == build_complex([[0], [1], [2]])
    assert skeleton(full, 5) == full
    with pytest.raises(ValueError):
        skeleton(full, -1)


@given(maximal_families, st.integers(0, 4))
@settings(max_examples=30)
def test_skeleton_idempotent(family, k):
    cx = build_complex(family)
    once = skeleton(cx, k)
    assert skeleton(once, k) == once
    assert once.vertices == cx.vertices


def test_induced_examples():
    full = build_complex([[0, 1, 2]])
    assert induced_subcomplex(full, {0, 1}) == build_complex([[0, 1]])
    assert induced_subcomplex(cycle(3), {0, 2}) == build_complex([[0, 2]])
    assert induced_subcomplex(path(3), {0, 2}) == build_complex([[0], [2]])
    with pytest.raises(MalformedComplexError):
        induced_subcomplex(full, {0, 9})


@given(maximal_families)
@settings(max_examples=30)
def test_induced_on_all_vertices_is_identity(family):
    cx = build_complex(family)
    assert induced_subcomplex(cx, cx.vertices) == cx
