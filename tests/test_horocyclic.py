import functools
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from topoverlap import (
    ConstructionError,
    EncodingError,
    MalformedComplexError,
    barycentric_subdivision,
    binary_code,
    build_complex,
    build_D_ell,
    build_H_ell,
    coarse_construct,
    compose,
    identity_construction,
    map_s,
    revalidate_manifest,
    validate_construction,
    words_adjacent,
    write_manifest,
)
from topoverlap import horocyclic
from topoverlap.complexes import _clique_levels
from topoverlap.fileio import emit_csv
from topoverlap.horocyclic import _measured_k, _one_move_neighbors, parse_manifest
from topoverlap.reporting import CheckRow, all_passed

from conftest import cycle, oracle_cliques, oracle_one_move, path, random_complex


def test_binary_code_worked_example():
    assert binary_code(5, 18, 7, 3) == "000010100001010000"


def test_binary_code_zero_and_repeat():
    assert binary_code(0, 9, 3, 2) == "0" * 9
    assert binary_code(3, 4, 2, 1) == "1111"


def test_binary_code_errors():
    with pytest.raises(EncodingError):
        binary_code(4, 1, 2, 1)
    with pytest.raises(EncodingError):
        binary_code(1, 7, 2, 1)


def test_word_adjacency_rule():
    # symmetric rule: a grows at one coordinate, b grows at another
    assert words_adjacent(("0", "1"), ("00", ""))
    assert words_adjacent(("0", "1"), ("", "10"))
    assert words_adjacent(("0", "1"), ("", "11"))
    assert not words_adjacent(("00", ""), ("", "00"))
    assert not words_adjacent(("0", "1"), ("0", "1"))
    assert not words_adjacent(("0", "1"), ("1", "0"))
    # growth must be a suffix extension
    assert not words_adjacent(("0", "1"), ("10", ""))


def test_H11_twelve_vertices():
    h = build_H_ell(1, 1)
    assert h.complex.n_vertices == 12
    assert h.complex.dimension == 1
    assert h.complex.degree <= 2 * 1 * 2
    profiles = {tuple(len(w) for w in words) for words in h.words}
    assert profiles == {(0, 2), (1, 1), (2, 0)}


@pytest.mark.parametrize("d,ell", [(1, 1), (1, 2), (2, 1)])
def test_H_degree_and_dimension_bounds(d, ell):
    h = build_H_ell(d, ell)
    total = (d + 1) * ell
    assert h.complex.n_vertices == math.comb(total + d, d) * 2**total
    assert h.complex.degree <= 2 * d * (d + 1)
    assert h.complex.dimension <= d


def test_H_explosion_guard():
    # 136 * 2^15 vertices, past DEFAULT_VERTEX_LIMIT
    with pytest.raises(ConstructionError):
        build_H_ell(2, 5)


def test_lattice_count_from_faces_matches_the_subdivision():
    """coarse_construct's count before subdividing equals build_D_ell's
    count over the chains of the subdivision."""
    rng = random.Random(909)
    for _ in range(40):
        z = random_complex(rng, n_max=8, deg_max=6)
        bary, _ = barycentric_subdivision(z)
        for total in (1, 2, 3, 4, 9):
            expected = sum(math.comb(total - 1, len(c) - 1) for c in bary.simplices)
            assert horocyclic._lattice_vertex_count(z, total) == expected


def test_H_1_6_builds_in_seconds():
    # 53 248 vertices, far under DEFAULT_VERTEX_LIMIT; about 2 s on a
    # shared 2-core machine
    start = time.perf_counter()
    h = build_H_ell(1, 6)
    assert time.perf_counter() - start < 10
    assert h.complex.n_vertices == 53248
    assert h.complex.dimension == 1


def test_flag_completion_refuses_cliques_past_d_plus_one():
    h = build_H_ell(2, 1)
    assert h.complex.dimension == 2
    index = {w: i for i, w in enumerate(h.words)}
    with pytest.raises(ConstructionError, match="the caller's message"):
        horocyclic._flag_complex(h.words, index, 1, "the caller's message")
    assert horocyclic._flag_complex(h.words, index, 2, "unused") == h.complex


def test_D_of_edge_has_five_functions():
    bary, labels = barycentric_subdivision(build_complex([[0, 1]]))
    lattice = build_D_ell(bary, labels, 1, 1)
    expected = {
        (((0,), 2),),
        (((1,), 2),),
        (((0, 1), 2),),
        (((0,), 1), ((0, 1), 1)),
        (((1,), 1), ((0, 1), 1)),
    }
    assert set(lattice.functions) == expected
    # the refinement of one edge is a path through its midpoint chain
    assert len(lattice.complex.edges) == 4
    assert lattice.complex.dimension == 1


def test_D_single_vertex():
    bary, labels = barycentric_subdivision(build_complex([[0]]))
    lattice = build_D_ell(bary, labels, 1, 0)
    assert lattice.functions == ((((0,), 1),),)


def test_D_triangle_maximal_chain_count():
    bary, labels = barycentric_subdivision(build_complex([[0, 1, 2]]))
    lattice = build_D_ell(bary, labels, 2, 2)
    chain = {frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})}
    inside = [fn for fn in lattice.functions if all(frozenset(s) in chain for s, _ in fn)]
    assert len(inside) == 28


def test_D_supports_have_distinct_cardinalities():
    bary, labels = barycentric_subdivision(build_complex([[0, 1, 2], [2, 3]]))
    lattice = build_D_ell(bary, labels, 2, 2)
    for fn in lattice.functions:
        cards = [len(s) for s, _ in fn]
        assert len(set(cards)) == len(cards)


def _triangle_lattice_levels(d: int, top: int) -> list:
    """Cliques of at most ``top`` vertices of the triangle's refinement at
    ell = 1, found from its edges as ``compose`` finds them."""
    bary, labels = barycentric_subdivision(build_complex([[0, 1, 2]]))
    lattice = build_D_ell(bary, labels, 1, d)
    nbrs = {i: set() for i in range(len(lattice.functions))}
    for i, j in lattice.complex.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return _clique_levels(nbrs, top)


def test_D_higher_cliques_refuse_past_the_source_dimension():
    """However many vertices are asked for, the triangle's refinement has no
    clique past the source dimension 2."""
    for d in (1, 2, 3):
        levels = _triangle_lattice_levels(d, 5)
        assert len(levels) == 3


def test_D_dimension_matches_source():
    """The refinement of a triangle at d = 2 reaches triangles."""
    levels = _triangle_lattice_levels(2, 3)
    assert len(levels) == 3 and levels[2]


def test_map_s_examples():
    assert map_s({(0,): 6}, 2, 2) == ("000000", "", "")
    assert map_s({(0,): 2, (0, 1): 2, (0, 1, 2): 2}, 2, 2) == ("00", "00", "00")
    assert map_s({(1,): 1, (0, 1): 1}, 1, 1) == ("1", "0")
    # pairs out of canonical order and simplices unsorted give the same word
    assert map_s((((2, 0, 1), 2), ((0,), 2), ((1, 0), 2)), 2, 2) == ("00", "00", "00")


def test_map_s_refuses_a_support_set_that_repeats_a_vertex():
    """`(0, 0)` is refused in either order of the pairs, rather than read as
    a set of two vertices whose word depends on that order."""
    for fn in ({(0, 0): 2, (0, 1): 1}, {(0, 1): 1, (0, 0): 2}, {(0, 0, 1): 3}):
        with pytest.raises(MalformedComplexError, match="repeats a vertex"):
            map_s(fn, 1, 2)


def test_map_s_rejects_bad_functions():
    with pytest.raises(EncodingError):
        map_s({(7,): 1}, 1, 0)  # id does not fit one bit
    with pytest.raises(MalformedComplexError):
        map_s({(0,): 1, (1,): 1}, 1, 1)  # support is not a chain
    with pytest.raises(MalformedComplexError):
        map_s({(0,): 3}, 1, 1)  # wrong total weight


def test_construct_edge_matches_hand_computation():
    cc = coarse_construct(build_complex([[0, 1]]))
    assert cc.volume == 5
    assert cc.measured_k == 2
    assert sorted(cc.target_words.values()) == [
        ("", "00"),
        ("0", "0"),
        ("00", ""),
        ("1", "0"),
        ("11", ""),
    ]


def test_construct_single_vertex():
    cc = coarse_construct(build_complex([[0]]))
    assert cc.volume == 1
    assert cc.measured_k == 1


def test_construct_triangle_interference_bound():
    tri = build_complex([[0, 1, 2]])
    cc = coarse_construct(tri)
    assert cc.measured_k <= 2**tri.degree == 4


def test_construct_raises_on_a_non_simplicial_coding_map(monkeypatch):
    """Negative control: the first refinement vertex is sent to the empty
    word tuple, which no rule edge reaches, so its refinement edges have no
    image edge.  Chains are coded in the order of their first function, so
    the first call codes vertex 0 first; code 0 is the empty word."""
    real = horocyclic._code_chain
    seen = []

    def far_first(support, rows, ell, d, vertex_id_of=None):
        words = real(support, rows, ell, d, vertex_id_of)
        seen.append(support)
        if len(seen) == 1:
            words[0] = (0,) * (d + 1)
        return words

    monkeypatch.setattr(horocyclic, "_code_chain", far_first)
    with pytest.raises(ConstructionError, match="coding map is not simplicial on refinement edge 0-"):
        coarse_construct(build_complex([[0, 1]]))


def test_construct_respects_vertex_limit(monkeypatch):
    monkeypatch.setattr(horocyclic, "DEFAULT_VERTEX_LIMIT", 10)
    with pytest.raises(ConstructionError):
        coarse_construct(cycle(12))


def test_validation_report_and_negative_control():
    cc = coarse_construct(build_complex([[0, 1]]))
    rows = validate_construction(cc, 2, 5)
    assert all_passed(rows)
    bad = validate_construction(cc, 0, 5)
    failed = {r.check: r.passed for r in bad}
    assert not failed["measured_k <= claim"]
    assert failed["simplicial"]


def test_volume_counts_distinct_images(rng):
    for _ in range(5):
        cx = random_complex(rng, n_max=10, deg_max=4)
        cc = coarse_construct(cx)
        relabel = {v: i for i, v in enumerate(sorted(cx.vertices))}
        words = {map_s(fn, cc.ell, cc.d, relabel) for fn in cc.functions}
        assert cc.volume == len(words)


def test_compose_identity_is_neutral():
    k2 = build_complex([[0, 1]])
    cc2 = coarse_construct(k2)
    composite = compose(identity_construction(k2), cc2)
    assert composite.measured_k == cc2.measured_k
    assert composite.volume == cc2.volume


def test_compose_identity_neutral_with_triangles():
    # carriers with three vertices exercise the higher-cell trace path
    tri = build_complex([[0, 1, 2]])
    cc2 = coarse_construct(tri)
    composite = compose(identity_construction(tri), cc2)
    assert composite.measured_k == cc2.measured_k
    assert composite.volume == cc2.volume


def test_compose_chained_bounds():
    z = path(3)
    cc1 = coarse_construct(z)
    cc2 = coarse_construct(cc1.target)
    composite = compose(cc1, cc2)
    assert composite.measured_k <= cc1.measured_k * cc2.measured_k
    assert composite.volume <= cc2.volume
    assert composite.source == z
    rows = validate_construction(
        composite, cc1.measured_k * cc2.measured_k, cc2.volume
    )
    assert all_passed(rows)


def test_compose_requires_matching_complexes():
    cc1 = coarse_construct(build_complex([[0, 1]]))
    cc2 = coarse_construct(path(3))
    with pytest.raises(MalformedComplexError):
        compose(cc1, cc2)


def test_manifest_round_trip_and_revalidation():
    cc = coarse_construct(cycle(4))
    text = write_manifest(cc)
    d, ell, n, k, vol, functions, words = parse_manifest(text)
    assert (d, ell, n, k, vol) == (1, 2, 4, cc.measured_k, cc.volume)
    assert len(functions) == cc.n_sub_vertices
    assert all_passed(revalidate_manifest(text))


def test_manifest_revalidation_catches_corruption():
    cc = coarse_construct(build_complex([[0, 1]]))
    text = write_manifest(cc)
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(" -> ", 1)[0] + " -> 11,1"
    rows = revalidate_manifest("\n".join(lines) + "\n")
    assert not all_passed(rows)


def test_volume_scaling_reported_along_growing_paths():
    """volume / (n * log2(1+n)^d) stays bounded along a path family."""
    ratios = []
    for n in (2, 4, 8, 12, 16, 24, 32):
        cc = coarse_construct(path(n))
        ratios.append(cc.volume / (n * math.log2(1 + n) ** cc.d))
    print("volume scaling ratios along paths:", [round(r, 2) for r in ratios])
    assert max(ratios) < 8


def test_certifying_checks_run_under_optimize():
    """The construction's guarantees are raises, not asserts, so ``python -O``
    keeps them: a first record that claims measured_k 0 breaks the product
    bound of ``compose``."""
    script = (
        "import dataclasses, sys\n"
        "from topoverlap import ConstructionError, build_complex, coarse_construct, compose\n"
        "cc1 = coarse_construct(build_complex([[0, 1], [1, 2]]))\n"
        "cc2 = coarse_construct(cc1.target)\n"
        "try:\n"
        "    compose(dataclasses.replace(cc1, measured_k=0), cc2)\n"
        "except ConstructionError as exc:\n"
        "    print('optimize', sys.flags.optimize, 'refused:', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("optimize 1 refused: composite measured_k")


def _generated_edges(functions) -> set:
    """Refinement edges by the one-move generator, over the support sets that
    occur in ``functions``; every generated neighbour must be one of them."""
    sets = {frozenset(s) for fn in functions for s, _ in fn}
    index = {fn: i for i, fn in enumerate(functions)}
    cache: dict = {}
    edges = set()
    for i, fn in enumerate(functions):
        for neighbor in _one_move_neighbors(fn, sets, cache):
            assert neighbor in index
            edges.add(tuple(sorted((i, index[neighbor]))))
    return edges


@functools.cache
def _oracle_pairs(functions) -> tuple:
    return tuple(
        (i, j)
        for i, j in itertools.combinations(range(len(functions)), 2)
        if oracle_one_move(functions[i], functions[j])
    )


def _oracle_revalidation(text: str, adjacent) -> list:
    """The rows of ``revalidate_manifest`` recounted with a scan over every
    two lines of the manifest, ``adjacent`` deciding word adjacency."""
    d, ell, n, k_claim, vol_claim, functions, words = parse_manifest(text)
    total = (d + 1) * ell
    bad_fn = 0
    for fn in functions:
        sets = sorted((frozenset(s) for s, _ in fn), key=len)
        chain = all(a < b for a, b in zip(sets, sets[1:]))
        weights = [c for _, c in fn]
        in_range = all(0 <= v < n for s, _ in fn for v in s)
        bad_fn += not (chain and min(weights) >= 1 and sum(weights) == total and in_range)
    recomputed = [map_s(fn, ell, d) for fn in functions]
    mismatches = sum(1 for a, b in zip(recomputed, words) if a != b)
    bad_edges = sum(
        1
        for i, j in _oracle_pairs(functions)
        if recomputed[i] != recomputed[j] and not adjacent(recomputed[i], recomputed[j])
    )
    vol = len(set(recomputed))
    return [
        CheckRow("functions admissible", bad_fn, 0, bad_fn == 0),
        CheckRow("words match coding map", mismatches, 0, mismatches == 0),
        CheckRow("simplicial on rebuilt edges", bad_edges, 0, bad_edges == 0),
        CheckRow("volume matches header", vol, vol_claim, vol == vol_claim),
    ]


def _manifest_variants(text: str) -> list:
    """The manifest, the manifest with the words of two lines swapped, the
    manifest with one ``f`` line repeated at its end, and the manifest with
    a vertex written twice in one support set (``0-0:1`` for ``0:1``)."""
    lines = text.splitlines()
    variants = [text]
    if len(lines) > 3:
        first, second = (ln.rsplit(" -> ", 1) for ln in lines[1:3])
        swapped = [lines[0], f"{first[0]} -> {second[1]}", f"{second[0]} -> {first[1]}", *lines[3:]]
        variants.append("\n".join(swapped) + "\n")
        variants.append("\n".join(lines + [lines[len(lines) // 2]]) + "\n")
    for no, line in enumerate(lines[1:], start=1):
        pairs = line[2:].split(" -> ")[0].split()
        if len(pairs) > 1 and "-" not in pairs[0]:
            v = pairs[0].split(":")[0]
            doubled = [*lines[:no], f"f {v}-{v}:{line[2:].split(':', 1)[1]}", *lines[no + 1 :]]
            variants.append("\n".join(doubled) + "\n")
            break
    return variants


def _one_move_cases() -> list:
    rng = random.Random(4242)
    cases = [random_complex(rng, n_max=6, deg_max=4) for _ in range(12)]
    # two triangles at a vertex: 541 functions, above the benchmark's 512-function
    # revalidation cap
    cases.append(build_complex([[0, 1, 2], [2, 3, 4]]))
    return cases


def test_one_move_generator_matches_refinement_edges_and_oracle():
    for cx in _one_move_cases():
        cc = coarse_construct(cx)
        generated = _generated_edges(cc.functions)
        assert generated == set(cc.sub_edges)
        assert generated == set(_oracle_pairs(cc.functions))


def test_revalidation_matches_oracle_recount(monkeypatch):
    """The rows equal a pair-scan recount on clean manifests, manifests with
    swapped words and manifests with a repeated line.  With every word pair
    declared non-adjacent (the rebuilt edges are checked on packed words),
    the rebuilt-edge row counts the rebuilt edges themselves, each pair of
    lines once."""
    sizes = []
    rebuilt = 0
    for cx in _one_move_cases():
        text = write_manifest(coarse_construct(cx))
        sizes.append(text.count("\nf "))
        for variant in _manifest_variants(text):
            assert revalidate_manifest(variant) == _oracle_revalidation(variant, words_adjacent)
            with monkeypatch.context() as m:
                m.setattr(horocyclic, "_packed_adjacent", lambda a, b, ell: False)
                rows = revalidate_manifest(variant)
            assert rows == _oracle_revalidation(variant, lambda a, b: False)
            rebuilt += rows[2].lhs
    assert max(sizes) > 512
    assert rebuilt > 0


def test_measured_k_counts_simplices_not_cliques():
    """measured_k maximises over the target's simplices.  The hollow
    triangle's three edges form a clique that is no simplex; an edge meets
    its two vertices, the third vertex and all three edges: 5 carriers.
    The filled triangle counts all 3 vertices and 3 edges: 6."""
    assert identity_construction(cycle(3)).measured_k == 5
    assert identity_construction(build_complex([[0, 1, 2]])).measured_k == 6


def test_measured_k_on_lattice_targets_matches_maximal_cliques():
    """Lattice targets are flag complexes, so the maximum over simplices is
    the maximum over the maximal cliques of the target's 1-skeleton."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(515)
    for _ in range(10):
        cc = coarse_construct(random_complex(rng, n_max=8, deg_max=4))
        reach = {t: set() for t in cc.target.vertices}
        for i, t in enumerate(cc.vertex_map):
            reach[t] |= cc.provsets[frozenset((i,))]
        for i, j in cc.sub_edges:
            for t in (cc.vertex_map[i], cc.vertex_map[j]):
                reach[t] |= cc.provsets[frozenset((i, j))]
        graph = nx.Graph()
        graph.add_nodes_from(cc.target.vertices)
        graph.add_edges_from(cc.target.edges)
        cliques = list(nx.find_cliques(graph))
        assert all(frozenset(c) in cc.target.simplices for c in cliques)
        best = max(len(set().union(*(reach[t] for t in c))) for c in cliques)
        assert cc.measured_k == best
        assert _measured_k(cc.target, cc.vertex_map, cc.sub_edges, cc.provsets) == best


# SHA-256 of write_manifest + emit_csv(validate_construction rows + revalidate_manifest
# rows) for the first 20 distinct complexes of the criterion-4 recipe with n <= 8
# drawn from Random(404).  Recorded before the one-move generator and the flag
# completion were shared; any change to these bytes must be a documented fix.
GOLDEN_CONSTRUCTIONS = [
    "9007d81c80976c2f43b6e447756735b92df96c78683282f1825a6439288082ac",  # n=2 dim=1 N=5 k=2
    "83eb852b40887dc8a80eddf150001af04678dbb43f99859610019e104cadfb14",  # n=1 dim=0 N=1 k=1
    "4aed1a5659ee039a836bbafe16707a013bda8f05a60636574999c95d03dd7168",  # n=3 dim=0 N=3 k=1
    "91c927ea6aabaf8f39122ec0331fea2d08fd8c7da0b58ba4d0634d8d4ba2ce48",  # n=8 dim=2 N=5390 k=19
    "67da3b89bb179349f9aac9435cef86d1b1e75503972ccdafa88b1d3a2786564b",  # n=5 dim=1 N=27 k=3
    "5a635a2b72da4778c692c88009c1e423f2e9114747d03cb33903c6d4bc360c83",  # n=7 dim=1 N=51 k=3
    "1f8914490b0ee1148ee7ecde2de7bac411ce89c3ef5e3dc30e569541bf1292fc",  # n=7 dim=1 N=18 k=2
    "f9009eccd183d90f27ab67934804fbdabe4dc21c015b58e135b57bc4d6b3ff42",  # n=7 dim=1 N=40 k=3
    "2438700a188bc173f8792e1b89de3433917863a84da6f3d958ae480615c5586f",  # n=4 dim=2 N=252 k=6
    "066f6670f5843cc21aeeee724a0428bb7096ab7b31b1071c6f546dcd0252c414",  # n=8 dim=2 N=880 k=8
    "0799f1098a1f7d8640a3d16a638d0299be2cc0c011df82f0d349c336ac72df8e",  # n=6 dim=2 N=3733 k=15
    "e1acdc8dbe9721cbb788da5c618e612e5cc11fff7272156b51c8c05f98f11b61",  # n=4 dim=2 N=434 k=7
    "d538cdc57ab8489291b4ca9640e63028c70143188240dfb9fa32c2face65a003",  # n=3 dim=2 N=127 k=4
    "b3ddf57b0c2152617ed0c43d9bfadfe6b785cdaf3f7ee3d1e4739f3c269367d6",  # n=7 dim=2 N=1798 k=10
    "fa130c4f938731f428f081eb0dd103a3ac77027a55ee574cbcfcccba616df504",  # n=8 dim=1 N=107 k=6
    "b4ef250604a4d5dd01ea0a4fc6d9c8a55384626ca7f026665ba3b6dbdcf77670",  # n=5 dim=0 N=5 k=1
    "8712ea140df70e66ce611a181f8a89ea246019608f125c879e6f3927f4ceac8a",  # n=6 dim=2 N=342 k=6
    "0cd1b2f1d7aea01adebffcab483c9cc8b23571baf4d8d4e3b3fa4a2f9c861af0",  # n=6 dim=2 N=593 k=6
    "3e8c35b14872e445daa3540206f4e9543fe43b7208a2f117237ee51a428851db",  # n=6 dim=1 N=50 k=3
    "fd80517490cde90a12d14d2a46c15646e1856bc12fefe06b545ae400c65bcd3e",  # n=7 dim=2 N=1764 k=11
]


@functools.cache
def _golden_constructions() -> tuple:
    """(complex, construction) for the first 20 distinct complexes of the
    criterion-4 recipe with n <= 8 drawn from Random(404)."""
    rng = random.Random(404)
    seen = set()
    out = []
    while len(out) < 20:
        cx = random_complex(rng, n_max=8, deg_max=6)
        if cx.simplices in seen:
            continue
        seen.add(cx.simplices)
        out.append((cx, coarse_construct(cx)))
    return tuple(out)


def test_constructions_match_golden_hashes():
    digests = []
    for cx, cc in _golden_constructions():
        text = write_manifest(cc)
        rows = validate_construction(cc, 2**cx.degree, cc.volume) + revalidate_manifest(text)
        digests.append(hashlib.sha256((text + emit_csv(rows)).encode()).hexdigest())
    assert digests == GOLDEN_CONSTRUCTIONS


def _record_text(cc) -> str:
    provsets = sorted((sorted(key), sorted(map(sorted, prov))) for key, prov in cc.provsets.items())
    target = sorted(map(sorted, cc.target.simplices))
    return repr((cc.sub_edges, cc.vertex_map, provsets, target, cc.measured_k, cc.volume))


# SHA-256 of the whole records behind the manifests above: for each complex z
# and its construction cc, the subdivision edges, vertex map, provenance
# antichains, target simplices, measured_k and volume of cc, of
# compose(identity, cc) and of compose(cc, identity on cc's target); the last
# traces carriers through the lattice's simplices above its edges.  Then the
# words and simplices of two word-model pieces.  Recorded before the
# refinement and word-model edges were generated from one end each.
GOLDEN_RECORDS = [
    "e047a98b09fb7e1aae840f5bb235bdd48d33e415bf702d31db5395239b816ca5",  # n=2 dim=1 N=5
    "bbbcbb26af296451157680cee9cf0def112e4325799e40fe27d3e79fa6730775",  # n=1 dim=0 N=1
    "cff14a270448236009f1e38f027c9b3ff3014574223986f6316cfb6d073edddf",  # n=3 dim=0 N=3
    "4bbe700f6f6733582085a99d14aa2f29f4233ae7bc782faff3f8645246831826",  # n=8 dim=2 N=5390
    "d6633f20d9d87db45bd4ebfb5b87e037a7427bd2ea55e90b720c14940ce7c119",  # n=5 dim=1 N=27
    "5f5c4455b4f0cf04c2c282fa2a21d37d3d9bed46f0053948e4305d1356eb8457",  # n=7 dim=1 N=51
    "9d3f0d433fb41519d1f341970f43c3c8b27921a2ec812fec5b297d0254f0583b",  # n=7 dim=1 N=18
    "5bfd5ba532dc5b6a203c3a24d4c0ee390e5a6b265d966106a040fa6d4fb993c1",  # n=7 dim=1 N=40
    "1e687b2265eaad1ee7821eed157e53916c3a61276a81f0e6f4d7683184849eb9",  # n=4 dim=2 N=252
    "e22533492a8bd24bb80bac3bfd8f4aabe113d772a357d2f7722b95089549da3d",  # n=8 dim=2 N=880
    "634f64fe474d43e394ac395605e1ce0655d6af32fc4b7ccfbb9f32cff7ca1c21",  # n=6 dim=2 N=3733
    "bfb0a262b0989cbe80e143ab2cf5e3d1d5f1d6ac13b2c8315a87f4d1e17e88fd",  # n=4 dim=2 N=434
    "2075d66273dc73a77c28b5a6d68634847619737b3f03303270d7b933ee0f2df9",  # n=3 dim=2 N=127
    "c81c567b6828f9a41f2850a6efe02abbb916159d51e4b653775f98de36cf1efc",  # n=7 dim=2 N=1798
    "446bedd9c43462f075f16137f517c7e460cacad1153a958e3dcebefe54ba3b98",  # n=8 dim=1 N=107
    "2226a5e21169e15531ea7a21f0d06b359308ccd2632fce97fafdc3ab47e0f383",  # n=5 dim=0 N=5
    "9f91eb6814a4a14f737935d2b16ac4a186466eefd9e8b5d62f758938cfd539de",  # n=6 dim=2 N=342
    "73ae2fab5ca6e3f65c0abee062a8b3f869b9d74d1053b041eab68f4bcb7d4b66",  # n=6 dim=2 N=593
    "f8a3c90e0f08ed6774458ad6b9c12ed728538f7facaf366cdc58efa01aa2fd4b",  # n=6 dim=1 N=50
    "6ab486d0a157e2c12346ec4d90bfe1221175f3ccbb800dccd97b0a3abb5f4c78",  # n=7 dim=2 N=1764
]
GOLDEN_H = {
    (1, 3): "ca6de7085fe9e0210c56851bc0daec4ddcdc6170ef0699c9501762dddf2bab9d",
    (2, 2): "3cab40b09e1a09d5d4f5d0917ee4251a5d498168cd20201954b490b59a8106a6",
}


def test_construction_records_match_golden_digests():
    digests = []
    for z, cc in _golden_constructions():
        texts = (
            _record_text(cc),
            _record_text(compose(identity_construction(z), cc)),
            _record_text(compose(cc, identity_construction(cc.target))),
        )
        digests.append(hashlib.sha256("\n".join(texts).encode()).hexdigest())
    assert digests == GOLDEN_RECORDS
    for d, ell in GOLDEN_H:
        h = build_H_ell(d, ell)
        text = repr((h.words, sorted(map(sorted, h.complex.simplices))))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_H[d, ell]


def test_manifest_reads_support_sets_as_vertex_sets():
    """A support set written with a repeated vertex is that vertex set, so a
    line `0-0:w` parses and revalidates like its `0:w` line."""
    text = write_manifest(coarse_construct(path(3)))
    lines = text.splitlines()
    no, line = next((no, ln) for no, ln in enumerate(lines) if ln.startswith("f 0:"))
    doubled = "\n".join([*lines[:no], "f 0-0" + line[3:], *lines[no + 1 :]]) + "\n"
    assert parse_manifest(doubled) == parse_manifest(text)
    assert revalidate_manifest(doubled) == revalidate_manifest(text)
    assert parse_manifest("h 1 2 3 3 15\nf 1-0-1:4 -> 0000,\n")[5] == ((((0, 1), 4),),)


def _chain_join(functions):
    """Whether the support sets of the functions with these ids join into a
    chain: the filter the refinement's cliques once had to pass."""

    def keep(ids) -> bool:
        union = sorted({frozenset(s) for i in ids for s, _ in functions[i]}, key=len)
        return all(a < b for a, b in zip(union, union[1:]))

    return keep


def _star_oracle_cliques(nbrs: dict, top: int, keep) -> list:
    """``oracle_cliques`` of the whole graph, gathered vertex by vertex: the
    cliques whose least vertex is v lie in v and its neighbours above it,
    so each is found by the brute force on that star alone."""
    levels = [[] for _ in range(top)]
    for v in sorted(nbrs):
        star = {v} | {u for u in nbrs[v] if u > v}
        local = {u: nbrs[u] & star for u in star}
        for k, level in enumerate(oracle_cliques(local, top, keep)):
            levels[k].extend(c for c in level if c[0] == v)
    return [sorted(level) for level in levels if level]


def _random_complex_to_dim_3(rng):
    """One to three random simplices of one to four vertices on at most four
    vertices, so that the code width stays 2 bits and a 3-simplex fits."""
    n = rng.randint(1, 4)
    simplices = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
    return build_complex(simplices, extra_vertices=range(n))


def test_refinement_cliques_all_join_into_chains():
    """Every clique of a lattice record's edges, up to d + 2 vertices, is
    one whose supports join into a chain, so ``_clique_levels`` on the edges
    lists exactly what the chain-join filter kept: on the 20 records of the
    Random(404) recipe and on 16 random complexes up to dimension 3."""
    rng = random.Random(4043)
    records = [cc for _, cc in _golden_constructions()]
    records += [coarse_construct(_random_complex_to_dim_3(rng)) for _ in range(16)]
    assert {cc.d for cc in records} == {0, 1, 2, 3}
    for cc in records:
        nbrs = {i: set() for i in range(len(cc.functions))}
        for i, j in cc.sub_edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        levels = _clique_levels(nbrs, cc.d + 2)
        assert levels == _star_oracle_cliques(nbrs, cc.d + 2, _chain_join(cc.functions))
        assert len(levels) == cc.d + 1


def test_revalidation_reports_inadmissible_lines():
    """A line whose function the coding map refuses, or whose vertices are
    not below n, fails the admissibility row; the other rows are computed
    over the admissible lines alone, so they read as for the clean manifest."""
    text = write_manifest(coarse_construct(path(3)))
    clean = revalidate_manifest(text)
    assert all_passed(clean)
    bad_lines = ("f 0:91 0-1:3 -> 0,0", "f 0:2 1:2 -> 00,", "f 0:1 0-1-2:3 -> 0,000", "f 3:4 -> 1111,")
    for line in bad_lines:
        rows = revalidate_manifest(text + line + "\n")
        assert rows[0] == CheckRow("functions admissible", 1, 0, False), line
        assert rows[1:] == clean[1:], line
    # vertex 2 is below n = 3 but does not fit the header's ell = 1 bit
    assert revalidate_manifest("h 1 1 3 1 1\nf 0:2 -> 00,\nf 2:2 -> 11,\n") == [
        CheckRow("functions admissible", 1, 0, False),
        CheckRow("words match coding map", 0, 0, True),
        CheckRow("simplicial on rebuilt edges", 0, 0, True),
        CheckRow("volume matches header", 1, 1, True),
    ]


@pytest.mark.parametrize(
    "line",
    [
        "h 1 2",
        "h 1 x 3 3 15",
        "h 1 2 3 3 15 7",
        "f 0:x -> 0000,",
        "f a:4 -> 0000,",
        "f 0-:4 -> 0000,",
        "h 3 2 3 3 15",
        "h 1 3 3 3 15",
        "h 1 2 100001 3 15",
    ],
)
def test_parse_manifest_quotes_a_malformed_line(line):
    text = write_manifest(coarse_construct(path(3)))
    if line.startswith("h "):
        text = line + "\n" + text.split("\n", 1)[1]
    else:
        text += line + "\n"
    with pytest.raises(MalformedComplexError, match=re.escape(repr(line))):
        parse_manifest(text)


@pytest.mark.parametrize(
    "text", ["h 4000000 1 1 0 1\nf 0:4000001 -> x\n", "h 0 4000000 1 0 1\nf 0:4000000 -> x\n"]
)
def test_revalidation_refuses_a_header_before_allocating(text):
    """A header whose d or ell is past what its n allows is refused before
    the coding map builds d + 1 words of (d + 1) * ell characters."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(MalformedComplexError, match=re.escape(repr(text.split("\n")[0]))):
            revalidate_manifest(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 5 * 2**20


def test_revalidation_of_an_empty_source_header():
    """The header bound leaves a source of no vertices in range."""
    for text in ("h -1 1 0 0 0\n", "h 0 1 0 0 0\n"):
        assert revalidate_manifest(text) == [
            CheckRow("functions admissible", 0, 0, True),
            CheckRow("words match coding map", 0, 0, True),
            CheckRow("simplicial on rebuilt edges", 0, 0, True),
            CheckRow("volume matches header", 0, 0, True),
        ]


def test_revalidation_memory_follows_the_input():
    """Ten 17-byte lines under `h 99999 17 100000 0 1` each code a word of
    100 000 coordinates and 1.7 M characters.  The recorded word `x` has one
    coordinate, so each line is a mismatch found before any of its word is
    built, and the rows read as before."""
    text = "h 99999 17 100000 0 1\n" + "f 0:1700000 -> x\n" * 10
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rows = revalidate_manifest(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert [row.lhs for row in rows] == [0, 10, 0, 1]
    assert peak < 2 * 2**20


def _recipe_complex_with_fvector(seed: int, fvector: tuple):
    """The first draw of the criterion-4 recipe with n <= 8 whose numbers of
    vertices, edges and triangles are ``fvector``."""
    rng = random.Random(seed)
    while True:
        cx = random_complex(rng, n_max=8, deg_max=6)
        sizes = [len(s) for s in cx.simplices]
        if tuple(sizes.count(k) for k in (1, 2, 3)) == fvector:
            return cx


def test_construct_codes_each_support_chain_once(monkeypatch):
    """coarse_construct runs the coding map per support chain: on a recipe
    complex with f-vector (7, 20, 21) it calls map_s 0 times, checks each
    distinct support once and codes each function once."""
    cx = _recipe_complex_with_fvector(2200, (7, 20, 21))
    map_s_calls, checked, coded = [], [], []
    real_map_s, real_coder, real_code_chain = map_s, horocyclic._chain_coder, horocyclic._code_chain

    def counting_map_s(*args, **kwargs):
        map_s_calls.append(args)
        return real_map_s(*args, **kwargs)

    def counting_coder(support, *args):
        checked.append(support)
        return real_coder(support, *args)

    def counting_code_chain(support, rows, *args):
        coded.extend(rows)
        return real_code_chain(support, rows, *args)

    monkeypatch.setattr(horocyclic, "map_s", counting_map_s)
    monkeypatch.setattr(horocyclic, "_chain_coder", counting_coder)
    monkeypatch.setattr(horocyclic, "_code_chain", counting_code_chain)
    cc = coarse_construct(cx)
    supports = {tuple(s for s, _ in fn) for fn in cc.functions}
    assert map_s_calls == []
    assert len(checked) == len(supports) and set(checked) == supports
    assert len(coded) == len(cc.functions)


def test_D_raises_on_an_edge_found_twice(monkeypatch):
    """Negative control: every move up is generated twice."""
    real = horocyclic._moves_up

    def twice(weights, moves):
        return [*real(weights, moves)] * 2

    monkeypatch.setattr(horocyclic, "_moves_up", twice)
    bary, labels = barycentric_subdivision(build_complex([[0, 1]]))
    with pytest.raises(ConstructionError, match="a refinement edge was found twice"):
        build_D_ell(bary, labels, 1, 1)


def test_rendered_words_match_map_s_on_golden_records():
    """The packed coding map renders, for every function of the 20
    Random(404) records, the word map_s gives."""
    for z, cc in _golden_constructions():
        relabel = {v: i for i, v in enumerate(sorted(z.vertices))}
        for fn, t in zip(cc.functions, cc.vertex_map):
            assert cc.target_words[t] == map_s(fn, cc.ell, cc.d, relabel)


def _packed(k: int, w: int, ell: int) -> int:
    """The code of binary_code(k, w, ell, d) as the coding map packs it; a
    coordinate with no support set (weight 0) holds code 0."""
    return horocyclic._code_row((k,), (w,), ell, w)[0] if w else 0


def _is_code_word(x: str, ell: int) -> bool:
    """Whether a string is binary_code of some id: past ell characters it
    repeats its first ell."""
    return len(x) <= ell or x == (x[:ell] * (len(x) // ell + 1))[: len(x)]


def test_packed_codes_agree_with_words():
    """On seeded codes with d <= 3, ell <= 5, weights 0..(d+1)*ell and ids
    that need the full width: codes are equal, ordered within one length
    and one character longer exactly as their words are; packed adjacency is
    words_adjacent; and the code neighbours of a word are its rule
    neighbours that are words of the coding map."""
    rng = random.Random(2202)
    for _ in range(300):
        d, ell = rng.randint(0, 3), rng.randint(1, 5)
        total = (d + 1) * ell
        # half the ids have their top bit set, so they need all ell bits
        pairs = [
            (rng.randrange(2 ** (ell - 1) if rng.random() < 0.5 else 0, 2**ell), w)
            for w in (rng.randint(0, total) for _ in range(12))
        ]
        # near misses: one character shorter, or the id's last bit flipped
        pairs += [(k, w - 1) for k, w in pairs if w] + [(k ^ 1, w) for k, w in pairs]
        codes = [_packed(k, w, ell) for k, w in pairs]
        words = [binary_code(k, w, ell, d) for k, w in pairs]
        assert [horocyclic._render(c, ell) for c in codes] == words
        for (x, s), (y, t) in itertools.product(zip(codes, words), repeat=2):
            assert (x == y) == (s == t)
            if len(s) == len(t):
                assert (x < y) == (s < t)
            assert horocyclic._code_extends(x, y, ell) == (len(s) == len(t) + 1 and s.startswith(t))

        coords = range(d + 1)
        for _ in range(20):
            a = [rng.choice(pairs) for _ in coords]
            b = list(a)
            i, j = rng.sample(coords, 2) if d else (0, 0)
            k_i, w_i = b[i]
            k_j, w_j = b[j]
            if w_i and w_j < total:
                b[i] = (k_i, w_i - 1)
                b[j] = (k_j if rng.random() < 0.8 else rng.randrange(2**ell), w_j + 1)
            ca = tuple(_packed(k, w, ell) for k, w in a)
            cb = tuple(_packed(k, w, ell) for k, w in b)
            sa = tuple(binary_code(k, w, ell, d) for k, w in a)
            sb = tuple(binary_code(k, w, ell, d) for k, w in b)
            adjacent = horocyclic._packed_adjacent(enumerate(ca), enumerate(cb), ell)
            assert adjacent == words_adjacent(sa, sb)
            rendered = {
                tuple(horocyclic._render(c, ell) for c in nb)
                for nb in horocyclic._code_neighbors(ca, ell)
            }
            rule = horocyclic._word_neighbors(sa)
            assert rendered == {nb for nb in rule if all(_is_code_word(x, ell) for x in nb)}
