"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (integer/rational comparisons); the only
floating point appears in chain-report lines that contain logarithms, and
those are not part of these criteria.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from topoverlap import (
    SizeLimitError,
    all_passed,
    barycentric_subdivision,
    binary_code,
    build_complex,
    build_D_ell,
    coarse_construct,
    compose,
    cutwidth_bruteforce,
    cutwidth_exact,
    extract_expander,
    identity_construction,
    map_s,
    profile,
    sweep_overlap,
    validate_construction,
    verify_cwsep,
)
from topoverlap.cubes import CubeSet, find_translate
from topoverlap.fileio import emit_complex
from topoverlap.horocyclic import _measured_k

from conftest import (
    cycle,
    grid,
    hypercube,
    oracle_cheeger,
    path,
    random_complex,
    random_graph,
)


def _verdict(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cutwidth_oracle_equivalence():
    """DP width equals brute-force width on all connected graphs with <= 7
    vertices and on 500 random graphs with n <= 9; exact, under 2 minutes."""
    networkx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    start = time.monotonic()
    atlas = [
        g
        for g in graph_atlas_g()
        if g.number_of_nodes() >= 1 and networkx.is_connected(g)
    ]
    assert sum(1 for g in atlas if g.number_of_nodes() == 7) == 853
    checked = 0
    for g in atlas:
        cx = build_complex(
            [[u, v] for u, v in g.edges()], extra_vertices=range(g.number_of_nodes())
        )
        assert cutwidth_exact(cx).width == cutwidth_bruteforce(cx).width
        checked += 1

    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.2, 0.35, 0.5, 0.7, 0.9]))
        assert cutwidth_exact(g).width == cutwidth_bruteforce(g).width
        checked += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        elapsed < 120,
        f"{checked} graphs (853 connected on 7 vertices included), 0 mismatches, {elapsed:.1f}s < 120s",
    )


def test_criterion_2_sweep_sandwich():
    """width <= sweep overlap of the optimal ordering <= width + degree + 1
    on 300 random graphs with n <= 12; exact."""
    rng = random.Random(202)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        arr = cutwidth_exact(g)
        overlap = sweep_overlap(g, arr)
        assert arr.width <= overlap <= arr.width + g.degree + 1
    _verdict(2, True, "300 random graphs, sandwich exact")


def test_criterion_3_cwsep_recursion():
    """cw(r) <= cw(ceil(r/2)) + degree * sep(r) for every r <= 12 on the four
    named hosts, from exact profiles."""
    hosts = {
        "P12": path(12),
        "C12": cycle(12),
        "grid3x4": grid(3, 4),
        "cube": hypercube(3),
    }
    for name, host in hosts.items():
        cw = profile(host, "cutwidth", 12)
        sep = profile(host, "separation", 12)
        rows = verify_cwsep(cw, sep, host.degree)
        assert all_passed(rows), f"{name}: {[r for r in rows if not r.passed]}"
    _verdict(3, True, "P12, C12, 3x4 grid, 3-cube: recursion holds at every r <= 12")


def test_criterion_4_construction_suite():
    """100 random complexes (dim <= 2, deg <= 6, n <= 32): simpliciality,
    interference and size bounds, and independent volume recount; under 5
    minutes."""
    start = time.monotonic()
    rng = random.Random(404)
    for trial in range(100):
        cx = random_complex(rng, n_max=32, deg_max=6)
        n, delta, d = cx.n_vertices, cx.degree, max(cx.dimension, 0)
        cc = coarse_construct(cx)

        # (a) zero simpliciality violations, rechecked from the record
        rows = validate_construction(cc, 2**delta, cc.volume)
        by_name = {r.check: r for r in rows}
        assert by_name["simplicial"].passed, f"trial {trial}"

        # (b) interference bounded by 2^degree
        assert cc.measured_k <= 2**delta

        # (c) refinement degree bounded by degree * 2^degree
        deg_counts = {}
        for i, j in cc.sub_edges:
            deg_counts[i] = deg_counts.get(i, 0) + 1
            deg_counts[j] = deg_counts.get(j, 0) + 1
        sub_deg = max(deg_counts.values(), default=0)
        assert sub_deg <= delta * 2**delta

        # (d) refinement size bounded by chains * ((d+1)ell + 1)^d
        bary, _labels = barycentric_subdivision(cx)
        assert cc.n_sub_vertices <= bary.simplex_count * ((d + 1) * cc.ell + 1) ** d

        # (e) volume equals an independent recount of distinct images
        relabel = {v: i for i, v in enumerate(sorted(cx.vertices))}
        recount = len({map_s(fn, cc.ell, cc.d, relabel) for fn in cc.functions})
        assert cc.volume == recount
    elapsed = time.monotonic() - start
    _verdict(4, elapsed < 300, f"100 constructions, all bounds hold, {elapsed:.1f}s < 300s")


def test_criterion_5_binary_code_worked_example():
    got = binary_code(5, 18, 7, 3)
    _verdict(5, got == "000010100001010000", f"binary_code(5,18,7,3) = {got}")


def test_criterion_6_triangle_chain_count():
    bary, labels = barycentric_subdivision(build_complex([[0, 1, 2]]))
    lattice = build_D_ell(bary, labels, 2, 2)
    chain = {frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})}
    count = sum(
        1 for fn in lattice.functions if all(frozenset(s) in chain for s, _ in fn)
    )
    _verdict(6, count == 28, f"maximal-chain refinement vertices: {count} == 28")


def test_criterion_7_translate_bound_exhaustive():
    """count <= C(k,q) * r^(k-q) over k in {2,3}, q in {1..k}, r in {2,3,4},
    50 random cube sets each; exact, under 1 minute."""
    start = time.monotonic()
    rng = random.Random(707)
    cases = 0
    for k in (2, 3):
        for r in (2, 3, 4):
            for q in range(1, k + 1):
                for _ in range(50):
                    m = rng.randint(0, r**k)
                    roots = {
                        tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(m)
                    }
                    res = find_translate(CubeSet.of(k, roots), r, q)
                    assert res.count <= res.bound == math.comb(k, q) * r ** (k - q)
                    cases += 1
    elapsed = time.monotonic() - start
    _verdict(7, elapsed < 60, f"{cases} cube sets, bound never exceeded, {elapsed:.1f}s < 60s")


def _chain_pairs(rng, count):
    sources = [build_complex([[0, 1]]), path(3)]
    while len(sources) < count:
        g = random_graph(rng, rng.randint(2, 5), rng.choice([0.4, 0.7, 1.0]))
        if g.edges:
            sources.append(g)
    return sources


def test_criterion_8_composition_law():
    """20 chained pairs: composite interference <= k1*k2 and composite volume
    <= second volume, recomputed from scratch on the composite."""
    rng = random.Random(808)
    pairs = 0
    for z in _chain_pairs(rng, 19):
        cc1 = coarse_construct(z)
        cc2 = coarse_construct(cc1.target)
        composite = compose(cc1, cc2)
        recomputed = _measured_k(
            composite.target, composite.vertex_map, composite.sub_edges, composite.provsets
        )
        revolume = len(
            {
                composite.vertex_map[i]
                for i in range(composite.n_sub_vertices)
                if composite.provsets[frozenset((i,))]
            }
        )
        assert recomputed == composite.measured_k
        assert revolume == composite.volume
        assert recomputed <= cc1.measured_k * cc2.measured_k
        assert revolume <= cc2.volume
        pairs += 1
    # identity on the left must be neutral
    k2 = build_complex([[0, 1]])
    cc2 = coarse_construct(k2)
    composite = compose(identity_construction(k2), cc2)
    assert composite.measured_k == cc2.measured_k
    assert composite.volume == cc2.volume
    pairs += 1
    _verdict(8, pairs == 20, f"{pairs} chained pairs, product and volume bounds hold")


@functools.cache
def _criterion_9_cases():
    """The 30 criterion-9 graphs, their constructions, and each image's
    exact cutwidth, or None where the exact solver refuses the image."""
    rng = random.Random(909)
    results = []
    for _ in range(30):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        cc = coarse_construct(g)
        try:
            width_img = cutwidth_exact(cc.target).width
        except SizeLimitError:
            width_img = None
        results.append((g, cc, width_img))
    return tuple(results)


def test_criterion_9_overlap_transfer_inequality():
    """cutwidth(Z) <= measured_k * (cutwidth(image 1-skeleton) + deg(image)
    + 1), on every image the exact solver does not refuse."""
    checked = 0
    for g, cc, width_img in _criterion_9_cases():
        if width_img is None:
            continue
        lhs = cutwidth_exact(g).width
        rhs = cc.measured_k * (width_img + cc.target.degree + 1)
        assert lhs <= rhs, (sorted(g.edges), lhs, rhs)
        checked += 1
    _verdict(9, checked > 0, f"transfer inequality exact on all {checked} solvable images")


def test_criterion_9_skip_rate_below_20_percent():
    """Stated skip budget: fewer than 20% of the images may go unchecked
    because the exact solver refuses them.

    The image of an n-vertex graph with m edges and mu distinct edge minima
    has about n + mu + (2*ell - 1)*(m + mu) vertices (ell = ceil(log2 n)),
    37 to 184 here for most graphs with n up to 12: past the subset DP's
    24-vertex limit.  But the images have maximum degree 3 and small
    cutwidth, and the prefix-set search that takes over past that limit
    solves them exactly within its state limit.
    """
    results = _criterion_9_cases()
    skipped = sum(1 for _, _, width in results if width is None)
    rate = skipped / len(results)
    detail = (
        f"skipped {skipped}/{len(results)} = {rate:.0%} (image sizes "
        f"{sorted((cc.target.n_vertices) for _, cc, _ in results)}); stated budget < 20%"
    )
    _verdict(9, rate < 0.20, detail)


def test_criterion_10_extraction_postcondition():
    """50 random graphs n <= 16, targets 1/4, 1/2, 1: success implies an
    independently scanned Cheeger value at or above target, failure implies
    the trace ends with at most one vertex."""
    rng = random.Random(1010)
    successes = failures = 0
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 16), rng.choice([0.1, 0.25, 0.5]))
        for target in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            res = extract_expander(g, target)
            if res.success:
                independent = oracle_cheeger(res.subgraph)
                assert independent is not None and independent[0] >= target
                successes += 1
            else:
                assert res.subgraph.n_vertices <= 1
                failures += 1
    _verdict(10, True, f"{successes} successes verified independently, {failures} clean failures")


def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI command produces byte-identical output for --threads 1 and
    --threads 8."""
    from topoverlap.cli import main

    host = tmp_path / "host.txt"
    host.write_text(emit_complex(grid(3, 3)))
    k2 = tmp_path / "k2.txt"
    k2.write_text(emit_complex(build_complex([[0, 1]])))
    cubes = tmp_path / "cubes.txt"
    cubes.write_text("2 2\n0 0\n0 1\n1 0\n1 1\n")
    cw_csv = tmp_path / "cw.csv"
    sep_csv = tmp_path / "sep.csv"
    assert main(["profile", str(host), "--invariant", "cutwidth", "--rmax", "9", "--out", str(cw_csv)]) == 0
    assert main(["profile", str(host), "--invariant", "separation", "--rmax", "9", "--out", str(sep_csv)]) == 0

    commands = [
        ["stats", str(host)],
        ["cutwidth", str(host), "--method", "dp"],
        ["cutwidth", str(host), "--method", "bruteforce"],
        ["cutwidth", str(host), "--method", "anneal", "--seed", "5"],
        ["cheeger", str(host)],
        ["cut", str(host)],
        ["profile", str(host), "--invariant", "cutwidth", "--rmax", "9"],
        ["profile", str(host), "--invariant", "separation", "--rmax", "9"],
        ["horocyclic", "construct", str(k2), "--validate"],
        ["translate", "--cubes", str(cubes), "--q", "1"],
        ["extract-expander", str(host), "--target", "1/2"],
        ["verify", "cwsep", str(cw_csv), str(sep_csv), "--delta", "4"],
    ]
    for idx, cmd in enumerate(commands):
        outputs = []
        for threads in ("1", "8"):
            out_file = tmp_path / f"out_{idx}_{threads}.txt"
            code = main(cmd + ["--threads", threads, "--out", str(out_file)])
            assert code in (0, 1)
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1], f"command {cmd} differs across thread counts"
    _verdict(11, True, f"{len(commands)} commands byte-identical across --threads 1/8")
