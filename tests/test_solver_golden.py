"""Golden digests of the exact cutwidth orders and of the translate search.

The SHA-256 digests below were recorded with the two subset DPs of
``cutwidth_exact`` (up to ``DEFAULT_DP_LIMIT`` = 24 vertices) and its
prefix-set search past them, and with the shift-by-shift loop that
``find_translate`` then had.  They pin values and the lexicographically smallest
witnesses byte for byte, so that a new engine must return the same orders:
seeded graphs of 0 to 20 vertices with gapped labels, cliques, cycles,
paths and grids on both sides of the DP limit, the images of the
criterion-9 recipe, cutwidth-profile CSVs (the larger ones of the 4x4
and 8x8 grids recorded later, with the same engines), and the best translates of the
`solve` benchmark's cube-set shapes.

Three digests recorded later, with the per-gap cut loops that each order
scorer then had, pin what is derived from an order: the cut profiles of the
exact orders, the annealer's orders (every comparison and random draw it
makes depends on the widths it computes; it then rescored the whole order
after each swap), and the sweep overlaps of shuffled orders with the
``to1_bounds`` triples.

The DP's largest sizes have their own digest, recorded later with the same
engines: seeded graphs of 21 to 24 vertices with gapped labels, where the
DP takes 0.2 to 1.8 s a graph and about 150 MB of peak RSS at 24 on a
shared 2-core machine, so that an engine that answers these sizes first by
search must return the DP's orders.  The criterion-9 recipe has no image in
that range: its 30 images have 2 to 20 or 37 to 184 vertices.  A last digest,
recorded with the same DP, pins the sparse graphs in that range that a
search answers in a few steps: P21, C22, the 3x7 grid, a seeded tree of 22
vertices and the 4x6 grid (0.4 to 1.2 s each there, 5.5 s for the grid).
"""

from __future__ import annotations

import hashlib
import random

from topoverlap import (
    CubeSet,
    build_complex,
    LinearArrangement,
    coarse_construct,
    cutwidth_exact,
    cutwidth_heuristic,
    find_translate,
    profile,
    sweep_overlap,
    to1_bounds,
)
from topoverlap.fileio import emit_csv

from conftest import clique, cycle, gapped_graph, grid, hypercube, path, random_graph

GOLDEN = {
    "cutwidth-random": "c1ffa97096080c6567e1ccd2786805eb060af6e63badd6d9ead56e99852d7b94",
    "cutwidth-named": "cde79d612f08a701557092f63019564ec698dd256e80220003e17a9f5d2d75b4",
    "cutwidth-search": "da1a31e6bf08544eeebd2ec4d2fcb1eb94761493af6b44ec26ead1984c12bdf0",
    "cutwidth-images": "fbbe85e8f1eda927b65724d8d61c4e75b7b837a1fb54f8fb3172cb2574a82c53",
    "cutwidth-profiles": "caac458a5172cf00dbfeef32272795dd8cfe4d89cbbfe6293b34eba7ee98b78c",
    "cutwidth-profiles-large": "5d08f0235a8261b38799d6edad68e2490ea97e076afd946d0b59323f560c2f65",
    "translate": "bd7864e9bf8167f30d1d716098a49fef39f6985c9b4fd9f1d10dc256381d22f1",
    "cut-profiles": "6d6eb7e887ab7137508239a76b1e24c13edfb7433bfc39f9fc682772e99c4c3d",
    "anneal": "08280c76310a8e3a35b7e8998a5f416f1c9fe255d7d7e9b00d5ff946f7da1582",
    "sweep": "3794429cb6b07e6198ce2a35d5ff402e351c8b57ec8a535975d12e8c4a6d2193",
}

GOLDEN_DP_EDGE = "631198a4a75d8ae77349aae80378229fafa88f0495a80e43a270fff8e788e81a"

GOLDEN_SPARSE = "aa9500cdb7c3d0a76d7865e07921e7b64e32bbef5d6bb283f23f9dd8e6faeb8e"

TRANSLATE_SHAPES = (
    (2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2), (3, 4, 1),
    (3, 4, 2), (4, 3, 1), (4, 3, 2), (4, 4, 1), (4, 4, 2),
)


def random_graphs():
    rng = random.Random(2012)
    graphs = [gapped_graph(rng, n, p) for n in range(21) for p in (0.25, 0.5)]
    return graphs + [gapped_graph(rng, n, 0.7) for n in range(17)]


def named_graphs():
    graphs = [clique(n) for n in range(2, 17)]
    graphs += [cycle(n) for n in range(3, 21)]
    graphs += [path(n) for n in range(1, 21)]
    return graphs + [grid(r, c) for r in range(2, 5) for c in range(r, 20 // r + 1)]


def search_graphs():
    graphs = [cycle(n) for n in range(25, 41)]
    graphs += [path(n) for n in range(25, 41)]
    shapes = ((2, 13), (3, 9), (3, 10), (4, 7), (5, 5), (5, 6), (6, 6))
    return graphs + [grid(r, c) for r, c in shapes]


def dp_edge_graphs():
    rng = random.Random(2124)
    return [gapped_graph(rng, n, p) for n in range(21, 25) for p in (0.25, 0.5)]


def sparse_graphs():
    """Sparse graphs of 21 to 24 vertices, which a search would answer
    in a few steps: P21, C22, the 3x7 grid, a seeded tree and the 4x6 grid."""
    rng = random.Random(2222)
    tree = build_complex([[i, rng.randrange(i)] for i in range(1, 22)])
    return [path(21), cycle(22), grid(3, 7), tree, grid(4, 6)]


def criterion_9_images():
    """The targets of the criterion-9 recipe, as in test_acceptance."""
    rng = random.Random(909)
    images = []
    for _ in range(30):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        images.append(coarse_construct(g).target)
    return images


def cutwidth_text(graphs) -> str:
    lines = []
    for g in graphs:
        arrangement = cutwidth_exact(g)
        lines.append(f"{arrangement.width}|{arrangement.order}")
    return "\n".join(lines)


def cut_profiles_text() -> str:
    return "\n".join(str(cutwidth_exact(g).cut_profile) for g in random_graphs() + named_graphs())


def anneal_text() -> str:
    rng = random.Random(1818)
    lines = []
    for n in (2, 8, 16, 20, 24, 28):
        for p in (0.2, 0.5):
            g = gapped_graph(rng, n, p)
            for seed in (0, 1):
                for arrangement in (cutwidth_heuristic(g, seed), cutwidth_heuristic(g, seed, budget=60)):
                    lines.append(f"{arrangement.width}|{arrangement.order}")
    return "\n".join(lines)


def sweep_text() -> str:
    """Sweep overlaps of shuffled orders, on graphs with isolated vertices
    among others, then the ``to1_bounds`` triples of the graphs of at most
    12 vertices."""
    rng = random.Random(1919)
    graphs = random_graphs() + named_graphs()
    lines = []
    for g in graphs:
        order = sorted(g.vertices)
        rng.shuffle(order)
        lines.append(f"{sweep_overlap(g, LinearArrangement.from_order(g, order))}")
    for g in graphs:
        if g.n_vertices <= 12:
            b = to1_bounds(g)
            lines.append(f"{b.lower} {b.upper} {b.realized_overlap}")
    return "\n".join(lines)


def profiles_text() -> str:
    hosts = [grid(3, 4), hypercube(3), cycle(12), path(12)]
    return "".join(emit_csv(profile(h, "cutwidth", h.n_vertices)) for h in hosts)


def large_profiles_text() -> str:
    """The 4x4 grid to r = 16 and the 8x8 grid to r = 7 (31 385 connected
    sets), recorded before profiles skipped sets that cannot raise a row."""
    tables = (profile(grid(4, 4), "cutwidth", 16), profile(grid(8, 8), "cutwidth", 7))
    return "".join(emit_csv(t) for t in tables)


def translate_text() -> str:
    rng = random.Random(1111)
    lines = []
    for k, r, q in TRANSLATE_SHAPES:
        roots = {tuple(rng.randint(-8, 8) for _ in range(k)) for _ in range(r**k)}
        res = find_translate(CubeSet(k, frozenset(roots)), r, q)
        lines.append(f"{k} {r} {q}|{res.v}|{res.count}|{res.bound}")
    return "\n".join(lines)


def solver_texts() -> dict:
    return {
        "cutwidth-random": cutwidth_text(random_graphs()),
        "cutwidth-named": cutwidth_text(named_graphs()),
        "cutwidth-search": cutwidth_text(search_graphs()),
        "cutwidth-images": cutwidth_text(criterion_9_images()),
        "cutwidth-profiles": profiles_text(),
        "cutwidth-profiles-large": large_profiles_text(),
        "translate": translate_text(),
        "cut-profiles": cut_profiles_text(),
        "anneal": anneal_text(),
        "sweep": sweep_text(),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_solvers_match_golden_digests():
    assert {name: digest(text) for name, text in solver_texts().items()} == GOLDEN


def test_dp_edge_orders_match_golden_digest():
    assert digest(cutwidth_text(dp_edge_graphs())) == GOLDEN_DP_EDGE


def test_sparse_orders_match_golden_digest():
    assert digest(cutwidth_text(sparse_graphs())) == GOLDEN_SPARSE
