"""Seeded inputs and fixed op lists for the four benchmark workloads.

Every workload is a function ``build_<name>(workdir, rng, topo, sizes)``
that writes its input files under ``workdir`` and returns the op list of one
round.  Inputs depend only on the seed.  Sizes are fixed per slot (vertex
and edge counts, image-size bands, ranks in a size-sorted pool), so that runs
on different seeds do nearly the same amount of work and only the structure
of the inputs varies.

Where sizes are set by hand, the op list is made of blocks of ops of one
size, placed so that the median and the 90th-percentile op fall inside a
block rather than between two, which keeps both percentiles steady from seed
to seed.  ``FULL`` holds the sizes of the benchmark; ``TINY`` the sizes of
the harness self-test.

The program sees only the generated files: CLI ops get file paths, and the
two direct library calls read their input file themselves.  Each op's output
check (:mod:`checks`) is built from the benchmark's own description of the
input, never from anything the program computed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

# Per-op budgets in seconds at the reference speed (see harness).  A failed op
# is charged its time plus twice the budget of its workload.
BUDGET_S = {"construct": 30.0, "solve": 30.0, "profile": 30.0, "reach": 2.0}

# revalidate_manifest tests every pair of refinement vertices, O(N^2): about
# 0.5 s at 434 functions and 0.8 s at 577 on a 2-core machine, 3 s at 1408,
# and minutes for the 11k-function manifests of the criterion-4 corpus.
# Manifests up to this many functions get a revalidate op; the larger ones
# would dominate the round.
REVALIDATE_CAP = 512

# reach: images up to this many vertices are solved by the exact engine well
# within the per-op budget, so a refusal or time-out of one is a regression.
REACH_REQUIRED_MAX = 20


@dataclass
class Op:
    """One timed operation.

    ``argv`` is a CLI command; the harness appends ``--out`` with ``out``, or
    with a path of its own when ``out`` is None.  ``call``
    is a direct library call taking the imported package and returning the
    op's text output.  ``check(result)`` raises ``checks.CheckFailed`` when
    the output is wrong.  ``extra`` names further files the op writes, which
    are part of its output.  Ops of one ``group`` run together and in list
    order, because later ones read what earlier ones wrote; each op without
    a group is a group of its own.
    """

    id: str
    check: object
    argv: list | None = None
    call: object = None
    extra: list = field(default_factory=list)
    out: str | None = None
    required: bool = True
    group: str | None = None

    @property
    def threads(self) -> int:
        """Size of the thread pool the op asks the program for."""
        if self.argv is None or "--threads" not in self.argv:
            return 1
        return int(self.argv[self.argv.index("--threads") + 1])


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # sorted (u, v) pairs with u < v


@dataclass(frozen=True)
class Complex:
    n: int
    maximal: tuple  # listed simplices (triangles and edges), sorted tuples
    edges: tuple
    triangles: tuple


def emit_graph(g: Graph) -> str:
    lines = [f"c {g.n}"] + [f"s {u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def emit_complex(cx: Complex) -> str:
    lines = [f"c {cx.n}"] + ["s " + " ".join(map(str, s)) for s in cx.maximal]
    return "\n".join(lines) + "\n"


def random_graph(rng, n: int, m: int) -> Graph:
    """A uniformly random graph on n vertices with exactly m edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tuple(sorted(rng.sample(pairs, m))))


def recipe_complex(rng, n_max: int, deg_max: int = 6) -> Complex:
    """One draw of the criterion-4 recipe of the test suite (dimension <= 2,
    degree <= deg_max): n uniform on 1..n_max, an edge target uniform on
    0..n*deg_max/2, then ``recipe_fill``.  The same rng calls as the suite's
    ``random_complex``."""
    n = rng.randint(1, n_max)
    return recipe_fill(rng, n, None, deg_max)


def recipe_fill(rng, n: int, target: int | None, deg_max: int = 6) -> Complex:
    """The recipe after its choice of n: edges from shuffled vertex pairs
    under the degree cap up to ``target`` (drawn when None), then each
    spanned triangle kept with probability 0.7."""
    deg = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    if target is None:
        target = rng.randint(0, n * deg_max // 2)
    edges = []
    for u, v in pairs:
        if len(edges) >= target:
            break
        if deg[u] < deg_max and deg[v] < deg_max:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    eset = set(edges)
    triangles = sorted(
        (u, v, w)
        for u, v in edges
        for w in range(v + 1, n)
        if (u, w) in eset and (v, w) in eset and rng.random() < 0.7
    )
    in_tri = {e for u, v, w in triangles for e in ((u, v), (u, w), (v, w))}
    edges = sorted(edges)
    maximal = tuple(triangles) + tuple(e for e in edges if e not in in_tri)
    return Complex(n, maximal, tuple(edges), tuple(triangles))


def recipe_fvectors(n_max: int, count: int, draws: int, seed: int = 0) -> tuple:
    """f-vectors (vertices, edges, triangles) at ``count`` evenly spaced
    ranks of ``draws`` recipe draws sorted by lattice size: the recipe's size
    distribution in ``count`` strata."""
    rng = random.Random(seed)
    pool = sorted((recipe_complex(rng, n_max) for _ in range(draws)), key=lattice_size)
    picks = (pool[draws * (2 * i + 1) // (2 * count)] for i in range(count))
    return tuple((cx.n, len(cx.edges), len(cx.triangles)) for cx in picks)


def recipe_with_fvector(rng, fvector) -> Complex:
    """A recipe draw conditioned on its f-vector: n and the edge target are
    fixed, and the fill is redrawn until the counts match."""
    n, m, t = fvector
    for _ in range(100000):
        cx = recipe_fill(rng, n, m)
        if len(cx.edges) == m and len(cx.triangles) == t:
            return cx
    raise RuntimeError(f"no recipe draw with f-vector {fvector}")


def lattice_size(cx: Complex) -> int:
    """Number of refinement vertices of the coarse construction, from the
    f-vector alone: chains of faces times weight compositions."""
    d = 2 if cx.triangles else (1 if cx.edges else 0)
    ell = max(1, (cx.n - 1).bit_length())
    total = (d + 1) * ell
    v, e, t = cx.n, len(cx.edges), len(cx.triangles)
    chains = {1: v + e + t, 2: 2 * e + 6 * t, 3: 6 * t}
    return sum(count * math.comb(total - 1, length - 1) for length, count in chains.items())


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


# --- construct -----------------------------------------------------------


def build_construct(workdir: Path, rng, topo, sizes) -> list:
    """One complex of the criterion-4 recipe per f-vector of the size
    strata in ``sizes["fvectors"]``, so every seed does the same work and only
    the structure varies.  Every input gets ``stats`` and ``horocyclic
    construct``; manifests within the cap also get ``revalidate_manifest``."""
    ops = []
    for i, fvector in enumerate(sizes["fvectors"]):
        cx = recipe_with_fvector(rng, fvector)
        path = _write(workdir, f"c{i:02d}.txt", emit_complex(cx))
        manifest = str(workdir / f"c{i:02d}.manifest")
        size = lattice_size(cx)
        group = f"c{i:02d}"
        ops.append(Op(f"{group}.stats", checks.stats_checker(cx), argv=["stats", path], group=group))
        ops.append(
            Op(
                f"{group}.construct",
                checks.construct_checker(cx, size, manifest),
                argv=["horocyclic", "construct", path, "--manifest", manifest, "--validate"],
                extra=[manifest],
                group=group,
            )
        )
        if size <= REVALIDATE_CAP:
            ops.append(
                Op(
                    f"{group}.revalidate",
                    checks.rows_checker(4),
                    call=lambda topo, m=manifest: checks.render_rows(
                        topo.horocyclic.revalidate_manifest(Path(m).read_text())
                    ),
                    group=group,
                )
            )
    return ops


# --- solve ---------------------------------------------------------------


def _density_edges(n: int, p: float) -> int:
    return round(p * math.comb(n, 2))


def build_solve(workdir: Path, rng, topo, sizes) -> list:
    ops = []

    def graph_file(tag, n, p):
        g = random_graph(rng, n, _density_edges(n, p))
        return g, _write(workdir, f"{tag}.txt", emit_graph(g))

    # both sides of the n = 15 switch from the pure-Python to the numpy DP
    for i, n in enumerate(sizes["cutwidth"]):
        g, path = graph_file(f"cw{i:02d}_n{n}", n, 0.25)
        ops.append(Op(f"cw{i:02d}.n{n}", checks.cutwidth_checker(g, "exact"), argv=["cutwidth", path]))
    for i, n in enumerate(sizes["cheeger"]):
        g, path = graph_file(f"ch{i:02d}_n{n}", n, 0.25)
        ops.append(Op(f"cheeger{i:02d}.n{n}", checks.cheeger_checker(g), argv=["cheeger", path]))
    for i, n in enumerate(sizes["cut"]):
        g, path = graph_file(f"cut{i:02d}_n{n}", n, 0.25)
        ops.append(Op(f"cut{i:02d}.n{n}", checks.cut_checker(g), argv=["cut", path]))
    for n in sizes["anneal"]:
        g, path = graph_file(f"an_n{n}", n, 0.2)
        seed = rng.randrange(1 << 16)
        ops.append(
            Op(
                f"anneal.n{n}",
                checks.cutwidth_checker(g, "upper_bound"),
                argv=["cutwidth", path, "--method", "anneal", "--seed", str(seed)],
            )
        )
    for i, n in enumerate(sizes["to1"]):
        g, path = graph_file(f"to1{i}_n{n}", n, 0.25)
        ops.append(
            Op(
                f"to1{i}.n{n}",
                checks.to1_checker(g),
                call=lambda topo, p=path: checks.render_to1(
                    topo.invariants.to1_bounds(topo.fileio.parse_complex(Path(p).read_text()))
                ),
            )
        )
    for k, r, q in sizes["translate"]:
        roots = sorted({tuple(rng.randint(-8, 8) for _ in range(k)) for _ in range(r**k)})
        text = f"{k} {r}\n" + "".join(" ".join(map(str, root)) + "\n" for root in roots)
        path = _write(workdir, f"cubes_k{k}_r{r}_q{q}.txt", text)
        ops.append(
            Op(
                f"translate.k{k}.r{r}.q{q}",
                checks.translate_checker(k, r, q, roots),
                argv=["translate", "--cubes", path, "--q", str(q), "--threads", "2"],
            )
        )
    return ops


# --- profile -------------------------------------------------------------


def _grid(rows, cols) -> Graph:
    edges = [(cols * r + c, cols * r + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(cols * r + c, cols * (r + 1) + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, tuple(sorted(edges)))


def _hypercube(dim) -> Graph:
    n = 1 << dim
    return Graph(n, tuple(sorted((a, a ^ (1 << b)) for a in range(n) for b in range(dim) if a < a ^ (1 << b))))


def _cycle(n) -> Graph:
    return Graph(n, tuple(sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))))


def _path(n) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def connected_sets(g: Graph, rmax: int) -> int:
    """Vertex sets of 1 to ``rmax`` vertices that induce a connected
    subgraph.  ``profile`` scores these with a solver and drops the others
    after a connectivity test, so the count sets most of a table's cost.
    Each set is grown once from its least vertex by adding, one at a time,
    larger vertices adjacent to the set but not to its earlier members (the
    ESU enumeration of Wernicke, 2006)."""
    adj = checks.adjacency(g.n, g.edges)

    def grow(size, near, extension, least):
        count = 1
        if size < rmax:
            extension = set(extension)
            while extension:
                w = extension.pop()
                new = {u for u in adj[w] if u > least and u not in near}
                count += grow(size + 1, near | adj[w], extension | new, least)
        return count

    return sum(grow(1, adj[v] | {v}, {u for u in adj[v] if u > v}, v) for v in range(g.n))


def host_strata(n: int, m: int, rmax: int, count: int, draws: int, seed: int = 0) -> tuple:
    """``connected_sets`` counts at ``count`` evenly spaced ranks of
    ``draws`` random graphs with n vertices and m edges: the size
    distribution of their profile tables in ``count`` strata."""
    rng = random.Random(seed)
    pool = sorted(connected_sets(random_graph(rng, n, m), rmax) for _ in range(draws))
    return tuple(pool[draws * (2 * i + 1) // (2 * count)] for i in range(count))


def host_in_stratum(rng, n: int, m: int, rmax: int, target: int) -> Graph:
    """A random graph with n vertices and m edges, redrawn until its
    ``connected_sets`` count is within 2 % of ``target``."""
    for _ in range(100000):
        g = random_graph(rng, n, m)
        if abs(connected_sets(g, rmax) - target) <= target // 50:
            return g
    raise RuntimeError(f"no {n}-vertex host with about {target} connected sets")


FIXED_HOSTS = {"grid3x4": _grid(3, 4), "cube3": _hypercube(3), "C12": _cycle(12), "P12": _path(12)}


def build_profile(workdir: Path, rng, topo, sizes) -> list:
    """Cutwidth and separation profiles (rmax = host size) of the fixed hosts,
    profiles of seeded hosts, ``verify cwsep`` on every pair of tables, and
    greedy expander extraction at three targets."""
    ops = []
    hosts = [(name, FIXED_HOSTS[name], FIXED_HOSTS[name].n) for name in sizes["fixed"]]
    for (n, m, rmax), targets in sizes["random"]:
        for target in targets:
            hosts.append((f"rand{len(hosts):02d}_n{n}", host_in_stratum(rng, n, m, rmax, target), rmax))
    for name, g, rmax in hosts:
        path = _write(workdir, f"{name}.txt", emit_graph(g))
        csv = {}
        for inv in ("cutwidth", "separation"):
            csv[inv] = str(workdir / f"{name}.{inv}.csv")
            ops.append(
                Op(
                    f"profile.{name}.{inv}",
                    checks.profile_checker(g, rmax),
                    argv=["profile", path, "--invariant", inv, "--rmax", str(rmax), "--threads", "2"],
                    out=csv[inv],
                    group=name,
                )
            )
        ops.append(
            Op(
                f"verify.{name}",
                checks.verify_checker(),
                argv=["verify", "cwsep", csv["cutwidth"], csv["separation"], "--delta", str(checks.max_degree(g.n, g.edges))],
                group=name,
            )
        )
    i = 0
    for n, count in sizes["extract"]:
        for _ in range(count):
            g = random_graph(rng, n, _density_edges(n, 0.25))
            path = _write(workdir, f"ex{i:02d}_n{n}.txt", emit_graph(g))
            for target in ("1/4", "1/2", "1"):
                ops.append(
                    Op(
                        f"extract{i:02d}.n{n}.{target.replace('/', '_')}",
                        checks.extract_checker(g, target),
                        argv=["extract-expander", path, "--target", target],
                    )
                )
            i += 1
    return ops


# --- reach ---------------------------------------------------------------


def _recipe_graph(rng, topo, n):
    """One criterion-9 recipe graph on n vertices, with its image."""
    p = rng.choice((0.15, 0.3, 0.5))
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
    src = topo.build_complex([list(e) for e in edges], extra_vertices=range(n))
    return Graph(n, edges), topo.coarse_construct(src).target


def reach_images(rng, topo, bands, at_limit: int) -> list:
    """Images of criterion-9 recipe graphs (n <= 12, p in {0.15, 0.3, 0.5}),
    drawn until every image-size band (lo, hi, count) is full, plus
    ``at_limit`` images of exactly the exact engine's vertex limit, drawn
    from 4-vertex recipe graphs, the smallest sources that reach it."""
    dp_limit = topo.invariants.DEFAULT_DP_LIMIT
    need = [count for _, _, count in bands]
    found = [[] for _ in bands]
    for _ in range(20000):
        if not any(need):
            break
        _src, image = _recipe_graph(rng, topo, rng.randint(2, 12))
        for b, (lo, hi, _) in enumerate(bands):
            if need[b] and lo <= image.n_vertices <= hi:
                found[b].append(image)
                need[b] -= 1
                break
    limit = []
    for _ in range(20000):
        if len(limit) == at_limit:
            break
        _src, image = _recipe_graph(rng, topo, 4)
        if image.n_vertices == dp_limit:
            limit.append(image)
    if any(need) or len(limit) < at_limit:
        raise RuntimeError("reach bands not filled after 20000 draws")
    return [image for band in found for image in band] + limit


def build_reach(workdir: Path, rng, topo, sizes) -> list:
    ops = []
    for i, image in enumerate(reach_images(rng, topo, sizes["bands"], sizes["at_limit"])):
        g = Graph(image.n_vertices, tuple(image.edges))
        path = _write(workdir, f"image{i:02d}_v{g.n}.txt", emit_graph(g))
        ops.append(
            Op(
                f"image{i:02d}.v{g.n}",
                checks.cutwidth_checker(g, "exact"),
                argv=["cutwidth", path],
                required=g.n <= REACH_REQUIRED_MAX,
            )
        )
    return ops


WORKLOADS = {
    "construct": build_construct,
    "solve": build_solve,
    "profile": build_profile,
    "reach": build_reach,
}

FULL = {
    # recipe_fvectors(8, 40, 40000): the criterion-4 recipe scaled from
    # n <= 32 to n <= 8, so that a round takes seconds rather than half a
    # minute, in 40 strata of its lattice-size distribution
    "construct": {
        "fvectors": (
            (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (5, 0, 0),
            (2, 1, 0), (2, 1, 0), (2, 1, 0), (7, 0, 0), (4, 1, 0), (3, 2, 0), (8, 1, 0), (3, 3, 0),
            (6, 2, 0), (4, 5, 0), (6, 4, 0), (7, 5, 0), (8, 7, 0), (3, 3, 1), (3, 3, 1), (4, 4, 1),
            (4, 6, 2), (5, 6, 1), (4, 6, 3), (8, 8, 1), (4, 6, 4), (7, 9, 2), (6, 10, 3), (7, 11, 4),
            (7, 13, 5), (8, 14, 6), (8, 16, 7), (5, 10, 9), (6, 14, 11), (8, 19, 13), (7, 18, 16), (7, 20, 21),
        ),
    },
    # DP solves at fixed n are the median (n = 14, 16) and 90th-percentile
    # (n = 18) blocks
    "solve": {
        "cutwidth": (13,) * 8 + (14,) * 8 + (15,) * 8 + (16,) * 8 + (17,) * 8 + (18,) * 6 + (19,) * 4 + (20,),
        "cheeger": (12,) * 4 + (13,) * 4 + (14,) * 4 + (15, 15, 16, 16),
        "cut": (12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17),
        "anneal": (16, 20, 24, 28),
        "to1": (10, 10, 12, 12, 14, 14),
        "translate": (
            (2, 3, 1), (2, 4, 1), (2, 4, 2), (3, 3, 1), (3, 3, 2), (3, 4, 1),
            (3, 4, 2), (4, 3, 1), (4, 3, 2), (4, 4, 1), (4, 4, 2),
        ),
    },
    # the 8-vertex seeded hosts' tables are the median block, with the verify
    # ops below them balancing the extractions and tables above; the
    # 12-vertex seeded hosts' tables are the 90th-percentile block.  The
    # extractions stay out of both: their cost depends on the number of
    # greedy steps, which varies with the seed.
    "profile": {
        "fixed": ("grid3x4", "cube3", "C12", "P12"),
        # host_strata(12, 18, 5, 10, 1000) and host_strata(8, 10, 4, 29, 2000)
        "random": (
            ((12, 18, 5), (235, 259, 274, 286, 297, 306, 315, 326, 340, 362)),
            (
                (8, 10, 4),
                (43, 46, 48, 49, 50, 50, 51, 52, 52, 53, 53, 54, 54, 55, 55,
                 56, 57, 57, 57, 58, 58, 59, 59, 60, 61, 62, 63, 65, 67),
            ),
        ),
        "extract": ((14, 5),),
    },
    # image-size bands after the size mix of the criterion-9 recipe, plus one
    # image at the DP limit, so every seed measures the DP's memory peak and
    # one time-out.  Images of 21-23 vertices are left out: they finish close
    # to the per-op budget, so whether they time out would depend on the
    # machine rather than on the program.
    "reach": {
        "bands": ((2, 12, 21), (13, 20, 9), (25, 48, 21), (49, 96, 27), (97, 10**6, 21)),
        "at_limit": 1,
    },
}

TINY = {
    "construct": {"fvectors": ((1, 0, 0), (3, 2, 0), (4, 5, 1))},
    "solve": {
        "cutwidth": (8, 16),
        "cheeger": (8,),
        "cut": (8,),
        "anneal": (8,),
        "to1": (8,),
        "translate": ((2, 2, 1),),
    },
    "profile": {"fixed": ("cube3",), "random": (((7, 8, 4), (38,)),), "extract": ((8, 1),)},
    "reach": {"bands": ((2, 12, 2), (25, 48, 1)), "at_limit": 0},
}
