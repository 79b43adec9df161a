"""Output checks that do not trust the solver.

Each checker is built from the benchmark's own description of an op's input
and recomputes what it can from the emitted output alone: a cutwidth from the
emitted order, a Cheeger ratio from the witness set, component sizes after
removing a separator, a translate count at the emitted shift.  A checker
raises :class:`CheckFailed` on a wrong output; the harness then counts the op
as ``wrong``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(Exception):
    """The program's output fails an independent check."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _fields(text: str) -> dict:
    """``key,value`` lines as a dict (first comma splits)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(",")
        _require(bool(sep), f"line without a comma: {line!r}")
        out.setdefault(key, value)
    return out


def _ints(text: str) -> list:
    return [int(x) for x in text.split()]


def _code(result, allowed=(0,)):
    _require(result.code in allowed, f"exit code {result.code}, expected one of {allowed}")


def adjacency(n: int, edges) -> list:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def max_degree(n: int, edges) -> int:
    """Largest number of edges at one vertex."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree, default=0)


def component_sizes(vertices, adj) -> list:
    seen, sizes = set(), []
    for s in vertices:
        if s in seen:
            continue
        seen.add(s)
        stack, size = [s], 0
        while stack:
            x = stack.pop()
            size += 1
            for y in adj[x]:
                if y in vertices and y not in seen:
                    seen.add(y)
                    stack.append(y)
        sizes.append(size)
    return sizes


def _check_rows(lines, expected: int | None):
    """CSV check rows ``check,lhs,rhs,pass`` must all pass."""
    _require(bool(lines) and lines[0] == "check,lhs,rhs,pass", "missing check-row header")
    rows = lines[1:]
    if expected is not None:
        _require(len(rows) == expected, f"{len(rows)} check rows, expected {expected}")
    _require(bool(rows), "no check rows")
    for row in rows:
        _require(row.rsplit(",", 1)[-1].lower() == "true", f"check row fails: {row}")


def render_rows(rows) -> str:
    """Text form of the check rows returned by a direct library call."""
    lines = ["check,lhs,rhs,pass"]
    lines += [f"{r.check},{r.lhs},{r.rhs},{r.passed}" for r in rows]
    return "\n".join(lines) + "\n"


def render_to1(bounds) -> str:
    return f"lower,{bounds.lower}\nupper,{bounds.upper}\nrealized,{bounds.realized_overlap}\n"


def cut_profile(n: int, edges, order) -> list:
    """Cut after each prefix: entry i counts edges with one end among the
    first i vertices of ``order`` and the other end after them (i = 0..n-1)."""
    pos = {v: i for i, v in enumerate(order)}
    profile = [0] * n
    for u, v in edges:
        a, b = sorted((pos[u], pos[v]))
        for i in range(a + 1, b + 1):
            profile[i] += 1
    return profile


def cheeger_ratio(n: int, edges, subset) -> Fraction:
    adj = adjacency(n, edges)
    a = set(subset)
    boundary = set().union(*(adj[v] for v in a)) - a
    return Fraction(len(boundary), len(a))


def cheeger_scan(vertices, edges) -> Fraction | None:
    """Vertex Cheeger constant of the induced subgraph on ``vertices`` by a
    full subset scan; None for at most one vertex."""
    verts = sorted(vertices)
    k = len(verts)
    if k <= 1:
        return None
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * k
    for u, v in edges:
        if u in index and v in index:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
    best = None
    for size in range(1, k // 2 + 1):
        for combo in itertools.combinations(range(k), size):
            mask = 0
            nb = 0
            for i in combo:
                mask |= 1 << i
                nb |= adj[i]
            val = Fraction((nb & ~mask).bit_count(), size)
            if best is None or val < best:
                best = val
    return best


# --- checkers ----------------------------------------------------------------


def stats_checker(cx):
    simplices = [frozenset((v,)) for v in range(cx.n)]
    simplices += [frozenset(e) for e in cx.edges] + [frozenset(t) for t in cx.triangles]
    expected = {
        "vertices": cx.n,
        "simplices": len(simplices),
        "dimension": 2 if cx.triangles else (1 if cx.edges else 0),
        "degree": max_degree(cx.n, cx.edges),
        "delta": max(sum(1 for t in simplices if s & t) for s in simplices),
    }

    def check(result):
        _code(result)
        got = _fields(result.text)
        for key, value in expected.items():
            _require(got.get(key) == str(value), f"{key}: got {got.get(key)}, expected {value}")

    return check


def construct_checker(cx, lattice_size: int, manifest_path: str):
    dim = 2 if cx.triangles else (1 if cx.edges else 0)
    ell = max(1, (cx.n - 1).bit_length())
    interference_bound = 2 ** max_degree(cx.n, cx.edges)

    def check(result):
        _code(result)
        lines = result.text.splitlines()
        head = _fields("\n".join(lines[:6]))
        _require(head.get("d") == str(dim), f"d = {head.get('d')}, expected {dim}")
        _require(head.get("ell") == str(ell), f"ell = {head.get('ell')}, expected {ell}")
        _require(head.get("source_vertices") == str(cx.n), "source vertex count differs")
        _require(
            head.get("subdivision_vertices") == str(lattice_size),
            f"refinement has {head.get('subdivision_vertices')} vertices, the f-vector gives {lattice_size}",
        )
        k, volume = int(head["measured_k"]), int(head["volume"])
        _require(k <= interference_bound, f"measured_k {k} > 2^degree = {interference_bound}")
        _require(1 <= volume <= lattice_size, f"volume {volume} outside [1, {lattice_size}]")
        _check_rows(lines[6:], 4)
        manifest = result.extra[manifest_path].decode().splitlines()
        _require(manifest[0] == f"h {dim} {ell} {cx.n} {k} {volume}", f"manifest header {manifest[0]!r}")
        functions = sum(1 for line in manifest[1:] if line.startswith("f "))
        _require(functions == lattice_size, f"manifest lists {functions} functions, expected {lattice_size}")
        words = {line.partition(" -> ")[2] for line in manifest[1:]}
        _require(len(words) == volume, f"manifest has {len(words)} distinct images, header says {volume}")

    return check


def rows_checker(expected: int):
    def check(result):
        _check_rows(result.text.splitlines(), expected)

    return check


def cutwidth_checker(g, kind: str):
    def check(result):
        _code(result)
        got = _fields(result.text)
        _require(got.get("kind") == kind, f"kind {got.get('kind')}, expected {kind}")
        order = _ints(got.get("order", ""))
        _require(sorted(order) == list(range(g.n)), "order is not a permutation of the vertices")
        profile = cut_profile(g.n, g.edges, order)
        _require(_ints(got.get("profile", "")) == profile, "cut profile differs from the emitted order")
        _require(int(got["width"]) == max(profile, default=0), "width differs from the emitted order")

    return check


def cheeger_checker(g):
    def check(result):
        _code(result)
        got = _fields(result.text)
        witness = _ints(got.get("witness", ""))
        _require(bool(witness), "no witness set")
        _require(len(set(witness)) == len(witness), "repeated witness vertex")
        _require(all(0 <= v < g.n for v in witness), "witness vertex out of range")
        _require(len(witness) <= g.n // 2, f"witness has {len(witness)} > n/2 vertices")
        ratio = cheeger_ratio(g.n, g.edges, witness)
        _require(Fraction(got["value"]) == ratio, f"value {got['value']} but the witness gives {ratio}")

    return check


def cut_checker(g):
    def check(result):
        _code(result)
        got = _fields(result.text)
        sep = set(_ints(got.get("separator", "")))
        _require(int(got["cut"]) == len(sep), "cut size differs from the separator")
        rest = set(range(g.n)) - sep
        sizes = component_sizes(sorted(rest), adjacency(g.n, g.edges))
        largest = max(sizes, default=0)
        _require(2 * largest <= g.n, f"a component of {largest} > n/2 vertices remains")
        _require(int(got["max_component"]) == largest, "max_component differs from a recount")

    return check


def to1_checker(g):
    degree = max_degree(g.n, g.edges)

    def check(result):
        got = _fields(result.text)
        lower, upper, realized = int(got["lower"]), int(got["upper"]), int(got["realized"])
        _require(lower <= realized <= upper, f"sandwich fails: {lower} <= {realized} <= {upper}")
        _require(upper == lower + degree + 1, "upper bound is not cutwidth + degree + 1")

    return check


def translate_checker(k: int, r: int, q: int, roots):
    def check(result):
        _code(result)
        got = _fields(result.text)
        v = _ints(got.get("v", ""))
        _require(len(v) == k and all(0 <= x < r for x in v), f"shift {v} outside {{0..{r - 1}}}^{k}")
        recount = sum(
            1 for m in roots if sum(1 for x, d in zip(m, v) if (x - d + 1) % r == 0) >= q
        )
        bound = math.comb(k, q) * r ** (k - q)
        _require(int(got["count"]) == recount, f"count {got['count']} but a recount gives {recount}")
        _require(int(got["bound"]) == bound, f"bound {got['bound']}, expected {bound}")
        _require(recount <= bound, f"count {recount} exceeds the bound {bound}")

    return check


def profile_checker(g, rmax: int):
    def check(result):
        _code(result)
        lines = result.text.splitlines()
        _require(lines[0] == "r,value,mode,witness", "missing profile header")
        rows = [line.split(",") for line in lines[1:]]
        _require([int(r[0]) for r in rows] == list(range(rmax + 1)), "profile rows are not r = 0..rmax")
        previous = 0
        for r, value, mode, witness in rows:
            value, wit = int(value), _ints(witness)
            _require(mode == "exact", f"mode {mode} at r={r}")
            _require(value >= previous, f"profile decreases at r={r}")
            _require(len(wit) <= int(r) and all(0 <= x < g.n for x in wit), f"bad witness at r={r}")
            previous = value

    return check


def verify_checker():
    def check(result):
        _code(result)
        _check_rows(result.text.splitlines(), None)

    return check


def extract_checker(g, target: str):
    goal = Fraction(target)

    def check(result):
        _code(result, (0, 1))
        lines = result.text.splitlines()
        got = _fields("\n".join(line for line in lines if not line.startswith("removed,")))
        removed = [line.partition(",")[2].partition(" ratio ") for line in lines if line.startswith("removed,")]
        removed_sets = [_ints(part[0]) for part in removed]
        _require(all(Fraction(part[2]) < goal for part in removed), "a removed set met the target")
        gone = [v for s in removed_sets for v in s]
        _require(len(gone) == len(set(gone)), "a vertex was removed twice")
        if result.code == 0:
            _require(got.get("success") == "true", "exit 0 without success")
            kept = _ints(got.get("vertices", ""))
            _require(sorted(set(kept) | set(gone)) == list(range(g.n)), "kept and removed do not cover the graph")
            value = cheeger_scan(kept, g.edges)
            _require(value is not None and value >= goal, f"re-scan gives {value} < target {goal}")
            _require(Fraction(got["cheeger"]) == value, f"cheeger {got['cheeger']} but a re-scan gives {value}")
        else:
            _require(got.get("success") == "false", "exit 1 without failure")
            _require(len(gone) >= g.n - 1, "extraction failed with more than one vertex left")

    return check
