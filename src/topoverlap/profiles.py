"""Profile tables over induced subgraphs, and what they certify.

A profile maps r to the largest value of an invariant (cutwidth or balanced
separation) over induced subgraphs on at most r vertices.  Maximising over
induced subgraphs is enough: both invariants are monotone under removing
edges from a fixed vertex set, so the maximum over all subgraphs of a given
order is attained on an induced one.  On top of the tables sit the
cutwidth/separation recursion check, expander certification and extraction,
and the line-by-line verification of the expander-to-separator chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._util import SizeLimitError
from ._util import parallel_map  # noqa: F401  perfbench/tracing.py binds it; --trace 1 fails without
from .complexes import MalformedComplexError, SimplicialComplex, as_graph, induced_subcomplex, skeleton
from .invariants import _cutwidth, _gap_sums, _separator, cheeger_exact, cutwidth_exact
from .invariants import separation_cut  # noqa: F401  perfbench/tracing.py binds it; --trace 1 fails without
from .reporting import CheckRow, all_passed

__all__ = [
    "ProfileEntry",
    "ProfileTable",
    "ExpanderCertificate",
    "CertificateRefusal",
    "ExtractionResult",
    "ChainReport",
    "profile",
    "verify_cwsep",
    "expander_certificate",
    "extract_expander",
    "verify_expander_chain",
    "host_signature",
]

# Exact profiles score every connected vertex set of at most r_max vertices
# and refuse a host with more of them than this.  A host of at most 16
# vertices has at most 2^16 - 1 non-empty vertex sets, so all of them pass.
PROFILE_SET_LIMIT = 1 << 16
# Rows past the host size repeat the last one; no complex file can declare
# more vertices than this (fileio.HEADER_VERTEX_LIMIT is this value).
PROFILE_RMAX_LIMIT = 10**5

INVARIANTS = ("cutwidth", "separation")


@dataclass(frozen=True)
class ProfileEntry:
    value: int
    witness: tuple
    mode: str  # "exact" or "lower_bound"


@dataclass(frozen=True)
class ProfileTable:
    """Map r -> (value, witness, mode); entries are monotone in r."""

    invariant_name: str
    entries: dict
    host: tuple | None = None

    @property
    def r_max(self) -> int:
        return max(self.entries)

    def value(self, r: int) -> int:
        """Table value at r, clamped into the tabulated range below and
        capped by r_max above (profiles are constant past the host size)."""
        if r <= 0:
            return 0
        return self.entries[min(r, self.r_max)].value

    def is_exact(self) -> bool:
        return all(e.mode == "exact" for e in self.entries.values())


@dataclass(frozen=True)
class ExpanderCertificate:
    """Evidence that each member of a graph family has a certified overlap
    lower bound of at least epsilon times its size."""

    epsilon: Fraction
    delta: int
    per_member: tuple  # (index, size, cutwidth lower bound) per member


@dataclass(frozen=True)
class CertificateRefusal:
    epsilon: Fraction
    reasons: tuple


@dataclass(frozen=True)
class ExtractionResult:
    success: bool
    subgraph: SimplicialComplex
    cheeger_value: object
    removals: tuple  # (removed vertex set, its ratio) per greedy step


@dataclass(frozen=True)
class ChainReport:
    """Per-line replay of the expander-to-separator chain.

    ``rows`` holds the chain inequalities (and, when asserted, the
    conclusion); the size hypothesis is kept separate because failing it
    only withdraws the conclusion, it does not falsify any chain line.
    """

    rows: tuple
    hypothesis: CheckRow
    conclusion_asserted: bool
    notes: tuple = field(default_factory=tuple)

    @property
    def hypothesis_met(self) -> bool:
        return self.hypothesis.passed

    def passed(self) -> bool:
        return all_passed(self.rows)


def host_signature(graph: SimplicialComplex) -> tuple:
    return (graph.n_vertices, tuple(graph.sorted_simplices()))


def _set_limit_error(r_max: int) -> SizeLimitError:
    return SizeLimitError(
        f"more than PROFILE_SET_LIMIT={PROFILE_SET_LIMIT} connected vertex sets "
        f"at r_max={r_max}; an exact profile scores every one"
    )


def _neighbour_lists(verts, edges):
    """(vertex -> its index in ``verts``, neighbour indices of each index)
    of the graph with these sorted vertices and edges."""
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[] for _ in verts]
    for u, v in edges:
        nbrs[index[u]].append(index[v])
        nbrs[index[v]].append(index[u])
    return index, nbrs


def _connected_sets(host: SimplicialComplex, r_max: int) -> list:
    """Connected vertex sets of 1..r_max vertices of a graph, by size.

    ``by_size[k]`` holds each set of k vertices as ``(subset, mask, adj)``
    in lexicographic order of the sets: ``subset`` is the sorted tuple of
    its vertices, ``mask`` has bit i set for each member at index i of its
    root's ball, and ``adj`` holds the ball's adjacency bit masks.  ESU
    (Wernicke, 2006) finds each set once, grown from its least vertex, the
    root, by adjacent vertices above the root; these all lie in the root's
    ball, the vertices reached from the root in fewer than r_max steps
    through vertices above it.  A set's edges are later cut from its ball's
    bit masks rather than from the host, so scoring it costs the same on a
    large host.  Refuses as soon as the count passes PROFILE_SET_LIMIT.
    """
    verts, edges = as_graph(host)
    n = len(verts)
    top = max(0, min(r_max, n))
    if top and n > PROFILE_SET_LIMIT:  # the single vertices alone pass it
        raise _set_limit_error(r_max)
    index, nbrs = _neighbour_lists(verts, edges)
    by_size = [[] for _ in range(top + 1)]
    count = 0
    for root in range(n if top else 0):
        depth = {root: 0}
        ball = [root]
        for x in ball:
            if depth[x] + 1 < top:
                for y in nbrs[x]:
                    if y > root and y not in depth:
                        depth[y] = depth[x] + 1
                        ball.append(y)
                        # The ball induces a connected graph, and one on b
                        # vertices has at least b - j + 1 connected sets of
                        # j vertices, none of them counted yet.
                        b, k = len(ball), min(top, len(ball))
                        if count + k * b - k * (k - 1) // 2 > PROFILE_SET_LIMIT:
                            raise _set_limit_error(r_max)
        ball.sort()
        local = {x: i for i, x in enumerate(ball)}
        adj = [sum(1 << local[y] for y in nbrs[x] if y in local) for x in ball]
        ids = [verts[x] for x in ball]
        # (members, their mask, their closed neighbourhood, extension) in
        # ball indices
        stack = [((0,), 1, adj[0] | 1, adj[0])]
        while stack:
            members, mask, near, ext = stack.pop()
            count += 1
            if count > PROFILE_SET_LIMIT:
                raise _set_limit_error(r_max)
            by_size[len(members)].append((tuple(ids[i] for i in sorted(members)), mask, adj))
            if len(members) < top:
                while ext:
                    low = ext & -ext
                    ext ^= low
                    w = low.bit_length() - 1
                    stack.append((members + (w,), mask | low, near | adj[w], ext | (adj[w] & ~near)))
    for bucket in by_size:
        bucket.sort(key=lambda item: item[0])
    return by_size


def _relabelled_edges(mask: int, adj) -> tuple:
    """Edges among the bits of ``mask``, each as (i, j) with i < j the
    ranks of its ends in the set's sorted order, in sorted order.

    Two sets with the same size and the same relabelled edges are
    isomorphic, so every invariant takes the same value on both.
    """
    edges = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i = (mask & (low - 1)).bit_count()
        up = adj[low.bit_length() - 1] & rest
        while up:
            high = up & -up
            up ^= high
            edges.append((i, (mask & (high - 1)).bit_count()))
    return tuple(edges)


def _value_bound(invariant: str, k: int, edges) -> int:
    """An upper bound on the invariant of a connected graph on ranks
    0..k-1 with these edges, in O(k + m) for its m edges.

    Cutwidth is at most the width of any order, here the identity order.
    A balanced separator needs at most ceil(k/2) vertices, since removing
    that many leaves at most k/2.  It also needs at most m - k + 2: while
    the graph has a cycle, removing a vertex on one lowers its cycle rank
    m - k + (components) by at least 1, so m - k + 1 removals leave a
    forest, and removing a centroid of its one tree of more than k/2
    vertices, if any, balances it.  On a tree that bound is 1.
    """
    if invariant == "cutwidth":
        return max(_gap_sums(k, edges))
    return min((k + 1) // 2, len(edges) - k + 2)


def _memo_value(solved: dict, invariant: str, k: int, edges: tuple) -> int:
    """The invariant of the graph on ranks 0..k-1 with these edges, read
    from ``solved`` (keyed by size and edges) or solved and stored."""
    key = (k, edges)
    val = solved.get(key)
    if val is None:
        val = solved[key] = (
            _cutwidth(k, edges)[2] if invariant == "cutwidth" else _separator(k, edges)[0].bit_count()
        )
    return val


def profile(
    host: SimplicialComplex,
    invariant: str,
    r_max: int,
    mode: str = "exact",
    candidates=None,
) -> ProfileTable:
    """Profile table of an invariant over induced subgraphs of ``host``.

    Exact mode walks every connected vertex set of at most r_max vertices,
    enumerated by ESU, and refuses a host with more than PROFILE_SET_LIMIT
    of them.  Disconnected sets are never scored, because both invariants
    reach their maximum on a connected induced subgraph of no larger order.
    Each row's witness is the first maximiser in (size, lexicographic)
    order, so a set changes the table only if its value beats the best so
    far.  A set whose upper bound (``_value_bound``, from its edges cut
    from its ball's bit masks) is at most that best is skipped unsolved.
    The rest are keyed by size and edges relabelled to ranks in sorted
    order; equal keys are isomorphic sets, so a key met before reuses its
    value, and only a new key hands its edges to the solver's core on
    vertex indices.  Values and witnesses are those of solving every set.
    Candidates mode evaluates only the supplied vertex sets and tags
    all entries as lower bounds.  It refuses a candidate with an id the host
    lacks, skips one of more than r_max vertices (no row reads it), and cuts
    each other's edges from the host's neighbour lists, built once, onto
    ranks for the same memo, so its cost grows with the candidates' sizes
    and degrees, not with the host.  Hosts of higher dimension are reduced to
    their 1-skeleton first; both invariants only see vertices and edges.
    Either mode refuses a negative r_max, and r_max past PROFILE_RMAX_LIMIT.
    """
    if invariant not in INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}")
    if r_max < 0:
        raise ValueError(f"r_max must be at least 0, got {r_max}")
    if r_max > PROFILE_RMAX_LIMIT:
        raise SizeLimitError(
            f"r_max {r_max} exceeds PROFILE_RMAX_LIMIT={PROFILE_RMAX_LIMIT}, "
            "the most vertices a complex file can declare"
        )
    if host.dimension > 1:
        host = skeleton(host, 1)

    solved = {}  # (k, relabelled edges) -> value, for the sets solved so far
    if mode == "candidates":
        if candidates is None:
            raise ValueError("candidates mode requires candidate vertex sets")
        # Only a candidate of exactly r vertices can raise row r: a smaller
        # one was weighed at its own row, and the best only grows since.  So
        # a candidate of more than r_max vertices is never read.
        verts, host_edges = as_graph(host)
        index, nbrs = _neighbour_lists(verts, host_edges)
        by_size = {}
        for cand in candidates:
            unknown = set(cand) - host.vertices
            if unknown:
                raise MalformedComplexError(f"unknown vertex ids: {sorted(unknown)}")
            if len(cand) > r_max:
                continue
            members = sorted({index[v] for v in cand})
            local = {x: i for i, x in enumerate(members)}
            adj = [sum(1 << local[y] for y in nbrs[x] if y in local) for x in members]
            edges = _relabelled_edges((1 << len(members)) - 1, adj)
            val = _memo_value(solved, invariant, len(members), edges)
            by_size.setdefault(len(cand), []).append((tuple(sorted(cand)), val))
        entries = {}
        best, witness = 0, ()
        for r in range(r_max + 1):
            for cand, val in by_size.get(r, ()):
                if val > best:
                    best, witness = val, cand
            entries[r] = ProfileEntry(best, witness, "lower_bound")
        return ProfileTable(invariant, entries, host_signature(host))

    if mode != "exact":
        raise ValueError(f"unknown profile mode {mode!r}")
    by_size = _connected_sets(host, r_max)
    entries = {0: ProfileEntry(0, (), "exact")}
    best, witness = 0, ()
    for r in range(1, r_max + 1):
        for subset, mask, adj in by_size[r] if r < len(by_size) else ():
            edges = _relabelled_edges(mask, adj)
            if _value_bound(invariant, r, edges) <= best:
                continue
            val = _memo_value(solved, invariant, r, edges)
            if val > best:
                best, witness = val, subset
        entries[r] = ProfileEntry(best, witness, "exact")
    return ProfileTable(invariant, entries, host_signature(host))


def verify_cwsep(cw_table: ProfileTable, sep_table: ProfileTable, delta: int):
    """Check cw(r) <= cw(ceil(r/2)) + delta * sep(r) for every tabulated r.

    The half-point is rounded up (the safe reading); the floor variant is
    reported alongside.  Requires exact tables over the same host and range.
    """
    if cw_table.invariant_name != "cutwidth" or sep_table.invariant_name != "separation":
        raise ValueError("verify_cwsep needs a cutwidth table and a separation table")
    if not (cw_table.is_exact() and sep_table.is_exact()):
        raise ValueError("verify_cwsep requires exact tables")
    if set(cw_table.entries) != set(sep_table.entries):
        raise ValueError("tables cover different r ranges")
    if cw_table.host and sep_table.host and cw_table.host != sep_table.host:
        raise ValueError("tables come from different hosts")
    rows = []
    for r in sorted(cw_table.entries):
        lhs = cw_table.value(r)
        rhs_ceil = cw_table.value(math.ceil(r / 2)) + delta * sep_table.value(r)
        rhs_floor = cw_table.value(r // 2) + delta * sep_table.value(r)
        rows.append(CheckRow(f"cwsep r={r} half=ceil", lhs, rhs_ceil, lhs <= rhs_ceil))
        rows.append(CheckRow(f"cwsep r={r} half=floor", lhs, rhs_floor, lhs <= rhs_floor))
    return rows


def expander_certificate(family, epsilon):
    """Certify a family as epsilon-expanding from exact cutwidths.

    Issues a certificate iff sizes strictly grow, degrees do not grow without
    bound (a strictly increasing degree sequence is refused), and every
    member satisfies cutwidth >= epsilon * size; cutwidth is a certified
    lower bound for the minimal sweep overlap.
    """
    epsilon = Fraction(epsilon)
    members = list(family)
    if not members:
        return CertificateRefusal(epsilon, ("empty family",))
    reasons = []
    sizes = [g.n_vertices for g in members]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        reasons.append(f"sizes do not strictly increase: {sizes}")
    degrees = [g.degree for g in members]
    if len(degrees) > 1 and all(b > a for a, b in zip(degrees, degrees[1:])):
        reasons.append(f"degree grows along the whole family: {degrees}")
    per_member = []
    for i, g in enumerate(members):
        width = cutwidth_exact(g).width
        per_member.append((i, g.n_vertices, width))
        if Fraction(width) < epsilon * g.n_vertices:
            reasons.append(
                f"member {i}: cutwidth {width} < epsilon*size = {epsilon * g.n_vertices}"
            )
    if reasons:
        return CertificateRefusal(epsilon, tuple(reasons))
    return ExpanderCertificate(epsilon, max(degrees), tuple(per_member))


def extract_expander(graph: SimplicialComplex, target) -> ExtractionResult:
    """Greedy extraction of an induced subgraph with Cheeger constant >= target.

    While the exact Cheeger witness of the current graph has ratio below the
    target, delete the witness set and recurse on the remaining induced
    subgraph.  Fails once the graph shrinks to at most one vertex; the
    removal history is returned either way.
    """
    target = Fraction(target)
    current = graph
    removals = []
    while True:
        if current.n_vertices <= 1:
            return ExtractionResult(False, current, float("inf"), tuple(removals))
        cheeger = cheeger_exact(current)
        if cheeger.value >= target:
            return ExtractionResult(True, current, cheeger.value, tuple(removals))
        removals.append((cheeger.witness_set, cheeger.value))
        keep = current.vertices - frozenset(cheeger.witness_set)
        current = induced_subcomplex(current, keep)


def _floor_log2(x: Fraction) -> int:
    """Exact floor of log2 of a positive rational."""
    if x <= 0:
        raise ValueError("log2 of a non-positive value")
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def _ceil_log2(x: Fraction) -> int:
    f = _floor_log2(x)
    return f if Fraction(2) ** f == x else f + 1


def _cmp_log2(y: Fraction, x: Fraction) -> int:
    """The sign of y - log2(x), exactly, for rationals y and x > 0.

    For y = p/q this is the sign of 2^p - x^q, but x^q is out of reach when
    q is large (a float epsilon has a denominator near 2^55).  Unless x is a
    power of two, log2(x) is irrational, so the binary digits of y and of
    log2(x) differ somewhere; they are compared one by one, those of log2(x)
    read off by squaring x in fixed point with outward rounding, and the
    precision doubled whenever the rounding hides a digit.
    """
    e = _floor_log2(x)
    if x == Fraction(2) ** e:
        return (y > e) - (y < e)
    if math.floor(y) != e:
        return 1 if y > e else -1
    s, w = y - e, x / Fraction(2) ** e  # 0 <= s < 1 and 1 < w < 2
    bits = 64
    while True:
        one = 1 << bits
        lo = w.numerator * one // w.denominator
        hi = lo + 1  # lo <= w * one <= hi, throughout for the current w
        t = s
        for _ in range(bits):
            t *= 2
            lo, hi = lo * lo >> bits, -(-hi * hi >> bits)
            if lo >= 2 * one:
                lo, hi = lo >> 1, -(-hi >> 1)
                digit = 1
            elif hi < 2 * one:
                digit = 0
            else:
                break
            if (t >= 1) != digit:
                return -1 if digit else 1
            t -= digit
        bits *= 2


def _le_log2(a, b, c, x) -> bool:
    """Exactly whether a <= b + c * log2(x), for rationals a, b, c and x > 0."""
    a, b, c, x = map(Fraction, (a, b, c, x))
    if c == 0:
        return a <= b
    sign = _cmp_log2((a - b) / c, x)
    return sign <= 0 if c > 0 else sign >= 0


def verify_expander_chain(
    graph: SimplicialComplex,
    epsilon,
    cw_table: ProfileTable | None = None,
    sep_table: ProfileTable | None = None,
) -> ChainReport:
    """Numerically replay the chain bounding separation from below by the
    expansion hypothesis, line by line, on one concrete graph.

    Each displayed inequality is evaluated with measured cutwidth and
    separation profile values.  The final lower bound on sep(r) is asserted
    only when the size hypothesis r >= 12(degree+1)/epsilon holds; otherwise
    the report says so and the conclusion is not asserted.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    verts, _ = as_graph(graph)
    r = len(verts)
    delta = graph.degree
    if r < 2 or delta < 1:
        raise ValueError("chain verification needs a graph with at least one edge")
    if cw_table is None:
        cw_table = profile(graph, "cutwidth", r)
    if sep_table is None:
        sep_table = profile(graph, "separation", r)

    k = _ceil_log2(Fraction(r))
    if not 2 ** (k - 1) < r <= 2**k:
        raise RuntimeError(f"2^{k} is not the least power of two at least {r}")

    def sep_at(x: Fraction) -> int:
        return sep_table.value(math.floor(x))

    cw_self = cutwidth_exact(graph).width
    rows = []

    def row(name, lhs, rhs, ok):
        rows.append(CheckRow(name, lhs, rhs, ok))

    # hypothesis: epsilon * r is a lower bound for the overlap, certified by cutwidth
    lhs1 = epsilon * r
    row("expansion-hypothesis eps*r <= cw", lhs1, cw_self, lhs1 <= cw_self)

    # overlap upper bound against the profile at full size
    row(
        "sandwich cw+deg+1 <= 1+deg+cw_prof(r)",
        cw_self + delta + 1,
        1 + delta + cw_table.value(r),
        cw_self <= cw_table.value(r),
    )

    full_sum = sum(sep_at(Fraction(r, 2 ** (k - i))) for i in range(k + 1))
    row(
        "recursion cw_prof(r) <= deg*sum sep",
        cw_table.value(r),
        delta * full_sum,
        cw_table.value(r) <= delta * full_sum,
    )

    x = epsilon * r / (3 * delta)
    m = _floor_log2(x)
    c = _ceil_log2(x)
    low_sum = sum(sep_at(Fraction(r, 2 ** (k - i))) for i in range(0, min(m, k) + 1))
    high_sum = sum(sep_at(Fraction(r, 2 ** (k - i))) for i in range(max(c, 0), k + 1))
    row("split sum <= low+high", full_sum, low_sum + high_sum, full_sum <= low_sum + high_sum)

    geo = sum(Fraction(2) ** (i - 1) for i in range(0, min(m, k) + 1))
    row("low part <= sum 2^(i-1)", low_sum, geo, Fraction(low_sum) <= geo)
    count = k - c + 1
    row(
        "high part <= count*sep(r)",
        high_sum,
        count * sep_at(Fraction(r)),
        high_sum <= count * sep_at(Fraction(r)),
    )

    pow_m = Fraction(2) ** m
    row("geometric sum <= 2^m", geo, pow_m, geo <= pow_m)
    # rows with a log2 show float sides but decide exactly by _le_log2
    x3 = 3 * delta / epsilon
    log_term = math.log2(3 * delta / float(epsilon))
    row("count <= log2(3*deg/eps)+2", count, log_term + 2, _le_log2(count, 2, 1, x3))
    row("deg*2^m <= (2/3)*eps*r", delta * pow_m, Fraction(2, 3) * epsilon * r, delta * pow_m <= Fraction(2, 3) * epsilon * r)

    sep_r = sep_at(Fraction(r))
    combined_rhs = 1 + delta + float(Fraction(2, 3) * epsilon * r) + delta * (2 + log_term) * sep_r
    combined_b = 1 + delta + Fraction(2, 3) * epsilon * r + 2 * delta * sep_r
    row("combined eps*r <= chain bound", float(lhs1), combined_rhs, _le_log2(lhs1, combined_b, delta * sep_r, x3))

    hyp_rhs = Fraction(12 * (delta + 1)) / epsilon
    hypothesis_met = Fraction(r) >= hyp_rhs
    hypothesis = CheckRow("size-hypothesis r >= 12(deg+1)/eps", r, hyp_rhs, hypothesis_met)

    # the float sides below show inf where they divide by log2(1) = 0
    log12 = math.log2(12 * delta / float(epsilon))
    notes = [
        "extraction-size constants differ between statement and derivation: "
        f"eps/(8*log2(12*deg/eps)) = {float(epsilon) / (8 * log12) if log12 else math.inf:.6g} "
        f"vs eps/(8*deg*log2(12*deg/eps)) = {float(epsilon) / (8 * delta * log12) if log12 else math.inf:.6g}; "
        "the weaker derived constant is the one used here",
    ]
    conclusion_asserted = False
    if hypothesis_met:
        conclusion_asserted = True
        quarter = Fraction(1, 4) * epsilon * r
        third = Fraction(1, 3) * epsilon * r - 1 - delta
        row("rearranged eps*r/4 <= eps*r/3-1-deg", quarter, third, quarter <= third)
        sep_bound = delta * (2 + log_term) * sep_r
        ok = _le_log2(third, 2 * delta * sep_r, delta * sep_r, x3)
        row("rearranged eps*r/3-1-deg <= deg*log*sep(r)", float(third), sep_bound, ok)
        # for 12*deg/eps < 1 the bound is negative; otherwise multiply out the log
        x12 = 12 * delta / epsilon
        conclusion = float(epsilon) / (4 * delta * log12) * r if log12 else math.inf
        ok = x12 < 1 or _le_log2(epsilon * r / (4 * delta), 0, sep_r, x12)
        row("conclusion sep(r) >= eps*r/(4*deg*log2(12*deg/eps))", conclusion, sep_r, ok)
    else:
        notes.append("size hypothesis not met; conclusion not asserted")

    return ChainReport(tuple(rows), hypothesis, conclusion_asserted, tuple(notes))
