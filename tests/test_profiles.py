import collections
import decimal
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from topoverlap import (
    CertificateRefusal,
    ExpanderCertificate,
    MalformedComplexError,
    SizeLimitError,
    all_passed,
    build_complex,
    cheeger_exact,
    cutwidth_exact,
    expander_certificate,
    extract_expander,
    induced_subcomplex,
    profile,
    separation_cut,
    verify_cwsep,
    verify_expander_chain,
)
from topoverlap import complexes, profiles
from topoverlap.profiles import (
    PROFILE_RMAX_LIMIT,
    ProfileEntry,
    ProfileTable,
    _connected_sets,
    _le_log2,
)

from conftest import (
    all_subgraph_values,
    clique,
    cycle,
    gapped_graph,
    grid,
    oracle_profile,
    path,
    random_complex,
    random_graph,
    star,
)


def values(table):
    return {r: e.value for r, e in table.entries.items()}


def test_profile_path_cutwidth():
    t = profile(path(10), "cutwidth", 5)
    assert values(t) == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}
    assert t.is_exact()


def test_profile_cycle_cutwidth():
    t = profile(cycle(6), "cutwidth", 6)
    assert values(t) == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2}


def test_profile_grid_separation():
    t = profile(grid(3, 3), "separation", 9)
    assert t.entries[9].value == 3


def test_profile_monotone_and_witness_valid():
    t = profile(grid(3, 3), "cutwidth", 9)
    vals = [t.entries[r].value for r in sorted(t.entries)]
    assert vals == sorted(vals)
    for r, e in t.entries.items():
        assert len(e.witness) <= r
        if e.witness:
            sub = induced_subcomplex(grid(3, 3), e.witness)
            assert cutwidth_exact(sub).width == e.value


def test_profile_guards_and_modes(monkeypatch):
    monkeypatch.setattr(profiles, "PROFILE_SET_LIMIT", 10)
    assert profile(path(4), "cutwidth", 4).entries[4].value == 1  # 4 + 3 + 2 + 1 sets
    with pytest.raises(SizeLimitError, match="PROFILE_SET_LIMIT"):
        profile(path(5), "cutwidth", 4)  # 5 + 4 + 3 + 2 sets
    with pytest.raises(ValueError):
        profile(path(4), "girth", 3)
    with pytest.raises(ValueError):
        profile(path(4), "cutwidth", 3, mode="candidates")
    for mode, cands in (("exact", None), ("candidates", [{0, 1}])):
        with pytest.raises(ValueError, match="r_max"):
            profile(path(4), "cutwidth", -3, mode=mode, candidates=cands)


def test_profile_builds_no_complex_per_set(monkeypatch):
    """Exact and candidates-mode profiles of a graph host hand each set's
    edges to the solver cores without building a complex for it."""
    host = grid(3, 4)
    calls = collections.Counter()
    assemble = complexes._assemble
    monkeypatch.setattr(
        complexes, "_assemble", lambda *a: calls.update(("assemble",)) or assemble(*a)
    )
    cands = [{0, 1, 4, 5}, {0, 1, 2, 6}, set(range(12))]
    for invariant in profiles.INVARIANTS:
        assert profile(host, invariant, 12).is_exact()
        assert not profile(host, invariant, 12, mode="candidates", candidates=cands).is_exact()
    assert calls["assemble"] == 0


def _relabel(graph, ids):
    """The same graph on vertex ids ``ids[v]``."""
    return build_complex(
        [[ids[u], ids[v]] for u, v in graph.edges], extra_vertices=[ids[v] for v in graph.vertices]
    )


def test_profile_matches_combinations_oracle(rng):
    """Values and witnesses equal those of walking every vertex subset in
    ``combinations`` order, on hosts with gaps in their vertex ids,
    several components, isolated vertices and triangles, for r_max from 0
    to past the host size."""
    hosts = [
        build_complex([[3, 10], [10, 11], [3, 11], [40, 41], [41, 42]], extra_vertices=[0, 7, 99]),
        build_complex([], extra_vertices=[2, 5, 9]),
        build_complex([]),
    ]
    for _ in range(12):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        hosts.append(_relabel(g, sorted(rng.sample(range(4 * n), n))))
    hosts += [random_complex(rng, n_max=8, deg_max=4) for _ in range(3)]
    for host in hosts:
        n = host.n_vertices
        for r_max in sorted({0, rng.randint(1, max(n, 1)), n, n + 2}):
            for invariant in ("cutwidth", "separation"):
                table = profile(host, invariant, r_max)
                assert table.is_exact()
                got = {r: (e.value, e.witness) for r, e in table.entries.items()}
                assert got == oracle_profile(host, invariant, r_max)


def test_profile_set_limit_refuses_long_paths_early():
    """A 10^5-vertex path is refused at once, at any r_max.  Long paths
    within the vertex count are refused by the set limit, not by
    recursion, while their first ball is a few hundred vertices."""
    big, long = path(10**5), path(60000)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for host, r_max in ((big, 1), (big, 4), (big, 10**5), (long, 60000)):
            with pytest.raises(SizeLimitError, match="PROFILE_SET_LIMIT"):
                profile(host, "cutwidth", r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 2.0
    assert peak < 16 * 2**20
    with pytest.raises(SizeLimitError, match="PROFILE_SET_LIMIT"):
        profile(path(2000), "separation", 2000)


def test_profile_set_limit_on_the_8x8_grid(monkeypatch):
    """The 8x8 grid has 31 385 connected sets of at most 7 vertices and
    96 063 of at most 8: an exact table is given to r = 7 and refused at 8."""
    host = grid(8, 8)
    assert sum(len(bucket) for bucket in _connected_sets(host, 7)) == 31385
    table = profile(host, "cutwidth", 7)
    assert table.is_exact() and table.entries[7].value == 3
    witness = table.entries[7].witness
    assert cutwidth_exact(induced_subcomplex(host, witness)).width == 3
    with pytest.raises(SizeLimitError, match="PROFILE_SET_LIMIT"):
        profile(host, "cutwidth", 8)
    monkeypatch.setattr(profiles, "PROFILE_SET_LIMIT", 10**5)
    assert sum(len(bucket) for bucket in _connected_sets(host, 8)) == 96063


def test_profile_bounds_are_sound_and_memo_keys_are_isomorphism_classes():
    """On every connected set of 30 seeded graphs of at most 10 vertices
    with gapped labels: the relabelled edges are the set's induced edges
    written as ranks in its sorted order, each invariant is at most the
    set's bound, and sets with equal memo keys, across all the graphs, have
    equal values."""
    rng = random.Random(1313)
    values_of = {}
    for _ in range(30):
        g = gapped_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.35, 0.5, 0.7)))
        for k, bucket in enumerate(_connected_sets(g, g.n_vertices)):
            for subset, mask, adj in bucket:
                sub = induced_subcomplex(g, subset)
                rank = {v: i for i, v in enumerate(subset)}
                edges = profiles._relabelled_edges(mask, adj)
                assert edges == tuple(sorted((rank[u], rank[v]) for u, v in sub.edges))
                values = tuple(profiles._memo_value({}, inv, k, edges) for inv in profiles.INVARIANTS)
                assert values == (cutwidth_exact(sub).width, len(separation_cut(sub).separator))
                for invariant, value in zip(profiles.INVARIANTS, values):
                    assert value <= profiles._value_bound(invariant, k, edges), (invariant, subset)
                assert values_of.setdefault((k, edges), values) == values
    assert len(values_of) > 100


def test_profile_solves_few_of_the_8x8_grid_sets(monkeypatch):
    """Of the 31 385 connected sets of the 8x8 grid at r <= 7, at most 200
    reach each solver: the others are skipped by their bound or share a
    memo key with a set already solved."""
    calls = collections.Counter()
    for name in ("_cutwidth", "_separator"):
        core = getattr(profiles, name)
        monkeypatch.setattr(
            profiles, name, lambda n, iedges, core=core, name=name: calls.update((name,)) or core(n, iedges)
        )
    host = grid(8, 8)
    assert [profile(host, inv, 7).entries[7].value for inv in profiles.INVARIANTS] == [3, 2]
    assert 0 < calls["_cutwidth"] <= 200
    assert 0 < calls["_separator"] <= 200


def test_profile_rmax_limit():
    host = path(3)
    table = profile(host, "cutwidth", PROFILE_RMAX_LIMIT)
    assert table.r_max == PROFILE_RMAX_LIMIT and table.value(PROFILE_RMAX_LIMIT) == 1
    for mode, cands in (("exact", None), ("candidates", [{0, 1}])):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="PROFILE_RMAX_LIMIT"):
            profile(host, "cutwidth", PROFILE_RMAX_LIMIT + 1, mode=mode, candidates=cands)
        assert time.perf_counter() - start < 0.1


def test_profile_candidates_mode_lower_bounds():
    host = grid(3, 3)
    exact = profile(host, "cutwidth", 9)
    cands = profile(host, "cutwidth", 9, mode="candidates", candidates=[{0, 1, 3, 4}, {0, 1, 2}])
    assert not cands.is_exact()
    for r in cands.entries:
        assert cands.entries[r].value <= exact.entries[r].value


def _candidates_oracle(host, invariant: str, r_max: int, candidates) -> dict:
    """Candidates-mode rows by the double loop: every row weighs every
    candidate of at most r vertices, in listing order."""
    scored = []
    for cand in candidates:
        sub = induced_subcomplex(host, cand)
        value = cutwidth_exact(sub).width if invariant == "cutwidth" else len(separation_oracle_cached(sub))
        scored.append((len(cand), tuple(sorted(cand)), value))
    entries = {}
    best, witness = 0, ()
    for r in range(r_max + 1):
        for size, cand, val in scored:
            if size <= r and val > best:
                best, witness = val, cand
        entries[r] = ProfileEntry(best, witness, "lower_bound")
    return entries


def test_profile_candidates_mode_matches_double_loop():
    """Candidates listed with unsorted sizes, repeated, tied in value, with
    a vertex written twice, and larger than r_max."""
    rng = random.Random(2323)
    for _ in range(40):
        host = gapped_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.6]))
        verts = sorted(host.vertices)
        cands = [rng.sample(verts, rng.randint(1, len(verts))) for _ in range(rng.randint(1, 10))]
        cands += rng.sample(cands, rng.randint(0, len(cands)))
        cands.append([verts[0], verts[0]])
        rng.shuffle(cands)
        r_max = rng.randint(0, len(verts) + 1)
        for invariant in ("cutwidth", "separation"):
            table = profile(host, invariant, r_max, mode="candidates", candidates=cands)
            assert table.entries == _candidates_oracle(host, invariant, r_max, cands)


def test_profile_candidates_mode_cost():
    """10 000 single-vertex candidates at PROFILE_RMAX_LIMIT take one pass
    over the rows, not one pass over the candidates per row."""
    host = path(10)
    cands = [frozenset((i % 10,)) for i in range(10_000)]
    start = time.perf_counter()
    table = profile(host, "cutwidth", PROFILE_RMAX_LIMIT, mode="candidates", candidates=cands)
    assert time.perf_counter() - start < 5
    assert table.value(PROFILE_RMAX_LIMIT) == 0


def test_profile_candidates_cost_follows_the_candidates_not_the_host():
    """2 000 single-vertex candidates on a 20 000-vertex path cut their
    edges from neighbour lists built once, not from the whole host each."""
    host = path(20_000)
    cands = [frozenset((7 * i,)) for i in range(2_000)]
    start = time.perf_counter()
    table = profile(host, "cutwidth", 1, mode="candidates", candidates=cands)
    assert time.perf_counter() - start < 1.0
    assert table.entries[1] == ProfileEntry(0, (), "lower_bound")


def test_profile_candidates_past_r_max_are_skipped_but_checked():
    """A 30-vertex candidate is past the separation scan's limit, but no
    row up to r_max = 3 reads it, so the table is returned; an id the host
    lacks is refused in any candidate."""
    host = path(40)
    table = profile(host, "separation", 3, mode="candidates", candidates=[range(30), {0, 1, 2}])
    assert table.entries[3] == ProfileEntry(1, (0, 1, 2), "lower_bound")
    with pytest.raises(MalformedComplexError, match=r"unknown vertex ids: \[40\]"):
        profile(host, "separation", 3, mode="candidates", candidates=[{0, 1}, set(range(35, 41))])


@pytest.mark.parametrize("host", [path(5), star(4), cycle(5)])
def test_profile_maximising_over_induced_suffices(host):
    """The induced-subgraph maximum equals the maximum over ALL subgraphs."""
    cw_all = all_subgraph_values(host, lambda g: cutwidth_exact(g).width)
    cw_tab = profile(host, "cutwidth", host.n_vertices)
    sep_all = all_subgraph_values(host, lambda g: len(separation_oracle_cached(g)))
    sep_tab = profile(host, "separation", host.n_vertices)
    for r in range(host.n_vertices + 1):
        assert cw_tab.entries[r].value == cw_all[r]
        assert sep_tab.entries[r].value == sep_all[r]


def separation_oracle_cached(g):
    from topoverlap import separation_cut

    return separation_cut(g).separator


def test_subgraph_monotonicity_on_fixed_vertex_sets(rng):
    """Dropping edges never raises cutwidth or cutsize; dropping vertices
    never raises cutwidth.  (Cutsize can grow under vertex deletion, which
    is why profiles compare subgraphs of equal order to induced ones.)"""
    from topoverlap import separation_cut

    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        verts = sorted(g.vertices)
        keep = [v for v in verts if rng.random() < 0.7]
        sub_induced = induced_subcomplex(g, keep)
        kept_edges = [e for e in sub_induced.edges if rng.random() < 0.7]
        sub_spanning = build_complex([list(e) for e in kept_edges], extra_vertices=keep)
        assert cutwidth_exact(sub_spanning).width <= cutwidth_exact(sub_induced).width
        assert cutwidth_exact(sub_induced).width <= cutwidth_exact(g).width
        assert len(separation_cut(sub_spanning).separator) <= len(
            separation_cut(sub_induced).separator
        )


def test_cwsep_holds_on_path_and_grid():
    for host, delta in ((path(10), 2), (grid(3, 3), 4)):
        cw = profile(host, "cutwidth", host.n_vertices)
        sep = profile(host, "separation", host.n_vertices)
        assert all_passed(verify_cwsep(cw, sep, delta))


def test_cwsep_negative_control():
    host = path(10)
    cw = profile(host, "cutwidth", 8)
    sep = profile(host, "separation", 8)
    corrupted = dict(cw.entries)
    corrupted[6] = ProfileEntry(99, corrupted[6].witness, "exact")
    rows = verify_cwsep(ProfileTable("cutwidth", corrupted, cw.host), sep, 2)
    failing = [r for r in rows if not r.passed]
    assert failing and all("r=6" in r.check for r in failing)


def test_cwsep_input_validation():
    cw = profile(path(6), "cutwidth", 6)
    sep = profile(path(6), "separation", 6)
    other = profile(cycle(6), "separation", 6)
    with pytest.raises(ValueError):
        verify_cwsep(sep, cw, 2)
    with pytest.raises(ValueError):
        verify_cwsep(cw, other, 2)
    short = profile(path(6), "separation", 4)
    with pytest.raises(ValueError):
        verify_cwsep(cw, short, 2)


def test_certificate_refusals_and_issue():
    assert isinstance(
        expander_certificate([cycle(4), cycle(6), cycle(8)], Fraction(1, 2)),
        CertificateRefusal,
    )
    grows = expander_certificate([clique(4), clique(5), clique(6)], Fraction(1, 100))
    assert isinstance(grows, CertificateRefusal)
    assert any("degree" in reason for reason in grows.reasons)

    cert = expander_certificate([cycle(4), cycle(6)], Fraction(1, 4))
    assert isinstance(cert, ExpanderCertificate)
    assert cert.delta == 2
    assert cert.per_member == ((0, 4, 2), (1, 6, 2))
    for _idx, size, lower in cert.per_member:
        assert Fraction(lower) >= cert.epsilon * size


def test_certificate_requires_growing_sizes():
    ref = expander_certificate([cycle(6), cycle(4)], Fraction(1, 10))
    assert isinstance(ref, CertificateRefusal)
    assert any("sizes" in reason for reason in ref.reasons)


def test_extract_path_target_three_quarters():
    res = extract_expander(path(4), Fraction(3, 4))
    assert res.success
    assert sorted(res.subgraph.vertices) == [2, 3]
    assert res.cheeger_value == 1
    assert res.removals == (((0, 1), Fraction(1, 2)),)


def test_extract_cycle_already_good():
    res = extract_expander(cycle(4), Fraction(1))
    assert res.success and res.subgraph.n_vertices == 4 and not res.removals


def test_extract_impossible_target():
    res = extract_expander(path(4), Fraction(10))
    assert not res.success
    assert res.subgraph.n_vertices <= 1
    assert res.removals


def test_extract_success_postcondition(rng):
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        res = extract_expander(g, Fraction(1, 2))
        if res.success:
            assert cheeger_exact(res.subgraph).value >= Fraction(1, 2)
        else:
            assert res.subgraph.n_vertices <= 1


def test_chain_cycle6_hypothesis_not_met():
    rep = verify_expander_chain(cycle(6), Fraction(1, 3))
    assert rep.passed()
    assert not rep.hypothesis_met
    assert not rep.conclusion_asserted
    assert rep.hypothesis.rhs == 108
    assert any("not asserted" in n for n in rep.notes)


def test_chain_path8_lines_hold():
    rep = verify_expander_chain(path(8), Fraction(1, 8))
    assert rep.passed()


def test_chain_flags_statement_vs_proof_constant():
    rep = verify_expander_chain(cycle(6), Fraction(1, 3))
    assert any("constants differ" in n for n in rep.notes)


def test_chain_negative_control():
    host = cycle(6)
    sep = profile(host, "separation", 6)
    weakened = {
        r: ProfileEntry(0, (), "exact") if r >= 2 else e for r, e in sep.entries.items()
    }
    rep = verify_expander_chain(
        host, Fraction(1, 3), sep_table=ProfileTable("separation", weakened, sep.host)
    )
    assert not rep.passed()


@pytest.mark.parametrize("host", [cycle(6), path(5)], ids=["C6", "P5"])
def test_chain_at_epsilon_twelve_degree_shows_inf(host):
    # epsilon = 12 * degree puts log2(12 * deg / eps) = log2(1) = 0 in a
    # denominator of the displayed sides; the verdicts stay exact
    eps = 12 * host.degree
    rep = verify_expander_chain(host, eps)
    assert rep.conclusion_asserted
    assert any("= inf vs" in n for n in rep.notes)
    r = host.n_vertices
    conclusion = rep.rows[-1]
    assert conclusion.check.startswith("conclusion") and conclusion.lhs == math.inf
    sep_r = profile(host, "separation", r).value(r)
    assert conclusion.rhs == sep_r
    assert conclusion.passed == _le_log2(Fraction(eps * r, 4 * host.degree), 0, sep_r, 1)


def _oracle_le_log2(a, b, c, x) -> bool:
    """a <= b + c*log2(x) iff 2^(a-b) <= x^c; over a common denominator D,
    a - b = A/D and c = C/D, that is 2^A <= x^C."""
    d = math.lcm((a - b).denominator, c.denominator)
    return Fraction(2) ** int((a - b) * d) <= Fraction(x) ** int(c * d)


def test_le_log2_matches_rational_oracle(rng):
    powers = [Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(4), Fraction(8), Fraction(9)]
    for _ in range(3000):
        a, b, c = (Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3))
        if rng.random() < 0.5:
            x = rng.choice(powers)
        else:
            x = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        got = _le_log2(a, b, c, x)
        assert got == _oracle_le_log2(a, b, c, x), (a, b, c, x)
        margin = float(b) + float(c) * math.log2(x) - float(a)
        if abs(margin) > 1e-9:
            assert got == (margin > 0)
    # near log2(3), where a float could not tell: p/q = q*log2(3) rounded
    for q in range(1, 1500):
        for p in (round(q * math.log2(3)) + d for d in (-1, 0, 1)):
            assert _le_log2(p, 0, q, 3) == _oracle_le_log2(Fraction(p), 0, Fraction(q), 3)
    # equality holds with no slack, and fails just past it, however large
    # the denominator
    assert _le_log2(1, 0, Fraction(1, 3), 8)
    assert not _le_log2(1 + Fraction(1, 10**12), 0, Fraction(1, 3), 8)
    assert _le_log2(Fraction(-3, 2), 0, Fraction(1, 2), Fraction(1, 8))
    # floats next to log2(x) have denominators near 2^52, far past 2^p <= x^q;
    # 60 decimal digits of log2(x) tell them apart
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for x in (Fraction(3), Fraction(5), Fraction(7, 3), Fraction(1, 10)):
            exact = (decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()) / decimal.Decimal(2).ln()
            y = math.log2(x)
            for near in (math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)):
                assert _le_log2(Fraction(near), 0, 1, x) == (decimal.Decimal(near) <= exact)
            # the binary digits agree for 100 places, past the first precision
            below = math.floor(exact * 2**100)
            assert _le_log2(Fraction(below, 2**100), 0, 1, x)
            assert not _le_log2(Fraction(below + 1, 2**100), 0, 1, x)


def test_chain_rows_agree_with_their_displayed_sides():
    """Past the size hypothesis too: every row decides lhs <= rhs, exactly,
    so wherever the float sides are far apart they give the same verdict."""
    cases = [(cycle(6), 6), (cycle(6), 36), (path(8), Fraction(1, 8)), (grid(3, 3), 5), (grid(3, 3), 0.1), (cycle(6), 6.1)]
    for host, eps in cases:
        rep = verify_expander_chain(host, eps)
        assert rep.conclusion_asserted == rep.hypothesis_met
        for row in rep.rows:
            if abs(float(row.lhs) - float(row.rhs)) > 1e-6:
                assert row.passed == (row.lhs <= row.rhs), row.check
