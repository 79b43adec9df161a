import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoverlap import (
    CubeSet,
    cov_c,
    cube_in_Y,
    find_translate,
    intersect_with_Y,
)
from topoverlap import cubes
from topoverlap.cubes import balls_covering_cube, cubes_covering_unit_ball

from conftest import oracle_translate


def test_cube_in_Y_examples():
    assert not cube_in_Y((0, 0), 2, 1, 2)
    assert cube_in_Y((1, 0), 2, 1, 2)
    assert cube_in_Y((5, 3), 2, 0, 2)
    assert cube_in_Y((17, -4, 2), 3, 0, 3)


def test_cube_in_Y_matches_interval_geometry():
    """Independent check: the cube spans [m+1/2, m+3/2] per axis, so it
    meets the coarse skeleton in axis j iff that interval holds a multiple
    of r."""
    for r in (2, 3, 4):
        for m in itertools.product(range(-4, 5), repeat=2):
            axes = 0
            for x in m:
                lo, hi = Fraction(2 * x + 1, 2), Fraction(2 * x + 3, 2)
                axes += any(lo <= r * t <= hi for t in range(-5, 6))
            for q in range(3):
                assert cube_in_Y(m, r, q, 2) == (axes >= q)


def test_cov_c_counts_roots():
    assert cov_c(CubeSet.of(2, [])) == 0
    assert cov_c(CubeSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])) == 4
    assert cov_c(CubeSet.of(2, [(0, 0), (0, 0), (1, 1)])) == 2


def test_intersect_examples():
    sq = CubeSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert sorted(intersect_with_Y(sq, 2, 1).roots) == [(0, 1), (1, 0), (1, 1)]
    assert sorted(intersect_with_Y(sq, 2, 2).roots) == [(1, 1)]
    assert intersect_with_Y(sq, 2, 0) == sq


def test_translate_examples():
    single = CubeSet.of(2, [(0, 0)])
    res = find_translate(single, 2, 1)
    assert res.v == (0, 0) and res.count == 0

    sq = CubeSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    res1 = find_translate(sq, 2, 1)
    assert res1.count == 3 and res1.bound == 4
    res2 = find_translate(sq, 2, 2)
    assert res2.count <= 1 and res2.bound == 1


def test_translate_matches_shift_by_shift_oracle():
    """300 seeded cases, k <= 4, r <= 5, q from 0 to k, negative roots and
    the empty set: the same minimising shift and count as trying every
    shift in turn."""
    rng = random.Random(2500)
    for case in range(300):
        k, r = rng.randint(1, 4), rng.randint(2, 5)
        q = rng.randint(0, k)
        size = 0 if case < 10 else rng.randint(0, min(r**k, 64))
        roots = {tuple(rng.randint(-9, 9) for _ in range(k)) for _ in range(size)}
        res = find_translate(CubeSet.of(k, roots), r, q)
        assert (res.v, res.count) == oracle_translate(k, roots, r, q), (k, r, q, sorted(roots))


def test_translate_recount_refuses_a_wrong_count(monkeypatch):
    """Negative control: a per-axis count that is off by one at every shift
    keeps the minimiser, and the recount of that shift refuses it."""
    counts = cubes._shift_counts
    monkeypatch.setattr(cubes, "_shift_counts", lambda cs, r, q: counts(cs, r, q) - 1)
    sq = CubeSet.of(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(RuntimeError, match="counted 2 but covers 3"):
        find_translate(sq, 2, 1)


def test_translate_hypothesis_guard():
    big = CubeSet.of(1, [(i,) for i in range(5)])
    with pytest.raises(ValueError):
        find_translate(big, 2, 1)


roots2d = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=9)


@given(roots2d, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
@settings(max_examples=50)
def test_cov_translation_invariance(roots, shift):
    cs = CubeSet.of(2, roots)
    assert cov_c(cs.translate(shift)) == cov_c(cs)
    for q in (1, 2):
        a = cov_c(intersect_with_Y(cs.translate((2 * 3, -3 * 3)), 3, q))
        b = cov_c(intersect_with_Y(cs, 3, q))
        assert a == b  # shifting by multiples of r preserves the skeleton


@given(roots2d)
@settings(max_examples=40)
def test_translate_periodicity(roots):
    cs = CubeSet.of(2, roots[:4])
    r = 2

    def count(v):
        return cov_c(intersect_with_Y(cs.translate(v), r, 1))

    for v in itertools.product(range(r), repeat=2):
        assert count(v) == count((v[0] + r, v[1])) == count((v[0], v[1] + r))


def test_unit_ball_cover_has_3k_cubes_and_covers():
    for k in (1, 2, 3):
        center = tuple(0.3 * (i + 1) for i in range(k))
        cubes = cubes_covering_unit_ball(center, k)
        assert cov_c(cubes) == 3**k
        # any point within distance 1 has every coordinate within 1 of the
        # center, hence lands in one of the 3^k surrounding cubes
        for delta in itertools.product((-1, -0.5, 0, 0.5, 1), repeat=k):
            norm = math.sqrt(sum(d * d for d in delta))
            if norm > 1:
                continue
            point = tuple(c + d for c, d in zip(center, delta))
            assert any(
                all(m + 0.5 <= x <= m + 1.5 for m, x in zip(root, point))
                for root in cubes.roots
            )


def test_cube_ball_cover_has_kk_balls_and_covers():
    for k in (1, 2, 3):
        root = (0,) * k
        centers = balls_covering_cube(root, k)
        assert len(centers) == k**k
        steps = 6
        for frac in itertools.product(range(steps + 1), repeat=k):
            point = tuple(0.5 + f / steps for f in frac)
            dist = min(
                math.sqrt(sum((p - c) ** 2 for p, c in zip(point, center)))
                for center in centers
            )
            assert dist <= 1


def test_cubeset_validates_arity():
    with pytest.raises(ValueError):
        CubeSet.of(2, [(1, 2, 3)])
