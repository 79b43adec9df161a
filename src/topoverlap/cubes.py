"""Unit-cube covers on the half-integer lattice and the translate bound.

A cube set is a finite union of axis-aligned unit cubes whose corners sit on
the half-integer lattice; each cube is stored by its integer root m, the
cube being the product of intervals [m_j + 1/2, m_j + 3/2].  Such a cube
contains exactly one integer point per axis (m_j + 1), which makes all
skeleton intersections pure residue arithmetic.  Against the coarse side-r
cubulation rooted on r*Z^k, the (k-q)-skeleton neighborhood consists of the
unit cubes whose integer point lies on the skeleton in at least q axes.

Cover sizes are exact by construction: the minimal cover of a union of unit
cubes is the union itself.  The averaging step of the translate bound is
replaced by an exhaustive search over the r^k translation classes, which is
stronger at this scale and needs no measure theory.  The search counts
every class at once from the residue histogram of the roots, one axis at a
time, and recounts the chosen class cube by cube.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import SizeLimitError
from ._util import parallel_map  # noqa: F401  perfbench/tracing.py binds it; --trace 1 fails without

__all__ = [
    "CubeSet",
    "TranslateResult",
    "cube_in_Y",
    "cov_c",
    "intersect_with_Y",
    "find_translate",
    "cubes_covering_unit_ball",
    "balls_covering_cube",
]

# find_translate counts all r^k shifts in O(r^k * k * q) numpy work.  With
# r^k cubes on a shared 2-core machine, 1024 shifts take 1.6-3.9 ms (k=2,
# r=32; k=5, r=4; k=10, r=2).  The limit is not raised until a benchmark op
# runs a larger search to watch its time and memory.  More shifts are
# refused, by parse_cubes right after the header.
TRANSLATE_LIMIT = 2**10


def _shifts(r: int, k: int) -> int:
    """r^k, or the first partial product past TRANSLATE_LIMIT, so that a
    huge k costs nothing."""
    shifts = 1
    for _ in range(k):
        shifts *= r
        if shifts > TRANSLATE_LIMIT:
            break
    return shifts


@dataclass(frozen=True)
class CubeSet:
    """Ambient dimension and the set of integer cube roots."""

    k: int
    roots: frozenset

    @classmethod
    def of(cls, k: int, roots) -> "CubeSet":
        roots = frozenset(tuple(int(x) for x in r) for r in roots)
        if any(len(r) != k for r in roots):
            raise ValueError(f"every root needs exactly {k} coordinates")
        return cls(k, roots)

    def translate(self, v) -> "CubeSet":
        return CubeSet(self.k, frozenset(tuple(m - d for m, d in zip(r, v)) for r in self.roots))

    def sorted_roots(self) -> list:
        return sorted(self.roots)


@dataclass(frozen=True)
class TranslateResult:
    """Outcome of the exhaustive translate search: the minimising shift v,
    its skeleton-neighborhood cover count, and the guaranteed bound."""

    v: tuple
    count: int
    bound: int


def cube_in_Y(m, r: int, q: int, k: int) -> bool:
    """Does the unit cube rooted at m meet the (k-q)-skeleton neighborhood?

    True iff the cube's integer point m+1 lies on a multiple of r in at
    least q coordinates.
    """
    if r < 2 or not 0 <= q <= k:
        raise ValueError("need r >= 2 and 0 <= q <= k")
    return sum(1 for x in m if (x + 1) % r == 0) >= q


def cov_c(cubes: CubeSet) -> int:
    """Cover count of a union of unit cubes: the number of distinct roots."""
    return len(cubes.roots)


def intersect_with_Y(cubes: CubeSet, r: int, q: int) -> CubeSet:
    """The sub-union of cubes meeting the (k-q)-skeleton neighborhood."""
    keep = (m for m in cubes.roots if cube_in_Y(m, r, q, cubes.k))
    return CubeSet(cubes.k, frozenset(keep))


def _shift_counts(cubes: CubeSet, r: int, q: int):
    """Array of shape (r,)*k: at v, the cubes m with v_j = (m_j + 1) mod r in
    at least q axes, i.e. the cubes that meet the skeleton neighborhood
    after translation by -v.

    Starts from the residue histogram of the roots.  Layer t of the table
    counts the cubes that agree with the index in exactly t of the axes
    handled so far (at least q in the top layer); the index holds v_j on
    those axes and the residue on the others.  Handling an axis sends each
    cube that disagrees there to every other value along it, at the same
    layer, and each cube that agrees one layer up.
    """
    k = cubes.k
    codes = []
    for m in cubes.roots:
        code = 0
        for x in m:
            code = code * r + (x + 1) % r
        codes.append(code)
    hist = np.bincount(np.array(codes, dtype=np.int64), minlength=r**k)
    table = np.zeros((q + 1,) + (r,) * k, dtype=np.int64)
    table[0] = hist.reshape((r,) * k)
    for axis in range(1, k + 1):
        moved = table.sum(axis=axis, keepdims=True) - table
        moved[1:] += table[:-1]
        moved[q] += table[q]
        table = moved
    return table[q]


def find_translate(cubes: CubeSet, r: int, q: int) -> TranslateResult:
    """Best translate of a cube set away from the coarse skeleton.

    Counts every v in {0..r-1}^k (translation by r*Z^k is a symmetry of
    the skeleton) and returns the lexicographically smallest minimiser,
    recounted with :func:`cube_in_Y`.  Requires at most r^k cubes; the
    returned count is then guaranteed to be at most C(k, q) * r^(k-q).
    Refuses r^k > TRANSLATE_LIMIT.
    """
    k = cubes.k
    if r < 2 or not 0 <= q <= k:
        raise ValueError("need r >= 2 and 0 <= q <= k")
    if _shifts(r, k) > TRANSLATE_LIMIT:
        raise SizeLimitError(f"{r}^{k} shifts exceed TRANSLATE_LIMIT={TRANSLATE_LIMIT}")
    if len(cubes.roots) > r**k:
        raise ValueError(f"translate bound needs at most r^k = {r**k} cubes, got {len(cubes.roots)}")
    bound = math.comb(k, q) * r ** (k - q)
    counts = _shift_counts(cubes, r, q)
    flat = int(counts.argmin())  # C order: the lexicographically smallest minimiser
    best_v = tuple(int(x) for x in np.unravel_index(flat, counts.shape))
    best_count = int(counts.flat[flat])
    recount = sum(1 for m in cubes.roots if cube_in_Y(tuple(x - d for x, d in zip(m, best_v)), r, q, k))
    if recount != best_count:
        raise RuntimeError(f"shift {best_v} was counted {best_count} but covers {recount} cubes")
    if best_count > bound:
        raise RuntimeError(f"best translate covers {best_count} cubes, more than the bound {bound}")
    return TranslateResult(best_v, best_count, bound)


def cubes_covering_unit_ball(center, k: int) -> CubeSet:
    """The 3^k unit cubes around a point; they cover its radius-1 ball.

    The cube holding coordinate c is rooted at floor(c - 1/2); its two axis
    neighbors extend the covered range to [c - 3/2, c + 3/2] per axis.
    """
    base = tuple(math.floor(c - 0.5) for c in center)
    roots = [
        tuple(b + d for b, d in zip(base, delta))
        for delta in itertools.product((-1, 0, 1), repeat=k)
    ]
    return CubeSet.of(k, roots)


def balls_covering_cube(m, k: int) -> list:
    """k^k unit-ball centers covering the cube rooted at m: the grid points
    root + 1/2 + (n_1, .., n_k)/k with each n_j in {0..k-1}."""
    return [
        tuple(x + 0.5 + n / k for x, n in zip(m, steps))
        for steps in itertools.product(range(k), repeat=k)
    ]
