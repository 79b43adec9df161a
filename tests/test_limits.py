"""Every exhaustive method refuses past one named module constant, which it
reads when it is called, and its refusal names that constant and its value."""

import inspect
from fractions import Fraction

import pytest

from topoverlap import (
    CubeSet,
    MalformedComplexError,
    SizeLimitError,
    barycentric_subdivision,
    build_complex,
    build_D_ell,
    build_H_ell,
    cheeger_exact,
    coarse_construct,
    cutwidth_bruteforce,
    cutwidth_exact,
    extract_expander,
    find_translate,
    profile,
    separation_cut,
)
from topoverlap import cubes, fileio, horocyclic, invariants, profiles
from topoverlap.fileio import ParseError

from conftest import cycle, path


def _edge_lattice():
    bary, labels = barycentric_subdivision(build_complex([[0, 1]]))
    return build_D_ell(bary, labels, 1, 1)


# (module, constant, call, the smallest value of the constant that accepts
# the call, the error a smaller value raises)
CASES = [
    (invariants, "BRUTEFORCE_LIMIT", lambda: cutwidth_bruteforce(path(5)), 5, SizeLimitError),
    (invariants, "SUBSET_SCAN_LIMIT", lambda: cheeger_exact(path(6)), 6, SizeLimitError),
    (invariants, "SUBSET_SCAN_LIMIT", lambda: separation_cut(path(6)), 6, SizeLimitError),
    (
        invariants,
        "SUBSET_SCAN_LIMIT",
        lambda: extract_expander(path(6), Fraction(1, 2)),
        6,
        SizeLimitError,
    ),
    # path(30) is past the DP's vertex limit: 30 vertices and 29 edges
    (invariants, "DEFAULT_SEARCH_SIZE_LIMIT", lambda: cutwidth_exact(path(30)), 59, SizeLimitError),
    (invariants, "DEFAULT_STATE_LIMIT", lambda: cutwidth_exact(path(30)), None, SizeLimitError),
    (horocyclic, "DEFAULT_VERTEX_LIMIT", lambda: build_H_ell(1, 1), 12, SizeLimitError),
    (horocyclic, "DEFAULT_VERTEX_LIMIT", _edge_lattice, 5, SizeLimitError),
    (
        horocyclic,
        "DEFAULT_VERTEX_LIMIT",
        lambda: coarse_construct(build_complex([[0, 1]])),
        5,
        SizeLimitError,
    ),
    (profiles, "PROFILE_SET_LIMIT", lambda: profile(path(4), "cutwidth", 4), 10, SizeLimitError),
    (profiles, "PROFILE_RMAX_LIMIT", lambda: profile(path(3), "cutwidth", 7), 7, SizeLimitError),
    (fileio, "HEADER_VERTEX_LIMIT", lambda: fileio.parse_complex("c 7\ns 0 1\n"), 7, ParseError),
    (cubes, "TRANSLATE_LIMIT", lambda: find_translate(CubeSet.of(2, [(0, 0)]), 4, 1), 16, SizeLimitError),
    (
        horocyclic,
        "HEADER_VERTEX_LIMIT",
        lambda: horocyclic.parse_manifest("h 0 1 7 0 0\n"),
        7,
        MalformedComplexError,
    ),
    (invariants, "SUBSET_SCAN_LIMIT", lambda: profile(cycle(8), "separation", 8), 8, SizeLimitError),
    (invariants, "DEFAULT_SEARCH_SIZE_LIMIT", lambda: profile(path(3), "cutwidth", 3), 3, SizeLimitError),
    (cubes, "TRANSLATE_LIMIT", lambda: fileio.parse_cubes("2 4\n"), 16, ParseError),
]


def _accepts(monkeypatch, module, name, call, value, error) -> bool:
    monkeypatch.setattr(module, name, value)
    try:
        call()
    except error as exc:
        assert f"{name}={value}" in str(exc)
        return False
    return True


@pytest.mark.parametrize(
    "module,name,call,threshold,error",
    CASES,
    ids=[f"{case[1]}-{i}" for i, case in enumerate(CASES)],
)
def test_lowering_a_limit_moves_the_refusal_point(monkeypatch, module, name, call, threshold, error):
    default = getattr(module, name)
    if threshold is None:
        # the step count of one search: the smallest limit that accepts it
        lo, hi = 1, default
        assert _accepts(monkeypatch, module, name, call, hi, error)
        while lo < hi:
            mid = (lo + hi) // 2
            if _accepts(monkeypatch, module, name, call, mid, error):
                hi = mid
            else:
                lo = mid + 1
        threshold = lo
        assert threshold > 1
    assert threshold <= default
    assert _accepts(monkeypatch, module, name, call, threshold, error)
    monkeypatch.setattr(module, name, threshold - 1)
    with pytest.raises(error) as exc:
        call()
    assert f"{name}={threshold - 1}" in str(exc.value)


def test_exact_solvers_take_no_limit_or_thread_arguments():
    removed = {
        separation_cut: "limit",
        cheeger_exact: "limit",
        extract_expander: "limit",
        build_H_ell: "max_vertices",
        build_D_ell: "max_vertices",
        coarse_construct: "max_vertices",
        find_translate: "threads",
    }
    for fn, param in removed.items():
        assert param not in inspect.signature(fn).parameters, fn.__name__


def test_limit_constants_are_public():
    assert invariants.SUBSET_SCAN_LIMIT == 20 and "SUBSET_SCAN_LIMIT" in invariants.__all__
    assert invariants.BRUTEFORCE_LIMIT == 9 and "BRUTEFORCE_LIMIT" in invariants.__all__
    assert not hasattr(horocyclic.HorocyclicComplex, "index")
    assert not hasattr(horocyclic.DLatticeComplex, "index")
