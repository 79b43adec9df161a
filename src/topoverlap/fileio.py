"""Plain-text formats: complex files, cube files, CSV emission.

Everything round-trips byte-identically: writers emit canonical orderings
only, and parse(emit(parse(x))) == parse(x).
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import cubes as _cubes
from .complexes import MalformedComplexError, SimplicialComplex, build_complex
from .cubes import CubeSet
from .profiles import PROFILE_RMAX_LIMIT, ProfileEntry, ProfileTable
from .reporting import CheckRow

__all__ = [
    "ParseError",
    "parse_complex",
    "emit_complex",
    "parse_cubes",
    "emit_cubes",
    "emit_csv",
    "parse_profile_csv",
    "parse_candidates",
    "parse_fraction",
]


# `c <n>` creates n vertices before any simplex is read: 10^6 took about 3 s
# and 435 MB on a 2-core machine, so a larger header is refused before
# anything is built.  Profiles refuse r_max past the same value.
HEADER_VERTEX_LIMIT = PROFILE_RMAX_LIMIT


class ParseError(MalformedComplexError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_complex(text: str) -> SimplicialComplex:
    """Read the complex text format.

    `c <n>` declares vertices 0..n-1, each later `s v1 v2 ...` line lists one
    maximal simplex; the loader applies downward closure.
    """
    n_vertices = None
    simplices = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "c":
            if n_vertices is not None:
                raise ParseError(no, "duplicate header")
            if len(parts) != 2 or not parts[1].isdecimal():  # isdigit() passes "²"
                raise ParseError(no, "header must be `c <n_vertices>`")
            n_vertices = int(parts[1])
            if n_vertices > HEADER_VERTEX_LIMIT:
                raise ParseError(
                    no, f"{n_vertices} vertices exceed HEADER_VERTEX_LIMIT={HEADER_VERTEX_LIMIT}"
                )
        elif parts[0] == "s":
            if n_vertices is None:
                raise ParseError(no, "simplex listed before header")
            if len(parts) == 1:
                raise ParseError(no, "empty simplex")
            try:
                verts = [int(p) for p in parts[1:]]
            except ValueError:
                raise ParseError(no, f"bad vertex id in {line!r}") from None
            if any(v < 0 or v >= n_vertices for v in verts):
                raise ParseError(no, f"vertex out of range 0..{n_vertices - 1}")
            if len(set(verts)) != len(verts):
                raise ParseError(no, "duplicate vertex inside one simplex")
            simplices.append(verts)
        else:
            raise ParseError(no, f"unknown directive {parts[0]!r}")
    if n_vertices is None:
        raise ParseError(1, "missing `c <n_vertices>` header")
    return build_complex(simplices, extra_vertices=range(n_vertices))


def emit_complex(cx: SimplicialComplex) -> str:
    """Inclusion-maximal simplices in lexicographic order under a `c` header."""
    n = max(cx.vertices, default=-1) + 1
    lines = [f"c {n}"]
    lines += ["s " + " ".join(map(str, s)) for s in cx.maximal_simplices()]
    return "\n".join(lines) + "\n"


# the line boundaries of str.splitlines
_LINE_END = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _numbered_lines(text: str):
    """(1-based number, line) of ``text.splitlines()``, one at a time, so
    that a parser that refuses early never splits the rest."""
    start, no = 0, 0
    for no, end in enumerate(_LINE_END.finditer(text), start=1):
        yield no, text[start : end.start()]
        start = end.end()
    if start < len(text):
        yield no + 1, text[start:]


def parse_cubes(text: str):
    """Cube file: first line `k r`, then one root (k integers) per line.
    Returns (CubeSet, r).  Refuses r^k > TRANSLATE_LIMIT (of ``cubes``)
    right after the header, and more than r^k distinct roots at the first
    root past them, so an oversized file is refused without being read."""
    k = r = shifts = None
    roots = set()
    for no, raw in _numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 2:
                raise ParseError(no, "first line must be `k r`")
            try:
                k, r = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(no, f"bad `k r` header {line!r}") from None
            if k < 1 or r < 2:
                raise ParseError(no, "need k >= 1 and r >= 2")
            shifts = _cubes._shifts(r, k)
            if shifts > _cubes.TRANSLATE_LIMIT:
                raise ParseError(
                    no, f"{r}^{k} shifts exceed TRANSLATE_LIMIT={_cubes.TRANSLATE_LIMIT}"
                )
        else:
            if len(parts) != k:
                raise ParseError(no, f"expected {k} coordinates")
            try:
                roots.add(tuple(int(p) for p in parts))
            except ValueError:
                raise ParseError(no, f"bad coordinate in {line!r}") from None
            if len(roots) > shifts:
                raise ParseError(no, f"more than r^k = {shifts} distinct roots")
    if k is None:
        raise ParseError(1, "missing `k r` header")
    return CubeSet.of(k, roots), r


def emit_cubes(cubes: CubeSet, r: int) -> str:
    lines = [f"{cubes.k} {r}"]
    lines += [" ".join(map(str, root)) for root in cubes.sorted_roots()]
    return "\n".join(lines) + "\n"


def _format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def emit_csv(payload) -> str:
    """CSV text for a profile table (`r,value,mode,witness`) or a list of
    check rows (`check,lhs,rhs,pass`)."""
    if isinstance(payload, ProfileTable):
        lines = ["r,value,mode,witness"]
        for r in sorted(payload.entries):
            e = payload.entries[r]
            witness = " ".join(map(str, e.witness))
            lines.append(f"{r},{e.value},{e.mode},{witness}")
        return "\n".join(lines) + "\n"
    rows = list(payload)
    lines = ["check,lhs,rhs,pass"]
    for row in rows:
        if not isinstance(row, CheckRow):
            raise TypeError(f"cannot emit {type(row).__name__} as CSV")
        lines.append(
            f"{row.check},{_format_value(row.lhs)},{_format_value(row.rhs)},{_format_value(row.passed)}"
        )
    return "\n".join(lines) + "\n"


def parse_profile_csv(text: str, invariant_name: str) -> ProfileTable:
    """Profile table CSV as :func:`emit_csv` writes it: the header, then one
    row for each r = 0, 1, ..., r_max, in that order."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != "r,value,mode,witness":
        raise ParseError(lines[0][0] if lines else 1, "expected header `r,value,mode,witness`")
    entries = {}
    for no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(no, "expected 4 columns")
        r, value, mode, witness = parts
        if mode not in ("exact", "lower_bound"):
            raise ParseError(no, f"unknown mode {mode!r}")
        try:
            r, value = int(r), int(value)
            wit = tuple(int(v) for v in witness.split())
        except ValueError:
            raise ParseError(no, f"bad integer in {line!r}") from None
        if r != len(entries):
            raise ParseError(
                no, f"row r={r} where r={len(entries)} is due: rows list r = 0, 1, ... once each"
            )
        entries[r] = ProfileEntry(value, wit, mode)
    if not entries:
        raise ParseError(lines[0][0] + 1, "table has no rows")
    return ProfileTable(invariant_name, entries, None)


def parse_candidates(text: str) -> list:
    """Candidate vertex sets, one per line of space-separated ids."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(frozenset(int(p) for p in line.split()))
        except ValueError:
            raise ParseError(no, f"bad vertex id in {line!r}") from None
    return out


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {text!r} as a rational") from exc
