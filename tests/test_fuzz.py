"""Small random texts through every parser and every command: a parser
returns or raises ParseError, and ``main`` returns 0, 1 or 2 without
raising."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from topoverlap.cli import main
from topoverlap.fileio import (
    ParseError,
    parse_candidates,
    parse_complex,
    parse_cubes,
    parse_profile_csv,
)

# pieces of every file format, so that short random texts are often nearly
# valid.  Small ids and lines of at most 4 tokens (so simplices of at most 3
# vertices) keep each command fast: barycentric_subdivision has no size
# limit, and a 7-vertex simplex already has 94 585 chains.
TOKENS = st.sampled_from(
    ["c", "s", "#", "0", "1", "2", "3", "5", "7", "12", "30", "-1", "x", "1.5", "",
     "exact", "lower_bound", "r", "value", "mode", "witness"]
)
LINES = st.one_of(
    st.lists(TOKENS, max_size=4).map(" ".join),
    st.lists(TOKENS, max_size=4).map(",".join),
    st.just("r,value,mode,witness"),
    st.text(max_size=8),
)
TEXTS = st.lists(LINES, max_size=6).map(lambda lines: "\n".join(lines) + "\n")

GAP_IN_R = "r,value,mode,witness\n0,0,exact,\n4,3,exact,0 1 2 3\n"
LARGE_CUBE_HEADER = "30 2\n"

PARSERS = [
    parse_complex,
    parse_cubes,
    parse_candidates,
    lambda text: parse_profile_csv(text, "cutwidth"),
]


@given(TEXTS)
@settings(max_examples=300, deadline=None)
@example(GAP_IN_R)
@example(LARGE_CUBE_HEADER)
@example("c \u00b2\n")  # a digit that int() does not read
def test_parsers_return_or_raise_parse_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


def _commands(f: str, manifest: str) -> list:
    return [
        ["stats", f],
        ["cutwidth", f],
        ["cheeger", f],
        ["cut", f],
        ["profile", f, "--invariant", "cutwidth", "--rmax", "3"],
        ["profile", f, "--invariant", "separation", "--rmax", "3", "--mode", "candidates", "--candidates", f],
        ["horocyclic", "construct", f, "--validate", "--manifest", manifest],
        ["translate", "--cubes", f, "--q", "1"],
        ["extract-expander", f, "--target", "1/2"],
        ["verify", "cwsep", f, f, "--delta", "2"],
    ]


@given(TEXTS)
@settings(max_examples=60, deadline=None)
@example(GAP_IN_R)
@example(LARGE_CUBE_HEADER)
def test_main_exits_0_1_or_2_on_any_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "input.txt"
        f.write_text(text)
        for argv in _commands(str(f), str(Path(tmp) / "manifest.txt")):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
