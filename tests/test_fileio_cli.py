import argparse
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoverlap import build_complex, profile
from topoverlap.cli import main
from topoverlap.fileio import (
    HEADER_VERTEX_LIMIT,
    ParseError,
    emit_complex,
    emit_csv,
    emit_cubes,
    parse_complex,
    parse_cubes,
    parse_profile_csv,
)
from topoverlap.reporting import CheckRow

from conftest import cycle, grid, path


def test_parse_examples():
    assert parse_complex("c 3\ns 0 1 2\n") == build_complex([[0, 1, 2]])
    assert parse_complex("c 2\ns 0\ns 1\n") == build_complex([[0], [1]])
    with pytest.raises(ParseError) as err:
        parse_complex("c 2\ns 0 5\n")
    assert err.value.line_no == 2


def test_parse_header_declares_isolated_vertices():
    cx = parse_complex("c 4\ns 0 1\n")
    assert cx.n_vertices == 4
    assert cx.edges == ((0, 1),)


def test_parse_rejects_garbage():
    for text in ("", "s 0 1\n", "c 2\nq 1\n", "c 2\ns\n", "c x\n", "c 2\nc 2\n"):
        with pytest.raises(ParseError):
            parse_complex(text)


def test_parse_refuses_oversized_header(tmp_path, capsys):
    """`c <n>` past HEADER_VERTEX_LIMIT is refused before any vertex is
    built, and the CLI exits 2."""
    assert parse_complex(f"c {HEADER_VERTEX_LIMIT}\ns 0 1\n").n_vertices == HEADER_VERTEX_LIMIT
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for n in (HEADER_VERTEX_LIMIT + 1, 10**8):
            with pytest.raises(ParseError, match="HEADER_VERTEX_LIMIT"):
                parse_complex(f"c {n}\ns 0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    big = tmp_path / "big.txt"
    big.write_text("c 100000000\n")
    assert main(["stats", str(big)]) == 2
    assert "HEADER_VERTEX_LIMIT" in capsys.readouterr().err


def test_cli_stats_at_the_header_limit(tmp_path, capsys):
    """`stats` counts delta through vertex stars, so a file of
    HEADER_VERTEX_LIMIT isolated vertices takes seconds, not a pair scan."""
    big = tmp_path / "isolated.txt"
    big.write_text(f"c {HEADER_VERTEX_LIMIT}\n")
    start = time.perf_counter()
    assert main(["stats", str(big)]) == 0
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out.endswith("degree,0\ndelta,1\n")


maximal_families = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True),
    min_size=1,
    max_size=5,
)


@given(maximal_families)
@settings(max_examples=40)
def test_complex_round_trip(family):
    # the format always declares vertices 0..n-1, so round-trip through text
    cx = build_complex(family, extra_vertices=range(7))
    text = emit_complex(cx)
    assert parse_complex(text) == cx
    assert emit_complex(parse_complex(text)) == text


def test_emit_complex_is_linear_on_a_long_path():
    """Each simplex is checked against its own facets, not against every
    maximal simplex found so far."""
    cx = path(20_000)
    start = time.perf_counter()
    text = emit_complex(cx)
    assert time.perf_counter() - start < 1.0
    assert text.count("\ns ") == 19_999


def test_emit_fills_vertex_gaps():
    # ids below the maximum materialise as isolated vertices on reload
    cx = build_complex([[1]])
    back = parse_complex(emit_complex(cx))
    assert sorted(back.vertices) == [0, 1]
    assert emit_complex(back) == emit_complex(cx).replace("s 1", "s 0\ns 1")


def test_cubes_round_trip():
    from topoverlap import CubeSet

    cs = CubeSet.of(2, [(0, 0), (-3, 5), (7, 1)])
    text = emit_cubes(cs, 3)
    back, r = parse_cubes(text)
    assert back == cs and r == 3
    assert emit_cubes(back, r) == text


@pytest.mark.parametrize(
    "header,match",
    [("30 2", "TRANSLATE_LIMIT=1024"), ("2 4", "more than r\\^k = 16 distinct roots")],
    ids=["shifts", "roots"],
)
def test_parse_cubes_refuses_an_oversized_file_at_once(header, match):
    """A cube file of 100 000 distinct roots, with 2^30 shifts (6.4 MB) or
    with the 16 shifts of a 2 4 header, is refused without reading the rest
    of it: in well under a second and a few MB, whatever the file's size."""
    rng = random.Random(30)
    k = int(header.split()[0])
    lines = (" ".join([str(i)] + [str(rng.randint(0, 9)) for _ in range(k - 1)]) for i in range(100_000))
    text = header + "\n" + "\n".join(lines) + "\n"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ParseError, match=match):
            parse_cubes(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 8 * 2**20


def test_profile_csv_round_trip():
    table = profile(path(6), "cutwidth", 6)
    text = emit_csv(table)
    back = parse_profile_csv(text, "cutwidth")
    assert {r: (e.value, e.mode) for r, e in back.entries.items()} == {
        r: (e.value, e.mode) for r, e in table.entries.items()
    }
    assert emit_csv(back) == text


@pytest.mark.parametrize(
    "rows,line_no",
    [
        (["0,0,exact,", "4,3,exact,0 1 2 3"], 3),  # a gap in r
        (["0,0,exact,", "1,0,exact,0", "1,0,exact,0"], 4),  # a duplicate row
        (["-1,0,exact,", "0,0,exact,"], 2),  # a negative r
        (["1,0,exact,0", "0,0,exact,"], 2),  # out of order
        (["0,0,exact,", "", "x,0,exact,"], 4),  # not an integer, after a blank line
    ],
)
def test_profile_csv_lists_each_r_once_in_order(rows, line_no):
    text = "\n".join(["r,value,mode,witness", *rows]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_profile_csv(text, "cutwidth")
    assert err.value.line_no == line_no


def test_cli_verify_cwsep_refuses_a_gap_in_r(tmp_path, capsys):
    cw = tmp_path / "cw.csv"
    sep = tmp_path / "sep.csv"
    cw.write_text("r,value,mode,witness\n0,0,exact,\n4,3,exact,0 1 2 3\n")
    sep.write_text("r,value,mode,witness\n0,0,exact,\n4,1,exact,1\n")
    assert main(["verify", "cwsep", str(cw), str(sep), "--delta", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 3: ")


def test_emit_csv_reports():
    rows = [CheckRow("a", 1, 2, True), CheckRow("b", 0.5, 1, False)]
    assert emit_csv(rows) == "check,lhs,rhs,pass\na,1,2,true\nb,0.5,1,false\n"
    assert emit_csv(profile(path(3), "cutwidth", 0)) == "r,value,mode,witness\n0,0,exact,\n"


def _write_complex(tmp_path, name, cx):
    f = tmp_path / name
    f.write_text(emit_complex(cx))
    return str(f)


def test_cli_exit_codes(tmp_path, capsys):
    c4 = _write_complex(tmp_path, "c4.txt", cycle(4))
    assert main(["stats", c4]) == 0
    assert main(["cutwidth", c4, "--method", "bruteforce"]) == 0
    assert main(["extract-expander", c4, "--target", "1/2"]) == 0
    assert main(["extract-expander", c4, "--target", "50"]) == 1
    assert main(["stats", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("c 2\ns 0 5\n")
    assert main(["stats", str(bad)]) == 2
    capsys.readouterr()


def test_cli_verify_cwsep(tmp_path, capsys):
    host = _write_complex(tmp_path, "grid.txt", grid(3, 3))
    cw = str(tmp_path / "cw.csv")
    sep = str(tmp_path / "sep.csv")
    assert main(["profile", host, "--invariant", "cutwidth", "--rmax", "9", "--out", cw]) == 0
    assert main(["profile", host, "--invariant", "separation", "--rmax", "9", "--out", sep]) == 0
    assert main(["verify", "cwsep", cw, sep, "--delta", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check,lhs,rhs,pass")
    # corrupt one value so a certified check fails
    lines = open(cw).read().splitlines()
    lines[-1] = lines[-1].replace(",exact", ",exact").split(",")
    lines[-1][1] = "99"
    open(cw, "w").write("\n".join([",".join(p) if isinstance(p, list) else p for p in lines]) + "\n")
    assert main(["verify", "cwsep", cw, sep, "--delta", "4"]) == 1
    capsys.readouterr()


def test_cli_horocyclic_manifest(tmp_path, capsys):
    c4 = _write_complex(tmp_path, "c4.txt", cycle(4))
    manifest = str(tmp_path / "m.txt")
    assert main(["horocyclic", "construct", c4, "--manifest", manifest, "--validate"]) == 0
    text = open(manifest).read()
    assert text.startswith("h 1 2 4 ")
    capsys.readouterr()


def test_cli_profile_candidates_mode(tmp_path, capsys):
    host = _write_complex(tmp_path, "grid.txt", grid(3, 3))
    cands = tmp_path / "cands.txt"
    cands.write_text("0 1 3 4\n0 1 2\n")
    assert main(
        ["profile", host, "--invariant", "cutwidth", "--rmax", "9",
         "--mode", "candidates", "--candidates", str(cands)]
    ) == 0
    out = capsys.readouterr().out
    assert "lower_bound" in out
    # candidates mode without the file is a usage error
    assert main(["profile", host, "--invariant", "cutwidth", "--rmax", "9", "--mode", "candidates"]) == 2
    capsys.readouterr()


def test_cli_refuses_oversized_inputs(tmp_path, capsys):
    """Inputs past a limit exit 2 with a one-line message naming it."""
    p3 = _write_complex(tmp_path, "p3.txt", path(3))
    g8 = _write_complex(tmp_path, "g8.txt", grid(8, 8))
    triangles = _write_complex(
        tmp_path, "tri.txt", build_complex([[3 * i, 3 * i + 1, 3 * i + 2] for i in range(400)])
    )
    for argv, limit in (
        (["profile", p3, "--invariant", "cutwidth", "--rmax", "2000000"], "PROFILE_RMAX_LIMIT"),
        (["profile", g8, "--invariant", "cutwidth", "--rmax", "8", "--threads", "2"], "PROFILE_SET_LIMIT"),
        (["horocyclic", "construct", triangles, "--validate"], "DEFAULT_VERTEX_LIMIT"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and limit in err


def test_cli_profile_refuses_a_negative_rmax(tmp_path, capsys):
    p4 = _write_complex(tmp_path, "p4.txt", path(4))
    cands = tmp_path / "cands.txt"
    cands.write_text("0 1\n")
    out_file = tmp_path / "table.csv"
    for extra in ([], ["--mode", "candidates", "--candidates", str(cands)]):
        argv = ["profile", p4, "--invariant", "cutwidth", "--rmax", "-3", "--out", str(out_file), *extra]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "r_max" in err
        assert not out_file.exists()


def test_cli_refuses_a_large_simplex_before_subdividing(tmp_path, capsys):
    """One 9-vertex simplex has about 14M chains; its lattice count is
    refused before any of them is built."""
    simplex = _write_complex(tmp_path, "simplex9.txt", build_complex([list(range(9))]))
    start = time.perf_counter()
    assert main(["horocyclic", "construct", simplex]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "DEFAULT_VERTEX_LIMIT" in err


def test_profile_reduces_to_one_skeleton():
    from topoverlap import profile as profile_op
    from topoverlap import skeleton as skeleton_op

    full = build_complex([[0, 1, 2], [1, 2, 3]])
    direct = profile_op(skeleton_op(full, 1), "cutwidth", 4)
    via_host = profile_op(full, "cutwidth", 4)
    assert {r: e.value for r, e in direct.entries.items()} == {
        r: e.value for r, e in via_host.entries.items()
    }


def test_cli_translate(tmp_path, capsys):
    cubes = tmp_path / "cubes.txt"
    cubes.write_text("2 2\n0 0\n0 1\n1 0\n1 1\n")
    assert main(["translate", "--cubes", str(cubes), "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert "count,3" in out and "bound,4" in out


def test_cli_translate_refuses_a_large_header_at_once(tmp_path, capsys):
    cubes = tmp_path / "cubes.txt"
    for header in ("30 2", f"{10**18} 2", "2 33"):
        cubes.write_text(header + "\n")
        start = time.perf_counter()
        assert main(["translate", "--cubes", str(cubes), "--q", "1"]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "" and "TRANSLATE_LIMIT=1024" in err
    cubes.write_text("2 x\n")
    assert main(["translate", "--cubes", str(cubes), "--q", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


def test_cli_output_flags_follow_the_command(tmp_path, capsys):
    """--out and --threads belong to the leaf command: placed before the
    command, or between horocyclic or verify and its subcommand, they are a
    usage error that writes nothing."""
    c4 = _write_complex(tmp_path, "c4.txt", cycle(4))
    cw, sep = str(tmp_path / "cw.csv"), str(tmp_path / "sep.csv")
    assert main(["profile", c4, "--invariant", "cutwidth", "--rmax", "4", "--out", cw]) == 0
    assert main(["profile", c4, "--invariant", "separation", "--rmax", "4", "--out", sep]) == 0
    out = tmp_path / "out.txt"
    for flag in (["--out", str(out)], ["--threads", "2"]):
        for argv in (
            flag + ["cutwidth", c4],
            ["horocyclic"] + flag + ["construct", c4],
            ["verify"] + flag + ["cwsep", cw, sep, "--delta", "2"],
        ):
            assert main(argv) == 2, argv
            stdout, err = capsys.readouterr()
            assert stdout == "" and err.startswith("usage: "), argv
            assert not out.exists(), argv


def test_cli_usage_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    """The parser outlives each call, so a call that fails half parsed must
    not leak its values into the next one."""
    c4 = _write_complex(tmp_path, "c4.txt", cycle(4))
    want = "width,2\nkind,exact\norder,0 1 2 3\nprofile,0 2 2 2\n"
    for bad in (
        ["cutwidth", c4, "--method", "anneal", "--seed", "x"],
        ["cutwidth", c4, "--method", "nope"],
        ["cutwidth", c4, "--out", str(tmp_path / "never"), "--budget"],
        ["horocyclic"],
    ):
        assert main(bad) == 2, bad
        assert capsys.readouterr().out == ""
        assert main(["cutwidth", c4]) == 0
        assert capsys.readouterr().out == want
    assert not (tmp_path / "never").exists()


def test_cli_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    """The parser is built once, at import: main constructs none."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    c4 = _write_complex(tmp_path, "c4.txt", cycle(4))
    assert main(["stats", c4]) == 0
    assert main(["horocyclic", "construct", c4]) == 0
    assert main(["verify", "cwsep"]) == 2
    capsys.readouterr()
    assert built == []


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "topoverlap.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "topoverlap" in proc.stdout
