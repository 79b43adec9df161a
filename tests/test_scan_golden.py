"""Golden digests of the subset scans' outputs.

The SHA-256 digests below were recorded with the Python mask loop of
``cheeger_exact`` and the ``components_of`` loop of ``separation_cut``,
before both were rewritten on bit sets.  They pin values and the
lexicographically smallest witnesses byte for byte: Cheeger witnesses and
separators on seeded graphs of 0 to 20 vertices with gapped labels, on
cliques, cycles and grids, the removal histories of ``extract_expander``,
and separation-profile CSVs (the larger ones of the 4x4 and 8x8 grids
recorded later, with the bit-set scans).
"""

from __future__ import annotations

import hashlib
import random

from topoverlap import cheeger_exact, extract_expander, profile, separation_cut
from topoverlap.fileio import emit_csv

from conftest import clique, cycle, gapped_graph, grid, hypercube, path

GOLDEN = {
    "cheeger-random": "2bb9eefcfef9517bed05188cdf46cef477bafabedb883692fed270fbdcdacd12",
    "separation-random": "74381df494ce37163f36941697cb2cad080ae209b340dd19429f60c4a8528f2c",
    "cheeger-named": "b5e7c723e42086bae044622c9db57015e5e751f6d4fcc5312380860a7fd12094",
    "separation-named": "aa2e45ca5cfd29edd4e89f9c2ae0676b80b4aa48cdf4d99a33fe363bd1a6d1b1",
    "extract": "0bcafebb5942cb54fe86193c98f3bbd7532480da04f0ca5ee31e443dfe7239f2",
    "separation-profiles": "7f9c3fa6e5e0c36eedc319f0bc64f0c711d5786d6c38b4b430390f79a7722aab",
    "separation-profiles-large": "649a19f6898d877b9e949a7b5bcc0846243bcf0d12c067bbd888b7bddccb048b",
}


def random_graphs():
    rng = random.Random(2011)
    return [gapped_graph(rng, n, p) for n in range(21) for p in (0.25, 0.5)]


def named_graphs():
    graphs = [clique(n) for n in range(2, 21)]
    graphs += [cycle(n) for n in range(3, 21)]
    graphs += [grid(r, c) for r in range(2, 5) for c in range(r, 20 // r + 1)]
    return graphs


def cheeger_text(graphs) -> str:
    lines = []
    for g in graphs:
        w = cheeger_exact(g)
        lines.append(f"{w.value}|{w.witness_set}")
    return "\n".join(lines)


def separation_text(graphs) -> str:
    lines = []
    for g in graphs:
        w = separation_cut(g)
        lines.append(f"{w.separator}|{w.max_component}")
    return "\n".join(lines)


def extract_text() -> str:
    rng = random.Random(14)
    lines = []
    for p in (0.2, 0.3, 0.4, 0.5):
        g = gapped_graph(rng, 14, p)
        for target in ("1/4", "1/2", "1"):
            res = extract_expander(g, target)
            lines.append(f"{target}|{res.success}|{res.cheeger_value}|{sorted(res.subgraph.vertices)}")
            lines += [f"  {removed}|{ratio}" for removed, ratio in res.removals]
    return "\n".join(lines)


def profiles_text() -> str:
    hosts = [grid(3, 4), hypercube(3), cycle(12), path(12)]
    return "".join(emit_csv(profile(h, "separation", h.n_vertices)) for h in hosts)


def large_profiles_text() -> str:
    """The 4x4 grid to r = 16 and the 8x8 grid to r = 7 (31 385 connected
    sets), recorded before profiles skipped sets that cannot raise a row."""
    tables = (profile(grid(4, 4), "separation", 16), profile(grid(8, 8), "separation", 7))
    return "".join(emit_csv(t) for t in tables)


def scan_texts() -> dict:
    graphs = random_graphs()
    return {
        "cheeger-random": cheeger_text(graphs),
        "separation-random": separation_text(graphs),
        "cheeger-named": cheeger_text(named_graphs()),
        "separation-named": separation_text(named_graphs()),
        "extract": extract_text(),
        "separation-profiles": profiles_text(),
        "separation-profiles-large": large_profiles_text(),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_scans_match_golden_digests():
    assert {name: digest(text) for name, text in scan_texts().items()} == GOLDEN
