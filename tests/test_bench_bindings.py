"""The names the benchmark binds in ``topoverlap``.

``perfbench/tracing.py`` rebinds functions in the program's modules for a
traced run, and ``perfbench/workloads.py`` and ``perfbench/harness.py`` read
functions and constants of the package.  A refactor that drops one of these
names would break only the benchmark; these tests make it fail here.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import topoverlap
import topoverlap.cli  # noqa: F401  the benchmark imports both before binding names
import topoverlap.fileio  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracing = _load_tracing()
    tables = (tracing.SPANS, tracing.LEAVES)
    sites = [site for table in tables for sites in table.values() for site in sites]
    sites += list(tracing.POOLS)
    before = {(m, a): getattr(getattr(topoverlap, m), a, None) for m, a in sites}
    tracer = tracing.Tracer(topoverlap)
    try:
        tracer.install()
        assert all(getattr(getattr(topoverlap, m), a) is not before[m, a] for m, a in sites)
    finally:
        tracer.uninstall()
    assert {(m, a): getattr(getattr(topoverlap, m), a, None) for m, a in sites} == before


def _package_names(path: Path) -> set:
    """Dotted names read from the package handle (``topo`` or ``package``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in ("topo", "package"):
            names.add(".".join(reversed(chain)))
    return names


def test_names_the_workloads_read_exist():
    names = _package_names(PERFBENCH / "workloads.py") | _package_names(PERFBENCH / "harness.py")
    assert {"invariants.DEFAULT_DP_LIMIT", "coarse_construct", "cli.main"} <= names
    for name in sorted(names):
        obj = topoverlap
        for attr in name.split("."):
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
