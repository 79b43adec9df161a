"""Small shared helpers: size guards, components, and ``parallel_map``, a
serial map that nothing in the package calls, kept only because
``perfbench/tracing.py`` binds it by name in ``profiles`` and ``cubes``."""

from __future__ import annotations

__all__ = ["SizeLimitError", "parallel_map", "components_of"]


class SizeLimitError(ValueError):
    """An input exceeds the configured limit of an exhaustive method."""


def parallel_map(fn, items, threads: int = 1):
    """``[fn(x) for x in items]``, serially: ``threads`` is ignored, and the
    name stays only for the tracer's bindings (see the module docstring)."""
    return [fn(x) for x in items]


def components_of(vertices, edges):
    """Connected components of a graph, each a sorted tuple of vertices."""
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps
