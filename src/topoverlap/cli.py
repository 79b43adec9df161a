"""Command line interface.

The parser is built once, when the module is imported, and each leaf
command carries its handler, so :func:`main` only parses and dispatches.
Every leaf command takes ``--out PATH`` and ``--threads N`` after its name
(after the subcommand's name under ``horocyclic`` and ``verify``);
``--threads`` has no effect.  Exit codes: 0 when all certified checks
pass, 1 when a certified check fails, 2 on usage or parse errors.  Output
is byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import horocyclic, invariants, profiles
from ._util import SizeLimitError
from .cubes import find_translate
from .fileio import (
    ParseError,
    emit_csv,
    parse_candidates,
    parse_complex,
    parse_cubes,
    parse_fraction,
    parse_profile_csv,
)
from .reporting import all_passed


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_complex(path: str):
    return parse_complex(_read(path))


def _cmd_stats(args) -> tuple:
    from .complexes import stats as stats_op

    cx = _load_complex(args.file)
    st = stats_op(cx)
    text = (
        f"vertices,{cx.n_vertices}\n"
        f"simplices,{st.simplex_count}\n"
        f"dimension,{st.dimension}\n"
        f"degree,{st.degree}\n"
        f"delta,{st.delta}\n"
    )
    return 0, text


def _cmd_cutwidth(args) -> tuple:
    cx = _load_complex(args.file)
    if args.method == "dp":
        arr = invariants.cutwidth_exact(cx)
    elif args.method == "bruteforce":
        arr = invariants.cutwidth_bruteforce(cx)
    else:
        arr = invariants.cutwidth_heuristic(cx, seed=args.seed, budget=args.budget)
    kind = "exact" if args.method in ("dp", "bruteforce") else "upper_bound"
    text = (
        f"width,{arr.width}\n"
        f"kind,{kind}\n"
        f"order,{' '.join(map(str, arr.order))}\n"
        f"profile,{' '.join(map(str, arr.cut_profile))}\n"
    )
    return 0, text


def _cmd_cheeger(args) -> tuple:
    cx = _load_complex(args.file)
    w = invariants.cheeger_exact(cx)
    if w.is_infinite:
        return 0, "value,inf\nwitness,\n"
    return 0, f"value,{w.value}\nwitness,{' '.join(map(str, w.witness_set))}\n"


def _cmd_cut(args) -> tuple:
    cx = _load_complex(args.file)
    w = invariants.separation_cut(cx)
    text = (
        f"cut,{len(w.separator)}\n"
        f"separator,{' '.join(map(str, w.separator))}\n"
        f"max_component,{w.max_component}\n"
    )
    return 0, text


def _cmd_profile(args) -> tuple:
    cx = _load_complex(args.file)
    cands = None
    if args.mode == "candidates":
        if not args.candidates:
            raise ParseError(1, "--candidates file required in candidates mode")
        cands = parse_candidates(_read(args.candidates))
    table = profiles.profile(cx, args.invariant, args.rmax, mode=args.mode, candidates=cands)
    return 0, emit_csv(table)


def _cmd_horocyclic(args) -> tuple:
    cx = _load_complex(args.file)
    cc = horocyclic.coarse_construct(cx)
    lines = [
        f"d,{cc.d}",
        f"ell,{cc.ell}",
        f"source_vertices,{cc.source.n_vertices}",
        f"subdivision_vertices,{cc.n_sub_vertices}",
        f"measured_k,{cc.measured_k}",
        f"volume,{cc.volume}",
    ]
    code = 0
    text = "\n".join(lines) + "\n"
    if args.manifest:
        Path(args.manifest).write_text(horocyclic.write_manifest(cc))
    if args.validate:
        rows = horocyclic.validate_construction(cc, 2**cc.source.degree, cc.volume)
        text += emit_csv(rows)
        code = 0 if all_passed(rows) else 1
    return code, text


def _cmd_translate(args) -> tuple:
    cubes, r = parse_cubes(_read(args.cubes))
    result = find_translate(cubes, r, args.q)
    text = (
        f"v,{' '.join(map(str, result.v))}\n"
        f"count,{result.count}\n"
        f"bound,{result.bound}\n"
    )
    return (0 if result.count <= result.bound else 1), text


def _cmd_extract(args) -> tuple:
    cx = _load_complex(args.file)
    target = parse_fraction(args.target)
    res = profiles.extract_expander(cx, target)
    lines = [f"success,{'true' if res.success else 'false'}"]
    if res.success:
        lines.append(f"cheeger,{res.cheeger_value}")
        lines.append(f"vertices,{' '.join(map(str, sorted(res.subgraph.vertices)))}")
    for removed, ratio in res.removals:
        lines.append(f"removed,{' '.join(map(str, removed))} ratio {ratio}")
    return (0 if res.success else 1), "\n".join(lines) + "\n"


def _cmd_verify_cwsep(args) -> tuple:
    cw = parse_profile_csv(_read(args.cw_csv), "cutwidth")
    sep = parse_profile_csv(_read(args.sep_csv), "separation")
    rows = profiles.verify_cwsep(cw, sep, args.delta)
    return (0 if all_passed(rows) else 1), emit_csv(rows)


def _command(sub, name, handler, summary):
    """Add a leaf command bound to its handler, with the two output flags."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--out", type=str, default=None, help="write output to a file instead of stdout")
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="topoverlap")
    sub = top.add_subparsers(dest="command", required=True)

    p = _command(sub, "stats", _cmd_stats, "basic invariants of a complex")
    p.add_argument("file")

    p = _command(sub, "cutwidth", _cmd_cutwidth, "cutwidth of a graph")
    p.add_argument("file")
    p.add_argument("--method", choices=("dp", "bruteforce", "anneal"), default="dp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)

    p = _command(sub, "cheeger", _cmd_cheeger, "exact vertex Cheeger constant")
    p.add_argument("file")

    p = _command(sub, "cut", _cmd_cut, "minimum balanced vertex separator")
    p.add_argument("file")

    p = _command(sub, "profile", _cmd_profile, "invariant profile over induced subgraphs")
    p.add_argument("file")
    p.add_argument("--invariant", choices=("cutwidth", "separation"), required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "candidates"), default="exact")
    p.add_argument("--candidates", type=str, default=None)

    hsub = sub.add_parser("horocyclic", help="coarse constructions").add_subparsers(
        dest="subcommand", required=True
    )
    p = _command(hsub, "construct", _cmd_horocyclic, "build and measure a construction")
    p.add_argument("file")
    p.add_argument("--manifest", type=str, default=None)
    p.add_argument("--validate", action="store_true")

    p = _command(sub, "translate", _cmd_translate, "best skeleton-avoiding translate of a cube set")
    p.add_argument("--cubes", required=True)
    p.add_argument("--q", type=int, required=True)

    p = _command(sub, "extract-expander", _cmd_extract, "greedy Cheeger extraction")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="rational like 1/2")

    vsub = sub.add_parser("verify", help="replay certified inequalities").add_subparsers(
        dest="subcommand", required=True
    )
    p = _command(vsub, "cwsep", _cmd_verify_cwsep, "cutwidth/separation recursion on exact tables")
    p.add_argument("cw_csv")
    p.add_argument("sep_csv")
    p.add_argument("--delta", type=int, required=True)
    return top


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code, text = args.handler(args)
    except (ParseError, SizeLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
