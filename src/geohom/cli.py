"""Command-line interface: enumerate, verify, hom, poset, export.

All randomness flows from the --seed flags, so identical invocations
produce byte-identical output files.  Exit codes: 0 success, 1 failure
(or an unreadable, invalid or unwritable file), 2 incomplete enumeration
or usage error (including an out-of-range flag value).
"""

from __future__ import annotations

import argparse
import json
import sys

from .atlas import (
    Atlas,
    BudgetExhausted,
    ConfigError,
    EnumerationConfig,
    UnknownLabel,
    assign_paper_labels,
    atlas_to_json,
    crossing_histogram,
    enumerate_classes,
    load_atlas,
    save_atlas,
)
from .graph_core import ParseError
from .invariants import (
    edge_crossing_graph_to_dot,
    line_crossing_graph_to_dot,
)
from .morphisms import hom_query
from .poset import hasse_to_dot, poset_to_json
from .verify import pin_reference_labels, run_verification


def _add_enumeration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument(
        "--mode", choices=("random", "grid"), default="random",
        help="seeded random points or an exhaustive coordinate grid",
    )
    parser.add_argument(
        "--bound", type=int, default=1000,
        help="coordinate bound (grid mode sweeps [0, bound]^2)",
    )
    parser.add_argument(
        "--window", type=int, default=50_000,
        help="samples without a new class before stopping",
    )
    parser.add_argument(
        "--max-samples", type=int, default=500_000,
        help="hard sample budget",
    )


def _config_from(args) -> EnumerationConfig:
    return EnumerationConfig(
        coordinate_bound=args.bound,
        mode=args.mode,
        seed=args.seed,
        stabilization_window=args.window,
        max_samples=args.max_samples,
    )


def _histogram_text(atlas: Atlas) -> str:
    hist = crossing_histogram(atlas)
    return " ".join(f"{k}:{v}" for k, v in hist.items())


def _pinned(args):
    """Load or build a complete k33 atlas and pin its labels: the pinned
    atlas, its order and the cover mismatches."""
    if getattr(args, "atlas", None):
        atlas = load_atlas(args.atlas)
        if atlas.target != "k33":
            raise SystemExit("label queries need a k33 atlas")
    else:
        atlas = enumerate_classes("k33", _config_from(args))
    return pin_reference_labels(atlas)


def cmd_enumerate(args) -> int:
    cfg = _config_from(args)
    partial = False
    try:
        atlas = enumerate_classes(args.graph, cfg)
    except BudgetExhausted as exc:
        atlas = exc.atlas
        partial = True
        print(f"warning: {exc}", file=sys.stderr)
    if not partial:
        atlas = assign_paper_labels(atlas)
    try:
        save_atlas(atlas, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    status = " (incomplete)" if partial else ""
    print(
        f"{len(atlas.classes)} classes{status}; histogram {_histogram_text(atlas)}"
    )
    print(f"atlas written to {args.out}")
    return 2 if partial else 0


def cmd_verify(args) -> int:
    results, _ = run_verification(
        args.seed,
        args.seed2,
        window=args.window,
        max_samples=args.max_samples,
        bound=args.bound,
        atlas_path=args.atlas,
        poset_path=args.poset,
        parity_sets=args.parity_sets,
        oracle_quadruples=args.quadruples,
    )
    for result in results:
        print(result.line())
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"FAILED: {failing[0].name}", file=sys.stderr)
        return 1
    return 0


def cmd_hom(args) -> int:
    pinned, _, _ = _pinned(args)
    src = pinned.find(args.src)
    dst = pinned.find(args.dst)
    result = hom_query(
        src.representative, dst.representative, args.src, args.dst
    )
    print(json.dumps(result, indent=2))
    return 0


def _write_or_print(text: str, out) -> int:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_poset(args) -> int:
    _, poset, _ = _pinned(args)
    text = poset_to_json(poset) if args.format == "json" else hasse_to_dot(poset)
    return _write_or_print(text, args.out)


def cmd_export(args) -> int:
    pinned, poset, _ = _pinned(args)
    if args.what == "atlas":
        return _write_or_print(atlas_to_json(pinned), args.out)
    if args.what == "hasse":
        text = (
            poset_to_json(poset) if args.format == "json" else hasse_to_dot(poset)
        )
        return _write_or_print(text, args.out)
    if args.label is None:
        print("error: --label is required for ex/lex exports", file=sys.stderr)
        return 1
    cls = pinned.find(args.label)
    if args.what == "ex":
        return _write_or_print(edge_crossing_graph_to_dot(cls.representative), args.out)
    return _write_or_print(line_crossing_graph_to_dot(cls.representative), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geohom",
        description=(
            "Exact crossing structures, invariants, and the homomorphism"
            " order of straight-line drawings of K_{3,3} and K_6."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="discover realization classes")
    p_enum.add_argument("--graph", choices=("k33", "k6"), default="k33")
    _add_enumeration_flags(p_enum)
    p_enum.add_argument(
        "--out", default=None, help="atlas output path (default atlas_<graph>.json)"
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--seed2", type=int, default=101)
    p_verify.add_argument("--bound", type=int, default=None)
    p_verify.add_argument("--window", type=int, default=None)
    p_verify.add_argument("--max-samples", type=int, default=None)
    p_verify.add_argument(
        "--atlas", default=None, help="validate this atlas file as well"
    )
    p_verify.add_argument(
        "--poset", default=None, help="validate this poset JSON as well"
    )
    p_verify.add_argument("--parity-sets", type=int, default=10_000)
    p_verify.add_argument("--quadruples", type=int, default=1000)
    p_verify.set_defaults(func=cmd_verify)

    p_hom = sub.add_parser(
        "hom", help="witnesses or a certificate for a labeled class pair"
    )
    p_hom.add_argument("src")
    p_hom.add_argument("dst")
    p_hom.add_argument("--atlas", default=None, help="atlas file to query")
    _add_enumeration_flags(p_hom)
    p_hom.set_defaults(func=cmd_hom)

    p_poset = sub.add_parser("poset", help="build and export the order")
    p_poset.add_argument("--atlas", default=None)
    _add_enumeration_flags(p_poset)
    p_poset.add_argument("--format", choices=("json", "dot"), default="json")
    p_poset.add_argument("--out", default=None)
    p_poset.set_defaults(func=cmd_poset)

    p_export = sub.add_parser("export", help="export atlas, diagram, or graphs")
    p_export.add_argument(
        "--what", choices=("atlas", "hasse", "ex", "lex"), required=True
    )
    p_export.add_argument("--atlas", default=None)
    _add_enumeration_flags(p_export)
    p_export.add_argument("--label", default=None)
    p_export.add_argument("--format", choices=("json", "dot"), default="dot")
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate" and args.out is None:
        args.out = f"atlas_{args.graph}.json"
    try:
        code = args.func(args)
    except ConfigError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        code = 2
    except BudgetExhausted as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        code = 2
    except UnknownLabel as exc:
        print(f"error: unknown label {exc}", file=sys.stderr)
        code = 1
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if argv is None:
        sys.exit(code)
    return code
