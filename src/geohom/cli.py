"""Command-line interface: enumerate, verify, hom, poset, export.

All randomness flows from the --seed flags of ``enumerate`` and
``verify``; ``hom``, ``poset`` and ``export`` read a saved atlas
(--atlas) or else sample one with the default EnumerationConfig, so
identical invocations produce byte-identical output.  Exit codes: 0
success, 1 failure (or an unreadable, invalid or unwritable file), 2
incomplete enumeration (some proven class never sampled) or usage error
(an unknown flag, an out-of-range ``enumerate`` flag value, or equal
``verify`` seeds).  Run as ``geohom`` or ``python -m geohom``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from functools import cache

from .atlas import (
    TARGETS,
    Atlas,
    BudgetExhausted,
    ConfigError,
    EnumerationConfig,
    UnknownLabel,
    assign_paper_labels,
    atlas_to_json,
    crossing_histogram,
    enumerate_classes,
    save_atlas,
)
from .graph_core import ParseError
from .invariants import (
    edge_crossing_graph_to_dot,
    line_crossing_graph_to_dot,
)
from .morphisms import hom_query
from .poset import hasse_to_dot, poset_to_json
from .verify import load_k33_atlas, pin_reference_labels, run_verification


def _histogram_text(atlas: Atlas) -> str:
    hist = crossing_histogram(atlas)
    return " ".join(f"{k}:{v}" for k, v in hist.items())


def _pinned(args):
    """Load a complete k33 atlas, or sample one with the default
    EnumerationConfig, and pin its labels: the pinned atlas, its order and
    the cover mismatches."""
    atlas = load_k33_atlas(args.atlas) if args.atlas else enumerate_classes("k33")
    return pin_reference_labels(atlas)


def cmd_enumerate(args) -> int:
    cfg = EnumerationConfig(
        coordinate_bound=args.bound,
        mode=args.mode,
        seed=args.seed,
        max_samples=args.max_samples,
    )
    # before sampling; with a trailing slash, stat fails unless the parent is a directory
    try:
        if not args.out:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        os.stat(os.path.join(os.path.dirname(args.out) or ".", ""))
        if os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {OSError(*exc.args, args.out)}", file=sys.stderr)
        return 1
    partial = False
    try:
        atlas = enumerate_classes(args.graph, cfg)
    except BudgetExhausted as exc:
        atlas = exc.atlas
        partial = True
        print(f"warning: {exc}", file=sys.stderr)
    if not partial:
        # a k33 atlas carries the labels that every label query pins
        atlas = (
            pin_reference_labels(atlas)[0]
            if args.graph == "k33"
            else assign_paper_labels(atlas)
        )
    elif not atlas.classes:
        # every reader rejects an atlas that holds no class
        print("0 classes (incomplete); no atlas written")
        return 2
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
        args.seed, args.seed2, atlas_path=args.atlas, poset_path=args.poset
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
    labeled = args.what in ("ex", "lex")
    problem = None
    if labeled and args.label is None:
        problem = "--label is required for ex/lex exports"
    elif not labeled and args.label is not None:
        problem = "--label applies only to ex/lex exports"
    elif args.what != "hasse" and args.format is not None:
        problem = "--format applies only to hasse exports"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    pinned, poset, _ = _pinned(args)
    if args.what == "atlas":
        return _write_or_print(atlas_to_json(pinned), args.out)
    if args.what == "hasse":
        text = (
            poset_to_json(poset) if args.format == "json" else hasse_to_dot(poset)
        )
        return _write_or_print(text, args.out)
    cls = pinned.find(args.label)
    if args.what == "ex":
        return _write_or_print(edge_crossing_graph_to_dot(cls.representative), args.out)
    return _write_or_print(line_crossing_graph_to_dot(cls.representative), args.out)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each ``parse_args`` call
    still returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="geohom",
        description=(
            "Exact crossing structures, invariants, and the homomorphism"
            " order of straight-line drawings of K_{3,3} and K_6."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="discover realization classes")
    defaults = EnumerationConfig()
    p_enum.add_argument("--graph", choices=tuple(TARGETS), default="k33")
    p_enum.add_argument("--seed", type=int, default=defaults.seed, help="sampling seed")
    p_enum.add_argument(
        "--mode", choices=("random", "grid"), default=defaults.mode,
        help="seeded random points or an exhaustive coordinate grid",
    )
    p_enum.add_argument(
        "--bound", type=int, default=defaults.coordinate_bound,
        help="coordinate bound (grid mode sweeps [0, bound]^2)",
    )
    p_enum.add_argument(
        "--max-samples", type=int, default=defaults.max_samples,
        help="hard budget of draws, degenerate ones included",
    )
    p_enum.add_argument(
        "--out", default=None, help="atlas output path (default atlas_<graph>.json)"
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--seed2", type=int, default=101)
    p_verify.add_argument(
        "--atlas", default=None, help="validate this atlas file as well"
    )
    p_verify.add_argument(
        "--poset", default=None, help="validate this poset JSON as well"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_hom = sub.add_parser(
        "hom", help="witnesses or a certificate for a labeled class pair"
    )
    p_hom.add_argument("src")
    p_hom.add_argument("dst")
    p_hom.add_argument("--atlas", default=None, help="atlas file to query")
    p_hom.set_defaults(func=cmd_hom)

    p_poset = sub.add_parser("poset", help="build and export the order")
    p_poset.add_argument("--atlas", default=None)
    p_poset.add_argument("--format", choices=("json", "dot"), default="json")
    p_poset.add_argument("--out", default=None)
    p_poset.set_defaults(func=cmd_poset)

    p_export = sub.add_parser("export", help="export atlas, diagram, or graphs")
    p_export.add_argument(
        "--what", choices=("atlas", "hasse", "ex", "lex"), required=True
    )
    p_export.add_argument("--atlas", default=None)
    p_export.add_argument("--label", default=None, help="ex/lex exports only")
    p_export.add_argument(
        "--format", choices=("json", "dot"), default=None,
        help="hasse exports only (default dot)",
    )
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


if __name__ == "__main__":
    main()
