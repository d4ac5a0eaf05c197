"""Command-line front end: fuse, decide, simulate, corpus.

Human-readable tables go to stdout with 4 decimal places; files written
through the output flags carry full precision.  Every command is
deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from . import __version__
from .corpus import conflict_matrix, decision_difference, expert_pair, load_annotations
from .decision import Criterion, criteria_table, decide
from .expert_models import CertaintyWeights, DEFAULT_WEIGHTS
from .fusion import RULE_NAMES, combine, redistribute_conjunctions
from .lattice import FocalElement, Model
from .mass import MassFunction
from .stability import (
    SAMPLING_LAWS,
    Histogram,
    StabilityResult,
    check_class_counts,
    stability_table,
)

DEFAULT_SEED = 2026


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _load_mass(path: str) -> MassFunction:
    try:
        with open(path, encoding="utf-8") as handle:
            return MassFunction.from_json(handle.read())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def print_criteria_table(rows: Sequence[tuple]) -> None:
    """Print `decision.criteria_table` rows with four decimals."""
    width = max(len("element"), max(len(str(row[0])) for row in rows))
    print(f"{'element':<{width}}  {'m':>8}  {'bel':>8}  {'pl':>8}  {'betP':>8}")
    for el, mass, bel, pl, bet in rows:
        bet_text = "-" if bet is None else f"{bet:.4f}"
        print(f"{str(el):<{width}}  {mass:>8.4f}  {bel:>8.4f}  {pl:>8.4f}  {bet_text:>8}")


def cmd_fuse(args: argparse.Namespace) -> int:
    masses = [_load_mass(path) for path in args.mass_files]
    fused = combine(masses, args.rule)
    if args.rule in ("pcr5", "pcr6") and fused.frame.model is Model.FREE:
        # the redistribution rules decide on exclusive classes, so a free
        # result is first projected onto the matching exclusive frame
        fused = redistribute_conjunctions(fused)
    print(f"rule: {args.rule}")
    print(f"frame: {{{', '.join(fused.frame.labels)}}} ({fused.frame.model.value})")
    rows = criteria_table(fused)
    print_criteria_table(rows)
    if args.decide:
        report = decide(fused, Criterion.PIGNISTIC, fused.frame.atoms())
        line = f"decision (pignistic over singletons): {report.chosen}"
        if report.tie:
            line += f"  [tie between {', '.join(str(t) for t in report.tied)}]"
        print(line)
    if args.json:
        payload = {
            "rule": args.rule,
            "mass": fused.to_json_dict(),
            "criteria": {
                str(el): {"mass": v, "credibility": bel, "plausibility": pl, "pignistic": bet}
                for el, v, bel, pl, bet in rows
            },
        }
        _write_json(args.json, payload)
    return 0


def cmd_decide(args: argparse.Namespace) -> int:
    m = _load_mass(args.mass_file)
    candidates: Sequence[FocalElement | str]
    if args.candidates:
        candidates = [c.strip() for c in args.candidates.split(",")]
    else:
        candidates = m.frame.atoms()
    report = decide(m, Criterion(args.criterion), candidates)
    for el, value in report.values:
        print(f"{args.criterion}({el}) = {value:.4f}")
    print(f"chosen: {report.chosen}")
    if report.tie:
        print(f"tie between: {', '.join(str(t) for t in report.tied)}")
    if args.json:
        _write_json(args.json, report.to_json_dict())
    return 0


def _parse_class_counts(text: str, law: str) -> list[int]:
    """The counts of a ``--classes`` spec; range ends are checked before expansion."""
    counts: list[int] = []
    try:
        for part in text.split(","):
            part = part.strip()
            low_text, dots, high_text = part.partition("..")
            try:
                low = int(low_text)
                high = int(high_text) if dots else low
            except ValueError:
                raise ValueError(f"{part!r} is not a class count or a range such as 2..7") from None
            if high < low:
                raise ValueError(f"empty class range {part!r}")
            check_class_counts(sorted({low, high}), law)
            counts.extend(range(low, high + 1))
        check_class_counts(counts, law)
    except ValueError as exc:
        raise ValueError(f"--classes: {exc}") from None
    return counts


def write_rate_csv(path: str | os.PathLike, results: Sequence[StabilityResult]) -> None:
    """Write decision-change table rows as CSV at full precision."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("n", "samples", "change_rate", "ci"))
        writer.writerows((r.n_classes, r.accepted_pairs, repr(r.change_rate), repr(r.ci_halfwidth))
                         for r in results)


def write_histogram_csv(path: str | os.PathLike,
                        histograms: Sequence[tuple[Histogram, Histogram]]) -> None:
    """Write each class count's all-pairs and decision-change histograms side by side.

    One block of rows per (all, decision-change) pair, in the order given,
    each row led by the pair's class count.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("n", "bin_low", "bin_high", "freq_all", "freq_change"))
        for full, flipped in histograms:
            edges = full.bin_edges
            writer.writerows((full.n_classes, *map(repr, row)) for row in
                             zip(edges, edges[1:], full.frequencies, flipped.frequencies))


def cmd_simulate(args: argparse.Namespace) -> int:
    counts = _parse_class_counts(args.classes, args.law)
    results = stability_table(counts, args.samples, args.seed, law=args.law)
    print(f"{'n':>3}  {'samples':>9}  {'change_rate':>11}  {'ci':>8}")
    for r in results:
        print(f"{r.n_classes:>3}  {r.accepted_pairs:>9}  {r.change_rate:>11.4f}  "
              f"{r.ci_halfwidth:>8.4f}")
    if args.out:
        write_rate_csv(args.out, results)
    if args.histogram:
        histograms = [(r.histogram(args.bins), r.histogram(args.bins, "decision_change"))
                      for r in results]
        write_histogram_csv(args.histogram, histograms)
    return 0


def _parse_weights(text: str) -> CertaintyWeights:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--weights needs three comma-separated values, got {text!r}")
    values = []
    for part in parts:
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"--weights: {part!r} is not a number") from None
    return CertaintyWeights(*values)


def cmd_corpus(args: argparse.Namespace) -> int:
    corpus = load_annotations(args.annotations)
    weights = _parse_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    experts = None
    if args.experts:
        experts = [e.strip() for e in args.experts.split(",")]
    rules = [r.strip() for r in args.rules.split(",")]
    if len(rules) != 2:
        raise ValueError(f"--rules needs two comma-separated rule names, got {args.rules!r}")
    rule_a, rule_b = rules
    pair = expert_pair(corpus, experts, weights)
    diff = decision_difference(pair, rule_a, rule_b)
    matrix = conflict_matrix(pair)
    labels = matrix.labels
    width = max(len("class"), max(len(lab) for lab in labels))
    print(
        f"conflict matrix ×10^4 ({matrix.expert_i} rows, {matrix.expert_j} columns, "
        f"{matrix.tile_count} tiles)"
    )
    print(f"{'class':<{width}}  " + "  ".join(f"{lab:>10}" for lab in labels))
    for lab, row in zip(labels, matrix.values):
        print(f"{lab:<{width}}  " + "  ".join(f"{v:>10.4f}" for v in row))
    print(f"matrix total /10^4 (mean conflict): {matrix.total:.4f}")
    print(
        f"decision difference ({rule_a} vs {rule_b}): "
        f"{diff.differing}/{diff.tiles} tiles = {diff.rate:.4f}"
    )
    if args.matrix:
        with open(args.matrix, "w", encoding="utf-8", newline="") as handle:
            handle.write(matrix.to_csv_text())
    if args.diff:
        _write_json(args.diff, diff.to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertfuse",
        description="Fuse uncertain multi-expert classifications with belief functions.",
    )
    parser.add_argument("--version", action="version", version=f"expertfuse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="combine mass files and print the criteria table")
    fuse.add_argument("mass_files", nargs="+", metavar="MASS_JSON")
    fuse.add_argument("--rule", choices=RULE_NAMES, default="conjunctive")
    fuse.add_argument("--decide", action="store_true",
                      help="also print the pignistic decision over singletons")
    fuse.add_argument("--json", metavar="PATH", help="write full-precision results")
    fuse.set_defaults(handler=cmd_fuse)

    dec = sub.add_parser("decide", help="evaluate a decision criterion on one mass file")
    dec.add_argument("mass_file", metavar="MASS_JSON")
    dec.add_argument("--criterion", choices=[c.value for c in Criterion],
                     default="pignistic")
    dec.add_argument("--candidates", metavar="ELEMENTS",
                     help="comma-separated elements (default: the classes)")
    dec.add_argument("--json", metavar="PATH", help="write the report as JSON")
    dec.set_defaults(handler=cmd_decide)

    sim = sub.add_parser("simulate", help="run the decision-change experiment")
    sim.add_argument("--classes", default="2..7", metavar="SPEC",
                     help="class counts, e.g. 3 or 2..7 or 2,4,7 (default 2..7)")
    sim.add_argument("--samples", type=_positive_int, default=10000,
                     help="accepted expert pairs per class count")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"RNG seed (default {DEFAULT_SEED})")
    sim.add_argument("--law", choices=SAMPLING_LAWS, default="uniform")
    sim.add_argument("--out", metavar="PATH", help="write the table as CSV")
    sim.add_argument("--histogram", metavar="PATH",
                     help="write each class count's conflict histograms as CSV")
    sim.add_argument("--bins", type=_positive_int, default=20)
    sim.set_defaults(handler=cmd_simulate)

    corp = sub.add_parser("corpus", help="conflict matrix and decision difference")
    corp.add_argument("annotations", metavar="CSV")
    corp.add_argument("--experts", metavar="ID,ID")
    corp.add_argument("--weights", metavar="C1,C2,C3",
                      help="certainty weights (default 2/3, 1/2, 1/3)")
    corp.add_argument("--rules", default="conjunctive,pcr6", metavar="RULE,RULE")
    corp.add_argument("--matrix", metavar="PATH", help="write the matrix as CSV")
    corp.add_argument("--diff", metavar="PATH", help="write the difference summary as JSON")
    corp.set_defaults(handler=cmd_corpus)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.reconfigure(encoding="utf-8", errors="replace")
        except (AttributeError, ValueError, io.UnsupportedOperation):
            pass
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuse" and len(args.mass_files) < 2:
        parser.error("fuse needs at least two mass files")
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
