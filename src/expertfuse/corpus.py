"""Annotation ingest and corpus-level disagreement statistics.

The input format is a flat CSV, one row per declared class part:

    tile_id,expert_id,class,certainty_level,proportion

Rows group by (tile, expert) into annotations; each annotation becomes a
mass function through the generalized proportion-times-certainty model.
On top of that the module offers the class-pair conflict matrix between
two experts and the fraction of tiles on which two combination rules
reach different decisions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .expert_models import (
    CERTAINTY_LEVELS,
    DEFAULT_WEIGHTS,
    AnnotationEntry,
    CertaintyWeights,
    TileAnnotation,
    build_generalized_m5,
    sediment_frame,
)
from .fusion import RULE_NAMES
from .lattice import Frame, Model
from .mass import MassFunction
from .stability import pair_decisions

CSV_HEADER = ("tile_id", "expert_id", "class", "certainty_level", "proportion")

_SUM_TOLERANCE = 1e-9

# The two-expert closed form behind each rule name; PCR6 equals PCR5 for
# two experts.
_CLOSED_FORMS = {"conjunctive": "conjunctive", "pcr5": "pcr", "pcr6": "pcr"}


class CorpusError(ValueError):
    """Malformed annotation input; the message carries the line number."""


@dataclass(frozen=True)
class Corpus:
    """Validated annotations over one frame, in file order."""

    frame: Frame
    annotations: tuple[TileAnnotation, ...]

    @cached_property
    def _index(self) -> dict[tuple[str, str], TileAnnotation]:
        return {(a.tile_id, a.expert_id): a for a in self.annotations}

    @property
    def tiles(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for ann in self.annotations:
            seen.setdefault(ann.tile_id, None)
        return tuple(seen)

    @property
    def experts(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for ann in self.annotations:
            seen.setdefault(ann.expert_id, None)
        return tuple(seen)

    def annotation(self, tile_id: str, expert_id: str) -> TileAnnotation:
        try:
            return self._index[(tile_id, expert_id)]
        except KeyError:
            raise KeyError(
                f"no annotation for tile {tile_id!r} by expert {expert_id!r}"
            ) from None

    def tiles_of(self, expert_id: str) -> tuple[str, ...]:
        return tuple(a.tile_id for a in self.annotations if a.expert_id == expert_id)


def parse_annotations(
    stream: Iterable[str] | str,
    frame: Frame | None = None,
) -> Corpus:
    """Read and validate annotation CSV from a string or line iterable.

    Every failure names the offending 1-based line: a bad header, a wrong
    column count, an unknown class, a non-integer certainty level, a
    proportion outside [0, 1], or a (tile, expert) group whose proportions
    climb past 1.
    """
    if frame is None:
        frame = sediment_frame()
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CorpusError("line 1: empty input, expected header "
                          + ",".join(CSV_HEADER)) from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise CorpusError(f"line 1: bad header {','.join(header)!r}, "
                          f"expected {','.join(CSV_HEADER)}")
    groups: dict[tuple[str, str], list[AnnotationEntry]] = {}
    sums: dict[tuple[str, str], float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise CorpusError(f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        tile_id, expert_id, label, level_text, proportion_text = (f.strip() for f in row)
        try:
            frame.label_index(label)
        except ValueError:
            raise CorpusError(f"line {lineno}: unknown class {label!r}") from None
        try:
            level = int(level_text)
        except ValueError:
            raise CorpusError(f"line {lineno}: certainty level {level_text!r} "
                              "is not an integer") from None
        if level not in (1, 2, 3):
            raise CorpusError(f"line {lineno}: certainty level must be 1, 2 or 3, got {level}")
        try:
            proportion = float(proportion_text)
        except ValueError:
            raise CorpusError(f"line {lineno}: proportion {proportion_text!r} "
                              "is not a number") from None
        if not 0.0 <= proportion <= 1.0:
            raise CorpusError(f"line {lineno}: proportion must lie in [0, 1], got {proportion}")
        key = (tile_id, expert_id)
        new_sum = sums.get(key, 0.0) + proportion
        if new_sum > 1.0 + _SUM_TOLERANCE:
            raise CorpusError(
                f"line {lineno}: proportions for tile {tile_id!r} by expert "
                f"{expert_id!r} sum to {new_sum:.6g} > 1"
            )
        sums[key] = new_sum
        groups.setdefault(key, []).append(AnnotationEntry(label, level, proportion))
    annotations = tuple(
        TileAnnotation(tile_id, expert_id, tuple(entries))
        for (tile_id, expert_id), entries in groups.items()
    )
    return Corpus(frame=frame, annotations=annotations)


def load_annotations(path: str, frame: Frame | None = None) -> Corpus:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_annotations(handle, frame)


def tile_mass(
    annotation: TileAnnotation,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
    frame: Frame | None = None,
) -> MassFunction:
    return build_generalized_m5(annotation, weights, frame)


def _singleton_masses(
    corpus: Corpus,
    expert_i: str,
    expert_j: str,
    weights: CertaintyWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Both experts' generalized-model singleton masses, one row per tile.

    Column k is class k of the frame; Θ is each row's remainder.  Shares
    add in entry order as in `build_generalized_m5`, so each entry equals
    that function's class mass before it is assembled into a mass
    function.  Rows follow the first appearance of each tile for either
    expert, so swapping the experts swaps the two arrays.  The closed forms
    the arrays feed assume disjoint classes, so a free frame is refused.
    """
    frame = corpus.frame
    if frame.model is not Model.SHAFER:
        raise ValueError(
            f"corpus statistics need an exclusive frame, got the {frame.model.value} model"
        )
    notes: dict[str, dict[str, TileAnnotation]] = {expert_i: {}, expert_j: {}}
    order: dict[str, None] = {}
    for ann in corpus.annotations:
        by_tile = notes.get(ann.expert_id)
        if by_tile is not None:
            by_tile[ann.tile_id] = ann
            order.setdefault(ann.tile_id)
    notes_i, notes_j = notes[expert_i], notes[expert_j]
    if not notes_i:
        raise ValueError(f"unknown expert {expert_i!r}")
    if not notes_j:
        raise ValueError(f"unknown expert {expert_j!r}")
    if notes_i.keys() != notes_j.keys():
        raise ValueError(f"experts {expert_i!r} and {expert_j!r} annotate different tiles")
    index = {label: k for k, label in enumerate(frame.labels)}
    scale = {level: weights.weight(level) for level in CERTAINTY_LEVELS}

    def masses(by_tile: dict[str, TileAnnotation]) -> np.ndarray:
        rows = []
        for tile in order:
            row = [0.0] * frame.n_classes
            for label, level, proportion in by_tile[tile].entries:
                k = index.get(label)
                if k is None:
                    raise ValueError(f"unknown class label {label!r}")
                row[k] += proportion * scale[level]
            rows.append(row)
        out = np.array(rows)
        if (out.sum(axis=1) > 1.0 + _SUM_TOLERANCE).any():
            raise ValueError("class masses exceed 1; check proportions and weights")
        return out

    return masses(notes_i), masses(notes_j)


@dataclass(frozen=True)
class ConflictMatrix:
    """Mean per-tile singleton disagreement between two experts, ×10⁴.

    Entry (X, Y) accumulates the first expert's mass on X times the second
    expert's mass on Y for every tile, X ≠ Y; the diagonal stays zero.
    Swapping the experts transposes the matrix, and the total divided by
    the scale is the mean conjunctive conflict when all focal elements are
    singletons or Θ, which the generalized model guarantees.
    """

    labels: tuple[str, ...]
    expert_i: str
    expert_j: str
    tile_count: int
    values: tuple[tuple[float, ...], ...]

    SCALE = 1e4

    @property
    def total(self) -> float:
        """Mean total conflict, back on the natural scale."""
        return sum(sum(row) for row in self.values) / self.SCALE

    @property
    def max_entry(self) -> tuple[str, str, float]:
        best = (0, 0)
        for r, row in enumerate(self.values):
            for c, v in enumerate(row):
                if v > self.values[best[0]][best[1]]:
                    best = (r, c)
        return self.labels[best[0]], self.labels[best[1]], self.values[best[0]][best[1]]

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("class",) + self.labels)
        for label, row in zip(self.labels, self.values):
            writer.writerow((label,) + tuple(repr(v) for v in row))
        return out.getvalue()


def conflict_matrix(
    corpus: Corpus,
    expert_i: str,
    expert_j: str,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
) -> ConflictMatrix:
    """Class-pair conflict between two experts, averaged over shared tiles."""
    a, b = _singleton_masses(corpus, expert_i, expert_j, weights)
    totals = (a[:, :, None] * b[:, None, :]).sum(axis=0)
    np.fill_diagonal(totals, 0.0)
    totals *= ConflictMatrix.SCALE / len(a)
    return ConflictMatrix(
        labels=corpus.frame.labels,
        expert_i=expert_i,
        expert_j=expert_j,
        tile_count=len(a),
        values=tuple(tuple(float(v) for v in row) for row in totals),
    )


@dataclass(frozen=True)
class DecisionDifference:
    """How often two combination rules disagree on the corpus decisions."""

    rule_a: str
    rule_b: str
    tiles: int
    differing: int

    @property
    def rate(self) -> float:
        return self.differing / self.tiles if self.tiles else 0.0

    def to_json_dict(self) -> dict:
        return {
            "rule_a": self.rule_a,
            "rule_b": self.rule_b,
            "tiles": self.tiles,
            "differing": self.differing,
            "rate": self.rate,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False)


def decision_difference(
    corpus: Corpus,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
    rule_a: str = "conjunctive",
    rule_b: str = "pcr6",
    experts: Sequence[str] | None = None,
) -> DecisionDifference:
    """Fraction of tiles where the two rules pick different classes.

    Both experts' masses are combined under each rule and decided by
    maximum pignistic probability over the singletons, ties resolved to
    the lowest class index under both rules alike.  The masses put weight
    on singletons and Θ only, so each rule runs in its two-expert closed
    form (`stability.pair_decisions`), which equals the object-level
    `combine` followed by `decide`.
    """
    for rule in (rule_a, rule_b):
        if rule not in _CLOSED_FORMS:
            raise ValueError(f"unknown rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")
    if experts is None:
        experts = corpus.experts
        if len(experts) != 2:
            raise ValueError(
                f"corpus has {len(experts)} experts; pass the two to compare"
            )
    if len(experts) != 2:
        raise ValueError("decision difference compares exactly two experts")
    a, b = _singleton_masses(corpus, experts[0], experts[1], weights)
    differing = 0
    if _CLOSED_FORMS[rule_a] != _CLOSED_FORMS[rule_b]:
        choice_conj, choice_pcr, _ = pair_decisions(a, b)
        differing = int(np.count_nonzero(choice_conj != choice_pcr))
    return DecisionDifference(
        rule_a=rule_a,
        rule_b=rule_b,
        tiles=len(a),
        differing=differing,
    )


DEMO_SEED = 7121
DEMO_TILES = 5000
DEMO_EXPERTS = ("expert1", "expert2")


def generate_demo_corpus(tiles: int = DEMO_TILES, seed: int = DEMO_SEED) -> str:
    """Synthetic two-expert annotation CSV over the seven sediment classes.

    Roughly 55% of tiles are seen identically by both experts, 25% are the
    designed disagreement (the first expert reports sand where the second
    reports silt), and 20% disagree on some other class pair, so the
    (sand, silt) entry dominates the conflict matrix by construction.
    Proportions are quantized to 4 decimals so the file round-trips
    exactly.  Deterministic given its arguments.
    """
    rng = np.random.default_rng(seed)
    labels = sediment_frame().labels
    sand = labels.index("sand")
    silt = labels.index("silt")
    rows: list[str] = [",".join(CSV_HEADER)]

    def emit(tile: str, expert: str, class_index: int, level: int, proportion: float) -> None:
        rows.append(f"{tile},{expert},{labels[class_index]},{level},{proportion:.4f}")

    for t in range(tiles):
        tile = f"t{t:05d}"
        scenario = rng.random()
        level_i = int(rng.integers(1, 4))
        level_j = int(rng.integers(1, 4))
        p_i = round(float(rng.uniform(0.5, 1.0)), 4)
        p_j = round(float(rng.uniform(0.5, 1.0)), 4)
        if scenario < 0.55:
            shared = int(rng.integers(0, len(labels)))
            emit(tile, DEMO_EXPERTS[0], shared, level_i, p_i)
            emit(tile, DEMO_EXPERTS[1], shared, level_j, p_j)
        elif scenario < 0.80:
            emit(tile, DEMO_EXPERTS[0], sand, level_i, p_i)
            emit(tile, DEMO_EXPERTS[1], silt, level_j, p_j)
        else:
            first = int(rng.integers(0, len(labels)))
            second = int(rng.integers(0, len(labels) - 1))
            if second >= first:
                second += 1
            if (first, second) == (sand, silt):
                first, second = silt, sand
            emit(tile, DEMO_EXPERTS[0], first, level_i, p_i)
            emit(tile, DEMO_EXPERTS[1], second, level_j, p_j)
    return "\n".join(rows) + "\n"
