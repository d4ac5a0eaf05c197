"""Annotation ingest and corpus-level disagreement statistics.

The input format is a flat CSV, one row per declared class part:

    tile_id,expert_id,class,certainty_level,proportion

Rows group by (tile, expert) into annotations; each annotation becomes a
mass function through the generalized proportion-times-certainty model.
On top of that the module offers the class-pair conflict matrix between
two experts and the fraction of tiles on which two combination rules
reach different decisions.  Parsing fills one column per entry field;
`expert_pair` builds both experts' mass arrays from those columns once,
and both statistics read them.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
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
from .mass import SUM_TOLERANCE, MassFunction, _sum_in_order
from .stability import pair_decisions

CSV_HEADER = ("tile_id", "expert_id", "class", "certainty_level", "proportion")

# The two-expert closed form behind each rule name; PCR6 equals PCR5 for
# two experts.
_CLOSED_FORMS = {"conjunctive": "conjunctive", "pcr5": "pcr", "pcr6": "pcr"}


class CorpusError(ValueError):
    """Malformed annotation input; the message carries the line number."""


# Each array field of a corpus: its dtype, and the array kinds accepted for it.
_COLUMNS = (
    ("owner", np.intp, "iu"),
    ("class_index", np.intp, "iu"),
    ("level", np.intp, "iu"),
    ("proportion", np.float64, "iuf"),
)


def _refuse_outside(array: np.ndarray, low: float, high: float, message: str) -> None:
    """Refuse an element of `array` outside [low, high], NaN included."""
    if len(array) and not (array.min() >= low and array.max() <= high):
        bad = array[~((array >= low) & (array <= high))][0]
        raise ValueError(f"{message}, got {bad.item()!r}")


def _key_fault(key: object) -> str | None:
    """Why `key` is not a (tile, expert) tuple of two non-empty strings, or None."""
    if (type(key) is not tuple or len(key) != 2
            or not isinstance(key[0], str) or not isinstance(key[1], str)):
        return "must be (tile, expert) pairs of two strings"
    if not (key[0] and key[1]):
        return "must not hold an empty tile or expert id"
    return None


@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """Validated annotations over one frame, one read-only array per entry field.

    `keys` holds the (tile, expert) pair of each annotation in order of
    first appearance.  The arrays hold one element per entry in file
    order: `owner` is the index of its annotation in `keys`, then its class
    index in the frame, certainty level and proportion.  Build a corpus
    with `parse_annotations` or directly from its columns; the
    `TileAnnotation` objects are built only when `annotations` is read.
    Built directly, a corpus refuses a key that is not two strings, an
    empty id, a repeated key, columns that do not fit its keys and frame,
    and an annotation whose proportions sum past 1; it keeps a read-only
    copy of every writable array.
    """

    frame: Frame
    keys: tuple[tuple[str, str], ...]
    owner: np.ndarray
    class_index: np.ndarray
    level: np.ndarray
    proportion: np.ndarray

    def __post_init__(self) -> None:
        keys = tuple(self.keys)
        for key in keys:
            fault = _key_fault(key)
            if fault:
                raise ValueError(f"keys {fault}, got {key!r}")
        object.__setattr__(self, "keys", keys)
        if len(set(keys)) != len(keys):
            twice = next(key for key, count in Counter(keys).items() if count > 1)
            raise ValueError(f"keys must be distinct, got {twice!r} twice")
        columns = {}
        for name, _, kinds in _COLUMNS:
            array = np.asarray(getattr(self, name))
            if array.ndim != 1 or array.dtype.kind not in kinds:
                raise ValueError(
                    f"{name} must be a one-dimensional {'integer' if kinds == 'iu' else 'numeric'}"
                    f" array, got {array.dtype} with shape {array.shape}"
                )
            columns[name] = array
        if len({len(array) for array in columns.values()}) > 1:
            raise ValueError("columns differ in length: " + ", ".join(
                f"{name} {len(array)}" for name, array in columns.items()))
        owner, class_index, level, proportion = columns.values()
        _refuse_outside(owner, 0, len(self.keys) - 1,
                        f"owner must index the {len(self.keys)} keys")
        _refuse_outside(class_index, 0, self.frame.n_classes - 1,
                        f"class_index must index the {self.frame.n_classes} classes")
        _refuse_outside(level, CERTAINTY_LEVELS[0], CERTAINTY_LEVELS[-1],
                        "level must be 1, 2 or 3")
        _refuse_outside(proportion, 0.0, 1.0, "proportion must lie in [0, 1]")
        for (name, dtype, _), array in zip(_COLUMNS, columns.values()):
            if array.dtype != dtype or array.flags.writeable:
                array = array.astype(dtype)
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        # bincount adds in entry order from 0.0, as parsing and TileAnnotation do
        sums = np.bincount(self.owner, weights=self.proportion, minlength=len(keys))
        over = np.flatnonzero(sums > 1.0 + SUM_TOLERANCE)
        if len(over):
            tile, expert = keys[over[0]]
            raise ValueError(f"proportions for tile {tile!r} by expert {expert!r} "
                             f"sum to {sums[over[0]].item()!r} > 1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.frame == other.frame and self.annotations == other.annotations

    def __hash__(self) -> int:
        return hash((self.frame, self.annotations))

    def __repr__(self) -> str:
        return f"Corpus(frame={self.frame!r}, annotations=<{len(self.keys)} annotations>)"

    @cached_property
    def annotations(self) -> tuple[TileAnnotation, ...]:
        labels = self.frame.labels
        groups: list[list[AnnotationEntry]] = [[] for _ in self.keys]
        for owner, k, level, proportion in zip(
            self.owner.tolist(),
            self.class_index.tolist(),
            self.level.tolist(),
            self.proportion.tolist(),
        ):
            groups[owner].append(AnnotationEntry(labels[k], level, proportion))
        return tuple(
            TileAnnotation(tile_id, expert_id, tuple(entries))
            for (tile_id, expert_id), entries in zip(self.keys, groups)
        )

    @cached_property
    def _index(self) -> dict[tuple[str, str], TileAnnotation]:
        return dict(zip(self.keys, self.annotations))

    @property
    def tiles(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(tile for tile, _ in self.keys))

    @property
    def experts(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(expert for _, expert in self.keys))

    def annotation(self, tile_id: str, expert_id: str) -> TileAnnotation:
        try:
            return self._index[(tile_id, expert_id)]
        except KeyError:
            raise KeyError(
                f"no annotation for tile {tile_id!r} by expert {expert_id!r}"
            ) from None


# The certainty levels as they are written when unpadded.
_LEVEL_OF_TEXT = {str(level): level for level in CERTAINTY_LEVELS}


def _padded_level(text: str, lineno: int) -> int:
    """The certainty level of a field `_LEVEL_OF_TEXT` does not hold as written."""
    text = text.strip()
    try:
        level = int(text)
    except ValueError:
        raise CorpusError(f"line {lineno}: certainty level {text!r} "
                          "is not an integer") from None
    if level not in CERTAINTY_LEVELS:
        raise CorpusError(f"line {lineno}: certainty level must be 1, 2 or 3, got {level}")
    return level


def _padded_proportion(text: str, lineno: int) -> float:
    """The proportion of a field float() refuses as written.

    float() skips most padding itself, but not the separators U+001C to
    U+001F, which str.strip() removes.
    """
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        raise CorpusError(f"line {lineno}: proportion {text!r} is not a number") from None


def parse_annotations(
    stream: Iterable[str] | str,
    frame: Frame | None = None,
) -> Corpus:
    """Read and validate annotation CSV from a string or line iterable.

    Every failure names the offending 1-based line: a bad header, a wrong
    column count, an unknown class, a non-integer certainty level, a
    proportion outside [0, 1], an empty tile or expert id, or a (tile,
    expert) group whose proportions climb past 1.
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
    class_of = {label: k for k, label in enumerate(frame.labels)}
    ids: dict[tuple[str, str], int] = {}
    sums: list[float] = []
    owners: list[int] = []
    classes: list[int] = []
    levels: list[int] = []
    proportions: list[float] = []
    # The raw (tile, expert) text of the previous row, whose owner is still
    # in `owner`: rows of one annotation usually follow each other, and a
    # repeat needs no key.
    last_tile = last_expert = None
    for lineno, row in enumerate(reader, start=2):
        try:
            tile_text, expert_text, label, level_text, proportion_text = row
        except ValueError:
            if not row:
                continue
            raise CorpusError(
                f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
            ) from None
        k = class_of.get(label.strip())
        if k is None:
            raise CorpusError(f"line {lineno}: unknown class {label.strip()!r}")
        level = _LEVEL_OF_TEXT.get(level_text)
        if level is None:
            level = _padded_level(level_text, lineno)
        try:
            proportion = float(proportion_text)
        except ValueError:
            proportion = _padded_proportion(proportion_text, lineno)
        if not 0.0 <= proportion <= 1.0:
            raise CorpusError(f"line {lineno}: proportion must lie in [0, 1], got {proportion}")
        if tile_text != last_tile or expert_text != last_expert:
            key = (tile_text.strip(), expert_text.strip())
            owner = ids.get(key)
            if owner is None:
                if not key[0]:
                    raise CorpusError(f"line {lineno}: empty tile id")
                if not key[1]:
                    raise CorpusError(f"line {lineno}: empty expert id")
                owner = ids[key] = len(sums)
                sums.append(0.0)
            last_tile, last_expert = tile_text, expert_text
        new_sum = sums[owner] + proportion
        if new_sum > 1.0 + SUM_TOLERANCE:
            raise CorpusError(
                f"line {lineno}: proportions for tile {tile_text.strip()!r} by expert "
                f"{expert_text.strip()!r} sum to {new_sum!r} > 1"
            )
        sums[owner] = new_sum
        owners.append(owner)
        classes.append(k)
        levels.append(level)
        proportions.append(proportion)
    return Corpus(
        frame,
        tuple(ids),
        np.array(owners, dtype=np.intp),
        np.array(classes, dtype=np.intp),
        np.array(levels, dtype=np.intp),
        np.array(proportions, dtype=np.float64),
    )


def load_annotations(path: str, frame: Frame | None = None) -> Corpus:
    with open(path, encoding="utf-8", newline="") as handle:
        return parse_annotations(handle, frame)


def tile_mass(
    annotation: TileAnnotation,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
    frame: Frame | None = None,
) -> MassFunction:
    return build_generalized_m5(annotation, weights, frame)


@dataclass(frozen=True, eq=False)
class ExpertPair:
    """Two experts' generalized-model singleton masses, one row per tile.

    Row r of `a` (the first expert) and `b` (the second) holds the mass on
    each class of `labels` for tile `tiles[r]`; Θ takes each row's
    remainder.  Both arrays are read-only.
    """

    labels: tuple[str, ...]
    experts: tuple[str, str]
    tiles: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray


def expert_pair(
    corpus: Corpus,
    experts: Sequence[str] | None = None,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
) -> ExpertPair:
    """Both experts' singleton masses, built once for every corpus statistic.

    With no `experts` the corpus must hold exactly two.  One `np.add.at`
    per expert adds `proportion × weight(level)` in entry order starting
    from 0.0, as `build_generalized_m5` does, so each entry equals that
    function's class mass before it is assembled into a mass function.
    Rows follow the first appearance of each tile for either expert, so
    swapping the experts swaps the two arrays.  A row sums to at most 1
    up to rounding, since the corpus caps each annotation's proportions
    and no weight exceeds 1.  The closed forms the arrays feed assume disjoint classes, so a free
    frame is refused.
    """
    if experts is None:
        experts = corpus.experts
        if len(experts) != 2:
            raise ValueError(f"corpus has {len(experts)} experts; pass the two to compare")
    experts = tuple(experts)
    if len(experts) != 2:
        raise ValueError(f"an expert pair compares exactly two experts, got {len(experts)}")
    if experts[0] == experts[1]:
        raise ValueError(
            f"an expert pair compares two different experts, got {experts[0]!r} twice"
        )
    frame = corpus.frame
    if frame.model is not Model.SHAFER:
        raise ValueError(
            f"corpus statistics need an exclusive frame, got the {frame.model.value} model"
        )
    keys = corpus.keys
    order: dict[str, int] = {}
    for tile, expert in keys:
        if expert in experts:
            order.setdefault(tile, len(order))
    owned = [[owner for owner, key in enumerate(keys) if key[1] == expert]
             for expert in experts]
    for expert, owners in zip(experts, owned):
        if not owners:
            raise ValueError(f"unknown expert {expert!r}")
    # Keys are distinct, so two experts share their tile set exactly when
    # each annotates every tile of the union.
    if any(len(owners) != len(order) for owners in owned):
        raise ValueError(f"experts {experts[0]!r} and {experts[1]!r} annotate different tiles")
    scale = np.array([0.0] + [weights.weight(level) for level in CERTAINTY_LEVELS])
    share = corpus.proportion * scale[corpus.level]

    def masses(owners: list[int]) -> np.ndarray:
        row_of = np.full(len(keys), -1, dtype=np.intp)
        row_of[owners] = [order[keys[owner][0]] for owner in owners]
        rows = row_of[corpus.owner]
        mine = rows >= 0
        out = np.zeros((len(order), frame.n_classes))
        np.add.at(out, (rows[mine], corpus.class_index[mine]), share[mine])
        out.flags.writeable = False
        return out

    a, b = (masses(owners) for owners in owned)
    return ExpertPair(labels=frame.labels, experts=experts, tiles=tuple(order), a=a, b=b)


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
        return _sum_in_order(_sum_in_order(row) for row in self.values) / self.SCALE

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


def conflict_matrix(pair: ExpertPair) -> ConflictMatrix:
    """Class-pair conflict between the pair's experts, averaged over their tiles."""
    a, b = pair.a, pair.b
    totals = (a[:, :, None] * b[:, None, :]).sum(axis=0)
    np.fill_diagonal(totals, 0.0)
    totals *= ConflictMatrix.SCALE / len(a)
    return ConflictMatrix(
        labels=pair.labels,
        expert_i=pair.experts[0],
        expert_j=pair.experts[1],
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
    pair: ExpertPair,
    rule_a: str = "conjunctive",
    rule_b: str = "pcr6",
) -> DecisionDifference:
    """Fraction of the pair's tiles where the two rules pick different classes.

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
    differing = 0
    if _CLOSED_FORMS[rule_a] != _CLOSED_FORMS[rule_b]:
        choice_conj, choice_pcr, _ = pair_decisions(pair.a, pair.b)
        differing = int(np.count_nonzero(choice_conj != choice_pcr))
    return DecisionDifference(
        rule_a=rule_a,
        rule_b=rule_b,
        tiles=len(pair.tiles),
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
