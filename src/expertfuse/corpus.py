"""Annotation ingest and corpus-level disagreement statistics.

The input format is a flat CSV, one row per declared class part:

    tile_id,expert_id,class,certainty_level,proportion

Rows group by (tile, expert) into annotations; each annotation becomes a
mass function through the generalized proportion-times-certainty model.
On top of that the module offers the class-pair conflict matrix between
two experts and the fraction of tiles on which two combination rules
reach different decisions.  Parsing fills integer columns: the tile and
expert code of each (tile, expert) key, over the distinct ids, and one
column per entry field.  `expert_pair` selects both experts' keys and
builds their mass arrays from those columns once, with numpy, and both
statistics read them.

Two readers fill the columns.  Plain text (the header as written above,
printable ASCII without quotes, "\n" line ends, five fields on every
line), as `generate_demo_corpus` writes it, goes to the columnar reader:
one `np.loadtxt` call splits and converts it, whole-array compares
map its classes and levels, and `np.unique` codes its ids, so only
distinct ids meet Python.  Everything else (quoted, padded, CRLF or
non-ASCII text) goes to the row loop, as does plain text the columnar
reader finds a fault in: the row loop is the reference and names the
line of the first fault.  It strips and converts each row's
fields in one plain pass.  A fault is named by the line its row ends on,
so a row after a quoted field that spans lines keeps its line number in
the file.  Both give the same corpus.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .expert_models import (
    CERTAINTY_LEVELS,
    DEFAULT_WEIGHTS,
    AnnotationEntry,
    CertaintyWeights,
    TileAnnotation,
    _check_key,
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
_KEY_COLUMNS = (
    ("key_tile", np.intp, "iu"),
    ("key_expert", np.intp, "iu"),
)
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


def _check_names(field: str, names: Sequence[str]) -> tuple[str, ...]:
    """`names` as a tuple, refused unless its ids are distinct non-empty strings."""
    if isinstance(names, str):  # a str would split into one-character ids
        raise ValueError(f"{field} must be a sequence of ids, got the str {names!r}")
    names = tuple(names)
    if not all(map(isinstance, names, repeat(str))) or "" in names:
        bad = next(name for name in names if not isinstance(name, str) or not name)
        raise ValueError(f"{field} must hold non-empty strings, got {bad!r}")
    if len(set(names)) != len(names):
        twice = next(name for name, count in Counter(names).items() if count > 1)
        raise ValueError(f"{field} must be distinct, got {twice!r} twice")
    return names


def _check_columns(group: str, spec: tuple, given: Sequence[object]) -> list[np.ndarray]:
    """Each array of `given`, refused unless one-dimensional, of its kind and one length."""
    columns = []
    for (name, _, kinds), value in zip(spec, given):
        array = np.asarray(value)
        if array.ndim != 1 or array.dtype.kind not in kinds:
            raise ValueError(
                f"{name} must be a one-dimensional {'integer' if kinds == 'iu' else 'numeric'}"
                f" array, got {array.dtype} with shape {array.shape}"
            )
        columns.append(array)
    if len({len(array) for array in columns}) > 1:
        raise ValueError(f"{group} differ in length: " + ", ".join(
            f"{name} {len(array)}" for (name, _, _), array in zip(spec, columns)))
    return columns


def _check_first_appearance(codes: np.ndarray, field: str, code_field: str,
                            names: tuple[str, ...]) -> None:
    """Refuse codes that do not number `names` in order of first appearance.

    Each code may exceed the largest before it by at most one, so code k
    first appears after code k - 1; the largest code must then reach the
    last name, so every name is used.
    """
    used = 0
    if len(codes):
        top = np.maximum.accumulate(codes)
        before = np.concatenate(([-1], top[:-1]))
        early = np.flatnonzero(codes > before + 1)
        if len(early):
            k = early[0]
            raise ValueError(f"{code_field} must number the {field} in order of first "
                             f"appearance, got {codes[k].item()} before {before[k].item() + 1}")
        used = top[-1].item() + 1
    if used < len(names):
        raise ValueError(f"{field} holds {names[used]!r}, which no key uses")


@dataclass(frozen=True, eq=False, repr=False)
class Corpus:
    """Validated annotations over one frame, one read-only array per key and entry field.

    `tiles` and `experts` hold the distinct ids in order of first
    appearance over the annotations; annotation k is tile
    `tiles[key_tile[k]]` by expert `experts[key_expert[k]]`, and `keys`
    spells those (tile, expert) pairs out when read.  The entry arrays
    hold one element per entry in file order: `owner` is the index of its
    annotation, then its class index in the frame, certainty level and
    proportion.  Build a corpus with `parse_annotations`, from its
    columns, or with `from_keys` from (tile, expert) pairs; the
    `TileAnnotation` objects are built only when `annotations` is read.
    Built directly, a corpus refuses an id that is not a non-empty
    string, an id listed twice, codes outside their names, codes that do
    not number the names in order of first appearance or leave a name
    unused, a repeated (tile, expert) pair, columns that do not fit its
    keys and frame, and an annotation whose proportions sum past 1; it
    keeps a read-only copy of every writable array.  Every check is one
    numpy pass, or one Python step per distinct id.
    """

    frame: Frame
    tiles: tuple[str, ...]
    experts: tuple[str, ...]
    key_tile: np.ndarray
    key_expert: np.ndarray
    owner: np.ndarray
    class_index: np.ndarray
    level: np.ndarray
    proportion: np.ndarray

    def __post_init__(self) -> None:
        tiles = _check_names("tiles", self.tiles)
        experts = _check_names("experts", self.experts)
        object.__setattr__(self, "tiles", tiles)
        object.__setattr__(self, "experts", experts)
        key_tile, key_expert = _check_columns(
            "key columns", _KEY_COLUMNS, (self.key_tile, self.key_expert))
        _refuse_outside(key_tile, 0, len(tiles) - 1, f"key_tile must index the {len(tiles)} tiles")
        _refuse_outside(key_expert, 0, len(experts) - 1,
                        f"key_expert must index the {len(experts)} experts")
        key_tile, key_expert = self._hold(_KEY_COLUMNS, (key_tile, key_expert))
        _check_first_appearance(key_tile, "tiles", "key_tile", tiles)
        _check_first_appearance(key_expert, "experts", "key_expert", experts)
        n_keys = len(key_tile)
        _, first, counts = np.unique(key_tile * len(experts) + key_expert,
                                     return_index=True, return_counts=True)
        if len(first) != n_keys:
            twice = self._key(first[counts > 1].min())
            raise ValueError(f"keys must be distinct, got {twice!r} twice")
        owner, class_index, level, proportion = _check_columns(
            "columns", _COLUMNS, [getattr(self, name) for name, _, _ in _COLUMNS])
        _refuse_outside(owner, 0, n_keys - 1, f"owner must index the {n_keys} keys")
        _refuse_outside(class_index, 0, self.frame.n_classes - 1,
                        f"class_index must index the {self.frame.n_classes} classes")
        _refuse_outside(level, CERTAINTY_LEVELS[0], CERTAINTY_LEVELS[-1],
                        "level must be 1, 2 or 3")
        _refuse_outside(proportion, 0.0, 1.0, "proportion must lie in [0, 1]")
        self._hold(_COLUMNS, (owner, class_index, level, proportion))
        # bincount adds in entry order from 0.0, as parsing and TileAnnotation do
        sums = np.bincount(self.owner, weights=self.proportion, minlength=n_keys)
        over = np.flatnonzero(sums > 1.0 + SUM_TOLERANCE)
        if len(over):
            tile, expert = self._key(over[0])
            raise ValueError(f"proportions for tile {tile!r} by expert {expert!r} "
                             f"sum to {sums[over[0]].item()!r} > 1")

    def _hold(self, spec: tuple, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Set each field of `spec` to its array, as a read-only array of its dtype."""
        held = []
        for (name, dtype, _), array in zip(spec, arrays):
            if array.dtype != dtype or array.flags.writeable:
                array = array.astype(dtype)
                array.flags.writeable = False
            object.__setattr__(self, name, array)
            held.append(array)
        return held

    @classmethod
    def from_keys(
        cls,
        frame: Frame,
        keys: Sequence[tuple[str, str]],
        owner: object,
        class_index: object,
        level: object,
        proportion: object,
    ) -> Corpus:
        """A corpus from one (tile, expert) pair per annotation and the entry columns.

        Each pair must be a tuple of two non-empty strings; ids take codes
        in order of first appearance.
        """
        tiles: dict[str, int] = {}
        experts: dict[str, int] = {}
        key_tile = []
        key_expert = []
        for key in keys:
            _check_key(key)
            key_tile.append(tiles.setdefault(key[0], len(tiles)))
            key_expert.append(experts.setdefault(key[1], len(experts)))
        return cls(frame, tuple(tiles), tuple(experts), np.array(key_tile, dtype=np.intp),
                   np.array(key_expert, dtype=np.intp), owner, class_index, level, proportion)

    def _key(self, k: int) -> tuple[str, str]:
        return self.tiles[self.key_tile[k]], self.experts[self.key_expert[k]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.frame == other.frame and self.annotations == other.annotations

    def __hash__(self) -> int:
        return hash((self.frame, self.annotations))

    def __repr__(self) -> str:
        return f"Corpus(frame={self.frame!r}, annotations=<{len(self.key_tile)} annotations>)"

    @cached_property
    def keys(self) -> tuple[tuple[str, str], ...]:
        """The (tile, expert) pair of each annotation, in order of first appearance."""
        tiles, experts = self.tiles, self.experts
        return tuple((tiles[t], experts[e])
                     for t, e in zip(self.key_tile.tolist(), self.key_expert.tolist()))

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

    def annotation(self, tile_id: str, expert_id: str) -> TileAnnotation:
        try:
            return self._index[(tile_id, expert_id)]
        except KeyError:
            raise KeyError(
                f"no annotation for tile {tile_id!r} by expert {expert_id!r}"
            ) from None


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each csv row of `text` with the line it ends on.

    The text splits into lines as a file opened with ``newline=""`` does.
    A quoted field may span lines, so the line is the reader's count, not
    the row's.  A csv.Error becomes a CorpusError on its line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise CorpusError(f"line {reader.line_num}: {exc}") from None


def _read_rows(text: str, frame: Frame) -> Corpus:
    """The row loop: any CSV text, and the line of its first fault."""
    rows = _csv_rows(text)
    try:
        _, header = next(rows)
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
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise CorpusError(f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}")
        tile_id, expert_id, label, level_text, proportion_text = map(str.strip, row)
        k = class_of.get(label)
        if k is None:
            raise CorpusError(f"line {lineno}: unknown class {label!r}")
        try:
            level = int(level_text)
        except ValueError:
            raise CorpusError(f"line {lineno}: certainty level {level_text!r} "
                              "is not an integer") from None
        if level not in CERTAINTY_LEVELS:
            raise CorpusError(f"line {lineno}: certainty level must be 1, 2 or 3, got {level}")
        try:
            proportion = float(proportion_text)
        except ValueError:
            raise CorpusError(f"line {lineno}: proportion {proportion_text!r} "
                              "is not a number") from None
        if not 0.0 <= proportion <= 1.0:
            raise CorpusError(f"line {lineno}: proportion must lie in [0, 1], got {proportion}")
        key = (tile_id, expert_id)
        owner = ids.get(key)
        if owner is None:
            if not tile_id:
                raise CorpusError(f"line {lineno}: empty tile id")
            if not expert_id:
                raise CorpusError(f"line {lineno}: empty expert id")
            owner = ids[key] = len(sums)
            sums.append(0.0)
        new_sum = sums[owner] + proportion
        if new_sum > 1.0 + SUM_TOLERANCE:
            raise CorpusError(
                f"line {lineno}: proportions for tile {tile_id!r} by expert "
                f"{expert_id!r} sum to {new_sum!r} > 1"
            )
        sums[owner] = new_sum
        owners.append(owner)
        classes.append(k)
        levels.append(level)
        proportions.append(proportion)
    return Corpus.from_keys(
        frame,
        tuple(ids),
        np.array(owners, dtype=np.intp),
        np.array(classes, dtype=np.intp),
        np.array(levels, dtype=np.intp),
        np.array(proportions, dtype=np.float64),
    )


# Plain text: the header line as written, then printable ASCII without
# quotes, lines ending in "\n".
_PLAIN_HEADER = (",".join(CSV_HEADER) + "\n").encode("ascii")
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
# The separators that end the five fields of a plain line.
_LINE_ENDS = np.frombuffer(b",,,,\n", dtype=np.uint8)
# loadtxt gives every entry its column's widest field, so one long field
# can make the table far larger than the text.  The table may take this
# many times the text's bytes, or 1 MiB on a small text.
_TABLE_BYTES_PER_TEXT_BYTE = 4
_TABLE_BYTES_FLOOR = 1 << 20


def _field_widths(body: np.ndarray) -> list[int] | None:
    """The widest of each of the five fields over the lines of `body`.

    `body` holds the bytes after the header, ending in a newline.  None
    unless every line holds exactly five fields, so also on a blank line.
    """
    fields = len(_LINE_ENDS)
    ends = np.flatnonzero((body == _LINE_ENDS[0]) | (body == _LINE_ENDS[-1]))
    if len(ends) % fields or (body[ends].reshape(-1, fields) != _LINE_ENDS).any():
        return None
    ends = ends.reshape(-1, fields)
    # A field starts one byte past the separator before it.  One column at
    # a time keeps the temporaries at one entry per line.
    before = np.concatenate(([-1], ends[:-1, -1]))
    widths = []
    for field in range(fields):
        widths.append(int((ends[:, field] - before).max()) - 1)
        before = ends[:, field]
    return widths


def _id_codes(raw: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct stripped ids of `raw` in order of first appearance, and each one's code.

    Only the distinct raw ids are stripped and decoded; raw ids that strip
    to the same id share its code.
    """
    distinct, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first)
    # Plain ids hold no newline, so one join and one split decode them all.
    names = list(map(str.strip, b"\n".join(distinct[order].tolist()).decode().split("\n")))
    ids = dict(zip(dict.fromkeys(names), range(len(names))))
    code = np.empty(len(distinct), dtype=np.intp)
    code[order] = list(map(ids.__getitem__, names))
    return tuple(ids), code[inverse]


def _read_plain(text: str, frame: Frame) -> Corpus | None:
    """The columnar reader: plain CSV text in one `np.loadtxt` pass.

    It reads only text whose header is written exactly as `CSV_HEADER`,
    whose other bytes are printable ASCII other than `"` or newlines, and
    whose lines hold five fields each.  It returns None, so that the row
    loop reads the text and names the line of its first fault, for any
    other text, for a field past the csv module's size limit, for string
    columns far larger than the text, and for any field or group the
    row loop would refuse; the `Corpus` constructor refuses those.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    # The header alone goes to the row loop too: loadtxt warns on no rows.
    if (data.translate(None, _PLAIN_BYTES) or not data.startswith(_PLAIN_HEADER)
            or len(data) == len(_PLAIN_HEADER)):
        return None
    widths = _field_widths(np.frombuffer(data, dtype=np.uint8)[len(_PLAIN_HEADER):])
    if widths is None or max(widths) > csv.field_size_limit():
        return None
    # An all-empty column still takes S1: S0 would let loadtxt pick a width.
    dtype = np.dtype([(name, f"S{max(width, 1)}")
                      for name, width in zip(CSV_HEADER, widths[:-1])]
                     + [(CSV_HEADER[-1], np.float64)])
    n_rows = data.count(b"\n") - 1
    if n_rows * dtype.itemsize > max(_TABLE_BYTES_PER_TEXT_BYTE * len(data), _TABLE_BYTES_FLOOR):
        return None
    try:
        table = np.loadtxt(io.BytesIO(data), dtype=dtype, delimiter=",", comments=None,
                           quotechar=None, skiprows=1, encoding="ascii", ndmin=1)
    except ValueError:
        return None
    labels = table["class"]
    class_index = np.full(len(table), -1, dtype=np.intp)
    for k, label in enumerate(frame.labels):
        if label.isascii():
            class_index[labels == label.encode("ascii")] = k
    level_texts = table["certainty_level"]
    level = np.zeros(len(table), dtype=np.intp)
    for value in CERTAINTY_LEVELS:
        level[level_texts == str(value).encode("ascii")] = value
    # One key per run of rows that repeat the (tile, expert) text, since
    # rows of one annotation usually follow each other.
    tile, expert = table["tile_id"], table["expert_id"]
    run_start = np.ones(len(table), dtype=bool)
    run_start[1:] = (tile[1:] != tile[:-1]) | (expert[1:] != expert[:-1])
    tiles, run_tile = _id_codes(tile[run_start])
    experts, run_expert = _id_codes(expert[run_start])
    pairs, first, run_key = np.unique(run_tile * len(experts) + run_expert,
                                      return_index=True, return_inverse=True)
    # Number the keys, like the ids, in order of first appearance.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    owner = rank[run_key][np.cumsum(run_start) - 1]
    try:
        return Corpus(frame, tiles, experts, pairs[order] // len(experts),
                      pairs[order] % len(experts), owner, class_index, level,
                      table["proportion"])
    except ValueError:  # an unknown class or level (-1, 0), a range, an empty id, a sum
        return None


def parse_annotations(text: str, frame: Frame | None = None) -> Corpus:
    """Read and validate annotation CSV text.

    Every failure names the offending 1-based line: a bad header, a wrong
    column count, an unknown class, a non-integer certainty level, a
    proportion outside [0, 1], an empty tile or expert id, a (tile,
    expert) group whose proportions climb past 1, or text the csv module
    cannot split.  The text splits into lines as a file opened with
    ``newline=""`` does.  Plain text goes to the columnar reader
    (`_read_plain`); any other text, and any text it hands over, to the
    row loop (`_read_rows`), which yields the same corpus.
    """
    if not isinstance(text, str):
        raise TypeError(f"annotation text must be a str, got {type(text).__name__}")
    if frame is None:
        frame = sediment_frame()
    return _read_plain(text, frame) or _read_rows(text, frame)


def load_annotations(path: str) -> Corpus:
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    return parse_annotations(text)


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
    owned = []
    for expert in experts:
        if expert not in corpus.experts:
            raise ValueError(f"unknown expert {expert!r}")
        owned.append(corpus.key_expert == corpus.experts.index(expert))
    # Rows follow the first key of each tile for either expert.
    tile_codes, first = np.unique(corpus.key_tile[owned[0] | owned[1]], return_index=True)
    row_tiles = tile_codes[np.argsort(first)]
    # Keys are distinct, so two experts share their tile set exactly when
    # each annotates every tile of the union.
    if any(np.count_nonzero(mine) != len(row_tiles) for mine in owned):
        raise ValueError(f"experts {experts[0]!r} and {experts[1]!r} annotate different tiles")
    row_of_tile = np.full(len(corpus.tiles), -1, dtype=np.intp)
    row_of_tile[row_tiles] = np.arange(len(row_tiles))
    key_row = row_of_tile[corpus.key_tile]
    scale = np.array([0.0] + [weights.weight(level) for level in CERTAINTY_LEVELS])
    share = corpus.proportion * scale[corpus.level]

    def masses(mine: np.ndarray) -> np.ndarray:
        rows = np.where(mine, key_row, -1)[corpus.owner]
        entries = rows >= 0
        out = np.zeros((len(row_tiles), frame.n_classes))
        np.add.at(out, (rows[entries], corpus.class_index[entries]), share[entries])
        out.flags.writeable = False
        return out

    a, b = (masses(mine) for mine in owned)
    tiles = tuple(map(corpus.tiles.__getitem__, row_tiles.tolist()))
    return ExpertPair(labels=frame.labels, experts=experts, tiles=tiles, a=a, b=b)


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
