"""Frames of discernment and the elements masses can sit on.

A frame fixes the class labels and the model of the world.  Under the
exclusive model (Shafer) the classes are disjoint and elements live in the
power set of the frame.  Under the free model nothing is assumed disjoint
and elements live in the lattice generated by the classes under union and
intersection.

Both cases reduce to subsets of a fixed universe of Venn cells:

* exclusive model: one cell per class,
* free model: one cell per non-empty subset T of classes (the region of
  points belonging to exactly the classes in T).

An element is a set of cells, stored as an int bitmask.  In the free model
the cell for subset mask ``t`` (1-based over class bitmasks) sits at bit
``t - 1``.  Valid free-model elements are exactly the cell sets closed
upward under label inclusion: if the cell labelled T is present, every
cell labelled by a superset of T is present too.  Meet and join are then
plain bitwise AND / OR, and the cardinality used by the generalized
pignistic transform is the cell count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

EMPTY_TEXT = "∅"   # ∅
THETA_TEXT = "Θ"   # Θ
MEET_TEXT = "∩"    # ∩
JOIN_TEXT = "∪"    # ∪

_RESERVED_IN_LABELS = (MEET_TEXT, JOIN_TEXT, ",")

_FREE_ENUMERATION_LIMIT = 4

# Most classes a free frame may have.  Its 2ⁿ − 1 cells make the full mask
# and every atom mask 2ⁿ − 1 bits wide, and building an atom walks all 2ⁿ
# label masks: one atom took ~7 ms at 12 classes, ~0.2 s at 16 and ~5 s at
# 18, and 26 classes never finish.
_FREE_FRAME_LIMIT = 12

# Most entries each per-frame text memo holds; past it, results are
# computed without being stored.  An entry depends only on the frame and
# its key, so callers racing on one memo at worst store it twice.
_MEMO_LIMIT = 4096


class Model(enum.Enum):
    """World model of a frame: exclusive classes or no exclusivity at all."""

    SHAFER = "shafer"
    FREE = "free"


def _validate_labels(labels: tuple[str, ...]) -> None:
    if not labels:
        raise ValueError("a frame needs at least one class label")
    seen = set()
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValueError("class labels must be non-empty strings")
        if label in (EMPTY_TEXT, THETA_TEXT):
            raise ValueError(f"label {label!r} is reserved")
        if any(ch in label for ch in _RESERVED_IN_LABELS):
            raise ValueError(f"label {label!r} contains a reserved character")
        if label in seen:
            raise ValueError(f"duplicate class label {label!r}")
        seen.add(label)


@dataclass(frozen=True)
class Frame:
    """Ordered class labels plus the model they are interpreted under.

    ``n_cells``, ``full_mask`` and the label index are fixed at
    construction; a free frame holds 2ⁿ − 1 cells, so one with more than
    ``_FREE_FRAME_LIMIT`` classes is refused.  Each frame also memoizes
    the text of the masks it formats and the mask of the texts it parses,
    up to ``_MEMO_LIMIT`` entries each.
    """

    labels: tuple[str, ...]
    model: Model = Model.SHAFER

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        _validate_labels(labels)
        if not isinstance(self.model, Model):
            raise TypeError("model must be a Model")
        if self.model is Model.SHAFER:
            n_cells = len(labels)
        elif len(labels) > _FREE_FRAME_LIMIT:
            raise ValueError(
                f"free frames support at most {_FREE_FRAME_LIMIT} classes "
                f"({len(labels)} given)"
            )
        else:
            n_cells = (1 << len(labels)) - 1
        object.__setattr__(self, "n_cells", n_cells)
        object.__setattr__(self, "full_mask", (1 << n_cells) - 1)
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(labels)})
        object.__setattr__(self, "_text_of_mask", {})
        object.__setattr__(self, "_mask_of_text", {})

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @cached_property
    def _atom_masks(self) -> tuple[int, ...]:
        """Cell mask of each class on its own, in label order."""
        if self.model is Model.SHAFER:
            return tuple(1 << i for i in range(self.n_classes))
        masks = []
        for index in range(self.n_classes):
            mask = 0
            for t in range(1, (1 << self.n_classes)):
                if t & (1 << index):
                    mask |= 1 << (t - 1)
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def _lacking(self) -> tuple[int, ...]:
        """Per class, the cells whose label lacks it.

        Adding class i to the label of cell t (bit t − 1) gives cell
        t | 2ⁱ, which sits 2ⁱ bits higher when t lacks i.
        """
        return tuple(self.full_mask & ~atom for atom in self._atom_masks)

    @cached_property
    def _atoms(self) -> tuple["FocalElement", ...]:
        return tuple(FocalElement(self, mask) for mask in self._atom_masks)

    def label_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown class label {label!r}") from None

    def atom(self, index: int) -> "FocalElement":
        """The element carrying class ``index`` on its own."""
        if not 0 <= index < self.n_classes:
            raise ValueError(f"class index {index} out of range")
        return self._atoms[index]

    def atoms(self) -> tuple["FocalElement", ...]:
        return self._atoms

    def empty(self) -> "FocalElement":
        return FocalElement(self, 0)

    def theta(self) -> "FocalElement":
        return FocalElement(self, self.full_mask)

    def parse_element(self, text: str) -> "FocalElement":
        return parse_element(self, text)

    def __repr__(self) -> str:
        names = ",".join(self.labels)
        return f"Frame([{names}], {self.model.value})"


def _supersets_by_one(frame: Frame, mask: int) -> int:
    """Cells whose label adds one class to the label of a cell in mask."""
    out = 0
    for i, lacking in enumerate(frame._lacking):
        out |= (mask & lacking) << (1 << i)
    return out


def _is_upward_closed(frame: Frame, mask: int) -> bool:
    # Closure under single-class label extensions implies full closure.
    return _supersets_by_one(frame, mask) & ~mask == 0


@dataclass(frozen=True)
class FocalElement:
    """A set of Venn cells of a frame, encoded as a bitmask."""

    frame: Frame
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.frame.full_mask:
            raise ValueError("cell mask outside the frame universe")
        if self.frame.model is Model.FREE and not _is_upward_closed(self.frame, self.mask):
            raise ValueError(
                "not a valid free-model element: cell set is not upward-closed"
            )

    # A non-element operand gets NotImplemented, so Python raises TypeError.
    # Python reflects `>=` and `>` to `<=` and `<`.
    def __and__(self, other: "FocalElement") -> "FocalElement":
        if not isinstance(other, FocalElement):
            return NotImplemented
        self._require_same_frame(other)
        return FocalElement(self.frame, self.mask & other.mask)

    def __or__(self, other: "FocalElement") -> "FocalElement":
        if not isinstance(other, FocalElement):
            return NotImplemented
        self._require_same_frame(other)
        return FocalElement(self.frame, self.mask | other.mask)

    def __le__(self, other: "FocalElement") -> bool:
        if not isinstance(other, FocalElement):
            return NotImplemented
        self._require_same_frame(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "FocalElement") -> bool:
        if not isinstance(other, FocalElement):
            return NotImplemented
        return self <= other and self.mask != other.mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def _require_same_frame(self, other: "FocalElement") -> None:
        if self.frame is not other.frame and self.frame != other.frame:
            raise ValueError("elements belong to different frames")

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def make_frame(labels: Iterable[str], model: Model | str = Model.SHAFER) -> Frame:
    """The frame of these labels and model; equal requests share one object."""
    if isinstance(model, str):
        model = Model(model)
    labels = tuple(labels)
    try:
        return _interned_frame(labels, model)
    except TypeError:  # an unhashable label: let Frame say what is wrong
        return Frame(labels, model)


@lru_cache(maxsize=1024)
def _interned_frame(labels: tuple[str, ...], model: Model) -> Frame:
    return Frame(labels, model)


def enumerate_elements(frame: Frame, include_empty: bool = False) -> list[FocalElement]:
    """All elements of the frame's lattice in ascending mask order.

    Exclusive model: every subset of the class cells.  Free model: every
    upward-closed cell set; the universe doubles per cell, so this is
    restricted to frames of at most four classes.
    """
    if frame.model is Model.FREE and frame.n_classes > _FREE_ENUMERATION_LIMIT:
        raise ValueError(
            "free-model enumeration supports at most "
            f"{_FREE_ENUMERATION_LIMIT} classes ({frame.n_classes} given)"
        )
    out = []
    for mask in range(frame.full_mask + 1):
        if mask == 0 and not include_empty:
            continue
        if frame.model is Model.FREE and not _is_upward_closed(frame, mask):
            continue
        out.append(FocalElement(frame, mask))
    return out


def _minimal_cells(frame: Frame, mask: int) -> list[int]:
    """Label masks of the cells minimal under label inclusion.

    On a free frame ``mask`` must be upward-closed: a cell is then minimal
    exactly when no cell one class smaller is present.
    """
    if frame.model is Model.SHAFER:
        return [1 << i for i in range(frame.n_cells) if mask & (1 << i)]
    remaining = mask & ~_supersets_by_one(frame, mask)
    labels = []
    while remaining:
        low = remaining & -remaining
        labels.append(low.bit_length())
        remaining ^= low
    return labels


def format_element(element: FocalElement) -> str:
    """Canonical text form: ∩ binds within groups, ∪ joins the groups."""
    memo = element.frame._text_of_mask
    text = memo.get(element.mask)
    if text is None:
        text = _mask_text(element.frame, element.mask)
        if len(memo) < _MEMO_LIMIT:
            memo[element.mask] = text
    return text


def _mask_text(frame: Frame, mask: int) -> str:
    if mask == 0:
        return EMPTY_TEXT
    if mask == frame.full_mask:
        return THETA_TEXT
    if frame.model is Model.SHAFER:
        return JOIN_TEXT.join(label for i, label in enumerate(frame.labels) if mask >> i & 1)
    groups = []
    for t in _minimal_cells(frame, mask):
        groups.append([i for i in range(frame.n_classes) if t & (1 << i)])
    groups.sort()
    return JOIN_TEXT.join(MEET_TEXT.join(frame.labels[i] for i in g) for g in groups)


def parse_element(frame: Frame, text: str) -> FocalElement:
    """Parse the canonical text form back into an element.

    Accepts class names combined with ∩ and ∪ (∩ binding tighter), plus the
    two constants ∅ and Θ.  Whitespace around tokens is ignored.
    """
    memo = frame._mask_of_text
    mask = memo.get(text)
    if mask is None:
        mask = _text_mask(frame, text)
        if len(memo) < _MEMO_LIMIT:
            memo[text] = mask
    return FocalElement(frame, mask)


def _text_mask(frame: Frame, text: str) -> int:
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty element text")
    if stripped == EMPTY_TEXT:
        return 0
    if stripped == THETA_TEXT:
        return frame.full_mask
    mask = 0
    for group in stripped.split(JOIN_TEXT):
        group_mask = frame.full_mask
        for token in group.split(MEET_TEXT):
            name = token.strip()
            if not name:
                raise ValueError(f"malformed element text {text!r}")
            group_mask &= frame._atom_masks[frame.label_index(name)]
        mask |= group_mask
    return mask
