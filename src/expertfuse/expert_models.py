"""Turning expert statements about a tile into mass functions.

Five small models cover the two-class case (a tile showing class A, class B,
or both), differing in where they park the expert's ignorance and whether
"both" gets its own exclusive class, an added artificial class, or the
conjunction A∩B of a free frame.  The generalized model extends the
proportion-times-certainty recipe to any number of classes, with certainty
quantized to three levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .lattice import Frame, Model, _check_label, make_frame
from .mass import SUM_TOLERANCE, MassFunction, World, _sum_in_order, mass_from_entries
from .mass import _check_fraction, _check_integer


class DeclarationKind(enum.Enum):
    SAYS_A = "says-A"
    SAYS_B = "says-B"
    SAYS_BOTH = "says-both"


@dataclass(frozen=True)
class ExpertDeclaration:
    """One expert's statement about one tile over two candidate classes.

    ``p_a``/``p_b`` are the declared proportions of the tile covered by each
    class, ``c_a``/``c_b`` the expert's certainty about each statement.
    Single-class declarations carry the whole tile (p = 1); a "both"
    declaration splits it (p_a + p_b = 1).
    """

    kind: DeclarationKind
    p_a: float
    p_b: float
    c_a: float
    c_b: float

    def __post_init__(self) -> None:
        for name in ("p_a", "p_b", "c_a", "c_b"):
            _check_fraction(name, getattr(self, name))
        if self.kind is DeclarationKind.SAYS_A and self.p_a != 1.0:
            raise ValueError("a says-A declaration covers the whole tile (p_a = 1)")
        if self.kind is DeclarationKind.SAYS_B and self.p_b != 1.0:
            raise ValueError("a says-B declaration covers the whole tile (p_b = 1)")
        if (self.kind is DeclarationKind.SAYS_BOTH
                and abs(self.p_a + self.p_b - 1.0) > SUM_TOLERANCE):
            raise ValueError("says-both proportions must sum to 1")

    @classmethod
    def says_a(cls, certainty: float) -> "ExpertDeclaration":
        return cls(DeclarationKind.SAYS_A, 1.0, 0.0, certainty, 0.0)

    @classmethod
    def says_b(cls, certainty: float) -> "ExpertDeclaration":
        return cls(DeclarationKind.SAYS_B, 0.0, 1.0, 0.0, certainty)

    @classmethod
    def says_both(cls, p_a: float, c_a: float, c_b: float) -> "ExpertDeclaration":
        return cls(DeclarationKind.SAYS_BOTH, p_a, 1.0 - p_a, c_a, c_b)


def _frame_abc() -> Frame:
    return make_frame(("A", "B", "C"), Model.SHAFER)


def _frame_primed() -> Frame:
    return make_frame(("A'", "B'", "C'"), Model.SHAFER)


def _frame_ab(model: Model) -> Frame:
    return make_frame(("A", "B"), model)


def _two_class_mass(
    d: ExpertDeclaration, frame: Frame, says: tuple[str, str, str], ignorance: str
) -> MassFunction:
    """The declared element, by kind, with its weight; the rest on `ignorance`."""
    says_a, says_b, says_both = says
    if d.kind is DeclarationKind.SAYS_A:
        seen, weight = says_a, d.c_a
    elif d.kind is DeclarationKind.SAYS_B:
        seen, weight = says_b, d.c_b
    else:
        seen, weight = says_both, d.p_a * d.c_a + d.p_b * d.c_b
    return mass_from_entries(frame, [(seen, weight), (ignorance, 1.0 - weight)])


def build_m1(d: ExpertDeclaration) -> MassFunction:
    """Third exclusive class for "both"; ignorance on the full frame."""
    return _two_class_mass(d, _frame_abc(), ("A", "B", "C"), "Θ")


def build_m2(d: ExpertDeclaration) -> MassFunction:
    """Like the first model, but ignorance restricted to A∪B."""
    return _two_class_mass(d, _frame_abc(), ("A", "B", "C"), "A∪B")


def build_m3(d: ExpertDeclaration) -> MassFunction:
    """Exclusive three-class reading where C' stands for the overlap.

    Saying "A" supports A'∪C' (pure A or mixed), saying "both" supports C'
    alone, and the remainder stays on the full frame.
    """
    return _two_class_mass(d, _frame_primed(), ("A'∪C'", "B'∪C'", "C'"), "Θ")


def build_m4(d: ExpertDeclaration) -> MassFunction:
    """Free two-class frame; "both" lands on the conjunction A∩B."""
    return _two_class_mass(d, _frame_ab(Model.FREE), ("A", "B", "A∩B"), "A∪B")


def build_m5(d: ExpertDeclaration, model: Model = Model.SHAFER) -> MassFunction:
    """Each class keeps its own weighted share; remainder on A∪B."""
    frame = _frame_ab(model)
    a = d.p_a * d.c_a
    b = d.p_b * d.c_b
    return mass_from_entries(
        frame, [("A", a), ("B", b), ("A∪B", 1.0 - a - b)]
    )


SEDIMENT_CLASSES = ("rock", "cobble", "sand", "silt", "ripple", "shadow", "other")

CERTAINTY_LEVELS = (1, 2, 3)


def _check_level(level: object) -> None:
    """Refuse a certainty level that is not the integer 1, 2 or 3; a bool included."""
    _check_integer("certainty level", level)
    if level not in CERTAINTY_LEVELS:
        raise ValueError(f"certainty level must be 1, 2 or 3, got {level!r}")


@dataclass(frozen=True)
class CertaintyWeights:
    """Weights for the three spoken certainty levels, sure first."""

    c1: float = 2.0 / 3.0
    c2: float = 1.0 / 2.0
    c3: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3"):
            _check_fraction(f"certainty weight {name}", getattr(self, name))
        if not 0.0 < self.c3 <= self.c2 <= self.c1:
            raise ValueError("certainty weights must satisfy 0 < c3 <= c2 <= c1 <= 1, got "
                             f"c1={self.c1!r}, c2={self.c2!r}, c3={self.c3!r}")

    def weight(self, level: int) -> float:
        _check_level(level)
        return (self.c1, self.c2, self.c3)[level - 1]


DEFAULT_WEIGHTS = CertaintyWeights()


class AnnotationEntry(NamedTuple):
    label: str
    level: int
    proportion: float


def _check_key(key: object) -> None:
    """Refuse a `key` that is not a (tile, expert) tuple of two non-empty strings."""
    if (type(key) is not tuple or len(key) != 2
            or not isinstance(key[0], str) or not isinstance(key[1], str)):
        raise ValueError(f"keys must be (tile, expert) pairs of two strings, got {key!r}")
    if not (key[0] and key[1]):
        raise ValueError(f"keys must not hold an empty tile or expert id, got {key!r}")


@dataclass(frozen=True)
class TileAnnotation:
    """One expert's statement about one tile: class parts with certainty."""

    tile_id: str
    expert_id: str
    entries: tuple[AnnotationEntry, ...]

    def __post_init__(self) -> None:
        _check_key((self.tile_id, self.expert_id))
        object.__setattr__(
            self, "entries", tuple(AnnotationEntry(*e) for e in self.entries)
        )
        total = 0.0
        for entry in self.entries:
            _check_label(entry.label)
            _check_level(entry.level)
            _check_fraction("proportion", entry.proportion)
            total += entry.proportion
        if total > 1.0 + SUM_TOLERANCE:
            raise ValueError(
                f"proportions for tile {self.tile_id!r} by expert "
                f"{self.expert_id!r} sum to {total!r} > 1"
            )


def sediment_frame() -> Frame:
    return make_frame(SEDIMENT_CLASSES, Model.SHAFER)


def build_generalized_m5(
    tile: TileAnnotation,
    weights: CertaintyWeights = DEFAULT_WEIGHTS,
    frame: Frame | None = None,
) -> MassFunction:
    """Proportion-times-certainty mass per declared class, remainder on Θ.

    The same class may appear at several certainty levels; its shares add.
    """
    if frame is None:
        frame = sediment_frame()
    per_class: dict[str, float] = {}
    for label, level, proportion in tile.entries:
        frame.label_index(label)  # unknown labels fail here
        per_class[label] = per_class.get(label, 0.0) + proportion * weights.weight(level)
    total = _sum_in_order(per_class.values())
    entries: list[tuple[str, float]] = list(per_class.items())
    entries.append(("Θ", max(1.0 - total, 0.0)))
    return mass_from_entries(frame, entries, World.CLOSED)

