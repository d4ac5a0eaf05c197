"""Basic belief assignments over a frame.

A mass function maps focal elements to weights summing to one.  Closed-world
masses forbid weight on the empty element; open-world masses keep whatever
the unnormalized conjunctive rule left there.  Focal maps stay sparse: after
validation, entries below the pruning threshold are dropped and the rest is
rescaled proportionally.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

from .lattice import FocalElement, Frame, Model, format_element, make_frame, parse_element

SUM_TOLERANCE = 1e-9
PRUNE_THRESHOLD = 1e-12


# The keys `MassFunction.to_json_dict` writes; `world` may be left out.
_JSON_KEYS = frozenset(("frame", "model", "world", "masses"))


def _refuse_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refused if it names a key twice."""
    payload = dict(pairs)
    if len(payload) != len(pairs):
        twice = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"mass JSON repeats the key {twice!r}")
    return payload


def _check_real(name: str, value: object) -> None:
    """Refuse a bool or a value that is not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_integer(name: str, value: object) -> None:
    """Refuse a bool or a value that is not an integer; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_fraction(name: str, value: object) -> None:
    """Refuse a value that is not a real number in [0, 1], NaN included."""
    _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _read_utf8(path: str, error: type[ValueError] = ValueError) -> str:
    """The text of the UTF-8 file at `path`, line ends as written.

    A byte that is not UTF-8 raises `error` on its line, counted as
    ``newline=""`` splits lines: LF, CRLF and CR each end one.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise error(f"line {line}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


class World(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"


@dataclass(frozen=True)
class MassFunction:
    """Sparse mass map; entries are (cell mask, weight) pairs in mask order."""

    frame: Frame
    world: World
    pairs: tuple[tuple[int, float], ...]

    @cached_property
    def _by_mask(self) -> dict[int, float]:
        return dict(self.pairs)

    @cached_property
    def _cards(self) -> tuple[tuple[int, float, int], ...]:
        """(mask, weight, cell count) of each non-empty focal element."""
        return tuple((mask, v, mask.bit_count()) for mask, v in self.pairs if mask)

    def value(self, element: FocalElement) -> float:
        if element.frame is not self.frame and element.frame != self.frame:
            raise ValueError("element belongs to a different frame")
        return self._by_mask.get(element.mask, 0.0)

    def value_of_mask(self, mask: int) -> float:
        return self._by_mask.get(mask, 0.0)

    @property
    def conflict(self) -> float:
        """Weight sitting on the empty element."""
        return self._by_mask.get(0, 0.0)

    def total(self) -> float:
        return _sum_in_order(v for _, v in self.pairs)

    def isclose(self, other: "MassFunction", tol: float = SUM_TOLERANCE) -> bool:
        if self.frame != other.frame:
            return False
        masks = set(self._by_mask) | set(other._by_mask)
        return all(
            abs(self._by_mask.get(m, 0.0) - other._by_mask.get(m, 0.0)) <= tol
            for m in masks
        )

    def to_json_dict(self) -> dict:
        return {
            "frame": list(self.frame.labels),
            "model": self.frame.model.value,
            "world": self.world.value,
            "masses": {
                format_element(FocalElement(self.frame, mask)): v
                for mask, v in self.pairs
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=indent)

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "MassFunction":
        """Read the ``to_json_dict`` layout; any malformed field is a ValueError."""
        if not isinstance(payload, Mapping):
            raise ValueError(f"mass JSON must be an object, not {type(payload).__name__}")
        try:
            labels = payload["frame"]
            model = payload["model"]
            masses = payload["masses"]
        except KeyError as exc:
            raise ValueError(f"mass JSON is missing the {exc.args[0]!r} key") from None
        for key in payload:
            if key not in _JSON_KEYS:
                raise ValueError(f"mass JSON has an unknown key {key!r}")
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(label, str) for label in labels
        ):
            raise ValueError(f"mass JSON 'frame' must be a list of class labels, not {labels!r}")
        if not isinstance(masses, Mapping):
            raise ValueError(f"mass JSON 'masses' must be an object, not {masses!r}")
        world = World(payload.get("world", "closed"))
        return mass_from_entries(make_frame(labels, Model(model)), masses, world)

    @classmethod
    def from_json(cls, text: str) -> "MassFunction":
        """Read mass JSON text; an object that repeats a key is a ValueError."""
        return cls.from_json_dict(json.loads(text, object_pairs_hook=_refuse_repeated_keys))

    def __str__(self) -> str:
        inner = ", ".join(
            f"{format_element(FocalElement(self.frame, mask))}: {v:.4f}"
            for mask, v in self.pairs
        )
        return "{" + inner + "}"


def _sum_in_order(values: Iterable[float]) -> float:
    """Left-to-right sum from the int 0, the same bits on every Python.

    The builtin `sum` of floats compensates its rounding since Python 3.12,
    so it would move the last bits of every mass between interpreters.
    """
    total = 0
    for v in values:
        total += v
    return total


def _build(frame: Frame, accumulated: dict[int, float], world: World) -> MassFunction:
    """Shared validation tail: prune, renormalize, freeze in mask order."""
    total = _sum_in_order(accumulated.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"masses sum to {total!r}, not 1")
    if world is World.CLOSED and accumulated.get(0, 0.0) > PRUNE_THRESHOLD:
        raise ValueError("positive mass on the empty element in a closed world")
    kept = {m: v for m, v in accumulated.items() if v >= PRUNE_THRESHOLD}
    scale = _sum_in_order(kept.values())
    if scale <= 0.0:
        raise ValueError("no mass left after pruning")
    pairs = tuple((m, v / scale) for m, v in sorted(kept.items()))
    return MassFunction(frame, world, pairs)


def mass_from_entries(
    frame: Frame,
    entries: Mapping[FocalElement | str, float]
    | Iterable[tuple[FocalElement | str, float]],
    world: World = World.CLOSED,
) -> MassFunction:
    """Validate and assemble a mass function.

    Entries are a mapping or an iterable of pairs; elements may be given
    as FocalElement values or canonical text.  Duplicate elements are
    summed.  Raises on a bool or non-real weight, on NaN or infinite
    weights, on negative weights, on totals off one beyond 1e-9, and on
    closed-world mass assigned to ∅.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    accumulated: dict[int, float] = {}
    for element, value in entries:
        if isinstance(element, str):
            element = parse_element(frame, element)
        elif element.frame is not frame and element.frame != frame:
            raise ValueError("entry element belongs to a different frame")
        # the float test first: an ABC isinstance costs ~20x as much per entry
        if type(value) is not float:
            _check_real(f"mass on {format_element(element)}", value)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int past the float range, e.g. from JSON
            raise ValueError(
                f"mass on {format_element(element)} is too large for a float"
            ) from None
        if not finite:
            raise ValueError(f"non-finite mass {value!r} on {format_element(element)}")
        if value < -PRUNE_THRESHOLD:
            raise ValueError(f"negative mass {value!r} on {format_element(element)}")
        accumulated[element.mask] = accumulated.get(element.mask, 0.0) + max(value, 0.0)
    return _build(frame, accumulated, world)


def mass_from_masks(
    frame: Frame, masses: Mapping[int, float], world: World
) -> MassFunction:
    """Assemble from raw cell masks; used by the combination rules."""
    return _build(frame, {m: v for m, v in masses.items() if v > 0.0}, world)

