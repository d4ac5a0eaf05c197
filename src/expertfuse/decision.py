"""Decision functionals over combined masses, with argmax + tie reporting.

Credibility sums the mass of everything inside the target, plausibility the
mass of everything touching it, and the pignistic probability spreads each
focal element's mass evenly over its cells.  One cell-level implementation
of each serves the exclusive and the free lattices alike, matching the
usual bel/pl/betP on exclusive frames and their generalized forms on free
ones.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import FocalElement, parse_element
from .mass import MassFunction

TIE_TOLERANCE = 1e-12


class Criterion(enum.Enum):
    MASS = "mass"
    CREDIBILITY = "credibility"
    PLAUSIBILITY = "plausibility"
    PIGNISTIC = "pignistic"


def _resolve(m: MassFunction, x: FocalElement | str) -> FocalElement:
    if isinstance(x, str):
        return parse_element(m.frame, x)
    if x.frame is not m.frame and x.frame != m.frame:
        raise ValueError("element and mass live on different frames")
    return x


def credibility(m: MassFunction, x: FocalElement | str) -> float:
    """Mass of all non-empty elements contained in x."""
    mask = _resolve(m, x).mask
    total = 0
    for y, v in m.pairs:
        if y and y & mask == y:
            total += v
    return total


def plausibility(m: MassFunction, x: FocalElement | str) -> float:
    """Mass of all elements whose meet with x is non-empty."""
    mask = _resolve(m, x).mask
    total = 0
    for y, v in m.pairs:
        if y & mask:
            total += v
    return total


def pignistic(m: MassFunction, x: FocalElement | str) -> float:
    """Cell-shared mass of x, renormalized to ignore any conflict.

    Each focal element spreads its mass evenly over its own cells; x
    collects the share of the cells it contains.  With no mass on ∅ the
    normalizer is 1 and this is the plain pignistic transform.
    """
    el = _resolve(m, x)
    if el.is_empty:
        raise ValueError("pignistic probability is undefined on ∅")
    denom = 1.0 - m.value_of_mask(0)
    if denom <= 0.0:
        raise ValueError("pignistic probability is undefined under total conflict")
    mask = el.mask
    total = 0.0
    for y, v, card in m._cards:
        total += (y & mask).bit_count() / card * v
    return total / denom


def criterion_value(m: MassFunction, x: FocalElement | str, criterion: Criterion) -> float:
    if criterion is Criterion.MASS:
        return m.value(_resolve(m, x))
    if criterion is Criterion.CREDIBILITY:
        return credibility(m, x)
    if criterion is Criterion.PLAUSIBILITY:
        return plausibility(m, x)
    if criterion is Criterion.PIGNISTIC:
        return pignistic(m, x)
    raise ValueError(f"unknown criterion {criterion!r}")


def criteria_table(
    m: MassFunction,
) -> list[tuple[FocalElement, float, float, float, float | None]]:
    """Rows (element, m, bel, pl, betP) of the fusion criteria table.

    The rows are the atoms, the focal elements and the one-step meets and
    joins of focal pairs, in mask order.  ∅ leads when it carries mass, as
    ``(∅, m(∅), 0.0, 0.0, None)``: betP is undefined there.
    """
    frame = m.frame
    masks = {a.mask for a in frame.atoms()}
    focal = [x for x, _ in m.pairs if x]
    masks.update(focal)
    for i, x in enumerate(focal):
        for y in focal[i + 1:]:
            if x & y:
                masks.add(x & y)
            masks.add(x | y)
    rows = []
    if m.conflict > 0.0:
        rows.append((frame.empty(), m.conflict, 0.0, 0.0, None))
    for mask in sorted(masks):
        el = FocalElement(frame, mask)
        rows.append((el, m.value(el), credibility(m, el), plausibility(m, el), pignistic(m, el)))
    return rows


@dataclass(frozen=True)
class DecisionReport:
    """Criterion values over a candidate set plus the argmax and any tie.

    ``chosen`` maximizes the criterion; when several candidates sit within
    the tie tolerance of the maximum, the tie flag is set, all of them are
    listed, and the one with the lowest class index (lowest cell mask) wins.
    """

    criterion: Criterion
    values: tuple[tuple[FocalElement, float], ...]
    chosen: FocalElement
    tie: bool
    tied: tuple[FocalElement, ...]

    def value(self, x: FocalElement | str) -> float:
        """Value of candidate x, given as an element or as text to parse."""
        mask = parse_element(self.chosen.frame, x).mask if isinstance(x, str) else x.mask
        for el, v in self.values:
            if el.mask == mask:
                return v
        raise KeyError(f"{x!r} is not among the candidates")

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "values": {str(el): v for el, v in self.values},
            "chosen": str(self.chosen),
            "tie": self.tie,
            "tied": [str(el) for el in self.tied],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False)


def decide(
    m: MassFunction,
    criterion: Criterion | str,
    candidates: Sequence[FocalElement | str] | Iterable[FocalElement | str],
) -> DecisionReport:
    """Evaluate the criterion on every candidate and pick the maximum."""
    if isinstance(criterion, str):
        criterion = Criterion(criterion)
    resolved = [_resolve(m, x) for x in candidates]
    if not resolved:
        raise ValueError("decide needs at least one candidate")
    values = tuple((el, criterion_value(m, el, criterion)) for el in resolved)
    top = max(v for _, v in values)
    tied = tuple(
        el for el, v in sorted(values, key=lambda pair: pair[0].mask)
        if top - v <= TIE_TOLERANCE
    )
    return DecisionReport(
        criterion=criterion,
        values=values,
        chosen=tied[0],
        tie=len(tied) > 1,
        tied=tied,
    )
