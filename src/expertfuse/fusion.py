"""Combination rules for multi-expert masses on a shared frame.

The conjunctive rule multiplies masses over every tuple of focal elements
and books each product on the tuple's meet, so disagreement piles up on ∅.
The proportional redistribution rules hand that conflict back to the
elements that caused it instead, weighted by their own masses: the pairwise
form for two experts, and its tuple-wise generalization for any number.

All rules accumulate in a fixed order (focal elements sorted by cell mask,
experts in the order given) so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

from .lattice import Frame, Model, _minimal_cells, make_frame
from .mass import MassFunction, World, _sum_in_order, mass_from_masks

RULE_NAMES = ("conjunctive", "pcr5", "pcr6")

# Most focal-element tuples `combine_pcr6` will enumerate.  Six experts with
# eight focal elements each would be 262 144 tuples, about half a second.
_PCR6_TUPLE_LIMIT = 100_000


def _check_frames(masses: Sequence[MassFunction], minimum: int) -> Frame:
    if len(masses) < minimum:
        raise ValueError(f"combination needs at least {minimum} masses, got {len(masses)}")
    frame = masses[0].frame
    for m in masses[1:]:
        if m.frame is not frame and m.frame != frame:
            raise ValueError("all masses must share one frame")
    return frame


def _check_no_empty(masses: Sequence[MassFunction]) -> None:
    for m in masses:
        if m.value_of_mask(0) > 0.0:
            raise ValueError("redistribution rules need inputs with no mass on ∅")


def _conjunctive_pair(acc: dict[int, float], m: MassFunction) -> dict[int, float]:
    out: dict[int, float] = {}
    for x, va in acc.items():
        for y, vb in m.pairs:
            z = x & y
            out[z] = out.get(z, 0.0) + va * vb
    return out


def combine_conjunctive(masses: Sequence[MassFunction]) -> MassFunction:
    """Conjunctive consensus of two or more masses; conflict stays on ∅."""
    frame = _check_frames(masses, 2)
    acc = dict(masses[0].pairs)
    for m in masses[1:]:
        acc = _conjunctive_pair(acc, m)
    return mass_from_masks(frame, acc, World.OPEN)


def combine_pcr5(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Two-expert combination with pairwise proportional conflict return.

    Each conflicting product m1(X)m2(Y) with X∩Y = ∅ flows back to X and Y
    in proportion to the masses that produced it.  Zero-denominator terms
    have zero numerator too and are skipped.
    """
    frame = _check_frames((m1, m2), 2)
    _check_no_empty((m1, m2))
    acc: dict[int, float] = {}
    for x, va in m1.pairs:
        for y, vb in m2.pairs:
            z = x & y
            if z:
                acc[z] = acc.get(z, 0.0) + va * vb
            else:
                denom = va + vb
                if denom > 0.0:
                    acc[x] = acc.get(x, 0.0) + va * va * vb / denom
                    acc[y] = acc.get(y, 0.0) + vb * vb * va / denom
    return mass_from_masks(frame, acc, World.CLOSED)


def combine_pcr6(masses: Sequence[MassFunction]) -> MassFunction:
    """M-expert combination with tuple-wise proportional conflict return.

    For every tuple of focal elements (one per expert) with empty meet, the
    product mass goes back to each participating element, in proportion to
    that expert's mass against the sum over the whole tuple.  Enumeration
    runs over focal elements only, so cost is the product of focal counts;
    a product above `_PCR6_TUPLE_LIMIT` is refused.
    """
    frame = _check_frames(masses, 2)
    _check_no_empty(masses)
    tuples = math.prod(len(m.pairs) for m in masses)
    if tuples > _PCR6_TUPLE_LIMIT:
        raise ValueError(
            f"PCR6 would enumerate {tuples} focal-element tuples, "
            f"over the limit of {_PCR6_TUPLE_LIMIT}"
        )
    # Walk the tuples in product order, carrying each prefix's meet,
    # product, mass sum and elements over experts 0..M-2, so every tuple
    # adds one factor and one term to the same running values the tuple-wise
    # sums would build: ((v0·v1)·v2)… and ((v0+v1)+v2)…, bit for bit.
    prefixes = [(x, v, v, ((x, v),)) for x, v in masses[0].pairs]
    for m in masses[1:-1]:
        prefixes = [
            (meet & y, product * vy, total + vy, elements + ((y, vy),))
            for meet, product, total, elements in prefixes
            for y, vy in m.pairs
        ]
    last = masses[-1].pairs
    acc: dict[int, float] = {}
    for prefix_meet, prefix_product, prefix_total, elements in prefixes:
        for y, vy in last:
            product = prefix_product * vy
            meet = prefix_meet & y
            if meet:
                acc[meet] = acc.get(meet, 0.0) + product
                continue
            total = prefix_total + vy  # sum of every expert's mass in the tuple
            if total > 0.0:
                for x, v in elements:
                    acc[x] = acc.get(x, 0.0) + v * product / total
                acc[y] = acc.get(y, 0.0) + vy * product / total
    return mass_from_masks(frame, acc, World.CLOSED)


def redistribute_conjunctions(m: MassFunction) -> MassFunction:
    """Project a free-model mass onto the matching exclusive frame.

    Under exclusivity only single-class Venn cells survive, so each element
    keeps the classes whose own cell it contains; pure conjunctions such as
    A∩B keep none and their mass is handed to the classes they involve, in
    proportion to the masses the projection puts on those classes alone
    (split equally when all of them got nothing).

    A mass already on an exclusive frame is returned unchanged.
    """
    if m.frame.model is Model.SHAFER:
        return m
    if m.value_of_mask(0) > 0.0:
        raise ValueError("cannot project a mass carrying conflict on ∅")
    frame = m.frame
    target = make_frame(frame.labels, Model.SHAFER)

    def project(mask: int) -> int:
        out = 0
        for i in range(frame.n_classes):
            if mask & (1 << ((1 << i) - 1)):
                out |= 1 << i
        return out

    acc: dict[int, float] = {}
    vanishing: list[tuple[int, float]] = []
    for mask, value in m.pairs:
        shadow = project(mask)
        if shadow:
            acc[shadow] = acc.get(shadow, 0.0) + value
        else:
            vanishing.append((mask, value))
    singles = {1 << i: acc.get(1 << i, 0.0) for i in range(frame.n_classes)}
    for mask, value in vanishing:
        involved = 0
        for cell in _minimal_cells(frame, mask):
            involved |= cell
        classes = [i for i in range(frame.n_classes) if involved & (1 << i)]
        weights = [singles[1 << i] for i in classes]
        total = _sum_in_order(weights)
        if total > 0.0:
            shares = [w / total for w in weights]
        else:
            shares = [1.0 / len(classes)] * len(classes)
        for i, share in zip(classes, shares):
            acc[1 << i] = acc.get(1 << i, 0.0) + value * share
    return mass_from_masks(target, acc, World.CLOSED)


def combine(masses: Sequence[MassFunction], rule: str) -> MassFunction:
    """Apply a combination rule picked by name ("conjunctive", "pcr5", "pcr6")."""
    if rule == "conjunctive":
        return combine_conjunctive(masses)
    if rule == "pcr5":
        if len(masses) != 2:
            raise ValueError("pcr5 combines exactly two masses; use pcr6 for more")
        return combine_pcr5(masses[0], masses[1])
    if rule == "pcr6":
        return combine_pcr6(masses)
    raise ValueError(f"unknown rule {rule!r}; expected one of {', '.join(RULE_NAMES)}")
