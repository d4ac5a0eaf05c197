"""Mass function construction, validation, and serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expertfuse import (
    Model,
    World,
    conflict,
    enumerate_elements,
    focal_elements,
    make_frame,
    mass_from_entries,
    mass_from_masks,
)
from expertfuse.mass import PRUNE_THRESHOLD, MassFunction

FRAME = make_frame(("A", "B", "C"))
FREE = make_frame(("A", "B"), Model.FREE)


def test_basic_construction_and_lookup():
    m = mass_from_entries(FRAME, {"A": 0.6, "A∪B": 0.1, "Θ": 0.3})
    assert m.value(FRAME.atom(0)) == pytest.approx(0.6)
    assert m.value_of_mask(FRAME.full_mask) == pytest.approx(0.3)
    assert m.value(FRAME.atom(1)) == 0.0
    assert m.total() == pytest.approx(1.0)
    assert m.world is World.CLOSED


def test_entries_accept_elements_and_strings_interchangeably():
    by_text = mass_from_entries(FRAME, {"B": 0.25, "Θ": 0.75})
    by_element = mass_from_entries(FRAME, {FRAME.atom(1): 0.25, FRAME.theta(): 0.75})
    assert by_text.isclose(by_element)


def test_duplicate_entries_are_summed():
    m = mass_from_entries(FRAME, [("A", 0.2), ("A", 0.3), ("Θ", 0.5)])
    assert m.value(FRAME.atom(0)) == pytest.approx(0.5)


def test_sum_must_be_one():
    with pytest.raises(ValueError, match="sum"):
        mass_from_entries(FRAME, {"A": 0.6, "Θ": 0.3})
    with pytest.raises(ValueError, match="sum"):
        mass_from_entries(FRAME, {"A": 0.7, "Θ": 0.4})
    # within tolerance is fine and renormalized exactly
    m = mass_from_entries(FRAME, {"A": 0.6, "Θ": 0.4 + 5e-10})
    assert m.total() == pytest.approx(1.0, abs=1e-15)


def test_negative_mass_rejected():
    with pytest.raises(ValueError, match="negative"):
        mass_from_entries(FRAME, {"A": -0.2, "Θ": 1.2})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(value):
    with pytest.raises(ValueError, match=f"non-finite mass {value!r} on A"):
        mass_from_entries(FRAME, [("A", value), ("Θ", 1.0)])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_mass_rejected(token):
    text = '{"frame": ["A", "B", "C"], "model": "shafer", "masses": {"B": %s, "Θ": 1.0}}'
    with pytest.raises(ValueError, match="non-finite mass .* on B"):
        MassFunction.from_json(text % token)


def test_closed_world_rejects_mass_on_empty():
    with pytest.raises(ValueError, match="closed world"):
        mass_from_entries(FRAME, {"∅": 0.3, "Θ": 0.7})


def test_open_world_carries_conflict():
    m = mass_from_entries(FRAME, {"∅": 0.3, "A": 0.5, "Θ": 0.2}, world=World.OPEN)
    assert m.conflict == pytest.approx(0.3)
    assert conflict(m) == pytest.approx(0.3)


def test_conflict_is_zero_without_empty_mass():
    m = mass_from_entries(FRAME, {"A": 1.0})
    assert conflict(m) == 0.0


def test_tiny_masses_are_pruned_and_the_rest_renormalized():
    m = mass_from_entries(FRAME, {"A": 0.5, "B": PRUNE_THRESHOLD / 4, "Θ": 0.5})
    assert m.value(FRAME.atom(1)) == 0.0
    assert m.total() == pytest.approx(1.0, abs=1e-15)
    assert len(focal_elements(m)) == 2


def test_focal_elements_sorted_by_mask():
    m = mass_from_entries(FRAME, {"Θ": 0.2, "A": 0.5, "B": 0.3})
    masks = [element.mask for element, _ in focal_elements(m)]
    assert masks == sorted(masks)


def test_mass_from_masks():
    m = mass_from_masks(FRAME, {0b001: 0.4, 0b111: 0.6}, World.CLOSED)
    assert m.value(FRAME.atom(0)) == pytest.approx(0.4)


def test_value_rejects_foreign_elements():
    other = make_frame(("A", "B"))
    m = mass_from_entries(FRAME, {"Θ": 1.0})
    with pytest.raises(ValueError, match="different frame"):
        m.value(other.theta())


def test_entry_element_from_foreign_frame_rejected():
    other = make_frame(("A", "B"))
    with pytest.raises(ValueError, match="different frame"):
        mass_from_entries(FRAME, {other.atom(0): 1.0})


def test_json_round_trip_closed_and_open():
    cases = [
        mass_from_entries(FRAME, {"A": 0.35, "B∪C": 0.15, "Θ": 0.5}),
        mass_from_entries(FREE, {"A∩B": 0.25, "A": 0.25, "Θ": 0.5}),
        mass_from_entries(FRAME, {"∅": 0.1, "C": 0.9}, world=World.OPEN),
    ]
    for m in cases:
        restored = MassFunction.from_json(m.to_json())
        assert restored.frame == m.frame
        assert restored.world is m.world
        assert restored.isclose(m, tol=0.0)


def test_from_json_reports_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        MassFunction.from_json_dict({"labels": ["A", "B"]})


def test_isclose_tolerance():
    a = mass_from_entries(FRAME, {"A": 0.5, "Θ": 0.5})
    b = mass_from_entries(FRAME, {"A": 0.5 + 1e-12, "Θ": 0.5 - 1e-12})
    c = mass_from_entries(FRAME, {"A": 0.4, "Θ": 0.6})
    assert a.isclose(b)
    assert not a.isclose(c)
    assert not a.isclose(mass_from_entries(FREE, {"Θ": 1.0}))


def test_str_shows_focal_elements():
    text = str(mass_from_entries(FRAME, {"A": 0.6, "Θ": 0.4}))
    assert "A" in text and "Θ" in text and "0.6000" in text


masses3 = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=7,
    max_size=7,
).filter(lambda vs: sum(vs) > 1e-6)


@given(masses3)
def test_any_nonnegative_vector_normalizes(values):
    total = sum(values)
    scaled = [v / total for v in values]
    elements = enumerate_elements(FRAME)
    m = mass_from_entries(FRAME, zip(elements, scaled))
    assert math.isclose(m.total(), 1.0, abs_tol=1e-12)
    assert all(v >= 0.0 for _, v in focal_elements(m))
