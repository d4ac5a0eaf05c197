"""Mass function construction, validation, and serialization."""

from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expertfuse.lattice import Model, enumerate_elements, make_frame
from expertfuse.mass import (
    PRUNE_THRESHOLD,
    MassFunction,
    World,
    mass_from_entries,
    mass_from_masks,
)

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


HUGE = 10 ** 400  # an int that no float can hold


@pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "minus-huge"])
def test_mass_too_large_for_a_float_rejected(value):
    with pytest.raises(ValueError, match="mass on B is too large for a float"):
        mass_from_entries(FRAME, [("B", value), ("Θ", 1.0)])
    text = '{"frame": ["A", "B", "C"], "model": "shafer", "masses": {"B": %d, "Θ": 1.0}}'
    with pytest.raises(ValueError, match="mass on B is too large for a float"):
        MassFunction.from_json(text % value)


def test_closed_world_rejects_mass_on_empty():
    with pytest.raises(ValueError, match="closed world"):
        mass_from_entries(FRAME, {"∅": 0.3, "Θ": 0.7})


def test_closed_world_rejects_a_small_mass_on_empty():
    # 1e-9 lies above the prune threshold, so it is mass, not rounding
    with pytest.raises(ValueError, match="closed world"):
        mass_from_entries(FRAME, {"∅": 1e-9, "A": 0.5, "Θ": 0.5 - 1e-9})


def test_open_world_carries_conflict():
    m = mass_from_entries(FRAME, {"∅": 0.3, "A": 0.5, "Θ": 0.2}, world=World.OPEN)
    assert m.conflict == pytest.approx(0.3)
    assert m.conflict == pytest.approx(0.3)


def test_conflict_is_zero_without_empty_mass():
    m = mass_from_entries(FRAME, {"A": 1.0})
    assert m.conflict == 0.0


def test_tiny_masses_are_pruned_and_the_rest_renormalized():
    m = mass_from_entries(FRAME, {"A": 0.5, "B": PRUNE_THRESHOLD / 4, "Θ": 0.5})
    assert m.value(FRAME.atom(1)) == 0.0
    assert m.total() == pytest.approx(1.0, abs=1e-15)
    assert len(m.pairs) == 2


def test_a_mass_of_exactly_the_prune_threshold_is_kept():
    m = mass_from_entries(FRAME, {"A": 0.5, "B": PRUNE_THRESHOLD, "Θ": 0.5 - PRUNE_THRESHOLD})
    assert len(m.pairs) == 3
    assert m.value(FRAME.atom(1)) == pytest.approx(PRUNE_THRESHOLD, rel=1e-9, abs=0.0)


def test_focal_elements_sorted_by_mask():
    m = mass_from_entries(FRAME, {"Θ": 0.2, "A": 0.5, "B": 0.3})
    masks = [mask for mask, _ in m.pairs]
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


# make_frame((" A", "B")) was once accepted, and its mass JSON read back
# failed with "unknown class label 'A'"
@example([" A", "B"])
@given(st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True))
def test_a_mass_on_any_frame_make_frame_accepts_reads_back(labels):
    try:
        frame = make_frame(labels)
    except ValueError:
        return
    m = mass_from_entries(frame, [(frame.atom(0), 0.5), (frame.theta(), 0.5)])
    assert MassFunction.from_json(m.to_json()) == m


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
    assert all(v >= 0.0 for _, v in m.pairs)


ROUND_TRIP_FRAMES = (
    make_frame(("A",)),
    FRAME,
    make_frame(("A", "B", "C", "D")),
    FREE,
    make_frame(("A", "B", "C"), Model.FREE),
)
ROUND_TRIP_ELEMENTS = {
    frame: enumerate_elements(frame, include_empty=True) for frame in ROUND_TRIP_FRAMES
}


@st.composite
def dyadic_masses(draw):
    """Closed or open masses whose weights are multiples of 2⁻¹⁰ summing to one."""
    frame = draw(st.sampled_from(ROUND_TRIP_FRAMES))
    world = draw(st.sampled_from(World))
    elements = [
        x for x in ROUND_TRIP_ELEMENTS[frame] if x.mask or world is World.OPEN
    ]
    chosen = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=6, unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, 1023), min_size=len(chosen) - 1,
                                max_size=len(chosen) - 1)))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, 1024])]
    return mass_from_entries(frame, zip(chosen, (c / 1024 for c in counts)), world)


@given(dyadic_masses())
def test_json_round_trip_is_exact(m):
    restored = MassFunction.from_json(m.to_json())
    assert restored.frame == m.frame
    assert restored.world is m.world
    assert restored.pairs == m.pairs


def _payload(**fields):
    payload = {"frame": ["A", "B"], "model": "shafer", "masses": {"A": 0.5, "Θ": 0.5}}
    payload.update(fields)
    return payload


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=5),
)
not_numbers = st.one_of(st.none(), st.booleans(), st.text(max_size=5), st.just([0.5]),
                        st.just({"v": 0.5}))
malformed_payloads = st.one_of(
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),  # not an object
    json_scalars.map(lambda masses: _payload(masses=masses)),
    st.lists(st.tuples(st.sampled_from(["A", "Θ"]), st.floats(0.0, 1.0)), max_size=2).map(
        lambda pairs: _payload(masses=[list(p) for p in pairs])
    ),
    not_numbers.map(lambda v: _payload(masses={"A": v, "Θ": 0.5})),
    st.text(min_size=1, max_size=4).map(lambda labels: _payload(frame=labels)),
    st.lists(st.one_of(st.integers(), st.none()), min_size=1, max_size=3).map(
        lambda labels: _payload(frame=labels)
    ),
    st.text(st.characters(exclude_characters="AB∅Θ∩∪"), min_size=1, max_size=3).map(
        lambda label: _payload(masses={label: 0.5, "Θ": 0.5})  # not a label of the frame
    ),
    st.one_of(st.text(max_size=8), st.integers(), st.none(), st.just(["free"]))
    .filter(lambda model: model not in ("shafer", "free"))
    .map(lambda model: _payload(model=model)),
)


@given(malformed_payloads)
def test_malformed_json_payloads_raise_value_error(payload):
    with pytest.raises(ValueError):
        MassFunction.from_json(json.dumps(payload, ensure_ascii=False))


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "must be an object, not list"),
        (_payload(masses=[["A", 1.0]]), "'masses' must be an object"),
        (_payload(masses={"A": "0.5", "Θ": 0.5}), "mass on A must be a real number, got '0.5'"),
        (_payload(masses={"A": None, "Θ": 0.5}), "mass on A must be a real number, got None"),
        (_payload(masses={"A": True}), "mass on A must be a real number, got True"),
        (_payload(frame="AB"), "'frame' must be a list of class labels, not 'AB'"),
        # once loaded as a closed world, the misspelt key unread
        (_payload(wrold="open"), "mass JSON has an unknown key 'wrold'"),
    ],
)
def test_malformed_json_names_the_field(payload, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MassFunction.from_json(json.dumps(payload))
