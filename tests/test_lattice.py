"""Lattice structure checked against a brute-force set-of-cells oracle.

The oracle models every element as a frozenset of Venn cells, where a
cell is the frozenset of class indices it belongs to.  Meet and join are
plain set intersection and union, so any disagreement with the bitmask
implementation is a bug in the bitmask bookkeeping.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from expertfuse import lattice
from expertfuse.lattice import (
    FocalElement,
    Frame,
    Model,
    enumerate_elements,
    make_frame,
    parse_element,
)
from expertfuse.mass import MassFunction

LABELS = ("A", "B", "C", "D")


def cell_set(n_classes: int, mask: int) -> frozenset[frozenset[int]]:
    """Decode an element bitmask into its set of cells."""
    cells = []
    for t in range(1, 1 << n_classes):
        if mask & (1 << (t - 1)):
            cells.append(frozenset(i for i in range(n_classes) if t & (1 << i)))
    return frozenset(cells)


def oracle_upward_closed(n_classes: int, mask: int) -> bool:
    cells = cell_set(n_classes, mask)
    universe = [frozenset(s) for s in cell_set(n_classes, (1 << ((1 << n_classes) - 1)) - 1)]
    return all(t in cells for s in cells for t in universe if s <= t)


def oracle_valid_masks(n_classes: int) -> list[int]:
    n_cells = (1 << n_classes) - 1
    return [m for m in range(1 << n_cells) if oracle_upward_closed(n_classes, m)]


@pytest.mark.parametrize("n_classes,expected", [(2, 5), (3, 19)])
def test_free_element_count_matches_oracle(n_classes, expected):
    frame = make_frame(LABELS[:n_classes], Model.FREE)
    elements = enumerate_elements(frame, include_empty=True)
    assert len(elements) == expected
    assert sorted(e.mask for e in elements) == oracle_valid_masks(n_classes)


def test_free_element_count_four_classes():
    frame = make_frame(LABELS, Model.FREE)
    assert len(enumerate_elements(frame, include_empty=True)) == 167
    assert len(enumerate_elements(frame)) == 166


def test_shafer_enumeration_is_the_full_powerset():
    frame = make_frame(LABELS[:3])
    elements = enumerate_elements(frame, include_empty=True)
    assert sorted(e.mask for e in elements) == list(range(8))


def test_meet_join_cardinality_against_oracle():
    frame = make_frame(LABELS[:3], Model.FREE)
    elements = enumerate_elements(frame, include_empty=True)
    n = frame.n_classes
    for x, y in itertools.product(elements, repeat=2):
        sx, sy = cell_set(n, x.mask), cell_set(n, y.mask)
        assert cell_set(n, (x & y).mask) == sx & sy
        assert cell_set(n, (x | y).mask) == sx | sy
        assert (x <= y) == (sx <= sy)
        assert (x < y) == (sx < sy)
        assert (x >= y) == (sx >= sy)
        assert (x > y) == (sx > sy)
    for x in elements:
        assert x.cardinality == len(cell_set(n, x.mask))
        assert x.cardinality == len(x)


@pytest.mark.parametrize("other", [5, "A"], ids=["int", "str"])
@pytest.mark.parametrize("op", [
    operator.le, operator.lt, operator.ge, operator.gt, operator.and_, operator.or_,
], ids=["le", "lt", "ge", "gt", "and", "or"])
def test_a_non_element_operand_raises_type_error(op, other):
    element = make_frame(LABELS[:2]).atoms()[0]
    with pytest.raises(TypeError):
        op(element, other)


def test_atoms_cover_the_right_cells():
    frame = make_frame(LABELS[:3], Model.FREE)
    for i in range(3):
        expected = frozenset(
            cell for cell in cell_set(3, frame.full_mask) if i in cell
        )
        assert cell_set(3, frame.atom(i).mask) == expected
    shafer = make_frame(LABELS[:3])
    assert [shafer.atom(i).mask for i in range(3)] == [1, 2, 4]


@pytest.mark.parametrize("mask", [0b001, 0b010, 0b011])
def test_free_rejects_cell_sets_that_are_not_upward_closed(mask):
    frame = make_frame(LABELS[:2], Model.FREE)
    assert not oracle_upward_closed(2, mask)
    with pytest.raises(ValueError, match="upward-closed"):
        FocalElement(frame, mask)


def test_mask_outside_universe_rejected():
    frame = make_frame(LABELS[:2])
    with pytest.raises(ValueError, match="universe"):
        FocalElement(frame, 1 << 2)
    with pytest.raises(ValueError, match="universe"):
        FocalElement(frame, -1)


def test_empty_and_theta():
    frame = make_frame(LABELS[:3], Model.FREE)
    assert frame.empty().is_empty
    assert frame.empty().is_empty
    assert not frame.theta().is_empty
    assert frame.theta().mask == frame.full_mask
    assert str(frame.empty()) == "∅"
    assert str(frame.theta()) == "Θ"


def test_formatting_of_simple_elements():
    frame = make_frame(("A", "B", "C"), Model.FREE)
    a, b, _ = frame.atoms()
    assert str(a) == "A"
    assert str(a & b) == "A∩B"
    assert str(a | b) == "A∪B"
    # the union of everything collapses to the ignorance symbol
    two = make_frame(("A", "B"), Model.FREE)
    assert str(two.atom(0) | two.atom(1)) == "Θ"


@pytest.mark.parametrize("model", [Model.SHAFER, Model.FREE])
def test_parse_format_round_trip(model):
    frame = make_frame(LABELS[:3], model)
    for element in enumerate_elements(frame, include_empty=True):
        assert parse_element(frame, str(element)) == element


def test_parse_tolerates_whitespace_and_aliases():
    frame = make_frame(LABELS[:3], Model.FREE)
    a, b, c = frame.atoms()
    assert parse_element(frame, " A ∪ B ∩ C ") == (a | (b & c))
    assert frame.parse_element("∅") == frame.empty()
    assert frame.parse_element("Θ") == frame.theta()


def test_parse_meet_binds_tighter_than_join():
    frame = make_frame(LABELS[:3], Model.FREE)
    a, b, c = frame.atoms()
    assert parse_element(frame, "A∪B∩C") == (a | (b & c))


def test_shafer_conjunction_collapses_to_empty():
    frame = make_frame(("A", "B"))
    assert parse_element(frame, "A∩B") == frame.empty()


def test_parse_rejects_garbage():
    frame = make_frame(("A", "B"))
    for text in ("", "  ", "A∪", "∩B", "X", "A∪(B", "A B"):
        with pytest.raises(ValueError):
            parse_element(frame, text)


def test_frame_label_validation():
    with pytest.raises(ValueError, match="at least one"):
        make_frame(())
    with pytest.raises(ValueError, match="duplicate"):
        make_frame(("A", "A"))
    with pytest.raises(ValueError, match="reserved"):
        make_frame(("A", "B∪C"))
    with pytest.raises(ValueError, match="reserved"):
        make_frame(("∅", "B"))
    with pytest.raises(ValueError):
        make_frame(("A", ""))
    with pytest.raises(ValueError) as caught:
        make_frame((["A"], "B"))  # unhashable, so it skips the intern cache
    assert str(caught.value) == "class label must be a non-empty string, got ['A']"


def test_frame_needs_a_model_member():
    with pytest.raises(TypeError) as caught:
        Frame(("A",), "shafer")
    assert str(caught.value) == "model must be a Model"


def test_atom_index_out_of_range():
    frame = make_frame(("A", "B"))
    with pytest.raises(ValueError) as caught:
        frame.atom(5)
    assert str(caught.value) == "class index 5 out of range"


def test_free_enumeration_refuses_large_frames():
    frame = make_frame(("A", "B", "C", "D", "E"), Model.FREE)
    with pytest.raises(ValueError):
        enumerate_elements(frame)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
def test_free_frames_up_to_five_classes_build_and_parse(n_classes):
    labels = tuple("ABCDE"[:n_classes])
    frame = make_frame(labels, Model.FREE)
    assert frame.n_cells == 2**n_classes - 1
    last = labels[-1]
    text = f"A∩{last}∪B" if n_classes > 2 else "A∩B"
    element = parse_element(frame, text)
    assert str(element) == text
    assert parse_element(frame, "A") == frame.atom(0)


def test_free_frames_past_the_limit_are_refused():
    limit = lattice._FREE_FRAME_LIMIT
    labels = tuple(f"c{i}" for i in range(limit + 1))
    at_limit = make_frame(labels[:limit], Model.FREE)
    assert at_limit.n_cells == 2**limit - 1
    assert at_limit.atom(0).cardinality == 2 ** (limit - 1)
    message = f"at most {limit} classes \\({limit + 1} given\\)"
    with pytest.raises(ValueError, match=message):
        make_frame(labels, Model.FREE)
    with pytest.raises(ValueError, match=message):
        Frame(labels, Model.FREE)
    payload = {"frame": list(labels), "model": "free", "masses": {"Θ": 1.0}}
    with pytest.raises(ValueError, match=message):
        MassFunction.from_json(json.dumps(payload))
    assert make_frame(tuple(f"c{i}" for i in range(26))).n_cells == 26  # exclusive: no limit


def test_interned_built_and_replaced_frames_agree():
    interned = make_frame(("A", "B", "C"), Model.FREE)
    assert make_frame(["A", "B", "C"], "free") is interned
    built = Frame(("A", "B", "C"), Model.FREE)
    replaced = dataclasses.replace(make_frame(("A", "B", "C")), model=Model.FREE)
    for frame in (built, replaced):
        assert frame == interned and hash(frame) == hash(interned)
        assert frame.full_mask == interned.full_mask == 0b1111111
        assert frame.n_cells == interned.n_cells == 7
        assert [a.mask for a in frame.atoms()] == [a.mask for a in interned.atoms()]
        assert [frame.label_index(x) for x in "ABC"] == [0, 1, 2]
        assert frame.atom(1) == interned.atom(1)
        with pytest.raises(ValueError, match="unknown class label 'D'"):
            frame.label_index("D")


def test_shafer_scales_past_the_free_limit():
    frame = make_frame(tuple("ABCDEFGH"))
    assert len(enumerate_elements(frame, include_empty=True)) == 256


def test_cross_frame_operations_rejected():
    x = make_frame(("A", "B")).theta()
    y = make_frame(("A", "C")).theta()
    with pytest.raises(ValueError, match="different frames"):
        x & y


def test_make_frame_accepts_model_names():
    assert make_frame(("A", "B"), "free").model is Model.FREE
    assert make_frame(("A", "B"), "shafer").model is Model.SHAFER
    with pytest.raises(ValueError):
        make_frame(("A", "B"), "hybrid")


FREE3 = make_frame(LABELS[:3], Model.FREE)
FREE3_ELEMENTS = enumerate_elements(FREE3, include_empty=True)
elements3 = st.sampled_from(FREE3_ELEMENTS)


@given(elements3, elements3)
def test_meet_join_commute(x, y):
    assert (x & y) == (y & x)
    assert (x | y) == (y | x)


@given(elements3, elements3, elements3)
def test_meet_join_associate_and_distribute(x, y, z):
    assert ((x & y) & z) == (x & (y & z))
    assert ((x | y) | z) == (x | (y | z))
    assert (x & (y | z)) == ((x & y) | (x & z))


@given(elements3, elements3)
def test_absorption_and_order(x, y):
    assert (x | (x & y)) == x
    assert (x & (x | y)) == x
    assert (x & y) <= x
    assert x <= (x | y)
    assert (x <= y) == ((x & y) == x)


@given(elements3)
def test_idempotence_and_bounds(x):
    assert (x & x) == x
    assert (x | x) == x
    assert (x & FREE3.theta()) == x
    assert (x | FREE3.empty()) == x


# -- whole-mask free-lattice checks against the cell-by-cell loops ---------


def loop_upward_closed(n_classes: int, mask: int) -> bool:
    """Cell-by-cell closure check: every one-class extension is present."""
    remaining = mask
    while remaining:
        low = remaining & -remaining
        t = low.bit_length()  # cell at bit t-1 has label mask t
        for i in range(n_classes):
            sup = t | (1 << i)
            if sup != t and not mask & (1 << (sup - 1)):
                return False
        remaining ^= low
    return True


def loop_minimal_cells(mask: int) -> list[int]:
    """Label masks of the cells no other present cell's label is inside."""
    labels = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
        labels.append(low.bit_length())
        remaining ^= low
    return [t for t in labels if not any(s != t and s & t == s for s in labels)]


def loop_upward_closure(n_classes: int, mask: int) -> int:
    """Smallest upward-closed cell set containing mask."""
    closed = mask
    grown = True
    while grown:
        grown = False
        for t in range(1, 1 << n_classes):
            if closed & (1 << (t - 1)):
                for i in range(n_classes):
                    bit = 1 << ((t | (1 << i)) - 1)
                    if not closed & bit:
                        closed |= bit
                        grown = True
    return closed


@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_whole_mask_checks_match_the_loops_on_every_mask(n_classes):
    frame = make_frame(LABELS[:n_classes], Model.FREE)
    for mask in range(frame.full_mask + 1):
        closed = loop_upward_closed(n_classes, mask)
        assert lattice._is_upward_closed(frame, mask) == closed
        if closed:
            assert lattice._minimal_cells(frame, mask) == loop_minimal_cells(mask)


@given(st.integers(5, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << ((1 << n) - 1)) - 1))))
def test_whole_mask_checks_match_the_loops_on_large_free_frames(case):
    n_classes, mask = case
    frame = make_frame(tuple(f"c{i}" for i in range(n_classes)), Model.FREE)
    assert lattice._is_upward_closed(frame, mask) == loop_upward_closed(n_classes, mask)
    closure = loop_upward_closure(n_classes, mask)
    assert lattice._is_upward_closed(frame, closure)
    assert lattice._minimal_cells(frame, closure) == loop_minimal_cells(closure)
    if closure.bit_count() > 1:
        # dropping a minimal cell keeps the set closed; dropping the top cell does not
        lowest = loop_minimal_cells(closure)[0]
        assert lattice._is_upward_closed(frame, closure & ~(1 << (lowest - 1)))
        assert not lattice._is_upward_closed(frame, closure & ~(1 << (frame.n_cells - 1)))


# -- the per-frame text memo ------------------------------------------------


@pytest.mark.parametrize("model", [Model.SHAFER, Model.FREE])
def test_warm_interned_and_fresh_frames_give_the_same_text(model):
    interned = make_frame(LABELS, model)
    for element in enumerate_elements(interned, include_empty=True):
        parse_element(interned, str(element))  # warm both of the interned frame's memos
    fresh = Frame(LABELS, model)
    for element in enumerate_elements(interned, include_empty=True):
        text = str(element)
        parsed = parse_element(fresh, text)
        assert parsed.frame is fresh and parsed == FocalElement(fresh, element.mask)
        assert str(parsed) == text
        warm = parse_element(interned, text)
        assert warm.frame is interned and warm.mask == element.mask


@pytest.mark.parametrize(
    "n_classes,model",
    [(n, Model.SHAFER) for n in range(1, 8)] + [(n, Model.FREE) for n in range(1, 5)],
)
def test_format_parse_round_trip_cold_and_warm(n_classes, model):
    frame = Frame(tuple("ABCDEFG")[:n_classes], model)
    elements = enumerate_elements(frame, include_empty=True)
    cold = [lattice.format_element(el) for el in elements]
    for _ in range(2):
        assert [lattice.format_element(el) for el in elements] == cold
        assert [parse_element(frame, text) for text in cold] == elements
    assert len(set(cold)) == len(elements)


def test_invalid_text_raises_every_time():
    frame = Frame(("A", "B"), Model.FREE)
    for text in ("", "A∪", "X", "A B"):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_element(frame, text)
    assert frame._mask_of_text == {}


def test_memos_stay_within_their_cap():
    labels = tuple(f"c{i}" for i in range(13))
    frame = Frame(labels)
    for mask in range(1, frame.full_mask):
        text = lattice.format_element(FocalElement(frame, mask))
        assert text == "∪".join(label for i, label in enumerate(labels) if mask >> i & 1)
        assert parse_element(frame, text).mask == mask
    assert frame.full_mask == 8191
    assert len(frame._text_of_mask) == lattice._MEMO_LIMIT
    assert len(frame._mask_of_text) == lattice._MEMO_LIMIT


def test_atoms_are_equal_across_calls_and_frames():
    for model in Model:
        frame = make_frame(LABELS, model)
        assert frame.atoms() == frame.atoms() == Frame(LABELS, model).atoms()
        assert [a.frame for a in frame.atoms()] == [frame] * 4
        assert [a.mask for a in frame.atoms()] == [frame.atom(i).mask for i in range(4)]
