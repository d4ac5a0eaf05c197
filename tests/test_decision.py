"""Decision functionals over combined masses, plus the argmax report."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expertfuse.decision import (
    TIE_TOLERANCE,
    Criterion,
    credibility,
    criteria_table,
    criterion_value,
    decide,
    pignistic,
    plausibility,
)
from expertfuse.expert_models import ExpertDeclaration, build_m1, build_m3, build_m4, build_m5
from expertfuse.fusion import combine_conjunctive, combine_pcr5
from expertfuse.lattice import Model, enumerate_elements, make_frame
from expertfuse.mass import World, mass_from_entries

AB = make_frame(("A", "B"))
AB_FREE = make_frame(("A", "B"), Model.FREE)


@pytest.fixture(scope="module")
def fused_m1(expert_one, expert_two):
    return combine_conjunctive([build_m1(expert_one), build_m1(expert_two)])


class TestFunctionalValues:
    def test_credibility_and_plausibility_on_model_one(self, fused_m1):
        assert credibility(fused_m1, "A∪C") == pytest.approx(0.5)
        assert credibility(fused_m1, "A") == pytest.approx(0.3)
        assert plausibility(fused_m1, "A") == pytest.approx(0.5)
        assert plausibility(fused_m1, "B") == pytest.approx(0.2)

    def test_pignistic_on_model_one(self, fused_m1):
        assert pignistic(fused_m1, "A") == pytest.approx(0.5238, abs=5e-5)
        assert pignistic(fused_m1, "C") == pytest.approx(0.3810, abs=5e-5)
        assert pignistic(fused_m1, "A∪C") == pytest.approx(0.9048, abs=5e-5)

    def test_pignistic_on_model_three(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m3(expert_one), build_m3(expert_two)])
        assert pignistic(fused, "A'") == pytest.approx(0.2167, abs=5e-5)
        assert pignistic(fused, "A'∪C'") == pytest.approx(0.9333, abs=5e-5)

    def test_model_four_generalized_values(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        assert credibility(fused, "A") == pytest.approx(0.8)
        assert plausibility(fused, "A") == pytest.approx(1.0)
        assert pignistic(fused, "A") == pytest.approx(0.9333, abs=5e-5)
        assert pignistic(fused, "A∩B") == pytest.approx(0.7167, abs=5e-5)

    def test_model_five_conflict_renormalizes_pignistic(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m5(expert_one), build_m5(expert_two)])
        assert fused.conflict == pytest.approx(0.12)
        assert pignistic(fused, "A") == pytest.approx(0.7955, abs=5e-5)

    def test_model_five_free_generalized_pignistic(self, expert_one, expert_two):
        fused = combine_conjunctive(
            [build_m5(expert_one, Model.FREE), build_m5(expert_two, Model.FREE)]
        )
        assert pignistic(fused, "A") == pytest.approx(0.8933, abs=5e-5)
        assert pignistic(fused, "B") == pytest.approx(0.6333, abs=5e-5)
        assert pignistic(fused, "A∩B") == pytest.approx(0.5267, abs=5e-5)

    def test_total_ignorance_spreads_by_cardinality(self):
        vacuous = mass_from_entries(AB_FREE, {"Θ": 1.0})
        assert pignistic(vacuous, "A") == pytest.approx(2.0 / 3.0)
        assert pignistic(vacuous, "A∩B") == pytest.approx(1.0 / 3.0)

    def test_criterion_value_dispatch(self, fused_m1):
        a = fused_m1.frame.atom(0)
        assert criterion_value(fused_m1, a, Criterion.MASS) == pytest.approx(0.3)
        assert criterion_value(fused_m1, a, Criterion.CREDIBILITY) == credibility(
            fused_m1, a
        )
        assert criterion_value(fused_m1, a, Criterion.PLAUSIBILITY) == plausibility(
            fused_m1, a
        )
        assert criterion_value(fused_m1, a, Criterion.PIGNISTIC) == pignistic(
            fused_m1, a
        )

    def test_criterion_value_refuses_what_is_not_a_criterion(self, fused_m1):
        with pytest.raises(ValueError) as caught:
            criterion_value(fused_m1, fused_m1.frame.atom(0), "entropy")
        assert str(caught.value) == "unknown criterion 'entropy'"


class TestFunctionalErrors:
    def test_pignistic_undefined_on_empty(self):
        m = mass_from_entries(AB, {"A": 1.0})
        with pytest.raises(ValueError, match="∅"):
            pignistic(m, "∅")

    def test_pignistic_undefined_under_total_conflict(self):
        m = mass_from_entries(AB, {"∅": 1.0}, World.OPEN)
        with pytest.raises(ValueError, match="total conflict"):
            pignistic(m, "A")

    def test_foreign_frame_rejected(self):
        m = mass_from_entries(AB, {"A": 1.0})
        with pytest.raises(ValueError, match="different frames|different frame"):
            credibility(m, make_frame(("A", "C")).atom(0))


class TestDecide:
    def test_instability_pair_flips_between_rules(self):
        one = build_m5(ExpertDeclaration.says_both(0.5, 0.6, 0.4))
        two = build_m5(ExpertDeclaration.says_both(0.5, 0.86, 1.0))
        atoms = AB.atoms()
        by_consensus = decide(combine_conjunctive([one, two]), "pignistic", atoms)
        by_pcr = decide(combine_pcr5(one, two), "pignistic", atoms)
        assert str(by_consensus.chosen) == "A"
        assert str(by_pcr.chosen) == "B"
        assert by_consensus.value(atoms[0]) == pytest.approx(0.5007, abs=5e-5)
        assert by_pcr.value(atoms[1]) == pytest.approx(0.5026, abs=5e-5)
        assert not by_consensus.tie and not by_pcr.tie

    def test_exact_tie_prefers_the_lowest_class(self):
        m = mass_from_entries(AB, {"A": 0.4, "B": 0.4, "Θ": 0.2})
        report = decide(m, "pignistic", AB.atoms())
        assert report.tie
        assert [str(el) for el in report.tied] == ["A", "B"]
        assert str(report.chosen) == "A"

    def test_a_gap_of_exactly_the_tolerance_is_a_tie(self):
        m = mass_from_entries(AB, {"B": 1e-12, "Θ": 1 - 1e-12})
        report = decide(m, Criterion.MASS, AB.atoms())
        a, b = AB.atoms()
        assert report.value(b) - report.value(a) == TIE_TOLERANCE
        assert report.tie
        assert report.tied == (a, b)
        assert report.chosen == a

    def test_candidates_accept_text(self, fused_m1):
        report = decide(fused_m1, Criterion.MASS, ["A", "B", "C"])
        assert str(report.chosen) == "A"
        assert report.value(fused_m1.frame.atom(2)) == pytest.approx(0.2)

    def test_values_keep_candidate_order(self, fused_m1):
        report = decide(fused_m1, "pignistic", ["C", "A"])
        assert [str(el) for el, _ in report.values] == ["C", "A"]

    def test_value_of_unlisted_candidate_raises(self, fused_m1):
        report = decide(fused_m1, "pignistic", ["A", "C"])
        with pytest.raises(KeyError):
            report.value(fused_m1.frame.atom(1))

    def test_value_parses_text_as_decide_does(self):
        m = mass_from_entries(make_frame(("A", "B", "C")), {"A": 0.5, "B∪C": 0.2, "Θ": 0.3})
        report = decide(m, Criterion.PLAUSIBILITY, ["A∪B", "C"])
        for text in ("A∪B", "B∪A", " A∪B ", "A ∪ B"):
            assert report.value(text) == 1.0
        with pytest.raises(KeyError, match="not among the candidates"):
            report.value("A")
        with pytest.raises(ValueError, match="malformed"):
            report.value("A∪")

    def test_empty_candidate_list_rejected(self, fused_m1):
        with pytest.raises(ValueError, match="at least one"):
            decide(fused_m1, "pignistic", [])

    def test_json_shape(self, fused_m1):
        payload = json.loads(decide(fused_m1, "pignistic", ["A", "C"]).to_json())
        assert payload["criterion"] == "pignistic"
        assert payload["chosen"] == "A"
        assert payload["tie"] is False
        assert set(payload["values"]) == {"A", "C"}

    def test_unknown_criterion_name(self, fused_m1):
        with pytest.raises(ValueError):
            decide(fused_m1, "entropy", ["A"])


def random_shafer_mass(rng: np.random.Generator, frame):
    elements = enumerate_elements(frame)
    weights = rng.random(len(elements))
    weights /= weights.sum()
    return mass_from_entries(frame, zip(elements, weights))


class TestOrderingProperties:
    def test_monotone_under_inclusion_and_bounded_by_pl(self):
        frame = make_frame(("A", "B", "C"))
        rng = np.random.default_rng(17)
        elements = enumerate_elements(frame)
        for _ in range(300):
            m = random_shafer_mass(rng, frame)
            for x in elements:
                for y in elements:
                    if x <= y:
                        assert credibility(m, x) <= credibility(m, y) + 1e-12
                        assert plausibility(m, x) <= plausibility(m, y) + 1e-12
                        assert pignistic(m, x) <= pignistic(m, y) + 1e-12
                assert (
                    credibility(m, x) - 1e-12
                    <= pignistic(m, x)
                    <= plausibility(m, x) + 1e-12
                )

    def test_conjunction_never_beats_its_own_classes(self):
        rng = np.random.default_rng(23)
        a, b = AB_FREE.atoms()
        both = a & b
        for _ in range(300):
            m = random_shafer_mass(rng, AB_FREE)
            for functional in (credibility, plausibility, pignistic):
                assert functional(m, both) <= functional(m, a) + 1e-12
                assert functional(m, both) <= functional(m, b) + 1e-12

    def test_pignistic_sums_to_one_over_exclusive_classes(self):
        frame = make_frame(("A", "B", "C", "D"))
        rng = np.random.default_rng(29)
        for _ in range(100):
            m = random_shafer_mass(rng, frame)
            total = sum(pignistic(m, atom) for atom in frame.atoms())
            assert total == pytest.approx(1.0, abs=1e-9)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ).filter(lambda vs: sum(vs) > 1e-6)
)
def test_mass_criterion_agrees_with_raw_lookup(values):
    total = sum(values)
    m = mass_from_entries(
        AB, {"A": values[0] / total, "B": values[1] / total, "Θ": values[2] / total}
    )
    report = decide(m, "mass", AB.atoms())
    assert report.value(AB.atom(0)) == m.value(AB.atom(0))
    assert report.value(AB.atom(1)) == m.value(AB.atom(1))


def reference_pignistic(m, x):
    """The pignistic sum element by element, each cardinality counted afresh."""
    denom = 1.0 - m.value_of_mask(0)
    total = 0.0
    for y, v in m.pairs:
        if y:
            total += (y & x.mask).bit_count() / y.bit_count() * v
    return total / denom


PIGNISTIC_FRAMES = (
    make_frame(("A", "B", "C")),
    make_frame(("A", "B", "C", "D")),
    AB_FREE,
    make_frame(("A", "B", "C"), Model.FREE),
)
PIGNISTIC_ELEMENTS = {frame: enumerate_elements(frame) for frame in PIGNISTIC_FRAMES}


@st.composite
def closed_and_open_masses(draw):
    """A closed-world mass, or the open-world conjunctive result of 2–3 of them."""
    frame = draw(st.sampled_from(PIGNISTIC_FRAMES))
    elements = PIGNISTIC_ELEMENTS[frame]
    masses = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        chosen = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=6, unique=True))
        weights = draw(
            st.lists(st.floats(min_value=1e-3, max_value=1.0),
                     min_size=len(chosen), max_size=len(chosen))
        )
        total = sum(weights)
        masses.append(mass_from_entries(frame, zip(chosen, (w / total for w in weights))))
    return masses[0] if len(masses) == 1 else combine_conjunctive(masses)


@given(closed_and_open_masses())
def test_pignistic_matches_the_element_by_element_reference_exactly(m):
    if m.value_of_mask(0) >= 1.0:
        return  # total conflict: pignistic is undefined, see TestFunctionalErrors
    for x in PIGNISTIC_ELEMENTS[m.frame]:
        assert pignistic(m, x) == reference_pignistic(m, x)


class TestCriteriaTable:
    def test_rows_equal_the_per_row_calls(self, fused_m1, expert_one, expert_two):
        fused_m4 = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        for m in (fused_m1, fused_m4):
            for el, v, bel, pl, bet in criteria_table(m):
                if el.is_empty:
                    continue
                expected = (m.value(el), credibility(m, el), plausibility(m, el),
                            pignistic(m, el))
                assert (v, bel, pl, bet) == expected
                assert [type(x) for x in (v, bel, pl, bet)] == [type(x) for x in expected]

    def test_exclusive_rows_lead_with_the_conflict(self, fused_m1):
        rows = criteria_table(fused_m1)
        assert [str(row[0]) for row in rows] == ["∅", "A", "B", "C", "A∪C", "Θ"]
        assert type(rows[2][2]) is int and rows[2][2] == 0  # bel(B): an empty sum
        assert rows[0] == (fused_m1.frame.empty(), fused_m1.conflict, 0.0, 0.0, None)
        assert fused_m1.conflict == pytest.approx(0.3)
        masks = [row[0].mask for row in rows[1:]]
        assert masks == sorted(masks) and 0 not in masks

    def test_free_rows_without_conflict_have_no_empty_row(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        assert fused.conflict == 0.0
        assert [str(row[0]) for row in criteria_table(fused)] == ["A∩B", "A", "B", "Θ"]

    @given(closed_and_open_masses())
    def test_empty_row_leads_exactly_when_it_carries_mass(self, m):
        if m.value_of_mask(0) >= 1.0:
            return  # total conflict: pignistic is undefined, see TestFunctionalErrors
        rows = criteria_table(m)
        empty_rows = [row for row in rows if row[0].is_empty]
        if m.conflict > 0.0:
            assert empty_rows == [rows[0]] == [(m.frame.empty(), m.conflict, 0.0, 0.0, None)]
        else:
            assert empty_rows == []
