"""Combination rules: conjunctive consensus, the two conflict
redistribution rules, and the projection back to exclusive classes."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expertfuse.expert_models import (
    ExpertDeclaration,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
)
from expertfuse.fusion import (
    combine,
    combine_conjunctive,
    combine_pcr5,
    combine_pcr6,
    redistribute_conjunctions,
)
from expertfuse.lattice import FocalElement, Model, enumerate_elements, make_frame
from expertfuse.mass import World, mass_from_entries, mass_from_masks

AB = make_frame(("A", "B"))
AB_FREE = make_frame(("A", "B"), Model.FREE)
ABC_FREE = make_frame(("A", "B", "C"), Model.FREE)


def table(m) -> dict[str, float]:
    return {str(FocalElement(m.frame, mask)): value for mask, value in m.pairs}


def assert_table(m, expected: dict[str, float], tol: float = 1e-12):
    got = table(m)
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=tol), key


class TestConjunctive:
    def test_model_one_running_example(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m1(expert_one), build_m1(expert_two)])
        assert fused.world is World.OPEN
        assert_table(fused, {"∅": 0.3, "A": 0.3, "C": 0.2, "Θ": 0.2})
        assert fused.conflict == pytest.approx(0.3)

    def test_model_two_running_example(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m2(expert_one), build_m2(expert_two)])
        assert_table(fused, {"∅": 0.5, "A": 0.3, "A∪B": 0.2})

    def test_model_three_running_example(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m3(expert_one), build_m3(expert_two)])
        assert_table(fused, {"C'": 0.5, "A'∪C'": 0.3, "Θ": 0.2})
        assert fused.conflict == 0.0

    def test_model_four_running_example(self, expert_one, expert_two):
        fused = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        assert_table(fused, {"A∩B": 0.5, "A": 0.3, "Θ": 0.2})
        assert fused.conflict == 0.0

    def test_model_five_both_frames(self, expert_one, expert_two):
        shafer = combine_conjunctive([build_m5(expert_one), build_m5(expert_two)])
        assert_table(shafer, {"∅": 0.12, "A": 0.6, "B": 0.08, "Θ": 0.2})
        free = combine_conjunctive(
            [build_m5(expert_one, Model.FREE), build_m5(expert_two, Model.FREE)]
        )
        assert_table(free, {"A": 0.6, "B": 0.08, "A∩B": 0.12, "Θ": 0.2})
        assert free.conflict == 0.0

    def test_three_experts_fold(self):
        m = mass_from_entries(AB, {"A": 0.5, "Θ": 0.5})
        fused = combine_conjunctive([m, m, m])
        assert_table(fused, {"A": 0.875, "Θ": 0.125})

    def test_commutative(self):
        rng = np.random.default_rng(3)
        masses = []
        for _ in range(3):
            v = rng.random(3)
            v /= v.sum()
            masses.append(mass_from_entries(AB, {"A": v[0], "B": v[1], "Θ": v[2]}))
        reference = combine_conjunctive(masses)
        for order in itertools.permutations(masses):
            permuted = combine_conjunctive(list(order))
            assert permuted.isclose(reference, tol=1e-12)
            assert permuted.conflict == pytest.approx(reference.conflict, abs=1e-12)

    def test_needs_two_masses_on_one_frame(self):
        m = mass_from_entries(AB, {"Θ": 1.0})
        with pytest.raises(ValueError, match="at least 2"):
            combine_conjunctive([m])
        other = mass_from_entries(make_frame(("A", "C")), {"Θ": 1.0})
        with pytest.raises(ValueError, match="share one frame"):
            combine_conjunctive([m, other])


class TestPcr5:
    def test_model_five_running_example(self, expert_one, expert_two):
        fused = combine_pcr5(build_m5(expert_one), build_m5(expert_two))
        assert fused.world is World.CLOSED
        assert fused.conflict == 0.0
        assert_table(fused, {"A": 0.69, "B": 0.11, "Θ": 0.2})

    def test_instability_pair(self):
        one = build_m5(ExpertDeclaration.says_both(0.5, 0.6, 0.4))
        two = build_m5(ExpertDeclaration.says_both(0.5, 0.86, 1.0))
        fused = combine_pcr5(one, two)
        assert_table(
            fused,
            {"A": 0.479948, "B": 0.485052, "Θ": 0.035},
            tol=5e-7,
        )

    def test_free_frame_pairs_never_conflict(self, expert_one, expert_two):
        conj = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        pcr = combine_pcr5(build_m4(expert_one), build_m4(expert_two))
        assert conj.conflict == 0.0
        for mask in range(8):
            assert pcr.value_of_mask(mask) == conj.value_of_mask(mask)

    def test_rejects_inputs_with_conflict_mass(self):
        clean = mass_from_entries(AB, {"A": 1.0})
        dirty = mass_from_entries(AB, {"∅": 0.2, "B": 0.8}, World.OPEN)
        with pytest.raises(ValueError, match="no mass on ∅"):
            combine_pcr5(clean, dirty)

    def test_total_conflict_splits_by_mass(self):
        a = mass_from_entries(AB, {"A": 1.0})
        b = mass_from_entries(AB, {"B": 1.0})
        fused = combine_pcr5(a, b)
        assert_table(fused, {"A": 0.5, "B": 0.5})


class TestPcr6:
    def test_two_experts_reduce_to_pairwise_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.random((2, 3))
            v /= v.sum(axis=1, keepdims=True)
            m1 = mass_from_entries(AB, {"A": v[0, 0], "B": v[0, 1], "Θ": v[0, 2]})
            m2 = mass_from_entries(AB, {"A": v[1, 0], "B": v[1, 1], "Θ": v[1, 2]})
            assert combine_pcr6([m1, m2]).isclose(combine_pcr5(m1, m2), tol=1e-12)

    def test_three_experts_hand_evaluated(self):
        """One conflicting triple (A, B, Θ) of joint weight 0.3; every
        participant, the vacuous one included, is repaid in proportion
        to the mass it staked, out of a common denominator of 2.1."""
        m1 = mass_from_entries(AB, {"A": 0.6, "Θ": 0.4})
        m2 = mass_from_entries(AB, {"B": 0.5, "Θ": 0.5})
        m3 = mass_from_entries(AB, {"Θ": 1.0})
        fused = combine_pcr6([m1, m2, m3])
        assert_table(
            fused,
            {
                "A": 0.3 + 0.6**2 * 0.5 / 2.1,
                "B": 0.2 + 0.5**2 * 0.6 / 2.1,
                "Θ": 0.2 + 1.0**2 * 0.3 / 2.1,
            },
        )
        assert fused.total() == pytest.approx(1.0, abs=1e-12)

    def test_three_identical_certain_experts(self):
        m = mass_from_entries(AB, {"A": 1.0})
        assert_table(combine_pcr6([m, m, m]), {"A": 1.0})

    def test_conflict_free_inputs_collapse_to_consensus(self):
        m1 = mass_from_entries(AB, {"A": 0.3, "A∪B": 0.7})
        m2 = mass_from_entries(AB, {"A": 0.5, "Θ": 0.5})
        m3 = mass_from_entries(AB, {"Θ": 1.0})
        conj = combine_conjunctive([m1, m2, m3])
        assert conj.conflict == 0.0
        fused6 = combine_pcr6([m1, m2, m3])
        for mask, value in conj.pairs:
            assert fused6.value_of_mask(mask) == pytest.approx(value, abs=0)

    @staticmethod
    def _spread(focal_count):
        """A mass on the first `focal_count` elements of {A, B, C, D}."""
        frame = make_frame(("A", "B", "C", "D"))
        elements = ("A", "B", "C", "D", "A∪B", "C∪D", "A∪C", "Θ")[:focal_count]
        return mass_from_entries(frame, {e: 1.0 / focal_count for e in elements})

    def test_five_experts_with_six_focal_elements_combine(self):
        fused = combine_pcr6([self._spread(6)] * 5)  # 7776 tuples
        assert fused.total() == pytest.approx(1.0, abs=1e-12)

    def test_six_experts_with_eight_focal_elements_are_refused(self):
        with pytest.raises(ValueError, match="262144 focal-element tuples.*limit of 100000"):
            combine_pcr6([self._spread(8)] * 6)
        with pytest.raises(ValueError, match="262144 focal-element tuples"):
            combine([self._spread(8)] * 6, "pcr6")


class TestRedistribution:
    def test_running_example_composed_with_pcr5(self, expert_one, expert_two):
        fused = combine_pcr5(build_m4(expert_one), build_m4(expert_two))
        projected = redistribute_conjunctions(fused)
        assert projected.frame.model is Model.SHAFER
        assert projected.frame.labels == ("A", "B")
        assert_table(projected, {"A": 0.8, "Θ": 0.2})

    def test_pure_conjunction_splits_equally_without_witnesses(self):
        m = mass_from_entries(AB_FREE, {"A∩B": 1.0})
        assert_table(redistribute_conjunctions(m), {"A": 0.5, "B": 0.5})

    def test_conjunction_redistributes_to_involved_classes_only(self):
        m = mass_from_entries(ABC_FREE, {"A∩B": 0.6, "C": 0.4})
        assert_table(redistribute_conjunctions(m), {"A": 0.3, "B": 0.3, "C": 0.4})

    def test_witnessed_split_follows_projected_singletons(self):
        m = mass_from_entries(ABC_FREE, {"A∩B": 0.4, "A": 0.45, "B": 0.15})
        projected = redistribute_conjunctions(m)
        assert_table(projected, {"A": 0.45 + 0.3, "B": 0.15 + 0.1})

    def test_shafer_mass_passes_through(self):
        m = mass_from_entries(AB, {"A": 0.7, "Θ": 0.3})
        out = redistribute_conjunctions(m)
        assert out.frame == m.frame
        assert out.isclose(m, tol=0.0)

    def test_conflict_mass_rejected(self):
        m = mass_from_entries(AB_FREE, {"∅": 0.1, "Θ": 0.9}, World.OPEN)
        with pytest.raises(ValueError, match="conflict"):
            redistribute_conjunctions(m)

    def test_disjunction_of_overlaps_projects_to_union(self):
        m = mass_from_entries(AB_FREE, {"A∪B": 1.0})
        assert_table(redistribute_conjunctions(m), {"Θ": 1.0})


class TestDispatch:
    def test_rule_names_route_correctly(self, expert_one, expert_two):
        masses = [build_m5(expert_one), build_m5(expert_two)]
        assert combine(masses, "conjunctive").isclose(combine_conjunctive(masses))
        assert combine(masses, "pcr5").isclose(combine_pcr5(*masses))
        assert combine(masses, "pcr6").isclose(combine_pcr6(masses))

    def test_pcr5_requires_exactly_two(self):
        m = mass_from_entries(AB, {"Θ": 1.0})
        with pytest.raises(ValueError, match="exactly two"):
            combine([m, m, m], "pcr5")

    def test_unknown_rule(self):
        m = mass_from_entries(AB, {"Θ": 1.0})
        with pytest.raises(ValueError, match="unknown rule"):
            combine([m, m], "dempster")


weights3 = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=3, max_size=3
)


def normalized(values):
    total = sum(values)
    elements = enumerate_elements(AB)
    return mass_from_entries(AB, zip(elements, (v / total for v in values)))


@given(weights3, weights3)
def test_pcr_rules_stay_normalized_and_conflict_free(v1, v2):
    m1, m2 = normalized(v1), normalized(v2)
    for fused in (combine_pcr5(m1, m2), combine_pcr6([m1, m2])):
        assert fused.conflict == 0.0
        assert fused.total() == pytest.approx(1.0, abs=1e-9)


@given(weights3, weights3)
def test_pcr6_pair_matches_pcr5(v1, v2):
    m1, m2 = normalized(v1), normalized(v2)
    assert combine_pcr6([m1, m2]).isclose(combine_pcr5(m1, m2), tol=1e-12)


def reference_pcr6(masses):
    """PCR6 tuple by tuple, each tuple's meet, product and sum from scratch.

    This is the plain definition `combine_pcr6` must reproduce bit for bit:
    products ((v0·v1)·v2)…, sums ((v0+v1)+v2)… left to right (as `sum` adds
    floats before Python 3.12), and the same accumulation order.
    """
    frame = masses[0].frame
    acc = {}
    for tup in itertools.product(*(m.pairs for m in masses)):
        meet = tup[0][0]
        product = tup[0][1]
        for x, v in tup[1:]:
            meet &= x
            product *= v
        if meet:
            acc[meet] = acc.get(meet, 0.0) + product
            continue
        total = 0.0
        for _, v in tup:
            total += v
        for x, v in tup:
            if total > 0.0:
                acc[x] = acc.get(x, 0.0) + v * product / total
    return mass_from_masks(frame, acc, World.CLOSED)


PCR6_FRAMES = (
    make_frame(("A", "B")),
    make_frame(("A", "B", "C")),
    make_frame(("A", "B", "C", "D", "E")),
    AB_FREE,
    ABC_FREE,
)
PCR6_ELEMENTS = {frame: enumerate_elements(frame) for frame in PCR6_FRAMES}


@st.composite
def pcr6_inputs(draw):
    """2–6 closed-world masses on one frame, at most 4 096 tuples."""
    frame = draw(st.sampled_from(PCR6_FRAMES))
    experts = draw(st.integers(min_value=2, max_value=6))
    most = 8 if experts <= 3 else 4
    masses = []
    for _ in range(experts):
        chosen = draw(
            st.lists(st.sampled_from(PCR6_ELEMENTS[frame]), min_size=1, max_size=most,
                     unique=True)
        )
        weights = draw(
            st.lists(st.floats(min_value=1e-3, max_value=1.0),
                     min_size=len(chosen), max_size=len(chosen))
        )
        total = sum(weights)
        masses.append(mass_from_entries(frame, zip(chosen, (w / total for w in weights))))
    return masses


@given(pcr6_inputs())
def test_pcr6_matches_the_tuple_by_tuple_reference_exactly(masses):
    assert combine_pcr6(masses).pairs == reference_pcr6(masses).pairs


def test_pcr6_reference_holds_on_the_heaviest_shapes():
    spread = TestPcr6._spread
    mixed = [spread(4), spread(5), spread(6), spread(3), spread(2), spread(7)]  # 5 040 tuples
    for masses in ([spread(6)] * 5, mixed):
        assert combine_pcr6(masses).pairs == reference_pcr6(masses).pairs
