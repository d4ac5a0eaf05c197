"""Expert declaration models and the certainty-weighted tile model."""

from __future__ import annotations

import numpy as np
import pytest

from expertfuse.expert_models import (
    DEFAULT_WEIGHTS,
    SEDIMENT_CLASSES,
    AnnotationEntry,
    CertaintyWeights,
    DeclarationKind,
    ExpertDeclaration,
    TileAnnotation,
    build_generalized_m5,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    _frame_ab,
    _frame_abc,
    _frame_primed,
    sediment_frame,
)
from expertfuse.fusion import combine_conjunctive
from expertfuse.lattice import FocalElement, Model
from expertfuse.mass import World, mass_from_entries


def expect(frame, entries, world="closed"):
    return mass_from_entries(frame, entries, World(world))


class TestDeclarations:
    def test_says_a_fixes_the_proportions(self):
        d = ExpertDeclaration.says_a(0.6)
        assert d.p_a == 1.0 and d.p_b == 0.0
        assert d.c_a == 0.6

    def test_says_both_splits_the_tile(self):
        d = ExpertDeclaration.says_both(0.5, 0.6, 0.4)
        assert d.p_a == d.p_b == 0.5
        assert d.c_a == 0.6 and d.c_b == 0.4

    @pytest.mark.parametrize("value", [-0.1, 1.2])
    def test_certainties_must_be_probabilities(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ExpertDeclaration.says_a(value)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ExpertDeclaration.says_both(0.5, value, 0.5)

    def test_proportion_out_of_range(self):
        with pytest.raises(ValueError):
            ExpertDeclaration.says_both(1.3, 0.5, 0.5)

    @pytest.mark.parametrize("kind, p_a, p_b, message", [
        (DeclarationKind.SAYS_A, 0.5, 0.5, "a says-A declaration covers the whole tile (p_a = 1)"),
        (DeclarationKind.SAYS_B, 0.5, 0.5, "a says-B declaration covers the whole tile (p_b = 1)"),
        (DeclarationKind.SAYS_BOTH, 0.5, 0.4, "says-both proportions must sum to 1"),
    ])
    def test_proportions_must_fit_the_kind(self, kind, p_a, p_b, message):
        with pytest.raises(ValueError) as caught:
            ExpertDeclaration(kind, p_a, p_b, 0.6, 0.4)
        assert str(caught.value) == message

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ValueError, match=r"c_a must lie in \[0, 1\]"):
            ExpertDeclaration.says_a(value)
        with pytest.raises(ValueError, match=r"p_a must lie in \[0, 1\]"):
            ExpertDeclaration.says_both(value, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"c_b must lie in \[0, 1\]"):
            ExpertDeclaration.says_both(0.5, 0.5, value)

    @pytest.mark.parametrize("fields, message", [
        ((1.0, 0.0, True, 0.0), "c_a must be a real number, got True"),
        ((True, 0.0, 0.6, 0.0), "p_a must be a real number, got True"),
        ((1.0, False, 0.6, 0.0), "p_b must be a real number, got False"),
        ((1.0, 0.0, "0.6", 0.0), "c_a must be a real number, got '0.6'"),
        ((1.0, 0.0, 0.6, None), "c_b must be a real number, got None"),
        ((1.0, 0.0, 0.6j, 0.0), "c_a must be a real number, got 0.6j"),
    ], ids=["c_a-bool", "p_a-bool", "p_b-bool", "str", "none", "complex"])
    def test_a_bool_or_non_real_field_is_refused(self, fields, message):
        # the first case is says_a(True), whose build_m5 mass was once {A: 1}
        with pytest.raises(ValueError) as refused:
            ExpertDeclaration(DeclarationKind.SAYS_A, *fields)
        assert str(refused.value) == message


class TestSingleExpertMasses:
    """Mass tables for the two running declarations, model by model."""

    def test_model_one(self, expert_one, expert_two):
        f = _frame_abc()
        assert build_m1(expert_one).isclose(expect(f, {"A": 0.6, "Θ": 0.4}))
        assert build_m1(expert_two).isclose(expect(f, {"C": 0.5, "Θ": 0.5}))

    def test_model_two(self, expert_one, expert_two):
        f = _frame_abc()
        assert build_m2(expert_one).isclose(expect(f, {"A": 0.6, "A∪B": 0.4}))
        assert build_m2(expert_two).isclose(expect(f, {"C": 0.5, "A∪B": 0.5}))

    def test_model_three(self, expert_one, expert_two):
        f = _frame_primed()
        assert build_m3(expert_one).isclose(expect(f, {"A'∪C'": 0.6, "Θ": 0.4}))
        assert build_m3(expert_two).isclose(expect(f, {"C'": 0.5, "Θ": 0.5}))

    def test_model_four(self, expert_one, expert_two):
        f = _frame_ab(Model.FREE)
        assert build_m4(expert_one).isclose(expect(f, {"A": 0.6, "Θ": 0.4}))
        assert build_m4(expert_two).isclose(expect(f, {"A∩B": 0.5, "Θ": 0.5}))

    def test_model_five(self, expert_one, expert_two):
        f = _frame_ab(Model.SHAFER)
        assert build_m5(expert_one).isclose(expect(f, {"A": 0.6, "Θ": 0.4}))
        assert build_m5(expert_two).isclose(
            expect(f, {"A": 0.3, "B": 0.2, "Θ": 0.5})
        )

    def test_model_five_free_keeps_the_same_table(self, expert_two):
        shafer = build_m5(expert_two)
        free = build_m5(expert_two, Model.FREE)
        assert free.frame.model is Model.FREE
        for mask, value in shafer.pairs:
            element = FocalElement(shafer.frame, mask)
            assert free.value(free.frame.parse_element(str(element))) == value

    def test_says_b_mirrors_says_a(self):
        d = ExpertDeclaration.says_b(0.7)
        assert build_m1(d).isclose(expect(_frame_abc(), {"B": 0.7, "Θ": 0.3}))
        assert build_m4(d).isclose(
            expect(_frame_ab(Model.FREE), {"B": 0.7, "Θ": 0.3})
        )


TWO_CLASS_MODELS = {
    "M1": (build_m1, _frame_abc, ("A", "B", "C"), "Θ"),
    "M2": (build_m2, _frame_abc, ("A", "B", "C"), "A∪B"),
    "M3": (build_m3, _frame_primed, ("A'∪C'", "B'∪C'", "C'"), "Θ"),
    "M4": (build_m4, lambda: _frame_ab(Model.FREE), ("A", "B", "A∩B"), "A∪B"),
}
# (declaration, index of the element it supports, weight it gives that element)
DECLARATIONS = {
    "says-A": (ExpertDeclaration.says_a(0.7), 0, 0.7),
    "says-B": (ExpertDeclaration.says_b(0.6), 1, 0.6),
    "says-both": (ExpertDeclaration.says_both(0.25, 0.8, 0.4), 2, 0.5),
}


@pytest.mark.parametrize("kind", DECLARATIONS)
@pytest.mark.parametrize("model", TWO_CLASS_MODELS)
def test_two_class_models_place_each_declaration(model, kind):
    build, frame, says, ignorance = TWO_CLASS_MODELS[model]
    declaration, index, weight = DECLARATIONS[kind]
    expected = expect(frame(), [(says[index], weight), (ignorance, 1.0 - weight)])
    assert build(declaration).isclose(expected)
    assert build(declaration).frame is frame()


def random_declaration(rng: np.random.Generator) -> ExpertDeclaration:
    kind = rng.integers(0, 3)
    if kind == 0:
        return ExpertDeclaration.says_a(rng.random())
    if kind == 1:
        return ExpertDeclaration.says_b(rng.random())
    return ExpertDeclaration.says_both(rng.random(), rng.random(), rng.random())


class TestOverlapCorrespondence:
    """The primed three-class frame and the free two-class frame encode the
    same Venn cells: A' is the leftmost cell, B' the rightmost, C' the
    overlap.  Cell masks therefore agree bit for bit, before and after
    conjunctive combination."""

    def test_frames_share_the_cell_layout(self):
        primed = _frame_primed()
        free = _frame_ab(Model.FREE)
        assert primed.n_cells == free.n_cells == 3
        assert free.atom(0).mask == primed.parse_element("A'∪C'").mask
        assert free.atom(1).mask == primed.parse_element("B'∪C'").mask
        assert free.parse_element("A∩B").mask == primed.parse_element("C'").mask

    def test_running_example_fuses_identically(self, expert_one, expert_two):
        fused3 = combine_conjunctive([build_m3(expert_one), build_m3(expert_two)])
        fused4 = combine_conjunctive([build_m4(expert_one), build_m4(expert_two)])
        for mask in range(8):
            assert fused3.value_of_mask(mask) == fused4.value_of_mask(mask)

    def test_thousand_random_pairs_fuse_identically(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            d1, d2 = random_declaration(rng), random_declaration(rng)
            fused3 = combine_conjunctive([build_m3(d1), build_m3(d2)])
            fused4 = combine_conjunctive([build_m4(d1), build_m4(d2)])
            for mask in range(8):
                assert fused3.value_of_mask(mask) == fused4.value_of_mask(mask)


class TestSingleClassAgreement:
    """When an expert names one class outright, the ignorance-on-A∪B models
    all reduce to the same two-line table."""

    @pytest.mark.parametrize("certainty", [0.0, 0.35, 1.0])
    def test_m4_and_free_m5_coincide(self, certainty):
        for d in (ExpertDeclaration.says_a(certainty), ExpertDeclaration.says_b(certainty)):
            m4 = build_m4(d)
            m5 = build_m5(d, Model.FREE)
            assert m4.frame == m5.frame
            for mask in range(8):
                assert m4.value_of_mask(mask) == m5.value_of_mask(mask)

    def test_m2_matches_on_the_named_class(self):
        d = ExpertDeclaration.says_a(0.45)
        m2 = build_m2(d)
        m5 = build_m5(d)
        assert m2.value(_frame_abc().atom(0)) == m5.value(_frame_ab(Model.SHAFER).atom(0))
        assert m2.value(_frame_abc().parse_element("A∪B")) == pytest.approx(0.55)


class TestCertaintyWeights:
    def test_default_ladder(self):
        assert DEFAULT_WEIGHTS.weight(1) == pytest.approx(2.0 / 3.0)
        assert DEFAULT_WEIGHTS.weight(2) == pytest.approx(0.5)
        assert DEFAULT_WEIGHTS.weight(3) == pytest.approx(1.0 / 3.0)

    def test_levels_outside_the_ladder_rejected(self):
        with pytest.raises(ValueError, match="level"):
            DEFAULT_WEIGHTS.weight(0)
        with pytest.raises(ValueError, match="level"):
            DEFAULT_WEIGHTS.weight(4)

    @pytest.mark.parametrize("level", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
    def test_a_bool_or_non_integer_level_is_refused(self, level):
        # weight(True) was once the weight of level 1, weight(2.0) a bare TypeError
        with pytest.raises(ValueError) as refused:
            DEFAULT_WEIGHTS.weight(level)
        assert str(refused.value) == f"certainty level must be an integer, got {level!r}"

    def test_a_numpy_integer_level_is_weighed(self):
        assert DEFAULT_WEIGHTS.weight(np.int64(2)) == 0.5

    def test_weights_must_decrease(self):
        with pytest.raises(ValueError):
            CertaintyWeights(0.5, 0.6, 0.3)
        with pytest.raises(ValueError):
            CertaintyWeights(0.5, 0.4, 0.0)
        CertaintyWeights(1.0, 1.0, 1.0)  # flat is allowed

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_rejected(self, value):
        for name, weights in (("c1", (value, 0.5, 0.3)), ("c2", (1.0, value, 0.3)),
                              ("c3", (1.0, 0.5, value))):
            with pytest.raises(ValueError) as refused:
                CertaintyWeights(*weights)
            assert str(refused.value) == f"certainty weight {name} must lie in [0, 1], got {value}"

    def test_the_ladder_names_all_three_weights(self):
        with pytest.raises(ValueError) as refused:
            CertaintyWeights(0.5, 0.6, 0.3)
        assert str(refused.value) == ("certainty weights must satisfy 0 < c3 <= c2 <= c1 <= 1, "
                                      "got c1=0.5, c2=0.6, c3=0.3")


class TestGeneralizedModel:
    def test_single_confident_class(self):
        tile = TileAnnotation("t1", "e1", (AnnotationEntry("rock", 1, 1.0),))
        m = build_generalized_m5(tile)
        frame = sediment_frame()
        assert m.value(frame.atom(0)) == pytest.approx(2.0 / 3.0)
        assert m.value(frame.theta()) == pytest.approx(1.0 / 3.0)

    def test_two_classes_with_mixed_certainty(self):
        tile = TileAnnotation(
            "t2",
            "e1",
            (AnnotationEntry("sand", 1, 0.5), AnnotationEntry("silt", 3, 0.5)),
        )
        m = build_generalized_m5(tile)
        frame = sediment_frame()
        assert m.value(frame.atom(SEDIMENT_CLASSES.index("sand"))) == pytest.approx(1 / 3)
        assert m.value(frame.atom(SEDIMENT_CLASSES.index("silt"))) == pytest.approx(1 / 6)
        assert m.value(frame.theta()) == pytest.approx(0.5)

    def test_no_entries_means_total_ignorance(self):
        tile = TileAnnotation("t3", "e1", ())
        m = build_generalized_m5(tile)
        assert m.value(sediment_frame().theta()) == pytest.approx(1.0)

    def test_repeated_class_accumulates(self):
        tile = TileAnnotation(
            "t4",
            "e1",
            (AnnotationEntry("sand", 1, 0.25), AnnotationEntry("sand", 2, 0.25)),
        )
        m = build_generalized_m5(tile)
        frame = sediment_frame()
        assert m.value(frame.atom(SEDIMENT_CLASSES.index("sand"))) == pytest.approx(
            0.25 * 2 / 3 + 0.25 * 0.5
        )

    def test_unknown_class_rejected(self):
        tile = TileAnnotation("t5", "e1", (AnnotationEntry("lava", 1, 0.5),))
        with pytest.raises(ValueError, match="lava"):
            build_generalized_m5(tile)

    def test_custom_frame_and_weights(self):
        frame = sediment_frame()
        tile = TileAnnotation("t6", "e1", (AnnotationEntry("other", 2, 0.8),))
        m = build_generalized_m5(tile, weights=CertaintyWeights(1.0, 1.0, 1.0), frame=frame)
        assert m.value(frame.atom(6)) == pytest.approx(0.8)


class TestTileAnnotationValidation:
    def test_level_must_be_spoken(self):
        with pytest.raises(ValueError, match="level"):
            TileAnnotation("t", "e", (AnnotationEntry("sand", 5, 0.5),))

    @pytest.mark.parametrize("level", [True, 2.0, "2", None], ids=["bool", "float", "str", "none"])
    def test_a_bool_or_non_integer_level_is_refused(self, level):
        # a level of True was once weighed as level 1
        with pytest.raises(ValueError) as refused:
            TileAnnotation("t", "e", (("sand", level, 0.5),))
        assert str(refused.value) == f"certainty level must be an integer, got {level!r}"

    @pytest.mark.parametrize("proportion", [True, "0.5", None, 0.5j],
                             ids=["bool", "str", "none", "complex"])
    def test_a_bool_or_non_real_proportion_is_refused(self, proportion):
        # a proportion of True was once read as 1
        with pytest.raises(ValueError) as refused:
            TileAnnotation("t", "e", (("sand", 1, proportion),))
        assert str(refused.value) == f"proportion must be a real number, got {proportion!r}"

    def test_proportion_range(self):
        with pytest.raises(ValueError, match="proportion"):
            TileAnnotation("t", "e", (AnnotationEntry("sand", 1, 1.5),))
        with pytest.raises(ValueError, match="proportion"):
            TileAnnotation("t", "e", (AnnotationEntry("sand", 1, -0.1),))

    def test_the_sum_refusal_reads_as_the_corpus_one(self):
        with pytest.raises(ValueError) as refused:
            TileAnnotation("t1", "e1", (("sand", 1, 0.75), ("silt", 1, 0.5)))
        assert str(refused.value) == "proportions for tile 't1' by expert 'e1' sum to 1.25 > 1"

    def test_proportions_cannot_exceed_the_tile(self):
        with pytest.raises(ValueError):
            TileAnnotation(
                "t",
                "e",
                (AnnotationEntry("sand", 1, 0.7), AnnotationEntry("silt", 1, 0.4)),
            )
