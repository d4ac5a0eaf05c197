"""Acceptance gate: one numbered test per criterion the release must meet.

Golden fusion tables are pinned at the four printed decimals (1e-4), the
Monte Carlo flip rates at one percentage point, fuzzed algebraic
properties at 1e-12 or exactly, and the corpus cross-check at two
standard errors.  An unnumbered test holds the flip rates to four
standard errors of the seed-independent reference in
`tests/reference_rates.json`.  The conftest hook turns the numbered
tests into the CRITERION summary lines at the end of the run.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from expertfuse.corpus import (
    CSV_HEADER,
    conflict_matrix,
    decision_difference,
    expert_pair,
    load_annotations,
    parse_annotations,
    tile_mass,
)
from expertfuse.decision import Criterion, credibility, decide, pignistic, plausibility
from expertfuse.expert_models import (
    CertaintyWeights,
    ExpertDeclaration,
    build_m1,
    build_m2,
    build_m3,
    build_m4,
    build_m5,
    sediment_frame,
)
from expertfuse.fusion import (
    combine_conjunctive,
    combine_pcr5,
    combine_pcr6,
    redistribute_conjunctions,
)
from expertfuse.lattice import Model, enumerate_elements, make_frame
from expertfuse.mass import World, mass_from_entries, mass_from_masks
from expertfuse.stability import _accepted_masses, decision_change_rate, invariance_check

FOUR_DECIMALS = 1e-4

STABILITY_SEED = 17
STABILITY_PAIRS = 200_000

# Reference decision-change rates per class count, as percentages.
RATE_TARGETS = {2: 0.006, 3: 0.055, 4: 0.091, 5: 0.121, 6: 0.146, 7: 0.164}
RATE_TOLERANCE = 0.010

FUZZ_SEED = 24036
FUZZ_CASES = 10_000

CONSISTENCY_SEED = 90125
CONSISTENCY_TILES = 4_000


def _golden(m, text: str) -> float:
    return m.value(m.frame.parse_element(text))


# ---------------------------------------------------------------------------
# Golden tables for the running example (expert one: "A" at 0.6, expert
# two: half A half B at 0.6 / 0.4).


def test_criterion_01_exclusive_third_class_consensus(expert_one, expert_two):
    """Third-class model: consensus masses and pignistic values."""
    fused = combine_conjunctive([build_m1(expert_one), build_m1(expert_two)])
    assert fused.conflict == pytest.approx(0.3, abs=FOUR_DECIMALS)
    assert _golden(fused, "A") == pytest.approx(0.3, abs=FOUR_DECIMALS)
    assert _golden(fused, "C") == pytest.approx(0.2, abs=FOUR_DECIMALS)
    assert _golden(fused, "Θ") == pytest.approx(0.2, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A") == pytest.approx(0.5238, abs=FOUR_DECIMALS)
    assert pignistic(fused, "C") == pytest.approx(0.3810, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A∪C") == pytest.approx(0.9048, abs=FOUR_DECIMALS)


def test_criterion_02_partial_ignorance_consensus(expert_one, expert_two):
    """Partial-ignorance model: consensus masses, null mass on C."""
    # m1 = {A: 0.6, A∪B: 0.4} and m2 = {C: 0.5, A∪B: 0.5}: the products
    # land on ∅ (0.3 + 0.2), A (0.3) and A∪B (0.2); B and C get nothing.
    fused = combine_conjunctive([build_m2(expert_one), build_m2(expert_two)])
    assert fused.conflict == pytest.approx(0.5, abs=FOUR_DECIMALS)
    assert _golden(fused, "A") == pytest.approx(0.3, abs=FOUR_DECIMALS)
    assert _golden(fused, "A∪B") == pytest.approx(0.2, abs=FOUR_DECIMALS)
    assert _golden(fused, "B") == pytest.approx(0.0, abs=FOUR_DECIMALS)
    assert _golden(fused, "C") == pytest.approx(0.0, abs=FOUR_DECIMALS)
    # No mass outside the pinned table.
    pinned = math.fsum(
        [fused.conflict] + [_golden(fused, text) for text in ("A", "A∪B", "B", "C")]
    )
    assert pinned == pytest.approx(1.0, abs=FOUR_DECIMALS)


def test_criterion_03_primed_frame_consensus(expert_one, expert_two):
    """Primed three-class model: consensus masses and pignistic values."""
    fused = combine_conjunctive([build_m3(expert_one), build_m3(expert_two)])
    assert _golden(fused, "C'") == pytest.approx(0.5, abs=FOUR_DECIMALS)
    assert _golden(fused, "A'∪C'") == pytest.approx(0.3, abs=FOUR_DECIMALS)
    assert _golden(fused, "Θ") == pytest.approx(0.2, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A'") == pytest.approx(0.2167, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A'∪C'") == pytest.approx(0.9333, abs=FOUR_DECIMALS)


def test_criterion_04_free_frame_consensus_and_projection(expert_one, expert_two):
    """Free-frame model: functionals on A∩B, then the projected result."""
    pair = [build_m4(expert_one), build_m4(expert_two)]
    fused = combine_conjunctive(pair)
    assert _golden(fused, "A∩B") == pytest.approx(0.5, abs=FOUR_DECIMALS)
    assert credibility(fused, "A") == pytest.approx(0.8, abs=FOUR_DECIMALS)
    assert plausibility(fused, "A") == pytest.approx(1.0, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A") == pytest.approx(0.9333, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A∩B") == pytest.approx(0.7167, abs=FOUR_DECIMALS)

    projected = redistribute_conjunctions(combine_pcr5(*pair))
    assert _golden(projected, "A") == pytest.approx(0.8, abs=FOUR_DECIMALS)
    assert _golden(projected, "A∪B") == pytest.approx(0.2, abs=FOUR_DECIMALS)
    assert pignistic(projected, "A") == pytest.approx(0.9, abs=FOUR_DECIMALS)


def _random_declaration(rng: np.random.Generator) -> ExpertDeclaration:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return ExpertDeclaration.says_a(float(rng.random()))
    if kind == 1:
        return ExpertDeclaration.says_b(float(rng.random()))
    return ExpertDeclaration.says_both(
        float(rng.random()), float(rng.random()), float(rng.random())
    )


def test_criterion_05_primed_and_free_models_coincide(expert_one, expert_two):
    """Primed and free fusions agree cell by cell, example plus 1000 random pairs."""
    pairs = [(expert_one, expert_two)]
    rng = np.random.default_rng(FUZZ_SEED)
    pairs.extend(
        (_random_declaration(rng), _random_declaration(rng)) for _ in range(1000)
    )
    for one, two in pairs:
        primed = combine_conjunctive([build_m3(one), build_m3(two)])
        free = combine_conjunctive([build_m4(one), build_m4(two)])
        for mask in range(8):
            assert primed.value_of_mask(mask) == free.value_of_mask(mask)


def test_criterion_06_per_class_model_tables(expert_one, expert_two):
    """Per-class model: two-class consensus, free-frame pignistic, PCR5."""
    pair = [build_m5(expert_one), build_m5(expert_two)]
    fused = combine_conjunctive(pair)
    assert fused.conflict == pytest.approx(0.12, abs=FOUR_DECIMALS)
    assert pignistic(fused, "A") == pytest.approx(0.7955, abs=FOUR_DECIMALS)

    free = combine_conjunctive(
        [build_m5(expert_one, Model.FREE), build_m5(expert_two, Model.FREE)]
    )
    assert pignistic(free, "A") == pytest.approx(0.8933, abs=FOUR_DECIMALS)
    assert pignistic(free, "B") == pytest.approx(0.6333, abs=FOUR_DECIMALS)
    assert pignistic(free, "A∩B") == pytest.approx(0.5267, abs=FOUR_DECIMALS)

    repaired = combine_pcr5(*pair)
    assert _golden(repaired, "A") == pytest.approx(0.69, abs=FOUR_DECIMALS)
    assert _golden(repaired, "B") == pytest.approx(0.11, abs=FOUR_DECIMALS)
    assert _golden(repaired, "A∪B") == pytest.approx(0.2, abs=FOUR_DECIMALS)


def test_criterion_07_rule_choice_flips_the_decision():
    """Near-tied pair: consensus decides A, redistribution decides B."""
    frame = make_frame(("A", "B"))
    one = mass_from_entries(frame, {"A": 0.3, "B": 0.2, "Θ": 0.5})
    two = mass_from_entries(frame, {"A": 0.43, "B": 0.5, "Θ": 0.07})

    fused = combine_conjunctive([one, two])
    assert pignistic(fused, "A") == pytest.approx(0.5007, abs=FOUR_DECIMALS)
    assert str(decide(fused, Criterion.PIGNISTIC, frame.atoms()).chosen) == "A"

    repaired = combine_pcr5(one, two)
    assert _golden(repaired, "A") == pytest.approx(0.479948, abs=1e-6)
    assert _golden(repaired, "B") == pytest.approx(0.485052, abs=1e-6)
    assert pignistic(repaired, "B") == pytest.approx(0.5026, abs=FOUR_DECIMALS)
    assert str(decide(repaired, Criterion.PIGNISTIC, frame.atoms()).chosen) == "B"


# ---------------------------------------------------------------------------
# Monte Carlo behavior.


@pytest.fixture(scope="module")
def stability_results():
    """Decision-change runs at full sample size, one per class count."""
    return {
        n: decision_change_rate(n, STABILITY_PAIRS, seed=STABILITY_SEED)
        for n in range(2, 8)
    }


@pytest.mark.parametrize("n", sorted(RATE_TARGETS))
def test_criterion_08_decision_change_rates(stability_results, n):
    """Flip rates for 2..7 classes match the reference column within a point."""
    result = stability_results[n]
    assert result.accepted_pairs == STABILITY_PAIRS
    assert result.change_rate == pytest.approx(RATE_TARGETS[n], abs=RATE_TOLERANCE)


@pytest.mark.parametrize("n", sorted(RATE_TARGETS))
def test_criterion_09_conflict_concentrates_on_flips(stability_results, n):
    """Mean conflict over flipped pairs beats the unconditional mean."""
    result = stability_results[n]
    assert result.mean_conflict_changed > result.mean_conflict


@pytest.fixture(scope="module")
def reference_rates(repo_root):
    """Flip rates pooled over 10^8 pairs per class count, from scripts/reference_rates.py."""
    document = json.loads((repo_root / "tests" / "reference_rates.json").read_text(encoding="utf-8"))
    return {int(n): row for n, row in document["rates"].items()}


@pytest.mark.parametrize("n", sorted(RATE_TARGETS))
def test_rates_agree_with_the_seed_independent_reference(stability_results, reference_rates, n):
    # Criterion 8's one-point band spans ~12 standard errors at n = 7; this
    # one spans 4 of the difference between two independent samples.
    reference = reference_rates[n]
    assert reference["rate"] == reference["flips"] / reference["pairs"]
    rate = stability_results[n].change_rate
    se_fixture = math.sqrt(rate * (1.0 - rate) / STABILITY_PAIRS)
    assert abs(rate - reference["rate"]) <= 4.0 * math.hypot(se_fixture, reference["se"])


@pytest.mark.parametrize("constraint", ["across", "within"])
def test_criterion_10_stabilizing_equalities_never_flip(constraint):
    """Constrained pairs produce zero flips in 10^5 trials."""
    assert invariance_check(100_000, seed=STABILITY_SEED, constraint=constraint) == []


# ---------------------------------------------------------------------------
# Fuzzed algebraic properties.  Each block runs at least 10^4 cases.


def _random_shafer_mass(frame, rng: np.random.Generator):
    """Random closed-world mass over every non-empty subset, some zeroed."""
    weights = rng.random(frame.full_mask)
    weights[rng.random(frame.full_mask) < 0.4] = 0.0
    if not weights.sum():
        weights[:] = 1.0
    weights /= weights.sum()
    entries = {mask + 1: float(w) for mask, w in enumerate(weights) if w > 0.0}
    return mass_from_masks(frame, entries, World.CLOSED)


def test_criterion_11_pair_rules_agree_and_stay_normalized():
    """Fuzzed rule and functional properties, 10^4 cases per block."""
    frame = make_frame(("A", "B", "C"))
    rng = np.random.default_rng(FUZZ_SEED)
    for _ in range(FUZZ_CASES):
        one = _random_shafer_mass(frame, rng)
        two = _random_shafer_mass(frame, rng)
        fused = combine_conjunctive([one, two])
        via5 = combine_pcr5(one, two)
        via6 = combine_pcr6([one, two])
        assert math.isclose(fused.total(), 1.0, abs_tol=1e-12)
        for repaired in (via5, via6):
            assert repaired.conflict == 0.0
            assert math.isclose(repaired.total(), 1.0, abs_tol=1e-12)
        for mask in range(frame.full_mask + 1):
            assert via6.value_of_mask(mask) == pytest.approx(
                via5.value_of_mask(mask), abs=1e-12
            )


def test_criterion_11_conflict_free_redistribution_is_identity():
    """Without conflict, PCR5 and PCR6 reduce to the conjunctive result."""
    chain_frame = make_frame(("A", "B", "C"))
    free_frame = make_frame(("A", "B"), Model.FREE)
    free_masks = (0b100, 0b101, 0b110, 0b111)
    rng = np.random.default_rng(FUZZ_SEED + 1)
    for case in range(FUZZ_CASES):
        if case % 2:
            # Two masses on one nested chain of subsets never conflict.
            order = rng.permutation(3)
            chain = (
                1 << int(order[0]),
                (1 << int(order[0])) | (1 << int(order[1])),
                chain_frame.full_mask,
            )
            pair = []
            for _ in range(2):
                weights = rng.random(3)
                weights /= weights.sum()
                pair.append(
                    mass_from_masks(
                        chain_frame,
                        dict(zip(chain, map(float, weights))),
                        World.CLOSED,
                    )
                )
        else:
            # A free frame has no empty meets at all.
            pair = []
            for _ in range(2):
                weights = rng.random(4)
                weights /= weights.sum()
                pair.append(
                    mass_from_masks(
                        free_frame,
                        dict(zip(free_masks, map(float, weights))),
                        World.CLOSED,
                    )
                )
        fused = combine_conjunctive(pair)
        assert fused.conflict == 0.0
        full = pair[0].frame.full_mask
        for repaired in (combine_pcr5(*pair), combine_pcr6(pair)):
            for mask in range(full + 1):
                assert repaired.value_of_mask(mask) == pytest.approx(
                    fused.value_of_mask(mask), abs=1e-12
                )


def test_criterion_11_functionals_are_monotone():
    """Credibility, plausibility and pignistic all grow along ⊆."""
    frame = make_frame(("A", "B", "C"))
    elements = enumerate_elements(frame)
    ordered = [(x, y) for x in elements for y in elements if x <= y]
    rng = np.random.default_rng(FUZZ_SEED + 2)
    cases = 0
    for _ in range(600):
        m = _random_shafer_mass(frame, rng)
        for x, y in ordered:
            for functional in (credibility, plausibility, pignistic):
                assert functional(m, x) <= functional(m, y) + 1e-12
            cases += 1
    assert cases >= FUZZ_CASES


def test_criterion_11_singleton_masses_decide_alike():
    """With only singleton focals, all four criteria pick the same class."""
    frame = make_frame(("A", "B", "C"))
    rng = np.random.default_rng(FUZZ_SEED + 3)
    criteria = (
        Criterion.MASS,
        Criterion.CREDIBILITY,
        Criterion.PLAUSIBILITY,
        Criterion.PIGNISTIC,
    )
    for _ in range(FUZZ_CASES):
        weights = rng.random(3)
        weights /= weights.sum()
        m = mass_from_masks(
            frame,
            {1 << k: float(w) for k, w in enumerate(weights)},
            World.CLOSED,
        )
        chosen = {decide(m, c, frame.atoms()).chosen.mask for c in criteria}
        assert len(chosen) == 1


def test_criterion_11_conjunction_never_beats_its_parts():
    """No functional ranks A∩B above both A and B."""
    frame = make_frame(("A", "B"), Model.FREE)
    both = frame.parse_element("A∩B")
    a = frame.parse_element("A")
    b = frame.parse_element("B")
    rng = np.random.default_rng(FUZZ_SEED + 4)
    for _ in range(FUZZ_CASES):
        weights = rng.random(4)
        weights /= weights.sum()
        m = mass_from_masks(
            frame,
            dict(zip((0b100, 0b101, 0b110, 0b111), map(float, weights))),
            World.CLOSED,
        )
        for functional in (credibility, plausibility, pignistic):
            assert functional(m, both) <= functional(m, a) + 1e-12
            assert functional(m, both) <= functional(m, b) + 1e-12


# ---------------------------------------------------------------------------
# Lattice oracle.


def _oracle_cells(n: int, model: Model, mask: int) -> frozenset:
    """Decode an element mask into its set of cells, named independently.

    Free-frame cells are the non-empty label subsets (cell t at bit t-1);
    exclusive-frame cells are the classes themselves.
    """
    if model is Model.FREE:
        return frozenset(t for t in range(1, 2**n) if mask >> (t - 1) & 1)
    return frozenset(i for i in range(n) if mask >> i & 1)


def _oracle_valid_masks(n: int, model: Model) -> set:
    if model is Model.SHAFER:
        return set(range(2**n))
    cells = list(range(1, 2**n))
    valid = set()
    for mask in range(2 ** len(cells)):
        family = _oracle_cells(n, Model.FREE, mask)
        if all(
            u in family
            for t in family
            for u in cells
            if u & t == t
        ):
            valid.add(mask)
    return valid


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("model", [Model.FREE, Model.SHAFER])
def test_criterion_12_lattice_matches_brute_force(n, model):
    """Meet, join, cardinality and element counts match cell enumeration."""
    frame = make_frame(tuple("ABC"[:n]), model)
    elements = enumerate_elements(frame, include_empty=True)
    assert {e.mask for e in elements} == _oracle_valid_masks(n, model)
    if model is Model.FREE:
        assert len(elements) == {2: 5, 3: 19}[n]
    else:
        assert len(elements) == 2**n
    for x in elements:
        cells_x = _oracle_cells(n, model, x.mask)
        assert x.cardinality == len(cells_x)
        assert x.cardinality == len(cells_x)
        for y in elements:
            cells_y = _oracle_cells(n, model, y.mask)
            assert _oracle_cells(n, model, (x & y).mask) == cells_x & cells_y
            assert _oracle_cells(n, model, (x | y).mask) == cells_x | cells_y


# ---------------------------------------------------------------------------
# Shipped corpus.


@pytest.fixture(scope="module")
def demo_corpus(repo_root):
    return load_annotations(str(repo_root / "data" / "demo_corpus.csv"))


def _consistency_corpus_lines() -> list[str]:
    """Tiles whose annotations encode uniform-law masses at level 1.

    Proportions are floored to 4 decimals, which keeps each row sum at or
    under 1 and survives the CSV round trip exactly.
    """
    rng = np.random.default_rng(CONSISTENCY_SEED)
    rows, _ = _accepted_masses(7, 2 * CONSISTENCY_TILES, rng, "uniform")
    quantized = np.floor(rows * 1e4) / 1e4
    labels = sediment_frame().labels
    lines = [",".join(CSV_HEADER)]
    for t in range(CONSISTENCY_TILES):
        for expert, row in (("e1", quantized[2 * t]), ("e2", quantized[2 * t + 1])):
            emitted = False
            for k, p in enumerate(row):
                if p > 0.0:
                    lines.append(f"t{t:04d},{expert},{labels[k]},1,{p:.4f}")
                    emitted = True
            if not emitted:
                lines.append(f"t{t:04d},{expert},{labels[0]},1,0.0000")
    return lines


def test_criterion_13_conflict_matrix_pipeline(demo_corpus, stability_results):
    """Conflict-matrix identities on the shipped corpus plus the rate cross-check."""
    forward = conflict_matrix(expert_pair(demo_corpus, ("expert1", "expert2")))
    backward = conflict_matrix(expert_pair(demo_corpus, ("expert2", "expert1")))
    n = len(forward.labels)
    for r in range(n):
        for c in range(n):
            assert forward.values[r][c] == backward.values[c][r]

    conflicts = []
    for tile in demo_corpus.tiles:
        pair = [
            tile_mass(demo_corpus.annotation(tile, expert), frame=demo_corpus.frame)
            for expert in demo_corpus.experts
        ]
        conflicts.append(combine_conjunctive(pair).conflict)
    mean_conflict = sum(conflicts) / len(conflicts)
    assert forward.total == pytest.approx(mean_conflict, rel=1e-9, abs=1e-12)

    entry_i, entry_j, _ = forward.max_entry
    assert (entry_i, entry_j) == ("sand", "silt")

    # A corpus drawn from the sampling law itself must reproduce the
    # simulated flip rate for seven classes within two standard errors.
    corpus = parse_annotations("\n".join(_consistency_corpus_lines()) + "\n")
    difference = decision_difference(
        expert_pair(corpus, weights=CertaintyWeights(1.0, 1.0, 1.0)),
        rule_a="conjunctive",
        rule_b="pcr5",
    )
    assert difference.tiles == CONSISTENCY_TILES
    reference = stability_results[7]
    rate = difference.rate
    se_corpus = math.sqrt(rate * (1.0 - rate) / difference.tiles)
    se_reference = reference.ci_halfwidth / 1.96
    margin = 2.0 * math.hypot(se_corpus, se_reference)
    assert abs(rate - reference.change_rate) <= margin
