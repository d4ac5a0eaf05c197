"""Sampling laws, the vectorized pair kernels, and the experiment drivers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from expertfuse import stability
from expertfuse.decision import TIE_TOLERANCE, decide
from expertfuse.fusion import combine_conjunctive, combine_pcr5
from expertfuse.lattice import Model, make_frame
from expertfuse.mass import mass_from_entries
from expertfuse.stability import (
    _DEFAULT_CHUNK,
    MAX_CLASSES,
    PRODUCT_LAW_MAX_CLASSES,
    InvarianceCase,
    StabilityResult,
    _accepted_masses,
    check_class_counts,
    conflict_density,
    decision_change_rate,
    invariance_check,
    pair_decisions,
    stability_table,
)


class FakeRng:
    """Replays scripted draws so acceptance logic can be pinned down."""

    def __init__(self, arrays):
        self._arrays = list(arrays)

    def random(self, size=None):
        out = np.asarray(self._arrays.pop(0), dtype=float)
        expected = (size,) if isinstance(size, int) else size
        assert out.shape == tuple(expected), f"unexpected draw shape {size}"
        return out

    standard_exponential = random


def _product_chunk(*rows):
    """One two-class product-law chunk: scripted rows, then rows summing to 2."""
    chunk = np.ones((_DEFAULT_CHUNK, 4))
    chunk[: len(rows)] = rows
    return chunk


def _beta_1_n_ks(x, n):
    """Kolmogorov-Smirnov distance of a sample from Beta(1, n)."""
    x = np.sort(x)
    cdf = 1.0 - (1.0 - x) ** n
    k = np.arange(1, len(x) + 1)
    return max((k / len(x) - cdf).max(), (cdf - (k - 1) / len(x)).max())


def _uniform_rows_checking_every_row(n, count, rng):
    """Uniform-law rows with the rounding check run on every row."""
    e = rng.standard_exponential((count, n + 1))
    rows = (e / e.sum(axis=1, keepdims=True))[:, :n]
    over = rows.sum(axis=1) > 1.0
    while over.any():
        rows[over] = np.nextafter(rows[over], 0.0)
        over = rows.sum(axis=1) > 1.0
    return rows


def _pcr5_always_guarded(a, b, s):
    """`_pcr5_parts` with the zero-denominator guard on every class pair."""
    p = s.copy()
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            denom = a[i] + b[j]
            shared = a[i] * b[j] / np.where(denom > 0.0, denom, 1.0)
            p[i] += a[i] * shared
            p[j] += b[j] * shared
    return p


def _choice_by_argmax(values):
    """`_pignistic_choice` as the first class within the tolerance, by argmax."""
    gap = values.max(axis=0) - values
    return (gap <= TIE_TOLERANCE).argmax(axis=0)


class TestClassLimit:
    def test_26_classes_run(self):
        assert MAX_CLASSES == 26
        assert decision_change_rate(26, 5, 0).n_classes == 26

    def test_27_classes_are_refused(self):
        calls = (
            lambda: decision_change_rate(27, 5, 0),
            lambda: stability_table([2, 27], 5, 0),
            lambda: conflict_density(27, 5),
        )
        for call in calls:
            with pytest.raises(ValueError, match="at most 26 classes"):
                call()


class TestCheckClassCounts:
    @pytest.mark.parametrize("counts, law, message", [
        ([2, 1], "uniform", "need at least two classes, got 1"),
        ([27], "uniform", "at most 26 classes are supported, got 27"),
        ([12, 13], "product", "the product law supports at most 12 classes, got 13"),
        ([], "beta", "unknown sampling law 'beta'; expected one of ('uniform', 'product')"),
        ([2, 3, 2], "uniform", "class count 2 given twice"),
    ])
    def test_each_refusal_reads_its_reason(self, counts, law, message):
        with pytest.raises(ValueError) as caught:
            check_class_counts(counts, law)
        assert str(caught.value) == message

    def test_distinct_counts_in_range_pass(self):
        check_class_counts([7, 2, 26])
        check_class_counts(range(2, 13), "product")
        check_class_counts([np.int64(2), np.int32(7)])

    @pytest.mark.parametrize("counts, bad", [([2.5], "2.5"), ([3.0], "3.0"), ([True], "True")])
    def test_a_count_that_is_not_an_integer_is_refused_before_drawing(self, monkeypatch,
                                                                      counts, bad):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_accepted_masses", no_draw)
        with pytest.raises(ValueError) as caught:
            stability_table(counts, 10, 0)
        assert str(caught.value) == f"class count must be an integer, got {bad}"

    def test_a_repeated_count_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_accepted_masses", no_draw)
        with pytest.raises(ValueError, match="^class count 2 given twice$"):
            stability_table([2, 2], 100, 1)


class TestProductLawLimit:
    def test_12_classes_run(self):
        assert PRODUCT_LAW_MAX_CLASSES == 12
        assert decision_change_rate(12, 5, 0, law="product").n_classes == 12
        assert stability_table([11, 12], 5, 0, law="product")[1].n_classes == 12
        assert conflict_density(12, 5, law="product").n_classes == 12

    def test_13_classes_are_refused(self):
        calls = (
            lambda: decision_change_rate(13, 5, 0, law="product"),
            lambda: stability_table([2, 13], 5, 0, law="product"),
            lambda: conflict_density(13, 5, law="product"),
        )
        for call in calls:
            with pytest.raises(ValueError,
                               match="^the product law supports at most 12 classes, got 13$"):
                call()
        assert decision_change_rate(13, 5, 0).n_classes == 13  # the uniform law has no bound

    def test_a_table_checks_every_count_before_drawing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(stability, "_accepted_masses", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="got 13$"):
            stability_table(range(2, 14), 5, 0, law="product")
        assert drawn == []


class TestSampleExpert:
    """One expert's singleton masses as the sampler draws them; Θ takes the rest."""

    def test_product_law_multiplies_proportion_by_certainty(self):
        # row layout is (proportions, certainties)
        rng = FakeRng([_product_chunk([1.0, 0.0, 0.6, 0.9])])
        rows, drawn = _accepted_masses(2, 1, rng, "product")
        assert rows[0].tolist() == [0.6, 0.0]
        assert 1.0 - rows[0].sum() == pytest.approx(0.4)
        assert drawn == _DEFAULT_CHUNK

    def test_product_law_rejects_heavy_candidates(self):
        rng = FakeRng(
            [_product_chunk([1.0, 1.0, 0.9, 0.9]), _product_chunk([0.5, 0.5, 0.4, 0.2])]
        )
        rows, drawn = _accepted_masses(2, 1, rng, "product")
        assert rows[0] == pytest.approx([0.2, 0.1])
        assert 1.0 - rows[0].sum() == pytest.approx(0.7)
        assert drawn == 2 * _DEFAULT_CHUNK

    def test_product_law_keeps_a_row_summing_to_exactly_one(self):
        rng = FakeRng([_product_chunk([1.0, 1.0, 0.5, 0.5])])
        rows, drawn = _accepted_masses(2, 1, rng, "product")
        assert rows.tolist() == [[0.5, 0.5]]
        assert drawn == _DEFAULT_CHUNK

    def test_uniform_law_normalizes_exponentials(self):
        rows, drawn = _accepted_masses(2, 1, FakeRng([[[1.0, 2.0, 1.0]]]), "uniform")
        assert rows[0] == pytest.approx([0.25, 0.5])
        assert 1.0 - rows[0].sum() == pytest.approx(0.25)
        assert drawn == 1


class TestAcceptedMasses:
    def test_rows_respect_the_constraint(self):
        rows, drawn = _accepted_masses(3, 500, np.random.default_rng(5), "uniform")
        assert rows.shape == (500, 3)
        assert drawn == 500
        assert (rows.sum(axis=1) <= 1.0).all()
        assert (rows >= 0.0).all()

    def test_rounding_past_one_is_stepped_back(self):
        # 0.1/0.6 + 0.4/0.6 + 0.1/0.6 rounds to 1 + 2^-52 before the fix-up
        rows, drawn = _accepted_masses(3, 1, FakeRng([[[0.1, 0.4, 0.1, 0.0]]]), "uniform")
        assert drawn == 1
        assert rows.sum() <= 1.0
        assert (rows >= 0.0).all()
        assert rows[0] == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-15)

    def test_a_small_positive_theta_past_one_is_stepped_back(self):
        # the Θ part is ~8e-17, inside the checked band, and the three
        # singleton parts still round to 1 + 2^-52
        draw = [[0.1, 0.4, 0.1, 5e-17]]
        normalized = np.array(draw) / np.sum(draw)
        assert 0.0 < normalized[0, 3] <= 1e-12
        assert normalized[0, :3].sum() > 1.0
        rows, _ = _accepted_masses(3, 1, FakeRng([draw]), "uniform")
        assert rows.sum() <= 1.0
        assert np.array_equal(rows, _uniform_rows_checking_every_row(3, 1, FakeRng([draw])))

    @pytest.mark.parametrize("n", [2, 7, 8, 26])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniform_rows_equal_the_every_row_check(self, n, seed):
        rows, _ = _accepted_masses(n, 3000, np.random.default_rng(seed), "uniform")
        expected = _uniform_rows_checking_every_row(n, 3000, np.random.default_rng(seed))
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("law", ["uniform", "product"])
    def test_rows_are_deterministic_per_seed(self, law):
        first, _ = _accepted_masses(4, 1000, np.random.default_rng(9), law)
        second, _ = _accepted_masses(4, 1000, np.random.default_rng(9), law)
        other, _ = _accepted_masses(4, 1000, np.random.default_rng(10), law)
        assert (first >= 0.0).all() and (first.sum(axis=1) <= 1.0).all()
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("n", [2, 7])
    def test_uniform_marginals_follow_beta_1_n(self, n):
        # under the uniform law on E each singleton mass and the Θ remainder
        # are Beta(1, n); 1.95/sqrt(N) is the 0.1% Kolmogorov-Smirnov cutoff
        count = 20000
        rows, _ = _accepted_masses(n, count, np.random.default_rng(70 + n), "uniform")
        assert (rows >= 0.0).all() and (rows.sum(axis=1) <= 1.0).all()
        cutoff = 1.95 / math.sqrt(count)
        assert _beta_1_n_ks(rows[:, 0], n) < cutoff
        assert _beta_1_n_ks(1.0 - rows.sum(axis=1), n) < cutoff

    def test_zero_rows(self):
        rows, drawn = _accepted_masses(3, 0, np.random.default_rng(1), "uniform")
        assert rows.shape == (0, 3)
        assert drawn == 0

    def test_zero_product_rows_draw_nothing(self):
        rows, drawn = _accepted_masses(3, 0, FakeRng([]), "product")
        assert rows.shape == (0, 3)
        assert drawn == 0


class TestPairKernels:
    """The vectorized kernels must agree with the object-level rules."""

    N_PAIRS = 60

    def _object_route(self, a_row, b_row, n):
        frame = make_frame(tuple("ABCD"[:n]), Model.SHAFER)
        entries_a = {frame.atom(i): a_row[i] for i in range(n)}
        entries_a[frame.theta()] = 1.0 - a_row.sum()
        entries_b = {frame.atom(i): b_row[i] for i in range(n)}
        entries_b[frame.theta()] = 1.0 - b_row.sum()
        ma = mass_from_entries(frame, entries_a)
        mb = mass_from_entries(frame, entries_b)
        conj = combine_conjunctive([ma, mb])
        pcr = combine_pcr5(ma, mb)
        atoms = frame.atoms()
        pick_conj = decide(conj, "pignistic", atoms).chosen
        pick_pcr = decide(pcr, "pignistic", atoms).chosen
        return (
            atoms.index(pick_conj),
            atoms.index(pick_pcr),
            conj.conflict,
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_full_rule_objects(self, n):
        rng = np.random.default_rng(100 + n)
        rows, _ = _accepted_masses(n, 2 * self.N_PAIRS, rng, "uniform")
        a, b = rows[0::2], rows[1::2]
        choice_conj, choice_pcr, conflict = pair_decisions(a, b)
        for k in range(self.N_PAIRS):
            expected = self._object_route(a[k], b[k], n)
            assert choice_conj[k] == expected[0]
            assert choice_pcr[k] == expected[1]
            assert conflict[k] == pytest.approx(expected[2], abs=1e-12)

    def test_mirrored_experts_tie_to_the_lowest_class(self):
        # b mirrors a, so both rules tie between A and B up to rounding
        rows, _ = _accepted_masses(2, 40, np.random.default_rng(4), "uniform")
        a = np.column_stack((rows[:, 0], rows[:, 1], np.zeros(40)))
        b = a[:, (1, 0, 2)]
        choice_conj, choice_pcr, _ = pair_decisions(a, b)
        assert (choice_conj == 0).all()
        assert (choice_pcr == 0).all()
        for k in range(40):
            assert self._object_route(a[k], b[k], 3)[:2] == (0, 0)

    def test_a_gap_of_exactly_the_tolerance_is_a_tie(self):
        # class-major: two classes, one pair, the second ahead by the tolerance
        values = np.array([[0.0], [1e-12]])
        assert values[1, 0] - values[0, 0] == TIE_TOLERANCE
        assert stability._pignistic_choice(values).tolist() == [0]

    @pytest.mark.parametrize("n", [2, 3, 7, 26])
    def test_choice_equals_argmax(self, n):
        rng = np.random.default_rng(300 + n)
        cols = 400
        random = rng.random((n, cols))
        # a top class and a second class exactly the tolerance below it
        ties = -0.5 - rng.random((n, cols))
        top, second = rng.integers(n, size=cols), rng.integers(n, size=cols)
        ties[second, np.arange(cols)] = 0.0
        ties[top, np.arange(cols)] = TIE_TOLERANCE
        first_two = rng.random((n, cols)) * 0.5
        first_two[:2] = 0.75
        nan = random.copy()
        nan[:, ::7] = np.nan
        for values in (random, ties, first_two, nan):
            expected = _choice_by_argmax(values.copy())
            choice = stability._pignistic_choice(values.copy())
            assert choice.dtype == expected.dtype
            assert np.array_equal(choice, expected)
        assert (_choice_by_argmax(first_two) == 0).all()
        assert (_choice_by_argmax(nan[:, ::7]) == 0).all()

    @pytest.mark.parametrize("zeros", ["none", "in-a", "in-b", "column-in-both"])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_pcr5_equals_the_always_guarded_loop(self, n, zeros):
        rng = np.random.default_rng(400 + n)
        rows, _ = _accepted_masses(n, 2 * 500, rng, "uniform")
        a, b = np.ascontiguousarray(rows[0::2].T), np.ascontiguousarray(rows[1::2].T)
        hole = rng.random(a.shape) < 0.2
        if zeros == "in-a":
            a[hole] = 0.0
        elif zeros == "in-b":
            b[hole] = 0.0
        elif zeros == "column-in-both":
            a[:, 17] = b[:, 17] = 0.0
        s, _, _ = stability._conjunctive_parts(a, b)
        expected = _pcr5_always_guarded(a, b, s)
        assert np.isfinite(expected).all()
        assert np.array_equal(stability._pcr5_parts(a, b, s), expected)

    def test_total_conflict_has_no_decision(self):
        a = np.array([[0.2, 0.3], [1.0, 0.0]])
        b = np.array([[0.5, 0.1], [0.0, 1.0]])
        with pytest.raises(ValueError, match="total conflict"):
            pair_decisions(a, b)

    def test_identical_experts_never_flip(self):
        rows, _ = _accepted_masses(3, 40, np.random.default_rng(2), "uniform")
        choice_conj, choice_pcr, _ = pair_decisions(rows, rows)
        assert (choice_conj == choice_pcr).all()


class TestDecisionChangeRate:
    def test_deterministic_for_a_given_seed(self):
        first = decision_change_rate(3, 4000, seed=77)
        second = decision_change_rate(3, 4000, seed=77)
        assert first == second

    def test_seed_changes_the_sample(self):
        assert decision_change_rate(3, 4000, seed=1) != decision_change_rate(
            3, 4000, seed=2
        )

    def test_two_class_rate_is_small(self):
        result = decision_change_rate(2, 5000, seed=11)
        assert result.accepted_pairs == 5000
        assert result.candidate_draws == 10000
        assert 0.0 <= result.change_rate <= 0.03
        assert result.ci_halfwidth == pytest.approx(
            1.96 * math.sqrt(result.change_rate * (1 - result.change_rate) / 5000)
        )

    def test_rates_grow_with_class_count(self):
        low = decision_change_rate(2, 4000, seed=5).change_rate
        high = decision_change_rate(7, 4000, seed=5).change_rate
        assert high > low + 0.05

    def test_product_law_changes_less_often_past_two_classes(self):
        uniform = decision_change_rate(4, 4000, seed=6, law="uniform")
        product = decision_change_rate(4, 4000, seed=6, law="product")
        assert product.change_rate < uniform.change_rate

    def test_changed_pairs_carry_more_conflict(self):
        result = decision_change_rate(3, 4000, seed=13)
        assert result.mean_conflict_changed > result.mean_conflict

    def test_no_changes_yields_nan_conflict_mean(self):
        # a mean over no flipped pair does not exist: None, not NaN
        result = decision_change_rate(2, 3, seed=1)
        assert result.change_rate == 0.0
        assert result.mean_conflict_changed is None

    def test_a_row_with_no_flip_equals_itself(self):
        # with a NaN mean this row was unequal to itself, and its hash varied
        row, again = decision_change_rate(2, 3, seed=1), decision_change_rate(2, 3, seed=1)
        assert row.change_rate == 0.0
        assert row == again
        assert hash(row) == hash(again)

    def test_a_negative_seed_is_refused(self):
        calls = (
            lambda: decision_change_rate(2, 10, -1),
            lambda: stability_table([2, 3], 10, -1),
            lambda: conflict_density(2, 10, seed=-1),
        )
        for call in calls:
            with pytest.raises(ValueError,
                               match="^seed must be a non-negative integer, got -1$"):
                call()
        assert decision_change_rate(2, 10, 0).accepted_pairs == 10

    def test_a_seed_that_is_not_an_integer_is_refused(self):
        with pytest.raises(ValueError) as caught:
            decision_change_rate(3, 10, 2.0)
        assert str(caught.value) == "seed must be an integer, got 2.0"
        assert decision_change_rate(3, 10, np.int64(2)) == decision_change_rate(3, 10, 2)

    def test_a_rate_outside_the_unit_interval_is_refused(self):
        with pytest.raises(ValueError) as caught:
            StabilityResult(2, 10, 20, 1.5, 0.0, 0.1, 0.2)
        assert str(caught.value) == "change rate must lie in [0, 1], got 1.5"

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            decision_change_rate(1, 100, seed=0)
        with pytest.raises(ValueError):
            decision_change_rate(2, 0, seed=0)
        with pytest.raises(ValueError, match="law"):
            decision_change_rate(2, 100, seed=0, law="beta")


class TestConflictDensity:
    def test_frequencies_normalized(self):
        hist = conflict_density(3, 2000, bins=25, seed=3)
        assert len(hist.bin_edges) == 26
        assert hist.bin_edges[0] == 0.0 and hist.bin_edges[-1] == 1.0
        assert sum(hist.frequencies) == pytest.approx(1.0)
        assert hist.count == 2000

    def test_change_subset_counts_the_flips(self):
        result = stability_table([3], 2000, 21)[0]
        hist = conflict_density(3, 2000, subset="decision_change", seed=21)
        assert hist.count == round(result.change_rate * 2000)

    def test_changed_subset_sits_higher(self):
        all_pairs = conflict_density(4, 3000, seed=8)
        changed = conflict_density(4, 3000, subset="decision_change", seed=8)
        centers = [
            (lo + hi) / 2 for lo, hi in zip(all_pairs.bin_edges, all_pairs.bin_edges[1:])
        ]
        mean_all = sum(c * f for c, f in zip(centers, all_pairs.frequencies))
        mean_changed = sum(c * f for c, f in zip(centers, changed.frequencies))
        assert mean_changed > mean_all

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="subset"):
            conflict_density(3, 10, subset="everything")
        with pytest.raises(ValueError, match="bin"):
            conflict_density(3, 10, bins=0)
        with pytest.raises(ValueError):
            conflict_density(3, -1)
        with pytest.raises(ValueError, match="^need at least one accepted pair$"):
            conflict_density(3, 0)


class TestStabilityResultHistogram:
    @pytest.mark.parametrize("law", ["uniform", "product"])
    @pytest.mark.parametrize("subset", ["all", "decision_change"])
    def test_equals_conflict_density(self, law, subset):
        row = decision_change_rate(4, 1500, 12, law)
        hist = row.histogram(13, subset)
        assert hist == conflict_density(4, 1500, 13, subset, 12, law)
        assert hist.count == (1500 if subset == "all" else round(row.change_rate * 1500))

    def test_no_flips_give_an_all_zero_change_histogram(self):
        row = decision_change_rate(2, 3, seed=1)
        assert row.change_rate == 0.0
        hist = row.histogram(10, "decision_change")
        assert hist.count == 0
        assert hist.frequencies == (0.0,) * 10
        assert row.histogram(10).count == 3

    @pytest.mark.parametrize("bins, subset, message", [
        (0, "all", "need at least one bin"),
        (10, "everything",
         "unknown subset 'everything'; expected one of ('all', 'decision_change')"),
    ], ids=["no-bin", "unknown-subset"])
    def test_argument_validation(self, bins, subset, message):
        with pytest.raises(ValueError) as caught:
            decision_change_rate(3, 10, 0).histogram(bins, subset)
        assert str(caught.value) == message

    def test_the_pair_arrays_are_read_only_and_outside_equality(self):
        row = decision_change_rate(3, 200, 4)
        assert row.conflict.shape == row.change.shape == (200,)
        assert row.conflict.dtype == float and row.change.dtype == bool
        for values in (row.conflict, row.change):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = values[1]
        bare = StabilityResult(*(getattr(row, name) for name in (
            "n_classes", "accepted_pairs", "candidate_draws", "change_rate",
            "ci_halfwidth", "mean_conflict", "mean_conflict_changed")))
        assert bare.conflict.shape == bare.change.shape == (0,)
        assert bare == row
        assert hash(bare) == hash(row)
        assert repr(bare) == repr(row)

    def test_the_callers_arrays_stay_writable(self):
        conflict, change = np.array([0.25, 0.5]), np.array([False, True])
        row = StabilityResult(2, 2, 4, 0.5, 0.7, 0.375, 0.5, conflict, change)
        assert conflict.flags.writeable and change.flags.writeable
        assert not row.conflict.flags.writeable and not row.change.flags.writeable
        assert row.histogram(2, "decision_change").frequencies == (0.0, 1.0)


class TestIntegerCounts:
    """A sample or bin count must be an int or a numpy integer, not a bool."""

    @pytest.fixture
    def no_draw(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_accepted_masses", refuse)
        monkeypatch.setattr(stability, "_kept_rows", refuse)

    @pytest.mark.parametrize("call, message", [
        (lambda: decision_change_rate(3, True, 0), "sample count must be an integer, got True"),
        (lambda: decision_change_rate(3, 10.5, 0), "sample count must be an integer, got 10.5"),
        (lambda: stability_table([3], 10.0, 0), "sample count must be an integer, got 10.0"),
        (lambda: invariance_check(2.5, 0), "sample count must be an integer, got 2.5"),
    ], ids=["rate-bool", "rate-float", "table-float", "invariance-float"])
    def test_a_sample_count_that_is_not_an_integer_is_refused_before_drawing(
            self, no_draw, call, message):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("bins, subset, message", [
        (2.5, "all", "bin count must be an integer, got 2.5"),
        (0, "all", "need at least one bin"),
        (10, "everything",
         "unknown subset 'everything'; expected one of ('all', 'decision_change')"),
    ], ids=["float-bins", "no-bin", "unknown-subset"])
    def test_conflict_density_checks_its_histogram_before_drawing(
            self, no_draw, bins, subset, message):
        with pytest.raises(ValueError) as caught:
            conflict_density(3, 200000, bins, subset)
        assert str(caught.value) == message

    def test_a_bin_count_that_is_not_an_integer_is_refused(self):
        with pytest.raises(ValueError) as caught:
            conflict_density(3, 10, bins=2.5)
        assert str(caught.value) == "bin count must be an integer, got 2.5"

    def test_numpy_integer_counts_are_accepted(self):
        row = decision_change_rate(3, np.int64(200), 0)
        assert row == decision_change_rate(3, 200, 0)
        assert row.histogram(np.int32(4)) == row.histogram(4)
        assert invariance_check(np.int64(10), 0) == []


class TestOneStreamPerSeedAndClassCount:
    @pytest.mark.parametrize("law", ["uniform", "product"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_every_entry_point_draws_the_same_pairs(self, n, law):
        row = decision_change_rate(n, 1500, 11, law)
        assert stability_table([n], 1500, 11, law)[0] == row
        assert conflict_density(n, 1500, 9, "all", 11, law) == row.histogram(9)


class TestInvariance:
    @pytest.mark.parametrize("constraint", ["across", "within"])
    def test_no_counterexamples(self, constraint):
        assert invariance_check(20000, seed=31, constraint=constraint) == []

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="constraint"):
            invariance_check(10, seed=0, constraint="between")
        with pytest.raises(ValueError):
            invariance_check(-1, seed=0)

    def test_a_negative_seed_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_kept_rows", no_draw)
        with pytest.raises(ValueError) as caught:
            invariance_check(10, seed=-1)
        assert str(caught.value) == "seed must be a non-negative integer, got -1"

    def test_a_seed_that_is_not_an_integer_is_refused_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_kept_rows", no_draw)
        with pytest.raises(ValueError) as caught:
            invariance_check(10, 1.5)
        assert str(caught.value) == "seed must be an integer, got 1.5"

    def test_zero_samples(self):
        assert invariance_check(0, seed=0) == []

    @pytest.mark.parametrize("constraint", ["across", "within"])
    def test_a_flipped_row_is_reported_field_by_field(self, monkeypatch, constraint):
        seen = {}

        def flip_row_3(a, b):
            choice_conj, choice_pcr, conflict = pair_decisions(a, b)
            choice_pcr[3] = 1 - choice_pcr[3]
            seen.update(a=a, b=b, conj=choice_conj, pcr=choice_pcr)
            return choice_conj, choice_pcr, conflict

        monkeypatch.setattr(stability, "pair_decisions", flip_row_3)
        [case] = invariance_check(10, seed=5, constraint=constraint)
        a, b = seen["a"], seen["b"]
        assert case == InvarianceCase(
            m1_a=a[3, 0], m1_b=a[3, 1], m2_a=b[3, 0], m2_b=b[3, 1],
            consensus_choice=seen["conj"][3], pcr5_choice=seen["pcr"][3],
        )
        assert case.consensus_choice != case.pcr5_choice
        assert (case.m1_a == case.m2_b) if constraint == "across" else (case.m1_a == case.m1_b)
        assert all(type(v) is float for v in case[:4])
        assert all(type(v) is int for v in case[4:])


class TestStabilityTable:
    def test_rows_are_independent_of_the_requested_set(self):
        alone = stability_table([3], 1500, seed=55)
        paired = stability_table([2, 3], 1500, seed=55)
        assert alone[0] == paired[1]

    def test_row_order_follows_input(self):
        table = stability_table([4, 2], 800, seed=9)
        assert [r.n_classes for r in table] == [4, 2]
