#!/usr/bin/env python3
"""Check that the tests kill a table of one-token mutants of the package.

Each row of `MUTANTS` names a file under the repository root, an exact
text in it, the text that replaces it, and the pytest ids that must fail
once it is replaced.  The listed ids first run on an unedited copy of
`src/`, `tests/`, `scripts/` and `pyproject.toml` (so under the pytest
settings of the suite), where they must pass.  Then, for each row, the
edit is applied to a fresh temporary copy and only that row's ids run;
every one of them must fail.  The checkout itself is never edited.

The script exits 1 when an old text is not found exactly once, when a
listed id fails on the unedited copy, or when a mutant survives.  It uses
the standard library only and runs pytest with the interpreter that runs
it:

    python3 scripts/check_teeth.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    test_ids: tuple[str, ...]


_READER_MATCH = ("tests/test_corpus.py::TestColumnarReader"
                 "::test_the_same_corpus_or_error_as_the_row_loop")
_REFUSAL = "tests/test_refusals.py::test_each_bad_input_meets_its_row"
_DIRECT = "tests/test_corpus.py::TestDirectConstruction"
_PAIR_MATCH = "tests/test_corpus.py::TestExpertPairMatchesTheKeyLoop::test_seeded_corpora"
_EQUALITY = "tests/test_corpus.py::TestEqualityReadsTheColumns"
_CAPS = "tests/test_stability.py::TestCaps::test_a_count_above_its_cap_is_refused_before_drawing"
_STREAMED = "tests/test_stability.py::TestStreamedStudy"

MUTANTS = (
    Mutant("src/expertfuse/mass.py",
           "accumulated.get(0, 0.0) > PRUNE_THRESHOLD",
           "accumulated.get(0, 0.0) > 1e-6",
           ("tests/test_mass.py::test_closed_world_rejects_a_small_mass_on_empty",)),
    Mutant("src/expertfuse/mass.py",
           "if v >= PRUNE_THRESHOLD}",
           "if v > PRUNE_THRESHOLD}",
           ("tests/test_mass.py::test_a_mass_of_exactly_the_prune_threshold_is_kept",)),
    Mutant("src/expertfuse/stability.py",
           "return cand[cand.sum(axis=1) <= 1.0]",
           "return cand[cand.sum(axis=1) < 1.0]",
           ("tests/test_stability.py::TestSampleExpert"
            "::test_product_law_keeps_a_row_summing_to_exactly_one",)),
    Mutant("src/expertfuse/corpus.py",
           "if new_sum > 1.0 + SUM_TOLERANCE:",
           "if new_sum > 1.0 + 10 * SUM_TOLERANCE:",
           ("tests/test_corpus.py::TestParseErrors::test_group_sum_on_the_tolerance_edge",)),
    Mutant("src/expertfuse/corpus.py",
           "sums > 1.0 + SUM_TOLERANCE",
           "sums > 1.0 + 10 * SUM_TOLERANCE",
           ("tests/test_corpus.py::TestDirectConstruction"
            "::test_group_sum_on_the_tolerance_edge",)),
    Mutant("src/expertfuse/decision.py",
           "if top - v <= TIE_TOLERANCE",
           "if top - v < TIE_TOLERANCE",
           ("tests/test_decision.py::TestDecide::test_a_gap_of_exactly_the_tolerance_is_a_tie",)),
    Mutant("src/expertfuse/stability.py",
           "near_top = gap <= TIE_TOLERANCE",
           "near_top = gap < TIE_TOLERANCE",
           ("tests/test_stability.py::TestPairKernels"
            "::test_a_gap_of_exactly_the_tolerance_is_a_tie",)),
    Mutant("src/expertfuse/fusion.py",
           "acc[x] = acc.get(x, 0.0) + v * product / total",
           "acc[x] = acc.get(x, 0.0) + v * (product / total)",
           ("tests/test_fusion.py::test_pcr6_reference_holds_on_the_heaviest_shapes",)),
    Mutant("src/expertfuse/corpus.py",
           "a, b = pair.a, pair.b",
           "b, a = pair.a, pair.b",
           ("tests/test_corpus.py::TestConflictMatrix::test_hand_computed_entries",)),
    Mutant("src/expertfuse/fusion.py",
           "shares = [1.0 / len(classes)] * len(classes)",
           "shares = [0.0] * len(classes)",
           ("tests/test_fusion.py::TestRedistribution"
            "::test_pure_conjunction_splits_equally_without_witnesses",)),
    Mutant("src/expertfuse/stability.py",
           "over = suspect.sum(axis=1) > 1.0\n            while over.any():",
           "over = suspect.sum(axis=1) > 1.0 + 1e-15\n            while over.any():",
           ("tests/test_stability.py::TestAcceptedMasses"
            "::test_rounding_past_one_is_stepped_back",)),
    Mutant("src/expertfuse/stability.py",
           "_stream(seed, n)",
           "_stream(seed, n + 1)",
           ("tests/test_golden.py::test_simulate_case_matches_manifest[uniform-2..7]",)),
    Mutant("src/expertfuse/stability.py",
           "if seed < 0:",
           "if seed < -1:",
           ("tests/test_stability.py::TestDecisionChangeRate::test_a_negative_seed_is_refused",
            "tests/test_stability.py::TestInvariance"
            "::test_a_negative_seed_is_refused_before_drawing")),
    Mutant("src/expertfuse/stability.py",
           "_ROUNDING_THETA = 1e-12",
           "_ROUNDING_THETA = 0.0",
           ("tests/test_stability.py::TestAcceptedMasses"
            "::test_a_small_positive_theta_past_one_is_stepped_back",)),
    Mutant("src/expertfuse/stability.py",
           "range(len(near_top) - 1, -1, -1)",
           "range(len(near_top) - 1, 0, -1)",
           ("tests/test_stability.py::TestPairKernels::test_choice_equals_argmax[2]",
            "tests/test_stability.py::TestPairKernels::test_choice_equals_argmax[26]")),
    Mutant("src/expertfuse/stability.py",
           "a.min(axis=1, initial=1.0) > 0.0",
           "a.min(axis=1, initial=1.0) >= 0.0",
           ("tests/test_stability.py::TestPairKernels"
            "::test_pcr5_equals_the_always_guarded_loop[2-column-in-both]",
            "tests/test_stability.py::TestPairKernels"
            "::test_pcr5_equals_the_always_guarded_loop[7-column-in-both]")),
    Mutant("src/expertfuse/cli.py",
           "        check_class_counts(counts, law)\n",
           "",
           ("tests/test_cli.py::TestSimulate"
            "::test_a_repeated_class_count_is_refused_before_drawing[2,2-2]",)),
    Mutant("src/expertfuse/cli.py",
           "            check_class_counts(sorted({low, high}), law)\n",
           "",
           ("tests/test_cli.py::TestSimulate::test_class_counts_stop_at_26",)),
    Mutant("src/expertfuse/stability.py",
           "if n in class_counts[:k]:",
           "if n in class_counts[:0]:",
           ("tests/test_stability.py::TestCheckClassCounts"
            "::test_a_repeated_count_is_refused_before_drawing",)),
    Mutant("src/expertfuse/stability.py",
           "int(choice_conj[k]), int(choice_pcr[k])",
           "int(choice_pcr[k]), int(choice_conj[k])",
           ("tests/test_stability.py::TestInvariance"
            "::test_a_flipped_row_is_reported_field_by_field[across]",
            "tests/test_stability.py::TestInvariance"
            "::test_a_flipped_row_is_reported_field_by_field[within]")),
    Mutant("src/expertfuse/lattice.py",
           "            return NotImplemented\n        self._require_same_frame(other)\n"
           "        return self.mask & ~other.mask == 0",
           "            pass\n        self._require_same_frame(other)\n"
           "        return self.mask & ~other.mask == 0",
           ("tests/test_lattice.py::test_a_non_element_operand_raises_type_error[le-int]",
            "tests/test_lattice.py::test_a_non_element_operand_raises_type_error[le-str]")),
    Mutant("src/expertfuse/cli.py",
           "full.frequencies, flipped.frequencies",
           "full.frequencies, full.frequencies",
           ("tests/test_cli.py::TestSimulate::test_histogram_of_several_class_counts",
            "tests/test_golden.py"
            "::test_simulate_case_matches_manifest[uniform-2..7-bins30-histogram]")),
    Mutant("src/expertfuse/stability.py",
           "        _check_integer(\"class count\", n)\n",
           "",
           ("tests/test_stability.py::TestCheckClassCounts"
            "::test_a_count_that_is_not_an_integer_is_refused_before_drawing[counts0-2.5]",
            "tests/test_stability.py::TestCheckClassCounts"
            "::test_a_count_that_is_not_an_integer_is_refused_before_drawing[counts2-True]")),
    Mutant("src/expertfuse/cli.py",
           "    except ValueError:\n        value = 0\n",
           "    except ValueError:\n        raise\n",
           ("tests/test_cli.py::TestSimulate"
            "::test_a_count_flag_needs_a_positive_integer[x---samples]",
            "tests/test_cli.py::TestSimulate"
            "::test_a_count_flag_needs_a_positive_integer[1.5---bins]")),
    Mutant("src/expertfuse/stability.py",
           "self.conflict[self.change]",
           "self.conflict",
           ("tests/test_stability.py::TestStabilityResultHistogram"
            "::test_no_flips_give_an_all_zero_change_histogram",
            "tests/test_stability.py::TestStabilityResultHistogram"
            "::test_equals_conflict_density[decision_change-uniform]",
            "tests/test_stability.py::TestConflictDensity::test_change_subset_counts_the_flips",
            "tests/test_golden.py"
            "::test_simulate_case_matches_manifest[uniform-2..7-bins30-histogram]")),
    Mutant("src/expertfuse/stability.py",
           "    _check_sample_count(n_samples)\n    if n_samples < 1:",
           "    if n_samples < 1:",
           ("tests/test_stability.py::TestIntegerCounts"
            "::test_a_sample_count_that_is_not_an_integer_is_refused_before_drawing[rate-bool]",
            "tests/test_stability.py::TestIntegerCounts"
            "::test_a_sample_count_that_is_not_an_integer_is_refused_before_drawing[rate-float]",
            "tests/test_stability.py::TestIntegerCounts"
            "::test_a_sample_count_that_is_not_an_integer_is_refused_before_drawing[table-float]")),
    Mutant("src/expertfuse/stability.py",
           "    _check_sample_count(n_samples)\n    if n_samples < 0:",
           "    if n_samples < 0:",
           ("tests/test_stability.py::TestIntegerCounts"
            "::test_a_sample_count_that_is_not_an_integer_is_refused_before_drawing"
            "[invariance-float]",)),
    Mutant("src/expertfuse/stability.py",
           "    _check_histogram_args(bins, subset)\n    return decision_change_rate(",
           "    return decision_change_rate(",
           ("tests/test_stability.py::TestIntegerCounts"
            "::test_conflict_density_checks_its_histogram_before_drawing[float-bins]",
            "tests/test_stability.py::TestIntegerCounts"
            "::test_conflict_density_checks_its_histogram_before_drawing[no-bin]",
            "tests/test_stability.py::TestIntegerCounts"
            "::test_conflict_density_checks_its_histogram_before_drawing[unknown-subset]")),
    Mutant("src/expertfuse/stability.py",
           "if len(changed) else None,",
           "if len(changed) else float(\"nan\"),",
           ("tests/test_stability.py::TestDecisionChangeRate"
            "::test_a_row_with_no_flip_equals_itself",)),
    # The columnar reader's range check is the Corpus constructor's.
    Mutant("src/expertfuse/corpus.py",
           '        _refuse_outside(proportion, 0.0, 1.0, "proportion must lie in [0, 1]")\n',
           "",
           (f"{_READER_MATCH}[proportion-nan]", f"{_READER_MATCH}[proportion--0.5]")),
    Mutant("src/expertfuse/corpus.py",
           'f"S{max(width, 1)}"',
           '"S16"',
           (f"{_READER_MATCH}[ids-of-200-chars]", f"{_READER_MATCH}[id-of-100000-chars]")),
    Mutant("src/expertfuse/corpus.py",
           "    except ValueError:  # an unknown class or level",
           "    except IndexError:  # an unknown class or level",
           (f"{_READER_MATCH}[proportion-1.5]", f"{_READER_MATCH}[level-4]")),
    Mutant("src/expertfuse/corpus.py",
           "(tile[1:] != tile[:-1]) | (expert[1:] != expert[:-1])",
           "(tile[1:] != tile[:-1])",
           (f"{_READER_MATCH}[a-key-returns]",
            "tests/test_corpus.py::TestColumnarReader"
            "::test_the_shipped_corpus_takes_the_columnar_reader")),
    Mutant("src/expertfuse/corpus.py",
           "max(widths) > csv.field_size_limit()",
           "max(widths) > 10 * csv.field_size_limit()",
           (f"{_READER_MATCH}[id-past-the-csv-limit]",)),
    Mutant("src/expertfuse/corpus.py",
           "_TABLE_BYTES_PER_TEXT_BYTE = 4\n",
           "_TABLE_BYTES_PER_TEXT_BYTE = 400\n",
           ("tests/test_corpus.py::TestColumnarReader"
            "::test_a_table_far_larger_than_the_text_is_handed_over",)),
    Mutant("src/expertfuse/lattice.py",
           "        if label != label.strip():",
           "        if False:",
           ("tests/test_corpus.py::TestColumnarReader::test_a_padded_frame_label_is_refused",
            "tests/test_mass.py::test_a_mass_on_any_frame_make_frame_accepts_reads_back",
            f"{_REFUSAL}[make_frame-padded-str]", f"{_REFUSAL}[make_frame-leading-tab]")),
    Mutant("src/expertfuse/corpus.py",
           "    except csv.Error as exc:",
           "    except ValueError as exc:",
           ("tests/test_corpus.py::TestParseErrors"
            "::test_text_the_csv_module_cannot_split_is_located",
            "tests/test_cli.py::TestCorpus"
            "::test_text_the_csv_module_cannot_split_is_located[field-past-the-csv-limit]")),
    # A quoted field may span lines: a row is named by its last line, not its count.
    Mutant("src/expertfuse/corpus.py",
           "        for row in reader:\n            yield reader.line_num, row\n",
           "        for lineno, row in enumerate(reader, start=1):\n"
           "            yield lineno, row\n",
           ("tests/test_corpus.py::TestParseErrors"
            "::test_a_row_after_a_multi_line_id_names_its_line[unknown-class]",
            "tests/test_corpus.py::TestParseErrors"
            "::test_a_row_after_a_multi_line_id_names_its_line[proportion-not-a-number]",
            "tests/test_cli.py::TestCorpus::test_a_row_after_a_multi_line_id_names_its_line")),
    # A mass file's CR and CRLF line ends read as a text file's do, for the JSON error's line.
    Mutant("src/expertfuse/cli.py",
           '.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
           "",
           ("tests/test_cli.py::TestDecide"
            "::test_a_json_error_names_its_line_whatever_ends_the_lines[crlf]",
            "tests/test_cli.py::TestDecide"
            "::test_a_json_error_names_its_line_whatever_ends_the_lines[cr]")),
    Mutant("src/expertfuse/cli.py",
           "    except RecursionError:\n"
           "        raise ValueError(f\"{path}: not valid JSON (nested too deeply)\") from None\n",
           "",
           ("tests/test_cli.py::TestFuse"
            "::test_a_deeply_nested_mass_file_fails_without_traceback",
            "tests/test_cli.py::TestDecide"
            "::test_a_deeply_nested_mass_file_fails_without_traceback")),
    Mutant("src/expertfuse/expert_models.py",
           "        for name in (\"p_a\", \"p_b\", \"c_a\", \"c_b\"):\n"
           "            _check_fraction(name, getattr(self, name))\n",
           "",
           ("tests/test_expert_models.py::TestDeclarations"
            "::test_a_bool_or_non_real_field_is_refused[c_a-bool]",
            "tests/test_expert_models.py::TestDeclarations"
            "::test_a_bool_or_non_real_field_is_refused[p_a-bool]",
            "tests/test_expert_models.py::TestDeclarations"
            "::test_a_bool_or_non_real_field_is_refused[str]")),
    Mutant("src/expertfuse/mass.py",
           "            if key not in _JSON_KEYS:\n",
           "            if key not in _JSON_KEYS | {key}:\n",
           ("tests/test_mass.py::test_malformed_json_names_the_field"
            "[payload6-mass JSON has an unknown key 'wrold']",)),
    Mutant("src/expertfuse/mass.py",
           "isinstance(value, bool) or not isinstance(value, numbers.Real)",
           "isinstance(value, bool) and not isinstance(value, numbers.Real)",
           (f"{_REFUSAL}[CertaintyWeights.c1-bool]", f"{_REFUSAL}[CertaintyWeights.c2-str]")),
    Mutant("src/expertfuse/corpus.py",
           "    if not isinstance(text, str):\n"
           "        raise TypeError(f\"annotation text must be a str, got {type(text).__name__}\")\n",
           "",
           ("tests/test_corpus.py::TestParseErrors::test_anything_but_text_is_refused[lines]",
            "tests/test_corpus.py::TestParseErrors::test_anything_but_text_is_refused[stream]")),
    Mutant("src/expertfuse/mass.py",
           "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
           "not isinstance(value, numbers.Integral)",
           ("tests/test_expert_models.py::TestCertaintyWeights"
            "::test_a_bool_or_non_integer_level_is_refused[bool]",
            "tests/test_expert_models.py::TestTileAnnotationValidation"
            "::test_a_bool_or_non_integer_level_is_refused[bool]")),
    Mutant("src/expertfuse/expert_models.py",
           "    _check_integer(\"certainty level\", level)\n",
           "",
           ("tests/test_expert_models.py::TestCertaintyWeights"
            "::test_a_bool_or_non_integer_level_is_refused[float]",
            "tests/test_expert_models.py::TestTileAnnotationValidation"
            "::test_a_bool_or_non_integer_level_is_refused[float]")),
    Mutant("src/expertfuse/expert_models.py",
           "            _check_fraction(\"proportion\", entry.proportion)\n",
           "",
           ("tests/test_expert_models.py::TestTileAnnotationValidation"
            "::test_a_bool_or_non_real_proportion_is_refused[bool]",)),
    Mutant("src/expertfuse/mass.py",
           "isinstance(value, bool) or not isinstance(value, numbers.Real)",
           "not isinstance(value, numbers.Real)",
           (f"{_REFUSAL}[mass_from_entries-bool]", f"{_REFUSAL}[ExpertDeclaration.p_a-bool]",
            f"{_REFUSAL}[CertaintyWeights.c1-bool]")),
    # The integer rule accepts a real number that is not an integer.
    Mutant("src/expertfuse/mass.py",
           "isinstance(value, numbers.Integral)",
           "isinstance(value, numbers.Real)",
           (f"{_REFUSAL}[check_class_counts-float]", f"{_REFUSAL}[decision_change_rate.seed-float]",
            f"{_REFUSAL}[CertaintyWeights.weight-float]")),
    # The [0, 1] rule refuses its upper bound.
    Mutant("src/expertfuse/mass.py",
           "0.0 <= value <= 1.0",
           "0.0 <= value < 1.0",
           (f"{_REFUSAL}[ExpertDeclaration.p_a-int]", f"{_REFUSAL}[TileAnnotation.proportion-int]",
            f"{_REFUSAL}[StabilityResult.change_rate-int]")),
    Mutant("src/expertfuse/stability.py",
           "        _check_fraction(\"change rate\", self.change_rate)\n",
           "",
           ("tests/test_stability.py::TestDecisionChangeRate"
            "::test_a_rate_outside_the_unit_interval_is_refused",
            f"{_REFUSAL}[StabilityResult.change_rate-nan]")),
    Mutant("src/expertfuse/expert_models.py",
           "            _check_fraction(f\"certainty weight {name}\", getattr(self, name))\n",
           "            pass\n",
           (f"{_REFUSAL}[CertaintyWeights.c1-bool]", f"{_REFUSAL}[CertaintyWeights.c3-none]")),
    Mutant("src/expertfuse/mass.py",
           "        if type(value) is not float:\n"
           "            _check_real(f\"mass on {format_element(element)}\", value)\n",
           "",
           (f"{_REFUSAL}[mass_from_entries-bool]", f"{_REFUSAL}[mass_from_entries-str]",
            f"{_REFUSAL}[MassFunction.from_json-bool]")),
    Mutant("src/expertfuse/stability.py",
           "    _check_integer(\"seed\", seed)\n",
           "",
           (f"{_REFUSAL}[decision_change_rate.seed-float]", f"{_REFUSAL}[invariance_check.seed-none]",
            "tests/test_stability.py::TestInvariance"
            "::test_a_seed_that_is_not_an_integer_is_refused_before_drawing")),
    Mutant("src/expertfuse/stability.py",
           "    _check_integer(\"bin count\", bins)\n",
           "",
           (f"{_REFUSAL}[conflict_density.bins-float]",
            "tests/test_stability.py::TestIntegerCounts"
            "::test_a_bin_count_that_is_not_an_integer_is_refused")),
    Mutant("src/expertfuse/expert_models.py",
           "        _check_key((self.tile_id, self.expert_id))\n",
           "",
           (f"{_REFUSAL}[TileAnnotation.key-ints]", f"{_REFUSAL}[TileAnnotation.key-empty-id]")),
    Mutant("src/expertfuse/expert_models.py",
           "            _check_label(entry.label)\n",
           "",
           (f"{_REFUSAL}[TileAnnotation.label-int]", f"{_REFUSAL}[TileAnnotation.label-none]",
            f"{_REFUSAL}[TileAnnotation.label-empty-str]")),
    # The label rule is one helper, so a frame refuses what an annotation refuses.
    Mutant("src/expertfuse/lattice.py",
           "    if not isinstance(label, str) or not label:\n",
           "    if not isinstance(label, str):\n",
           (f"{_REFUSAL}[make_frame-empty-str]", f"{_REFUSAL}[TileAnnotation.label-empty-str]")),
    # A corpus's keys are distinct; the columnar reader hands an empty id to the row loop.
    Mutant("src/expertfuse/corpus.py",
           "            if key in seen:\n",
           "            if False:\n",
           (f"{_DIRECT}::test_a_repeated_key",)),
    Mutant("src/expertfuse/corpus.py",
           '    if "" in tiles or "" in experts:\n        return None\n',
           "",
           ("tests/test_corpus.py::TestParseErrors::test_an_empty_tile_or_expert_id",
            f"{_READER_MATCH}[empty-tile-id]")),
    # Pair rows follow each tile's first key for either expert, not the corpus's tile order.
    Mutant("src/expertfuse/corpus.py",
           "row_tiles = tile_codes[np.argsort(first)]",
           "row_tiles = tile_codes",
           (f"{_PAIR_MATCH}[2-3-1.0-e1-e2]", f"{_PAIR_MATCH}[3-3-1.0-e3-e2]")),
    # Equality reads the columns: each group's entries in file order, and
    # every entry array and key code.
    Mutant("src/expertfuse/corpus.py",
           'np.argsort(corpus.owner, kind="stable")',
           "np.argsort(corpus.owner)",
           (f"{_EQUALITY}::test_agrees_with_annotation_equality_on_seeded_pairs",
            f"{_EQUALITY}::test_an_interleaved_annotation_equals_its_grouped_copy")),
    Mutant("src/expertfuse/corpus.py",
           "for name, _, _ in _COLUMNS)",
           "for name, _, _ in _COLUMNS[:-1])",
           (f"{_EQUALITY}::test_agrees_with_annotation_equality_on_seeded_pairs",)),
    Mutant("src/expertfuse/corpus.py",
           "for name, _, _ in _COLUMNS)",
           "for name, _, _ in _COLUMNS[1:])",
           (f"{_EQUALITY}::test_corpora_that_differ_in_one_array_differ[owner]",)),
    Mutant("src/expertfuse/corpus.py",
           "                or not np.array_equal(self.key_tile, other.key_tile)\n",
           "",
           (f"{_EQUALITY}::test_corpora_that_differ_in_one_array_differ[key-codes]",)),
    Mutant("src/expertfuse/mass.py",
           "    if len(payload) != len(pairs):\n",
           "    if len(payload) < 0:\n",
           (f"{_REFUSAL}[MassFunction.from_json.keys-repeated-mass]",
            f"{_REFUSAL}[MassFunction.from_json.keys-repeated-frame]",
            "tests/test_cli.py::TestDecide::test_a_repeated_mass_key_is_refused")),
    Mutant("src/expertfuse/corpus.py",
           'experts = _id_sequence("experts", experts)',
           "experts = tuple(experts)",
           (f"{_REFUSAL}[expert_pair.experts-str]",
            "tests/test_corpus.py::TestExpertPair::test_a_str_of_expert_ids_is_refused")),
    # A CRLF line end is one line, as newline="" counts it.
    Mutant("src/expertfuse/mass.py",
           ' - head.count(b"\\r\\n")',
           "",
           (f"{_REFUSAL}[load_annotations-after-crlf]", f"{_REFUSAL}[mass JSON file-after-crlf]",
            "tests/test_corpus.py::TestParseErrors"
            "::test_a_byte_that_is_not_utf8_names_its_line[3-crlf]")),
    # The caps on sample and bin counts, and the command's bin check before drawing.
    Mutant("src/expertfuse/stability.py",
           "if n_samples > MAX_SAMPLES:",
           "if n_samples > 10 * MAX_SAMPLES:",
           (f"{_CAPS}[rate]", f"{_CAPS}[table]", f"{_CAPS}[invariance]",
            f"{_CAPS}[density-samples]",
            f"{_REFUSAL}[decision_change_rate.n_samples-above-cap]",
            f"{_REFUSAL}[invariance_check.n_samples-above-cap]",
            "tests/test_cli.py::TestSimulate"
            "::test_a_count_above_its_cap_is_refused_before_drawing[product-samples]")),
    Mutant("src/expertfuse/stability.py",
           "if bins > MAX_BINS:",
           "if bins > 10 * MAX_BINS:",
           (f"{_CAPS}[density-bins]", f"{_REFUSAL}[conflict_density.bins-above-cap]",
            "tests/test_stability.py::TestCaps::test_a_histogram_takes_up_to_the_bin_cap",
            "tests/test_cli.py::TestSimulate"
            "::test_a_count_above_its_cap_is_refused_before_drawing[bins-without-histogram]")),
    Mutant("src/expertfuse/cli.py",
           "    check_bin_count(args.bins)\n",
           "",
           ("tests/test_cli.py::TestSimulate"
            "::test_a_count_above_its_cap_is_refused_before_drawing[bins]",)),
    # Streaming: one block for the whole sample, and kept rows dropped at a block edge.
    Mutant("src/expertfuse/stability.py",
           "step = 2 * _KERNEL_BLOCK",
           "step = count",
           (f"{_STREAMED}::test_memory_holds_one_block_not_the_sample",)),
    Mutant("src/expertfuse/stability.py",
           "held, count = held[size:], count - size",
           "held, count = held[:0], count - size",
           (f"{_STREAMED}::test_product_law_carries_kept_rows_across_a_chunk_edge[2]",
            f"{_STREAMED}::test_invariance_counterexamples_equal_one_whole_draw[across]")),
    # Damped PCR5 redistribution: every rate stays inside criterion 8's one
    # point, but n = 3..6 fall 3.5 to 4.8 thousandths below the reference.
    Mutant("src/expertfuse/stability.py",
           "shared = ai * bj / denom",
           "shared = ai * bj / (denom + 0.15)",
           tuple(f"tests/test_acceptance.py"
                 f"::test_rates_agree_with_the_seed_independent_reference[{n}]"
                 for n in range(3, 7))),
)


def _copy_tree(workdir: Path) -> None:
    for name in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / name, workdir / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", workdir / "pyproject.toml")
    (workdir / "data").symlink_to(ROOT / "data", target_is_directory=True)


def _failed_ids(workdir: Path, test_ids: tuple[str, ...]) -> set[str] | None:
    """The ids among `test_ids` that did not pass, or None on a timeout."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *test_ids],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    reported = set()
    for line in done.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("FAILED", "ERROR"):
            reported.add(rest.split(" - ", 1)[0])
    if done.returncode not in (0, 1):  # collection or usage error: nothing ran
        return set(test_ids)
    return {test_id for test_id in test_ids if test_id in reported}


def _apply(workdir: Path, mutant: Mutant) -> str | None:
    """Edit the copy; the reason it cannot be edited, or None."""
    path = workdir / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"old text found {found} times, expected once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def main() -> int:
    faults = []
    every_id = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.test_ids))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch) / "base"
        _copy_tree(workdir)
        failed = _failed_ids(workdir, every_id)
        if failed is None or failed:
            faults.append(f"unedited copy: {'timed out' if failed is None else sorted(failed)}")
        for k, mutant in enumerate(MUTANTS, start=1):
            label = f"{mutant.path}: {mutant.old!r} -> {mutant.new!r}"
            workdir = Path(scratch) / f"mutant-{k}"
            _copy_tree(workdir)
            reason = _apply(workdir, mutant)
            if reason is None:
                failed = _failed_ids(workdir, mutant.test_ids)
                if failed is not None and failed != set(mutant.test_ids):
                    reason = f"survives: {sorted(set(mutant.test_ids) - failed)} passed"
            print(f"{'ok  ' if reason is None else 'FAIL'} {label}"
                  + ("" if reason is None else f": {reason}"))
            if reason is not None:
                faults.append(f"{label}: {reason}")
            shutil.rmtree(workdir)
    if faults:
        print(f"{len(faults)} problem(s):", *faults, sep="\n  ", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
