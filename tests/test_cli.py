"""End-to-end checks of the command line, driven through main()."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from expertfuse import cli, stability
from expertfuse.cli import main
from expertfuse.corpus import expert_pair, generate_demo_corpus
from expertfuse.decision import criteria_table
from expertfuse.expert_models import ExpertDeclaration, build_m1, build_m4, build_m5
from expertfuse.lattice import Model, make_frame
from expertfuse.mass import mass_from_entries
from expertfuse.stability import conflict_density, stability_table

E1 = ExpertDeclaration.says_a(0.6)
E2 = ExpertDeclaration.says_both(0.5, 0.6, 0.4)


@pytest.fixture(scope="module")
def mass_dir(tmp_path_factory):
    """A directory of mass files used across the command tests."""
    root = tmp_path_factory.mktemp("masses")
    (root / "m1_one.json").write_text(build_m1(E1).to_json(), encoding="utf-8")
    (root / "m1_two.json").write_text(build_m1(E2).to_json(), encoding="utf-8")
    (root / "m4_one.json").write_text(build_m4(E1).to_json(), encoding="utf-8")
    (root / "m4_two.json").write_text(build_m4(E2).to_json(), encoding="utf-8")
    (root / "m5_two.json").write_text(build_m5(E2).to_json(), encoding="utf-8")
    tie = mass_from_entries(make_frame(("A", "B")), {"A": 0.4, "B": 0.4, "Θ": 0.2})
    (root / "tie.json").write_text(tie.to_json(), encoding="utf-8")
    (root / "broken.json").write_text("{not json", encoding="utf-8")
    (root / "wrong_keys.json").write_text('{"labels": ["A"]}', encoding="utf-8")
    return root


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "annotations.csv"
    path.write_text(generate_demo_corpus(40, 5), encoding="utf-8")
    return path


class TestFuse:
    def test_conjunctive_table(self, mass_dir, capsys):
        code = main(["fuse", str(mass_dir / "m1_one.json"), str(mass_dir / "m1_two.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "rule: conjunctive" in out
        assert "frame: {A, B, C} (shafer)" in out
        # the ∅ row leads and carries the conflict, without a betP value
        first_row = out.splitlines()[3]
        assert first_row.startswith("∅")
        assert "0.3000" in first_row and first_row.rstrip().endswith("-")
        a_row = next(line for line in out.splitlines() if line.startswith("A "))
        assert "0.5238" in a_row

    def test_pcr5_on_overlapping_frame_projects_back(self, mass_dir, capsys):
        code = main(
            [
                "fuse",
                str(mass_dir / "m4_one.json"),
                str(mass_dir / "m4_two.json"),
                "--rule",
                "pcr5",
                "--decide",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "frame: {A, B} (shafer)" in out
        a_row = next(line for line in out.splitlines() if line.startswith("A "))
        assert "0.8000" in a_row and "0.9000" in a_row
        assert "decision (pignistic over singletons): A" in out

    def test_json_output_keeps_full_precision(self, mass_dir, tmp_path, capsys):
        target = tmp_path / "fused.json"
        code = main(
            [
                "fuse",
                str(mass_dir / "m1_one.json"),
                str(mass_dir / "m1_two.json"),
                "--json",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["rule"] == "conjunctive"
        assert payload["mass"]["world"] == "open"
        assert payload["criteria"]["A"]["pignistic"] == pytest.approx(11 / 21, abs=1e-12)
        assert payload["criteria"]["∅"]["pignistic"] is None

    def test_json_criteria_of_the_readme_example(self, tmp_path, capsys):
        paths = []
        for name, declaration in (("expert1.json", E1), ("expert2.json", E2)):
            (tmp_path / name).write_text(build_m5(declaration).to_json(), encoding="utf-8")
            paths.append(str(tmp_path / name))
        target = tmp_path / "fused.json"
        assert main(["fuse", "--rule", "pcr5", *paths, "--json", str(target)]) == 0
        capsys.readouterr()
        criteria = json.loads(target.read_text(encoding="utf-8"))["criteria"]
        assert criteria == {
            "A": {"mass": 0.69, "credibility": 0.69, "plausibility": 0.89,
                  "pignistic": 0.7899999999999999},
            "B": {"mass": 0.11000000000000004, "credibility": 0.11000000000000004,
                  "plausibility": 0.31000000000000005, "pignistic": 0.21000000000000008},
            "Θ": {"mass": 0.20000000000000004, "credibility": 1.0, "plausibility": 1.0,
                  "pignistic": 1.0},
        }
        assert list(criteria) == ["A", "B", "Θ"]

    def test_empty_credibility_prints_as_the_int_zero(self, mass_dir, tmp_path, capsys):
        target = tmp_path / "fused.json"
        main(["fuse", str(mass_dir / "m1_one.json"), str(mass_dir / "m1_two.json"),
              "--json", str(target)])
        capsys.readouterr()
        assert '"credibility": 0,' in target.read_text(encoding="utf-8")

    def test_total_conflict_fails_before_the_table(self, tmp_path, capsys):
        frame = make_frame(("A", "B"))
        paths = []
        for label in ("A", "B"):
            path = tmp_path / f"{label}.json"
            path.write_text(mass_from_entries(frame, {label: 1.0}).to_json(), encoding="utf-8")
            paths.append(str(path))
        assert main(["fuse", *paths]) == 1
        captured = capsys.readouterr()
        assert captured.out == "rule: conjunctive\nframe: {A, B} (shafer)\n"
        assert captured.err == "error: pignistic probability is undefined under total conflict\n"

    def test_builds_the_criteria_table_once(self, mass_dir, tmp_path, monkeypatch, capsys):
        calls = []

        def counting(m):
            calls.append(m)
            return criteria_table(m)

        monkeypatch.setattr("expertfuse.cli.criteria_table", counting)
        target = tmp_path / "fused.json"
        argv = ["fuse", str(mass_dir / "m1_one.json"), str(mass_dir / "m1_two.json"),
                "--decide", "--json", str(target)]
        assert main(argv) == 0
        assert len(calls) == 1
        printed = capsys.readouterr().out.splitlines()[3:-1]
        criteria = json.loads(target.read_text(encoding="utf-8"))["criteria"]
        assert [line.split()[0] for line in printed] == list(criteria)

    def test_single_file_is_a_usage_error(self, mass_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fuse", str(mass_dir / "m1_one.json")])
        assert exc.value.code == 2
        assert "at least two mass files" in capsys.readouterr().err

    def test_frame_mismatch_fails_cleanly(self, mass_dir, capsys):
        code = main(["fuse", str(mass_dir / "m1_one.json"), str(mass_dir / "m4_one.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_unreadable_mass_files(self, mass_dir, capsys):
        assert main(["fuse", str(mass_dir / "broken.json"), str(mass_dir / "m1_one.json")]) == 1
        assert "not valid JSON" in capsys.readouterr().err
        assert main(["fuse", str(mass_dir / "wrong_keys.json"), str(mass_dir / "m1_one.json")]) == 1
        assert "missing the 'frame' key" in capsys.readouterr().err
        assert main(["fuse", str(mass_dir / "missing.json"), str(mass_dir / "m1_one.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_masses_given_as_a_list_fail_with_the_path(self, mass_dir, capsys):
        path = mass_dir / "masses_as_list.json"
        path.write_text('{"frame": ["A", "B"], "model": "shafer", "masses": [["A", 1.0]]}',
                        encoding="utf-8")
        assert main(["fuse", str(path), str(mass_dir / "m1_one.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: mass JSON 'masses' must be an object, not [['A', 1.0]]\n"

    def test_integer_mass_too_large_for_a_float_fails_without_traceback(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            path.write_text('{"frame": ["A", "B"], "model": "shafer", "masses": {"Θ": 1%s}}'
                            % ("0" * 400), encoding="utf-8")
            paths.append(str(path))
        proc = subprocess.run([sys.executable, "-m", "expertfuse", "fuse", *paths],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"error: {paths[0]}: mass on Θ is too large for a float\n"

    def test_a_deeply_nested_mass_file_fails_without_traceback(self, mass_dir, tmp_path,
                                                                capsys):
        # once a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["fuse", str(path), str(mass_dir / "m1_one.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON (nested too deeply)\n"


class TestDecide:
    def test_defaults_to_pignistic_over_classes(self, mass_dir, capsys):
        code = main(["decide", str(mass_dir / "m5_two.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "pignistic(A) = 0.5500" in out
        assert "pignistic(B) = 0.4500" in out
        assert "chosen: A" in out

    def test_explicit_criterion_and_candidates(self, mass_dir, capsys):
        code = main(
            [
                "decide",
                str(mass_dir / "m5_two.json"),
                "--criterion",
                "credibility",
                "--candidates",
                "A, Θ",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "credibility(A) = 0.3000" in out
        assert "credibility(Θ) = 1.0000" in out
        assert "chosen: Θ" in out

    def test_tie_reported(self, mass_dir, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["decide", str(mass_dir / "tie.json"), "--json", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert "chosen: A" in out
        assert "tie between: A, B" in out
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["tie"] is True
        assert payload["tied"] == ["A", "B"]

    def test_unknown_criterion_is_a_usage_error(self, mass_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", str(mass_dir / "tie.json"), "--criterion", "entropy"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_candidate_text(self, mass_dir, capsys):
        code = main(["decide", str(mass_dir / "tie.json"), "--candidates", "A,X"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_deeply_nested_mass_file_fails_without_traceback(self, tmp_path, capsys):
        # once a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main(["decide", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON (nested too deeply)\n"


class TestSimulate:
    def test_table_matches_the_library(self, capsys):
        code = main(["simulate", "--classes", "2", "--samples", "300", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        result = stability_table([2], 300, 7)[0]
        lines = out.splitlines()
        assert lines[0].split() == ["n", "samples", "change_rate", "ci"]
        assert lines[1].split() == [
            "2",
            "300",
            f"{result.change_rate:.4f}",
            f"{result.ci_halfwidth:.4f}",
        ]

    def test_runs_are_reproducible(self, capsys):
        argv = ["simulate", "--classes", "2,3", "--samples", "200", "--seed", "42"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_csv_round_trips_full_precision(self, tmp_path, capsys):
        target = tmp_path / "rates.csv"
        main(
            [
                "simulate",
                "--classes",
                "2..3",
                "--samples",
                "250",
                "--seed",
                "3",
                "--out",
                str(target),
            ]
        )
        capsys.readouterr()
        rows = list(csv.DictReader(target.open()))
        results = stability_table([2, 3], 250, 3)
        assert [int(r["n"]) for r in rows] == [2, 3]
        for row, result in zip(rows, results):
            assert float(row["change_rate"]) == result.change_rate
            assert float(row["ci"]) == result.ci_halfwidth

    def test_histogram_output(self, tmp_path, capsys):
        target = tmp_path / "hist.csv"
        code = main(
            [
                "simulate",
                "--classes",
                "3",
                "--samples",
                "400",
                "--seed",
                "5",
                "--bins",
                "10",
                "--histogram",
                str(target),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 10
        assert float(rows[0]["bin_low"]) == 0.0
        assert float(rows[-1]["bin_high"]) == 1.0
        assert sum(float(r["freq_all"]) for r in rows) == pytest.approx(1.0)

    def test_histogram_run_prints_the_plain_table(self, tmp_path, capsys):
        argv = ["simulate", "--classes", "4", "--samples", "300", "--seed", "3"]
        main(argv + ["--out", str(tmp_path / "plain.csv")])
        plain = capsys.readouterr().out
        main(argv + ["--out", str(tmp_path / "with.csv"), "--bins", "7",
                     "--histogram", str(tmp_path / "hist.csv")])
        assert capsys.readouterr().out == plain
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        rows = list(csv.DictReader((tmp_path / "hist.csv").open()))
        full = conflict_density(4, 300, 7, "all", 3)
        flipped = conflict_density(4, 300, 7, "decision_change", 3)
        assert [float(r["freq_all"]) for r in rows] == list(full.frequencies)
        assert [float(r["freq_change"]) for r in rows] == list(flipped.frequencies)
        assert [float(r["bin_low"]) for r in rows] == list(full.bin_edges[:-1])

    def test_histogram_of_several_class_counts(self, tmp_path, capsys):
        argv = ["simulate", "--classes", "2..4", "--samples", "300", "--seed", "9"]
        assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "with.csv"), "--bins", "6",
                            "--histogram", str(tmp_path / "hist.csv")]) == 0
        assert capsys.readouterr().out == plain
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        with open(tmp_path / "hist.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "bin_low", "bin_high", "freq_all", "freq_change"]
        assert [row[0] for row in rows[1:]] == ["2"] * 6 + ["3"] * 6 + ["4"] * 6
        for k, n in enumerate((2, 3, 4)):
            block = rows[1 + 6 * k: 7 + 6 * k]
            full = conflict_density(n, 300, 6, "all", 9)
            flipped = conflict_density(n, 300, 6, "decision_change", 9)
            assert [float(r[1]) for r in block] == list(full.bin_edges[:-1])
            assert [float(r[2]) for r in block] == list(full.bin_edges[1:])
            assert [float(r[3]) for r in block] == list(full.frequencies)
            assert [float(r[4]) for r in block] == list(flipped.frequencies)

    @pytest.mark.parametrize("flag", ["--samples", "--bins"])
    @pytest.mark.parametrize("value", ["0", "-3", "x", "1.5"])
    def test_a_count_flag_needs_a_positive_integer(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as caught:
            main(["simulate", "--classes", "2", flag, value,
                  "--histogram", str(tmp_path / "hist.csv")])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"expertfuse simulate: error: argument {flag}: "
            f"must be a positive integer, got {value}"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_negative_seed_is_refused_in_one_line(self, tmp_path, capsys):
        for extra in ([], ["--histogram", str(tmp_path / "hist.csv")]):
            assert main(["simulate", "--classes", "2", "--samples", "20", "--seed", "-1",
                         "--out", str(tmp_path / "rates.csv"), *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, repeated", [("2,2", 2), ("2..3,3", 3), ("4,2..5", 4)])
    def test_a_repeated_class_count_is_refused_before_drawing(
        self, tmp_path, capsys, monkeypatch, spec, repeated
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(cli, "stability_table", no_draw)
        assert main(["simulate", "--classes", spec, "--samples", "5",
                     "--out", str(tmp_path / "rates.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --classes: class count {repeated} given twice\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, bad", [
        ("x", "x"), ("3..", "3.."), ("2,,3", ""), ("..4", "..4"), ("2..x", "2..x"),
    ])
    def test_a_malformed_class_spec_is_quoted(self, capsys, spec, bad):
        assert main(["simulate", "--classes", spec, "--samples", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --classes: {bad!r} is not a class count or a range such as 2..7\n"
        )

    def test_bad_class_spec(self, capsys):
        assert main(["simulate", "--classes", "1..3", "--samples", "50"]) == 1
        assert capsys.readouterr().err == "error: --classes: need at least two classes, got 1\n"
        assert main(["simulate", "--classes", "5..3", "--samples", "50"]) == 1
        assert capsys.readouterr().err == "error: --classes: empty class range '5..3'\n"

    def test_class_counts_stop_at_26(self, capsys):
        assert main(["simulate", "--classes", "26", "--samples", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "26"
        for spec, bad in (("27", 27), ("40..41", 40), ("2..27", 27), ("2..2000000", 2000000)):
            assert main(["simulate", "--classes", spec, "--samples", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: --classes: at most 26 classes are supported, got {bad}\n"
            )
            assert captured.out == ""

    def test_product_law_stops_at_12_classes(self, tmp_path, capsys):
        assert main(["simulate", "--law", "product", "--classes", "12", "--samples", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "12"
        for spec in ("13", "2..13"):
            assert main(["simulate", "--law", "product", "--classes", spec,
                         "--samples", "5"]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "error: --classes: the product law supports at most 12 classes, got 13\n"
            )
            assert captured.out == ""
        assert main(["simulate", "--law", "product", "--classes", "13", "--samples", "5",
                     "--histogram", str(tmp_path / "hist.csv")]) == 1
        assert "at most 12 classes" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--classes", "2..27"], "at most 26 classes are supported, got 27"),
        (["--law", "product", "--classes", "2..13"],
         "the product law supports at most 12 classes, got 13"),
        (["--classes", "7,27", "--histogram", "{tmp}/hist.csv"],
         "at most 26 classes are supported, got 27"),
        (["--law", "product", "--classes", "12,13", "--histogram", "{tmp}/hist.csv"],
         "the product law supports at most 12 classes, got 13"),
    ])
    def test_a_bad_range_is_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                   flags, message):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(stability, "_accepted_masses", no_draw)
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main(["simulate", *flags, "--samples", "5",
                     "--out", str(tmp_path / "rates.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --classes: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestCorpus:
    def test_prints_matrix_and_difference(self, corpus_file, capsys):
        code = main(["corpus", str(corpus_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "conflict matrix ×10^4 (expert1 rows, expert2 columns, 40 tiles)" in out
        assert "matrix total /10^4 (mean conflict):" in out
        assert "decision difference (conjunctive vs pcr6): 0/40 tiles = 0.0000" in out

    def test_file_outputs(self, corpus_file, tmp_path, capsys):
        matrix_path = tmp_path / "matrix.csv"
        diff_path = tmp_path / "diff.json"
        code = main(
            [
                "corpus",
                str(corpus_file),
                "--experts",
                "expert1,expert2",
                "--rules",
                "conjunctive,pcr5",
                "--matrix",
                str(matrix_path),
                "--diff",
                str(diff_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        header = matrix_path.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("class,rock,cobble,sand,silt")
        payload = json.loads(diff_path.read_text(encoding="utf-8"))
        assert payload["rule_b"] == "pcr5"
        assert payload["tiles"] == 40

    def test_expert_flag_validation(self, corpus_file, capsys):
        assert main(["corpus", str(corpus_file), "--experts", "expert1"]) == 1
        assert "exactly two" in capsys.readouterr().err
        assert main(["corpus", str(corpus_file), "--experts", "expert1,ghost"]) == 1
        assert "unknown expert" in capsys.readouterr().err

    def test_one_expert_named_twice_is_refused(self, corpus_file, capsys):
        assert main(["corpus", str(corpus_file), "--experts", "expert1, expert1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: an expert pair compares two different experts, got 'expert1' twice\n"
        )

    def test_weights_must_be_numbers(self, corpus_file, capsys):
        for weights, bad in (("a,b,c", "a"), ("1,0.5x,0.3", "0.5x"), ("1,,0.3", "")):
            assert main(["corpus", str(corpus_file), "--weights", weights]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --weights: {bad!r} is not a number\n"

    def test_builds_the_expert_pair_once(self, corpus_file, monkeypatch, capsys):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return expert_pair(*args, **kwargs)

        monkeypatch.setattr("expertfuse.cli.expert_pair", counting)
        assert main(["corpus", str(corpus_file), "--experts", "expert2,expert1"]) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert "(expert2 rows, expert1 columns, 40 tiles)" in out

    @pytest.mark.parametrize("row, message", [
        # once a _csv.Error traceback
        ("t" * 140_000 + ",e1,sand,1,0.5", "line 2: field larger than field limit (131072)"),
        ("t1,e1,sa\rnd,1,0.5", "line 2: expected 5 fields, got 3"),
    ], ids=["field-past-the-csv-limit", "lone-carriage-return"])
    def test_text_the_csv_module_cannot_split_is_located(self, tmp_path, capsys, row, message):
        path = tmp_path / "notes.csv"
        path.write_bytes(("tile_id,expert_id,class,certainty_level,proportion\n"
                          f"{row}\nt1,e2,silt,1,0.5\n").encode("ascii"))
        assert main(["corpus", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_three_experts_need_the_flag(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("tile_id,expert_id,class,certainty_level,proportion\n"
                        "t1,e1,sand,1,0.5\nt1,e2,silt,1,0.5\nt1,e3,rock,1,0.5\n",
                        encoding="utf-8")
        assert main(["corpus", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: corpus has 3 experts; pass the two to compare\n"
        assert main(["corpus", str(path), "--experts", "e1,e3"]) == 0
        assert "(e1 rows, e3 columns, 1 tiles)" in capsys.readouterr().out

    def test_an_expert_error_comes_before_a_rule_error(self, corpus_file, capsys):
        argv = ["corpus", str(corpus_file), "--experts", "expert1,ghost",
                "--rules", "conjunctive,votes"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown expert 'ghost'\n"

    def test_rule_and_weight_validation(self, corpus_file, capsys):
        assert main(["corpus", str(corpus_file), "--rules", "conjunctive,votes"]) == 1
        assert "unknown rule" in capsys.readouterr().err
        for rules in ("conjunctive", "conjunctive,pcr5,pcr6", ""):
            assert main(["corpus", str(corpus_file), "--rules", rules]) == 1
            err = capsys.readouterr().err
            assert "--rules needs two comma-separated rule names" in err
            assert "unpack" not in err
        assert main(["corpus", str(corpus_file), "--weights", "1,0.5"]) == 1
        assert "three comma-separated" in capsys.readouterr().err
        assert main(["corpus", str(corpus_file), "--weights", "0.2,0.5,0.9"]) == 1
        assert capsys.readouterr().err == (
            "error: certainty weights must satisfy 0 < c3 <= c2 <= c1 <= 1, "
            "got c1=0.2, c2=0.5, c3=0.9\n"
        )
        for weights, field, shown in (("1,nan,0.3", "c2", "nan"), ("inf,0.5,0.3", "c1", "inf"),
                                      ("1,0.5,-inf", "c3", "-inf")):
            assert main(["corpus", str(corpus_file), "--weights", weights]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: certainty weight {field} must lie in [0, 1], got {shown}\n"
            )

    def test_a_bad_level_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad_level.csv"
        path.write_text("tile_id,expert_id,class,certainty_level,proportion\n"
                        "t1,e1,sand,1,0.5\nt1,e2,silt,4,0.5\n", encoding="utf-8")
        assert main(["corpus", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: certainty level must be 1, 2 or 3, got 4\n"

    def test_a_row_after_a_multi_line_id_names_its_line(self, tmp_path, capsys):
        # the quoted id spans lines 2 and 3; this was once reported as line 3
        path = tmp_path / "multi_line_id.csv"
        path.write_text('tile_id,expert_id,class,certainty_level,proportion\n'
                        '"t\n1",e1,sand,1,0.5\nt2,e1,lava,1,0.5\n', encoding="utf-8")
        assert main(["corpus", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 4: unknown class 'lava'\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["corpus", str(tmp_path / "nowhere.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("expertfuse ")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "expertfuse", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("expertfuse ")


def test_every_exported_name_resolves():
    import expertfuse

    for name in expertfuse.__all__:
        getattr(expertfuse, name)
