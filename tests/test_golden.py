"""Golden outputs of `corpus`, the object path and the scripts, pinned by a manifest.

Each `corpus` case runs the CLI in process on the shipped demo corpus or on
a dense two-expert corpus generated here with the standard library, under
one of four flag sets.  A case's digest covers the exit code, stdout,
stderr and the `--diff` JSON bytes; the `--matrix` values are compared
with the manifest's floats at a relative tolerance of 1e-12, since the
summation order inside numpy may move their last bits.  The object path
(`fuse --decide` on ~3 000 stdlib-drawn requests) is pinned at full
precision by the digests of `golden_objects.py`, which must also come out
in a subprocess where numpy cannot be imported.  Each `fuse`/`decide` case
runs the CLI in process on mass files written here; its digest covers the
exit code, stdout, stderr and the `--json` bytes.  Each `simulate` case
runs the CLI in process with a fixed seed; its digest covers the exit
code, stdout, stderr and the bytes of the `--out` and `--histogram` files.
The stdout of `scripts/run_worked_examples.py` is pinned by its digest,
`scripts/run_stability.py` must write the bytes `simulate` writes and
report a bad value in one `error:` line, and `scripts/make_demo_corpus.py`
must reproduce `data/demo_corpus.csv` with its default flags.

Rewrite the manifest, and say why wherever the change is logged, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from expertfuse import stability
from expertfuse.cli import main
from expertfuse.expert_models import SEDIMENT_CLASSES
from golden_objects import digests as object_digests

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().with_name("golden.json")
DEMO = ROOT / "data" / "demo_corpus.csv"

DENSE_TILES = 1500
DENSE_SEED = 20080
MATRIX_REL = 1e-12

FLAG_SETS = {
    "default": [],
    "rules": ["--rules", "pcr5,conjunctive"],
    "weights": ["--weights", "1,0.86,0.6"],
    "swapped": ["--experts", "{second},{first}"],
}
CORPORA = {"demo": ("expert1", "expert2"), "dense": ("e1", "e2")}

SIMULATE_SEED = "2026"
SIMULATE_CASES = {
    "uniform-2..7": ["--classes", "2..7", "--samples", "10000"],
    "product-2..9": ["--classes", "2..9", "--samples", "2000", "--law", "product"],
    "uniform-7-histogram": ["--classes", "7", "--histogram"],
    "product-4-bins13-histogram": ["--classes", "4", "--law", "product", "--bins", "13",
                                   "--histogram"],
}

_ABC = '{"frame": ["A", "B", "C"], "model": "shafer", "world": "closed", "masses": '
_AB = '{"frame": ["A", "B"], "model": "shafer", "world": "closed", "masses": '
_FREE_AB = '{"frame": ["A", "B"], "model": "free", "world": "closed", "masses": '
MASS_FILES = {
    "abc-1": _ABC + '{"A": 0.6, "Θ": 0.4}}',
    "abc-2": _ABC + '{"B": 0.5, "A∪C": 0.3, "Θ": 0.2}}',
    "abc-3": _ABC + '{"C": 0.45, "A∪B": 0.35, "Θ": 0.2}}',
    "free-1": _FREE_AB + '{"A": 0.6, "Θ": 0.4}}',
    "free-2": _FREE_AB + '{"B": 0.5, "A∩B": 0.2, "Θ": 0.3}}',
    "tie": _AB + '{"A": 0.4, "B": 0.4, "Θ": 0.2}}',
    "vacuous": _AB + '{"Θ": 1.0}}',
    "sum-past-one": _AB + '{"A": 0.7, "B": 0.5}}',
}
FUSE_DECIDE_CASES = {
    "fuse-conjunctive": ["fuse", "{abc-1}", "{abc-2}", "--rule", "conjunctive", "--decide"],
    "fuse-pcr5": ["fuse", "{abc-1}", "{abc-2}", "--rule", "pcr5", "--decide"],
    "fuse-pcr6": ["fuse", "{abc-1}", "{abc-2}", "--rule", "pcr6", "--decide"],
    "fuse-pcr6-three-experts": ["fuse", "{abc-1}", "{abc-2}", "{abc-3}", "--rule", "pcr6",
                                "--decide"],
    "fuse-free-conjunctive": ["fuse", "{free-1}", "{free-2}", "--decide"],
    "fuse-free-pcr5-projection": ["fuse", "{free-1}", "{free-2}", "--rule", "pcr5", "--decide"],
    "fuse-tie": ["fuse", "{tie}", "{vacuous}", "--decide"],
    "fuse-invalid-mass-file": ["fuse", "{abc-1}", "{sum-past-one}", "--decide"],
    "decide-mass": ["decide", "{abc-2}", "--criterion", "mass"],
    "decide-credibility": ["decide", "{abc-2}", "--criterion", "credibility"],
    "decide-plausibility": ["decide", "{abc-2}", "--criterion", "plausibility"],
    "decide-pignistic": ["decide", "{abc-2}", "--criterion", "pignistic"],
    "decide-candidates": ["decide", "{abc-2}", "--criterion", "plausibility",
                          "--candidates", "A, A∪C, B, Θ"],
    "decide-tie": ["decide", "{tie}"],
}


def dense_corpus_text(tiles: int = DENSE_TILES, seed: int = DENSE_SEED) -> str:
    """Two experts, 1–4 parts per annotation, proportions floored to 4 decimals.

    Expert e1 lists its tiles in order and e2 in reverse, so statistics
    that paired rows by file position instead of by tile would differ.
    """
    rng = random.Random(seed)
    rows = {"e1": [], "e2": []}
    for t in range(tiles):
        for expert in ("e1", "e2"):
            parts = rng.randint(1, 4)
            classes = rng.sample(SEDIMENT_CLASSES, parts)
            weights = [rng.expovariate(1.0) for _ in range(parts + 1)]
            total = sum(weights)
            for label, w in zip(classes, weights):
                units = int(w / total * 10_000)  # floor to 4 decimals
                level = rng.randint(1, 3)
                rows[expert].append(f"t{t:05d},{expert},{label},{level},0.{units:04d}")
    lines = ["tile_id,expert_id,class,certainty_level,proportion"]
    lines += rows["e1"]
    # e2's annotations in reverse tile order, each keeping its own parts' order
    by_tile: dict[str, list[str]] = {}
    for row in rows["e2"]:
        by_tile.setdefault(row.split(",", 1)[0], []).append(row)
    for tile in reversed(list(by_tile)):
        lines += by_tile[tile]
    return "\n".join(lines) + "\n"


def _case_argv(corpus: str, flags: str) -> list[str]:
    first, second = CORPORA[corpus]
    return [arg.format(first=first, second=second) for arg in FLAG_SETS[flags]]


def run_corpus_case(path: Path, corpus: str, flags: str, workdir: Path) -> tuple[str, list]:
    """(digest, matrix values) of one `corpus` run."""
    matrix_path = workdir / f"{corpus}-{flags}-matrix.csv"
    diff_path = workdir / f"{corpus}-{flags}-diff.json"
    argv = ["corpus", str(path), *_case_argv(corpus, flags),
            "--matrix", str(matrix_path), "--diff", str(diff_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode("utf-8") + b"\0")
    digest.update(diff_path.read_bytes() if diff_path.exists() else b"")
    matrix = []
    if matrix_path.exists():
        with open(matrix_path, encoding="utf-8", newline="") as handle:
            matrix = [[float(v) for v in row[1:]] for row in list(csv.reader(handle))[1:]]
    return digest.hexdigest(), matrix


def simulate_digest(case: str, workdir: Path) -> str:
    """Digest of one `simulate` run: exit code, stdout, stderr, then both files."""
    table_path = workdir / "simulate-table.csv"
    hist_path = workdir / "simulate-hist.csv"
    argv = ["simulate", "--seed", SIMULATE_SEED, "--out", str(table_path)]
    for arg in SIMULATE_CASES[case]:
        argv.append(arg)
        if arg == "--histogram":
            argv.append(str(hist_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode("utf-8") + b"\0")
    for path in (table_path, hist_path):
        digest.update((path.read_bytes() if path.exists() else b"") + b"\0")
        path.unlink(missing_ok=True)
    return digest.hexdigest()


def fuse_decide_digest(case: str, workdir: Path) -> str:
    """Digest of one `fuse`/`decide` run: exit code, stdout, stderr, then the `--json` bytes.

    The mass files are written to `workdir`, whose path is replaced by
    `<dir>` in the printed text so the digest does not depend on it.
    """
    for name, text in MASS_FILES.items():
        (workdir / f"{name}.json").write_text(text, encoding="utf-8")
    json_path = workdir / "out.json"
    paths = {name: str(workdir / f"{name}.json") for name in MASS_FILES}
    argv = [arg.format(**paths) for arg in FUSE_DECIDE_CASES[case]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json", str(json_path)])
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.replace(str(workdir), "<dir>").encode("utf-8") + b"\0")
    digest.update(json_path.read_bytes() if json_path.exists() else b"")
    json_path.unlink(missing_ok=True)
    return digest.hexdigest()


def _script_env(*extra: Path) -> dict:
    paths = [str(p) for p in (ROOT / "src", *extra)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def worked_examples_digest() -> str:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_worked_examples.py")],
                          capture_output=True, check=True, env=_script_env())
    return hashlib.sha256(done.stdout).hexdigest()


def compute(workdir: Path) -> dict:
    dense = workdir / "dense.csv"
    dense.write_text(dense_corpus_text(), encoding="utf-8")
    cases = {}
    for corpus, path in (("demo", DEMO), ("dense", dense)):
        for flags in FLAG_SETS:
            digest, matrix = run_corpus_case(path, corpus, flags, workdir)
            cases[f"{corpus}/{flags}"] = {"sha256": digest, "matrix": matrix}
    simulate = {case: simulate_digest(case, workdir) for case in SIMULATE_CASES}
    fuse_decide = {case: fuse_decide_digest(case, workdir) for case in FUSE_DECIDE_CASES}
    return {"corpus": cases, "fuse_decide": fuse_decide, "objects": object_digests(),
            "simulate": simulate, "worked_examples_sha256": worked_examples_digest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dense_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "dense.csv"
    path.write_text(dense_corpus_text(), encoding="utf-8")
    return path


def test_dense_corpus_shape():
    lines = dense_corpus_text().splitlines()[1:]
    tiles = [line.split(",", 1)[0] for line in lines]
    experts = [line.split(",")[1] for line in lines]
    assert len(set(tiles)) == DENSE_TILES
    e2_tiles = list(dict.fromkeys(t for t, e in zip(tiles, experts) if e == "e2"))
    assert e2_tiles == sorted(e2_tiles, reverse=True)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("flags", list(FLAG_SETS))
def test_corpus_case_matches_manifest(golden, dense_path, tmp_path, corpus, flags):
    path = DEMO if corpus == "demo" else dense_path
    digest, matrix = run_corpus_case(path, corpus, flags, tmp_path)
    expected = golden["corpus"][f"{corpus}/{flags}"]
    assert digest == expected["sha256"]
    assert len(matrix) == len(expected["matrix"])
    for row, want in zip(matrix, expected["matrix"]):
        assert row == pytest.approx(want, rel=MATRIX_REL, abs=0.0)


def test_object_path_matches_manifest(golden):
    assert object_digests() == golden["objects"]


ROOT_NAMES = [
    "Criterion", "ExpertDeclaration", "Model", "__version__",
    "build_m1", "build_m2", "build_m3", "build_m4", "build_m5",
    "combine_conjunctive", "combine_pcr5", "criteria_table", "decide",
    "redistribute_conjunctions",
]


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_script_env(ROOT / "tests"))


def test_object_path_matches_manifest_without_numpy(golden):
    done = _python(
        "import json, sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "import expertfuse\n"
        "print(json.dumps(sorted(expertfuse.__all__)))\n"
        "from golden_objects import digests\n"
        "print(json.dumps(digests()))\n"
    )
    assert done.returncode == 0, done.stderr
    names, digests = map(json.loads, done.stdout.splitlines())
    assert names == ROOT_NAMES
    assert digests == golden["objects"]


def test_package_root_does_not_import_numpy():
    done = _python("import sys\nimport expertfuse\nprint('numpy' in sys.modules)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("case", list(FUSE_DECIDE_CASES))
def test_fuse_decide_case_matches_manifest(golden, tmp_path, case):
    assert fuse_decide_digest(case, tmp_path) == golden["fuse_decide"][case]


@pytest.mark.parametrize("case", list(SIMULATE_CASES))
def test_simulate_case_matches_manifest(golden, tmp_path, case):
    assert simulate_digest(case, tmp_path) == golden["simulate"][case]


def test_worked_examples_stdout_matches_manifest(golden):
    assert worked_examples_digest() == golden["worked_examples_sha256"]


def test_run_stability_writes_what_simulate_writes(tmp_path):
    seed, samples, bins = "11", "2000", "13"
    stem = tmp_path / "script"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_stability.py"),
                    "--classes", "2", "3", "--samples", samples, "--bins", bins,
                    "--seed", seed, "--stem", str(stem)],
                   capture_output=True, check=True, env=_script_env())
    table = tmp_path / "table.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--classes", "2,3", "--samples", samples, "--seed", seed,
                     "--out", str(table)]) == 0
    assert stem.with_suffix(".csv").read_bytes() == table.read_bytes()
    for n in ("2", "3"):
        hist = tmp_path / f"hist_{n}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--classes", n, "--samples", samples, "--seed", seed,
                         "--bins", bins, "--histogram", str(hist)]) == 0
        assert (tmp_path / f"script_hist_{n}.csv").read_bytes() == hist.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--bins", "0"], "error: need at least one bin\n"),
    (["--classes", "27"], "error: --classes: at most 26 classes are supported, got 27\n"),
    (["--classes", "2", "3", "2"], "error: --classes: class count 2 given twice\n"),
], ids=["bins-0", "classes-27", "classes-2-twice"])
def test_run_stability_reports_a_bad_value_in_one_line(tmp_path, flags, message):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_stability.py"), *flags,
                           "--samples", "100", "--stem", str(tmp_path / "script")],
                          capture_output=True, text=True, env=_script_env())
    assert done.returncode == 1
    assert done.stderr == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--classes", "7", "27"], "at most 26 classes are supported, got 27"),
    (["--law", "product", "--classes", "12", "13"],
     "the product law supports at most 12 classes, got 13"),
], ids=["classes-7-27", "product-12-13"])
def test_run_stability_checks_every_class_count_before_drawing(tmp_path, monkeypatch, capsys,
                                                               flags, message):
    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(stability, "_sample_pairs", no_draw)
    monkeypatch.setattr(sys, "argv", ["run_stability.py", *flags, "--samples", "200000",
                                      "--stem", str(tmp_path / "s")])
    script = runpy.run_path(str(ROOT / "scripts" / "run_stability.py"))
    assert script["main"]() == 1
    assert capsys.readouterr() == ("", f"error: --classes: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_run_stability_refuses_a_negative_seed(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_stability.py"),
                           "--seed", "-1", "--samples", "100", "--stem", str(tmp_path / "s")],
                          capture_output=True, text=True, env=_script_env())
    assert done.returncode == 1
    assert done.stderr == "error: seed must be a non-negative integer, got -1\n"
    assert list(tmp_path.iterdir()) == []


def _make_demo_corpus(*flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_corpus.py"), *flags],
                          capture_output=True, text=True, env=_script_env())


def test_make_demo_corpus_reproduces_the_shipped_file(tmp_path):
    out = tmp_path / "demo.csv"
    done = _make_demo_corpus("--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == DEMO.read_bytes()


@pytest.mark.parametrize("tiles", ["0", "-3"])
def test_make_demo_corpus_refuses_fewer_than_one_tile(tmp_path, tiles):
    done = _make_demo_corpus("--tiles", tiles, "--out", str(tmp_path / "demo.csv"))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: --tiles must be a positive integer, got {tiles}\n"
    assert list(tmp_path.iterdir()) == []


def test_make_demo_corpus_refuses_a_negative_seed(tmp_path):
    done = _make_demo_corpus("--seed", "-1", "--out", str(tmp_path / "demo.csv"))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: --seed must be a non-negative integer, got -1\n"
    assert list(tmp_path.iterdir()) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        manifest = compute(Path(scratch))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
