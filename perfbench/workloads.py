"""The three expertfuse workloads: inputs, timed passes and output checks.

Every input is generated from the workload seed by this file's own numpy
code; the package sees only the generated inputs.  ``stability`` and
``corpus`` drive ``expertfuse.cli.main`` in process, as a user's command
line would; ``objects`` mirrors ``expertfuse fuse --decide`` on small JSON
masses without argparse.  A pass is a fixed amount of work, so a traced
pass repeats its counts exactly; ``run.py`` repeats passes for the run's
duration.

Package functions are looked up through their modules at call time, so a
tracer installed on those modules sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from expertfuse import cli, decision, fusion, lattice, mass

# The acceptance gate's paper targets and tolerance for the uniform law.
RATE_TARGETS = {2: 0.006, 3: 0.055, 4: 0.091, 5: 0.121, 6: 0.146, 7: 0.164}
RATE_TOLERANCE = 0.010

SUM_TOLERANCE = 1e-9
PCR_AGREEMENT = 1e-12


class Checks:
    """Output checks of one run; ``failed / attempted`` is the fail ratio."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for one input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def uniform_law_rows(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Rows uniform on {x >= 0, sum(x) <= 1}: n of n+1 normalized exponentials."""
    e = rng.exponential(size=(rows, n + 1))
    return (e / e.sum(axis=1, keepdims=True))[:, :n]


# ---------------------------------------------------------------------------


class Stability:
    """``simulate`` rate table for 2..7 classes, then one histogram call.

    A pass is one table at the CLI's default 10⁴ pairs per class count plus
    ``simulate --histogram`` at seven classes; the request is the pass.
    """

    name = "stability"
    TABLE_SAMPLES = 10_000
    HIST_CLASSES = 7
    HIST_SAMPLES = 500
    units_per_pass = TABLE_SAMPLES * len(RATE_TARGETS)

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.seed = str(derived_seed(seed, 1))
        self.workdir = workdir
        self.first: tuple | None = None

    def setup(self) -> None:
        wd = self.workdir
        self.rates = wd / "rates.csv"
        self.hist = wd / "hist.csv"
        self.table_argv = ["simulate", "--classes", "2..7", "--samples", str(self.TABLE_SAMPLES),
                           "--seed", self.seed, "--out", str(self.rates)]
        self.hist_argv = ["simulate", "--classes", str(self.HIST_CLASSES),
                          "--samples", str(self.HIST_SAMPLES), "--seed", self.seed,
                          "--histogram", str(self.hist)]
        call_cli(["simulate", "--classes", "2..7", "--samples", "50", "--seed", self.seed,
                  "--out", str(wd / "warm.csv")])
        call_cli(["simulate", "--classes", "3", "--samples", "50", "--seed", self.seed,
                  "--histogram", str(wd / "warm_hist.csv")])

    def run_pass(self, checks: Checks) -> list[float]:
        start = perf_counter()
        table_code, table_out = call_cli(self.table_argv)
        hist_code, hist_out = call_cli(self.hist_argv)
        latency = perf_counter() - start
        checks.expect(table_code == 0 and hist_code == 0, "simulate exited non-zero")
        if table_code or hist_code:
            return [latency]
        snapshot = (table_out, self.rates.read_bytes(), hist_out, self.hist.read_bytes())
        if self.first is None:
            self.first = snapshot
        checks.expect(snapshot == self.first, "repeated pass printed a different table")
        with open(self.rates, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        checks.expect(sorted(int(r["n"]) for r in rows) == sorted(RATE_TARGETS),
                      "rate table has the wrong class counts")
        for row in rows:
            n, rate, ci = int(row["n"]), float(row["change_rate"]), float(row["ci"])
            target = RATE_TARGETS.get(n, math.nan)
            checks.expect(abs(rate - target) <= RATE_TOLERANCE + ci,
                          f"n={n}: rate {rate} outside {target} ± ({RATE_TOLERANCE} + {ci})")
        with open(self.hist, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        for column in ("freq_all", "freq_change"):
            total = math.fsum(float(r[column]) for r in rows)
            checks.expect(abs(total - 1.0) <= SUM_TOLERANCE, f"{column} sums to {total}")
        return [latency]

    def finish(self, checks: Checks) -> None:
        pass


# ---------------------------------------------------------------------------

CORPUS_HEADER = "tile_id,expert_id,class,certainty_level,proportion"
SEDIMENT_LABELS = ("rock", "cobble", "sand", "silt", "ripple", "shadow", "other")
DEFAULT_WEIGHTS = (2.0 / 3.0, 1.0 / 2.0, 1.0 / 3.0)


def dense_corpus_text(seed: int, tiles: int) -> str:
    """Two experts, seven classes, several entries per annotation.

    Each annotation's proportions are a uniform-law row floored to 4
    decimals (so rows sum to at most 1 and round-trip exactly), each part
    at a random certainty level.
    """
    rng = np.random.default_rng(seed)
    proportions = np.floor(uniform_law_rows(rng, 2 * tiles, 7) * 1e4) / 1e4
    levels = rng.integers(1, 4, size=proportions.shape)
    lines = [CORPUS_HEADER]
    for t in range(tiles):
        for e, expert in enumerate(("e1", "e2")):
            row = 2 * t + e
            parts = [f"t{t:05d},{expert},{SEDIMENT_LABELS[k]},{levels[row, k]},{p:.4f}"
                     for k, p in enumerate(proportions[row]) if p > 0.0]
            lines.extend(parts or [f"t{t:05d},{expert},{SEDIMENT_LABELS[0]},1,0.0000"])
    return "\n".join(lines) + "\n"


def reference_corpus(path: Path, tie_tolerance: float) -> dict:
    """Conflict matrix and conjunctive-vs-PCR6 flips, straight from the CSV.

    Masses follow the generalized proportion-times-certainty model with
    the default weights; both rules reduce to closed forms on singleton+Θ
    masses.  ``near_ties`` counts tiles whose top-two pignistic gap under
    either rule is below the tie tolerance, where a mismatch is allowed.
    """
    index = {label: k for k, label in enumerate(SEDIMENT_LABELS)}
    masses: dict[str, dict[str, np.ndarray]] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for tile, expert, label, level, proportion in reader:
            row = masses.setdefault(expert, {}).setdefault(tile, np.zeros(7))
            row[index[label]] += float(proportion) * DEFAULT_WEIGHTS[int(level) - 1]
    first, second = masses
    tiles = list(masses[first])
    a = np.array([masses[first][t] for t in tiles])
    b = np.array([masses[second][t] for t in tiles])
    n = a.shape[1]
    ta = 1.0 - a.sum(axis=1)
    tb = 1.0 - b.sum(axis=1)

    outer = a[:, :, None] * b[:, None, :]
    off = ~np.eye(n, dtype=bool)
    matrix = np.where(off, outer.sum(axis=0), 0.0) * 1e4 / len(tiles)

    conj = a * b + a * tb[:, None] + ta[:, None] * b
    conflict = np.where(off, outer, 0.0).sum(axis=(1, 2))
    theta_share = (ta * tb / n)[:, None]
    bet_conj = (conj + theta_share) / (1.0 - conflict)[:, None]
    denom = a[:, :, None] + b[:, None, :]
    share = np.where(off & (denom > 0), outer / np.where(denom > 0, denom, 1.0), 0.0)
    pcr = conj + a * share.sum(axis=2) + b * share.sum(axis=1)
    bet_pcr = pcr + theta_share

    def decide(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        top = values.max(axis=1, keepdims=True)
        chosen = (top - values <= tie_tolerance).argmax(axis=1)
        ordered = np.sort(values, axis=1)
        return chosen, ordered[:, -1] - ordered[:, -2] < tie_tolerance

    chosen_conj, tie_conj = decide(bet_conj)
    chosen_pcr, tie_pcr = decide(bet_pcr)
    return {
        "matrix": matrix,
        "differing": int((chosen_conj != chosen_pcr).sum()),
        "near_ties": int((tie_conj | tie_pcr).sum()),
    }


class Corpus:
    """``corpus`` on the shipped demo corpus, then on a dense generated one.

    The request is one pass over both corpora.
    """

    name = "corpus"
    DENSE_TILES = 4000

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.demo = root / "data" / "demo_corpus.csv"
        self.corpus_seed = derived_seed(seed, 2)
        self.workdir = workdir
        self.first: tuple | None = None
        self.differing: dict[str, int] = {}

    def setup(self) -> None:
        wd = self.workdir
        with open(self.demo, encoding="utf-8", newline="") as handle:
            demo_tiles = {row[0] for row in itertools.islice(csv.reader(handle), 1, None)}
        self.units_per_pass = len(demo_tiles) + self.DENSE_TILES
        self.dense = wd / "dense_corpus.csv"
        self.dense.write_text(dense_corpus_text(self.corpus_seed, self.DENSE_TILES),
                              encoding="utf-8")
        self.runs = {}
        for key, path in (("demo", self.demo), ("dense", self.dense)):
            matrix, diff = wd / f"{key}_matrix.csv", wd / f"{key}_diff.json"
            argv = ["corpus", str(path), "--matrix", str(matrix), "--diff", str(diff)]
            self.runs[key] = (argv, matrix, diff)
        warm = wd / "warm_corpus.csv"
        warm.write_text(dense_corpus_text(self.corpus_seed, 50), encoding="utf-8")
        call_cli(["corpus", str(warm), "--matrix", str(wd / "warm_matrix.csv"),
                  "--diff", str(wd / "warm_diff.json")])

    def run_pass(self, checks: Checks) -> list[float]:
        start = perf_counter()
        results = {key: call_cli(argv) for key, (argv, _, _) in self.runs.items()}
        latency = perf_counter() - start
        codes = [code for code, _ in results.values()]
        checks.expect(not any(codes), "corpus exited non-zero")
        if any(codes):
            return [latency]
        snapshot = []
        for key, (_, out) in results.items():
            _, matrix, diff = self.runs[key]
            snapshot.append((out, matrix.read_bytes(), diff.read_bytes()))
            self.differing[key] = json.loads(diff.read_text(encoding="utf-8"))["differing"]
        if self.first is None:
            self.first = tuple(snapshot)
        checks.expect(tuple(snapshot) == self.first, "repeated pass gave different output")
        checks.expect(self.differing["demo"] == 0, "demo corpus flips a decision")
        return [latency]

    def finish(self, checks: Checks) -> None:
        checks.expect(self.first is not None, "no corpus pass succeeded")
        if self.first is None:
            return
        tie_tolerance = getattr(decision, "TIE_TOLERANCE", 1e-12)
        for key, path in (("demo", self.demo), ("dense", self.dense)):
            _, matrix_path, _ = self.runs[key]
            ref = reference_corpus(path, tie_tolerance)
            with open(matrix_path, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            got = np.array([[float(v) for v in row[1:]] for row in rows])
            checks.expect(got.shape == ref["matrix"].shape
                          and np.allclose(got, ref["matrix"], rtol=1e-9, atol=1e-9),
                          f"{key} conflict matrix differs from the reference")
            gap = abs(self.differing[key] - ref["differing"])
            checks.expect(gap <= ref["near_ties"],
                          f"{key}: {self.differing[key]} flips, reference {ref['differing']} "
                          f"with {ref['near_ties']} near-ties")


# ---------------------------------------------------------------------------

LETTERS = "ABCDEFG"
THETA, MEET, JOIN = "Θ", "∩", "∪"
MAX_PCR6_TUPLES = 7776  # 5 experts × 6 focal elements; far below any cost limit
MIX_SEED = 806_1798  # fixes the request mix; the workload seed fixes order and content
WARM_SEED = 1  # fixes the warm-up requests, so set-up costs the same for every seed


@functools.lru_cache(maxsize=None)
def _free_pool(labels: str) -> tuple[str, ...]:
    """Distinct elements of a free frame: atoms, meets, joins, Θ."""
    pool = list(labels)
    pool += [a + MEET + b for a, b in itertools.combinations(labels, 2)]
    pool += [MEET.join(t) for t in itertools.combinations(labels, 3)]
    pool += [a + JOIN + b for a, b in itertools.combinations(labels, 2)]
    pool += [a + MEET + b + JOIN + c for a, b in itertools.combinations(labels, 2)
             for c in labels if c not in (a, b)]
    return (*pool, THETA)


@functools.lru_cache(maxsize=None)
def _shafer_pool(labels: str) -> tuple[str, ...]:
    """Every non-empty subset of an exclusive frame; the full one is Θ."""
    pool = []
    for mask in range(1, 1 << len(labels)):
        members = [labels[i] for i in range(len(labels)) if mask >> i & 1]
        pool.append(THETA if len(members) == len(labels) else JOIN.join(members))
    return tuple(pool)


def _request_shape(rng: np.random.Generator) -> tuple[bool, int, str, list[int]]:
    """(free frame?, class count, rule, focal count per expert) of one request.

    No caller in the repository fixes a request mix, so the weights are
    assumed.  Exclusive frames get 70 %: they are the default model and
    the paper's main one; free frames, the M5 variant, stay below five
    classes.  Conjunctive and PCR5, the rules of the paper's two-expert
    setting, get 30 % each.  PCR6, the only rule for more than two
    experts, gets 40 %, and within it the share falls with the expert
    count: two experts is the paper's setting, three the most that
    tests/test_fusion.py combines, and five or six experts exist to form
    the tail.
    """
    free = bool(rng.random() < 0.3)
    n = int(rng.integers(2, 5 if free else 8))
    pool_size = len(_free_pool(LETTERS[:n]) if free else _shafer_pool(LETTERS[:n]))
    rule = str(rng.choice(("conjunctive", "pcr5", "pcr6"), p=(0.3, 0.3, 0.4)))
    experts = 2
    if rule == "pcr6":
        experts = int(rng.choice((2, 3, 4, 5, 6), p=(0.35, 0.3, 0.15, 0.12, 0.08)))
    sizes = [int(rng.integers(1, min(8, pool_size) + 1)) for _ in range(experts)]
    while math.prod(sizes) > MAX_PCR6_TUPLES:
        sizes[sizes.index(max(sizes))] -= 1
    return free, n, rule, sizes


def objects_requests(seed: int, count: int) -> list[tuple[str, list[str]]]:
    """(rule, mass JSON texts) requests in the mix the objects workload serves.

    Frames are exclusive with 2–7 classes or free with 2–4; masses have 1–8
    focal elements.  Conjunctive and PCR5 requests have two experts, PCR6
    requests 2–6, with the product of focal counts capped so the heaviest
    request stays at 5 experts × 6 focal elements.  Conjunctive inputs
    always keep some mass on Θ, so no request ends in total conflict.

    The multiset of request shapes is the same for every seed, so the share
    of heavy PCR6 requests behind p99 does not move with it; the seed picks
    their order, the focal elements and the masses.
    """
    mix = np.random.default_rng(MIX_SEED)
    shapes = [_request_shape(mix) for _ in range(count)]
    rng = np.random.default_rng(seed)
    requests = []
    for index in rng.permutation(count):
        free, n, rule, sizes = shapes[index]
        labels = LETTERS[:n]
        pool = _free_pool(labels) if free else _shafer_pool(labels)
        texts = []
        for size in sizes:
            chosen = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
            if rule == "conjunctive" and THETA not in chosen:
                chosen[-1] = THETA
            weights = rng.dirichlet(np.ones(size))
            texts.append(json.dumps({
                "frame": list(labels),
                "model": "free" if free else "shafer",
                "world": "closed",
                "masses": {el: float(w) for el, w in zip(chosen, weights)},
            }, ensure_ascii=False))
        requests.append((rule, texts))
    return requests


def criteria_rows(m) -> list:
    """Rows of the ``fuse`` criteria table: atoms, focal elements, and the
    one-step meets and joins of focal pairs; ∅ leads when it carries mass."""
    frame = m.frame
    masks = {a.mask for a in frame.atoms()}
    focal = [x for x, _ in m.pairs if x]
    masks.update(focal)
    for i, x in enumerate(focal):
        for y in focal[i + 1:]:
            if x & y:
                masks.add(x & y)
            masks.add(x | y)
    rows = [lattice.FocalElement(frame, mask) for mask in sorted(masks)]
    if m.value_of_mask(0) > 0.0:
        rows.insert(0, frame.empty())
    return rows


def serve(rule: str, texts: list[str]):
    """One ``fuse --decide`` request: parse, combine, project, decide, tabulate."""
    masses = [mass.MassFunction.from_json(text) for text in texts]
    fused = fusion.combine(masses, rule)
    if rule in ("pcr5", "pcr6") and fused.frame.model is lattice.Model.FREE:
        fused = fusion.redistribute_conjunctions(fused)
    report = decision.decide(fused, decision.Criterion.PIGNISTIC, fused.frame.atoms())
    table = []
    for el in criteria_rows(fused):
        row = (str(el), fused.value(el))
        if not el.is_empty:
            row += (decision.credibility(fused, el), decision.plausibility(fused, el),
                    decision.pignistic(fused, el))
        table.append(row)
    return fused, report, table


class Objects:
    """Closed loop with one caller over seed-generated fusion requests.

    A pass serves every generated request once, in order.
    """

    name = "objects"
    REQUESTS = 2000
    units_per_pass = REQUESTS

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.request_seed = derived_seed(seed, 3)

    def setup(self) -> None:
        self.requests = objects_requests(self.request_seed, self.REQUESTS)
        for rule, texts in objects_requests(WARM_SEED, 100):
            with contextlib.suppress(ValueError):  # counted when the timed pass meets it
                serve(rule, texts)

    def run_pass(self, checks: Checks) -> list[float]:
        latencies = []
        for rule, texts in self.requests:
            start = perf_counter()
            try:
                fused, report, _ = serve(rule, texts)
            except ValueError as exc:
                checks.expect(False, f"{rule}: {exc}")
                continue
            finally:
                latencies.append(perf_counter() - start)
            values = [v for _, v in fused.pairs]
            checks.expect(min(values) >= 0.0 and abs(math.fsum(values) - 1.0) <= SUM_TOLERANCE,
                          f"{rule}: fused mass is not a distribution")
            atoms = {a.mask for a in fused.frame.atoms()}
            checks.expect(report.chosen.mask in atoms, f"{rule}: decision is not an atom")
        return latencies

    def finish(self, checks: Checks) -> None:
        for rule, texts in self.requests:
            if len(texts) != 2:
                continue
            try:
                masses = [mass.MassFunction.from_json(text) for text in texts]
                agree = fusion.combine_pcr5(*masses).isclose(fusion.combine_pcr6(masses),
                                                             PCR_AGREEMENT)
            except ValueError:
                agree = False
            checks.expect(agree, "two-expert PCR6 differs from PCR5")


WORKLOADS = {w.name: w for w in (Stability, Corpus, Objects)}
