"""Monte Carlo study of when conflict redistribution flips the decision.

Pairs of random experts are drawn, combined once by the conjunctive rule
and once by pairwise proportional redistribution, and decided by maximum
pignistic probability over the singletons.  The module measures how often
the two decisions differ, how conflict is distributed, and whether the
known algebraic invariances hold.

Two sampling laws are available.  Under ``"uniform"`` the singleton masses
are uniform on the constrained mass space E = {m ≥ 0, Σ m(X) ≤ 1}.  They
are drawn exactly as the first n parts of a flat Dirichlet on n + 1 parts:
n + 1 standard exponentials divided by their sum, the last part being the
mass left on Θ.  This law is the default for the drivers because it
reproduces the published decision-change rates.  Under ``"product"`` each
mass is a product of a uniform proportion and a uniform certainty, kept
when the masses sum to at most 1; it concentrates mass lower and yields
clearly smaller change rates from three classes on.  Its kept share
collapses with the class count, so it stops at 12 classes.

A seed and a class count name one stream, and `decision_change_rate`
alone draws it, from a `SeedSequence` with entropy `seed` and spawn key
``(n,)``.  It draws, decides and drops one kernel pass of 2·`_KERNEL_BLOCK`
rows at a time, and its result keeps only each pair's conflict and flip,
9 bytes a pair, for `StabilityResult.histogram`; the rows are those of a
single whole draw.  `conflict_density` is that histogram, so it needs at
least one pair, and it checks its bin count and subset before drawing.
`invariance_check` draws from ``default_rng(seed)``, in blocks too, and
keeps only its counterexamples.  Every entry point refuses a seed that is
not a non-negative integer, a sample or bin count that is not an integer,
and, before any draw, more than `MAX_SAMPLES` pairs or `MAX_BINS` bins;
all is deterministic given the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .decision import TIE_TOLERANCE
from .mass import _check_fraction, _check_integer

SAMPLING_LAWS = ("uniform", "product")

_DEFAULT_CHUNK = 1 << 16

# Pairs per pass of the pair kernels, and per block the study draws.  It
# bounds the size of each pass's temporaries; on a 2-core VM the 2..7
# table at 10⁴ pairs took 24.4, 21.2, 20.0 and 23.3 ms at 2¹⁰..2¹³.
_KERNEL_BLOCK = 1 << 12

# Most classes a simulated expert may have: one per letter A..Z.
MAX_CLASSES = 26

# Most pairs one call may draw, and most bins a histogram may have; both
# bound memory.  A result keeps 9 bytes a pair and a table one result per
# class count: `simulate --classes 2..26` peaked at 909 MB RSS at
# `MAX_SAMPLES` (127 MB at 4·10⁵ pairs).  A histogram keeps its edges and
# frequencies as Python floats: with --histogram, 25 class counts at
# `MAX_BINS` peaked at 421 MB.
MAX_SAMPLES = 4_000_000
MAX_BINS = 100_000

# Most classes the product law may have.  Its kept share falls ~3× per
# class (0.7 % of draws at 10 classes, 0.08 % at 12, 0.007 % at 14): on a
# 2-core VM 2 000 kept rows took 0.6 s at 12 classes and 1.9 s at 13, and
# at 26 classes one row did not arrive within 120 s.
PRODUCT_LAW_MAX_CLASSES = 12

# Largest Θ part of a uniform-law row whose singleton parts may still sum
# past 1 after rounding.  With unit roundoff u = 2⁻⁵³, the row total has a
# relative error of at most ~n·u, each quotient at most u and the sum of
# the first n quotients at most ~n·u, so the computed singleton sum is at
# most about 1 + 2n·u − Θ and cannot pass 1 once Θ > ~2n·u: 5.8e-15 at
# n = 26.  This cut-off leaves a ~170× margin above that.
_ROUNDING_THETA = 1e-12


def check_class_counts(class_counts: Sequence[int], law: str = "uniform") -> None:
    """Refuse an unknown law and any count the Monte Carlo entry points cannot draw.

    A count must lie in 2..`MAX_CLASSES`, or 2..`PRODUCT_LAW_MAX_CLASSES`
    under the product law, and appear once, since it names one stream.
    A count must be an int or a numpy integer, not a bool.
    """
    if law not in SAMPLING_LAWS:
        raise ValueError(f"unknown sampling law {law!r}; expected one of {SAMPLING_LAWS}")
    for k, n in enumerate(class_counts):
        _check_integer("class count", n)
        if n < 2:
            raise ValueError(f"need at least two classes, got {n}")
        if n > MAX_CLASSES:
            raise ValueError(f"at most {MAX_CLASSES} classes are supported, got {n}")
        if law == "product" and n > PRODUCT_LAW_MAX_CLASSES:
            raise ValueError(
                f"the product law supports at most {PRODUCT_LAW_MAX_CLASSES} classes, got {n}"
            )
        if n in class_counts[:k]:
            raise ValueError(f"class count {n} given twice")


def _check_sample_count(n_samples: int) -> None:
    """Refuse a sample count that is not an integer or is above `MAX_SAMPLES`."""
    _check_integer("sample count", n_samples)
    if n_samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples are supported, got {n_samples}")


def _stream(seed: int, *spawn_key: int) -> np.random.Generator:
    """The generator of `seed` and `spawn_key`; `seed` must be a non-negative integer."""
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def _accepted_masses(
    n: int, count: int, rng: np.random.Generator, law: str
) -> tuple[np.ndarray, int]:
    """`count` singleton-mass rows drawn from the law, plus rows drawn.

    Under the uniform law every drawn row is kept: n + 1 standard
    exponentials normalized in place by their sum are a flat Dirichlet,
    whose first n parts are uniform on E (Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. V).  Rounding can lift the singleton sum
    of a row whose Θ part is ~1e-16 just past 1; only rows whose Θ part is
    at most `_ROUNDING_THETA` are checked, and those past 1 are stepped
    toward 0 one ulp at a time until they sum to at most 1.  Under the
    product law the rows are the one block of `_kept_rows` with
    `_product_rows`.
    """
    if law == "uniform":
        e = rng.standard_exponential((count, n + 1))
        e /= e.sum(axis=1, keepdims=True)
        rows = e[:, :n]
        near_one = np.flatnonzero(e[:, n] <= _ROUNDING_THETA)
        if len(near_one):
            suspect = rows[near_one]
            over = suspect.sum(axis=1) > 1.0
            while over.any():
                suspect[over] = np.nextafter(suspect[over], 0.0)
                over = suspect.sum(axis=1) > 1.0
            rows[near_one] = suspect
        return rows, count
    return next(_kept_rows(rng, 2 * n, count, _product_rows, count))


def _product_rows(u: np.ndarray) -> np.ndarray:
    """The product-law rows of uniform candidates that sum to at most 1.

    A candidate row is n proportions, then n certainties; its masses are
    their products.
    """
    n = u.shape[1] // 2
    cand = u[:, :n] * u[:, n:]
    return cand[cand.sum(axis=1) <= 1.0]


def _kept_rows(
    rng: np.random.Generator,
    width: int,
    count: int,
    keep: Callable[[np.ndarray], np.ndarray],
    block: int,
) -> Iterator[tuple[np.ndarray, int]]:
    """The first `count` rows `keep` returns from uniform chunks, in blocks.

    Each block holds `block` rows, the last one the rest, so a `count` of
    0 gives one empty block; each comes with the rows drawn so far.
    Chunks of `_DEFAULT_CHUNK` rows of `width` uniforms are drawn, in
    stream order, only when a block needs more kept rows, and the rows a
    chunk leaves over open the next block.  So neither the rows nor the
    draws depend on `block`.
    """
    held = keep(np.empty((0, width)))  # fixes the kept width when nothing is drawn
    drawn = 0
    while True:
        size = min(block, count)
        parts = [held]
        got = len(held)
        while got < size:
            parts.append(keep(rng.random((_DEFAULT_CHUNK, width))))
            drawn += _DEFAULT_CHUNK
            got += len(parts[-1])
        if len(parts) > 1:
            held = np.concatenate(parts)
        yield held[:size], drawn
        held, count = held[size:], count - size
        if count == 0:
            return


def _mass_blocks(
    n: int, count: int, rng: np.random.Generator, law: str
) -> Iterator[tuple[np.ndarray, int]]:
    """The rows of ``_accepted_masses(n, count, rng, law)``, one kernel pass at a time.

    A block holds at most 2·`_KERNEL_BLOCK` rows, the pairs of one pass,
    and comes with the rows drawn so far.  numpy fills a chunked draw from
    one stream as it fills a whole one, so the blocks hold the rows of
    one call and the last count is its count.
    """
    step = 2 * _KERNEL_BLOCK
    if law == "product":
        yield from _kept_rows(rng, 2 * n, count, _product_rows, step)
        return
    for start in range(0, count, step):
        rows, drawn = _accepted_masses(n, min(step, count - start), rng, law)
        yield rows, start + drawn


def _conjunctive_parts(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conjunctive rule on singleton+Θ masses.

    The kernels are class-major: ``a[k]`` holds the first expert's mass
    on class k for every pair, so each step runs over contiguous memory.
    Θ takes each pair's remainder.  Returns the combined singleton masses
    (class-major), the combined Θ mass and the conflict, per pair.
    """
    sa = a.sum(axis=0)
    sb = b.sum(axis=0)
    ta = 1.0 - sa
    tb = 1.0 - sb
    s = a * b
    conflict = np.maximum(sa * sb - s.sum(axis=0), 0.0)
    s += a * tb
    s += ta * b
    return s, ta * tb, conflict


def _pcr5_parts(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized pairwise proportional redistribution on singleton+Θ masses.

    Class-major like `_conjunctive_parts`, whose singleton masses `s` are
    the starting point: each conflicting product a_i·b_j (i ≠ j) returns
    to classes i and j in proportion to a_i and b_j.  The Θ mass is the
    conjunctive one.

    A zero denominator a_i + b_j, where the product is 0 too, divides by
    1 instead.  Class i skips that guard when every a_i is positive and
    every b_j is non-negative, since no denominator can then be 0; a NaN
    fails both tests and keeps the guard.
    """
    p = s.copy()
    n = len(a)
    # initial= keeps an empty block from raising
    safe = (a.min(axis=1, initial=1.0) > 0.0) & (b.min(initial=0.0) >= 0.0)
    for i in range(n):
        ai = a[i]
        for j in range(n):
            if i == j:
                continue
            bj = b[j]
            denom = ai + bj
            if not safe[i]:
                denom = np.where(denom > 0.0, denom, 1.0)
            shared = ai * bj / denom
            p[i] += ai * shared
            p[j] += bj * shared
    return p


def _pignistic_choice(values: np.ndarray) -> np.ndarray:
    """Per pair, the lowest class index within the tie tolerance of the maximum.

    `values` is class-major and is overwritten; this is the choice
    `decision.decide` makes among the singletons.  Classes are assigned
    from the last down to the first, each over the pairs it is within the
    tolerance for, so the lowest such class is written last; a pair with
    no class within it (a NaN column) keeps class 0.
    """
    gap = np.subtract(values.max(axis=0), values, out=values)
    near_top = gap <= TIE_TOLERANCE
    choice = np.zeros(values.shape[1], dtype=np.intp)
    for k in range(len(near_top) - 1, -1, -1):
        choice[near_top[k]] = k
    return choice


def _decide_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`pair_decisions` on class-major masses."""
    s, theta, conflict = _conjunctive_parts(a, b)
    p = _pcr5_parts(a, b, s)
    theta_share = theta / len(a)
    kept = s.sum(axis=0) + theta
    if not kept.all():
        raise ValueError("pignistic probability is undefined under total conflict")
    s += theta_share
    s /= kept
    p += theta_share
    return _pignistic_choice(s), _pignistic_choice(p), conflict


def pair_decisions(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row pignistic decision under both rules, plus the conjunctive conflict.

    Rows of `a` and `b` hold two experts' singleton masses, Θ taking the
    remainder.  The conjunctive rule and PCR5, which equals PCR6 for two
    experts, are evaluated in closed form; each singleton's pignistic
    probability is its combined mass plus an n-th of the Θ mass, divided
    by the mass left off ∅.  The decision follows `decision.decide`: the
    lowest class index within the tie tolerance of the maximum.  A row
    whose conjunctive combination puts all mass on ∅ has no pignistic
    decision and raises ValueError.

    Rows go through the kernels in fixed-size blocks, which bounds their
    temporaries whatever the row count; every row's result is the same
    as in one pass.
    """
    choice_conj = np.empty(len(a), dtype=np.intp)
    choice_pcr = np.empty(len(a), dtype=np.intp)
    conflict = np.empty(len(a))
    for start in range(0, len(a), _KERNEL_BLOCK):
        rows = slice(start, start + _KERNEL_BLOCK)
        choice_conj[rows], choice_pcr[rows], conflict[rows] = _decide_pairs(
            np.ascontiguousarray(a[rows].T), np.ascontiguousarray(b[rows].T)
        )
    return choice_conj, choice_pcr, conflict


@dataclass(frozen=True)
class Histogram:
    n_classes: int
    subset: str
    bin_edges: tuple[float, ...]
    frequencies: tuple[float, ...]
    count: int


HISTOGRAM_SUBSETS = ("all", "decision_change")


def check_bin_count(bins: int) -> None:
    """Refuse a bin count that is not an integer in 1..`MAX_BINS`."""
    _check_integer("bin count", bins)
    if bins < 1:
        raise ValueError("need at least one bin")
    if bins > MAX_BINS:
        raise ValueError(f"at most {MAX_BINS} bins are supported, got {bins}")


def _check_histogram_args(bins: int, subset: str) -> None:
    check_bin_count(bins)
    if subset not in HISTOGRAM_SUBSETS:
        raise ValueError(f"unknown subset {subset!r}; expected one of {HISTOGRAM_SUBSETS}")


@dataclass(frozen=True)
class StabilityResult:
    """A class count's decision-change row, plus each pair's conflict and flip.

    `mean_conflict_changed` is None when no pair flips.  `conflict` and
    `change` are read-only and outside ``==``, `hash` and `repr`.
    """

    n_classes: int
    accepted_pairs: int
    candidate_draws: int
    change_rate: float
    ci_halfwidth: float
    mean_conflict: float
    mean_conflict_changed: float | None
    conflict: np.ndarray = field(default=(), repr=False, compare=False)
    change: np.ndarray = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_fraction("change rate", self.change_rate)
        for name, dtype in (("conflict", float), ("change", bool)):
            # a read-only view: the caller's own array stays writable
            view = np.asarray(getattr(self, name), dtype=dtype).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def histogram(self, bins: int = 20, subset: str = "all") -> Histogram:
        """Histogram of the pairs' conjunctive conflict on [0, 1].

        ``"decision_change"`` counts only the flipped pairs.  Frequencies sum
        to 1 over the counted pairs, or are all 0 when none is counted.
        """
        _check_histogram_args(bins, subset)
        conflict = self.conflict[self.change] if subset == "decision_change" else self.conflict
        counts, edges = np.histogram(conflict, bins=bins, range=(0.0, 1.0))
        total = int(counts.sum())
        freqs = counts / total if total else np.zeros(bins)
        return Histogram(
            n_classes=self.n_classes,
            subset=subset,
            bin_edges=tuple(float(e) for e in edges),
            frequencies=tuple(float(f) for f in freqs),
            count=total,
        )


def decision_change_rate(
    n: int,
    n_samples: int,
    seed: int,
    law: str = "uniform",
) -> StabilityResult:
    """Fraction of sampled expert pairs whose decision flips between rules.

    `n_samples` counts accepted pairs, so every class count runs at equal
    statistical power.  The half-width is the 95% normal approximation.
    The pairs are the stream of (`seed`, `n`), drawn and decided one
    kernel pass at a time; only each pair's conflict and flip are kept.
    """
    check_class_counts([n], law)
    _check_sample_count(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one accepted pair")
    conflict = np.empty(n_samples)
    change = np.empty(n_samples, dtype=bool)
    done = 0
    for rows, drawn in _mass_blocks(n, 2 * n_samples, _stream(seed, n), law):
        pairs = slice(done, done + len(rows) // 2)
        choice_conj, choice_pcr, conflict[pairs] = pair_decisions(rows[0::2], rows[1::2])
        change[pairs] = choice_conj != choice_pcr
        done = pairs.stop
    rate = float(change.mean())
    changed = conflict[change]
    return StabilityResult(
        n_classes=n,
        accepted_pairs=n_samples,
        candidate_draws=drawn,
        change_rate=rate,
        ci_halfwidth=1.96 * math.sqrt(rate * (1.0 - rate) / n_samples),
        mean_conflict=float(conflict.mean()),
        mean_conflict_changed=float(changed.mean()) if len(changed) else None,
        conflict=conflict,
        change=change,
    )


def conflict_density(
    n: int,
    n_samples: int,
    bins: int = 20,
    subset: str = "all",
    seed: int = 0,
    law: str = "uniform",
) -> Histogram:
    """Histogram of conjunctive conflict over the pairs of (`seed`, `n`) on [0, 1].

    ``decision_change_rate(n, n_samples, seed, law).histogram(bins, subset)``,
    so it needs at least one pair; `bins` and `subset` are checked before
    drawing.
    """
    _check_histogram_args(bins, subset)
    return decision_change_rate(n, n_samples, seed, law).histogram(bins, subset)


class InvarianceCase(NamedTuple):
    """A sampled pair where the two rules disagreed despite the constraint."""

    m1_a: float
    m1_b: float
    m2_a: float
    m2_b: float
    consensus_choice: int
    pcr5_choice: int


INVARIANCE_CONSTRAINTS = ("across", "within")


def invariance_check(
    n_samples: int,
    seed: int,
    constraint: str = "across",
) -> list[InvarianceCase]:
    """Hunt for two-class pairs that flip despite a stabilizing equality.

    ``"across"`` samples pairs constrained by m1(A) = m2(B), ``"within"``
    by m1(A) = m1(B); in both situations the conjunctive and the
    redistributed decisions provably coincide, so the returned list of
    counterexamples is expected to stay empty.  Both rules decide through
    `pair_decisions`, so a pignistic tie goes to the lowest class, as in
    `decision.decide`.
    """
    _check_sample_count(n_samples)
    if n_samples < 0:
        raise ValueError("sample count cannot be negative")
    if constraint not in INVARIANCE_CONSTRAINTS:
        raise ValueError(
            f"unknown constraint {constraint!r}; expected one of {INVARIANCE_CONSTRAINTS}"
        )
    # a draw is (x, y, z): across, m1 = (x, y) and m2 = (z, x); within,
    # m1 = (x, x) and m2 = (y, z); both experts must stay inside E
    first, second = ([0, 1], [2, 0]) if constraint == "across" else ([0, 0], [1, 2])

    def keep(u: np.ndarray) -> np.ndarray:
        return u[(u[:, first].sum(axis=1) <= 1.0) & (u[:, second].sum(axis=1) <= 1.0)]

    cases = []
    for rows, _ in _kept_rows(_stream(seed), 3, n_samples, keep, _KERNEL_BLOCK):
        a, b = rows[:, first], rows[:, second]
        choice_conj, choice_pcr, _ = pair_decisions(a, b)
        cases += [InvarianceCase(*a[k].tolist(), *b[k].tolist(),
                                 int(choice_conj[k]), int(choice_pcr[k]))
                  for k in np.flatnonzero(choice_conj != choice_pcr)]
    return cases


def stability_table(
    class_counts: Iterator[int] | list[int],
    n_samples: int,
    seed: int,
    law: str = "uniform",
) -> list[StabilityResult]:
    """Run the decision-change experiment for several class counts.

    Row n is ``decision_change_rate(n, n_samples, seed, law)``, so it does
    not depend on which other rows were requested.  Every count is checked
    before any row is drawn.
    """
    class_counts = list(class_counts)
    check_class_counts(class_counts, law)
    return [decision_change_rate(n, n_samples, seed, law=law) for n in class_counts]
