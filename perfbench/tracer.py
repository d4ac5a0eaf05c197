"""Span tracer that wraps expertfuse's public functions from outside.

Each target names a public function by module and attribute.  Installing
the tracer replaces that function at its defining module and at every
``expertfuse.*`` module attribute an import bound to the same object, so
calls made through module globals (``corpus.decide``,
``stability.pair_decisions``) are traced as well.  Nothing under ``src/``
changes, and uninstalling restores every original object.

Spans are kept in memory as (name, start, end, parent) rows.  A span's
self time is its duration minus what its direct children cover; calls are
single-threaded, so children of one span are disjoint and their durations
add up to that coverage.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# (module, attribute) of every wrapped function.  Only public names: private
# kernels and samplers are never wrapped, so they may change freely.
TARGETS = (
    ("cli", "main"),
    ("stability", "decision_change_rate"),
    ("stability", "pair_decisions"),
    ("stability", "conflict_density"),
    ("corpus", "load_annotations"),
    ("corpus", "conflict_matrix"),
    ("corpus", "decision_difference"),
    ("corpus", "tile_mass"),
    ("expert_models", "build_generalized_m5"),
    ("fusion", "combine_conjunctive"),
    ("fusion", "combine_pcr5"),
    ("fusion", "combine_pcr6"),
    ("fusion", "redistribute_conjunctions"),
    ("decision", "decide"),
    ("mass", "MassFunction.from_json"),
    ("mass", "mass_from_masks"),
    ("lattice", "parse_element"),
)

PACKAGE = "expertfuse"


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr in TARGETS:
            target = f"{module_name}.{attr}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            raw = getattr(holder, "__dict__", {}).get(leaf) if holder is not None else None
            if raw is None:
                self.missing.add(target)
                continue
            if isinstance(raw, classmethod):
                self._patch(holder, leaf, classmethod(self._wrap(target, raw.__func__)))
                continue
            wrapped = self._wrap(target, raw)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    def _patch(self, holder: object, name: str, replacement: object) -> None:
        self._undo.append((holder, name, vars(holder)[name]))
        setattr(holder, name, replacement)

    def _wrap(self, target: str, fn: Callable) -> Callable:
        label = _LABELS.get(target)
        note = _NOTES.get(target)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(target, args, kwargs) if label else target
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note:
                note(self, args, kwargs, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def layers(self) -> dict[str, LayerStats]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, LayerStats] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, LayerStats())
            entry.calls += 1
            entry.busy_s += end - start
            entry.self_s += end - start - covered[index]
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{index},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


# -- per-target span names and counters -------------------------------------


def _by_class_count(target: str, args: tuple, kwargs: dict) -> str:
    n = kwargs.get("n", args[0] if args else None)
    return f"{target}.n{n}"


def _note_draws(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    # candidate_draws is read only while it exists; its meaning is
    # scheduled to change, and a missing field reports the ratio as missing
    n = getattr(result, "n_classes", None)
    pairs = getattr(result, "accepted_pairs", None)
    draws = getattr(result, "candidate_draws", None)
    if n is None or pairs is None or draws is None:
        tracer.missing.add("stability.accept_ratio")
        return
    tracer.count(f"stability.accept.n{n}.rows", 2 * pairs)
    tracer.count(f"stability.accept.n{n}.draws", draws)


def _note_tuples(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    masses = kwargs.get("masses", args[0] if args else ())
    tracer.count("fusion.combine_pcr6.tuples", math.prod(len(m.pairs) for m in masses))


def _note_ties(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("decision.decide.ties", int(bool(getattr(result, "tie", False))))


_LABELS = {"stability.decision_change_rate": _by_class_count}
_NOTES = {
    "stability.decision_change_rate": _note_draws,
    "fusion.combine_pcr6": _note_tuples,
    "decision.decide": _note_ties,
}
