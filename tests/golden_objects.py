"""Golden digests of the object path, built with the standard library alone.

`requests` draws fusion requests from `random.Random(seed)`, using only
`random()` and `randrange()`, whose streams Python keeps fixed across
versions: exclusive frames of 2–4 classes and free frames of 2–3, focal
elements picked from `enumerate_elements`, 2–6 experts for `conjunctive`
and `pcr6` and 2 for `pcr5`.  Weights are normalized with a left-to-right
`+=` loop, so the inputs themselves do not depend on how the interpreter's
`sum` rounds.

`serve` runs a request the way `expertfuse fuse --decide` does: `combine`,
`redistribute_conjunctions` for PCR on a free frame, `criteria_table`,
then a pignistic `decide` over the atoms.  Each (model, rule) group gets
one SHA-256 over `repr` of the fused pairs, `repr` of every criteria-table
cell and the decision JSON of its requests, or `type: message` for a
request that raises.

Neither the package root nor these modules import numpy, so the digests
also come out on an interpreter without it.  Print them with

    PYTHONPATH=src python tests/golden_objects.py
"""

from __future__ import annotations

import hashlib
import json
import random

from expertfuse.decision import Criterion, criteria_table, decide
from expertfuse.fusion import combine, redistribute_conjunctions
from expertfuse.lattice import Model, enumerate_elements, make_frame
from expertfuse.mass import MassFunction

SEED = 20081
REQUESTS = 3000
LABELS = ("A", "B", "C", "D")
# Chance that a pcr6 request gives six experts seven focal elements each:
# 7⁶ tuples, past the PCR6 tuple limit.
OVER_LIMIT_SHARE = 0.05


def _pick(rng: random.Random, items: list, count: int) -> list:
    """`count` distinct items, in the order drawn."""
    items = list(items)
    return [items.pop(rng.randrange(len(items))) for _ in range(count)]


def _mass_payload(rng: random.Random, frame, elements: list, count: int) -> dict:
    focal = _pick(rng, elements, count)
    weights = [rng.random() for _ in focal]
    total = 0.0
    for w in weights:
        total += w
    return {
        "frame": list(frame.labels),
        "model": frame.model.value,
        "world": "closed",
        "masses": {str(el): w / total for el, w in zip(focal, weights)},
    }


def requests(seed: int = SEED, count: int = REQUESTS):
    """Yield (group, rule, mass payloads) for `count` seed-drawn requests."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            frame = make_frame(LABELS[:2 + rng.randrange(3)], Model.SHAFER)
        else:
            frame = make_frame(LABELS[:2 + rng.randrange(2)], Model.FREE)
        elements = enumerate_elements(frame)
        rule = ("conjunctive", "pcr5", "pcr6")[rng.randrange(3)]
        experts = 2 if rule == "pcr5" else 2 + rng.randrange(5)
        if rule == "pcr6" and len(elements) >= 7 and rng.random() < OVER_LIMIT_SHARE:
            sizes = [7] * 6
        else:
            sizes = [1 + rng.randrange(min(4, len(elements))) for _ in range(experts)]
        payloads = [_mass_payload(rng, frame, elements, size) for size in sizes]
        yield f"{frame.model.value}/{rule}", rule, payloads


def serve(rule: str, payloads: list[dict]) -> list[str]:
    """The hashed parts of one request, as `fuse --decide` computes them."""
    try:
        fused = combine([MassFunction.from_json_dict(p) for p in payloads], rule)
        if rule in ("pcr5", "pcr6") and fused.frame.model is Model.FREE:
            fused = redistribute_conjunctions(fused)
        parts = [repr(fused.pairs)]
        for row in criteria_table(fused):
            parts.extend(repr(cell) for cell in row)
        parts.append(decide(fused, Criterion.PIGNISTIC, fused.frame.atoms()).to_json())
        return parts
    except ValueError as exc:
        return [f"{type(exc).__name__}: {exc}"]


def digests(seed: int = SEED, count: int = REQUESTS) -> dict[str, str]:
    """SHA-256 per (model, rule) group over every request's parts, in order."""
    hashes = {}
    for group, rule, payloads in requests(seed, count):
        digest = hashes.setdefault(group, hashlib.sha256())
        for part in serve(rule, payloads):
            digest.update(part.encode("utf-8") + b"\0")
    return {group: hashes[group].hexdigest() for group in sorted(hashes)}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
