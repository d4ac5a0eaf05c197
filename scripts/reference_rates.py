#!/usr/bin/env python3
"""Regenerate tests/reference_rates.json, the seed-independent flip rates.

For each class count 2..7 this pools `decision_change_rate(n, 10**6, seed)`
over the seeds 100 000..100 099 (10⁸ pairs per count under the uniform
law) and writes the pair and flip counts, the rate and its standard
error.  The acceptance test reads the file; the seeds lie far from every
seed the tests draw with, so the two samples are independent.  On a
2-core VM (Python 3.11, numpy 2.4) the run took 220 s and peaked at
45 MB RSS, since each call keeps only 9 bytes a pair.
"""

import json
import math
import sys
from pathlib import Path

from expertfuse.stability import decision_change_rate

CLASS_COUNTS = range(2, 8)
SEEDS = range(100_000, 100_100)
PAIRS_PER_SEED = 10**6
OUT = Path(__file__).resolve().parent.parent / "tests" / "reference_rates.json"


def main() -> int:
    rates = {}
    for n in CLASS_COUNTS:
        flips = 0
        for seed in SEEDS:
            flips += int(decision_change_rate(n, PAIRS_PER_SEED, seed).change.sum())
        pairs = PAIRS_PER_SEED * len(SEEDS)
        rate = flips / pairs
        rates[str(n)] = {
            "pairs": pairs,
            "flips": flips,
            "rate": rate,
            "se": math.sqrt(rate * (1.0 - rate) / pairs),
        }
        print(f"n={n}: {flips} flips in {pairs} pairs, rate {rate:.6f}", flush=True)
    document = {
        "law": "uniform",
        "pairs_per_seed": PAIRS_PER_SEED,
        "seeds": list(SEEDS),
        "rates": rates,
    }
    OUT.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
