#!/usr/bin/env python3
"""Regenerate the shipped synthetic annotation corpus.

The file is a deterministic function of the tile count and seed, so
rerunning with the defaults reproduces data/demo_corpus.csv byte for byte.
"""

import argparse
import sys
from pathlib import Path

from expertfuse.corpus import DEMO_SEED, DEMO_TILES, generate_demo_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiles", type=int, default=DEMO_TILES)
    parser.add_argument("--seed", type=int, default=DEMO_SEED)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "data" / "demo_corpus.csv",
    )
    args = parser.parse_args()
    if args.tiles < 1:
        print(f"error: --tiles must be a positive integer, got {args.tiles}", file=sys.stderr)
        return 1
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(generate_demo_corpus(args.tiles, args.seed), encoding="utf-8")
    print(f"wrote {args.out} ({args.tiles} tiles, seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
