#!/usr/bin/env python3
"""Check the result line of one benchmark run.

Reads the stdout of ``perfbench/run.py --trace 0`` on stdin, echoes it, and
exits 1 unless its last line is a JSON object with ``correct`` true,
``failed`` 0, and a finite number for every end-to-end metric that
BENCHMARK.json names.  NaN and Infinity are rejected even though Python's
json module would accept them.

    python3 perfbench/run.py --workload objects --seed 1 --seconds 3 --trace 0 \\
        | python3 scripts/check_bench_result.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name}")


def _is_finite_number(value: object) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def problems(output: str, metric_names: list[str]) -> list[str]:
    """Everything wrong with the last line of a run's stdout."""
    lines = output.splitlines()
    if not lines:
        return ["the run printed nothing"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"the last line is not valid JSON ({exc}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return [f"the last line is not a JSON object: {lines[-1][:200]!r}"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    failed = result.get("failed")
    if type(failed) is not int or failed != 0:
        found.append(f"failed is {failed!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    for name in metric_names:
        entry = metrics.get(name)
        if not isinstance(entry, dict) or "value" not in entry:
            found.append(f"metric {name} is missing")
        elif not _is_finite_number(entry["value"]):
            found.append(f"metric {name} is {entry['value']!r}, not a finite number")
    return found


def main() -> int:
    output = sys.stdin.read()
    sys.stdout.write(output)
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    found = problems(output, [metric["name"] for metric in declared["end_to_end"]])
    for problem in found:
        print(f"bad benchmark result: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
