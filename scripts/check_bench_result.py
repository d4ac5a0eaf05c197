#!/usr/bin/env python3
"""Check the result line of one benchmark run.

Reads the stdout of ``perfbench/run.py`` on stdin, echoes it, and exits 1
unless its last line is a JSON object with ``correct`` true, ``failed`` 0,
and a finite number for every metric BENCHMARK.json names for the run's
mode.  The mode comes from the record line just above it: a traced run
(``"trace": 1``) must report every per-layer metric and an empty
``missing`` list, any other run every end-to-end metric.  NaN and Infinity
are rejected even though Python's json module would accept them.

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


def _traced_record(lines: list[str]) -> dict | None:
    """The record line of a traced run, or None for any other output."""
    if len(lines) < 2:
        return None
    try:
        record = json.loads(lines[-2], parse_constant=_reject_constant)
    except ValueError:
        return None
    if isinstance(record, dict) and type(record.get("trace")) is int and record["trace"] == 1:
        return record
    return None


def problems(output: str, declared: dict) -> list[str]:
    """Everything wrong with the last line of a run's stdout."""
    lines = output.splitlines()
    if not lines:
        return ["the run printed nothing"]
    record = _traced_record(lines)
    found = []
    if record is None:
        metric_names = [metric["name"] for metric in declared["end_to_end"]]
    else:
        metric_names = [metric["name"] for metric in declared["per_layer"]]
        if record.get("missing") != []:
            found.append(f"traced targets are missing: {record.get('missing')!r}")
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return found + [f"the last line is not valid JSON ({exc}): {lines[-1][:200]!r}"]
    if not isinstance(result, dict):
        return found + [f"the last line is not a JSON object: {lines[-1][:200]!r}"]
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
    found = problems(output, declared)
    for problem in found:
        print(f"bad benchmark result: {problem}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
