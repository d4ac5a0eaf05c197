#!/usr/bin/env python3
"""expertfuse benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stability|corpus|objects \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics, from
alternating untraced and traced passes of identical work.  ``all`` runs
each workload in its own process and prints one table.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files and span dumps go to ``perfbench/out/``.
"""

import os

# One thread for BLAS and OpenMP, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("stability", "corpus", "objects")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 600

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import expertfuse.cli; print(time.perf_counter() - t)"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or ``unavailable`` outside a git work tree.

    The search for a repository stops at the checkout's root, so a
    repository around an exported checkout is never read."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def import_seconds() -> float:
    """Cold ``import expertfuse.cli`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def latency_ms(passes: list[list[float]], q: float) -> float:
    """The q-th percentile of request latency, in ms.

    When a pass holds at least ten requests beyond the percentile, it is
    taken within each pass and the mean over passes is reported, which
    follows the run's share of slow machine time as ``units_per_s`` does;
    otherwise it is taken over all requests of the run.
    """
    if len(passes[0]) * (100 - q) / 100 >= 10:
        return statistics.fmean(float(numpy.percentile(p, q)) for p in passes) * 1e3
    return float(numpy.percentile([x for p in passes for x in p], q)) * 1e3


def timed_run(workload, seconds: float, checks) -> dict:
    passes: list[list[float]] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(workload.run_pass(checks))
    pass_s = [sum(p) for p in passes]
    return {
        # all the work of the run over all its serving time: the machine's
        # speed shifts for tens of seconds at a time, and a mean over the
        # run follows the share of slow time, where a median pass jumps
        "units_per_s": workload.units_per_pass * len(pass_s) / sum(pass_s),
        "req_p50_ms": latency_ms(passes, 50),
        "req_p99_ms": latency_ms(passes, 99),
        "requests": sum(len(p) for p in passes),
        "pass_s": pass_s,
    }


def traced_run(workload, seconds: float, checks, name: str) -> dict:
    """Alternate untraced and traced passes; counts come from the first
    traced pass, times are medians over traced passes."""
    from tracer import Tracer

    untraced: list[float] = []
    traced: list[float] = []
    tracers: list = []
    start = perf_counter()
    while not tracers or perf_counter() - start < seconds:
        untraced.append(sum(workload.run_pass(checks)))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(workload.run_pass(checks)))
        finally:
            tracer.uninstall()
        if not tracers:
            tracer.write_spans(OUT / f"spans-{name}.csv")
            differing = dict(getattr(workload, "differing", {}))
        tracers.append(tracer)
    first = tracers[0]
    layers = [t.layers() for t in tracers]
    values = {
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
        "trace.pass_s": statistics.median(traced),
        "corpus.differing.demo": differing.get("demo", 0),
        "corpus.differing.dense": differing.get("dense", 0),
        "fusion.combine_pcr6.tuples": first.counters.get("fusion.combine_pcr6.tuples", 0),
        "decision.decide.ties": first.counters.get("decision.decide.ties", 0),
    }
    return {"values": values, "first": first, "layers": layers}


def layer_value(metric: str, traced: dict):
    """Value of one declared per-layer metric; None when its function is gone."""
    first = traced["first"]
    gone = set(first.missing)
    if "stability.decision_change_rate" in gone:
        gone.add("stability.accept_ratio")
    if any(metric == t or metric.startswith(t + ".") for t in gone):
        return None
    if metric in traced["values"]:
        return traced["values"][metric]
    if metric.startswith("stability.accept_ratio."):
        key = metric.rsplit(".", 1)[1]
        draws = first.counters.get(f"stability.accept.{key}.draws", 0)
        return first.counters.get(f"stability.accept.{key}.rows", 0) / draws if draws else 0.0
    span, stat = metric.rsplit(".", 1)
    if stat == "calls":
        stats = traced["layers"][0].get(span)
        return stats.calls if stats else 0
    return statistics.median(getattr(run.get(span), stat, 0.0) for run in traced["layers"])


def run_one(args, declared: dict) -> int:
    sys.path.insert(0, str(SRC))
    import expertfuse
    if Path(expertfuse.__file__).resolve().parent != (SRC / "expertfuse").resolve():
        return fail(f"imported expertfuse from {expertfuse.__file__}, not from {SRC}")
    from workloads import WORKLOADS, Checks

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        imports, setups = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            imports.append(import_seconds())
            workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
            start = perf_counter()
            workload.setup()
            setups.append(perf_counter() - start)
        checks = Checks()
        if args.trace:
            traced = traced_run(workload, args.seconds, checks, args.workload)
            workload.finish(checks)
            wanted = declared["per_layer"]
            metrics = {name: layer_value(name, traced) for name in wanted}
            detail = {"missing": sorted(traced["first"].missing),
                      "traced_passes": len(traced["layers"])}
        else:
            timed = timed_run(workload, args.seconds, checks)
            workload.finish(checks)
            wanted = declared["end_to_end"]
            # the least disturbed cold import plus the median in-process set-up
            timed["setup_s"] = min(imports) + statistics.median(setups)
            timed["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: timed[name] for name in wanted}
            detail = {"requests": timed["requests"], "pass_s": timed["pass_s"],
                      "import_samples_s": imports, "setup_samples_s": setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    fail_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fail_ratio": fail_ratio, **detail,
              "environment": environment()}
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:<10} {name:<48} {shown:>14} {wanted[name]}")
    print(f"{args.workload:<10} {'fail_ratio':<48} {fail_ratio:>14.6g} 1")
    print(json.dumps(record, sort_keys=True))
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": wanted[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            return fail(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if not (SRC / "expertfuse" / "__init__.py").is_file():
        return fail(f"no expertfuse sources under {SRC}; run from a source checkout")
    if not (ROOT / "data" / "demo_corpus.csv").is_file():
        return fail("data/demo_corpus.csv is missing")
    declared = declared_metrics()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
