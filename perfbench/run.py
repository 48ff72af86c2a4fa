"""Benchmark runner for daproofs: one workload, one seed, one process.

    python3 perfbench/run.py --workload block-1mb --seed 1 --seconds 18 --trace 0

Run from the repository root. The workload's fixtures are set up
SETUP_REPS times (the median is `setup_s`), then its iteration runs in a
closed loop, one operation after another on a single thread, until
`--seconds` have passed. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with no
tracing installed; `iteration_ref` is an iteration's cost in units of a
reference workload timed between ops (see README.md). With `--trace 1` they are the per-layer ones: calls and
self time of each traced function (see tracing.py) and computed operation
counts, all per set-up plus one iteration, and the tracing overhead.
In a traced run, set-ups and iterations alternate between untraced and
traced, so the overhead is measured within the run.

The line before the result is a full report (JSON): every per-operation
metric with its median, highest supported percentile and sample count,
per-operation error rates, output digests, and run metadata. It is also
written to perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
DIGESTS_FILE = BENCH_DIR / "digests.json"

SETUP_REPS = 3
SETUP_MAX_REPS = 9
SETUP_MIN_SECONDS = 4.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "iteration_ref": "ref",
    "peak_rss_mb": "MB",
}

# Units of report metrics whose name does not end in _s, _ms or _bytes.
REPORT_UNITS = {
    "client_verdicts": "count",
    "client_verdicts_per_s": "1/s",
    "error_rate": "fraction",
    "iteration_ref": "ref",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name in REPORT_UNITS:
        return REPORT_UNITS[name]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for metric {name!r}")


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, the highest percentile with at least ten samples above it
    (the maximum when there are fewer than twenty), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        percent = math.floor(100 * (n - 10) / n)
        high = ordered[max(math.ceil(percent / 100 * n) - 1, 0)]
        label = f"p{percent}"
    else:
        high, label = ordered[-1], "max"
    return {"median": statistics.median(ordered), label: high, "n": n}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _line_count(directory: Path) -> int:
    total = 0
    for path in sorted(directory.rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def metadata() -> dict[str, Any]:
    import numpy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_lines": _line_count(ROOT / "src"),
        "tests_lines": _line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


def _recorded_digests(workload: str, seed: int) -> Optional[dict[str, str]]:
    if not DIGESTS_FILE.is_file():
        return None
    recorded = json.loads(DIGESTS_FILE.read_text())
    return recorded.get(workload, {}).get(str(seed))


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: Any = None,
    out_dir: Optional[Path] = OUT_DIR,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; return (result line, full report)."""
    from tracing import Tracer, per_layer_metric_units
    from workloads import WORKLOADS, Recorder, proof_bytes

    cls = WORKLOADS[workload]
    bench = cls(seed) if params is None else cls(seed, params)
    tracer = Tracer(proof_bytes) if trace else None
    rec = Recorder(cls.reference_kinds)
    op_names: dict[int, str] = {}
    if tracer is not None:
        def on_op(name: str) -> None:
            tracer.op_id += 1
            op_names[tracer.op_id] = name

        rec.on_op = on_op

    def phase(fn: Any, traced: bool, totals: list) -> tuple[Any, float]:
        """Run fn, traced or not; return its result and wall seconds."""
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            if traced:
                tracer.uninstall()
                totals.append(tracer.take())
        return result, wall

    # Traced runs alternate untraced and traced phases, untraced first.
    # Short set-ups repeat until SETUP_MIN_SECONDS have been measured.
    setup_s: dict[bool, list[float]] = {False: [], True: []}
    setup_totals: list[dict[str, float]] = []
    rep = 0
    while rep < SETUP_REPS or (
        rep < SETUP_MAX_REPS and sum(setup_s[False]) + sum(setup_s[True]) < SETUP_MIN_SECONDS
    ):
        traced = trace and rep % 2 == 1
        if tracer is not None:
            tracer.op_id += 1
            op_names[tracer.op_id] = "setup"
        setup_digests, wall = phase(lambda: bench.setup(rep), traced, setup_totals)
        setup_s[traced].append(wall)
        rep += 1

    iteration_s: dict[bool, list[float]] = {False: [], True: []}
    iteration_totals: list[dict[str, float]] = []
    first_digests: Optional[dict[str, str]] = None
    mismatches: list[str] = []
    start = perf_counter()
    for index in itertools.count():
        traced = trace and index % 2 == 1
        rec.reference(force=True)
        rec.outputs = {}
        ref_before = rec.ref_seconds
        _, wall = phase(lambda: bench.iteration(rec), traced, iteration_totals)
        iteration_s[traced].append(wall - (rec.ref_seconds - ref_before))
        if first_digests is None:
            first_digests = dict(rec.outputs)
        for key in sorted(first_digests.keys() & rec.outputs.keys()):
            if rec.outputs[key] != first_digests[key]:
                mismatches.append(f"iteration {index}: output {key} differs from iteration 0")
        first_digests = {**rec.outputs, **first_digests}
        if perf_counter() - start >= seconds and (not trace or index >= 1):
            break
    iterations = index + 1
    rec.reference(force=True)

    outputs = {**setup_digests, **(first_digests or {})}
    recorded = _recorded_digests(workload, seed) if params is None else None
    if recorded is not None:
        for key, value in sorted(recorded.items()):
            if outputs.get(key) != value:
                mismatches.append(f"output {key} differs from the recorded digest")

    # times in units of the run's mean reference time (see README.md)
    reference_s = statistics.mean(seconds for _, seconds in rec.refs)

    attempted = sum(rec.attempted.values())
    failed = sum(rec.failed.values())
    report_metrics = {name: summarize(values) for name, values in sorted(rec.samples.items())}
    report_metrics["setup_s"] = summarize(setup_s[False])
    report_metrics["iteration_s"] = summarize(iteration_s[False])
    report_metrics["iteration_ref"] = summarize([t / reference_s for t in iteration_s[False]])
    report_metrics["reference_ms"] = summarize([ms * 1000 for _, ms in rec.refs])
    if "client_verdicts" in rec.samples:
        round_s = sum(sum(v) for k, v in rec.samples.items() if k.startswith("round_"))
        report_metrics["client_verdicts_per_s"] = {
            "value": sum(rec.samples["client_verdicts"]) / round_s
        }
    report_metrics["error_rate"] = {"value": failed / attempted}
    report_metrics["peak_rss_mb"] = {"value": _peak_rss_mb()}
    for name, entry in report_metrics.items():
        entry["unit"] = _unit(name)
    to_seconds = {"s": 1.0, "ms": 1e-3}
    normalized_metrics = {
        name: {
            **summarize([v * to_seconds[_unit(name)] / reference_s for v in values]),
            "unit": "ref",
        }
        for name, values in sorted(rec.samples.items())
        if _unit(name) in to_seconds
    }

    correct = not mismatches
    if trace:
        metrics = _per_layer(setup_totals, iteration_totals, per_layer_metric_units())
        metrics["trace.overhead.setup_s"]["value"] = (
            statistics.median(setup_s[True]) - statistics.median(setup_s[False])
        )
        metrics["trace.overhead.iteration_s"]["value"] = (
            statistics.median(iteration_s[True]) - statistics.median(iteration_s[False])
        )
    else:
        values = {
            "setup_s": report_metrics["setup_s"]["median"],
            "iteration_ref": report_metrics["iteration_ref"]["median"],
            "peak_rss_mb": report_metrics["peak_rss_mb"]["value"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "setup_reps": len(setup_s[False]) + len(setup_s[True]),
        "reference_kinds": list(cls.reference_kinds),
        "iterations": iterations,
        "correct": correct,
        "mismatches": mismatches[:20],
        "ops": {
            name: {
                "attempted": rec.attempted[name],
                "failed": rec.failed[name],
                "error_rate": rec.failed[name] / rec.attempted[name],
                **({"error": rec.errors[name]} if name in rec.errors else {}),
            }
            for name in rec.attempted
        },
        "metrics": report_metrics,
        "normalized": normalized_metrics,
        "digests": outputs,
        "recorded_digests": "not recorded" if recorded is None else "compared",
        "metadata": metadata(),
    }
    if trace:
        report["trace_overhead_s"] = {
            "setup_s": metrics["trace.overhead.setup_s"]["value"],
            "iteration_s": metrics["trace.overhead.iteration_s"]["value"],
        }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-trace{int(trace)}"
        (out_dir / f"report-{name}.json").write_text(json.dumps(report, indent=1))
        if tracer is not None:
            tracer.write_spans(out_dir / f"spans-{workload}.tsv", op_names)

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def _per_layer(
    setup_totals: list[dict[str, float]],
    iteration_totals: list[dict[str, float]],
    units: dict[str, str],
) -> dict[str, dict[str, Any]]:
    """Per-layer values for one set-up plus one iteration, from traced phases."""

    def unit_value(key: str) -> float:
        return sum(
            sum(t.get(key, 0.0) for t in totals) / len(totals)
            for totals in (setup_totals, iteration_totals)
            if totals
        )

    def ratio(numerator: str, denominator: str) -> float:
        base = unit_value(denominator)
        return unit_value(numerator) / base if base else 0.0

    values = {name: unit_value(name) for name in units}
    values["rs2d.recover.decodes"] = ratio("recover.decodes", "rs2d.recover_matrix.calls")
    values["sha256.calls"] = values["merkle.hashes"] + values["smt.hashes"]
    values["fraud.verifies_per_proof"] = ratio("fraud.verifications", "fraud.distinct_proofs")
    for name in ("sim.events", "sim.horizon_ticks", "sim.recover_attempts",
                 "sim.fraud_verifications"):
        values[name] = ratio(name, "sim.run_sampling.calls")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "daproofs" / "__init__.py").is_file():
        print(f"error: no daproofs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
