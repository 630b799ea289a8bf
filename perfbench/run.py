"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

With --trace 0 the last line reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 a separate run wraps the layer entry points
and reports the per-layer metrics.  Earlier lines give each metric with its
unit and a `detail` record: failed ratio, tail percentile and sample count,
the digest of the decoded results and whether the counts repeated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

import harness


def metric_units(section: str) -> dict[str, str]:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cnotsat = harness.import_program()
    except (harness.MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    setup_s, wall_setup_s = (None, None) if args.trace else harness.measure_setup_s()
    tracer = harness.Tracer(harness.trace_targets(cnotsat)) if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=harness.ROOT) as tmp:
        instances = workload.setup(args.seed, Path(tmp))
        run = harness.measure(workload, instances, args.seconds, tracer)

    latencies = [r.latency_s for r in run.records]
    _, tail_pct = harness.tail(latencies)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(run.records),
        "failed": run.failed,
        "failed_ratio": run.failed / len(run.records),
        "op_tail_pct": round(tail_pct, 2),
        "op_samples": len(latencies),
        "digest": run.digest(),
        "first_failure": run.first_failure,
        **harness.wall_clock(run),
    }
    if tracer:
        section = "per_layer"
        oracle_s = statistics.median(i.oracle_s for i in instances)
        metrics = harness.per_layer(run, tracer.names, oracle_s)
        by_instance, repeated = harness.per_instance_counts(run)
        counts = json.dumps(sorted(by_instance.items()), sort_keys=True)
        detail["counts_digest"] = hashlib.sha256(counts.encode()).hexdigest()[:16]
        detail["counts_repeat_within_run"] = repeated
    else:
        section = "end_to_end"
        metrics = harness.end_to_end(run, setup_s)
        detail["wall_setup_s"] = wall_setup_s
    units = metric_units(section)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {section}")

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": len(run.records),
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
