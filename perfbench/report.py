"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload NAME ...]

For each workload this prints the end-to-end metrics, the failed ratio, the
tail percentile with its sample count, the per-layer metrics, the tracing
overhead (traced over untraced op_p50_s), the span coverage, and whether the
digest of the decoded results and every count metric repeat across runs
with the same seed.  Exits 1 if an operation failed or a repeat check broke.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from harness import COUNT_NAMES, ROOT

HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py run: (detail record, final result)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return detail, json.loads(lines[-1])


def show(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")


def report(workload: str, seed: int, seconds: float) -> bool:
    plain_detail, plain = run(workload, seed, seconds, 0)
    traced_detail, traced = run(workload, seed, seconds, 1)
    # Counts are per instance and every instance runs at least once, so a
    # short second run must give the same counts.
    again_detail, again = run(workload, seed, 1, 1)

    print(f"== {workload} (seed {seed}, {seconds:g} s, closed loop, 1 client)")
    print("end-to-end:")
    show(plain)
    print(
        f"  failed_ratio {plain_detail['failed']}/{plain_detail['attempted']}"
        f" = {plain_detail['failed_ratio']:.4g}"
    )
    print(f"  op_tail_s is p{plain_detail['op_tail_pct']:g} of {plain_detail['op_samples']} samples")
    print("per-layer (medians per op, traced run):")
    show(traced)
    m = traced["metrics"]
    overhead = m["trace.op_p50_s"]["value"] / plain["metrics"]["op_p50_s"]["value"]
    print(f"  tracing overhead: traced/untraced op_p50_s = {overhead:.3f}")
    print(f"  span coverage: cli.unattributed_s / op latency = {m['cli.unattributed_share']['value']:.4f}")

    digests = {plain_detail["digest"], traced_detail["digest"], again_detail["digest"]}
    counts_repeat = (
        traced_detail["counts_digest"] == again_detail["counts_digest"]
        and traced_detail["counts_repeat_within_run"]
        and again_detail["counts_repeat_within_run"]
        and all(m[name] == again["metrics"][name] for name in COUNT_NAMES)
    )
    print(f"  result digest {plain_detail['digest']}: {'repeats' if len(digests) == 1 else 'DIFFERS'}")
    print(f"  count metrics: {'repeat exactly' if counts_repeat else 'DIFFER'}")
    for detail in (plain_detail, traced_detail, again_detail):
        if detail["first_failure"]:
            print(f"  first failure: {detail['first_failure']}")
    failed = plain["failed"] + traced["failed"] + again["failed"]
    return failed == 0 and len(digests) == 1 and counts_repeat


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    ok = [report(name, args.seed, args.seconds) for name in args.workload or names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
