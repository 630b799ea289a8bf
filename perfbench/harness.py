"""Closed-loop measurement, outside-in layer tracing and metric assembly.

One client, one process, one thread: each operation starts only after the
previous one has returned and passed the correctness gate.  The gate and the
oracle are the benchmark's own work and are kept out of every timing.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_OPS = TAIL_BEYOND + 1
SETUP_REPEATS = 15
PROBE_EVERY_S = 0.25  # an operation reuses the last probe if it is this recent


class MissingProgram(RuntimeError):
    """The checkout holds no cnotsat sources to measure."""


def import_program():
    """Import cnotsat from this checkout's src/, never from anywhere else."""
    if not (SRC / "cnotsat" / "__init__.py").is_file():
        raise MissingProgram(f"no cnotsat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cnotsat
    import cnotsat.cli

    if Path(cnotsat.__file__).resolve().parent != SRC / "cnotsat":
        raise MissingProgram(f"cnotsat imported from {cnotsat.__file__}, not {SRC}")
    return cnotsat


def measure_setup_s(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time for a fresh interpreter to import cnotsat and its CLI:
    (at nominal host speed, as measured)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import cnotsat, cnotsat.cli"
    times = []
    for _ in range(repeats):
        speed = probe_speed(PROBE_PARTS)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append((time.perf_counter() - start, speed))
    return (
        statistics.median(wall / speed for wall, speed in times),
        statistics.median(wall for wall, _ in times),
    )


# -- host-speed probe ----------------------------------------------------------
#
# The shared host's CPU speed drifts by about a fifth over minutes, for
# process CPU time as much as for wall time, so one set of runs can read 20%
# slower than the next with no change to the program.  Before an operation
# the benchmark times a fixed piece of its own work (never the program's),
# and divides the operation's latency by how much slower than nominal that
# probe ran.  Time metrics are therefore seconds at nominal host speed; the
# `detail` line keeps the wall-clock figures.


def _probe_loop():
    total = 0
    for j in range(60000):
        total += j * j % 7
    return total


def _probe_alloc():
    values = [(i * 7919) % 10007 for i in range(20000)]
    values.sort()
    return len({v: i for i, v in enumerate(values)})


@functools.cache
def _probe_array():
    return np.arange(1 << 18, dtype=np.float64)


def _probe_numpy():
    # Streams and gathers over a 2 MB array in 256 kB chunks, so the probe
    # adds little to the peak RSS the benchmark reports.
    a = _probe_array()
    for _ in range(4):
        for chunk in np.split(a, 8):
            b = np.cumsum(chunk[::-1] * 1.5)
            c = a[b.astype(np.int64) % a.size]
    return float(c[-1])


# part name -> (function, its time at nominal speed: the median on the
# 2-vCPU VM the benchmark was tuned on)
PROBES = {
    "loop": (_probe_loop, 0.0050),
    "alloc": (_probe_alloc, 0.0055),
    "numpy": (_probe_numpy, 0.0140),
}
PROBE_PARTS = tuple(PROBES)


def probe_speed(parts) -> float:
    """How much slower than nominal the host ran the probe parts just now
    (2.0 means half speed)."""
    measured = nominal = 0.0
    for name in parts:
        fn, nominal_s = PROBES[name]
        start = time.perf_counter()
        fn()
        measured += time.perf_counter() - start
        nominal += nominal_s
    return measured / nominal


# -- tracing -----------------------------------------------------------------


def _count_sim_run(counts, state, circuit, width_cap=None):
    counts["sim.state_entries"] += state.populations.size
    counts["sim.state_bytes"] += state.populations.nbytes
    counts["sim.gates_applied"] += len(circuit.gates)
    counts["sim.var_space"] += 1 << circuit.layout.num_vars


def _count_lines(counts, lines, state, layout, system):
    counts["spectrum.lines"] += len(lines)


def _count_render(counts, result, lines, f_min, f_max, points, linewidth):
    counts["spectrum.render_evals"] += len(lines) * points


def _count_peephole(counts, result, circuit):
    counts["circuit.gates_before"] += len(circuit.gates)
    counts["circuit.gates_after"] += len(result.gates)


def _count_compile(counts, result, formula, width_cap=None):
    counts["circuit.width"] = max(counts["circuit.width"], result.layout.width)


def _count_oracle(counts, result, formula, limit=None):
    counts["cnf.assignments_enumerated"] += 1 << formula.num_vars


def trace_targets(cnotsat):
    """(module, attribute, span name, counter) for every layer entry point the
    CLI and the library path reach as a module attribute."""
    cnf, circ, sim, spec = cnotsat.cnf, cnotsat.circuit, cnotsat.sim, cnotsat.spectrum
    return [
        (cnf, "parse_dimacs", "cnf.parse_dimacs", None),
        (cnf, "brute_force_solutions", "cnf.brute_force_solutions", _count_oracle),
        (circ, "compile_formula", "circuit.compile", _count_compile),
        (circ, "compile_auto", "circuit.compile", _count_compile),
        (circ, "append_uncompute", "circuit.append_uncompute", None),
        (circ, "peephole_cancel", "circuit.peephole_cancel", _count_peephole),
        (circ, "circuit_to_text", "circuit.circuit_to_text", None),
        (sim, "run", "sim.run", _count_sim_run),
        (sim, "true_space", "sim.true_space", None),
        (spec, "check_resolvable", "spectrum.check_resolvable", None),
        (spec, "multiplet_lines", "spectrum.multiplet_lines", _count_lines),
        (spec, "extract_solutions", "spectrum.extract_solutions", None),
        (spec, "line_table", "spectrum.line_table", None),
        (spec, "render", "spectrum.render", _count_render),
        (spec, "trace_csv", "spectrum.trace_csv", None),
    ]


class Tracer:
    """Records one span per wrapped call: name, parent span, start and end.

    Spans of one operation are kept in memory until the operation ends, then
    reduced to self time per span name (duration minus the part covered by
    child spans) and per-operation count totals.
    """

    def __init__(self, targets):
        self.targets = targets
        self.names = tuple(dict.fromkeys(name for _, _, name, _ in targets))
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][3] = time.perf_counter()
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in self.targets]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(self.targets, saved):
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def begin_op(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def end_op(self) -> tuple[dict[str, float], dict[str, int]]:
        self_s = dict.fromkeys(self.names, 0.0)
        for name, parent, start, end in self.spans:
            duration = end - start
            self_s[name] += duration
            if parent is not None:
                self_s[self.spans[parent][0]] -= duration
        return self_s, dict(self.counts)


# -- closed loop -------------------------------------------------------------


@dataclass
class Record:
    instance: int
    latency_s: float
    ok: bool
    speed: float  # probe_speed when the operation ran
    self_s: dict[str, float] | None = None
    counts: dict[str, int] | None = None


@dataclass
class Run:
    records: list[Record]
    wall_s: float
    peak_rss_mb: float
    views: dict[int, object]
    first_failure: str | None

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)

    def scaled_latencies(self) -> list[float]:
        """Latencies in seconds at nominal host speed."""
        return [r.latency_s / r.speed for r in self.records]

    def digest(self) -> str:
        """Hash of the first output view of each of the first MIN_OPS
        instances, which every run reaches, in instance order."""
        payload = json.dumps([self.views.get(i) for i in range(MIN_OPS)], sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _gate(workload, instance, output) -> str | None:
    """Return why the output is wrong, or None when it passes."""
    try:
        return workload.check(instance, output)
    except Exception as exc:  # a malformed output is a failed operation
        return f"gate raised {type(exc).__name__}: {exc}"


def measure(workload, instances, seconds: float, tracer: Tracer | None = None) -> Run:
    """Run operations back to back, cycling through the instances, for
    `seconds` and at least MIN_OPS times."""
    parts = workload.probe_parts
    with contextlib.suppress(Exception):
        probe_speed(parts)
        workload.op(instances[0])  # warm-up: lazy imports and first-touch pages
    records: list[Record] = []
    views: dict[int, object] = {}
    first_failure = None
    aside_s = 0.0  # the benchmark's own work in the loop: probes and gates
    probed_at = -PROBE_EVERY_S
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
            index = len(records) % len(instances)
            instance = instances[index]
            p0 = time.perf_counter()
            if p0 - probed_at >= PROBE_EVERY_S:
                speed = probe_speed(parts)
                probed_at = time.perf_counter()
                aside_s += probed_at - p0
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                output = workload.op(instance)
                error = None
            except Exception as exc:  # a raising operation counts as failed
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            self_s, counts = tracer.end_op() if tracer else (None, None)
            g0 = time.perf_counter()
            if error is None:
                error = _gate(workload, instance, output)
            if error is None and index not in views:
                views[index] = workload.view(output)
            aside_s += time.perf_counter() - g0
            if error is not None and first_failure is None:
                first_failure = f"instance {index}: {error}"
            records.append(Record(index, latency, error is None, speed, self_s, counts))
        wall = time.perf_counter() - start - aside_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Run(records, wall, peak_rss_mb, views, first_failure)


# -- metrics -----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    latencies = run.scaled_latencies()
    correct = len(run.records) - run.failed
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies)[0],
        "ops_per_s": correct / sum(latencies),
        "peak_rss_mb": run.peak_rss_mb,
    }


def wall_clock(run: Run) -> dict[str, float]:
    """The end-to-end figures as the wall clock read them, unscaled."""
    latencies = [r.latency_s for r in run.records]
    return {
        "wall_op_p50_s": statistics.median(latencies),
        "wall_op_tail_s": tail(latencies)[0],
        "wall_ops_per_s": (len(run.records) - run.failed) / run.wall_s,
        "probe_speed_p50": statistics.median(r.speed for r in run.records),
    }


def per_instance_counts(run: Run) -> tuple[dict[int, dict[str, int]], bool]:
    """Counts of the first traced op on each of the first MIN_OPS instances,
    which every run reaches, and whether every later op on the same instance
    repeated them exactly."""
    first: dict[int, dict[str, int]] = {}
    repeat = True
    for record in run.records:
        if record.instance >= MIN_OPS:
            continue
        seen = first.setdefault(record.instance, record.counts)
        repeat = repeat and seen == record.counts
    return first, repeat


COUNT_NAMES = (
    "sim.state_entries",
    "sim.state_bytes",
    "sim.gates_applied",
    "spectrum.lines",
    "spectrum.render_evals",
    "circuit.gates_before",
    "circuit.gates_after",
    "circuit.width",
    "cnf.assignments_enumerated",
)


def per_layer(run: Run, span_names, oracle_s: float) -> dict[str, float]:
    records = run.records
    metrics = {
        f"{name}.self_s": statistics.median(r.self_s[name] for r in records)
        for name in span_names
    }
    by_instance, _ = per_instance_counts(run)
    instance_counts = list(by_instance.values())
    for name in COUNT_NAMES:
        metrics[name] = statistics.median(c.get(name, 0) for c in instance_counts)
    metrics["sim.support_ratio"] = statistics.median(
        c["sim.var_space"] / c["sim.state_entries"] if c.get("sim.state_entries") else 0.0
        for c in instance_counts
    )
    metrics["circuit.peephole_yield"] = statistics.median(
        1 - c["circuit.gates_after"] / c["circuit.gates_before"]
        if c.get("circuit.gates_before")
        else 0.0
        for c in instance_counts
    )
    unattributed = [r.latency_s - sum(r.self_s.values()) for r in records]
    op_p50 = statistics.median(r.latency_s for r in records)
    metrics["cli.unattributed_s"] = statistics.median(unattributed)
    metrics["cli.unattributed_share"] = statistics.median(
        u / r.latency_s for u, r in zip(unattributed, records)
    )
    metrics["trace.op_p50_s"] = statistics.median(run.scaled_latencies())
    metrics["yardstick.oracle_s"] = oracle_s
    metrics["yardstick.pipeline_over_oracle"] = op_p50 / oracle_s
    return metrics
