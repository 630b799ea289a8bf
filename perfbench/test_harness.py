"""Self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs with two seeds, untraced and traced: no operation may
fail, and results and count metrics must repeat for the same seed.  Each
gate must also reject every operation once the expected answer is wrong.
"""

from __future__ import annotations

import types

import pytest

import harness

cnotsat = harness.import_program()

import workloads  # noqa: E402  (needs the program on sys.path first)


def _wrong_solutions(expected):
    return expected[:-1] if expected else ("1" * 8,)


def _wrong_values(expected):
    points, values = expected
    return points, (not values[0],) + values[1:]


TINY = [
    (workloads.SolveDense(n=3, m=3, k=2, pool=2), _wrong_solutions),
    (workloads.DecodeWide(n=4, m=2, k=2, pool=2, points=201), _wrong_solutions),
    (workloads.VerifyCorpus(pool=6), lambda expected: "0/1 exact matches"),
    (workloads.CompileWide(n=5, m=6, k=3, pool=2, samples=64), _wrong_values),
]


@pytest.mark.parametrize("workload, wrong", TINY, ids=[w.name for w, _ in TINY])
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_runs_clean_and_repeats(workload, wrong, seed, tmp_path):
    instances = workload.setup(seed, tmp_path)
    plain = harness.measure(workload, instances, 0.05)
    assert plain.failed == 0, plain.first_failure

    runs = []
    for _ in range(2):
        tracer = harness.Tracer(harness.trace_targets(cnotsat))
        run = harness.measure(workload, instances, 0.05, tracer)
        assert run.failed == 0, run.first_failure
        metrics = harness.per_layer(run, tracer.names, oracle_s=1.0)
        runs.append((run, metrics))
    (first, first_metrics), (second, second_metrics) = runs
    assert first.digest() == second.digest() == plain.digest()
    assert harness.per_instance_counts(first) == harness.per_instance_counts(second)
    assert harness.per_instance_counts(first)[1]
    for name in harness.COUNT_NAMES:
        assert first_metrics[name] == second_metrics[name]
    assert first_metrics["cli.unattributed_s"] < first_metrics["trace.op_p50_s"]

    for instance in instances:
        instance.expected = wrong(instance.expected)
    broken = harness.measure(workload, instances, 0.05)
    assert broken.failed == len(broken.records)
    assert broken.first_failure


def test_self_time_subtracts_child_spans():
    module = types.SimpleNamespace()
    module.inner = lambda: sum(range(20000))
    module.outer = outer = lambda: module.inner() + module.inner()
    tracer = harness.Tracer([(module, "outer", "outer", None), (module, "inner", "inner", None)])
    with tracer.installed():
        tracer.begin_op()
        module.outer()
        self_s, _ = tracer.end_op()
    spans = {name: end - start for name, _, start, end in tracer.spans if name == "outer"}
    assert len(tracer.spans) == 3
    assert 0 < self_s["outer"] < spans["outer"]
    assert self_s["outer"] + self_s["inner"] == pytest.approx(spans["outer"])
    assert module.outer is outer


def test_latencies_are_scaled_by_the_probe_speed():
    assert harness.probe_speed(harness.PROBE_PARTS) > 0
    records = [harness.Record(0, 0.3, True, 1.5), harness.Record(1, 0.1, True, 0.5)] * 6
    run = harness.Run(records, 2.4, 0.0, {}, None)
    assert run.scaled_latencies() == pytest.approx([0.2] * 12)
    assert harness.end_to_end(run, 1.0)["ops_per_s"] == pytest.approx(5.0)


def test_tail_leaves_ten_samples_beyond():
    value, pct = harness.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
