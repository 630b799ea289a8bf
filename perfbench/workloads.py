"""The four workloads: seeded inputs, one operation each, and its gate.

Every instance is random k-SAT from `generate_random_ksat`; the program only
sees the generated DIMACS.  Expected answers come from the pure-Python
oracle in `setup`, which is untimed for the operations and timed once per
instance as the yardstick.  `check` returns why an output is wrong, or None.

Known defects of the measured program, worked around here rather than fixed:
- `cnotsat compile --width-cap 100 --uncompute` exits 2 at width 31, because
  `cost_model` calls `compile_auto` with its default cap of 24, so
  compile-wide drives the library functions instead of the CLI.
- `cnotsat verify --dimacs` ignores its input, so verify-corpus passes files.
- Width 24 is left out: the dense `sim.run` takes 11-16 s per operation there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cnotsat import circuit as circ
from cnotsat import cli, cnf

VERIFY_OK = "1/1 exact matches"


@dataclass
class Instance:
    formula: cnf.CnfFormula
    dimacs: str
    path: str
    expected: object
    oracle_s: float


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run `cnotsat.cli.main` in-process; return exit status and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            status = exc.code if isinstance(exc.code, int) else 2
    return status, out.getvalue()


def oracle(formula: cnf.CnfFormula) -> tuple[tuple[str, ...], float]:
    start = time.perf_counter()
    solutions = tuple(a.bitstring() for a in cnf.brute_force_solutions(formula))
    return solutions, time.perf_counter() - start


def check_solve(status: int, stdout: str, expected) -> str | None:
    if status != 0:
        return f"solve exited {status}"
    data = json.loads(stdout)
    if data["solutions"] != list(expected):
        return f"direct readout {data['solutions']} != oracle {list(expected)}"
    if data["spectral_solutions"] != list(expected):
        return f"spectral decode {data['spectral_solutions']} != oracle {list(expected)}"
    if data.get("paths_agree") is not True:
        return "paths_agree is not true"
    return None


def negative_labels(table: str) -> list[str]:
    """Sorted labels of the negative (TRUE-space) lines of a line table."""
    rows = (line.split() for line in table.splitlines())
    return sorted(label for _, amplitude, label in rows if float(amplitude) < 0)


class Workload:
    """Random k-SAT instances of the shapes `shape(i)` for i < pool."""

    name = ""
    # harness.PROBES parts that track this workload's speed on a drifting host
    probe_parts = ("loop", "alloc", "numpy")

    def __init__(self, pool: int):
        self.pool = pool

    def shape(self, i: int) -> tuple[int, int, int]:
        raise NotImplementedError

    def expect(self, formula: cnf.CnfFormula, seed: int) -> tuple[object, float]:
        """Expected answer and the oracle's time to produce it."""
        return oracle(formula)

    def setup(self, seed: int, tmp: Path) -> list[Instance]:
        self.tmp = tmp
        rng = random.Random(f"{self.name}:{seed}")
        instances = []
        for i in range(self.pool):
            n, m, k = self.shape(i)
            instance_seed = rng.getrandbits(32)
            formula = cnf.generate_random_ksat(n, m, k, instance_seed)
            text = cnf.to_dimacs(formula)
            path = tmp / f"{self.name}-{i}.cnf"
            path.write_text(text)
            expected, oracle_s = self.expect(formula, instance_seed)
            instances.append(Instance(formula, text, str(path), expected, oracle_s))
        return instances


class SolveDense(Workload):
    """`solve --via-spectrum` at width n+m+1 where the dense simulator dominates."""

    name = "solve-dense"

    def __init__(self, n=8, m=12, k=3, pool=24):
        super().__init__(pool)
        self.n, self.m, self.k = n, m, k

    def shape(self, i):
        return self.n, self.m, self.k

    def op(self, instance):
        return cli_call(
            ["solve", instance.path, "--via-spectrum", "--json", "--spin-system", "synthetic"]
        )

    def check(self, instance, output):
        return check_solve(*output, instance.expected)

    def view(self, output):
        return json.loads(output[1])["spectral_solutions"]


class DecodeWide(SolveDense):
    """`solve --via-spectrum` then `spectrum --trace` on the same formula: many
    lines, a narrow circuit, so matching and rendering dominate."""

    name = "decode-wide"

    def __init__(self, n=11, m=5, k=3, pool=24, points=20001):
        super().__init__(n, m, k, pool)
        self.points = points
        # The synthetic system puts its lines within +-20 Hz * (2^n - 1) / 2.
        half = 10.0 * ((1 << n) - 1) + 30.0
        self.grid = f"--grid={-half},{half},{points}"

    def op(self, instance):
        solved = super().op(instance)
        table = cli_call(
            ["spectrum", instance.path, "--spin-system", "synthetic",
             "--trace", str(self.tmp / "trace.csv"), self.grid]
        )
        return solved, table

    def check(self, instance, output):
        solved, (status, table) = output
        problem = check_solve(*solved, instance.expected)
        if problem:
            return problem
        if status != 0:
            return f"spectrum exited {status}"
        rows = [line.split() for line in table.splitlines()]
        if len(rows) != 1 << instance.formula.num_vars or any(r[2] == "?" for r in rows):
            return "line table does not label every configuration"
        negative = negative_labels(table)
        if negative != sorted(instance.expected):
            return f"negative lines {negative} != oracle {sorted(instance.expected)}"
        with open(self.tmp / "trace.csv") as handle:
            points = sum(1 for _ in handle)
        if points != self.points:
            return f"trace has {points} points, not {self.points}"
        return None

    def view(self, output):
        solved, (_, table) = output
        return {"spectral": super().view(solved), "negative_lines": negative_labels(table)}


class VerifyCorpus(Workload):
    """`verify FILE` over tiny formulas: per-call overhead dominates."""

    name = "verify-corpus"

    def __init__(self, pool=120):
        super().__init__(pool)

    def shape(self, i):
        # 120 = lcm(5, 8, 3): every (n, m) pair with every k the size allows,
        # including 1-SAT (k=1), single-clause (m=1) and the alanine presets
        # that `--spin-system auto` picks for n <= 3.
        n = 2 + i % 5
        return n, 1 + i % 8, 1 + i % min(3, n)

    def expect(self, formula, seed):
        _, oracle_s = oracle(formula)
        return VERIFY_OK, oracle_s

    def op(self, instance):
        return cli_call(["verify", instance.path])

    def check(self, instance, output):
        status, stdout = output
        if status != 0 or stdout.strip() != instance.expected:
            return f"verify exited {status}: {stdout.strip()!r}"
        return None

    def view(self, output):
        return output[1]


class CompileWide(Workload):
    """Library path parse -> compile -> uncompute -> peephole -> text on a
    wide formula: the circuit layer dominates."""

    name = "compile-wide"
    probe_parts = ("loop", "alloc")  # the operation calls no numpy

    def __init__(self, n=30, m=250, k=3, pool=8, samples=4096):
        super().__init__(pool)
        self.n, self.m, self.k, self.samples = n, m, k, samples
        self._passed: set = set()

    def shape(self, i):
        return self.n, self.m, self.k

    def expect(self, formula, seed):
        """Seeded random assignments and the formula's value on each."""
        rng = random.Random(seed)
        points = tuple(rng.getrandbits(formula.num_vars) for _ in range(self.samples))
        start = time.perf_counter()
        values = tuple(
            cnf.evaluate(formula, cnf.Assignment.from_index(a, formula.num_vars))
            for a in points
        )
        return (points, values), time.perf_counter() - start

    def op(self, instance):
        formula = cnf.parse_dimacs(instance.dimacs)
        width = formula.num_vars + formula.num_clauses + 1
        circuit = circ.compile_formula(formula, width_cap=width)
        circuit = circ.append_uncompute(circuit, formula)
        circuit = circ.peephole_cancel(circuit)
        return circuit, circ.circuit_to_text(circuit)

    def check(self, instance, output):
        circuit, text = output
        key = (text, instance.expected)
        if key in self._passed:  # the same text was already checked in full
            return None
        if circ.circuit_from_text(text) != circuit:
            return "circuit text does not round-trip"
        points, values = instance.expected
        # Python ints in an object array: wire indices run past 63.
        state = np.array([a << 1 for a in points], dtype=object)
        for gate in circuit.gates:
            state = circ.gate_permutation_indices(state, gate)
        for a, value, final in zip(points, values, state):
            # variables unchanged, work bit = F(a), every scratch wire back to 0
            if final != (a << 1) | value:
                return f"assignment {a:b} maps to basis state {final:b}"
        self._passed.add(key)
        return None

    def view(self, output):
        return hashlib.sha256(output[1].encode()).hexdigest()


WORKLOADS = {w.name: w for w in (SolveDense(), DecodeWide(), VerifyCorpus(), CompileWide())}
