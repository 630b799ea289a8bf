"""Each byte count that sim.check_bytes tests against sim.MAX_BYTES is at
least the tracemalloc peak of what it counts.  The sizes are small but past
the fixed overheads (n = 14, 20001 grid points; n = 16 for the state,
whose count is in rows of 2^n / 8 bytes), so an undercount fails."""

import contextlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from cnotsat import cli, sim, spectrum as spec
from cnotsat.circuit import QubitLayout, compile_auto
from cnotsat.cnf import generate_random_ksat, to_dimacs

N = 14
POINTS = 20001


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates over what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def counted(fn) -> int:
    """The bytes that fn's own check counts, read from the refusal it gives
    under a bound of zero."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "MAX_BYTES", 0)
        with pytest.raises(ValueError, match="over the 0-byte bound") as exc:
            fn()
    return int(re.search(r"needs (\d+) bytes", str(exc.value)).group(1))


def quiet_main(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def state_bytes(width: int, n: int) -> int:
    return counted(lambda: sim.initial_mixed_state(QubitLayout(n, width - n - 1)))


@pytest.fixture(autouse=True)
def warm_parser():
    quiet_main(["random", "1", "1", "1"])  # the parser is built on first use


@pytest.mark.parametrize("n", [16, 20])  # rows of 8 KiB and up, past overheads
def test_state_and_readout(n):
    circuit = compile_auto(generate_random_ksat(n, round(4.26 * n), 3, seed=1))

    def simulate_and_read():
        sim.true_space(sim.run(circuit), circuit.layout)

    width = circuit.layout.width
    assert counted(simulate_and_read) == (width + n + 1) << (n - 3)
    assert traced_peak(simulate_and_read) <= counted(simulate_and_read)


def test_table_and_the_multiplet_beside_it():
    circuit = compile_auto(generate_random_ksat(N, 3, 3, seed=1))
    state = sim.run(circuit)
    system = spec.synthetic_system(N)
    assert counted(lambda: spec._positions(system, N)) == spec.TABLE_BYTES << N
    assert traced_peak(lambda: spec._positions(spec.synthetic_system(N), N)) <= (
        spec.TABLE_BYTES << N
    )
    # the table is built inside the multiplet's own peak here
    multiplet = lambda: spec.multiplet_lines(state, circuit.layout, system)
    assert traced_peak(multiplet) <= spec.TABLE_BYTES << N


@pytest.mark.parametrize("scale", [1.0, 1e250], ids=["synthetic", "wide-fields"])
def test_line_table_text(scale):
    system = spec.synthetic_system(N)
    thermal = spec.thermal_reference(system, N)
    lines = spec.Multiplet(thermal.frequencies * scale, thermal.amplitudes)

    def table():
        spec.line_table(lines, system, N)

    assert traced_peak(table) <= counted(table)


@pytest.mark.parametrize("half", [20500.0, 1e150], ids=["decode-wide", "wide-fields"])
def test_render_and_trace_csv(half):
    lines = spec.thermal_reference(spec.synthetic_system(3), 3)

    def trace():
        spec.trace_csv(*spec.render(lines, -half, half, POINTS, 1.0))

    assert traced_peak(trace) <= spec.trace_bytes(-half, half, POINTS)
    assert counted(lambda: spec.render(lines, -half, half, POINTS, 1.0)) == (
        spec.RENDER_BYTES * POINTS
    )
    freqs, values = spec.render(lines, -half, half, POINTS, 1.0)
    csv = lambda: spec.trace_csv(freqs, values)
    assert traced_peak(csv) <= counted(csv)
    assert counted(csv) == spec.trace_bytes(-half, half, POINTS) - counted(
        lambda: spec.render(lines, -half, half, POINTS, 1.0)
    )


def spin_file(tmp_path, base_j: float) -> str:
    """The synthetic system's couplings times base_j / 20, as a file."""
    system = spec.synthetic_system(N, base_j)
    doc = {
        "names": list(system.names),
        "shifts": list(system.shifts),
        "observed": system.observed,
        "couplings": [list(row) for row in system.couplings],
        "variable_qubits": list(system.qubit_spins),
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "base_j, json_out",
    [(20.0, False), (20.0, True), (1.2345678901234567e290, True)],
    ids=["table", "json", "json-wide"],  # 23-character reprs; the widest are 24
)
def test_spectrum_output_beside_the_table(base_j, json_out, tmp_path):
    formula = generate_random_ksat(N, 3, 3, seed=2)
    argv = ["spectrum", "--dimacs", to_dimacs(formula), "--spin-system"]
    argv += [spin_file(tmp_path, base_j)] + ["--json"] * json_out
    per_line = cli.JSON_LINE_BYTES if json_out else spec.line_text_bytes(N)
    state = state_bytes(compile_auto(formula).layout.width, N)
    assert traced_peak(lambda: quiet_main(argv)) <= (
        state + ((spec.TABLE_BYTES + per_line) << N)
    )


@pytest.mark.parametrize("via_spectrum", [False, True], ids=["solve", "via-spectrum"])
@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_solution_lists(via_spectrum, json_out):
    tautology = f"p cnf {N} 1\n1 -1 0\n"  # every assignment is a solution
    argv = ["solve", "--dimacs", tautology, "--spin-system", "synthetic"]
    argv += ["--via-spectrum"] * via_spectrum + ["--json"] * json_out
    assert quiet_main(argv) == 0
    listed = (1 + via_spectrum) << N
    expected = state_bytes(N + 2, N) + listed * cli._solution_bytes(N)
    expected += (spec.TABLE_BYTES << N) * via_spectrum
    assert traced_peak(lambda: quiet_main(argv)) <= expected


def test_solution_list_is_checked_before_formatting(monkeypatch, capsys):
    monkeypatch.setattr(sim.SolutionReport, "bitstrings", None)  # never reached
    per_solution = cli._solution_bytes(2)
    monkeypatch.setattr(sim, "MAX_BYTES", 4 * per_solution - 1)
    assert cli.main(["solve", "--dimacs", "p cnf 2 1\n1 -1 0\n"]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: a list of 4 solutions needs {4 * per_solution} bytes, "
        f"over the {4 * per_solution - 1}-byte bound\n",
    )


def test_huge_powers_of_two_are_named_not_built():
    with pytest.raises(ValueError, match=r"needs 32 x 2\^65 bytes"):
        sim.check_bytes("a table", 32, 65)
    with pytest.raises(ValueError, match=r"needs 1180591620717411303424 bytes"):
        sim.check_bytes("a table", 64, 64)
    sim.check_bytes("nothing", 0, 10**12)
    sim.check_bytes("the bound itself", 1, 30)
    with pytest.raises(ValueError, match="needs 2147483648 bytes, over the 1073741824"):
        sim.check_bytes("one past", 1, 31)


def test_dense_view_is_its_own_size():
    state = sim.run(compile_auto(generate_random_ksat(10, 12, 3, seed=3)))
    view = lambda: state.populations
    assert counted(view) == 8 << state.width
    # its column index and weights add 16 bytes per assignment, and a few
    # hundred bytes of interpreter objects
    assert traced_peak(view) <= (8 << state.width) + (16 << 10) + 1024
    assert np.sum(state.populations) == 1.0
