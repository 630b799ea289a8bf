import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotsat import (
    Clause,
    CnfFormula,
    Literal,
    brute_force_solutions,
    circuit_from_text,
    circuit_to_text,
    compile_auto,
    generate_random_ksat,
    parse_dimacs,
    peephole_cancel,
    run,
    to_dimacs,
    true_space,
)
from cnotsat.cli import main
from conftest import PAPER_1SAT, PAPER_3SAT


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.cnf"
    path.write_text(PAPER_3SAT)
    return str(path)


class TestSolve:
    def test_paper_formula(self, paper_file, capsys):
        assert main(["solve", paper_file]) == 0
        out = capsys.readouterr().out
        assert "5 solutions: 010 011 101 110 111" in out

    def test_unsatisfiable(self, capsys):
        assert main(["solve", "--dimacs", "p cnf 1 2\n1 0\n-1 0"]) == 0
        assert "0 solutions (unsatisfiable)" in capsys.readouterr().out

    def test_worked_1sat(self, capsys):
        assert main(["solve", "--dimacs", PAPER_1SAT]) == 0
        assert "1 solution: 110" in capsys.readouterr().out

    def test_via_spectrum_agreement(self, paper_file, capsys):
        assert main(["solve", paper_file, "--via-spectrum"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_json_output(self, paper_file, capsys):
        assert main(["solve", paper_file, "--via-spectrum", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5
        assert data["paths_agree"] is True
        assert data["solutions"] == ["010", "011", "101", "110", "111"]

    def test_parse_error_exit_code(self, capsys):
        assert main(["solve", "--dimacs", "not dimacs"]) == 2
        assert "error" in capsys.readouterr().err

    def test_uncompute_flag(self, paper_file, capsys):
        assert main(["solve", paper_file, "--uncompute"]) == 0
        assert "5 solutions" in capsys.readouterr().out

    def test_width_24_via_spectrum_matches_oracle(self, capsys):
        formula = generate_random_ksat(12, 11, 3, seed=1)
        argv = ["solve", "--dimacs", to_dimacs(formula), "--via-spectrum", "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        oracle = [a.bitstring() for a in brute_force_solutions(formula)]
        assert data["solutions"] == data["spectral_solutions"] == oracle
        assert data["paths_agree"] is True


class TestCompile:
    def test_paper_counts(self, paper_file, capsys):
        assert main(["compile", paper_file]) == 0
        out = capsys.readouterr().out
        assert "elementary C-NOT: 21" in out
        assert "elementary single-qubit: 32" in out

    def test_unit_formula_single_gate(self, capsys):
        assert main(["compile", "--dimacs", "p cnf 1 1\n1 0", "--no-peephole"]) == 0
        out = capsys.readouterr().out
        assert "qbc 2 1 0" in out
        assert "mcx 1 0" in out

    def test_peephole_reduces_nots(self, paper_file, capsys):
        assert main(["compile", paper_file, "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["not_count_after_peephole"] < counts["not_count_before_peephole"]

    def test_writes_circuit_file(self, paper_file, tmp_path, capsys):
        out_path = tmp_path / "circuit.qbc"
        assert main(["compile", paper_file, "-o", str(out_path)]) == 0
        assert out_path.read_text().startswith("qbc 7 3 3")

    @pytest.mark.parametrize("extra", [[], ["--uncompute"]])
    def test_width_cap_above_default(self, extra, capsys):
        text = to_dimacs(generate_random_ksat(10, 23, 3, seed=4))
        assert main(["compile", "--dimacs", text, "--width-cap", "100"] + extra) == 0
        out = capsys.readouterr().out
        assert out.startswith("qbc 34 10 23")
        assert "elementary C-NOT: 201" in out  # 3(3m-2) at m=23


class TestSpectrum:
    def test_worked_1sat_table(self, capsys):
        assert main(
            ["spectrum", "--dimacs", PAPER_1SAT, "--spin-system", "alanine-4q"]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 8
        assert sum("-0.125" in row for row in rows) == 1

    def test_tautology_all_negative(self, capsys):
        assert main(
            ["spectrum", "--dimacs", "p cnf 1 1\n1 -1 0", "--spin-system", "alanine-3q"]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        assert all("-" in row.split()[1] for row in rows)

    def test_thermal_reference_all_positive(self, capsys):
        assert main(
            [
                "spectrum",
                "--dimacs",
                "p cnf 2 1\n1 2 0",
                "--thermal",
                "--spin-system",
                "alanine-3q",
            ]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 4
        assert all("+" in row for row in rows)

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(
            [
                "spectrum",
                "--dimacs",
                PAPER_1SAT,
                "--spin-system",
                "alanine-4q",
                "--trace",
                str(trace),
                "--grid=-130,130,501",
            ]
        ) == 0
        rows = trace.read_text().strip().splitlines()
        assert len(rows) == 501
        assert all("," in row for row in rows)

    def test_unresolvable_system_rejected(self, tmp_path, capsys):
        system = tmp_path / "bad.json"
        system.write_text(
            json.dumps(
                {
                    "names": ["W", "A", "B"],
                    "shifts": [0.0, 0.0, 0.0],
                    "observed": 0,
                    "couplings": [[0, 20, 20], [20, 0, 0], [20, 0, 0]],
                    "variable_qubits": ["A", "B"],
                }
            )
        )
        code = main(
            ["spectrum", "--dimacs", "p cnf 2 1\n1 2 0", "--spin-system", str(system)]
        )
        assert code == 2
        assert "not resolvable" in capsys.readouterr().err


class TestVerify:
    def test_corpus_passes(self, capsys):
        assert main(["verify", "--corpus", "25", "--seed", "3"]) == 0
        assert "25/25 exact matches" in capsys.readouterr().out

    def test_single_file(self, paper_file, capsys):
        assert main(["verify", paper_file]) == 0
        assert "1/1 exact matches" in capsys.readouterr().out

    def test_fault_injection_detected(self, paper_file, capsys):
        assert main(["verify", paper_file, "--inject-fault"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_inline_formula_is_checked(self, capsys):
        assert main(["verify", "--dimacs", PAPER_3SAT]) == 0
        assert "1/1 exact matches" in capsys.readouterr().out
        assert main(["verify", "--dimacs", PAPER_3SAT, "--inject-fault"]) == 1
        assert "FAIL --dimacs" in capsys.readouterr().out


class TestRandom:
    def test_deterministic_output(self, capsys):
        assert main(["random", "4", "5", "3", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["random", "4", "5", "3", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("p cnf 4 5")

    def test_round_trips_through_solve(self, tmp_path, capsys):
        path = tmp_path / "random.cnf"
        assert main(["random", "3", "4", "2", "--seed", "1", "-o", str(path)]) == 0
        assert main(["solve", str(path)]) == 0
        assert "solution" in capsys.readouterr().out


WIDE_UNIT = "p cnf 1 63\n" + "1 0\n" * 63  # width 65: past the int64 basis index
TWO_VARS = "p cnf 2 1\n1 -2 0\n"
SPIN_BASE = {  # resolvable for TWO_VARS; the observed spin is the last one
    "names": ["A", "B", "W"],
    "shifts": [0.0, 0.0, 0.0],
    "observed": "W",
    "couplings": [[0, 0, 20], [0, 0, 30], [20, 30, 0]],
    "variable_qubits": ["A", "B"],
}
BAD_SPIN_FILES = {
    "observed-5": {**SPIN_BASE, "observed": 5},
    "observed-neg": {**SPIN_BASE, "observed": -1},
    "qubit-7": {**SPIN_BASE, "variable_qubits": ["A", 7]},
    "observed-null": {**SPIN_BASE, "observed": None},
    "observed-float": {**SPIN_BASE, "observed": 2.9},
    "names-int": {**SPIN_BASE, "names": 3},
    "names-str": {**SPIN_BASE, "names": "ABW"},
    "shifts-str": {**SPIN_BASE, "shifts": "000"},
    "qubits-str": {**SPIN_BASE, "variable_qubits": "AB"},
    "scratch-str": {**SPIN_BASE, "scratch_qubits": "A"},
    "scratch-coupled": {**SPIN_BASE, "scratch_qubits": ["A"]},
    "list": [SPIN_BASE],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/t.csv", "--grid=a,b,c"],
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/t.csv", "--grid=1,0,9"],
        ["compile", "--dimacs", PAPER_3SAT, "-o", "{tmp}/missing/c.qbc"],
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/missing/t.csv"],
        ["random", "3", "2", "2", "-o", "{tmp}/missing/r.cnf"],
        ["verify", "--dimacs", "p cnf 25 1\n1 2 0"],
        ["solve", "--dimacs", WIDE_UNIT, "--width-cap", "100"],
        ["compile", "--width-cap", "3", "--dimacs", "p cnf 5 1\n1 2 0"],
        ["compile", "--width-cap", "3", "--dimacs", "p cnf 5 2\n1 0\n3 0"],
        *(
            ["spectrum", "--dimacs", TWO_VARS, "--spin-system", f"{{tmp}}/{name}.json"]
            for name in BAD_SPIN_FILES
        ),
        ["solve", "--dimacs", PAPER_3SAT, "--via-spectrum", "--min-separation", "0"],
        ["spectrum", "--dimacs", PAPER_3SAT, "--min-separation=-1"],
    ],
    ids=[
        "grid",
        "grid-order",
        "compile-o",
        "trace",
        "random-o",
        "verify-n25",
        "width-65",
        "compile-cap-clause",
        "compile-cap-units",
        *(f"spin-{name}" for name in BAD_SPIN_FILES),
        "solve-min-sep-0",
        "spectrum-min-sep-neg",
    ],
)
def test_failures_exit_2_with_one_line(argv, tmp_path, capsys):
    for name, doc in BAD_SPIN_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dimacs", PAPER_3SAT, "--width-cap", "5"], "width 7 exceeds cap 5"),
        (["--dimacs", TWO_VARS, "--spin-system", "{tmp}/flat.json"], "resolvable"),
    ],
    ids=["width-cap", "unresolvable"],
)
def test_verify_input_errors_exit_2(argv, message, tmp_path, capsys):
    flat = {**SPIN_BASE, "couplings": [[0, 0, 20], [0, 0, 20], [20, 20, 0]]}
    (tmp_path / "flat.json").write_text(json.dumps(flat))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--dimacs", PAPER_3SAT, "--linewidth", "2"],
        ["solve", "--dimacs", PAPER_3SAT, "--grid=-1,1,9"],
        ["verify", "--dimacs", PAPER_3SAT, "--linewidth", "2"],
        ["verify", "--dimacs", PAPER_3SAT, "--grid=-1,1,9"],
        ["verify", "--dimacs", PAPER_3SAT, "--json"],
    ],
    ids=[
        "solve-linewidth",
        "solve-grid",
        "verify-linewidth",
        "verify-grid",
        "verify-json",
    ],
)
def test_unread_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def call(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    return status, out.getvalue()


@st.composite
def formulas(draw) -> CnfFormula:
    """Formulas with n in 0..6: unit-clause conjunctions, single clauses,
    tautologies, repeated literals, no clauses at all and empty clauses."""
    n = draw(st.integers(0, 6))
    literal = st.builds(Literal, st.integers(1, max(n, 1)), st.booleans())
    clause = st.lists(literal, max_size=4 if n else 0).map(
        lambda lits: Clause(tuple(lits))
    )
    clauses = draw(
        st.one_of(
            st.lists(clause, max_size=5),
            st.lists(literal.map(lambda l: Clause((l,))), max_size=n),
            clause.map(lambda c: [c]),
        )
    )
    return CnfFormula(n, tuple(clauses))


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_subcommands_agree_with_oracle(formula):
    text = to_dimacs(formula)
    formula = parse_dimacs(text)  # the formula every subcommand reads
    oracle = [a.bitstring() for a in brute_force_solutions(formula)]

    status, out = call(["solve", "--dimacs", text, "--via-spectrum", "--json"])
    data = json.loads(out)
    assert status == 0
    assert data["solutions"] == data["spectral_solutions"] == oracle

    assert call(["verify", "--dimacs", text]) == (0, "1/1 exact matches\n")

    for extra in ([], ["--uncompute"]):
        status, out = call(["compile", "--dimacs", text, "--no-peephole"] + extra)
        assert status == 0
        circuit = circuit_from_text(out.split("mcx gates:")[0])
        state = run(circuit)
        assert list(true_space(state, circuit.layout).bitstrings()) == oracle
        if extra:
            scratch = sum(1 << w for w in circuit.layout.scratch_wires)
            assert not np.any(state.indices & scratch)

    status, out = call(["compile", "--dimacs", text])
    assert status == 0
    expected = circuit_to_text(peephole_cancel(compile_auto(formula)))
    assert out.split("mcx gates:")[0] == expected


GOLDEN_N11 = "p cnf 11 5\n2 6 9 0\n-4 9 10 0\n-8 10 -11 0\n1 2 8 0\n-4 5 -7 0\n"
GOLDEN_SHA256 = {
    "solve --via-spectrum --json": (
        "388451ae007732f9bb26b2db477a005bf59a215fe2c99069814be48365fdff87"
    ),
    "spectrum table": "a1bc95d36640cd2cd377b62dc8b0a56d06214e908b581e49d9fdbdb18de6f875",
    "spectrum --trace": "f1fb311a94d92288974e028fe754e22b63f97950edb5a76b2cf414b0a30d879f",
}


def test_readout_bytes_are_pinned(tmp_path):
    """Every byte of the n=11 readout (2048 lines, 1108 solutions) on the
    synthetic system, pinned by SHA-256; only elapsed_s is left out."""
    synthetic = ["--dimacs", GOLDEN_N11, "--spin-system", "synthetic"]
    status, solved = call(["solve", "--via-spectrum", "--json", *synthetic])
    assert status == 0
    solved = re.sub(r',\n  "elapsed_s": [^\n]*', "", solved)
    trace = tmp_path / "trace.csv"
    grid = "--grid=-20500,20500,4001"
    status, table = call(["spectrum", *synthetic, "--trace", str(trace), grid])
    assert status == 0
    outputs = {
        "solve --via-spectrum --json": solved.encode(),
        "spectrum table": table.encode(),
        "spectrum --trace": trace.read_bytes(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_SHA256
