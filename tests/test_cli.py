import contextlib
import hashlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cnotsat import (
    Clause,
    CnfFormula,
    DimacsError,
    Literal,
    Mcx,
    brute_force_solutions,
    circuit_from_text,
    circuit_to_text,
    compile_auto,
    cost_model,
    generate_random_ksat,
    parse_dimacs,
    peephole_cancel,
    run,
    to_dimacs,
    true_space,
)
from cnotsat import cli
from cnotsat.circuit import circuit_census
from cnotsat.cli import main
from conftest import PAPER_1SAT, PAPER_3SAT
import reference_front_end


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

    def test_width_64_via_spectrum_matches_oracle(self, capsys):
        formula = generate_random_ksat(12, 51, 3, seed=7)
        argv = ["solve", "--dimacs", to_dimacs(formula), "--via-spectrum", "--json"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        oracle = [a.bitstring() for a in brute_force_solutions(formula)]
        assert data["solutions"] == data["spectral_solutions"] == oracle
        assert data["paths_agree"] is True

    def test_wide_unit_conjunction(self, capsys):
        assert main(["solve", "--dimacs", WIDE_UNIT]) == 0
        assert capsys.readouterr().out == "1 solution: 1\n"


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
        assert main(["compile", "--dimacs", text] + extra) == 0
        out = capsys.readouterr().out
        assert out.startswith("qbc 34 10 23")
        assert "elementary C-NOT: 201" in out  # 3(3m-2) at m=23

    @pytest.mark.parametrize(
        "text", [PAPER_3SAT, "p cnf 3 2\n1 2 3 0\n-1 2 0\n"], ids=["paper", "two"]
    )
    @pytest.mark.parametrize(
        "extra", [[], ["--uncompute"]], ids=["forward", "uncompute"]
    )
    def test_counts_the_printed_circuit(self, text, extra, capsys):
        argv = ["compile", "--dimacs", text, "--no-peephole"] + extra
        assert main(argv) == 0
        out = capsys.readouterr().out
        mcx, nots = circuit_census(circuit_from_text(out.split("mcx gates:")[0]))
        arities = " ".join(f"C{k}-NOT: {v}" for k, v in sorted(mcx.items()))
        assert f"mcx gates: {arities}\nnot gates: {nots}\n" in out
        assert out.endswith(f"(before: {nots})\n")
        forward = cost_model(parse_dimacs(text))
        assert f"elementary C-NOT: {forward.elementary_cnot}\n" in out
        assert main(argv + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        clause_lines = text.splitlines()[1:]  # no repeated literals
        literals = sum(len(line.split()) - 1 for line in clause_lines)
        assert doc["formula"] == {"clauses": len(clause_lines), "literals": literals}
        counts = doc["counts"]
        assert counts["mcx_by_arity"] == {str(k): v for k, v in mcx.items()}
        assert counts["not_count"] == counts["not_count_before_peephole"] == nots
        assert counts["elementary_single"] == forward.elementary_single

    @pytest.mark.parametrize("shape", ["30 250 3", "8 12 3"])
    def test_uncomputed_circuit_matches_the_reference(self, shape, tmp_path, capsys):
        assert main(["random", *shape.split(), "--seed", "1"]) == 0
        text = capsys.readouterr().out
        formula = parse_dimacs(text)
        width = formula.num_vars + formula.num_clauses + 1
        forward = reference_front_end.compile_formula(formula, width)
        expected = peephole_cancel(reference_front_end.append_uncompute(forward, formula))
        out_path = tmp_path / "circuit.qbc"
        assert main(["compile", "--dimacs", text, "--uncompute", "-o", str(out_path)]) == 0
        assert out_path.read_text() == reference_front_end.circuit_to_text(expected)
        capsys.readouterr()
        assert main(["compile", "--dimacs", text, "--json", "--uncompute"]) == 0
        doc = json.loads(capsys.readouterr().out)["circuit"]
        assert doc["gates"] == [
            {"gate": "mcx", "controls": sorted(gate.controls), "target": gate.target}
            if isinstance(gate, Mcx)
            else {"gate": "x", "target": gate.target}
            for gate in expected.gates
        ]
        assert (doc["width"], doc["num_vars"], doc["num_scratch"]) == (
            width,
            formula.num_vars,
            formula.num_clauses,
        )


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

    @pytest.mark.parametrize(
        "extra",
        [["--grid=-1e200,1e200,5"], ["--spin-system", "{tmp}/far.json"]],
        ids=["far-grid", "far-lines"],
    )
    def test_trace_far_from_every_line_is_zero_and_silent(self, extra, tmp_path, capsys):
        """A grid point more than about 1.3e154 Hz from a line squares its
        distance to inf: the term is 0, and no overflow warning is printed."""
        system = {  # lines at +-5e307 Hz, far outside the default grid
            "names": ["W", "A"],
            "shifts": [0.0, 0.0],
            "observed": 0,
            "couplings": [[0, 1e308], [1e308, 0]],
            "variable_qubits": ["A"],
        }
        (tmp_path / "far.json").write_text(json.dumps(system))
        trace = tmp_path / "t.csv"
        argv = ["spectrum", "--dimacs", "p cnf 1 1\n1 0", "--trace", str(trace)]
        argv += [arg.replace("{tmp}", str(tmp_path)) for arg in extra]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        values = [float(row.split(",")[1]) for row in trace.read_text().splitlines()]
        assert values and all(value == 0 for value in values)


class TestVerify:
    def test_corpus_passes(self, capsys):
        assert main(["verify", "--corpus", "25", "--seed", "3"]) == 0
        assert "25/25 exact matches" in capsys.readouterr().out

    def test_single_file(self, paper_file, capsys):
        assert main(["verify", paper_file]) == 0
        assert "1/1 exact matches" in capsys.readouterr().out

    def test_fault_injection_detected(self, paper_file, capsys):
        assert main(["verify", paper_file, "--inject-fault"]) == 1
        assert capsys.readouterr().out == (
            f"FAIL {paper_file}: direct readout ('000', '001', '100') != oracle "
            "('010', '011', '101', '110', '111')\n"
        )

    def test_inline_formula_is_checked(self, capsys):
        assert main(["verify", "--dimacs", PAPER_3SAT]) == 0
        assert "1/1 exact matches" in capsys.readouterr().out
        assert main(["verify", "--dimacs", PAPER_3SAT, "--inject-fault"]) == 1
        assert "FAIL --dimacs" in capsys.readouterr().out


class TestParserReuse:
    """main() parses with one parser per process; no call sees another's
    arguments or defaults."""

    def test_verify_defaults_do_not_leak_into_solve(self, paper_file):
        assert call(["verify", paper_file]) == (0, "1/1 exact matches\n")
        status, out = call(["solve", paper_file, "--json"])
        assert status == 0
        data = json.loads(out)
        assert "spectral_solutions" not in data and "paths_agree" not in data

    def test_json_flag_does_not_leak(self, paper_file):
        status, out = call(["solve", paper_file, "--json"])
        assert status == 0 and json.loads(out)["count"] == 5
        assert call(["solve", paper_file]) == (
            0,
            "5 solutions: 010 011 101 110 111\n",
        )

    def test_usage_error_then_good_call(self, paper_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", paper_file, "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["solve", paper_file]) == 0
        assert capsys.readouterr().out == "5 solutions: 010 011 101 110 111\n"

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()


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


WIDE_UNIT = "p cnf 1 63\n" + "1 0\n" * 63  # width 65: past an int64 basis index
TWO_VARS = "p cnf 2 1\n1 -2 0\n"
NEAR_TWINS = "p cnf 2 1\n1 2 0\n"
# One run per byte count past sim.MAX_BYTES: (subcommand and flags, input).
# Each is refused before it allocates; a spectral run before anything is
# simulated and before its spin system is built.
OVER_BOUND = {
    "state": ("solve", "p cnf 40 1\n1 0"),
    "table": ("spectrum", "p cnf 40 1\n1 0"),
    "table-n100": ("spectrum", "p cnf 100 1\n1 0"),
    "table-via-spectrum": ("solve --via-spectrum", "p cnf 26 1\n1 0"),
    "line-text": ("spectrum", "p cnf 22 1\n1 0"),
    "json-lines": ("spectrum --json", "p cnf 21 1\n1 0"),
    "trace": ("spectrum --trace {tmp}/t.csv --grid=-1,1,1000000000000000", PAPER_1SAT),
    "solutions": ("solve", "p cnf 23 1\n1 -1 0"),  # a tautology: 2^23 solutions
    "n-1e12-solve": ("solve", "p cnf 1000000000000 1\n1 0"),
    "n-1e12-spectrum": ("spectrum", "p cnf 1000000000000 1\n1 0"),
}
SIMULATED_OVER_BOUND = ("state", "solutions", "n-1e12-solve")
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
    "unknown-name": {**SPIN_BASE, "observed": "Z"},
    # valid JSON integers past float range
    "coupling-huge-int": {
        **SPIN_BASE,
        "couplings": [[0, 0, 20], [0, 0, 10**400], [20, 10**400, 0]],
    },
    "shift-huge-int": {**SPIN_BASE, "shifts": [0, -(10**400), 0]},
}
UNDECODABLE_SPIN_FILES = {  # resolvable by line gaps alone, yet not decodable
    "infinite": {  # one variable coupled by Infinity: lines at -inf and +inf
        "names": ["A", "W"],
        "shifts": [0.0, 0.0],
        "observed": "W",
        "couplings": [[0, float("inf")], [float("inf"), 0]],
        "variable_qubits": ["A"],
    },
    "merging": {  # lines 5e-10 Hz apart, inside MERGE_TOL_HZ
        **SPIN_BASE,
        "couplings": [[0, 0, 20], [0, 0, 20.0000000005], [20, 20.0000000005, 0]],
    },
}
UNDECODABLE_ARGS = {
    "infinite": ["--dimacs", "p cnf 1 1\n1 0\n"],
    "merging": ["--dimacs", NEAR_TWINS, "--min-separation", "1e-10"],
}


NON_FINITE_TRACE_SETTINGS = {
    "grid-nan": ["--grid=nan,1,5"],
    "grid-inf": ["--grid=0,inf,5"],
    "linewidth-nan": ["--linewidth", "nan"],
    "linewidth-inf": ["--linewidth", "inf"],
    # finite, but the square or the span leaves float range
    "linewidth-square-overflow": ["--linewidth", "1e200"],
    "linewidth-square-underflow": ["--linewidth", "1e-200", "--grid=-17.47,17.47,3"],
    "grid-span-overflow": ["--grid=-1e308,1e308,5"],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/t.csv", "--grid=a,b,c"],
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/t.csv", "--grid=1,0,9"],
        *(
            ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/t.csv", *setting]
            for setting in NON_FINITE_TRACE_SETTINGS.values()
        ),
        ["compile", "--dimacs", PAPER_3SAT, "-o", "{tmp}/missing/c.qbc"],
        ["spectrum", "--dimacs", PAPER_1SAT, "--trace", "{tmp}/missing/t.csv"],
        ["random", "3", "2", "2", "-o", "{tmp}/missing/r.cnf"],
        ["verify", "--dimacs", "p cnf 25 1\n1 2 0"],
        ["verify", "--corpus", "0"],
        *([*command.split(), "--dimacs", text] for command, text in OVER_BOUND.values()),
        *(
            ["spectrum", "--dimacs", TWO_VARS, "--spin-system", f"{{tmp}}/{name}.json"]
            for name in BAD_SPIN_FILES
        ),
        ["solve", "--dimacs", PAPER_3SAT, "--via-spectrum", "--min-separation", "0"],
        ["spectrum", "--dimacs", PAPER_3SAT, "--min-separation=-1"],
        ["solve", "--dimacs", PAPER_3SAT, "--via-spectrum", "--min-separation", "nan"],
        ["verify", "--dimacs", ""],
        ["solve", "--dimacs", ""],
        ["verify", ""],
        *(
            [command, *UNDECODABLE_ARGS[name], "--spin-system", f"{{tmp}}/{name}.json"]
            for name in UNDECODABLE_SPIN_FILES
            for command in ("solve --via-spectrum", "spectrum", "verify")
        ),
    ],
    ids=[
        "grid",
        "grid-order",
        *NON_FINITE_TRACE_SETTINGS,
        "compile-o",
        "trace",
        "random-o",
        "verify-n25",
        "verify-corpus-0",
        *(f"bound-{name}" for name in OVER_BOUND),
        *(f"spin-{name}" for name in BAD_SPIN_FILES),
        "solve-min-sep-0",
        "spectrum-min-sep-neg",
        "solve-min-sep-nan",
        "verify-empty-dimacs",
        "solve-empty-dimacs",
        "verify-empty-path",
        *(
            f"{command.split()[0]}-{name}"
            for name in UNDECODABLE_SPIN_FILES
            for command in ("solve --via-spectrum", "spectrum", "verify")
        ),
    ],
)
def test_failures_exit_2_with_one_line(argv, tmp_path, capsys, monkeypatch):
    # an empty --dimacs or input path is the input: neither stdin nor
    # verify's corpus
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1 1\n1 0\n"))
    for name, doc in {**BAD_SPIN_FILES, **UNDECODABLE_SPIN_FILES}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    argv = argv[0].split() + argv[1:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", OVER_BOUND)
def test_over_bound_names_the_bytes_before_allocating(name, tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("reached past the byte check")

    monkeypatch.setattr(cli.spec, "synthetic_system", unreachable)
    if name not in SIMULATED_OVER_BOUND:
        monkeypatch.setattr(cli.sim, "run", unreachable)
    command, text = OVER_BOUND[name]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command.split()]
    assert main([*argv, "--dimacs", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        r"error: (simulation error: )?[^\n]+ needs [0-9]+( x 2\^[0-9]+)? bytes, "
        r"over the 1073741824-byte bound\n",
        err,
    )
    assert "min-separation" not in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["solve --via-spectrum", "spectrum", "verify"])
def test_only_the_min_separation_check_carries_its_label(command, capsys, monkeypatch):
    def refuse(system, n, min_separation):
        raise ValueError("line-position table at n=2 needs 128 bytes")

    monkeypatch.setattr(cli.spec, "check_resolvable", refuse)
    assert main([*command.split(), "--dimacs", TWO_VARS]) == 2
    assert capsys.readouterr().err == "error: line-position table at n=2 needs 128 bytes\n"
    argv = [*command.split(), "--dimacs", TWO_VARS, "--min-separation", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad --min-separation: ")


@pytest.mark.parametrize("command", ["solve --via-spectrum", "spectrum", "verify"])
def test_bad_spin_files_name_the_fault(command, tmp_path, capsys):
    for name, fault in (
        ("unknown-name", "unknown spin name 'Z'"),
        ("coupling-huge-int", "'couplings[1]' holds an integer too large for a float"),
        ("shift-huge-int", "'shifts' holds an integer too large for a float"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(BAD_SPIN_FILES[name]))
        argv = [*command.split(), "--dimacs", TWO_VARS, "--spin-system", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad spin-system file {str(path)!r}: {fault}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["spectrum", "--trace", "{tmp}/t.csv", "--grid=-inf,1,5"],
            "cannot render trace: grid bounds must be finite",
        ),
        (
            ["spectrum", "--trace", "{tmp}/t.csv", "--linewidth", "nan"],
            "cannot render trace: linewidth must be finite",
        ),
        (
            ["spectrum", "--trace", "{tmp}/t.csv", "--grid=-1e308,1e308,5"],
            "cannot render trace: grid span must be finite",
        ),
        (
            ["spectrum", "--trace", "{tmp}/t.csv", "--linewidth", "1e200"],
            "cannot render trace: linewidth squared must be finite and nonzero",
        ),
        (
            ["spectrum", "--trace", "{tmp}/t.csv", "--linewidth", "1e-200"],
            "cannot render trace: linewidth squared must be finite and nonzero",
        ),
        (
            ["solve", "--via-spectrum", "--min-separation", "nan"],
            "bad --min-separation: min_separation must be positive",
        ),
    ],
    ids=[
        "grid",
        "linewidth",
        "grid-span",
        "linewidth-square-overflow",
        "linewidth-square-underflow",
        "min-separation",
    ],
)
def test_non_finite_settings_are_named(argv, message, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv + ["--dimacs", PAPER_1SAT]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.fixture
def compile_calls(monkeypatch):
    """Count the calls to circuit.compile_auto, from the CLI and the library."""
    calls = [0]
    inner = cli.circ.compile_auto

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli.circ, "compile_auto", counted)
    return calls


@pytest.mark.parametrize(
    "setting", NON_FINITE_TRACE_SETTINGS.values(), ids=NON_FINITE_TRACE_SETTINGS
)
def test_trace_settings_fail_before_any_output(
    setting, tmp_path, capsys, compile_calls
):
    argv = ["spectrum", "--dimacs", PAPER_1SAT, "--trace", str(tmp_path / "t.csv")]
    assert main(argv + setting) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot render trace: ")
    assert compile_calls == [0]


@pytest.mark.parametrize("extra", [[], ["--uncompute"], ["--json"], ["--no-peephole"]])
def test_compile_compiles_once(extra, capsys, compile_calls):
    assert main(["compile", "--dimacs", PAPER_3SAT] + extra) == 0
    assert compile_calls == [1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dimacs", TWO_VARS, "--spin-system", "{tmp}/flat.json"], "resolvable"),
    ],
    ids=["unresolvable"],
)
def test_verify_input_errors_exit_2(argv, message, tmp_path, capsys):
    flat = {**SPIN_BASE, "couplings": [[0, 0, 20], [0, 0, 20], [20, 20, 0]]}
    (tmp_path / "flat.json").write_text(json.dumps(flat))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_verify_over_bound_exits_2(capsys, monkeypatch):
    # verify's oracle stops at 24 variables, below every default bound
    monkeypatch.setattr(cli.sim, "MAX_BYTES", 200)
    assert main(["verify", "--dimacs", PAPER_3SAT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line-position table at n=3 needs 256 bytes, over the 200-byte bound\n"
    )


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
            scratch = state.planes[list(circuit.layout.scratch_wires)]
            count = 1 << formula.num_vars
            bits = np.unpackbits(scratch, axis=1, count=count, bitorder="little")
            assert not bits.any()

    status, out = call(["compile", "--dimacs", text])
    assert status == 0
    expected = circuit_to_text(peephole_cancel(compile_auto(formula)))
    assert out.split("mcx gates:")[0] == expected


SOUP = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["0", "p", "cnf", "c", "%", "x", "1.5", "--2", "+1", "٣", "\t"]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)


BAD_HEADERS = ["p cnf", "p cnf x 1", "p dnf 2 1", "p cnf 2 -1", "pcnf"]
DIMACS_FAULTS = ["soup", "bad header", "duplicate header", "range", "unterminated", "count"]
SUBCOMMANDS = [["solve"], ["solve", "--via-spectrum"], ["compile"], ["spectrum"], ["verify"]]


@st.composite
def malformed_dimacs(draw) -> str:
    """A well-formed random formula with one fault: a line of token soup, a
    bad or duplicate header, an out-of-range literal, a clause left
    unterminated or a clause count that does not match."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 999))
    lines = to_dimacs(generate_random_ksat(n, m, draw(st.integers(1, n)), seed)).splitlines()
    body = draw(st.integers(1, len(lines)))  # a place after the header
    fault = draw(st.sampled_from(DIMACS_FAULTS))
    if fault == "soup":
        soup = " ".join(draw(st.lists(SOUP, min_size=1, max_size=5)))
        lines.insert(draw(st.integers(0, len(lines))), soup)
    elif fault == "bad header":
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    elif fault == "duplicate header":
        lines.insert(body, lines[0])
    elif fault == "range":
        var = n + draw(st.integers(1, 9))
        lines.insert(body, f"{draw(st.sampled_from([var, -var]))} 0")
    elif fault == "unterminated":
        clause = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
        lines.append(" ".join(map(str, clause)))
    else:
        lines[0] = f"p cnf {n} {m + draw(st.sampled_from([-1, 1, 5]))}"
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=60, deadline=None)
@given(malformed_dimacs())
def test_malformed_dimacs_exits_2_with_the_parse_error(text):
    """Each subcommand that reads DIMACS names the reference parser's error
    on one stderr line and exits 2."""
    try:
        reference_front_end.parse_dimacs(text)
    except DimacsError as exc:
        expected = f"error: parse error: {exc}\n"
    else:
        assume(False)  # the fault left a valid formula (e.g. an empty soup line)
    for command in SUBCOMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*command, f"--dimacs={text}"])
        assert (status, out.getvalue(), err.getvalue()) == (2, "", expected)


GOLDEN_N11 = "p cnf 11 5\n2 6 9 0\n-4 9 10 0\n-8 10 -11 0\n1 2 8 0\n-4 5 -7 0\n"
GOLDEN_SHA256 = {
    "solve --via-spectrum --json": (
        "388451ae007732f9bb26b2db477a005bf59a215fe2c99069814be48365fdff87"
    ),
    "spectrum table": "a1bc95d36640cd2cd377b62dc8b0a56d06214e908b581e49d9fdbdb18de6f875",
    "spectrum --trace": "f1fb311a94d92288974e028fe754e22b63f97950edb5a76b2cf414b0a30d879f",
    "spectrum --json": (
        "6184e5fdbd71110d8427a55c121dfb9294f85ea07876230e5b76e385012f8f6a"
    ),
    "spectrum --thermal": (
        "4a627e5855cc6e14cc0219b90fa92df6ad810a0e4dc9ad7ce804dd89d56eff81"
    ),
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
    status, lines_json = call(["spectrum", *synthetic, "--json"])
    assert status == 0
    status, thermal = call(["spectrum", *synthetic, "--thermal"])
    assert status == 0
    outputs = {
        "solve --via-spectrum --json": solved.encode(),
        "spectrum table": table.encode(),
        "spectrum --trace": trace.read_bytes(),
        "spectrum --json": lines_json.encode(),
        "spectrum --thermal": thermal.encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_SHA256
