import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotsat import (
    Assignment,
    DegenerateMultipletError,
    QubitLayout,
    SolutionReport,
    SpectrumLine,
    SpinSystem,
    SpinSystemError,
    alanine_3q,
    alanine_4q,
    brute_force_solutions,
    check_resolvable,
    compile_1sat,
    compile_formula,
    extract_solutions,
    initial_mixed_state,
    load_spin_system,
    multiplet_lines,
    parse_dimacs,
    render,
    run,
    synthetic_system,
    thermal_reference,
)
from cnotsat.spectrum import (
    _check_variable_spins,
    config_frequencies,
    config_frequency,
    default_match_tolerance,
    line_table,
    trace_csv,
)

ALANINE_3Q_FREQS = sorted([-44.375, -9.435, 9.435, 44.375])
ALANINE_4Q_FREQS = sorted(
    s1 * 17.47 + s2 * 26.905 + s3 * 71.605
    for s1 in (-1, 1)
    for s2 in (-1, 1)
    for s3 in (-1, 1)
)


def frequencies(lines):
    return sorted(l.frequency for l in lines)


class TestMultipletLines:
    def test_all_false_state_3q(self):
        # initial mixture (everything FALSE) on the three-carbon system
        layout = QubitLayout(2, 0)
        lines = multiplet_lines(initial_mixed_state(layout), layout, alanine_3q())
        assert frequencies(lines) == pytest.approx(ALANINE_3Q_FREQS, abs=1e-9)
        assert all(l.amplitude == pytest.approx(0.25) for l in lines)

    def test_worked_1sat_sign_pattern(self, paper_1sat):
        circuit = compile_1sat(paper_1sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        assert len(lines) == 8
        negative = [l for l in lines if l.amplitude < 0]
        assert len(negative) == 1
        freq_110 = config_frequency(alanine_4q(), 3, 0b110)
        assert negative[0].frequency == pytest.approx(freq_110, abs=1e-9)

    def test_contradiction_all_positive(self):
        formula = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        circuit = compile_formula(formula)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_3q())
        assert all(l.amplitude > 0 for l in lines)

    def test_scratch_spin_must_be_decoupled(self):
        with pytest.raises(SpinSystemError):
            SpinSystem(
                names=("W", "V", "S"),
                shifts=(0.0, 0.0, 0.0),
                observed=0,
                couplings=((0.0, 30.0, 10.0), (30.0, 0.0, 0.0), (10.0, 0.0, 0.0)),
                qubit_spins=(1,),
                scratch_spins=(2,),  # not decoupled
            )

    def test_variable_spin_must_be_coupled(self):
        system = SpinSystem(
            names=("W", "V"),
            shifts=(0.0, 0.0),
            observed=0,
            couplings=((0.0, 0.0), (0.0, 0.0)),
            qubit_spins=(1,),
        )
        layout = QubitLayout(1, 0)
        with pytest.raises(SpinSystemError):
            multiplet_lines(initial_mixed_state(layout), layout, system)

    def test_amplitude_conservation(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        assert sum(abs(l.amplitude) for l in lines) == pytest.approx(1.0)

    def test_decoupled_scratch_spin_changes_nothing(self):
        # declaring a physical scratch spin (decoupled) must not move lines
        plain = alanine_3q()
        with_scratch = SpinSystem(
            names=plain.names + ("H",),
            shifts=plain.shifts + (1550.0,),
            observed=plain.observed,
            couplings=(
                (0.0, 34.94, -1.2, 5.5),
                (34.94, 0.0, 53.81, 143.21),
                (-1.2, 53.81, 0.0, 5.1),
                (5.5, 143.21, 5.1, 0.0),
            ),
            qubit_spins=plain.qubit_spins,
            decoupled=frozenset({3}),
            scratch_spins=(3,),
        )
        formula = parse_dimacs("p cnf 2 1\n1 -2 0")
        circuit = compile_formula(formula)
        state = run(circuit)
        a = multiplet_lines(state, circuit.layout, plain)
        b = multiplet_lines(state, circuit.layout, with_scratch)
        assert a == b


class TestThermalReference:
    def test_3q_four_positive_lines(self):
        lines = thermal_reference(alanine_3q(), 2)
        assert frequencies(lines) == pytest.approx(ALANINE_3Q_FREQS, abs=1e-9)
        assert all(l.amplitude == pytest.approx(0.25) for l in lines)

    def test_4q_eight_positive_lines(self):
        lines = thermal_reference(alanine_4q(), 3)
        assert frequencies(lines) == pytest.approx(ALANINE_4Q_FREQS, abs=1e-9)
        assert all(l.amplitude == pytest.approx(0.125) for l in lines)

    def test_no_coupled_spins_single_line(self):
        lines = thermal_reference(alanine_3q(), 0)
        assert lines == (SpectrumLine(0.0, 1.0),)

    def test_same_geometry_as_multiplet(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        signed = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        thermal = thermal_reference(alanine_4q(), 3)
        assert frequencies(signed) == pytest.approx(frequencies(thermal))


class TestRender:
    def test_lorentzian_half_width(self):
        lines = (SpectrumLine(0.0, 1.0),)
        freqs, values = render(lines, -2.0, 2.0, 5, linewidth=1.0)
        assert values[2] == pytest.approx(1.0)  # f = 0
        assert values[1] == pytest.approx(0.5)  # f = -1
        assert values[3] == pytest.approx(0.5)  # f = +1

    def test_opposite_lines_cancel(self):
        lines = (SpectrumLine(5.0, 0.25), SpectrumLine(5.0, -0.25))
        _, values = render(lines, 0.0, 10.0, 101, linewidth=1.0)
        assert np.allclose(values, 0.0)

    def test_worked_1sat_one_downward_peak(self, paper_1sat):
        circuit = compile_1sat(paper_1sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        freqs, values = render(lines, -130.0, 130.0, 4001, linewidth=1.0)
        assert values.min() < -0.1
        freq_110 = config_frequency(alanine_4q(), 3, 0b110)
        assert freqs[int(np.argmin(values))] == pytest.approx(freq_110, abs=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f_min": 1.0, "f_max": 0.0, "points": 10, "linewidth": 1.0},
            {"f_min": 0.0, "f_max": 1.0, "points": 1, "linewidth": 1.0},
            {"f_min": 0.0, "f_max": 1.0, "points": 10, "linewidth": 0.0},
        ],
    )
    def test_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            render((SpectrumLine(0.0, 1.0),), **kwargs)


def reference_trace_csv(freqs, values):
    """One f-string per grid point, as trace_csv formatted before."""
    pairs = zip(map(float, freqs), map(float, values))
    return "\n".join(f"{f:.6f},{v:.9g}" for f, v in pairs) + "\n"


SPECIAL_FLOATS = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.1, -123.456789, 1e-7, 1e16, 0.5e-6, 9.9999995e8,
]


class TestTraceCsv:
    def test_special_values_match_per_row_format(self):
        freqs = np.array(SPECIAL_FLOATS)
        values = freqs[::-1].copy()
        assert trace_csv(freqs, values) == reference_trace_csv(freqs, values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=40))
    def test_matches_per_row_format(self, rows):
        freqs = np.array([f for f, _ in rows], dtype=float)
        values = np.array([v for _, v in rows], dtype=float)
        assert trace_csv(freqs, values) == reference_trace_csv(freqs, values)

    def test_no_rows_give_one_newline(self):
        empty = np.array([], dtype=float)
        assert trace_csv(empty, empty) == reference_trace_csv(empty, empty) == "\n"
        assert line_table((), synthetic_system(2), 2) == "\n"


class TestExtractSolutions:
    def test_worked_1sat_round_trip(self, paper_1sat):
        circuit = compile_1sat(paper_1sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        report = extract_solutions(lines, alanine_4q(), 3)
        assert report.bitstrings() == ("110",)

    def test_all_positive_means_unsat(self):
        lines = thermal_reference(alanine_3q(), 2)
        report = extract_solutions(lines, alanine_3q(), 2)
        assert report.count == 0

    def test_paper_3sat_five_solutions(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        report = extract_solutions(lines, alanine_4q(), 3)
        assert report.true_space == brute_force_solutions(paper_3sat)

    def test_degenerate_couplings_rejected(self):
        system = SpinSystem(
            names=("W", "A", "B"),
            shifts=(0.0, 0.0, 0.0),
            observed=0,
            couplings=((0.0, 20.0, 20.0), (20.0, 0.0, 0.0), (20.0, 0.0, 0.0)),
            qubit_spins=(1, 2),
        )
        lines = thermal_reference(system, 2)
        with pytest.raises(DegenerateMultipletError):
            extract_solutions(lines, system, 2)

    def test_unmatched_line_rejected(self):
        lines = (SpectrumLine(999.0, 1.0),)
        with pytest.raises(SpinSystemError):
            extract_solutions(lines, alanine_3q(), 1)

    def test_missing_configuration_rejected(self):
        lines = thermal_reference(alanine_3q(), 2)[:-1]
        with pytest.raises(SpinSystemError):
            extract_solutions(lines, alanine_3q(), 2)


class TestResolvability:
    def test_alanine_3q_resolvable(self):
        assert check_resolvable(alanine_3q(), 2, 5.0)
        freqs = sorted(config_frequency(alanine_3q(), 2, c) for c in range(4))
        min_gap = min(b - a for a, b in zip(freqs, freqs[1:]))
        assert min_gap == pytest.approx(18.87, abs=1e-9)

    def test_alanine_4q_resolvable(self):
        assert check_resolvable(alanine_4q(), 3, 5.0)

    def test_equal_couplings_unresolvable(self):
        system = SpinSystem(
            names=("W", "A", "B"),
            shifts=(0.0, 0.0, 0.0),
            observed=0,
            couplings=((0.0, 20.0, 20.0), (20.0, 0.0, 0.0), (20.0, 0.0, 0.0)),
            qubit_spins=(1, 2),
        )
        assert not check_resolvable(system, 2, 1.0)

    def test_zero_coupling_unresolvable(self):
        system = SpinSystem(
            names=("W", "A"),
            shifts=(0.0, 0.0),
            observed=0,
            couplings=((0.0, 0.0), (0.0, 0.0)),
            qubit_spins=(1,),
        )
        assert not check_resolvable(system, 1, 1.0)

    def test_synthetic_system_resolvable(self):
        assert check_resolvable(synthetic_system(4), 4, 5.0)


class TestSignLaw:
    def test_negative_iff_satisfying(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        solutions = {a.index for a in brute_force_solutions(paper_3sat)}
        tolerance = default_match_tolerance(alanine_4q(), 3)
        for line in lines:
            config = next(
                c
                for c in range(8)
                if abs(config_frequency(alanine_4q(), 3, c) - line.frequency)
                <= tolerance
            )
            assert (line.amplitude < 0) == (config in solutions)


class TestSpinSystemIO:
    def test_load_round_trip(self):
        system = alanine_4q()
        doc = json.dumps(
            {
                "names": list(system.names),
                "shifts": list(system.shifts),
                "observed": "Ca",
                "couplings": [list(row) for row in system.couplings],
                "variable_qubits": ["C'", "Cb", "H"],
            }
        )
        assert load_spin_system(doc) == system

    @pytest.mark.parametrize(
        "key, value",
        [
            ("names", "WABD"),
            ("shifts", "0000"),
            ("couplings", "0000"),
            pytest.param(
                "couplings",
                ["0000", [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                id="couplings-row",
            ),
            ("variable_qubits", "AB"),
            ("decoupled", "D"),
            ("scratch_qubits", "D"),
        ],
    )
    def test_load_requires_json_lists(self, key, value):
        doc = {
            "names": ["W", "A", "B", "D"],
            "shifts": [0, 0, 0, 0],
            "observed": "W",
            "couplings": [[0, 20, 30, 0], [20, 0, 0, 0], [30, 0, 0, 0], [0] * 4],
            "variable_qubits": ["A", "B"],
            "decoupled": ["D"],
            "scratch_qubits": ["D"],
        }
        load_spin_system(json.dumps(doc))
        doc[key] = value
        with pytest.raises(ValueError, match="must be a JSON list"):
            load_spin_system(json.dumps(doc))

    def test_validation_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpinSystem(
                names=("A", "B"),
                shifts=(0.0, 0.0),
                observed=0,
                couplings=((0.0, 1.0), (2.0, 0.0)),
                qubit_spins=(1,),
            )

    def test_line_table_decodes(self, paper_1sat):
        circuit = compile_1sat(paper_1sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        table = line_table(lines, alanine_4q(), 3)
        negative_rows = [row for row in table.splitlines() if "-0.125" in row]
        assert len(negative_rows) == 1
        assert negative_rows[0].endswith("110")


@pytest.mark.parametrize(
    "field, value",
    [
        ("observed", 3),
        ("observed", -1),
        ("qubit_spins", (1, 7)),
        ("qubit_spins", (-2,)),
        ("decoupled", frozenset({5})),
        ("scratch_spins", (3,)),
    ],
)
def test_spin_index_out_of_range_rejected(field, value):
    fields = dict(
        names=("W", "A", "B"),
        shifts=(0.0, 0.0, 0.0),
        observed=0,
        couplings=((0.0, 20.0, 30.0), (20.0, 0.0, 0.0), (30.0, 0.0, 0.0)),
        qubit_spins=(1, 2),
    )
    fields[field] = value
    with pytest.raises(ValueError, match="out of range"):
        SpinSystem(**fields)


# -- the sorted matcher against the all-pairs loop it replaced ---------------


def reference_tolerance(system, n):
    freqs = sorted(config_frequency(system, n, c) for c in range(1 << n))
    gaps = [b - a for a, b in zip(freqs, freqs[1:])]
    min_gap = min(gaps) if gaps else 1.0
    return min(1.0, min_gap / 4.0)


def reference_extract(lines, system, n, tolerance=None):
    """The O(4^n) decode loop: every line against every configuration."""
    _check_variable_spins(system, n)
    if tolerance is None:
        tolerance = reference_tolerance(system, n)
    if tolerance <= 0:
        raise DegenerateMultipletError(
            "coinciding configuration frequencies; multiplet not decodable"
        )
    config_freqs = [config_frequency(system, n, c) for c in range(1 << n)]
    true_list, false_list, matched = [], [], set()
    for line in lines:
        hits = [
            c
            for c, f in enumerate(config_freqs)
            if abs(f - line.frequency) <= tolerance
        ]
        if not hits:
            raise SpinSystemError(
                f"line at {line.frequency:g} Hz matches no configuration"
            )
        if len(hits) > 1:
            raise DegenerateMultipletError(
                f"line at {line.frequency:g} Hz matches {len(hits)} configurations"
            )
        config = hits[0]
        if config in matched:
            raise SpinSystemError(f"configuration {config:0{n}b} matched by two lines")
        matched.add(config)
        assignment = Assignment.from_index(config, n)
        (true_list if line.amplitude < 0 else false_list).append(assignment)
    if len(matched) != 1 << n:
        raise SpinSystemError("spectrum does not cover every configuration")
    true_list.sort(key=lambda a: a.index)
    false_list.sort(key=lambda a: a.index)
    return SolutionReport(
        n, [Assignment.from_index(c, n) in true_list for c in range(1 << n)]
    )


def reference_line_table(lines, system, n):
    tolerance = reference_tolerance(system, n)
    config_freqs = [config_frequency(system, n, c) for c in range(1 << n)]
    rows = []
    for line in sorted(lines, key=lambda l: l.frequency):
        hits = [
            c
            for c, f in enumerate(config_freqs)
            if abs(f - line.frequency) <= tolerance
        ]
        label = (
            Assignment.from_index(hits[0], n).bitstring() if len(hits) == 1 else "?"
        )
        rows.append(f"{line.frequency:12.4f} {line.amplitude:+.6f} {label}")
    return "\n".join(rows) + "\n"


def outcome(decode, *args, **kwargs):
    try:
        return ("ok", decode(*args, **kwargs))
    except Exception as exc:  # compared by type and message
        return ("error", type(exc), str(exc))


# Repeated couplings (and sums of them) make degenerate multiplets; zero fails
# the coupling check.
COUPLINGS = st.one_of(
    st.sampled_from([20.0, 40.0, 13.7, -41.3, 0.1, 0.0]),
    st.floats(-200.0, 200.0, allow_nan=False),
)
OFFSETS = ("exact", "+tol", "-tol", "+tol+ulp", "+tol-ulp", "-tol+ulp", "-tol-ulp")


@st.composite
def spin_systems(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    js = draw(st.lists(COUPLINGS, min_size=n, max_size=n))
    names = ("W",) + tuple(f"S{i}" for i in range(1, n + 1))
    couplings = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i, j in enumerate(js, start=1):
        couplings[0][i] = couplings[i][0] = j
    shift = draw(st.floats(-500.0, 500.0, allow_nan=False))
    system = SpinSystem(
        names=names,
        shifts=(shift,) + (0.0,) * n,
        observed=0,
        couplings=tuple(tuple(row) for row in couplings),
        qubit_spins=tuple(range(1, n + 1)),
    )
    return system, n


@st.composite
def decode_cases(draw):
    system, n = draw(spin_systems())
    freqs = [config_frequency(system, n, c) for c in range(1 << n)]
    gaps = [abs(b - a) for a in freqs for b in freqs if b != a]
    tolerance = draw(
        st.one_of(
            st.none(),
            st.sampled_from(gaps).map(lambda g: g / 2) if gaps else st.none(),
            st.floats(1e-6, 100.0),
        )
    )
    tol = reference_tolerance(system, n) if tolerance is None else tolerance
    lines = []
    for f in freqs:
        offset = draw(st.sampled_from(OFFSETS))
        x = f
        if offset != "exact":
            x = f + tol if offset.startswith("+") else f - tol
            if offset.endswith("ulp"):
                x = float(np.nextafter(x, np.inf if offset[4] == "+" else -np.inf))
        amplitude = draw(st.sampled_from([2.0**-n, -(2.0**-n)]))
        lines.append(SpectrumLine(x, amplitude))
    lines = draw(st.permutations(lines))
    edit = draw(st.sampled_from(["none", "drop", "duplicate"]))
    if edit != "none" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            lines = lines[:i] + lines[i + 1 :]
        else:
            copy = lines[draw(st.integers(0, len(lines) - 1))]
            lines = lines[:i] + [copy] + lines[i:]
    return system, n, tuple(lines), tolerance


class TestSortedMatcher:
    @settings(max_examples=300, deadline=None)
    @given(decode_cases())
    def test_decode_and_table_match_all_pairs_loop(self, case):
        system, n, lines, tolerance = case
        assert outcome(
            extract_solutions, lines, system, n, tolerance=tolerance
        ) == outcome(reference_extract, lines, system, n, tolerance=tolerance)
        assert outcome(line_table, lines, system, n) == outcome(
            reference_line_table, lines, system, n
        )

    @settings(max_examples=100, deadline=None)
    @given(spin_systems(max_n=8))
    def test_config_frequencies_equal_scalar_exactly(self, case):
        system, n = case
        assert config_frequencies(system, n).tolist() == [
            config_frequency(system, n, c) for c in range(1 << n)
        ]

    def test_zero_tolerance_counts_only_equal_positions(self):
        system = SpinSystem(
            names=("W", "A", "B"),
            shifts=(0.0, 0.0, 0.0),
            observed=0,
            couplings=((0.0, 20.0, 20.0), (20.0, 0.0, 0.0), (20.0, 0.0, 0.0)),
            qubit_spins=(1, 2),
        )
        assert default_match_tolerance(system, 2) == 0.0
        lines = (
            SpectrumLine(0.0, 0.5),
            SpectrumLine(20.0, 0.25),
            SpectrumLine(20.0 + 1e-12, 0.25),
        )
        table = line_table(lines, system, 2)
        labels = [row.split()[-1] for row in table.splitlines()]
        assert labels == ["?", "00", "?"]

    @settings(max_examples=50, deadline=None)
    @given(decode_cases())
    def test_render_equals_per_line_sum(self, case):
        _, _, lines, _ = case
        freqs, values = render(lines, -600.0, 600.0, 997, linewidth=1.5)
        expected = np.zeros_like(freqs)
        lw2 = 1.5**2
        for line in lines:
            expected += line.amplitude * lw2 / (lw2 + (freqs - line.frequency) ** 2)
        assert np.array_equal(values, expected)
