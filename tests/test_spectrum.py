import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cnotsat import (
    Assignment,
    Clause,
    CnfFormula,
    DegenerateMultipletError,
    Literal,
    Multiplet,
    PipelineFormError,
    QubitLayout,
    SolutionReport,
    SpectrumLine,
    SpinSystem,
    SpinSystemError,
    alanine_3q,
    alanine_4q,
    append_uncompute,
    brute_force_solutions,
    check_resolvable,
    compile_1sat,
    compile_auto,
    compile_formula,
    extract_solutions,
    generate_random_ksat,
    initial_mixed_state,
    load_spin_system,
    multiplet_lines,
    parse_dimacs,
    render,
    run,
    synthetic_system,
    thermal_reference,
    to_dimacs,
)
from cnotsat import cli, spectrum
from cnotsat.spectrum import (
    MERGE_TOL_HZ,
    _check_variable_spins,
    _merge,
    _positions,
    config_frequencies,
    line_table,
    trace_csv,
)
import reference_decode
from reference_sim import (
    SupportState,
    column_planes,
    reference_marginalize,
    reference_run,
    reference_true_space,
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


def config_frequency(system, n, config):
    """Scalar reference: the line position of one configuration of the n
    coupled variable spins.  Bit i-1 of config is variable x_i; spin-up (0)
    shifts by +J/2, spin-down (1) by -J/2."""
    freq = system.shifts[system.observed]
    for i in range(n):
        j = system.j_to_observed(system.qubit_spins[i])
        freq += (0.5 if not (config >> i) & 1 else -0.5) * j
    return freq


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
        assert tuple(lines) == (SpectrumLine(0.0, 1.0),)

    def test_same_geometry_as_multiplet(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        signed = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        thermal = thermal_reference(alanine_4q(), 3)
        assert frequencies(signed) == pytest.approx(frequencies(thermal))


class TestRender:
    def test_lorentzian_half_width(self):
        lines = Multiplet([0.0], [1.0])
        freqs, values = render(lines, -2.0, 2.0, 5, linewidth=1.0)
        assert values[2] == pytest.approx(1.0)  # f = 0
        assert values[1] == pytest.approx(0.5)  # f = -1
        assert values[3] == pytest.approx(0.5)  # f = +1

    def test_opposite_lines_cancel(self):
        lines = Multiplet([5.0, 5.0], [0.25, -0.25])
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
            {"f_min": np.nan, "f_max": 1.0, "points": 10, "linewidth": 1.0},
            {"f_min": -np.inf, "f_max": 1.0, "points": 10, "linewidth": 1.0},
            {"f_min": 0.0, "f_max": np.inf, "points": 10, "linewidth": 1.0},
            {"f_min": 0.0, "f_max": 1.0, "points": 10, "linewidth": np.nan},
            {"f_min": 0.0, "f_max": 1.0, "points": 10, "linewidth": np.inf},
            # finite settings whose arithmetic leaves float range
            {"f_min": 0.0, "f_max": 1.0, "points": 10, "linewidth": 1e200},
            {"f_min": 0.0, "f_max": 1.0, "points": 10, "linewidth": 1e-200},
            {"f_min": -1e308, "f_max": 1e308, "points": 5, "linewidth": 1.0},
        ],
    )
    def test_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            render(Multiplet([0.0], [1.0]), **kwargs)


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
        assert line_table(Multiplet([], []), synthetic_system(2), 2) == "\n"


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
        lines = Multiplet([999.0], [1.0])
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

    @pytest.mark.parametrize("min_separation", [0.0, -1.0, np.nan])
    def test_min_separation_must_be_positive(self, min_separation):
        with pytest.raises(ValueError, match="min_separation must be positive"):
            check_resolvable(alanine_3q(), 2, min_separation)

    def test_synthetic_system_resolvable(self):
        assert check_resolvable(synthetic_system(4), 4, 5.0)


class TestSignLaw:
    def test_negative_iff_satisfying(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        lines = multiplet_lines(run(circuit), circuit.layout, alanine_4q())
        solutions = {a.index for a in brute_force_solutions(paper_3sat)}
        tolerance = reference_tolerance(alanine_4q(), 3)
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


def spin_system(couplings, shift=0.0):
    """(system, n): the observed spin W coupled to n variable spins."""
    n = len(couplings)
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i, j in enumerate(couplings, start=1):
        table[0][i] = table[i][0] = j
    system = SpinSystem(
        names=("W",) + tuple(f"S{i}" for i in range(1, n + 1)),
        shifts=(shift,) + (0.0,) * n,
        observed=0,
        couplings=tuple(tuple(row) for row in table),
        qubit_spins=tuple(range(1, n + 1)),
    )
    return system, n


# Infinite couplings put lines at +-inf, and at NaN where they cancel.
COUPLINGS_WITH_INF = COUPLINGS | st.sampled_from([np.inf, -np.inf])


@st.composite
def spin_systems(draw, max_n=6, couplings=COUPLINGS):
    n = draw(st.integers(0, max_n))
    js = draw(st.lists(couplings, min_size=n, max_size=n))
    return spin_system(js, draw(st.floats(-500.0, 500.0, allow_nan=False)))


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
    lines = Multiplet([l.frequency for l in lines], [l.amplitude for l in lines])
    return system, n, lines, tolerance


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
    @given(spin_systems(max_n=8, couplings=COUPLINGS_WITH_INF))
    def test_config_frequencies_equal_scalar_exactly(self, case):
        system, n = case
        expected = float_bits([config_frequency(system, n, c) for c in range(1 << n)])
        assert float_bits(config_frequencies(system, n)) == expected

    def test_zero_tolerance_counts_only_equal_positions(self):
        system = SpinSystem(
            names=("W", "A", "B"),
            shifts=(0.0, 0.0, 0.0),
            observed=0,
            couplings=((0.0, 20.0, 20.0), (20.0, 0.0, 0.0), (20.0, 0.0, 0.0)),
            qubit_spins=(1, 2),
        )
        assert reference_tolerance(system, 2) == 0.0
        lines = Multiplet([0.0, 20.0, 20.0 + 1e-12], [0.5, 0.25, 0.25])
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


def float_bits(values):
    """float64 bit patterns: tell -0.0 from 0.0, and NaN payloads apart."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestPositionTable:
    @settings(max_examples=150, deadline=None)
    @given(spin_systems(max_n=8, couplings=COUPLINGS_WITH_INF))
    @example(spin_system((np.inf, -np.inf)))
    @example(spin_system((20.0, 20.0), shift=-0.0))
    def test_entry_equals_scalar_reference(self, case):
        system, n = case
        freqs = np.array([config_frequency(system, n, c) for c in range(1 << n)])
        order, ordered, min_gap = _positions(system, n)
        assert order.tolist() == np.argsort(freqs, kind="stable").tolist()
        assert float_bits(ordered) == float_bits(freqs[order])
        with np.errstate(invalid="ignore"):
            gaps = np.diff(np.sort(freqs))
        expected = float(gaps.min()) if gaps.size else np.inf
        assert min_gap == expected or np.isnan(min_gap) and np.isnan(expected)

    @pytest.mark.parametrize("first", [-0.0, 0.0])
    def test_signed_zero_shifts_do_not_alias(self, first):
        for shift in (first, -first):
            system, n = spin_system((), shift=shift)
            assert float_bits(_positions(system, n).ordered) == float_bits([shift])
            lines = thermal_reference(system, n)
            assert float_bits(lines.frequencies) == float_bits([shift])

    def test_entries_are_read_only_and_bounded(self):
        order, ordered, _ = _positions(alanine_4q(), 3)
        for column in (order, ordered):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_one_system_builds_each_table_once(self, monkeypatch):
        builds = count_calls(monkeypatch, "_doubling")
        system, n = spin_system((20.0, 40.0))
        first = _positions(system, n)
        assert _positions(system, n) is first
        assert builds == [1]
        assert _positions(system, n - 1).ordered.size == 2
        assert builds == [2]
        # an equal system built anew builds and keeps its own table
        twin, _ = spin_system((20.0, 40.0))
        assert twin == system and hash(twin) == hash(system)
        second = _positions(twin, n)
        assert second is not first and _positions(twin, n) is second
        assert float_bits(second.ordered) == float_bits(first.ordered)
        assert _positions(system, n) is first
        assert builds == [3]

    def test_solve_builds_the_table_at_most_once(self, monkeypatch, capsys):
        # each main call builds exactly one table, whatever its size
        builds = count_calls(monkeypatch, "_doubling")
        small = generate_random_ksat(8, 12, 3, seed=5)
        large = generate_random_ksat(19, 3, 3, seed=5)
        for calls, formula in enumerate((small, small, large), start=1):
            argv = ["solve", "--dimacs", to_dimacs(formula), "--via-spectrum"]
            assert cli.main(argv + ["--spin-system", "synthetic"]) == 0
            assert builds == [calls]
        assert capsys.readouterr().out.count("agree") == 3


def count_calls(monkeypatch, name):
    """Count the calls to spectrum.<name> in a one-element list."""
    calls = [0]
    inner = getattr(spectrum, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(spectrum, name, counted)
    return calls


# -- the line arrays against the per-line objects they replaced --------------


def reference_merged(lines):
    """The per-line merge: sort by frequency, then fold each line within
    MERGE_TOL_HZ of the current run's first line into that run."""
    lines = sorted(lines, key=lambda l: l.frequency)
    out = []
    for line in lines:
        if out and abs(line.frequency - out[-1].frequency) <= MERGE_TOL_HZ:
            out[-1] = SpectrumLine(
                out[-1].frequency, out[-1].amplitude + line.amplitude
            )
        else:
            out.append(line)
    return tuple(out)


def reference_multiplet(state, layout, system):
    """Multiplet of a support-reference state through the partial trace onto
    the work and variable wires and one SpectrumLine per configuration."""
    n = layout.num_vars
    _check_variable_spins(system, n)
    reduced = reference_marginalize(state, (layout.work_wire,) + layout.var_wires)
    signed = np.where(reduced.indices & 1, -reduced.weights, reduced.weights)
    amplitudes = np.bincount(reduced.indices >> 1, weights=signed, minlength=1 << n)
    return reference_merged(
        [
            SpectrumLine(f, a)
            for f, a in zip(config_frequencies(system, n).tolist(), amplitudes.tolist())
        ]
    )


def bits(lines):
    """Every line's frequency and amplitude, bit for bit (signed zeros too)."""
    return [(float(l.frequency).hex(), float(l.amplitude).hex()) for l in lines]


def reference_thermal(system, n):
    _check_variable_spins(system, n)
    return reference_merged(
        [SpectrumLine(config_frequency(system, n, c), 2.0**-n) for c in range(1 << n)]
    )


# Bases repeat (exact duplicates, signed zeros, infinities); steps of 0.6
# tolerances chain lines that are each within MERGE_TOL_HZ of a neighbour but
# not of the run's first line.
MERGE_FREQS = st.one_of(
    st.builds(
        lambda base, step: base + step * 0.6 * MERGE_TOL_HZ,
        st.sampled_from([0.0, -0.0, 1.0, -37.5, 1e-9, 2e-9]),
        st.integers(0, 5),
    ),
    st.sampled_from([np.inf, -np.inf]),
    st.floats(-1e3, 1e3),
)
MERGE_AMPS = st.one_of(
    st.sampled_from([0.25, -0.25, 0.0, -0.0, 2.0**-10]),
    st.floats(-1.0, 1.0),
)


@st.composite
def pipeline_states(draw):
    """Simulated states of random formulas on n = 0..6 variables, with and
    without uncomputed scratch wires, each with a random spin system."""
    system, n = draw(spin_systems())
    literal = st.builds(Literal, st.integers(1, max(n, 1)), st.booleans())
    clause = st.lists(literal, max_size=3 if n else 0).map(
        lambda lits: Clause(tuple(lits))
    )
    formula = CnfFormula(n, tuple(draw(st.lists(clause, max_size=4))))
    circuit = compile_auto(formula)
    if circuit.layout.num_scratch and draw(st.booleans()):
        circuit = append_uncompute(circuit, formula)
    return run(circuit), reference_run(circuit), circuit.layout, system


@st.composite
def dyadic_states(draw):
    """States of 2^n points at weight 2^-n, on the support reference and as
    bit planes.  Each assignment gets a random work/scratch pattern, and a
    few points may move to another configuration, so several can share a
    configuration, with either work bit."""
    system, n = draw(spin_systems())
    layout = QubitLayout(n, draw(st.integers(0, 2)))
    size = 1 << n
    patterns = draw(
        st.lists(
            st.integers(0, (2 << layout.num_scratch) - 1),
            min_size=size,
            max_size=size,
        )
    )
    configs = list(range(size))
    moves = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
    for position, config in draw(st.lists(moves, max_size=2)):
        configs[position] = config
    points = [
        (pattern & 1) | (config << 1) | (pattern >> 1 << (n + 1))
        for config, pattern in zip(configs, patterns)
    ]
    populations = np.bincount(points, minlength=1 << layout.width) / size
    reference = SupportState.from_populations(layout.width, populations)
    # column c holds configuration c whenever every configuration has a point
    columns = [point for _, point in sorted(zip(configs, points))]
    return column_planes(n, layout.width, columns), reference, layout, system


class TestLineArrays:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(MERGE_FREQS, MERGE_AMPS), max_size=12))
    @example([(0.0, 0.25), (MERGE_TOL_HZ, 0.25)])  # a gap of exactly the tolerance
    def test_merge_equals_per_line_merge(self, rows):
        freqs = np.array([f for f, _ in rows], dtype=float)
        amps = np.array([a for _, a in rows], dtype=float)
        expected = reference_merged([SpectrumLine(f, a) for f, a in rows])
        order = np.argsort(freqs, kind="stable")
        # a NaN gap takes the full merge, whatever the lines
        assert bits(_merge(freqs[order], amps[order], np.nan)) == bits(expected)
        with np.errstate(invalid="ignore"):
            gaps = np.diff(freqs[order])
        min_gap = float(gaps.min()) if gaps.size else np.inf
        assert bits(_merge(freqs[order], amps[order], min_gap)) == bits(expected)

    @settings(max_examples=150, deadline=None)
    @given(spin_systems())
    @example(spin_system((20.0, 20.0)))
    @example(spin_system((20.0, 20.0, 20.0)))
    @example(spin_system((20.0, 40.0, 20.0)))
    @example(spin_system((20.0, 20.0, 20.0 + 6e-10, 20.0 + 6e-10)))  # chained runs
    @example(spin_system((np.inf, 20.0)))
    def test_thermal_equals_per_line_merge(self, case):
        system, n = case
        got = outcome(lambda: bits(thermal_reference(system, n)))
        assert got == outcome(lambda: bits(reference_thermal(system, n)))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(pipeline_states(), dyadic_states()))
    def test_multiplet_equals_marginalize_reference(self, case):
        state, reference, layout, system = case
        got = outcome(lambda: bits(multiplet_lines(state, layout, system)))
        expected = outcome(
            lambda: bits(reference_multiplet(reference, layout, system))
        )
        readout = outcome(reference_true_space, reference, layout)
        if expected[0] == "ok" and readout[0] == "error":
            # some configuration has no point of its own: no planes readout
            assert got[:2] == ("error", PipelineFormError)
        else:
            assert got == expected

    def test_multiplet_reads_as_a_line_sequence(self):
        lines = thermal_reference(alanine_3q(), 2)
        assert isinstance(lines, Multiplet)
        freqs = sorted(config_frequencies(alanine_3q(), 2).tolist())
        assert len(lines) == 4
        assert lines.frequencies.tolist() == freqs
        assert list(lines) == [SpectrumLine(f, 0.25) for f in freqs]
        assert lines[-1] == SpectrumLine(freqs[-1], 0.25)
        assert isinstance(lines[1:3], Multiplet)
        assert tuple(lines[1:3]) == tuple(lines)[1:3]
        assert lines == thermal_reference(alanine_3q(), 2)
        assert lines != tuple(lines)
        for column in (lines.frequencies, lines.amplitudes):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 0.0

    @pytest.mark.parametrize("given", ["list", "writeable", "read-only view"])
    def test_multiplet_copies_what_a_caller_can_write(self, given):
        freqs, amps = np.array([-1.0, 2.0]), np.array([0.5, -0.5])
        columns = [freqs.tolist(), amps.tolist()] if given == "list" else [freqs, amps]
        if given == "read-only view":
            columns = [column.view() for column in columns]
            for column in columns:
                column.flags.writeable = False
        lines = Multiplet(*columns)
        freqs[0] = amps[0] = 7.0
        assert lines.frequencies.tolist() == [-1.0, 2.0]
        assert lines.amplitudes.tolist() == [0.5, -0.5]

    def test_multiplet_keeps_arrays_nothing_can_write(self):
        freqs, amps = np.array([-1.0, 2.0]), np.array([0.5, -0.5])
        freqs.flags.writeable = amps.flags.writeable = False
        lines = Multiplet(freqs, amps)
        assert lines.frequencies is freqs and lines.amplitudes is amps
        view = lines[1:]
        assert view.frequencies.base is freqs and view.amplitudes.base is amps
        system = alanine_3q()
        assert thermal_reference(system, 2).frequencies is _positions(system, 2).ordered

    def test_narrow_state_rejected(self):
        with pytest.raises(ValueError, match="kept wire out of range"):
            multiplet_lines(
                initial_mixed_state(QubitLayout(0, 0)), QubitLayout(1, 0), alanine_3q()
            )


# -- the certified decode against the matcher it runs in front of ------------


def nudge(f, tol, offset):
    """f moved by one of OFFSETS: -/+ tol, then -/+ one ulp."""
    if offset == "exact":
        return f
    x = f + tol if offset.startswith("+") else f - tol
    if offset.endswith("ulp"):
        x = float(np.nextafter(x, np.inf if offset[4] == "+" else -np.inf))
    return x


def table_order_multiplet(system, n, tolerance, offsets, negative, edit=None):
    """A Multiplet with line i near sorted position i, nudged by offsets[i];
    an edit (kind, i, j) drops line i, duplicates line j before line i, or
    replaces line i with a copy of line j."""
    freqs = np.array([config_frequency(system, n, c) for c in range(1 << n)])
    order = np.argsort(freqs, kind="stable")
    tol = reference_tolerance(system, n) if tolerance is None else tolerance
    lines = [
        (nudge(float(freqs[c]), tol, offset), -(2.0**-n) if neg else 2.0**-n)
        for c, offset, neg in zip(order.tolist(), offsets, negative)
    ]
    if edit:
        kind, i, j = edit
        copy = lines[j]
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, copy)
        else:
            lines[i] = copy
    return Multiplet([f for f, _ in lines], [a for _, a in lines])


@st.composite
def table_order_cases(draw):
    system, n = draw(spin_systems())
    size = 1 << n
    freqs = [config_frequency(system, n, c) for c in range(size)]
    gaps = [abs(b - a) for a in freqs for b in freqs if b != a]
    tolerance = draw(
        st.one_of(
            st.none(),
            st.sampled_from(gaps).map(lambda g: g / 2) if gaps else st.none(),
            st.floats(1e-6, 100.0),
        )
    )
    # mostly exact, so that whole multiplets are often clean
    offsets = draw(
        st.lists(
            st.sampled_from(OFFSETS) | st.just("exact"), min_size=size, max_size=size
        )
    )
    negative = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    kind = draw(st.sampled_from(["none", "drop", "duplicate", "replace"]))
    edit = None
    if kind != "none":
        index = st.integers(0, size - 1)
        edit = (kind, draw(index), draw(index))
    lines = table_order_multiplet(system, n, tolerance, offsets, negative, edit)
    return system, n, lines, tolerance


def midpoint_case(side):
    """Two-variable system, tolerance half the gap: the nudged line sits on
    the midpoint to its left or right neighbour, so it matches two."""
    system, n = spin_system((20.0, 45.0))
    offsets = ["exact"] * 4
    offsets[1] = "-tol" if side == "left" else "+tol"
    lines = table_order_multiplet(system, n, 12.5, offsets, [False, True] * 2)
    return system, n, lines, 12.5


class TestCertifiedDecode:
    # Small blocks put block edges between the lines of these small systems.
    @settings(max_examples=400, deadline=None)
    @given(table_order_cases(), st.sampled_from([1, 2, 3, spectrum._CERTIFY_BLOCK]))
    @example(midpoint_case("left"), spectrum._CERTIFY_BLOCK)
    @example(midpoint_case("right"), spectrum._CERTIFY_BLOCK)
    def test_reports_and_errors_equal_the_matcher(self, case, block):
        system, n, lines, tolerance = case
        with mock.patch.object(spectrum, "_CERTIFY_BLOCK", block):
            got = outcome(extract_solutions, lines, system, n, tolerance=tolerance)
        expected = outcome(
            reference_decode.extract_solutions, lines, system, n, tolerance=tolerance
        )
        assert got == expected

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_line_between_two_positions_is_degenerate(self, side):
        system, n, lines, tolerance = midpoint_case(side)
        with pytest.raises(DegenerateMultipletError, match="matches 2 configurations"):
            extract_solutions(lines, system, n, tolerance=tolerance)

    @pytest.mark.parametrize("kind", ["drop", "duplicate"])
    def test_line_count_is_checked(self, kind):
        system, n = spin_system((20.0, 45.0))
        edit = (kind, 3, 3)
        lines = table_order_multiplet(system, n, None, ["exact"] * 4, [True] * 4, edit)
        expected = outcome(reference_decode.extract_solutions, lines, system, n)
        assert expected[0] == "error"
        assert outcome(extract_solutions, lines, system, n) == expected

    def test_clean_solve_never_reaches_the_matcher(self, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a clean multiplet fell through to _match")

        monkeypatch.setattr(spectrum, "_match", unreachable)
        formula = generate_random_ksat(16, 68, 3, seed=1)
        argv = ["solve", "--dimacs", to_dimacs(formula), "--via-spectrum", "--json"]
        argv += ["--spin-system", "synthetic"]
        assert cli.main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        oracle = [a.bitstring() for a in brute_force_solutions(formula)]
        assert summary["spectral_solutions"] == summary["solutions"] == oracle
