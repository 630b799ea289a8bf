import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnotsat import (
    Assignment,
    Circuit,
    Mcx,
    Not,
    PipelineFormError,
    PopulationState,
    QubitLayout,
    SolutionReport,
    apply_gate,
    append_uncompute,
    brute_force_solutions,
    compile_1sat,
    compile_formula,
    compile_single_clause,
    generate_random_ksat,
    initial_mixed_state,
    marginalize,
    parse_dimacs,
    run,
    true_space,
)
from cnotsat.circuit import as_permutation, gate_permutation_indices
from cnotsat.sim import bitstring_labels, state_table
from conftest import random_formula


class TestInitialState:
    def test_smallest_instance(self):
        state = initial_mixed_state(QubitLayout(1, 0))
        assert state.populations.tolist() == [0.5, 0.0, 0.5, 0.0]

    def test_three_vars_no_scratch(self):
        state = initial_mixed_state(QubitLayout(3, 0))
        nonzero = np.flatnonzero(state.populations)
        assert len(nonzero) == 8
        assert all(b % 2 == 0 for b in nonzero.tolist())  # work bit 0
        assert np.allclose(state.populations[nonzero], 0.125)

    def test_scratch_bits_zero(self):
        state = initial_mixed_state(QubitLayout(2, 1))
        nonzero = np.flatnonzero(state.populations).tolist()
        assert nonzero == [0, 2, 4, 6]  # width 4, scratch bit 3 clear
        assert np.allclose(state.populations[nonzero], 0.25)

    def test_width_cap(self):
        with pytest.raises(ValueError):
            initial_mixed_state(QubitLayout(30, 0))


class TestApplyGate:
    def test_work_bit_flip(self):
        state = initial_mixed_state(QubitLayout(1, 0))
        flipped = apply_gate(state, Not(0))
        assert flipped.populations.tolist() == [0.0, 0.5, 0.0, 0.5]

    def test_cnot_realizes_identity_formula(self):
        # F = x1: |10> moves to |11>, |00> stays
        state = initial_mixed_state(QubitLayout(1, 0))
        out = apply_gate(state, Mcx(frozenset({1}), 0))
        assert out.populations.tolist() == [0.5, 0.0, 0.0, 0.5]

    def test_involution_pair(self):
        state = initial_mixed_state(QubitLayout(2, 0))
        back = apply_gate(apply_gate(state, Not(2)), Not(2))
        assert np.array_equal(back.populations, state.populations)

    def test_weight_conserved(self):
        state = initial_mixed_state(QubitLayout(3, 1))
        for gate in (Not(0), Mcx(frozenset({1, 2}), 4), Not(3)):
            state = apply_gate(state, gate)
            assert abs(float(state.populations.sum()) - 1.0) < 1e-12


class TestRun:
    def test_worked_1sat_output(self, paper_1sat):
        state = run(compile_1sat(paper_1sat))
        # seven x0=0 survivors plus |110>|x0=1>, each 1/8
        expected = np.zeros(16)
        for a in range(8):
            expected[(a << 1) | (1 if a == 6 else 0)] = 0.125
        assert np.array_equal(state.populations, expected)

    def test_paper_3sat_survivors(self, paper_3sat):
        state = run(compile_formula(paper_3sat))
        layout = QubitLayout(3, 3)
        solutions = {a.index for a in brute_force_solutions(paper_3sat)}
        for b in np.flatnonzero(state.populations).tolist():
            x0 = b & 1
            a = (b >> 1) & 0b111
            scratch = b >> 4
            assert x0 == int(a in solutions)
            if x0:
                assert scratch == 0b111
        assert np.count_nonzero(state.populations) == 8

    def test_empty_circuit_identity(self):
        layout = QubitLayout(2, 1)
        state = run(Circuit(layout, ()))
        assert np.array_equal(
            state.populations, initial_mixed_state(layout).populations
        )

    def test_uniform_weights_exact(self):
        formula = generate_random_ksat(3, 4, 2, seed=5)
        state = run(compile_formula(formula))
        nonzero = state.populations[state.populations > 0]
        assert np.all(nonzero == 2.0**-3)


class TestTrueSpace:
    def test_worked_1sat(self, paper_1sat):
        report = true_space(run(compile_1sat(paper_1sat)), QubitLayout(3, 0))
        assert report.bitstrings() == ("110",)
        assert report.count == 1

    def test_tautology_all_true(self):
        formula = parse_dimacs("p cnf 1 1\n1 -1 0")
        circuit = compile_formula(formula)
        report = true_space(run(circuit), circuit.layout)
        assert report.bitstrings() == ("0", "1")

    def test_contradiction_empty(self):
        formula = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        circuit = compile_formula(formula)
        report = true_space(run(circuit), circuit.layout)
        assert report.count == 0
        assert len(report.false_space) == 2

    def test_rejects_non_pipeline_state(self):
        layout = QubitLayout(1, 0)
        # weight split across two work-bit patterns for x1=0
        populations = np.array([0.25, 0.25, 0.5, 0.0])
        state = PopulationState.from_populations(2, populations)
        with pytest.raises(PipelineFormError):
            true_space(state, layout)

    def test_partition_is_complete(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        report = true_space(run(circuit), circuit.layout)
        assert len(report.true_space) + len(report.false_space) == 8
        assert not set(report.true_space) & set(report.false_space)


def report_reference(num_vars, mask):
    """count, true_space, false_space and bitstrings() built one Assignment
    at a time."""
    space = [Assignment.from_index(c, num_vars) for c in range(1 << num_vars)]
    true = tuple(a for a, bit in zip(space, mask) if bit)
    false = tuple(a for a, bit in zip(space, mask) if not bit)
    return len(true), true, false, tuple(a.bitstring() for a in true)


@st.composite
def report_masks(draw):
    n = draw(st.integers(0, 8))
    return n, draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n))


class TestSolutionReport:
    @settings(max_examples=100, deadline=None)
    @given(report_masks())
    def test_views_match_assignment_reference(self, case):
        n, mask = case
        report = SolutionReport(n, np.array(mask))
        views = (report.count, report.true_space, report.false_space)
        assert views + (report.bitstrings(),) == report_reference(n, mask)

    def test_mask_is_a_read_only_copy(self):
        mask = np.array([False, True])
        report = SolutionReport(1, mask)
        with pytest.raises(ValueError):
            report.satisfying[0] = True
        mask[0] = True
        assert report.count == 1

    def test_equality_compares_variables_and_mask(self):
        assert SolutionReport(1, [False, True]) == SolutionReport(1, np.array([0, 1]))
        assert SolutionReport(1, [False, True]) != SolutionReport(1, [True, False])
        assert SolutionReport(0, [True]) != SolutionReport(1, [True, False])

    def test_rejects_mask_of_wrong_length(self):
        with pytest.raises(ValueError, match="mask of shape"):
            SolutionReport(2, [True, False])


class TestBitstringLabels:
    @pytest.mark.parametrize("n", range(21))
    def test_equal_to_assignment_bitstring(self, n):
        if n <= 10:
            configs = np.arange(1 << n)
        else:
            rng = np.random.default_rng(n)
            configs = np.concatenate(([0, (1 << n) - 1], rng.integers(0, 1 << n, 300)))
        assert bitstring_labels(configs, n) == [
            Assignment.from_index(int(c), n).bitstring() for c in configs
        ]

    @pytest.mark.parametrize("n", [0, 5])
    def test_no_configurations(self, n):
        assert bitstring_labels(np.array([], dtype=np.int64), n) == []


class TestMarginalize:
    def test_scratch_sum_matches_eq9(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        state = run(circuit)
        reduced = marginalize(state, (0, 1, 2, 3))
        solutions = {a.index for a in brute_force_solutions(paper_3sat)}
        for a in range(8):
            expected_bit = int(a in solutions)
            assert reduced.populations[(a << 1) | expected_bit] == 0.125
            assert reduced.populations[(a << 1) | (1 - expected_bit)] == 0.0

    def test_keep_all_is_identity(self):
        state = initial_mixed_state(QubitLayout(2, 1))
        reduced = marginalize(state, (0, 1, 2, 3))
        assert np.array_equal(reduced.populations, state.populations)

    def test_variables_traced_out(self):
        state = initial_mixed_state(QubitLayout(2, 1))
        reduced = marginalize(state, (0, 3))  # work + scratch
        assert reduced.populations.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_empty_keep_rejected(self):
        state = initial_mixed_state(QubitLayout(1, 0))
        with pytest.raises(ValueError):
            marginalize(state, ())


class TestPathEquivalence:
    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 2 2\n1 0\n-2 0",
            "p cnf 3 3\n-1 0\n2 0\n3 0",
            "p cnf 3 1\n1 -2 3 0",
            "p cnf 2 1\n-1 -2 0",
        ],
    )
    def test_special_paths_match_general(self, text):
        formula = parse_dimacs(text)
        general = compile_formula(formula)
        general_report = true_space(run(general), general.layout)
        if all(len(c.literals) == 1 for c in formula.clauses):
            special = compile_1sat(formula)
        else:
            special = compile_single_clause(formula.clauses[0], formula.num_vars)
        special_report = true_space(run(special), special.layout)
        assert special_report == general_report


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9999), st.integers(1, 4), st.integers(1, 5))
    def test_random_formulas(self, seed, n, m):
        formula = random_formula(random.Random(seed), n=n, m=m, max_k=3)
        if any(not c.literals for c in formula.clauses):
            return
        circuit = compile_formula(formula)
        report = true_space(run(circuit), circuit.layout)
        assert report.true_space == brute_force_solutions(formula)


class TestUncomputeState:
    def test_scratch_point_mass(self, paper_3sat):
        circuit = append_uncompute(compile_formula(paper_3sat), paper_3sat)
        state = run(circuit)
        scratch = marginalize(state, circuit.layout.scratch_wires)
        assert scratch.populations[0] == pytest.approx(1.0, abs=1e-12)
        assert float(scratch.populations[1:].sum()) == pytest.approx(0.0, abs=1e-12)

    def test_solutions_still_readable(self, paper_3sat):
        circuit = append_uncompute(compile_formula(paper_3sat), paper_3sat)
        report = true_space(run(circuit), circuit.layout)
        assert report.true_space == brute_force_solutions(paper_3sat)


class TestExport:
    def test_state_table_lists_nonzero(self):
        state = initial_mixed_state(QubitLayout(1, 0))
        lines = state_table(state).splitlines()
        assert lines == ["00 0.5", "10 0.5"]


def random_layout_circuit(seed: int, layout: QubitLayout, max_gates: int = 40):
    rng = random.Random(seed)
    width = layout.width
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        if width < 2 or rng.random() < 0.5:
            gates.append(Not(rng.randrange(width)))
        else:
            target = rng.randrange(width)
            pool = [w for w in range(width) if w != target]
            controls = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            gates.append(Mcx(frozenset(controls), target))
    return Circuit(layout, tuple(gates))


def dense_run(circuit):
    """Reference: the full 2^width population vector, moved gate by gate."""
    layout = circuit.layout
    populations = np.zeros(1 << layout.width)
    populations[np.arange(1 << layout.num_vars) << 1] = 2.0**-layout.num_vars
    basis = np.arange(1 << layout.width, dtype=np.int64)
    for gate in circuit.gates:
        moved = np.empty_like(populations)
        moved[gate_permutation_indices(basis, gate)] = populations
        populations = moved
    return populations


class TestSupportState:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9999), st.integers(0, 11), st.integers(0, 11))
    def test_run_matches_permutation_and_dense_reference(self, seed, n, m):
        layout = QubitLayout(n, min(m, 11 - n))
        circuit = random_layout_circuit(seed, layout)
        initial = initial_mixed_state(layout)
        state = run(circuit)
        mapping = as_permutation(circuit).mapping
        assert np.array_equal(state.indices, mapping[initial.indices])
        assert np.array_equal(state.weights, initial.weights)
        assert np.array_equal(state.populations, dense_run(circuit))

    def test_pipeline_support_is_2_to_the_n(self, paper_3sat):
        state = run(compile_formula(paper_3sat))
        assert state.width == 7
        assert state.indices.size == state.weights.size == 8

    @pytest.mark.parametrize(
        "indices, weights",
        [
            ([0, 2, 2], [0.25, 0.25, 0.5]),  # repeated index
            ([0, 8], [0.5, 0.5]),  # index past 2^width
            ([-1, 2], [0.5, 0.5]),  # negative index
            ([0, 2], [1.5, -0.5]),  # negative weight
            ([0, 2], [0.5, 0.25]),  # weights sum to 0.75
            ([0, 2], [float("nan"), 1.0]),  # NaN weight
            ([0, 2], [1.0]),  # shape mismatch
            ([0.0, 2.0], [0.5, 0.5]),  # non-integer indices
        ],
    )
    def test_construction_rejects(self, indices, weights):
        with pytest.raises(ValueError):
            PopulationState(3, np.array(indices), np.array(weights))

    def test_from_populations_keeps_nonzero_support(self):
        state = PopulationState.from_populations(2, [0.0, 0.25, 0.0, 0.75])
        assert state.indices.tolist() == [1, 3]
        assert state.weights.tolist() == [0.25, 0.75]
        assert state.populations.tolist() == [0.0, 0.25, 0.0, 0.75]

    def test_from_populations_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PopulationState.from_populations(2, [0.5, 0.5])

    def test_marginalize_sums_points_on_one_reduced_index(self):
        state = PopulationState(3, np.array([5, 1, 4]), np.array([0.5, 0.25, 0.25]))
        reduced = marginalize(state, (0,))
        assert reduced.indices.tolist() == [0, 1]
        assert reduced.weights.tolist() == [0.25, 0.75]

    def test_true_space_rejects_wrong_weight(self):
        layout = QubitLayout(1, 0)
        state = PopulationState(2, np.array([0, 2]), np.array([0.75, 0.25]))
        with pytest.raises(PipelineFormError, match="assignment 0"):
            true_space(state, layout)
