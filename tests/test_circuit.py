import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cnotsat import (
    Assignment,
    Circuit,
    Clause,
    CnfFormula,
    CompileError,
    Literal,
    Mcx,
    Not,
    QubitLayout,
    append_uncompute,
    as_permutation,
    compile_1sat,
    compile_auto,
    compile_clause,
    compile_formula,
    compile_single_clause,
    cost_model,
    circuit_from_text,
    circuit_to_text,
    evaluate,
    generate_random_ksat,
    parse_dimacs,
    peephole_cancel,
)
from cnotsat.circuit import (
    circuit_census,
    circuit_to_dict,
    gate_wires,
)
from conftest import random_formula


def random_circuit(seed: int, width: int = 8, max_gates: int = 50) -> Circuit:
    rng = random.Random(seed)
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        if rng.random() < 0.5:
            gates.append(Not(rng.randrange(width)))
        else:
            target = rng.randrange(width)
            pool = [w for w in range(width) if w != target]
            controls = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            gates.append(Mcx(frozenset(controls), target))
    return Circuit(QubitLayout(width - 1, 0), tuple(gates))


def fixpoint_sweep(circuit: Circuit) -> Circuit:
    """Reference for peephole_cancel: pair each NOT with the next gate on its
    wire, delete both when that gate is a NOT, and sweep again until nothing
    changes."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            gate = gates[i]
            removed = False
            if isinstance(gate, Not):
                for j in range(i + 1, len(gates)):
                    other = gates[j]
                    if gate.target not in gate_wires(other):
                        continue
                    if isinstance(other, Not):
                        del gates[j]
                        del gates[i]
                        removed = True
                        changed = True
                    break
            if not removed:
                i += 1
            elif i > 0:
                i -= 1
    return Circuit(circuit.layout, tuple(gates))


@st.composite
def not_run_circuits(draw) -> Circuit:
    """Interleaved NOT runs on at most five wires, separated by MCX barriers."""
    width = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        if width > 1 and draw(st.booleans()):
            target = draw(st.integers(0, width - 1))
            pool = [w for w in range(width) if w != target]
            controls = draw(st.sets(st.sampled_from(pool), min_size=1))
            gates.append(Mcx(frozenset(controls), target))
        else:
            wires = draw(st.lists(st.integers(0, width - 1), max_size=12))
            gates.extend(Not(w) for w in wires)
    return Circuit(QubitLayout(width - 1, 0), tuple(gates))


def formula_outputs(circuit, formula):
    """Map each assignment through the circuit permutation, starting from
    work=0, scratch=0; returns (assignment value, output basis index) pairs."""
    perm = as_permutation(circuit)
    n = formula.num_vars
    return [(a, perm(a << 1)) for a in range(1 << n)]


class TestCompileClause:
    layout = QubitLayout(3, 1)

    def test_all_positive_clause(self):
        clause = Clause((Literal(1), Literal(2), Literal(3)))
        gates = compile_clause(clause, self.layout, 1)
        scratch = self.layout.scratch_wire(1)
        assert gates == (
            Not(1),
            Not(2),
            Not(3),
            Mcx(frozenset({1, 2, 3}), scratch),
            Not(1),
            Not(2),
            Not(3),
            Not(scratch),
        )
        assert sum(isinstance(g, Not) for g in gates) == 7

    def test_mixed_clause_skips_negated_wire(self):
        clause = Clause((Literal(1, negated=True), Literal(2)))
        gates = compile_clause(clause, self.layout, 1)
        scratch = self.layout.scratch_wire(1)
        assert gates == (
            Not(2),
            Mcx(frozenset({1, 2}), scratch),
            Not(2),
            Not(scratch),
        )

    def test_single_negated_literal(self):
        clause = Clause((Literal(1, negated=True),))
        gates = compile_clause(clause, self.layout, 1)
        scratch = self.layout.scratch_wire(1)
        assert gates == (Mcx(frozenset({1}), scratch), Not(scratch))

    def test_tautology_compiles_to_scratch_not(self):
        clause = Clause((Literal(1), Literal(1, negated=True)))
        assert compile_clause(clause, self.layout, 1) == (
            Not(self.layout.scratch_wire(1)),
        )

    def test_empty_clause_rejected(self):
        with pytest.raises(CompileError):
            compile_clause(Clause(()), self.layout, 1)

    def test_clause_block_computes_clause_value(self):
        # |x>|s=0> -> |x>|s=C(x)> for every assignment
        clause = Clause((Literal(1, negated=True), Literal(3)))
        layout = QubitLayout(3, 1)
        circuit = Circuit(layout, compile_clause(clause, layout, 1))
        perm = as_permutation(circuit)
        for a in range(8):
            out = perm(a << 1)
            expected = any(
                [not (a & 1), bool(a & 4)]
            )  # not-x1 or x3
            assert (out >> layout.scratch_wire(1)) & 1 == int(expected)
            assert (out >> 1) & 0b111 == a  # inputs preserved

    def test_block_is_involution(self):
        clause = Clause((Literal(1), Literal(2, negated=True), Literal(3)))
        layout = QubitLayout(3, 1)
        block = compile_clause(clause, layout, 1)
        doubled = Circuit(layout, block + block)
        assert as_permutation(doubled).is_identity()


class TestCompileFormula:
    def test_paper_structure(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        assert circuit.layout == QubitLayout(3, 3)
        mcx = [g for g in circuit.gates if isinstance(g, Mcx)]
        assert len(mcx) == 4
        assert mcx[-1] == Mcx(frozenset({4, 5, 6}), 0)

    def test_empty_formula_rejected(self):
        with pytest.raises(CompileError):
            compile_formula(CnfFormula(2, ()))

    def test_empty_clause_rejected(self):
        with pytest.raises(CompileError):
            compile_formula(CnfFormula(2, (Clause(()),)))

    def test_width_cap(self, paper_3sat):
        with pytest.raises(CompileError):
            compile_formula(paper_3sat, width_cap=5)

    def test_single_clause_matches_special_path(self):
        formula = CnfFormula(2, (Clause((Literal(1), Literal(2))),))
        general = compile_formula(formula)
        special = compile_single_clause(formula.clauses[0], 2)
        general_perm = as_permutation(general)
        special_perm = as_permutation(special)
        # restricted to scratch=0 inputs, (x, x0) outputs must agree
        for a in range(4):
            for x0 in (0, 1):
                b = (a << 1) | x0
                assert general_perm(b) & 0b111 == special_perm(b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9999), st.integers(1, 4), st.integers(1, 5))
    def test_semantics_match_oracle(self, seed, n, m):
        formula = random_formula(random.Random(seed), n=n, m=m, max_k=3)
        if any(not c.literals for c in formula.clauses):
            return
        circuit = compile_formula(formula)
        for a, out in formula_outputs(circuit, formula):
            assignment = Assignment.from_index(a, n)
            assert out & 1 == int(evaluate(formula, assignment))
            assert (out >> 1) & ((1 << n) - 1) == a  # input preservation
            for mu, clause in enumerate(formula.clauses, start=1):
                bit = (out >> circuit.layout.scratch_wire(mu)) & 1
                assert bit == int(
                    any(assignment.bits[l.var - 1] ^ l.negated for l in clause.literals)
                )


class TestCompile1Sat:
    def test_paper_1sat(self, paper_1sat):
        circuit = compile_1sat(paper_1sat)
        assert circuit.layout == QubitLayout(3, 0)
        assert circuit.gates == (
            Not(1),
            Mcx(frozenset({1, 2, 3}), 0),
            Not(1),
        )

    def test_single_positive_unit(self):
        circuit = compile_1sat(parse_dimacs("p cnf 1 1\n1 0"))
        assert circuit.gates == (Mcx(frozenset({1}), 0),)

    def test_two_negated_units(self):
        circuit = compile_1sat(parse_dimacs("p cnf 2 2\n-1 0\n-2 0"))
        assert circuit.gates == (
            Not(1),
            Not(2),
            Mcx(frozenset({1, 2}), 0),
            Not(1),
            Not(2),
        )
        perm = as_permutation(circuit)
        for a in range(4):
            assert perm(a << 1) & 1 == int(a == 0)

    def test_rejects_non_unit(self, paper_3sat):
        with pytest.raises(CompileError):
            compile_1sat(paper_3sat)

    def test_rejects_contradiction(self):
        with pytest.raises(CompileError):
            compile_1sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0"))


class TestCompileSingleClause:
    def test_all_positive(self):
        circuit = compile_single_clause(Clause((Literal(1), Literal(2), Literal(3))), 3)
        assert circuit.gates == (
            Not(1),
            Not(2),
            Not(3),
            Mcx(frozenset({1, 2, 3}), 0),
            Not(1),
            Not(2),
            Not(3),
            Not(0),
        )

    def test_all_negated(self):
        circuit = compile_single_clause(
            Clause((Literal(1, negated=True), Literal(2, negated=True))), 2
        )
        assert circuit.gates == (Mcx(frozenset({1, 2}), 0), Not(0))

    def test_or_of_one_copies_bit(self):
        circuit = compile_single_clause(Clause((Literal(1),)), 1)
        perm = as_permutation(circuit)
        assert perm(0b00) == 0b00
        assert perm(0b10) == 0b11

    def test_empty_clause_rejected(self):
        with pytest.raises(CompileError):
            compile_single_clause(Clause(()), 1)


class TestPeephole:
    def test_adjacent_pair_removed(self):
        circuit = Circuit(QubitLayout(1, 0), (Not(1), Not(1)))
        assert peephole_cancel(circuit).gates == ()

    def test_blocked_by_intervening_gate(self):
        gates = (Not(1), Mcx(frozenset({1}), 0), Not(1))
        circuit = Circuit(QubitLayout(1, 0), gates)
        assert peephole_cancel(circuit).gates == gates

    def test_cancels_across_untouched_wires(self):
        gates = (Not(1), Not(2), Not(1), Not(2))
        circuit = Circuit(QubitLayout(2, 0), gates)
        assert peephole_cancel(circuit).gates == ()

    def test_paper_formula_loses_nots(self, paper_3sat):
        raw = compile_formula(paper_3sat)
        optimized = peephole_cancel(raw)
        _, raw_nots = circuit_census(raw)
        _, opt_nots = circuit_census(optimized)
        assert opt_nots < raw_nots
        assert as_permutation(optimized) == as_permutation(raw)

    def test_expanded_double_layer_reduces_to_collapsed_form(self):
        # the double-NOT-layer clause form must peephole down to the same
        # gate count as the directly collapsed emission
        layout = QubitLayout(2, 1)
        clause = Clause((Literal(1, negated=True), Literal(2)))
        scratch = layout.scratch_wire(1)
        expanded = Circuit(
            layout,
            (
                Not(1),  # negation layer
                Not(1),
                Not(2),  # OR layer
                Mcx(frozenset({1, 2}), scratch),
                Not(1),
                Not(2),
                Not(1),
                Not(scratch),
            ),
        )
        collapsed = Circuit(layout, compile_clause(clause, layout, 1))
        reduced = peephole_cancel(expanded)
        assert as_permutation(reduced) == as_permutation(collapsed)
        assert len(reduced.gates) == len(collapsed.gates)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sound_on_random_circuits(self, seed):
        circuit = random_circuit(seed)
        optimized = peephole_cancel(circuit)
        assert len(optimized.gates) <= len(circuit.gates)
        assert as_permutation(optimized) == as_permutation(circuit)

    @settings(max_examples=300, deadline=None)
    @given(not_run_circuits())
    @example(Circuit(QubitLayout(0, 0), ()))
    def test_matches_fixpoint_sweep(self, circuit):
        assert peephole_cancel(circuit) == fixpoint_sweep(circuit)

    def test_wide_uncomputed_circuit(self):
        formula = generate_random_ksat(30, 250, 3, seed=5)
        width = QubitLayout(30, 250).width
        uncomputed = append_uncompute(compile_formula(formula, width), formula)
        optimized = peephole_cancel(uncomputed)
        assert optimized == fixpoint_sweep(uncomputed)
        assert peephole_cancel(optimized) == optimized
        last_was_not: dict[int, bool] = {}
        for gate in optimized.gates:
            is_not = isinstance(gate, Not)
            for wire in gate_wires(gate):
                assert not (is_not and last_was_not.get(wire, False))
                last_was_not[wire] = is_not


class TestUncompute:
    def test_scratch_cleared(self, paper_3sat):
        circuit = append_uncompute(compile_formula(paper_3sat), paper_3sat)
        perm = as_permutation(circuit)
        n = paper_3sat.num_vars
        for a in range(1 << n):
            out = perm(a << 1)
            assert out >> (n + 1) == 0  # scratch register zero
            assert out & 1 == int(
                evaluate(paper_3sat, Assignment.from_index(a, n))
            )

    def test_single_clause_matches_no_scratch_path(self):
        formula = CnfFormula(2, (Clause((Literal(1), Literal(2))),))
        uncomputed = append_uncompute(compile_formula(formula), formula)
        reference = compile_single_clause(formula.clauses[0], 2)
        up = as_permutation(uncomputed)
        rp = as_permutation(reference)
        for b in range(8):  # scratch=0 inputs
            assert up(b) & 0b111 == rp(b)

    def test_mismatch_rejected(self, paper_3sat, paper_1sat):
        with pytest.raises(CompileError):
            append_uncompute(compile_formula(paper_3sat), paper_1sat)

    def test_peepholed_circuit_rejected(self, paper_3sat):
        circuit = peephole_cancel(compile_formula(paper_3sat))
        with pytest.raises(CompileError, match="not produced by compile_formula"):
            append_uncompute(circuit, paper_3sat)

    def test_other_variable_count_rejected(self, paper_3sat):
        wider = CnfFormula(paper_3sat.num_vars + 1, paper_3sat.clauses)
        with pytest.raises(CompileError, match="not produced by compile_formula"):
            append_uncompute(compile_formula(wider), paper_3sat)
        with pytest.raises(CompileError, match="exceeds cap"):
            append_uncompute(compile_formula(paper_3sat), wider)


class TestCostModel:
    def test_paper_3sat_m3(self, paper_3sat):
        counts = cost_model(paper_3sat)
        assert counts.elementary_cnot == 21
        assert counts.elementary_single == 32
        assert counts.mcx_by_arity == {3: 4}

    def test_1sat_single_mcx(self):
        formula = parse_dimacs("p cnf 4 4\n1 0\n-2 0\n3 0\n-4 0\n")
        counts = cost_model(formula)
        assert counts.mcx_by_arity == {4: 1}
        assert counts.elementary_cnot == 3 * (4 - 1)
        assert counts.elementary_single == 4 * (4 - 1)

    def test_elementary_c1not(self):
        counts = cost_model(parse_dimacs("p cnf 1 1\n1 0"))
        assert counts.mcx_by_arity == {1: 1}
        assert counts.elementary_cnot == 1
        assert counts.elementary_single == 0

    @pytest.mark.parametrize("m", range(1, 7))
    def test_3sat_closed_forms(self, m):
        formula = generate_random_ksat(4, m, 3, seed=100 + m)
        counts = cost_model(formula)
        assert counts.elementary_cnot == 3 * (3 * m - 2)
        assert counts.elementary_single == 4 * (3 * m - 1)
        assert counts.conjugation_nots <= 3 * m


class TestPermutation:
    def test_not_swaps(self):
        perm = as_permutation(Circuit(QubitLayout(0, 0), (Not(0),)))
        assert perm(0) == 1 and perm(1) == 0

    def test_toffoli(self):
        circuit = Circuit(QubitLayout(2, 0), (Mcx(frozenset({1, 2}), 0),))
        perm = as_permutation(circuit)
        for b in range(8):
            expected = b ^ 1 if b & 0b110 == 0b110 else b
            assert perm(b) == expected

    def test_bijective(self):
        perm = as_permutation(random_circuit(3, width=6))
        assert sorted(perm.mapping.tolist()) == list(range(1 << 6))

    def test_width_limit(self):
        circuit = Circuit(QubitLayout(21, 0), ())
        with pytest.raises(ValueError):
            as_permutation(circuit)


class TestInterchange:
    def test_text_round_trip(self, paper_3sat):
        circuit = compile_formula(paper_3sat)
        text = circuit_to_text(circuit)
        assert text.splitlines()[0] == "qbc 7 3 3"
        assert circuit_from_text(text) == circuit

    def test_dict_round_trip(self, paper_1sat):
        # the shape of `compile --json`'s "circuit" object
        assert circuit_to_dict(compile_1sat(paper_1sat)) == {
            "width": 4,
            "num_vars": 3,
            "num_scratch": 0,
            "gates": [
                {"gate": "x", "target": 1},
                {"gate": "mcx", "controls": [1, 2, 3], "target": 0},
                {"gate": "x", "target": 1},
            ],
        }

    def test_bad_header(self):
        with pytest.raises(ValueError):
            circuit_from_text("x 0\n")


class TestCompileAuto:
    def test_picks_1sat_path(self, paper_1sat):
        assert compile_auto(paper_1sat).layout.num_scratch == 0

    def test_picks_single_clause_path(self):
        formula = CnfFormula(2, (Clause((Literal(1), Literal(2))),))
        assert compile_auto(formula).layout.num_scratch == 0

    def test_falls_back_to_general(self, paper_3sat):
        assert compile_auto(paper_3sat).layout.num_scratch == 3

    @pytest.mark.parametrize(
        "text",
        ["p cnf 5 1\n1 2 0", "p cnf 5 2\n1 0\n3 0", "p cnf 5 0", "p cnf 5 1\n0"],
        ids=["single-clause", "units", "no-clauses", "empty-clause"],
    )
    def test_width_cap_binds_every_path(self, text):
        formula = parse_dimacs(text)
        assert compile_auto(formula, width_cap=6).layout.width == 6
        with pytest.raises(CompileError, match="width 6 exceeds cap 5"):
            compile_auto(formula, width_cap=5)

    def test_all_paths_agree(self, paper_1sat):
        direct = as_permutation(compile_auto(paper_1sat))
        general = as_permutation(compile_formula(paper_1sat))
        n = paper_1sat.num_vars
        for a in range(1 << n):
            assert general(a << 1) & 1 == direct(a << 1) & 1
            assert direct(a << 1) >> 1 == a
