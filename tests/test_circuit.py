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
    to_dimacs,
)
from cnotsat.circuit import circuit_census, circuit_to_dict
from conftest import random_circuit, random_formula


def gate_wires(gate) -> frozenset[int]:
    if isinstance(gate, Not):
        return frozenset((gate.target,))
    return gate.controls | {gate.target}


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


class TestGates:
    @pytest.mark.parametrize("kind", [list, set, frozenset])
    def test_mcx_checks_and_freezes_its_controls(self, kind):
        gate = Mcx(kind([3, 1]), 0)
        assert type(gate.controls) is frozenset
        assert gate == Mcx(frozenset({1, 3}), 0) and hash(gate) == hash(Mcx(frozenset({1, 3}), 0))
        for controls, target, message in [
            ([], 0, "at least one control"),
            ([1, 2], 2, "target cannot be a control"),
            ([-1, 2], 0, "negative wire index"),
            ([1], -1, "negative wire index"),
        ]:
            with pytest.raises(ValueError, match=message):
                Mcx(kind(controls), target)

    def test_mcx_keeps_a_frozenset_as_given(self):
        controls = frozenset({1, 3})
        assert Mcx(controls, 0).controls is controls

    @pytest.mark.parametrize(
        "gate", [Not(4), Mcx(frozenset({1, 4}), 0), Mcx(frozenset({1}), 4)]
    )
    def test_circuit_rejects_a_gate_past_its_width(self, gate):
        with pytest.raises(ValueError, match="exceeds width 4"):
            Circuit(QubitLayout(2, 1), (Not(3), gate))


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


QBC_HEADERS = st.builds(
    "{}{} {} {} {}".format,
    st.sampled_from(["", "  ", "\t"]),
    st.sampled_from(["qbc", "qbcx", "QBC", "qbc,"]),
    st.sampled_from(["0", "1", "2", "3", "6", "-1", "x"]),
    st.sampled_from(["0", "1", "2", "5", "-1"]),
    st.sampled_from(["0", "1", "3", "y"]),
)
SKIPPED_LINES = st.sampled_from(["", "   ", "# note", "  # note", "\t#"])
ODD_LINES = st.one_of(
    SKIPPED_LINES,
    st.sampled_from(["qbc", "qbc 2 1 0", "x", "mcx", "cx 1 0", "mcx 1", "x 1 2"]),
)


@st.composite
def qbc_texts(draw) -> str:
    """Mostly a consistent header after skipped lines, then gate lines on
    wires near its width; the header and any gate line may be malformed."""
    n, num_scratch = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    width = n + 1 + num_scratch
    consistent = st.just(f"qbc {width} {n} {num_scratch}")
    header = draw(st.one_of(consistent, consistent, QBC_HEADERS))
    in_range = st.integers(0, width - 1).map(str)
    wire = st.one_of(in_range, in_range, st.sampled_from(["-1", str(width), "", "x", "10", " "]))
    gate = st.one_of(
        st.builds("x {}".format, wire),
        st.builds("mcx {} {}".format, st.lists(wire, min_size=1, max_size=3).map(",".join), wire),
        ODD_LINES,
    )
    lines = draw(st.lists(SKIPPED_LINES, max_size=2)) + [header] + draw(st.lists(gate, max_size=5))
    return draw(st.sampled_from(["\n", "\r\n", " \n"])).join(lines)


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

    @pytest.mark.parametrize("header", ["qbcx 2 1 0", "qbc2 1 0 0", "qbc 2 1", "qbc 2 1 0 0"])
    def test_header_token_is_exactly_qbc(self, header):
        with pytest.raises(ValueError, match="bad qbc header"):
            circuit_from_text(header + "\nx 1\n")

    def test_indented_comments_are_skipped(self):
        text = "  # a note\nqbc 2 1 0\n\t# another\nx 1\n   #\nmcx 1 0\n"
        assert circuit_from_text(text) == Circuit(
            QubitLayout(1, 0), (Not(1), Mcx(frozenset({1}), 0))
        )

    @pytest.mark.parametrize("line", ["x 2", "mcx 1,2 0", "mcx 1 2"])
    def test_rejects_a_gate_past_the_width(self, line):
        with pytest.raises(ValueError, match="exceeds width 2"):
            circuit_from_text(f"qbc 2 1 0\n{line}\n")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=40), qbc_texts()))
    @example("qbc 12 10 1\nmcx 10,2,9 0\n")
    def test_any_text_raises_value_error_or_round_trips(self, text):
        try:
            circuit = circuit_from_text(text)
        except ValueError:
            return
        assert Circuit(circuit.layout, circuit.gates) == circuit
        assert circuit_from_text(circuit_to_text(circuit)) == circuit


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


@st.composite
def sized_formulas(draw) -> CnfFormula:
    """Formulas as parse_dimacs returns them (repeated literals dropped),
    n <= 8, m <= 6, k <= 4, with empty clauses, units and all-positive cases."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    raw = random_formula(random.Random(draw(st.integers(0, 2**32 - 1))), n=n, m=m, max_k=4)
    clauses = list(raw.clauses)
    if draw(st.booleans()):
        clauses = [Clause(tuple(Literal(l.var) for l in c.literals)) for c in clauses]
    if m and draw(st.integers(0, 9)) == 0:
        clauses[draw(st.integers(0, m - 1))] = Clause(())
    return parse_dimacs(to_dimacs(CnfFormula(n, tuple(clauses))))


class TestSizeBound:
    """The paper's size claim as a bound.  With L literals and m clauses a
    clause block has at most 2k + 2 gates (k NOTs each side of its MCX, a NOT
    on the scratch wire) and the final AND one, so every forward path has at
    most 2L + 2m + 1 gates, tight when every clause is all-positive; the
    uncompute tail repeats the blocks, at most 2L + 2m more."""

    @settings(max_examples=300, deadline=None)
    @given(sized_formulas())
    @example(parse_dimacs("p cnf 3 2\n1 2 0\n2 3 0\n"))  # 13 gates: 2L + m + 1 is 11
    def test_every_path_within_the_bound(self, formula):
        big_l, m = formula.num_literals, formula.num_clauses
        forward_bound = 2 * big_l + 2 * m + 1
        uncapped = QubitLayout(formula.num_vars, m).width
        paths = [
            lambda: compile_auto(formula, uncapped),
            lambda: compile_1sat(formula),
            lambda: compile_formula(formula, uncapped),
        ]
        if m == 1:
            paths.append(lambda: compile_single_clause(formula.clauses[0], formula.num_vars))
        for path in paths:
            try:
                forward = path()
            except CompileError:
                continue
            assert len(forward.gates) <= forward_bound
            assert len(peephole_cancel(forward).gates) <= len(forward.gates)
        try:
            forward = compile_formula(formula, uncapped)
        except CompileError:
            return
        uncomputed = append_uncompute(forward, formula)
        assert len(uncomputed.gates) <= 4 * big_l + 4 * m + 1
        assert len(peephole_cancel(uncomputed).gates) <= len(uncomputed.gates)
        if not any(l.negated for c in formula.clauses for l in c.literals):
            assert len(forward.gates) == forward_bound
            assert len(uncomputed.gates) == 4 * big_l + 4 * m + 1
