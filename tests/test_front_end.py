"""Differential tests of the front end: `parse_dimacs`, the compile paths,
`append_uncompute` and `circuit_to_text` against the literal-by-literal
references in `reference_front_end`, gate for gate, byte for byte and
message for message."""

import dataclasses
import random

from hypothesis import example, given, settings, strategies as st

from cnotsat import (
    Circuit,
    Clause,
    CnfFormula,
    Literal,
    Mcx,
    Not,
    QubitLayout,
    append_uncompute,
    circuit_from_text,
    circuit_to_text,
    compile_1sat,
    compile_auto,
    compile_clause,
    compile_formula,
    compile_single_clause,
    generate_random_ksat,
    parse_dimacs,
    peephole_cancel,
    to_dimacs,
)
from cnotsat import circuit as circ
from conftest import random_circuit, random_formula
import reference_front_end as ref


def outcome(fn, *args):
    """The value a call returns, or the exact type and message it raises."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # every exception is part of the compared outcome
        return "raised", type(exc), str(exc)


def same_outcome(fn, reference, *args):
    result = outcome(fn, *args)
    assert result == outcome(reference, *args)
    return result


# -- clauses -----------------------------------------------------------------

# variables 1..8 against layouts of 0..6 variables: some fall outside
literals = st.builds(Literal, st.integers(1, 8), st.booleans())
clauses = st.lists(literals, max_size=7).map(lambda lits: Clause(tuple(lits)))


@st.composite
def repeated_clauses(draw) -> Clause:
    """Clauses that repeat literals and variables, in any order."""
    pool = draw(st.lists(literals, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=8))
    return Clause(tuple(picks))


any_clause = st.one_of(clauses, repeated_clauses())


@settings(max_examples=150, deadline=None)
@given(any_clause, st.integers(0, 6), st.integers(0, 3), st.integers(-1, 4))
def test_compile_clause_matches_reference(clause, n, num_scratch, scratch_index):
    layout = QubitLayout(n, num_scratch)
    same_outcome(compile_clause, ref.compile_clause, clause, layout, scratch_index)


@settings(max_examples=100, deadline=None)
@given(any_clause, st.integers(-1, 6))
def test_compile_single_clause_matches_reference(clause, n):
    same_outcome(compile_single_clause, ref.compile_single_clause, clause, n)


unit_clauses = literals.map(lambda lit: Clause((lit,) * 2))  # a unit once deduped


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.lists(st.one_of(any_clause, unit_clauses), max_size=5))
def test_compile_1sat_matches_reference(n, clause_list):
    kept = tuple(c for c in clause_list if all(l.var <= n for l in c.literals))
    same_outcome(compile_1sat, ref.compile_1sat, CnfFormula(n, kept))


def test_one_not_per_wire_within_a_compile():
    formula = parse_dimacs("p cnf 3 3\n1 2 3 0\n1 2 -3 0\n-1 2 3 0\n")
    gates = compile_formula(formula).gates
    nots = [gate for gate in gates if isinstance(gate, Not)]
    assert len({id(gate) for gate in nots}) == len({gate.target for gate in nots})
    # the uncompute tail repeats each clause block's Mcx object
    gates = append_uncompute(compile_formula(formula), formula).gates
    mcxs = [gate for gate in gates if isinstance(gate, Mcx)]
    assert len({id(gate) for gate in mcxs}) == len(set(mcxs)) == 4


# -- DIMACS text -------------------------------------------------------------

TOKENS = st.one_of(
    st.integers(-9, 9).map(str),
    st.sampled_from(["0", "0", "x", "1.5", "--1", "+2", "-0", "00", "1_0", "٣", "c"]),
)
HEADERS = st.one_of(
    st.builds(
        "p cnf {} {}".format,
        st.sampled_from(["0", "1", "3", "6", "-1", "x"]),
        st.sampled_from(["0", "1", "2", "4", "-2", "y"]),
    ),
    st.sampled_from(["p cnf 3", "p dnf 3 2", "pcnf 3 2", "p cnf 3 2 1", "p"]),
)
LINES = st.one_of(
    st.lists(TOKENS, max_size=6).map(" ".join),
    HEADERS,
    st.sampled_from(["", "   ", "c comment", "%", "cnf 1 0"]),
)


@st.composite
def dimacs_texts(draw) -> str:
    """Mostly a header and then clause lines; any line may be malformed."""
    lines = draw(st.lists(LINES, max_size=3))
    if draw(st.booleans()):
        lines.append(draw(HEADERS))
    lines += draw(st.lists(LINES, max_size=8))
    return draw(st.sampled_from(["\n", "\r\n", " \n "])).join(lines)


@settings(max_examples=150, deadline=None)
@given(dimacs_texts())
def test_parse_matches_reference(text):
    same_outcome(parse_dimacs, ref.parse_dimacs, text)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 9999), st.integers(1, 8), st.integers(0, 8))
def test_parse_formula_text_matches_reference(seed, n, m):
    """Well-formed texts with repeated literals and tautologies."""
    text = to_dimacs(random_formula(random.Random(seed), n=n, m=m, max_k=5))
    result = same_outcome(parse_dimacs, ref.parse_dimacs, text)
    assert result[0] == "returned"


def test_parse_builds_each_literal_once():
    formula = parse_dimacs("p cnf 3 3\n1 -2 0\n-2 3 1 0\n1 1 -2 0\n")
    held = [lit for clause in formula.clauses for lit in clause.literals]
    assert len({id(lit) for lit in held}) == len(set(held)) == 3


# -- general path and uncompute ----------------------------------------------


@st.composite
def general_formulas(draw) -> CnfFormula:
    """Random k-SAT up to n=30, m=250, or small unstructured formulas with
    repeated literals and tautologies."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n = draw(st.integers(1, 30))
        k = draw(st.integers(1, min(n, 4)))
        return generate_random_ksat(n, draw(st.integers(1, 250)), k, seed)
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    return random_formula(random.Random(seed), n=n, m=m, max_k=5)


def reference_pipeline(formula: CnfFormula) -> tuple[Circuit, str]:
    width = QubitLayout(formula.num_vars, formula.num_clauses).width
    circuit = ref.append_uncompute(ref.compile_formula(formula, width), formula)
    circuit = peephole_cancel(circuit)
    return circuit, ref.circuit_to_text(circuit)


@settings(max_examples=40, deadline=None)
@given(general_formulas())
@example(generate_random_ksat(30, 250, 3, seed=5))  # the compile-wide shape
def test_uncomputed_pipeline_matches_reference(formula):
    width = QubitLayout(formula.num_vars, formula.num_clauses).width
    forward = compile_formula(formula, width)
    assert forward == ref.compile_formula(formula, width)
    uncomputed = append_uncompute(forward, formula)
    circuit = peephole_cancel(uncomputed)
    assert (circuit, circuit_to_text(circuit)) == reference_pipeline(formula)
    # the builders that skip Circuit's width check return circuits it accepts
    for built in (forward, uncomputed, circuit, peephole_cancel(forward)):
        assert Circuit(built.layout, built.gates) == built


# -- circuit text ------------------------------------------------------------


@st.composite
def gates_on(draw, width: int):
    target = draw(st.integers(0, width - 1))
    others = [wire for wire in range(width) if wire != target]
    if not others or draw(st.booleans()):
        return Not(target)
    controls = draw(st.sets(st.sampled_from(others), min_size=1, max_size=5))
    return Mcx(frozenset(controls), target)


@st.composite
def shared_gate_circuits(draw) -> Circuit:
    """Circuits up to width 14, so controls of 10 and more occur, mixing
    gates repeated as one object with fresh, possibly equal, gates."""
    n, num_scratch = draw(st.integers(0, 9)), draw(st.integers(0, 4))
    width = n + 1 + num_scratch
    pool = draw(st.lists(gates_on(width), min_size=1, max_size=6))
    gates = draw(st.lists(st.one_of(st.sampled_from(pool), gates_on(width)), max_size=24))
    return Circuit(QubitLayout(n, num_scratch), tuple(gates))


wide_mcx = Mcx(frozenset({2, 10, 9}), 0)  # "2,9,10" in numeric order, "10,2,9" as strings


@settings(max_examples=200, deadline=None)
@given(shared_gate_circuits())
@example(Circuit(QubitLayout(10, 1), (wide_mcx, Not(11), wide_mcx, Mcx(frozenset({2, 9, 10}), 0))))
def test_circuit_text_matches_reference_and_reads_back(circuit):
    text = circuit_to_text(circuit)
    assert text == ref.circuit_to_text(circuit)
    assert circuit_from_text(text) == circuit


@st.composite
def sign_flips(draw) -> tuple[CnfFormula, CnfFormula, int]:
    """A formula, the same formula with one literal's sign flipped, and an
    index into the gates of its circuit."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    seed = draw(st.integers(0, 9999))
    formula = random_formula(random.Random(seed), n=n, m=m, max_k=4)
    mu = draw(st.integers(0, m - 1))
    lits = formula.clauses[mu].literals
    j = draw(st.integers(0, len(lits) - 1))
    flipped = Clause(lits[:j] + (Literal(lits[j].var, not lits[j].negated),) + lits[j + 1 :])
    other = CnfFormula(n, formula.clauses[:mu] + (flipped,) + formula.clauses[mu + 1 :])
    return formula, other, draw(st.integers(0, 10_000))


def impostors(circuit: Circuit, formula: CnfFormula, other: CnfFormula, index: int):
    """Circuits that compile_formula(formula) may not have produced: its
    circuit changed one way each, and the circuit of `other`."""
    gates, layout = circuit.gates, circuit.layout
    width = layout.width
    i = index % len(gates)
    swapped_in = (Not(gates[i].target), Mcx(frozenset({0}), width - 1))
    return {
        "peepholed": peephole_cancel(circuit),
        "truncated": Circuit(layout, gates[:i]),
        "gate dropped": Circuit(layout, gates[:i] + gates[i + 1 :]),
        "gate repeated": Circuit(layout, gates[: i + 1] + gates[i:]),
        "not appended": Circuit(layout, gates + swapped_in[:1]),
        "not swapped in": Circuit(layout, gates[:i] + swapped_in[:1] + gates[i + 1 :]),
        "mcx swapped in": Circuit(layout, gates[:i] + swapped_in[1:] + gates[i + 1 :]),
        "rotated": Circuit(layout, gates[i:] + gates[:i]),
        "wider": Circuit(QubitLayout(layout.num_vars, layout.num_scratch + 1), gates),
        "uncomputed": append_uncompute(circuit, formula),
        "other formula": compile_formula(other, width),
    }


@settings(max_examples=100, deadline=None)
@given(sign_flips())
def test_uncompute_rejects_what_compile_formula_did_not_produce(case):
    formula, other, index = case
    width = QubitLayout(formula.num_vars, formula.num_clauses).width
    circuit = compile_formula(formula, width)
    accepted = same_outcome(append_uncompute, ref.append_uncompute, circuit, formula)
    assert accepted[0] == "returned"
    listed = Circuit(circuit.layout, list(circuit.gates))  # equal to circuit
    assert same_outcome(append_uncompute, ref.append_uncompute, listed, formula) == accepted
    for name, impostor in impostors(circuit, formula, other, index).items():
        result = same_outcome(append_uncompute, ref.append_uncompute, impostor, formula)
        if impostor != circuit:  # a flip inside a tautology can leave it unchanged
            assert result[0] == "raised", name


# -- steps and gates ---------------------------------------------------------


def assert_forms_agree(circuit: Circuit) -> None:
    """A circuit's steps and its gate objects describe one circuit."""
    gates = circuit.gates
    assert type(gates) is tuple and gates is circuit.gates  # built once
    rebuilt = Circuit(circuit.layout, gates)
    assert rebuilt == circuit and hash(rebuilt) == hash(circuit)
    assert rebuilt.gates is gates  # a circuit of gate objects hands them back
    listed = Circuit(circuit.layout, list(gates)).gates
    assert len(listed) == len(gates) and all(a is b for a, b in zip(listed, gates))
    assert circuit_from_text(circuit_to_text(circuit)) == circuit
    assert circuit.steps == tuple(
        (gate.controls, gate.target) if isinstance(gate, Mcx) else gate.target
        for gate in gates
    )
    # the dataclass view is the constructor's form, as before steps
    assert [f.name for f in dataclasses.fields(circuit)] == ["layout", "gates"]
    assert repr(circuit) == f"Circuit(layout={circuit.layout!r}, gates={gates!r})"
    assert dataclasses.replace(circuit, layout=circuit.layout) == circuit


@settings(max_examples=40, deadline=None)
@given(general_formulas(), st.integers(0, 2**32 - 1))
def test_steps_and_gates_agree(formula, seed):
    forward = compile_formula(formula)
    uncomputed = append_uncompute(forward, formula)
    for circuit in (
        random_circuit(seed),
        compile_auto(formula),
        forward,
        uncomputed,
        peephole_cancel(uncomputed),
    ):
        assert_forms_agree(circuit)


@settings(max_examples=60, deadline=None)
@given(shared_gate_circuits())
def test_gate_circuits_keep_their_gates(circuit):
    assert_forms_agree(circuit)
    assert_forms_agree(peephole_cancel(circuit))


class Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_uncompute_plans_the_formula_once(monkeypatch):
    plans = Counter(circ._block_plan)
    monkeypatch.setattr(circ, "_block_plan", plans)
    formula = generate_random_ksat(8, 12, 3, seed=3)
    width = QubitLayout(8, 12).width
    forward = compile_formula(formula)
    uncomputed = append_uncompute(forward, formula)
    assert plans.calls == formula.num_clauses
    assert uncomputed == ref.append_uncompute(ref.compile_formula(formula, width), formula)
    # an equal formula that is another object, and a circuit read back from text
    twin = CnfFormula(formula.num_vars, formula.clauses)
    assert append_uncompute(forward, twin) == uncomputed
    assert plans.calls == 2 * formula.num_clauses
    read_back = circuit_from_text(circuit_to_text(forward))
    assert append_uncompute(read_back, formula) == uncomputed
    assert plans.calls == 2 * formula.num_clauses
    # a planned formula still names the narrower width first
    narrow = Circuit(QubitLayout(8, 11), ())
    same_outcome(append_uncompute, ref.append_uncompute, narrow, formula)
    assert outcome(append_uncompute, narrow, formula)[2] == "width 21 exceeds cap 20"


def test_timed_path_builds_no_gate_objects(monkeypatch):
    """parse -> compile -> uncompute -> peephole -> text at the compile-wide
    shape plans the formula once and builds no Not or Mcx."""
    built = Counter(lambda gate: None)
    monkeypatch.setattr(Not, "__post_init__", lambda gate: built(gate))
    monkeypatch.setattr(Mcx, "__post_init__", lambda gate: built(gate))
    plans = Counter(circ._block_plan)
    monkeypatch.setattr(circ, "_block_plan", plans)
    formula = parse_dimacs(to_dimacs(generate_random_ksat(30, 250, 3, seed=5)))
    width = QubitLayout(30, 250).width
    circuit = append_uncompute(compile_formula(formula, width), formula)
    text = circuit_to_text(peephole_cancel(circuit))
    assert (built.calls, plans.calls) == (0, 250)
    # read once, the gates are one Not per wire and one Mcx per distinct step
    gates = circuit.gates
    assert built.calls == len(set(circuit.steps)) == len({id(gate) for gate in gates})
    assert text == ref.circuit_to_text(peephole_cancel(Circuit(circuit.layout, gates)))
