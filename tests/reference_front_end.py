"""Reference front end: the DIMACS parser and the circuit compiler written
literal by literal and gate by gate.

The parser converts and range-checks one token at a time, builds a Literal
per token and dedupes each clause through `Clause.deduplicated`.  The
compiler dedupes each clause the same way, tests `Clause.is_tautology`,
maps every variable through `QubitLayout.var_wire`, builds a fresh gate per
step and every circuit through the checking `Circuit(...)`, and
`append_uncompute` compiles the formula a second time to check its input.
`circuit_to_text` formats every gate line from scratch.  The tests compare
`cnotsat.cnf` and `cnotsat.circuit` against them gate for gate, byte for
byte and message for message.
"""

from __future__ import annotations

from cnotsat import (
    Circuit,
    Clause,
    CnfFormula,
    CompileError,
    DimacsError,
    Literal,
    Mcx,
    Not,
    QubitLayout,
)


def parse_dimacs(text: str) -> CnfFormula:
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[Clause] = []
    current: list[Literal] = []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate `p cnf` header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"bad header line: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"bad header line: {line!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"negative counts in header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError("clause body before `p cnf` header")
        for token in line.split():
            try:
                value = int(token)
            except ValueError as exc:
                raise DimacsError(f"bad token {token!r}") from exc
            if value == 0:
                clauses.append(Clause(tuple(current)).deduplicated())
                current = []
            else:
                index = abs(value)
                if index > num_vars:
                    raise DimacsError(
                        f"literal {value} out of range for {num_vars} variables"
                    )
                current.append(Literal(index, negated=value < 0))

    if num_vars is None:
        raise DimacsError("missing `p cnf` header")
    if current:
        raise DimacsError("unterminated clause at end of input")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but {len(clauses)} found"
        )
    return CnfFormula(num_vars, tuple(clauses))


def compile_clause(clause: Clause, layout: QubitLayout, scratch_index: int):
    clause = clause.deduplicated()
    if not clause.literals:
        raise CompileError("empty clause has no circuit form")
    scratch = layout.scratch_wire(scratch_index)
    if clause.is_tautology():
        return (Not(scratch),)
    positive = sorted(
        layout.var_wire(l.var) for l in clause.literals if not l.negated
    )
    all_wires = sorted(layout.var_wire(v) for v in clause.variables)
    layer = tuple(Not(w) for w in positive)
    return layer + (Mcx(frozenset(all_wires), scratch),) + layer + (Not(scratch),)


def _clause_blocks(formula: CnfFormula, width_cap: int):
    m = formula.num_clauses
    if m == 0:
        raise CompileError("empty formula has no circuit form")
    for clause in formula.clauses:
        if not clause.literals:
            raise CompileError("empty clause has no circuit form")
    layout = QubitLayout(formula.num_vars, m)
    if layout.width > width_cap:
        raise CompileError(f"width {layout.width} exceeds cap {width_cap}")
    blocks = [
        compile_clause(clause, layout, mu)
        for mu, clause in enumerate(formula.clauses, start=1)
    ]
    return layout, blocks


def _final_and(layout: QubitLayout) -> Mcx:
    return Mcx(frozenset(layout.scratch_wires), layout.work_wire)


def compile_formula(formula: CnfFormula, width_cap: int = 24) -> Circuit:
    layout, blocks = _clause_blocks(formula, width_cap)
    gates = [gate for block in blocks for gate in block]
    gates.append(_final_and(layout))
    return Circuit(layout, tuple(gates))


def compile_1sat(formula: CnfFormula) -> Circuit:
    if formula.num_clauses == 0:
        raise CompileError("empty formula has no circuit form")
    literals: list = []
    for clause in formula.clauses:
        clause = clause.deduplicated()
        if len(clause.literals) != 1:
            raise CompileError("not a 1-SAT formula")
        literals.append(clause.literals[0])
    seen_vars = [l.var for l in literals]
    if len(set(seen_vars)) != len(seen_vars):
        raise CompileError("repeated or contradictory unit clauses")
    layout = QubitLayout(formula.num_vars, 0)
    layer = tuple(Not(layout.var_wire(l.var)) for l in literals if l.negated)
    controls = frozenset(layout.var_wire(l.var) for l in literals)
    return Circuit(layout, layer + (Mcx(controls, layout.work_wire),) + layer)


def compile_single_clause(clause: Clause, num_vars: int) -> Circuit:
    clause = clause.deduplicated()
    if not clause.literals:
        raise CompileError("empty clause has no circuit form")
    if clause.is_tautology():
        raise CompileError("tautological clause has no single-clause form")
    layout = QubitLayout(num_vars, 0)
    positive = sorted(
        layout.var_wire(l.var) for l in clause.literals if not l.negated
    )
    controls = frozenset(layout.var_wire(v) for v in clause.variables)
    layer = tuple(Not(w) for w in positive)
    gates = (
        layer
        + (Mcx(controls, layout.work_wire),)
        + layer
        + (Not(layout.work_wire),)
    )
    return Circuit(layout, gates)


def append_uncompute(circuit: Circuit, formula: CnfFormula) -> Circuit:
    layout, blocks = _clause_blocks(formula, width_cap=circuit.layout.width)
    forward = [gate for block in blocks for gate in block] + [_final_and(layout)]
    if layout != circuit.layout or tuple(forward) != circuit.gates:
        raise CompileError("circuit was not produced by compile_formula(formula)")
    tail = tuple(gate for block in reversed(blocks) for gate in block)
    return Circuit(circuit.layout, circuit.gates + tail)


def circuit_to_text(circuit: Circuit) -> str:
    lines = [
        f"qbc {circuit.layout.width} {circuit.layout.num_vars} "
        f"{circuit.layout.num_scratch}"
    ]
    for gate in circuit.gates:
        if isinstance(gate, Not):
            lines.append(f"x {gate.target}")
        else:
            lines.append(f"mcx {','.join(str(c) for c in sorted(gate.controls))} {gate.target}")
    return "\n".join(lines) + "\n"
