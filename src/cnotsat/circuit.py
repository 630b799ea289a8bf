"""Reversible NOT/MCX circuit IR and the CNF-to-circuit compiler.

Wire layout convention: wire 0 is the work bit, wires 1..n the variables
x_1..x_n, wires n+1..n+m the clause scratchpads.  Basis indices put wire w
at bit w, so the work bit is the least significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnf import Clause, CnfFormula

PERMUTATION_WIDTH_LIMIT = 20


class CompileError(ValueError):
    """Formula cannot be lowered to a circuit by the requested path."""


@dataclass(frozen=True)
class Not:
    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ValueError("negative wire index")


@dataclass(frozen=True)
class Mcx:
    """Multi-controlled NOT: flips target iff every control wire is 1."""

    controls: frozenset[int]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", frozenset(self.controls))
        if not self.controls:
            raise ValueError("Mcx needs at least one control")
        if self.target in self.controls:
            raise ValueError("Mcx target cannot be a control")
        if self.target < 0 or min(self.controls) < 0:
            raise ValueError("negative wire index")

    @property
    def arity(self) -> int:
        return len(self.controls)


Gate = Not | Mcx


def gate_wires(gate: Gate) -> frozenset[int]:
    if isinstance(gate, Not):
        return frozenset((gate.target,))
    return gate.controls | {gate.target}


@dataclass(frozen=True)
class QubitLayout:
    """Role map: work wire 0, variable wires 1..n, scratch wires n+1..n+m."""

    num_vars: int
    num_scratch: int = 0

    def __post_init__(self) -> None:
        if self.num_vars < 0 or self.num_scratch < 0:
            raise ValueError("negative qubit counts")

    @property
    def width(self) -> int:
        return self.num_vars + 1 + self.num_scratch

    @property
    def work_wire(self) -> int:
        return 0

    def var_wire(self, i: int) -> int:
        if not 1 <= i <= self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        return i

    def scratch_wire(self, mu: int) -> int:
        if not 1 <= mu <= self.num_scratch:
            raise ValueError(f"scratch index {mu} out of range")
        return self.num_vars + mu

    @property
    def var_wires(self) -> tuple[int, ...]:
        return tuple(range(1, self.num_vars + 1))

    @property
    def scratch_wires(self) -> tuple[int, ...]:
        return tuple(range(self.num_vars + 1, self.width))


@dataclass(frozen=True)
class Circuit:
    layout: QubitLayout
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        width = self.layout.width
        for gate in self.gates:
            if gate.target >= width or (
                isinstance(gate, Mcx) and max(gate.controls) >= width
            ):
                raise ValueError(f"gate {gate} exceeds width {width}")


def compile_clause(
    clause: Clause, layout: QubitLayout, scratch_index: int
) -> tuple[Gate, ...]:
    """Clause block: NOTs on un-negated variables around an MCX onto the scratch wire.

    Maps |x>|s=0> to |x>|s=C(x)>.  A tautological clause (x and not-x) sets
    the scratch bit with a single NOT and no MCX.
    """
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


def _clause_blocks(
    formula: CnfFormula, width_cap: int
) -> tuple[QubitLayout, list[tuple[Gate, ...]]]:
    """Check the formula for the general path and return its layout and its
    clause blocks, block mu computing clause mu onto scratch wire mu."""
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
    """General path: one clause block per clause, then an MCX from all scratch
    wires onto the work wire.  Maps |x>|0>|0..0> to |x>|F(x)>|C_m(x)..C_1(x)>.
    """
    layout, blocks = _clause_blocks(formula, width_cap)
    gates = [gate for block in blocks for gate in block]
    gates.append(_final_and(layout))
    return Circuit(layout, tuple(gates))


def compile_1sat(formula: CnfFormula) -> Circuit:
    """Unit-clause conjunction as a single MCX sandwiched by NOTs on negated wires.

    Needs no scratch wires.  Rejects repeated or contradictory unit clauses
    (constant-false has no such form; use the general path).
    """
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
    """One-clause formula: NOTs on un-negated wires around an MCX onto the work
    wire, then a NOT on the work wire.  Needs no scratch wires.
    """
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


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove NOT pairs on the same wire with no intervening gate on that wire.

    One left-to-right pass.  `pending` maps a wire to the output slot of a
    NOT that no later gate has touched yet; the next NOT on that wire blanks
    the slot and is dropped, and an MCX clears its wires.  On each wire every
    run of NOTs between two MCX gates is thus reduced modulo 2, keeping the
    run's last NOT when it is odd.  Never changes the circuit's permutation.
    """
    out: list[Gate | None] = []
    pending: dict[int, int] = {}
    for gate in circuit.gates:
        if isinstance(gate, Not):
            slot = pending.pop(gate.target, None)
            if slot is None:
                pending[gate.target] = len(out)
                out.append(gate)
            else:
                out[slot] = None
        else:
            pending.pop(gate.target, None)
            for control in gate.controls:
                pending.pop(control, None)
            out.append(gate)
    return Circuit(circuit.layout, tuple(gate for gate in out if gate is not None))


def append_uncompute(circuit: Circuit, formula: CnfFormula) -> Circuit:
    """Append the clause blocks in reverse order, restoring all scratch wires to 0.

    Each clause block is its own inverse, so the appended tail undoes the
    scratch computation while the copied work-bit result survives.
    """
    layout, blocks = _clause_blocks(formula, width_cap=circuit.layout.width)
    forward = [gate for block in blocks for gate in block] + [_final_and(layout)]
    if layout != circuit.layout or tuple(forward) != circuit.gates:
        raise CompileError("circuit was not produced by compile_formula(formula)")
    tail = tuple(gate for block in reversed(blocks) for gate in block)
    return Circuit(circuit.layout, circuit.gates + tail)


def compile_auto(formula: CnfFormula, width_cap: int = 24) -> Circuit:
    """Pick the cheapest faithful path: unit-clause conjunctions get the
    scratch-free MCX form, lone clauses the no-scratch form, everything else
    the general clause-block construction.  A formula with no clauses is
    constant true (one NOT on the work wire); one with an empty clause is
    constant false (no gates).  Whichever path is picked, a circuit wider
    than width_cap is a CompileError."""
    circuit = _pick_path(formula, width_cap)
    if circuit.layout.width > width_cap:
        raise CompileError(f"width {circuit.layout.width} exceeds cap {width_cap}")
    return circuit


def _pick_path(formula: CnfFormula, width_cap: int) -> Circuit:
    layout = QubitLayout(formula.num_vars)
    if not formula.clauses:
        return Circuit(layout, (Not(layout.work_wire),))
    if not all(clause.literals for clause in formula.clauses):
        return Circuit(layout, ())
    try:
        return compile_1sat(formula)
    except CompileError:
        pass
    if formula.num_clauses == 1:
        try:
            return compile_single_clause(formula.clauses[0], formula.num_vars)
        except CompileError:
            pass
    return compile_formula(formula, width_cap=width_cap)


# -- exact semantics ---------------------------------------------------------


@dataclass(eq=False)
class BasisPermutation:
    """Bijection on basis indices [0, 2^width)."""

    width: int
    mapping: np.ndarray

    def __call__(self, index: int) -> int:
        return int(self.mapping[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisPermutation):
            return NotImplemented
        return self.width == other.width and bool(
            np.array_equal(self.mapping, other.mapping)
        )

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mapping, np.arange(1 << self.width)))


def gate_permutation_indices(indices: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate's basis permutation elementwise to an index array."""
    if isinstance(gate, Not):
        return indices ^ (1 << gate.target)
    cmask = 0
    for c in gate.controls:
        cmask |= 1 << c
    out = indices.copy()
    sel = (out & cmask) == cmask
    out[sel] ^= 1 << gate.target
    return out


def as_permutation(
    circuit: Circuit, width_limit: int = PERMUTATION_WIDTH_LIMIT
) -> BasisPermutation:
    width = circuit.layout.width
    if width > width_limit:
        raise ValueError(f"width {width} exceeds permutation limit {width_limit}")
    mapping = np.arange(1 << width, dtype=np.int64)
    for gate in circuit.gates:
        mapping = gate_permutation_indices(mapping, gate)
    return BasisPermutation(width, mapping)


# -- gate accounting ---------------------------------------------------------


@dataclass(frozen=True)
class GateCounts:
    """Gate census of a compiled circuit plus projected elementary-gate costs.

    mcx_by_arity / not_count are read off the pre-peephole circuit.
    conjugation_nots counts one input-inversion layer (one NOT per literal
    whose wire is inverted around the clause MCX); this is the figure entering
    the O(km) NOT bound.  The elementary projections follow the published
    closed-form accounting for iterative multi-control decomposition and do
    not claim an executable gate sequence achieving them.
    """

    mcx_by_arity: dict[int, int] = field(default_factory=dict)
    not_count: int = 0
    conjugation_nots: int = 0
    elementary_cnot: int = 0
    elementary_single: int = 0

    def report(self) -> str:
        arities = " ".join(
            f"C{k}-NOT: {v}" for k, v in sorted(self.mcx_by_arity.items())
        )
        return "\n".join(
            [
                f"mcx gates: {arities if arities else 'none'}",
                f"not gates: {self.not_count}",
                f"inversion-layer nots: {self.conjugation_nots}",
                f"elementary C-NOT: {self.elementary_cnot}",
                f"elementary single-qubit: {self.elementary_single}",
            ]
        )


def circuit_census(circuit: Circuit) -> tuple[dict[int, int], int]:
    mcx_by_arity: dict[int, int] = {}
    not_count = 0
    for gate in circuit.gates:
        if isinstance(gate, Not):
            not_count += 1
        else:
            mcx_by_arity[gate.arity] = mcx_by_arity.get(gate.arity, 0) + 1
    return mcx_by_arity, not_count


def cost_model(formula: CnfFormula) -> GateCounts:
    """Gate counts for the circuit `compile_auto` picks (pre-peephole) with
    elementary projections.

    Per-gate projection rule: a C1-NOT is one elementary C-NOT; a Ck-NOT
    (k >= 2) costs 3(k-1) C-NOTs and 4(k-1) single-qubit gates.  Circuits on
    the OR-clause paths, the ones that NOT a work or scratch wire, report
    three fewer elementary C-NOTs than the plain per-gate sum, matching the
    published closed forms 3(3m-2) / 4(3m-1) for 3-SAT with m clauses.
    Every path puts its inversion layer on both sides of its MCX, so one
    layer is half the NOTs on variable wires.
    """
    # Counting allocates no state, so the simulator's width cap does not apply.
    uncapped = QubitLayout(formula.num_vars, formula.num_clauses).width
    circuit = compile_auto(formula, width_cap=uncapped)
    mcx_by_arity, not_count = circuit_census(circuit)
    var_nots = sum(
        1
        for gate in circuit.gates
        if isinstance(gate, Not) and 1 <= gate.target <= formula.num_vars
    )
    or_path = var_nots < not_count

    cnot = 0
    single = 0
    for arity, count in mcx_by_arity.items():
        if arity == 1:
            cnot += count
        else:
            cnot += 3 * (arity - 1) * count
            single += 4 * (arity - 1) * count
    if or_path and any(arity >= 2 for arity in mcx_by_arity):
        cnot -= 3
    return GateCounts(
        mcx_by_arity=mcx_by_arity,
        not_count=not_count,
        conjugation_nots=var_nots // 2,
        elementary_cnot=cnot,
        elementary_single=single,
    )


# -- interchange format ------------------------------------------------------


def circuit_to_text(circuit: Circuit) -> str:
    """Line format: `qbc <width> <n> <m_scratch>`, then `x <t>` / `mcx c1,c2 <t>`."""
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


def circuit_from_text(text: str) -> Circuit:
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not lines or not lines[0].startswith("qbc"):
        raise ValueError("missing qbc header")
    parts = lines[0].split()
    if len(parts) != 4:
        raise ValueError(f"bad qbc header: {lines[0]!r}")
    width, num_vars, num_scratch = int(parts[1]), int(parts[2]), int(parts[3])
    layout = QubitLayout(num_vars, num_scratch)
    if layout.width != width:
        raise ValueError("header width inconsistent with role counts")
    gates: list[Gate] = []
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "x" and len(parts) == 2:
            gates.append(Not(int(parts[1])))
        elif parts[0] == "mcx" and len(parts) == 3:
            controls = frozenset(int(c) for c in parts[1].split(","))
            gates.append(Mcx(controls, int(parts[2])))
        else:
            raise ValueError(f"bad gate line: {line!r}")
    return Circuit(layout, tuple(gates))


def circuit_to_dict(circuit: Circuit) -> dict:
    gates = []
    for gate in circuit.gates:
        if isinstance(gate, Not):
            gates.append({"gate": "x", "target": gate.target})
        else:
            gates.append(
                {
                    "gate": "mcx",
                    "controls": sorted(gate.controls),
                    "target": gate.target,
                }
            )
    return {
        "width": circuit.layout.width,
        "num_vars": circuit.layout.num_vars,
        "num_scratch": circuit.layout.num_scratch,
        "gates": gates,
    }
