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
        if type(self.controls) is not frozenset:  # immutable, so kept without a copy
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


# A circuit is stored as plain steps, a wire for each Not and (controls,
# target) for each Mcx: cheap to build, to compare and to walk, so the
# compiler, peephole, text, census and simulator never build gate objects.
Step = int | tuple[frozenset[int], int]


@dataclass(frozen=True, init=False, eq=False)
class Circuit:
    """Gates applied in order to the wires of layout, stored as steps.

    Circuit(layout, gates) checks every gate against the layout's width and
    hands back the gates it was given.  A circuit the compiler built holds
    only steps; its Not and Mcx objects are built once, the first time
    `gates` is read, one Not per wire and one Mcx per distinct step.
    Equality and hashing read the steps, so both forms compare equal.

    The fields are layout and gates, so repr, dataclasses.replace and
    dataclasses.fields see the constructor's form; `gates` is the property
    below, which the dataclass takes for the field's default."""

    layout: QubitLayout
    gates: tuple[Gate, ...]

    def __init__(self, layout: QubitLayout, gates: tuple[Gate, ...]) -> None:
        gates = tuple(gates)  # a tuple is kept as given
        width = layout.width
        steps: list[Step] = []
        for gate in gates:
            if isinstance(gate, Mcx):
                step = (gate.controls, gate.target)
                wide = gate.target >= width or max(gate.controls) >= width
            else:
                step = gate.target
                wide = step >= width
            if wide:
                raise ValueError(f"gate {gate} exceeds width {width}")
            steps.append(step)
        self.__dict__.update(layout=layout, steps=tuple(steps), _gates=gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        gates = self.__dict__.get("_gates")
        if gates is None:
            gates = self.__dict__["_gates"] = tuple(_gates(self.steps))
        return gates

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Circuit:
            return NotImplemented
        return self.layout == other.layout and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.layout, self.steps))


def _built(layout: QubitLayout, steps: tuple[Step, ...]) -> Circuit:
    """A Circuit of steps, without the width check, for builders whose steps
    are in range by construction: the compile paths lay out their steps on a
    layout they have just checked, and peephole_cancel and append_uncompute
    only drop, reorder or repeat the steps of a circuit of the same layout."""
    circuit = object.__new__(Circuit)
    circuit.__dict__.update(layout=layout, steps=steps)
    return circuit


def compile_clause(
    clause: Clause, layout: QubitLayout, scratch_index: int
) -> tuple[Gate, ...]:
    """Clause block: NOTs on un-negated variables around an MCX onto the scratch wire.

    Maps |x>|s=0> to |x>|s=C(x)>.  A tautological clause (x and not-x) sets
    the scratch bit with a single NOT and no MCX.
    """
    if not clause.literals:
        raise CompileError("empty clause has no circuit form")
    scratch = layout.scratch_wire(scratch_index)
    return tuple(_gates(_block_plan(clause, layout, scratch)))


def _signs(clause: Clause) -> dict[int, bool] | None:
    """One pass over the literals: whether each variable is negated, in order
    of first occurrence, or None when some variable occurs both plain and
    negated.  Repeated literals count once."""
    negated: dict[int, bool] = {}
    for lit in clause.literals:
        if negated.setdefault(lit.var, lit.negated) != lit.negated:
            return None
    return negated


def _or_plan(
    negated: dict[int, bool], layout: QubitLayout, target: int
) -> list[Step]:
    """The OR of a clause onto target as plain steps, a wire for each NOT and
    (controls, target) for the MCX: NOTs on the wires of the un-negated
    variables, in wire order, around an MCX from every variable's wire, then
    a NOT on target.  A variable outside the layout is var_wire's ValueError."""
    positive = [var for var, neg in negated.items() if not neg]
    if max(negated) > layout.num_vars:  # Literal keeps every variable >= 1
        for var in positive + list(negated):
            layout.var_wire(var)
    positive.sort()
    return positive + [(frozenset(negated), target)] + positive + [target]


def _block_plan(clause: Clause, layout: QubitLayout, scratch: int) -> list[Step]:
    """Steps of the clause block onto scratch; a tautology only NOTs scratch."""
    negated = _signs(clause)
    return [scratch] if negated is None else _or_plan(negated, layout, scratch)


def _gates(steps) -> list[Gate]:
    """The gates of some steps: equal steps share one gate object, so there
    is one Not per wire and one Mcx per distinct (controls, target)."""
    built: dict[Step, Gate] = {}
    gates: list[Gate] = []
    for step in steps:
        gate = built.get(step)
        if gate is None:
            gate = built[step] = Mcx(*step) if type(step) is tuple else Not(step)
        gates.append(gate)
    return gates


def _general_layout(formula: CnfFormula, width_cap: int | None) -> QubitLayout:
    """Check the formula for the general path and return its layout: one
    scratch wire per clause, clause mu computed onto scratch wire mu."""
    m = formula.num_clauses
    if m == 0:
        raise CompileError("empty formula has no circuit form")
    for clause in formula.clauses:
        if not clause.literals:
            raise CompileError("empty clause has no circuit form")
    layout = QubitLayout(formula.num_vars, m)
    _check_cap(layout, width_cap)
    return layout


def _check_cap(layout: QubitLayout, width_cap: int | None) -> None:
    if width_cap is not None and layout.width > width_cap:
        raise CompileError(f"width {layout.width} exceeds cap {width_cap}")


def _general_plan(
    formula: CnfFormula, width_cap: int | None
) -> tuple[QubitLayout, tuple[Step, ...], tuple[int, ...]]:
    """The general path's layout, its steps, and the offset of each clause
    block in them followed by the offset of the final AND.  Planned on the
    first call for a formula and kept in its _plan field, so a later compile
    or uncompute of the same object only checks width_cap."""
    plan = formula._plan
    if plan is not None:
        _check_cap(plan[0], width_cap)
        return plan
    layout = _general_layout(formula, width_cap)
    steps: list[Step] = []
    starts: list[int] = []
    for mu, clause in enumerate(formula.clauses, start=1):
        starts.append(len(steps))
        steps += _block_plan(clause, layout, layout.scratch_wire(mu))
    starts.append(len(steps))
    steps.append((frozenset(layout.scratch_wires), layout.work_wire))
    plan = (layout, tuple(steps), tuple(starts))
    object.__setattr__(formula, "_plan", plan)
    return plan


def compile_formula(formula: CnfFormula, width_cap: int | None = None) -> Circuit:
    """General path: one clause block per clause, then an MCX from all scratch
    wires onto the work wire.  Maps |x>|0>|0..0> to |x>|F(x)>|C_m(x)..C_1(x)>.
    A circuit wider than width_cap, when one is given, is a CompileError.
    """
    layout, steps, _ = _general_plan(formula, width_cap)
    return _built(layout, steps)


def compile_1sat(formula: CnfFormula) -> Circuit:
    """Unit-clause conjunction as a single MCX sandwiched by NOTs on negated wires.

    Needs no scratch wires.  Rejects repeated or contradictory unit clauses
    (constant-false has no such form; use the general path).
    """
    if formula.num_clauses == 0:
        raise CompileError("empty formula has no circuit form")
    literals: list = []
    for clause in formula.clauses:
        lits = clause.literals  # a unit clause once repeated literals are dropped
        if not lits or any(lit != lits[0] for lit in lits[1:]):
            raise CompileError("not a 1-SAT formula")
        literals.append(lits[0])
    seen_vars = [l.var for l in literals]
    if len(set(seen_vars)) != len(seen_vars):
        raise CompileError("repeated or contradictory unit clauses")
    layout = QubitLayout(formula.num_vars, 0)
    layer: list[Step] = [layout.var_wire(l.var) for l in literals if l.negated]
    controls = frozenset(layout.var_wire(l.var) for l in literals)
    return _built(layout, tuple(layer + [(controls, layout.work_wire)] + layer))


def compile_single_clause(clause: Clause, num_vars: int) -> Circuit:
    """One-clause formula: NOTs on un-negated wires around an MCX onto the work
    wire, then a NOT on the work wire.  Needs no scratch wires.
    """
    if not clause.literals:
        raise CompileError("empty clause has no circuit form")
    negated = _signs(clause)
    if negated is None:
        raise CompileError("tautological clause has no single-clause form")
    layout = QubitLayout(num_vars, 0)
    return _built(layout, tuple(_or_plan(negated, layout, layout.work_wire)))


def peephole_cancel(circuit: Circuit) -> Circuit:
    """Remove NOT pairs on the same wire with no intervening gate on that wire.

    One left-to-right pass.  `pending` maps a wire to the output slot of a
    NOT that no later gate has touched yet; the next NOT on that wire blanks
    the slot and is dropped, and an MCX clears its wires.  On each wire every
    run of NOTs between two MCX gates is thus reduced modulo 2, keeping the
    run's last NOT when it is odd.  Never changes the circuit's permutation.
    """
    out: list[Step | None] = []
    pending: dict[int, int] = {}
    for step in circuit.steps:
        if type(step) is tuple:
            controls, target = step
            pending.pop(target, None)
            for control in controls:
                pending.pop(control, None)
            out.append(step)
        else:
            slot = pending.pop(step, None)
            if slot is None:
                pending[step] = len(out)
                out.append(step)
            else:
                out[slot] = None
    # from a list, so the tuple is allocated at its final size (see cli.main)
    return _built(circuit.layout, tuple([step for step in out if step is not None]))


def append_uncompute(circuit: Circuit, formula: CnfFormula) -> Circuit:
    """Append the clause blocks in reverse order, restoring all scratch wires to 0.

    Each clause block is its own inverse, so the appended tail undoes the
    scratch computation while the copied work-bit result survives.
    """
    layout, steps, starts = _general_plan(formula, circuit.layout.width)
    if layout != circuit.layout or circuit.steps != steps:
        raise CompileError("circuit was not produced by compile_formula(formula)")
    out = list(steps)
    for start, end in reversed(list(zip(starts, starts[1:]))):
        out += steps[start:end]
    return _built(layout, tuple(out))


def compile_auto(formula: CnfFormula, width_cap: int | None = None) -> Circuit:
    """Pick the cheapest faithful path: unit-clause conjunctions get the
    scratch-free MCX form, lone clauses the no-scratch form, everything else
    the general clause-block construction.  A formula with no clauses is
    constant true (one NOT on the work wire); one with an empty clause is
    constant false (no gates).  Whichever path is picked, a circuit wider
    than width_cap, when one is given, is a CompileError."""
    circuit = _pick_path(formula, width_cap)
    _check_cap(circuit.layout, width_cap)
    return circuit


def _pick_path(formula: CnfFormula, width_cap: int | None) -> Circuit:
    layout = QubitLayout(formula.num_vars)
    if not formula.clauses:
        return _built(layout, (layout.work_wire,))
    if not all(clause.literals for clause in formula.clauses):
        return _built(layout, ())
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
    for step in circuit.steps:
        if type(step) is tuple:
            arity = len(step[0])
            mcx_by_arity[arity] = mcx_by_arity.get(arity, 0) + 1
        else:
            not_count += 1
    return mcx_by_arity, not_count


def cost_model(formula: CnfFormula) -> GateCounts:
    """`gate_counts` of the circuit `compile_auto` picks (pre-peephole)."""
    return gate_counts(compile_auto(formula))


def gate_counts(circuit: Circuit) -> GateCounts:
    """Gate counts of a forward circuit as `compile_auto` builds it, with
    elementary projections.

    Per-gate projection rule: a C1-NOT is one elementary C-NOT; a Ck-NOT
    (k >= 2) costs 3(k-1) C-NOTs and 4(k-1) single-qubit gates.  Circuits on
    the OR-clause paths, the ones that NOT a work or scratch wire, report
    three fewer elementary C-NOTs than the plain per-gate sum, matching the
    published closed forms 3(3m-2) / 4(3m-1) for 3-SAT with m clauses.
    Every path puts its inversion layer on both sides of its MCX, so one
    layer is half the NOTs on variable wires.
    """
    mcx_by_arity, not_count = circuit_census(circuit)
    num_vars = circuit.layout.num_vars
    var_nots = sum(
        1
        for step in circuit.steps
        if type(step) is not tuple and 1 <= step <= num_vars
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
    """Line format: `qbc <width> <n> <m_scratch>`, then `x <t>` / `mcx c1,c2 <t>`,
    controls in increasing order."""
    layout = circuit.layout
    lines = [f"qbc {layout.width} {layout.num_vars} {layout.num_scratch}"]
    # A compile repeats steps (NOTs on the same wire, each clause block twice
    # after uncompute), so each distinct step is formatted once per call.
    formatted: dict[Step, str] = {}
    for step in circuit.steps:
        line = formatted.get(step)
        if line is None:
            if type(step) is tuple:
                controls, target = step
                line = f"mcx {','.join(map(str, sorted(controls)))} {target}"
            else:
                line = f"x {step}"
            formatted[step] = line
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def circuit_from_text(text: str) -> Circuit:
    stripped = (line.strip() for line in text.splitlines())
    lines = [line for line in stripped if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("qbc"):
        raise ValueError("missing qbc header")
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "qbc":
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
    for step in circuit.steps:
        if type(step) is tuple:
            controls, target = step
            gates.append({"gate": "mcx", "controls": sorted(controls), "target": target})
        else:
            gates.append({"gate": "x", "target": step})
    return {
        "width": circuit.layout.width,
        "num_vars": circuit.layout.num_vars,
        "num_scratch": circuit.layout.num_scratch,
        "gates": gates,
    }
