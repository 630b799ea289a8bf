"""Exact simulation of diagonal mixed states under permutation circuits.

NOT and MCX gates only permute the computational basis, so the diagonal is a
complete description; no coherences ever appear.  A permutation also keeps
the number of weighted basis states fixed, so a state is stored on its
support: one int64 basis index and one float64 weight per point.  The
pipeline's uniform mixture over 2^n assignments keeps exactly 2^n points
through any circuit, 16 bytes x 2^n whatever the number of scratch wires.
Gates map the index array and never touch the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, QubitLayout, gate_permutation_indices, gate_wires
from .cnf import Assignment

WIDTH_CAP = 24
INDEX_BITS = 63  # basis indices are non-negative int64
WEIGHT_TOL = 1e-12


class PipelineFormError(ValueError):
    """State is not of the uniform single-survivor form the pipeline produces."""


@dataclass(frozen=True, eq=False)
class PopulationState:
    """Normalized diagonal density operator on 2^width basis states, stored
    as its support: basis state indices[k] carries weight weights[k]."""

    width: int
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.width <= INDEX_BITS:
            raise ValueError(f"width {self.width} outside 0..{INDEX_BITS}")
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ValueError("basis indices must be integers")
        if self.indices.ndim != 1 or self.indices.shape != self.weights.shape:
            raise ValueError("support indices and weights differ in shape")
        if self.indices.size:
            if int(self.indices.min()) < 0 or int(self.indices.max()) >> self.width:
                raise ValueError(f"basis index outside width {self.width}")
            # sort-and-compare: np.unique lazily imports numpy.ma on first use
            ordered = np.sort(self.indices)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("repeated basis index in support")
        if np.any(self.weights < 0):
            raise ValueError("negative population weight")
        if not abs(float(self.weights.sum()) - 1.0) <= WEIGHT_TOL:  # NaN fails too
            raise ValueError("populations do not sum to 1")

    @classmethod
    def from_populations(cls, width: int, populations: np.ndarray) -> "PopulationState":
        """Support of a dense vector of 2^width weights."""
        populations = np.asarray(populations, dtype=float)
        if populations.shape != (1 << width,):
            raise ValueError("population vector length mismatch")
        indices = np.flatnonzero(populations)
        return cls(width, indices, populations[indices])

    @property
    def populations(self) -> np.ndarray:
        """Dense view of 2^width weights, built on each access."""
        dense = np.zeros(1 << self.width)
        dense[self.indices] = self.weights
        return dense


@dataclass(frozen=True)
class SolutionReport:
    """Assignments split by the work bit: x0=1 satisfies, x0=0 does not."""

    true_space: tuple[Assignment, ...]
    false_space: tuple[Assignment, ...]

    @property
    def count(self) -> int:
        return len(self.true_space)

    def bitstrings(self) -> tuple[str, ...]:
        return tuple(a.bitstring() for a in self.true_space)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "true_space": list(self.bitstrings()),
            "false_space": [a.bitstring() for a in self.false_space],
        }


def initial_mixed_state(
    layout: QubitLayout, width_cap: int = WIDTH_CAP
) -> PopulationState:
    """Uniform mixture over all variable assignments; work and scratch bits 0."""
    width = layout.width
    if width > width_cap:
        raise ValueError(f"width {width} exceeds cap {width_cap}")
    n = layout.num_vars
    indices = np.arange(1 << n, dtype=np.int64) << 1
    return PopulationState(width, indices, np.full(1 << n, 2.0**-n))


def apply_gate(state: PopulationState, gate: Gate) -> PopulationState:
    """Move each support point along the gate's basis permutation."""
    if max(gate_wires(gate)) >= state.width:
        raise ValueError(f"gate {gate} exceeds state width {state.width}")
    indices = gate_permutation_indices(state.indices, gate)
    return PopulationState(state.width, indices, state.weights)


def run(circuit: Circuit, width_cap: int = WIDTH_CAP) -> PopulationState:
    state = initial_mixed_state(circuit.layout, width_cap)
    indices = state.indices
    for gate in circuit.gates:  # Circuit has checked every wire against its width
        indices = gate_permutation_indices(indices, gate)
    return PopulationState(state.width, indices, state.weights)


def true_space(
    state: PopulationState, layout: QubitLayout, tol: float = 1e-9
) -> SolutionReport:
    """Partition assignments by the work bit of their surviving basis state.

    Requires pipeline form: for every assignment exactly one work/scratch
    pattern carries weight, equal to 2^-n.
    """
    if state.width != layout.width:
        raise ValueError(f"state width {state.width} != layout width {layout.width}")
    n = layout.num_vars
    weighted = state.weights > tol
    indices = state.indices[weighted]
    weights = state.weights[weighted]
    configs = (indices >> 1) & ((1 << n) - 1)
    bad = np.bincount(configs, minlength=1 << n) != 1
    bad[configs[np.abs(weights - 2.0**-n) > tol]] = True
    if bad.any():
        a = int(np.argmax(bad))
        raise PipelineFormError(
            f"assignment {a:0{n}b} has weight split across patterns"
        )
    satisfied = np.zeros(1 << n, dtype=bool)
    satisfied[configs] = (indices & 1).astype(bool)
    true_list = [Assignment.from_index(int(a), n) for a in np.flatnonzero(satisfied)]
    false_list = [Assignment.from_index(int(a), n) for a in np.flatnonzero(~satisfied)]
    return SolutionReport(tuple(true_list), tuple(false_list))


def marginalize(state: PopulationState, keep: tuple[int, ...]) -> PopulationState:
    """Trace out all wires not in `keep`; kept wires are renumbered in
    ascending order of their original index.  Support points that land on
    the same reduced index are summed, so the result never outgrows the
    input's support."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("must keep at least one wire")
    if max(keep) >= state.width:
        raise ValueError("kept wire out of range")
    reduced = np.zeros_like(state.indices)
    for j, wire in enumerate(keep):
        reduced |= ((state.indices >> wire) & 1) << j
    order = np.argsort(reduced, kind="stable")
    reduced = reduced[order]
    starts = np.flatnonzero(np.diff(reduced, prepend=-1))
    weights = np.add.reduceat(state.weights[order], starts)
    return PopulationState(len(keep), reduced[starts], weights)


def state_table(state: PopulationState) -> str:
    """Two-column table of the weighted basis states in index order:
    bitstring (highest wire first) and weight."""
    order = np.argsort(state.indices)
    lines = [
        f"{format(int(index), f'0{state.width}b')} {weight:.12g}"
        for index, weight in zip(state.indices[order], state.weights[order])
        if weight > 0
    ]
    return "\n".join(lines) + "\n"
