"""Reference simulator: a diagonal state stored on its support, one int64
basis index and one float64 weight per point, moved gate by gate along
each gate's basis permutation.

It holds any normalized state on up to 63 wires, not only the pipeline's
one-point-per-assignment form, so the tests compare the bit-plane
simulator in `cnotsat.sim` against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cnotsat import PipelineFormError, PopulationState, QubitLayout, SolutionReport
from cnotsat.circuit import gate_permutation_indices

INDEX_BITS = 63  # basis indices are non-negative int64
WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SupportState:
    """Normalized diagonal density operator on 2^width basis states:
    basis state indices[k] carries weight weights[k]."""

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
            ordered = np.sort(self.indices)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("repeated basis index in support")
        if np.any(self.weights < 0):
            raise ValueError("negative population weight")
        if not abs(float(self.weights.sum()) - 1.0) <= WEIGHT_TOL:  # NaN fails too
            raise ValueError("populations do not sum to 1")

    @classmethod
    def from_populations(cls, width: int, populations) -> "SupportState":
        """Support of a dense vector of 2^width weights."""
        populations = np.asarray(populations, dtype=float)
        if populations.shape != (1 << width,):
            raise ValueError("population vector length mismatch")
        indices = np.flatnonzero(populations)
        return cls(width, indices, populations[indices])

    @property
    def populations(self) -> np.ndarray:
        dense = np.zeros(1 << self.width)
        dense[self.indices] = self.weights
        return dense


def initial_support(layout: QubitLayout) -> SupportState:
    """Uniform mixture over all variable assignments; work and scratch bits 0."""
    n = layout.num_vars
    indices = np.arange(1 << n, dtype=np.int64) << 1
    return SupportState(layout.width, indices, np.full(1 << n, 2.0**-n))


def apply_gate(state: SupportState, gate) -> SupportState:
    """Move each support point along the gate's basis permutation."""
    indices = gate_permutation_indices(state.indices, gate)
    return SupportState(state.width, indices, state.weights)


def reference_run(circuit) -> SupportState:
    state = initial_support(circuit.layout)
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def reference_true_space(
    state: SupportState, layout: QubitLayout, tol: float = 1e-9
) -> SolutionReport:
    """Partition assignments by the work bit of their surviving basis state,
    read by final configuration.  Requires that every assignment has
    exactly one work/scratch pattern, carrying weight 2^-n."""
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
    return SolutionReport(n, satisfied)


def reference_marginalize(state: SupportState, keep) -> SupportState:
    """Trace out all wires not in `keep`, renumbering the kept ones in
    ascending order; points on one reduced index are summed."""
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
    return SupportState(len(keep), reduced[starts], weights)


def column_planes(num_vars: int, width: int, columns) -> PopulationState:
    """Bit-plane state whose column c sits on basis state columns[c]."""
    columns = np.asarray(columns, dtype=np.int64)
    bits = (columns[None, :] >> np.arange(width)[:, None]) & 1
    planes = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return PopulationState(num_vars, planes)
