"""Exact simulation of the pipeline's diagonal mixed state under
permutation circuits.

NOT and MCX gates only permute the computational basis, so the diagonal is
a complete description; no coherences ever appear.  The pipeline starts
from the uniform mixture over the 2^n variable assignments with the work
and scratch wires at 0, and a permutation only moves the basis state each
assignment sits on: every assignment keeps weight 2^-n.  So a state is
stored bit-sliced, one packed row of 2^n bits per wire, indexed by the
initial assignment: width x ceil(2^n / 8) bytes for any number of wires.
NOT inverts a row, MCX XORs the AND of its control rows into its target
row, and the work row is the readout.

Memory has one bound, MAX_BYTES (1 GiB), and one check, check_bytes: each
large allocation of the package counts its bytes first and is refused with
a ValueError past the bound, so no option bounds the circuit width.  The
counts, read off the code that allocates and held above tracemalloc peaks
by the tests:
- simulation state (`run`, then `work_mask`): (width + max(n, 8) + 1)
  rows of ceil(2^n / 8) bytes, the planes beside the n input rows and the
  scratch row, or beside the work row unpacked to 2^n bytes;
- dense view (`PopulationState.populations`): the view, 8 x 2^width bytes;
  its column index and weights add 16 bytes per assignment;
- line-position table (`spectrum.TABLE_BYTES`): 32 bytes per line, which
  also cover the multiplet and, from n = 16 on, the decode beside it;
- `spectrum.line_table` text: 271 + 2.25 n bytes per line at the narrowest
  fields (302 at n = 14), more for wider ones (`spectrum.line_text_bytes`);
- `spectrum.render`: 24 bytes per point; with the CSV of `trace_csv`,
  169 per point on a grid within +-99999 Hz (`spectrum.trace_bytes`);
- `spectrum --json` lines: 880 bytes per line (`cli.JSON_LINE_BYTES`);
- solution lists of `solve` and `verify`: 4 n + 168 bytes per solution.
The CLI checks a spectral run's table and output from n before it builds
its spin system or simulates anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, QubitLayout
from .cnf import Assignment

MAX_BYTES = 1 << 30


def check_bytes(what: str, nbytes: int, doublings: int = 0) -> None:
    """Raise ValueError when `what`, nbytes x 2^doublings bytes, would pass
    MAX_BYTES.  Past 2^64 the count is named as that product, so no huge
    power of two is built for it."""
    if nbytes <= 0:
        return
    if doublings > 64:
        needed = f"{nbytes} x 2^{doublings}"
    else:
        needed = nbytes << doublings
        if needed <= MAX_BYTES:
            return
    raise ValueError(f"{what} needs {needed} bytes, over the {MAX_BYTES}-byte bound")


class PipelineFormError(ValueError):
    """State is not of the form the pipeline produces: a variable wire was
    not restored, so a column no longer holds its own assignment."""


def _row_bytes(num_vars: int) -> int:
    return ((1 << num_vars) + 7) // 8


@dataclass(frozen=True, eq=False)
class PopulationState:
    """Normalized diagonal density operator on 2^width basis states, one
    point of weight 2^-num_vars per initial assignment.  Bit c of row w of
    the read-only uint8 array planes (packed with bitorder="little") is wire
    w of the basis state that assignment c sits on; bits past column
    2^num_vars - 1 are padding and never read."""

    num_vars: int
    planes: np.ndarray

    def __post_init__(self) -> None:
        # a read-only view: an array the caller passed in stays writeable
        planes = np.asarray(self.planes, dtype=np.uint8).view()
        if planes.ndim != 2 or planes.shape[1] != _row_bytes(self.num_vars):
            raise ValueError(
                f"planes of shape {planes.shape} for {self.num_vars} variables"
            )
        planes.flags.writeable = False
        object.__setattr__(self, "planes", planes)

    @property
    def width(self) -> int:
        return self.planes.shape[0]

    @property
    def populations(self) -> np.ndarray:
        """Dense view of 2^width weights, built on each access.  Columns on
        one basis state add up; 2^-n times a count is exact.  Raises
        ValueError when the view would pass MAX_BYTES."""
        check_bytes(f"dense view of width {self.width}", 8, self.width)
        n = self.num_vars
        index = np.zeros(1 << n, dtype=np.int64)
        bits = np.empty_like(index)
        for wire, row in enumerate(self.planes):
            bits[:] = np.unpackbits(row, count=1 << n, bitorder="little")
            index |= np.left_shift(bits, wire, out=bits)
        del bits
        # weights summed in float64 straight into the view: every partial sum
        # is a multiple of 2^-n below 1, so each entry is exact
        weights = np.full(1 << n, 2.0**-n)
        return np.bincount(index, weights, minlength=1 << self.width)


def _read_only(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype.  An ndarray of that dtype that
    nothing can write to, read-only and either owning its data or viewing a
    read-only array that does, is kept as it is; anything else is copied."""
    if type(values) is np.ndarray and values.dtype == dtype:
        array = values
        while type(array) is np.ndarray and not array.flags.writeable:
            if array.base is None:
                return values
            array = array.base
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def bitstring_labels(configs: np.ndarray, num_vars: int) -> list[str]:
    """x_n..x_1 display strings of configuration indices, formatted in bulk;
    entry k equals Assignment.from_index(configs[k], num_vars).bitstring()."""
    configs = np.asarray(configs, dtype=np.int64)
    if num_vars == 0:
        return [""] * configs.size
    shifts = np.arange(num_vars - 1, -1, -1, dtype=np.int64)
    # one UCS4 code unit per digit, so each row of the block is one string;
    # shifted in buffered chunks straight into it, with no int64 block
    digits = np.empty((configs.size, num_vars), dtype=np.uint32)
    np.right_shift(configs[:, None], shifts, out=digits, casting="unsafe")
    digits &= 1
    digits += ord("0")
    return digits.view(f"U{num_vars}").ravel().tolist()


@dataclass(frozen=True, eq=False)
class SolutionReport:
    """Assignments split by the work bit: satisfying[c] is True when
    configuration c (bit i-1 holds x_i) ends with x0=1.  The mask is
    read-only: a boolean array nothing can write to is kept as given,
    anything else is copied.  Assignment tuples are built only when read."""

    num_vars: int
    satisfying: np.ndarray

    def __post_init__(self) -> None:
        mask = _read_only(self.satisfying, bool)
        if mask.shape != (1 << self.num_vars,):
            raise ValueError(
                f"mask of shape {mask.shape} for {self.num_vars} variables"
            )
        object.__setattr__(self, "satisfying", mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolutionReport):
            return NotImplemented
        # the mask's length is 2^num_vars, so equal masks mean equal num_vars
        return bool(np.array_equal(self.satisfying, other.satisfying))

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.satisfying))

    def _assignments(self, mask: np.ndarray) -> tuple[Assignment, ...]:
        n = self.num_vars
        return tuple(Assignment.from_index(c, n) for c in np.flatnonzero(mask).tolist())

    @property
    def true_space(self) -> tuple[Assignment, ...]:
        return self._assignments(self.satisfying)

    @property
    def false_space(self) -> tuple[Assignment, ...]:
        return self._assignments(~self.satisfying)

    def bitstrings(self) -> tuple[str, ...]:
        return tuple(bitstring_labels(np.flatnonzero(self.satisfying), self.num_vars))


def _variable_rows(num_vars: int) -> np.ndarray:
    """Input rows of wires 1..n: bit c of row i-1 is bit i-1 of c.  Row i-1
    repeats with period 2^i columns, so rows 0..2 are one constant byte and
    later rows alternate runs of 0x00 and 0xFF bytes."""
    rows = np.zeros((num_vars, _row_bytes(num_vars)), dtype=np.uint8)
    for bit, row in enumerate(rows):
        if bit < 3:
            row[:] = (0xAA, 0xCC, 0xF0)[bit]
        else:
            run = 1 << (bit - 3)
            row.reshape(-1, 2 * run)[:, run:] = 0xFF
    return rows


def _initial_planes(layout: QubitLayout) -> np.ndarray:
    """Writable planes of the initial mixture, for run to permute in place.
    Checks the bytes of the whole simulation first: the planes, the input
    rows beside them, and run's scratch row or work_mask's work row."""
    width, n = layout.width, layout.num_vars
    check_bytes(
        f"simulation state of width {width}", width + max(n, 8) + 1, max(n - 3, 0)
    )
    planes = np.zeros((width, _row_bytes(n)), dtype=np.uint8)
    planes[1 : n + 1] = _variable_rows(n)
    return planes


def initial_mixed_state(layout: QubitLayout) -> PopulationState:
    """Uniform mixture over all variable assignments; work and scratch bits 0."""
    return PopulationState(layout.num_vars, _initial_planes(layout))


def run(circuit: Circuit) -> PopulationState:
    planes = _initial_planes(circuit.layout)
    scratch = np.empty(planes.shape[1], dtype=np.uint8)
    for step in circuit.steps:  # every wire of a Circuit is within its width
        if type(step) is not tuple:
            target = planes[step]
            np.invert(target, out=target)
            continue
        controls, wire = step
        target = planes[wire]
        first, *rest = controls
        control = planes[first]
        if rest:
            control = np.bitwise_and(control, planes[rest[0]], out=scratch)
            for wire in rest[1:]:
                np.bitwise_and(control, planes[wire], out=control)
        np.bitwise_xor(target, control, out=target)
    return PopulationState(circuit.layout.num_vars, planes)


def work_mask(state: PopulationState, num_vars: int) -> np.ndarray:
    """Work bit of the basis state each assignment ends on, as a boolean
    mask over the 2^n assignments.  Raises PipelineFormError when a
    variable row differs from its input row: the circuit did not restore
    that variable, so its column no longer names its assignment."""
    if state.num_vars != num_vars:
        raise ValueError(f"state on {state.num_vars} variables read as {num_vars}")
    n = num_vars
    moved = _variable_rows(n)
    moved ^= state.planes[1 : n + 1]
    if n < 3:  # one byte, whose bits past column 2^n - 1 are padding
        moved &= (1 << (1 << n)) - 1
    changed = np.flatnonzero(moved.max(axis=1))  # any() would cast in a buffer
    del moved  # before the work row is unpacked beside the planes
    if changed.size:
        raise PipelineFormError(
            f"circuit does not restore variable x{changed[0] + 1}"
        )
    bits = np.unpackbits(state.planes[0], count=1 << n, bitorder="little")
    bits.flags.writeable = False
    return bits.view(bool)


def true_space(state: PopulationState, layout: QubitLayout) -> SolutionReport:
    """Partition assignments by the work bit of the basis state each one
    ends on.  Requires pipeline form: every variable wire restored."""
    if state.width != layout.width:
        raise ValueError(f"state width {state.width} != layout width {layout.width}")
    return SolutionReport(layout.num_vars, work_mask(state, layout.num_vars))


def marginalize(state: PopulationState, keep: tuple[int, ...]) -> PopulationState:
    """Trace out all wires not in `keep`; kept wires are renumbered in
    ascending order of their original index.  Assignments landing on one
    reduced basis state add up in `populations`."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("must keep at least one wire")
    if keep[0] < 0 or keep[-1] >= state.width:
        raise ValueError("kept wire out of range")
    return PopulationState(state.num_vars, state.planes[list(keep)])


def state_table(state: PopulationState) -> str:
    """Two-column table of the weighted basis states in index order:
    bitstring (highest wire first) and weight."""
    populations = state.populations
    lines = [
        f"{format(index, f'0{state.width}b')} {populations[index]:.12g}"
        for index in np.flatnonzero(populations).tolist()
    ]
    return "\n".join(lines) + "\n"
