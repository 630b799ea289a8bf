"""Work-spin multiplet synthesis, Lorentzian traces, and spectral decoding.

Each configuration of the coupled variable spins produces one resonance line
of the observed work spin, shifted by +J/2 per spin-up (bit 0) neighbor and
-J/2 per spin-down (bit 1) neighbor.  Satisfying assignments flip the work
spin, which flips the sign of their line: positive lines form the FALSE
space, negative lines the TRUE space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .circuit import QubitLayout
from .sim import PopulationState, SolutionReport, bitstring_labels, check_bytes
from .sim import _read_only, work_mask

MERGE_TOL_HZ = 1e-9

# Bytes per line or grid point of this module's large allocations at their
# peak, read off the code below; each is checked with sim.check_bytes before
# anything is allocated.  The line-position table holds three 8-byte arrays
# at once while it is built (positions or gaps, the order and the sorted
# copy) and keeps two.  The multiplet beside it adds 10 bytes per line, and
# the decode beside both 2 bytes per line and a fixed 256 KiB block buffer:
# 32 bytes per line cover each step from n = 16 on.
TABLE_BYTES = 32
# render: the grid, the sum and one buffer
RENDER_BYTES = 24


class SpinSystemError(ValueError):
    """Spin system cannot support the requested synthesis or decode."""


class DegenerateMultipletError(SpinSystemError):
    """Two spin configurations map to indistinguishable line positions."""


@dataclass(frozen=True)
class SpinSystem:
    """Chemical shifts and scalar couplings, with a qubit-to-spin role map.

    qubit_spins[i-1] is the spin carrying variable qubit i; scratch_spins,
    when present, carry scratch qubits and must be decoupled.  Couplings are
    a symmetric Hz matrix; only couplings to the observed spin shape its
    multiplet.  It keeps its sorted line-position table for each n it is
    read at (`_positions`); the tables take no part in equality or repr.
    """

    names: tuple[str, ...]
    shifts: tuple[float, ...]
    observed: int
    couplings: tuple[tuple[float, ...], ...]
    qubit_spins: tuple[int, ...]
    decoupled: frozenset[int] = frozenset()
    scratch_spins: tuple[int, ...] = ()
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = len(self.names)
        if len(self.shifts) != size or len(self.couplings) != size:
            raise ValueError("names/shifts/couplings size mismatch")
        for i in range(size):
            if len(self.couplings[i]) != size:
                raise ValueError("coupling table is not square")
            for j in range(size):
                if self.couplings[i][j] != self.couplings[j][i]:
                    raise ValueError("coupling table is not symmetric")
        for role, spins in (
            ("observed", (self.observed,)),
            ("variable", self.qubit_spins),
            ("decoupled", sorted(self.decoupled)),
            ("scratch", self.scratch_spins),
        ):
            for spin in spins:
                if not 0 <= spin < size:
                    raise ValueError(
                        f"{role} spin index {spin} out of range for {size} spins"
                    )
        if self.observed in self.decoupled:
            raise ValueError("observed spin cannot be decoupled")
        if self.observed in self.qubit_spins:
            raise ValueError("observed spin cannot carry a variable qubit")
        for spin in self.scratch_spins:
            if spin not in self.decoupled:
                raise SpinSystemError(
                    f"scratch spin {self.names[spin]} is not decoupled"
                )

    @property
    def capacity(self) -> int:
        return len(self.qubit_spins)

    def j_to_observed(self, spin: int) -> float:
        return self.couplings[self.observed][spin]


@dataclass(frozen=True)
class SpectrumLine:
    """One resonance: Hz offset and signed normalized amplitude."""

    frequency: float
    amplitude: float


@dataclass(frozen=True, eq=False)
class Multiplet:
    """Resonance lines as two read-only float64 arrays (kept as given when
    nothing can write to them, else copied); synthesized ones are sorted by
    frequency with coinciding lines merged.  Reads as a sequence of
    SpectrumLine: an index gives one line, a slice a Multiplet."""

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        for name in ("frequencies", "amplitudes"):
            object.__setattr__(self, name, _read_only(getattr(self, name), float))
        shape = self.frequencies.shape
        if len(shape) != 1 or shape != self.amplitudes.shape:
            raise ValueError("frequencies and amplitudes differ in shape")

    def __len__(self) -> int:
        return self.frequencies.size

    def __iter__(self):
        return map(SpectrumLine, self.frequencies.tolist(), self.amplitudes.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Multiplet(self.frequencies[key], self.amplitudes[key])
        return SpectrumLine(float(self.frequencies[key]), float(self.amplitudes[key]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiplet):
            return NotImplemented
        return bool(
            np.array_equal(self.frequencies, other.frequencies)
            and np.array_equal(self.amplitudes, other.amplitudes)
        )


def _check_variable_spins(system: SpinSystem, n: int) -> None:
    if n > system.capacity:
        raise SpinSystemError(
            f"{n} variables exceed spin-system capacity {system.capacity}"
        )
    for i in range(n):
        spin = system.qubit_spins[i]
        if spin in system.decoupled:
            raise SpinSystemError(f"variable spin {system.names[spin]} is decoupled")
        if system.j_to_observed(spin) == 0:
            raise SpinSystemError(
                f"variable spin {system.names[spin]} has no coupling to the "
                f"observed spin"
            )


def _doubling(terms: np.ndarray) -> np.ndarray:
    """Line positions from (shift, J_1..J_n), built by doubling: step i
    copies the first 2^i entries above themselves, adding -J_{i+1}/2 to the
    copies and +J_{i+1}/2 to the originals, so entry c adds its terms in
    the order x_1..x_n, as the scalar sum does."""
    n = terms.size - 1
    freqs = np.empty(1 << n)
    freqs[0] = terms[0]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        for i, j in enumerate(terms[1:].tolist()):
            half = freqs[: 1 << i]
            np.add(half, -0.5 * j, out=freqs[1 << i : 2 << i])
            np.add(half, 0.5 * j, out=half)
    return freqs


def config_frequencies(system: SpinSystem, n: int) -> np.ndarray:
    """Line positions of all 2^n configurations, indexed by configuration.

    Bit i-1 of configuration c is variable x_i; spin-up (0) shifts the line
    by +J/2, spin-down (1) by -J/2.  Entry c is the observed spin's shift
    plus the terms for x_1..x_n, added in that order.
    """
    if n < 0:
        raise ValueError("negative shift count")  # what 1 << n raises
    return _doubling(
        np.array(
            [system.shifts[system.observed]]
            + [system.j_to_observed(system.qubit_spins[i]) for i in range(n)],
            dtype=float,
        )
    )


class _Positions(NamedTuple):
    """Read-only line positions of one spin system at one n, sorted once
    and kept in the system: the stable argsort `order`, the positions in
    that order, and the smallest gap between neighbours (inf for a single
    line; NaN next to a NaN or between equal infinities)."""

    order: np.ndarray
    ordered: np.ndarray
    min_gap: float


def _positions(system: SpinSystem, n: int) -> _Positions:
    """The system's table at n, built on first use and stored with it."""
    table = system._tables.get(n)
    if table is not None:
        return table
    check_table_bytes(n)
    freqs = config_frequencies(system, n)
    order = np.argsort(freqs, kind="stable")
    ordered = freqs[order]
    del freqs  # the sorted copy replaces it before the gaps are taken
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        gaps = np.diff(ordered)
    min_gap = float(gaps.min()) if gaps.size else math.inf
    order.flags.writeable = False
    ordered.flags.writeable = False
    table = system._tables[n] = _Positions(order, ordered, min_gap)
    return table


def check_table_bytes(n: int) -> None:
    """Raise ValueError when the line-position table at n would pass
    sim.MAX_BYTES; 2^n is not built first."""
    check_bytes(f"line-position table at n={n}", TABLE_BYTES, n)


def _default_tolerance(positions: _Positions) -> float:
    # a lone line gets 0.25; a NaN gap 1.0, as min() keeps its first argument
    min_gap = positions.min_gap if positions.ordered.size > 1 else 1.0
    return min(1.0, min_gap / 4.0)


def _match(
    positions: _Positions, line_freqs: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Place every line among the configurations, in O(2^n + lines log 2^n).

    Returns (config, hits) per line at x: hits counts the configurations c
    with abs(f_c - x) <= tolerance, and config is one of them (meaningful
    when hits == 1).  fl(f - x) is monotone in f, so those configurations
    form one run of the sorted positions.  searchsorted finds it from the
    rounded x -/+ tolerance, which can be off by a rounding step at either
    end; each end is then moved, one run of equal positions at a time,
    until the exact test holds just inside the window and fails just
    outside it.
    """
    order, ordered, _ = positions
    # A NaN on each side is never a hit, so positions -1 and 2^n need no
    # bounds checks: padded[at + 1] is ordered[at].
    padded = np.concatenate(([np.nan], ordered, [np.nan]))

    def hit(at):
        return np.abs(padded[at + 1] - line_freqs) <= tolerance

    def run_edge(at, side):
        return np.searchsorted(ordered, padded[at + 1], side)

    with np.errstate(invalid="ignore", over="ignore"):
        below = line_freqs - tolerance
        # a line at +inf with an infinite tolerance: +inf - inf is NaN, which
        # searchsorted would place after every position
        below[(line_freqs == np.inf) & (tolerance == np.inf)] = -np.inf
        lo = np.searchsorted(ordered, below, "left")
        hi = np.searchsorted(ordered, line_freqs + tolerance, "right")
        while (grow := hit(lo - 1)).any():
            lo = np.where(grow, run_edge(lo - 1, "left"), lo)
        while (grow := hit(hi)).any():
            hi = np.where(grow, run_edge(hi, "right"), hi)
        while (drop := (lo < hi) & ~hit(lo)).any():
            lo = np.where(drop, run_edge(lo, "right"), lo)
        while (drop := (lo < hi) & ~hit(hi - 1)).any():
            hi = np.where(drop, run_edge(hi - 1, "left"), hi)
    return order[np.minimum(lo, ordered.size - 1)], hi - lo


# Lines per block of the certificate, so that one block of each input and
# the 256 KB buffer stay in cache instead of streaming 2^n-line temporaries.
_CERTIFY_BLOCK = 1 << 15


def _certified(ordered: np.ndarray, line_freqs: np.ndarray, tolerance: float) -> bool:
    """True when line i can only be configuration order[i], in O(2^n): there
    is one line per position, abs(ordered[i] - x_i) <= tolerance, and both
    neighbours ordered[i -/+ 1] miss x_i by more than tolerance.

    fl(f - x) is monotone in f, so every position below a missed left
    neighbour misses too, and likewise on the right: `_match` would give
    hits == 1 and config == order[i] for every line.  A neighbour whose
    difference is NaN does not count as missed, so such input is left to
    `_match`.
    """
    if line_freqs.shape != ordered.shape:
        return False
    size = ordered.size
    buffer = np.empty(min(size, _CERTIFY_BLOCK))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, size, _CERTIFY_BLOCK):
            hi = min(lo + _CERTIFY_BLOCK, size)
            gap = buffer[: hi - lo]
            np.subtract(ordered[lo:hi], line_freqs[lo:hi], out=gap)
            if not (np.abs(gap, out=gap) <= tolerance).all():
                return False
            # given the hit at i, a left neighbour misses iff it lies below
            # x_i - tolerance, a right one iff it lies above x_i + tolerance
            a = max(lo, 1)  # lines a..hi-1 have a left neighbour
            gap = buffer[: hi - a]
            np.subtract(ordered[a - 1 : hi - 1], line_freqs[a:hi], out=gap)
            if not (gap < -tolerance).all():
                return False
            b = min(hi, size - 1)  # lines lo..b-1 have a right neighbour
            gap = buffer[: b - lo]
            np.subtract(ordered[lo + 1 : b + 1], line_freqs[lo:b], out=gap)
            if not (gap > tolerance).all():
                return False
    return True


def _merge(
    frequencies: np.ndarray, amplitudes: np.ndarray, min_gap: float
) -> Multiplet:
    """Merge lines given in stable argsort order of their frequencies: each
    run starts at a line and takes every following line within
    MERGE_TOL_HZ of that first line.  A run keeps its first frequency; its
    amplitudes, a fresh array, are added in the given order.  min_gap is
    the smallest gap between neighbouring frequencies (NaN next to a NaN)."""
    amplitudes.flags.writeable = False
    # Only a line within tolerance of its sorted neighbour can join a run;
    # a resolvable system has none.
    if min_gap > MERGE_TOL_HZ:  # False for NaN
        return Multiplet(frequencies, amplitudes)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: never a candidate
        candidates = np.flatnonzero(np.diff(frequencies) <= MERGE_TOL_HZ) + 1
    starts = np.ones(frequencies.size, dtype=bool)
    head = 0
    for i in candidates.tolist():
        if starts[i - 1]:
            head = i - 1
        if frequencies[i] - frequencies[head] <= MERGE_TOL_HZ:
            starts[i] = False
    if starts.all():
        return Multiplet(frequencies, amplitudes)
    merged = amplitudes[starts]
    joined = ~starts
    # np.add.at adds unbuffered, in index order: a0 + a1 + a2 ...
    np.add.at(merged, np.cumsum(starts)[joined] - 1, amplitudes[joined])
    kept = frequencies[starts]
    kept.flags.writeable = merged.flags.writeable = False
    return Multiplet(kept, merged)


def multiplet_lines(
    state: PopulationState, layout: QubitLayout, system: SpinSystem
) -> Multiplet:
    """Signed multiplet of the observed spin for a pipeline state.

    Scratch qubits are decoupled (traced out); each variable configuration
    contributes its FALSE-minus-TRUE population as the line amplitude, so a
    satisfying assignment shows up as a negative line of -2^-n.
    """
    n = layout.num_vars
    _check_variable_spins(system, n)
    if n >= state.width:  # the work wire and var wires 1..n
        raise ValueError("kept wire out of range")
    mask = work_mask(state, n)
    order, ordered, min_gap = _positions(system, n)
    # gather the 1-byte mask, not 8-byte amplitudes, into table order
    return _merge(ordered, np.where(mask[order], -(2.0**-n), 2.0**-n), min_gap)


def thermal_reference(system: SpinSystem, n: int) -> Multiplet:
    """Equilibrium multiplet: every configuration positive at 2^-n.

    Defines the phase convention against which signed spectra are read.
    """
    _check_variable_spins(system, n)
    _, ordered, min_gap = _positions(system, n)
    # equal amplitudes need no gather into table order
    return _merge(ordered, np.full(1 << n, 2.0**-n), min_gap)


def check_render_settings(
    f_min: float, f_max: float, points: int, linewidth: float
) -> None:
    """Raise ValueError unless `render` can draw this grid and linewidth
    within float range."""
    if f_min >= f_max:
        raise ValueError("need f_min < f_max")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    if not (math.isfinite(f_min) and math.isfinite(f_max)):
        raise ValueError("grid bounds must be finite")
    if not math.isfinite(linewidth):
        raise ValueError("linewidth must be finite")
    if not math.isfinite(f_max - f_min):
        raise ValueError("grid span must be finite")
    try:
        lw2 = linewidth**2
    except OverflowError:
        lw2 = math.inf
    if not 0 < lw2 < math.inf:
        raise ValueError("linewidth squared must be finite and nonzero")


def render(
    lines: Multiplet,
    f_min: float,
    f_max: float,
    points: int,
    linewidth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of absorptive Lorentzians (unit height at center) on a uniform grid."""
    check_render_settings(f_min, f_max, points, linewidth)
    check_bytes(f"render of {points} points", RENDER_BYTES * points)
    lw2 = linewidth**2
    freqs = np.linspace(f_min, f_max, points)
    values = np.zeros_like(freqs)
    term = np.empty_like(freqs)
    # One line at a time through one buffer: a lines x points block was no
    # faster and multiplies peak memory.  A distance past about 1.3e154 Hz
    # squares to inf, and its term is then 0, which is the right value.
    with np.errstate(over="ignore"):
        for frequency, amplitude in zip(lines.frequencies, lines.amplitudes):
            np.subtract(freqs, frequency, out=term)
            np.multiply(term, term, out=term)
            np.add(term, lw2, out=term)
            np.divide(amplitude * lw2, term, out=term)
            np.add(values, term, out=values)
    return freqs, values


def check_resolvable(
    system: SpinSystem, n: int, min_separation: float
) -> bool:
    """True iff all 2^n configuration frequencies are finite and pairwise
    separated by at least min_separation and by more than MERGE_TOL_HZ, so
    that no two lines merge and every line can be decoded."""
    if not min_separation > 0:  # NaN included
        raise ValueError("min_separation must be positive")
    try:
        _check_variable_spins(system, n)
    except SpinSystemError:
        return False
    _, ordered, min_gap = _positions(system, n)
    # sorted: -inf first, +inf and NaN last; one line has min_gap inf
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        return False
    return min_gap >= min_separation and min_gap > MERGE_TOL_HZ


def extract_solutions(
    lines: Multiplet,
    system: SpinSystem,
    n: int,
    tolerance: float | None = None,
) -> SolutionReport:
    """Invert the frequency map: negative lines decode to the TRUE space.

    Fails on degenerate multiplets (two configurations within tolerance of
    one line), on lines matching no configuration, on a configuration
    matched by two lines and on a spectrum missing a configuration.  Of
    several faulty lines, the first in input order is reported.
    """
    _check_variable_spins(system, n)
    positions = _positions(system, n)
    if tolerance is None:
        tolerance = _default_tolerance(positions)
    if tolerance <= 0:
        raise DegenerateMultipletError(
            "coinciding configuration frequencies; multiplet not decodable"
        )
    line_freqs, amplitudes = lines.frequencies, lines.amplitudes
    satisfying = np.zeros(1 << n, dtype=bool)
    if _certified(positions.ordered, line_freqs, tolerance):
        # line i is configuration order[i]: no search, no repeat check
        satisfying[positions.order] = amplitudes < 0
        satisfying.flags.writeable = False
        return SolutionReport(n, satisfying)
    configs, hits = _match(positions, line_freqs, tolerance)
    # Report the first faulty line in input order: no hit, several hits, or
    # a configuration that an earlier line already took.
    faulty = hits != 1
    unique = np.flatnonzero(~faulty)
    by_config = unique[np.argsort(configs[unique], kind="stable")]
    repeated = configs[by_config[1:]] == configs[by_config[:-1]]
    faulty[by_config[1:][repeated]] = True
    if faulty.any():
        first = int(np.argmax(faulty))
        frequency = float(line_freqs[first])
        if hits[first] == 0:
            raise SpinSystemError(
                f"line at {frequency:g} Hz matches no configuration"
            )
        if hits[first] > 1:
            raise DegenerateMultipletError(
                f"line at {frequency:g} Hz matches {hits[first]} configurations"
            )
        raise SpinSystemError(
            f"configuration {int(configs[first]):0{n}b} matched by two lines"
        )
    if line_freqs.size != 1 << n:
        raise SpinSystemError("spectrum does not cover every configuration")
    satisfying[configs] = amplitudes < 0
    satisfying.flags.writeable = False
    return SolutionReport(n, satisfying)


# -- built-in systems --------------------------------------------------------

_ALANINE_NAMES = ("C'", "Ca", "Cb", "H")
_ALANINE_SHIFTS = (-4320.0, 0.0, 15793.0, 1550.0)
_ALANINE_J = (
    (0.0, 34.94, -1.2, 5.5),
    (34.94, 0.0, 53.81, 143.21),
    (-1.2, 53.81, 0.0, 5.1),
    (5.5, 143.21, 5.1, 0.0),
)


def alanine_3q() -> SpinSystem:
    """Three carbons of alanine, Ca observed; variables on C' and Cb."""
    return SpinSystem(
        names=_ALANINE_NAMES[:3],
        shifts=_ALANINE_SHIFTS[:3],
        observed=1,
        couplings=tuple(row[:3] for row in _ALANINE_J[:3]),
        qubit_spins=(0, 2),
    )


def alanine_4q() -> SpinSystem:
    """Three carbons plus the backbone proton; variables on C', Cb, H."""
    return SpinSystem(
        names=_ALANINE_NAMES,
        shifts=_ALANINE_SHIFTS,
        observed=1,
        couplings=_ALANINE_J,
        qubit_spins=(0, 2, 3),
    )


def synthetic_system(n: int, base_j: float = 20.0) -> SpinSystem:
    """Resolvable n-variable system with binary-weighted couplings."""
    names = ("W",) + tuple(f"S{i}" for i in range(1, n + 1))
    shifts = (0.0,) * (n + 1)
    couplings = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        couplings[0][i] = couplings[i][0] = base_j * 2 ** (i - 1)
    return SpinSystem(
        names=names,
        shifts=shifts,
        observed=0,
        couplings=tuple(tuple(row) for row in couplings),
        qubit_spins=tuple(range(1, n + 1)),
    )


PRESETS = {
    "alanine-3q": alanine_3q,
    "alanine-4q": alanine_4q,
}


def load_spin_system(text: str) -> SpinSystem:
    """Load a SpinSystem from a JSON document.

    Keys: names, shifts, couplings (full symmetric matrix), observed,
    variable_qubits, and optionally decoupled / scratch_qubits.  Every key
    but observed holds a JSON list (couplings a list of row lists).  Spins
    may be referenced by name or index.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("spin system must be a JSON object")

    def json_list(key: str, value) -> list:
        if not isinstance(value, list):
            kind = type(value).__name__
            raise ValueError(f"{key!r} must be a JSON list, not {kind}")
        return value

    def floats(key: str, values) -> tuple[float, ...]:
        try:
            return tuple([float(v) for v in json_list(key, values)])
        except OverflowError:  # an integer past float range
            raise ValueError(f"{key!r} holds an integer too large for a float") from None

    names = tuple(json_list("names", data["names"]))

    def spin_index(ref) -> int:
        if isinstance(ref, str):
            if ref not in names:
                raise ValueError(f"unknown spin name {ref!r}")
            return names.index(ref)
        if isinstance(ref, int) and not isinstance(ref, bool):
            return ref
        raise ValueError(f"spin reference {ref!r} is neither a name nor an index")

    def spin_indices(key: str, refs) -> tuple[int, ...]:
        return tuple(spin_index(r) for r in json_list(key, refs))

    return SpinSystem(
        names=names,
        shifts=floats("shifts", data["shifts"]),
        observed=spin_index(data["observed"]),
        couplings=tuple(
            floats(f"couplings[{i}]", row)
            for i, row in enumerate(json_list("couplings", data["couplings"]))
        ),
        qubit_spins=spin_indices("variable_qubits", data["variable_qubits"]),
        decoupled=frozenset(spin_indices("decoupled", data.get("decoupled", []))),
        scratch_spins=spin_indices("scratch_qubits", data.get("scratch_qubits", [])),
    )


def line_table(lines: Multiplet, system: SpinSystem, n: int) -> str:
    """Text table: frequency, amplitude, decoded x_n..x_1 bitstring.

    A line that does not match exactly one configuration is labelled "?".
    """
    positions = _positions(system, n)
    freq_field = _widest("%12.4f", lines.frequencies)
    amp_field = _widest("%+.6f", lines.amplitudes)
    per_line = line_text_bytes(n, freq_field, amp_field)
    check_bytes(f"line table of {len(lines)} lines", per_line * len(lines))
    order = np.argsort(lines.frequencies, kind="stable")
    line_freqs, amplitudes = lines.frequencies[order], lines.amplitudes[order]
    configs, hits = _match(positions, line_freqs, _default_tolerance(positions))
    labels = bitstring_labels(configs, n)
    for unmatched in np.flatnonzero(hits != 1).tolist():
        labels[unmatched] = "?"
    return _format_rows(
        "%12.4f %+.6f %s\n", line_freqs.tolist(), amplitudes.tolist(), labels
    )


def line_text_bytes(n: int, freq_field: int = 12, amp_field: int = 9) -> int:
    """Bytes per line of line_table at its peak, with the frequency and
    amplitude fields this wide (the narrowest by default): five 8-byte
    arrays (order, sorted frequencies and amplitudes, matched configuration
    and hit count), two float objects and their list slots (64), a label
    string of at most n + 64 bytes and its slot, and the formatting."""
    text = freq_field + 1 + amp_field + 1 + n + 1
    return 40 + 64 + (n + 72) + _format_row_bytes(3, len("%12.4f %+.6f %s\n"), text)


def trace_bytes(f_min: float, f_max: float, points: int) -> int:
    """Bytes of render on this grid and trace_csv of its result at their
    peak: render's grid, sum and buffer, of which the first two are held
    through trace_csv, and trace_csv's own.  The %.6f frequency field is
    widest at a grid end."""
    return points * (RENDER_BYTES + _csv_row_bytes(_widest("%.6f", (f_min, f_max))))


def _csv_row_bytes(freq_field: int) -> int:
    """Bytes per point of trace_csv with its frequency field this wide: two
    float objects and their list slots (64) and the formatting of a row
    whose %.9g value takes at most 16 characters."""
    return 64 + _format_row_bytes(2, len("%.6f,%.9g\n"), freq_field + 1 + 16 + 1)


def trace_csv(freqs: np.ndarray, values: np.ndarray) -> str:
    freqs = np.asarray(freqs, dtype=float)
    per_point = _csv_row_bytes(_widest("%.6f", freqs))
    check_bytes(f"trace CSV of {freqs.size} points", per_point * freqs.size)
    return _format_rows(
        "%.6f,%.9g\n", freqs.tolist(), np.asarray(values, dtype=float).tolist()
    )


def _widest(fmt: str, values) -> int:
    """Characters of the widest `fmt` field over values, which is at the
    least or the greatest; NaN prints narrower than any such field."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return 0
    return max(len(fmt % np.fmin.reduce(values)), len(fmt % np.fmax.reduce(values)))


def _format_row_bytes(columns: int, template: int, text: int) -> int:
    """Bytes per row of _format_rows: the cells list and tuple (8 each per
    cell), the repeated template, and the text, of which the %-format's
    writer may hold a quarter more before it trims."""
    return 16 * columns + template + text * 5 // 4 + 1


def _format_rows(row: str, *columns: list) -> str:
    """One %-format of `row` repeated once per entry of the equal-length
    columns; no rows give a lone newline."""
    count = len(columns[0])
    cells: list = [None] * (count * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return (row * count) % tuple(cells) or "\n"
