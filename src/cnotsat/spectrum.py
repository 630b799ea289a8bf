"""Work-spin multiplet synthesis, Lorentzian traces, and spectral decoding.

Each configuration of the coupled variable spins produces one resonance line
of the observed work spin, shifted by +J/2 per spin-up (bit 0) neighbor and
-J/2 per spin-down (bit 1) neighbor.  Satisfying assignments flip the work
spin, which flips the sign of their line: positive lines form the FALSE
space, negative lines the TRUE space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuit import QubitLayout
from .sim import PopulationState, SolutionReport, bitstring_labels, marginalize

MERGE_TOL_HZ = 1e-9


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
    multiplet.
    """

    names: tuple[str, ...]
    shifts: tuple[float, ...]
    observed: int
    couplings: tuple[tuple[float, ...], ...]
    qubit_spins: tuple[int, ...]
    decoupled: frozenset[int] = frozenset()
    scratch_spins: tuple[int, ...] = ()

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


def config_frequency(system: SpinSystem, n: int, config: int) -> float:
    """Line position for one configuration of the n coupled variable spins.

    Bit i-1 of config is variable x_i; spin-up (0) shifts by +J/2, spin-down
    (1) by -J/2.
    """
    freq = system.shifts[system.observed]
    for i in range(n):
        j = system.j_to_observed(system.qubit_spins[i])
        freq += (0.5 if not (config >> i) & 1 else -0.5) * j
    return freq


def config_frequencies(system: SpinSystem, n: int) -> np.ndarray:
    """Line positions of all 2^n configurations, indexed by configuration.

    Adds the same terms in the same order as config_frequency, so entry c
    equals config_frequency(system, n, c) exactly.
    """
    configs = np.arange(1 << n)
    freqs = np.full(1 << n, system.shifts[system.observed], dtype=float)
    for i in range(n):
        j = system.j_to_observed(system.qubit_spins[i])
        freqs += np.where((configs >> i) & 1, -0.5, 0.5) * j
    return freqs


def _gaps(freqs: np.ndarray) -> np.ndarray:
    """Distances between neighbouring configuration lines."""
    ordered = np.sort(freqs)
    return ordered[1:] - ordered[:-1]


def _default_tolerance(freqs: np.ndarray) -> float:
    gaps = _gaps(freqs)
    min_gap = float(gaps.min()) if gaps.size else 1.0
    return min(1.0, min_gap / 4.0)


def _match(
    config_freqs: np.ndarray, line_freqs: np.ndarray, tolerance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Place every line among the configurations, in O((2^n + lines) log 2^n).

    Returns (config, hits) per line at x: hits counts the configurations c
    with abs(config_freqs[c] - x) <= tolerance, and config is one of them
    (meaningful when hits == 1).  fl(f - x) is monotone in f, so those
    configurations form one run of the sorted positions.  searchsorted
    finds it from the rounded x -/+ tolerance, which can be off by a
    rounding step at either end; each end is then moved, one run of equal
    positions at a time, until the exact test holds just inside the window
    and fails just outside it.
    """
    order = np.argsort(config_freqs, kind="stable")
    ordered = config_freqs[order]
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


def _merged(lines: list[SpectrumLine]) -> tuple[SpectrumLine, ...]:
    lines = sorted(lines, key=lambda l: l.frequency)
    out: list[SpectrumLine] = []
    for line in lines:
        if out and abs(line.frequency - out[-1].frequency) <= MERGE_TOL_HZ:
            out[-1] = SpectrumLine(
                out[-1].frequency, out[-1].amplitude + line.amplitude
            )
        else:
            out.append(line)
    return tuple(out)


def multiplet_lines(
    state: PopulationState, layout: QubitLayout, system: SpinSystem
) -> tuple[SpectrumLine, ...]:
    """Signed multiplet of the observed spin for a pipeline state.

    Scratch qubits are decoupled (traced out); each variable configuration
    contributes its FALSE-minus-TRUE population as the line amplitude, so a
    satisfying assignment shows up as a negative line.
    """
    n = layout.num_vars
    _check_variable_spins(system, n)
    reduced = marginalize(state, (layout.work_wire,) + layout.var_wires)
    signed = np.where(reduced.indices & 1, -reduced.weights, reduced.weights)
    amplitudes = np.bincount(reduced.indices >> 1, weights=signed, minlength=1 << n)
    lines = [
        SpectrumLine(frequency, amplitude)
        for frequency, amplitude in zip(
            config_frequencies(system, n).tolist(), amplitudes.tolist()
        )
    ]
    return _merged(lines)


def thermal_reference(system: SpinSystem, n: int) -> tuple[SpectrumLine, ...]:
    """Equilibrium multiplet: every configuration positive at 2^-n.

    Defines the phase convention against which signed spectra are read.
    """
    _check_variable_spins(system, n)
    lines = [
        SpectrumLine(frequency, 2.0**-n)
        for frequency in config_frequencies(system, n).tolist()
    ]
    return _merged(lines)


def render(
    lines: tuple[SpectrumLine, ...],
    f_min: float,
    f_max: float,
    points: int,
    linewidth: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of absorptive Lorentzians (unit height at center) on a uniform grid."""
    if f_min >= f_max:
        raise ValueError("need f_min < f_max")
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if linewidth <= 0:
        raise ValueError("linewidth must be positive")
    freqs = np.linspace(f_min, f_max, points)
    values = np.zeros_like(freqs)
    term = np.empty_like(freqs)
    lw2 = linewidth**2
    # One line at a time through one buffer: a lines x points block was no
    # faster and multiplies peak memory.
    for line in lines:
        np.subtract(freqs, line.frequency, out=term)
        np.multiply(term, term, out=term)
        np.add(term, lw2, out=term)
        np.divide(line.amplitude * lw2, term, out=term)
        np.add(values, term, out=values)
    return freqs, values


def check_resolvable(
    system: SpinSystem, n: int, min_separation: float
) -> bool:
    """True iff all 2^n configuration frequencies are pairwise separated."""
    if min_separation <= 0:
        raise ValueError("min_separation must be positive")
    try:
        _check_variable_spins(system, n)
    except SpinSystemError:
        return False
    gaps = _gaps(config_frequencies(system, n))
    return gaps.size == 0 or bool(gaps.min() >= min_separation)


def default_match_tolerance(system: SpinSystem, n: int) -> float:
    return _default_tolerance(config_frequencies(system, n))


def extract_solutions(
    lines: tuple[SpectrumLine, ...],
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
    config_freqs = config_frequencies(system, n)
    if tolerance is None:
        tolerance = _default_tolerance(config_freqs)
    if tolerance <= 0:
        raise DegenerateMultipletError(
            "coinciding configuration frequencies; multiplet not decodable"
        )
    line_freqs = np.array([line.frequency for line in lines], dtype=float)
    configs, hits = _match(config_freqs, line_freqs, tolerance)
    # Report the first faulty line in input order: no hit, several hits, or
    # a configuration that an earlier line already took.
    faulty = hits != 1
    unique = np.flatnonzero(~faulty)
    by_config = unique[np.argsort(configs[unique], kind="stable")]
    repeated = configs[by_config[1:]] == configs[by_config[:-1]]
    faulty[by_config[1:][repeated]] = True
    if faulty.any():
        first = int(np.argmax(faulty))
        frequency = lines[first].frequency
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
    if len(lines) != 1 << n:
        raise SpinSystemError("spectrum does not cover every configuration")
    satisfying = np.zeros(1 << n, dtype=bool)
    satisfying[configs] = [line.amplitude < 0 for line in lines]
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

    names = tuple(json_list("names", data["names"]))

    def spin_index(ref) -> int:
        if isinstance(ref, str):
            return names.index(ref)
        if isinstance(ref, int) and not isinstance(ref, bool):
            return ref
        raise ValueError(f"spin reference {ref!r} is neither a name nor an index")

    def spin_indices(key: str, refs) -> tuple[int, ...]:
        return tuple(spin_index(r) for r in json_list(key, refs))

    return SpinSystem(
        names=names,
        shifts=tuple(float(s) for s in json_list("shifts", data["shifts"])),
        observed=spin_index(data["observed"]),
        couplings=tuple(
            tuple(float(j) for j in json_list(f"couplings[{i}]", row))
            for i, row in enumerate(json_list("couplings", data["couplings"]))
        ),
        qubit_spins=spin_indices("variable_qubits", data["variable_qubits"]),
        decoupled=frozenset(spin_indices("decoupled", data.get("decoupled", []))),
        scratch_spins=spin_indices("scratch_qubits", data.get("scratch_qubits", [])),
    )


def line_table(
    lines: tuple[SpectrumLine, ...], system: SpinSystem, n: int
) -> str:
    """Text table: frequency, amplitude, decoded x_n..x_1 bitstring.

    A line that does not match exactly one configuration is labelled "?".
    """
    config_freqs = config_frequencies(system, n)
    ordered = sorted(lines, key=lambda l: l.frequency)
    configs, hits = _match(
        config_freqs,
        np.array([line.frequency for line in ordered], dtype=float),
        _default_tolerance(config_freqs),
    )
    labels = bitstring_labels(configs, n)
    for unmatched in np.flatnonzero(hits != 1).tolist():
        labels[unmatched] = "?"
    return _format_rows(
        "%12.4f %+.6f %s\n",
        [line.frequency for line in ordered],
        [line.amplitude for line in ordered],
        labels,
    )


def trace_csv(freqs: np.ndarray, values: np.ndarray) -> str:
    return _format_rows(
        "%.6f,%.9g\n",
        np.asarray(freqs, dtype=float).tolist(),
        np.asarray(values, dtype=float).tolist(),
    )


def _format_rows(row: str, *columns: list) -> str:
    """One %-format of `row` repeated once per entry of the equal-length
    columns; no rows give a lone newline."""
    count = len(columns[0])
    cells: list = [None] * (count * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column
    return (row * count) % tuple(cells) or "\n"
