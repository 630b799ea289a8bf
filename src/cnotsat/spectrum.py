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
from .cnf import Assignment
from .sim import PopulationState, SolutionReport, marginalize

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
        if self.observed in self.decoupled:
            raise ValueError("observed spin cannot be decoupled")
        if self.observed in self.qubit_spins:
            raise ValueError("observed spin cannot carry a variable qubit")

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


@dataclass(frozen=True)
class Spectrum:
    lines: tuple[SpectrumLine, ...]
    linewidth: float | None = None
    trace: tuple[np.ndarray, np.ndarray] | None = None


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
    for mu in range(1, layout.num_scratch + 1):
        if mu <= len(system.scratch_spins):
            spin = system.scratch_spins[mu - 1]
            if spin not in system.decoupled:
                raise SpinSystemError(
                    f"scratch spin {system.names[spin]} is not decoupled"
                )
    reduced = marginalize(state, (layout.work_wire,) + layout.var_wires)
    signed = np.where(reduced.indices & 1, -reduced.weights, reduced.weights)
    amplitudes = np.bincount(reduced.indices >> 1, weights=signed, minlength=1 << n)
    lines = [
        SpectrumLine(config_frequency(system, n, config), float(amplitude))
        for config, amplitude in enumerate(amplitudes)
    ]
    return _merged(lines)


def thermal_reference(system: SpinSystem, n: int) -> tuple[SpectrumLine, ...]:
    """Equilibrium multiplet: every configuration positive at 2^-n.

    Defines the phase convention against which signed spectra are read.
    """
    _check_variable_spins(system, n)
    lines = [
        SpectrumLine(config_frequency(system, n, config), 2.0**-n)
        for config in range(1 << n)
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
    lw2 = linewidth**2
    for line in lines:
        values += line.amplitude * lw2 / (lw2 + (freqs - line.frequency) ** 2)
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
    freqs = sorted(config_frequency(system, n, c) for c in range(1 << n))
    return all(b - a >= min_separation for a, b in zip(freqs, freqs[1:]))


def default_match_tolerance(system: SpinSystem, n: int) -> float:
    freqs = sorted(config_frequency(system, n, c) for c in range(1 << n))
    gaps = [b - a for a, b in zip(freqs, freqs[1:])]
    min_gap = min(gaps) if gaps else 1.0
    return min(1.0, min_gap / 4.0)


def extract_solutions(
    lines: tuple[SpectrumLine, ...],
    system: SpinSystem,
    n: int,
    tolerance: float | None = None,
) -> SolutionReport:
    """Invert the frequency map: negative lines decode to the TRUE space.

    Fails on degenerate multiplets (two configurations within tolerance of
    one line) and on lines matching no configuration.
    """
    _check_variable_spins(system, n)
    if tolerance is None:
        tolerance = default_match_tolerance(system, n)
    if tolerance <= 0:
        raise DegenerateMultipletError(
            "coinciding configuration frequencies; multiplet not decodable"
        )
    config_freqs = [config_frequency(system, n, c) for c in range(1 << n)]
    true_list: list[Assignment] = []
    false_list: list[Assignment] = []
    matched: set[int] = set()
    for line in lines:
        hits = [
            c
            for c, f in enumerate(config_freqs)
            if abs(f - line.frequency) <= tolerance
        ]
        if not hits:
            raise SpinSystemError(
                f"line at {line.frequency:g} Hz matches no configuration"
            )
        if len(hits) > 1:
            raise DegenerateMultipletError(
                f"line at {line.frequency:g} Hz matches {len(hits)} configurations"
            )
        config = hits[0]
        if config in matched:
            raise SpinSystemError(
                f"configuration {config:0{n}b} matched by two lines"
            )
        matched.add(config)
        assignment = Assignment.from_index(config, n)
        if line.amplitude < 0:
            true_list.append(assignment)
        else:
            false_list.append(assignment)
    if len(matched) != 1 << n:
        raise SpinSystemError("spectrum does not cover every configuration")
    true_list.sort(key=lambda a: a.index)
    false_list.sort(key=lambda a: a.index)
    return SolutionReport(tuple(true_list), tuple(false_list))


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
    variable_qubits, and optionally decoupled / scratch_qubits.  Spins may
    be referenced by name or index.
    """
    data = json.loads(text)
    names = tuple(data["names"])

    def spin_index(ref) -> int:
        if isinstance(ref, str):
            return names.index(ref)
        return int(ref)

    return SpinSystem(
        names=names,
        shifts=tuple(float(s) for s in data["shifts"]),
        observed=spin_index(data["observed"]),
        couplings=tuple(tuple(float(j) for j in row) for row in data["couplings"]),
        qubit_spins=tuple(spin_index(r) for r in data["variable_qubits"]),
        decoupled=frozenset(spin_index(r) for r in data.get("decoupled", ())),
        scratch_spins=tuple(spin_index(r) for r in data.get("scratch_qubits", ())),
    )


def line_table(
    lines: tuple[SpectrumLine, ...], system: SpinSystem, n: int
) -> str:
    """Text table: frequency, amplitude, decoded x_n..x_1 bitstring."""
    tolerance = default_match_tolerance(system, n)
    config_freqs = [config_frequency(system, n, c) for c in range(1 << n)]
    rows = []
    for line in sorted(lines, key=lambda l: l.frequency):
        hits = [
            c
            for c, f in enumerate(config_freqs)
            if abs(f - line.frequency) <= tolerance
        ]
        label = (
            Assignment.from_index(hits[0], n).bitstring() if len(hits) == 1 else "?"
        )
        rows.append(f"{line.frequency:12.4f} {line.amplitude:+.6f} {label}")
    return "\n".join(rows) + "\n"


def trace_csv(freqs: np.ndarray, values: np.ndarray) -> str:
    return "\n".join(f"{f:.6f},{v:.9g}" for f, v in zip(freqs, values)) + "\n"
