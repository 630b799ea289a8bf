"""Reference decode: the sorted matcher run on every input, with no
certificate in front of it.

`match` places every line with `searchsorted` and settles the ends of each
window with the exact `abs(f - x) <= tolerance` test; `extract_solutions`
then finds repeated configurations with a stable argsort.  The tests
compare `cnotsat.spectrum.extract_solutions`, which first tries an O(2^n)
certificate, against them report for report and message for message.
"""

from __future__ import annotations

import numpy as np

from cnotsat import DegenerateMultipletError, SolutionReport, SpinSystemError
from cnotsat.spectrum import _check_variable_spins, _default_tolerance, _positions


def match(positions, line_freqs, tolerance):
    """(config, hits) per line at x: hits counts the configurations c with
    abs(f_c - x) <= tolerance, and config is one of them."""
    order, ordered, _ = positions
    padded = np.concatenate(([np.nan], ordered, [np.nan]))

    def hit(at):
        return np.abs(padded[at + 1] - line_freqs) <= tolerance

    def run_edge(at, side):
        return np.searchsorted(ordered, padded[at + 1], side)

    with np.errstate(invalid="ignore", over="ignore"):
        below = line_freqs - tolerance
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


def extract_solutions(lines, system, n, tolerance=None):
    _check_variable_spins(system, n)
    positions = _positions(system, n)
    if tolerance is None:
        tolerance = _default_tolerance(positions)
    if tolerance <= 0:
        raise DegenerateMultipletError(
            "coinciding configuration frequencies; multiplet not decodable"
        )
    line_freqs, amplitudes = lines.frequencies, lines.amplitudes
    configs, hits = match(positions, line_freqs, tolerance)
    faulty = hits != 1
    unique = np.flatnonzero(~faulty)
    by_config = unique[np.argsort(configs[unique], kind="stable")]
    repeated = configs[by_config[1:]] == configs[by_config[:-1]]
    faulty[by_config[1:][repeated]] = True
    if faulty.any():
        first = int(np.argmax(faulty))
        frequency = float(line_freqs[first])
        if hits[first] == 0:
            raise SpinSystemError(f"line at {frequency:g} Hz matches no configuration")
        if hits[first] > 1:
            raise DegenerateMultipletError(
                f"line at {frequency:g} Hz matches {hits[first]} configurations"
            )
        raise SpinSystemError(
            f"configuration {int(configs[first]):0{n}b} matched by two lines"
        )
    if line_freqs.size != 1 << n:
        raise SpinSystemError("spectrum does not cover every configuration")
    satisfying = np.zeros(1 << n, dtype=bool)
    satisfying[configs] = amplitudes < 0
    return SolutionReport(n, satisfying)
