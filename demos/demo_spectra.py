"""Render reference and result spectra as CSV traces for external plotting.

Usage: python3 demos/demo_spectra.py [DIR]

Writes three traces into DIR (default: a new temporary directory):
  thermal_4q.csv   - equilibrium reference multiplet (all lines positive)
  onesat_110.csv   - result for not-x1 and x2 and x3 (one inverted line)
  tautology.csv    - result for x1 or not-x1 (everything in the TRUE space)
"""

import sys
import tempfile
from pathlib import Path

from cnotsat import (
    alanine_3q,
    alanine_4q,
    compile_1sat,
    compile_formula,
    multiplet_lines,
    parse_dimacs,
    render,
    run,
    thermal_reference,
)
from cnotsat.spectrum import trace_csv

LINEWIDTH = 1.0


def write(path, lines, f_min, f_max):
    freqs, values = render(lines, f_min, f_max, points=4001, linewidth=LINEWIDTH)
    path.write_text(trace_csv(freqs, values))
    print(f"wrote {path} ({len(lines)} lines)")


def main(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)

    # thermal reference on the four-spin system: 8 positive lines
    write(out_dir / "thermal_4q.csv", thermal_reference(alanine_4q(), 3), -130, 130)

    # 1-SAT whose single solution is 110: its line flips sign
    formula = parse_dimacs("p cnf 3 3\n-1 0\n2 0\n3 0")
    circuit = compile_1sat(formula)
    write(
        out_dir / "onesat_110.csv",
        multiplet_lines(run(circuit), circuit.layout, alanine_4q()),
        -130,
        130,
    )

    # tautology x1 or not-x1: both lines negative
    formula = parse_dimacs("p cnf 1 1\n1 -1 0")
    circuit = compile_formula(formula)
    write(
        out_dir / "tautology.csv",
        multiplet_lines(run(circuit), circuit.layout, alanine_3q()),
        -30,
        30,
    )


if __name__ == "__main__":
    if len(sys.argv) > 1:
        main(Path(sys.argv[1]))
    else:
        main(Path(tempfile.mkdtemp(prefix="cnotsat-spectra-")))
