"""Command-line front end: parse -> compile -> simulate -> spectrum -> decode."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time

from . import circuit as circ
from . import cnf, sim, spectrum as spec


class CliError(Exception):
    """User-facing failure with a message and nonzero exit status."""


# Bytes per line of `spectrum --json` at its peak: the line's dict, two float
# objects and their slots, and json's chunks and text.  Measured, as the
# encoder sets them: 873 with both float reprs at their widest (24
# characters), 823 on the synthetic system.
JSON_LINE_BYTES = 880


def _solution_bytes(n: int) -> int:
    """Bytes per listed solution at its peak: its label string (at most
    n + 64 bytes) and list slot, then the JSON chunk (n + 80), text and
    printed bytes (n + 8 each) of solve, or verify's mismatch text."""
    return 4 * n + 168


def _bounded(check, *args) -> None:
    """A bytes check of sim.MAX_BYTES; over it, a one-line CLI error."""
    try:
        check(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _bitstrings(report: sim.SolutionReport, listed: int = 0) -> list[str]:
    """report's solutions as labels, once their bytes and those of the
    `listed` solutions already held are checked."""
    count = listed + report.count
    per_solution = _solution_bytes(report.num_vars)
    _bounded(sim.check_bytes, f"a list of {count} solutions", count * per_solution)
    return list(report.bitstrings())


def _read_input(args) -> cnf.CnfFormula:
    if args.dimacs is not None:
        text = args.dimacs
    elif args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.input}: {exc}") from exc
    try:
        return cnf.parse_dimacs(text)
    except cnf.DimacsError as exc:
        raise CliError(f"parse error: {exc}") from exc


def _spin_system(name: str, n: int) -> spec.SpinSystem:
    if name == "auto":
        if n <= 2:
            return spec.alanine_3q()
        if n <= 3:
            return spec.alanine_4q()
        return spec.synthetic_system(n)
    if name in spec.PRESETS:
        return spec.PRESETS[name]()
    if name == "synthetic":
        return spec.synthetic_system(n)
    try:
        with open(name) as handle:
            return spec.load_spin_system(handle.read())
    except OSError as exc:
        raise CliError(f"cannot load spin system {name!r}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad spin-system file {name!r}: {exc}") from exc


def _require_resolvable(
    system: spec.SpinSystem, n: int, min_separation: float
) -> None:
    try:
        resolvable = spec.check_resolvable(system, n, min_separation)
    except ValueError as exc:
        # min_separation is checked first, so a later error is not about it
        label = "" if min_separation > 0 else "bad --min-separation: "
        raise CliError(f"{label}{exc}") from exc
    if not resolvable:
        raise CliError("spin system is not resolvable for this formula")


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("grid must be min,max,points")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid {text!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _compile(
    formula: cnf.CnfFormula, args
) -> tuple[circ.Circuit, circ.Circuit, circ.Circuit]:
    """The one compile step of every subcommand.  Returns the forward
    circuit `compile_auto` picked, the compiled circuit (with uncompute
    blocks and an injected fault) and the one to run, which is the compiled
    circuit peepholed unless --no-peephole."""
    try:
        forward = raw = circ.compile_auto(formula)
        if args.uncompute and raw.layout.num_scratch:  # else nothing to clear
            raw = circ.append_uncompute(raw, formula)
    except circ.CompileError as exc:
        raise CliError(f"compile error: {exc}") from exc
    if getattr(args, "inject_fault", False):
        raw = circ._built(raw.layout, raw.steps + (raw.layout.work_wire,))
    return forward, raw, raw if args.no_peephole else circ.peephole_cancel(raw)


def _simulate(circuit: circ.Circuit, args) -> sim.PopulationState:
    try:
        return sim.run(circuit)
    except ValueError as exc:
        raise CliError(f"simulation error: {exc}") from exc


def _solve_pipeline(formula: cnf.CnfFormula, args) -> dict:
    start = time.perf_counter()
    if args.via_spectrum:  # refused before anything is simulated
        _bounded(spec.check_table_bytes, formula.num_vars)
    *_, circuit = _compile(formula, args)
    state = _simulate(circuit, args)
    report = sim.true_space(state, circuit.layout)
    solutions = _bitstrings(report)
    summary = {
        "num_vars": formula.num_vars,
        "num_clauses": formula.num_clauses,
        "k_max": max((len(c.literals) for c in formula.clauses), default=0),
        "count": report.count,
        "solutions": solutions,
    }
    if args.via_spectrum:
        system = _spin_system(args.spin_system, formula.num_vars)
        _require_resolvable(system, formula.num_vars, args.min_separation)
        summary["resolvable"] = True
        lines = spec.multiplet_lines(state, circuit.layout, system)
        decoded = spec.extract_solutions(lines, system, formula.num_vars)
        spectral = _bitstrings(decoded, len(solutions))
        summary["spectral_solutions"] = spectral
        summary["paths_agree"] = spectral == solutions
    summary["elapsed_s"] = time.perf_counter() - start
    return summary


def cmd_solve(args) -> int:
    formula = _read_input(args)
    summary = _solve_pipeline(formula, args)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        count = summary["count"]
        if count == 0:
            print("0 solutions (unsatisfiable)")
        else:
            noun = "solution" if count == 1 else "solutions"
            print(f"{count} {noun}: {' '.join(summary['solutions'])}")
        if "paths_agree" in summary:
            verdict = "agree" if summary["paths_agree"] else "DISAGREE"
            print(f"spectral decode and direct readout {verdict}")
    if not summary.get("paths_agree", True):
        return 1
    return 0


def cmd_compile(args) -> int:
    formula = _read_input(args)
    forward, raw, chosen = _compile(formula, args)
    # The census counts the circuit printed before peephole, uncompute
    # blocks included; the elementary projections stay the forward circuit's.
    raw_mcx, raw_nots = circ.circuit_census(raw)
    counts = dataclasses.replace(
        circ.gate_counts(forward), mcx_by_arity=raw_mcx, not_count=raw_nots
    )
    peepholed = circ.peephole_cancel(raw) if args.no_peephole else chosen
    _, opt_nots = circ.circuit_census(peepholed)
    text = circ.circuit_to_text(chosen)
    if args.output:
        _write_text(args.output, text)
    if args.json:
        print(
            json.dumps(
                {
                    "circuit": circ.circuit_to_dict(chosen),
                    "formula": {
                        "clauses": formula.num_clauses,
                        "literals": formula.num_literals,
                    },
                    "counts": {
                        "mcx_by_arity": counts.mcx_by_arity,
                        "not_count": counts.not_count,
                        "conjugation_nots": counts.conjugation_nots,
                        "elementary_cnot": counts.elementary_cnot,
                        "elementary_single": counts.elementary_single,
                        "not_count_after_peephole": opt_nots,
                        "not_count_before_peephole": raw_nots,
                    },
                },
                indent=2,
            )
        )
    else:
        if not args.output:
            print(text, end="")
        print(counts.report())
        print(f"not gates after peephole: {opt_nots} (before: {raw_nots})")
    return 0


def cmd_spectrum(args) -> int:
    formula = _read_input(args)
    n = formula.num_vars
    if args.trace:
        f_min, f_max, points = _parse_grid(args.grid)
        try:
            spec.check_render_settings(f_min, f_max, points, args.linewidth)
        except ValueError as exc:
            raise CliError(f"cannot render trace: {exc}") from exc
        trace_bytes = spec.trace_bytes(f_min, f_max, points)
        _bounded(sim.check_bytes, f"trace of {points} points", trace_bytes)
    # from n alone, before the spin system is built: at most 2^n lines
    _bounded(spec.check_table_bytes, n)
    if args.json:
        _bounded(sim.check_bytes, f"JSON of 2^{n} lines", JSON_LINE_BYTES, n)
    else:
        line_bytes = spec.line_text_bytes(n)
        _bounded(sim.check_bytes, f"line table of 2^{n} lines", line_bytes, n)
    system = _spin_system(args.spin_system, n)
    _require_resolvable(system, n, args.min_separation)
    if args.thermal:
        lines = spec.thermal_reference(system, n)
    else:
        *_, circuit = _compile(formula, args)
        state = _simulate(circuit, args)
        lines = spec.multiplet_lines(state, circuit.layout, system)
    if args.json:
        print(
            json.dumps(
                {
                    "lines": [
                        {"frequency": f, "amplitude": a}
                        for f, a in zip(
                            lines.frequencies.tolist(), lines.amplitudes.tolist()
                        )
                    ]
                },
                indent=2,
            )
        )
    else:
        try:
            table = spec.line_table(lines, system, n)
        except ValueError as exc:  # its fields are wider than the check above
            raise CliError(str(exc)) from exc
        print(table, end="")
    if args.trace:
        freqs, values = spec.render(lines, f_min, f_max, points, args.linewidth)
        _write_text(args.trace, spec.trace_csv(freqs, values))
    return 0


def _verify_one(formula: cnf.CnfFormula, args) -> str | None:
    """Return a mismatch description, or None when solve's direct readout
    and spectral decode both equal the brute-force oracle."""
    try:
        solutions = cnf.brute_force_solutions(formula)
    except ValueError as exc:
        raise CliError(f"cannot verify: {exc}") from exc
    oracle = tuple([a.bitstring() for a in solutions])  # final size: see main
    summary = _solve_pipeline(formula, args)
    direct = tuple(summary["solutions"])
    if direct != oracle:
        return f"direct readout {direct} != oracle {oracle}"
    decoded = tuple(summary["spectral_solutions"])
    if decoded != oracle:
        return f"spectral decode {decoded} != oracle {oracle}"
    return None


def cmd_verify(args) -> int:
    instances: list[tuple[str, cnf.CnfFormula]] = []
    if args.input is not None or args.dimacs is not None:
        name = "--dimacs" if args.dimacs is not None else args.input
        instances.append((name, _read_input(args)))
    else:
        if args.corpus < 1:
            raise CliError(f"--corpus must be at least 1, not {args.corpus}")
        rng_seed = args.seed
        for i in range(args.corpus):
            n = 2 + (i % 3)  # n in 2..4
            m = 1 + (i % 5)
            k = 1 + (i % min(3, n))
            formula = cnf.generate_random_ksat(n, m, k, seed=rng_seed + i)
            instances.append((f"ksat(n={n},m={m},k={k},seed={rng_seed + i})", formula))
    for name, formula in instances:
        try:
            mismatch = _verify_one(formula, args)
        except (sim.PipelineFormError, spec.SpinSystemError) as exc:
            mismatch = f"error: {exc}"
        if mismatch:
            print(f"FAIL {name}: {mismatch}")
            return 1
    print(f"{len(instances)}/{len(instances)} exact matches")
    return 0


def cmd_random(args) -> int:
    try:
        formula = cnf.generate_random_ksat(args.n, args.m, args.k, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    text = cnf.to_dimacs(formula)
    if args.output:
        _write_text(args.output, text)
    else:
        print(text, end="")
    return 0


def _add_common(parser: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        parser.add_argument(
            "input", nargs="?", default="-", help="DIMACS file path or - for stdin"
        )
        parser.add_argument(
            "--dimacs", help="inline DIMACS text instead of a file"
        )
    parser.add_argument("--json", action="store_true", help="structured output")


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--uncompute", action="store_true")
    parser.add_argument("--no-peephole", action="store_true")


def _add_spectrum_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spin-system",
        default="auto",
        help="alanine-3q, alanine-4q, synthetic, auto, or a JSON file",
    )
    parser.add_argument("--min-separation", type=float, default=5.0)


@functools.cache  # built on first use and shared by every later main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnotsat",
        description="Solve CNF-SAT via reversible circuits and multiplet readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="list satisfying assignments")
    _add_common(p_solve)
    _add_pipeline_flags(p_solve)
    _add_spectrum_flags(p_solve)
    p_solve.add_argument(
        "--via-spectrum",
        action="store_true",
        help="also decode through the synthesized spectrum and cross-check",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_compile = sub.add_parser("compile", help="emit circuit text and gate counts")
    _add_common(p_compile)
    _add_pipeline_flags(p_compile)
    p_compile.add_argument("-o", "--output", help="write circuit text to a file")
    p_compile.set_defaults(func=cmd_compile)

    p_spec = sub.add_parser("spectrum", help="emit the signed line table / trace")
    _add_common(p_spec)
    _add_pipeline_flags(p_spec)
    _add_spectrum_flags(p_spec)
    p_spec.add_argument("--linewidth", type=float, default=1.0)
    p_spec.add_argument("--grid", default="-130,130,2001", help="min,max,points")
    p_spec.add_argument("--thermal", action="store_true", help="reference spectrum")
    p_spec.add_argument("--trace", help="write a rendered CSV trace to this file")
    p_spec.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser(
        "verify", help="cross-check oracle, simulator, and spectral decode"
    )
    p_verify.add_argument(
        "input", nargs="?", help="DIMACS file (omit to run a random corpus)"
    )
    p_verify.add_argument("--dimacs", help="inline DIMACS text")
    p_verify.add_argument("--corpus", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip the work wire to demonstrate counterexample reporting",
    )
    _add_spectrum_flags(p_verify)
    # verify checks the circuit and the decode that plain `solve --via-spectrum` runs
    p_verify.set_defaults(
        func=cmd_verify, via_spectrum=True, uncompute=False, no_peephole=False
    )

    p_random = sub.add_parser("random", help="emit a random k-SAT DIMACS file")
    p_random.add_argument("n", type=int)
    p_random.add_argument("m", type=int)
    p_random.add_argument("k", type=int)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("-o", "--output")
    p_random.set_defaults(func=cmd_random)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The parser is reused, so a call leaves no reference cycles behind and
    # in-process callers rarely trigger a full garbage collection, which is
    # what empties CPython's per-size tuple free lists.  A tuple grown from
    # a generator moves a block onto the free list of its final size, so
    # the per-call paths build their larger tuples from lists; otherwise
    # the free lists fill to about 3 MB over tens of thousands of calls.
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
