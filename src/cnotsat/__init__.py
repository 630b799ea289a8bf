"""SAT solving through reversible NOT/MCX circuits, diagonal mixed-state
simulation, and sign-encoded J-coupling multiplet readout."""

from .cnf import (
    Assignment,
    Clause,
    CnfFormula,
    DimacsError,
    Literal,
    brute_force_solutions,
    evaluate,
    evaluate_clause,
    generate_random_ksat,
    parse_dimacs,
    to_dimacs,
)
from .circuit import (
    BasisPermutation,
    Circuit,
    CompileError,
    GateCounts,
    Mcx,
    Not,
    QubitLayout,
    append_uncompute,
    as_permutation,
    compile_1sat,
    compile_auto,
    compile_clause,
    compile_formula,
    compile_single_clause,
    cost_model,
    circuit_from_text,
    circuit_to_text,
    gate_counts,
    peephole_cancel,
)
from .sim import (
    PipelineFormError,
    PopulationState,
    SolutionReport,
    initial_mixed_state,
    marginalize,
    run,
    true_space,
)
from .spectrum import (
    DegenerateMultipletError,
    Multiplet,
    SpectrumLine,
    SpinSystem,
    SpinSystemError,
    alanine_3q,
    alanine_4q,
    check_resolvable,
    extract_solutions,
    load_spin_system,
    multiplet_lines,
    render,
    synthetic_system,
    thermal_reference,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
