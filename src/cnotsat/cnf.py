"""CNF formula model, DIMACS I/O, and the exhaustive solution oracle.

Bitstring convention used everywhere: an assignment prints as x_n..x_1,
so "110" means x3=1, x2=1, x1=0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

EXHAUSTIVE_LIMIT = 24


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


@dataclass(frozen=True)
class Literal:
    """A variable occurrence, possibly negated. Variables are numbered from 1."""

    var: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def __str__(self) -> str:
        return f"-{self.var}" if self.negated else str(self.var)


@dataclass(frozen=True)
class Clause:
    """OR of literals."""

    literals: tuple[Literal, ...]

    @property
    def variables(self) -> tuple[int, ...]:
        seen: list[int] = []
        for lit in self.literals:
            if lit.var not in seen:
                seen.append(lit.var)
        return tuple(seen)

    def is_tautology(self) -> bool:
        """True when some variable appears both plain and negated."""
        pos = {l.var for l in self.literals if not l.negated}
        neg = {l.var for l in self.literals if l.negated}
        return bool(pos & neg)

    def deduplicated(self) -> "Clause":
        out: list[Literal] = []
        for lit in self.literals:
            if lit not in out:
                out.append(lit)
        return Clause(tuple(out))

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.literals) + " 0"


@dataclass(frozen=True)
class CnfFormula:
    """AND of clauses over variables x_1..x_num_vars."""

    num_vars: int
    clauses: tuple[Clause, ...]
    # The general-path circuit plan, kept by `circuit` on the first compile
    # of this object; like a SpinSystem's line-position tables it takes no
    # part in equality, hashing or repr.
    _plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.var > self.num_vars:
                    raise ValueError(
                        f"literal {lit} exceeds declared variable count {self.num_vars}"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def num_literals(self) -> int:
        """Literals over all clauses, as held (parse_dimacs drops repeats)."""
        return sum(len(clause.literals) for clause in self.clauses)


@dataclass(frozen=True)
class Assignment:
    """Truth values for x_1..x_n; bits[i-1] holds x_i."""

    bits: tuple[bool, ...]

    @classmethod
    def from_index(cls, value: int, num_vars: int) -> "Assignment":
        return cls(tuple(bool((value >> i) & 1) for i in range(num_vars)))

    @classmethod
    def from_bitstring(cls, text: str) -> "Assignment":
        """Parse the x_n..x_1 display form."""
        if not text or any(ch not in "01" for ch in text):
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(tuple(ch == "1" for ch in reversed(text)))

    @property
    def index(self) -> int:
        """Integer value of the x_n..x_1 bitstring (x_1 least significant)."""
        return sum(1 << i for i, bit in enumerate(self.bits) if bit)

    def bitstring(self) -> str:
        return "".join("1" if bit else "0" for bit in reversed(self.bits))

    def __len__(self) -> int:
        return len(self.bits)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: `c` comments, one `p cnf n m` header, 0-terminated clauses.

    Duplicate literals within a clause are dropped, keeping the first.  Empty
    clauses are kept (they make the formula unsatisfiable; the circuit
    compiler rejects them).  The clause body is read as one token stream,
    and each distinct literal is built once and shared by the clauses that
    hold it.
    """
    num_vars: int | None = None
    num_clauses: int | None = None
    tokens: list[str] = []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line[0] == "c" or line[0] == "%":
            continue
        if line[0] == "p":
            if num_vars is not None:
                _literal_values(tokens, num_vars)  # an earlier bad token comes first
                raise DimacsError("duplicate `p cnf` header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"bad header line: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"bad header line: {line!r}") from exc
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"negative counts in header: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError("clause body before `p cnf` header")
        tokens += line.split()

    if num_vars is None:
        raise DimacsError("missing `p cnf` header")
    values = _literal_values(tokens, num_vars)
    literal = {v: Literal(abs(v), negated=v < 0) for v in set(values) if v}
    clauses: list[Clause] = []
    start = 0
    for end in [i for i, value in enumerate(values) if value == 0]:
        # dict.fromkeys keeps the first occurrence of each literal, in order
        distinct = dict.fromkeys(values[start:end])
        clauses.append(Clause(tuple(map(literal.__getitem__, distinct))))
        start = end + 1
    if start < len(values):
        raise DimacsError("unterminated clause at end of input")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise DimacsError(
            f"header declares {num_clauses} clauses but {len(clauses)} found"
        )
    return CnfFormula(num_vars, tuple(clauses))


def _literal_values(tokens: list[str], num_vars: int) -> list[int]:
    """The clause-body tokens as integers; a DimacsError names the first
    token that is not an integer or names a variable past num_vars."""
    try:
        values = list(map(int, tokens))
        if not values or (max(values) <= num_vars and min(values) >= -num_vars):
            return values
    except ValueError:
        pass
    values = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError as exc:
            raise DimacsError(f"bad token {token!r}") from exc
        if abs(value) > num_vars:
            raise DimacsError(f"literal {value} out of range for {num_vars} variables")
        values.append(value)
    return values


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines.extend(str(clause) for clause in formula.clauses)
    return "\n".join(lines) + "\n"


def evaluate_clause(clause: Clause, assignment: Assignment) -> bool:
    """OR over literals; an empty clause is false."""
    for lit in clause.literals:
        if lit.var > len(assignment.bits):
            raise ValueError(f"literal {lit} outside assignment of length {len(assignment)}")
        if assignment.bits[lit.var - 1] ^ lit.negated:
            return True
    return False


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """AND over clauses; an empty formula is true."""
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {formula.num_vars}"
        )
    return all(evaluate_clause(clause, assignment) for clause in formula.clauses)


def brute_force_solutions(
    formula: CnfFormula, limit: int = EXHAUSTIVE_LIMIT
) -> tuple[Assignment, ...]:
    """All satisfying assignments by full enumeration, sorted by x_n..x_1 value."""
    if formula.num_vars > limit:
        raise ValueError(
            f"{formula.num_vars} variables exceeds exhaustive limit {limit}"
        )
    assignments = (
        Assignment.from_index(i, formula.num_vars) for i in range(1 << formula.num_vars)
    )
    # from a list, so the tuple is allocated at its final size (see cli.main)
    return tuple([a for a in assignments if evaluate(formula, a)])


def generate_random_ksat(n: int, m: int, k: int, seed: int) -> CnfFormula:
    """Random k-SAT: each clause draws k distinct variables, each negated with p=1/2."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        chosen = sorted(rng.sample(range(1, n + 1), k))
        clauses.append(
            Clause(tuple(Literal(v, negated=rng.random() < 0.5) for v in chosen))
        )
    return CnfFormula(n, tuple(clauses))
