import random

import pytest

from cnotsat import Circuit, Clause, CnfFormula, Literal, Mcx, Not, QubitLayout, parse_dimacs

PAPER_3SAT = "p cnf 3 3\n1 2 3 0\n1 2 -3 0\n-1 2 3 0\n"
PAPER_1SAT = "p cnf 3 3\n-1 0\n2 0\n3 0\n"  # not-x1 and x2 and x3


@pytest.fixture
def paper_3sat():
    return parse_dimacs(PAPER_3SAT)


@pytest.fixture
def paper_1sat():
    return parse_dimacs(PAPER_1SAT)


def truth_table_satisfying(formula):
    """Independent oracle: satisfying assignments as x_n..x_1 integer values.

    Deliberately written against raw ints, not the package's Assignment type.
    """
    out = []
    for value in range(2 ** formula.num_vars):
        sat = True
        for clause in formula.clauses:
            hit = False
            for lit in clause.literals:
                bit = (value >> (lit.var - 1)) & 1
                if bool(bit) != lit.negated:
                    hit = True
            if not hit:
                sat = False
                break
        if sat:
            out.append(value)
    return out


def random_formula(rng: random.Random, n: int, m: int, max_k: int) -> CnfFormula:
    """Unstructured random formula; clauses may repeat variables and signs."""
    clauses = []
    for _ in range(m):
        k = rng.randint(1, max_k)
        lits = tuple(
            Literal(rng.randint(1, n), negated=rng.random() < 0.5) for _ in range(k)
        )
        clauses.append(Clause(lits))
    return CnfFormula(n, tuple(clauses))


def random_circuit(seed: int, width: int = 8, max_gates: int = 50) -> Circuit:
    rng = random.Random(seed)
    gates = []
    for _ in range(rng.randint(0, max_gates)):
        if rng.random() < 0.5:
            gates.append(Not(rng.randrange(width)))
        else:
            target = rng.randrange(width)
            pool = [w for w in range(width) if w != target]
            controls = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            gates.append(Mcx(frozenset(controls), target))
    return Circuit(QubitLayout(width - 1, 0), tuple(gates))
