"""Seeded random generators for formulae and CNF instances.

Everything here takes an explicit ``random.Random`` so callers control
reproducibility; no module-level state.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .cnf import CnfFormula, Literal
from .diagram import BoundaryPort, Diagram, GeneratorKind, Node, NodePort
from .formula import (
    And,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    SatCompareInstance,
    Var,
)


def random_formula(
    rng: random.Random, names: Sequence[str], *, max_depth: int = 5
) -> Formula:
    """Draw a random formula over ``names`` with nesting depth <= max_depth."""
    if not names:
        raise ValueError("need at least one variable name")
    if max_depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.05:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(list(names)))
    kind = rng.choice(["not", "and", "or", "implies", "iff"])
    if kind == "not":
        return Not(random_formula(rng, names, max_depth=max_depth - 1))
    left = random_formula(rng, names, max_depth=max_depth - 1)
    right = random_formula(rng, names, max_depth=max_depth - 1)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    if kind == "implies":
        return Implies(left, right)
    return Iff(left, right)


def random_sat_compare(
    rng: random.Random,
    *,
    max_shared: int = 3,
    max_extras: int = 3,
    max_depth: int = 3,
) -> SatCompareInstance:
    """Draw a comparison instance: psi over x+y, rho over x+z."""
    n = rng.randint(1, max_shared)
    m = rng.randint(1, max_extras)
    xs = [f"x{i}" for i in range(1, n + 1)]
    psi = random_formula(
        rng, xs + [f"y{i}" for i in range(1, m + 1)], max_depth=max_depth
    )
    rho = random_formula(
        rng, xs + [f"z{i}" for i in range(1, m + 1)], max_depth=max_depth
    )
    return SatCompareInstance(n=n, m=m, psi=psi, rho=rho)


def random_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    """Draw a CNF with ``n`` variables x1..xn and exactly ``m`` clauses.

    Clauses are non-empty and never tautological (a variable appears in a
    clause with one sign only), matching what ``to_cnf`` emits.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    names = tuple(f"x{i}" for i in range(1, n + 1))
    clauses = []
    for _ in range(m):
        width = rng.randint(1, n)
        indices = rng.sample(range(n), width)
        clauses.append(
            frozenset(
                Literal(index=i, positive=rng.random() < 0.5) for i in indices
            )
        )
    return CnfFormula(variables=names, clauses=tuple(clauses))


def random_diagram(
    rng: random.Random,
    *,
    n_in: int | None = None,
    n_out: int | None = None,
    max_nodes: int = 4,
    max_wires: int = 3,
    max_degree: int = 4,
) -> Diagram:
    """Draw a small well-formed diagram.

    All legs and boundary positions are collected into one stub pool and
    paired off uniformly, so self-loops, parallel edges, and wires that
    run boundary-to-boundary all occur. The result always passes
    ``validate``.
    """
    ins = rng.randint(0, max_wires) if n_in is None else n_in
    outs = rng.randint(0, max_wires) if n_out is None else n_out
    kinds: list[GeneratorKind] = []
    degrees: list[int] = []
    for _ in range(rng.randint(0, max_nodes)):
        kind = rng.choice(list(GeneratorKind))
        kinds.append(kind)
        if kind is GeneratorKind.STAR:
            degrees.append(0)
        else:
            degrees.append(rng.randint(0, max_degree))
    stubs: list = [
        NodePort(node=i, port=p) for i, d in enumerate(degrees) for p in range(d)
    ]
    stubs += [BoundaryPort(side="in", pos=i) for i in range(ins)]
    stubs += [BoundaryPort(side="out", pos=i) for i in range(outs)]
    if len(stubs) % 2:
        growable = [i for i, k in enumerate(kinds) if k is not GeneratorKind.STAR]
        if growable and (n_out is not None or rng.random() < 0.5):
            i = rng.choice(growable)
            stubs.append(NodePort(node=i, port=degrees[i]))
            degrees[i] += 1
        elif n_out is None:
            stubs.append(BoundaryPort(side="out", pos=outs))
            outs += 1
        elif n_in is None:
            stubs.append(BoundaryPort(side="in", pos=ins))
            ins += 1
        else:
            kinds.append(GeneratorKind.WHITE_SPIDER)
            degrees.append(1)
            stubs.append(NodePort(node=len(kinds) - 1, port=0))
    rng.shuffle(stubs)
    edges = tuple((stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2))
    nodes = tuple(Node(kind=k, degree=d) for k, d in zip(kinds, degrees))
    return Diagram(nodes=nodes, edges=edges, n_in=ins, n_out=outs)


def all_cnfs(n: int, max_clauses: int) -> list[CnfFormula]:
    """Enumerate every CNF over x1..xn with 0..max_clauses distinct clauses.

    Clause order is normalized (sorted by bitmask pair) so each clause set
    appears once. Intended for small exhaustive sweeps; the count grows
    doubly exponentially in ``n``.
    """
    from itertools import combinations

    names = tuple(f"x{i}" for i in range(1, n + 1))
    pool = []
    for pos_mask in range(3**n):
        # Ternary digit per variable: absent, positive, negative.
        digits = []
        rest = pos_mask
        for _ in range(n):
            digits.append(rest % 3)
            rest //= 3
        if all(d == 0 for d in digits):
            continue
        pool.append(
            frozenset(
                Literal(index=i, positive=d == 1)
                for i, d in enumerate(digits)
                if d != 0
            )
        )
    out = []
    for m in range(max_clauses + 1):
        for combo in combinations(pool, m):
            out.append(CnfFormula(variables=names, clauses=tuple(combo)))
    return out
