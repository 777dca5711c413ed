"""CNF conversion and the fixed-shape 0-1 word codec.

A CNF is a clause list over an explicit, ordered variable list.
to_cnf converts an arbitrary formula in one fold that pushes negations
inward and distributes, without auxiliary variables, so the model count
over the same variable list is preserved.

The 0-1 codec packs a CNF with m clauses over n variables into a word
of exactly 2*k*k bits, k = max(m, n): the clause list is padded with
tautological clauses {x1, ~x1} up to k clauses, k - n fresh variables
are appended (positively) to every clause, and each clause is emitted
as 2k bits, positions 2i-1 and 2i flagging the literals x_i and ~x_i.
Decoding reads the word back as a CNF over x1..xk, dropping unset
positions.

The decoded count is exactly

    count(decode01(encode01(c))) == count(c) + 2**k - 2**n.

Padding clauses are tautologies.  An assignment that sets any fresh
variable True satisfies every widened clause, which gives 2**k - 2**n
models; the assignments with every fresh variable False satisfy the
decoded CNF exactly when they satisfy the original.  So the count is
preserved exactly when m <= n (then k = n).  When clauses outnumber
variables it strictly exceeds the original count; no padding that
keeps k clauses over k variables and only weakens clauses can avoid
this.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from zhcalc.formula import (
    And,
    Const,
    Formula,
    FormulaError,
    Iff,
    Implies,
    Not,
    Or,
    UnassignedVariable,
    Var,
    _fold,
)
from zhcalc.frozen import Frozen

DEFAULT_MAX_CLAUSES = 4096


class SizeBlowup(FormulaError):
    """Distribution exceeded the configured clause budget."""


class BadLength(ValueError):
    """A word's length is not of the form 2*k*k for a positive k."""


class Literal(NamedTuple):
    index: int
    positive: bool

    def __str__(self) -> str:
        return ("" if self.positive else "~") + f"#{self.index}"


Clause = frozenset[Literal]


class CnfFormula(Frozen):
    """Conjunction of disjunction clauses over an ordered variable list."""

    __match_args__ = ("variables", "clauses")
    variables: tuple[str, ...]
    clauses: tuple[Clause, ...]

    def __init__(self, variables: tuple[str, ...], clauses: tuple[Clause, ...]) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "clauses", clauses)
        self.__post_init__()

    def __post_init__(self) -> None:
        n = len(self.variables)
        for clause in self.clauses:
            for lit in clause:
                if not 0 <= lit.index < n:
                    raise ValueError(f"literal {lit} outside variable list")

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def to_formula(self) -> Formula:
        conj: Formula | None = None
        for clause in self.clauses:
            disj: Formula | None = None
            for lit in sorted(clause, key=lambda l: (l.index, not l.positive)):
                atom: Formula = Var(self.variables[lit.index])
                if not lit.positive:
                    atom = Not(atom)
                disj = atom if disj is None else Or(disj, atom)
            if disj is None:
                disj = Const(False)
            conj = disj if conj is None else And(conj, disj)
        return Const(True) if conj is None else conj


# A node's clause list, or None once it would pass DEFAULT_MAX_CLAUSES.
_Clauses = list[Clause] | None
_Pair = tuple[_Clauses, _Clauses]


def to_cnf(phi: Formula, variables: tuple[str, ...] | list[str]) -> CnfFormula:
    """Equivalent CNF over the same variable list; counts are preserved.

    One fold yields, per node, the pair (its clauses, its negation's
    clauses), so Not swaps the pair, a -> b distributes as ~a | b and
    a <-> b as (~a | b) & (a | ~b), negated (a & ~b) | (~a & b). No
    auxiliary variables are introduced. Each node keeps its distinct
    non-tautological clauses in first-occurrence order, at most
    DEFAULT_MAX_CLAUSES; a product past that bound is not built, and
    SizeBlowup is raised if the formula's clauses need it.
    """
    names = tuple(variables)
    index = {name: i for i, name in enumerate(names)}

    def rule(node: Formula, *args: _Pair) -> _Pair:
        match node, args:
            case Var(name), ():
                i = index.get(name)
                if i is None:
                    raise UnassignedVariable(name)
                return [frozenset((Literal(i, True),))], [frozenset((Literal(i, False),))]
            case Const(value), ():
                return ([], [frozenset()]) if value else ([frozenset()], [])
            case Not(), ((positive, negated),):
                return negated, positive
            case And(), ((lp, ln), (rp, rn)):
                return _conjoin(lp, rp), _distribute(ln, rn)
            case Or(), ((lp, ln), (rp, rn)):
                return _distribute(lp, rp), _conjoin(ln, rn)
            case Implies(), ((lp, ln), (rp, rn)):
                return _distribute(ln, rp), _conjoin(lp, rn)
            case Iff(), ((lp, ln), (rp, rn)):
                return (
                    _conjoin(_distribute(ln, rp), _distribute(lp, rn)),
                    _distribute(_conjoin(lp, rn), _conjoin(ln, rp)),
                )
        raise TypeError(f"unexpected node in formula: {node!r}")

    clauses = _fold(phi, rule)[0]
    if clauses is None:
        raise SizeBlowup(f"distribution exceeds budget {DEFAULT_MAX_CLAUSES}")
    return CnfFormula(names, tuple(clauses))


def _conjoin(left: _Clauses, right: _Clauses) -> _Clauses:
    if left is None or right is None:
        return None
    clauses = list(dict.fromkeys(left + right))
    return clauses if len(clauses) <= DEFAULT_MAX_CLAUSES else None


def _distribute(left: _Clauses, right: _Clauses) -> _Clauses:
    if left is None or right is None or len(left) * len(right) > DEFAULT_MAX_CLAUSES:
        return None
    # A clause holding both signs of a variable has fewer indices than literals.
    products = (a | b for a in left for b in right)
    return list(dict.fromkeys(c for c in products if len({l.index for l in c}) == len(c)))


# ---------------------------------------------------------------------------
# 0-1 words


class Word01(Frozen):
    """A bit word of length 2*k*k encoding k clauses over k variables."""

    __match_args__ = ("bits",)
    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def __post_init__(self) -> None:
        if any(bit not in (0, 1) for bit in self.bits):
            raise ValueError("word bits must be 0 or 1")
        if self.block_size == 0:
            raise BadLength(f"length {len(self.bits)} is not 2*k*k with k >= 1")

    @property
    def block_size(self) -> int:
        length = len(self.bits)
        k = math.isqrt(length // 2) if length else 0
        return k if k >= 1 and 2 * k * k == length else 0

    def __str__(self) -> str:
        return "".join("1" if bit else "0" for bit in self.bits)

    @classmethod
    def from_string(cls, text: str) -> "Word01":
        cleaned = text.replace(" ", "")
        if not set(cleaned) <= {"0", "1"}:
            raise BadLength("words contain only 0, 1 and spaces")
        return cls(tuple(ch == "1" for ch in cleaned))


def encode01(cnf: CnfFormula) -> Word01:
    """Pack a CNF into its fixed-shape 0-1 word.

    The word always decodes back to the padded CNF: k = max(m, n)
    clauses over k variables, with count(cnf) + 2**k - 2**n models.
    That is the input's count exactly when m <= n; see the module
    docstring for why the m > n case cannot be count-preserving.
    """
    n, m = cnf.n, cnf.m
    k = max(m, n)
    if k == 0:
        raise ValueError("cannot encode a CNF with no variables and no clauses")
    fresh = frozenset(Literal(i, True) for i in range(n, k))
    padding: Clause = frozenset((Literal(0, True), Literal(0, False))) | fresh
    clauses = [clause | fresh for clause in cnf.clauses]
    clauses.extend([padding] * (k - m))
    bits: list[int] = []
    for clause in clauses:
        for i in range(k):
            bits.append(1 if Literal(i, True) in clause else 0)
            bits.append(1 if Literal(i, False) in clause else 0)
    return Word01(tuple(bits))


def decode01(word: Word01) -> CnfFormula:
    """Read a word back as k clauses over x1..xk; unset positions are dropped."""
    k = word.block_size
    if k == 0:
        raise BadLength(f"length {len(word.bits)} is not 2*k*k with k >= 1")
    variables = tuple(f"x{i}" for i in range(1, k + 1))
    clauses = []
    for j in range(k):
        block = word.bits[2 * k * j : 2 * k * (j + 1)]
        literals = []
        for i in range(k):
            if block[2 * i]:
                literals.append(Literal(i, True))
            if block[2 * i + 1]:
                literals.append(Literal(i, False))
        clauses.append(frozenset(literals))
    return CnfFormula(variables, tuple(clauses))


# ---------------------------------------------------------------------------
# DIMACS


def to_dimacs(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.n} {cnf.m}"]
    for clause in cnf.clauses:
        nums = [
            (l.index + 1) if l.positive else -(l.index + 1)
            for l in sorted(clause, key=lambda l: (l.index, not l.positive))
        ]
        lines.append(" ".join(str(v) for v in nums) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    n = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(c.isdecimal() for c in parts[2:]):
                raise ValueError(f"bad problem line: {line!r}")
            n = int(parts[2])
            continue
        if n is None:
            raise ValueError("clause before problem line")
        nums = [int(tok) for tok in line.split()]
        if nums[-1] != 0:
            raise ValueError(f"clause not 0-terminated: {line!r}")
        if 0 in nums[:-1]:
            raise ValueError(f"0 before the end of a clause: {line!r}")
        clauses.append(
            frozenset(Literal(abs(v) - 1, v > 0) for v in nums[:-1])
        )
    if n is None:
        raise ValueError("missing problem line")
    return CnfFormula(tuple(f"x{i}" for i in range(1, n + 1)), tuple(clauses))
