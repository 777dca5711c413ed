"""Boolean formula ASTs, parsing, evaluation and model counting.

Formulae are immutable trees over Var/Const/Not/And/Or/Implies/Iff.
Model counts are always taken over an explicit, ordered variable list,
which may be larger than the set of variables that actually occur.
Counting is brute-force enumeration and guarded by a variable bound.

Concrete syntax: variables match [A-Za-z_][A-Za-z0-9_]*, constants are
T and F, operators are ~ & | -> <-> with precedence ~ > & > | > -> >
<-> and right-associative arrows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

from .diagram import _brief

DEFAULT_MAX_VARS = 20


class FormulaError(Exception):
    pass


class UnassignedVariable(FormulaError):
    """A variable required during evaluation has no assigned value."""


class TooManyVariables(FormulaError):
    """The enumeration bound for brute-force counting was exceeded."""


class ParseError(FormulaError):
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


Formula = Union[Var, Const, Not, And, Or, Implies, Iff]
Valuation = dict[str, bool]

TRUE = Const(True)
FALSE = Const(False)


def eval_formula(phi: Formula, valuation: Valuation) -> bool:
    match phi:
        case Var(name):
            try:
                return valuation[name]
            except KeyError:
                raise UnassignedVariable(name) from None
        case Const(value):
            return value
        case Not(child):
            return not eval_formula(child, valuation)
        case And(left, right):
            return eval_formula(left, valuation) and eval_formula(right, valuation)
        case Or(left, right):
            return eval_formula(left, valuation) or eval_formula(right, valuation)
        case Implies(left, right):
            return (not eval_formula(left, valuation)) or eval_formula(right, valuation)
        case Iff(left, right):
            return eval_formula(left, valuation) == eval_formula(right, valuation)
    raise TypeError(f"not a formula: {phi!r}")


def formula_vars(phi: Formula) -> tuple[str, ...]:
    """Variables of phi in first-occurrence order, deduplicated."""
    seen: dict[str, None] = {}

    def walk(node: Formula) -> None:
        match node:
            case Var(name):
                seen.setdefault(name)
            case Const(_):
                pass
            case Not(child):
                walk(child)
            case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
                walk(l)
                walk(r)

    walk(phi)
    return tuple(seen)


def substitute(phi: Formula, valuation: Valuation) -> Formula:
    """Replace assigned variables by constants and fold constants away.

    Folding uses the usual identities (True & p -> p, False & p ->
    False, True | p -> True, and the analogous rules for ~, -> and
    <->), so the result may lose further variables than just the
    substituted ones, e.g. (x1 | T) folds to T.
    """
    match phi:
        case Var(name):
            if name in valuation:
                return Const(valuation[name])
            return phi
        case Const(_):
            return phi
        case Not(child):
            c = substitute(child, valuation)
            if isinstance(c, Const):
                return Const(not c.value)
            return Not(c)
        case And(left, right):
            l, r = substitute(left, valuation), substitute(right, valuation)
            if isinstance(l, Const):
                return r if l.value else FALSE
            if isinstance(r, Const):
                return l if r.value else FALSE
            return And(l, r)
        case Or(left, right):
            l, r = substitute(left, valuation), substitute(right, valuation)
            if isinstance(l, Const):
                return TRUE if l.value else r
            if isinstance(r, Const):
                return TRUE if r.value else l
            return Or(l, r)
        case Implies(left, right):
            l, r = substitute(left, valuation), substitute(right, valuation)
            if isinstance(l, Const):
                return r if l.value else TRUE
            if isinstance(r, Const):
                return TRUE if r.value else _fold_not(l)
            return Implies(l, r)
        case Iff(left, right):
            l, r = substitute(left, valuation), substitute(right, valuation)
            if isinstance(l, Const):
                return r if l.value else _fold_not(r)
            if isinstance(r, Const):
                return l if r.value else _fold_not(l)
            return Iff(l, r)
    raise TypeError(f"not a formula: {phi!r}")


def _fold_not(phi: Formula) -> Formula:
    if isinstance(phi, Const):
        return Const(not phi.value)
    return Not(phi)


def eliminate_arrows(phi: Formula) -> Formula:
    """Rewrite -> and <-> into and/or/not; the value is unchanged."""
    match phi:
        case Var() | Const():
            return phi
        case Not(child):
            return Not(eliminate_arrows(child))
        case And(left, right):
            return And(eliminate_arrows(left), eliminate_arrows(right))
        case Or(left, right):
            return Or(eliminate_arrows(left), eliminate_arrows(right))
        case Implies(left, right):
            return Or(Not(eliminate_arrows(left)), eliminate_arrows(right))
        case Iff(left, right):
            a, b = eliminate_arrows(left), eliminate_arrows(right)
            return And(Or(Not(a), b), Or(a, Not(b)))
    raise TypeError(f"not a formula: {phi!r}")


def rename_vars(phi: Formula, mapping: dict[str, str]) -> Formula:
    match phi:
        case Var(name):
            return Var(mapping.get(name, name))
        case Const(_):
            return phi
        case Not(child):
            return Not(rename_vars(child, mapping))
        case And(l, r):
            return And(rename_vars(l, mapping), rename_vars(r, mapping))
        case Or(l, r):
            return Or(rename_vars(l, mapping), rename_vars(r, mapping))
        case Implies(l, r):
            return Implies(rename_vars(l, mapping), rename_vars(r, mapping))
        case Iff(l, r):
            return Iff(rename_vars(l, mapping), rename_vars(r, mapping))
    raise TypeError(f"not a formula: {phi!r}")


def assignments(variables: tuple[str, ...] | list[str]) -> Iterator[Valuation]:
    """All valuations of the given variables, lexicographic with False < True."""
    names = list(variables)
    for bits in product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _bounded(variables: tuple[str, ...] | list[str]) -> list[str]:
    names = list(variables)
    if len(names) > DEFAULT_MAX_VARS:
        raise TooManyVariables(
            f"{len(names)} variables exceeds bound {DEFAULT_MAX_VARS}"
        )
    return names


def count_sat(phi: Formula, variables: tuple[str, ...] | list[str]) -> int:
    """Number of assignments of `variables` satisfying phi, by enumeration.

    `variables` must cover every variable occurring in phi and may
    contain extra names; each unused name doubles the count of an
    otherwise satisfiable formula.
    """
    names = _bounded(variables)
    missing = set(formula_vars(phi)) - set(names)
    if missing:
        raise UnassignedVariable(", ".join(sorted(missing)))
    return sum(1 for v in assignments(names) if eval_formula(phi, v))


def satisfying_assignments(
    phi: Formula, variables: tuple[str, ...] | list[str]
) -> list[str]:
    """Satisfying assignments as bitstrings in variable-list order."""
    names = _bounded(variables)
    out = []
    for v in assignments(names):
        if eval_formula(phi, v):
            out.append("".join("1" if v[n] else "0" for n in names))
    return out


# ---------------------------------------------------------------------------
# Concrete syntax


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[~&|()]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {pos}: {_brief(text[pos:])}")
            break
        tokens.append(m.group("name") or m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.iff()
        if self.peek() is not None:
            raise ParseError(f"trailing input from token {self.pos}: {_brief(self.peek())}")
        return phi

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek() == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek() == "|":
            self.take()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        if self.peek() == "~":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        if tok == "(":
            phi = self.iff()
            if self.take() != ")":
                raise ParseError("expected ')'")
            return phi
        if tok == "T":
            return TRUE
        if tok == "F":
            return FALSE
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return Var(tok)
        raise ParseError(f"unexpected token {_brief(tok)}")


def parse_formula(text: str) -> Formula:
    return _Parser(_tokenize(text)).parse()


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def format_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts this."""

    def go(node: Formula, min_prec: int) -> str:
        match node:
            case Var(name):
                return name
            case Const(value):
                return "T" if value else "F"
            case Not(child):
                text = "~" + go(child, _PREC[Not])
                return f"({text})" if _PREC[Not] < min_prec else text
            case And(l, r):
                op, prec, right_assoc = "&", _PREC[And], False
            case Or(l, r):
                op, prec, right_assoc = "|", _PREC[Or], False
            case Implies(l, r):
                op, prec, right_assoc = "->", _PREC[Implies], True
            case Iff(l, r):
                op, prec, right_assoc = "<->", _PREC[Iff], True
            case _:
                raise TypeError(f"not a formula: {node!r}")
        if right_assoc:
            text = f"{go(l, prec + 1)} {op} {go(r, prec)}"
        else:
            text = f"{go(l, prec)} {op} {go(r, prec + 1)}"
        return f"({text})" if prec < min_prec else text

    return go(phi, 0)


# ---------------------------------------------------------------------------
# Comparison instances


@dataclass(frozen=True)
class CompareInstance:
    """Two formulae whose model counts are compared over equal-width lists."""

    phi: Formula
    x_vars: tuple[str, ...]
    psi: Formula
    y_vars: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.x_vars) != len(self.y_vars):
            raise ValueError("variable lists must have equal length")


def compare_sharp_sat(inst: CompareInstance) -> bool:
    """Whether both formulae have the same number of satisfying assignments."""
    return count_sat(inst.phi, inst.x_vars) == count_sat(inst.psi, inst.y_vars)


@dataclass(frozen=True)
class SatCompareInstance:
    """Shared x-variables, psi over x+y, rho over x+z.

    The decision problem: is there an assignment v of x1..xn with
    count_sat(psi[v], y1..ym) == count_sat(rho[v], z1..zm)?
    Both n and m are at most ``DEFAULT_MAX_VARS``.
    """

    n: int
    m: int
    psi: Formula
    rho: Formula

    def __post_init__(self) -> None:
        if self.n < 0 or self.m < 0:
            raise ValueError(f"n and m must be non-negative, not {self.n} and {self.m}")
        if max(self.n, self.m) > DEFAULT_MAX_VARS:
            raise TooManyVariables(
                f"n {_brief(self.n)} and m {_brief(self.m)}: each may be at most {DEFAULT_MAX_VARS}"
            )
        allowed_psi = set(self.x_vars) | set(self.y_vars)
        allowed_rho = set(self.x_vars) | set(self.z_vars)
        bad_psi = set(formula_vars(self.psi)) - allowed_psi
        bad_rho = set(formula_vars(self.rho)) - allowed_rho
        if bad_psi or bad_rho:
            bad = f"psi {_brief(sorted(bad_psi))}, rho {_brief(sorted(bad_rho))}"
            raise ValueError(f"unexpected variables: {bad}")

    @property
    def x_vars(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.n + 1))

    @property
    def y_vars(self) -> tuple[str, ...]:
        return tuple(f"y{i}" for i in range(1, self.m + 1))

    @property
    def z_vars(self) -> tuple[str, ...]:
        return tuple(f"z{i}" for i in range(1, self.m + 1))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "psi": format_formula(self.psi),
            "rho": format_formula(self.rho),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SatCompareInstance":
        if not isinstance(obj, dict):
            raise ValueError(f"instance JSON must be an object, not {_brief(obj)}")
        n, m, psi, rho = (obj.get(key) for key in ("n", "m", "psi", "rho"))
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"n and m must be integers, not {_brief(n)} and {_brief(m)}")
        if not isinstance(psi, str) or not isinstance(rho, str):
            raise ValueError(f"psi and rho must be strings, not {_brief(psi)} and {_brief(rho)}")
        return cls(n=n, m=m, psi=parse_formula(psi), rho=parse_formula(rho))
