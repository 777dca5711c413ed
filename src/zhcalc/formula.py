"""Boolean formula ASTs, parsing, evaluation and model counting.

Formulae are immutable trees over Var/Const/Not/And/Or/Implies/Iff.
Model counts are always taken over an explicit, ordered variable list,
which may be larger than the set of variables that actually occur.
Counting runs a formula once over truth tables, one bit per assignment,
and is guarded by a variable bound.

Concrete syntax: variables match [A-Za-z_][A-Za-z0-9_]*, constants are
T and F, operators are ~ & | -> <-> with precedence ~ > & > | > -> >
<-> and right-associative arrows.

Every formula walk (here, in ``cnf`` and in ``encode``) folds a per-node
rule over one iterative post-order, and the parser runs on explicit
stacks, so depth is bounded by memory, not by the recursion limit.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, TypeVar, Union

from .frozen import Frozen, _brief, _fields

DEFAULT_MAX_VARS = 20


class FormulaError(Exception):
    pass


class UnassignedVariable(FormulaError):
    """A variable required during evaluation has no assigned value."""


class TooManyVariables(FormulaError):
    """The enumeration bound for brute-force counting was exceeded."""


class ParseError(FormulaError):
    pass


# Formula nodes are named tuples, whose fields are read in C. Each
# compares by class as well as fields (below), so And(a, b) != Or(a, b)
# and no node equals a plain tuple.


class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    value: bool


class Not(NamedTuple):
    child: "Formula"


class And(NamedTuple):
    left: "Formula"
    right: "Formula"


class Or(NamedTuple):
    left: "Formula"
    right: "Formula"


class Implies(NamedTuple):
    left: "Formula"
    right: "Formula"


class Iff(NamedTuple):
    left: "Formula"
    right: "Formula"


def _node_eq(self: Formula, other: object) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _node_ne(self: Formula, other: object) -> bool:
    return not _node_eq(self, other)


def _node_hash(self: Formula) -> int:
    return hash((type(self), *self))


for _kind in (Var, Const, Not, And, Or, Implies, Iff):
    _kind.__eq__, _kind.__ne__, _kind.__hash__ = _node_eq, _node_ne, _node_hash

Formula = Union[Var, Const, Not, And, Or, Implies, Iff]
Valuation = dict[str, bool]

TRUE = Const(True)
FALSE = Const(False)


_ARITY = {Var: 0, Const: 0, Not: 1, And: 2, Or: 2, Implies: 2, Iff: 2}
_T = TypeVar("_T")


def _postorder(phi: Formula) -> list[Formula]:
    """Every node of phi, each after its children and left before right;
    a subtree shared by two parents is listed once per parent."""
    order = []
    stack = [phi]
    while stack:
        node = stack.pop()
        order.append(node)
        arity = _ARITY.get(type(node))
        if arity == 1:
            stack.append(node.child)
        elif arity == 2:
            stack.append(node.left)
            stack.append(node.right)
        elif arity is None:
            raise TypeError(f"not a formula: {node!r}")
    order.reverse()
    return order


def _fold(phi: Formula, rule: Callable[..., _T]) -> _T:
    """``rule(node, *child_results)`` for every node of phi in post-order;
    returns the root's result."""
    results: list[_T] = []
    for node in _postorder(phi):
        arity = _ARITY[type(node)]
        if arity == 2:
            right = results.pop()
            results[-1] = rule(node, results[-1], right)
        elif arity == 1:
            results[-1] = rule(node, results[-1])
        else:
            results.append(rule(node))
    return results[0]


# A truth table is an int with one bit per assignment: bit a is the value
# under assignment a, whose bits are the variables' values, the first name
# most significant. One table spans at most 2**_TABLE_BITS assignments
# (8 KiB); past that the leading names are pinned, one table per valuation.
_TABLE_BITS = 16

_CONNECTIVE = {
    And: lambda left, right, full: left & right,
    Or: lambda left, right, full: left | right,
    Implies: lambda left, right, full: (left ^ full) | right,
    Iff: lambda left, right, full: left ^ right ^ full,
}


@cache
def _column(width: int, shift: int) -> int:
    """The table, over 2**width assignments, of the variable that bit
    ``shift`` of an assignment gives: runs of 2**shift zeros, then as many
    ones, built by doubling."""
    run = 1 << shift
    column, span = ((1 << run) - 1) << run, 2 * run
    while span < 1 << width:
        column |= column << span
        span *= 2
    return column


def _table(program: list[Formula], env: dict[str, int], full: int) -> int:
    """Run a post-order node list as a postfix program over truth tables;
    ``env`` holds each variable's table and ``full`` is the all-true one."""
    stack: list[int] = []
    for node in program:
        kind = type(node)
        if kind is Var:
            stack.append(env[node.name])
        elif kind is Const:
            stack.append(full if node.value else 0)
        elif kind is Not:
            stack[-1] ^= full
        else:
            right = stack.pop()
            stack[-1] = _CONNECTIVE[kind](stack[-1], right, full)
    return stack[0]


def _tables(
    phi: Formula, names: list[str], pins: Valuation, width: int
) -> Iterator[int]:
    """phi's truth tables over the last ``width`` of ``names`` with ``pins``
    fixed, one per valuation of the names before them, in lexicographic
    order. A repeated name, or one both pinned and in ``names``, is
    refused."""
    program = _postorder(phi)
    position = {name: i for i, name in enumerate(names)}
    if len(position) < len(names):
        repeated = next(name for i, name in enumerate(names) if position[name] != i)
        raise ValueError(f"variable {_brief(repeated)} is listed twice")
    clash = position.keys() & pins.keys()
    if clash:
        raise ValueError(f"variables both pinned and counted: {_brief(sorted(clash))}")
    missing = {node.name for node in program if type(node) is Var}
    missing -= position.keys() | pins.keys()
    if missing:
        raise UnassignedVariable(", ".join(sorted(missing)))
    full = (1 << (1 << width)) - 1
    split = len(names) - width
    env = {name: full if value else 0 for name, value in pins.items()}
    leading = []
    for name, i in position.items():
        if i < split:
            leading.append((name, split - 1 - i))
        else:
            env[name] = _column(width, len(names) - 1 - i)
    for prefix in range(1 << split):
        env.update((name, full if prefix >> shift & 1 else 0) for name, shift in leading)
        yield _table(program, env, full)


def eval_formula(phi: Formula, valuation: Valuation) -> bool:
    """phi's value under ``valuation``, which must assign every variable of
    phi, including those in a branch whose value is already decided."""
    return bool(next(_tables(phi, [], valuation, 0)))


def formula_vars(phi: Formula) -> tuple[str, ...]:
    """Variables of phi in first-occurrence order, deduplicated."""
    return tuple(dict.fromkeys(node.name for node in _postorder(phi) if type(node) is Var))


def substitute(phi: Formula, valuation: Valuation) -> Formula:
    """Replace assigned variables by constants and fold constants away.

    Folding uses the usual identities (True & p -> p, False & p ->
    False, True | p -> True, and the analogous rules for ~, -> and
    <->), so the result may lose further variables than just the
    substituted ones, e.g. (x1 | T) folds to T.
    """

    def rule(node: Formula, *args: Formula) -> Formula:
        match node, args:
            case Var(name), () if name in valuation:
                return Const(valuation[name])
            case (Var() | Const()), ():
                return node
            case Not(), (c,):
                return _fold_not(c)
            case And(), (Const(value), r):
                return r if value else FALSE
            case And(), (l, Const(value)):
                return l if value else FALSE
            case Or(), (Const(value), r):
                return TRUE if value else r
            case Or(), (l, Const(value)):
                return TRUE if value else l
            case Implies(), (Const(value), r):
                return r if value else TRUE
            case Implies(), (l, Const(value)):
                return TRUE if value else _fold_not(l)
            case Iff(), (Const(value), r):
                return r if value else _fold_not(r)
            case Iff(), (l, Const(value)):
                return l if value else _fold_not(l)
        return type(node)(*args)

    return _fold(phi, rule)


def _fold_not(phi: Formula) -> Formula:
    if isinstance(phi, Const):
        return Const(not phi.value)
    return Not(phi)


def rename_vars(phi: Formula, mapping: dict[str, str]) -> Formula:
    def rule(node: Formula, *args: Formula) -> Formula:
        match node:
            case Var(name):
                return Var(mapping.get(name, name))
            case Const():
                return node
        return type(node)(*args)

    return _fold(phi, rule)


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


def model_counts(
    phi: Formula,
    leading: tuple[str, ...] | list[str],
    variables: tuple[str, ...] | list[str],
    pins: Valuation | None = None,
) -> Iterator[int]:
    """``count_sat(phi, variables, pins)`` with each valuation of ``leading``
    added to the pins, lazily and in lexicographic order (False < True).

    One truth table covers the counted names and as many leading ones as
    fit, so a table yields several counts or a count sums several tables.
    A name listed twice across ``leading`` and ``variables`` raises
    ValueError on the first count.
    """
    counted = len(_bounded(variables))
    names = [*leading, *variables]
    width = min(len(names), _TABLE_BITS)
    tables = _tables(phi, names, pins or {}, width)
    if counted >= width:
        group, total = 1 << (counted - width), 0
        for j, table in enumerate(tables, 1):
            total += table.bit_count()
            if j % group == 0:
                yield total
                total = 0
    else:
        run = 1 << counted
        block = (1 << run) - 1
        for table in tables:
            for shift in range(0, 1 << width, run):
                yield (table >> shift & block).bit_count()


def count_sat(
    phi: Formula,
    variables: tuple[str, ...] | list[str],
    pins: Valuation | None = None,
) -> int:
    """Number of assignments of `variables` satisfying phi with `pins`
    fixed, from one pass of its post-order over truth tables.

    `variables` and `pins` together must cover every variable occurring
    in phi, and no name may be in both or twice in `variables` (either
    raises ValueError); `variables` may contain extra names, and each
    unused name doubles the count of an otherwise satisfiable formula.
    """
    return next(model_counts(phi, (), variables, pins))


def satisfying_assignments(
    phi: Formula, variables: tuple[str, ...] | list[str]
) -> list[str]:
    """Satisfying assignments as bitstrings in variable-list order; a name
    listed twice raises ValueError."""
    names = _bounded(variables)
    width = min(len(names), _TABLE_BITS)
    shifts = range(len(names) - 1, -1, -1)
    out = []
    for prefix, table in enumerate(_tables(phi, names, {}, width)):
        while table:
            low = table & -table
            a = prefix << width | low.bit_length() - 1
            out.append("".join(["01"[a >> s & 1] for s in shifts]))
            table ^= low
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


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}
_SYMBOL = {Iff: "<->", Implies: "->", Or: "|", And: "&", Not: "~"}
_OPERATOR = {symbol: kind for kind, symbol in _SYMBOL.items()}
_RIGHT_ASSOC = (Implies, Iff)


def parse_formula(text: str) -> Formula:
    """Shunting-yard over explicit operand and operator stacks."""
    operands: list[Formula] = []
    operators: list[str] = []  # "(" and operator symbols
    depth = 0  # the number of "(" on ``operators``

    def reduce_from(min_prec: int) -> None:
        """Apply stacked operators binding at least ``min_prec``, down to
        the innermost open parenthesis."""
        while operators and operators[-1] != "(":
            kind = _OPERATOR[operators[-1]]
            if _PREC[kind] < min_prec:
                return
            operators.pop()
            if kind is Not:
                operands[-1] = Not(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = kind(operands[-1], right)

    want_operand = True
    for pos, tok in enumerate(_tokenize(text)):
        if want_operand:
            if tok in ("~", "("):
                depth += tok == "("
                operators.append(tok)
            elif tok == ")" or tok in _OPERATOR:
                raise ParseError(f"unexpected token {_brief(tok)}")
            else:
                operands.append(TRUE if tok == "T" else FALSE if tok == "F" else Var(tok))
                want_operand = False
        elif tok in _OPERATOR and tok != "~":
            kind = _OPERATOR[tok]
            reduce_from(_PREC[kind] + (kind in _RIGHT_ASSOC))
            operators.append(tok)
            want_operand = True
        elif depth and tok == ")":
            reduce_from(0)
            operators.pop()
            depth -= 1
        elif depth:
            raise ParseError("expected ')'")
        else:
            raise ParseError(f"trailing input from token {pos}: {_brief(tok)}")
    if want_operand or depth:
        raise ParseError("unexpected end of input")
    reduce_from(0)
    return operands[0]


def format_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts this."""

    def operand(text: str, prec: int, min_prec: int) -> str:
        return f"({text})" if prec < min_prec else text

    def rule(node: Formula, *args: tuple[str, int]) -> tuple[str, int]:
        kind = type(node)
        if kind is Var:
            return node.name, 6
        if kind is Const:
            return ("T" if node.value else "F"), 6
        prec = _PREC[kind]
        if kind is Not:
            return "~" + operand(*args[0], prec), prec
        right_assoc = kind in _RIGHT_ASSOC
        left = operand(*args[0], prec + right_assoc)
        right = operand(*args[1], prec + (not right_assoc))
        return f"{left} {_SYMBOL[kind]} {right}", prec

    return _fold(phi, rule)[0]


# ---------------------------------------------------------------------------
# Comparison instances


class SatCompareInstance(Frozen):
    """Shared x-variables, psi over x+y, rho over x+z.

    The decision problem: is there an assignment v of x1..xn with
    count_sat(psi[v], y1..ym) == count_sat(rho[v], z1..zm)?
    Both n and m are at most ``DEFAULT_MAX_VARS``.
    """

    __match_args__ = ("n", "m", "psi", "rho")
    n: int
    m: int
    psi: Formula
    rho: Formula

    def __init__(self, n: int, m: int, psi: Formula, rho: Formula) -> None:
        if n < 0 or m < 0:
            raise ValueError(f"n and m must be non-negative, not {n} and {m}")
        if max(n, m) > DEFAULT_MAX_VARS:
            raise TooManyVariables(
                f"n {_brief(n)} and m {_brief(m)}: each may be at most {DEFAULT_MAX_VARS}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "rho", rho)
        bad_psi = set(formula_vars(psi)).difference(self.x_vars, self.y_vars)
        bad_rho = set(formula_vars(rho)).difference(self.x_vars, self.z_vars)
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
        n, m, psi, rho = _fields(obj, "instance", ("n", "m", "psi", "rho"))
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"n and m must be integers, not {_brief(n)} and {_brief(m)}")
        if not isinstance(psi, str) or not isinstance(rho, str):
            raise ValueError(f"psi and rho must be strings, not {_brief(psi)} and {_brief(rho)}")
        return cls(n=n, m=m, psi=parse_formula(psi), rho=parse_formula(rho))
