"""Count-preserving formula surgery.

Two constructions used by the counting reductions:

* concat_formulae packs the model counts of two formulae into one
  formula whose count reads as (count of the first) shifted left of
  (count of the second):  rho = (phi & z) | (x1 & ... & xn & psi & ~z & z'),
  counted over X ++ Y ++ (z, z').  The first disjunct contributes
  count(phi) * 2**(m+1), the second contributes count(psi), and the two
  are disjoint via the selector z.

* formula_with_count builds, for any 0 <= k <= 2**n, a formula over n
  given variables with exactly k satisfying assignments, by spelling
  out the binary digits of k as a nest of conjunctions/disjunctions.
"""

from __future__ import annotations

from typing import NamedTuple

from zhcalc.formula import (
    And,
    Const,
    Formula,
    FormulaError,
    Implies,
    Not,
    Or,
    Var,
    formula_vars,
    rename_vars,
)

FRESH_PREFIX = "_"


class OutOfRange(FormulaError):
    """Requested count is not representable over the given variables."""


def _fresh_names(used: set[str], count: int, base: str) -> list[str]:
    names = []
    i = 1
    while len(names) < count:
        candidate = f"{FRESH_PREFIX}{base}{i}"
        if candidate not in used:
            names.append(candidate)
            used.add(candidate)
        i += 1
    return names


class ConcatResult(NamedTuple):
    formula: Formula
    variables: tuple[str, ...]
    low_bits: int


def concat_formulae(
    phi: Formula,
    x_vars: tuple[str, ...] | list[str],
    psi: Formula,
    y_vars: tuple[str, ...] | list[str],
) -> ConcatResult:
    """Combine two counts into one: count(rho) = count(phi) << low_bits + count(psi).

    low_bits is len(y_vars) + 1.  If the variable lists collide, psi's
    variables are renamed to fresh reserved names first.
    """
    xs = tuple(x_vars)
    ys = tuple(y_vars)
    if set(formula_vars(phi)) - set(xs):
        raise ValueError("phi uses variables outside its list")
    if set(formula_vars(psi)) - set(ys):
        raise ValueError("psi uses variables outside its list")
    used = set(xs) | set(ys)
    overlap = [y for y in ys if y in xs]
    if overlap:
        replacements = _fresh_names(used, len(overlap), "r")
        mapping = dict(zip(overlap, replacements))
        psi = rename_vars(psi, mapping)
        ys = tuple(mapping.get(y, y) for y in ys)
    z, zp = _fresh_names(used, 2, "z")

    all_x = Const(True)
    for name in xs:
        all_x = And(all_x, Var(name))
    rho = Or(
        And(phi, Var(z)),
        And(And(And(all_x, psi), Not(Var(z))), Var(zp)),
    )
    return ConcatResult(rho, xs + ys + (z, zp), len(ys) + 1)


def formula_with_count(variables: tuple[str, ...] | list[str], k: int) -> Formula:
    """A formula over exactly `variables` with exactly k models.

    Write k in binary as n+1 digits a0..an (a0 is the most significant,
    only set when k == 2**n).  The formula is

        ~l(a0) -> (x1 *1* (x2 *2* ... (xn & l(an)) ...))

    where *i* is & when a_i is 0 and | when a_i is 1, and l maps the
    digit 0/1 to the constant F/T.
    """
    names = tuple(variables)
    n = len(names)
    if not 0 <= k <= 2**n:
        raise OutOfRange(f"count {k} is not in [0, 2^{n}]")
    digits = [(k >> (n - i)) & 1 for i in range(n + 1)]

    def lit(d: int) -> Formula:
        return Const(d == 1)

    if n == 0:
        return Implies(Not(lit(digits[0])), lit(digits[0]))
    inner: Formula = And(Var(names[-1]), lit(digits[-1]))
    for i in range(n - 1, 0, -1):
        join = And if digits[i] == 0 else Or
        inner = join(Var(names[i - 1]), inner)
    return Implies(Not(lit(digits[0])), inner)
