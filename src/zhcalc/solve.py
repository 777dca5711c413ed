"""Brute-force decision procedures over diagrams and instances.

These are the reference answers everything else is checked against.
Each diagram solver evaluates every diagram argument once into its
exact matrix, then scans basis positions in lexicographic order (rows
outermost, 0 before 1) and returns the first witness.  Nothing here
is clever, which is the point.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .diagram import ArityMismatch, Diagram
from .evaluate import BasisState, evaluate
from .formula import (
    SatCompareInstance,
    TooManyVariables,
    Valuation,
    model_counts,
)
from .scalar import ExactScalar

DEFAULT_MAX_ENUM = 16


class NotScalar(ValueError):
    """The diagram has boundary wires, so it is not a closed scalar."""


class TooManyWires(ValueError):
    """Brute-force enumeration over this boundary would not terminate
    in reasonable time."""


def _guard(d1: Diagram, d2: Optional[Diagram] = None) -> None:
    """Raise ArityMismatch if the two diagrams' boundaries differ, then
    TooManyWires if inputs plus outputs exceed DEFAULT_MAX_ENUM."""
    if d2 is not None and (d1.n_in, d1.n_out) != (d2.n_in, d2.n_out):
        raise ArityMismatch(
            f"boundaries differ: {d1.n_in}->{d1.n_out} vs {d2.n_in}->{d2.n_out}"
        )
    if d1.n_in + d1.n_out > DEFAULT_MAX_ENUM:
        raise TooManyWires(
            f"enumerating {d1.n_in + d1.n_out} wires exceeds the bound {DEFAULT_MAX_ENUM}"
        )


def scalar_diagram(d: Diagram) -> ExactScalar:
    """The number a closed diagram evaluates to."""
    if d.n_in or d.n_out:
        raise NotScalar(f"diagram has boundary {d.n_in}->{d.n_out}")
    return evaluate(d).entry("", "")


def solve_state_eq(d1: Diagram, d2: Diagram) -> Optional[BasisState]:
    """The first basis input on which the two diagrams produce the same
    residual state, or None if they never do.

    With outputs present the comparison is entrywise over the whole
    residual vector: column v of both matrices, every row.
    """
    _guard(d1, d2)
    m1, m2 = evaluate(d1), evaluate(d2)
    rows = list(map("".join, product("01", repeat=d1.n_out)))
    for col in map("".join, product("01", repeat=d1.n_in)):
        if all(m1.entry(row, col) == m2.entry(row, col) for row in rows):
            state = BasisState.from_string(col)
            return state
    return None


def solve_contains_entry(
    d: Diagram, k: ExactScalar
) -> Optional[tuple[BasisState, BasisState]]:
    """The first (row, col) position whose entry equals k exactly.

    Positions are scanned in lexicographic order, rows outermost.
    Entries the sparse evaluation drops are genuine zeros and are
    compared as such, so k = 0 can be found in an empty matrix.
    """
    _guard(d)
    matrix = evaluate(d)
    cols = list(map("".join, product("01", repeat=d.n_in)))
    for row in map("".join, product("01", repeat=d.n_out)):
        for col in cols:
            if matrix.entry(row, col) == k:
                return BasisState.from_string(row), BasisState.from_string(col)
    return None


def compare_diagrams(d1: Diagram, d2: Diagram) -> bool:
    """Exact entrywise equality of the two evaluations."""
    _guard(d1, d2)
    return evaluate(d1) == evaluate(d2)


def is_zero(d: Diagram) -> bool:
    """Whether the diagram evaluates to the all-zero matrix."""
    _guard(d)
    return evaluate(d).is_zero


def solve_sat_compare(inst: SatCompareInstance) -> Optional[Valuation]:
    """The first shared-variable valuation under which the two model
    counts agree, or None.

    This is the pure-formula oracle: no diagrams are built, so it
    validates the reduction builders from the outside. The x valuations
    are scanned in lexicographic order (False < True), and each side's
    counts come from one truth-table pass per 2**16 assignments of its
    x and extra variables, made only as far as the scan reaches.
    """
    if inst.n > DEFAULT_MAX_ENUM:
        raise TooManyVariables(
            f"{inst.n} shared variables exceeds the bound {DEFAULT_MAX_ENUM}"
        )
    names = inst.x_vars
    counts = zip(
        product((False, True), repeat=inst.n),
        model_counts(inst.psi, names, inst.y_vars),
        model_counts(inst.rho, names, inst.z_vars),
    )
    for bits, left, right in counts:
        if left == right:
            return dict(zip(names, bits))
    return None
