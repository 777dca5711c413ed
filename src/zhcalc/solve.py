"""Brute-force decision procedures over diagrams and instances.

These are the reference answers everything else is checked against:
enumerate basis states in lexicographic order (0 before 1), evaluate
exactly, and return the first witness.  Nothing here is clever, which
is the point.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from .diagram import ArityMismatch, Diagram
from .evaluate import BasisState, apply_basis, evaluate
from .formula import (
    SatCompareInstance,
    TooManyVariables,
    Valuation,
    count_sat,
    substitute,
)
from .scalar import ExactScalar

DEFAULT_MAX_ENUM = 16


class NotScalar(ValueError):
    """The diagram has boundary wires, so it is not a closed scalar."""


class TooManyWires(ValueError):
    """Brute-force enumeration over this boundary would not terminate
    in reasonable time."""


def _states(width: int):
    for bits in product((False, True), repeat=width):
        yield BasisState(bits=bits)


def _guard(wires: int, d1: Diagram, d2: Optional[Diagram] = None) -> None:
    """Raise ArityMismatch if the two diagrams' boundaries differ, then
    TooManyWires if the ``wires`` to enumerate exceed DEFAULT_MAX_ENUM."""
    if d2 is not None and (d1.n_in, d1.n_out) != (d2.n_in, d2.n_out):
        raise ArityMismatch(
            f"boundaries differ: {d1.n_in}->{d1.n_out} vs {d2.n_in}->{d2.n_out}"
        )
    if wires > DEFAULT_MAX_ENUM:
        raise TooManyWires(
            f"enumerating {wires} wires exceeds the bound {DEFAULT_MAX_ENUM}"
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
    residual vector, not a single scalar.
    """
    _guard(d1.n_in, d1, d2)
    for state in _states(d1.n_in):
        if apply_basis(d1, state, "in") == apply_basis(d2, state, "in"):
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
    _guard(d.n_in + d.n_out, d)
    for row in _states(d.n_out):
        residual = apply_basis(d, row, "out")
        for col in _states(d.n_in):
            if residual.entry("", str(col)) == k:
                return row, col
    return None


def compare_diagrams(d1: Diagram, d2: Diagram) -> bool:
    """Exact entrywise equality of the two evaluations."""
    _guard(d1.n_in + d1.n_out, d1, d2)
    return evaluate(d1) == evaluate(d2)


def is_zero(d: Diagram) -> bool:
    """Whether the diagram evaluates to the all-zero matrix."""
    _guard(d.n_in + d.n_out, d)
    return evaluate(d).is_zero


def solve_sat_compare(inst: SatCompareInstance) -> Optional[Valuation]:
    """The first shared-variable valuation under which the two model
    counts agree, or None.

    This is the pure-formula oracle: no diagrams are built, so it
    validates the reduction builders from the outside.
    """
    if inst.n > DEFAULT_MAX_ENUM:
        raise TooManyVariables(
            f"{inst.n} shared variables exceeds the bound {DEFAULT_MAX_ENUM}"
        )
    names = inst.x_vars
    for bits in product((False, True), repeat=inst.n):
        valuation: Valuation = dict(zip(names, bits))
        left = count_sat(substitute(inst.psi, valuation), inst.y_vars)
        right = count_sat(substitute(inst.rho, valuation), inst.z_vars)
        if left == right:
            return valuation
    return None
