"""Concatenation and exact-count formula construction."""

import random
from dataclasses import dataclass

import pytest

from zhcalc.counting import (
    ConcatResult,
    OutOfRange,
    concat_formulae,
    formula_with_count,
)
from zhcalc.formula import (
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    count_sat,
    satisfying_assignments,
)

x1, x2 = Var("x1"), Var("x2")
y1, y2 = Var("y1"), Var("y2")


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


def concat_compare(i1: CompareInstance, i2: CompareInstance) -> CompareInstance:
    """Combine two comparison instances into one that holds iff both do.

    Counts cannot cancel across the combination: the second instance's
    counts occupy the low low_bits of the combined counts and are
    strictly below the shift applied to the first instance's counts.
    """
    left = concat_formulae(i1.phi, i1.x_vars, i2.phi, i2.x_vars)
    right = concat_formulae(i1.psi, i1.y_vars, i2.psi, i2.y_vars)
    return CompareInstance(left.formula, left.variables, right.formula, right.variables)


def test_concat_counts_add_up():
    # count(phi)=1 over one variable, count(psi)=0 over one variable:
    # combined count is 1 * 2^(1+1) + 0 = 4 over four variables.
    res = concat_formulae(x1, ("x1",), And(y1, Not(y1)), ("y1",))
    assert res.low_bits == 2
    assert len(res.variables) == 4
    assert count_sat(res.formula, res.variables) == 4


def test_concat_law_small_corpus():
    rng = random.Random(20260816)
    names_x = ("x1", "x2", "x3")
    names_y = ("y1", "y2")

    def rand_formula(names, depth):
        if depth == 0 or rng.random() < 0.3:
            return Var(rng.choice(names)) if rng.random() > 0.1 else Const(True)
        kind = rng.choice((Not, And, Or))
        if kind is Not:
            return Not(rand_formula(names, depth - 1))
        return kind(rand_formula(names, depth - 1), rand_formula(names, depth - 1))

    for _ in range(150):
        phi = rand_formula(names_x, 3)
        psi = rand_formula(names_y, 3)
        res = concat_formulae(phi, names_x, psi, names_y)
        expected = count_sat(phi, names_x) * 2**res.low_bits + count_sat(
            psi, names_y
        )
        assert count_sat(res.formula, res.variables) == expected


def test_concat_renames_collisions():
    res = concat_formulae(x1, ("x1", "x2"), x1, ("x1", "x2"))
    assert len(set(res.variables)) == 6
    # count(x1 over 2 vars) = 2 on both sides: 2 * 2^3 + 2 = 18
    assert count_sat(res.formula, res.variables) == 18


def test_concat_rejects_stray_variables():
    with pytest.raises(ValueError):
        concat_formulae(x1, ("x2",), y1, ("y1",))


def test_concat_empty_x_side():
    res = concat_formulae(Const(True), (), y1, ("y1",))
    assert count_sat(res.formula, res.variables) == 1 * 2**2 + 1


def test_compare_instance():
    inst = CompareInstance(Or(x1, x2), ("x1", "x2"), And(y1, y2), ("y1", "y2"))
    assert compare_sharp_sat(inst) is False
    inst2 = CompareInstance(x1, ("x1", "x2"), Not(y1), ("y1", "y2"))
    assert compare_sharp_sat(inst2) is True
    with pytest.raises(ValueError):
        CompareInstance(x1, ("x1",), y1, ("y1", "y2"))


def test_concat_compare_no_cancellation():
    # left counts 2 vs 1, right counts 1 vs 2: unequal on both axes, and
    # the combination must stay unequal (no cross-cancellation).
    i1 = CompareInstance(Or(x1, x2), ("x1", "x2"), And(Var("y1"), Var("y2")), ("y1", "y2"))
    i2 = CompareInstance(And(x1, x2), ("x1", "x2"), Or(Var("y1"), Var("y2")), ("y1", "y2"))
    assert not compare_sharp_sat(i1)
    combined = concat_compare(i1, i2)
    assert len(combined.x_vars) == len(combined.y_vars) == 6
    assert not compare_sharp_sat(combined)

    # equal on both axes stays equal
    j1 = CompareInstance(x1, ("x1",), Not(y1), ("y1",))
    j2 = CompareInstance(Const(True), ("x1",), Or(y1, Not(y1)), ("y1",))
    assert compare_sharp_sat(concat_compare(j1, j2))


def test_concat_compare_exhaustive_counts():
    rng = random.Random(99)
    names = ("x1", "x2")

    def rand_formula(depth):
        if depth == 0 or rng.random() < 0.35:
            return Var(rng.choice(names))
        kind = rng.choice((Not, And, Or))
        if kind is Not:
            return Not(rand_formula(depth - 1))
        return kind(rand_formula(depth - 1), rand_formula(depth - 1))

    for _ in range(80):
        i1 = CompareInstance(rand_formula(3), names, rand_formula(3), names)
        i2 = CompareInstance(rand_formula(3), names, rand_formula(3), names)
        combined = concat_compare(i1, i2)
        assert compare_sharp_sat(combined) == (
            compare_sharp_sat(i1) and compare_sharp_sat(i2)
        )


def test_count_formula_table_n2():
    names = ("x1", "x2")
    expected_sets = {
        0: [],
        1: ["11"],
        2: ["10", "11"],
        3: ["01", "10", "11"],
        4: ["00", "01", "10", "11"],
    }
    for k, sats in expected_sets.items():
        phi = formula_with_count(names, k)
        assert satisfying_assignments(phi, names) == sats
        assert count_sat(phi, names) == k


def test_count_formula_all_small_n():
    for n in range(0, 5):
        names = tuple(f"x{i}" for i in range(1, n + 1))
        for k in range(0, 2**n + 1):
            phi = formula_with_count(names, k)
            assert count_sat(phi, names) == k


def test_count_formula_out_of_range():
    with pytest.raises(OutOfRange):
        formula_with_count(("x1",), 3)
    with pytest.raises(OutOfRange):
        formula_with_count(("x1",), -1)


def test_count_formula_n0():
    assert count_sat(formula_with_count((), 0), ()) == 0
    assert count_sat(formula_with_count((), 1), ()) == 1
