"""Solver tests: brute-force witnesses, exact comparisons, oracle ties."""

from __future__ import annotations

import random
from itertools import product

import pytest

import zhcalc.formula as formula_module
from zhcalc.corpus import random_diagram, random_formula, random_sat_compare
from zhcalc.diagram import (
    ArityMismatch,
    BoundaryPort,
    GeneratorKind,
    NodePort,
    compose,
    generator,
    identity,
    tensor,
)
from zhcalc.encode import GateBlock, counting_state, gate_gadget
from zhcalc.evaluate import BasisState, apply_basis, evaluate
from zhcalc.formula import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    SatCompareInstance,
    TooManyVariables,
    Var,
    parse_formula,
)
from zhcalc.reductions import DyadicK, build_contains_entry, build_state_eq, dyadic_scalar
from zhcalc.scalar import ExactScalar, HALF, ONE, TWO, ZERO
from zhcalc.solve import (
    NotScalar,
    TooManyWires,
    compare_diagrams,
    is_zero,
    scalar_diagram,
    solve_contains_entry,
    solve_sat_compare,
    solve_state_eq,
)

Z = GeneratorKind.WHITE_SPIDER


def worked_instance() -> SatCompareInstance:
    return SatCompareInstance(
        n=1,
        m=2,
        psi=parse_formula("x1 | y1 | ~y2"),
        rho=parse_formula("~(z1 & (z2 | x1))"),
    )


def zero_scalar() -> "Diagram":
    # <1| applied to |0> is exactly 0.
    return compose(gate_gadget(GateBlock.IS_TRUE), gate_gadget(GateBlock.FALSE))


def random_instance(rng: random.Random) -> SatCompareInstance:
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    xs = [f"x{i}" for i in range(1, n + 1)]
    psi = random_formula(rng, xs + [f"y{i}" for i in range(1, m + 1)], max_depth=3)
    rho = random_formula(rng, xs + [f"z{i}" for i in range(1, m + 1)], max_depth=3)
    return SatCompareInstance(n=n, m=m, psi=psi, rho=rho)


def _holds(phi, valuation) -> bool:
    """phi's value by recursion over the tree, independent of the engine's
    truth tables; corpus formulae are shallow."""
    match phi:
        case Var(name):
            return valuation[name]
        case Const(value):
            return value
        case Not(child):
            return not _holds(child, valuation)
    left, right = _holds(phi.left, valuation), _holds(phi.right, valuation)
    ops = {And: left and right, Or: left or right, Implies: not left or right, Iff: left == right}
    return ops[type(phi)]


def first_witness(inst: SatCompareInstance):
    """solve_sat_compare by enumeration: count both sides per x valuation."""
    for xs in product((False, True), repeat=inst.n):
        x = dict(zip(inst.x_vars, xs))
        left, right = (
            sum(
                _holds(phi, {**x, **dict(zip(extra, bits))})
                for bits in product((False, True), repeat=inst.m)
            )
            for phi, extra in ((inst.psi, inst.y_vars), (inst.rho, inst.z_vars))
        )
        if left == right:
            return x
    return None


# -- the per-input route the solvers replaced, kept as a reference ----------


def basis(width: int) -> list[BasisState]:
    return [BasisState(bits=bits) for bits in product((0, 1), repeat=width)]


def reference_state_eq(d1, d2):
    for state in basis(d1.n_in):
        if apply_basis(d1, state, "in") == apply_basis(d2, state, "in"):
            return state
    return None


def reference_contains_entry(d, k):
    for row in basis(d.n_out):
        residual = apply_basis(d, row, "out")
        for col in basis(d.n_in):
            if residual.entry("", str(col)) == k:
                return row, col
    return None


def random_pairs(seed: int, count: int):
    """Seeded same-shape diagram pairs, at most two inputs and two outputs.

    ``random_diagram`` pairs off one stub pool, so self-loops and
    boundary-to-boundary wires both occur.
    """
    rng = random.Random(seed)
    for _ in range(count):
        shape = {"n_in": rng.randint(0, 2), "n_out": rng.randint(0, 2)}
        yield (
            random_diagram(rng, **shape, max_nodes=3, max_degree=3),
            random_diagram(rng, **shape, max_nodes=3, max_degree=3),
        )


class TestScalarDiagram:
    def test_star_is_one_half(self) -> None:
        assert scalar_diagram(generator(GeneratorKind.STAR, 0, 0)) == HALF

    def test_discard_after_both_is_two(self) -> None:
        closed = compose(generator(Z, 1, 0), generator(Z, 0, 1))
        assert scalar_diagram(closed) == TWO

    def test_empty_diagram_is_one(self) -> None:
        from zhcalc.diagram import Diagram

        assert scalar_diagram(Diagram(nodes=(), edges=(), n_in=0, n_out=0)) == ONE

    def test_open_diagram_is_rejected(self) -> None:
        with pytest.raises(NotScalar):
            scalar_diagram(identity(1))


class TestSolveStateEq:
    def test_worked_pair_agrees_at_zero(self) -> None:
        pair = build_state_eq(worked_instance())
        assert solve_state_eq(pair.d1, pair.d2) == BasisState.from_string("0")

    def test_reflexivity_gives_the_all_zero_witness(self) -> None:
        pair = build_state_eq(worked_instance())
        assert solve_state_eq(pair.d1, pair.d1) == BasisState.from_string("0")

    def test_counts_three_four_never_meet_constant_five(self) -> None:
        pair = build_state_eq(worked_instance())
        constant = tensor(generator(Z, 1, 0), dyadic_scalar(DyadicK(5, 0)))
        assert solve_state_eq(pair.d1, constant) is None

    def test_residual_vectors_compared_entrywise(self) -> None:
        # A bare wire versus a dark not never agree: the residuals
        # |0> vs sqrt(2)|1> and |1> vs sqrt(2)|0> differ entrywise.
        flip = generator(GeneratorKind.DARK_NOT, 1, 1)
        assert solve_state_eq(identity(1), flip) is None

    def test_boundary_checks(self) -> None:
        with pytest.raises(ArityMismatch):
            solve_state_eq(identity(1), identity(2))
        with pytest.raises(TooManyWires):
            solve_state_eq(identity(17), identity(17))
        # Inputs plus outputs count, as for the other solvers: 8 + 9 = 17.
        with pytest.raises(TooManyWires):
            solve_state_eq(generator(Z, 8, 9), generator(Z, 8, 9))
        # Outputs alone count too: two 17-output states are refused.
        with pytest.raises(TooManyWires):
            solve_state_eq(generator(Z, 0, 17), generator(Z, 0, 17))

    def test_matches_the_per_input_reference(self) -> None:
        outcomes = {True: 0, False: 0}
        loops = passthroughs = 0
        for d1, d2 in random_pairs(9431, 120):
            witness = solve_state_eq(d1, d2)
            assert witness == reference_state_eq(d1, d2), (d1, d2)
            outcomes[witness is not None] += 1
            for a, b in d1.edges + d2.edges:
                loops += isinstance(a, NodePort) and isinstance(b, NodePort) and a.node == b.node
                passthroughs += isinstance(a, BoundaryPort) and isinstance(b, BoundaryPort)
        # 29 pairs have a witness and 91 do not; 90 self-loops and 124
        # boundary-to-boundary wires occur.
        assert min(outcomes[True], outcomes[False], loops, passthroughs) > 0


class TestSolveContainsEntry:
    def test_worked_reduction_finds_zero_at_the_first_input(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(0, 0))
        hit = solve_contains_entry(built, ZERO)
        assert hit == (BasisState.from_string(""), BasisState.from_string("0"))

    def test_identity_wire_diagonal(self) -> None:
        hit = solve_contains_entry(identity(1), ONE)
        assert hit == (BasisState.from_string("0"), BasisState.from_string("0"))

    def test_identity_wire_lacks_one_half(self) -> None:
        assert solve_contains_entry(identity(1), HALF) is None

    def test_dropped_entries_count_as_zeros(self) -> None:
        hit = solve_contains_entry(identity(1), ZERO)
        assert hit == (BasisState.from_string("0"), BasisState.from_string("1"))

    def test_boundary_bound(self) -> None:
        with pytest.raises(TooManyWires):
            solve_contains_entry(identity(9), ONE)

    def test_matches_the_per_input_reference(self) -> None:
        absent = ExactScalar(1, 0, 40)
        for d, _ in random_pairs(5527, 60):
            stored = set(evaluate(d).entries.values())
            assert absent not in stored
            for k in [ZERO, absent, *stored]:
                assert solve_contains_entry(d, k) == reference_contains_entry(d, k), (d, k)


class TestCompareAndIsZero:
    def test_diagram_equals_itself(self) -> None:
        pair = build_state_eq(worked_instance())
        assert compare_diagrams(pair.d1, pair.d1)

    def test_equal_counts_give_equal_counting_states(self) -> None:
        left = counting_state(parse_formula("x1 & x2"), ["x1", "x2"])
        right = counting_state(parse_formula("x1 & ~x2"), ["x1", "x2"])
        assert compare_diagrams(left, right)

    def test_different_counts_differ(self) -> None:
        left = counting_state(parse_formula("x1 & x2"), ["x1", "x2"])
        right = counting_state(parse_formula("x1 | x2"), ["x1", "x2"])
        assert not compare_diagrams(left, right)

    def test_boundary_checks(self) -> None:
        with pytest.raises(ArityMismatch):
            compare_diagrams(identity(1), identity(2))
        with pytest.raises(TooManyWires):
            compare_diagrams(identity(9), identity(9))
        with pytest.raises(TooManyWires):
            is_zero(identity(17))

    def test_zero_scalar_is_zero(self) -> None:
        assert is_zero(zero_scalar())
        assert scalar_diagram(zero_scalar()) == ZERO

    def test_zero_times_a_wire_is_the_zero_matrix(self) -> None:
        assert is_zero(tensor(zero_scalar(), identity(1)))

    def test_star_is_not_zero(self) -> None:
        assert not is_zero(generator(GeneratorKind.STAR, 0, 0))


class TestSolveSatCompare:
    def test_worked_instance_witness(self) -> None:
        assert solve_sat_compare(worked_instance()) == {"x1": False}

    def test_renamed_extras_give_all_false(self) -> None:
        inst = SatCompareInstance(
            n=2,
            m=1,
            psi=parse_formula("(x1 & y1) | x2"),
            rho=parse_formula("(x1 & z1) | x2"),
        )
        assert solve_sat_compare(inst) == {"x1": False, "x2": False}

    def test_constant_split_has_no_witness(self) -> None:
        inst = SatCompareInstance(n=1, m=1, psi=Const(True), rho=Const(False))
        assert solve_sat_compare(inst) is None

    def test_shared_variable_bound(self) -> None:
        with pytest.raises(TooManyVariables):
            solve_sat_compare(
                SatCompareInstance(n=17, m=1, psi=Const(True), rho=Const(True))
            )

    @pytest.mark.parametrize("table_bits", [16, 2])
    def test_matches_a_brute_force_first_witness(self, monkeypatch, table_bits) -> None:
        # With tables of 4 assignments, the counts span several tables or
        # one table holds several x valuations' counts.
        monkeypatch.setattr(formula_module, "_TABLE_BITS", table_bits)
        rng = random.Random(2026)
        witnessless = 0
        for _ in range(250):
            inst = random_sat_compare(rng, max_shared=4, max_extras=4)
            want = first_witness(inst)
            assert solve_sat_compare(inst) == want, inst
            witnessless += want is None
        assert 0 < witnessless < 250

    def test_reductions_agree_with_the_formula_oracle(self) -> None:
        rng = random.Random(77031)
        ks = [DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2)]
        for _ in range(12):
            inst = random_instance(rng)
            answer = solve_sat_compare(inst)
            pair = build_state_eq(inst)
            witness = solve_state_eq(pair.d1, pair.d2)
            if answer is None:
                assert witness is None
            else:
                assert witness is not None
                assert witness.bits == tuple(answer[x] for x in inst.x_vars)
            for k in ks:
                hit = solve_contains_entry(
                    build_contains_entry(inst, k), k.value
                )
                if answer is None:
                    assert hit is None
                else:
                    assert hit is not None
                    row, col = hit
                    assert len(row) == 0
                    assert col.bits == tuple(answer[x] for x in inst.x_vars)
