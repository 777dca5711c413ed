"""Reduction builders: exact per-input contracts against formula oracles."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product

import pytest

import zhcalc.reductions as reductions
from zhcalc.corpus import random_cnf, random_diagram, random_formula, random_sat_compare
from zhcalc.diagram import ArityMismatch, Diagram, GeneratorKind, Node, generator, identity
from zhcalc.encode import counting_state, encode_formula
from zhcalc.evaluate import BasisState, apply_basis, evaluate, identity_matrix, matrix_compose
from zhcalc.formula import (
    Const,
    SatCompareInstance,
    UnassignedVariable,
    count_sat,
    parse_formula,
    substitute,
)
from zhcalc.reductions import (
    ContractViolation,
    DyadicK,
    StateEqInstance,
    _check_contains_entry,
    build_circuit_extraction,
    build_contains_entry,
    build_state_eq,
    dyadic_scalar,
    verify_instance,
)
from zhcalc.scalar import ExactScalar, ONE, ZERO
from zhcalc.solve import solve_contains_entry


def worked_instance() -> SatCompareInstance:
    return SatCompareInstance(
        n=1,
        m=2,
        psi=parse_formula("x1 | y1 | ~y2"),
        rho=parse_formula("~(z1 & (z2 | x1))"),
    )


def scalar_at(diagram, bits) -> ExactScalar:
    return apply_basis(diagram, bits, "in").entry("", "")


def count_under(inst: SatCompareInstance, phi, extras, bits) -> int:
    bound = {name: bool(bit) for name, bit in zip(inst.x_vars, bits)}
    return count_sat(substitute(phi, bound), extras)


def random_instance(rng: random.Random) -> SatCompareInstance:
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    xs = [f"x{i}" for i in range(1, n + 1)]
    psi = random_formula(rng, xs + [f"y{i}" for i in range(1, m + 1)], max_depth=3)
    rho = random_formula(rng, xs + [f"z{i}" for i in range(1, m + 1)], max_depth=3)
    return SatCompareInstance(n=n, m=m, psi=psi, rho=rho)


class TestDyadicK:
    def test_make_reduces_to_lowest_form(self) -> None:
        assert DyadicK.make(6, 3) == DyadicK(3, 2)
        assert DyadicK.make(4, 2) == DyadicK(1, 0)
        assert DyadicK.make(-6, 1) == DyadicK(-3, 0)
        assert DyadicK.make(0, 5) == DyadicK(0, 0)

    def test_even_integers_are_fine_without_denominator(self) -> None:
        assert DyadicK.make(2, 0) == DyadicK(2, 0)
        assert DyadicK(-8, 0).value == ExactScalar(-8, 0, 0)

    def test_rejects_reducible_and_negative_exponents(self) -> None:
        with pytest.raises(ValueError):
            DyadicK(2, 1)
        with pytest.raises(ValueError):
            DyadicK(0, 2)
        with pytest.raises(ValueError):
            DyadicK(1, -1)
        with pytest.raises(ValueError):
            DyadicK.make(1, -1)

    def test_value_and_rendering(self) -> None:
        assert DyadicK(3, 2).value == ExactScalar(3, 0, 2)
        assert str(DyadicK(3, 2)) == "3/4"
        assert str(DyadicK(-5, 3)) == "-5/8"
        assert str(DyadicK(7, 0)) == "7"
        assert str(DyadicK(0, 0)) == "0"

    def test_json_round_trip(self) -> None:
        k = DyadicK(-11, 4)
        assert DyadicK.from_json(k.to_json()) == k
        assert k.to_json() == {"c": -11, "d": 4}


class TestStateEqInstance:
    def test_rejects_mismatched_boundaries(self) -> None:
        with pytest.raises(ArityMismatch):
            StateEqInstance(d1=identity(1), d2=identity(2))

    def test_json_round_trip(self) -> None:
        pair = build_state_eq(worked_instance())
        again = StateEqInstance.from_json(pair.to_json())
        assert again == pair


class TestBuildStateEq:
    def test_worked_instance_matrices(self) -> None:
        pair = build_state_eq(worked_instance())
        assert evaluate(pair.d1).entries == {
            ("", "0"): ExactScalar(3, 0, 0),
            ("", "1"): ExactScalar(4, 0, 0),
        }
        assert evaluate(pair.d2).entries == {
            ("", "0"): ExactScalar(3, 0, 0),
            ("", "1"): ExactScalar(2, 0, 0),
        }

    def test_boundaries_match_shared_wire_count(self) -> None:
        inst = worked_instance()
        pair = build_state_eq(inst)
        assert (pair.d1.n_in, pair.d1.n_out) == (inst.n, 0)
        assert (pair.d2.n_in, pair.d2.n_out) == (inst.n, 0)

    def test_same_formula_with_renamed_extras_agrees_everywhere(self) -> None:
        inst = SatCompareInstance(
            n=2,
            m=1,
            psi=parse_formula("(x1 & y1) | x2"),
            rho=parse_formula("(x1 & z1) | x2"),
        )
        pair = build_state_eq(inst)
        for bits in product((0, 1), repeat=2):
            assert scalar_at(pair.d1, bits) == scalar_at(pair.d2, bits)

    def test_per_input_scalars_match_the_count_oracle(self) -> None:
        rng = random.Random(46111)
        for _ in range(25):
            inst = random_instance(rng)
            pair = build_state_eq(inst)
            for bits in product((0, 1), repeat=inst.n):
                want1 = count_under(inst, inst.psi, inst.y_vars, bits)
                want2 = count_under(inst, inst.rho, inst.z_vars, bits)
                assert scalar_at(pair.d1, bits) == ExactScalar(want1, 0, 0)
                assert scalar_at(pair.d2, bits) == ExactScalar(want2, 0, 0)

    def test_emits_atomic_generators_only(self) -> None:
        pair = build_state_eq(worked_instance())
        for diagram in (pair.d1, pair.d2):
            assert {node.kind for node in diagram.nodes} <= set(GeneratorKind)


class TestDyadicScalarGadget:
    def test_three_quarters(self) -> None:
        gadget = dyadic_scalar(DyadicK(3, 2))
        assert evaluate(gadget).entry("", "") == ExactScalar(3, 0, 2)
        assert (gadget.n_in, gadget.n_out) == (0, 0)

    def test_assorted_values(self) -> None:
        for c, d in [(1, 0), (-1, 0), (5, 0), (-5, 3), (7, 1), (2, 0), (-6, 0)]:
            gadget = dyadic_scalar(DyadicK(c, d))
            assert evaluate(gadget).entry("", "") == ExactScalar(c, 0, d), (c, d)

    def test_zero_has_no_gadget(self) -> None:
        for _ in range(2):
            with pytest.raises(ValueError):
                dyadic_scalar(DyadicK(0, 0))

    def test_equal_k_gives_one_diagram(self) -> None:
        gadget = dyadic_scalar(DyadicK(-5, 3))
        assert dyadic_scalar(DyadicK(-5, 3)) is gadget
        assert evaluate(gadget).entry("", "") == ExactScalar(-5, 0, 3)


class TestBuildContainsEntry:
    def test_worked_instance_at_zero(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(0, 0))
        assert (built.n_in, built.n_out) == (1, 0)
        assert scalar_at(built, [0]) == ZERO
        assert scalar_at(built, [1]) == ExactScalar(-2, 0, 0)
        # The zero entry is genuinely zero: the assembled matrix drops it.
        assert evaluate(built).entries == {("", "1"): ExactScalar(-2, 0, 0)}

    def test_worked_instance_at_one(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(1, 0))
        assert scalar_at(built, [0]) == ONE
        assert scalar_at(built, [1]) == ExactScalar(-1, 0, 0)

    def test_worked_instance_at_three_quarters(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(3, 2))
        assert scalar_at(built, [0]) == ExactScalar(3, 0, 2)
        assert scalar_at(built, [1]) == ExactScalar(-3, 0, 2)

    def test_worked_instance_at_a_negative_value(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(-3, 2))
        assert scalar_at(built, [0]) == ExactScalar(-3, 0, 2)
        assert scalar_at(built, [1]) == ExactScalar(3, 0, 2)

    def test_equal_branches_make_every_entry_one(self) -> None:
        inst = SatCompareInstance(
            n=1,
            m=1,
            psi=parse_formula("x1 | y1"),
            rho=parse_formula("x1 | z1"),
        )
        built = build_contains_entry(inst, DyadicK(1, 0))
        assert scalar_at(built, [0]) == ONE
        assert scalar_at(built, [1]) == ONE

    def test_per_input_contract_on_random_instances(self) -> None:
        rng = random.Random(90210)
        ks = [DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2)]
        for _ in range(8):
            inst = random_instance(rng)
            for k in ks:
                built = build_contains_entry(inst, k)
                for bits in product((0, 1), repeat=inst.n):
                    diff = count_under(
                        inst, inst.rho, inst.z_vars, bits
                    ) - count_under(inst, inst.psi, inst.y_vars, bits)
                    if k.c == 0:
                        want = ExactScalar(diff, 0, 0)
                    else:
                        want = ExactScalar(k.c * (diff + 1), 0, k.d)
                    assert scalar_at(built, bits) == want

    def test_value_absent_when_counts_never_agree(self) -> None:
        inst = SatCompareInstance(
            n=1,
            m=2,
            psi=Const(True),
            rho=parse_formula("z1 & z2"),
        )
        built = build_contains_entry(inst, DyadicK(0, 0))
        for bits in product((0, 1), repeat=1):
            assert scalar_at(built, bits) != ZERO

    def test_self_check_catches_a_wrong_diagram(self) -> None:
        inst = worked_instance()
        wrong = build_state_eq(inst).d1
        with pytest.raises(ContractViolation):
            _check_contains_entry(wrong, inst, DyadicK(0, 0))

    def test_self_check_catches_a_broken_builder(self, monkeypatch) -> None:
        # A scalar gadget off by a factor of two (c/2^(d+1) for c/2^d)
        # must be caught by the builder's own pinned self-check.
        original = reductions.dyadic_scalar
        monkeypatch.setattr(
            reductions, "dyadic_scalar", lambda k: original(DyadicK(k.c, k.d + 1))
        )
        with pytest.raises(ContractViolation):
            build_contains_entry(worked_instance(), DyadicK(3, 2))

    @pytest.mark.parametrize("k", [DyadicK(1, 20000), DyadicK(-3, 50000)])
    def test_denominators_past_the_decimal_digit_limit(self, k) -> None:
        # 2**d has over 4,300 decimal digits here, so the self-check's
        # seed must not spell k out in decimal.
        built = build_contains_entry(worked_instance(), k)
        assert scalar_at(built, [0]) == k.value
        assert scalar_at(built, [1]) == -k.value
        assert solve_contains_entry(built, k.value) == (BasisState(()), BasisState((0,)))

    def test_emits_atomic_generators_only(self) -> None:
        built = build_contains_entry(worked_instance(), DyadicK(-3, 2))
        assert {node.kind for node in built.nodes} <= set(GeneratorKind)


class TestBuildCircuitExtraction:
    def test_running_example_matrix(self) -> None:
        phi = parse_formula("(x1 & x2) & (x1 & ~x3)")
        block = build_circuit_extraction(phi, ["x1", "x2", "x3"])
        assert (block.n_in, block.n_out) == (1, 1)
        matrix = evaluate(block)
        assert matrix.entries == {
            ("0", "0"): ExactScalar(7, 0, 0),
            ("0", "1"): ExactScalar(1, 0, 0),
            ("1", "0"): ExactScalar(1, 0, 0),
            ("1", "1"): ExactScalar(-7, 0, 0),
        }
        gram = matrix_compose(matrix, matrix.transpose())
        assert gram == identity_matrix(1).scale(ExactScalar(50, 0, 0))

    def test_unsatisfiable_formula(self) -> None:
        matrix = evaluate(build_circuit_extraction(Const(False), ["x1"]))
        assert matrix.entries == {
            ("0", "0"): ExactScalar(2, 0, 0),
            ("1", "1"): ExactScalar(-2, 0, 0),
        }

    def test_random_formulae_match_count_oracle_and_stay_unitary(self) -> None:
        rng = random.Random(271)
        for _ in range(20):
            n = rng.randint(1, 4)
            names = [f"x{i}" for i in range(1, n + 1)]
            phi = random_formula(rng, names, max_depth=3)
            a1 = count_sat(phi, names)
            a0 = 2**n - a1
            matrix = evaluate(build_circuit_extraction(phi, names))
            want = {
                ("0", "0"): ExactScalar(a0, 0, 0),
                ("0", "1"): ExactScalar(a1, 0, 0),
                ("1", "0"): ExactScalar(a1, 0, 0),
                ("1", "1"): ExactScalar(-a0, 0, 0),
            }
            want = {key: v for key, v in want.items() if not v.is_zero}
            assert matrix.entries == want
            gram = matrix_compose(matrix, matrix.transpose())
            norm = ExactScalar(a0 * a0 + a1 * a1, 0, 0)
            assert gram == identity_matrix(1).scale(norm)

    def test_rejects_unlisted_variables(self) -> None:
        with pytest.raises(UnassignedVariable):
            build_circuit_extraction(parse_formula("x1 & x2"), ["x1"])

    def test_emits_atomic_generators_only(self) -> None:
        block = build_circuit_extraction(parse_formula("x1 | ~x2"), ["x1", "x2"])
        assert {node.kind for node in block.nodes} <= set(GeneratorKind)


class TestVerifyInstance:
    def test_worked_instance_agrees(self) -> None:
        assert verify_instance(worked_instance()) == []

    def test_reports_a_broken_state_eq_solver(self, monkeypatch) -> None:
        monkeypatch.setattr(reductions, "solve_state_eq", lambda d1, d2: None)
        notes = verify_instance(worked_instance())
        assert notes == ["state-eq found None, oracle says '0'"]

    def test_reports_a_broken_contains_entry_solver(self, monkeypatch) -> None:
        monkeypatch.setattr(reductions, "solve_contains_entry", lambda d, k: None)
        notes = verify_instance(worked_instance())
        assert len(notes) == 3
        assert all(note.startswith("contains-entry k=") for note in notes)


class TestBuilderBytes:
    # SHA-256 over the sorted-key JSON of every diagram below, taken at
    # 4a0ebbd. A builder change that alters any diagram's bytes (node
    # order, port numbering, edge order) must move this on purpose.
    DIGEST = "bc36fdcad79185ef0e057d60d9f8fa300f5008fa12d5b76153a7d077425bbc38"

    def test_builders_are_byte_identical(self) -> None:
        rng = random.Random(2024)
        digest = hashlib.sha256()
        ks = (DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2))
        for _ in range(12):
            inst = random_sat_compare(rng)
            names = inst.x_vars + inst.y_vars
            cnf = random_cnf(rng, 5, 10)
            pair = build_state_eq(inst)
            built = [
                counting_state(cnf.to_formula(), cnf.variables),
                counting_state(inst.psi, names),
                encode_formula(inst.psi, names),
                pair.d1,
                pair.d2,
                *(build_contains_entry(inst, k) for k in ks),
                build_circuit_extraction(inst.rho, inst.x_vars + inst.z_vars),
            ]
            for d in built:
                digest.update(json.dumps(d.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == self.DIGEST


class TestEvaluatedDigest:
    # SHA-256 over every result below, taken at fac9c77: each matrix as
    # sorted-key JSON, each exception as its type name and message. Each
    # object is evaluated open, pinned on both sides and open again, so a
    # contraction that reuses work across calls must not move it. Only
    # the small random diagrams also go through the sequential order, as
    # when the digest was taken; tests/test_evaluate.py's TestTwoOrders
    # runs both orders on counting states and reduction diagrams.
    DIGEST = "3906bc8f5744b4ec4f79ad0c47d1f24101e87feffaa9c8e37fdbd8fd4b455cd1"

    @staticmethod
    def _record(digest, call) -> None:
        try:
            got = json.dumps(call().to_json(), sort_keys=True)
        except ValueError as exc:  # every refusal here, ArityMismatch included
            got = f"{type(exc).__name__}: {exc}"
        digest.update(got.encode() + b"\n")

    def _record_all(self, digest, d, rng) -> None:
        self._record(digest, lambda: evaluate(d))
        for side, width in (("in", d.n_in), ("out", d.n_out)):
            bits = [rng.randrange(2) for _ in range(width)]
            self._record(digest, lambda: apply_basis(d, bits, side))
        self._record(digest, lambda: evaluate(d))

    def test_evaluated_results_are_unchanged(self) -> None:
        rng = random.Random(1515)
        digest = hashlib.sha256()
        for _ in range(60):
            d = random_diagram(rng)
            self._record(digest, lambda: evaluate(d, order="sequential"))
            self._record_all(digest, d, rng)
        for _ in range(4):
            inst = random_sat_compare(rng)
            pair = build_state_eq(inst)
            cnf = random_cnf(rng, 5, 10)
            built = [
                pair.d1,
                pair.d2,
                counting_state(cnf.to_formula(), cnf.variables),
                *(build_contains_entry(inst, k) for k in (DyadicK(0, 0), DyadicK(3, 2))),
            ]
            for d in built:
                self._record_all(digest, d, rng)
        edge_cases = [
            generator(GeneratorKind.H_BOX, 4, 6),
            generator(GeneratorKind.DARK_NOT, 5, 4),
            identity(12),
            generator(GeneratorKind.H_BOX, 0, 23),
            Diagram(nodes=(Node(GeneratorKind.WHITE_SPIDER, 1),), edges=(), n_in=0, n_out=0),
        ]
        for d in edge_cases:
            self._record_all(digest, d, rng)
            self._record(digest, lambda: apply_basis(d, [0], "in"))
            self._record(digest, lambda: apply_basis(d, [], "up"))
        assert digest.hexdigest() == self.DIGEST
