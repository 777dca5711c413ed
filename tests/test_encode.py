"""Encoder tests: gate soundness, pointwise formula semantics, counting."""

from __future__ import annotations

import random
from itertools import product

import pytest

import zhcalc.encode as encode
from zhcalc.corpus import random_formula
from zhcalc.diagram import Diagram, GeneratorKind, generator, tensor
from zhcalc.encode import (
    GateBlock,
    counting_state,
    encode_formula,
    gate_gadget,
    gate_target,
    stars,
    two_root_two,
)
from zhcalc.evaluate import (
    ExactMatrix,
    apply_basis,
    evaluate,
    identity_matrix,
    interpret_generator,
    matrix_compose,
    matrix_tensor,
    scalar_matrix,
)
from zhcalc.formula import (
    Const,
    UnassignedVariable,
    count_sat,
    eval_formula,
    parse_formula,
)
from zhcalc.scalar import ExactScalar, HALF, ONE

Z = GeneratorKind.WHITE_SPIDER
X = GeneratorKind.DARK_SPIDER
H = GeneratorKind.H_BOX
XNOT = GeneratorKind.DARK_NOT


def ket(bits: str) -> ExactMatrix:
    return ExactMatrix(n_out=len(bits), n_in=0, entries={(bits, ""): ONE})


class TestGates:
    def test_every_block_matches_its_target(self) -> None:
        for block in GateBlock:
            gadget = gate_gadget(block)
            assert evaluate(gadget) == gate_target(block), block

    def test_blocks_hash_by_identity(self) -> None:
        assert GateBlock.__hash__ is object.__hash__
        for block in GateBlock:
            assert gate_gadget(GateBlock(block.value)) is gate_gadget(block)
            assert {block: 1}[GateBlock[block.name]] == 1

    def test_structural_forms(self) -> None:
        assert gate_gadget(GateBlock.BOTH) == generator(Z, 0, 1)
        assert gate_gadget(GateBlock.COPY) == generator(Z, 1, 2)
        assert gate_gadget(GateBlock.IFF) == generator(XNOT, 2, 1)
        assert two_root_two() == generator(X, 0, 0)

    def test_and_by_pure_matrix_route(self) -> None:
        # The same realization computed with matrix products only, never
        # touching diagram composition or the contraction engine.
        boxes = matrix_compose(
            interpret_generator(H, 1, 1), interpret_generator(H, 2, 1)
        )
        assert matrix_tensor(scalar_matrix(HALF), boxes) == gate_target(GateBlock.AND)

    def test_not_by_pure_matrix_route(self) -> None:
        scale = matrix_tensor(
            scalar_matrix(HALF),
            matrix_tensor(scalar_matrix(HALF), interpret_generator(X, 0, 0)),
        )
        flip = matrix_tensor(interpret_generator(XNOT, 1, 1), scale)
        assert flip == gate_target(GateBlock.NOT)

    def test_or_by_pure_matrix_route(self) -> None:
        flip = gate_target(GateBlock.NOT)
        inner = matrix_compose(gate_target(GateBlock.AND), matrix_tensor(flip, flip))
        assert matrix_compose(flip, inner) == gate_target(GateBlock.OR)

    def test_implies_by_pure_matrix_route(self) -> None:
        flip = gate_target(GateBlock.NOT)
        inner = matrix_compose(
            gate_target(GateBlock.AND), matrix_tensor(identity_matrix(1), flip)
        )
        assert matrix_compose(flip, inner) == gate_target(GateBlock.IMPLIES)

    def test_iff_by_pure_matrix_route(self) -> None:
        # A three-leg dark not is 1 exactly where its legs' parity is odd.
        assert interpret_generator(XNOT, 2, 1) == gate_target(GateBlock.IFF)

    def test_targets_are_the_documented_tables(self) -> None:
        assert gate_target(GateBlock.AND).entries == {
            ("0", "00"): ONE,
            ("0", "01"): ONE,
            ("0", "10"): ONE,
            ("1", "11"): ONE,
        }
        assert gate_target(GateBlock.IS_TRUE).entries == {("", "1"): ONE}


class TestEncodeFormula:
    def test_single_variable_is_a_wire(self) -> None:
        d = encode_formula(parse_formula("x1"), ("x1",))
        assert (d.n_in, d.n_out) == (1, 1)
        assert evaluate(d).entries == {("0", "0"): ONE, ("1", "1"): ONE}

    def test_golden_running_example(self) -> None:
        phi = parse_formula("(x1 & x2) & (x1 & ~x3)")
        d = encode_formula(phi, ("x1", "x2", "x3"))
        assert (d.n_in, d.n_out) == (3, 1)
        for bits in product((0, 1), repeat=3):
            want = "1" if bits == (1, 1, 0) else "0"
            assert apply_basis(d, bits, "in") == ket(want), bits

    def test_constant_with_unused_variable(self) -> None:
        d = encode_formula(Const(True), ("x1",))
        for bit in (0, 1):
            assert apply_basis(d, (bit,), "in") == ket("1")

    def test_pointwise_on_random_corpus(self) -> None:
        rng = random.Random(60902)
        names = ("x1", "x2", "x3", "x4")
        for _ in range(60):
            n = rng.randint(1, 4)
            used = names[:n]
            phi = random_formula(rng, used, max_depth=3)
            d = encode_formula(phi, used)
            for bits in product((0, 1), repeat=n):
                valuation = {v: bool(b) for v, b in zip(used, bits)}
                want = "1" if eval_formula(phi, valuation) else "0"
                assert apply_basis(d, bits, "in") == ket(want), (phi, bits)

    def test_arrows_compile(self) -> None:
        phi = parse_formula("(x1 -> x2) <-> (~x1 | x2)")
        d = encode_formula(phi, ("x1", "x2"))
        for bits in product((0, 1), repeat=2):
            assert apply_basis(d, bits, "in") == ket("1"), bits

    def test_rejects_unlisted_variable(self) -> None:
        with pytest.raises(UnassignedVariable):
            encode_formula(parse_formula("x1 & y"), ("x1",))

    def test_rejects_duplicate_listing(self) -> None:
        with pytest.raises(ValueError):
            encode_formula(parse_formula("x1"), ("x1", "x1"))

    def test_consumes_the_gate_library(self, monkeypatch) -> None:
        # A NOT gadget carrying a legless white spider (worth 2) doubles
        # the encoding of ~x1 only if the encoder splices the library's
        # gadgets instead of wiring gates of its own.
        phi = parse_formula("~x1")
        plain = evaluate(encode_formula(phi, ("x1",)))
        real = encode.gate_gadget
        doubled = tensor(real(GateBlock.NOT), generator(Z, 0, 0))
        monkeypatch.setattr(
            encode,
            "gate_gadget",
            lambda block: doubled if block is GateBlock.NOT else real(block),
        )
        got = evaluate(encode_formula(phi, ("x1",)))
        assert got == plain.scale(ExactScalar(2, 0, 0))

    def test_only_known_generators(self) -> None:
        phi = parse_formula("(x1 <-> x2) | ~x3")
        d = encode_formula(phi, ("x1", "x2", "x3"))
        assert all(node.kind in GeneratorKind for node in d.nodes)
        assert d.validate() == []


class TestStars:
    def test_builds_one_diagram(self, monkeypatch) -> None:
        # A fold of ``tensor`` would build, and re-sort, one Diagram per star.
        built = 0
        original = Diagram.__post_init__

        def counting(self) -> None:
            nonlocal built
            built += 1
            original(self)

        monkeypatch.setattr(Diagram, "__post_init__", counting)
        d = stars(20_000)
        monkeypatch.undo()
        assert built == 1
        assert len(d.nodes) == 20_000
        assert all(n.kind is GeneratorKind.STAR and n.degree == 0 for n in d.nodes)
        assert (d.edges, d.n_in, d.n_out) == ((), 0, 0)
        assert evaluate(d) == scalar_matrix(ExactScalar(1, 0, 20_000))


class TestCountingState:
    def test_golden_running_example(self) -> None:
        phi = parse_formula("(x1 & x2) & (x1 & ~x3)")
        d = counting_state(phi, ("x1", "x2", "x3"))
        assert (d.n_in, d.n_out) == (0, 1)
        assert evaluate(d).entries == {
            ("1", ""): ONE,
            ("0", ""): ExactScalar(a=7, b=0, e=0),
        }

    def test_false_over_one_variable(self) -> None:
        d = counting_state(Const(False), ("x1",))
        assert evaluate(d).entries == {("0", ""): ExactScalar(a=2, b=0, e=0)}

    def test_empty_variable_list(self) -> None:
        d = counting_state(Const(True), ())
        assert evaluate(d).entries == {("1", ""): ONE}

    def test_iff_chain_costs_one_node_per_connective(self) -> None:
        # Each <-> is one dark not, not a copy of both operands, and a
        # summed variable is its fan alone: 40 terms take two fan
        # spiders and 39 dark nots.
        phi = parse_formula(" <-> ".join(["x1", "x2"] * 20))
        d = counting_state(phi, ("x1", "x2"))
        assert len(d.nodes) == 2 + 39
        assert evaluate(d).entries == {("1", ""): ExactScalar(a=4, b=0, e=0)}

    def test_matches_count_sat_oracle(self) -> None:
        rng = random.Random(1879)
        names = ("x1", "x2", "x3", "x4")
        for _ in range(40):
            n = rng.randint(0, 4)
            used = names[:n]
            phi = random_formula(rng, used, max_depth=3) if n else Const(rng.random() < 0.5)
            count = count_sat(phi, used)
            got = evaluate(counting_state(phi, used)).entries
            want = {}
            if count:
                want[("1", "")] = ExactScalar(a=count, b=0, e=0)
            if 2**n - count:
                want[("0", "")] = ExactScalar(a=2**n - count, b=0, e=0)
            assert got == want, phi
