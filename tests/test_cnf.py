"""Tests for CNF conversion and the fixed-width 0-1 clause codec."""

from __future__ import annotations

import random

import pytest

from zhcalc.cnf import (
    BadLength,
    Clause,
    CnfFormula,
    Literal,
    SizeBlowup,
    Word01,
    decode01,
    encode01,
    from_dimacs,
    to_cnf,
    to_dimacs,
)
from zhcalc.corpus import random_cnf, random_formula
from zhcalc.formula import (
    And,
    Const,
    Not,
    Or,
    UnassignedVariable,
    Var,
    count_sat,
    parse_formula,
    satisfying_assignments,
)


def lit(i: int, positive: bool = True) -> Literal:
    return Literal(index=i, positive=positive)


def clause(*lits: Literal) -> Clause:
    return frozenset(lits)


class TestToCnf:
    def test_already_cnf_is_preserved(self) -> None:
        phi = parse_formula("x1 & (x2 | ~x3)")
        cnf = to_cnf(phi, ("x1", "x2", "x3"))
        assert cnf.variables == ("x1", "x2", "x3")
        assert cnf.clauses == (
            clause(lit(0)),
            clause(lit(1), lit(2, False)),
        )

    def test_distribution_over_conjunction(self) -> None:
        # (a & b) | c  ->  (a | c) & (b | c)
        phi = parse_formula("(x1 & x2) | x3")
        cnf = to_cnf(phi, ("x1", "x2", "x3"))
        assert cnf.clauses == (
            clause(lit(0), lit(2)),
            clause(lit(1), lit(2)),
        )

    def test_tautological_clauses_are_dropped(self) -> None:
        phi = parse_formula("x1 | ~x1")
        cnf = to_cnf(phi, ("x1",))
        assert cnf.clauses == ()
        assert count_sat(cnf.to_formula(), ("x1",)) == 2

    def test_contradiction_keeps_empty_clause(self) -> None:
        phi = And(Var("x1"), Not(Var("x1")))
        cnf = to_cnf(phi, ("x1",))
        # x1 & ~x1 conjoins two unit clauses, not an empty one, so
        # check semantics rather than shape.
        assert count_sat(cnf.to_formula(), ("x1",)) == 0

    def test_arrow_elimination(self) -> None:
        # The negated forms are built at the arrow's own node.
        for text, models in [
            ("x1 <-> x2", 2),
            ("x1 -> x2", 3),
            ("~(x1 -> x2)", 1),
            ("~(x1 <-> x2)", 2),
        ]:
            cnf = to_cnf(parse_formula(text), ("x1", "x2"))
            assert count_sat(cnf.to_formula(), ("x1", "x2")) == models, text

    def test_preserves_count_on_random_formulae(self) -> None:
        # Depths 6-7 nest <-> deeply enough that distributing a tree
        # copy of each <-> operand would pass the clause budget.
        rng = random.Random(411)
        names = ("x1", "x2", "x3", "x4")
        for i in range(160):
            depth = 4 if i < 120 else rng.randint(6, 7)
            phi = random_formula(rng, names, max_depth=depth)
            cnf = to_cnf(phi, names)
            assert count_sat(phi, names) == count_sat(cnf.to_formula(), names)
            assert satisfying_assignments(phi, names) == satisfying_assignments(
                cnf.to_formula(), names
            )

    def test_blowup_guard(self) -> None:
        names = tuple(f"x{i}" for i in range(1, 27))
        # DNF with 13 conjunctive terms of 2 fresh vars each distributes
        # to 2^13 = 8192 clauses; DEFAULT_MAX_CLAUSES = 4096 must trip.
        terms = [And(Var(names[2 * i]), Var(names[2 * i + 1])) for i in range(13)]
        phi = terms[0]
        for t in terms[1:]:
            phi = Or(phi, t)
        with pytest.raises(SizeBlowup):
            to_cnf(phi, names)

    def test_long_disjunction_needs_no_recursion(self) -> None:
        # 3,000 terms: far deeper than the interpreter's recursion limit.
        names = ("x1", "x2", "x3")
        phi = parse_formula(" | ".join(["x1", "~x2", "x3"] * 1000))
        cnf = to_cnf(phi, names)
        assert cnf.clauses == (clause(lit(0), lit(1, False), lit(2)),)

    def test_long_iff_chain_converts_in_one_fold(self) -> None:
        # x1 <-> x2 <-> ... with each variable an even number of times is
        # valid, so its CNF is empty. Each <-> operand's clauses are built
        # once, so the chain's length costs linear, not exponential, work.
        names = ("x1", "x2")
        for terms in (12, 2000):
            phi = parse_formula(" <-> ".join(["x1", "x2"] * (terms // 2)))
            assert to_cnf(phi, names).clauses == ()

    def test_constant_formulae(self) -> None:
        assert to_cnf(Const(True), ("x1",)).clauses == ()
        false_cnf = to_cnf(Const(False), ("x1",))
        assert count_sat(false_cnf.to_formula(), ("x1",)) == 0

    def test_unlisted_variable_is_typed_as_in_count_sat(self) -> None:
        phi = parse_formula("x1 & x3")
        with pytest.raises(UnassignedVariable):
            count_sat(phi, ("x1",))
        with pytest.raises(UnassignedVariable, match="x3"):
            to_cnf(phi, ("x1",))


class TestWord01:
    def test_block_size(self) -> None:
        assert Word01(bits=(True, True)).block_size == 1
        assert Word01(bits=tuple([False] * 18)).block_size == 3

    def test_rejects_non_square_length(self) -> None:
        for n in (0, 1, 3, 4, 6, 16, 20):
            with pytest.raises(BadLength):
                Word01(bits=tuple([False] * n))

    def test_from_string_allows_spaces(self) -> None:
        w = Word01.from_string("10 00 00 00 10 01 11 00 00")
        assert str(w) == "100000001001110000"
        with pytest.raises(BadLength):
            Word01.from_string("10x0")


class TestCodec:
    def test_golden_word(self) -> None:
        phi = parse_formula("x1 & (x2 | ~x3)")
        cnf = to_cnf(phi, ("x1", "x2", "x3"))
        word = encode01(cnf)
        assert str(word) == "100000001001110000"
        assert len(word.bits) == 18

    def test_golden_word_decodes_with_equal_count(self) -> None:
        phi = parse_formula("x1 & (x2 | ~x3)")
        cnf = to_cnf(phi, ("x1", "x2", "x3"))
        back = decode01(encode01(cnf))
        assert back.variables == ("x1", "x2", "x3")
        # Padding appends the always-true clause {x1, ~x1}.
        assert back.clauses[:2] == cnf.clauses
        assert back.clauses[2] == clause(lit(0), lit(0, False))
        assert count_sat(back.to_formula(), back.variables) == 3
        assert count_sat(phi, ("x1", "x2", "x3")) == 3

    def test_empty_clause_list(self) -> None:
        cnf = CnfFormula(variables=("x1",), clauses=())
        word = encode01(cnf)
        assert str(word) == "11"
        back = decode01(word)
        assert count_sat(back.to_formula(), back.variables) == 2

    def test_rejects_empty_cnf(self) -> None:
        with pytest.raises(ValueError):
            encode01(CnfFormula(variables=(), clauses=()))

    def test_count_preserved_when_clauses_at_most_vars(self) -> None:
        rng = random.Random(901)
        for _ in range(200):
            n = rng.randint(1, 4)
            m = rng.randint(0, n)
            cnf = random_cnf(rng, n, m)
            original = count_sat(cnf.to_formula(), cnf.variables)
            back = decode01(encode01(cnf))
            assert count_sat(back.to_formula(), back.variables) == original

    def test_count_inflates_when_clauses_exceed_vars(self) -> None:
        # Padding the variable list from n to k = m > n weakens every
        # clause with fresh positive literals; assignments setting any
        # fresh variable true then satisfy all original clauses that
        # were satisfied before, plus new ones, so the count strictly
        # grows. Pinned so the limitation stays visible and documented.
        cnf = CnfFormula(
            variables=("x1",),
            clauses=(clause(lit(0)), clause(lit(0))),
        )
        assert count_sat(cnf.to_formula(), cnf.variables) == 1
        back = decode01(encode01(cnf))
        assert back.variables == ("x1", "x2")
        assert count_sat(back.to_formula(), back.variables) == 3

    def test_roundtrip_is_stable(self) -> None:
        # decode(encode(.)) is idempotent once the shape is square:
        # k never changes on a second pass.
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            cnf = random_cnf(rng, n, m)
            once = decode01(encode01(cnf))
            twice = decode01(encode01(once))
            assert once == twice


class TestDimacs:
    def test_emit(self) -> None:
        cnf = CnfFormula(
            variables=("x1", "x2", "x3"),
            clauses=(clause(lit(0)), clause(lit(1), lit(2, False))),
        )
        assert to_dimacs(cnf) == "p cnf 3 2\n1 0\n2 -3 0\n"

    def test_roundtrip(self) -> None:
        rng = random.Random(5150)
        for _ in range(80):
            cnf = random_cnf(rng, rng.randint(1, 5), rng.randint(0, 5))
            assert from_dimacs(to_dimacs(cnf)) == cnf

    def test_parses_comments_and_whitespace(self) -> None:
        text = "c a comment\np cnf 2 1\n  1   -2  0\n"
        cnf = from_dimacs(text)
        assert cnf.n == 2
        assert cnf.clauses == (clause(lit(0), lit(1, False)),)

    def test_rejects_missing_terminator(self) -> None:
        with pytest.raises(ValueError):
            from_dimacs("p cnf 1 1\n1\n")

    def test_rejects_out_of_range_literal(self) -> None:
        with pytest.raises(ValueError):
            from_dimacs("p cnf 1 1\n2 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c only a comment\n", "missing problem line"),
            ("1 -2 0\np cnf 2 1\n", "clause before problem line"),
            ("p cnf 2\n1 0\n", "bad problem line: 'p cnf 2'"),
            ("p dnf 2 1\n1 0\n", "bad problem line: 'p dnf 2 1'"),
            ("p cnf -3 0\n", "bad problem line: 'p cnf -3 0'"),
            ("p cnf 2 2\n1 0 2 0\n", "0 before the end of a clause: '1 0 2 0'"),
        ],
        ids=[
            "no-p-line", "clause-first", "short-p-line", "not-cnf", "negative-count", "inner-zero"
        ],
    )
    def test_rejects_a_bad_problem_line(self, text, message) -> None:
        with pytest.raises(ValueError) as info:
            from_dimacs(text)
        assert str(info.value) == message

