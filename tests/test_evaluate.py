"""Evaluator tests.

Two independent oracles guard the contraction engine: generator matrices
are re-derived by expanding the ket formulas over Fraction pairs
(p + q*sqrt2), and whole diagrams are re-evaluated by brute force over
all edge assignments. The engine must match both exactly.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from zhcalc.corpus import random_cnf, random_diagram, random_sat_compare
from zhcalc.diagram import (
    ArityMismatch,
    BoundaryPort,
    Diagram,
    GeneratorKind,
    Node,
    NodePort,
    basis_effect,
    basis_state,
    compose,
    generator,
    identity,
    tensor,
    tensor_all,
)
from zhcalc.encode import counting_state, encode_formula, stars
from zhcalc.evaluate import (
    BadArity,
    BasisState,
    ExactMatrix,
    InvalidDiagram,
    TooLarge,
    apply_basis,
    evaluate,
    identity_matrix,
    interpret_generator,
    matrix_compose,
    matrix_tensor,
    scalar_matrix,
)
from zhcalc.formula import SatCompareInstance, count_sat, parse_formula
from zhcalc.reductions import (
    DyadicK,
    build_circuit_extraction,
    build_contains_entry,
    build_state_eq,
    verify_instance,
)
from zhcalc.scalar import ExactScalar, HALF, ONE, SQRT2, TWO, ZERO

Z = GeneratorKind.WHITE_SPIDER
X = GeneratorKind.DARK_SPIDER
ZNOT = GeneratorKind.WHITE_NOT
XNOT = GeneratorKind.DARK_NOT
H = GeneratorKind.H_BOX
STAR = GeneratorKind.STAR


def self_looped(kind: GeneratorKind, loops: int) -> Diagram:
    """One closed node of degree 2*loops, port 2i wired to port 2i+1."""
    edges = tuple(
        (NodePort(node=0, port=2 * i), NodePort(node=0, port=2 * i + 1))
        for i in range(loops)
    )
    return Diagram(nodes=(Node(kind=kind, degree=2 * loops),), edges=edges, n_in=0, n_out=0)


# ``zhcalc`` re-exports the function ``evaluate`` under the submodule's name.
evaluate_module = sys.modules["zhcalc.evaluate"]


def _never_enumerate(kind, degree):
    raise AssertionError(f"enumerated the support of a degree-{degree} {kind}")


class _Unreadable:
    """Stands in for a table that no run may read."""

    def __iter__(self):
        raise AssertionError("a run recomputed the plan scalar")


# -- oracle 1: ket expansion over Fraction pairs -----------------------------

Pair = "tuple[Fraction, Fraction]"


def pair_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_scale(x, k):
    return (x[0] * k, x[1] * k)


def sqrt2_pair(e: int):
    """sqrt(2)^e as (rational, rational-coefficient-of-sqrt2)."""
    if e % 2 == 0:
        return (Fraction(2) ** (e // 2), Fraction(0))
    return (Fraction(0), Fraction(2) ** ((e - 1) // 2))


def scalar_pair(s: ExactScalar):
    return (Fraction(s.a, 2**s.e), Fraction(s.b, 2**s.e))


def oracle_entry(kind: GeneratorKind, bits: tuple[int, ...]):
    """Entry of a generator at the given leg bits, straight from the ket
    definitions (white pair as indicator sums, dark pair as sqrt2-scaled
    plus/minus expansions, box from its sign rule)."""
    deg = len(bits)
    if kind is STAR:
        return (Fraction(1, 2), Fraction(0))
    if kind is Z:
        zero = (Fraction(int(not any(bits))), Fraction(0))
        one = (Fraction(int(all(bits) if deg else True)), Fraction(0))
        return pair_add(zero, one)
    if kind is ZNOT:
        zero = (Fraction(int(not any(bits))), Fraction(0))
        one = (Fraction(-int(all(bits) if deg else True)), Fraction(0))
        return pair_add(zero, one)
    if kind in (X, XNOT):
        # <bits| +...+ > = (1/sqrt2)^deg,  <bits| -...- > picks up the
        # parity sign; the generator scales the sum/difference by sqrt2.
        amp = sqrt2_pair(-deg)
        sign = -1 if sum(bits) % 2 else 1
        if kind is XNOT:
            sign = -sign
        combined = pair_add(amp, pair_scale(amp, sign))
        return pair_mul(sqrt2_pair(1), combined)
    if kind is H:
        return (Fraction(-1 if all(bits) else 1), Fraction(0))
    raise AssertionError(kind)


class TestGeneratorMatrices:
    def test_matches_ket_expansion_oracle(self) -> None:
        for kind in (Z, X, ZNOT, XNOT, H):
            for m, n in product(range(3), repeat=2):
                got = interpret_generator(kind, m, n)
                for col_bits in product((0, 1), repeat=m):
                    for row_bits in product((0, 1), repeat=n):
                        row = "".join(map(str, row_bits))
                        col = "".join(map(str, col_bits))
                        want = oracle_entry(kind, col_bits + row_bits)
                        assert scalar_pair(got.entry(row, col)) == want, (
                            kind,
                            m,
                            n,
                            row,
                            col,
                        )

    def test_star_scalar(self) -> None:
        got = interpret_generator(STAR, 0, 0)
        assert got.entries == {("", ""): HALF}

    def test_box_one_to_one(self) -> None:
        got = interpret_generator(H, 1, 1)
        assert got.entries == {
            ("0", "0"): ONE,
            ("0", "1"): ONE,
            ("1", "0"): ONE,
            ("1", "1"): -ONE,
        }

    def test_dark_not_one_to_one(self) -> None:
        got = interpret_generator(XNOT, 1, 1)
        assert got.entries == {("0", "1"): SQRT2, ("1", "0"): SQRT2}

    def test_star_with_legs_rejected(self) -> None:
        with pytest.raises(BadArity):
            interpret_generator(STAR, 1, 0)
        with pytest.raises(BadArity):
            interpret_generator(Z, -1, 0)

    def test_degree_zero_scalars(self) -> None:
        assert interpret_generator(Z, 0, 0).entry("", "") == TWO
        assert interpret_generator(ZNOT, 0, 0).is_zero
        assert interpret_generator(X, 0, 0).entry("", "") == SQRT2 * 2
        assert interpret_generator(XNOT, 0, 0).is_zero
        assert interpret_generator(H, 0, 0).entry("", "") == -ONE

    def test_support_values_share_one_exponent(self) -> None:
        # A kept table puts all of a generator's values over the first
        # one's exponent, reading the support once.
        for kind in GeneratorKind:
            for degree in range(1 if kind is STAR else 13):
                support = evaluate_module._generator_support(kind, degree)
                assert len({value.e for _, value in support}) <= 1, (kind, degree)


# -- oracle 2: brute force over all edge assignments -------------------------


def brute_evaluate(d: Diagram) -> dict[tuple[str, str], ExactScalar]:
    node_tables = []
    for node in d.nodes:
        m = interpret_generator(node.kind, node.degree, 0)
        node_tables.append({col: v for (_, col), v in m.entries.items()})
    slots: list[list[int]] = [[-1] * node.degree for node in d.nodes]
    in_wire = [-1] * d.n_in
    out_wire = [-1] * d.n_out
    for widx, (a, b) in enumerate(d.edges):
        for ep in (a, b):
            if isinstance(ep, NodePort):
                slots[ep.node][ep.port] = widx
            elif ep.side == "in":
                in_wire[ep.pos] = widx
            else:
                out_wire[ep.pos] = widx
    acc: dict[tuple[str, str], ExactScalar] = {}
    for bits in product((0, 1), repeat=len(d.edges)):
        value = ONE
        for nid in range(len(d.nodes)):
            key = "".join(str(bits[w]) for w in slots[nid])
            value = value * node_tables[nid].get(key, ZERO)
            if value.is_zero:
                break
        if value.is_zero:
            continue
        row = "".join(str(bits[w]) for w in out_wire)
        col = "".join(str(bits[w]) for w in in_wire)
        acc[(row, col)] = acc.get((row, col), ZERO) + value
    return {k: v for k, v in acc.items() if not v.is_zero}


class TestEvaluate:
    def test_single_wire_is_identity(self) -> None:
        assert evaluate(identity(1)) == identity_matrix(1)

    def test_identities(self) -> None:
        for n in range(4):
            assert evaluate(identity(n)) == identity_matrix(n)

    def test_generators_round_trip_through_engine(self) -> None:
        for kind in (Z, X, ZNOT, XNOT, H):
            for m, n in product(range(3), repeat=2):
                d = generator(kind, m, n)
                assert evaluate(d) == interpret_generator(kind, m, n)
        assert evaluate(generator(STAR, 0, 0)) == interpret_generator(STAR, 0, 0)

    def test_effect_after_state(self) -> None:
        got = evaluate(compose(basis_effect(True), basis_state(True)))
        assert got.entries == {("", ""): ONE}
        crossed = evaluate(compose(basis_effect(False), basis_state(True)))
        assert crossed.is_zero

    def test_white_cap_after_white_cup(self) -> None:
        got = evaluate(compose(generator(Z, 1, 0), generator(Z, 0, 1)))
        assert got.entries == {("", ""): TWO}

    def test_star_pair(self) -> None:
        got = evaluate(tensor(generator(STAR, 0, 0), generator(STAR, 0, 0)))
        assert got.entries == {("", ""): ExactScalar(a=1, b=0, e=2)}

    def test_traced_loop_is_two(self) -> None:
        cup = Diagram(
            nodes=(),
            edges=((BoundaryPort(side="out", pos=0), BoundaryPort(side="out", pos=1)),),
            n_in=0,
            n_out=2,
        )
        cap = Diagram(
            nodes=(),
            edges=((BoundaryPort(side="in", pos=0), BoundaryPort(side="in", pos=1)),),
            n_in=2,
            n_out=0,
        )
        assert evaluate(compose(cap, cup)).entries == {("", ""): TWO}

    def test_cap_with_nots_gadget(self) -> None:
        # A white cap with a white not on one wire and a dark not on the
        # other reads sqrt2 * (<01| - <10|).
        gadget = compose(
            generator(Z, 2, 0),
            tensor(generator(ZNOT, 1, 1), generator(XNOT, 1, 1)),
        )
        assert evaluate(gadget).entries == {
            ("", "01"): SQRT2,
            ("", "10"): -SQRT2,
        }

    def test_matches_brute_force(self) -> None:
        rng = random.Random(1999)
        checked = 0
        while checked < 120:
            d = random_diagram(rng, max_nodes=3, max_wires=2, max_degree=3)
            if len(d.edges) > 9:
                continue
            assert evaluate(d).entries == brute_evaluate(d), d
            checked += 1

    def test_self_loops_and_parallel_edges(self) -> None:
        # Z spider with a self-loop traces to 2 on the diagonal blocks.
        b_nodes = (Node(kind=Z, degree=4),)
        looped = Diagram(
            nodes=b_nodes,
            edges=(
                (NodePort(node=0, port=0), NodePort(node=0, port=1)),
                (BoundaryPort(side="in", pos=0), NodePort(node=0, port=2)),
                (NodePort(node=0, port=3), BoundaryPort(side="out", pos=0)),
            ),
            n_in=1,
            n_out=1,
        )
        assert evaluate(looped).entries == brute_evaluate(looped)
        doubled = compose(generator(X, 1, 1), generator(X, 1, 1))
        assert evaluate(doubled).entries == brute_evaluate(doubled)
        # A white not on a self-loop traces its sign to 1 - 1 = 0, and two
        # white nots in series on one wire cancel.
        assert evaluate(self_looped(ZNOT, 1)).is_zero
        nots = compose(generator(ZNOT, 1, 1), generator(ZNOT, 1, 1))
        assert evaluate(nots) == identity_matrix(1)

    def test_contraction_orders_agree(self) -> None:
        rng = random.Random(40)
        for _ in range(60):
            d = random_diagram(rng, max_nodes=4, max_wires=2, max_degree=3)
            assert evaluate(d, order="greedy") == evaluate(d, order="sequential")

    def test_functoriality(self) -> None:
        rng = random.Random(271828)
        for _ in range(80):
            mid = rng.randint(0, 2)
            d2 = random_diagram(rng, n_out=mid, max_nodes=3, max_wires=2, max_degree=3)
            d1 = random_diagram(rng, n_in=mid, max_nodes=3, max_wires=2, max_degree=3)
            assert evaluate(compose(d1, d2)) == matrix_compose(
                evaluate(d1), evaluate(d2)
            )
            assert evaluate(tensor(d1, d2)) == matrix_tensor(
                evaluate(d1), evaluate(d2)
            )

    def test_rejects_invalid(self) -> None:
        broken = Diagram(nodes=(Node(kind=Z, degree=1),), edges=(), n_in=0, n_out=0)
        with pytest.raises(InvalidDiagram):
            evaluate(broken)

    def test_rejects_large_boundaries(self) -> None:
        # DEFAULT_MAX_BOUNDARY is 22: 22 wires evaluate, 23 do not.
        assert evaluate(identity(11)) == identity_matrix(11)
        with pytest.raises(TooLarge):
            evaluate(generator(Z, 11, 12))

    def test_bounds_the_legs_of_enumerated_generators(self, monkeypatch) -> None:
        # An H box's support is enumerated over all 2^degree leg patterns,
        # so its degree falls under DEFAULT_MAX_BOUNDARY (22) as well.
        # Traced self-loops: 15 patterns read 1 and the all-ones one -1.
        assert evaluate(self_looped(H, 4)).entries == {("", ""): ExactScalar(14, 0, 0)}
        # A white spider has two support entries at any degree: unbounded.
        assert evaluate(self_looped(Z, 15)).entries == {("", ""): TWO}
        # The refusal comes before any support is enumerated.
        monkeypatch.setattr(evaluate_module, "_generator_support", _never_enumerate)
        with pytest.raises(TooLarge, match="node 0"):
            evaluate(self_looped(H, 12))

    def test_rejects_unknown_order(self) -> None:
        with pytest.raises(ValueError):
            evaluate(identity(1), order="alphabetical")


def seeded_counting_state(seed: int, n: int, m: int) -> tuple[Diagram, int]:
    cnf = random_cnf(random.Random(seed), n, m)
    phi = cnf.to_formula()
    return counting_state(phi, cnf.variables), count_sat(phi, cnf.variables)


def two_variable_instance() -> SatCompareInstance:
    return SatCompareInstance(
        n=2,
        m=2,
        psi=parse_formula("(x1 | y1) & (x2 | ~y2)"),
        rho=parse_formula("z1 & (x1 | z2)"),
    )


def packed_random_factor(rng: random.Random, mask: int):
    """A factor on the indices of ``mask`` with a random sparse table of
    small nonzero ints, some of them negative so that sums can cancel."""
    keys = [k for k in range(mask + 1) if k & ~mask == 0]
    table = {k: rng.choice((-2, -1, 1, 3)) for k in keys if rng.random() < 0.7}
    return evaluate_module._Factor(mask, table, rng.randrange(3), rng.randrange(2))


def packed_values(factor) -> dict[int, ExactScalar]:
    """Each entry v of a packed table as the value v * sqrt(2)**r / 2**e."""
    return {
        k: ExactScalar(v, 0, factor.e) * (SQRT2 if factor.r else ONE)
        for k, v in factor.table.items()
    }


def brute_join(f1, f2, summed: set[int]) -> dict[int, ExactScalar]:
    """Every pair of entries that agrees on the shared indices, multiplied
    and summed into the key kept to the indices left."""
    keep = (f1.mask | f2.mask) & ~sum(1 << i for i in summed)
    out: dict[int, ExactScalar] = {}
    for k1, v1 in packed_values(f1).items():
        for k2, v2 in packed_values(f2).items():
            if (k1 ^ k2) & f1.mask & f2.mask == 0:
                k = (k1 | k2) & keep
                out[k] = out.get(k, ZERO) + v1 * v2
    return {k: v for k, v in out.items() if v}


class TestPairTables:
    """The engine keeps packed int tables, one int key and one int value
    per entry under one exponent and one sqrt(2) parity per factor, and
    builds ExactScalar only for the entries of the returned matrix."""

    def test_join_matches_a_brute_force_product(self) -> None:
        rng = random.Random(21)
        seen = set()
        for _ in range(400):
            m1, m2 = rng.randrange(1, 64), rng.randrange(64)
            if rng.random() < 0.25:
                m2 &= ~m1  # no shared index
            f1, f2 = packed_random_factor(rng, m1), packed_random_factor(rng, m2)
            union = [i for i in range(6) if (m1 | m2) >> i & 1]
            summed = set(rng.sample(union, rng.randint(0, min(3, len(union)))))
            got = evaluate_module._join(f1, f2, summed)
            assert got.mask == (m1 | m2) & ~sum(1 << i for i in summed)
            assert got.r == (f1.r + f2.r) % 2
            assert got.e == f1.e + f2.e - (f1.r + f2.r == 2)
            assert 0 not in got.table.values()
            assert packed_values(got) == brute_join(f1, f2, summed)
            seen.add((m1 & m2 == 0, min(len(summed), 2), f1.r + f2.r == 2))
        # Each branch: shared indices or none, nothing summed, one index
        # or several, and two odd parities folded into one lower exponent.
        assert seen == {(s, n, f) for s in (True, False) for n in (0, 1, 2) for f in (True, False)}

    def test_template_refuses_mixed_parities(self, monkeypatch) -> None:
        mixed = ExactScalar(1, 1, 0)
        for support in (
            [((0,), ONE), ((1,), mixed)],
            [((0,), ONE), ((1,), SQRT2)],
            [((0,), ONE), ((1,), HALF)],
        ):
            monkeypatch.setattr(
                evaluate_module, "_generator_support", lambda kind, degree, s=support: iter(s)
            )
            with pytest.raises(ValueError, match="sqrt"):
                evaluate_module._template(H, ((1, 0),), 0, 0)

    def test_matrices_have_one_sqrt2_parity(self) -> None:
        # Each generator's values have one sqrt(2) parity, so products and
        # sums of them do too, and so every entry of a matrix does.
        corpus_rng = random.Random(2024)
        corpus = [random_diagram(corpus_rng) for _ in range(300)]
        for seed in range(12):
            inst = random_sat_compare(random.Random(seed))
            pair = build_state_eq(inst)
            corpus += [pair.d1, pair.d2, build_contains_entry(inst, DyadicK(3, 2))]
            corpus += [build_circuit_extraction(inst.rho, inst.x_vars + inst.z_vars)]
        parities = set()
        for d in corpus:
            values = evaluate(d).entries.values()
            assert all(v.a == 0 or v.b == 0 for v in values), d
            parity = {v.b != 0 for v in values}
            assert len(parity) <= 1, d
            parities |= parity
        assert parities == {True, False}

    def test_builds_scalars_only_on_exit(self, monkeypatch) -> None:
        d, count = seeded_counting_state(37, 6, 12)
        built = 0
        original = ExactScalar.__init__

        def counting(self, *args) -> None:
            nonlocal built
            built += 1
            original(self, *args)

        monkeypatch.setattr(ExactScalar, "__init__", counting)
        result = evaluate(d)
        monkeypatch.undo()
        assert result.entry("1", "") == ExactScalar(count, 0, 0)
        assert built < len(d.nodes), (built, len(d.nodes))

    def test_large_shared_exponent(self) -> None:
        d, count = seeded_counting_state(34, 5, 10)
        closed = tensor(stars(400), compose(basis_effect(True), d))
        assert evaluate(closed) == scalar_matrix(ExactScalar(count, 0, 400))
        assert evaluate(tensor(stars(400), d)) == matrix_tensor(
            scalar_matrix(ExactScalar(1, 0, 400)), evaluate(d)
        )

    def test_calls_share_no_tables(self) -> None:
        # The second diagram has the same nodes, so the same generator
        # kinds and degrees, but its legs are paired off differently.
        rng = random.Random(5)
        for _ in range(40):
            d = random_diagram(rng, max_nodes=4, max_wires=2, max_degree=3)
            stubs = [ep for edge in d.edges for ep in edge]
            rng.shuffle(stubs)
            rewired = Diagram(
                nodes=d.nodes,
                edges=tuple(zip(stubs[::2], stubs[1::2])),
                n_in=d.n_in,
                n_out=d.n_out,
            )
            first = evaluate(d)
            assert evaluate(rewired).entries == brute_evaluate(rewired)
            assert evaluate(d) == first
            assert first.entries == brute_evaluate(d)


class TestFusedElimination:
    """Wires of a white spider or white not share one index, so a
    counting state is eliminated over its variables, not its wires."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_peak_width_of_counting_states(self, monkeypatch, seed) -> None:
        # Wire-level contraction of these states peaks at 19-20 indices.
        d, count = seeded_counting_state(seed, 6, 12)
        widths = []
        join = evaluate_module._join

        def recording(*args):
            joined = join(*args)
            widths.append(len(joined.wires))
            return joined

        monkeypatch.setattr(evaluate_module, "_join", recording)
        assert evaluate(d).entry("1", "") == ExactScalar(count, 0, 0)
        assert max(widths) <= 12, max(widths)

    def test_twelve_variable_counting_state(self) -> None:
        d, count = seeded_counting_state(1, 12, 25)
        want = {("1", ""): ExactScalar(count, 0, 0), ("0", ""): ExactScalar(2**12 - count, 0, 0)}
        assert evaluate(d) == ExactMatrix(n_out=1, n_in=0, entries=want)


# Seeded ladder-style 3-CNF counting states, drawn as the count-ladder
# benchmark draws them: each clause picks 3 distinct variables of n, then
# a sign for each. These run in a capped child, so an order that cannot
# finish them fails the test instead of filling the machine's memory.
LADDER_STATES = """
import random
from zhcalc.cnf import CnfFormula, Literal
from zhcalc.encode import counting_state

RUNGS = {(5, 10): (7, 1, 2), (6, 12): (7, 1, 2), (10, 20): (1, 2, 3), (14, 30): (1, 2, 3)}

def ladder_states():
    for (n, m), seeds in RUNGS.items():
        for seed in seeds:
            rng = random.Random(seed)
            clauses = tuple(
                frozenset(Literal(i, rng.random() < 0.5) for i in rng.sample(range(n), 3))
                for _ in range(m)
            )
            cnf = CnfFormula(tuple(f"x{i}" for i in range(1, n + 1)), clauses)
            yield cnf, counting_state(cnf.to_formula(), cnf.variables)
"""


class TestTwoOrders:
    """Both orders sum first the index whose factors span the fewest
    indices and differ only in how they break a tie, so both finish every
    diagram greedy finishes, and by a different route."""

    def test_agree_on_counting_states_and_reductions(self, capped_child) -> None:
        code = LADDER_STATES + """
from zhcalc import evaluate
from zhcalc.corpus import random_sat_compare
from zhcalc.formula import count_sat
from zhcalc.reductions import (
    DyadicK,
    build_circuit_extraction,
    build_contains_entry,
    build_state_eq,
)
from zhcalc.scalar import ExactScalar

def both(d):
    greedy = evaluate(d)
    assert evaluate(d, order="sequential") == greedy
    return greedy

for cnf, d in ladder_states():
    count = count_sat(cnf.to_formula(), cnf.variables)
    got = both(d)
    assert got.entry("1", "") == ExactScalar(count, 0, 0), (cnf, count)
    assert got.entry("0", "") == ExactScalar(2 ** len(cnf.variables) - count, 0, 0)

rng = random.Random(424242)
for _ in range(25):
    inst = random_sat_compare(rng)
    pair = build_state_eq(inst)
    both(pair.d1)
    both(pair.d2)
    for k in (DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2)):
        both(build_contains_entry(inst, k))
    names = inst.x_vars + inst.z_vars
    a1 = count_sat(inst.rho, names)
    got = both(build_circuit_extraction(inst.rho, names))
    assert got.entry("0", "1") == got.entry("1", "0") == ExactScalar(a1, 0, 0)
    assert got.entry("0", "0") == -got.entry("1", "1") == ExactScalar(2 ** len(names) - a1, 0, 0)
"""
        done = capped_child(code, timeout=30)
        assert done.returncode == 0, done.stderr[-3000:]

    def test_take_different_routes(self, capped_child) -> None:
        # Each route is the sequence of joins, as operand wires and summed
        # indices; "sequential" must not become an alias of "greedy". A
        # first run also joins to build the block tables that both orders
        # share, so each state is evaluated once before either route is
        # recorded, and the routes hold only their steps' joins.
        code = LADDER_STATES + """
import sys
from zhcalc import evaluate

engine = sys.modules["zhcalc.evaluate"]
join = engine._join

def route(d, order):
    calls = []

    def recording(f1, f2, summed):
        calls.append((f1.wires, f2.wires, sorted(summed)))
        return join(f1, f2, summed)

    engine._join = recording
    evaluate(d, order=order)
    engine._join = join
    return calls

def differ(d):
    evaluate(d)
    return route(d, "greedy") != route(d, "sequential")

small = [d for cnf, d in ladder_states() if len(cnf.variables) <= 10]
print(sum(map(differ, small)))
"""
        done = capped_child(code, timeout=30)
        assert done.returncode == 0, done.stderr[-3000:]
        assert int(done.stdout) > 0


class TestCompiledPaths:
    """Each plan finds one elimination path per order on its blocks' index
    masks, at its first run, and every run replays it over the plan's
    kept tables."""

    def test_path_widths_match_the_joins(self, capped_child) -> None:
        # Each step's result is the join that sums its index, and joins
        # that build block tables run inside _node_factor, so the joins
        # with an index to sum, outside it, are the steps in order.
        code = LADDER_STATES + """
import random, sys
from zhcalc import evaluate
from zhcalc.corpus import random_diagram

engine = sys.modules["zhcalc.evaluate"]
join, node_factor = engine._join, engine._node_factor
seen, inside = [], []

def joining(f1, f2, summed):
    joined = join(f1, f2, summed)
    if summed and not inside:
        seen.append(joined.mask)
    return joined

def making(*args):
    inside.append(1)
    try:
        return node_factor(*args)
    finally:
        inside.pop()

engine._join, engine._node_factor = joining, making
rng = random.Random(12)
corpus = [d for cnf, d in ladder_states() if len(cnf.variables) <= 10]
corpus += [random_diagram(rng, max_degree=5) for _ in range(300)]
checked = differ = 0
for d in corpus:
    for order in ("greedy", "sequential"):
        seen.clear()
        evaluate(d, order=order)
        # A diagram whose scalar is zero runs no step and finds no path.
        path = engine._plan(d).paths.get(order)
        masks = [mask for *_, mask in path.steps] if path else []
        assert seen == masks, (order, d)
        checked += len(masks)
    paths = engine._plan(d).paths
    differ += len(paths) == 2 and paths["greedy"].steps != paths["sequential"].steps
print(checked, differ)
"""
        done = capped_child(code, timeout=60)
        assert done.returncode == 0, done.stderr[-3000:]
        checked, differ = map(int, done.stdout.split())
        # The two orders' paths are two routes, not one under two names.
        assert checked > 500 and differ > 0

    def test_steps_sum_every_closed_index_once_a_slot_alone_holds_it(
        self, capped_child
    ) -> None:
        # Replays each path on index masks: every step joins two or more
        # slots, all holding its first index; it sums exactly the indices
        # it drops, none of them on the boundary or held by another slot;
        # and no closed index it keeps is held by its result alone.
        code = LADDER_STATES + """
import random, sys
from zhcalc.corpus import random_diagram

engine = sys.modules["zhcalc.evaluate"]
rng = random.Random(27)
corpus = [d for _, d in ladder_states()]
corpus += [
    random_diagram(rng, max_nodes=rng.randrange(2, 10), max_degree=rng.randrange(2, 11))
    for _ in range(400)
]
checked = extra = 0
for d in corpus:
    plan = engine._plan(d)
    boundary = {i for i, _ in plan.in_wire + plan.out_wire}
    for order in ("greedy", "sequential"):
        masks = {slot: sum(weights) for slot, (_, weights) in enumerate(plan.blocks)}
        holders = {}
        for slot, mask in masks.items():
            for i in engine._indices(mask):
                holders.setdefault(i, set()).add(slot)
        closed = holders.keys() - boundary
        done = []
        for slots, summed, out, mask in engine._path(plan, order).steps:
            assert len(slots) >= 2, (order, d)
            assert not boundary.intersection(summed), (order, d)
            assert all(masks[slot] >> summed[0] & 1 for slot in slots), (order, d)
            joined = 0
            for slot in slots:
                joined |= masks.pop(slot)
            dropped = sum(1 << i for i in set(summed))
            assert len(set(summed)) == len(summed) and joined == mask | dropped, (order, d)
            assert not mask & dropped, (order, d)
            for i in engine._indices(joined):
                holders[i].difference_update(slots)
            for i in summed:
                assert not holders.pop(i), (order, d)
            for i in engine._indices(mask):
                assert i in boundary or holders[i], (order, d)
                holders[i].add(out)
            masks[out] = mask
            done += summed
            checked += 1
            extra += len(summed) - 1
        assert sorted(done) == sorted(closed), (order, d)
print(checked, extra)
"""
        done = capped_child(code, timeout=60)
        assert done.returncode == 0, done.stderr[-3000:]
        checked, extra = map(int, done.stdout.split())
        # Steps that sum more than the index they were chosen for occur.
        assert checked > 1000 and extra > 100, (checked, extra)

    def test_medium_counting_states_in_both_orders(self, capped_child) -> None:
        code = LADDER_STATES + """
from zhcalc import evaluate
from zhcalc.formula import count_sat
from zhcalc.scalar import ExactScalar

RUNGS = {(14, 30): (1, 2, 3), (16, 35): (1, 2, 3)}
for cnf, d in ladder_states():
    count = count_sat(cnf.to_formula(), cnf.variables)
    for order in ("greedy", "sequential"):
        got = evaluate(d, order=order)
        assert got.entry("1", "") == ExactScalar(count, 0, 0), (cnf, order, count)
        assert got.entry("0", "") == ExactScalar(2 ** len(cnf.variables) - count, 0, 0)
"""
        done = capped_child(code, timeout=60)
        assert done.returncode == 0, done.stderr[-3000:]

    def test_sixteen_variable_state_fills_no_full_table(self, capped_child) -> None:
        # Summing each closed index once one slot holds it keeps the greedy
        # order's largest table on this (16, 35) state at 34,496 entries;
        # summing one index per step fills all 2**16.
        code = LADDER_STATES + """
import sys
from zhcalc import evaluate

engine = sys.modules["zhcalc.evaluate"]
join, peak = engine._join, [0]

def recording(f1, f2, summed):
    joined = join(f1, f2, summed)
    peak[0] = max(peak[0], len(joined.table))
    return joined

RUNGS = {(16, 35): (2,)}
((cnf, d),) = ladder_states()
engine._join = recording
evaluate(d)
print(peak[0])
"""
        done = capped_child(code, timeout=60)
        assert done.returncode == 0, done.stderr[-3000:]
        assert int(done.stdout) < 2**16

    def test_later_runs_build_only_wide_blocks(self, monkeypatch) -> None:
        # A contains-entry diagram beside a 9-leg box, whose table is the
        # one built per run. A later run of either order, open or pinned,
        # makes no kept block's table, and a second path only for a new
        # order.
        built = build_contains_entry(two_variable_instance(), DyadicK(3, 2))
        d = tensor(built, generator(H, 4, 5))
        first = evaluate(d)
        keys, paths = [], []
        node_factor, path = evaluate_module._node_factor, evaluate_module._path

        def making(key, *args):
            keys.append(key)
            return node_factor(key, *args)

        def finding(*args):
            paths.append(args)
            return path(*args)

        monkeypatch.setattr(evaluate_module, "_node_factor", making)
        monkeypatch.setattr(evaluate_module, "_path", finding)
        runs = [
            lambda: evaluate(d),
            lambda: apply_basis(d, (1, 0, 1, 1, 0, 1), "in"),
            lambda: evaluate(d, order="sequential"),
            lambda: apply_basis(d, (0, 1, 1, 0, 1), "out"),
        ]
        got = []
        for run in runs:
            keys.clear()
            got.append(run())
            assert [[len(legs) for _, legs in key[1:]] for key in keys] == [[9]]
        assert [order for _, order in paths] == ["sequential"]
        copy = Diagram(d.nodes, d.edges, d.n_in, d.n_out)
        monkeypatch.undo()
        assert got[0] == got[2] == first == evaluate(copy)
        assert got[1] == apply_basis(copy, (1, 0, 1, 1, 0, 1), "in")
        assert got[3] == apply_basis(copy, (0, 1, 1, 0, 1), "out")

    def test_refused_runs_build_no_path(self, monkeypatch) -> None:
        monkeypatch.setattr(evaluate_module, "_path", _never_path)
        for d in (identity(12), generator(H, 12, 11), self_looped(H, 12)):
            with pytest.raises(TooLarge):
                evaluate(d)
            assert evaluate_module._plan(d).paths == {}


def _never_path(plan, order):
    raise AssertionError("a refused run found a path")


def two_leg_dark_nodes(d: Diagram) -> int:
    return sum(n.kind in (X, XNOT) and n.degree == 2 for n in d.nodes)


class TestParityFusion:
    """A two-leg dark spider is sqrt(2) times a plain wire and a two-leg
    dark not sqrt(2) times a NOT wire, so the engine joins their wires
    into one index with a parity bit instead of building a table."""

    def test_matches_brute_force(self) -> None:
        rng = random.Random(1)
        checked = 0
        while checked < 300:
            d = random_diagram(rng, max_nodes=4, max_wires=2, max_degree=3)
            if len(d.edges) > 9 or not two_leg_dark_nodes(d):
                continue
            want = brute_evaluate(d)
            for order in ("greedy", "sequential"):
                assert evaluate(d, order=order).entries == want, (order, d)
            checked += 1

    @pytest.mark.parametrize("kind", [X, XNOT])
    @pytest.mark.parametrize("dark_first", [True, False])
    def test_both_legs_on_one_white_spider(self, kind, dark_first) -> None:
        # A dark not closes an odd cycle through the spider, and so zeroes
        # the diagram, whether its union runs before the spider's or after.
        dark, white = (0, 1) if dark_first else (1, 0)
        nodes = [None, None]
        nodes[dark], nodes[white] = Node(kind=kind, degree=2), Node(kind=Z, degree=3)
        d = Diagram(
            nodes=tuple(nodes),
            edges=(
                (NodePort(node=dark, port=0), NodePort(node=white, port=0)),
                (NodePort(node=white, port=1), NodePort(node=dark, port=1)),
                (NodePort(node=white, port=2), BoundaryPort(side="out", pos=0)),
            ),
            n_in=0,
            n_out=1,
        )
        got = evaluate(d)
        assert got.entries == brute_evaluate(d)
        assert (got.n_out, got.n_in) == (1, 0)
        assert got.is_zero is (kind is XNOT)

    def test_looped_dark_generators(self) -> None:
        spider, dark_not = self_looped(X, 1), self_looped(XNOT, 1)
        assert evaluate(spider) == scalar_matrix(SQRT2 * 2)
        assert evaluate(spider).entries == brute_evaluate(spider)
        assert evaluate(dark_not).is_zero
        assert brute_evaluate(dark_not) == {}

    def test_dark_nots_in_series(self) -> None:
        one = generator(XNOT, 1, 1)
        two = compose(one, one)
        assert evaluate(one).entries == brute_evaluate(one)
        assert evaluate(two).entries == brute_evaluate(two)
        assert evaluate(two) == identity_matrix(1).scale(TWO)

    def test_box_legs_with_opposite_parities(self) -> None:
        # Box legs 0 and 1 read one index, leg 1 through a dark not.
        d = Diagram(
            nodes=(Node(kind=H, degree=3), Node(kind=XNOT, degree=2)),
            edges=(
                (NodePort(node=0, port=0), NodePort(node=1, port=0)),
                (NodePort(node=1, port=1), NodePort(node=0, port=1)),
                (NodePort(node=0, port=2), BoundaryPort(side="out", pos=0)),
            ),
            n_in=0,
            n_out=1,
        )
        assert evaluate(d).entries == brute_evaluate(d)

    def test_counting_state_builds_no_two_leg_dark_table(self, monkeypatch) -> None:
        d, count = seeded_counting_state(1, 6, 12)
        assert two_leg_dark_nodes(d)
        kinds = []
        node_factor = evaluate_module._node_factor

        def recording(key, *args):
            kinds.extend((kind, len(legs)) for kind, legs in key[1:])
            return node_factor(key, *args)

        monkeypatch.setattr(evaluate_module, "_node_factor", recording)
        assert evaluate(d).entry("1", "") == ExactScalar(count, 0, 0)
        assert kinds
        assert (X, 2) not in kinds and (XNOT, 2) not in kinds


class TestScalarAccumulator:
    """Wireless factors (legless nodes, traced loops, closed bucket
    results) are multiplied into one running scalar, never joined."""

    def test_legless_nodes(self) -> None:
        d = tensor_all([stars(400), generator(Z, 0, 0), generator(H, 0, 0)])
        for order in ("greedy", "sequential"):
            assert evaluate(d, order=order) == scalar_matrix(ExactScalar(-2, 0, 400))

    def test_legless_white_not_zeroes_an_open_diagram(self) -> None:
        d = tensor(generator(H, 2, 2), generator(ZNOT, 0, 0))
        got = evaluate(d)
        assert (got.n_out, got.n_in) == (2, 2) and got.is_zero

    def test_legless_white_not_zeroes_a_pinned_diagram(self) -> None:
        d = tensor(generator(H, 2, 3), generator(ZNOT, 0, 0))
        column = apply_basis(d, (1, 1), "in")
        assert (column.n_out, column.n_in) == (3, 0) and column.is_zero
        row = apply_basis(d, (0, 1, 1), "out")
        assert (row.n_out, row.n_in) == (0, 2) and row.is_zero

    @pytest.mark.parametrize(
        "parts, corner",
        [
            # Named by the total sqrt(2) parity and its sources: the plan
            # (fused two-leg or legless dark spiders), wireless factors
            # (self-looped dark spiders of four legs, sqrt(2) * 2 each)
            # and the held result (an open dark spider of four legs).
            pytest.param(
                [stars(3), generator(Z, 0, 0), self_looped(Z, 2), generator(X, 1, 1)],
                ExactScalar(0, 1, 1),
                id="1-plan",
            ),
            pytest.param([stars(3), generator(Z, 0, 0), self_looped(Z, 2)], HALF, id="0"),
            pytest.param([self_looped(X, 2)], ExactScalar(0, 2, 0), id="1-wireless"),
            pytest.param([generator(X, 2, 2)], ExactScalar(0, 1, 1), id="1-held"),
            pytest.param(
                [generator(X, 0, 0), self_looped(X, 2)], ExactScalar(8, 0, 0), id="2-plan-wireless"
            ),
            pytest.param([generator(X, 1, 1), generator(X, 2, 2)], ONE, id="2-plan-held"),
            pytest.param(
                [self_looped(X, 2), generator(X, 2, 2)], TWO, id="2-wireless-held"
            ),
            pytest.param(
                [generator(X, 1, 1), self_looped(X, 2), generator(X, 2, 2)],
                ExactScalar(0, 2, 0),
                id="3-all",
            ),
            pytest.param(
                [generator(X, 0, 0), generator(X, 1, 1), generator(X, 2, 2)],
                ExactScalar(0, 2, 0),
                id="3-plan-held",
            ),
            pytest.param(
                [self_looped(X, 2), generator(X, 2, 2), generator(ZNOT, 0, 0)], ZERO, id="zero"
            ),
        ],
    )
    def test_runs_reuse_the_plan_scalar(self, monkeypatch, parts, corner) -> None:
        # Stars, legless nodes, traced loops and fused sqrt(2) wires are
        # folded once per diagram, and the three sources' sqrt(2)
        # parities once per run. A later run, in the other order, or a
        # pinned run reads no legless factor: it reuses the plan scalar.
        d = tensor_all(parts + [generator(H, 1, 1)])
        want = evaluate(d)
        assert want.entries == brute_evaluate(d)
        assert want.entry("0" * d.n_out, "0" * d.n_in) == corner
        assert evaluate_module._plan(d).scalar[2] in (0, 1)
        monkeypatch.setattr(evaluate_module, "_LEGLESS", _Unreadable())
        assert evaluate(d, order="sequential") == want
        col = "10" * (d.n_in // 2) + "1" * (d.n_in % 2)
        column = apply_basis(d, [int(b) for b in col], "in")
        assert column.entries == {
            (row, ""): v for (row, c), v in want.entries.items() if c == col
        }

    def test_joins_are_wired(self, monkeypatch) -> None:
        d, _ = seeded_counting_state(1, 6, 12)
        built = build_contains_entry(two_variable_instance(), DyadicK(0, 0))
        calls = []
        join = evaluate_module._join

        def recording(f1, f2, summed):
            calls.append((f1, f2, set(summed)))
            return join(f1, f2, summed)

        monkeypatch.setattr(evaluate_module, "_join", recording)
        evaluate(d)
        evaluate(built)
        apply_basis(built, (0, 1), "in")
        assert calls
        for f1, f2, summed in calls:
            assert f2.wires, "a wireless right operand"
            if not f1.wires:
                # The unit factor, partnering a lone owner of the index
                # it sums out.
                assert (f1.table, f1.e, f1.r) == ({0: 1}, 0, 0)
                assert len(summed) == 1 and summed <= set(f2.wires)


class TestCompiledPlans:
    """Each diagram is compiled once into a plan that later calls on the
    same object reuse; pins slice tables instead of adding nodes."""

    def test_verify_instance_compiles_each_diagram_once(self, monkeypatch) -> None:
        calls = []
        compile_ = evaluate_module._plan

        def recording(d):
            calls.append((d, compile_(d)))
            return calls[-1][1]

        monkeypatch.setattr(evaluate_module, "_plan", recording)
        assert verify_instance(random_sat_compare(random.Random(15))) == []
        # A compile makes a new plan and a reuse returns the last one. The
        # state-eq pair, then three contains-entry diagrams, each pinned
        # by its builder's self-check and then evaluated open.
        compiled = {id(plan): d for d, plan in calls}
        assert len(compiled) == 5
        assert len({id(d) for d in compiled.values()}) == 5

    def test_validates_only_faulty_diagrams(self, monkeypatch) -> None:
        seen = []
        validate = Diagram.validate

        def recording(self):
            seen.append(self)
            return validate(self)

        monkeypatch.setattr(Diagram, "validate", recording)
        valid = [seeded_counting_state(7, 5, 10)[0], self_looped(H, 3), stars(2)]
        valid += [random_diagram(random.Random(seed)) for seed in range(20)]
        for d in valid:
            evaluate(d)
        assert seen == []
        # An empty slot is caught in the walk over the edges, a star with
        # legs in the node loop; each faulty diagram is validated once.
        for d in (
            Diagram(nodes=(Node(kind=Z, degree=1),), edges=(), n_in=0, n_out=0),
            self_looped(STAR, 1),
        ):
            with pytest.raises(InvalidDiagram):
                evaluate(d)
            assert seen == [d]
            seen.clear()

    def test_built_diagrams_compile_as_their_json_round_trip(self) -> None:
        # The builder shares spliced gadgets' nodes and makes the rest; a
        # parsed copy has only fresh ones. Both must compile alike.
        inst = random_sat_compare(random.Random(20))
        pair = build_state_eq(inst)
        built = [seeded_counting_state(seed, 6, 12)[0] for seed in (7, 8)]
        built += [pair.d1, pair.d2, build_contains_entry(inst, DyadicK(3, 2))]
        built += [build_circuit_extraction(inst.rho, inst.x_vars + inst.z_vars)]
        for d in built:
            assert {type(node) for node in d.nodes} == {Node}
            assert {type(end) for edge in d.edges for end in edge} <= {NodePort, BoundaryPort}
            copy = Diagram.from_json(json.loads(json.dumps(d.to_json())))
            assert copy == d
            assert evaluate_module._plan(d) == evaluate_module._plan(copy)

    def test_built_diagrams_arrive_laid_out_and_wired(self) -> None:
        # finish lays the edges out in the order the constructor's sort
        # gives and hands over each port's wire, which equals the walk's
        # on the parsed copy; the plans agree too.
        built = []
        for seed in (7, 424242):
            built += [seeded_counting_state(seed + i, 5 + i % 2, 10 + 2 * (i % 2))[0]
                      for i in range(6)]
            inst = random_sat_compare(random.Random(seed))
            pair = build_state_eq(inst)
            built += [pair.d1, pair.d2]
            built += [
                build_contains_entry(inst, k)
                for k in (DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2), DyadicK(-5, 3))
            ]
            built += [build_circuit_extraction(inst.rho, inst.x_vars + inst.z_vars)]
            built += [encode_formula(inst.psi, inst.x_vars + inst.y_vars)]
        for d in built:
            assert "_wiring" in d.__dict__
            flipped = tuple((b, a) for a, b in reversed(d.edges))
            resorted = Diagram(nodes=d.nodes, edges=flipped, n_in=d.n_in, n_out=d.n_out)
            assert d.edges == resorted.edges
            assert [tuple(map(type, e)) for e in d.edges] == [
                tuple(map(type, e)) for e in resorted.edges
            ]
            copy = Diagram.from_json(json.loads(json.dumps(d.to_json())))
            assert d._wiring == copy._wiring is not None
            assert evaluate_module._plan(d) == evaluate_module._plan(copy)

    def test_a_finished_diagram_compiles_without_a_walk(self, monkeypatch) -> None:
        walked = []
        walk = Diagram.__dict__["_wiring"].func

        def recording(d):
            walked.append(d)
            return walk(d)

        patched = functools.cached_property(recording)
        patched.__set_name__(Diagram, "_wiring")
        monkeypatch.setattr(Diagram, "_wiring", patched)
        d, count = seeded_counting_state(7, 6, 12)
        # The wiring came with the edges, so the constructor did not sort
        # them and the compile reads it instead of walking them.
        assert "_wiring" in d.__dict__
        assert evaluate(d).entry("1", "") == ExactScalar(count, 0, 0)
        assert walked == []
        # A parsed copy has no wiring until its compile walks its edges.
        copy = Diagram.from_json(json.loads(json.dumps(d.to_json())))
        assert "_wiring" not in copy.__dict__
        assert evaluate(copy) == evaluate(d)
        assert walked == [copy]

    def test_cached_plan_keeps_no_diagram_alive(self) -> None:
        d = generator(H, 1, 2)
        evaluate(d)
        ref = evaluate_module._last_plan[0]
        assert ref() is d
        del d
        gc.collect()
        assert ref() is None

    def test_reused_plan_matches_a_fresh_one(self) -> None:
        built = build_contains_entry(two_variable_instance(), DyadicK(1, 0))
        pinned = [apply_basis(built, bits, "in") for bits in product((0, 1), repeat=2)]
        open_matrix = evaluate(built)
        copy = Diagram(nodes=built.nodes, edges=built.edges, n_in=2, n_out=0)
        # An equal diagram is another object, so it gets its own plan.
        assert evaluate_module._last_plan[0]() is built
        assert evaluate(copy) == open_matrix
        assert evaluate_module._last_plan[0]() is copy
        for bits, column in zip(product((0, 1), repeat=2), pinned):
            assert column.entry("", "") == open_matrix.entry("", "".join(map(str, bits)))

    def test_wide_generator_tables_are_not_kept(self, monkeypatch) -> None:
        # Every call looks up the legless white spider's table; warm it.
        evaluate(generator(H, 0, 1))
        before = dict(evaluate_module._TEMPLATES)
        wide = generator(H, 4, 5)
        assert evaluate(wide) == interpret_generator(H, 4, 5)
        assert apply_basis(wide, (1, 1, 1, 1), "in").entries == {
            (row, ""): -ONE if row == "11111" else ONE
            for row in map("".join, product("01", repeat=5))
        }
        assert evaluate_module._TEMPLATES == before
        # A 9-leg box sharing an index with a 3-leg box: the pair would
        # read 9 other indices, so each is a block of one, and only the
        # 3-leg box's table may be kept.
        edges = [(NodePort(node=0, port=0), NodePort(node=1, port=0))]
        edges += [(NodePort(node=0, port=p), BoundaryPort("out", p - 1)) for p in range(1, 9)]
        edges += [(NodePort(node=1, port=p), BoundaryPort("out", p + 7)) for p in (1, 2)]
        beside = Diagram(
            nodes=(Node(kind=H, degree=9), Node(kind=H, degree=3)),
            edges=tuple(edges),
            n_in=0,
            n_out=10,
        )
        keys = []
        node_factor = evaluate_module._node_factor

        def recording(key, *args):
            keys.append(key)
            return node_factor(key, *args)

        monkeypatch.setattr(evaluate_module, "_node_factor", recording)
        assert evaluate(beside).entries == brute_evaluate(beside)
        blocks = [[len(legs) for _, legs in key[1:]] for key in keys]
        assert [9] in blocks and [3] in blocks and max(map(len, blocks)) == 1
        added = evaluate_module._TEMPLATES.keys() - before.keys()
        assert all(len(legs) <= 3 for key in added for _, legs in key[1:])

    def test_pinned_wide_node_builds_only_its_slice(self, monkeypatch) -> None:
        # A 12-leg box's table is not kept, so it is built only on the
        # bits its pins fix: 2**6 entries, not 2**12.
        d = generator(H, 6, 6)
        open_matrix = evaluate(d)
        sizes = []
        template = evaluate_module._template

        def recording(*args):
            factor = template(*args)
            sizes.append(len(factor.table))
            return factor

        monkeypatch.setattr(evaluate_module, "_template", recording)
        bits = (1, 0, 1, 1, 0, 1)
        column = apply_basis(d, bits, "in")
        for row in map("".join, product("01", repeat=6)):
            assert column.entry(row, "") == open_matrix.entry(row, "101101")
        assert sizes and max(sizes) <= 2**6

    @pytest.mark.parametrize("kind", [H, X, XNOT])
    def test_pinned_wide_generators_match_their_matrix(self, kind) -> None:
        # A node of over 8 legs is built per run straight over its index
        # bits; with a self-loop, the looped index takes a spare bit and is
        # summed inside the block.
        want = interpret_generator(kind, 4, 5)
        looped = Diagram(
            nodes=(Node(kind=kind, degree=11),),
            edges=((NodePort(0, 0), NodePort(0, 1)),)
            + tuple((NodePort(0, p + 2), BoundaryPort("in", p)) for p in range(4))
            + tuple((NodePort(0, p + 6), BoundaryPort("out", p)) for p in range(5)),
            n_in=4,
            n_out=5,
        )
        traced = brute_evaluate(looped)
        for d, entries in ((generator(kind, 4, 5), want.entries), (looped, traced)):
            assert evaluate(d).entries == entries
            for bits in product((0, 1), repeat=4):
                col = "".join(map(str, bits))
                assert apply_basis(d, bits, "in").entries == {
                    (row, ""): v for (row, c), v in entries.items() if c == col
                }
            for bits in ((1, 1, 1, 1, 1), (0, 1, 1, 0, 1)):
                row = "".join(map(str, bits))
                assert apply_basis(d, bits, "out").entries == {
                    ("", c): v for (r, c), v in entries.items() if r == row
                }

    def test_kept_tables_are_capped(self, monkeypatch) -> None:
        # Past the cap, new patterns are built per call; results hold.
        monkeypatch.setattr(evaluate_module, "_TEMPLATES", {})
        monkeypatch.setattr(evaluate_module, "_MAX_TEMPLATES", 40)
        for seed in range(60, 80):
            assert verify_instance(random_sat_compare(random.Random(seed))) == []
        assert len(evaluate_module._TEMPLATES) == 40

    def test_repeated_verify_adds_no_table(self, monkeypatch) -> None:
        monkeypatch.setattr(evaluate_module, "_TEMPLATES", {})
        instances = [random_sat_compare(random.Random(seed)) for seed in range(20, 26)]
        for inst in instances:
            assert verify_instance(inst) == []
        kept = set(evaluate_module._TEMPLATES)
        assert kept
        for inst in instances:
            assert verify_instance(inst) == []
        assert set(evaluate_module._TEMPLATES) == kept

    def test_pins_slice_kept_tables(self, monkeypatch) -> None:
        # A pinned table is a slice of the open one, not a table of its own.
        monkeypatch.setattr(evaluate_module, "_TEMPLATES", {})
        built = build_contains_entry(random_sat_compare(random.Random(33)), DyadicK(1, 0))
        open_matrix = evaluate(built)
        kept = set(evaluate_module._TEMPLATES)
        for bits in product((0, 1), repeat=built.n_in):
            column = apply_basis(built, bits, "in")
            assert column.entry("", "") == open_matrix.entry("", "".join(map(str, bits)))
        assert set(evaluate_module._TEMPLATES) == kept

    def test_blocks_sum_their_lone_indices(self, monkeypatch) -> None:
        # A closed index read by one node alone, or by the two nodes of a
        # pair alone, is summed inside the block's table, so no block
        # reaches the elimination loop as a lone owner.
        built = build_contains_entry(random_sat_compare(random.Random(42)), DyadicK(3, 2))
        # Warm the kept tables on an equal diagram, so no join below builds
        # one; built then gets a fresh plan, whose first run makes blocks.
        evaluate(Diagram(built.nodes, built.edges, built.n_in, built.n_out))
        blocks, lone_owners = [], []
        node_factor, join = evaluate_module._node_factor, evaluate_module._join

        def making(*args):
            blocks.append(node_factor(*args))
            return blocks[-1]

        def joining(f1, f2, summed):
            if not f1.wires:
                lone_owners.append(f2)
            return join(f1, f2, summed)

        monkeypatch.setattr(evaluate_module, "_node_factor", making)
        monkeypatch.setattr(evaluate_module, "_join", joining)
        evaluate(built)
        assert blocks
        assert not {id(f) for f in blocks} & {id(f) for f in lone_owners}

    def test_pins_add_no_factor(self, monkeypatch) -> None:
        # Two equal diagrams, each with a fresh plan: a pinned first run
        # makes as many block factors as an open one.
        built = build_contains_entry(two_variable_instance(), DyadicK(3, 2))
        opened_d, pinned_d = (Diagram(built.nodes, built.edges, 2, 0) for _ in range(2))
        calls = []
        node_factor = evaluate_module._node_factor

        def recording(*args):
            calls.append(args)
            return node_factor(*args)

        monkeypatch.setattr(evaluate_module, "_node_factor", recording)
        evaluate(opened_d)
        opened = len(calls)
        calls.clear()
        apply_basis(pinned_d, (1, 0), "in")
        assert opened and len(calls) == opened


def shape_mutations(d: Diagram, rng: random.Random) -> list[Diagram]:
    """One seeded single mutation of ``d`` per kind that the compile's
    shape check must tell apart: most make ``d`` faulty, a few leave it
    well formed (n_in = -1 on a diagram without inputs, say)."""
    edges, nodes = [list(edge) for edge in d.edges], list(d.nodes)
    ends = [(e, s) for e in range(len(edges)) for s in (0, 1)]
    ports = [(e, s) for e, s in ends if type(edges[e][s]) is NodePort]
    sides = [(e, s) for e, s in ends if type(edges[e][s]) is BoundaryPort]
    stars = [nid for nid, node in enumerate(nodes) if node.kind is STAR]

    def made(edges=edges, nodes=nodes, n_in=d.n_in, n_out=d.n_out) -> Diagram:
        return Diagram(tuple(nodes), tuple(map(tuple, edges)), n_in, n_out)

    def moved(at: tuple[int, int], ep) -> Diagram:
        changed = [list(edge) for edge in edges]
        changed[at[0]][at[1]] = ep
        return made(edges=changed)

    out = [made(n_in=d.n_in + rng.choice((-1, 1))), made(n_out=d.n_out + rng.choice((-1, 1)))]
    if edges:
        k = rng.randrange(len(edges))
        out.append(made(edges=edges[:k] + edges[k + 1 :]))
        out.append(moved(rng.choice(ends), edges[rng.randrange(len(edges))][rng.randrange(2)]))
        out.append(made(edges=edges + [edges[rng.randrange(len(edges))]]))
    if ports:
        e, s = at = rng.choice(ports)
        node, port = edges[e][s]
        out.append(moved(at, NodePort(node, rng.choice((-1, nodes[node].degree)))))
        out.append(moved(at, NodePort(rng.choice((-1, len(nodes))), port)))
    if sides:
        e, s = at = rng.choice(sides)
        side, pos = edges[e][s]
        other = rng.choice([name for name in ("in", "out", "up", "") if name != side])
        width = d.n_in if side == "in" else d.n_out
        out.append(moved(at, BoundaryPort(other, pos)))
        out.append(moved(at, BoundaryPort(side, rng.choice((-1, width)))))
    # A star given a leg: left dangling, wired in a self-loop (so every
    # slot is filled), or of negative degree (so it still has no slot).
    nid = rng.choice(stars) if stars else len(nodes)
    nodes = nodes + [Node(kind=STAR, degree=0)] * (not stars)
    for degree in (1, 2, -1):
        grown = nodes[:nid] + [Node(kind=STAR, degree=degree)] + nodes[nid + 1 :]
        loop = [[NodePort(nid, 0), NodePort(nid, 1)]] * (degree == 2)
        out.append(made(edges=edges + loop, nodes=grown))
    return out


class TestShapeCheck:
    """The compile checks a diagram's shape inline and validates only a
    faulty one, so it must raise InvalidDiagram exactly when ``validate``
    lists problems, with the message built from that list."""

    @staticmethod
    def agrees(d: Diagram) -> None:
        problems = d.validate()
        if not problems:
            evaluate(d)
            return
        shown = "; ".join(str(p) for p in problems[:3])
        with pytest.raises(InvalidDiagram) as caught:
            evaluate(d)
        assert str(caught.value) == f"{len(problems)} problem(s), first: {shown}"

    def test_one_diagram_per_violation_code(self) -> None:
        z2, star = Node(kind=Z, degree=2), Node(kind=STAR, degree=0)
        ins, outs = BoundaryPort("in", 0), BoundaryPort("out", 0)
        cases = {
            "UnknownNode": ((), [(NodePort(-1, 0), ins), (NodePort(0, 0), outs)], 1, 1),
            "BadPort": ((z2,), [(NodePort(0, 2), outs), (NodePort(0, -1), NodePort(0, 0))], 0, 1),
            "BadBoundary": ((), [(ins, BoundaryPort("up", 0)), (ins._replace(pos=1), outs)], 1, 1),
            "DuplicatePort": ((z2,), [(NodePort(0, 0),) * 2, (NodePort(0, 1), outs)], 0, 1),
            "MissingPort": ((z2,), [(NodePort(0, 1), outs)], 0, 1),
            "StarWithLegs": ((star._replace(degree=-2),), [], 0, 0),
            "BoundaryDegree": ((), [(ins, outs), (ins, BoundaryPort("out", 1))], 2, 2),
        }
        for code, (nodes, edges, n_in, n_out) in cases.items():
            d = Diagram(nodes, tuple(edges), n_in, n_out)
            assert code in [p.code for p in d.validate()]
            self.agrees(d)
        # Negative degrees and widths pass validate when nothing reads them.
        self.agrees(Diagram((Node(kind=Z, degree=-1), star), (), -1, 0))

    def test_mutated_random_diagrams(self) -> None:
        rng = random.Random(19)
        for _ in range(150):
            for d in shape_mutations(random_diagram(rng), rng):
                self.agrees(d)

    def test_mutated_reduction_diagrams(self) -> None:
        rng = random.Random(23)
        inst = two_variable_instance()
        pair = build_state_eq(inst)
        bases = [pair.d1, pair.d2, build_contains_entry(inst, DyadicK(3, 2))]
        bases += [build_circuit_extraction(inst.psi, inst.y_vars + inst.x_vars)]
        bases += [seeded_counting_state(7, 4, 6)[0]]
        for base in bases:
            for _ in range(4):
                for d in shape_mutations(base, rng):
                    self.agrees(d)


class TestApplyBasis:
    def test_identity_column(self) -> None:
        got = apply_basis(identity(1), BasisState(bits=(1,)), "in")
        assert got.entries == {("1", ""): ONE}

    def test_only_unpinned_wires_count_against_the_bound(self) -> None:
        bits = (1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1)
        got = apply_basis(identity(12), bits, "in")
        assert got == ExactMatrix(
            n_out=12, n_in=0, entries={("".join(map(str, bits)), ""): ONE}
        )
        with pytest.raises(TooLarge):
            evaluate(identity(12))

    def test_two_pins_on_one_index(self) -> None:
        cap = generator(Z, 2, 0)
        assert apply_basis(cap, (0, 1), "in").is_zero
        assert apply_basis(cap, (1, 1), "in") == scalar_matrix(ONE)

    def test_boundary_to_boundary_wires(self) -> None:
        # in0 -> out1, in1 -> out0, and in2 -> out2 through an H box.
        d = tensor(
            Diagram(
                nodes=(),
                edges=(
                    (BoundaryPort("in", 0), BoundaryPort("out", 1)),
                    (BoundaryPort("in", 1), BoundaryPort("out", 0)),
                ),
                n_in=2,
                n_out=2,
            ),
            generator(H, 1, 1),
        )
        column = apply_basis(d, (1, 0, 1), "in")
        assert column.entries == {("010", ""): ONE, ("011", ""): -ONE}
        row = apply_basis(d, (0, 1, 0), "out")
        assert row.entries == {("", "100"): ONE, ("", "101"): ONE}

    def test_matches_matrix_route(self) -> None:
        rng = random.Random(55)
        for _ in range(300):
            d = random_diagram(rng)
            mat = evaluate(d)
            for bits in product((0, 1), repeat=d.n_in):
                column = ExactMatrix(
                    n_out=d.n_in,
                    n_in=0,
                    entries={("".join(map(str, bits)), ""): ONE},
                )
                assert apply_basis(d, bits, "in") == matrix_compose(mat, column)
            for bits in product((0, 1), repeat=d.n_out):
                rowvec = ExactMatrix(
                    n_out=0,
                    n_in=d.n_out,
                    entries={("", "".join(map(str, bits))): ONE},
                )
                assert apply_basis(d, bits, "out") == matrix_compose(rowvec, mat)

    def test_builds_no_diagram(self, monkeypatch) -> None:
        built = build_contains_entry(two_variable_instance(), DyadicK(3, 2))
        want = evaluate(built).entry("", "10")

        def refuse(self) -> None:
            raise AssertionError("apply_basis built a diagram")

        monkeypatch.setattr(Diagram, "__post_init__", refuse)
        assert apply_basis(built, (1, 0), "in").entry("", "") == want != ZERO

    def test_arity_checks(self) -> None:
        with pytest.raises(ArityMismatch):
            apply_basis(identity(2), (0,), "in")
        with pytest.raises(ValueError):
            apply_basis(identity(1), (0,), "sideways")

    def test_output_arity_check(self) -> None:
        with pytest.raises(ArityMismatch, match="state has 3 bits, diagram emits 2"):
            apply_basis(identity(2), (0, 1, 1), "out")

    def test_basis_state_parsing(self) -> None:
        assert BasisState.from_string("010").bits == (0, 1, 0)
        assert str(BasisState(bits=(1, 0))) == "10"
        with pytest.raises(ValueError):
            BasisState(bits=(2,))
        with pytest.raises(ValueError):
            BasisState.from_string("01x")


class TestExactMatrix:
    def test_drops_zeros_and_checks_shape(self) -> None:
        # A matrix built by hand is checked; only the engine's skip the check.
        m = ExactMatrix(n_out=1, n_in=0, entries={("0", ""): ZERO, ("1", ""): ONE})
        assert m.entries == {("1", ""): ONE}
        with pytest.raises(ValueError, match="does not match shape"):
            ExactMatrix(n_out=1, n_in=1, entries={("00", "0"): ONE})
        with pytest.raises(ValueError, match="not a bitstring pair"):
            ExactMatrix(n_out=1, n_in=1, entries={("2", "0"): ONE})

    def test_engine_results_skip_the_check_and_keep_its_invariants(self, monkeypatch) -> None:
        # The engine builds its matrices without __init__: rebuilding
        # each through the checking constructor changes nothing.
        results = [evaluate(random_diagram(random.Random(seed))) for seed in range(40)]
        results.append(apply_basis(generator(H, 2, 2), [1, 0], "in"))

        def refuse(self, *args, **kwargs) -> None:
            raise AssertionError("the engine re-checked its entries")

        monkeypatch.setattr(ExactMatrix, "__init__", refuse)
        results.append(evaluate(generator(H, 8, 8)))
        monkeypatch.undo()
        assert any(m.entries for m in results) and any(m.is_zero for m in results)
        for m in results:
            assert ExactMatrix(n_out=m.n_out, n_in=m.n_in, entries=dict(m.entries)) == m

    def test_json_round_trip_and_order(self) -> None:
        m = evaluate(generator(H, 1, 1))
        blob = m.to_json()
        assert [e["row"] + e["col"] for e in blob["entries"]] == [
            "00",
            "01",
            "10",
            "11",
        ]
        assert ExactMatrix.from_json(json.loads(json.dumps(blob))) == m
        with pytest.raises(ValueError):
            ExactMatrix.from_json({"n_out": 1})

    def test_transpose_and_scale(self) -> None:
        m = interpret_generator(XNOT, 2, 1)
        assert m.transpose().transpose() == m
        assert m.scale(HALF).scale(TWO) == m

    def test_addition(self) -> None:
        plus = interpret_generator(Z, 1, 1) + interpret_generator(ZNOT, 1, 1)
        assert plus.entries == {("0", "0"): TWO}
        with pytest.raises(ArityMismatch):
            interpret_generator(Z, 1, 1) + interpret_generator(Z, 2, 1)

    def test_compose_units(self) -> None:
        m = interpret_generator(X, 2, 1)
        assert matrix_compose(identity_matrix(1), m) == m
        assert matrix_compose(m, identity_matrix(2)) == m
        with pytest.raises(ArityMismatch):
            matrix_compose(m, m)

    def test_tensor_units(self) -> None:
        m = interpret_generator(H, 1, 1)
        halved = matrix_tensor(scalar_matrix(HALF), m)
        assert halved == m.scale(HALF)
        assert matrix_tensor(m, scalar_matrix(ONE)) == m
