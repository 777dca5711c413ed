"""Acceptance gate: nine headline checks, one pass/fail line each.

Each test prints its verdict line (visible under -s, and on failure in
the captured output) and asserts the same condition, so `pytest -v`
shows exactly one PASSED/FAILED row per check.
"""

from __future__ import annotations

import random
from itertools import product

from zhcalc.cnf import decode01, encode01, to_cnf
from zhcalc.corpus import all_cnfs, random_diagram, random_formula, random_sat_compare
from zhcalc.counting import concat_formulae, formula_with_count
from zhcalc.diagram import compose, tensor
from zhcalc.encode import GateBlock, counting_state, gate_gadget, gate_target
from zhcalc.evaluate import (
    BasisState,
    evaluate,
    identity_matrix,
    matrix_compose,
    matrix_tensor,
)
from zhcalc.formula import (
    SatCompareInstance,
    count_sat,
    eval_formula,
    format_formula,
    parse_formula,
)
from zhcalc.reductions import (
    DyadicK,
    build_circuit_extraction,
    build_contains_entry,
    build_state_eq,
    verify_instance,
)
from zhcalc.scalar import ExactScalar, ZERO
from zhcalc.solve import solve_contains_entry, solve_state_eq


def _finish(tag: str, failures: list[str]) -> None:
    print(f"{tag}: {'FAIL' if failures else 'pass'}")
    assert not failures, f"{tag}: " + "; ".join(failures[:5])


def worked_instance() -> SatCompareInstance:
    return SatCompareInstance(
        n=1,
        m=2,
        psi=parse_formula("x1 | y1 | ~y2"),
        rho=parse_formula("~(z1 & (z2 | x1))"),
    )


def test_01_counting_state_golden() -> None:
    failures = []
    phi = parse_formula("(x1 & x2) & (x1 & ~x3)")
    matrix = evaluate(counting_state(phi, ["x1", "x2", "x3"]))
    want = {("1", ""): ExactScalar(1, 0, 0), ("0", ""): ExactScalar(7, 0, 0)}
    if matrix.entries != want:
        failures.append(f"got {matrix.entries}")
    _finish("check 1 (counting-state golden)", failures)


def test_02_state_eq_worked_pair() -> None:
    failures = []
    pair = build_state_eq(worked_instance())
    got1 = evaluate(pair.d1).entries
    got2 = evaluate(pair.d2).entries
    if got1 != {("", "0"): ExactScalar(3, 0, 0), ("", "1"): ExactScalar(4, 0, 0)}:
        failures.append(f"d1 evaluates to {got1}")
    if got2 != {("", "0"): ExactScalar(3, 0, 0), ("", "1"): ExactScalar(2, 0, 0)}:
        failures.append(f"d2 evaluates to {got2}")
    witness = solve_state_eq(pair.d1, pair.d2)
    if witness != BasisState.from_string("0"):
        failures.append(f"witness {witness}")
    _finish("check 2 (state-eq worked pair)", failures)


def test_03_count_realization_table() -> None:
    failures = []
    names = ("x1", "x2")
    table = {
        0: set(),
        1: {"11"},
        2: {"10", "11"},
        3: {"01", "10", "11"},
        4: {"00", "01", "10", "11"},
    }
    for k, want in table.items():
        phi = formula_with_count(names, k)
        if count_sat(phi, names) != k:
            failures.append(f"k={k}: count off")
        models = {
            "".join("1" if bit else "0" for bit in bits)
            for bits in product((False, True), repeat=2)
            if eval_formula(phi, dict(zip(names, bits)))
        }
        if models != want:
            failures.append(f"k={k}: models {sorted(models)}")
    _finish("check 3 (count-realization table)", failures)


def test_04_codec_golden() -> None:
    failures = []
    phi = parse_formula("x1 & (x2 | ~x3)")
    cnf = to_cnf(phi, ("x1", "x2", "x3"))
    word = encode01(cnf)
    if str(word) != "100000001001110000":
        failures.append(f"word {word}")
    back = decode01(word)
    decoded = count_sat(back.to_formula(), back.variables)
    original = count_sat(phi, ("x1", "x2", "x3"))
    # The decoded formula keeps the original model count, which is 3
    # here: tautological padding clauses never change it.
    if decoded != original or decoded != 3:
        failures.append(f"decoded count {decoded}, original {original}")
    _finish("check 4 (01-word codec golden)", failures)


def test_05_contains_entry_worked_pair() -> None:
    failures = []
    built = build_contains_entry(worked_instance(), DyadicK(0, 0))
    matrix = evaluate(built)
    if matrix.entry("", "0") != ZERO:
        failures.append(f"entry at 0 is {matrix.entry('', '0')}")
    if matrix.entry("", "1") != ExactScalar(-2, 0, 0):
        failures.append(f"entry at 1 is {matrix.entry('', '1')}")
    hit = solve_contains_entry(built, ZERO)
    if hit is None or str(hit[1]) != "0":
        failures.append(f"solver found {hit}")
    _finish("check 5 (contains-entry worked pair)", failures)


def test_06_circuit_extraction_block() -> None:
    failures = []
    phi = parse_formula("(x1 & x2) & (x1 & ~x3)")
    matrix = evaluate(build_circuit_extraction(phi, ["x1", "x2", "x3"]))
    want = {
        ("0", "0"): ExactScalar(7, 0, 0),
        ("0", "1"): ExactScalar(1, 0, 0),
        ("1", "0"): ExactScalar(1, 0, 0),
        ("1", "1"): ExactScalar(-7, 0, 0),
    }
    if matrix.entries != want:
        failures.append(f"matrix {matrix.entries}")
    gram = matrix_compose(matrix, matrix.transpose())
    if gram != identity_matrix(1).scale(ExactScalar(50, 0, 0)):
        failures.append(f"gram {gram.entries}")
    _finish("check 6 (circuit-extraction block)", failures)


def test_07_oracle_equivalence_suite() -> None:
    failures = []
    rng = random.Random(424242)
    for index in range(100):
        notes = verify_instance(random_sat_compare(rng))
        failures.extend(f"[{index}] {note}" for note in notes)
    _finish("check 7 (oracle equivalence, 100 instances)", failures)


def test_08_functoriality_suite() -> None:
    failures = []
    rng = random.Random(31337)
    for index in range(100):
        mid = rng.randint(0, 2)
        d1 = random_diagram(rng, n_in=mid, max_nodes=3)
        d2 = random_diagram(rng, n_out=mid, max_nodes=3)
        joined = compose(d1, d2)
        for order in ("greedy", "sequential"):
            left = evaluate(joined, order=order)
            right = matrix_compose(
                evaluate(d1, order=order), evaluate(d2, order=order)
            )
            if left != right:
                failures.append(f"[{index}] compose under {order}")
    for index in range(50):
        d1 = random_diagram(rng, max_nodes=3)
        d2 = random_diagram(rng, max_nodes=3)
        joined = tensor(d1, d2)
        for order in ("greedy", "sequential"):
            left = evaluate(joined, order=order)
            right = matrix_tensor(
                evaluate(d1, order=order), evaluate(d2, order=order)
            )
            if left != right:
                failures.append(f"[{index}] tensor under {order}")
    _finish("check 8 (functoriality, 300 diagrams, two orders)", failures)


def test_09_lemma_suites() -> None:
    failures = []

    # Concatenation law: the combined count is count(phi) shifted past
    # a buffer bit, plus count(psi).
    rng = random.Random(60616)
    for _ in range(40):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        xs = tuple(f"x{i}" for i in range(1, n1 + 1))
        ys = tuple(f"y{i}" for i in range(1, n2 + 1))
        phi = random_formula(rng, xs, max_depth=3)
        psi = random_formula(rng, ys, max_depth=3)
        joined = concat_formulae(phi, xs, psi, ys)
        want = (count_sat(phi, xs) << joined.low_bits) + count_sat(psi, ys)
        got = count_sat(joined.formula, joined.variables)
        if got != want:
            failures.append(f"concat law: {got} vs {want}")

    # Count realization for every representable k, up to four variables.
    for n in range(1, 5):
        names = tuple(f"x{i}" for i in range(1, n + 1))
        for k in range(2**n + 1):
            if count_sat(formula_with_count(names, k), names) != k:
                failures.append(f"k-realization: n={n} k={k}")

    # Codec soundness over the exhaustive small corpus: the 01-word of a
    # CNF with m clauses over n variables decodes to k = max(m, n)
    # clauses over k variables with exactly count + 2**k - 2**n models
    # (zhcalc.cnf docstring). Equality holds only for m <= n: when
    # m > n every clause is widened by the k - n fresh variables, so
    # every assignment that sets one of them true is an extra model.
    # Clauseless CNFs are included: encode01 rejects only n = m = 0.
    codec_bad = 0
    codec_total = 0
    example = None
    for n in range(1, 4):
        for cnf in all_cnfs(n, 3):
            codec_total += 1
            m = cnf.m
            k = max(m, n)
            original = count_sat(cnf.to_formula(), cnf.variables)
            back = decode01(encode01(cnf))
            decoded = count_sat(back.to_formula(), back.variables)
            expected = original + 2**k - 2**n
            if back.n != k or back.m != k or decoded != expected:
                codec_bad += 1
                if example is None:
                    text = format_formula(cnf.to_formula())
                    example = (
                        f"{text} (n={n}, m={m}, k={k}): "
                        f"decoded {back.m} clauses over {back.n} variables, "
                        f"count expected {expected}, decoded {decoded}"
                    )
    if codec_bad:
        failures.append(
            f"codec soundness: {codec_bad}/{codec_total} corpus formulae "
            f"break the count relation, first example {example}"
        )

    # Gate soundness: every logic block evaluates to its declared matrix.
    for block in GateBlock:
        if evaluate(gate_gadget(block)) != gate_target(block):
            failures.append(f"gate {block.name}")

    _finish("check 9 (lemma suites)", failures)
