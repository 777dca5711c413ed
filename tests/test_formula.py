"""Parser, evaluation, substitution and counting for formula trees."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zhcalc.formula as formula_module
from zhcalc.cnf import from_dimacs
from zhcalc.formula import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    SatCompareInstance,
    TooManyVariables,
    UnassignedVariable,
    Var,
    assignments,
    count_sat,
    eval_formula,
    format_formula,
    formula_vars,
    model_counts,
    parse_formula,
    rename_vars,
    satisfying_assignments,
    substitute,
)

x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
y1, y2, y3 = Var("y1"), Var("y2"), Var("y3")


def test_eval_basic():
    # (F | T) is satisfied by the empty assignment
    assert eval_formula(Or(Const(False), Const(True)), {}) is True
    phi = And(And(x1, x2), And(x1, Not(x3)))
    assert eval_formula(phi, {"x1": True, "x2": True, "x3": False}) is True
    assert eval_formula(phi, {"x1": True, "x2": True, "x3": True}) is False


def test_eval_missing_variable():
    with pytest.raises(UnassignedVariable):
        eval_formula(x1, {})


def test_count_examples():
    phi = And(And(x1, x2), And(x1, Not(x3)))
    assert count_sat(phi, ("x1", "x2", "x3")) == 1
    assert count_sat(Or(Or(y1, y2), y3), ("y1", "y2", "y3")) == 7
    assert count_sat(Const(True), ("y1", "y2")) == 4
    assert count_sat(Const(False), ("y1", "y2")) == 0


def test_count_over_superset_doubles():
    assert count_sat(x1, ("x1",)) == 1
    assert count_sat(x1, ("x1", "x2")) == 2


def test_count_guards():
    with pytest.raises(TooManyVariables):
        count_sat(x1, [f"v{i}" for i in range(30)])
    with pytest.raises(UnassignedVariable):
        count_sat(x1, ("x2",))


def test_satisfying_assignments_order():
    assert satisfying_assignments(Or(x1, x2), ("x1", "x2")) == ["01", "10", "11"]


def test_substitute_folds():
    phi = Or(x1, x2)
    assert substitute(phi, {"x2": True}) == Const(True)
    assert substitute(phi, {"x2": False}) == x1
    assert substitute(And(x1, x2), {"x1": True}) == x2
    assert substitute(And(x1, x2), {"x1": False}) == Const(False)
    assert substitute(Not(x1), {"x1": True}) == Const(False)
    assert substitute(Implies(x1, x2), {"x1": False}) == Const(True)
    assert substitute(Implies(x1, x2), {"x2": False}) == Not(x1)
    assert substitute(Iff(x1, x2), {"x1": True}) == x2
    assert substitute(Iff(x1, x2), {"x1": False}) == Not(x2)


def test_substitute_worked_case():
    # rho = ~(z1 & (z2 | x1)) at x1=False becomes ~(z1 & z2)
    rho = Not(And(Var("z1"), Or(Var("z2"), x1)))
    assert substitute(rho, {"x1": False}) == Not(And(Var("z1"), Var("z2")))
    assert count_sat(substitute(rho, {"x1": False}), ("z1", "z2")) == 3
    assert count_sat(substitute(rho, {"x1": True}), ("z1", "z2")) == 2


def test_parse_precedence_and_assoc():
    assert parse_formula("~x1 & x2 | x3") == Or(And(Not(x1), x2), x3)
    assert parse_formula("x1 -> x2 -> x3") == Implies(x1, Implies(x2, x3))
    assert parse_formula("x1 <-> x2 -> x3") == Iff(x1, Implies(x2, x3))
    assert parse_formula("x1 | x2 | x3") == Or(Or(x1, x2), x3)
    assert parse_formula("T & ~F") == And(Const(True), Not(Const(False)))
    assert parse_formula("(x1 | y1) & ~y2") == And(Or(x1, y1), Not(y2))


def test_parse_errors():
    for bad in ("", "x1 &", "& x1", "(x1", "x1 x2", "x1 ? x2"):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_parse_ignores_trailing_blanks():
    assert parse_formula("x1 ") == x1
    assert parse_formula("x1 & x2 \t\n") == And(x1, x2)


def test_format_round_trip_examples():
    cases = [
        Or(And(Not(x1), x2), x3),
        Implies(x1, Implies(x2, x3)),
        Not(And(x1, Or(x2, x3))),
        And(x1, And(x2, x3)),
        Iff(Iff(x1, x2), x3),
        Not(Not(x1)),
    ]
    for phi in cases:
        assert parse_formula(format_formula(phi)) == phi


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        return Var(rng.choice(names))
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return Not(_random_formula(rng, names, depth - 1))
    l = _random_formula(rng, names, depth - 1)
    r = _random_formula(rng, names, depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op](l, r)


def test_format_round_trip_random():
    rng = random.Random(7)
    names = ["x1", "x2", "y1", "_u3"]
    for _ in range(300):
        phi = _random_formula(rng, names, 4)
        assert parse_formula(format_formula(phi)) == phi


def test_substitution_coherence_random():
    # eval(phi, v ∪ w) == eval(substitute(phi, v), w) on total assignments
    rng = random.Random(11)
    names = ("x1", "x2", "x3")
    for _ in range(300):
        phi = _random_formula(rng, list(names), 3)
        split = rng.randint(0, 3)
        for full in assignments(names):
            v = {k: full[k] for k in names[:split]}
            w = {k: full[k] for k in names[split:]}
            sub = substitute(phi, v)
            assert eval_formula(sub, full) == eval_formula(phi, full)
            assert set(formula_vars(sub)) <= set(names[split:])
            assert eval_formula(sub, w) == eval_formula(phi, full)


@given(st.integers(0, 255))
@settings(max_examples=60)
def test_count_matches_truth_table(mask):
    # build a formula from an arbitrary 3-variable truth table via minterms
    names = ("x1", "x2", "x3")
    phi = Const(False)
    for i in range(8):
        if mask >> i & 1:
            bits = [(i >> (2 - j)) & 1 for j in range(3)]
            term = Const(True)
            for name, bit in zip(names, bits):
                lit = Var(name) if bit else Not(Var(name))
                term = And(term, lit)
            phi = Or(phi, term)
    assert count_sat(phi, names) == bin(mask).count("1")


def test_rename_vars():
    phi = And(x1, Or(y1, x1))
    assert rename_vars(phi, {"x1": "w9"}) == And(Var("w9"), Or(y1, Var("w9")))


def test_sat_compare_instance_json():
    inst = SatCompareInstance(
        n=1,
        m=2,
        psi=Or(Or(x1, y1), Not(y2)),
        rho=Not(And(Var("z1"), Or(Var("z2"), x1))),
    )
    obj = inst.to_json()
    assert obj["n"] == 1 and obj["m"] == 2
    assert SatCompareInstance.from_json(obj) == inst
    with pytest.raises(ValueError):
        SatCompareInstance(n=1, m=1, psi=Var("q7"), rho=Var("z1"))


@pytest.mark.parametrize("obj", [[], "x1", None, 3])
def test_sat_compare_instance_json_must_be_an_object(obj):
    with pytest.raises(ValueError, match="instance JSON must be an object"):
        SatCompareInstance.from_json(obj)


@pytest.mark.parametrize("n, m", [(21, 1), (1, 21)])
def test_sat_compare_instance_refuses_more_than_the_bound(n, m):
    with pytest.raises(TooManyVariables):
        SatCompareInstance(n=n, m=m, psi=Const(True), rho=Const(True))


def test_sat_compare_instance_accepts_the_bound():
    inst = SatCompareInstance(n=20, m=20, psi=Var("x20"), rho=Var("z20"))
    assert len(inst.x_vars) == 20 and len(inst.z_vars) == 20


def test_sat_compare_instance_refuses_before_naming(monkeypatch):
    # A regression would otherwise build 10**8 names before refusing.
    def never(self):
        raise AssertionError("variable names were built")

    for attr in ("x_vars", "y_vars", "z_vars"):
        monkeypatch.setattr(SatCompareInstance, attr, property(never))
    with pytest.raises(TooManyVariables):
        SatCompareInstance.from_json({"n": 10**8, "m": 1, "psi": "x1", "rho": "z1"})


# -- deep inputs ---------------------------------------------------------------
# Each walk keeps its own stack, so none of these may hit the recursion
# limit. Deep trees are compared through format_formula text, since the
# nodes' __eq__ and __repr__ recurse.

DEEP = 10_000


def _deep_text(shape: str) -> str:
    if shape == "~":
        return "~" * DEEP + "x1"
    if shape == "()":
        return "(" * DEEP + "x1" + ")" * DEEP
    return f" {shape} ".join(["x1", "x2"] * (DEEP // 2))


# (shape, variables, models over x1 x2): ~ an even number of times is x1;
# a right-nested -> chain ending in x2 -> (x1 -> x2) and an even-length
# <-> chain over x1 x2 are tautologies.
DEEP_SHAPES = [
    ("~", ("x1",), 2),
    ("()", ("x1",), 2),
    ("&", ("x1", "x2"), 1),
    ("|", ("x1", "x2"), 3),
    ("->", ("x1", "x2"), 4),
    ("<->", ("x1", "x2"), 4),
]


@pytest.mark.parametrize("shape, names, models", DEEP_SHAPES)
def test_deep_formulae_walk_without_recursion(shape, names, models):
    text = _deep_text(shape)
    phi = parse_formula(text)
    assert format_formula(phi) == (text if shape != "()" else "x1")
    assert formula_vars(phi) == names
    renamed = format_formula(rename_vars(phi, {"x1": "q"}))
    assert renamed == format_formula(phi).replace("x1", "q")
    assert count_sat(phi, ("x1", "x2")) == models
    full = {"x1": True, "x2": False}
    assert eval_formula(substitute(phi, {"x1": True}), {"x2": False}) == eval_formula(phi, full)


def test_eval_reads_every_variable():
    # The postfix evaluation does not short-circuit: a variable in a
    # branch whose value is already decided must still be assigned.
    with pytest.raises(UnassignedVariable):
        eval_formula(Or(x1, x2), {"x1": True})


# -- the truth-table oracle against a brute-force reference ---------------------
# The reference runs its own post-order as a postfix program over one dict of
# bools per assignment, as count_sat did before truth tables.

_REFERENCE_OPS = {
    And: lambda a, b: a and b,
    Or: lambda a, b: a or b,
    Implies: lambda a, b: (not a) or b,
    Iff: lambda a, b: a == b,
}


def _postfix_value(phi, valuation):
    order, todo = [], [phi]
    while todo:
        node = todo.pop()
        order.append(node)
        if isinstance(node, Not):
            todo.append(node.child)
        elif not isinstance(node, (Var, Const)):
            todo += [node.left, node.right]
    stack = []
    for node in reversed(order):
        if isinstance(node, Var):
            stack.append(valuation[node.name])
        elif isinstance(node, Const):
            stack.append(node.value)
        elif isinstance(node, Not):
            stack.append(not stack.pop())
        else:
            right, left = stack.pop(), stack.pop()
            stack.append(_REFERENCE_OPS[type(node)](left, right))
    return stack.pop()


def _reference_models(phi, variables, pins=None):
    """Satisfying assignments in lexicographic order, as bitstrings in the
    order of ``variables``, whose names must be distinct."""
    out = []
    for bits in itertools.product((False, True), repeat=len(variables)):
        valuation = dict(pins or {})
        valuation.update(zip(variables, bits))
        if _postfix_value(phi, valuation):
            out.append("".join("1" if valuation[name] else "0" for name in variables))
    return out


def _reference_count(phi, variables, pins=None):
    return len(_reference_models(phi, variables, pins))


CONNECTIVE_CASES = [
    Const(True),
    Const(False),
    x1,
    Not(x1),
    And(x1, x2),
    Or(x1, x2),
    Implies(x1, x2),
    Iff(x1, x2),
    Not(Iff(Implies(x2, x1), Const(False))),
    Or(And(x1, Const(True)), Implies(Const(False), x2)),
]


@pytest.mark.parametrize("phi", CONNECTIVE_CASES, ids=format_formula)
@pytest.mark.parametrize(
    "names",
    [("x1", "x2"), ("x2", "x1"), ("x1", "x2", "x3", "y1"), ("x2", "x3", "x1"), ("y1", "x1", "x2")],
)
def test_count_sat_matches_the_reference(phi, names):
    assert count_sat(phi, names) == _reference_count(phi, names)
    assert satisfying_assignments(phi, names) == _reference_models(phi, names)


def test_counters_refuse_a_repeated_name():
    for names, repeated in ((("x1", "x1", "x2"), "x1"), (("x2", "x1", "x2"), "x2")):
        message = f"variable '{repeated}' is listed twice"
        with pytest.raises(ValueError, match=message):
            count_sat(x1, names)
        with pytest.raises(ValueError, match=message):
            satisfying_assignments(Or(x1, x2), names)
        with pytest.raises(ValueError, match=message):
            next(model_counts(x1, (), names))
    # A name both leading and counted is listed twice too.
    with pytest.raises(ValueError, match="variable 'x1' is listed twice"):
        next(model_counts(x1, ("x1",), ("x1",)))
    with pytest.raises(ValueError, match="variable 'x2' is listed twice"):
        next(model_counts(And(x1, x2), ("x2", "x1"), ("x2",)))


def test_count_sat_over_no_variables():
    assert count_sat(Const(True), ()) == 1
    assert count_sat(Const(False), []) == 0
    assert count_sat(Or(x1, Not(x1)), (), {"x1": False}) == 1
    assert satisfying_assignments(Const(True), ()) == [""]
    assert satisfying_assignments(Const(False), ()) == []
    with pytest.raises(UnassignedVariable):
        count_sat(x1, ())


def test_count_sat_with_pins_matches_the_reference():
    rng = random.Random(23)
    names = ["x1", "x2", "x3", "y1", "y2"]
    for _ in range(300):
        phi = _random_formula(rng, names, 4)
        pinned = rng.sample(names, rng.randint(0, len(names)))
        pins = {name: rng.random() < 0.5 for name in pinned}
        counted = [name for name in names if name not in pins]
        counted += rng.sample(["u1", "u2"], rng.randint(0, 2))
        assert count_sat(phi, counted, pins) == _reference_count(phi, counted, pins)
        full = {**pins, **dict.fromkeys(counted, True)}
        assert eval_formula(phi, full) == _postfix_value(phi, full)


def test_count_sat_pins_must_cover_and_not_overlap():
    phi = And(x1, Or(x2, x3))
    with pytest.raises(UnassignedVariable, match="x3"):
        count_sat(phi, ("x2",), {"x1": True})
    with pytest.raises(ValueError, match="both pinned and counted"):
        count_sat(phi, ("x1", "x2", "x3"), {"x1": True})
    assert count_sat(phi, ("x2", "x3"), {"x1": True, "q9": False}) == 3
    assert count_sat(phi, ("x2", "x3"), {"x1": False}) == 0


@pytest.mark.parametrize("table_bits", [0, 1, 2])
def test_tables_split_at_the_size_constant(monkeypatch, table_bits):
    # With tables of 2**bits assignments, more names pin the leading ones
    # and count over several tables, or read several counts from one.
    monkeypatch.setattr(formula_module, "_TABLE_BITS", table_bits)
    rng = random.Random(31 + table_bits)
    names = ["x1", "x2", "x3", "y1", "y2"]
    for _ in range(60):
        phi = _random_formula(rng, names, 4)
        for size in range(len(names) + 1):
            counted = names[-size:] if size else []
            leading = names[: len(names) - size]
            want = [
                _reference_count(phi, counted, dict(zip(leading, bits)))
                for bits in itertools.product((False, True), repeat=len(leading))
            ]
            assert list(model_counts(phi, leading, counted)) == want
        assert count_sat(phi, names) == _reference_count(phi, names)
        assert satisfying_assignments(phi, names) == _reference_models(phi, names)
        assert satisfying_assignments(phi, names + ["z9"]) == _reference_models(phi, names + ["z9"])
        with pytest.raises(ValueError, match="variable 'x1' is listed twice"):
            satisfying_assignments(phi, names + ["x1"])


def test_model_counts_is_lazy():
    # The first count needs one table, whatever the number of leading names.
    phi = Or(Var("a1"), Var("b1"))
    leading = [f"a{i}" for i in range(1, 41)]
    counts = model_counts(phi, leading, ["b1"])
    assert [next(counts) for _ in range(3)] == [1, 1, 1]


def three_cnf(rng: random.Random, n: int, m: int) -> str:
    """DIMACS text of m clauses, each over 3 distinct variables of n,
    with random signs (perfbench/worker.py's ladder generator)."""
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        picked = rng.sample(range(1, n + 1), 3)
        literals = [v if rng.random() < 0.5 else -v for v in picked]
        lines.append(" ".join(map(str, literals)) + " 0")
    return "\n".join(lines) + "\n"


def test_count_sat_at_twenty_variables():
    # One pass over 16 tables of 2**16 assignments each; per-assignment
    # enumeration took about a minute per formula.
    counts = {}
    start = time.perf_counter()
    for seed in (1, 2):
        cnf = from_dimacs(three_cnf(random.Random(seed), 20, 45))
        counts[seed] = count_sat(cnf.to_formula(), cnf.variables)
    assert time.perf_counter() - start < 2
    assert counts == {1: 1820, 2: 1748}
