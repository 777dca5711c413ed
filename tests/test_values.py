"""The value classes: named tuples for plain records, ``Frozen`` subclasses
for the classes that validate or canonicalise. Each compares by class and
fields, hashes, shows itself as ``Cls(field=value, ...)`` and refuses
assignment, and importing zhcalc generates no code for them."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from zhcalc.cnf import CnfFormula, Literal, Word01, to_cnf
from zhcalc.counting import ConcatResult
from zhcalc.diagram import Diagram, Violation, identity
from zhcalc.evaluate import BasisState, ExactMatrix, _Factor, _Path, _Plan
from zhcalc.formula import (
    FALSE,
    TRUE,
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    SatCompareInstance,
    Var,
    substitute,
)
from zhcalc.reductions import DyadicK, StateEqInstance
from zhcalc.scalar import ONE, ExactScalar

SRC = Path(__file__).resolve().parents[1] / "src"

x, y = Var("x"), Var("y")

# Every value class, each with a maker of fresh equal instances and its
# fields in match order.
VALUES = {
    "Var": (lambda: Var("x"), ("name",)),
    "Const": (lambda: Const(True), ("value",)),
    "Not": (lambda: Not(Var("x")), ("child",)),
    "And": (lambda: And(Var("x"), Var("y")), ("left", "right")),
    "Or": (lambda: Or(Var("x"), Var("y")), ("left", "right")),
    "Implies": (lambda: Implies(Var("x"), Var("y")), ("left", "right")),
    "Iff": (lambda: Iff(Var("x"), Var("y")), ("left", "right")),
    "SatCompareInstance": (
        lambda: SatCompareInstance(1, 1, Var("x1"), Var("z1")),
        ("n", "m", "psi", "rho"),
    ),
    "ExactScalar": (lambda: ExactScalar(3, 1, 2), ("a", "b", "e")),
    "Violation": (lambda: Violation("BadPort", "no port 2"), ("code", "detail")),
    "Diagram": (lambda: identity(2), ("nodes", "edges", "n_in", "n_out")),
    "BasisState": (lambda: BasisState((0, 1)), ("bits",)),
    "ExactMatrix": (lambda: ExactMatrix(0, 1, {("", "1"): ONE}), ("n_out", "n_in", "entries")),
    "_Factor": (lambda: _Factor(3, {0: 1, 3: 2}, 1, 0), ("mask", "table", "e", "r")),
    "_Path": (lambda: _Path([((0, 1), 0, 2, 0)], [None]), ("steps", "tables")),
    "_Plan": (
        lambda: _Plan(None, [(0, 0)], [(0, 1)], [], (1, 0, 0)),
        ("too_wide", "in_wire", "out_wire", "blocks", "scalar", "paths"),
    ),
    "StateEqInstance": (lambda: StateEqInstance(identity(1), identity(1)), ("d1", "d2")),
    "DyadicK": (lambda: DyadicK(3, 1), ("c", "d")),
    "Literal": (lambda: Literal(0, True), ("index", "positive")),
    "CnfFormula": (
        lambda: CnfFormula(("x",), (frozenset({Literal(0, False)}),)),
        ("variables", "clauses"),
    ),
    "Word01": (lambda: Word01((0, 1)), ("bits",)),
    "ConcatResult": (
        lambda: ConcatResult(Var("x"), ("x",), 1),
        ("formula", "variables", "low_bits"),
    ),
}

# Their fields hold dicts or lists, so they have no hash.
UNHASHABLE = {"ExactMatrix", "_Factor", "_Path", "_Plan"}


@pytest.mark.parametrize(
    "statement",
    ["import zhcalc.cli", "import zhcalc, zhcalc.cnf, zhcalc.corpus, zhcalc.counting"],
    ids=["cli", "library"],
)
def test_import_generates_no_class_code(statement) -> None:
    # -I -S: no site hook or environment loads a module before zhcalc;
    # -B: no bytecode is written next to the sources.
    code = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{statement}\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_compare_and_hash_equal(name) -> None:
    make, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", VALUES)
def test_fields_match_and_show_in_order(name) -> None:
    make, fields = VALUES[name]
    value = make()
    assert type(value).__match_args__ == fields
    shown = [f for f in fields if f != "paths"]  # a plan's paths are a cache
    assert repr(value) == f"{name}({', '.join(f'{f}={getattr(value, f)!r}' for f in shown)})"


@pytest.mark.parametrize("name", VALUES)
def test_assignment_is_refused(name) -> None:
    value = VALUES[name][0]()
    field = VALUES[name][1][0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_reprs_as_documented() -> None:
    assert repr(ExactScalar(1, 0, 0)) == "ExactScalar(a=1, b=0, e=0)"
    assert repr(And(x, Not(y))) == "And(left=Var(name='x'), right=Not(child=Var(name='y')))"
    assert repr(DyadicK(3, 1)) == "DyadicK(c=3, d=1)"


def test_values_compare_by_class_and_canonical_fields() -> None:
    assert ExactScalar(2, 0, 1) == ONE and hash(ExactScalar(2, 0, 1)) == hash(ONE)
    assert And(x, y) != Or(x, y) and not And(x, y) == Or(x, y)
    assert Implies(x, y) != Iff(x, y)
    assert Var("x") != ("x",) and ("x",) != Var("x")
    assert not Var("x") == ("x",) and not ("x",) == Var("x")
    assert And(x, y) != (x, y) and Const(True) != (True,)
    assert len({And(x, y), Or(x, y), And(Var("x"), Var("y"))}) == 2
    assert ExactScalar(1, 0, 0) != DyadicK(1, 0) and BasisState((1,)) != Word01((0, 1))
    assert BasisState((0, 1)) != BasisState((1, 0))


def test_literals_hash_as_their_pairs() -> None:
    # The hash the dataclass gave, so clause sets iterate in the same order.
    for index, positive in [(0, True), (0, False), (7, True), (12345, False)]:
        assert hash(Literal(index, positive)) == hash((index, positive))


def test_a_plan_compares_without_its_paths() -> None:
    made = VALUES["_Plan"][0]
    walked = _Plan(None, [(0, 0)], [(0, 1)], [], (1, 0, 0), {"greedy": _Path([], [])})
    assert walked == made() and "paths" not in repr(walked)
    assert made().paths == {} and made().paths is not made().paths


@pytest.mark.parametrize(
    "phi, folded",
    [
        (x, TRUE),
        (y, y),
        (TRUE, TRUE),
        (Not(x), FALSE),
        (And(x, y), y),
        (And(y, Not(x)), FALSE),
        (Or(x, y), TRUE),
        (Or(y, Not(x)), y),
        (Implies(Not(x), y), TRUE),
        (Implies(y, Not(x)), Not(y)),
        (Iff(x, y), y),
        (Iff(y, Not(x)), Not(y)),
        (And(y, Var("z")), And(y, Var("z"))),
        (Or(y, Var("z")), Or(y, Var("z"))),
    ],
)
def test_substitute_takes_the_same_branch(phi, folded) -> None:
    assert substitute(phi, {"x": True}) == folded


@pytest.mark.parametrize(
    "phi, clauses",
    [
        (x, [[(0, True)]]),
        (TRUE, []),
        (FALSE, [[]]),
        (Not(x), [[(0, False)]]),
        (And(x, y), [[(0, True)], [(1, True)]]),
        (Or(x, y), [[(0, True), (1, True)]]),
        (Implies(x, y), [[(0, False), (1, True)]]),
        (Iff(x, y), [[(0, False), (1, True)], [(0, True), (1, False)]]),
    ],
)
def test_to_cnf_takes_the_same_branch(phi, clauses) -> None:
    cnf = to_cnf(phi, ["x", "y"])
    assert cnf.clauses == tuple(frozenset(Literal(*lit) for lit in c) for c in clauses)


@pytest.mark.parametrize(
    "reader, name",
    [
        (Diagram.from_json, "diagram"),
        (ExactMatrix.from_json, "matrix"),
        (SatCompareInstance.from_json, "instance"),
        (StateEqInstance.from_json, "state-eq"),
    ],
    ids=["diagram", "matrix", "instance", "state-eq"],
)
@pytest.mark.parametrize(
    "document, shown",
    [([1], "[1]"), ("abc", "'abc'"), (5, "5"), (None, "None")],
    ids=["list", "string", "int", "null"],
)
def test_json_readers_refuse_a_non_object(reader, name, document, shown) -> None:
    with pytest.raises(ValueError) as caught:
        reader(document)
    assert str(caught.value) == f"{name} JSON must be an object, got {shown}"
