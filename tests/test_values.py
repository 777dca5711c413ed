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
        (DyadicK.from_json, "dyadic"),
        (ExactScalar.from_json, "scalar"),
    ],
    ids=["diagram", "matrix", "instance", "state-eq", "dyadic", "scalar"],
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


@pytest.mark.parametrize(
    "reader, document, message",
    [
        (StateEqInstance.from_json, {}, "state-eq JSON is missing a required key: 'd1'"),
        (DyadicK.from_json, {}, "dyadic JSON is missing a required key: 'c'"),
        (DyadicK.from_json, {"c": 1}, "dyadic JSON is missing a required key: 'd'"),
        (ExactMatrix.from_json, {"n_out": 1}, "matrix JSON is missing a required key: 'n_in'"),
        (
            ExactMatrix.from_json,
            {"n_out": 0, "n_in": 0, "entries": [{"row": "", "col": ""}]},
            "matrix entry JSON is missing a required key: 'val'",
        ),
        (
            SatCompareInstance.from_json,
            {"n": 1, "psi": "x1", "rho": "x1"},
            "instance JSON is missing a required key: 'm'",
        ),
        (ExactScalar.from_json, {"a": "1", "b": "0"}, "scalar JSON is missing a required key: 'e'"),
    ],
    ids=["state-eq", "dyadic-c", "dyadic-d", "matrix", "matrix-entry", "instance", "scalar"],
)
def test_json_readers_name_a_missing_key(reader, document, message) -> None:
    with pytest.raises(ValueError) as caught:
        reader(document)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "document, shown",
    [
        ({"c": 1.5, "d": 0}, "1.5 and 0"),
        ({"c": True, "d": 0}, "True and 0"),
        ({"c": "3", "d": 0}, "'3' and 0"),
        ({"c": 3, "d": 2.0}, "3 and 2.0"),
        ({"c": 3, "d": None}, "3 and None"),
    ],
    ids=["float", "bool", "string", "float-exponent", "null-exponent"],
)
def test_dyadic_reader_takes_only_integers(document, shown) -> None:
    # int() would read 1.5 as 1, True as 1 and "3" as 3: another value.
    with pytest.raises(ValueError) as caught:
        DyadicK.from_json(document)
    assert str(caught.value) == f"c and d must be integers, not {shown}"


@pytest.mark.parametrize(
    "fields, shown",
    [
        ({"a": 1.9}, "1.9 and '0'"),
        ({"a": True}, "True and '0'"),
        ({"a": "1_0"}, "'1_0' and '0'"),
        ({"a": "\u0663"}, "'\u0663' and '0'"),
        ({"a": " 1"}, "' 1' and '0'"),
        ({"b": "+2"}, "'1' and '+2'"),
        ({"b": "--2"}, "'1' and '--2'"),
        ({"b": "-"}, "'1' and '-'"),
        ({"b": None}, "'1' and None"),
    ],
    ids=[
        "float", "bool", "underscore", "arabic-indic", "space", "plus", "two-minus", "minus",
        "null",
    ],
)
def test_scalar_reader_takes_only_decimal_integers(fields, shown) -> None:
    # int() would read 1.9 as 1, True as 1, "1_0" as 10 and "\u0663" as 3.
    with pytest.raises(ValueError) as caught:
        ExactScalar.from_json({"a": "1", "b": "0", "e": 0, **fields})
    assert str(caught.value) == f"a and b must be decimal integers, not {shown}"


@pytest.mark.parametrize(
    "e, shown",
    [("3", "'3'"), (True, "True"), (3.0, "3.0"), (-1, "-1"), (None, "None")],
    ids=["string", "bool", "float", "negative", "null"],
)
def test_scalar_reader_takes_only_a_natural_exponent(e, shown) -> None:
    with pytest.raises(ValueError) as caught:
        ExactScalar.from_json({"a": "1", "b": "0", "e": e})
    assert str(caught.value) == f"e must be a non-negative integer, not {shown}"


def test_scalar_reader_takes_integers_and_written_strings() -> None:
    value = ExactScalar(-3, 5, 2)
    assert ExactScalar.from_json(value.to_json()) == value
    assert ExactScalar.from_json({"a": -3, "b": 5, "e": 2}) == value
    assert ExactScalar.from_json({"a": "-06", "b": "10", "e": 3}) == value


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_out": "1"}, "'n_out' must be a non-negative integer, got '1'"),
        ({"n_out": True}, "'n_out' must be a non-negative integer, got True"),
        ({"n_in": -1}, "'n_in' must be a non-negative integer, got -1"),
        ({"n_in": 0.0}, "'n_in' must be a non-negative integer, got 0.0"),
        ({"entries": {}}, "'entries' must be a JSON array, got {}"),
        ({"entries": "ab"}, "'entries' must be a JSON array, got 'ab'"),
        ({"entries": [1]}, "matrix entry JSON must be an object, got 1"),
        (
            {"entries": [{"row": 1, "col": "", "val": {}}]},
            "row and col must be strings, got (1, '')",
        ),
        (
            {"entries": [{"row": "1", "col": None, "val": {}}]},
            "row and col must be strings, got ('1', None)",
        ),
        (
            {"entries": [{"row": "1", "col": "", "val": [1]}]},
            "scalar JSON must be an object, got [1]",
        ),
    ],
    ids=[
        "string-rows", "bool-rows", "negative-columns", "float-columns", "object-entries",
        "string-entries", "int-entry", "int-row", "null-col", "list-value",
    ],
)
def test_matrix_reader_checks_each_field(fields, message) -> None:
    with pytest.raises(ValueError) as caught:
        ExactMatrix.from_json({"n_out": 1, "n_in": 0, "entries": [], **fields})
    assert str(caught.value) == message
