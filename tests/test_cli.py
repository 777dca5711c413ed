"""CLI tests: subcommand output, JSON verdicts, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhcalc.cli import _build_parser, _parse_k, main
from zhcalc.diagram import Diagram, compose, generator, GeneratorKind, tensor
from zhcalc.encode import GateBlock, encode_formula, gate_gadget
from zhcalc.evaluate import ExactMatrix, evaluate
from zhcalc.formula import SatCompareInstance, count_sat, parse_formula
from zhcalc.reductions import DyadicK, dyadic_scalar
from zhcalc.scalar import ExactScalar


def write_json(path, document) -> str:
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def worked_instance_file(tmp_path) -> str:
    return write_json(
        tmp_path / "inst.json",
        {"n": 1, "m": 2, "psi": "x1 | y1 | ~y2", "rho": "~(z1 & (z2 | x1))"},
    )


def diagram_file(tmp_path, name: str, diagram: Diagram) -> str:
    return write_json(tmp_path / name, diagram.to_json())


def _never_name(inst):
    raise AssertionError("variable names were built")


def _never_enumerate(kind, degree):
    raise AssertionError(f"enumerated the support of a degree-{degree} {kind}")


class TestParseK:
    def test_accepted_forms(self) -> None:
        assert _parse_k("3/4") == DyadicK(3, 2)
        assert _parse_k("-5/2^3") == DyadicK(-5, 3)
        assert _parse_k("6/8") == DyadicK(3, 2)
        assert _parse_k("4") == DyadicK(4, 0)
        assert _parse_k("0") == DyadicK(0, 0)
        assert _parse_k(" 1 ") == DyadicK(1, 0)

    def test_rejected_forms(self) -> None:
        with pytest.raises(ValueError):
            _parse_k("3/5")
        with pytest.raises(ValueError):
            _parse_k("1/0")
        with pytest.raises(ValueError):
            _parse_k("x")
        # int() would read the first two as 3/4 and the third as 10.
        for text in ["\u0663/4", "3/2^\u0662", "1_0", "3/4/5", "3/2^-1", "3 4", "4/"]:
            with pytest.raises(ValueError, match="^--k must be c, c/m or c/2\\^d"):
                _parse_k(text)


class TestParser:
    def test_two_calls_build_it_once(self, capsys) -> None:
        # An in-process caller, such as these tests' fuzz loops, reuses the
        # parser instead of building its subcommands on every call.
        _build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            assert main(["count", "x1 | x2", "--vars", "x1,x2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert _build_parser.cache_info().misses == 1
        assert outputs[0] == outputs[1] == "state: 3|1> + |0>\ncount: 3\noracle: 3\n"


class TestCount:
    # 3,000 levels, far deeper than the interpreter's recursion limit; each
    # shape with its model count over x1 x2.
    @pytest.mark.parametrize(
        "text, models",
        [
            ("~" * 3000 + "x1", 2),
            ("(" * 3000 + "x1" + ")" * 3000, 2),
            (" & ".join(["x1", "x2"] * 1500), 1),
            (" | ".join(["x1", "x2"] * 1500), 3),
            (" -> ".join(["x1", "x2"] * 1500), 4),
            (" <-> ".join(["x1", "x2"] * 1500), 4),
        ],
        ids=["not", "parens", "and", "or", "implies", "iff"],
    )
    def test_deep_formula(self, capsys, text, models) -> None:
        assert main(["count", text, "--vars", "x1,x2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == [f"count: {models}", f"oracle: {models}"]

    def test_running_example(self, capsys) -> None:
        code = main(["count", "(x1 & x2) & (x1 & ~x3)", "--vars", "x1,x2,x3"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["state: |1> + 7|0>", "count: 1", "oracle: 1"]

    def test_unsatisfiable(self, capsys) -> None:
        code = main(["count", "x1 & ~x1", "--vars", "x1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "state: 2|0>"
        assert out[1] == "count: 0"

    def test_refuses_too_many_variables_before_contracting(self, capped_child) -> None:
        # A seeded (24, 60) 3-CNF: contracting its counting state first
        # runs out of a 1 GiB cap after seconds, for a count the oracle
        # then refuses anyway.
        rng = random.Random(1)
        clauses = []
        for _ in range(60):
            picked = rng.sample(range(1, 25), 3)
            clauses.append(" | ".join(f"x{v}" if rng.random() < 0.5 else f"~x{v}" for v in picked))
        text = " & ".join(f"({clause})" for clause in clauses)
        names = ",".join(f"x{i}" for i in range(1, 25))
        code = "import sys\nfrom zhcalc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        done = capped_child(code, "count", text, "--vars", names, timeout=5)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines() == ["error: 24 variables exceeds bound 20"]


class TestEncodeAndEval:
    def test_encode_round_trips_through_eval(self, tmp_path, capsys) -> None:
        assert main(["encode", "x1 -> x2", "--vars", "x1,x2"]) == 0
        document = json.loads(capsys.readouterr().out)
        decoded = Diagram.from_json(document)
        direct = encode_formula(parse_formula("x1 -> x2"), ["x1", "x2"])
        assert evaluate(decoded) == evaluate(direct)

    def test_eval_empty_diagram_is_scalar_one(self, tmp_path, capsys) -> None:
        path = diagram_file(
            tmp_path, "empty.json", Diagram(nodes=(), edges=(), n_in=0, n_out=0)
        )
        assert main(["eval", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {"scalar": {"a": "1", "b": "0", "e": 0}}

    def test_eval_open_diagram_prints_the_matrix(self, tmp_path, capsys) -> None:
        from zhcalc.diagram import identity

        path = diagram_file(tmp_path, "wire.json", identity(1))
        assert main(["eval", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert ExactMatrix.from_json(document) == evaluate(identity(1))


class TestReduceAndSolve:
    def test_state_eq_pipeline(self, tmp_path, capsys) -> None:
        inst = worked_instance_file(tmp_path)
        assert main(["reduce", "state-eq", inst]) == 0
        pair = json.loads(capsys.readouterr().out)
        d1 = write_json(tmp_path / "d1.json", pair["d1"])
        d2 = write_json(tmp_path / "d2.json", pair["d2"])

        code = main(["solve", "state-eq", d1, d2])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict == {"answer": True, "witness": "0", "entry": None}

    def test_state_eq_absent_exits_one(self, tmp_path, capsys) -> None:
        inst = worked_instance_file(tmp_path)
        assert main(["reduce", "state-eq", inst]) == 0
        pair = json.loads(capsys.readouterr().out)
        d1 = write_json(tmp_path / "d1.json", pair["d1"])
        constant = tensor(
            generator(GeneratorKind.WHITE_SPIDER, 1, 0), dyadic_scalar(DyadicK(5, 0))
        )
        d5 = diagram_file(tmp_path, "five.json", constant)

        code = main(["solve", "state-eq", d1, d5])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict == {"answer": False, "witness": None, "entry": None}

    def test_contains_entry_pipeline(self, tmp_path, capsys) -> None:
        inst = worked_instance_file(tmp_path)
        assert main(["reduce", "contains-entry", inst, "--k", "0"]) == 0
        path = write_json(
            tmp_path / "ce.json", json.loads(capsys.readouterr().out)
        )

        code = main(["solve", "contains-entry", path, "--k", "0"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict == {
            "answer": True,
            "witness": "0",
            "entry": {"a": "0", "b": "0", "e": 0},
        }

        code = main(["solve", "contains-entry", path, "--k", "7"])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict["answer"] is False

    def test_circuit_extraction_matrix(self, tmp_path, capsys) -> None:
        assert main(["reduce", "circuit-extraction", "(x1 & x2) & (x1 & ~x3)"]) == 0
        path = write_json(
            tmp_path / "circ.json", json.loads(capsys.readouterr().out)
        )
        assert main(["eval", path]) == 0
        matrix = ExactMatrix.from_json(json.loads(capsys.readouterr().out))
        assert matrix.entries == {
            ("0", "0"): ExactScalar(7, 0, 0),
            ("0", "1"): ExactScalar(1, 0, 0),
            ("1", "0"): ExactScalar(1, 0, 0),
            ("1", "1"): ExactScalar(-7, 0, 0),
        }

    def test_compare_and_is_zero(self, tmp_path, capsys) -> None:
        from zhcalc.diagram import identity

        wire = diagram_file(tmp_path, "wire.json", identity(1))
        assert main(["solve", "compare", wire, wire]) == 0
        assert json.loads(capsys.readouterr().out)["answer"] is True

        zero = compose(
            gate_gadget(GateBlock.IS_TRUE), gate_gadget(GateBlock.FALSE)
        )
        zero_path = diagram_file(tmp_path, "zero.json", zero)
        assert main(["solve", "is-zero", zero_path]) == 0
        capsys.readouterr()
        assert main(["solve", "is-zero", wire]) == 1
        capsys.readouterr()


class TestVerify:
    def test_worked_instance_passes(self, tmp_path, capsys) -> None:
        inst = worked_instance_file(tmp_path)
        assert main(["verify", inst]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "0 failure(s)" in out

    def test_random_corpus_is_deterministic(self, capsys) -> None:
        assert main(["verify", "--random", "2", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--random", "2", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_reports_a_failing_reduction(self, tmp_path, capsys, monkeypatch) -> None:
        reductions = sys.modules["zhcalc.reductions"]
        monkeypatch.setattr(reductions, "solve_state_eq", lambda d1, d2: None)
        assert main(["verify", worked_instance_file(tmp_path)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if "FAIL" in line] == [
            f"{tmp_path / 'inst.json'}: FAIL state-eq found None, oracle says '0'"
        ]
        assert out[-1] == "verified 1 instance(s), 1 failure(s)"

    def test_only_verify_imports_the_corpus(self) -> None:
        # Every other command starts without compiling corpus and cnf.
        src = str(Path(sys.modules["zhcalc"].__file__).parents[1])
        probe = "import sys, zhcalc.cli; print(sorted(sys.modules))"
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert "'zhcalc.cli'" in loaded
        assert "'zhcalc.corpus'" not in loaded and "'zhcalc.cnf'" not in loaded

    def test_package_import_loads_every_library_module(self) -> None:
        # perfbench's worker imports only zhcalc, zhcalc.cnf and zhcalc.corpus
        # and reads the other modules from sys.modules, so a lazy package
        # import would fail every benchmark run.
        src = str(Path(sys.modules["zhcalc"].__file__).parents[1])
        probe = "import sys, zhcalc; print(sorted(sys.modules))"
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for name in ("diagram", "encode", "evaluate", "formula", "reductions", "scalar", "solve"):
            assert f"'zhcalc.{name}'" in loaded, name

    def test_requires_some_input(self, capsys) -> None:
        assert main(["verify"]) == 2
        assert "instance file or --random" in capsys.readouterr().err

    @pytest.mark.parametrize("with_file", [False, True], ids=["random-only", "with-file"])
    def test_refuses_a_negative_count(self, tmp_path, capsys, with_file) -> None:
        files = [worked_instance_file(tmp_path)] if with_file else []
        assert main(["verify", *files, "--random", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --random N must be non-negative\n"

    def test_deep_instance(self, tmp_path, capsys) -> None:
        # psi is 2,000 y1 conjuncts: a left-nested tree 2,000 levels deep.
        path = write_json(
            tmp_path / "deep.json",
            {"n": 1, "m": 1, "psi": " & ".join(["y1"] * 2000), "rho": "z1"},
        )
        assert main(["verify", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verified 1 instance(s), 0 failure(s)"


class TestErrors:
    def test_missing_file(self, capsys) -> None:
        assert main(["eval", "/nonexistent/diagram.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_k(self, tmp_path, capsys) -> None:
        inst = worked_instance_file(tmp_path)
        assert main(["reduce", "contains-entry", inst, "--k", "3/5"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_bad_formula_text(self, capsys) -> None:
        assert main(["encode", "x1 &", "--vars", "x1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["solve", "is-zero"]])
    @pytest.mark.parametrize(
        "endpoint",
        [
            {"node": 1, "port": "a"},
            {"node": 1, "port": False},
            {"node": [1], "port": 0},
            {"boundary": "out", "pos": 0.5},
            7,
            {"node": 1, "port": 200000},
            {"node": 1, "port": "p" * 100_000},
        ],
    )
    def test_malformed_diagram(self, tmp_path, capsys, command, endpoint) -> None:
        document = gate_gadget(GateBlock.TRUE).to_json()
        document["edges"][0][0] = endpoint
        path = write_json(tmp_path / "bad.json", document)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", [["eval"], ["solve", "is-zero"]])
    def test_huge_kind(self, tmp_path, capsys, command) -> None:
        document = gate_gadget(GateBlock.TRUE).to_json()
        document["nodes"][0]["kind"] = "k" * 100_000
        path = write_json(tmp_path / "bad.json", document)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", [["eval"], ["solve", "is-zero"]])
    def test_many_problems(self, tmp_path, capsys, command) -> None:
        # 5,000 white spiders, each with a self-loop on ports 1 and 2 and
        # port 0 dangling: 5,000 validation problems.
        nodes = [{"id": i, "kind": "Z"} for i in range(5000)]
        edges = [[{"node": i, "port": 1}, {"node": i, "port": 2}] for i in range(5000)]
        document = {"nodes": nodes, "edges": edges, "inputs": [], "outputs": []}
        path = write_json(tmp_path / "dangling.json", document)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "text",
        ["x1 & $" + "x" * 100_000, "x1 " + "x" * 100_000],
        ids=["bad-character", "trailing-name"],
    )
    def test_huge_formula_text(self, capsys, text) -> None:
        assert main(["count", text, "--vars", "x1"]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", [["reduce", "state-eq"], ["verify"]])
    @pytest.mark.parametrize(
        "patch",
        [
            {"n": None},
            {"m": "2"},
            {"n": True},
            {"psi": 5},
            {"rho": None},
            {"n": -1, "psi": "y1", "rho": "z1"},
            {"psi": ["x1"] * 50_000},
            {"n": "n" * 100_000},
            {"psi": "x1 & $" + "x" * 100_000},
            {"psi": " & ".join(f"w{i}" for i in range(500))},
        ],
    )
    def test_malformed_instance(self, tmp_path, capsys, command, patch) -> None:
        document = json.loads(Path(worked_instance_file(tmp_path)).read_text())
        path = write_json(tmp_path / "bad.json", document | patch)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", [["reduce", "state-eq"], ["verify"]])
    @pytest.mark.parametrize("patch", [{"n": 10**8}, {"m": 10**8}])
    def test_oversized_instance(self, tmp_path, capsys, monkeypatch, command, patch) -> None:
        # The refusal must come before any variable name is built; a
        # regression fails here instead of building 10**8 names.
        for attr in ("x_vars", "y_vars", "z_vars"):
            monkeypatch.setattr(SatCompareInstance, attr, property(_never_name))
        document = json.loads(Path(worked_instance_file(tmp_path)).read_text())
        path = write_json(tmp_path / "big.json", document | patch)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"inputs": 5}, "error: 'inputs' must be a JSON array, got 5"),
            ({"nodes": "abc"}, "error: 'nodes' must be a JSON array, got 'abc'"),
        ],
        ids=["int-inputs", "string-nodes"],
    )
    def test_diagram_key_of_the_wrong_type(self, tmp_path, capsys, patch, message) -> None:
        document = {"nodes": [], "edges": [], "inputs": [], "outputs": []} | patch
        path = write_json(tmp_path / "bad.json", document)
        assert main(["eval", path]) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_diagram_key_missing(self, tmp_path, capsys) -> None:
        path = write_json(tmp_path / "bad.json", {"nodes": [], "edges": [], "inputs": []})
        assert main(["eval", path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: diagram JSON is missing a required key: 'outputs'"
        ]

    @pytest.mark.parametrize("command", [["eval"], ["solve", "is-zero"]])
    @pytest.mark.parametrize(
        "document, shown",
        [([1], "[1]"), ("abc", "'abc'"), (5, "5"), (None, "None")],
        ids=["list", "string", "int", "null"],
    )
    def test_non_object_diagram(self, tmp_path, capsys, command, document, shown) -> None:
        path = write_json(tmp_path / "bad.json", document)
        assert main(command + [path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: diagram JSON must be an object, got {shown}"
        ]

    def test_non_object_instance(self, tmp_path, capsys) -> None:
        path = write_json(tmp_path / "list.json", [])
        assert main(["verify", path]) == 2
        self._assert_one_error_line(capsys)

    def test_empty_variable_list(self, capsys) -> None:
        assert main(["count", "x1", "--vars", ","]) == 2
        self._assert_one_error_line(capsys)

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch) -> None:
        def exhaust(diagram):
            raise MemoryError

        monkeypatch.setattr(sys.modules["zhcalc.cli"], "evaluate", exhaust)
        path = diagram_file(tmp_path, "box.json", generator(GeneratorKind.H_BOX, 1, 1))
        assert main(["eval", path]) == 2
        err = capsys.readouterr().err
        assert err == "error: ran out of memory\n"

    @staticmethod
    def _assert_one_error_line(capsys) -> None:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "Traceback" not in err[0]
        assert len(err[0]) < 200

    @pytest.mark.parametrize("command", [["eval"], ["solve", "is-zero"]])
    def test_wide_h_box_is_refused_unenumerated(
        self, tmp_path, capsys, monkeypatch, command
    ) -> None:
        # One H box with 15 self-loops: 2^30 leg patterns if enumerated.
        # The refusal must come before any support is enumerated.
        monkeypatch.setattr(sys.modules["zhcalc.evaluate"], "_generator_support", _never_enumerate)
        loops = [[{"node": 0, "port": 2 * i}, {"node": 0, "port": 2 * i + 1}] for i in range(15)]
        document = {"nodes": [{"id": 0, "kind": "H"}], "edges": loops, "inputs": [], "outputs": []}
        path = write_json(tmp_path / "wide.json", document)
        assert main(command + [path]) == 2
        self._assert_one_error_line(capsys)

    def test_usage_error_exits_two(self) -> None:
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2


# -- fuzzing the diagram readers ---------------------------------------------

_KINDS = [kind.value for kind in GeneratorKind]
_values = st.one_of(
    st.integers(-2, 5),
    st.sampled_from(_KINDS + ["in", "out", 10**9]),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    # An explicit alphabet: unrestricted text makes Hypothesis build its
    # Unicode tables on the first draw, which a cold cache cannot do
    # inside the health check's time limit.
    st.text(alphabet='a9 é"\\{', max_size=3),
    st.lists(st.integers(-2, 5), max_size=2),
)
_small = st.integers(0, 3)
_endpoint = st.fixed_dictionaries({"node": _small, "port": _small}) | st.fixed_dictionaries(
    {"boundary": st.sampled_from(["in", "out"]), "pos": st.integers(0, 1)}
)
_well_typed = st.fixed_dictionaries(
    {
        "nodes": st.lists(
            st.fixed_dictionaries({"id": _small, "kind": st.sampled_from(_KINDS)}), max_size=3
        ),
        "edges": st.lists(st.lists(_endpoint, min_size=2, max_size=2), max_size=4),
        "inputs": st.lists(_endpoint, max_size=2),
        "outputs": st.lists(_endpoint, max_size=2),
    }
)


def _slots(tree) -> list:
    """Every (container, key) pair in a JSON tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return []
    return [slot for key, child in items for slot in [(tree, key), *_slots(child)]]


@st.composite
def _diagram_documents(draw):
    """A document with the schema's keys and types, then up to two of its
    parts dropped or swapped for a value of any type."""
    root = [draw(_well_typed)]
    for _ in range(draw(st.integers(0, 2))):
        parent, key = draw(st.sampled_from(_slots(root)))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_values)
    return root[0]


# The deadline is sized for two CLI calls of up to a second each. On a
# 2-core x86-64 VM an in-process call takes 3-43 ms on these documents (the
# first about 12 ms, mostly building the argument parser), but first calls
# on a loaded host have stalled for 390-800 ms outside the program, past
# the 200 ms default.
@given(document=_diagram_documents())
@settings(max_examples=200, deadline=2000)
def test_diagram_readers_fail_cleanly(document) -> None:
    with tempfile.TemporaryDirectory() as folder:
        path = write_json(Path(folder) / "fuzz.json", document)
        for command in (["eval"], ["solve", "is-zero"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(command + [path])
            assert code in (0, 1, 2)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines


# -- fuzzing formula text ------------------------------------------------------

def _formula_texts(atoms: list[str]):
    """Formula text over ``atoms``: half the draws well formed, half
    token soup (mostly invalid). About 12 tokens at most: each <->
    doubles the encoded tree, so longer draws could cost exponential
    time without testing anything new."""
    well_formed = st.recursive(
        st.sampled_from(atoms),
        lambda inner: inner.map("~{}".format)
        | st.builds("({} {} {})".format, inner, st.sampled_from(["&", "|", "->", "<->"]), inner),
        max_leaves=4,
    )
    tokens = atoms + ["~", "&", "|", "->", "<->", "(", ")", "$"]
    return well_formed | st.lists(st.sampled_from(tokens), max_size=12).map(" ".join)


def _run(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stdout; exit 2 must come with
    exactly one short ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and len(lines[0]) < 200, lines
    return code, out.getvalue()


@given(text=_formula_texts(["x1", "x2", "y1", "T", "F"]))
@settings(max_examples=150)
def test_formula_commands_fail_cleanly(text) -> None:
    # "--" ends the options, as a shell user must write it before a
    # formula such as "->" that argparse would read as an option. y1 is
    # left out of --vars, so some well-formed draws must be refused.
    code, out = _run(["count", "--vars", "x1,x2", "--", text])
    if code == 0:
        models = count_sat(parse_formula(text), ("x1", "x2"))
        assert out.splitlines()[1:] == [f"count: {models}", f"oracle: {models}"]
    _run(["reduce", "circuit-extraction", "--", text])


@given(psi=_formula_texts(["x1", "y1", "T", "F"]), rho=_formula_texts(["x1", "z1", "T", "F"]))
@settings(max_examples=60)
def test_verify_fails_cleanly_on_formula_text(psi, rho) -> None:
    with tempfile.TemporaryDirectory() as folder:
        path = write_json(Path(folder) / "inst.json", {"n": 1, "m": 1, "psi": psi, "rho": rho})
        _run(["verify", path])
