"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
for _module in ("zhcalc", "zhcalc.cnf", "zhcalc.corpus"):
    importlib.import_module(_module)

import worker  # noqa: E402
from spans import Tracer, decision_counts, layer_totals  # noqa: E402


@pytest.mark.parametrize(
    "name, ops",
    [("oracle-suite", [0]), ("count-ladder", [0, 1]), ("cli-roundtrip", [0, 1])],
)
def test_one_op_per_workload(monkeypatch, name, ops):
    monkeypatch.setattr(worker, "ROOT", REPO)
    workload = worker.WORKLOADS[name](424242)
    try:
        result = worker.run_ops(workload, ops)
    finally:
        workload.close()
    assert result["wrong"] is None
    assert result["failed"] == {}
    assert len(result["latencies_s"]) == len(ops)


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _copy_benchmark(into: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", into)
    shutil.copytree(HERE, into / "perfbench", ignore=shutil.ignore_patterns("out"))


def test_wrong_answer_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(REPO / "src", tmp_path / "src")
    solve = tmp_path / "src" / "zhcalc" / "solve.py"
    text = solve.read_text()
    assert text.count("            return state\n") == 1
    broken = text.replace("            return state\n", "            return None\n")
    solve.write_text(broken)
    done = _run_bench(tmp_path, "--workload", "oracle-suite", "--seed", "424242",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode == 1
    assert "wrong answer" in done.stderr
    assert '"metrics"' not in done.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    _copy_benchmark(tmp_path)
    done = _run_bench(tmp_path, "--workload", "count-ladder", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["c", 2.0, 3.0, 1, 1],
        ["b", 5.0, 6.0, 0, 1],
    ]
    totals = layer_totals(spans)
    assert totals["a"] == [1, 10.0, 6.0]
    assert totals["b"] == [2, 4.0, 3.0]
    assert totals["c"] == [1, 1.0, 1.0]


def test_tracer_records_nested_spans_and_uninstalls():
    solve = sys.modules["zhcalc.solve"]
    reductions = sys.modules["zhcalc.reductions"]
    formula = sys.modules["zhcalc.formula"]
    inst = formula.SatCompareInstance(
        n=1, m=1,
        psi=formula.parse_formula("x1 | y1"),
        rho=formula.parse_formula("~x1 & z1"),
    )
    original = solve.apply_basis
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 7
        pair = reductions.build_state_eq(inst)
        solve.solve_state_eq(pair.d1, pair.d2)
    finally:
        tracer.uninstall()
    assert solve.apply_basis is original

    names = [span[0] for span in tracer.spans]
    assert "solve.solve_state_eq" in names
    for name, start, end, parent, op in tracer.spans:
        assert op == 7 and end >= start
        if name == "evaluate.apply_basis":
            assert tracer.spans[parent][0] == "solve.solve_state_eq"
        if name == "evaluate.evaluate":
            assert tracer.spans[parent][0] == "evaluate.apply_basis"
    decisions, evals = decision_counts(tracer.spans)
    assert decisions == 1 and evals >= 2
    assert tracer.nodes_built > 0
    totals = layer_totals(tracer.spans)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(row[2] for row in totals.values()) == pytest.approx(roots)
    # cli_launcher.py writes spans as JSON
    assert json.loads(json.dumps(tracer.spans)) == tracer.spans
