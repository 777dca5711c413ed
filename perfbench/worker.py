"""One benchmark workload in its own process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Run from the root of a zhcalc checkout. The worker caps its own address
space, imports zhcalc from ``src/``, generates the workload's inputs
from SEED (the set-up), and then either

* TRACE 0: runs ops in a closed loop, one client, until SECONDS of op
  time have passed, checking every answer against its oracle outside
  the op's timing; or
* TRACE 1: runs a fixed number of ops untraced, then the same ops with
  spans recorded around zhcalc's public functions, and reports the
  per-layer totals.

It prints one JSON object as its last line of output. ``run.py`` turns
that into the benchmark's metrics.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import timeit
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
ROOT = Path.cwd()

# Every workload process, and the CLI children it starts, runs under this
# address-space cap, so an oversized contraction raises MemoryError in
# the op instead of the kernel killing the process.
ADDRESS_SPACE_CAP = 1 << 30

# oracle-suite: the check-7 stream, minus instances whose arrow-expanded
# formulae have more than this many leaves. On the seed engine those take
# from 1 s to over 100 s each (seed 1, instance 37 did not finish in
# 100 s), which no run of bounded length can hold.
MAX_LEAVES = 16

# peak_rss_mb of the in-process workloads is the median over this many
# ops, each run in a forked copy of the workload process.
MEMORY_OPS = 21

# count-ladder rungs (variables, clauses), used in turn.
RUNGS = ((5, 10), (6, 12))


class StepFailed(Exception):
    """A CLI call exited with code 2 or printed a traceback."""


def leaves(phi) -> int:
    """Variable and constant occurrences once -> and <-> are rewritten
    into and/or/not, as the encoder does; <-> doubles its operands."""
    formula = sys.modules["zhcalc.formula"]
    if isinstance(phi, (formula.Var, formula.Const)):
        return 1
    if isinstance(phi, formula.Not):
        return leaves(phi.child)
    both = leaves(phi.left) + leaves(phi.right)
    return 2 * both if isinstance(phi, formula.Iff) else both


def witness_bits(inst, valuation) -> str | None:
    if valuation is None:
        return None
    return "".join("1" if valuation[x] else "0" for x in inst.x_vars)


def three_cnf(rng: random.Random, n: int, m: int) -> str:
    """DIMACS text of m clauses, each over 3 distinct variables of n,
    with random signs."""
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        picked = rng.sample(range(1, n + 1), 3)
        literals = [v if rng.random() < 0.5 else -v for v in picked]
        lines.append(" ".join(map(str, literals)) + " 0")
    return "\n".join(lines) + "\n"


class OracleSuite:
    """One op takes one comparison instance through five routes: the
    formula oracle, state-eq, and contains-entry for k = 0, 1 and 3/4.
    Every route's witness must equal the oracle's."""

    pool_size = 4000
    trace_ops = 60
    tail_percentile = 95

    def __init__(self, seed: int) -> None:
        corpus = sys.modules["zhcalc.corpus"]
        reductions = sys.modules["zhcalc.reductions"]
        dyadic = reductions.DyadicK
        self.ks = (dyadic(0, 0), dyadic(1, 0), dyadic(3, 2))
        rng = random.Random(seed)
        self.instances = []
        self.skipped = 0
        while len(self.instances) < self.pool_size:
            inst = corpus.random_sat_compare(rng)
            if max(leaves(inst.psi), leaves(inst.rho)) > MAX_LEAVES:
                self.skipped += 1
            else:
                self.instances.append(inst)

    def facts(self) -> dict:
        drawn = self.skipped + len(self.instances)
        return {"max_leaves": MAX_LEAVES, "skipped_share": self.skipped / drawn}

    def label(self, i: int) -> str:
        return "instance"

    def op(self, i: int):
        solve = sys.modules["zhcalc.solve"]
        reductions = sys.modules["zhcalc.reductions"]
        inst = self.instances[i % len(self.instances)]
        answers = [witness_bits(inst, solve.solve_sat_compare(inst))]
        pair = reductions.build_state_eq(inst)
        found = solve.solve_state_eq(pair.d1, pair.d2)
        answers.append(None if found is None else str(found))
        for k in self.ks:
            built = reductions.build_contains_entry(inst, k)
            hit = solve.solve_contains_entry(built, k.value)
            answers.append(None if hit is None else str(hit[1]))
        return answers

    def check(self, i: int, answers) -> str | None:
        expected = answers[0]
        routes = ["state-eq"] + [f"contains-entry k={k}" for k in self.ks]
        for route, got in zip(routes, answers[1:]):
            if got != expected:
                return f"instance {i}: {route} found {got!r}, oracle says {expected!r}"
        return None

    def close(self) -> None:
        pass


class CountLadder:
    """One op parses a seeded random 3-CNF from DIMACS text and counts
    its models through the counting-state diagram; the count must equal
    count_sat, which runs outside the op's timing."""

    pool_size = 4000
    trace_ops = 40
    tail_percentile = 95

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.texts = [
            three_cnf(rng, *RUNGS[i % len(RUNGS)]) for i in range(self.pool_size)
        ]

    def facts(self) -> dict:
        return {"rungs": [list(rung) for rung in RUNGS]}

    def label(self, i: int) -> str:
        n, m = RUNGS[i % len(RUNGS)]
        return f"n{n}_m{m}"

    def op(self, i: int):
        cnf_mod = sys.modules["zhcalc.cnf"]
        encode = sys.modules["zhcalc.encode"]
        evaluate = sys.modules["zhcalc.evaluate"]
        cnf = cnf_mod.from_dimacs(self.texts[i % len(self.texts)])
        phi = cnf.to_formula()
        matrix = evaluate.evaluate(encode.counting_state(phi, cnf.variables))
        return phi, cnf.variables, matrix

    def check(self, i: int, result) -> str | None:
        formula = sys.modules["zhcalc.formula"]
        scalar = sys.modules["zhcalc.scalar"]
        phi, variables, matrix = result
        models = formula.count_sat(phi, variables)
        want = {
            ("1", ""): scalar.ExactScalar(models, 0, 0),
            ("0", ""): scalar.ExactScalar(2 ** len(variables) - models, 0, 0),
        }
        got = {key: matrix.entry(*key) for key in want}
        if got != want:
            return f"formula {i}: counting state {got}, count_sat gives {models}"
        return None

    def close(self) -> None:
        pass


CLI_STEPS = (
    "reduce_state_eq",
    "solve_state_eq",
    "reduce_contains_entry",
    "solve_contains_entry",
    "eval",
    "count",
)


class CliRoundtrip:
    """Each op is one ``zhcalc`` CLI call in a fresh interpreter. One
    instance takes six calls in turn: reduce state-eq, solve state-eq,
    reduce contains-entry --k 3/4, solve contains-entry, eval of the
    first state-eq diagram, and count of psi. Every verdict and printed
    value is checked against the library oracle computed at set-up."""

    pool_size = 200
    trace_ops = 3 * len(CLI_STEPS)
    tail_percentile = 90

    def __init__(self, seed: int) -> None:
        corpus = sys.modules["zhcalc.corpus"]
        formula = sys.modules["zhcalc.formula"]
        solve = sys.modules["zhcalc.solve"]
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=OUT_DIR))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.launcher: list[str] | None = None
        self.span_files: list[tuple[int, Path]] = []
        rng = random.Random(seed)
        self.cases = []
        for index in range(self.pool_size):
            inst = corpus.random_sat_compare(
                rng, max_shared=2, max_extras=2, max_depth=2
            )
            (self.dir / f"inst{index}.json").write_text(json.dumps(inst.to_json()))
            entries = {}
            for valuation in formula.assignments(inst.x_vars):
                pinned = formula.substitute(inst.psi, valuation)
                count = formula.count_sat(pinned, inst.y_vars)
                if count:
                    entries[witness_bits(inst, valuation)] = count
            names = inst.x_vars + inst.y_vars
            self.cases.append({
                "witness": witness_bits(inst, solve.solve_sat_compare(inst)),
                "d1_entries": entries,
                "formula": formula.format_formula(inst.psi),
                "vars": ",".join(names),
                "models": formula.count_sat(inst.psi, names),
            })

    def facts(self) -> dict:
        return {"calls_per_instance": len(CLI_STEPS)}

    def label(self, i: int) -> str:
        return CLI_STEPS[i % len(CLI_STEPS)]

    def _args(self, i: int) -> list[str]:
        index = (i // len(CLI_STEPS)) % self.pool_size
        case = self.cases[index]
        inst, d1, d2, ce = (
            str(self.dir / f"{name}{index}.json")
            for name in ("inst", "d1_", "d2_", "ce")
        )
        return {
            "reduce_state_eq": ["reduce", "state-eq", inst],
            "solve_state_eq": ["solve", "state-eq", d1, d2],
            "reduce_contains_entry": ["reduce", "contains-entry", inst, "--k", "3/4"],
            "solve_contains_entry": ["solve", "contains-entry", ce, "--k", "3/4"],
            "eval": ["eval", d1],
            "count": ["count", case["formula"], "--vars", case["vars"]],
        }[self.label(i)]

    def op(self, i: int):
        if self.launcher is None:
            command = [sys.executable, "-m", "zhcalc.cli"]
        else:
            spans = self.dir / f"spans{i}.json"
            self.span_files.append((i, spans))
            command = self.launcher + [str(spans), str(i)]
        done = subprocess.run(
            command + self._args(i),
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        if done.returncode not in (0, 1) or "Traceback" in done.stderr:
            raise StepFailed(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        return done.returncode, done.stdout

    def check(self, i: int, result) -> str | None:
        code, stdout = result
        index = (i // len(CLI_STEPS)) % self.pool_size
        case = self.cases[index]
        step = self.label(i)
        where = f"instance {index} {step}"
        if step.startswith("solve_"):
            verdict = json.loads(stdout)
            expected = case["witness"]
            found = verdict["answer"], verdict["witness"]
            if found != (expected is not None, expected):
                return f"{where}: verdict {verdict}, oracle witness {expected!r}"
            if code != (0 if verdict["answer"] else 1):
                return f"{where}: exit code {code} for answer {verdict['answer']}"
            return None
        if code != 0:
            return f"{where}: exit code {code}"
        # The reduce outputs become the next calls' input files.
        if step == "reduce_state_eq":
            pair = json.loads(stdout)
            for name in ("d1", "d2"):
                (self.dir / f"{name}_{index}.json").write_text(json.dumps(pair[name]))
        elif step == "reduce_contains_entry":
            (self.dir / f"ce{index}.json").write_text(stdout)
        elif step == "eval":
            got = {}
            for entry in json.loads(stdout)["entries"]:
                value = entry["val"]
                got[entry["col"]] = (int(value["a"]), int(value["b"]), int(value["e"]))
            want = {col: (count, 0, 0) for col, count in case["d1_entries"].items()}
            if got != want:
                return f"{where}: entries {got}, oracle {want}"
        elif step == "count":
            lines = dict(line.split(": ", 1) for line in stdout.splitlines())
            models = case["models"]
            if int(lines["count"]) != models:
                return f"{where}: count {lines['count']}, count_sat gives {models}"
        return None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "oracle-suite": OracleSuite,
    "count-ladder": CountLadder,
    "cli-roundtrip": CliRoundtrip,
}


def failure_types() -> tuple[type[BaseException], ...]:
    """The typed size errors and resource failures an op may end in
    without the answer being wrong."""
    return (
        MemoryError,
        sys.modules["zhcalc.evaluate"].TooLarge,
        sys.modules["zhcalc.solve"].TooManyWires,
        StepFailed,
        subprocess.TimeoutExpired,
    )


def reference_s() -> float:
    """Seconds a fixed pure-Python task takes: tuple-keyed dict updates
    with integer shifts, like the contraction engine's table work. Timed
    after every op, it tells how fast the machine runs at that moment;
    on a shared 2-core x86-64 VM with Python 3.11 it moved between about
    0.9 and 1.9 ms within minutes."""
    start = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + (i * i >> 3)
    return perf_counter() - start


def run_ops(workload, indices, *, seconds: float | None = None, tracer=None) -> dict:
    """Run ops in a closed loop, each checked after its timing ends.

    With ``seconds`` the loop stops once that much op time has passed;
    otherwise it runs every index. Returns latencies and labels of every
    op attempted, the reference time taken after each, failure counts by
    type, and the first wrong answer.
    """
    failures = failure_types()
    latencies: list[float] = []
    references: list[float] = []
    labels: list[str] = []
    failed: Counter[str] = Counter()
    wrong = None
    timed = 0.0
    for i in indices:
        if seconds is not None and timed >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result = workload.op(i)
        except failures as exc:
            result = exc
        elapsed = perf_counter() - start
        timed += elapsed
        latencies.append(elapsed)
        labels.append(workload.label(i))
        references.append(reference_s())
        if isinstance(result, BaseException):
            failed[type(result).__name__] += 1
            continue
        wrong = workload.check(i, result)
        if wrong:
            break
    return {
        "latencies_s": latencies,
        "references_s": references,
        "labels": labels,
        "failed": dict(failed),
        "wrong": wrong,
    }


def forked_peak_rss_mb(workload) -> float:
    """Median over MEMORY_OPS ops of the peak resident set of a forked
    copy of this process that runs one op. A fork inherits the resident
    set, so this runs before the timed loop grows the heap; the process's
    own peak would report only the largest op of the run."""
    failures = failure_types()
    peaks = []
    for i in range(1, MEMORY_OPS + 1):
        pid = os.fork()
        if pid == 0:
            try:
                workload.op(i)
            except failures:
                pass
            finally:
                os._exit(0)
        _, _, usage = os.wait4(pid, 0)
        peaks.append(usage.ru_maxrss / 1024)
    return median(peaks)


def scalar_ns() -> dict[str, float]:
    """Median nanoseconds per ExactScalar add, mul, and canonicalization
    of a value with exponent 400."""
    exact = sys.modules["zhcalc.scalar"].ExactScalar
    x = exact(12345, -678, 9)
    y = exact(-31, 4099, 3)
    cases = {
        "scalar.add_ns": (lambda: x + y, 20000),
        "scalar.mul_ns": (lambda: x * y, 20000),
        "scalar.canon_e400_ns": (lambda: exact(3 << 400, 5 << 400, 400), 500),
    }
    out = {}
    for name, (fn, number) in cases.items():
        runs = sorted(timeit.repeat(fn, number=number, repeat=5))
        out[name] = runs[2] / number * 1e9
    return out


def traced_run(workload, spans_path: Path) -> dict:
    """The same fixed ops untraced, then traced; per-layer totals."""
    from spans import SPAN_NAMES, Tracer, decision_counts, layer_totals

    indices = range(1, workload.trace_ops + 1)
    plain = run_ops(workload, indices)
    tracer = Tracer()
    spans: list[list] = tracer.spans
    nodes_built = 0
    import_s: list[float] = []
    if isinstance(workload, CliRoundtrip):
        workload.launcher = [sys.executable, str(HERE / "cli_launcher.py")]
        traced = run_ops(workload, indices)
        for op, path in workload.span_files:
            child = json.loads(path.read_text())
            offset = len(spans)
            for name, start, end, parent, _ in child["spans"]:
                parent = parent + offset if parent >= 0 else -1
                spans.append([name, start, end, parent, op])
            nodes_built += child["nodes_built"]
            import_s.append(child["import_s"])
    else:
        tracer.install()
        try:
            traced = run_ops(workload, indices, tracer=tracer)
        finally:
            tracer.uninstall()
        nodes_built = tracer.nodes_built

    layers: dict[str, tuple[float, str]] = {}
    totals = layer_totals(spans)
    for name in SPAN_NAMES:
        calls, busy, own = totals[name]
        layers[f"{name}.calls"] = (calls, "count")
        layers[f"{name}.busy_s"] = (busy, "s")
        layers[f"{name}.self_s"] = (own, "s")
    layers.update((name, (ns, "ns")) for name, ns in scalar_ns().items())
    decisions, evals = decision_counts(spans)
    layers["diagram.nodes_built"] = (nodes_built, "count")
    per_decision = evals / decisions if decisions else 0.0
    layers["solve.evals_per_decision"] = (per_decision, "ratio")
    layers["cli.import_ms"] = (median(import_s) * 1000 if import_s else 0.0, "ms")
    for step in CLI_STEPS:
        times = [
            t
            for t, label in zip(plain["latencies_s"], plain["labels"])
            if label == step
        ]
        p50_ms = median(times) * 1000 if times else 0.0
        layers[f"cli.{step}.p50_ms"] = (p50_ms, "ms")
    def speed_scaled_s(result: dict) -> float:
        return sum(t / r for t, r in zip(result["latencies_s"], result["references_s"]))

    overhead = speed_scaled_s(traced) / speed_scaled_s(plain) - 1
    layers["trace.overhead_share"] = (overhead, "ratio")

    spans_path.write_text(json.dumps(spans))
    failed = Counter(plain["failed"]) + Counter(traced["failed"])
    return {
        "latencies_s": plain["latencies_s"] + traced["latencies_s"],
        "failed": dict(failed),
        "wrong": plain["wrong"] or traced["wrong"],
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace = argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    for module in ("zhcalc", "zhcalc.cnf", "zhcalc.corpus"):
        importlib.import_module(module)

    workload = WORKLOADS[name](seed)
    setup_s = perf_counter() - start
    try:
        report = {
            "setup_s": setup_s,
            "setup_reference_s": median(reference_s() for _ in range(9)),
        }
        if not setup_only:
            warmup = run_ops(workload, [0])  # untimed; only its answer counts
            if warmup["wrong"]:
                report.update(warmup)
            elif trace:
                OUT_DIR.mkdir(exist_ok=True)
                spans_path = OUT_DIR / f"spans-{name}-{seed}.json"
                report.update(traced_run(workload, spans_path))
            else:
                cli = isinstance(workload, CliRoundtrip)
                peak = None if cli else forked_peak_rss_mb(workload)
                report.update(run_ops(workload, range(1, 10**9), seconds=seconds))
                if cli:  # the largest CLI child
                    children = resource.getrusage(resource.RUSAGE_CHILDREN)
                    peak = children.ru_maxrss / 1024
                report["peak_rss_mb"] = peak
            report["facts"] = dict(
                workload.facts(),
                address_space_cap_mb=ADDRESS_SPACE_CAP >> 20,
                tail_percentile=workload.tail_percentile,
            )
        print(json.dumps(report))
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
