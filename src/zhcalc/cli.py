"""Command-line front end.

Subcommands cover the full pipeline: evaluate a diagram file, encode a
formula, count its models, materialize the three reductions, run the
brute-force solvers, and cross-verify reductions against the formula
oracle.  Solver verdicts are single-line JSON objects of the form
{"answer": bool, "witness": bits-or-null, "entry": scalar-or-null}.

Exit codes: 0 for success (including a True decision), 1 for a False
or absent decision from a solve subcommand, 2 for any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .diagram import Diagram
from .encode import counting_state, encode_formula
from .evaluate import evaluate
from .formula import (
    FormulaError,
    SatCompareInstance,
    _bounded,
    count_sat,
    formula_vars,
    parse_formula,
)
from .frozen import _brief
from .reductions import (
    DyadicK,
    build_circuit_extraction,
    build_contains_entry,
    build_state_eq,
    verify_instance,
)
from .scalar import ExactScalar
from .solve import (
    compare_diagrams,
    is_zero,
    solve_contains_entry,
    solve_state_eq,
)


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_diagram(path: str) -> Diagram:
    return Diagram.from_json(_load_json(path))


def _load_instance(path: str) -> SatCompareInstance:
    return SatCompareInstance.from_json(_load_json(path))


def _parse_vars(text: str) -> list[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError("empty variable list")
    return names


_K = re.compile(r"\s*([-+]?[0-9]+)(?:/(2\^)?([0-9]+))?\s*", re.ASCII)


def _parse_k(text: str) -> DyadicK:
    """Read ``--k`` in ASCII digits: an integer, c/denominator with a
    power-of-two denominator, or the explicit c/2^d form."""
    match = _K.fullmatch(text)
    if match is None:
        raise ValueError(f"--k must be c, c/m or c/2^d in ASCII digits, got {_brief(text)}")
    numerator, power, denominator = match.groups()
    d = int(denominator or 0)
    if denominator and not power:
        if d == 0 or d & (d - 1):
            raise ValueError(f"--k denominator {d} is not a power of two")
        d = d.bit_length() - 1
    return DyadicK.make(int(numerator), d)


def _emit(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _verdict(
    answer: bool,
    witness: Optional[str],
    entry: Optional[ExactScalar],
) -> int:
    document = {
        "answer": answer,
        "witness": witness,
        "entry": None if entry is None else entry.to_json(),
    }
    print(json.dumps(document))
    return 0 if answer else 1


def _int_scalar(value: ExactScalar) -> int:
    if value.b != 0 or value.e != 0:
        raise ValueError(f"{value} is not a plain integer")
    return value.a


def _ket_sum(c1: int, c0: int) -> str:
    terms = []
    for coefficient, label in ((c1, "|1>"), (c0, "|0>")):
        if coefficient == 0:
            continue
        terms.append(label if coefficient == 1 else f"{coefficient}{label}")
    return " + ".join(terms) if terms else "0"


# -- handlers ---------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    diagram = _load_diagram(args.diagram)
    matrix = evaluate(diagram)
    if diagram.n_in == 0 and diagram.n_out == 0:
        _emit({"scalar": matrix.entry("", "").to_json()})
    else:
        _emit(matrix.to_json())
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    phi = parse_formula(args.formula)
    _emit(encode_formula(phi, _parse_vars(args.vars)).to_json())
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    phi = parse_formula(args.formula)
    names = _bounded(_parse_vars(args.vars))  # refuse before contracting
    matrix = evaluate(counting_state(phi, names))
    c1 = _int_scalar(matrix.entry("1", ""))
    c0 = _int_scalar(matrix.entry("0", ""))
    oracle = count_sat(phi, names)
    print(f"state: {_ket_sum(c1, c0)}")
    print(f"count: {c1}")
    print(f"oracle: {oracle}")
    if c1 != oracle or c0 != 2 ** len(names) - oracle:
        print("error: diagram count disagrees with brute force", file=sys.stderr)
        return 2
    return 0


def _cmd_reduce_state_eq(args: argparse.Namespace) -> int:
    _emit(build_state_eq(_load_instance(args.instance)).to_json())
    return 0


def _cmd_reduce_contains_entry(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    _emit(build_contains_entry(inst, _parse_k(args.k)).to_json())
    return 0


def _cmd_reduce_circuit_extraction(args: argparse.Namespace) -> int:
    phi = parse_formula(args.formula)
    names = _parse_vars(args.vars) if args.vars else list(formula_vars(phi))
    _emit(build_circuit_extraction(phi, names).to_json())
    return 0


def _cmd_solve_state_eq(args: argparse.Namespace) -> int:
    witness = solve_state_eq(_load_diagram(args.d1), _load_diagram(args.d2))
    return _verdict(witness is not None, None if witness is None else str(witness), None)


def _cmd_solve_contains_entry(args: argparse.Namespace) -> int:
    k = _parse_k(args.k)
    hit = solve_contains_entry(_load_diagram(args.diagram), k.value)
    if hit is None:
        return _verdict(False, None, None)
    row, col = hit
    return _verdict(True, str(row) + str(col), k.value)


def _cmd_solve_compare(args: argparse.Namespace) -> int:
    equal = compare_diagrams(_load_diagram(args.d1), _load_diagram(args.d2))
    return _verdict(equal, None, None)


def _cmd_solve_is_zero(args: argparse.Namespace) -> int:
    return _verdict(is_zero(_load_diagram(args.diagram)), None, None)


def _cmd_verify(args: argparse.Namespace) -> int:
    # Only this command draws random instances; importing the corpus here
    # keeps it (and the CNF module it needs) out of every other command.
    from .corpus import random_sat_compare

    if args.random < 0:
        raise ValueError("--random N must be non-negative")
    if args.instance is None and not args.random:
        print("error: give an instance file or --random N", file=sys.stderr)
        return 2
    labelled: list[tuple[str, SatCompareInstance]] = []
    if args.instance is not None:
        labelled.append((args.instance, _load_instance(args.instance)))
    rng = random.Random(args.seed)
    for index in range(args.random):
        labelled.append((f"random[{index}]", random_sat_compare(rng)))

    bad = 0
    for label, inst in labelled:
        failures = verify_instance(inst)
        if failures:
            bad += 1
            for note in failures:
                print(f"{label}: FAIL {note}")
        else:
            print(f"{label}: ok")
    print(f"verified {len(labelled)} instance(s), {bad} failure(s)")
    return 2 if bad else 0


# -- parser -----------------------------------------------------------------


@functools.cache  # built once per process: in-process callers reuse it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zhcalc",
        description="Exact evaluation, encoding, and reductions for "
        "phase-free diagram problems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("eval", help="evaluate a diagram JSON file")
    cmd.add_argument("diagram")
    cmd.set_defaults(handler=_cmd_eval)

    cmd = commands.add_parser("encode", help="encode a formula as a diagram")
    cmd.add_argument("formula")
    cmd.add_argument("--vars", required=True, help="comma-separated input order")
    cmd.set_defaults(handler=_cmd_encode)

    cmd = commands.add_parser("count", help="model count through the diagram")
    cmd.add_argument("formula")
    cmd.add_argument("--vars", required=True, help="comma-separated input order")
    cmd.set_defaults(handler=_cmd_count)

    reduce_cmd = commands.add_parser("reduce", help="materialize a reduction")
    reducers = reduce_cmd.add_subparsers(dest="reduction", required=True)

    cmd = reducers.add_parser("state-eq", help="instance file to diagram pair")
    cmd.add_argument("instance")
    cmd.set_defaults(handler=_cmd_reduce_state_eq)

    cmd = reducers.add_parser("contains-entry", help="instance file to diagram")
    cmd.add_argument("instance")
    cmd.add_argument("--k", required=True, help="dyadic value, e.g. 3/4 or -5/2^3")
    cmd.set_defaults(handler=_cmd_reduce_contains_entry)

    cmd = reducers.add_parser(
        "circuit-extraction", help="formula to a one-wire unitary block"
    )
    cmd.add_argument("formula")
    cmd.add_argument("--vars", help="comma-separated count variables")
    cmd.set_defaults(handler=_cmd_reduce_circuit_extraction)

    solve_cmd = commands.add_parser("solve", help="brute-force decisions")
    solvers = solve_cmd.add_subparsers(dest="problem", required=True)

    cmd = solvers.add_parser("state-eq", help="find an agreeing basis input")
    cmd.add_argument("d1")
    cmd.add_argument("d2")
    cmd.set_defaults(handler=_cmd_solve_state_eq)

    cmd = solvers.add_parser("contains-entry", help="find a matrix position")
    cmd.add_argument("diagram")
    cmd.add_argument("--k", required=True, help="dyadic value, e.g. 3/4 or -5/2^3")
    cmd.set_defaults(handler=_cmd_solve_contains_entry)

    cmd = solvers.add_parser("compare", help="exact matrix equality")
    cmd.add_argument("d1")
    cmd.add_argument("d2")
    cmd.set_defaults(handler=_cmd_solve_compare)

    cmd = solvers.add_parser("is-zero", help="all-zero matrix test")
    cmd.add_argument("diagram")
    cmd.set_defaults(handler=_cmd_solve_is_zero)

    cmd = commands.add_parser(
        "verify", help="reduction/oracle agreement for instances"
    )
    cmd.add_argument("instance", nargs="?")
    cmd.add_argument("--random", type=int, default=0, metavar="N",
                     help="also check N seeded random instances")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, KeyError, RuntimeError, FormulaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is empty, so name the cause
        print("error: ran out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
