"""Spans around calls into zhcalc's public functions.

The tracer wraps each function in ``TRACED`` by rebinding every module
attribute that holds it, so calls made from other zhcalc modules (which
bound the name at import time with ``from .x import f``) go through the
wrapper too. Methods are wrapped on their class. ``zhcalc/__init__``
re-exports the function ``evaluate`` under its submodule's name, so
modules are looked up in ``sys.modules`` rather than imported by name.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index
of the enclosing span or -1, and ``op`` the benchmark operation that
caused it. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = (
    ("zhcalc.evaluate", "evaluate"),
    ("zhcalc.evaluate", "apply_basis"),
    ("zhcalc.diagram", "compose"),
    ("zhcalc.diagram", "tensor"),
    ("zhcalc.diagram", "tensor_all"),
    ("zhcalc.diagram", "Diagram.validate"),
    ("zhcalc.diagram", "Diagram.to_json"),
    ("zhcalc.diagram", "Diagram.from_json"),
    ("zhcalc.encode", "encode_formula"),
    ("zhcalc.encode", "counting_state"),
    ("zhcalc.reductions", "build_state_eq"),
    ("zhcalc.reductions", "build_contains_entry"),
    ("zhcalc.solve", "solve_state_eq"),
    ("zhcalc.solve", "solve_contains_entry"),
    ("zhcalc.solve", "solve_sat_compare"),
    ("zhcalc.formula", "count_sat"),
    ("zhcalc.formula", "substitute"),
    ("zhcalc.cnf", "from_dimacs"),
    ("zhcalc.cnf", "CnfFormula.to_formula"),
)

SPAN_NAMES = tuple(f"{module[len('zhcalc.'):]}.{qual}" for module, qual in TRACED)

DECISIONS = ("solve.solve_state_eq", "solve.solve_contains_entry")


class Tracer:
    """Records spans and the node count of every Diagram constructed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.nodes_built = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "zhcalc" or name.startswith("zhcalc.")
        ]
        for (module_name, qual), span_name in zip(TRACED, SPAN_NAMES):
            module = sys.modules[module_name]
            if "." in qual:
                class_name, attr = qual.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, raw)
                self._rebind(cls, attr, wrapped)
                continue
            original = getattr(module, qual)
            wrapped = self._wrap(span_name, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, wrapped)

        diagram_cls = sys.modules["zhcalc.diagram"].Diagram
        post_init = diagram_cls.__dict__["__post_init__"]

        def counted_post_init(diagram) -> None:
            post_init(diagram)
            self.nodes_built += len(diagram.nodes)

        self._rebind(diagram_cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A function calling itself (substitute walks the formula
            # recursively) stays inside its outermost span.
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced


def layer_totals(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, busy seconds, self seconds].

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for index, (name, start, end, _, _) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[index]
    return totals


def decision_counts(spans: list[list]) -> tuple[int, int]:
    """(solver decisions, evaluate calls made inside them)."""
    decisions = 0
    evals = 0
    for name, _, _, parent, _ in spans:
        if name in DECISIONS:
            decisions += 1
        elif name == "evaluate.evaluate":
            while parent >= 0 and spans[parent][0] not in DECISIONS:
                parent = spans[parent][3]
            evals += parent >= 0
    return decisions, evals
