"""Compile boolean formulae into diagrams built from the six generators.

Each logic block has a declared target matrix (``gate_target``) and a
generator-only realization (``gate_gadget``); the soundness tests pin the
two together through the evaluator. ``encode_formula`` wires gadgets along
the formula tree, fanning each variable out of one white spider, and
``counting_state`` closes the variable wires with |0>+|1> plugs so the
single output wire carries the model count. ``counting_branch`` closes
only some of them, and ``stars`` and ``two_root_two`` are the closed
scalars the reductions normalize with.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .diagram import (
    Diagram,
    DiagramBuilder,
    GeneratorKind,
    NodePort,
    basis_effect,
    basis_state,
    compose,
    generator,
    identity,
    tensor,
    tensor_all,
)
from .evaluate import ExactMatrix
from .formula import (
    And,
    Const,
    Formula,
    Not,
    Or,
    UnassignedVariable,
    Var,
    eliminate_arrows,
    formula_vars,
)
from .scalar import ONE


class GateBlock(Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    BOTH = "BOTH"
    IS_TRUE = "IS_TRUE"
    NOT = "NOT"
    COPY = "COPY"
    AND = "AND"
    OR = "OR"


_TARGETS: dict[GateBlock, tuple[int, int, tuple[tuple[str, str], ...]]] = {
    GateBlock.TRUE: (1, 0, (("1", ""),)),
    GateBlock.FALSE: (1, 0, (("0", ""),)),
    GateBlock.BOTH: (1, 0, (("0", ""), ("1", ""))),
    GateBlock.IS_TRUE: (0, 1, (("", "1"),)),
    GateBlock.NOT: (1, 1, (("0", "1"), ("1", "0"))),
    GateBlock.COPY: (2, 1, (("00", "0"), ("11", "1"))),
    GateBlock.AND: (1, 2, (("0", "00"), ("0", "01"), ("0", "10"), ("1", "11"))),
    GateBlock.OR: (1, 2, (("0", "00"), ("1", "01"), ("1", "10"), ("1", "11"))),
}


def gate_target(block: GateBlock) -> ExactMatrix:
    """The declared matrix of a logic block; every listed entry is 1."""
    n_out, n_in, ones = _TARGETS[block]
    return ExactMatrix(
        n_out=n_out, n_in=n_in, entries={key: ONE for key in ones}
    )


def stars(count: int) -> Diagram:
    """``count`` star scalars, together worth 2**-count."""
    return tensor_all([generator(GeneratorKind.STAR, 0, 0)] * count)


def two_root_two() -> Diagram:
    """Closed loop evaluating to 2*sqrt(2): a dark cap tracing a white cup."""
    return compose(
        generator(GeneratorKind.DARK_SPIDER, 2, 0),
        generator(GeneratorKind.WHITE_SPIDER, 0, 2),
    )


def gate_gadget(block: GateBlock) -> Diagram:
    """A generator-only diagram whose evaluation is the block's target."""
    z = GeneratorKind.WHITE_SPIDER
    if block is GateBlock.TRUE:
        return basis_state(True)
    if block is GateBlock.FALSE:
        return basis_state(False)
    if block is GateBlock.BOTH:
        return generator(z, 0, 1)
    if block is GateBlock.IS_TRUE:
        return basis_effect(True)
    if block is GateBlock.COPY:
        return generator(z, 1, 2)
    if block is GateBlock.NOT:
        # Two stars bring the loop's 2*sqrt(2) down to 1/sqrt(2).
        flip = generator(GeneratorKind.DARK_NOT, 1, 1)
        return tensor(flip, tensor(stars(2), two_root_two()))
    if block is GateBlock.AND:
        h_small = generator(GeneratorKind.H_BOX, 1, 1)
        h_wide = generator(GeneratorKind.H_BOX, 2, 1)
        return tensor(generator(GeneratorKind.STAR, 0, 0), compose(h_small, h_wide))
    if block is GateBlock.OR:
        flip = gate_gadget(GateBlock.NOT)
        inner = compose(gate_gadget(GateBlock.AND), tensor(flip, flip))
        return compose(gate_gadget(GateBlock.NOT), inner)
    raise ValueError(f"unknown block {block}")


def _count_occurrences(phi: Formula, counts: dict[str, int]) -> None:
    match phi:
        case Var(name):
            if name not in counts:
                raise UnassignedVariable(f"{name} is not in the variable list")
            counts[name] += 1
        case Const():
            pass
        case Not(child):
            _count_occurrences(child, counts)
        case And(left, right) | Or(left, right):
            _count_occurrences(left, counts)
            _count_occurrences(right, counts)
        case _:
            raise TypeError(f"not a desugared formula: {phi!r}")


class _Emitter:
    """Walks a desugared formula tree, emitting gadget wiring into one
    shared builder. Variable reads pull the next free leg off that
    variable's fan-out spider."""

    def __init__(self, builder: DiagramBuilder, pools: dict[str, list[NodePort]]):
        self.b = builder
        self.pools = pools

    def emit(self, phi: Formula) -> NodePort:
        match phi:
            case Var(name):
                return self.pools[name].pop()
            case Const(value):
                return self._emit_const(value)
            case Not(child):
                return self._emit_not(self.emit(child))
            case And(left, right):
                return self._emit_and(self.emit(left), self.emit(right))
            case Or(left, right):
                lo = self._emit_not(self.emit(left))
                hi = self._emit_not(self.emit(right))
                return self._emit_not(self._emit_and(lo, hi))
        raise TypeError(f"not a desugared formula: {phi!r}")

    def _emit_const(self, value: bool) -> NodePort:
        self.b.star()
        kind = GeneratorKind.DARK_NOT if value else GeneratorKind.DARK_SPIDER
        return self.b.leg(self.b.node(kind))

    def _emit_not(self, arg: NodePort) -> NodePort:
        flip = self.b.node(GeneratorKind.DARK_NOT)
        self.b.connect(arg, self.b.leg(flip))
        self._emit_inv_sqrt2()
        return self.b.leg(flip)

    def _emit_inv_sqrt2(self) -> None:
        cup = self.b.node(GeneratorKind.WHITE_SPIDER)
        cap = self.b.node(GeneratorKind.DARK_SPIDER)
        self.b.connect(self.b.leg(cup), self.b.leg(cap))
        self.b.connect(self.b.leg(cup), self.b.leg(cap))
        self.b.star()
        self.b.star()

    def _emit_and(self, left: NodePort, right: NodePort) -> NodePort:
        wide = self.b.node(GeneratorKind.H_BOX)
        self.b.connect(left, self.b.leg(wide))
        self.b.connect(right, self.b.leg(wide))
        small = self.b.node(GeneratorKind.H_BOX)
        self.b.connect(self.b.leg(wide), self.b.leg(small))
        self.b.star()
        return self.b.leg(small)


def encode_formula(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The n-input, 1-output diagram of ``phi`` over ``variables``.

    Plugging basis states for a valuation into the inputs yields exactly
    |1> when the formula holds and |0> when it does not. Unused listed
    variables are discarded through a one-leg white spider, which keeps
    counting uses well-scaled.
    """
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    missing = [v for v in formula_vars(phi) if v not in names]
    if missing:
        raise UnassignedVariable(f"{missing[0]} is not in the variable list")
    lowered = eliminate_arrows(phi)
    counts = {name: 0 for name in names}
    _count_occurrences(lowered, counts)

    builder = DiagramBuilder()
    boundary_legs: list[NodePort] = []
    pools: dict[str, list[NodePort]] = {}
    for name in names:
        fan = builder.node(GeneratorKind.WHITE_SPIDER)
        boundary_legs.append(builder.leg(fan))
        legs = [builder.leg(fan) for _ in range(counts[name])]
        legs.reverse()  # pops come off in allocation order
        pools[name] = legs
    out_leg = _Emitter(builder, pools).emit(lowered)
    return builder.finish(inputs=boundary_legs, outputs=[out_leg])


def counting_branch(
    phi: Formula, opened: Sequence[str], summed: Sequence[str]
) -> Diagram:
    """Encode ``phi`` with the ``summed`` variables driven by BOTH
    states, leaving the ``opened`` wires as inputs."""
    enc = encode_formula(phi, list(opened) + list(summed))
    plugs = tensor_all([gate_gadget(GateBlock.BOTH)] * len(summed))
    return compose(enc, tensor(identity(len(opened)), plugs))


def counting_state(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The 0-input, 1-output diagram whose evaluation is
    count*|1> + (2^n - count)*|0> for the model count over ``variables``."""
    return counting_branch(phi, (), variables)
