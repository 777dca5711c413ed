"""Compile boolean formulae into diagrams built from the six generators.

Each logic block has a declared target matrix (``gate_target``) and a
generator-only realization (``gate_gadget``); the soundness tests pin the
two together through the evaluator, and the encoder wires nothing else.
``counting_branch`` builds in one pass: a BOTH plug per summed variable,
a white fan-out spider per variable (first leg plugged or opened as an
input), then one spliced copy of ``gate_gadget`` per formula node, each
use of a variable taking its fan's next leg. Every connective has its
own block (``<->`` is one three-leg dark not), so no pass rewrites the
formula first. ``encode_formula`` sums nothing; ``counting_state`` sums
everything, so its one output wire carries the model count. ``stars``
and ``two_root_two`` are the closed scalars the NOT gadget and the
reductions normalize with.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Sequence

from .diagram import (
    BoundaryPort,
    Diagram,
    DiagramBuilder,
    GeneratorKind,
    Node,
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
    Iff,
    Implies,
    Not,
    Or,
    UnassignedVariable,
    Var,
    _fold,
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
    IMPLIES = "IMPLIES"
    IFF = "IFF"


_TARGETS: dict[GateBlock, tuple[int, int, tuple[tuple[str, str], ...]]] = {
    GateBlock.TRUE: (1, 0, (("1", ""),)),
    GateBlock.FALSE: (1, 0, (("0", ""),)),
    GateBlock.BOTH: (1, 0, (("0", ""), ("1", ""))),
    GateBlock.IS_TRUE: (0, 1, (("", "1"),)),
    GateBlock.NOT: (1, 1, (("0", "1"), ("1", "0"))),
    GateBlock.COPY: (2, 1, (("00", "0"), ("11", "1"))),
    GateBlock.AND: (1, 2, (("0", "00"), ("0", "01"), ("0", "10"), ("1", "11"))),
    GateBlock.OR: (1, 2, (("0", "00"), ("1", "01"), ("1", "10"), ("1", "11"))),
    GateBlock.IMPLIES: (1, 2, (("1", "00"), ("1", "01"), ("0", "10"), ("1", "11"))),
    GateBlock.IFF: (1, 2, (("1", "00"), ("0", "01"), ("0", "10"), ("1", "11"))),
}


def gate_target(block: GateBlock) -> ExactMatrix:
    """The declared matrix of a logic block; every listed entry is 1."""
    n_out, n_in, ones = _TARGETS[block]
    return ExactMatrix(
        n_out=n_out, n_in=n_in, entries={key: ONE for key in ones}
    )


def stars(count: int) -> Diagram:
    """``count`` star scalars, together worth 2**-count."""
    star = Node(kind=GeneratorKind.STAR, degree=0)
    return Diagram(nodes=(star,) * count, edges=(), n_in=0, n_out=0)


def two_root_two() -> Diagram:
    """The scalar 2*sqrt(2): one legless dark spider."""
    return generator(GeneratorKind.DARK_SPIDER, 0, 0)


@cache
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
        # Two stars bring the 2*sqrt(2) down to 1/sqrt(2).
        flip = generator(GeneratorKind.DARK_NOT, 1, 1)
        return tensor_all([flip, two_root_two(), stars(2)])
    if block is GateBlock.AND:
        h_small = generator(GeneratorKind.H_BOX, 1, 1)
        h_wide = generator(GeneratorKind.H_BOX, 2, 1)
        return tensor(compose(h_small, h_wide), generator(GeneratorKind.STAR, 0, 0))
    if block is GateBlock.OR:
        flip = gate_gadget(GateBlock.NOT)
        inner = compose(gate_gadget(GateBlock.AND), tensor(flip, flip))
        return compose(gate_gadget(GateBlock.NOT), inner)
    if block is GateBlock.IMPLIES:
        flip = gate_gadget(GateBlock.NOT)
        inner = compose(gate_gadget(GateBlock.AND), tensor(identity(1), flip))
        return compose(flip, inner)
    if block is GateBlock.IFF:
        # Parity: the output is 1 exactly when the inputs agree.
        return generator(GeneratorKind.DARK_NOT, 2, 1)
    raise ValueError(f"unknown block {block}")


def _splice(
    builder: DiagramBuilder, gadget: Diagram, inputs: Sequence[NodePort]
) -> NodePort:
    """Copy the one-output ``gadget`` into ``builder``, node by node and
    leg by leg, wired to ``inputs``; return the leg at its output. Edges
    are canonical: an input end comes first, the output end last."""
    legs = []
    for node in gadget.nodes:
        node_id = builder.node(node.kind)
        legs.append([builder.leg(node_id) for _ in range(node.degree)])
    output = None
    for a, b in gadget.edges:
        near = inputs[a.pos] if isinstance(a, BoundaryPort) else legs[a.node][a.port]
        if isinstance(b, BoundaryPort):
            output = near
        else:
            builder.connect(near, legs[b.node][b.port])
    return output


_BLOCKS = {Not: GateBlock.NOT, And: GateBlock.AND, Or: GateBlock.OR,
           Implies: GateBlock.IMPLIES, Iff: GateBlock.IFF}


def _emit(builder: DiagramBuilder, phi: Formula, fans: dict[str, int]) -> NodePort:
    """Splice one gadget per node of ``phi`` in post-order; return its
    output leg. Each use of a variable takes the next leg of that
    variable's fan."""

    def rule(node: Formula, *args: NodePort) -> NodePort:
        kind = type(node)
        if kind is Var:
            return builder.leg(fans[node.name])
        if kind is Const:
            block = GateBlock.TRUE if node.value else GateBlock.FALSE
        else:
            block = _BLOCKS[kind]
        return _splice(builder, gate_gadget(block), args)

    return _fold(phi, rule)


def encode_formula(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The n-input, 1-output diagram of ``phi`` over ``variables``.

    Plugging basis states for a valuation into the inputs yields exactly
    |1> when the formula holds and |0> when it does not. Unused listed
    variables are discarded through a one-leg white spider, which keeps
    counting uses well-scaled.
    """
    return counting_branch(phi, variables, ())


def counting_branch(
    phi: Formula, opened: Sequence[str], summed: Sequence[str]
) -> Diagram:
    """Encode ``phi`` with the ``summed`` variables driven by BOTH
    states, leaving the ``opened`` wires as inputs."""
    names = list(opened) + list(summed)
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    missing = [v for v in formula_vars(phi) if v not in names]
    if missing:
        raise UnassignedVariable(f"{missing[0]} is not in the variable list")
    builder = DiagramBuilder()
    plugs = [_splice(builder, gate_gadget(GateBlock.BOTH), ()) for _ in summed]
    fans = {name: builder.node(GeneratorKind.WHITE_SPIDER) for name in names}
    firsts = [builder.leg(fans[name]) for name in names]
    for plug, first in zip(plugs, firsts[len(opened):]):
        builder.connect(plug, first)
    out_leg = _emit(builder, phi, fans)
    return builder.finish(inputs=firsts[: len(opened)], outputs=[out_leg])


def counting_state(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The 0-input, 1-output diagram whose evaluation is
    count*|1> + (2^n - count)*|0> for the model count over ``variables``."""
    return counting_branch(phi, (), variables)
