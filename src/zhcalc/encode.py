"""Compile boolean formulae into diagrams built from the six generators.

Each logic block has a declared target matrix (``gate_target``) and a
generator-only realization (``gate_gadget``); the soundness tests pin the
two together through the evaluator, and the encoder wires nothing else.
``splice_formula`` builds into a caller's ``DiagramBuilder``: over
caller-given white fan-out spiders, one per variable, it splices one
copy of ``gate_gadget`` per formula node, each use of a variable taking
its fan's next leg. Every connective has its own block (``<->`` is one
three-leg dark not), so no pass rewrites the formula first. A fan given
no open leg sums its variable, so an unused summed variable leaves a
legless fan worth 2. ``encode_formula`` opens every fan as an input;
``counting_state`` opens none, so its one output wire carries the model
count. ``stars`` and ``two_root_two`` are the closed scalars the NOT
gadget and the reductions normalize with.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import Sequence

from .diagram import (
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

    # As GeneratorKind: an identity hash, which agrees with identity ==.
    __hash__ = object.__hash__


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


@cache
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


_BLOCKS = {Not: GateBlock.NOT, And: GateBlock.AND, Or: GateBlock.OR,
           Implies: GateBlock.IMPLIES, Iff: GateBlock.IFF}


def fan_spiders(builder: DiagramBuilder, names: Sequence[str]) -> dict[str, int]:
    """One white fan-out spider per variable, keyed by name. A fan that
    gets no open leg sums its variable over both values; unused, it is
    legless and worth 2."""
    fans = {name: builder.node(GeneratorKind.WHITE_SPIDER) for name in names}
    if len(fans) != len(names):
        raise ValueError("variable names must be distinct")
    return fans


def splice_formula(
    builder: DiagramBuilder, phi: Formula, fans: dict[str, int]
) -> NodePort:
    """Splice one gadget per node of ``phi`` in post-order; return its
    output leg. Each use of a variable takes the next leg of that
    variable's fan."""

    def rule(node: Formula, *args: NodePort) -> NodePort:
        kind = type(node)
        if kind is Var:
            fan = fans.get(node.name)
            if fan is None:
                raise UnassignedVariable(f"{node.name} is not in the variable list")
            return builder.leg(fan)
        if kind is Const:
            block = GateBlock.TRUE if node.value else GateBlock.FALSE
        else:
            block = _BLOCKS[kind]
        return builder.splice(gate_gadget(block), args)[0]

    return _fold(phi, rule)


def encode_formula(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The n-input, 1-output diagram of ``phi`` over ``variables``.

    Plugging basis states for a valuation into the inputs yields exactly
    |1> when the formula holds and |0> when it does not. An unused
    listed variable's fan keeps only its input leg, a one-leg white
    spider that discards the wire.
    """
    builder = DiagramBuilder()
    fans = fan_spiders(builder, variables)
    inputs = [builder.leg(fan) for fan in fans.values()]
    out = splice_formula(builder, phi, fans)
    return builder.finish(inputs=inputs, outputs=[out])


def counting_state(phi: Formula, variables: Sequence[str]) -> Diagram:
    """The 0-input, 1-output diagram whose evaluation is
    count*|1> + (2^n - count)*|0> for the model count over ``variables``."""
    builder = DiagramBuilder()
    out = splice_formula(builder, phi, fan_spiders(builder, variables))
    return builder.finish(outputs=[out])
