"""Turn formula-comparison instances into diagram questions.

Three builders live here.  ``build_state_eq`` produces a pair of
state diagrams that agree on a basis input exactly when the instance's
two counts agree there.  ``build_contains_entry`` produces one diagram
whose matrix contains a chosen dyadic value exactly when such an
agreement exists.  ``build_circuit_extraction`` wraps a model count in
a one-wire block that is always proportional to a unitary.

Every builder emits atomic generators only and assembles each diagram
in one ``DiagramBuilder`` pass: a fan spider per variable, each formula
spliced over its fans, then the effects and scalars spliced in.
``build_contains_entry`` double-checks itself on one pseudo-random
basis input before returning, so a normalization slip fails at
construction time rather than in a downstream solver.
``verify_instance`` runs both instance reductions through the
brute-force solvers against the formula oracle; the CLI's ``verify``
and the acceptance suite share it.
"""

from __future__ import annotations

import random
from functools import cache, lru_cache, reduce
from typing import Sequence

from .counting import formula_with_count
from .diagram import (
    ArityMismatch,
    Diagram,
    DiagramBuilder,
    GeneratorKind,
    compose,
    generator,
    tensor,
    _brief,
)
from .encode import (
    GateBlock,
    fan_spiders,
    gate_gadget,
    splice_formula,
    two_root_two,
)
from .evaluate import apply_basis
from .formula import (
    And,
    Formula,
    Not,
    Or,
    SatCompareInstance,
    Var,
    count_sat,
)
from .frozen import Frozen
from .scalar import ExactScalar
from .solve import solve_contains_entry, solve_sat_compare, solve_state_eq


class ContractViolation(RuntimeError):
    """A builder's construction-time self-check failed."""


class StateEqInstance(Frozen):
    """Two diagrams with matching boundaries, asked whether some basis
    input sends them to the same state."""

    __match_args__ = ("d1", "d2")
    d1: Diagram
    d2: Diagram

    def __init__(self, d1: Diagram, d2: Diagram) -> None:
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        self.__post_init__()

    def __post_init__(self) -> None:
        if (self.d1.n_in, self.d1.n_out) != (self.d2.n_in, self.d2.n_out):
            raise ArityMismatch(
                f"boundaries differ: {self.d1.n_in}->{self.d1.n_out} "
                f"vs {self.d2.n_in}->{self.d2.n_out}"
            )

    def to_json(self) -> dict:
        return {"d1": self.d1.to_json(), "d2": self.d2.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "StateEqInstance":
        if not isinstance(data, dict):
            raise ValueError(f"state-eq JSON must be an object, got {_brief(data)}")
        return cls(
            d1=Diagram.from_json(data["d1"]), d2=Diagram.from_json(data["d2"])
        )


class DyadicK(Frozen):
    """The dyadic rational c/2^d in lowest form.

    Lowest form means the denominator is genuinely needed: either d is
    zero (plain integer, including zero itself) or c is odd.  Use
    ``make`` to normalize arbitrary numerator/exponent pairs.
    """

    __match_args__ = ("c", "d")
    c: int
    d: int

    def __init__(self, c: int, d: int) -> None:
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.d < 0:
            raise ValueError("exponent must be non-negative")
        if self.d > 0 and self.c % 2 == 0:
            raise ValueError(f"{self.c}/2^{self.d} is not in lowest form")

    @classmethod
    def make(cls, c: int, d: int) -> "DyadicK":
        if d < 0:
            raise ValueError("exponent must be non-negative")
        c, d = ExactScalar(c, 0, d).as_dyadic()
        return cls(c=c, d=d)

    @property
    def value(self) -> ExactScalar:
        return ExactScalar(self.c, 0, self.d)

    def to_json(self) -> dict:
        return {"c": self.c, "d": self.d}

    @classmethod
    def from_json(cls, data: dict) -> "DyadicK":
        return cls(c=int(data["c"]), d=int(data["d"]))

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.c)
        return f"{self.c}/{2 ** self.d}"


# -- shared pieces ----------------------------------------------------------


@cache
def _antisymmetric_cap() -> Diagram:
    """The two-wire effect sqrt(2) * (<01| - <10|).

    A white cap with a white not on its first wire and a dark not on
    its second.  Applied to a pair of counting states it extracts the
    difference of the two counts, up to a fixed power of sqrt(2).
    """
    nots = tensor(
        generator(GeneratorKind.WHITE_NOT, 1, 1),
        generator(GeneratorKind.DARK_NOT, 1, 1),
    )
    return compose(generator(GeneratorKind.WHITE_SPIDER, 2, 0), nots)


def _conjunction(names: Sequence[str]) -> Formula:
    return reduce(And, (Var(name) for name in names))


# -- builders ---------------------------------------------------------------


def build_state_eq(inst: SatCompareInstance) -> StateEqInstance:
    """Diagrams D1, D2 whose value at basis input v is the model count
    of psi (resp. rho) under v, as an exact scalar.

    Both diagrams take the n shared wires as inputs and have no
    outputs; the extra variables are summed over internally and the
    formula output is collapsed through an IS_TRUE effect.
    """
    is_true = gate_gadget(GateBlock.IS_TRUE)
    pair = []
    for phi, summed in ((inst.psi, inst.y_vars), (inst.rho, inst.z_vars)):
        builder = DiagramBuilder()
        fans = fan_spiders(builder, inst.x_vars)
        inputs = [builder.leg(fan) for fan in fans.values()]
        count = splice_formula(builder, phi, {**fans, **fan_spiders(builder, summed)})
        builder.splice(is_true, [count])
        pair.append(builder.finish(inputs=inputs))
    return StateEqInstance(*pair)


# k comes from callers, so the cache is bounded; the diagram is immutable.
@lru_cache(maxsize=128)
def dyadic_scalar(k: DyadicK) -> Diagram:
    """A closed diagram evaluating to exactly c/2^d, for nonzero k.

    The magnitude comes from collapsing the counting state of a formula
    with exactly |c| models through IS_TRUE; d stars supply the
    denominator.  When c < 0, a one-leg white not against a one-leg
    dark not (together -2) and one more star flip the sign.
    """
    if k.c == 0:
        raise ValueError("the zero scalar has a dedicated construction")
    magnitude = abs(k.c)
    names = [f"w{i}" for i in range(1, magnitude.bit_length() + 1)]
    builder = DiagramBuilder()
    count = splice_formula(
        builder, formula_with_count(names, magnitude), fan_spiders(builder, names)
    )
    builder.splice(gate_gadget(GateBlock.IS_TRUE), [count])
    for _ in range(k.d + (k.c < 0)):
        builder.star()
    if k.c < 0:
        white = builder.node(GeneratorKind.WHITE_NOT)
        dark = builder.node(GeneratorKind.DARK_NOT)
        builder.connect(builder.leg(white), builder.leg(dark))
    return builder.finish()


def build_contains_entry(inst: SatCompareInstance, k: DyadicK) -> Diagram:
    """A diagram with n inputs and no outputs that contains k among its
    entries exactly when the instance's two counts agree somewhere.

    For k in {0, 1} the entry at basis input v is
    count(rho under v) - count(psi under v) + k on the nose.  Both
    formulae gain a guard variable forced to be false; for k = 1 the
    second branch also accepts the all-ones word, shifting its count by
    one.  The two counting branches share one fan per x variable and
    meet an antisymmetric cap normalized back down by a fixed scalar
    tail.  Any other nonzero k splices in a closed scalar of value k,
    rescaling every entry.
    """
    guard_y = f"y{inst.m + 1}"
    guard_z = f"z{inst.m + 1}"
    ys = list(inst.y_vars) + [guard_y]
    zs = list(inst.z_vars) + [guard_z]
    psi_prime = And(inst.psi, Not(Var(guard_y)))
    rho_prime = And(inst.rho, Not(Var(guard_z)))
    if k.c != 0:
        rho_prime = Or(rho_prime, _conjunction(zs))

    builder = DiagramBuilder()
    fans = fan_spiders(builder, inst.x_vars)
    inputs = [builder.leg(fan) for fan in fans.values()]
    branches = [
        splice_formula(builder, phi, {**fans, **fan_spiders(builder, summed)})
        for phi, summed in ((psi_prime, ys), (rho_prime, zs))
    ]
    builder.splice(_antisymmetric_cap(), branches)
    builder.splice(two_root_two())
    for _ in range(inst.m + 3):
        builder.star()
    if k.c != 0 and (k.c, k.d) != (1, 0):
        builder.splice(dyadic_scalar(k))
    built = builder.finish(inputs=inputs)

    _check_contains_entry(built, inst, k)
    return built


@lru_cache(maxsize=256)
def _check_input(n: int, m: int, k: DyadicK) -> tuple[int, ...]:
    """The deterministic pseudo-random basis input that checks the
    contains-entry diagram of an (n, m) instance for k."""
    rng = random.Random(f"contains-entry {n} {m} {k.c} {k.d}")
    return tuple(rng.randrange(2) for _ in range(n))


def _check_contains_entry(
    built: Diagram, inst: SatCompareInstance, k: DyadicK
) -> None:
    """Evaluate one deterministic pseudo-random basis input against the
    formula-level oracle; raise if the construction is off."""
    v = _check_input(inst.n, inst.m, k)
    bound = {name: bool(bit) for name, bit in zip(inst.x_vars, v)}
    diff = count_sat(inst.rho, inst.z_vars, bound) - count_sat(inst.psi, inst.y_vars, bound)
    if k.c == 0:
        expected = ExactScalar(diff, 0, 0)
    else:
        expected = ExactScalar(k.c * (diff + 1), 0, k.d)
    got = apply_basis(built, v, "in").entry("", "")
    if got != expected:
        raise ContractViolation(
            f"entry at {list(v)} is {got}, oracle says {expected}"
        )


def build_circuit_extraction(phi: Formula, variables: Sequence[str]) -> Diagram:
    """A one-wire block evaluating to [[a0, a1], [a1, -a0]] where a1 is
    the model count of ``phi`` over ``variables`` and a0 the co-count.

    The counting state drives a copy spider whose value flows into the
    target wire twice: once through a box (phase flip branch) and once
    into a dark spider (bit flip branch).  The resulting matrix is a
    real multiple of a unitary for every formula.
    """
    builder = DiagramBuilder()
    count = splice_formula(builder, phi, fan_spiders(builder, variables))
    control = builder.node(GeneratorKind.WHITE_SPIDER)
    flip = builder.node(GeneratorKind.WHITE_NOT)
    target_white = builder.node(GeneratorKind.WHITE_SPIDER)
    box = builder.node(GeneratorKind.H_BOX)
    target_dark = builder.node(GeneratorKind.DARK_SPIDER)

    target_in = builder.leg(flip)
    builder.connect(builder.leg(flip), builder.leg(target_white))
    builder.connect(builder.leg(target_white), builder.leg(box))
    builder.connect(builder.leg(box), builder.leg(control))
    builder.connect(builder.leg(target_white), builder.leg(target_dark))
    builder.connect(builder.leg(control), builder.leg(target_dark))
    target_out = builder.leg(target_dark)
    builder.connect(count, builder.leg(control))
    return builder.finish(inputs=[target_in], outputs=[target_out])


# -- verification -------------------------------------------------------------


def verify_instance(inst: SatCompareInstance) -> list[str]:
    """Check both instance reductions against the formula oracle.

    The state-eq pair and the contains-entry diagrams for k = 0, 1 and
    3/4 must each give their first witness at the first valuation
    ``solve_sat_compare`` finds, or none when it finds none.  Returns
    one note per disagreement; an empty list means all four agree.
    """
    answer = solve_sat_compare(inst)
    expected = (
        None if answer is None else "".join("1" if answer[x] else "0" for x in inst.x_vars)
    )
    failures: list[str] = []
    pair = build_state_eq(inst)
    witness = solve_state_eq(pair.d1, pair.d2)
    got = None if witness is None else str(witness)
    if got != expected:
        failures.append(f"state-eq found {got!r}, oracle says {expected!r}")
    for k in (DyadicK(0, 0), DyadicK(1, 0), DyadicK(3, 2)):
        hit = solve_contains_entry(build_contains_entry(inst, k), k.value)
        got = None if hit is None else str(hit[1])
        if got != expected:
            failures.append(
                f"contains-entry k={k} found {got!r}, oracle says {expected!r}"
            )
    return failures
