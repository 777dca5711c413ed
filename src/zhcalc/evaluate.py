"""Exact matrix interpretation of diagrams by sparse tensor contraction.

Every generator is a symmetric tensor with entries in the ring handled by
``ExactScalar``, so a diagram denotes a matrix indexed by bitstrings over
its boundary wires. The engine fuses the wires of each white spider and
white not into one index (ZH spider fusion), and the two wires of each
two-leg dark spider or dark not too, as sqrt(2) times a plain or NOT
wire: each wire reads its index's bit XOR a parity, and an odd cycle of
NOT wires makes the diagram zero. It then runs bucket elimination
over the indices: a factor stores only its nonzero entries, and each
closed index is summed out once every factor holding it is joined, the
one whose factors span the fewest indices first. The two orders break a
tie by the lowest index or by the highest, so they join by different
routes and must agree exactly; tests rely on that. ``apply_basis`` pins
its basis bits inside the same engine by slicing: a pinned bit fixes
its index, so every table on it keeps only the entries with that bit,
the index is never summed, and no plugged diagram is built.

Each call splits into a compile and a run. The compile (``_plan``)
reads which edge each node port and boundary position sits on (the
diagram's wiring: ``DiagramBuilder.finish`` hands it over with the
edges, and any other diagram finds it, and its shape faults, in one
walk over its edges), fuses the wires and lists each factor node's legs
as (index, parity) pairs; it calls ``validate`` only to list a faulty
diagram's problems, and it does not depend on pins. The order depends
only on which indices each table holds, never on its entries, so a
plan's first run of each order finds that order's elimination path on
the blocks' index masks alone, with the boundary indices kept open
(``_path``): a list of steps, each the slots of the factors to join,
the closed indices to sum and the result's slot. A step sums the index
it was chosen for, and also every other closed index that its result
alone holds, so no index waits in a table for a later step and every
step joins at least two factors.
The first run also spreads the kept blocks' tables once, unpinned, for
both orders' paths. Every run then slices those tables by its pins and
replays the steps; a pin fixes only a boundary index, which no step
sums, so the path holds for every pin. The last plan is kept, holding
its diagram by weak reference, and reused when the same object comes
back, as when a builder's self-check pins a diagram that its solver
then evaluates open.

Inside the engine indices are numbered densely and tables are packed:
an entry is one int key, whose bit i is index i's bit, and one int v,
read as v * sqrt(2)**r / 2**e under one exponent e and one sqrt(2)
parity r per table, so a join buckets and merges keys by masks and
multiplies ints; two odd parities make an even one, a power of two
lower. Factors without indices are multiplied into one scalar
instead, held in the same form: an int v, an exponent e and a parity
r. That scalar starts from the plan's, which folds in what no pin can
change: legless nodes and two-leg dark wires never become factors, and
the compile raises each legless kind's index-free factor to its count,
adds sqrt(2) per dark wire and 2 per traced loop, or makes v zero for
an odd cycle. Values are canonicalized into ``ExactScalar`` only on
exit, when the ``ExactMatrix`` is assembled.
The compile also groups factor nodes into blocks: two nodes that alone
read a closed index, each of at most 8 legs and together reading at most
8 other indices, form a block, and any other node is a block of one. A
closed index that one block alone reads is summed inside its table, so
it never reaches the elimination loop. A block's table depends only on
its pattern (kinds, (slot, parity) legs, summed slots), so the process
keeps one table per pattern of nodes of at most 8 legs, up to 2048
tables keyed by slot, spread once per plan onto its index bits; a wider
node's table is built per run straight over its index bits, only on its
pinned bits. Either way a generator's support is read once, and refused
if its values do not share one exponent and one sqrt(2) parity.
"""

from __future__ import annotations

import heapq
import weakref
from itertools import compress, product
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .diagram import ArityMismatch, Diagram, GeneratorKind
from .frozen import Frozen, _brief, _fields
from .scalar import ExactScalar, ONE, TWO, HALF, ZERO, sqrt2_pow

DEFAULT_MAX_BOUNDARY = 22


class TooLarge(ValueError):
    """Over DEFAULT_MAX_BOUNDARY unpinned boundary wires, or over that many
    legs on an H box or dark generator, whose support is enumerated."""


class InvalidDiagram(ValueError):
    """The diagram fails structural validation."""


class BadArity(ValueError):
    """A generator was given leg counts it does not admit."""


class BasisState(Frozen):
    """A computational basis bitstring, e.g. |010>."""

    __match_args__ = ("bits",)
    bits: tuple[int, ...]

    def __init__(self, bits: tuple[int, ...]) -> None:
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("basis state bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "BasisState":
        if not set(text) <= {"0", "1"}:
            raise ValueError("basis state strings contain only 0 and 1")
        return cls(bits=tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


class ExactMatrix(Frozen):
    """A sparse exact matrix indexed by (row, column) bitstrings.

    Rows have length ``n_out`` and columns ``n_in``; absent entries are
    zero, and stored entries are always nonzero, so dict equality is
    semantic equality.
    """

    __match_args__ = ("n_out", "n_in", "entries")
    n_out: int
    n_in: int
    entries: dict[tuple[str, str], ExactScalar]

    def __init__(
        self, n_out: int, n_in: int, entries: dict[tuple[str, str], ExactScalar]
    ) -> None:
        kept: dict[tuple[str, str], ExactScalar] = {}
        for (row, col), value in entries.items():
            if len(row) != n_out or len(col) != n_in:
                raise ValueError(
                    f"entry ({row!r}, {col!r}) does not match shape {n_out}x{n_in}"
                )
            if not (set(row) | set(col)) <= {"0", "1"}:
                raise ValueError(f"entry ({row!r}, {col!r}) is not a bitstring pair")
            if not value.is_zero:
                kept[(row, col)] = value
        object.__setattr__(self, "n_out", n_out)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "entries", kept)

    @classmethod
    def _trusted(
        cls, n_out: int, n_in: int, entries: dict[tuple[str, str], ExactScalar]
    ) -> "ExactMatrix":
        """A matrix over entries known to be bitstring pairs of its shape
        with nonzero values, such as the engine's, without re-checking them."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "n_out", n_out)
        object.__setattr__(matrix, "n_in", n_in)
        object.__setattr__(matrix, "entries", entries)
        return matrix

    def entry(self, row: str, col: str) -> ExactScalar:
        return self.entries.get((row, col), ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            n_out=self.n_in,
            n_in=self.n_out,
            entries={(col, row): v for (row, col), v in self.entries.items()},
        )

    def scale(self, factor: ExactScalar) -> "ExactMatrix":
        return ExactMatrix(
            n_out=self.n_out,
            n_in=self.n_in,
            entries={key: v * factor for key, v in self.entries.items()},
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.n_out, self.n_in) != (other.n_out, other.n_in):
            raise ArityMismatch("matrix addition needs equal shapes")
        merged = dict(self.entries)
        for key, v in other.entries.items():
            merged[key] = merged.get(key, ZERO) + v
        return ExactMatrix(n_out=self.n_out, n_in=self.n_in, entries=merged)

    def to_json(self) -> dict:
        return {
            "n_out": self.n_out,
            "n_in": self.n_in,
            "entries": [
                {"row": row, "col": col, "val": value.to_json()}
                for (row, col), value in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExactMatrix":
        n_out, n_in, raw = _fields(data, "matrix", ("n_out", "n_in", "entries"))
        for key, value in (("n_out", n_out), ("n_in", n_in)):
            if type(value) is not int or value < 0:  # bool is an int subclass; refuse it too
                raise ValueError(f"{key!r} must be a non-negative integer, got {_brief(value)}")
        if type(raw) is not list:
            raise ValueError(f"'entries' must be a JSON array, got {_brief(raw)}")
        entries = {}
        for entry in raw:
            row, col, val = _fields(entry, "matrix entry", ("row", "col", "val"))
            if type(row) is not str or type(col) is not str:
                raise ValueError(f"row and col must be strings, got {_brief((row, col))}")
            entries[(row, col)] = ExactScalar.from_json(val)
        return cls(n_out=n_out, n_in=n_in, entries=entries)


def scalar_matrix(value: ExactScalar) -> ExactMatrix:
    return ExactMatrix(n_out=0, n_in=0, entries={("", ""): value})


def identity_matrix(n: int) -> ExactMatrix:
    entries = {}
    for bits in product("01", repeat=n):
        word = "".join(bits)
        entries[(word, word)] = ONE
    return ExactMatrix(n_out=n, n_in=n, entries=entries)


def matrix_compose(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact matrix product a.b."""
    if a.n_in != b.n_out:
        raise ArityMismatch(f"cannot multiply {a.n_out}x{a.n_in} by {b.n_out}x{b.n_in}")
    by_row: dict[str, list[tuple[str, ExactScalar]]] = {}
    for (row, col), value in b.entries.items():
        by_row.setdefault(row, []).append((col, value))
    acc: dict[tuple[str, str], ExactScalar] = {}
    for (row, mid), left in a.entries.items():
        for col, right in by_row.get(mid, ()):
            key = (row, col)
            acc[key] = acc.get(key, ZERO) + left * right
    return ExactMatrix(n_out=a.n_out, n_in=b.n_in, entries=acc)


def matrix_tensor(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Exact Kronecker product; a indexes the leading bits."""
    entries = {}
    for (row1, col1), v1 in a.entries.items():
        for (row2, col2), v2 in b.entries.items():
            entries[(row1 + row2, col1 + col2)] = v1 * v2
    return ExactMatrix(n_out=a.n_out + b.n_out, n_in=a.n_in + b.n_in, entries=entries)


# -- generator tensors -------------------------------------------------------


def _generator_support(
    kind: GeneratorKind, degree: int
) -> Iterator[tuple[tuple[int, ...], ExactScalar]]:
    """Nonzero entries of a generator as (leg bits, value) pairs.

    The white spider is the all-equal indicator (2 at degree zero), the
    white not weights the all-ones leg pattern by -1, the dark pair are
    parity indicators scaled by sqrt(2)^(3 - degree), and the box is -1
    exactly on the all-ones pattern and 1 elsewhere.
    """
    if kind is GeneratorKind.STAR:
        if degree:
            raise BadArity("star admits no legs")
        yield (), HALF
    elif kind is GeneratorKind.WHITE_SPIDER:
        if degree == 0:
            yield (), TWO
        else:
            yield (0,) * degree, ONE
            yield (1,) * degree, ONE
    elif kind is GeneratorKind.WHITE_NOT:
        if degree:
            yield (0,) * degree, ONE
            yield (1,) * degree, -ONE
        # Degree zero is 1 - 1 = 0: no support at all.
    elif kind in (GeneratorKind.DARK_SPIDER, GeneratorKind.DARK_NOT):
        want = 1 if kind is GeneratorKind.DARK_NOT else 0
        value = sqrt2_pow(3 - degree)
        for bits in product((0, 1), repeat=degree):
            if sum(bits) % 2 == want:
                yield bits, value
    elif kind is GeneratorKind.H_BOX:
        for bits in product((0, 1), repeat=degree):
            yield bits, (-ONE if all(bits) else ONE)
    else:  # pragma: no cover - enum is closed
        raise BadArity(f"unknown generator kind {kind}")


def interpret_generator(kind: GeneratorKind, m: int, n: int) -> ExactMatrix:
    """The 2^n x 2^m matrix of a single generator with m inputs, n outputs."""
    if m < 0 or n < 0:
        raise BadArity("leg counts must be non-negative")
    if kind is GeneratorKind.STAR and (m or n):
        raise BadArity("star admits no legs")
    entries: dict[tuple[str, str], ExactScalar] = {}
    for bits, value in _generator_support(kind, m + n):
        col = "".join(str(b) for b in bits[:m])
        row = "".join(str(b) for b in bits[m:])
        entries[(row, col)] = value
    return ExactMatrix(n_out=n, n_in=m, entries=entries)


# -- contraction engine ------------------------------------------------------


class _Factor(NamedTuple):
    """A sparse tensor over the indices set in ``mask``: bit i of a key is
    index i's bit, and ``table[key] = v`` is the value v * sqrt(2)**r / 2**e.
    All values of one generator share one exponent and one sqrt(2) parity,
    so one (e, r) pair serves the whole table, the engine works on plain
    ints and it never canonicalizes. The engine makes its factors with
    ``tuple.__new__``, skipping the named tuple's Python-level constructor."""

    mask: int
    table: dict[int, int]
    e: int = 0
    r: int = 0

    @property
    def wires(self) -> list[int]:
        """The indices in ``mask``, lowest first."""
        return _indices(self.mask)


def _indices(mask: int) -> list[int]:
    """The indices whose bits are set in ``mask``, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# Blocks of nodes with at most this many legs keep their tables for the
# process, up to _MAX_TEMPLATES tables of at most 256 entries (a pair
# reads at most this many indices besides the one it shares). A wider
# generator's table, up to 2**22 entries, is built per run.
_CACHED_LEGS = 8
_MAX_TEMPLATES = 2048
_TEMPLATES: dict[tuple, tuple[list[tuple[tuple[int, ...], int]], int, int]] = {}
_UNIT = _Factor(mask=0, table={0: 1})


def _wide(key: tuple) -> bool:
    """Whether a block is a node of over _CACHED_LEGS legs, so that its
    table is built per run instead of kept (a pair never is)."""
    return len(key[-1][1]) > _CACHED_LEGS


def _node_factor(
    key: tuple, weights: tuple[int, ...], pinmask: int, pinval: int
) -> _Factor:
    """A block's factor over the indices whose bits are ``weights``.

    A block is one factor node, or two that alone read some closed index.
    Its table depends only on its pattern ``key`` = (summed slots,
    (kind, legs), ...), where each leg is a (slot, parity) pair reading
    the bit of the block's slot-th distinct index XOR the parity; the
    summed slots are summed inside the table, and ``weights`` are 1 << i
    for the other slots' indices i in slot order. The tables of blocks
    whose nodes have at most _CACHED_LEGS legs are kept in ``_TEMPLATES``
    as rows of (slot bits, value) and spread onto ``weights``. A wider
    node is a block of its own, built straight over its index bits and
    only on the bits that ``pinval`` pins its indices in ``pinmask`` to.
    Either way the factor is sliced to the pinned bits.
    """
    template = _TEMPLATES.get(key)
    if template is None:
        summed, *members = key
        if _wide(key):
            ((kind, legs),) = members
            mask = sum(weights)
            # A summed slot reads a spare bit above the block's indices.
            spare = {s: 1 << (mask.bit_length() + j) for j, s in enumerate(summed)}
            free, slots = iter(weights), range(len(spare) + len(weights))
            bits = [spare[s] if s in spare else next(free) for s in slots]
            factor = _template(kind, [(bits[s], p) for s, p in legs], pinmask & mask, pinval & mask)
            if spare:
                factor = _join(_UNIT, factor, [w.bit_length() - 1 for w in spare.values()])
            return _slice(factor, pinmask, pinval)
        joined, *rest = [
            _template(kind, [(1 << s, p) for s, p in legs], 0, 0) for kind, legs in members
        ]
        if summed or rest:  # a lone node sums its slots against the unit factor
            joined = _join(joined, rest[0] if rest else _UNIT, summed)
        slots = joined.wires
        rows = [(tuple([k >> s & 1 for s in slots]), v) for k, v in joined.table.items()]
        template = rows, joined.e, joined.r
        if len(_TEMPLATES) < _MAX_TEMPLATES:
            _TEMPLATES[key] = template
    rows, e, r = template
    table = {sum(compress(weights, bits)): v for bits, v in rows}
    return _slice(tuple.__new__(_Factor, (sum(weights), table, e, r)), pinmask, pinval)


def _slice(factor: _Factor, pinmask: int, pinval: int) -> _Factor:
    """``factor`` with each of its indices in ``pinmask`` fixed to its bit
    in ``pinval``: only the entries with those bits stay, and the fixed
    indices leave its mask."""
    cut = factor.mask & pinmask
    if not cut:
        return factor
    want = pinval & cut
    table = {k ^ want: v for k, v in factor.table.items() if k & cut == want}
    return tuple.__new__(_Factor, (factor.mask ^ cut, table, factor.e, factor.r))


def _template(
    kind: GeneratorKind, legs: Sequence[tuple[int, int]], pinmask: int, pinval: int
) -> _Factor:
    """Project a generator's support onto the distinct index bits its legs
    read.

    Each leg is a (bit, parity) pair: its bit is that bit of a key XOR the
    parity. When two legs share a bit (a self-loop, or legs fused into one
    index), support entries that disagree on it vanish; so do those that
    disagree with ``pinval`` on a bit of ``pinmask``, which must lie among
    the legs' bits. The support is read once: every value must have one
    exponent and one sqrt(2) parity, each value a/2**e or b*sqrt(2)/2**e,
    or this raises.
    """
    table: dict[int, int] = {}
    last = er = None
    for bits, value in _generator_support(kind, len(legs)):
        if value is not last:
            if value.a and value.b:
                raise ValueError(f"{kind.value} value {value} has a rational and a sqrt(2) part")
            if er not in (None, (value.e, int(value.b != 0))):
                raise ValueError(f"{kind.value} values differ in exponent or sqrt(2) parity")
            last, v, er = value, value.b or value.a, (value.e, int(value.b != 0))
        key, seen = pinval, pinmask
        for (w, parity), bit in zip(legs, bits):
            if bit ^ parity:
                if seen & w and not key & w:
                    break
                key |= w
            elif key & w:
                break
            seen |= w
        else:
            table[key] = table.get(key, 0) + v
    e, r = er or (0, 0)
    mask = 0
    for w, _ in legs:
        mask |= w
    return tuple.__new__(_Factor, (mask, {k: v for k, v in table.items() if v}, e, r))


# Each kind's legless node as an index-free factor (a white not's and a
# dark not's tables are empty: zero), built once for every compile's scalar.
_LEGLESS = [(kind, _template(kind, (), 0, 0)) for kind in GeneratorKind]


def _join(f1: _Factor, f2: _Factor, summed: Iterable[int]) -> _Factor:
    """Combine two factors, aligning on shared indices and summing out
    ``summed``, which no third factor may hold. The engine's one kernel:
    joined with the unit factor (no indices, table {0: 1}) a lone factor
    sums out its self-loops. Entries meet in buckets on their shared bits,
    a merged key is the OR of the two kept to the indices left, and
    values are int products under e1 + e2 and sqrt(2)**(r1 + r2); when
    both parities are odd, sqrt(2)**2 = 2 lowers the exponent by one."""
    t1, t2 = f1.table, f2.table
    shared, keep = f1.mask & f2.mask, f1.mask | f2.mask
    for i in summed:
        keep &= ~(1 << i)
    e, r = f1.e + f2.e, f1.r + f2.r
    if r == 2:
        e, r = e - 1, 0
    if shared:
        buckets: dict[int, list[tuple[int, int]]] = {}
        for k2, v2 in t2.items():
            buckets.setdefault(k2 & shared, []).append((k2, v2))
    else:
        buckets = {0: t2.items()}
    table: dict[int, int] = {}
    get = table.get
    for k1, v1 in t1.items():
        for k2, v2 in buckets.get(k1 & shared, ()):
            k = (k1 | k2) & keep
            table[k] = get(k, 0) + v1 * v2
    return tuple.__new__(_Factor, (keep, {k: v for k, v in table.items() if v}, e, r))


def evaluate(d: Diagram, *, order: str = "greedy") -> ExactMatrix:
    """The exact matrix denoted by ``d``.

    ``order`` picks the elimination schedule over fused indices. Both
    orders sum out first the index whose factors span the fewest
    indices; "greedy" breaks a tie by the lowest index and "sequential"
    by the highest (indices are numbered in the order of their lowest
    wires). Both give the same matrix.
    """
    if order not in ("greedy", "sequential"):
        raise ValueError(f"unknown contraction order {order!r}")
    return _contract(d, order)


class _Path(NamedTuple):
    """One order's elimination of a plan, found on index masks alone.

    Each step is (slots, summed, out, mask): join the factors in ``slots``
    (at least two) from the first, sum the indices in ``summed`` out at
    the last join, and put the result, over the indices of ``mask`` on an
    open run, in slot ``out``. ``summed`` leads with the index the step
    was chosen for, then every other closed index its result alone holds.
    Slots 0 to len(blocks) - 1 hold the plan's blocks in order, and step k
    fills slot len(blocks) + k. ``tables`` holds each kept block's open
    factor, shared by both orders' paths, or None for a wide block."""

    steps: list[tuple[tuple[int, ...], tuple[int, ...], int, int]]
    tables: list[_Factor | None]


class _Plan(Frozen):
    """What every contraction of one valid diagram shares, whatever it
    pins. Indices are numbered densely in the order of their lowest
    wires. Each boundary position is an (index, parity) pair, reading the
    bit of its fused index XOR the parity, and each block of factor
    nodes is its table's key and the bits 1 << i of the indices i it
    keeps (see ``_node_factor``). ``too_wide`` is the refusal a node
    with too many enumerated legs earns, and ``scalar`` = (v, e, r) is
    the factor no pin can change, v * sqrt(2)**r / 2**e with r in {0, 1}
    as in every table: legless nodes, fused two-leg dark generators and
    traced loops, or v = 0 for an odd cycle of NOT wires.
    ``paths`` maps an order to its ``_Path``, made on the order's first
    run that gets past the size checks and stored in one assignment."""

    __match_args__ = ("too_wide", "in_wire", "out_wire", "blocks", "scalar", "paths")
    _compared = __match_args__[:-1]  # paths is a cache, out of == and repr
    too_wide: str | None
    in_wire: list[tuple[int, int]]
    out_wire: list[tuple[int, int]]
    blocks: list[tuple[tuple, tuple[int, ...]]]
    scalar: tuple[int, int, int]
    paths: dict[str, _Path]

    def __init__(
        self,
        too_wide: str | None,
        in_wire: list[tuple[int, int]],
        out_wire: list[tuple[int, int]],
        blocks: list[tuple[tuple, tuple[int, ...]]],
        scalar: tuple[int, int, int],
        paths: dict[str, _Path] | None = None,
    ) -> None:
        object.__setattr__(self, "too_wide", too_wide)
        object.__setattr__(self, "in_wire", in_wire)
        object.__setattr__(self, "out_wire", out_wire)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "paths", {} if paths is None else paths)


# The last plan made, with a weak reference to its diagram: a diagram
# evaluated again straight away (a builder's self-check, then its solver)
# is compiled once, and the cache keeps no diagram alive.
_last_plan: tuple[weakref.ref, _Plan] | None = None


def _plan(d: Diagram) -> _Plan:
    """Fuse ``d``'s wires into indices and list its factor nodes' legs;
    or return the last plan, if it was made for ``d``. Each port's wire
    is read from ``d``'s wiring, which ``finish`` handed over or one walk
    over the edges finds, and indices are numbered in one forward pass
    over the wires. ``validate`` is called only to list a faulty
    diagram's problems for the InvalidDiagram message."""
    global _last_plan
    last = _last_plan  # read once, so another thread's plan is never mixed in
    if last is not None and last[0]() is d:
        return last[1]

    # Each node leg and boundary position's wire: handed over by finish,
    # or found in one walk over the edges, which also notes any fault.
    wiring = d._wiring
    if wiring is None:
        raise _invalid(d)
    node_slots, in_wire, out_wire = wiring
    nodes, n_wires = d.nodes, len(d.edges)

    # Spider fusion: the legs of a white spider or white not carry one
    # bit, so their wires form one index, named by its lowest wire. A
    # two-leg dark spider is sqrt(2) times a plain wire and a two-leg
    # dark not sqrt(2) times a NOT wire, so each joins its two wires too,
    # the not with parity 1. find(w) gives w's index and the parity of w
    # against it; a union closing an odd cycle makes the diagram zero.
    root = list(range(n_wires))
    flip = [0] * n_wires

    def find(w: int) -> tuple[int, int]:
        parity = 0
        while root[w] != w:
            up = root[w]
            flip[w] ^= flip[up]
            root[w] = root[up]
            parity ^= flip[w]
            w = root[w]
        return w, parity

    # One loop over the nodes, with the kinds read into locals once (an
    # enum attribute costs more than the rest of a node's visit). It finds
    # the one fault the wiring cannot show: a star of nonzero degree, whose
    # slots may all be filled, or which has none. Each union puts the
    # higher index under the lower, so that bit(first leg) ^ bit(leg) == p.
    # White nots and enumerated nodes become factors, listed by id; legless
    # nodes are listed by kind and counted by list.count, as an enum hashes
    # in Python.
    star, white, white_not = GeneratorKind.STAR, GeneratorKind.WHITE_SPIDER, GeneratorKind.WHITE_NOT
    dark, dark_not = GeneratorKind.DARK_SPIDER, GeneratorKind.DARK_NOT
    factor_ids: list[int] = []
    legless: list[GeneratorKind] = []
    root2s = odd = 0
    for nid, legs in enumerate(node_slots):
        kind, degree = nodes[nid]
        if kind is star and degree:
            raise _invalid(d)
        if not legs:
            legless.append(kind)
            continue
        if kind is white or kind is white_not:
            p = 0
            if kind is white_not:
                factor_ids.append(nid)
        elif degree == 2 and (kind is dark or kind is dark_not):
            p = kind is dark_not
            root2s += 1
        else:
            factor_ids.append(nid)
            continue
        a, pa = find(legs[0])
        for w in legs[1:]:
            b, pb = find(w)
            pb ^= p
            if a == b:
                odd |= pa ^ pb
            elif a < b:
                root[b], flip[b] = a, pa ^ pb
            else:
                root[a], flip[a] = b, pa ^ pb
                a, pa = b, pb
    # Indices are numbered densely in the order of their lowest wires, in
    # one forward pass: a class's lowest wire is its root, and every other
    # wire's parent is a lower wire, whose index and parity are final by
    # the time the pass reaches it.
    index_of: list[tuple[int, int]] = []
    n_indices = 0
    for w, (up, p) in enumerate(zip(root, flip)):
        if up == w:
            index_of.append((n_indices, 0))
            n_indices += 1
        else:
            i, q = index_of[up]
            index_of.append((i, q ^ p))

    # A fused white not keeps one leg for its sign. Each factor's legs
    # are (index, parity) pairs; readers lists the factors reading each
    # index, in the order the indices are first read.
    factors: list[tuple[GeneratorKind, list[tuple[int, int]]]] = []
    readers: dict[int, list[int]] = {}
    too_wide = None
    for fid, nid in enumerate(factor_ids):
        kind, degree = nodes[nid]
        wires = node_slots[nid]
        if kind is white_not:
            legs = [index_of[wires[0]]]
        else:
            if degree > DEFAULT_MAX_BOUNDARY and too_wide is None:
                too_wide = (
                    f"node {nid} ({kind.value}) has {degree} legs, over the "
                    f"bound of {DEFAULT_MAX_BOUNDARY}"
                )
            legs = [index_of[w] for w in wires]
        factors.append((kind, legs))
        for i, _ in legs:
            fids = readers.get(i)
            if fids is None:
                readers[i] = [fid]
            elif fids[-1] != fid:
                fids.append(fid)
    in_wire = [index_of[w] for w in in_wire]
    out_wire = [index_of[w] for w in out_wire]

    # Blocks: two nodes that alone read a closed index, each of at most
    # _CACHED_LEGS legs and together reading at most _CACHED_LEGS other
    # indices, are paired; a node joins at most one pair, and any other is
    # a block of one. A closed index that one block alone reads is lone,
    # and summed in its table: one factor reads it, or two that are paired
    # (whether two nodes pair does not depend on the index they share).
    boundary = {i for i, _ in in_wire + out_wire}
    mate: dict[int, int] = {}
    lone: set[int] = set()
    for i, fids in readers.items():
        if len(fids) > 2 or i in boundary:
            continue
        if len(fids) == 2 and mate.get(fids[0]) != fids[1]:
            f0, f1 = fids
            legs0, legs1 = factors[f0][1], factors[f1][1]
            others = len({j for j, _ in legs0 + legs1}) - 1
            if f0 in mate or f1 in mate or max(len(legs0), len(legs1), others) > _CACHED_LEGS:
                continue
            mate[f0], mate[f1] = f1, f0
        lone.add(i)
    blocks = []
    for fid in range(len(factors)):
        partner = mate.get(fid, fid)
        if partner < fid:
            continue
        slot_of: dict[int, int] = {}
        key = []
        for kind, legs in [factors[fid]] if partner == fid else [factors[fid], factors[partner]]:
            pattern = tuple([(slot_of.setdefault(i, len(slot_of)), p) for i, p in legs])
            key.append((kind, pattern))
        summed = tuple([slot for i, slot in slot_of.items() if i in lone])
        blocks.append(((summed, *key), tuple([1 << i for i in slot_of if i not in lone])))

    # The scalar no pin can change, v * sqrt(2)**r / 2**e as in every
    # table: each legless kind's factor (built once, at import) to its
    # count, sqrt(2) per fused dark generator, and 2 per traced loop (a
    # fused index that no node and no boundary position reads); zero if
    # the fusion closed an odd NOT cycle. Two sqrt(2)s make a 2, folded
    # once at the end.
    loops = n_indices - len(readers.keys() | boundary)
    v, e, r = (1 - odd) << loops, 0, root2s
    for kind, factor in _LEGLESS:
        count = legless.count(kind)
        v *= factor.table.get(0, 0) ** count
        e += factor.e * count
        r += factor.r * count
    plan = _Plan(too_wide, in_wire, out_wire, blocks, (v, e - r // 2, r % 2))
    _last_plan = (weakref.ref(d), plan)
    return plan


def _path(plan: _Plan, order: str) -> _Path:
    """Run bucket elimination on the blocks' index masks: pop the cheapest
    closed index (fewest indices spanned by its holders; "greedy" breaks
    a tie by the lowest index, "sequential" by the highest) and join its
    holders, lowest slot first, into a new slot. The step also sums every
    other closed index that the new slot alone holds, and the heap skips
    an index so summed; a result with no index left holds nothing. Blocks
    sum the indices one of them alone reads, so every closed index on the
    heap has two holders and every step joins at least two slots.
    Boundary indices stay open, so pins, which only fix boundary
    indices, leave every step valid. The tables are the other order's,
    or are built here, the kept blocks' ones unpinned."""
    blocks = plan.blocks
    masks: dict[int, int] = {}
    holders: dict[int, set[int]] = {}
    for slot, (_, weights) in enumerate(blocks):
        for w in weights:
            holders.setdefault(w.bit_length() - 1, set()).add(slot)
        if weights:
            masks[slot] = sum(weights)
    boundary = {i for i, _ in plan.in_wire + plan.out_wire}
    tie = 1 if order == "greedy" else -1

    def cost(i: int) -> int:
        spanned = 0
        for slot in holders[i]:
            spanned |= masks[slot]
        return spanned.bit_count()

    heap = [(cost(i), tie * i) for i in holders if i not in boundary]
    heapq.heapify(heap)
    steps: list[tuple[tuple[int, ...], tuple[int, ...], int, int]] = []
    while heap:
        score, key = heapq.heappop(heap)
        i = tie * key
        if i not in holders:
            continue  # summed by an earlier step
        current = cost(i)
        if current != score:
            heapq.heappush(heap, (current, key))
            continue
        slots = sorted(holders.pop(i))
        mask = 0
        for slot in slots:
            mask |= masks.pop(slot)
        mask &= ~(1 << i)
        summed, out = [i], len(blocks) + len(steps)
        for j in _indices(mask):
            held = holders[j]
            held.difference_update(slots)
            if held or j in boundary:
                held.add(out)
            else:
                del holders[j]
                summed.append(j)
                mask ^= 1 << j
        steps.append((tuple(slots), tuple(summed), out, mask))
        if mask:
            masks[out] = mask
    done = next(iter(plan.paths.values()), None)
    if done is not None:
        return _Path(steps, done.tables)
    return _Path(steps, [None if _wide(key) else _node_factor(key, w, 0, 0) for key, w in blocks])


def _invalid(d: Diagram) -> InvalidDiagram:
    """The error for a faulty diagram, showing the first of the problems
    that ``validate`` lists."""
    problems = d.validate()
    shown = "; ".join(str(p) for p in problems[:3])
    return InvalidDiagram(f"{len(problems)} problem(s), first: {shown}")


def _contract(
    d: Diagram, order: str, side: str = "in", bits: Sequence[int] = ()
) -> ExactMatrix:
    """``evaluate`` with the first len(bits) boundary positions of ``side``
    pinned to ``bits``. A pinned bit fixes its index, so the tables that
    read it keep only the matching entries, and the index is never
    summed. Only unpinned wires count against DEFAULT_MAX_BOUNDARY.

    A run replays the plan's path for ``order``, made on its first run:
    it slices the path's kept tables by its pins, builds each wide block
    on its pinned bits, and joins slot by slot as the steps say, summing
    each step's closed indices at its last join."""
    plan = _plan(d)
    unpinned = d.n_in + d.n_out - len(bits)
    if unpinned > DEFAULT_MAX_BOUNDARY:
        raise TooLarge(
            f"{unpinned} unpinned boundary wires exceed the bound of "
            f"{DEFAULT_MAX_BOUNDARY}"
        )
    if plan.too_wide:
        raise TooLarge(plan.too_wide)

    # A pinned position leaves the boundary; the index it reads is fixed
    # to its bit XOR its parity. Two pins disagreeing on one index make
    # the diagram zero, as a zero scalar does; then no table is built.
    in_wire, out_wire = plan.in_wire, plan.out_wire
    fixed: dict[int, int] = {}
    clash = False
    for (i, parity), bit in zip(in_wire if side == "in" else out_wire, bits):
        clash |= fixed.setdefault(i, bit ^ parity) != bit ^ parity
    if side == "in":
        in_wire = in_wire[len(bits) :]
    else:
        out_wire = out_wire[len(bits) :]
    v, e, r = plan.scalar
    if clash or not v:
        return ExactMatrix._trusted(len(out_wire), len(in_wire), {})
    path = plan.paths.get(order)
    if path is None:
        path = plan.paths[order] = _path(plan, order)

    # Slot s holds block s's table, sliced to the pins. Each step pops its
    # two or more slots, joins them from the first and sums its closed
    # indices at the last join. Every operand holds the step's first
    # index, which is closed, so no pin leaves it wireless.
    pinmask, pinval = sum(1 << i for i in fixed), sum(b << i for i, b in fixed.items())
    factors = dict(enumerate(path.tables))
    for slot, table in factors.items():
        if table is None:
            factors[slot] = _node_factor(*plan.blocks[slot], pinmask, pinval)
        elif table.mask & pinmask:
            factors[slot] = _slice(table, pinmask, pinval)
    pop = factors.pop
    for slots, summed, out, _ in path.steps:
        joined, *rest, last = [pop(slot) for slot in slots]
        for factor in rest:
            joined = _join(joined, factor, ())
        factors[out] = _join(joined, last, summed)

    # Only open indices remain. Fold the surviving factors into one
    # sparse table in slot order, then expand the open indices no factor
    # holds. Values become ExactScalar only here: each held entry times
    # the plan's scalar and the wireless factors (left with no index),
    # whose sqrt(2) parities and the held one's are folded once. Each
    # boundary bit is its index's bit XOR its parity, so each (key, free
    # bits) pair lands on its own entry; an open wire on a fixed index
    # reads the fixed bit.
    held: list[_Factor] = []
    wireless: list[_Factor] = []
    for factor in factors.values():
        (held if factor.mask else wireless).append(factor)
    open_indices = {i for i, _ in in_wire + out_wire} - fixed.keys()
    combined, *rest = held or [_UNIT]
    for factor in rest:
        combined = _join(combined, factor, ())
    free = [1 << i for i in sorted(open_indices) if not combined.mask >> i & 1]
    for factor in wireless:
        v *= factor.table.get(0, 0)  # an empty table is zero
        e += factor.e
        r += factor.r
    r += combined.r
    e += combined.e - r // 2
    r %= 2

    entries: dict[tuple[str, str], ExactScalar] = {}
    for key, x in combined.table.items() if v else ():
        x *= v
        value = ExactScalar(0, x, e) if r else ExactScalar(x, 0, e)
        key |= pinval
        for fill in product((0, 1), repeat=len(free)):
            full = key | sum(compress(free, fill))
            row = "".join(["01"[full >> i & 1 ^ p] for i, p in out_wire])
            col = "".join(["01"[full >> i & 1 ^ p] for i, p in in_wire])
            entries[(row, col)] = value
    return ExactMatrix._trusted(len(out_wire), len(in_wire), entries)


def apply_basis(
    d: Diagram, v: Union[BasisState, Sequence[int]], side: str
) -> ExactMatrix:
    """Pin |v> on the inputs (side="in") or <v| on the outputs
    (side="out") and evaluate what is left.

    Each pinned bit fixes the index its wire reads, and the tables on
    that index are sliced to the matching entries, so no diagram is
    built, and a wide boundary collapses to a narrow one instead of
    being enumerated.
    """
    state = v if isinstance(v, BasisState) else BasisState(bits=tuple(v))
    if side == "in":
        if len(state) != d.n_in:
            raise ArityMismatch(f"state has {len(state)} bits, diagram takes {d.n_in}")
    elif side == "out":
        if len(state) != d.n_out:
            raise ArityMismatch(f"state has {len(state)} bits, diagram emits {d.n_out}")
    else:
        raise ValueError(f"side must be 'in' or 'out', not {side!r}")
    return _contract(d, "greedy", side, state.bits)
