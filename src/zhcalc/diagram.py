"""Open multigraphs over the six phase-free ZH generators.

A diagram is a set of generator nodes, a multiset of undirected edges
between node ports and boundary positions, and an input/output boundary
split. Generators are symmetric tensors, so edges carry no direction;
ports only exist to make the multigraph structure unambiguous (parallel
edges and self-loops are both legal and both meaningful).

Diagrams are immutable. ``compose`` and ``tensor`` build new values,
``DiagramBuilder`` assembles one incrementally (splicing in whole
gadgets), and ``validate`` reports structural problems as data rather
than exceptions so that callers can show all of them at once.

Endpoints (``NodePort``, ``BoundaryPort``) and ``Node`` are named
tuples, so building, hashing and comparing them runs in C. One
consequence: each compares equal to the plain tuple of its fields, so
``NodePort(node=0, port=1) == (0, 1)``. The builder keeps its internal
legs as such plain pairs and makes ``NodePort``s only for the handles it
returns and the diagram it finishes. A finished diagram shares the
``Node`` objects of the gadgets spliced into it; only a node whose
degree the builder set gets a new one.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, pairwise
from operator import itemgetter
from typing import NamedTuple, Sequence, Union

from .frozen import Frozen, _brief, _fields


class GeneratorKind(Enum):
    """The six atomic node types, with their serialization codes."""

    WHITE_SPIDER = "Z"
    DARK_SPIDER = "X"
    WHITE_NOT = "ZNot"
    DARK_NOT = "XNot"
    H_BOX = "H"
    STAR = "Star"

    # Members are singletons compared by identity, so the identity hash
    # agrees with ==; Enum's own hashes the name in Python code.
    __hash__ = object.__hash__


class ArityMismatch(ValueError):
    """Sequential composition with incompatible boundary widths."""


class NodePort(NamedTuple):
    node: int
    port: int


class BoundaryPort(NamedTuple):
    side: str  # "in" or "out"
    pos: int


Endpoint = Union[NodePort, BoundaryPort]


class Node(NamedTuple):
    kind: GeneratorKind
    degree: int


class Violation(NamedTuple):
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class Diagram(Frozen):
    """An immutable open diagram with ``n_in`` inputs and ``n_out`` outputs.

    Nodes are indexed densely: node ``i`` is ``nodes[i]``. Edge order is
    canonicalized on construction, so structural equality ignores the
    order in which edges were listed: each edge lists its lower end
    first, and edges go by their lower ends, inputs by position, then
    node ports by (node, port), then outputs. ``DiagramBuilder.finish``
    lays its edges out in that order and hands over their wiring, so
    such a diagram skips the sort.
    """

    __match_args__ = ("nodes", "edges", "n_in", "n_out")
    nodes: tuple[Node, ...]
    edges: tuple[tuple[Endpoint, Endpoint], ...]
    n_in: int
    n_out: int

    def __init__(
        self,
        nodes: tuple[Node, ...],
        edges: tuple[tuple[Endpoint, Endpoint], ...],
        n_in: int,
        n_out: int,
    ) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if "_wiring" in self.__dict__:
            return  # finish laid the edges out canonically
        # An endpoint's key puts inputs (0, pos) before node ports
        # (1, NodePort), which compare as (node, port) tuples, before every
        # other side (2, pos). Each edge lists its lower end first, and
        # edges sort stably by their two keys.
        keyed = []
        for a, b in self.edges:
            ka = (1, a) if type(a) is NodePort else (0 if a.side == "in" else 2, a.pos)
            kb = (1, b) if type(b) is NodePort else (0 if b.side == "in" else 2, b.pos)
            keyed.append(((ka, kb), (a, b)) if ka <= kb else ((kb, ka), (b, a)))
        keyed.sort(key=itemgetter(0))
        object.__setattr__(self, "edges", tuple(map(itemgetter(1), keyed)))

    @cached_property
    def _wiring(self) -> tuple[list, list[int], list[int]] | None:
        """Which edge each endpoint sits on: (node slots, input wires,
        output wires), where node i's slots list the edge of each of its
        ports (``()`` for no port), or None if an endpoint is out of
        range, used twice or on an unknown side, or a slot stays empty.
        ``finish`` hands it over; for any other diagram it is one walk
        over the edges, made on first use. It is kept out of ``==``,
        ``repr`` and JSON."""
        # Every slot is filled iff the walk notes no fault and the
        # endpoints number as many as the slots.
        nodes, edges = self.nodes, self.edges
        node_slots = [[-1] * degree if degree > 0 else () for _, degree in nodes]
        in_wire, out_wire = [-1] * self.n_in, [-1] * self.n_out
        n_nodes, faulty = len(nodes), False
        for widx, edge in enumerate(edges):
            for ep in edge:
                if type(ep) is NodePort:
                    node, port = ep
                    slots = node_slots[node] if 0 <= node < n_nodes else ()
                else:
                    side, port = ep
                    slots = in_wire if side == "in" else out_wire if side == "out" else ()
                if 0 <= port < len(slots) and slots[port] < 0:
                    slots[port] = widx
                else:
                    faulty = True
        if faulty or 2 * len(edges) != sum(map(len, node_slots)) + len(in_wire) + len(out_wire):
            return None
        return node_slots, in_wire, out_wire

    # -- structural checks -------------------------------------------------

    def validate(self) -> list[Violation]:
        """Return all invariant violations, empty iff well formed."""
        out: list[Violation] = []
        degrees = [node.degree for node in self.nodes]
        ports: list[NodePort] = []
        ends: list[BoundaryPort] = []
        for ep in chain.from_iterable(self.edges):
            if type(ep) is NodePort:
                node, port = ep
                if not 0 <= node < len(degrees):
                    out.append(Violation("UnknownNode", f"edge endpoint references node {node}"))
                elif not 0 <= port < degrees[node]:
                    out.append(
                        Violation(
                            "BadPort", f"node {node} has degree {degrees[node]}, no port {port}"
                        )
                    )
                else:
                    ports.append(ep)
            elif ep.side not in ("in", "out"):
                out.append(Violation("BadBoundary", f"unknown side {ep.side!r}"))
            else:
                width = self.n_in if ep.side == "in" else self.n_out
                if 0 <= ep.pos < width:
                    ends.append(ep)
                else:
                    out.append(
                        Violation(
                            "BadBoundary",
                            f"{ep.side} boundary has width {width}, no position {ep.pos}",
                        )
                    )
        port_uses = Counter(ports)
        if len(port_uses) < len(ports):
            for (node, port), count in sorted(port_uses.items()):
                if count > 1:
                    out.append(
                        Violation("DuplicatePort", f"port {port} of node {node} used {count} times")
                    )
        # port_uses holds distinct real ports, so it has one per port
        # exactly when none is dangling.
        dangling = len(port_uses) < sum(max(degree, 0) for degree in degrees)
        for i, (kind, degree) in enumerate(self.nodes):
            if kind is GeneratorKind.STAR and degree != 0:
                out.append(Violation("StarWithLegs", f"star node {i} has degree {degree}"))
                continue
            for port in range(degree) if dangling else ():
                if (i, port) not in port_uses:
                    out.append(Violation("MissingPort", f"port {port} of node {i} is dangling"))
        boundary_uses = Counter(ends)
        for side, width in (("in", self.n_in), ("out", self.n_out)):
            for pos in range(width):
                count = boundary_uses[(side, pos)]
                if count != 1:
                    out.append(
                        Violation(
                            "BoundaryDegree",
                            f"{side} position {pos} appears in {count} edges, wanted 1",
                        )
                    )
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"id": i, "kind": node.kind.value} for i, node in enumerate(self.nodes)
            ],
            "edges": [
                [_endpoint_to_json(a), _endpoint_to_json(b)] for a, b in self.edges
            ],
            "inputs": [
                {"boundary": "in", "pos": i} for i in range(self.n_in)
            ],
            "outputs": [
                {"boundary": "out", "pos": i} for i in range(self.n_out)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Diagram":
        """Parse the JSON form. Structural shape errors raise ValueError;
        graph-level problems are left for ``validate``."""
        keys = ("nodes", "edges", "inputs", "outputs")
        raw = _fields(data, "diagram", keys)
        for key, value in zip(keys, raw):
            if type(value) is not list:
                raise ValueError(f"{key!r} must be a JSON array, got {_brief(value)}")
        raw_nodes, raw_edges, raw_inputs, raw_outputs = raw
        id_to_index: dict[int, int] = {}
        kinds: list[GeneratorKind] = []
        for entry in sorted(raw_nodes, key=lambda e: _int_field(e, "id")):
            node_id = entry["id"]
            if node_id in id_to_index:
                raise ValueError(f"duplicate node id {_brief(node_id)}")
            id_to_index[node_id] = len(kinds)
            try:
                kinds.append(GeneratorKind(entry.get("kind")))
            except ValueError as exc:
                raise ValueError(f"unknown generator kind {_brief(entry.get('kind'))}") from exc
        in_map = _boundary_permutation(raw_inputs, "in")
        out_map = _boundary_permutation(raw_outputs, "out")

        degrees = [0] * len(kinds)
        edges = []
        for pair in raw_edges:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("each edge must have exactly two endpoints")
            eps = []
            for raw in pair:
                ep = _endpoint_from_json(raw, id_to_index, in_map, out_map)
                if isinstance(ep, NodePort):
                    if not 0 <= ep.port < 2 * len(raw_edges):
                        raise ValueError(
                            f"port {_brief(ep.port)} outside 0..{2 * len(raw_edges) - 1}"
                        )
                    degrees[ep.node] = max(degrees[ep.node], ep.port + 1)
                eps.append(ep)
            edges.append((eps[0], eps[1]))
        nodes = tuple(Node(kind=k, degree=d) for k, d in zip(kinds, degrees))
        return cls(nodes=nodes, edges=tuple(edges), n_in=len(raw_inputs), n_out=len(raw_outputs))


def _endpoint_to_json(ep: Endpoint) -> dict:
    if isinstance(ep, NodePort):
        return {"node": ep.node, "port": ep.port}
    return {"boundary": ep.side, "pos": ep.pos}


def _int_field(obj: object, key: str) -> int:
    """The integer ``obj[key]`` of a JSON object, or ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {_brief(obj)}")
    value = obj.get(key)
    if type(value) is not int:  # bool is an int subclass; reject it too
        raise ValueError(f"{key!r} must be an integer, got {_brief(value)}")
    return value


def _boundary_permutation(raw: list, side: str) -> dict[int, int]:
    """Map listed boundary positions to their logical order 0..len-1."""
    mapping: dict[int, int] = {}
    for logical, entry in enumerate(raw):
        pos = _int_field(entry, "pos")
        if entry.get("boundary") != side:
            raise ValueError(f"{side} list holds a non-{side} endpoint: {_brief(entry)}")
        if pos in mapping:
            raise ValueError(f"{side} position {_brief(pos)} listed twice")
        mapping[pos] = logical
    if sorted(mapping) != list(range(len(raw))):
        raise ValueError(f"{side} positions must cover 0..{len(raw) - 1}")
    return mapping


def _endpoint_from_json(
    raw: dict,
    id_to_index: dict[int, int],
    in_map: dict[int, int],
    out_map: dict[int, int],
) -> Endpoint:
    if not isinstance(raw, dict):
        raise ValueError(f"endpoint must be a JSON object, got {_brief(raw)}")
    if "node" in raw:
        node_id = _int_field(raw, "node")
        if node_id not in id_to_index:
            raise ValueError(f"edge references unknown node id {_brief(node_id)}")
        return NodePort(node=id_to_index[node_id], port=_int_field(raw, "port"))
    side = raw.get("boundary")
    if side in ("in", "out"):
        pos = _int_field(raw, "pos")
        mapping = in_map if side == "in" else out_map
        return BoundaryPort(side=side, pos=mapping.get(pos, pos))
    raise ValueError(f"malformed endpoint: {_brief(raw)}")


# -- constructors ----------------------------------------------------------


def identity(n: int) -> Diagram:
    """n parallel wires, no nodes."""
    if n < 0:
        raise ValueError("wire count must be non-negative")
    edges = tuple(
        (BoundaryPort(side="in", pos=i), BoundaryPort(side="out", pos=i))
        for i in range(n)
    )
    return Diagram(nodes=(), edges=edges, n_in=n, n_out=n)


def generator(kind: GeneratorKind, m: int, n: int) -> Diagram:
    """A single generator node wired straight to the boundary, m inputs
    below and n outputs above."""
    if m < 0 or n < 0:
        raise ValueError("leg counts must be non-negative")
    if kind is GeneratorKind.STAR and (m or n):
        raise ValueError("star is a scalar; it has no legs")
    node = Node(kind=kind, degree=m + n)
    edges = [
        (BoundaryPort(side="in", pos=i), NodePort(node=0, port=i)) for i in range(m)
    ]
    edges += [
        (NodePort(node=0, port=m + j), BoundaryPort(side="out", pos=j))
        for j in range(n)
    ]
    return Diagram(nodes=(node,), edges=tuple(edges), n_in=m, n_out=n)


def basis_state(bit: bool) -> Diagram:
    """The normalized one-wire state |0> or |1>: a star times a one-leg
    dark spider (bit 0) or dark not (bit 1), the Kronecker delta on bit."""
    kind = GeneratorKind.DARK_NOT if bit else GeneratorKind.DARK_SPIDER
    nodes = (Node(kind=GeneratorKind.STAR, degree=0), Node(kind=kind, degree=1))
    edges = ((NodePort(node=1, port=0), BoundaryPort(side="out", pos=0)),)
    return Diagram(nodes=nodes, edges=edges, n_in=0, n_out=1)


def basis_effect(bit: bool) -> Diagram:
    """The normalized one-wire effect <0| or <1|: the nodes of |bit>."""
    edges = ((BoundaryPort(side="in", pos=0), NodePort(node=1, port=0)),)
    return Diagram(nodes=basis_state(bit).nodes, edges=edges, n_in=1, n_out=0)


# -- composition -----------------------------------------------------------


def compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Sequential composition d1 after d2 (matrix order: d1 times d2).

    The outputs of d2 are fused with the inputs of d1 position by
    position. Fused wires are spliced away; a chain of fused wires that
    closes on itself leaves no endpoints at all, so it is materialized
    as a fresh two-leg white spider with a self-loop, which is the
    scalar 2 that the traced wire denotes.
    """
    if d2.n_out != d1.n_in:
        raise ArityMismatch(
            f"cannot plug {d2.n_out} outputs into {d1.n_in} inputs"
        )
    n, offset = d2.n_out, len(d2.nodes)
    nodes: list[Node] = list(d2.nodes) + list(d1.nodes)
    edges: list[tuple[Endpoint, Endpoint]] = []
    # Output p of d2 and input p of d1 meet at junction p. meets[side][p]
    # is the far end of that side's edge at p (side 0 is d2, side 1 is
    # d1): a real endpoint, or the int q when the edge joins p to q.
    meets: tuple[list, list] = ([None] * n, [None] * n)
    malformed = "fused position {} is not on exactly one edge of each side; inputs are malformed"
    for side, kept, operand in ((0, "in", d2), (1, "out", d1)):
        shift, meet = side * offset, meets[side]
        for a, b in operand.edges:
            if type(a) is NodePort:
                a = NodePort(node=a.node + shift, port=a.port) if shift else a
            elif a.side != kept:
                a = a.pos
            if type(b) is NodePort:
                b = NodePort(node=b.node + shift, port=b.port) if shift else b
            elif b.side != kept:
                b = b.pos
            if type(a) is not int and type(b) is not int:
                edges.append((a, b))
                continue
            for p, far in ((a, b), (b, a)):
                if type(p) is int:
                    if not 0 <= p < n or meet[p] is not None:
                        raise ValueError(malformed.format(p))
                    meet[p] = far
    for meet in meets:
        if None in meet:
            raise ValueError(malformed.format(meet.index(None)))

    # Walk each junction's chain both ways, leaving through d2's edge and
    # then d1's, until it reaches a real end or closes back on itself.
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        ends = []
        for side in (0, 1):
            far = meets[side][start]
            while type(far) is int and far != start:
                seen[far] = True
                side = 1 - side
                far = meets[side][far]
            ends.append(far)
        if far != start:
            edges.append((ends[0], ends[1]))
            continue
        loop_id = len(nodes)
        nodes.append(Node(kind=GeneratorKind.WHITE_SPIDER, degree=2))
        edges.append((NodePort(node=loop_id, port=0), NodePort(node=loop_id, port=1)))

    return Diagram(nodes=tuple(nodes), edges=tuple(edges), n_in=d2.n_in, n_out=d1.n_out)


def tensor(d1: Diagram, d2: Diagram) -> Diagram:
    """Parallel composition; d1 occupies the first boundary positions."""
    offset = len(d1.nodes)

    def shift(ep: Endpoint) -> Endpoint:
        if isinstance(ep, NodePort):
            return NodePort(node=ep.node + offset, port=ep.port)
        base = d1.n_in if ep.side == "in" else d1.n_out
        return BoundaryPort(side=ep.side, pos=ep.pos + base)

    edges = list(d1.edges) + [(shift(a), shift(b)) for a, b in d2.edges]
    return Diagram(
        nodes=tuple(d1.nodes) + tuple(d2.nodes),
        edges=tuple(edges),
        n_in=d1.n_in + d2.n_in,
        n_out=d1.n_out + d2.n_out,
    )


def tensor_all(parts: list[Diagram]) -> Diagram:
    """Left fold of ``tensor`` over ``parts``; empty input gives the unit."""
    out = Diagram(nodes=(), edges=(), n_in=0, n_out=0)
    for part in parts:
        out = tensor(out, part)
    return out


# -- incremental construction ----------------------------------------------


class DiagramBuilder:
    """Assemble a diagram node by node.

    ``node`` registers a generator, ``leg`` allocates its next port and
    returns the handle, ``connect`` joins two handles, ``splice`` copies
    in a whole diagram, and ``finish`` wires the remaining handles to the
    boundary in the given order. Every allocated leg must end up used
    exactly once, and a caller-given leg never allocated is refused, as
    is a gadget wire end that is not one of the gadget's ports. Legs
    inside the builder are plain (node, port) pairs, which hash and
    compare like the ``NodePort`` handles.

    So the set of used legs only ever holds allocated legs, and
    ``finish`` knows every leg is wired when that set is as large as
    the degrees' sum; it scans the ports only to name the first dangling
    one. The finished diagram keeps each spliced gadget's ``Node``
    objects; a node made by ``node``, or one that ``leg`` grew, gets a
    new ``Node``, as does a gadget node listed as a plain tuple.

    Once every leg is wired, each endpoint is used once, so ``finish``
    lays each edge at its lower end in the canonical order (inputs, then
    node ports by (node, port), then outputs) with no sort, and numbers
    the edges in one pass, noting each port's edge. The diagram gets
    that wiring with its edges, so its constructor skips the sort and
    its compile skips the walk.
    """

    def __init__(self) -> None:
        self._kinds: list[GeneratorKind] = []
        self._degrees: list[int] = []
        # Each spliced gadget's own nodes, shared; None for a node whose
        # degree ``leg`` sets, which finish makes anew.
        self._nodes: list[Node | None] = []
        self._edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._used: set[tuple[int, int]] = set()

    def node(self, kind: GeneratorKind) -> int:
        self._kinds.append(kind)
        self._degrees.append(0)
        self._nodes.append(None)
        return len(self._kinds) - 1

    def leg(self, node_id: int) -> NodePort:
        if not 0 <= node_id < len(self._kinds):
            raise ValueError(f"no node {node_id}")
        if self._kinds[node_id] is GeneratorKind.STAR:
            raise ValueError("star is a scalar; it has no legs")
        port = self._degrees[node_id]
        self._degrees[node_id] += 1
        self._nodes[node_id] = None
        return NodePort(node_id, port)

    def _allocated(self, ep: NodePort) -> None:
        """Raise unless this builder's ``leg`` handed out ``ep``."""
        node, port = ep
        if not (0 <= node < len(self._degrees) and 0 <= port < self._degrees[node]):
            raise ValueError(f"leg {ep} was never allocated by this builder")

    def connect(self, a: NodePort, b: NodePort) -> None:
        for ep in (a, b):
            self._allocated(ep)
            if ep in self._used:
                raise ValueError(f"leg {ep} is already connected")
        if a == b:
            raise ValueError("cannot connect a leg to itself; allocate two legs")
        self._used.add(a)
        self._used.add(b)
        self._edges.append((a, b))

    def star(self) -> int:
        return self.node(GeneratorKind.STAR)

    def splice(self, gadget: Diagram, inputs: Sequence[NodePort] = ()) -> list[NodePort]:
        """Copy ``gadget`` in with its inputs wired to the legs ``inputs``;
        return the legs at its outputs, in output order. Node ids shift
        by the builder's node count. Edges are canonical, so an input end
        comes first and an output end last."""
        if len(inputs) != gadget.n_in:
            raise ValueError(f"gadget takes {gadget.n_in} inputs, got {len(inputs)}")
        for leg in inputs:
            self._allocated(leg)
        base = len(self._kinds)
        self._kinds += map(itemgetter(0), gadget.nodes)
        self._degrees += map(itemgetter(1), gadget.nodes)
        self._nodes += gadget.nodes
        used, edges, degrees = self._used, self._edges, self._degrees
        size = len(gadget.nodes)
        bad = "gadget wire end {} is not a port of the gadget"
        outputs: list = [None] * gadget.n_out
        for a, b in gadget.edges:
            if type(a) is NodePort:
                node, port = a
                if not (0 <= node < size and 0 <= port < degrees[node + base]):
                    raise ValueError(bad.format(a))
                near = (node + base, port)
            elif a.side == "in":
                if not 0 <= a.pos < gadget.n_in:
                    raise ValueError(bad.format(a))
                near = inputs[a.pos]
            else:
                near = None
            if type(b) is not NodePort:
                if near is None or b.side == "in":
                    raise ValueError("a gadget wire joins two inputs or two outputs")
                if b.side != "out" or not 0 <= b.pos < gadget.n_out:
                    raise ValueError(bad.format(b))
                outputs[b.pos] = NodePort(*near)
                continue
            node, port = b
            if not (0 <= node < size and 0 <= port < degrees[node + base]):
                raise ValueError(bad.format(b))
            far = (node + base, port)
            if near in used or far in used or near == far:
                self.connect(NodePort(*near), NodePort(*far))  # raises its error
            used.add(near)
            used.add(far)
            edges.append((near, far))
        if None in outputs:
            raise ValueError(f"gadget output {outputs.index(None)} is on no wire")
        return outputs

    def finish(
        self,
        inputs: list[NodePort] = (),
        outputs: list[NodePort] = (),
    ) -> Diagram:
        used, degrees = self._used, self._degrees
        for stubs in (inputs, outputs):
            for stub in stubs:
                self._allocated(stub)
                if stub in used:
                    raise ValueError(f"leg {stub} is already connected")
                used.add(stub)
        # used holds only allocated legs, each once, so it holds them all
        # exactly when it is as large as their count. Only a shortfall is
        # worth a scan, for the first dangling port to name.
        if len(used) != sum(degrees):
            for node_id, degree in enumerate(degrees):
                for port in range(degree):
                    if (node_id, port) not in used:
                        raise ValueError(f"port {port} of node {node_id} was never connected")
        # A spliced gadget's Node is shared as it is; a node made here, or
        # one a gadget listed as a plain tuple, gets a new one. tuple.__new__
        # makes a named tuple without its Python-level constructor.
        new = tuple.__new__
        nodes = tuple([
            node if type(node) is Node else new(Node, pair)
            for node, pair in zip(self._nodes, zip(self._kinds, degrees))
        ])
        n_in, n_out = len(inputs), len(outputs)
        # Every endpoint is used once, so each has its own place in the
        # canonical order: inputs by position, then node ports by (node,
        # port), port p of node i at base[i] + p, then outputs. A negative
        # degree counts as none, as no leg of it is allocated. An edge is
        # laid at its lower end, listed first, and notes its higher end.
        base = list(accumulate((g if g > 0 else 0 for g in degrees), initial=n_in))
        top = base[-1]
        laid: list = [None] * top
        higher = [0] * top
        for a, b in self._edges:
            ka, kb = base[a[0]] + a[1], base[b[0]] + b[1]
            if ka < kb:
                laid[ka], higher[ka] = (new(NodePort, a), new(NodePort, b)), kb
            else:
                laid[kb], higher[kb] = (new(NodePort, b), new(NodePort, a)), ka
        for pos, stub in enumerate(inputs):
            laid[pos] = (new(BoundaryPort, ("in", pos)), new(NodePort, stub))
            higher[pos] = base[stub[0]] + stub[1]
        for pos, stub in enumerate(outputs):
            k = base[stub[0]] + stub[1]
            laid[k], higher[k] = (new(NodePort, stub), new(BoundaryPort, ("out", pos))), top + pos
        # One pass numbers the edges in that order and puts each edge's
        # number at both its ends.
        wire = [0] * (top + n_out)
        for w, k in enumerate(compress(range(top), laid)):
            wire[k] = wire[higher[k]] = w
        wiring = ([wire[s:t] if s < t else () for s, t in pairwise(base)], wire[:n_in], wire[top:])
        # The diagram still goes through its constructor, which sees the
        # wiring and keeps the edges in the order given.
        d = Diagram.__new__(Diagram)
        d.__dict__["_wiring"] = wiring
        d.__init__(nodes=nodes, edges=tuple(filter(None, laid)), n_in=n_in, n_out=n_out)
        return d
