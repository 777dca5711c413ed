"""Structural tests for the diagram data model."""

from __future__ import annotations

import json
import random

import pytest

from zhcalc.corpus import random_diagram
from zhcalc.diagram import (
    ArityMismatch,
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

Z = GeneratorKind.WHITE_SPIDER
X = GeneratorKind.DARK_SPIDER
STAR = GeneratorKind.STAR


def inb(pos: int) -> BoundaryPort:
    return BoundaryPort(side="in", pos=pos)


def outb(pos: int) -> BoundaryPort:
    return BoundaryPort(side="out", pos=pos)


def np(node: int, port: int) -> NodePort:
    return NodePort(node=node, port=port)


class TestConstructors:
    def test_identity_is_clean(self) -> None:
        for n in range(4):
            d = identity(n)
            assert d.validate() == []
            assert d.n_in == d.n_out == n
            assert len(d.edges) == n

    def test_generator_every_kind(self) -> None:
        for kind in GeneratorKind:
            if kind is STAR:
                d = generator(kind, 0, 0)
            else:
                d = generator(kind, 2, 1)
            assert d.validate() == []

    def test_kinds_hash_by_identity(self) -> None:
        # Members are singletons, so a lookup by a member found any way
        # (by value, by name, from JSON) hits the entry keyed by it.
        assert GeneratorKind.__hash__ is object.__hash__
        table = {kind: kind.value for kind in GeneratorKind}
        for kind in GeneratorKind:
            assert table[GeneratorKind(kind.value)] == table[GeneratorKind[kind.name]] == kind.value
            assert kind in set(GeneratorKind) and {kind} == {GeneratorKind(kind.value)}
        d = Diagram.from_json(json.loads(json.dumps(generator(Z, 1, 2).to_json())))
        assert table[d.nodes[0].kind] == "Z"

    def test_star_refuses_legs(self) -> None:
        with pytest.raises(ValueError):
            generator(STAR, 1, 0)

    def test_basis_states_and_effects(self) -> None:
        for bit in (False, True):
            s = basis_state(bit)
            e = basis_effect(bit)
            assert (s.n_in, s.n_out) == (0, 1)
            assert (e.n_in, e.n_out) == (1, 0)
            assert s.validate() == []
            assert e.validate() == []


class TestValidate:
    def test_unknown_node(self) -> None:
        d = Diagram(nodes=(), edges=((np(0, 0), outb(0)),), n_in=0, n_out=1)
        assert [v.code for v in d.validate()] == ["UnknownNode"]

    def test_bad_port(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=1),),
            edges=((np(0, 3), outb(0)),),
            n_in=0,
            n_out=1,
        )
        codes = [v.code for v in d.validate()]
        assert "BadPort" in codes
        assert "MissingPort" in codes  # port 0 stays dangling

    def test_duplicate_port(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=1),),
            edges=((np(0, 0), outb(0)), (np(0, 0), outb(1))),
            n_in=0,
            n_out=2,
        )
        assert "DuplicatePort" in [v.code for v in d.validate()]

    def test_missing_port(self) -> None:
        d = Diagram(nodes=(Node(kind=Z, degree=2),), edges=(), n_in=0, n_out=0)
        assert [v.code for v in d.validate()] == ["MissingPort", "MissingPort"]

    def test_bad_boundary(self) -> None:
        d = Diagram(nodes=(), edges=((inb(0), outb(5)),), n_in=1, n_out=1)
        codes = [v.code for v in d.validate()]
        assert "BadBoundary" in codes
        assert "BoundaryDegree" in codes  # out 0 is then unused

    def test_boundary_degree_double_use(self) -> None:
        d = Diagram(
            nodes=(),
            edges=((inb(0), outb(0)), (inb(1), outb(0))),
            n_in=2,
            n_out=1,
        )
        assert "BoundaryDegree" in [v.code for v in d.validate()]

    def test_star_with_legs(self) -> None:
        d = Diagram(
            nodes=(Node(kind=STAR, degree=1),),
            edges=((np(0, 0), outb(0)),),
            n_in=0,
            n_out=1,
        )
        assert "StarWithLegs" in [v.code for v in d.validate()]

    def test_random_diagrams_are_clean(self) -> None:
        rng = random.Random(31)
        for _ in range(300):
            assert random_diagram(rng).validate() == []


class TestValidateMessages:
    """The full ``validate`` list, in order, on hand-made malformed
    diagrams covering all seven codes."""

    @staticmethod
    def messages(d: Diagram) -> list[str]:
        return [str(v) for v in d.validate()]

    def test_unknown_node(self) -> None:
        d = Diagram(
            nodes=(), edges=((np(0, 0), outb(0)), (np(-1, 0), inb(0))), n_in=1, n_out=1
        )
        assert self.messages(d) == [
            "UnknownNode: edge endpoint references node -1",
            "UnknownNode: edge endpoint references node 0",
        ]

    def test_bad_port(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=2),),
            edges=((np(0, 3), outb(0)), (np(0, -1), np(0, 0))),
            n_in=0,
            n_out=1,
        )
        assert self.messages(d) == [
            "BadPort: node 0 has degree 2, no port -1",
            "BadPort: node 0 has degree 2, no port 3",
            "MissingPort: port 1 of node 0 is dangling",
        ]

    def test_bad_boundary(self) -> None:
        d = Diagram(
            nodes=(),
            edges=((inb(0), outb(5)), (BoundaryPort(side="up", pos=0), inb(-1))),
            n_in=1,
            n_out=1,
        )
        assert self.messages(d) == [
            "BadBoundary: in boundary has width 1, no position -1",
            "BadBoundary: unknown side 'up'",
            "BadBoundary: out boundary has width 1, no position 5",
            "BoundaryDegree: out position 0 appears in 0 edges, wanted 1",
        ]

    def test_duplicate_port(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=2), Node(kind=X, degree=1)),
            edges=(
                (np(1, 0), outb(0)),
                (np(0, 1), np(1, 0)),
                (np(0, 1), np(0, 1)),
            ),
            n_in=0,
            n_out=1,
        )
        assert self.messages(d) == [
            "DuplicatePort: port 1 of node 0 used 3 times",
            "DuplicatePort: port 0 of node 1 used 2 times",
            "MissingPort: port 0 of node 0 is dangling",
        ]

    def test_missing_port(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=2), Node(kind=GeneratorKind.H_BOX, degree=3)),
            edges=((np(1, 1), np(0, 0)),),
            n_in=0,
            n_out=0,
        )
        assert self.messages(d) == [
            "MissingPort: port 1 of node 0 is dangling",
            "MissingPort: port 0 of node 1 is dangling",
            "MissingPort: port 2 of node 1 is dangling",
        ]

    def test_star_with_legs(self) -> None:
        d = Diagram(
            nodes=(
                Node(kind=STAR, degree=2),
                Node(kind=STAR, degree=0),
                Node(kind=STAR, degree=1),
            ),
            edges=((np(0, 0), outb(0)),),
            n_in=0,
            n_out=1,
        )
        assert self.messages(d) == [
            "StarWithLegs: star node 0 has degree 2",
            "StarWithLegs: star node 2 has degree 1",
        ]

    def test_boundary_degree(self) -> None:
        d = Diagram(
            nodes=(),
            edges=((inb(0), outb(0)), (inb(0), outb(0)), (inb(2), outb(2))),
            n_in=2,
            n_out=3,
        )
        assert self.messages(d) == [
            "BadBoundary: in boundary has width 2, no position 2",
            "BoundaryDegree: in position 0 appears in 2 edges, wanted 1",
            "BoundaryDegree: in position 1 appears in 0 edges, wanted 1",
            "BoundaryDegree: out position 0 appears in 2 edges, wanted 1",
            "BoundaryDegree: out position 1 appears in 0 edges, wanted 1",
        ]

    def test_several_faults_at_once(self) -> None:
        d = Diagram(
            nodes=(Node(kind=Z, degree=3), Node(kind=STAR, degree=1), Node(kind=X, degree=1)),
            edges=(
                (np(0, 0), np(0, 0)),
                (np(0, 5), outb(0)),
                (np(7, 0), inb(0)),
                (np(1, 0), outb(3)),
                (BoundaryPort(side="up", pos=0), np(2, 0)),
                (outb(1), inb(0)),
            ),
            n_in=1,
            n_out=2,
        )
        # Canonical order: inputs, then node ports, then every other side.
        assert d.edges == (
            (inb(0), np(7, 0)),
            (inb(0), outb(1)),
            (np(0, 0), np(0, 0)),
            (np(0, 5), outb(0)),
            (np(1, 0), outb(3)),
            (np(2, 0), BoundaryPort(side="up", pos=0)),
        )
        assert self.messages(d) == [
            "UnknownNode: edge endpoint references node 7",
            "BadPort: node 0 has degree 3, no port 5",
            "BadBoundary: out boundary has width 2, no position 3",
            "BadBoundary: unknown side 'up'",
            "DuplicatePort: port 0 of node 0 used 2 times",
            "MissingPort: port 1 of node 0 is dangling",
            "MissingPort: port 2 of node 0 is dangling",
            "StarWithLegs: star node 1 has degree 1",
            "BoundaryDegree: in position 0 appears in 2 edges, wanted 1",
        ]


class TestCompose:
    def test_arity_mismatch(self) -> None:
        with pytest.raises(ArityMismatch):
            compose(identity(2), identity(1))

    def test_identity_chain(self) -> None:
        assert compose(identity(1), identity(1)) == identity(1)
        assert compose(identity(3), identity(3)) == identity(3)

    def test_splices_through_nodes(self) -> None:
        plug = compose(generator(Z, 1, 1), generator(X, 1, 1))
        assert plug.validate() == []
        assert len(plug.nodes) == 2
        # One internal edge joins the two nodes; two reach the boundary.
        internal = [
            e for e in plug.edges if all(isinstance(ep, NodePort) for ep in e)
        ]
        assert len(internal) == 1

    def test_cap_after_cup_leaves_traced_loop(self) -> None:
        cup = Diagram(nodes=(), edges=((outb(0), outb(1)),), n_in=0, n_out=2)
        cap = Diagram(nodes=(), edges=((inb(0), inb(1)),), n_in=2, n_out=0)
        traced = compose(cap, cup)
        assert traced.validate() == []
        assert (traced.n_in, traced.n_out) == (0, 0)
        assert traced.nodes == (Node(kind=Z, degree=2),)
        assert traced.edges == ((np(0, 0), np(0, 1)),)

    def test_wire_through_composition(self) -> None:
        # d2 routes its input straight to output 0 and caps outputs 1,2
        # with a cup; d1 swaps nothing but ends on nodes.
        d2 = Diagram(
            nodes=(),
            edges=((inb(0), outb(0)), (outb(1), outb(2))),
            n_in=1,
            n_out=3,
        )
        d1 = Diagram(
            nodes=(Node(kind=Z, degree=3),),
            edges=((inb(0), np(0, 0)), (inb(1), np(0, 1)), (inb(2), np(0, 2))),
            n_in=3,
            n_out=0,
        )
        spliced = compose(d1, d2)
        assert spliced.validate() == []
        assert spliced.edges == (
            (inb(0), np(0, 0)),
            (np(0, 1), np(0, 2)),
        )

    def test_malformed_operands_raise_value_error(self) -> None:
        # Output 0 of d2 on two edges, and an output no edge touches.
        doubled = Diagram(
            nodes=(Node(kind=Z, degree=2),),
            edges=((np(0, 0), outb(0)), (np(0, 1), outb(0))),
            n_in=0,
            n_out=1,
        )
        untouched = Diagram(
            nodes=(Node(kind=Z, degree=1),),
            edges=((np(0, 0), outb(0)),),
            n_in=0,
            n_out=2,
        )
        for d2 in (doubled, untouched):
            with pytest.raises(ValueError) as info:
                compose(identity(d2.n_out), d2)
            assert not isinstance(info.value, ArityMismatch)

    def test_preserves_validity_on_random_pairs(self) -> None:
        rng = random.Random(90125)
        for _ in range(200):
            mid = rng.randint(0, 3)
            d2 = random_diagram(rng, n_out=mid)
            d1 = random_diagram(rng, n_in=mid)
            out = compose(d1, d2)
            assert out.validate() == []
            assert (out.n_in, out.n_out) == (d2.n_in, d1.n_out)


class TestTensor:
    def test_unit(self) -> None:
        unit = Diagram(nodes=(), edges=(), n_in=0, n_out=0)
        d = generator(Z, 1, 2)
        assert tensor(unit, d) == d
        assert tensor(d, unit) == d

    def test_wire_pair(self) -> None:
        assert tensor(identity(1), identity(1)) == identity(2)

    def test_associative(self) -> None:
        rng = random.Random(8)
        for _ in range(50):
            a, b, c = (random_diagram(rng, max_nodes=2) for _ in range(3))
            assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    def test_tensor_all(self) -> None:
        parts = [basis_state(True), basis_state(False), identity(1)]
        combined = tensor_all(parts)
        assert (combined.n_in, combined.n_out) == (1, 3)
        assert combined.validate() == []

    def test_preserves_validity(self) -> None:
        rng = random.Random(6021023)
        for _ in range(100):
            a = random_diagram(rng)
            b = random_diagram(rng)
            assert tensor(a, b).validate() == []


class TestJson:
    def test_golden_shape(self) -> None:
        blob = json.dumps(basis_state(True).to_json())
        assert blob == (
            '{"nodes": [{"id": 0, "kind": "Star"}, {"id": 1, "kind": "XNot"}], '
            '"edges": [[{"node": 1, "port": 0}, {"boundary": "out", "pos": 0}]], '
            '"inputs": [], '
            '"outputs": [{"boundary": "out", "pos": 0}]}'
        )

    def test_round_trip_equality(self) -> None:
        rng = random.Random(1207)
        for _ in range(200):
            d = random_diagram(rng)
            assert Diagram.from_json(d.to_json()) == d

    def test_accepts_sparse_node_ids(self) -> None:
        data = {
            "nodes": [{"id": 7, "kind": "Z"}, {"id": 3, "kind": "Star"}],
            "edges": [[{"node": 7, "port": 0}, {"boundary": "out", "pos": 0}]],
            "inputs": [],
            "outputs": [{"boundary": "out", "pos": 0}],
        }
        d = Diagram.from_json(data)
        assert d.validate() == []
        assert d.nodes == (Node(kind=STAR, degree=0), Node(kind=Z, degree=1))

    def test_permuted_boundary_lists_reorder_wires(self) -> None:
        data = {
            "nodes": [],
            "edges": [
                [{"boundary": "in", "pos": 0}, {"boundary": "out", "pos": 1}],
                [{"boundary": "in", "pos": 1}, {"boundary": "out", "pos": 0}],
            ],
            "inputs": [{"boundary": "in", "pos": 0}, {"boundary": "in", "pos": 1}],
            "outputs": [{"boundary": "out", "pos": 1}, {"boundary": "out", "pos": 0}],
        }
        d = Diagram.from_json(data)
        # Listing out 1 first makes it logical output 0, untwisting the swap.
        assert d == identity(2)

    def test_rejects_malformed(self) -> None:
        good = basis_state(False).to_json()
        for mutate in (
            lambda d: d.pop("edges"),
            lambda d: d["nodes"].append({"id": 0, "kind": "Z"}),
            lambda d: d["nodes"].append({"id": 9, "kind": "Quux"}),
            lambda d: d["edges"].append([{"node": 42, "port": 0}]),
            lambda d: d["inputs"].append({"boundary": "out", "pos": 0}),
            # One edge has two ends, so no valid port exceeds 1.
            lambda d: d["edges"][0][0].update(port=200000),
        ):
            data = json.loads(json.dumps(good))
            mutate(data)
            with pytest.raises(ValueError):
                Diagram.from_json(data)


class TestBuilder:
    def test_builds_a_spider_chain(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        x = b.node(X)
        b.connect(b.leg(z), b.leg(x))
        d = b.finish(inputs=[b.leg(z)], outputs=[b.leg(x)])
        assert d.validate() == []
        # Same shape as the composed form; port numbering may differ.
        other = compose(generator(X, 1, 1), generator(Z, 1, 1))
        assert d.nodes == other.nodes
        assert len(d.edges) == len(other.edges)
        assert (d.n_in, d.n_out) == (other.n_in, other.n_out)

    def test_rejects_double_connection(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        leg = b.leg(z)
        other = b.leg(z)
        b.connect(leg, other)
        with pytest.raises(ValueError):
            b.connect(leg, b.leg(z))

    def test_rejects_dangling_leg(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        b.leg(z)
        with pytest.raises(ValueError):
            b.finish()

    def test_rejects_star_leg(self) -> None:
        b = DiagramBuilder()
        s = b.star()
        with pytest.raises(ValueError):
            b.leg(s)

    def test_star_alone_is_fine(self) -> None:
        b = DiagramBuilder()
        b.star()
        d = b.finish()
        assert d.validate() == []
        assert d.nodes == (Node(kind=STAR, degree=0),)


class TestSplice:
    def test_returns_output_legs_in_output_order(self) -> None:
        b = DiagramBuilder()
        x = b.node(X)
        start = b.leg(x)
        legs = b.splice(generator(Z, 1, 2), [b.leg(x)])
        assert legs == [np(1, 1), np(1, 2)]
        d = b.finish(inputs=[start], outputs=legs)
        assert d == compose(generator(Z, 1, 2), generator(X, 1, 1))

    def test_output_order_follows_the_boundary_not_the_nodes(self) -> None:
        crossed = Diagram(
            nodes=(Node(kind=X, degree=1), Node(kind=Z, degree=1)),
            edges=((np(0, 0), outb(1)), (np(1, 0), outb(0))),
            n_in=0,
            n_out=2,
        )
        b = DiagramBuilder()
        b.star()
        assert b.splice(crossed) == [np(2, 0), np(1, 0)]

    def test_pass_through_wire_returns_the_input_leg(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        leg = b.leg(z)
        assert b.splice(identity(1), [leg]) == [leg]
        legs = b.splice(tensor(identity(1), generator(X, 1, 1)), [leg, b.leg(z)])
        assert legs == [leg, np(1, 1)]

    def test_rejects_an_arity_mismatch(self) -> None:
        b = DiagramBuilder()
        with pytest.raises(ValueError):
            b.splice(generator(Z, 1, 1))
        with pytest.raises(ValueError):
            b.splice(generator(Z, 0, 1), [b.leg(b.node(Z))])

    def test_rejects_a_cap_or_cup_across_the_boundary(self) -> None:
        cap = Diagram(nodes=(), edges=((inb(0), inb(1)),), n_in=2, n_out=0)
        cup = Diagram(nodes=(), edges=((outb(0), outb(1)),), n_in=0, n_out=2)
        b = DiagramBuilder()
        z = b.node(Z)
        with pytest.raises(ValueError):
            b.splice(cap, [b.leg(z), b.leg(z)])
        with pytest.raises(ValueError):
            b.splice(cup)


def _message(call, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


class TestBuilderErrors:
    """The exact message of each error ``DiagramBuilder`` raises."""

    def test_leg_on_a_missing_node(self) -> None:
        b = DiagramBuilder()
        b.node(Z)
        assert _message(b.leg, 1) == "no node 1"
        assert _message(b.leg, -1) == "no node -1"

    def test_leg_on_a_star(self) -> None:
        b = DiagramBuilder()
        assert _message(b.leg, b.star()) == "star is a scalar; it has no legs"

    def test_double_connect(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        first, second, third = b.leg(z), b.leg(z), b.leg(z)
        b.connect(first, second)
        taken = "leg NodePort(node=0, port=0) is already connected"
        assert _message(b.connect, third, first) == taken
        assert _message(b.connect, first, third) == taken

    def test_self_connect(self) -> None:
        b = DiagramBuilder()
        leg = b.leg(b.node(Z))
        assert _message(b.connect, leg, leg) == (
            "cannot connect a leg to itself; allocate two legs"
        )

    def test_port_left_dangling_at_finish(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        out = b.leg(z)
        b.leg(z)
        x = b.node(X)
        b.connect(b.leg(z), b.leg(x))
        b.leg(x)
        assert _message(b.finish, outputs=[out]) == "port 1 of node 0 was never connected"

    def test_stub_reused_at_finish(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        first, second = b.leg(z), b.leg(z)
        b.connect(first, second)
        assert _message(b.finish, outputs=[first]) == (
            "leg NodePort(node=0, port=0) is already connected"
        )
        b = DiagramBuilder()
        stub = b.leg(b.node(Z))
        assert _message(b.finish, inputs=[stub], outputs=[stub]) == (
            "leg NodePort(node=0, port=0) is already connected"
        )

    def test_splice_arity_mismatch(self) -> None:
        b = DiagramBuilder()
        assert _message(b.splice, generator(Z, 1, 1)) == "gadget takes 1 inputs, got 0"
        leg = b.leg(b.node(Z))
        assert _message(b.splice, generator(Z, 0, 1), [leg]) == (
            "gadget takes 0 inputs, got 1"
        )

    def test_cap_or_cup_across_the_boundary(self) -> None:
        cap = Diagram(nodes=(), edges=((inb(0), inb(1)),), n_in=2, n_out=0)
        cup = Diagram(nodes=(), edges=((outb(0), outb(1)),), n_in=0, n_out=2)
        b = DiagramBuilder()
        z = b.node(Z)
        crossing = "a gadget wire joins two inputs or two outputs"
        assert _message(b.splice, cap, [b.leg(z), b.leg(z)]) == crossing
        assert _message(b.splice, cup) == crossing

    def test_gadget_output_on_no_wire(self) -> None:
        half = Diagram(
            nodes=(Node(kind=Z, degree=1),), edges=((np(0, 0), outb(0)),), n_in=0, n_out=2
        )
        b = DiagramBuilder()
        assert _message(b.splice, half) == "gadget output 1 is on no wire"

    def test_gadget_port_on_two_edges(self) -> None:
        forked = Diagram(
            nodes=(Node(kind=Z, degree=1), Node(kind=X, degree=1), Node(kind=X, degree=1)),
            edges=((np(0, 0), np(1, 0)), (np(0, 0), np(2, 0))),
            n_in=0,
            n_out=0,
        )
        looped = Diagram(
            nodes=(Node(kind=Z, degree=1),), edges=((np(0, 0), np(0, 0)),), n_in=0, n_out=0
        )
        b = DiagramBuilder()
        b.star()
        assert _message(b.splice, forked) == (
            "leg NodePort(node=1, port=0) is already connected"
        )
        b = DiagramBuilder()
        b.star()
        assert _message(b.splice, looped) == (
            "cannot connect a leg to itself; allocate two legs"
        )

    def test_splice_into_a_connected_leg(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        first, second = b.leg(z), b.leg(z)
        b.connect(first, second)
        assert _message(b.splice, generator(X, 1, 1), [second]) == (
            "leg NodePort(node=0, port=1) is already connected"
        )

    def test_connect_a_leg_never_allocated(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        leg = b.leg(z)
        assert _message(b.connect, np(5, 0), np(6, 0)) == (
            "leg NodePort(node=5, port=0) was never allocated by this builder"
        )
        # Node 0 exists but has allocated only port 0.
        assert _message(b.connect, leg, np(0, 1)) == (
            "leg NodePort(node=0, port=1) was never allocated by this builder"
        )
        assert _message(b.connect, np(-1, 0), leg) == (
            "leg NodePort(node=-1, port=0) was never allocated by this builder"
        )

    def test_splice_into_a_leg_never_allocated(self) -> None:
        b = DiagramBuilder()
        b.leg(b.node(Z))
        assert _message(b.splice, generator(X, 1, 1), [np(9, 3)]) == (
            "leg NodePort(node=9, port=3) was never allocated by this builder"
        )
        # The refusal comes before the gadget is copied in.
        assert b.finish(outputs=[np(0, 0)]).nodes == (Node(kind=Z, degree=1),)

    def test_finish_with_a_leg_never_allocated(self) -> None:
        b = DiagramBuilder()
        stub = b.leg(b.node(Z))
        assert _message(b.finish, inputs=[stub], outputs=[np(0, 1)]) == (
            "leg NodePort(node=0, port=1) was never allocated by this builder"
        )

    def test_gadget_wire_end_off_the_gadget(self) -> None:
        # Node 1 is not the gadget's: spliced as it was, its wire would
        # reach the next node this builder makes.
        reaching = Diagram(
            nodes=(Node(kind=Z, degree=1),), edges=((np(0, 0), np(1, 0)),), n_in=0, n_out=0
        )
        b = DiagramBuilder()
        assert _message(b.splice, reaching) == (
            "gadget wire end NodePort(node=1, port=0) is not a port of the gadget"
        )
        behind = Diagram(
            nodes=(Node(kind=Z, degree=1),), edges=((np(-1, 0), outb(0)),), n_in=0, n_out=1
        )
        b = DiagramBuilder()
        b.leg(b.node(Z))
        assert _message(b.splice, behind) == (
            "gadget wire end NodePort(node=-1, port=0) is not a port of the gadget"
        )

    def test_gadget_wire_end_past_the_degree(self) -> None:
        b = DiagramBuilder()
        b.star()
        for port in (1, 2, -1):
            past = Diagram(
                nodes=(Node(kind=Z, degree=1),), edges=((np(0, port), outb(0)),), n_in=0, n_out=1
            )
            assert _message(b.splice, past) == (
                f"gadget wire end NodePort(node=0, port={port}) is not a port of the gadget"
            )
        inner = Diagram(
            nodes=(Node(kind=Z, degree=1), Node(kind=X, degree=1)),
            edges=((np(0, 0), np(1, 1)),),
            n_in=0,
            n_out=0,
        )
        assert _message(b.splice, inner) == (
            "gadget wire end NodePort(node=1, port=1) is not a port of the gadget"
        )

    def test_gadget_boundary_position_out_of_range(self) -> None:
        # Negative positions once spliced through Python's indexing: out -1
        # as output 0, in -1 as the caller's last input leg; an unknown
        # side spliced as an output.
        for side, pos in (("out", -1), ("out", 1), ("up", 0)):
            behind = Diagram(
                nodes=(Node(kind=Z, degree=1),),
                edges=((np(0, 0), BoundaryPort(side, pos)),),
                n_in=0,
                n_out=1,
            )
            b = DiagramBuilder()
            end = f"gadget wire end BoundaryPort(side='{side}', pos={pos})"
            assert _message(b.splice, behind) == f"{end} is not a port of the gadget"
        for pos in (-1, 2):
            wrapped = Diagram(
                nodes=(Node(kind=Z, degree=2),),
                edges=((inb(pos), np(0, 0)), (inb(1), np(0, 1))),
                n_in=2,
                n_out=0,
            )
            b = DiagramBuilder()
            z = b.node(Z)
            assert _message(b.splice, wrapped, [b.leg(z), b.leg(z)]) == (
                f"gadget wire end BoundaryPort(side='in', pos={pos}) is not a port of the gadget"
            )


class TestFinish:
    """``finish`` shares spliced gadgets' nodes, makes the rest, and
    checks that every leg is wired by counting them."""

    def test_names_the_lowest_dangling_port(self) -> None:
        open_ends = Diagram(
            nodes=(Node(kind=X, degree=1), Node(kind=Z, degree=4)),
            edges=((np(1, 1), outb(0)), (np(0, 0), np(1, 3))),
            n_in=0,
            n_out=1,
        )
        # Spliced nodes only: ports 0 and 2 of node 1 dangle.
        b = DiagramBuilder()
        out = b.splice(open_ends)[0]
        assert _message(b.finish, outputs=[out]) == "port 0 of node 1 was never connected"
        # A made node after them dangles too; the spliced port is lower.
        b = DiagramBuilder()
        out = b.splice(open_ends)[0]
        b.leg(b.node(Z))
        assert _message(b.finish, outputs=[out]) == "port 0 of node 1 was never connected"
        # A made node before them, with its ports 1 and 2 dangling.
        b = DiagramBuilder()
        z = b.node(Z)
        first = b.leg(z)
        b.leg(z)
        b.leg(z)
        out = b.splice(open_ends)[0]
        assert _message(b.finish, inputs=[first], outputs=[out]) == (
            "port 1 of node 0 was never connected"
        )

    def test_a_leg_on_a_spliced_node(self) -> None:
        for wired in (False, True):
            b = DiagramBuilder()
            b.star()
            out = b.splice(generator(Z, 0, 1))[0]
            grown = b.leg(1)
            assert grown == np(1, 1)
            if not wired:
                assert _message(b.finish, outputs=[out]) == (
                    "port 1 of node 1 was never connected"
                )
        d = b.finish(outputs=[out, grown])
        assert d.nodes == (Node(kind=STAR, degree=0), Node(kind=Z, degree=2))
        assert d.validate() == []

    def test_finished_nodes_and_ends_are_named_tuples(self) -> None:
        plain = Diagram(
            nodes=((X, 1), (Z, 3)),
            edges=((inb(0), np(1, 0)), (np(1, 1), np(0, 0)), (np(1, 2), outb(0))),
            n_in=1,
            n_out=1,
        )
        hbox = generator(GeneratorKind.H_BOX, 1, 1)
        b = DiagramBuilder()
        z = b.node(Z)
        start = b.leg(z)
        mid = b.splice(plain, [b.leg(z)])
        out = b.splice(hbox, mid)
        b.star()
        d = b.finish(inputs=[start], outputs=out)
        assert d.validate() == []
        assert [type(node) for node in d.nodes] == [Node] * 5
        assert d.nodes[1:3] == (Node(kind=X, degree=1), Node(kind=Z, degree=3))
        # The H box is the gadget's own node, not a copy.
        assert d.nodes[3] is hbox.nodes[0]
        assert {type(end) for edge in d.edges for end in edge} == {NodePort, BoundaryPort}

    def test_plain_stubs_become_node_ports(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        b.leg(z)
        d = b.finish(outputs=[(0, 0)])
        assert d.edges == ((np(0, 0), outb(0)),)
        assert type(d.edges[0][0]) is NodePort

    def test_a_negative_degree_is_no_dangling_port(self) -> None:
        # The degrees' sum falls short of the used legs' count here, so
        # the scan runs, finds no dangling port, and finish goes on.
        odd = Diagram(
            nodes=(Node(kind=Z, degree=-1), Node(kind=X, degree=1)),
            edges=((np(1, 0), outb(0)),),
            n_in=0,
            n_out=1,
        )
        b = DiagramBuilder()
        d = b.finish(outputs=b.splice(odd))
        assert d == odd


def assert_laid_out(d: Diagram) -> None:
    """``d`` came from ``finish`` with its edges in canonical order and
    its wiring handed over: re-sorting its edges from any order, each
    flipped, changes nothing, and the wiring is what the walk gives its
    JSON round trip."""
    assert "_wiring" in d.__dict__
    flipped = tuple((b, a) for a, b in reversed(d.edges))
    resorted = Diagram(nodes=d.nodes, edges=flipped, n_in=d.n_in, n_out=d.n_out)
    assert "_wiring" not in resorted.__dict__
    assert d.edges == resorted.edges
    assert [tuple(map(type, e)) for e in d.edges] == [tuple(map(type, e)) for e in resorted.edges]
    copy = Diagram.from_json(json.loads(json.dumps(d.to_json())))
    assert "_wiring" not in copy.__dict__
    assert d._wiring == copy._wiring is not None


class TestFinishLayout:
    """``finish`` lays the edges out in canonical order without a sort,
    and records each node port's and boundary position's edge."""

    def test_an_output_stub_on_a_spliced_node(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        first = b.leg(z)
        outs = b.splice(generator(X, 1, 2), [b.leg(z)])
        d = b.finish(inputs=[first], outputs=outs[::-1])
        assert_laid_out(d)
        assert d.edges == (
            (inb(0), np(0, 0)),
            (np(0, 1), np(1, 0)),
            (np(1, 1), outb(1)),
            (np(1, 2), outb(0)),
        )
        assert d._wiring == ([[0, 1], [1, 2, 3]], [0], [3, 2])

    def test_a_leg_grown_on_a_spliced_node(self) -> None:
        b = DiagramBuilder()
        b.star()
        out = b.splice(generator(Z, 0, 1))[0]
        z = b.node(Z)
        b.connect(b.leg(z), b.leg(1))  # the higher end first
        b.connect(b.leg(z), b.leg(z))  # a self-loop
        d = b.finish(outputs=[out])
        assert_laid_out(d)
        assert d.edges == ((np(1, 0), outb(0)), (np(1, 1), np(2, 0)), (np(2, 1), np(2, 2)))
        assert d._wiring == ([(), [0, 1], [1, 2, 2]], [], [0])

    def test_inputs_and_outputs_on_one_node(self) -> None:
        b = DiagramBuilder()
        z = b.node(Z)
        legs = [b.leg(z) for _ in range(5)]
        d = b.finish(inputs=[legs[3], legs[0]], outputs=[legs[4], legs[1], legs[2]])
        assert_laid_out(d)
        assert d._wiring == ([[1, 2, 3, 0, 4]], [0, 1], [4, 2, 3])

    def test_random_builders(self) -> None:
        rng = random.Random(24)
        gadgets = [generator(kind, m, n) for kind in (Z, X) for m in range(3) for n in range(3)]
        gadgets.append(Diagram(nodes=((STAR, 0), (Z, 2)), edges=((np(1, 0), np(1, 1)),),
                               n_in=0, n_out=0))
        for _ in range(200):
            b = DiagramBuilder()
            free: list = []
            for _ in range(rng.randint(0, 8)):
                if rng.random() < 0.5:
                    gadget = rng.choice(gadgets)
                    if gadget.n_in > len(free):
                        continue
                    picked = rng.sample(range(len(free)), gadget.n_in)
                    inputs = [free[i] for i in picked]
                    free = [leg for i, leg in enumerate(free) if i not in picked]
                    free += b.splice(gadget, inputs)
                elif free and rng.random() < 0.3:
                    free.append(b.leg(rng.choice(free).node))  # grow a node
                else:
                    node = b.node(rng.choice((Z, X, STAR)))
                    if b._kinds[node] is not STAR:
                        free += [b.leg(node) for _ in range(rng.randint(1, 4))]
            rng.shuffle(free)
            while len(free) > 3 and rng.random() < 0.6:
                b.connect(free.pop(), free.pop())
            cut = rng.randint(0, len(free))
            assert_laid_out(b.finish(inputs=free[:cut], outputs=free[cut:]))

    def test_a_negative_degree_is_laid_out_as_no_leg(self) -> None:
        # A node of negative degree has no allocated leg, so the layout
        # gives it no place and the rest keep the sort's order and the
        # walk's wiring.
        odd = Diagram(
            nodes=(Node(kind=Z, degree=-1), Node(kind=X, degree=1), Node(kind=Z, degree=2)),
            edges=((np(2, 1), np(1, 0)), (np(2, 0), outb(0))),
            n_in=0,
            n_out=1,
        )
        b = DiagramBuilder()
        d = b.finish(outputs=b.splice(odd))
        assert d == odd
        assert_laid_out(d)
        assert d.edges == ((np(1, 0), np(2, 1)), (np(2, 0), outb(0)))
        assert d._wiring == ([(), [0], [1, 0]], [], [1])
