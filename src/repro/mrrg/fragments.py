"""Hand-built MRRG fragments reproducing the paper's Fig. 4.

These small graphs are the exact structures the paper's Examples 1-3
reason about; the test suite and the ablation benches map Fig. 5's DFG
fragments onto them.  :class:`MRRGCraft` is a general helper for building
MRRGs node by node (useful for experiments beyond grid fabrics).
"""

from __future__ import annotations

from ..dfg.opcodes import OpCode
from .graph import MRRG, MRRGNode, NodeKind


class MRRGCraft:
    """Tiny fluent helper to hand-build MRRGs node by node."""

    def __init__(self, name: str = "craft", ii: int = 1):
        self.g = MRRG(name, ii)

    def route(self, name: str, ctx: int = 0) -> str:
        self.g.add_node(MRRGNode(name, NodeKind.ROUTE, ctx, name, "wire"))
        return name

    def fu(self, name: str, ops, ctx: int = 0, num_ports: int = 1,
           with_output: bool = True) -> str:
        """Add a FuncUnit with dedicated operand-port and output nodes."""
        node = self.g.add_node(
            MRRGNode(name, NodeKind.FUNCTION, ctx, name, "fu",
                     ops=frozenset(ops))
        )
        for i in range(num_ports):
            port = f"{name}.in{i}"
            self.g.add_node(
                MRRGNode(port, NodeKind.ROUTE, ctx, name, f"in{i}",
                         operand=i, fu=name)
            )
            self.g.add_edge(port, name)
            node.operand_ports[i] = port
        if with_output:
            out = f"{name}.out"
            self.g.add_node(MRRGNode(out, NodeKind.ROUTE, ctx, name, "out"))
            self.g.add_edge(name, out)
            node.output = out
        return name

    def edge(self, src: str, dst: str) -> "MRRGCraft":
        self.g.add_edge(src, dst)
        return self

    def chain(self, *names: str) -> "MRRGCraft":
        for a, b in zip(names, names[1:]):
            self.g.add_edge(a, b)
        return self

    def build(self) -> MRRG:
        return self.g


def mrrg_a() -> MRRG:
    """Paper Fig. 4, MRRG A: FuncUnit1 -> R1 -> {R2 -> FU2, R3 -> FU3}."""
    c = MRRGCraft("mrrg_a")
    c.fu("fu1", [OpCode.LOAD], num_ports=0)
    c.fu("fu2", [OpCode.STORE], with_output=False)
    c.fu("fu3", [OpCode.STORE], with_output=False)
    c.chain("fu1.out", "fu2.in0")
    c.edge("fu1.out", "fu3.in0")
    return c.build()


def mrrg_loop(tail_length: int = 3) -> MRRG:
    """Paper Fig. 4, MRRG B flavor: a self-reinforcing routing loop that
    is cheaper than completing the route to the sink (Example 2).

    Structure::

        fu1.out -> a -> M(mux: a, b) -> c
        c -> b -> M                         (loop back: 5-node dead stop)
        c -> q0 -> q1 -> ... -> fu2.in0     (honest continuation, longer)

    Stopping inside the loop satisfies Fanout Routing everywhere with 5
    resources; the honest route needs ``5 + tail_length`` — so without
    Multiplexer Input Exclusivity the optimizer prefers the broken stop.
    """
    c = MRRGCraft("mrrg_loop")
    c.fu("fu1", [OpCode.LOAD], num_ports=0)
    c.fu("fu2", [OpCode.STORE], with_output=False)
    # Loop cloud: dedicated mux inputs a and b keep the MRRG valid.
    c.route("a")
    c.route("b")
    c.route("m")  # multi-fan-in node (the mux)
    c.route("cc")
    c.edge("fu1.out", "a")
    c.edge("a", "m")
    c.edge("b", "m")
    c.edge("m", "cc")
    c.edge("cc", "b")
    prev = "cc"
    for i in range(tail_length):
        node = c.route(f"q{i}")
        c.edge(prev, node)
        prev = node
    c.edge(prev, "fu2.in0")
    return c.build()


def mrrg_c() -> MRRG:
    """Paper Fig. 4, MRRG C: separate clouds to FU2 and FU3 (Example 3)."""
    c = MRRGCraft("mrrg_c")
    c.fu("fu1", [OpCode.LOAD], num_ports=0)
    c.fu("fu2", [OpCode.STORE], with_output=False)
    c.fu("fu3", [OpCode.STORE], with_output=False)
    c.route("c1")
    c.route("c2")
    c.chain("fu1.out", "c1", "fu2.in0")
    c.chain("fu1.out", "c2", "fu3.in0")
    return c.build()


def crossed_operand_mrrg() -> MRRG:
    """Operand ports wired so the natural order is swapped.

    Value A can only reach fu.in1 and value B only fu.in0, so ``add(a, b)``
    is infeasible: each operand must land on its own port, even of a
    commutative op.
    """
    c = MRRGCraft("crossed")
    c.fu("srca", [OpCode.LOAD], num_ports=0)
    c.fu("srcb", [OpCode.CONST], num_ports=0)
    c.fu("alu", [OpCode.ADD, OpCode.SUB], num_ports=2)
    c.fu("sink", [OpCode.STORE], with_output=False)
    c.edge("srca.out", "alu.in1")  # crossed on purpose
    c.edge("srcb.out", "alu.in0")
    c.edge("alu.out", "sink.in0")
    return c.build()
