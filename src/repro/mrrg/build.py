"""MRRG generation from a flattened architecture.

Implements the translation rules of the paper's Figs. 1-3:

* a multiplexer becomes one dedicated RouteRes node per input plus an
  internal node guaranteeing single-input exclusivity (the internal node
  doubles as the output);
* a register becomes an input node in cycle ``c`` and an output node in
  cycle ``(c+1) mod II``;
* a functional unit with latency ``L`` and initiation interval ``K``
  becomes, for each context ``c`` with ``c mod K == 0``, operand-port
  RouteRes nodes and a FuncUnit node at ``c`` plus an output RouteRes node
  at ``(c+L) mod II``;
* a net becomes context-local edges from the driver's port node to each
  sink's port node (edges exist only where both endpoint slots exist,
  which is how unpipelined units drop unavailable cycles).
"""

from __future__ import annotations

from ..arch.module import Module
from ..arch.netlist import FlatNetlist, flatten
from ..arch.primitives import FunctionalUnit, Multiplexer, Register
from .graph import MRRG, MRRGError, MRRGNode, NodeKind, node_id


def build_mrrg(netlist: FlatNetlist, ii: int, name: str | None = None) -> MRRG:
    """Generate the MRRG of a flat netlist for ``ii`` contexts."""
    mrrg = MRRG(name or f"{netlist.name}_ii{ii}", ii)
    # (path, port, context) -> node id, for wiring nets afterwards.
    port_nodes: dict[tuple[str, str, int], str] = {}

    for path, primitive in netlist.primitives.items():
        if isinstance(primitive, Multiplexer):
            _emit_mux(mrrg, port_nodes, path, primitive, ii)
        elif isinstance(primitive, Register):
            _emit_register(mrrg, port_nodes, path, ii)
        elif isinstance(primitive, FunctionalUnit):
            _emit_fu(mrrg, port_nodes, path, primitive, ii)
        else:  # pragma: no cover - defensive
            raise MRRGError(f"unknown primitive kind at {path!r}: {primitive!r}")

    for net in netlist.nets:
        dpath, dport = net.driver
        for ctx in range(ii):
            src = port_nodes.get((dpath, dport, ctx))
            if src is None:
                continue
            for spath, sport in net.sinks:
                dst = port_nodes.get((spath, sport, ctx))
                if dst is not None:
                    mrrg.add_edge(src, dst)
    return mrrg


def build_mrrg_from_module(top: Module, ii: int, name: str | None = None) -> MRRG:
    """Flatten a module hierarchy and generate its MRRG."""
    return build_mrrg(flatten(top), ii, name=name)


class MRRGFactory:
    """Builds the pruned MRRGs of one architecture across IIs, flattening once.

    The flatten step is II-independent, so the factory runs it once, when
    it is made, and keeps only the flat netlist: a later edit of the
    module tree does not reach the factory, and the factory keeps no
    module alive.  It memoizes the built and pruned MRRG per II, so
    repeated requests at the same II reuse the same graph object.

    Attributes:
        flat: the flattened netlist.
        built: II -> pruned MRRG, for every II built so far.
    """

    def __init__(self, top: Module):
        self.flat = flatten(top)
        self.built: dict[int, MRRG] = {}

    def mrrg(self, ii: int) -> MRRG:
        """The pruned MRRG at ``ii`` contexts, memoized."""
        mrrg = self.built.get(ii)
        if mrrg is None:
            from .analysis import prune

            mrrg = self.built[ii] = prune(build_mrrg(self.flat, ii))
        return mrrg


def _emit_mux(
    mrrg: MRRG,
    port_nodes: dict,
    path: str,
    mux: Multiplexer,
    ii: int,
) -> None:
    for ctx in range(ii):
        internal = mrrg.add_node(
            MRRGNode(node_id(ctx, path, "mux"), NodeKind.ROUTE, ctx, path, "mux")
        )
        port_nodes[(path, "out", ctx)] = internal.node_id
        for i in range(mux.num_inputs):
            tag = f"in{i}"
            pin = mrrg.add_node(
                MRRGNode(node_id(ctx, path, tag), NodeKind.ROUTE, ctx, path, tag)
            )
            mrrg.add_edge(pin.node_id, internal.node_id)
            port_nodes[(path, tag, ctx)] = pin.node_id


def _emit_register(mrrg: MRRG, port_nodes: dict, path: str, ii: int) -> None:
    for ctx in range(ii):
        pin = mrrg.add_node(
            MRRGNode(node_id(ctx, path, "in"), NodeKind.ROUTE, ctx, path, "in")
        )
        pout = mrrg.add_node(
            MRRGNode(node_id(ctx, path, "out"), NodeKind.ROUTE, ctx, path, "out")
        )
        port_nodes[(path, "in", ctx)] = pin.node_id
        port_nodes[(path, "out", ctx)] = pout.node_id
    for ctx in range(ii):
        # The register moves its value into the next cycle (mod II).
        mrrg.add_edge(
            node_id(ctx, path, "in"), node_id((ctx + 1) % ii, path, "out")
        )


def _emit_fu(
    mrrg: MRRG,
    port_nodes: dict,
    path: str,
    fu: FunctionalUnit,
    ii: int,
) -> None:
    for ctx in range(ii):
        if ctx % fu.ii != 0:
            continue  # the unit cannot accept new operands this cycle
        fu_node = mrrg.add_node(
            MRRGNode(
                node_id(ctx, path, "fu"),
                NodeKind.FUNCTION,
                ctx,
                path,
                "fu",
                ops=fu.ops,
            )
        )
        for i in range(fu.num_operand_ports):
            tag = f"in{i}"
            pin = mrrg.add_node(
                MRRGNode(
                    node_id(ctx, path, tag),
                    NodeKind.ROUTE,
                    ctx,
                    path,
                    tag,
                    operand=i,
                    fu=fu_node.node_id,
                )
            )
            mrrg.add_edge(pin.node_id, fu_node.node_id)
            port_nodes[(path, tag, ctx)] = pin.node_id
            fu_node.operand_ports[i] = pin.node_id
        if fu.produces_output:
            # (ctx + latency) mod II is injective in ctx, so distinct issue
            # slots never collide on an output node id.
            out_ctx = (ctx + fu.latency) % ii
            pout = mrrg.add_node(
                MRRGNode(
                    node_id(out_ctx, path, "out"),
                    NodeKind.ROUTE,
                    out_ctx,
                    path,
                    "out",
                )
            )
            mrrg.add_edge(fu_node.node_id, pout.node_id)
            port_nodes[(path, "out", out_ctx)] = pout.node_id
            fu_node.output = pout.node_id
