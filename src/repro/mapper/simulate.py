"""Cycle-accurate functional simulation of a configured fabric.

Executes a :class:`~repro.mapper.config.Configuration` cycle by cycle:
each cycle activates the MRRG replica of context ``cycle mod II``, values
propagate combinationally through the used route nodes in topological
order, registers delay by one cycle, and functional units apply their
configured operation.  OUTPUT/STORE operations record the value arriving
at their operand port each time their context executes.

This is the strongest check in the repo: a mapping does not merely have
to *look* connected (the verifier), its configuration has to *compute the
same values* as the reference DFG interpreter (:mod:`repro.dfg.eval`).
It also detects combinational cycles — mappings whose feedback paths skip
every register — which the modulo-graph abstraction itself cannot see.
"""

from __future__ import annotations

import dataclasses

from ..dfg.eval import MASK, Environment, apply_op
from ..dfg.opcodes import OpCode
from ..mrrg.graph import MRRG, MRRGNode
from .config import Configuration


class SimulationError(ValueError):
    """Raised for unsimulatable configurations (combinational cycles...)."""


@dataclasses.dataclass
class SimTrace:
    """Simulation results.

    Attributes:
        cycles: number of simulated cycles.
        outputs: OUTPUT/STORE op name -> values observed per activation.
    """

    cycles: int
    outputs: dict[str, list[int]]

    def last(self, op_name: str) -> int:
        """Final observed value at a sink op."""
        values = self.outputs[op_name]
        if not values:
            raise SimulationError(f"{op_name!r} never produced a value")
        return values[-1]

    def sequence(self, op_name: str) -> list[int]:
        return list(self.outputs[op_name])


class FabricSimulator:
    """Executes a configuration cycle by cycle."""

    def __init__(self, config: Configuration, env: Environment | None = None):
        self.config = config
        self.env = env or Environment()
        self.mrrg: MRRG = config.mrrg
        self.dfg = config.mapping.dfg
        self._schedule = self._build_schedule()
        # Delay buffers: node id -> value produced in an earlier cycle.
        self._register_state: dict[str, int] = {}
        self._fu_delay: dict[str, list[tuple[int, int]]] = {}

    # ------------------------------------------------------------------
    def _build_schedule(self) -> dict[int, list[MRRGNode]]:
        """Per-context topological order of the active used nodes.

        Same-cycle dependencies: net/mux/port edges between used route
        nodes, FU reads of operand ports, and latency-0 FU outputs.
        Register in->out and latency>0 FU outputs cross cycles and are
        excluded (they are what breaks feedback loops).
        """
        used = set(self.config.used_nodes)
        active_fus = set(self.config.fu_ops)
        nodes: dict[str, MRRGNode] = {}
        for node_id in sorted(used | active_fus):
            nodes[node_id] = self.mrrg.node(node_id)

        def same_cycle_inputs(node: MRRGNode) -> list[str]:
            deps = []
            for fanin in self.mrrg.fanins(node.node_id):
                if fanin not in nodes:
                    continue
                src = nodes[fanin]
                if src.is_function:
                    # FU -> output node edge: combinational iff latency 0,
                    # i.e. the output shares the FU's context.
                    if src.context == node.context:
                        deps.append(fanin)
                    continue
                if src.tag == "in" and node.tag == "out" and src.path == node.path:
                    continue  # register boundary: delayed, not combinational
                deps.append(fanin)
            return deps

        schedules: dict[int, list[MRRGNode]] = {}
        for ctx in range(self.mrrg.ii):
            ctx_nodes = [n for n in nodes.values() if n.context == ctx]
            in_degree = {}
            dependents: dict[str, list[str]] = {}
            for node in ctx_nodes:
                deps = [d for d in same_cycle_inputs(node)
                        if nodes[d].context == ctx]
                in_degree[node.node_id] = len(deps)
                for dep in deps:
                    dependents.setdefault(dep, []).append(node.node_id)
            ready = [nid for nid, deg in in_degree.items() if deg == 0]
            order: list[MRRGNode] = []
            while ready:
                current = ready.pop()
                order.append(nodes[current])
                for nxt in dependents.get(current, ()):
                    in_degree[nxt] -= 1
                    if in_degree[nxt] == 0:
                        ready.append(nxt)
            if len(order) != len(ctx_nodes):
                cyclic = [n.node_id for n in ctx_nodes
                          if in_degree.get(n.node_id, 0) > 0]
                raise SimulationError(
                    "combinational cycle in configured fabric (a feedback "
                    f"path skips every register): {sorted(cyclic)[:6]}"
                )
            schedules[ctx] = order
        return schedules

    # ------------------------------------------------------------------
    def run(self, cycles: int) -> SimTrace:
        """Simulate for ``cycles`` cycles and collect sink observations."""
        if cycles < 1:
            raise SimulationError("must simulate at least one cycle")
        outputs: dict[str, list[int]] = {
            op.name: []
            for op in self.dfg.ops
            if op.opcode in (OpCode.OUTPUT, OpCode.STORE)
        }
        # node id -> value this cycle (route nodes and FU results).
        for cycle in range(cycles):
            ctx = cycle % self.mrrg.ii
            iteration = cycle // self.mrrg.ii
            values: dict[str, int] = {}
            for node in self._schedule[ctx]:
                if node.is_function:
                    self._eval_fu(node, values, outputs, cycle, iteration)
                else:
                    self._eval_route(node, values, cycle)
            # Latch registers whose input node was active this cycle.
            for node in self._schedule[ctx]:
                if node.is_route and node.tag == "in" and node.node_id in values:
                    self._register_state[node.node_id] = values[node.node_id]
        return SimTrace(cycles=cycles, outputs=outputs)

    def _eval_route(self, node: MRRGNode, values: dict[str, int], cycle: int) -> None:
        node_id = node.node_id
        fanins = self.mrrg.fanins(node_id)
        route_fanins = self.mrrg.route_fanins(node_id)
        if node.tag == "out" and any(
            self.mrrg.node(f).is_route and self.mrrg.node(f).tag == "in"
            and self.mrrg.node(f).path == node.path
            for f in fanins
        ):
            # Register output: read last cycle's latched input.
            reg_in = next(
                f for f in fanins
                if self.mrrg.node(f).is_route and self.mrrg.node(f).tag == "in"
            )
            values[node_id] = self._register_state.get(reg_in, 0)
            return
        fu_fanins = [f for f in fanins if self.mrrg.node(f).is_function]
        if fu_fanins:
            # FU output node: either combinational (same ctx) or delayed.
            fu_id = fu_fanins[0]
            fu_node = self.mrrg.node(fu_id)
            if fu_node.context == node.context:
                values[node_id] = values.get(fu_id, 0)
            else:
                values[node_id] = self._pop_fu_delay(fu_id, cycle)
            return
        if len(route_fanins) > 1:
            chosen = self.config.mux_select.get(node_id)
            if chosen is None:
                values[node_id] = 0
                return
            values[node_id] = values.get(chosen, 0)
            return
        if route_fanins:
            values[node_id] = values.get(route_fanins[0], 0)
            return
        values[node_id] = 0

    def _eval_fu(
        self,
        node: MRRGNode,
        values: dict[str, int],
        outputs: dict[str, list[int]],
        cycle: int,
        iteration: int,
    ) -> None:
        op_name = self.config.fu_ops.get(node.node_id)
        if op_name is None:
            return
        opcode = self.dfg.op(op_name).opcode
        operands = [
            values.get(node.operand_ports[i], 0)
            for i in range(opcode.arity)
            if i in node.operand_ports
        ]
        if opcode is OpCode.INPUT:
            result = self.env.input_value(op_name)
        elif opcode is OpCode.CONST:
            result = self.env.const_value(op_name)
        elif opcode is OpCode.LOAD:
            result = self.env.load_value(op_name, iteration)
        elif opcode is OpCode.OUTPUT:
            outputs[op_name].append(operands[0] & MASK)
            return
        elif opcode is OpCode.STORE:
            outputs[op_name].append(operands[0] & MASK)
            return
        else:
            result = apply_op(opcode, operands)
        values[node.node_id] = result
        # Queue delayed availability for latency > 0 units.
        out = node.output
        if out is not None and self.mrrg.node(out).context != node.context:
            latency = (self.mrrg.node(out).context - node.context) % self.mrrg.ii
            if latency == 0:
                latency = self.mrrg.ii
            self._fu_delay.setdefault(node.node_id, []).append(
                (cycle + latency, result)
            )

    def _pop_fu_delay(self, fu_id: str, cycle: int) -> int:
        queue = self._fu_delay.get(fu_id, [])
        for due, value in queue:
            if due == cycle:
                return value
        return 0


def simulate_mapping(
    mapping,
    env: Environment | None = None,
    cycles: int | None = None,
) -> SimTrace:
    """Extract the configuration from a mapping and simulate it.

    ``cycles`` defaults to enough cycles for a DAG to settle plus a few
    iterations of any loop (depth + 4 initiation intervals).
    """
    from ..dfg.stats import compute
    from .config import extract_configuration

    config = extract_configuration(mapping)
    if cycles is None:
        depth = compute(mapping.dfg).depth
        cycles = (depth + 4) * mapping.mrrg.ii
    return FabricSimulator(config, env).run(cycles)
