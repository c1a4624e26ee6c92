"""The paper's contribution: architecture-agnostic ILP CGRA mapping.

Builds the integer linear program of Section 4 from a DFG and an MRRG and
solves it with an exact MILP backend.  Variable families:

* ``F[p][q]`` — FuncUnit node ``p`` hosts operation ``q``;
* ``R[i][j]`` — RouteRes node ``i`` carries value ``j``;
* ``R[i][j][k]`` — RouteRes node ``i`` carries value ``j`` on its way to
  sink ``k`` (the *sub-value* variables).

Constraints map one-to-one to the paper's equations (1)-(9); the objective
is (10), minimized routing-resource usage.  Resolved ambiguities (operand
correctness, termination semantics of (5), soundness precondition of (9))
are documented in DESIGN.md section 5.

Implementation notes:

* ``F`` variables are only created for legal (p, q) pairs, which realizes
  constraint (3) *Functional Unit Legality* by omission.
* Per-value variable pruning: value ``j`` can only occupy route nodes
  forward-reachable from a candidate producer output and
  backward-reachable from a legal terminal of one of its sinks.
* For single-sink values the sink-specific variable coincides with the
  sink-agnostic one, so the two share one variable.
* ``split_sub_values=False`` reproduces the paper's Example 3 strawman
  (routing whole values instead of sub-values) — an unsound formulation
  whose wrong mappings our independent verifier catches.
* Rows are emitted through the blockwise API (``Model.add_rows``),
  grouped per constraint family, so compilation to ``StandardForm`` is
  O(nnz) array assembly.  Row order is part of the model's identity (it
  steers the solver's search path); golden digests of the compiled form
  pin it (``tests/mapper/test_formulation_digests.py``).
* A solve that must prove optimality
  (:attr:`ILPMapperOptions.proves_optimality`) also gets arrival and
  in-flow rows: every integer solution satisfies them, and they lift the
  LP bound (DESIGN.md section 5.7).
* The solver gets a copy of the compiled form in which one anchor op
  may only sit on one unit per orbit of the MRRG's automorphisms
  (:func:`pin_anchor`, DESIGN.md section 5.8): the whole group of
  :meth:`~repro.mrrg.graph.MRRG.unit_orbits` when the solve proves
  optimality, the proven context shift alone otherwise.  The cached and
  audited form stays the paper's.
* The mapper pipeline compiles once and runs audit and solve on the
  compiled form; a :class:`~repro.mapper.sweep.FormulationCache` lets
  a portfolio request's stages share the built+compiled formulation.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

from ..analyze.bounds import first_bound_witness
from ..analyze.model_audit import audit_form, first_witness
from ..dfg.graph import DFG, Sink
from ..dfg.validate import assert_valid
from ..ilp.expr import Sense, Var
from ..ilp.model import Model
from ..ilp.solve import solve_form
from ..ilp.standard_form import StandardForm, compile_model
from ..ilp.status import Solution, SolveStatus
from ..mrrg.graph import MRRG, MRRGNode
from ..mrrg.symmetry import rotation_orbits
from .base import Mapper, MapResult, MapStatus
from .mapping import Mapping
from .verify import verify


@dataclasses.dataclass
class ILPMapperOptions:
    """Knobs of the ILP mapper.

    Attributes:
        backend: "highs" (default) or "bnb" (the from-scratch solver).
        time_limit: per-instance solver budget in seconds.
        split_sub_values: route per sub-value (sound, the paper's
            formulation).  False = Example 3's unsound whole-value mode.
        mux_exclusivity: emit constraint (9).  False reproduces Example
            2's self-reinforcing loop pathology.
        mip_rel_gap: relative gap stop for HiGHS (e.g. 1.0 to accept the
            first incumbent when only feasibility matters).  It also
            selects the formulation: below 1 (or None) the solve must
            prove optimality, and :attr:`proves_optimality` adds the
            arrival and in-flow rows that tighten the LP bound.
        require_registered_feedback: force every DFG back-edge route
            through at least one register (an ``in`` -> ``out`` pair of a
            register primitive).  The modulo abstraction cannot see
            combinational timing (DESIGN.md section 5), so the
            route-usage objective is indifferent between a registered
            and an all-combinational feedback route; the latter is a
            zero-latency loop that no fabric can execute.  Simulation
            driven flows (``repro.frontend.verify``) set this so that
            proven-optimal mappings of cyclic kernels replay on
            :class:`~repro.mapper.simulate.FabricSimulator`.
    """

    backend: str = "highs"
    time_limit: float | None = None
    split_sub_values: bool = True
    mux_exclusivity: bool = True
    mip_rel_gap: float | None = None
    require_registered_feedback: bool = False

    @property
    def proves_optimality(self) -> bool:
        """Whether the solve must prove an optimum (derived, read-only).

        True when the gap stop does not accept the first incumbent and
        the formulation is the sound one (sub-values split, constraint
        (9) on).  Only then does the formulation carry the arrival and
        in-flow rows (DESIGN.md section 5.7): they are valid for every
        integer solution and lift the LP bound, which a feasibility
        solve never reads and pays for in row count.
        """
        return (
            (self.mip_rel_gap is None or self.mip_rel_gap < 1)
            and self.split_sub_values
            and self.mux_exclusivity
        )

    def formulation_key(self) -> tuple:
        """The options that determine the emitted formulation.

        Two option sets with equal keys produce the same model for a
        given (DFG, MRRG) — the solver/budget knobs are excluded — so
        this is the cache key component used by
        :class:`~repro.mapper.sweep.FormulationCache`.
        """
        return (
            self.split_sub_values,
            self.mux_exclusivity,
            self.require_registered_feedback,
            self.proves_optimality,
        )


@dataclasses.dataclass
class Formulation:
    """The built model plus the variable maps needed for extraction."""

    model: Model
    # (fu node id, op name) -> Var
    f_vars: dict[tuple[str, str], Var]
    # (route node id, value producer) -> Var
    r_vars: dict[tuple[str, str], Var]
    # (route node id, value producer, sink) -> Var (may alias r_vars)
    r3_vars: dict[tuple[str, str, Sink], Var]
    # value producer -> sinks
    sinks_of: dict[str, tuple[Sink, ...]]
    infeasible_reason: str | None = None

    def stats(self) -> dict[str, int]:
        distinct_r3 = {id(v) for v in self.r3_vars.values()} - {
            id(v) for v in self.r_vars.values()
        }
        return {
            "f_vars": len(self.f_vars),
            "r_vars": len(self.r_vars),
            "r3_vars_distinct": len(distinct_r3),
            "constraints": self.model.num_constraints,
        }


class _BlockWriter:
    """Hands out block emitters, one fresh block per family switch.

    A new block is opened whenever the constraint family changes, so rows
    keep their emission order across families: the global row order is
    part of the model's identity and steers the solver (and therefore
    which mapping it returns), while each row is an O(nnz) array append.
    """

    __slots__ = ("_model", "_family", "_emitter")

    def __init__(self, model: Model):
        self._model = model
        self._family: str | None = None
        self._emitter = None

    def __call__(self, family: str):
        if family != self._family:
            self._emitter = self._model.add_rows(family)
            self._family = family
        return self._emitter


def build_formulation(
    dfg: DFG,
    mrrg: MRRG,
    options: ILPMapperOptions | None = None,
) -> Formulation:
    """Construct the ILP of paper section 4 for (dfg, mrrg).

    Args:
        dfg/mrrg: the mapping instance; candidate units and route
            reachability come from the MRRG's query index, so repeated
            builds on one MRRG share them.
        options: formulation knobs (fresh defaults when omitted).
    """
    options = options or ILPMapperOptions()
    assert_valid(dfg)
    model = Model(f"map_{dfg.name}_onto_{mrrg.name}")
    empty = Formulation(model, {}, {}, {}, {})

    # ------------------------------------------------------------------
    # Sets: Ops, FuncUnits (via candidates), Vals and SubVals.
    # ------------------------------------------------------------------
    values = dfg.values()
    sinks_of = {v.producer: v.sinks for v in values}
    produces = {v.producer for v in values}

    candidates: dict[str, tuple[MRRGNode, ...]] = {}
    for op in dfg.ops:
        nodes = mrrg.capable_units(op.opcode, op.name in produces)
        if not nodes:
            empty.infeasible_reason = (
                f"no functional unit can host {op.name!r} ({op.opcode})"
            )
            return empty
        candidates[op.name] = nodes

    # Legal terminal ports per sub-value: each operand lands on its own
    # port (DESIGN.md 5.1/5.2), mapped to the owning FU node id.
    terminal_ports: dict[tuple[str, Sink], dict[str, str]] = {}
    for producer, sinks in sinks_of.items():
        for snk in sinks:
            ports = {
                fu.operand_ports[snk.operand]: fu.node_id
                for fu in candidates[snk.op]
            }
            if not ports:
                empty.infeasible_reason = f"no legal terminal for sub-value {snk}"
                return empty
            terminal_ports[(producer, snk)] = ports

    # ------------------------------------------------------------------
    # Per-value usable-node analysis (variable pruning).
    # ------------------------------------------------------------------
    out_sets: dict[str, set[str]] = {}
    for producer in sinks_of:
        starts = {fu.output for fu in candidates[producer] if fu.output}
        out_sets[producer] = mrrg.forward_reach(starts)

    usable3: dict[tuple[str, Sink], set[str]] = {}
    usable: dict[str, set[str]] = {}
    for producer, sinks in sinks_of.items():
        union: set[str] = set()
        for snk in sinks:
            bwd = mrrg.backward_reach(terminal_ports[(producer, snk)])
            reach = out_sets[producer] & bwd
            if not reach:
                empty.infeasible_reason = (
                    f"no routing path can deliver value {producer!r} to {snk}"
                )
                return empty
            usable3[(producer, snk)] = reach
            union |= reach
        usable[producer] = union

    # ------------------------------------------------------------------
    # Variables: named contiguous blocks per family (F, R, R3).
    # ------------------------------------------------------------------
    f_keys: list[tuple[str, str]] = []
    f_group_pos: dict[str, int] = {}  # op name -> offset of its first F var
    for op_name, fus in candidates.items():
        f_group_pos[op_name] = len(f_keys)
        f_keys.extend((fu.node_id, op_name) for fu in fus)
    f_block, f_list = model.add_var_block("F", f_keys)
    f_vars: dict[tuple[str, str], Var] = dict(zip(f_keys, f_list))

    # Emission order note: `usable`/`usable3`/`reach` are plain sets, and
    # variable/constraint order is part of the model identity (solver
    # search paths and cache fingerprints depend on it) — every set-typed
    # collection MUST be sorted before emitting variables or constraints.
    sorted_u3 = {key: sorted(nodes) for key, nodes in usable3.items()}
    sorted_union = {producer: sorted(nodes) for producer, nodes in usable.items()}

    r_keys = [
        (node_id, producer)
        for producer, nodes in sorted_union.items()
        for node_id in nodes
    ]
    r_block, r_list = model.add_var_block("R", r_keys)
    r_vars: dict[tuple[str, str], Var] = dict(zip(r_keys, r_list))

    shared_of: dict[str, bool] = {}
    r3_keys: list[tuple[str, str, Sink]] = []
    for producer, sinks in sinks_of.items():
        shared = not options.split_sub_values or len(sinks) == 1
        shared_of[producer] = shared
        if shared:
            continue
        for snk in sinks:
            r3_keys.extend(
                (node_id, producer, snk)
                for node_id in sorted_u3[(producer, snk)]
            )
    r3_block, r3_list = model.add_var_block(
        "R3",
        r3_keys,
        name_fn=lambda _family, key: f"R[{key[0]}][{key[1]}][{key[2]}]",
    )
    r3_vars: dict[tuple[str, str, Sink], Var] = dict(zip(r3_keys, r3_list))
    for producer, sinks in sinks_of.items():
        if not shared_of[producer]:
            continue
        for snk in sinks:
            for node_id in sorted_u3[(producer, snk)]:
                r3_vars[(node_id, producer, snk)] = r_vars[(node_id, producer)]

    # ------------------------------------------------------------------
    # Constraints (1)-(9) + objective (10), on integer column indices
    # straight out of the variable blocks (O(nnz) appends, no Var
    # objects on the hot path).
    # ------------------------------------------------------------------
    _emit_rows_blockwise(
        model, options, mrrg, candidates, terminal_ports, sinks_of, sorted_u3,
        sorted_union, shared_of, f_group_pos, f_block, r_block, r3_block, f_vars,
    )

    result = Formulation(model, f_vars, r_vars, r3_vars, sinks_of)

    # Registered-feedback rows follow rows (1)-(9) as one per-row segment,
    # so turning the option on appends rows without reordering the
    # paper's, and the family only exists when the option is on.
    if options.require_registered_feedback:
        reg_ins = mrrg.register_inputs()
        for producer, sinks in sinks_of.items():
            for snk in sinks:
                if not dfg.op(snk.op).operand_is_back_edge(snk.operand):
                    continue
                nodes = [
                    n for n in sorted_u3[(producer, snk)] if n in reg_ins
                ]
                if not nodes:
                    result.infeasible_reason = (
                        f"registered feedback required, but no register "
                        f"lies on any route from {producer!r} to {snk}"
                    )
                    return result
                model.add_terms(
                    [(r3_vars[(n, producer, snk)], 1.0) for n in nodes],
                    Sense.GE,
                    1.0,
                    "registered_feedback",
                )

    # The bound rows come after every other row, so the optimality-mode
    # form extends the feasibility-mode one without reordering it.
    if options.proves_optimality:
        _emit_bound_rows(
            model, mrrg, candidates, terminal_ports, sorted_u3, f_vars, r3_vars
        )
    return result


def _emit_bound_rows(
    model: Model,
    mrrg: MRRG,
    candidates: dict[str, tuple[MRRGNode, ...]],
    terminal_ports: dict[tuple[str, Sink], dict[str, str]],
    sorted_u3: dict[tuple[str, Sink], list[str]],
    f_vars: dict[tuple[str, str], Var],
    r3_vars: dict[tuple[str, str, Sink], Var],
) -> None:
    """Emit the arrival and in-flow rows (DESIGN.md section 5.7).

    Every integer solution of rows (1)-(9) already satisfies them, so
    they only cut fractional LP points.
    """
    writer = _BlockWriter(model)

    # Arrival: a sub-value ends on a terminal port of the FU hosting its
    # sink op (with (6), an equality: each FU has one such port).
    for (producer, snk), ports in terminal_ports.items():
        arrive: dict[str, list[tuple[int, float]]] = {}
        for port_id, fu_id in ports.items():
            var = r3_vars.get((port_id, producer, snk))
            if var is not None:
                arrive.setdefault(fu_id, []).append((var.index, 1.0))
        for fu in candidates[snk.op]:
            f_index = f_vars[(fu.node_id, snk.op)].index
            label = f"arrival[{fu.node_id}][{producer}][{snk}]"
            pairs = arrive.get(fu.node_id)
            if pairs is None:
                writer("arrival").sorted_row(
                    (f_index,), (1.0,), Sense.EQ, 0.0, label
                )
            else:
                writer("arrival").pairs_row(
                    pairs + [(f_index, -1.0)], Sense.GE, 0.0, label
                )

    # In-flow: a used node with a single route fan-in is fed through it.
    # The producer's FU, not a route node, feeds its candidate outputs;
    # (9) already balances nodes with several fan-ins.
    route_fanins = mrrg.route_fanins
    for (producer, snk), nodes in sorted_u3.items():
        outputs = {fu.output for fu in candidates[producer]}
        for node_id in nodes:
            if node_id in outputs:
                continue
            fanins = route_fanins(node_id)
            if len(fanins) != 1:
                continue
            writer("inflow").pairs_row(
                [
                    (r3_vars[(node_id, producer, snk)].index, 1.0),
                    (r3_vars[(fanins[0], producer, snk)].index, -1.0),
                ],
                Sense.LE,
                0.0,
                f"inflow[{node_id}][{producer}][{snk}]",
            )


def _emit_rows_blockwise(
    model: Model,
    options: ILPMapperOptions,
    mrrg: MRRG,
    candidates: dict[str, tuple[MRRGNode, ...]],
    terminal_ports: dict[tuple[str, Sink], dict[str, str]],
    sinks_of: dict[str, tuple[Sink, ...]],
    sorted_u3: dict[tuple[str, Sink], list[str]],
    sorted_union: dict[str, list[str]],
    shared_of: dict[str, bool],
    f_group_pos: dict[str, int],
    f_block,
    r_block,
    r3_block,
    f_vars: dict[tuple[str, str], Var],
) -> None:
    """Emit constraints (1)-(9) and objective (10) through row blocks.

    Works entirely on integer column indices: variable blocks are
    contiguous and created in a known order (F, then R, then R3), so
    every constraint family either knows its column order statically
    (two-term rows, contiguous placement ranges — ``sorted_row``) or
    sorts a short pair list (``pairs_row``).  Row order is part of the
    model's identity: reordering any rows changes the golden form
    digests.
    """
    writer = _BlockWriter(model)

    f_index = {key: var.index for key, var in f_vars.items()}

    # Per-producer (and per-sub-value) node -> column maps.  Blocks are
    # contiguous, so the maps come from walking the block start offsets —
    # no Var objects involved.  Shared sub-values alias the producer's R
    # columns, restricted to the nodes the sub-value can actually use.
    r_index_by_prod: dict[str, dict[str, int]] = {}
    pos = r_block.start
    for producer, nodes in sorted_union.items():
        r_index_by_prod[producer] = dict(zip(nodes, range(pos, pos + len(nodes))))
        pos += len(nodes)

    r3_index_by_sub: dict[tuple[str, Sink], dict[str, int]] = {}
    pos = r3_block.start
    for producer, sinks in sinks_of.items():
        if shared_of[producer]:
            r_sub = r_index_by_prod[producer]
            for snk in sinks:
                r3_index_by_sub[(producer, snk)] = {
                    node_id: r_sub[node_id]
                    for node_id in sorted_u3[(producer, snk)]
                }
        else:
            for snk in sinks:
                nodes = sorted_u3[(producer, snk)]
                r3_index_by_sub[(producer, snk)] = dict(
                    zip(nodes, range(pos, pos + len(nodes)))
                )
                pos += len(nodes)

    route_fanouts = mrrg.route_fanouts

    # ``writer(family)`` is called at each emission point (not hoisted
    # out of loops) so a family that emits no rows opens no block: the
    # compiled form's ``blocks`` list only families that have rows.
    # (1) Operation Placement: every op on exactly one functional unit.
    # Candidate F columns are contiguous per op by construction.
    for op_name, fus in candidates.items():
        start = f_block.start + f_group_pos[op_name]
        count = len(fus)
        writer("placement").sorted_row(
            range(start, start + count),
            (1.0,) * count,
            Sense.EQ,
            1.0,
            f"placement[{op_name}]",
        )

    # (2) Functional Unit Exclusivity.  Iterating f_index in insertion
    # order visits ascending column indices, so per-FU lists are sorted.
    by_fu: dict[str, list[int]] = {}
    for (fu_id, _op), idx in f_index.items():
        by_fu.setdefault(fu_id, []).append(idx)
    for fu_id, idxs in by_fu.items():
        if len(idxs) > 1:
            writer("fu_excl").sorted_row(
                idxs, (1.0,) * len(idxs), Sense.LE, 1.0, f"fu_excl[{fu_id}]"
            )

    # (4) Route Exclusivity.  Producer-major iteration visits ascending
    # R columns, so per-node lists are sorted.
    by_node: dict[str, list[int]] = {}
    for producer, sub in r_index_by_prod.items():
        for node_id, idx in sub.items():
            by_node.setdefault(node_id, []).append(idx)
    for node_id, idxs in by_node.items():
        if len(idxs) > 1:
            writer("route_excl").sorted_row(
                idxs, (1.0,) * len(idxs), Sense.LE, 1.0, f"route_excl[{node_id}]"
            )

    # (5) Fanout Routing + (6) Implied Placement + (7) Initial Fanout.
    for producer, sinks in sinks_of.items():
        sink_groups: list[tuple[tuple[Sink, ...], bool]]
        if not options.split_sub_values:
            sink_groups = [(sinks, True)]
        else:
            sink_groups = [((snk,), False) for snk in sinks]

        for group, grouped in sink_groups:
            terminals: set[str] = set()
            for snk in group:
                terminals |= set(terminal_ports[(producer, snk)])
            if grouped:
                # The group covers every sink, so its reach is the
                # producer's usable union and routing uses R columns.
                idx_of = r_index_by_prod[producer]
                ordered = sorted_union[producer]
            else:
                rep = group[0]
                idx_of = r3_index_by_sub[(producer, rep)]
                ordered = sorted_u3[(producer, rep)]

            # (5): continue the route at every non-terminal node.
            get = idx_of.get
            for node_id in ordered:
                if node_id in terminals:
                    continue
                var_idx = get(node_id)
                if var_idx is None:
                    continue
                pairs = [(var_idx, 1.0)]
                for m in route_fanouts(node_id):
                    fo = get(m)
                    if fo is not None:
                        pairs.append((fo, -1.0))
                writer("fanout").pairs_row(
                    pairs, Sense.LE, 0.0, f"fanout[{node_id}][{producer}]"
                )

            # (6): termination implies downstream placement.
            if grouped:
                for snk in group:
                    sub_get = r3_index_by_sub[(producer, snk)].get
                    for port_id, fu_id in terminal_ports[(producer, snk)].items():
                        var_idx = sub_get(port_id)
                        if var_idx is None:
                            continue
                        # Example 3 strawman: any consumer may claim the
                        # port (duplicate F columns coalesce in the row).
                        pairs = [(var_idx, 1.0)]
                        for s in group:
                            fi = f_index.get((fu_id, s.op))
                            if fi is not None:
                                pairs.append((fi, -1.0))
                        writer("implied").pairs_row(
                            pairs, Sense.LE, 0.0, f"implied[{port_id}][{producer}]"
                        )
            else:
                snk = group[0]
                for port_id, fu_id in terminal_ports[(producer, snk)].items():
                    var_idx = get(port_id)
                    if var_idx is None:
                        continue
                    writer("implied").sorted_row(
                        (f_index[(fu_id, snk.op)], var_idx),
                        (-1.0, 1.0),
                        Sense.LE,
                        0.0,
                        f"implied[{port_id}][{producer}][{snk}]",
                    )

        # (7): the producer's output starts every sub-value route.
        for fu in candidates[producer]:
            assert fu.output is not None
            fvar_idx = f_index[(fu.node_id, producer)]
            out = fu.output
            start_idxs = [
                r3_index_by_sub[(producer, s)].get(out) for s in sinks
            ]
            if options.split_sub_values:
                unroutable = any(i is None for i in start_idxs)
            else:
                unroutable = all(i is None for i in start_idxs)
            if unroutable:
                # The output cannot reach (all of) the sinks: placing the
                # producer on this unit is impossible.
                writer("unroutable").sorted_row(
                    (fvar_idx,),
                    (1.0,),
                    Sense.EQ,
                    0.0,
                    f"unroutable[{fu.node_id}][{producer}]",
                )
                continue
            emitted: set[int] = set()
            for snk, idx in zip(sinks, start_idxs):
                if idx is None or idx in emitted:
                    continue
                emitted.add(idx)
                writer("initial").sorted_row(
                    (fvar_idx, idx),
                    (-1.0, 1.0),
                    Sense.EQ,
                    0.0,
                    f"initial[{out}][{producer}][{snk}]",
                )

        # (8): sink-agnostic usage covers every sink-specific route.
        # Shared sub-values alias their R columns, so whole producers
        # are skipped rather than testing per node.
        if not shared_of[producer]:
            r_sub = r_index_by_prod[producer]
            for snk in sinks:
                sub = r3_index_by_sub[(producer, snk)]
                for node_id in sorted_u3[(producer, snk)]:
                    writer("usage").sorted_row(
                        (r_sub[node_id], sub[node_id]),
                        (1.0, -1.0),
                        Sense.GE,
                        0.0,
                        f"usage[{node_id}][{producer}][{snk}]",
                    )

    # (9) Multiplexer Input Exclusivity.
    if options.mux_exclusivity:
        route_fanins = mrrg.route_fanins
        for node in mrrg.route_nodes():
            nid = node.node_id
            fanins = route_fanins(nid)
            if len(fanins) <= 1:
                continue
            for producer in sinks_of:
                sub = r_index_by_prod[producer]
                rvar_idx = sub.get(nid)
                pairs = [(sub[m], 1.0) for m in fanins if m in sub]
                if rvar_idx is None:
                    if not pairs:
                        continue
                else:
                    pairs.append((rvar_idx, -1.0))
                writer("mux_excl").pairs_row(
                    pairs, Sense.EQ, 0.0, f"mux_excl[{nid}][{producer}]"
                )

    # (10) Objective: minimize routing resource usage.  R columns are
    # one contiguous block whose keys are (node id, producer) in order.
    model.set_objective_terms(list(r_block.indices), [1.0] * r_block.size)


class ILPMapper(Mapper):
    """Maps a DFG onto an MRRG by solving the section-4 ILP.

    Args:
        options: formulation and backend knobs.
        telemetry: optional event sink — any object exposing
            ``emit(kind, duration=None, **fields)`` (e.g. the service
            layer's :class:`repro.service.telemetry.EventBus`).  Emits
            ``model-build``, ``model-compile``, ``model-audit``,
            ``solve``, ``route`` and ``verify`` events.
        form_cache: optional :class:`~repro.mapper.sweep.FormulationCache`
            — when the same (DFG, MRRG, formulation options) instance is
            mapped repeatedly (portfolio backend stages and retries), the
            built and compiled formulation is reused instead of rebuilt.
    """

    name = "ilp"

    def __init__(
        self,
        options: ILPMapperOptions | None = None,
        telemetry=None,
        form_cache=None,
    ):
        self.options = options or ILPMapperOptions()
        self.telemetry = telemetry
        self.form_cache = form_cache

    def _emit(self, kind: str, duration: float | None = None, **fields) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(kind, duration=duration, **fields)

    def _formulate(
        self, dfg: DFG, mrrg: MRRG
    ) -> tuple[Formulation, StandardForm | None]:
        """Build + compile (or reuse) the formulation, with telemetry."""
        opts = self.options
        if self.form_cache is not None:
            cached = self.form_cache.get(dfg, mrrg, opts)
            if cached is not None:
                formulation, form = cached
                self._emit(
                    "model-build",
                    duration=0.0,
                    dfg=dfg.name,
                    mrrg=mrrg.name,
                    cached=True,
                    **formulation.stats(),
                )
                return formulation, form

        build_start = time.perf_counter()
        formulation = build_formulation(dfg, mrrg, opts)
        self._emit(
            "model-build",
            duration=time.perf_counter() - build_start,
            dfg=dfg.name,
            mrrg=mrrg.name,
            infeasible_reason=formulation.infeasible_reason,
            **formulation.stats(),
        )
        if formulation.infeasible_reason is not None:
            return formulation, None

        compile_start = time.perf_counter()
        form = compile_model(formulation.model)
        self._emit(
            "model-compile",
            duration=time.perf_counter() - compile_start,
            rows=form.num_rows,
            nnz=int(form.A.nnz),
        )
        if self.form_cache is not None:
            self.form_cache.put(dfg, mrrg, opts, formulation, form)
        return formulation, form

    def map(self, dfg: DFG, mrrg: MRRG) -> MapResult:
        """Screen, build, audit and solve; extract and verify the mapping.

        A structural witness (S-rules), a fatal bounds finding (B-rules,
        with its certificate) or a fatal model-audit finding is a proven
        INFEASIBLE without invoking the backend.
        """
        opts = self.options
        start = time.perf_counter()
        witness = first_witness(dfg, mrrg)
        if witness is not None:
            elapsed = time.perf_counter() - start
            self._emit(
                "pre-audit",
                duration=elapsed,
                verdict="infeasible",
                rule=witness.rule,
                message=witness.message,
            )
            return MapResult(
                status=MapStatus.INFEASIBLE,
                formulation_time=elapsed,
                detail=f"structural witness {witness.rule}: {witness.message}",
                proven_optimal=True,
            )
        screen_start = time.perf_counter()
        finding = first_bound_witness(dfg, mrrg)
        self._emit(
            "bounds-screen",
            duration=time.perf_counter() - screen_start,
            ii=mrrg.ii,
            verdict="infeasible" if finding else "unknown",
            rule=finding.rule if finding else None,
        )
        if finding is not None:
            return MapResult(
                status=MapStatus.INFEASIBLE,
                formulation_time=time.perf_counter() - start,
                detail=f"bounds screen {finding.rule}: {finding.message}",
                proven_optimal=True,
                certificate=finding.as_dict(),
            )
        formulation, form = self._formulate(dfg, mrrg)
        formulation_time = time.perf_counter() - start
        if formulation.infeasible_reason is not None:
            return MapResult(
                status=MapStatus.INFEASIBLE,
                formulation_time=formulation_time,
                detail=formulation.infeasible_reason,
                proven_optimal=True,
            )
        assert form is not None

        audit_start = time.perf_counter()
        report = audit_form(form)
        fatal = report.fatal
        self._emit(
            "model-audit",
            duration=time.perf_counter() - audit_start,
            findings=len(report.findings),
            rules=sorted(report.rules()),
            fatal=fatal.rule if fatal else None,
        )
        if fatal is not None:
            return MapResult(
                status=MapStatus.INFEASIBLE,
                formulation_time=time.perf_counter() - start,
                detail=f"model audit {fatal.rule}: {fatal.message}",
                proven_optimal=True,
            )

        # The audited form stays the paper's; the solver gets a copy with
        # one op pinned to one unit per orbit of the MRRG's automorphisms,
        # whose images are solutions of equal cost (DESIGN.md section
        # 5.8).  A feasibility solve stops at its first incumbent, where
        # the spatial pin measured slower than it saved: it keeps the
        # context shift alone.
        period = mrrg.rotation_period()
        symmetry_start = time.perf_counter()
        orbits = (
            mrrg.unit_orbits() if opts.proves_optimality
            else rotation_orbits(mrrg)
        )
        symmetry_s = time.perf_counter() - symmetry_start
        anchor, pinned, form = pin_anchor(dfg, formulation, form, orbits)
        solution = solve_form(
            form,
            backend=opts.backend,
            time_limit=opts.time_limit,
            mip_rel_gap=opts.mip_rel_gap,
        )
        self._emit(
            "solve",
            duration=solution.wall_time,
            backend=opts.backend,
            status=solution.status.value,
            objective=solution.objective,
            nodes=solution.nodes,
            rotation_period=period,
            anchor=anchor,
            pinned=pinned,
            symmetry_s=symmetry_s,
        )
        return self._to_result(dfg, mrrg, formulation, solution, formulation_time)

    def _to_result(
        self,
        dfg: DFG,
        mrrg: MRRG,
        formulation: Formulation,
        solution: Solution,
        formulation_time: float,
    ) -> MapResult:
        if solution.status is SolveStatus.INFEASIBLE:
            status = MapStatus.INFEASIBLE
        elif solution.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
            status = MapStatus.MAPPED
        elif solution.status is SolveStatus.TIMEOUT:
            status = MapStatus.TIMEOUT
        else:
            status = MapStatus.ERROR

        mapping = None
        detail = solution.message
        if status is MapStatus.MAPPED:
            route_start = time.perf_counter()
            mapping = extract_mapping(dfg, mrrg, formulation, solution)
            self._emit(
                "route",
                duration=time.perf_counter() - route_start,
                sub_values=len(mapping.routes),
                routing_cost=mapping.routing_cost(),
            )
            verify_start = time.perf_counter()
            issues = verify(
                mapping, strict_operands=self.options.split_sub_values
            )
            self._emit(
                "verify",
                duration=time.perf_counter() - verify_start,
                issues=len(issues),
            )
            if issues:
                status = MapStatus.ERROR
                detail = "extracted mapping failed verification: " + "; ".join(
                    issues[:5]
                )
        return MapResult(
            status=status,
            mapping=mapping,
            objective=solution.objective,
            proven_optimal=solution.status is SolveStatus.OPTIMAL
            or status is MapStatus.INFEASIBLE,
            formulation_time=formulation_time,
            solve_time=solution.wall_time,
            detail=detail,
        )


def pin_anchor(
    dfg: DFG,
    formulation: Formulation,
    form: StandardForm,
    orbits: dict[str, str],
) -> tuple[str | None, int, StandardForm]:
    """Pin one op to one unit per orbit: (anchor, pinned columns, form).

    ``orbits`` maps every unit to its orbit representative under a group
    of verified MRRG automorphisms (:meth:`~repro.mrrg.graph.MRRG.unit_orbits`
    or :func:`~repro.mrrg.symmetry.rotation_orbits`).  Each automorphism
    maps the formulation and its route-usage objective onto themselves,
    so some group element moves any solution's anchor onto its orbit's
    representative at equal cost: the pinned form keeps an optimum of
    ``form`` and every verdict (DESIGN.md section 5.8).

    The anchor is the op with the fewest representative F columns, then
    the fewest F columns, then the first in DFG op order, among the ops
    with a column to pin; its other F columns get upper bound 0 in a
    copy, and ``form`` itself is left alone.  Returns ``(None, 0, form)``
    when every column is a representative.
    """
    columns: Counter[str] = Counter()
    kept: Counter[str] = Counter()
    for fu_id, op_name in formulation.f_vars:
        columns[op_name] += 1
        if orbits[fu_id] == fu_id:
            kept[op_name] += 1
    pinnable = [op.name for op in dfg.ops if kept[op.name] < columns[op.name]]
    if not pinnable:
        return None, 0, form
    anchor = min(pinnable, key=lambda name: (kept[name], columns[name]))
    var_ub = form.var_ub.copy()
    for (fu_id, op_name), var in formulation.f_vars.items():
        if op_name == anchor and orbits[fu_id] != fu_id:
            var_ub[var.index] = 0.0
    pinned = columns[anchor] - kept[anchor]
    return anchor, pinned, dataclasses.replace(form, var_ub=var_ub)


def extract_mapping(
    dfg: DFG, mrrg: MRRG, formulation: Formulation, solution: Solution
) -> Mapping:
    """Read placement and routes out of a solved formulation."""
    placement: dict[str, str] = {}
    for (fu_id, op_name), var in formulation.f_vars.items():
        if solution.is_set(var):
            placement[op_name] = fu_id
    routes: dict[tuple[str, Sink], frozenset[str]] = {}
    used: dict[tuple[str, Sink], set[str]] = {}
    for (node_id, producer, snk), var in formulation.r3_vars.items():
        if solution.is_set(var):
            used.setdefault((producer, snk), set()).add(node_id)
    for producer, sinks in formulation.sinks_of.items():
        for snk in sinks:
            routes[(producer, snk)] = frozenset(used.get((producer, snk), set()))
    return Mapping(dfg=dfg, mrrg=mrrg, placement=placement, routes=routes)
