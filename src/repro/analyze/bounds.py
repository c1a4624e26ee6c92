"""Pre-solve feasibility prover: certified MII bounds over (DFG, MRRG).

The PR 4 capacity screen (S001-S003 in :mod:`.model_audit`) does raw
counting; this module proves *structural* bounds with machine-checkable
certificates, answering in microseconds what the monolithic ILP takes
seconds to refute.  Five rules:

* **B001 ResMII / Hall screen** — bipartite matching of operations
  against capable FuncUnit slots at the given II.  By Hall's theorem a
  perfect matching exists iff every operation set ``S`` satisfies
  ``|S| <= |N(S)|``; a violated Hall set is returned as the
  certificate.  Strictly stronger than S002's per-class counting: it
  catches *overlapping* capability classes (e.g. multiplies fit the
  mul-capable units and adds fit the ALUs, but their union overflows
  the fabric).
* **B002 RecMII** — the classic recurrence bound max over dependence
  cycles of ``ceil(latency / distance)``, with the cycle as the
  certificate.  NOTE: the paper's modulo abstraction wraps FU latency
  into the context arithmetic, so a latency-heavy cycle is *still
  representable* at a small II (the combinational-feedback gap,
  DESIGN.md section 10).  B002 therefore bounds *executable schedules*,
  not ILP feasibility — it is reported as ``info`` and never used to
  refute an II that the solver could accept.
* **B003 routability** — BFS reachability in the MRRG route network
  from every producer's candidate output nodes to its sinks' candidate
  operand ports.  When no target is reachable, the fanout-closed
  reachable set is a *cut* separating producer from consumer: the
  certificate.
* **B004 port/bandwidth saturation** — route exclusivity (paper
  constraint (4)) means distinct values occupy disjoint route nodes;
  every value claims its producer's output node (7) and one operand
  port per sink (6).  Counting those per node class refutes instances
  that S003's total-node count misses.
* **B005 combined MII** — ``max(ResMII, RecMII)`` with sub-certificates.

Every fatal finding is a proof of infeasibility for the exact
``(dfg, mrrg)`` instance it was computed on; :mod:`.certify` re-checks
each certificate from scratch with an independent implementation.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from collections.abc import Callable, Iterable, Mapping

from ..arch.module import Module
from ..arch.netlist import flatten
from ..arch.primitives import FunctionalUnit
from ..dfg.graph import DFG, Sink
from ..dfg.opcodes import OpCode
from ..mrrg.graph import MRRG, MRRGNode

#: B-rule identifiers -> one-line description (mirrors model_audit.RULES).
BOUND_RULES: dict[str, str] = {
    "B001": "ResMII: Hall-condition bipartite matching of ops vs capable "
            "FuncUnit slots (certificate: violated Hall set)",
    "B002": "RecMII: max latency/distance ratio over DFG back-edge cycles "
            "(certificate: the cycle; advisory — bounds executable "
            "schedules, not the modulo-abstraction ILP)",
    "B003": "routability: candidate producer outputs must reach candidate "
            "consumer operand ports (certificate: fanout-closed cut)",
    "B004": "port/bandwidth saturation: values vs output nodes, sinks vs "
            "operand-port nodes under route exclusivity (certificate: "
            "the counts)",
    "B005": "combined MII = max(ResMII, RecMII) (certificate: "
            "sub-certificate references)",
}


@dataclasses.dataclass(frozen=True)
class BoundFinding:
    """One prover observation.

    Attributes:
        rule: B-rule identifier (see :data:`BOUND_RULES`).
        severity: "error" for refutations, "info" for advisory bounds.
        subject: what the finding is about (kernel, edge, op class).
        message: human-readable explanation.
        fatal: True when the certificate proves the (dfg, mrrg) instance
            infeasible for the paper's formulation.
        ii: the II of the MRRG the finding was computed on (None for
            II-independent findings such as B002).
        bound: for B002/B005, the proven lower bound on II.
        certificate: machine-checkable evidence; schema per rule is
            documented in DESIGN.md section 7 and enforced by
            :mod:`repro.analyze.certify`.
    """

    rule: str
    severity: str
    subject: str
    message: str
    fatal: bool = False
    ii: int | None = None
    bound: int | None = None
    certificate: dict = dataclasses.field(default_factory=dict)

    def format(self) -> str:
        flag = " [infeasible]" if self.fatal else ""
        at = f" (II={self.ii})" if self.ii is not None else ""
        return f"{self.rule} {self.severity}{flag}: {self.message}{at}"

    def as_dict(self) -> dict:
        """JSON-able form (stored in cache entries and map results)."""
        return dataclasses.asdict(self)


def finding_from_dict(payload: Mapping) -> BoundFinding:
    """Rebuild a :class:`BoundFinding` from :meth:`BoundFinding.as_dict`."""
    return BoundFinding(**dict(payload))


# ----------------------------------------------------------------------
# Candidate legality (the MRRG's capable_units, as build_formulation)
# ----------------------------------------------------------------------
def op_candidates(dfg: DFG, mrrg: MRRG) -> dict[str, list[MRRGNode]]:
    """Per-op legal FuncUnit nodes (:meth:`MRRG.capable_units`): supports
    the opcode, has an output port when the op produces a value, and
    covers every operand index.

    An empty list is *kept* (unlike ``build_formulation``): B001 turns
    it into a trivial Hall violation with a one-op certificate.
    """
    produces = {v.producer for v in dfg.values()}
    return {
        op.name: list(mrrg.capable_units(op.opcode, op.name in produces))
        for op in dfg.ops
    }


# ----------------------------------------------------------------------
# B001 — Hall-condition resource screen
# ----------------------------------------------------------------------
def hall_screen(
    dfg: DFG,
    mrrg: MRRG,
    candidates: dict[str, list[MRRGNode]] | None = None,
) -> BoundFinding | None:
    """Perfect-matching check of ops against capable FuncUnit slots.

    Runs Kuhn's augmenting-path algorithm; when some op cannot be
    matched, the alternating-tree construction yields a violated Hall
    set ``S`` with ``|S| > |N(S)|`` — the certificate.
    """
    if candidates is None:
        candidates = op_candidates(dfg, mrrg)
    adjacency = {
        op: [fu.node_id for fu in fus] for op, fus in candidates.items()
    }
    match_of_unit: dict[str, str] = {}  # unit id -> op name

    def try_augment(op: str, visited: set[str]) -> bool:
        for unit in adjacency[op]:
            if unit in visited:
                continue
            visited.add(unit)
            holder = match_of_unit.get(unit)
            if holder is None or try_augment(holder, visited):
                match_of_unit[unit] = op
                return True
        return False

    for op in adjacency:
        visited: set[str] = set()
        if not try_augment(op, visited):
            # Failed alternating search from ``op``: every visited unit
            # is matched, each to a distinct op reachable by an
            # alternating path, and no edge leaves {op} + those ops
            # except into the visited units.  Violated Hall set:
            hall_ops = sorted({op} | {match_of_unit[u] for u in visited})
            hall_units = sorted(visited)
            return BoundFinding(
                rule="B001",
                severity="error",
                subject=dfg.name,
                message=(
                    f"Hall violation: {len(hall_ops)} operations "
                    f"({_summary(hall_ops)}) compete for "
                    f"{len(hall_units)} capable FuncUnit slots"
                ),
                fatal=True,
                ii=mrrg.ii,
                certificate={"ops": hall_ops, "units": hall_units},
            )
    return None


def _summary(names: list[str], limit: int = 4) -> str:
    if len(names) <= limit:
        return ", ".join(names)
    return ", ".join(names[:limit]) + f", ... +{len(names) - limit}"


# ----------------------------------------------------------------------
# B002 — recurrence bound (advisory)
# ----------------------------------------------------------------------
def min_latencies(architecture: Module) -> dict[OpCode, int]:
    """Per-opcode minimum FunctionalUnit latency across the fabric."""
    result: dict[OpCode, int] = {}
    for primitive in flatten(architecture).primitives.values():
        if not isinstance(primitive, FunctionalUnit):
            continue
        for opcode in primitive.ops:
            held = result.get(opcode)
            if held is None or primitive.latency < held:
                result[opcode] = primitive.latency
    return result


def recurrence_bound(
    dfg: DFG, latency_of: Mapping[OpCode, int]
) -> BoundFinding | None:
    """RecMII over single-back-edge cycles: for each back-edge (u, v),
    the longest min-latency forward path v -> u closes a distance-1
    cycle, so any *executable* schedule needs II >= its latency sum.

    Returns the strongest such bound as an advisory (non-fatal)
    finding, or None when the DFG has no back-edges.
    """
    forward: dict[str, list[tuple[str, int]]] = {op.name: [] for op in dfg.ops}
    back_edges: list[tuple[str, str, int]] = []
    for edge in dfg.edges():
        if edge.back:
            back_edges.append((edge.src, edge.dst, edge.operand))
        else:
            forward[edge.src].append((edge.dst, edge.operand))
    if not back_edges:
        return None

    lat = {
        op.name: int(latency_of.get(op.opcode, 0)) for op in dfg.ops
    }
    order = _topo_order(forward)
    if order is None:  # forward edges not a DAG: malformed, stay silent
        return None
    position = {name: i for i, name in enumerate(order)}

    best: BoundFinding | None = None
    for src, dst, operand in back_edges:
        path = _longest_path(forward, lat, order, position, dst, src)
        if path is None:
            continue  # no forward path closes this back-edge
        total = sum(lat[name] for name in path)
        bound = max(1, total)  # distance of a single back-edge is 1
        if best is None or bound > (best.bound or 0):
            cycle_edges = [
                [path[i], path[i + 1]] for i in range(len(path) - 1)
            ]
            best = BoundFinding(
                rule="B002",
                severity="info",
                subject=dfg.name,
                message=(
                    f"recurrence cycle through {_summary(path)} has "
                    f"latency {total} over distance 1: executable "
                    f"schedules need II >= {bound} (advisory; the "
                    "modulo abstraction itself admits latency wrap)"
                ),
                fatal=False,
                bound=bound,
                certificate={
                    "cycle_ops": list(path),
                    "forward_edges": cycle_edges,
                    "back_edge": [src, dst, operand],
                    "latencies": {name: lat[name] for name in path},
                    "latency_sum": total,
                    "distance": 1,
                    "bound": bound,
                },
            )
    return best


def _topo_order(forward: dict[str, list[tuple[str, int]]]) -> list[str] | None:
    indegree = {name: 0 for name in forward}
    for src in forward:
        for dst, _ in forward[src]:
            indegree[dst] += 1
    queue = deque(sorted(n for n, d in indegree.items() if d == 0))
    order: list[str] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for dst, _ in forward[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                queue.append(dst)
    if len(order) != len(forward):
        return None
    return order


def _longest_path(
    forward: dict[str, list[tuple[str, int]]],
    lat: dict[str, int],
    order: list[str],
    position: dict[str, int],
    start: str,
    end: str,
) -> list[str] | None:
    """Max-latency forward path ``start -> ... -> end`` (node weights)."""
    if start == end:
        return [start]
    best_to: dict[str, tuple[int, str | None]] = {start: (lat[start], None)}
    for name in order[position[start]:]:
        if name not in best_to:
            continue
        total, _ = best_to[name]
        for dst, _operand in forward[name]:
            cand = total + lat[dst]
            held = best_to.get(dst)
            if held is None or cand > held[0]:
                best_to[dst] = (cand, name)
    if end not in best_to:
        return None
    path = [end]
    while True:
        _, prev = best_to[path[-1]]
        if prev is None:
            break
        path.append(prev)
    path.reverse()
    return path


# ----------------------------------------------------------------------
# B003 — routability cuts
# ----------------------------------------------------------------------
def routability_screen(
    dfg: DFG,
    mrrg: MRRG,
    candidates: dict[str, list[MRRGNode]] | None = None,
) -> BoundFinding | None:
    """For every (producer, sink) pair: some candidate output node must
    reach some candidate operand-port node through the route network.

    Operand ports are taken *permissively* (either port of a
    commutative op counts), so a refutation here is sound for both
    ``strict`` and ``commutative`` operand modes.  The reachable sets
    are :meth:`MRRG.forward_reach`'s, shared with formulation builds on
    the same MRRG.
    """
    if candidates is None:
        candidates = op_candidates(dfg, mrrg)
    route_ids = {node.node_id for node in mrrg.route_nodes()}

    for value in dfg.values():
        producer = value.producer
        sources = {
            fu.output
            for fu in candidates[producer]
            if fu.output is not None and fu.output in route_ids
        }
        if not sources:
            continue  # no legal placement at all: B001's job
        cut = mrrg.forward_reach(sources)
        for snk in value.sinks:
            targets = _terminal_targets(dfg, snk, candidates)
            if targets and not (cut & targets):
                return BoundFinding(
                    rule="B003",
                    severity="error",
                    subject=f"{producer}->{snk.op}",
                    message=(
                        f"value {producer!r} cannot reach operand "
                        f"{snk.operand} of {snk.op!r}: no route from any "
                        f"of {len(sources)} candidate outputs to any of "
                        f"{len(targets)} candidate ports"
                    ),
                    fatal=True,
                    ii=mrrg.ii,
                    certificate={
                        "producer": producer,
                        "sink_op": snk.op,
                        "operand": snk.operand,
                        "sources": sorted(sources),
                        "targets": sorted(targets),
                        "cut": sorted(cut),
                    },
                )
    return None


def _terminal_targets(
    dfg: DFG, snk: Sink, candidates: dict[str, list[MRRGNode]]
) -> set[str]:
    """Permissive candidate terminal-port node ids for one sink."""
    op = dfg.op(snk.op)
    allow_swap = op.opcode.is_commutative and op.opcode.arity == 2
    targets: set[str] = set()
    for fu in candidates[snk.op]:
        if allow_swap:
            targets.update(fu.operand_ports.values())
        else:
            port = fu.operand_ports.get(snk.operand)
            if port is not None:
                targets.add(port)
    return targets


# ----------------------------------------------------------------------
# B004 — port/bandwidth saturation
# ----------------------------------------------------------------------
def saturation_screen(dfg: DFG, mrrg: MRRG) -> BoundFinding | None:
    """Counting refutations from route exclusivity (constraint (4)).

    Each value's route claims its producer's output node (7) and one
    distinct operand-port node per sink (6); values claim disjoint
    node sets, so per-class capacities bound the instance:

    * #values            <= #output route nodes,
    * total #sinks       <= #operand-port route nodes.
    """
    values = dfg.values()
    n_values = len(values)
    n_sinks = sum(len(v.sinks) for v in values)
    route_ids = {node.node_id for node in mrrg.route_nodes()}
    output_nodes = sorted(
        fu.output
        for fu in mrrg.function_nodes()
        if fu.output is not None and fu.output in route_ids
    )
    port_nodes = sorted(
        node.node_id for node in mrrg.route_nodes() if node.operand is not None
    )
    sink_counts = {v.producer: len(v.sinks) for v in values}

    if n_values > len(output_nodes):
        return BoundFinding(
            rule="B004",
            severity="error",
            subject=dfg.name,
            message=(
                f"{n_values} values need distinct producer output nodes "
                f"but the fabric has {len(output_nodes)}"
            ),
            fatal=True,
            ii=mrrg.ii,
            certificate={
                "kind": "outputs",
                "sink_counts": sink_counts,
                "n_values": n_values,
                "n_sinks": n_sinks,
                "n_output_nodes": len(output_nodes),
                "n_port_nodes": len(port_nodes),
            },
        )
    if n_sinks > len(port_nodes):
        return BoundFinding(
            rule="B004",
            severity="error",
            subject=dfg.name,
            message=(
                f"{n_sinks} sink terminals need distinct operand-port "
                f"nodes but the fabric has {len(port_nodes)}"
            ),
            fatal=True,
            ii=mrrg.ii,
            certificate={
                "kind": "ports",
                "sink_counts": sink_counts,
                "n_values": n_values,
                "n_sinks": n_sinks,
                "n_output_nodes": len(output_nodes),
                "n_port_nodes": len(port_nodes),
            },
        )
    return None


# ----------------------------------------------------------------------
# Per-II driver + combined MII
# ----------------------------------------------------------------------
def prove_bounds(
    dfg: DFG,
    mrrg: MRRG,
    first_only: bool = False,
) -> list[BoundFinding]:
    """Run the per-II refutation rules (B001, B004, B003) on one MRRG.

    Ordered cheapest-first; ``first_only`` stops at the first fatal
    finding (the hot-path mode used by the sweep and the portfolio).
    """
    candidates = op_candidates(dfg, mrrg)
    findings: list[BoundFinding] = []
    for check in (
        lambda: hall_screen(dfg, mrrg, candidates),
        lambda: saturation_screen(dfg, mrrg),
        lambda: routability_screen(dfg, mrrg, candidates),
    ):
        finding = check()
        if finding is not None:
            findings.append(finding)
            if first_only and finding.fatal:
                break
    return findings


def first_bound_witness(dfg: DFG, mrrg: MRRG) -> BoundFinding | None:
    """First fatal B-rule finding for (dfg, mrrg), or None."""
    for finding in prove_bounds(dfg, mrrg, first_only=True):
        if finding.fatal:
            return finding
    return None


@dataclasses.dataclass
class MIIReport:
    """Certified lower-bound analysis for one (DFG, architecture) pair.

    Attributes:
        res_mii: smallest II not refuted by the per-II rules (when no
            probed II passes, ``max_probed + 1`` — a valid lower bound).
        res_mii_proven: True when some probed II passed the screen
            (i.e. ``res_mii`` is exact w.r.t. the screen, not a floor).
        rec_mii: advisory recurrence bound (1 when no back-edges).
        mii: ``max(res_mii, rec_mii)`` — the B005 combined bound.
        refuted: II -> fatal finding for every refuted probed II.
        rec_finding: the B002 finding (None without back-edges).
        combined: the B005 summary finding.
    """

    res_mii: int
    res_mii_proven: bool
    rec_mii: int
    mii: int
    refuted: dict[int, BoundFinding]
    rec_finding: BoundFinding | None
    combined: BoundFinding


def compute_mii(
    dfg: DFG,
    architecture: Module,
    mrrg_for: Callable[[int], MRRG],
    max_probe: int = 8,
) -> MIIReport:
    """Probe II = 1.. for the smallest non-refuted II and combine with
    the recurrence bound into the B005 certificate.

    ``mrrg_for`` supplies the (pruned) MRRG per II — pass the memoized
    :meth:`repro.mapper.sweep.IISweep.mrrg` or
    :meth:`repro.mrrg.build.MRRGFactory.mrrg` so graphs are shared with
    the actual mapping run.
    """
    refuted: dict[int, BoundFinding] = {}
    res_mii = max_probe + 1
    res_proven = False
    for ii in range(1, max_probe + 1):
        witness = first_bound_witness(dfg, mrrg_for(ii))
        if witness is None:
            res_mii = ii
            res_proven = True
            break
        refuted[ii] = witness

    rec = recurrence_bound(dfg, min_latencies(architecture))
    rec_mii = rec.bound if rec is not None and rec.bound else 1
    mii = max(res_mii, rec_mii)
    combined = BoundFinding(
        rule="B005",
        severity="info",
        subject=dfg.name,
        message=(
            f"MII = max(ResMII {res_mii}{'' if res_proven else '+'}, "
            f"RecMII {rec_mii}) = {mii}"
        ),
        bound=mii,
        certificate={
            "res_mii": res_mii,
            "res_mii_proven": res_proven,
            "rec_mii": rec_mii,
            "mii": mii,
            "refuted_iis": {
                str(ii): finding.rule for ii, finding in refuted.items()
            },
        },
    )
    return MIIReport(
        res_mii=res_mii,
        res_mii_proven=res_proven,
        rec_mii=rec_mii,
        mii=mii,
        refuted=refuted,
        rec_finding=rec,
        combined=combined,
    )


def iter_findings(report: MIIReport) -> Iterable[BoundFinding]:
    """Every finding in a :class:`MIIReport`, refutations first."""
    yield from (report.refuted[ii] for ii in sorted(report.refuted))
    if report.rec_finding is not None:
        yield report.rec_finding
    yield report.combined
