"""Compiled-loop artifact: the DFG plus everything verification needs.

A :class:`LoopKernel` is what the frontend compiler produces: the lowered
:class:`~repro.dfg.graph.DFG` together with the symbol tables that tie
its operations back to the user's program — which LOAD op reads which
affine slice of which array parameter, which STORE op writes where,
which INPUT op carries which scalar parameter, and the resolved trip
count.  The verification harness (:mod:`repro.frontend.verify`) uses
these tables to build load streams from concrete arrays and to compare
memory-out streams against the Python oracle.

Op names are *structural* (``ld0``, ``mul3``, ``st7`` — creation-order
counters, never user identifiers), so two alpha-renamed submissions of
the same loop lower to identical DFGs.  :meth:`LoopKernel.fingerprint`
hashes that structure with the user-chosen function name normalized
away, giving the service layer a source-normalized cache key: two users
submitting the same loop (different whitespace, comments, variable or
function names) coalesce to one cache entry.
"""

from __future__ import annotations

import dataclasses
import json

from ..dfg.graph import DFG


@dataclasses.dataclass(frozen=True)
class ArrayAccess:
    """One affine access ``array[stride * i + base]`` of an array param."""

    array: str
    stride: int
    base: int

    def index_at(self, i: int) -> int:
        """Resolved element index at loop-variable value ``i``."""
        return self.stride * i + self.base

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.stride == 0:
            return f"{self.array}[{self.base}]"
        head = f"{self.array}[{self.stride}*i" if self.stride != 1 else f"{self.array}[i"
        if self.base:
            return f"{head}{self.base:+d}]"
        return head + "]"


@dataclasses.dataclass(frozen=True)
class StoreSite:
    """One STORE op: where it writes and when its value is meaningful.

    ``final_only`` marks stores lowered from *post-loop* statements
    (``out[0] = acc`` after the loop): the DFG stores the running value
    every iteration, but only the last write is architecturally visible,
    so verification compares only the final value against the oracle.
    """

    access: ArrayAccess
    final_only: bool = False


@dataclasses.dataclass(frozen=True)
class TripSpec:
    """The resolved iteration space of the kernel's single loop."""

    start: int
    stop: int
    step: int

    def indices(self) -> tuple[int, ...]:
        """Loop-variable values, in iteration order."""
        return tuple(range(self.start, self.stop, self.step))

    @property
    def count(self) -> int:
        return len(range(self.start, self.stop, self.step))


@dataclasses.dataclass
class LoopKernel:
    """A frontend-compiled loop kernel.

    Attributes:
        name: the user's function name (also the DFG name).
        dfg: the lowered data-flow graph (validated).
        source: the exact source text the kernel was compiled from.
        params: function parameter names, in signature order.
        array_params: parameters accessed by subscript.
        scalar_params: parameters used as bare scalar values (INPUT ops).
        bound_params: parameters used only as range() bounds, with their
            resolved integer defaults.
        loads: LOAD op name -> the affine access it reads.
        stores: STORE op name -> the site it writes.
        inputs: INPUT op name -> scalar parameter name.
        consts: CONST op name -> immediate value.
        outputs: OUTPUT op name -> returned scalar's producing op name.
        trip: resolved loop bounds.
    """

    name: str
    dfg: DFG
    source: str
    params: tuple[str, ...]
    array_params: tuple[str, ...]
    scalar_params: tuple[str, ...]
    bound_params: dict[str, int]
    loads: dict[str, ArrayAccess]
    stores: dict[str, StoreSite]
    inputs: dict[str, str]
    consts: dict[str, int]
    outputs: dict[str, str]
    trip: TripSpec

    # ------------------------------------------------------------------
    def written_arrays(self) -> tuple[str, ...]:
        """Array parameters with at least one store site, in param order."""
        written = {site.access.array for site in self.stores.values()}
        return tuple(p for p in self.array_params if p in written)

    def read_arrays(self) -> tuple[str, ...]:
        """Array parameters with at least one load, in param order."""
        read = {access.array for access in self.loads.values()}
        return tuple(p for p in self.array_params if p in read)

    def array_extent(self, array: str) -> int:
        """Minimum element count of ``array`` over the whole iteration."""
        extent = 0
        accesses = [
            self.loads[op] for op in self.loads
            if self.loads[op].array == array
        ]
        accesses += [
            self.stores[op].access for op in self.stores
            if self.stores[op].access.array == array
        ]
        for access in accesses:
            for i in self.trip.indices():
                extent = max(extent, access.index_at(i) + 1)
        return extent

    def describe(self) -> str:
        """Human-readable summary of the lowering."""
        lines = [f"kernel {self.name!r}: {len(self.dfg)} ops, "
                 f"trip count {self.trip.count}"]
        for op_name in sorted(self.loads):
            lines.append(f"  {op_name} <- {self.loads[op_name]}")
        for op_name in sorted(self.stores):
            site = self.stores[op_name]
            tag = " (final)" if site.final_only else ""
            lines.append(f"  {op_name} -> {site.access}{tag}")
        for op_name in sorted(self.inputs):
            lines.append(f"  {op_name} <- scalar {self.inputs[op_name]!r}")
        for op_name in sorted(self.outputs):
            lines.append(f"  {op_name} <- return {self.outputs[op_name]}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # source-normalized fingerprinting (service cache coalescing)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the *compiled* kernel, function name excluded.

        Hashes the canonical DFG (with the name normalized away), the
        load/store binding structure and the trip — everything that
        determines the mapping problem and its verification semantics.
        Parameters are identified by *signature position*, never by
        name, so comments, whitespace, variable names, parameter names
        and the function name do not participate: alpha-equivalent
        submissions hash equal.
        """
        from ..service.fingerprint import canonical_dfg, fingerprint_document

        doc = canonical_dfg(self.dfg)
        doc["name"] = "loop"
        position = {name: idx for idx, name in enumerate(self.params)}
        return fingerprint_document(
            {
                "frontend": 1,
                "dfg": doc,
                "loads": sorted(
                    (op, position[self.loads[op].array],
                     self.loads[op].stride, self.loads[op].base)
                    for op in self.loads
                ),
                "stores": sorted(
                    (op, position[self.stores[op].access.array],
                     self.stores[op].access.stride,
                     self.stores[op].access.base,
                     self.stores[op].final_only)
                    for op in self.stores
                ),
                "inputs": sorted(
                    (op, position[self.inputs[op]]) for op in self.inputs
                ),
                "trip": [self.trip.start, self.trip.stop, self.trip.step],
            }
        )

    def coalesced_dfg(self) -> DFG:
        """A copy of the DFG renamed to the source-normalized identity.

        Service requests made with this DFG hash identically for every
        submission that compiles to the same kernel, regardless of the
        user's function name — the coalescing key the cache needs.
        """
        return self.dfg.copy(name=f"loop_{self.fingerprint()[:16]}")

    # ------------------------------------------------------------------
    # canonical text interchange (``dfg.parse``-compatible)
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Serialize kernel + binding metadata to the DFG text format.

        The body is exactly :func:`repro.dfg.parse.serialize` output;
        the binding tables the verifier needs (loads/stores/inputs/
        consts/outputs, trip, parameter roles, original source) ride in
        ``#!`` pragma lines, which :func:`repro.dfg.parse.parse` treats
        as comments — so the file is simultaneously a plain DFG and a
        full :class:`LoopKernel`.  Deterministic: ``to_text`` of a
        reloaded kernel is byte-identical.
        """
        from ..dfg.parse import serialize

        meta = {
            "frontend": 1,
            "name": self.name,
            "params": list(self.params),
            "array_params": list(self.array_params),
            "scalar_params": list(self.scalar_params),
            "bound_params": self.bound_params,
            "loads": {
                op: [self.loads[op].array, self.loads[op].stride,
                     self.loads[op].base]
                for op in self.loads
            },
            "stores": {
                op: [self.stores[op].access.array,
                     self.stores[op].access.stride,
                     self.stores[op].access.base,
                     self.stores[op].final_only]
                for op in self.stores
            },
            "inputs": self.inputs,
            "consts": self.consts,
            "outputs": self.outputs,
            "trip": [self.trip.start, self.trip.stop, self.trip.step],
            "source": self.source,
        }
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
        return f"#! {blob}\n" + serialize(self.dfg)

    @classmethod
    def from_text(cls, text: str) -> "LoopKernel":
        """Reload a kernel saved by :meth:`to_text`.

        Raises:
            ValueError: if the text carries no ``#!`` frontend pragma, or
                one that is not what :meth:`to_text` writes (the message
                names the bad table).
        """
        from ..dfg.parse import parse

        pragmas = [
            line[2:].strip()
            for line in text.splitlines()
            if line.startswith("#!")
        ]
        if not pragmas:
            raise ValueError(
                "not a loop-kernel file: missing the '#!' metadata pragma "
                "(plain DFG files load via repro.dfg.parse)"
            )
        meta = json.loads("\n".join(pragmas))
        dfg = parse(text)
        _check_pragma(meta, dfg)
        # Rebuild tables in DFG creation order: store order IS program
        # order, which oracle write-attribution depends on.
        position = {op: idx for idx, op in enumerate(dfg.op_names)}

        def by_creation(table: dict) -> list:
            return sorted(table, key=lambda op: position[op])

        return cls(
            name=meta["name"],
            dfg=dfg,
            source=meta["source"],
            params=tuple(meta["params"]),
            array_params=tuple(meta["array_params"]),
            scalar_params=tuple(meta["scalar_params"]),
            bound_params={
                k: int(meta["bound_params"][k])
                for k in sorted(meta["bound_params"])
            },
            loads={
                op: ArrayAccess(
                    array=meta["loads"][op][0],
                    stride=meta["loads"][op][1],
                    base=meta["loads"][op][2],
                )
                for op in by_creation(meta["loads"])
            },
            stores={
                op: StoreSite(
                    access=ArrayAccess(
                        array=meta["stores"][op][0],
                        stride=meta["stores"][op][1],
                        base=meta["stores"][op][2],
                    ),
                    final_only=bool(meta["stores"][op][3]),
                )
                for op in by_creation(meta["stores"])
            },
            inputs={
                op: meta["inputs"][op] for op in by_creation(meta["inputs"])
            },
            consts={
                op: int(meta["consts"][op])
                for op in by_creation(meta["consts"])
            },
            outputs={
                op: meta["outputs"][op] for op in by_creation(meta["outputs"])
            },
            trip=TripSpec(*meta["trip"]),
        )


#: The pragma tables :meth:`LoopKernel.from_text` reads, and their
#: shapes (see :func:`_fits`).
_PRAGMA_TABLES = (
    ("name", str),
    ("source", str),
    ("params", [str]),
    ("array_params", [str]),
    ("scalar_params", [str]),
    ("bound_params", {"": int}),
    ("loads", {"": (str, int, int)}),
    ("stores", {"": (str, int, int, bool)}),
    ("inputs", {"": str}),
    ("consts", {"": int}),
    ("outputs", {"": str}),
    ("trip", (int, int, int)),
)


def _fits(value: object, shape: object) -> bool:
    """Whether a decoded JSON value has ``shape``: a type; a tuple of
    shapes, for a list of exactly those fields; ``[s]``, for a list of
    ``s``; ``{"": s}``, for an object whose values are all ``s``."""
    if isinstance(shape, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(shape)
            and all(map(_fits, value, shape))
        )
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(
            _fits(value[key], shape[""]) for key in value
        )
    return isinstance(value, shape)


def _check_pragma(meta: object, dfg: DFG) -> None:
    """Reject a pragma :meth:`LoopKernel.from_text` cannot load.

    Raises:
        ValueError: naming the first table that is missing, has the
            wrong shape, or names an op the parsed DFG lacks or a
            parameter the parameter tables lack.
    """
    if not isinstance(meta, dict):
        raise ValueError("loop-kernel pragma is not a JSON object")
    for table, shape in _PRAGMA_TABLES:
        if table not in meta:
            raise ValueError(f"loop-kernel pragma has no {table!r} table")
        if not _fits(meta[table], shape):
            raise ValueError(f"loop-kernel pragma table {table!r} is malformed")
    loads, stores, inputs = meta["loads"], meta["stores"], meta["inputs"]
    # (table, the names it uses, where they must appear, what they are)
    references = [
        (table, meta[table], dfg.op_names, "ops")
        for table in ("loads", "stores", "inputs", "consts", "outputs")
    ] + [
        ("array_params", meta["array_params"], meta["params"], "parameters"),
        ("scalar_params", meta["scalar_params"], meta["params"], "parameters"),
        ("loads", [loads[op][0] for op in loads], meta["array_params"], "arrays"),
        ("stores", [stores[op][0] for op in stores], meta["array_params"], "arrays"),
        ("inputs", [inputs[op] for op in inputs], meta["scalar_params"], "scalars"),
    ]
    for table, names, known, kind in references:
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise ValueError(
                f"loop-kernel pragma table {table!r} names unknown "
                f"{kind}: {', '.join(unknown)}"
            )
