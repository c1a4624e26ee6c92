"""JSON serialization of mappings.

Lets a mapping produced by one tool stage (the ILP mapper) be stored and
reloaded by another (configuration generation, simulation, visualization)
without re-solving — the practical glue a downstream toolflow needs.

The JSON carries identifiers only; loading requires the same DFG and MRRG
(checked via name, II and structural membership of every referenced id).
"""

from __future__ import annotations

import json
from typing import Any

from ..dfg.graph import DFG, Sink
from ..mrrg.graph import MRRG
from .mapping import Mapping

FORMAT_VERSION = 1


class MappingFormatError(ValueError):
    """Raised when mapping JSON is malformed or inconsistent."""


def mapping_to_payload(mapping: Mapping) -> dict[str, Any]:
    """The JSON-able document :func:`mapping_to_json` encodes."""
    return {
        "format": FORMAT_VERSION,
        "dfg": mapping.dfg.name,
        "mrrg": mapping.mrrg.name,
        "ii": mapping.mrrg.ii,
        "placement": dict(sorted(mapping.placement.items())),
        "routes": [
            {
                "value": producer,
                "sink_op": sink.op,
                "operand": sink.operand,
                "nodes": sorted(nodes),
            }
            for (producer, sink), nodes in sorted(
                mapping.routes.items(),
                key=lambda kv: (kv[0][0], kv[0][1].op, kv[0][1].operand),
            )
        ],
    }


def mapping_to_json(mapping: Mapping, indent: int | None = None) -> str:
    """Serialize a mapping to JSON text."""
    return json.dumps(mapping_to_payload(mapping), indent=indent)


def mapping_from_json(text: str, dfg: DFG, mrrg: MRRG) -> Mapping:
    """Decode mapping JSON text, then :func:`mapping_from_payload`.

    Raises:
        MappingFormatError: on malformed JSON, or as
            :func:`mapping_from_payload` does.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MappingFormatError(f"invalid JSON: {exc}") from None
    return mapping_from_payload(payload, dfg, mrrg)


def mapping_from_payload(payload: Any, dfg: DFG, mrrg: MRRG) -> Mapping:
    """Reconstruct a mapping from its decoded JSON document.

    ``payload`` may come from anywhere (a file, a cache entry), so every
    part of it is checked for shape before it is used.

    Raises:
        MappingFormatError: on a document of the wrong shape, a version
            mismatch, or any reference to ops/nodes that do not exist in
            ``dfg``/``mrrg``.
    """
    if not isinstance(payload, dict):
        raise MappingFormatError(
            f"mapping is a JSON {type(payload).__name__}, not an object"
        )
    if payload.get("format") != FORMAT_VERSION:
        raise MappingFormatError(
            f"unsupported mapping format {payload.get('format')!r}"
        )
    if payload.get("dfg") != dfg.name:
        raise MappingFormatError(
            f"mapping is for DFG {payload.get('dfg')!r}, not {dfg.name!r}"
        )
    if payload.get("ii") != mrrg.ii:
        raise MappingFormatError(
            f"mapping was made for II={payload.get('ii')}, MRRG has II={mrrg.ii}"
        )

    placed = payload.get("placement", {})
    if not isinstance(placed, dict):
        raise MappingFormatError("placement is not a JSON object")
    placement = {}
    for op_name, fu_id in placed.items():
        if op_name not in dfg:
            raise MappingFormatError(f"unknown op {op_name!r} in placement")
        if not _is_node(fu_id, mrrg):
            raise MappingFormatError(f"unknown MRRG node {fu_id!r} in placement")
        placement[op_name] = fu_id

    routed = payload.get("routes", [])
    if not isinstance(routed, list):
        raise MappingFormatError("routes is not a JSON list")
    routes = {}
    for entry in routed:
        try:
            producer = entry["value"]
            sink = Sink(entry["sink_op"], int(entry["operand"]))
            nodes = entry["nodes"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MappingFormatError(f"malformed route entry: {exc}") from None
        if not (_is_op(producer, dfg) and _is_op(sink.op, dfg)):
            raise MappingFormatError(
                f"route references unknown ops {producer!r}->{sink.op!r}"
            )
        if not isinstance(nodes, list):
            raise MappingFormatError(f"route nodes {nodes!r} are not a JSON list")
        for node in nodes:
            if not _is_node(node, mrrg):
                raise MappingFormatError(f"unknown MRRG node {node!r} in route")
        routes[(producer, sink)] = frozenset(nodes)

    return Mapping(dfg=dfg, mrrg=mrrg, placement=placement, routes=routes)


def _is_op(name: Any, dfg: DFG) -> bool:
    return isinstance(name, str) and name in dfg


def _is_node(node_id: Any, mrrg: MRRG) -> bool:
    return isinstance(node_id, str) and node_id in mrrg


def save_mapping(mapping: Mapping, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(mapping_to_json(mapping, indent=2) + "\n")


def load_mapping(path: str, dfg: DFG, mrrg: MRRG) -> Mapping:
    with open(path, encoding="utf-8") as handle:
        return mapping_from_json(handle.read(), dfg, mrrg)
