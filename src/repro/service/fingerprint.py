"""Canonical content fingerprints for mapping requests.

A cache can only be trusted if its keys are *semantic*: two requests that
mean the same thing must hash equal regardless of construction order, and
any semantic difference (an opcode, an edge, the context count, a grid
dimension, a solver knob) must change the hash.  This module therefore
canonicalizes each ingredient into a plain JSON document with every
unordered collection sorted, and hashes the composite with SHA-256.

The canonical forms deliberately contain *names* (operation names, module
definition names, port names): they are structural labels that the rest of
the pipeline — mapping serialization in particular — resolves against, so
a renamed DFG is a different request even when isomorphic.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..analyze import RULESET_VERSION
from ..arch.module import Module
from ..arch.primitives import FunctionalUnit, Multiplexer, Primitive, Register
from ..dfg.graph import DFG

_HASH_PREFIX_BYTES = 32


def _canonical_json(document: Any) -> str:
    """Serialize a document with a byte-stable encoding."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def fingerprint_document(document: Any) -> str:
    """SHA-256 hex digest of a JSON-able document's canonical encoding."""
    payload = _canonical_json(document).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[: 2 * _HASH_PREFIX_BYTES]


# ----------------------------------------------------------------------
# DFG canonicalization
# ----------------------------------------------------------------------
def canonical_dfg(dfg: DFG) -> dict[str, Any]:
    """Insertion-order-independent description of a DFG.

    Two DFGs built by adding the same ops/edges in any order canonicalize
    identically; changing an op name, an opcode, an edge endpoint, an
    operand index or a back-edge flag changes the document.
    """
    ops = sorted((op.name, op.opcode.value) for op in dfg.ops)
    edges = sorted(
        (edge.src, edge.dst, edge.operand, edge.back) for edge in dfg.edges()
    )
    return {
        "name": dfg.name,
        "ops": [list(item) for item in ops],
        "edges": [list(item) for item in edges],
    }


# ----------------------------------------------------------------------
# Architecture canonicalization
# ----------------------------------------------------------------------
def _canonical_primitive(element: Primitive) -> dict[str, Any]:
    if isinstance(element, FunctionalUnit):
        return {
            "kind": "fu",
            "ops": sorted(op.value for op in element.ops),
            "latency": element.latency,
            "ii": element.ii,
        }
    if isinstance(element, Multiplexer):
        return {"kind": "mux", "inputs": element.num_inputs}
    if isinstance(element, Register):
        return {"kind": "reg"}
    raise TypeError(f"cannot canonicalize primitive {element!r}")


def _canonical_definition(module: Module) -> dict[str, Any]:
    elements: dict[str, Any] = {}
    for name, element in module.elements.items():
        if isinstance(element, Module):
            elements[name] = {"kind": "module", "ref": element.name}
        else:
            elements[name] = _canonical_primitive(element)
    return {
        "ports": sorted(
            (port.name, port.direction.value) for port in module.ports.values()
        ),
        "elements": {name: elements[name] for name in sorted(elements)},
        "connections": sorted(
            (str(src), str(dst)) for src, dst in module.connections
        ),
    }


def canonical_module(top: Module) -> dict[str, Any]:
    """Insertion-order-independent description of a module tree.

    Every module definition reachable from ``top`` is canonicalized once
    (shared definitions stay shared — instance elements reference the
    definition by name), so structurally identical trees built in any
    element/connection insertion order hash equal, while any change to a
    port, element, connection or grid dimension changes the document.
    """
    definitions = top.referenced_modules()
    return {
        "top": top.name,
        "defs": {
            name: _canonical_definition(definitions[name])
            for name in sorted(definitions)
        },
    }


# ----------------------------------------------------------------------
# Request fingerprint
# ----------------------------------------------------------------------
def fingerprint_request(
    arch: Module | dict[str, Any],
    dfg: DFG,
    contexts: int,
    config: dict[str, Any] | None = None,
) -> str:
    """Content hash of one mapping request.

    Args:
        arch: top module of the target architecture, or its
            :func:`canonical_module` document when the caller already
            holds it (the service reuses one for its MRRG memo key); both
            give the same hash.
        dfg: the application graph.
        contexts: MRRG context count (the initiation interval).
        config: JSON-able mapper/portfolio configuration description
            (see :meth:`repro.service.portfolio.PortfolioConfig.describe`).

    The analyzer rule-set version participates in the hash: a cached
    verdict can be *produced* by the pre-solve audit (a structural
    INFEASIBLE), so a rule change must invalidate previously cached
    answers rather than keep serving verdicts from retired rules.
    """
    return fingerprint_document(
        {
            "version": 2,
            "analyze_ruleset": RULESET_VERSION,
            "arch": canonical_module(arch) if isinstance(arch, Module) else arch,
            "dfg": canonical_dfg(dfg),
            "contexts": contexts,
            "config": config or {},
        }
    )
