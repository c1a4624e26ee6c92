"""Kernel text interchange and source-normalized fingerprinting."""

import json
from pathlib import Path

import pytest

from repro.dfg.parse import parse, serialize
from repro.frontend import LoopKernel, compile_path, compile_source

LOOPS = Path(__file__).parents[2] / "examples" / "loops"
EXAMPLES = sorted(p.name for p in LOOPS.glob("*.py"))


@pytest.mark.parametrize("filename", EXAMPLES)
def test_to_text_round_trip_is_byte_identical(filename):
    kernel = compile_path(LOOPS / filename)
    text = kernel.to_text()
    reloaded = LoopKernel.from_text(text)
    assert reloaded.to_text() == text
    assert serialize(reloaded.dfg) == serialize(kernel.dfg)
    assert reloaded.loads == kernel.loads
    assert reloaded.stores == kernel.stores
    assert reloaded.trip == kernel.trip


@pytest.mark.parametrize("filename", EXAMPLES)
def test_kernel_file_is_also_a_plain_dfg(filename):
    """The ``#!`` pragma must stay invisible to ``dfg.parse``."""
    kernel = compile_path(LOOPS / filename)
    dfg = parse(kernel.to_text())
    assert serialize(dfg) == serialize(kernel.dfg)


def test_from_text_rejects_plain_dfg():
    kernel = compile_path(LOOPS / "dot.py")
    with pytest.raises(ValueError, match="pragma"):
        LoopKernel.from_text(serialize(kernel.dfg))


def _with_pragma(text: str, meta) -> str:
    """``text`` with its ``#!`` pragma replaced by ``meta``."""
    body = [line for line in text.splitlines() if not line.startswith("#!")]
    return "\n".join([f"#! {json.dumps(meta)}", *body]) + "\n"


#: Pragma edits from_text must reject, and the table the error names.
MALFORMED = {
    "not-an-object": (lambda m: [m], "not a JSON object"),
    "missing-table": (lambda m: {k: v for k, v in m.items() if k != "inputs"}, "'inputs'"),
    "store-of-missing-op": (
        lambda m: dict(m, stores=dict(m["stores"], st99=["out", 1, 0, False])),
        "'stores'.*st99",
    ),
    "two-field-trip": (lambda m: dict(m, trip=m["trip"][:2]), "'trip'"),
    "two-field-load": (
        lambda m: dict(m, loads={op: a[:2] for op, a in m["loads"].items()}),
        "'loads'",
    ),
    "list-bound": (lambda m: dict(m, bound_params={"n": [8]}), "'bound_params'"),
    "load-of-unknown-array": (
        lambda m: dict(m, loads=dict(m["loads"], load1=["zz", 1, 0])),
        "'loads'.*zz",
    ),
    "input-of-unknown-scalar": (
        lambda m: dict(m, inputs={"input0": "zz"}),
        "'inputs'.*zz",
    ),
    "three-field-store": (
        lambda m: dict(m, stores={op: s[:3] for op, s in m["stores"].items()}),
        "'stores'",
    ),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_from_text_rejects_malformed_pragma(shape):
    text = compile_path(LOOPS / "saxpy.py").to_text()
    meta = json.loads(text.splitlines()[0][2:])
    edit, message = MALFORMED[shape]
    with pytest.raises(ValueError, match=message):
        LoopKernel.from_text(_with_pragma(text, edit(meta)))


def test_fingerprint_is_alpha_invariant():
    original = compile_path(LOOPS / "dot.py")
    renamed = compile_source(
        "def f(p, q, r, m=8):\n"
        "    # a comment, different names, same loop\n"
        "    total = 0\n"
        "    for k in range(m):\n"
        "        total = total + p[k] * q[k]\n"
        "    r[0] = total\n"
    )
    assert renamed.fingerprint() == original.fingerprint()
    assert renamed.coalesced_dfg().name == original.coalesced_dfg().name
    assert original.coalesced_dfg().name.startswith("loop_")


def test_fingerprint_separates_different_kernels():
    prints = {
        compile_path(LOOPS / name).fingerprint() for name in EXAMPLES
    }
    assert len(prints) == len(EXAMPLES)


def test_reloaded_kernel_still_verifies():
    from repro.frontend import verify_lowering

    kernel = LoopKernel.from_text(
        compile_path(LOOPS / "conv1d.py").to_text()
    )
    verify_lowering(kernel)
