"""Screen soundness: S001-S003 and B001-B005 never wrongly refute.

The property: a screen may answer UNKNOWN (None) on a mappable
instance, but whenever it claims INFEASIBLE the exact solver — run with
every screen disabled — must never find a mapping, and the B-rule
certificate must re-verify under the independent checker.  The exact
reference is :func:`tests.mapper.helpers.exact_verdict`: the formulation
built, compiled and solved directly.

The instance matrix deliberately mixes refuted and mappable cases over
Table-1 kernels and frontend-compiled loop kernels on small fabrics, so
both halves of the property (no false INFEASIBLE, screens silent on
mappable instances) are exercised.
"""

from pathlib import Path

import pytest

from repro.analyze.bounds import first_bound_witness, prove_bounds
from repro.analyze.certify import check_finding
from repro.analyze.model_audit import first_witness
from repro.arch.testsuite import paper_architecture
from repro.kernels.registry import kernel
from repro.mrrg import build_mrrg_from_module, prune
from tests.mapper.helpers import exact_verdict

LOOPS_DIR = Path(__file__).resolve().parents[2] / "examples" / "loops"

#: (kernel, style, rows, cols, ii) — small instances only, so the
#: unscreened solver check stays affordable.
INSTANCES = [
    ("accum", "homogeneous", 2, 2, 1),    # S001 fires (18 ops, 14 slots)
    ("accum", "homogeneous", 2, 2, 2),
    ("accum", "homogeneous", 4, 4, 1),    # mappable: screens stay silent
    ("mac", "homogeneous", 2, 2, 1),
    ("2x2-f", "homogeneous", 2, 2, 1),    # B001 beats the counting screen
    ("2x2-p", "homogeneous", 2, 2, 1),
    ("add_10", "homogeneous", 2, 2, 1),
    ("add_10", "homogeneous", 2, 2, 2),
    ("mult_10", "heterogeneous", 2, 2, 1),
    ("loops/dot.py", "homogeneous", 2, 2, 1),
    ("loops/saxpy.py", "homogeneous", 2, 2, 1),
]


def _resolve(name):
    if name.startswith("loops/"):
        from repro.frontend import compile_path

        return compile_path(str(LOOPS_DIR / name.split("/", 1)[1])).dfg
    return kernel(name)


@pytest.mark.parametrize(
    "name,style,rows,cols,ii",
    INSTANCES,
    ids=[f"{n}-{s[:4]}{r}x{c}-ii{i}" for n, s, r, c, i in INSTANCES],
)
def test_screens_are_sound(name, style, rows, cols, ii):
    dfg = _resolve(name)
    top = paper_architecture(style, "orthogonal", rows=rows, cols=cols)
    mrrg = prune(build_mrrg_from_module(top, ii))

    s_witness = first_witness(dfg, mrrg)
    b_witness = first_bound_witness(dfg, mrrg)

    # Every fatal B-rule certificate must re-verify from scratch.
    for finding in prove_bounds(dfg, mrrg):
        if finding.fatal:
            check_finding(finding, dfg, mrrg=mrrg, architecture=top)

    if s_witness is None and b_witness is None:
        return  # UNKNOWN is always sound

    # A screen claimed INFEASIBLE: the unscreened exact solver must
    # never contradict it with a mapping (timeout is inconclusive but
    # not a contradiction).
    verdict = exact_verdict(dfg, mrrg)
    claims = [w.rule for w in (s_witness, b_witness) if w is not None]
    assert not verdict.has_solution, (
        f"screen(s) {claims} wrongly refuted {name} on "
        f"{style} {rows}x{cols} II={ii}: solver found a mapping"
    )


def test_mappable_instance_passes_every_screen():
    """Positive control: a known-MAPPED instance where all screens must
    stay silent and the solver confirms feasibility."""
    dfg = _resolve("accum")
    top = paper_architecture("homogeneous", "orthogonal")
    mrrg = prune(build_mrrg_from_module(top, 1))
    assert first_witness(dfg, mrrg) is None
    assert first_bound_witness(dfg, mrrg) is None
    assert exact_verdict(dfg, mrrg).has_solution
