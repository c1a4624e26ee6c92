"""Model auditor: structural findings, capacity screen, IIS-lite."""

import hashlib

import pytest

from repro.analyze import (
    audit_form,
    first_witness,
    iis_lite_form,
    screen_instance,
)
from repro.arch.testsuite import paper_architecture
from repro.dfg import DFGBuilder
from repro.ilp.expr import Sense
from repro.ilp.model import Model
from repro.ilp.standard_form import compile_model
from repro.kernels.registry import kernel
from repro.mapper.base import MapStatus
from repro.mapper.ilp_mapper import ILPMapper, ILPMapperOptions, build_formulation
from repro.mrrg import MRRGFactory, build_mrrg_from_module, prune


# ----------------------------------------------------------------------
# audit_form on hand-built models
# ----------------------------------------------------------------------
def test_duplicate_row_and_dead_variable_flagged():
    model = Model("handmade")
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_binary("z")  # never used anywhere: dead
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.LE, 1.0, name="first")
    model.add_terms([(y, 1.0), (x, 1.0)], Sense.LE, 1.0, name="second")
    model.minimize(0.0)

    report = audit_form(compile_model(model))
    assert "M001" in report.rules()
    assert "M004" in report.rules()
    dead = report.by_rule("M001")
    assert [f.subject for f in dead] == ["z"]
    dup = report.by_rule("M004")
    assert len(dup) == 1 and "first" in dup[0].message
    assert report.fatal is None  # suspicious, not infeasible


def test_clean_model_has_no_findings():
    model = Model("clean")
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.LE, 1.0, name="cap")
    model.minimize(x + y)
    report = audit_form(compile_model(model))
    assert report.findings == []
    assert report.ok


def test_integer_hole_bounds_are_fatal():
    model = Model("hole")
    v = model.add_integer("v", lb=0.4, ub=0.6)  # no integer point inside
    model.add_terms([(v, 1.0)], Sense.LE, 5.0, name="row")
    report = audit_form(compile_model(model))
    fatal = report.fatal
    assert fatal is not None and fatal.rule == "M005"


def test_activity_range_detects_unsatisfiable_row():
    model = Model("excluded")
    x = model.add_binary("x")
    y = model.add_binary("y")
    # max(x + y) = 2 < 3: the row can never be satisfied.
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.GE, 3.0, name="impossible")
    report = audit_form(compile_model(model))
    fatal = report.fatal
    assert fatal is not None and fatal.rule == "M006"


def test_tautological_row_is_flagged_not_fatal():
    model = Model("taut")
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.LE, 5.0, name="slack")
    model.add_terms([(x, 1.0)], Sense.GE, 0.5, name="binding")
    report = audit_form(compile_model(model))
    assert [f.rule for f in report.by_rule("M003")] == ["M003"]
    assert report.fatal is None


def test_conditioning_warning():
    model = Model("conditioned")
    x = model.add_continuous("x", lb=0.0, ub=1.0)
    y = model.add_continuous("y", lb=0.0, ub=1.0)
    model.add_terms([(x, 1e-6), (y, 1e6)], Sense.LE, 1.0, name="spread")
    report = audit_form(compile_model(model), conditioning_threshold=1e8)
    assert "M007" in report.rules()
    assert report.coefficients is not None
    assert report.coefficients.ratio == pytest.approx(1e12)


# ----------------------------------------------------------------------
# capacity screen / structural witnesses
# ----------------------------------------------------------------------
def test_oversized_kernel_yields_witness():
    dfg = kernel("accum")  # 18 ops; 2x2 homogeneous at II=1 has 14 slots
    mrrg = prune(build_mrrg_from_module(
        paper_architecture("homogeneous", "orthogonal", rows=2, cols=2), 1
    ))
    findings = screen_instance(dfg, mrrg)
    assert findings and findings[0].rule == "S001"
    assert all(f.fatal for f in findings)
    witness = first_witness(dfg, mrrg)
    assert witness is not None and witness.rule == "S001"


def test_screen_is_silent_on_feasible_instance(tiny_dfg, mrrg_2x2_ii1):
    assert screen_instance(tiny_dfg, mrrg_2x2_ii1) == []
    assert first_witness(tiny_dfg, mrrg_2x2_ii1) is None


def test_mapper_returns_witness_without_invoking_solver(monkeypatch):
    """The acceptance path: oversized kernel, solver must not run."""

    def explode(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("HiGHS was invoked despite a structural witness")

    monkeypatch.setattr("repro.mapper.ilp_mapper.solve_form", explode)
    dfg = kernel("accum")
    mrrg = prune(build_mrrg_from_module(
        paper_architecture("homogeneous", "orthogonal", rows=2, cols=2), 1
    ))
    result = ILPMapper(ILPMapperOptions()).map(dfg, mrrg)
    assert result.status is MapStatus.INFEASIBLE
    assert result.proven_optimal
    assert "S001" in result.detail


# ----------------------------------------------------------------------
# IIS-lite
# ----------------------------------------------------------------------
def _conflicting_model() -> Model:
    model = Model("conflict")
    x = model.add_continuous("x", lb=0.0, ub=10.0)
    y = model.add_continuous("y", lb=0.0, ub=10.0)
    z = model.add_continuous("z", lb=0.0, ub=10.0)
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.LE, 1.0, name="cap[a]")
    model.add_terms([(x, 1.0), (y, 1.0)], Sense.GE, 2.0, name="demand[a]")
    # Irrelevant padding the filter should delete.
    model.add_terms([(z, 1.0)], Sense.LE, 9.0, name="pad[z]")
    model.add_terms([(z, 1.0)], Sense.GE, 1.0, name="floor[z]")
    model.minimize(0.0)
    return model


def test_iis_lite_narrows_to_the_conflict():
    result = iis_lite_form(compile_model(_conflicting_model()))
    assert result is not None
    assert set(result.families) == {"cap", "demand"}
    assert len(result.constraints) == 2
    assert result.minimal


def test_iis_lite_returns_none_on_feasible_model():
    model = Model("feasible")
    x = model.add_continuous("x", lb=0.0, ub=1.0)
    model.add_terms([(x, 1.0)], Sense.LE, 1.0, name="row")
    model.minimize(0.0)
    assert iis_lite_form(compile_model(model)) is None


#: (kernel, interconnect, II) on the homogeneous 2x2 fabric -> the
#: IIS-lite core of its feasibility formulation: oracle solves, minimal
#: flag, core size, families and the first 16 hex digits of the SHA-256
#: of the "\n"-joined constraint names.  Each kept or undone deletion is
#: one verdict of the feasibility oracle, so the core pins those verdicts.
IIS_PINS = [
    ("2x2-f", "orthogonal", 1, 8, False, 154,
     ["initial", "placement", "route_excl"], "d5096dfe35e76875"),
    ("2x2-f", "diagonal", 1, 8, False, 178,
     ["initial", "placement", "route_excl"], "5568485d0f02dc0e"),
    ("2x2-p", "orthogonal", 1, 9, False, 400,
     ["initial", "placement", "route_excl", "usage"], "841f7980e76a32d8"),
    ("exp_4", "orthogonal", 2, 9, False, 381,
     ["initial", "placement", "route_excl"], "2db22d0b8ce46643"),
]


@pytest.mark.parametrize(
    "bench,interconnect,ii,solves,minimal,size,families,digest", IIS_PINS
)
def test_iis_lite_core_on_paper_kernels(
    bench, interconnect, ii, solves, minimal, size, families, digest
):
    arch = paper_architecture("homogeneous", interconnect, rows=2, cols=2)
    formulation = build_formulation(
        kernel(bench), MRRGFactory(arch).mrrg(ii), ILPMapperOptions(mip_rel_gap=1.0)
    )
    iis = iis_lite_form(compile_model(formulation.model))
    assert iis is not None
    names = "\n".join(iis.constraints).encode()
    assert (iis.solves, iis.minimal, len(iis.constraints), iis.families) == (
        solves, minimal, size, families
    )
    assert hashlib.sha256(names).hexdigest()[:16] == digest


# ----------------------------------------------------------------------
# DFG-level sanity: the screen never rejects a mappable instance
# ----------------------------------------------------------------------
def test_screen_accepts_single_op_chain(mrrg_2x2_ii1):
    b = DFGBuilder("chain")
    b.output(b.add(b.input("a"), b.input("b"), name="s"), name="o")
    assert first_witness(b.build(), mrrg_2x2_ii1) is None
