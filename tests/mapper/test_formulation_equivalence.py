"""Blockwise emission must produce the same formulation as the legacy path.

``use_blocks=True`` (compiled O(nnz) lowering) and ``use_blocks=False``
(the pre-refactor per-``LinExpr`` path) are two emitters for one model:
the compiled ``StandardForm``s must agree up to a row permutation —
same variables in the same order, same objective, and the same multiset
of (label, bounds, sparse-row) triples.  Checked on real Table 1 kernels
against the paper architecture, not just toy fixtures.
"""

import pytest

from repro.arch import GridSpec, build_grid
from repro.arch.testsuite import paper_architecture
from repro.dfg import DFGBuilder
from repro.ilp import compile_model
from repro.kernels.registry import kernel
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg import build_mrrg_from_module, prune


def _canonical_rows(form):
    """Row-permutation-invariant canonical form: sorted row records."""
    a = form.A
    rows = []
    for i in range(form.num_rows):
        span = slice(a.indptr[i], a.indptr[i + 1])
        rows.append(
            (
                form.row_label(i),
                float(form.row_lb[i]),
                float(form.row_ub[i]),
                a.indices[span].tobytes(),
                a.data[span].tobytes(),
            )
        )
    return sorted(rows)


def _forms_for(kernel_name: str, rows: int, cols: int, ii: int):
    dfg = kernel(kernel_name)
    arch = paper_architecture("homogeneous", "orthogonal", rows=rows, cols=cols)
    mrrg = prune(build_mrrg_from_module(arch, ii))
    forms = {}
    for use_blocks in (True, False):
        options = ILPMapperOptions(use_blocks=use_blocks)
        formulation = build_formulation(dfg, mrrg, options)
        assert formulation.infeasible_reason is None
        forms[use_blocks] = compile_model(formulation.model)
    return forms


@pytest.mark.parametrize(
    "kernel_name,rows,cols,ii",
    [
        ("mac", 3, 3, 1),
        ("exp_4", 4, 4, 1),
    ],
)
def test_block_and_legacy_paths_agree(kernel_name, rows, cols, ii):
    forms = _forms_for(kernel_name, rows, cols, ii)
    new, old = forms[True], forms[False]

    # Variables are created identically by both paths.
    assert new.num_vars == old.num_vars
    assert new.var_names == old.var_names
    assert new.var_lb.tobytes() == old.var_lb.tobytes()
    assert new.var_ub.tobytes() == old.var_ub.tobytes()

    # Same objective (variable order is shared, so exact array equality).
    assert new.c.tobytes() == old.c.tobytes()
    assert new.c0 == old.c0
    assert new.maximize == old.maximize

    # Same constraint system, invariant to row order.
    assert new.num_rows == old.num_rows
    assert _canonical_rows(new) == _canonical_rows(old)


def test_block_path_preserves_exact_row_order():
    """Stronger than required: the block emitter opens a new block at

    every family switch precisely so the global row order — and hence
    solver behaviour — matches the legacy path byte for byte.
    """
    forms = _forms_for("mac", 3, 3, 1)
    new, old = forms[True], forms[False]
    assert new.row_labels == old.row_labels
    assert new.A.indptr.tobytes() == old.A.indptr.tobytes()
    assert new.A.indices.tobytes() == old.A.indices.tobytes()
    assert new.A.data.tobytes() == old.A.data.tobytes()
    assert new.row_lb.tobytes() == old.row_lb.tobytes()
    assert new.row_ub.tobytes() == old.row_ub.tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        {"operand_mode": "commutative"},
        {"split_sub_values": False},
        {"collapse_single_sink": False},
        {"mux_exclusivity": False},
        {"objective": "none"},
        {"mip_rel_gap": 1.0},
    ],
    ids=lambda o: next(iter(o.items()))[0],
)
def test_paths_agree_across_option_variants(overrides):
    """Every formulation knob hits its own emission branch; all of them

    must stay byte-identical between the blockwise and legacy paths —
    including the grouped (Example 3 strawman) branch the default
    options never touch.
    """
    b = DFGBuilder("fan")
    x, y = b.input("x"), b.input("y")
    s = b.add(x, y, name="s")
    b.output(b.add(s, x, name="t"), name="o")
    b.output(b.add(s, y, name="u"), name="p")
    dfg = b.build()
    mrrg = prune(
        build_mrrg_from_module(build_grid(GridSpec(rows=2, cols=2)), 2)
    )

    forms = {}
    for use_blocks in (True, False):
        options = ILPMapperOptions(use_blocks=use_blocks, **overrides)
        formulation = build_formulation(dfg, mrrg, options)
        assert formulation.infeasible_reason is None
        forms[use_blocks] = compile_model(formulation.model)
    new, old = forms[True], forms[False]
    assert new.var_names == old.var_names
    assert new.row_labels == old.row_labels
    assert new.A.indptr.tobytes() == old.A.indptr.tobytes()
    assert new.A.indices.tobytes() == old.A.indices.tobytes()
    assert new.A.data.tobytes() == old.A.data.tobytes()
    assert new.row_lb.tobytes() == old.row_lb.tobytes()
    assert new.row_ub.tobytes() == old.row_ub.tobytes()
    assert new.c.tobytes() == old.c.tobytes()


def test_block_path_records_family_blocks():
    forms = _forms_for("mac", 3, 3, 1)
    new = forms[True]
    assert new.blocks, "block-emitted form should carry BlockInfo metadata"
    covered = sum(b.size for b in new.blocks)
    assert covered == new.num_rows
    families = {b.family for b in new.blocks}
    assert {"placement", "arrival", "inflow"} <= families
    assert families <= {
        "placement",
        "fu_excl",
        "route_excl",
        "fanout",
        "implied",
        "initial",
        "unroutable",
        "usage",
        "mux_excl",
        "arrival",
        "inflow",
    }
