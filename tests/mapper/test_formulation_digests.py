"""Golden digests of the compiled section-4 formulation.

``build_formulation`` has one emitter.  Each cell below builds one
instance, compiles it and compares :func:`form_digest` of the
``StandardForm`` (A, row and variable bounds, c, c0, integrality, row
labels and variable names) with the recorded value, so no row, order,
bound or label can drift unnoticed: row order is part of the model's
identity and steers the solver's search path.

The blockwise emitter was first pinned against the per-row ``LinExpr``
emitter it replaced, which produced the same forms on every cell.  The
digests were re-recorded once, when the digest stopped hashing row-block
spans (a row's family is the prefix of its label).  Changing a digest
is a deliberate edit of this table, and CHANGES.md says why.
"""

import functools

import pytest

from repro.analyze.model_audit import constraint_family
from repro.arch import GridSpec, build_grid
from repro.arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from repro.dfg import DFGBuilder
from repro.explore import build_arch_mrrg
from repro.ilp import compile_model
from repro.kernels.registry import BENCHMARK_NAMES, kernel
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg import build_mrrg_from_module, prune

from .helpers import form_digest


#: Variant name -> ILPMapperOptions overrides.
VARIANTS = {
    "defaults": {},
    "mip_rel_gap=1.0": {"mip_rel_gap": 1.0},
    "split_sub_values=False": {"split_sub_values": False},
    "mux_exclusivity=False": {"mux_exclusivity": False},
    "require_registered_feedback=True": {"require_registered_feedback": True},
}


def _fan():
    """A value with two sinks whose consumers share operands: every
    option variant reaches its own emission branch on it."""
    b = DFGBuilder("fan")
    x, y = b.input("x"), b.input("y")
    s = b.add(x, y, name="s")
    b.output(b.add(s, x, name="t"), name="o")
    b.output(b.add(s, y, name="u"), name="p")
    return b.build()


_PAPER = {arch.key: arch for arch in PAPER_ARCHITECTURES}


@functools.cache
def _mrrg(fabric: str):
    if fabric in _PAPER:
        return build_arch_mrrg(_PAPER[fabric])
    if fabric == "grid_2x2_ii2":
        return prune(build_mrrg_from_module(build_grid(GridSpec(rows=2, cols=2)), 2))
    if fabric == "homoge_diag_3x3_ii1":
        arch = paper_architecture("homogeneous", "diagonal", rows=3, cols=3)
        return prune(build_mrrg_from_module(arch, 1))
    raise KeyError(fabric)


def _compile(kernel_name: str, fabric: str, variant: str):
    dfg = _fan() if kernel_name == "fan" else kernel(kernel_name)
    options = ILPMapperOptions(**VARIANTS[variant])
    formulation = build_formulation(dfg, _mrrg(fabric), options)
    assert formulation.infeasible_reason is None, formulation.infeasible_reason
    return compile_model(formulation.model)


#: (kernel, fabric, variant) -> form_digest of the compiled formulation.
#: cos_4 and cosh_4 share their digests: the two DFGs differ only in
#: opcodes, and every unit of the homogeneous fabric hosts both.
DIGESTS = {
    ("accum", "homoge_orth_ii1", "defaults"):
        "0a06b376c410eca798b3cbbdfd3b8d4326bbf589dad52010bc11c39952677242",
    ("accum", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "b40d6bd198cd62e416e076d70ed0cdb5db75f33d2a56a87c605252c8a619e5ef",
    ("mac", "homoge_orth_ii1", "defaults"):
        "21d17427fa773327818e4d86cba341259f704b4217ea03dbb338b75e9952db5b",
    ("mac", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "720713065b9be6e0f77bfbd2902bcd5368a6acc5bc69bc2317447d1dfc380897",
    ("add_10", "homoge_orth_ii1", "defaults"):
        "3825c4a7304569ef7cd21a75ffb217532488698960484578232f033648f2236c",
    ("add_10", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "08e4b1dd83f1484dafc2113a55c25c9faf85a9dd89e2ed27e1e5498ae16d0a21",
    ("add_14", "homoge_orth_ii1", "defaults"):
        "0c3767fd0973a104e30bcdb9a11bf515a557fa63906dc6bb5e64ec38baba7db8",
    ("add_14", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "f284e266121ef6e80fdac9ec88532484b98871bbcc6098a6a66052d974390a53",
    ("add_16", "homoge_orth_ii1", "defaults"):
        "59cfe47e6ac835b4beae35e3773c247f781b1f51f26aff9ff234cc8551360d66",
    ("add_16", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "693e51f59069a01214b79e6b26801261940218574493d08c20cbd43c6eb80955",
    ("mult_10", "homoge_orth_ii1", "defaults"):
        "ae3bf02f001b71756712d2b9b3db029d20fb3fc66fb7e93f0aad72c276abded6",
    ("mult_10", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "5095d967199f12a03d881acef591487d06ead3cbc5b4b0e40ebb6f069b1f7bf6",
    ("mult_14", "homoge_orth_ii1", "defaults"):
        "f541c2756974c92184f00a5640375de11cd3cc2b3f3435c1f6bc9c59fda081f6",
    ("mult_14", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "d0f61eb2a40fc3fa7dd3a0d79815544758395f59c50651a77d35f9bd89e3115e",
    ("mult_16", "homoge_orth_ii1", "defaults"):
        "00448db5b5a3440722c7b2eeacb67f0ede5839963ae97e99a8e7f23e561e8937",
    ("mult_16", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "0f4d784362e056bdf9d4dd746b4dbf3bb03c88a366dfab7e28b578627366f25e",
    ("2x2-f", "homoge_orth_ii1", "defaults"):
        "b364ace68aadbd3b3985de4759d080956ab7bace3b8db3c1ff1e4b1b11097b4d",
    ("2x2-f", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "ac3bdd492c4056dd551eb10f5e41d324fab877ba794d8c76b4459a964ff39e48",
    ("2x2-p", "homoge_orth_ii1", "defaults"):
        "66a9125776662e07e5009191d76d56ee1a15f4d2468f7341ee8bc6488a281bfb",
    ("2x2-p", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "83b6a7ec00f5b09647f5f9a2af8be5294cb61c5e08a221b7e7e147d58f2eed94",
    ("cos_4", "homoge_orth_ii1", "defaults"):
        "925e5846b5b7159a30ab4369ad64c27c42f9daea96a7652a7117fc47a79ccd59",
    ("cos_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1a7d99e2d3f3667d164a1048707f13a156f888b331ec118a9ece9b7d5070e63a",
    ("cosh_4", "homoge_orth_ii1", "defaults"):
        "925e5846b5b7159a30ab4369ad64c27c42f9daea96a7652a7117fc47a79ccd59",
    ("cosh_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1a7d99e2d3f3667d164a1048707f13a156f888b331ec118a9ece9b7d5070e63a",
    ("exp_4", "homoge_orth_ii1", "defaults"):
        "32063d580c44ab33c7e628c9af8a219dcae60483ff390f97c76f84e48ba32f23",
    ("exp_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "5cb68ef2cffc76e273bfa72e4ffbc79ea8f742d2849f398e9da672c23e3e2453",
    ("exp_5", "homoge_orth_ii1", "defaults"):
        "37133451d978aaa9ed71fefa0e28a35cc1058287027854d3a4661fb6ae42683b",
    ("exp_5", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "cda90da828d058dcc2adc1ecc5dded6cead6abc034672ad556830a1361c9a9ed",
    ("exp_6", "homoge_orth_ii1", "defaults"):
        "0cd0fd898a8671aa4473101f00148e9fc4390fb437c3d7d0fe150620e792f9e4",
    ("exp_6", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "97f63d83b523666456198dec36b34332641101dc28e6108e5ab8e9f77d2c70e3",
    ("sinh_4", "homoge_orth_ii1", "defaults"):
        "302295c1ac597af78e2e119609b6d1b5ef49b39d270f283b8334ec13aa8fa39d",
    ("sinh_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "bd989ae85bb7ecd1de340c1cf826b35eff69fde0b644c3c4278ca27767dfaee2",
    ("tay_4", "homoge_orth_ii1", "defaults"):
        "e507e8ad74e17d2488a142e7e73daf5c31026cde80d9e9d8da84023a3216996d",
    ("tay_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "7a311fb76c0de26c19cba81b30d09db4fef733b80ba4418a4dc458fadf26b214",
    ("extreme", "homoge_orth_ii1", "defaults"):
        "7e7d3f449dd9d1d22b7c1b01a3b142acd8778d2e8c4456b3586f6d8d70124fb1",
    ("extreme", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1720d5f0f0481759f2fbc8fd0d8adca9bb4b61d4b35ba0fced255abe326ccca4",
    ("weighted_sum", "homoge_orth_ii1", "defaults"):
        "a409f1ee350ce42f29f3f33355d90f0aacf8b27655dac8f0a8ca76bcf1455870",
    ("weighted_sum", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "5a5adbf28138f070052838eb10d2fbaf5d748ccb9231c316aab328911c52a299",
    ("extreme", "homoge_orth_ii2", "mip_rel_gap=1.0"):
        "c4bb7605cc03cac89da6f3dfbccd38ef4c35df8edc5439a3bcdc95d054ff0986",
    ("fan", "grid_2x2_ii2", "defaults"):
        "68df693332fecce1776c122b24d3919ad79b26df0d72345e0d908fa54068a97a",
    ("fan", "grid_2x2_ii2", "mip_rel_gap=1.0"):
        "9cca55732c4e1277f92f9912671543aa8c9776575ea75bd7afd48fd1c9ea7c15",
    ("fan", "grid_2x2_ii2", "split_sub_values=False"):
        "861175f56c880dc0c1819261f281ae26f8e39a6310d1e6e8119f070991fe3cd0",
    ("fan", "grid_2x2_ii2", "mux_exclusivity=False"):
        "073f54f8176b16aea2782fe0eaf90ecb0fb607f3a498c0533c2fb5573d9d4dba",
    ("accum", "homoge_diag_3x3_ii1", "require_registered_feedback=True"):
        "9548649b992e6630daeaaaa4986dc09b493d6b0a3a91ea93fb7910dd110fd2c2",
    ("mac", "homoge_diag_3x3_ii1", "require_registered_feedback=True"):
        "3a57829dc1b7fb1774eeda052fc0537fcae77f93c826f4b1324c7cbc6ba84bef",
}

#: Rows and nonzeros of the paper's formulation of ``extreme``, the
#: largest Table-1 kernel, on the 4x4 homogeneous orthogonal fabric.
SIZES = {
    ("extreme", "homoge_orth_ii1", "mip_rel_gap=1.0"): (13_907, 41_856),
    ("extreme", "homoge_orth_ii2", "mip_rel_gap=1.0"): (27_779, 83_712),
}


@pytest.mark.parametrize("cell", sorted(DIGESTS), ids="/".join)
def test_formulation_digest(cell):
    form = _compile(*cell)
    digest = form_digest(form)
    rows, nnz = form.num_rows, form.A.nnz
    assert digest == DIGESTS[cell], (
        f"{'/'.join(cell)}: digest {digest}, rows {rows}, nnz {nnz}"
    )
    if cell in SIZES:
        assert (rows, nnz) == SIZES[cell]


def test_table_pins_every_cell():
    single = [
        (name, "homoge_orth_ii1", variant)
        for name in BENCHMARK_NAMES
        for variant in ("defaults", "mip_rel_gap=1.0")
    ]
    fan = [
        ("fan", "grid_2x2_ii2", variant)
        for variant in VARIANTS
        if variant != "require_registered_feedback=True"
    ]
    feedback = [
        (name, "homoge_diag_3x3_ii1", "require_registered_feedback=True")
        for name in ("accum", "mac")
    ]
    required = set(single + fan + feedback) | set(SIZES)
    assert len(BENCHMARK_NAMES) == 19
    assert required <= set(DIGESTS)


def test_formulation_records_family_blocks():
    """Every row's label starts with a known constraint family (section 4
    or 5.7), and the optimality form has the bound-row families."""
    arch = paper_architecture("homogeneous", "orthogonal", rows=3, cols=3)
    mrrg = prune(build_mrrg_from_module(arch, 1))
    form = compile_model(build_formulation(kernel("mac"), mrrg).model)
    families = {
        constraint_family(label, row) for row, label in enumerate(form.row_labels)
    }
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
