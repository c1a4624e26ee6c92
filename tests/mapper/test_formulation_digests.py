"""Golden digests of the compiled section-4 formulation.

``build_formulation`` has one emitter.  Each cell below builds one
instance, compiles it and compares :func:`form_digest` of the
``StandardForm`` (A, row and variable bounds, c, c0, integrality, row
labels, variable names and family blocks) with the recorded value, so
no row, order, bound, label or block can drift unnoticed: row order is
part of the model's identity and steers the solver's search path.

The table was recorded from the blockwise emitter while the per-row
``LinExpr`` emitter it replaced still existed, and that emitter produced
the same forms on every cell.  Changing a digest is a deliberate edit of
this table, and CHANGES.md says why.
"""

import functools

import pytest

from repro.arch import GridSpec, build_grid
from repro.arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from repro.dfg import DFGBuilder
from repro.explore import build_arch_mrrg
from repro.ilp import compile_model
from repro.kernels.registry import BENCHMARK_NAMES, kernel
from repro.mapper.ilp_mapper import ILPMapperOptions, build_formulation
from repro.mrrg import build_mrrg_from_module, prune

from .helpers import form_digest


def node_weight(node) -> float:
    """The weighted objective's cost: later contexts and operand ports
    cost more."""
    return 1.0 + node.context + (0.5 if node.operand is not None else 0.0)


#: Variant name -> ILPMapperOptions overrides.
VARIANTS = {
    "defaults": {},
    "mip_rel_gap=1.0": {"mip_rel_gap": 1.0},
    "operand_mode=commutative": {"operand_mode": "commutative"},
    "split_sub_values=False": {"split_sub_values": False},
    "collapse_single_sink=False": {"collapse_single_sink": False},
    "mux_exclusivity=False": {"mux_exclusivity": False},
    "objective=none": {"objective": "none"},
    "objective=weighted": {"objective": "weighted", "node_weights": node_weight},
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
        "4ae2587808a0cfd6ec817adf2dbe65ec981c2870604278c053197bc56414db04",
    ("accum", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1ebc5ac9034684afa0d2cbcb908af2ba5f3bd7ca46714816a22fb5406cd4695b",
    ("mac", "homoge_orth_ii1", "defaults"):
        "df8f7db68bbc9b65e4ea93f51913bf3ca0a2723926d98361db41a6b0317fc963",
    ("mac", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "b57e45f65559c31d8a0d902aca6fbfe2f44285fa6882cc991952934107ab6d07",
    ("add_10", "homoge_orth_ii1", "defaults"):
        "a16ae3398145d966e3b3be2abf30e9b2724ee8fd1a037fc94b82fed4fd6712c6",
    ("add_10", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "bcc4d125ac70f16f37c7e5857c55e22c663774bb3c27b8a8079976ddf32d864f",
    ("add_14", "homoge_orth_ii1", "defaults"):
        "8e143d5285eb61de04d55da768cbc2ffe762705cd088183eca4c7387f66a5698",
    ("add_14", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "58f92e6e3b2856ae38dbe5b5ae5fd5e7ad369a81221690ac8bca9c1a48f9d470",
    ("add_16", "homoge_orth_ii1", "defaults"):
        "b7320fdfdee28d6d6932ab717e5eb3be5b42a2bc475d7085af30ad53825a2262",
    ("add_16", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "c5d991b066616d247fda35aabdce0f7dea5422035d7cbd176201fc8ea210fba8",
    ("mult_10", "homoge_orth_ii1", "defaults"):
        "99e07a238c4c0fb6fb34e4cb31ee3747fef5a85d69c82f70ff0e9dc42515a079",
    ("mult_10", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "13bfc09639a5b4cab523a2bb19e53fd495c56d065c1873f21b36b217e97d05d7",
    ("mult_14", "homoge_orth_ii1", "defaults"):
        "cf29d37c4895f9c196dbc0d3d9b2479632a5d1c59d952b196a58dccbe85f3f1e",
    ("mult_14", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "914af42ad6ba9c810d93f4423e8d19b9f9674b79acd77518306bf808fb8211f8",
    ("mult_16", "homoge_orth_ii1", "defaults"):
        "15e9600a67d30246ab1e13899d1672ff66acbd77e7b941da7fed659254427efc",
    ("mult_16", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "d8014b4cc57cf18e2c44a3320ba10899d869ff8e171a330a100473dcd5f552ed",
    ("2x2-f", "homoge_orth_ii1", "defaults"):
        "6dbafe087d3f787ffde128598c04648614e61585864bc4c40845096fb77b592e",
    ("2x2-f", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "76c9391c1639f314ea9d64952658fa1ad348052e329155688136ca3c75c812f7",
    ("2x2-p", "homoge_orth_ii1", "defaults"):
        "7c03a4ce07c902cdad95a7fa4d150c323057b11052317041342f06cc85f84da2",
    ("2x2-p", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1e22a68b4a5013b9c729e74ddf576ed4f6e120f909b752c7fc113dda94941963",
    ("cos_4", "homoge_orth_ii1", "defaults"):
        "caf1ee7d3ae9b17ab92da1f1c4c673710315520a707fe50deef3abf33a94d4c8",
    ("cos_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "619fe57144d28bd130f68a73eaf49fd6aa13401c31b0b2f3a6f882c23b679f3a",
    ("cosh_4", "homoge_orth_ii1", "defaults"):
        "caf1ee7d3ae9b17ab92da1f1c4c673710315520a707fe50deef3abf33a94d4c8",
    ("cosh_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "619fe57144d28bd130f68a73eaf49fd6aa13401c31b0b2f3a6f882c23b679f3a",
    ("exp_4", "homoge_orth_ii1", "defaults"):
        "5d4826dfd0f3e93587e498e8b8207c647012b8343af614c2055f5d1372d4b6bf",
    ("exp_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "082646f43299b162d09924849858b366a57fc9e789f02f3323634e6a26c4a1e4",
    ("exp_5", "homoge_orth_ii1", "defaults"):
        "ead95a76abb4487a5186027768da871fc9064b4c452384ba36d62a4cfc8fc680",
    ("exp_5", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "bb11219ee2ed743108767bf5cc70658305e0f90c227a7a968ecdb8e23c5c329e",
    ("exp_6", "homoge_orth_ii1", "defaults"):
        "d3dbc7488de01714776401fa7998ab8f19fdbbcd61212e9d9beb7451ee2ef000",
    ("exp_6", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "4658f5876f93d8489a42fe0f56a67c31e7dd93f0ca0ff637777657d642f31cfc",
    ("sinh_4", "homoge_orth_ii1", "defaults"):
        "cc7cef648dbbf70ec65e9c56fe5f2fe95b905ebd227c6d4589b816db571a09f1",
    ("sinh_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "68481092cb25430ba37f4afc10184ab652df4b90f291c2223b0dc3efe737cc91",
    ("tay_4", "homoge_orth_ii1", "defaults"):
        "9df4a1be4f450137806dcdd8efdd13b2de9e39c4376b993a5ec0d6cb2e29edee",
    ("tay_4", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "47d437940581434ef4bc8da2da7983e565c2961a35bfe2e0d3337d568e22d32b",
    ("extreme", "homoge_orth_ii1", "defaults"):
        "66a5e7fccd58bcc0bab8b5215fc5ba2acfcab7e9dcfa4b2eb422cf2d2f3014f9",
    ("extreme", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "1864df54c7c0e980e90148589c65fa048d660c6738be90c70e614093592e28ce",
    ("weighted_sum", "homoge_orth_ii1", "defaults"):
        "03ef7d942f480420e26ced5e4ca650504c224219947c27b9e7663728c0c5f493",
    ("weighted_sum", "homoge_orth_ii1", "mip_rel_gap=1.0"):
        "bf462996307cc46c306cd0d57c1b3469c4072d0547720a3c12cd5bd8663db434",
    ("extreme", "homoge_orth_ii2", "mip_rel_gap=1.0"):
        "b686fe720c99075173cc44436040c50328f25f49a1c2d4a1289605f61e173420",
    ("fan", "grid_2x2_ii2", "defaults"):
        "d3febb2ed2f190b4fa9ac096b846a9af8c8451b34dd0c0240e1d4143a8683802",
    ("fan", "grid_2x2_ii2", "mip_rel_gap=1.0"):
        "06b8d6244c3f1a3deb92031e136ffd2c2af0b781c115140c0a4b2b5d85175877",
    ("fan", "grid_2x2_ii2", "operand_mode=commutative"):
        "f541c720ebffc16c3fbcc4e5b9ad945d97d80d0a2be71be297cd5f292bdd1b15",
    ("fan", "grid_2x2_ii2", "split_sub_values=False"):
        "3ea86b320bb6acd862dcfe9b6db9fdd239c7d664f6e7ae32b40057fe3d529572",
    ("fan", "grid_2x2_ii2", "collapse_single_sink=False"):
        "c190590a19bb5652690aa352f9f94882dd9b0dffd4a57143439a0306390aa291",
    ("fan", "grid_2x2_ii2", "mux_exclusivity=False"):
        "46ce6b070943643771ade85fcc2b8b8d5b7305dd0c90b0b08fddffbacbeb299c",
    ("fan", "grid_2x2_ii2", "objective=none"):
        "77dfc48b2485bb49ef6592643d5a879e63b0e6654d31762a3ae5b45e04ed8afd",
    ("fan", "grid_2x2_ii2", "objective=weighted"):
        "7444853e5bc84584574c59f2ed535d7d482696e411dfef4cc119adbff25d99f1",
    ("accum", "homoge_diag_3x3_ii1", "require_registered_feedback=True"):
        "5b3626734dd69acae78e011d85f0d8f4546f0d69d22625743e39d37b3de14b51",
    ("mac", "homoge_diag_3x3_ii1", "require_registered_feedback=True"):
        "a2f2b4edd9063924885a7df8e6b014da1ab3761dcd2c2e1b290450d22879a3a2",
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
    """Every row belongs to one family block, and a family with no rows
    opens none."""
    arch = paper_architecture("homogeneous", "orthogonal", rows=3, cols=3)
    mrrg = prune(build_mrrg_from_module(arch, 1))
    form = compile_model(build_formulation(kernel("mac"), mrrg).model)
    assert form.blocks, "the compiled form should carry BlockInfo metadata"
    assert all(b.size > 0 for b in form.blocks)
    covered = sum(b.size for b in form.blocks)
    assert covered == form.num_rows
    families = {b.family for b in form.blocks}
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
