"""Unit tests for the blockwise emission API (repro.ilp.blocks)."""

import math

import pytest

from repro.ilp import (
    BlockError,
    Model,
    Sense,
    StandardForm,
    VarType,
    compile_model,
)
from repro.ilp.blocks import BlockEmitter, BlockInfo, RowBlock, VarBlock


class TestVarBlock:
    def test_indices_and_index_of(self):
        block = VarBlock(name="F", start=3, size=4, vtype=VarType.BINARY)
        assert block.stop == 7
        assert list(block.indices) == [3, 4, 5, 6]
        assert block.index_of(0) == 3
        assert block.index_of(3) == 6

    def test_index_of_out_of_range(self):
        block = VarBlock(name="F", start=0, size=2, vtype=VarType.BINARY)
        with pytest.raises(IndexError):
            block.index_of(2)
        with pytest.raises(IndexError):
            block.index_of(-1)

    def test_model_add_var_block_names_and_keys(self):
        model = Model("m")
        block, vars_ = model.add_var_block(
            "F", [("fu0", "add"), ("fu1", "add")]
        )
        assert block.size == 2
        assert block.keys == (("fu0", "add"), ("fu1", "add"))
        assert [v.name for v in vars_] == ["F[fu0][add]", "F[fu1][add]"]
        assert [v.index for v in vars_] == [0, 1]

    def test_model_add_var_block_custom_namer(self):
        model = Model("m")
        _block, vars_ = model.add_var_block(
            "R3",
            [("n", "p", "s")],
            name_fn=lambda _family, key: f"R[{key[0]}][{key[1]}][{key[2]}]",
        )
        assert vars_[0].name == "R[n][p][s]"


class TestBlockEmitter:
    def _emitter(self, num_vars=8):
        block = RowBlock("fam")
        return block, BlockEmitter(block, lambda: num_vars)

    def test_row_sorts_within_row(self):
        block, emitter = self._emitter()
        emitter.row([3, 1, 2], [1.0, 2.0, 3.0], Sense.LE, 5.0)
        assert block.row_terms(0) == [(1, 2.0), (2, 3.0), (3, 1.0)]
        assert block.row_sense_rhs(0) == (Sense.LE, 5.0)

    def test_row_coalesces_duplicates(self):
        block, emitter = self._emitter()
        emitter.row([2, 2, 1], [1.0, 2.5, 1.0], Sense.EQ, 1.0)
        assert block.row_terms(0) == [(1, 1.0), (2, 3.5)]

    def test_row_drops_exact_zeros_and_cancellations(self):
        block, emitter = self._emitter()
        emitter.row([1, 2, 2], [1.0, 1.0, -1.0], Sense.GE, 0.0)
        assert block.row_terms(0) == [(1, 1.0)]
        emitter.row([3, 4], [0.0, 1.0], Sense.GE, 0.0)
        assert block.row_terms(1) == [(4, 1.0)]

    def test_row_length_mismatch(self):
        _block, emitter = self._emitter()
        with pytest.raises(BlockError, match="columns"):
            emitter.row([1, 2], [1.0], Sense.LE, 0.0)

    def test_row_rejects_out_of_range_columns(self):
        _block, emitter = self._emitter(num_vars=2)
        with pytest.raises(BlockError, match="outside the model"):
            emitter.row([5], [1.0], Sense.LE, 0.0)
        with pytest.raises(BlockError, match="outside the model"):
            emitter.row([-1], [1.0], Sense.LE, 0.0)

    def test_sense_to_ranged_bounds(self):
        block, emitter = self._emitter()
        emitter.row([0], [1.0], Sense.LE, 2.0)
        emitter.row([0], [1.0], Sense.GE, 3.0)
        emitter.row([0], [1.0], Sense.EQ, 4.0)
        assert block.lb == [-math.inf, 3.0, 4.0]
        assert block.ub == [2.0, math.inf, 4.0]
        assert block.row_sense_rhs(1) == (Sense.GE, 3.0)
        assert block.row_sense_rhs(2) == (Sense.EQ, 4.0)

    def test_labels_default_to_family(self):
        block, emitter = self._emitter()
        emitter.row([0], [1.0], Sense.LE, 1.0)
        emitter.row([0], [1.0], Sense.LE, 1.0, label="fam[x]")
        assert block.labels == ["fam", "fam[x]"]

    def test_bulk_rows(self):
        block, emitter = self._emitter()
        emitter.rows(
            [
                ([0], [1.0], Sense.LE, 1.0, "a"),
                ([1], [2.0], Sense.GE, 0.0, "b"),
            ]
        )
        assert block.num_rows == 2
        assert block.labels == ["a", "b"]


class TestModelIntegration:
    def test_add_rows_compiles_with_block_metadata(self):
        model = Model("m")
        _block, (x, y) = model.add_var_block("v", ["x", "y"])
        placement = model.add_rows("placement")
        placement.row([x.index, y.index], [1.0, 1.0], Sense.EQ, 1.0, "placement[a]")
        excl = model.add_rows("excl")
        excl.row([x.index], [1.0], Sense.LE, 1.0, "excl[x]")

        form = compile_model(model)
        assert isinstance(form, StandardForm)
        assert form.num_rows == 2
        assert form.row_labels == ("placement[a]", "excl[x]")
        assert form.blocks == (
            BlockInfo(family="placement", start=0, stop=1),
            BlockInfo(family="excl", start=1, stop=2),
        )
        assert form.row_label(0) == "placement[a]"
        assert form.var_name(1) == "v[y]"

    def test_block_rows_match_legacy_rows(self):
        """The same constraint emitted both ways compiles identically."""

        def build(blockwise: bool) -> StandardForm:
            model = Model("m")
            _block, (x, y, z) = model.add_var_block("v", ["x", "y", "z"])
            if blockwise:
                emitter = model.add_rows("fam")
                emitter.row(
                    [z.index, x.index], [2.0, 1.0], Sense.LE, 3.0, "fam[0]"
                )
                emitter.row([y.index], [1.0], Sense.EQ, 1.0, "fam[1]")
            else:
                model.add_terms([(z, 2.0), (x, 1.0)], Sense.LE, 3.0, "fam[0]")
                model.add_terms([(y, 1.0)], Sense.EQ, 1.0, "fam[1]")
            model.minimize(x + y + z)
            return compile_model(model)

        blocked, legacy = build(True), build(False)
        assert blocked.row_labels == legacy.row_labels
        assert blocked.A.indptr.tolist() == legacy.A.indptr.tolist()
        assert blocked.A.indices.tolist() == legacy.A.indices.tolist()
        assert blocked.A.data.tolist() == legacy.A.data.tolist()
        assert blocked.row_lb.tolist() == legacy.row_lb.tolist()
        assert blocked.row_ub.tolist() == legacy.row_ub.tolist()
        assert blocked.c.tolist() == legacy.c.tolist()

    def test_materialized_constraints_view(self):
        model = Model("m")
        _block, (x, y) = model.add_var_block("v", ["x", "y"])
        emitter = model.add_rows("fam")
        emitter.row([y.index, x.index], [1.0, -1.0], Sense.GE, 0.0, "fam[d]")
        (con,) = model.constraints
        assert con.name == "fam[d]"
        assert con.sense is Sense.GE
        assert con.rhs == 0.0
        assert {v.name for v in con.expr.variables()} == {"v[x]", "v[y]"}

    def test_ranged_row_rejected_by_sense_recovery(self):
        block = RowBlock("fam")
        block.indptr.append(0)
        block.lb.append(0.0)
        block.ub.append(1.0)
        block.labels.append("fam")
        with pytest.raises(BlockError, match="ranged"):
            block.row_sense_rhs(0)
