"""Unit tests for the model's row store and variable blocks.

``Model`` keeps its rows once, as CSR-style triplets in emission order.
Index rows (``sorted_row``/``pairs_row``) and expression rows
(``add``/``add_terms``) append to the same store.
"""

import math

from repro.ilp import Model, Sense, StandardForm, compile_model


def _row_terms(model: Model, row: int) -> list[tuple[int, float]]:
    lo, hi = model.indptr[row], model.indptr[row + 1]
    return list(zip(model.cols[lo:hi], model.data[lo:hi]))


def _model(num_vars: int = 8) -> Model:
    model = Model("m")
    model.add_var_block("v", range(num_vars))
    return model


class TestVarBlock:
    def test_model_add_var_block_names_and_keys(self):
        model = Model("m")
        model.add_binary("before")
        cols, vars_ = model.add_var_block(
            "F", [("fu0", "add"), ("fu1", "add")]
        )
        assert cols == range(1, 3)
        assert [v.name for v in vars_] == ["F[fu0][add]", "F[fu1][add]"]
        assert [v.index for v in vars_] == [1, 2]
        assert all((v.lb, v.ub) == (0.0, 1.0) for v in vars_)

    def test_model_add_var_block_custom_namer(self):
        model = Model("m")
        _cols, vars_ = model.add_var_block(
            "R3",
            [("n", "p", "s")],
            name_fn=lambda _family, key: f"R[{key[0]}][{key[1]}][{key[2]}]",
        )
        assert vars_[0].name == "R[n][p][s]"


class TestBlockEmitter:
    """Index rows: ``pairs_row`` normalizes, ``sorted_row`` trusts."""

    def test_row_sorts_within_row(self):
        model = _model()
        model.pairs_row([(3, 1.0), (1, 2.0), (2, 3.0)], Sense.LE, 5.0, "r")
        assert _row_terms(model, 0) == [(1, 2.0), (2, 3.0), (3, 1.0)]
        assert (model.row_lb, model.row_ub) == ([-math.inf], [5.0])

    def test_row_coalesces_duplicates(self):
        model = _model()
        model.pairs_row([(2, 1.0), (2, 2.5), (1, 1.0)], Sense.EQ, 1.0, "r")
        assert _row_terms(model, 0) == [(1, 1.0), (2, 3.5)]

    def test_row_drops_exact_zeros_and_cancellations(self):
        model = _model()
        model.pairs_row([(1, 1.0), (2, 1.0), (2, -1.0)], Sense.GE, 0.0, "a")
        assert _row_terms(model, 0) == [(1, 1.0)]
        model.pairs_row([(3, 0.0), (4, 1.0)], Sense.GE, 0.0, "b")
        assert _row_terms(model, 1) == [(4, 1.0)]
        assert model.indptr == [0, 1, 2]

    def test_sense_to_ranged_bounds(self):
        model = _model()
        model.sorted_row([0], [1.0], Sense.LE, 2.0, "le")
        model.sorted_row([0], [1.0], Sense.GE, 3.0, "ge")
        model.sorted_row([0], [1.0], Sense.EQ, 4.0, "eq")
        assert model.row_lb == [-math.inf, 3.0, 4.0]
        assert model.row_ub == [2.0, math.inf, 4.0]

    def test_labels_kept_in_row_order(self):
        model = _model()
        model.sorted_row([0, 1], [1.0, 1.0], Sense.EQ, 1.0, "placement[a]")
        x, y = model.variables[:2]
        model.add(x - y >= 0, name="order")
        model.pairs_row([(2, 1.0)], Sense.LE, 1.0, "excl[x]")
        assert model.labels == ["placement[a]", "order", "excl[x]"]
        form = compile_model(model)
        assert form.row_labels == ("placement[a]", "order", "excl[x]")
        assert form.row_label(1) == "order"
        assert form.var_name(1) == "v[1]"


class TestModelIntegration:
    def test_block_rows_match_legacy_rows(self):
        """Index rows and expression rows compile to the same CSR."""

        def build(indexed: bool) -> StandardForm:
            model = Model("m")
            _cols, (x, y, z) = model.add_var_block("v", ["x", "y", "z"])
            if indexed:
                model.pairs_row(
                    [(z.index, 2.0), (x.index, 1.0)], Sense.LE, 3.0, "fam[0]"
                )
                model.sorted_row([y.index], [1.0], Sense.EQ, 1.0, "fam[1]")
                model.pairs_row([(x.index, 1.0)], Sense.GE, 0.0, "fam[2]")
            else:
                model.add_terms([(z, 2.0), (x, 1.0)], Sense.LE, 3.0, "fam[0]")
                model.add(y + 0.0 * z == 1, name="fam[1]")
                model.add(x + y - y >= 0, name="fam[2]")
            model.minimize(x + y + z)
            return compile_model(model)

        indexed, expressed = build(True), build(False)
        assert indexed.row_labels == expressed.row_labels
        assert indexed.A.indptr.tolist() == expressed.A.indptr.tolist() == [
            0, 2, 3, 4,
        ]
        assert indexed.A.indices.tolist() == expressed.A.indices.tolist()
        assert indexed.A.data.tolist() == expressed.A.data.tolist()
        assert indexed.row_lb.tolist() == expressed.row_lb.tolist()
        assert indexed.row_ub.tolist() == expressed.row_ub.tolist()
        assert indexed.c.tolist() == expressed.c.tolist()

    def test_materialized_constraints_view(self):
        model = Model("m")
        _cols, (x, y) = model.add_var_block("v", ["x", "y"])
        model.pairs_row(
            [(y.index, 1.0), (x.index, -1.0)], Sense.GE, 0.0, "fam[d]"
        )
        model.add_terms([(y, 1.0)], Sense.LE, 1.0, "cap")
        model.add(x + y == 1, name="one")
        ge, le, eq = model.constraints
        assert (ge.name, ge.sense, ge.rhs) == ("fam[d]", Sense.GE, 0.0)
        assert ge.expr.terms == {x.index: -1.0, y.index: 1.0}
        assert [v.name for v in ge.expr.variables()] == ["v[x]", "v[y]"]
        assert (le.name, le.sense, le.rhs) == ("cap", Sense.LE, 1.0)
        assert (eq.name, eq.sense, eq.rhs) == ("one", Sense.EQ, 1.0)
        assert model.num_constraints == 3
        assert model.check_assignment({x.index: 0.0, y.index: 1.0}) == []
        assert model.check_assignment({x.index: 1.0, y.index: 0.0}) == [
            "constraint fam[d] violated"
        ]
