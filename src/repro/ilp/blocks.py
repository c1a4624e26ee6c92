"""Blockwise model emission: variable blocks and batched sparse rows.

The per-row modeling API (``Model.add`` / ``Model.add_terms``) creates one
:class:`~repro.ilp.expr.LinExpr` and one
:class:`~repro.ilp.expr.Constraint` object per row; for the CGRA
formulation (tens of thousands of rows, each a handful of nonzeros) the
object churn dominates build time.  This module provides the compiled
alternative:

* :class:`VarBlock` — a named, contiguous range of variables created in
  one call (``Model.add_var_block``), carrying the per-variable keys the
  mapper needs for solution extraction;
* :class:`RowBlock` — a family-tagged batch of constraint rows stored
  directly as deterministic, per-row-sorted COO/CSR triplets (flat
  ``indptr``/``cols``/``data`` lists plus row bounds and labels);
* :class:`BlockEmitter` — the row emitter handed out by
  ``Model.add_rows(family)``; every ``row(...)`` call appends sorted,
  coalesced, zero-free triplets to its block.

``compile_model`` lowers row blocks with ``np.asarray`` + concatenation —
O(nnz) NumPy assembly with no per-row dict walks — while per-row
constraints keep their object-walking path.

Row order is part of the model identity (solver search paths depend on
it), so blocks record rows strictly in emission order and the owning
model keeps blocks in creation order.  Emitters never sort across rows —
only within a row — which keeps emission deterministic as long as the
caller iterates deterministically (see ``repro.analyze.lint`` rule R001).
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence

from .expr import Sense, VarType


class BlockError(ValueError):
    """Raised for invalid block construction or emission."""


@dataclasses.dataclass(frozen=True)
class VarBlock:
    """A named contiguous range of model variables.

    Attributes:
        name: family name (e.g. ``"F"``, ``"R"``); variable names are
            derived as ``f"{name}{key_suffix}"`` by the creating model.
        start: model index of the first variable in the block.
        size: number of variables.
        vtype: shared domain of every variable in the block.
        keys: per-variable keys in block order (what the caller indexed
            the variables by — the mapper uses tuples like
            ``(fu_id, op_name)``); empty when created without keys.
    """

    name: str
    start: int
    size: int
    vtype: VarType
    keys: tuple = ()

    @property
    def stop(self) -> int:
        return self.start + self.size

    @property
    def indices(self) -> range:
        """Model variable indices covered by the block."""
        return range(self.start, self.start + self.size)

    def index_of(self, position: int) -> int:
        """Model index of the ``position``-th variable in the block."""
        if not 0 <= position < self.size:
            raise IndexError(
                f"position {position} out of range for block {self.name!r} "
                f"of size {self.size}"
            )
        return self.start + position


class RowBlock:
    """A family-tagged batch of constraint rows in flat triplet form.

    Rows are stored CSR-style: ``indptr`` delimits each row's slice of
    the flat ``cols``/``data`` lists.  Bounds are the ranged form used by
    :class:`~repro.ilp.standard_form.StandardForm`
    (``lb <= a @ x <= ub``); the emitting sense is recoverable from the
    bound pattern (LE rows have ``lb == -inf``, GE rows ``ub == inf``,
    EQ rows ``lb == ub``).
    """

    __slots__ = ("family", "indptr", "cols", "data", "lb", "ub", "labels")

    def __init__(self, family: str):
        self.family = family
        self.indptr: list[int] = [0]
        self.cols: list[int] = []
        self.data: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.labels: list[str] = []

    @property
    def num_rows(self) -> int:
        return len(self.lb)

    @property
    def num_nonzeros(self) -> int:
        return len(self.data)

    def row_terms(self, row: int) -> list[tuple[int, float]]:
        """The (col, coeff) pairs of one row (sorted by column)."""
        lo, hi = self.indptr[row], self.indptr[row + 1]
        return list(zip(self.cols[lo:hi], self.data[lo:hi]))

    def row_sense_rhs(self, row: int) -> tuple[Sense, float]:
        """Recover the emitting (sense, rhs) of one row."""
        lb, ub = self.lb[row], self.ub[row]
        if lb == ub:
            return Sense.EQ, ub
        if math.isinf(lb):
            return Sense.LE, ub
        if math.isinf(ub):
            return Sense.GE, lb
        raise BlockError(f"row {row} of block {self.family!r} is ranged")


class BlockEmitter:
    """Appends rows to one :class:`RowBlock` owned by a model.

    Obtained through ``Model.add_rows(family)``.  Each :meth:`row` call
    stores one constraint as sorted, coalesced COO triplets; exact-zero
    coefficients are dropped at emission (matching what the compiler and
    the auditor previously did per-``LinExpr``).
    """

    __slots__ = ("_block", "_num_vars")

    def __init__(self, block: RowBlock, num_vars_fn):
        self._block = block
        self._num_vars = num_vars_fn

    @property
    def family(self) -> str:
        return self._block.family

    @property
    def num_rows(self) -> int:
        return self._block.num_rows

    def row(
        self,
        cols: Sequence[int],
        coefs: Sequence[float],
        sense: Sense,
        rhs: float,
        label: str = "",
    ) -> None:
        """Append one constraint row.

        Args:
            cols: variable indices (need not be sorted or unique).
            coefs: matching coefficients.
            sense: relational sense; converted to ranged row bounds.
            rhs: right-hand side.
            label: diagnostic name carried into audits and IIS reports
                (defaults to the block family).

        Raises:
            BlockError: on length mismatch or out-of-range indices.
        """
        if len(cols) != len(coefs):
            raise BlockError(
                f"row in block {self._block.family!r}: {len(cols)} columns "
                f"vs {len(coefs)} coefficients"
            )
        block = self._block
        if cols:
            pairs = sorted(zip(cols, coefs))
            limit = self._num_vars()
            last_col: int | None = None
            for col, coef in pairs:
                if coef == 0.0:
                    continue
                if col == last_col:
                    block.data[-1] += coef
                    if block.data[-1] == 0.0:
                        block.data.pop()
                        block.cols.pop()
                        last_col = None
                    continue
                if not 0 <= col < limit:
                    raise BlockError(
                        f"row in block {block.family!r} references variable "
                        f"index {col} outside the model (num_vars={limit})"
                    )
                block.cols.append(col)
                block.data.append(coef)
                last_col = col
        self._finish(sense, rhs, label)

    def sorted_row(
        self,
        cols: Sequence[int],
        coefs: Sequence[float],
        sense: Sense,
        rhs: float,
        label: str = "",
    ) -> None:
        """Trusted fast path: append one pre-normalized row.

        The caller guarantees ``cols`` is strictly increasing, every
        index is in range, and every coefficient is nonzero — exactly
        the invariants :meth:`row` establishes.  No per-element work is
        done, which is what makes constraint families with a known
        column order (e.g. two-term rows whose blocks were created in
        index order) O(nnz) with a tiny constant.
        """
        block = self._block
        block.cols.extend(cols)
        block.data.extend(coefs)
        self._finish(sense, rhs, label)

    def pairs_row(
        self,
        pairs: list[tuple[int, float]],
        sense: Sense,
        rhs: float,
        label: str = "",
    ) -> None:
        """Append one row given (col, coeff) pairs from a trusted caller.

        Sorts and coalesces like :meth:`row` but skips the parallel-list
        repacking and per-element range validation — for emitters whose
        indices come straight from model variable blocks.
        """
        block = self._block
        pairs.sort()
        last_col: int | None = None
        for col, coef in pairs:
            if coef == 0.0:
                continue
            if col == last_col:
                block.data[-1] += coef
                if block.data[-1] == 0.0:
                    block.data.pop()
                    block.cols.pop()
                    last_col = None
                continue
            block.cols.append(col)
            block.data.append(coef)
            last_col = col
        self._finish(sense, rhs, label)

    def _finish(self, sense: Sense, rhs: float, label: str) -> None:
        block = self._block
        block.indptr.append(len(block.cols))
        if sense is Sense.LE:
            block.lb.append(-math.inf)
            block.ub.append(float(rhs))
        elif sense is Sense.GE:
            block.lb.append(float(rhs))
            block.ub.append(math.inf)
        else:
            block.lb.append(float(rhs))
            block.ub.append(float(rhs))
        block.labels.append(label or block.family)

    def rows(
        self,
        entries: Iterable[tuple[Sequence[int], Sequence[float], Sense, float, str]],
    ) -> None:
        """Append many rows: each entry is ``(cols, coefs, sense, rhs, label)``."""
        for cols, coefs, sense, rhs, label in entries:
            self.row(cols, coefs, sense, rhs, label)


@dataclasses.dataclass(frozen=True)
class BlockInfo:
    """Row-block metadata carried on a compiled ``StandardForm``.

    Attributes:
        family: constraint-family tag (``placement``, ``fanout``...).
        start: first global row index of the block.
        stop: one past the last global row index.
    """

    family: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start
