"""Formulation auditor: structural analysis of compiled ILP forms.

The paper's Table 2 verdicts are only as trustworthy as the formulation
handed to the solver, and modeling bugs are silent: a dead variable or a
tautological row does not crash anything, it just changes what "optimal"
or "infeasible" means.  :func:`audit_form` inspects a compiled
:class:`repro.ilp.standard_form.StandardForm` *without solving it* (compile
a model first with :func:`repro.ilp.standard_form.compile_model`) and
reports:

* **M001 dead-variable** — a variable appearing in no constraint and no
  objective term (typically a pruning bug: the variable was emitted but
  never wired into the formulation);
* **M002 empty-row** — a constraint with no nonzero terms (a satisfied
  one is dead weight; an unsatisfiable one is reported as M006);
* **M003 tautological-row** — a row whose activity range under the
  variable bounds always satisfies it (it can never bind);
* **M004 duplicate-row** — two rows with identical terms, sense and rhs;
* **M005 contradictory-bounds** — a variable whose domain is empty
  (``lb > ub``, or an integer variable whose interval contains no
  integer);
* **M006 infeasible-row** — a row whose activity range can never satisfy
  it: a one-constraint infeasibility proof;
* **M007 conditioning** — coefficient magnitude spread beyond a
  threshold (numerical-trouble smell, not a bug per se).

On matrix form the rules are mostly vectorized: activity ranges are two
masked gathers plus a ``bincount`` reduction over the CSR triplets, dead
variables a column-count ``bincount``, and duplicate rows hash each
row's (bounds, sorted indices, data) bytes — the remaining per-row
Python loop only formats findings for flagged rows.  Findings preserve
the emission order of the original per-constraint auditor exactly.

Findings with ``fatal=True`` (M005/M006 and the S-rules below) are
*infeasibility witnesses*: the instance provably has no solution and the
solver budget can be saved entirely.

The **instance screen** (:func:`screen_instance`) runs even earlier, on a
(DFG, MRRG) pair before any model is built, using pigeonhole capacity
arguments (cf. the pre-search structural checks SAT-MapIt uses to skip
unwinnable solver calls):

* **S001 op-capacity** — more operations than FuncUnit slots;
* **S002 opcode-capacity** — more operations of one class than
  functional units able to host that class (e.g. multiply count exceeds
  multiplier-capable units);
* **S003 value-capacity** — more routed values than routing resources.

Finally, :func:`iis_lite_form` is a deletion-filter that narrows a
proven infeasible compiled form to a small conflicting row subset,
reported by the constraint-family labels used in
:func:`repro.mapper.ilp_mapper.build_formulation` (``placement``,
``fanout``, ``mux_excl``...), so an unexpected INFEASIBLE can be traced
to the constraint families that actually clash.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence

import numpy as np

from ..dfg.graph import DFG
from ..dfg.opcodes import OpCode
from ..ilp.expr import Sense
from ..ilp.standard_form import StandardForm
from ..mrrg.graph import MRRG

#: Human-readable one-liners per rule (rendered by reports and docs).
RULES = {
    "M001": "dead variable: appears in no constraint or objective",
    "M002": "empty constraint row (no nonzero terms)",
    "M003": "tautological row: can never bind under the variable bounds",
    "M004": "duplicate constraint row",
    "M005": "contradictory variable bounds (empty domain)",
    "M006": "structurally infeasible row (activity range excludes rhs)",
    "M007": "coefficient conditioning: magnitude spread beyond threshold",
    "S001": "operation count exceeds FuncUnit slot count",
    "S002": "operation-class count exceeds capable FuncUnit count",
    "S003": "routed value count exceeds routing resource count",
}


@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One audit observation.

    Attributes:
        rule: rule identifier (see :data:`RULES`).
        severity: "error" (a modeling bug), "warning" (suspicious but
            possibly intended) or "info".
        subject: the variable/constraint/opcode the finding is about.
        message: human-readable explanation.
        fatal: True when the finding proves the instance infeasible.
    """

    rule: str
    severity: str
    subject: str
    message: str
    fatal: bool = False

    def format(self) -> str:
        flag = " [infeasible]" if self.fatal else ""
        return f"{self.rule} {self.severity}{flag}: {self.message}"


@dataclasses.dataclass(frozen=True)
class CoefficientStats:
    """Magnitude statistics over all nonzero constraint coefficients."""

    num_nonzeros: int
    min_abs: float
    max_abs: float

    @property
    def ratio(self) -> float:
        if self.num_nonzeros == 0 or self.min_abs == 0.0:
            return 1.0
        return self.max_abs / self.min_abs


@dataclasses.dataclass
class AuditReport:
    """Outcome of :func:`audit_form`.

    Attributes:
        model_name: name of the audited model.
        num_vars / num_constraints: model size at audit time.
        findings: every observation, in deterministic emission order.
        coefficients: magnitude stats (None for an empty model).
    """

    model_name: str
    num_vars: int
    num_constraints: int
    findings: list[AuditFinding]
    coefficients: CoefficientStats | None = None

    @property
    def fatal(self) -> AuditFinding | None:
        """The first infeasibility witness, if any."""
        for finding in self.findings:
            if finding.fatal:
                return finding
        return None

    @property
    def ok(self) -> bool:
        """True when no error-severity findings exist."""
        return not any(f.severity == "error" for f in self.findings)

    def rules(self) -> list[str]:
        """Sorted distinct rule ids present in the findings."""
        return sorted({f.rule for f in self.findings})

    def by_rule(self, rule: str) -> list[AuditFinding]:
        return [f for f in self.findings if f.rule == rule]

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"audit of {self.model_name!r}: {self.num_vars} vars, "
            f"{self.num_constraints} constraints"
        ]
        if self.coefficients is not None and self.coefficients.num_nonzeros:
            c = self.coefficients
            lines.append(
                f"  coefficients: {c.num_nonzeros} nonzeros, "
                f"|a| in [{c.min_abs:g}, {c.max_abs:g}] "
                f"(ratio {c.ratio:g})"
            )
        if not self.findings:
            lines.append("  clean: no findings")
        for finding in self.findings:
            lines.append(f"  {finding.format()}")
        return "\n".join(lines)


def _row_sense(row_lb: float, row_ub: float) -> tuple[Sense, float]:
    """Recover (sense, rhs) of a non-ranged row from its bounds."""
    if row_lb == row_ub:
        return Sense.EQ, row_ub
    if math.isinf(row_lb):
        return Sense.LE, row_ub
    return Sense.GE, row_lb


def audit_form(
    form: StandardForm,
    conditioning_threshold: float = 1e8,
    tol: float = 1e-9,
) -> AuditReport:
    """Audit a compiled form; see the module docstring for the rules."""
    num_vars, num_rows = form.num_vars, form.num_rows
    a = form.A
    var_lb, var_ub = form.var_lb, form.var_ub
    row_lb, row_ub = form.row_lb, form.row_ub
    findings: list[AuditFinding] = []

    # M005: empty variable domains (vectorized screen, ordered emission).
    bad_bounds = var_lb > var_ub
    with np.errstate(invalid="ignore"):
        integer_hole = (
            (form.integrality != 0)
            & np.isfinite(var_lb)
            & np.isfinite(var_ub)
            & (np.ceil(var_lb - tol) > np.floor(var_ub + tol))
        )
    for j in np.flatnonzero(bad_bounds | integer_hole):
        name = form.var_name(int(j))
        if bad_bounds[j]:
            findings.append(AuditFinding(
                "M005", "error", name,
                f"variable {name!r} has lb {var_lb[j]:g} > ub {var_ub[j]:g}",
                fatal=True,
            ))
        else:
            findings.append(AuditFinding(
                "M005", "error", name,
                f"integer variable {name!r} has no integer in "
                f"[{var_lb[j]:g}, {var_ub[j]:g}]",
                fatal=True,
            ))

    # M001: dead variables — no matrix column entry, no objective term.
    used = np.bincount(a.indices, minlength=num_vars) > 0
    used |= form.c != 0.0
    for j in np.flatnonzero(~used):
        name = form.var_name(int(j))
        findings.append(AuditFinding(
            "M001", "warning", name,
            f"variable {name!r} appears in no constraint or objective term",
        ))

    # Per-row activity ranges over the variable boxes: one masked gather
    # per direction, reduced per row with bincount.  There are no stored
    # zeros, so no 0 * inf products appear.
    row_idx = np.repeat(np.arange(num_rows), np.diff(a.indptr))
    with np.errstate(invalid="ignore"):
        contrib_lo = np.where(
            a.data > 0, a.data * var_lb[a.indices], a.data * var_ub[a.indices]
        )
        contrib_hi = np.where(
            a.data > 0, a.data * var_ub[a.indices], a.data * var_lb[a.indices]
        )
        lo = np.bincount(row_idx, weights=contrib_lo, minlength=num_rows)
        hi = np.bincount(row_idx, weights=contrib_hi, minlength=num_rows)

        empty = np.diff(a.indptr) == 0
        # Empty rows: constant lhs 0 inside [row_lb, row_ub] is satisfied.
        empty_ok = (row_lb <= tol) & (row_ub >= -tol)
        eq = row_lb == row_ub
        infeasible = (lo > row_ub + tol) | (hi < row_lb - tol)
        taut = np.where(
            eq,
            (np.abs(hi - lo) <= tol) & (np.abs(lo - row_lb) <= tol),
            (hi <= row_ub + tol) & (lo >= row_lb - tol),
        )
    flagged = empty | infeasible | taut

    # M002/M003/M006 per flagged row, M004 duplicate hashing per row —
    # emission order matches the per-constraint auditor exactly.
    seen_rows: dict[tuple, str] = {}
    for i in range(num_rows):
        label = form.row_label(i)
        if empty[i]:
            sense, rhs = _row_sense(row_lb[i], row_ub[i])
            if empty_ok[i]:
                findings.append(AuditFinding(
                    "M002", "warning", label,
                    f"constraint {label} has no nonzero terms "
                    "(always satisfied: dead row)",
                ))
            else:
                findings.append(AuditFinding(
                    "M006", "error", label,
                    f"constraint {label} has no nonzero terms and "
                    f"constant lhs 0 cannot satisfy {sense.value} {rhs:g}",
                    fatal=True,
                ))
            continue
        if flagged[i]:
            sense, rhs = _row_sense(row_lb[i], row_ub[i])
            if infeasible[i]:
                findings.append(AuditFinding(
                    "M006", "error", label,
                    f"constraint {label} is unsatisfiable: activity range "
                    f"[{lo[i]:g}, {hi[i]:g}] excludes {sense.value} {rhs:g}",
                    fatal=True,
                ))
            elif taut[i]:
                findings.append(AuditFinding(
                    "M003", "warning", label,
                    f"constraint {label} can never bind: activity range "
                    f"[{lo[i]:g}, {hi[i]:g}] always satisfies "
                    f"{sense.value} {rhs:g}",
                ))

        span = slice(a.indptr[i], a.indptr[i + 1])
        key = (
            float(row_lb[i]),
            float(row_ub[i]),
            a.indices[span].tobytes(),
            a.data[span].tobytes(),
        )
        if key in seen_rows:
            findings.append(AuditFinding(
                "M004", "warning", label,
                f"constraint {label} duplicates {seen_rows[key]}",
            ))
        else:
            seen_rows[key] = label

    coefficients = None
    nnz = int(a.nnz)
    if nnz:
        magnitudes = np.abs(a.data)
        coefficients = CoefficientStats(
            nnz, float(magnitudes.min()), float(magnitudes.max())
        )
        if coefficients.ratio > conditioning_threshold:
            findings.append(AuditFinding(
                "M007", "warning", form.name,
                f"coefficient magnitudes span "
                f"[{coefficients.min_abs:g}, {coefficients.max_abs:g}] "
                f"(ratio {coefficients.ratio:.3g} > "
                f"{conditioning_threshold:g})",
            ))

    return AuditReport(
        model_name=form.name,
        num_vars=num_vars,
        num_constraints=num_rows,
        findings=findings,
        coefficients=coefficients,
    )


# ----------------------------------------------------------------------
# Pre-formulation instance screen
# ----------------------------------------------------------------------
def screen_instance(dfg: DFG, mrrg: MRRG) -> list[AuditFinding]:
    """Pigeonhole capacity screen over a (DFG, MRRG) instance.

    Every returned finding is ``fatal`` — a proof that no mapping exists —
    computable in O(ops + nodes) without building the ILP.  An empty list
    means the screen found nothing (it says *nothing* about feasibility).
    """
    findings: list[AuditFinding] = []
    function_nodes = mrrg.function_nodes()

    # S001: each op needs its own FuncUnit slot (constraints (1)+(2)).
    num_ops = len(dfg.ops)
    if num_ops > len(function_nodes):
        findings.append(AuditFinding(
            "S001", "error", dfg.name,
            f"{num_ops} operations cannot fit {len(function_nodes)} "
            f"FuncUnit slots (II={mrrg.ii})",
            fatal=True,
        ))

    # S002: per operation class, capable units must cover the class.  An
    # op class here is (opcode, needs_output): ops of the same class
    # compete for exactly the same units (legality is per-opcode and a
    # producer additionally needs an output port).  Counted from the
    # opcode index, not MRRG.capable_units: S002 does not ask a unit to
    # cover every operand index.
    produces = {v.producer for v in dfg.values()}
    demand: dict[tuple[OpCode, bool], int] = {}
    for op in dfg.ops:
        key = (op.opcode, op.name in produces)
        demand[key] = demand.get(key, 0) + 1
    for (opcode, needs_output), count in sorted(
        demand.items(), key=lambda item: (item[0][0].value, item[0][1])
    ):
        opcode_name = opcode.value
        capable = sum(
            1
            for fu in mrrg.function_nodes_supporting(opcode)
            if not (needs_output and fu.output is None)
        )
        if count > capable:
            what = f"{opcode_name} (value-producing)" if needs_output else opcode_name
            findings.append(AuditFinding(
                "S002", "error", opcode_name,
                f"{count} {what} operations but only {capable} capable "
                f"FuncUnit slots",
                fatal=True,
            ))

    # S003: distinct values occupy distinct route nodes (constraint (4));
    # every routed value claims at least its producer's output node (7).
    num_values = len(dfg.values())
    num_route = len(mrrg.route_nodes())
    if num_values > num_route:
        findings.append(AuditFinding(
            "S003", "error", dfg.name,
            f"{num_values} routed values exceed {num_route} routing "
            "resources",
            fatal=True,
        ))
    return findings


def first_witness(dfg: DFG, mrrg: MRRG) -> AuditFinding | None:
    """First structural-infeasibility witness from the screen, or None."""
    findings = screen_instance(dfg, mrrg)
    return findings[0] if findings else None


# ----------------------------------------------------------------------
# IIS-lite deletion filter
# ----------------------------------------------------------------------
@dataclasses.dataclass
class IISResult:
    """A small conflicting constraint subset of an infeasible model.

    Attributes:
        constraints: names of the retained (still jointly infeasible)
            constraints, in model order.
        families: distinct constraint-family tags of ``constraints``
            (the prefix before ``[`` in the labels ``build_formulation``
            assigns: ``placement``, ``fu_excl``, ``fanout``...).
        solves: feasibility-oracle calls spent.
        minimal: True when the per-constraint filter completed, i.e. the
            subset is irreducible w.r.t. single deletions.
    """

    constraints: list[str]
    families: list[str]
    solves: int
    minimal: bool


def constraint_family(name: str, index: int) -> str:
    """Family tag of a constraint name (``fanout[n3][s]`` -> ``fanout``)."""
    return name.split("[", 1)[0] if name else f"row{index}"


def _subform(form: StandardForm, keep: Sequence[int]) -> StandardForm:
    """Feasibility-only restriction of ``form`` to ``keep`` rows."""
    keep_arr = np.asarray(keep, dtype=np.int64)
    return dataclasses.replace(
        form,
        c=np.zeros(form.num_vars),
        c0=0.0,
        A=form.A[keep_arr],
        row_lb=form.row_lb[keep_arr],
        row_ub=form.row_ub[keep_arr],
        maximize=False,
        name=f"{form.name}.iis" if form.name else "iis",
        row_labels=(
            tuple(form.row_labels[int(i)] for i in keep_arr)
            if form.row_labels is not None
            else None
        ),
        blocks=None,
    )


def _default_form_oracle(form: StandardForm) -> bool:
    """True when ``form`` is proven infeasible (presolve, then HiGHS)."""
    from ..ilp.highs_backend import solve_highs_form
    from ..ilp.presolve import solve_form_with_presolve
    from ..ilp.status import SolveStatus

    solution = solve_form_with_presolve(
        form, lambda reduced: solve_highs_form(reduced, mip_rel_gap=1.0)
    )
    return solution.status is SolveStatus.INFEASIBLE


def iis_lite_form(
    form: StandardForm,
    is_infeasible: Callable[[StandardForm], bool] | None = None,
    max_solves: int = 64,
    refine_limit: int = 40,
) -> IISResult | None:
    """Deletion-filter an infeasible compiled form down to a core.

    First drops whole constraint *families* (the row labels' prefixes),
    then—if the survivor set is small—individual rows.  Each step keeps
    a deletion only if the remainder is still infeasible, so the
    returned subset is always jointly infeasible.

    Args:
        form: the compiled form to narrow.
        is_infeasible: feasibility oracle over forms; defaults to
            presolve + HiGHS in feasibility mode.  Must return True iff
            proven infeasible.
        max_solves: oracle-call budget (the filter degrades to a coarser
            answer when exhausted, it never exceeds the budget).
        refine_limit: skip the per-constraint pass when more rows than
            this survive family filtering (keeps worst-case cost tame).

    Returns:
        The narrowed subset, or None when the form is not infeasible to
        begin with (nothing to explain).
    """
    oracle = is_infeasible or _default_form_oracle
    num_rows = form.num_rows
    labels = [
        form.row_labels[i] if form.row_labels is not None else ""
        for i in range(num_rows)
    ]
    solves = 0

    def check(keep: list[int]) -> bool:
        """True iff the restriction to ``keep`` is proven infeasible."""
        nonlocal solves
        solves += 1
        return oracle(_subform(form, keep))

    current = list(range(num_rows))
    if not check(current):
        return None

    # Family-level pass, in first-appearance order.
    families: list[str] = []
    rows_of: dict[str, list[int]] = {}
    for i in range(num_rows):
        family = constraint_family(labels[i], i)
        if family not in rows_of:
            rows_of[family] = []
            families.append(family)
        rows_of[family].append(i)

    for family in families:
        if solves >= max_solves:
            break
        drop = set(rows_of[family])
        trial = [i for i in current if i not in drop]
        if trial and check(trial):
            current = trial

    # Per-constraint refinement.
    minimal = False
    if len(current) <= refine_limit:
        minimal = True
        for i in list(current):
            if i not in current:
                continue
            if solves >= max_solves:
                minimal = False
                break
            trial = [j for j in current if j != i]
            if trial and check(trial):
                current = trial

    names = [labels[i] or f"#{i}" for i in current]
    kept_families = sorted({constraint_family(labels[i], i) for i in current})
    return IISResult(
        constraints=names,
        families=kept_families,
        solves=solves,
        minimal=minimal,
    )
