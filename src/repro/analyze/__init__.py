"""Static analysis for the reproduction: model audit + project lint.

Two analysis surfaces, one subsystem:

* :mod:`repro.analyze.model_audit` — structural audit of a *compiled*
  :class:`repro.ilp.standard_form.StandardForm` (dead variables,
  tautological/duplicate rows, conditioning, fast infeasibility
  witnesses, IIS-lite) plus a pre-formulation capacity screen over a
  (DFG, MRRG) instance;
* :mod:`repro.analyze.lint` — project-specific AST lint rules over the
  ``repro`` source tree (nondeterministic set iteration in emission
  code, float equality in solver code, swallowed exceptions,
  nondeterminism in fingerprinted paths, wall-clock reads in timing
  paths);
* :mod:`repro.analyze.bounds` — pre-solve feasibility prover producing
  certified MII bounds (Hall-condition resource screen, recurrence
  bound, routability cuts, saturation counts) that the II sweep, the
  portfolio and the service cache consume;
* :mod:`repro.analyze.certify` — independent checker re-verifying every
  bound certificate from scratch.

``RULESET_VERSION`` identifies the analysis rule set; it participates in
request fingerprints (:mod:`repro.service.fingerprint`) so that cached
verdicts produced under an older rule set — in particular cached
structural-infeasibility verdicts — are invalidated when rules change.
"""

from __future__ import annotations

#: Bump whenever an audit/lint rule changes behaviour in a way that can
#: alter a mapping verdict (e.g. the structural screen learns a new
#: witness).  Cached results are keyed on this.
#: Version 2: the auditor and IIS filter run natively on compiled
#: ``StandardForm`` matrices (same rules, same verdicts).
#: Version 3: the certified bounds prover (B001-B005) joins the
#: pre-solve screen — solver-free INFEASIBLE verdicts can now come from
#: Hall violations, routability cuts and saturation counts, so version-2
#: cache entries must not alias version-3 requests.
RULESET_VERSION = 3

from .bounds import (  # noqa: E402,F401
    BOUND_RULES,
    BoundFinding,
    MIIReport,
    compute_mii,
    finding_from_dict,
    first_bound_witness,
    prove_bounds,
)
from .certify import CertificateError, check_finding, check_findings  # noqa: E402,F401
from .lint import LintFinding, lint_file, lint_paths  # noqa: E402,F401
from .model_audit import (  # noqa: E402,F401
    AuditFinding,
    AuditReport,
    IISResult,
    audit_form,
    first_witness,
    iis_lite_form,
    screen_instance,
)

__all__ = [
    "RULESET_VERSION",
    "AuditFinding",
    "AuditReport",
    "BOUND_RULES",
    "BoundFinding",
    "CertificateError",
    "IISResult",
    "LintFinding",
    "MIIReport",
    "audit_form",
    "check_finding",
    "check_findings",
    "compute_mii",
    "finding_from_dict",
    "first_bound_witness",
    "first_witness",
    "iis_lite_form",
    "lint_file",
    "lint_paths",
    "prove_bounds",
    "screen_instance",
]
