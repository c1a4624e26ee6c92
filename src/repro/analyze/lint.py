"""Project-specific AST lint rules for the ``repro`` source tree.

Generic linters cannot know that in *this* codebase variable/constraint
emission order is part of a model's identity (solver search paths and
cache fingerprints depend on it), so the rules here encode invariants
the reproduction has already been bitten by or cannot afford to violate:

* **R001 set-iteration** — iterating a raw ``set``/``frozenset`` (or an
  expression derived from one) in a ``for`` loop or an order-preserving
  comprehension.  Set iteration order depends on ``PYTHONHASHSEED``;
  inside model/MRRG emission modules this reorders variables and
  constraints between runs (the exact bug class PR 3 fixed in
  ``build_formulation``).  Wrap the iterable in ``sorted(...)``.
  Severity: error in emission modules, warning elsewhere.  Iterating
  into a *set* comprehension is exempt (the result is unordered anyway).
* **R002 float-equality** — ``==``/``!=`` against a nonzero float
  literal in solver/router code.  Solver arithmetic is inexact; exact
  comparison against ``0.0`` is the idiomatic sparsity test and stays
  allowed.  Reported only in solver modules.
* **R003 swallowed-exception** — a bare ``except:`` or an
  ``except Exception/BaseException:`` handler that never re-raises; such
  handlers can silently swallow solver errors and turn a crash into a
  wrong verdict.  Reported everywhere.
* **R004 nondeterminism** — wall-clock (``time.time``,
  ``datetime.now``...), ``random`` or ``uuid``/``secrets`` calls inside
  fingerprinted paths (fingerprinting, cache serialization, model
  emission), where any nondeterministic input silently splits cache
  keys or reorders emissions.  Reported in fingerprint/emission modules.
* **R005 frontend-iteration-order** — R001's set-iteration check, plus
  iteration over a bare dict view (``.keys()``/``.values()``/
  ``.items()``), inside frontend lowering modules.  Op-table iteration
  order there *is* kernel identity: it becomes DFG creation order,
  which oracle write-attribution and source-normalized fingerprints
  depend on.  Iterate the dict itself (insertion order = program order,
  a documented frontend invariant) or wrap the view in ``sorted(...)``;
  comprehensions consumed whole by an order-insensitive callable
  (``sorted``/``sum``/``min``/``max``/``set``/``frozenset``/``any``/
  ``all``/``len``) are exempt.  Severity: error.  In frontend modules
  set-iteration hits report as R005 (not R001).
* **R006 wall-clock-timing** — ``time.time()``/``time.time_ns()`` inside
  modules that measure durations or enforce deadlines/budgets.  The
  wall clock can step backwards (NTP slew, manual changes), turning
  deadlines infinite and durations negative; use ``time.monotonic()``
  or ``time.perf_counter()``.  The one legitimate wall-clock read in a
  timing module — a log/event *timestamp* correlating events with the
  outside world — must carry an explicit ``# lint: allow(R006)``.
  Severity: error.  Reported in timing modules only.

Suppression: append ``# lint: allow(R001)`` (or ``# noqa: R001``) to the
offending line.

Module classification is by path suffix, so fixtures placed under
matching relative paths (e.g. ``<tmp>/mrrg/build.py``) are linted with
the same scopes as the real tree.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

#: Modules whose iteration order is emitted into models, MRRGs or
#: fingerprints — R001 is an error here, R004 applies.
EMISSION_SUFFIXES = (
    "ilp/model.py",
    "ilp/expr.py",
    "ilp/standard_form.py",
    "mapper/ilp_mapper.py",
    "mapper/sweep.py",
    "mrrg/build.py",
    "mrrg/graph.py",
    "mrrg/analysis.py",
    "mrrg/validate.py",
    "service/fingerprint.py",
)

#: Modules computing or persisting content fingerprints — R004 applies.
FINGERPRINT_SUFFIXES = (
    "service/fingerprint.py",
    "service/cache.py",
    "mapper/serialize.py",
)

#: Solver/router numerics — R002 applies.
SOLVER_FRAGMENTS = ("/ilp/", "mapper/router.py", "mapper/ilp_mapper.py")

#: Frontend lowering modules — iteration order is kernel identity
#: (DFG creation order, oracle write attribution, fingerprints); R005
#: applies and supersedes R001.
FRONTEND_FRAGMENTS = ("/frontend/",)

#: Modules measuring durations or enforcing deadlines/budgets — R006
#: applies: wall-clock reads there make budgets drift under clock steps.
TIMING_SUFFIXES = (
    "service/telemetry.py",
    "service/portfolio.py",
    "mapper/sweep.py",
    "mapper/search.py",
    "mapper/ilp_mapper.py",
    "mapper/sa_mapper.py",
    "mapper/greedy_mapper.py",
    "ilp/bnb.py",
    "ilp/solve.py",
)

RULE_IDS = ("R001", "R002", "R003", "R004", "R005", "R006")

_SET_TYPE_NAMES = {
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_ORDER_SAFE_WRAPPERS = {"sorted"}
_PASSTHROUGH_WRAPPERS = {"list", "tuple", "enumerate", "iter", "reversed"}
_DICT_VIEW_METHODS = {"keys", "values", "items"}
#: Callables whose result cannot depend on element order — a
#: comprehension consumed whole by one of these is R005-exempt.
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "sum", "min", "max", "set", "frozenset", "any", "all", "len",
}
_SUPPRESS_RE = re.compile(
    r"(?:lint:\s*allow|noqa:)\s*\(?\s*(R\d{3}(?:\s*,\s*R\d{3})*)\s*\)?"
)


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One lint hit, pointing at a source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


def classify(path: str | Path) -> set[str]:
    """Scope tags: subset of {emission, fingerprint, solver, frontend,
    timing}."""
    posix = Path(path).as_posix()
    tags: set[str] = set()
    if posix.endswith(EMISSION_SUFFIXES):
        tags.add("emission")
    if posix.endswith(FINGERPRINT_SUFFIXES):
        tags.add("fingerprint")
    if posix.endswith(TIMING_SUFFIXES):
        tags.add("timing")
    if any(
        posix.endswith(fragment) or fragment in posix
        for fragment in SOLVER_FRAGMENTS
    ):
        tags.add("solver")
    if any(
        posix.endswith(fragment) or fragment in posix
        for fragment in FRONTEND_FRAGMENTS
    ):
        tags.add("frontend")
    return tags


class _Scope:
    """One lexical scope: names known to be bound to set-like values."""

    __slots__ = ("set_names",)

    def __init__(self) -> None:
        self.set_names: set[str] = set()


class _Linter(ast.NodeVisitor):
    """Single-file rule engine (see module docstring for the rules)."""

    def __init__(self, path: str, tags: set[str], rules: set[str]):
        self.path = path
        self.tags = tags
        self.rules = rules
        self.findings: list[LintFinding] = []
        self._scopes: list[_Scope] = [_Scope()]
        # id()s of comprehension nodes consumed whole by an
        # order-insensitive callable (R005 exemption).
        self._order_insensitive: set[int] = set()

    # -- scope helpers --------------------------------------------------
    def _is_set_name(self, name: str) -> bool:
        return any(name in scope.set_names for scope in reversed(self._scopes))

    def _mark(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            if is_set:
                self._scopes[-1].set_names.add(target.id)
            else:
                self._scopes[-1].set_names.discard(target.id)

    def _is_set_annotation(self, annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in _SET_TYPE_NAMES
        return isinstance(node, ast.Name) and node.id in _SET_TYPE_NAMES

    def _is_set_expr(self, node: ast.expr | None) -> bool:
        """Conservatively decide whether ``node`` evaluates to a set."""
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            # Set algebra: at least one operand must be a *known* set
            # (plain numeric arithmetic never qualifies).
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_set_expr(node.body) or self._is_set_expr(node.orelse)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value)
            ):
                return True
        return False

    # -- findings -------------------------------------------------------
    def _report(
        self, rule: str, severity: str, node: ast.AST, message: str
    ) -> None:
        if rule not in self.rules:
            return
        self.findings.append(LintFinding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            severity=severity,
            message=message,
        ))

    @staticmethod
    def _is_dict_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEW_METHODS
            and not node.args
            and not node.keywords
        )

    def _check_iteration(
        self, iterable: ast.expr, order_insensitive: bool = False
    ) -> None:
        """R001 (everywhere) / R005 (frontend) on an ordered iterable."""
        node = iterable
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_SAFE_WRAPPERS:
                return
            if node.func.id in _PASSTHROUGH_WRAPPERS and node.args:
                node = node.args[0]
        frontend = "frontend" in self.tags and not order_insensitive
        if self._is_set_expr(node):
            if frontend:
                self._report(
                    "R005", "error", iterable,
                    "iteration over an unordered set in frontend lowering: "
                    "op-table order is kernel identity; wrap the iterable "
                    "in sorted(...)",
                )
            else:
                severity = "error" if "emission" in self.tags else "warning"
                self._report(
                    "R001", severity, iterable,
                    "iteration over an unordered set: order depends on "
                    "PYTHONHASHSEED; wrap the iterable in sorted(...)",
                )
            return
        if frontend and self._is_dict_view(node):
            self._report(
                "R005", "error", iterable,
                "iteration over a bare dict view in frontend lowering: "
                "iterate the dict itself (insertion order = program "
                "order) or wrap the view in sorted(...)",
            )

    # -- visitors -------------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        scope = _Scope()
        args = getattr(node, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if self._is_set_annotation(arg.annotation):
                    scope.set_names.add(arg.arg)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            self._mark(target, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        is_set = self._is_set_annotation(node.annotation) or self._is_set_expr(
            node.value
        )
        self._mark(node.target, is_set)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
        ):
            if self._is_set_expr(node.value) or self._is_set_name(
                node.target.id
            ):
                return  # stays/becomes set-like; keep the mark
        # Any other augmented assignment leaves prior knowledge intact.

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        # The loop variable of a set iteration is scalar, not a set.
        self._mark(node.target, False)
        self.generic_visit(node)

    def _visit_ordered_comp(self, node: ast.AST) -> None:
        exempt = id(node) in self._order_insensitive
        for generator in node.generators:  # type: ignore[attr-defined]
            self._check_iteration(generator.iter, order_insensitive=exempt)
        self.generic_visit(node)

    visit_ListComp = _visit_ordered_comp
    visit_GeneratorExp = _visit_ordered_comp
    visit_DictComp = _visit_ordered_comp
    # ast.SetComp deliberately unvisited for R001: a set built from a set
    # is still unordered — no order leaks.

    def visit_Compare(self, node: ast.Compare) -> None:
        if "solver" in self.tags:
            operands = [node.left, *node.comparators]
            for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (lhs, rhs):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and side.value != 0.0
                    ):
                        self._report(
                            "R002", "error", node,
                            f"exact {'==' if isinstance(op, ast.Eq) else '!='} "
                            f"against float literal {side.value!r} in solver "
                            "code; compare with a tolerance",
                        )
                        break
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        broad = node.type is None
        if isinstance(node.type, ast.Name):
            broad = node.type.id in ("Exception", "BaseException")
        elif isinstance(node.type, ast.Tuple):
            broad = any(
                isinstance(el, ast.Name)
                and el.id in ("Exception", "BaseException")
                for el in node.type.elts
            )
        if broad and not any(
            isinstance(stmt, ast.Raise) for stmt in ast.walk(ast.Module(
                body=list(node.body), type_ignores=[]
            ))
        ):
            label = "bare except" if node.type is None else "over-broad except"
            severity = "error" if node.type is None else "warning"
            self._report(
                "R003", severity, node,
                f"{label} without re-raise can swallow solver errors; "
                "catch the specific exception or re-raise",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
        ):
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    self._order_insensitive.add(id(arg))
        if "fingerprint" in self.tags or "emission" in self.tags:
            culprit = self._nondeterministic_call(node)
            if culprit:
                self._report(
                    "R004", "error", node,
                    f"nondeterministic call {culprit} in a fingerprinted "
                    "path; inject the value from the caller instead",
                )
        if "timing" in self.tags:
            culprit = self._wall_clock_call(node)
            if culprit:
                self._report(
                    "R006", "error", node,
                    f"wall-clock read {culprit} in a timing/budget path; "
                    "the wall clock can step backwards — use "
                    "time.monotonic() or time.perf_counter() for "
                    "durations and deadlines (log timestamps need an "
                    "explicit lint: allow(R006))",
                )
        self.generic_visit(node)

    @staticmethod
    def _nondeterministic_call(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            qualified = f"{func.value.id}.{func.attr}"
            if func.value.id in ("random", "secrets"):
                if qualified == "random.Random" and node.args:
                    return None  # explicitly seeded RNG is reproducible
                return f"{qualified}()"
            if qualified in (
                "time.time", "time.time_ns", "time.monotonic",
                "datetime.now", "datetime.utcnow", "datetime.today",
                "uuid.uuid1", "uuid.uuid4", "os.urandom",
            ):
                return f"{qualified}()"
        return None

    @staticmethod
    def _wall_clock_call(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            qualified = f"{func.value.id}.{func.attr}"
            if qualified in ("time.time", "time.time_ns"):
                return f"{qualified}()"
        return None


def _suppressed(source_lines: list[str], finding: LintFinding) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _SUPPRESS_RE.search(source_lines[finding.line - 1])
    if not match:
        return False
    allowed = {item.strip() for item in match.group(1).split(",")}
    return finding.rule in allowed


def lint_file(
    path: str | Path,
    source: str | None = None,
    rules: set[str] | None = None,
) -> list[LintFinding]:
    """Lint one file; returns findings (empty list = clean).

    Args:
        path: file path — used both for reporting and scope
            classification (see :func:`classify`).
        source: file contents; read from ``path`` when omitted.
        rules: subset of :data:`RULE_IDS` to run (default: all).
    """
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [LintFinding(
            path=str(path),
            line=exc.lineno or 0,
            col=(exc.offset or 0),
            rule="R000",
            severity="error",
            message=f"syntax error: {exc.msg}",
        )]
    linter = _Linter(str(path), classify(path), rules or set(RULE_IDS))
    linter.visit(tree)
    lines = source.splitlines()
    return [f for f in linter.findings if not _suppressed(lines, f)]


def default_target() -> Path:
    """The installed ``repro`` package directory (lints itself)."""
    return Path(__file__).resolve().parent.parent


def lint_paths(
    paths: list[str | Path] | None = None,
    rules: set[str] | None = None,
) -> list[LintFinding]:
    """Lint files and directory trees (default: the repro package)."""
    targets = [Path(p) for p in paths] if paths else [default_target()]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        else:
            files.append(target)
    findings: list[LintFinding] = []
    for file in files:
        findings.extend(lint_file(file, rules=rules))
    return findings
