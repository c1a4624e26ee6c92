#!/usr/bin/env python
"""Benchmark blockwise vs legacy formulation emission and compilation.

Builds the section-4 ILP for one kernel at each requested II twice per
round — once through the legacy per-``LinExpr`` path
(``use_blocks=False``) and once through the blockwise emission API
(``use_blocks=True``) — and times the build, compile and audit phases
separately.  The two paths produce byte-identical ``StandardForm``s
(asserted here), so the comparison is pure emission/compilation
mechanics.

Default workload is the largest Table 1 kernel (``extreme``, 35 ops) on
the paper's 4x4 CGRA at II = 1 and 2; results land in
``BENCH_formulation.json`` next to the repo root.  ``--smoke`` shrinks
the workload to a seconds-scale CI check that still exercises every
phase.

Usage:
    PYTHONPATH=src python scripts/bench_formulation.py
    PYTHONPATH=src python scripts/bench_formulation.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analyze.model_audit import audit_form  # noqa: E402
from repro.arch.testsuite import paper_architecture  # noqa: E402
from repro.ilp import compile_model  # noqa: E402
from repro.kernels.registry import kernel  # noqa: E402
from repro.mapper.ilp_mapper import (  # noqa: E402
    ILPMapperOptions,
    build_formulation,
)
from repro.mrrg import build_mrrg_from_module, prune  # noqa: E402


def _time_path(dfg, mrrg, use_blocks: bool, repeats: int) -> dict:
    """Best-of-N timings for one emission path, plus form identity data."""
    best = {"build": float("inf"), "compile": float("inf"), "audit": float("inf")}
    form = None
    for _ in range(repeats):
        # The paper's formulation, as BENCH_formulation.json recorded it.
        options = ILPMapperOptions(use_blocks=use_blocks, mip_rel_gap=1.0)

        start = time.perf_counter()
        formulation = build_formulation(dfg, mrrg, options)
        build = time.perf_counter() - start
        assert formulation.infeasible_reason is None, formulation.infeasible_reason

        start = time.perf_counter()
        form = compile_model(formulation.model)
        compile_t = time.perf_counter() - start

        start = time.perf_counter()
        report = audit_form(form)
        audit = time.perf_counter() - start
        assert report.fatal is None, report.fatal

        best["build"] = min(best["build"], build)
        best["compile"] = min(best["compile"], compile_t)
        best["audit"] = min(best["audit"], audit)

    assert form is not None
    return {
        "use_blocks": use_blocks,
        "build_s": best["build"],
        "compile_s": best["compile"],
        "audit_s": best["audit"],
        "build_plus_compile_s": best["build"] + best["compile"],
        "rows": form.num_rows,
        "vars": form.num_vars,
        "nnz": int(form.A.nnz),
        "_form": form,
    }


def _form_fingerprint(form) -> bytes:
    return b"".join(
        (
            form.A.indptr.tobytes(),
            form.A.indices.tobytes(),
            form.A.data.tobytes(),
            form.row_lb.tobytes(),
            form.row_ub.tobytes(),
            form.c.tobytes(),
        )
    )


def run(args: argparse.Namespace) -> dict:
    dfg = kernel(args.kernel)
    arch = paper_architecture(
        "homogeneous", "orthogonal", rows=args.rows, cols=args.cols
    )
    cases = []
    for ii in args.iis:
        mrrg = prune(build_mrrg_from_module(arch, ii))
        legacy = _time_path(dfg, mrrg, use_blocks=False, repeats=args.repeats)
        blocked = _time_path(dfg, mrrg, use_blocks=True, repeats=args.repeats)

        # The refactor contract: identical compiled forms, faster path.
        assert _form_fingerprint(legacy.pop("_form")) == _form_fingerprint(
            blocked.pop("_form")
        ), f"paths diverged at II={ii}"

        speedup = (
            legacy["build_plus_compile_s"] / blocked["build_plus_compile_s"]
            if blocked["build_plus_compile_s"] > 0
            else float("inf")
        )
        cases.append(
            {
                "kernel": args.kernel,
                "rows_x_cols": f"{args.rows}x{args.cols}",
                "ii": ii,
                "mrrg_nodes": len(mrrg),
                "legacy": legacy,
                "blocked": blocked,
                "build_plus_compile_speedup": speedup,
            }
        )
        print(
            f"II={ii}: legacy {legacy['build_plus_compile_s'] * 1e3:8.1f} ms "
            f"-> blocked {blocked['build_plus_compile_s'] * 1e3:8.1f} ms "
            f"({speedup:.2f}x, {blocked['rows']} rows, {blocked['nnz']} nnz)"
        )
    return {
        "benchmark": "formulation_emission",
        "kernel": args.kernel,
        "repeats": args.repeats,
        "cases": cases,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernel", default="extreme")
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument(
        "--iis", type=lambda s: [int(x) for x in s.split(",")], default=[1, 2]
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "BENCH_formulation.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI workload (small kernel, one repeat, no file)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.kernel = "mac"
        args.rows = args.cols = 3
        args.iis = [1]
        args.repeats = 1

    results = run(args)
    if args.smoke:
        print("smoke OK")
    else:
        args.output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
