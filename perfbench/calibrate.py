#!/usr/bin/env python3
"""Regenerate ``perfbench/expected/<workload>.json``.

Each file fixes a workload's request pool, the verdict every request
must reach, and, for every candidate cell or kernel, why it is in the
pool or left out.  The rules are the constants below; the measured
times are this script's own, one request at a time on an idle machine.

Usage (from the repository root; minutes per workload):

    python3 perfbench/calibrate.py table2-ilp
    python3 perfbench/calibrate.py service-warm
    python3 perfbench/calibrate.py loops-verified
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.arch.testsuite import PAPER_ARCHITECTURES, build_paper_arch, paper_architecture  # noqa: E402
from repro.frontend import VerificationError, compile_path, verify_end_to_end  # noqa: E402
from repro.kernels.registry import BENCHMARK_NAMES, kernel  # noqa: E402
from repro.service import MappingService, MapRequest  # noqa: E402
from repro.service.portfolio import PortfolioConfig, default_ladder, single_stage  # noqa: E402

import workloads  # noqa: E402

#: table2-ilp: the pool is the fastest cells HiGHS decides, by rank so
#: that it does not hinge on the calibration machine's speed: enough
#: first-feasible (MAPPED) cells to fill about half a run, plus the
#: fastest solver-proven INFEASIBLE cells, whose proof search is
#: different solver work.
T2_POOL_MAPPED = 12
T2_POOL_INFEASIBLE = 3
#: table2-ilp: calibration budget ...
T2_CALIBRATION_BUDGET_S = 4.0
#: ... and the benchmark's budget: over 4x headroom on every pool cell,
#: so a machine slowed by other tenants still decides every cell.
T2_BENCH_BUDGET_S = 10.0
#: Nominal pass lengths on the reference machine (2 vCPUs).  A run of S
#: seconds makes round(S / pass) whole passes, so its work is fixed: two
#: table2-ilp passes, 35 service-warm passes and one loops-verified pass
#: (one round of its kernels) in a 20 s run, every run under about 35 s
#: with the host at its slowest seen, so the contract's 70 runs fit in
#: 3420 s with a margin.
PASS_SECONDS = {"table2-ilp": 9.0, "service-warm": 0.57, "loops-verified": 18.0}
SMOKE_PASS_SECONDS = {"table2-ilp": 1.0, "service-warm": 0.1, "loops-verified": 2.0}
#: service-warm: greedy mappings slower than this stay out of the store
#: pre-fill, which set-up repeats three times per run.
SW_READ_LIMIT_S = 0.3
#: loops-verified: the fabric, the II range, and the per-kernel limit.
#: The paper's 4x4 homogeneous-diagonal fabric takes about 35 s per pass
#: of the five kernels, longer than a run; its 3x3 version takes about
#: 18 s, and there window3 needs II=2 after the bounds screen refutes
#: II=1, so the sweep's screen path runs too.
LV_ROWS, LV_COLS, LV_MAX_II = 3, 3, 2
LV_SOLVER_BUDGET_S = 120.0
LV_KERNEL_LIMIT_S = 20.0
#: loops-verified calibration budget per II attempt (conv1d never gets
#: a proven-optimal mapping within it).
LV_CALIBRATION_BUDGET_S = 30.0

TABLE2_FINAL = ROOT / "results" / "table2_final.txt"


def table2_final() -> dict[tuple[str, str], str]:
    """(kernel, column key) -> our symbol in the committed Table 2
    (``1`` mapped, ``0`` infeasible, ``T`` timeout, ``-`` not run)."""
    lines = TABLE2_FINAL.read_text(encoding="utf-8").splitlines()
    columns = lines[0].split()[1:]
    cells = {}
    for line in lines[1:]:
        parts = line.split()
        if not parts or parts[0] in ("Total", "(timeouts)", "per-cell"):
            continue
        for column, text in zip(columns, parts[1:]):
            cells[(parts[0], column)] = text.split("(")[0]
    return cells


SYMBOL = {"1": workloads.MAPPED, "0": workloads.INFEASIBLE}


def write(name: str, document: dict) -> None:
    document = dict(
        document, pass_seconds=PASS_SECONDS[name], smoke_pass_seconds=SMOKE_PASS_SECONDS[name]
    )
    path = HERE / "expected" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def map_all(config: PortfolioConfig):
    """One request per Table 2 cell, timed; yields (kernel, column, answer, s)."""
    service = MappingService(config)
    archs = {}
    for column in PAPER_ARCHITECTURES:
        spatial = (column.fb_style, column.interconnect)
        archs.setdefault(spatial, build_paper_arch(column))
        service.mrrg_for(archs[spatial], column.contexts)
    for name in BENCHMARK_NAMES:
        dfg = kernel(name)
        for column in PAPER_ARCHITECTURES:
            arch = archs[(column.fb_style, column.interconnect)]
            began = time.perf_counter()
            answer = service.map_request(MapRequest(dfg=dfg, arch=arch, contexts=column.contexts))
            seconds = time.perf_counter() - began
            print(f"  {name:12s} {column.key:16s} {answer.result.status.value:10s} "
                  f"{answer.stage or '-':14s} {seconds:6.2f} s", flush=True)
            yield name, column.key, answer, seconds


def calibrate_table2() -> None:
    committed = table2_final()
    config = PortfolioConfig(
        stages=single_stage("ilp", time_limit=T2_CALIBRATION_BUDGET_S), mip_rel_gap=1.0
    )
    decided, excluded = [], []
    for name, column, answer, seconds in map_all(config):
        status = answer.result.status.value
        cell = {"kernel": name, "column": column}
        if answer.stage in ("pre-audit", "bounds-screen"):
            excluded.append(dict(cell, reason=f"refuted by the {answer.stage} screen before any solve"))
        elif status not in SYMBOL.values():
            excluded.append(dict(cell, reason=f"{status} at the {T2_CALIBRATION_BUDGET_S:.0f} s calibration budget"))
        else:
            decided.append(dict(cell, verdict=status, calibrated_s=round(seconds, 3)))
    pool = []
    for verdict, size in ((workloads.MAPPED, T2_POOL_MAPPED), (workloads.INFEASIBLE, T2_POOL_INFEASIBLE)):
        ranked = sorted((c for c in decided if c["verdict"] == verdict), key=lambda c: c["calibrated_s"])
        for rank, cell in enumerate(ranked, 1):
            if rank > size:
                excluded.append(dict(
                    cell, reason=f"decided ({verdict}) in {cell['calibrated_s']:.2f} s, "
                                 f"not among the {size} fastest {verdict} cells"))
                continue
            symbol = committed[(cell["kernel"], cell["column"])]
            if symbol in SYMBOL and SYMBOL[symbol] != verdict:
                raise SystemExit(f"{cell}: disagrees with {TABLE2_FINAL.name} ({symbol})")
            pool.append(dict(
                cell,
                source=TABLE2_FINAL.name if symbol in SYMBOL else f"calibration ({symbol} in {TABLE2_FINAL.name})",
                why=f"HiGHS decides it ({verdict}) in {cell['calibrated_s']:.2f} s, "
                    f"{rank} of the {size} fastest {verdict} cells",
            ))
    write("table2-ilp", {
        "why": "Cold single-stage feasibility-ILP requests with no store: the paper's Table-2 "
               "mapper, where the solver does most of the work.",
        "budget_s": T2_BENCH_BUDGET_S,
        "rule": f"the {T2_POOL_MAPPED} fastest MAPPED and {T2_POOL_INFEASIBLE} fastest "
                f"INFEASIBLE cells HiGHS decides at a {T2_CALIBRATION_BUDGET_S:.0f} s calibration "
                "budget; screen-refuted and timeout cells are left out",
        "pool": pool,
        "smoke": sorted(pool, key=lambda c: c["calibrated_s"])[:2],
        "excluded": excluded,
    })


def calibrate_service() -> None:
    greedy_only = PortfolioConfig(stages=default_ladder()[:1])
    reads, writes, excluded = [], [], []
    for name, column, answer, seconds in map_all(greedy_only):
        cell = {"kernel": name, "column": column}
        if answer.stage in ("pre-audit", "bounds-screen"):
            writes.append(dict(cell, stage=answer.stage, why="refuted by a screen: a write that misses, is screened and is stored"))
        elif answer.result.status.value == workloads.MAPPED and seconds <= SW_READ_LIMIT_S:
            reads.append(dict(cell, greedy_s=round(seconds, 3), why=f"greedy maps it in {seconds:.2f} s: a stored verdict that reads hit"))
        elif answer.result.status.value == workloads.MAPPED:
            excluded.append(dict(cell, reason=f"greedy maps it in {seconds:.2f} s, above the {SW_READ_LIMIT_S} s pre-fill limit"))
        else:
            excluded.append(dict(cell, reason="greedy gives up, so the default ladder would run SA, which only stops at its 10 s budget"))
    service = MappingService(greedy_only)
    arch = paper_architecture("homogeneous", "diagonal")
    loops = []
    for path in sorted((ROOT / "examples" / "loops").glob("*.py")):
        dfg = compile_path(str(path)).coalesced_dfg()
        answer = service.map_request(MapRequest(dfg=dfg, arch=arch, contexts=1))
        entry = {"kernel": path.stem, "file": str(path.relative_to(ROOT))}
        if answer.result.status.value == workloads.MAPPED:
            loops.append(dict(entry, why="greedy maps it at II=1 on the paper 4x4 homogeneous-diagonal fabric"))
        else:
            excluded.append(dict(entry, reason="greedy gives up at II=1, so a request would reach SA"))
    document = {
        "why": "The default portfolio over a pre-filled on-disk store: fingerprint, cache, "
               "screens and frontend do all timed work, the solver none.",
        "filler": {"base": 10240, "jitter": 256, "smoke": 200},
        "mix": {"per_pass": 100, "writes": 10, "loop_reads": 30},
        "smoke_mix": {"per_pass": 20, "writes": 2, "loop_reads": 6},
        "reads": reads,
        "writes": writes,
        "loops": loops,
        "excluded": excluded,
    }
    write("service-warm", document)


def calibrate_loops() -> None:
    arch = paper_architecture("homogeneous", "diagonal", LV_ROWS, LV_COLS)
    capture = workloads.SearchCapture()
    capture.install()
    kernels, excluded = [], []
    for path in sorted((ROOT / "examples" / "loops").glob("*.py")):
        loop = compile_path(str(path))
        entry = {"kernel": path.stem, "file": str(path.relative_to(ROOT))}
        began = time.perf_counter()
        try:
            report = verify_end_to_end(
                loop, architecture=arch, max_ii=LV_MAX_II, time_limit=LV_CALIBRATION_BUDGET_S
            )
        except VerificationError as exc:
            seconds = time.perf_counter() - began
            excluded.append(dict(entry, reason=f"not verified in {seconds:.1f} s: {exc}"[:200]))
            continue
        seconds = time.perf_counter() - began
        print(f"  {path.stem:10s} II={report.ii} {seconds:6.2f} s", flush=True)
        if seconds > LV_KERNEL_LIMIT_S:
            excluded.append(dict(entry, reason=f"verified in {seconds:.1f} s, above the {LV_KERNEL_LIMIT_S} s limit"))
            continue
        kernels.append(dict(
            entry,
            ii=report.ii,
            objective=capture.last.result.objective,
            calibrated_s=round(seconds, 3),
            why=f"verified at II={report.ii} (optimal, replayed) in {seconds:.2f} s",
        ))
    capture.uninstall()
    write("loops-verified", {
        "why": "verify_end_to_end on loop kernels: the solver proves optimality here, unlike "
               "table2-ilp's first-feasible mode, and frontend, sweep and replay all run.",
        "rows": LV_ROWS,
        "cols": LV_COLS,
        "max_ii": LV_MAX_II,
        "rounds": 1,
        "solver_budget_s": LV_SOLVER_BUDGET_S,
        "kernels": kernels,
        "smoke": sorted(kernels, key=lambda k: k["calibrated_s"])[:1],
        "excluded": excluded,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("table2-ilp", "service-warm", "loops-verified"))
    args = parser.parse_args(argv)
    {"table2-ilp": calibrate_table2, "service-warm": calibrate_service,
     "loops-verified": calibrate_loops}[args.workload]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
