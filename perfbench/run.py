#!/usr/bin/env python3
"""Benchmark of the mapping path: time to a verdict, end to end and per layer.

One closed-loop client in one process drives a workload's seeded request
stream through the public entry points, checks every answer, and prints
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Usage (from the repository root):

    python3 perfbench/run.py --workload table2-ilp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload service-warm --seed 1 --seconds 2 --trace 1 --smoke

Workloads: ``table2-ilp``, ``service-warm``, ``loops-verified`` (see
``workloads.py`` and ``expected/*.json`` for why each exists).  Run
artifacts (per-request rows, spans, summary) go to ``.perfbench/`` at
the repository root.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("table2-ilp", "service-warm", "loops-verified")
#: Set-up runs per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A solve that used more than this share of its budget is listed.
NEAR_BUDGET = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="a seconds-long slice of the workload"
    )
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench")
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src``, never from an
    installed copy, so the benchmark measures the tree it sits in."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, by nearest rank; the maximum below 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return 100.0 * rank / n, ordered[rank - 1]


class Recorder:
    """Timed requests, their checks, and the in-run determinism check."""

    def __init__(self, probe=None):
        self.rows: list[dict] = []
        self.first: dict[str, tuple] = {}
        self.probe = probe

    def run(self, request, tracer=None) -> dict:
        answer = error = None
        if self.probe is not None:
            self.probe.tick()
        began = time.perf_counter()
        try:
            if tracer is None:
                answer = request.call()
            else:
                with tracer.request_span(request.id):
                    answer = request.call()
        except Exception:  # a request that raises is a failed request
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - began
        row = {
            "request": request.id,
            "cell": request.cell,
            "at_s": began - _STARTED,
            "wall_s": wall,
            "traced": tracer is not None,
        }
        if error is not None:
            row.update(status="raised", stage=None, problems=[error.strip().splitlines()[-1]], decided=False)
            self.rows.append(row)
            return row
        outcome = request.check(answer)
        row.update(
            status=outcome.status,
            stage=outcome.stage,
            problems=list(outcome.problems),
            decided=outcome.decided,
            signature=repr(outcome.signature),
            solves=outcome.solves,
        )
        earlier = self.first.setdefault(request.cell, outcome.signature)
        if earlier != outcome.signature:
            row["problems"].append(f"not deterministic: {outcome.signature!r} after {earlier!r}")
            row["decided"] = False
        self.rows.append(row)
        return row


def report_lists(rows: list[dict]) -> list[str]:
    """Failures, undecided answers and near-budget solves, by request."""
    lines = []
    failed = [r for r in rows if r["problems"]]
    undecided = [r for r in rows if r["status"] in ("timeout", "gave_up")]
    near = [
        (r, seconds, budget)
        for r in rows
        for seconds, budget in r.get("solves", [])
        if budget and seconds > NEAR_BUDGET * budget
    ]
    for r in failed:
        lines.append(f"FAILED {r['request']} {r['cell']}: {'; '.join(r['problems'])}")
    for r in undecided:
        lines.append(f"UNDECIDED {r['request']} {r['cell']}: {r['status']} after {r['wall_s']:.2f} s")
    for r, seconds, budget in near:
        lines.append(f"NEAR-BUDGET {r['request']} {r['cell']}: solve {seconds:.2f} s of {budget:.0f} s")
    return lines


def digest(rows: list[dict], extra=None) -> str:
    """Hash of everything a same-seed rerun must reproduce exactly."""
    facts = [(r["request"], r["cell"], r["status"], r.get("signature"), r.get("work")) for r in rows]
    return hashlib.sha256(repr((facts, extra)).encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def timing_metrics(setup_s: float, walls: list[float]) -> dict[str, tuple[float, str]]:
    _pct, tail_s = tail(walls)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (len(walls) / sum(walls), "1/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_s, "s"),
    }


def run_untraced(workload, args, workdir, import_s):
    """Set up ``SETUP_REPEATS`` times, then run the timed passes.  Times
    are reported at the reference speed (see ``speed.py``): each request
    is divided by the host's slowdown around it or over the timed passes
    (``Workload.per_request_speed``), set-up by the whole run's."""
    from speed import SpeedProbe

    probe = SpeedProbe(workload.reference, since=_STARTED)
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.close()
        probe.tick()
        began = time.perf_counter()
        workload.setup(args.seed, workdir)
        setups.append(time.perf_counter() - began)
    recorder = Recorder(probe)
    rng = random.Random(args.seed)
    timed_from = time.perf_counter()
    for index in range(workload.passes(args.seconds)):
        for request in workload.make_pass(rng, index):
            recorder.run(request)
    probe.tick()
    run_slowdown = probe.slowdown(timed_from, time.perf_counter())
    # Set-up is too short to sample well; slow drift is shared with the run.
    setup_slowdown = probe.slowdown(_STARTED, time.perf_counter())
    workload.close()
    rows = recorder.rows
    for row in rows:
        began = _STARTED + row["at_s"]
        if workload.per_request_speed:
            row["slowdown"] = probe.slowdown(began, began + row["wall_s"])
        else:
            row["slowdown"] = run_slowdown
        row["ref_s"] = row["wall_s"] / row["slowdown"]
    with open(workdir / "speed.json", "w", encoding="utf-8") as handle:
        json.dump({
            "reference": probe.reference,
            "at_s": [t - _STARTED for t in probe.starts],
            "sample_s": probe.samples,
        }, handle)
    setup_s = import_s + statistics.median(setups)
    raw = timing_metrics(setup_s, [r["wall_s"] for r in rows])
    metrics = timing_metrics(setup_s / setup_slowdown, [r["ref_s"] for r in rows])
    metrics["decided_frac"] = (sum(r["decided"] for r in rows) / len(rows), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    pct, _tail_s = tail([r["wall_s"] for r in rows])
    slowdowns = sorted(r["slowdown"] for r in rows)
    notes = [
        f"tail = p{pct:.1f} of {len(rows)} requests",
        f"setup = {import_s:.3f} s imports + median of {', '.join(f'{s:.3f}' for s in setups)} s",
        f"times are at the {probe.reference!r} reference speed; host slowdown {setup_slowdown:.3f}x "
        f"over the run, {slowdowns[0]:.3f}-{slowdowns[-1]:.3f}x (median "
        f"{statistics.median(slowdowns):.3f}x) {'around requests' if workload.per_request_speed else 'over the timed passes'}, "
        f"from {len(probe.samples)} reference samples ({sum(probe.samples):.2f} s)",
        "raw wall times: " + "  ".join(f"{name} {value:.6g}" for name, (value, _unit) in raw.items()),
    ]
    return rows, metrics, notes, [], None


def run_traced(workload, args, workdir):
    from spans import LAYER_METRICS, Tracer, check_invariants, layer_metrics, request_rows

    tracer = Tracer()
    tracer.install()
    workload.setup(args.seed, workdir)
    tracer.uninstall()
    recorder = Recorder()
    rng = random.Random(args.seed)
    # Untraced and traced passes alternate, so drift hits both alike.
    for index in range(max(2, workload.passes(args.seconds))):
        traced = index % 2 == 1
        requests = workload.make_pass(rng, index)
        if traced:
            tracer.install()
        for request in requests:
            recorder.run(request, tracer if traced else None)
        tracer.uninstall()
    workload.close()
    rows = recorder.rows
    spans = tracer.spans
    plain = [r["wall_s"] for r in rows if not r["traced"]]
    traced = [r["wall_s"] for r in rows if r["traced"]]
    overhead = statistics.fmean(traced) / statistics.fmean(plain) - 1.0
    layers = layer_metrics(spans, overhead)
    metrics = {name: (layers[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
    problems = check_invariants(spans, workload.name)
    traced_rows = request_rows(spans)
    work_by_cell: dict[str, dict] = {}
    for row in rows:
        traced_row = traced_rows.get(row["request"])
        if traced_row is None:
            continue
        row["self_s"], row["work"] = traced_row["self_s"], traced_row["work"]
        earlier = work_by_cell.setdefault(row["cell"], row["work"])
        if earlier != row["work"]:
            row["problems"].append(f"work not deterministic: {row['work']} after {earlier}")
            row["decided"] = False
    tracer.write(workdir / "spans.jsonl")
    notes = [f"{len(spans)} spans; overhead from {len(traced)} traced vs {len(plain)} untraced requests"]
    counts = {name: layers[name] for name in LAYER_METRICS if LAYER_METRICS[name][0] == "count"}
    counts["setup"] = traced_rows.get("setup", {}).get("work")
    return rows, metrics, notes + problems, problems, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    from spans import LAYER_METRICS
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    workdir = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    try:
        if args.trace:
            rows, metrics, notes, problems, counts = run_traced(workload, args, workdir)
        else:
            rows, metrics, notes, problems, counts = run_untraced(workload, args, workdir, import_s)
    finally:
        workload.stop()

    failed = sum(1 for r in rows if r["problems"])
    run_digest = digest(rows, counts)
    with open(workdir / "requests.jsonl", "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {len(rows)}  failed {failed}  failed_frac {failed / len(rows):.4f}  "
          f"digest {run_digest}")
    for name, (value, unit) in metrics.items():
        moves = f"  moves: {LAYER_METRICS[name][2]}" if args.trace else ""
        print(f"  {name:36s} {value:14.6g} {unit:6s}{moves}")
    for line in notes + report_lists(rows):
        print(f"  {line}")
    print(f"  artifacts: {workdir.relative_to(ROOT) if workdir.is_relative_to(ROOT) else workdir}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(workdir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, digest=run_digest, notes=notes), handle, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
