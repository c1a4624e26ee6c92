"""The benchmark's own tests: smoke slices of every workload, the output
contract, same-seed determinism, and the trace invariants.

Run from the repository root (a few minutes on one CPU):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, rename_function, rename_ops  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT, out=None):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    if out is not None:
        command += ["--out", str(out)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke(workload: str, trace: int, tmp_path, seed: int = 5):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke", out=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"digest (\w+)", lines[0]).group(1)
    return result, digest, proc.stdout


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_slice_reports_every_end_to_end_metric(workload, tmp_path):
    result, _digest, stdout = smoke(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["decided_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_is_deterministic_and_complete(workload, tmp_path):
    first, digest_a, stdout = smoke(workload, 1, tmp_path / "a")
    second, digest_b, _ = smoke(workload, 1, tmp_path / "b")
    assert first["correct"] and first["failed"] == 0, stdout
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    # verdicts, *.calls, build rows/nnz and MRRG nodes repeat exactly
    assert digest_a == digest_b
    counts = [n for n in names if names[n] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}


def test_per_layer_metrics_match_the_layer_table():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == {n: (u, b) for n, (u, b, _moves) in spans.LAYER_METRICS.items()}
    assert set(WORKLOAD_NAMES) == set(WORKLOADS) == set(spans.EXPECTED_LAYERS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90.0)
    assert run.tail(samples[:40]) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_slowdown_reads_the_samples_around_a_request():
    probe = speed.SpeedProbe("objects", since=0.0)
    probe.starts = [0.0, 1.0, 2.0, 10.0]
    probe.samples = [probe.reference_s * f for f in (1.0, 2.0, 3.0, 4.0)]
    assert probe.slowdown(1.1, 1.5) == pytest.approx(2.0)
    assert probe.slowdown(0.9, 2.1) == pytest.approx(2.5)
    # nothing within the window: the nearest sample on each side
    assert probe.slowdown(5.0, 6.0) == pytest.approx(3.5)
    assert probe.slowdown(20.0, 21.0) == pytest.approx(4.0)


def test_self_time_and_invariants():
    a = spans.Span(0, None, "r", "request", "x", False, start=0, end=100)
    b = spans.Span(1, 0, "r", "solve", "x", True, start=10, end=60)
    c = spans.Span(2, 1, "r", "build", "x", True, start=20, end=90)
    assert spans.self_times([a, b]) == [50, 50]
    problems = spans.check_invariants([a, b, c], "table2-ilp")
    assert any("children cover" in p for p in problems)
    assert any("'audit' never appeared" in p for p in problems)


def test_renaming_keeps_the_problem_and_changes_the_name():
    from repro.kernels.registry import kernel
    from repro.service.fingerprint import canonical_dfg

    dfg = kernel("accum")
    copy = rename_ops(dfg, "w1")
    assert len(copy) == len(dfg) and canonical_dfg(copy) != canonical_dfg(dfg)
    source = "def dot(a, n=4):\n    return 0\n"
    assert rename_function(source, "x").startswith("def dot_x(")


def test_expected_verdicts_agree_with_committed_table2():
    import calibrate

    committed = calibrate.table2_final()
    expected = json.loads((HERE / "expected" / "table2-ilp.json").read_text(encoding="utf-8"))
    for cell in expected["pool"]:
        symbol = committed[(cell["kernel"], cell["column"])]
        if symbol in calibrate.SYMBOL:
            assert calibrate.SYMBOL[symbol] == cell["verdict"], cell


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table2-ilp", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
