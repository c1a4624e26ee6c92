"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "accum"])
        assert args.benchmark == "accum"
        assert args.style == "homogeneous"
        assert args.mapper == "ilp"

    def test_unknown_benchmark_rejected(self, capsys):
        # The benchmark argument is free-form now (it may be a .py loop
        # file), so rejection happens at resolution time, not parse time.
        assert main(["map", "nonexistent"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_frontend_flags(self):
        args = build_parser().parse_args(
            ["frontend", "map", "examples/loops/dot.py",
             "--rows", "2", "--cols", "2", "--max-ii", "2"]
        )
        assert args.source == "examples/loops/dot.py"
        assert args.rows == 2 and args.max_ii == 2

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--benchmarks", "mac", "accum", "--contexts", "1",
             "--with-sa"]
        )
        assert args.benchmarks == ["mac", "accum"]
        assert args.contexts == 1
        assert args.with_sa

    def test_map_service_flags(self):
        args = build_parser().parse_args(
            ["map", "accum", "--mapper", "portfolio",
             "--cache-dir", "/tmp/c", "--telemetry", "/tmp/t.jsonl"]
        )
        assert args.mapper == "portfolio"
        assert args.cache_dir == "/tmp/c"
        assert args.telemetry == "/tmp/t.jsonl"

    def test_sweep_store_flag(self):
        args = build_parser().parse_args(["sweep", "--store", "runs.jsonl"])
        assert args.store == "runs.jsonl"

    def test_service_subcommands_parse(self):
        stats = build_parser().parse_args(["service", "stats", "t.jsonl"])
        assert stats.telemetry == "t.jsonl"
        cache = build_parser().parse_args(["service", "cache-info", "c"])
        assert cache.cache_dir == "c"


class TestCommands:
    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        out = capsys.readouterr().out
        assert "weighted_sum" in out

    def test_arch_info(self, capsys):
        assert main(["arch-info", "--rows", "2", "--cols", "2"]) == 0
        out = capsys.readouterr().out
        assert "MRRG ii=1" in out

    def test_export_arch(self, capsys):
        assert main(
            ["export-arch", "--rows", "2", "--cols", "2",
             "--interconnect", "diagonal"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("<architecture")
        from repro.arch import parse_architecture

        parse_architecture(out)  # must be valid ADL

    def test_analyze_model_audits_and_narrows_iis(self, capsys):
        # 2x2-f has five ALU ops and the 2x2 grid four ALUs; the
        # S-screen misses it, so the formulation is built, audited and
        # narrowed to its conflicting constraint families.
        assert main(
            ["analyze", "model", "2x2-f", "--rows", "2", "--cols", "2",
             "--iis"]
        ) == 0
        out = capsys.readouterr().out
        assert "clean: no findings" in out
        assert "conflicting constraint(s)" in out
        assert "family: placement" in out

    def test_analyze_bounds_certifies_refuted_ii(self, capsys):
        assert main(
            ["analyze", "bounds", "2x2-f", "--rows", "2", "--cols", "2",
             "--max-ii", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "MII    = 2" in out
        assert "II=1: B001" in out
        assert "every certificate re-verified" in out

    def test_analyze_bounds_rejects_unknown_benchmark(self, capsys):
        assert main(["analyze", "bounds", "nope"]) == 2
        assert "error: unknown benchmark 'nope'" in capsys.readouterr().out

    def test_analyze_bounds_rejects_out_of_subset_loop(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def k(a):\n    return a\n")
        assert main(["analyze", "bounds", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "error:" in out and "F002" in out

    def test_map_command(self, capsys):
        code = main(
            ["map", "2x2-f", "--rows", "3", "--cols", "3",
             "--time-limit", "120", "-v"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2x2-f" in out
        assert "routing cost" in out
        assert "placement:" in out  # verbose mapping dump

    def test_map_sa_command(self, capsys):
        code = main(
            ["map", "2x2-f", "--rows", "3", "--cols", "3", "--mapper", "sa",
             "--time-limit", "60"]
        )
        assert code == 0

    def test_map_served_from_cache_on_second_run(self, tmp_path, capsys):
        argv = [
            "map", "2x2-f", "--rows", "3", "--cols", "3",
            "--time-limit", "120",
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(tmp_path / "events.jsonl"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "served: solved" in first
        assert "fingerprint:" in first

        # The identical invocation is answered from the cache.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "served: cache" in second

        assert main(["service", "stats", str(tmp_path / "events.jsonl")]) == 0
        report = capsys.readouterr().out
        assert "cache: 1 hits / 1 misses" in report

        assert main(["service", "cache-info", str(tmp_path / "cache")]) == 0
        info = capsys.readouterr().out
        assert "entries: 1" in info

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", "--benchmarks", "2x2-f", "--contexts", "1",
             "--rows", "3", "--cols", "3", "--time-limit", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Total Feasible" in out


class TestFrontendCommands:
    def test_compile_reports_oracle_check(self, capsys):
        code = main(["frontend", "compile", "examples/loops/gather2.py"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fingerprint:" in out
        assert "oracle check: lowering matches" in out

    def test_compile_saves_reloadable_kernel(self, tmp_path, capsys):
        saved = tmp_path / "gather2.dfg"
        code = main(
            ["frontend", "compile", "examples/loops/gather2.py",
             "--out", str(saved)]
        )
        assert code == 0
        from repro.frontend import LoopKernel

        kernel = LoopKernel.from_text(saved.read_text())
        assert kernel.name == "gather2"

    def test_compile_rejects_out_of_subset(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def k(x, y, n=4):\n"
            "    for i in range(n):\n"
            "        y[i] = x[i * i]\n"
        )
        code = main(["frontend", "compile", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "F006" in out and "line 3" in out

    def test_map_accepts_loop_file(self, capsys):
        code = main(
            ["map", "examples/loops/gather2.py",
             "--rows", "2", "--cols", "2", "--time-limit", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "gather2" in out

    def test_simulate_accepts_loop_file(self, capsys):
        # Loop kernels go through the frontend's windowed stream check,
        # not the generic last-value heuristic (which assumes
        # iteration-invariant outputs).
        code = main(
            ["simulate", "examples/loops/gather2.py",
             "--rows", "2", "--cols", "2", "--time-limit", "90"]
        )
        out = capsys.readouterr().out
        if code != 0 and ("TIMEOUT" in out or "time limit" in out):
            pytest.skip("solver hit the time budget")
        assert code == 0
        assert "sink lags:" in out
        assert "fabric simulation matches the reference interpreter" in out

    def test_frontend_map_end_to_end(self, capsys):
        code = main(
            ["frontend", "map", "examples/loops/gather2.py",
             "--rows", "2", "--cols", "2", "--max-ii", "2",
             "--time-limit", "90"]
        )
        out = capsys.readouterr().out
        if code != 0 and ("TIMEOUT" in out or "time limit" in out):
            pytest.skip("solver hit the time budget")
        assert code == 0
        assert "VERIFIED" in out
        assert "fabric replay matches the Python oracle" in out


class TestBadInput:
    """Bad paths and values end in one ``error:`` line and exit 2, never
    a traceback."""

    @pytest.mark.parametrize("command", ["compile", "map"])
    def test_frontend_missing_source(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.py"
        assert main(["frontend", command, str(missing)]) == 2
        assert f"error: cannot read {missing}" in capsys.readouterr().out

    def test_frontend_non_utf8_source(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.py"
        garbled.write_bytes(b"def k(a):\n    return a\xff\n")
        assert main(["frontend", "compile", str(garbled)]) == 2
        assert f"error: cannot read {garbled}" in capsys.readouterr().out

    def test_service_stats_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "events.jsonl"
        assert main(["service", "stats", str(missing)]) == 2
        assert f"error: cannot read {missing}" in capsys.readouterr().out

    def test_service_stats_skips_unreadable_lines(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        good = '{"kind": "cache-hit", "ts": 1.0}\n'
        events.write_bytes(
            good.encode()
            + b"\xff\xfe not utf-8\n"
            + b"[1, 2]\n"
            + b'{"kind": "stage-end", "ts": 2.0, "fields": [1]}\n'
            + b'{"kind": "solve", "ts": 3.0, "duration": "slow"}\n'
            + good.encode()
            + b'{"kind": "cache-miss", "ts"'  # torn last line
        )
        assert main(["service", "stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "telemetry: 2 events" in out
        assert "cache: 2 hits / 0 misses" in out

    def test_cache_info_missing_directory_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "cache"
        assert main(["service", "cache-info", str(missing)]) == 2
        assert f"error: no result cache at {missing}" in capsys.readouterr().out
        assert not missing.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["arch-info", "--rows", "0"],
            ["arch-info", "--cols", "-1"],
            ["arch-info", "--contexts", "0"],
            ["arch-info", "--rows", "two"],
            ["analyze", "bounds", "mac", "--rows", "0"],
            ["analyze", "bounds", "mac", "--max-ii", "0"],
            ["frontend", "map", "examples/loops/gather2.py", "--max-ii", "0"],
            ["sweep", "--cols", "0"],
        ],
        ids=" ".join,
    )
    def test_non_positive_size_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "must be at least 1" in err or "invalid integer: 'two'" in err
        assert "Traceback" not in err
