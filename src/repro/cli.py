"""Command-line interface: ``repro-cgra`` / ``python -m repro``.

Subcommands:

* ``map`` — map one benchmark onto one architecture and print the result;
* ``sweep`` — run the Table 2 sweep (optionally also the SA baseline for
  the Fig. 8 comparison) and render the tables;
* ``simulate`` — map a benchmark, extract the fabric configuration,
  execute it cycle by cycle and check against the reference interpreter;
* ``frontend compile`` — lower a Python loop function to a DFG, check it
  against the original function, and optionally save the interchange
  file; ``frontend map`` — compile, map at the minimum II, and verify
  the fabric replay against the Python oracle end to end;
* ``analyze lint`` — run the project-specific static lint (determinism,
  float equality, swallowed exceptions) over the source tree;
* ``analyze model`` — audit the ILP formulation of a (benchmark, arch,
  II) instance before solving: capacity screen, dead variables,
  duplicate/tautological rows, optional IIS-lite conflict narrowing;
* ``analyze bounds`` — certified pre-solve MII bounds for a (benchmark,
  arch) pair: Hall-condition resource screen, advisory recurrence
  bound, routability cuts, saturation counts, combined MII — each
  refutation carries a machine-checked certificate;
* ``bench-info`` — print Table 1 (benchmark characteristics);
* ``arch-info`` — print MRRG statistics for an architecture;
* ``export-arch`` — emit the ADL XML of a test architecture;
* ``service stats`` / ``service cache-info`` — inspect the mapping
  service's telemetry JSONL and result cache.

``map`` and ``sweep`` accept ``--cache-dir``/``--telemetry`` to route
through the :mod:`repro.service` layer: repeated identical requests are
served from the content-addressed cache, and ``--mapper portfolio``
engages the greedy -> sa -> ilp escalation ladder.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .arch.adl import Architecture, serialize_architecture
from .arch.module import Module
from .arch.testsuite import PAPER_ARCHITECTURES, paper_architecture
from .explore.figures import render_figure8
from .explore.runner import SweepConfig, build_arch_mrrg, run_sweep
from .explore.tables import render_table1, render_table2
from .ilp.solve import BACKENDS
from .kernels.registry import BENCHMARK_NAMES, kernel
from .mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from .mapper.ilp_mapper import ILPMapper, ILPMapperOptions
from .mapper.sa_mapper import SAMapper, SAMapperOptions
from .mrrg.analysis import stats
from .mrrg.build import MRRGFactory
from .mrrg.graph import MRRG
from .service.core import MapRequest, MappingService
from .service.portfolio import PortfolioConfig, default_ladder, single_stage
from .service.telemetry import read_events, summarize_events


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts and sizes: an integer of at least 1,
    so a bad value is a usage error (exit 2) rather than a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse ``type=`` for budgets in seconds: a finite number above 0,
    so a bad value is a usage error (exit 2) rather than a run with no
    budget."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _add_arch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--style",
        choices=("homogeneous", "heterogeneous"),
        default="homogeneous",
        help="functional-block style",
    )
    parser.add_argument(
        "--interconnect",
        choices=("orthogonal", "diagonal"),
        default="orthogonal",
        help="interconnect style",
    )
    parser.add_argument(
        "--contexts", type=_positive_int, default=1, help="execution contexts (II)"
    )
    parser.add_argument("--rows", type=_positive_int, default=4)
    parser.add_argument("--cols", type=_positive_int, default=4)


def _architecture(args) -> Module:
    """The paper architecture the ``--style``/``--interconnect``/
    ``--rows``/``--cols`` flags name."""
    return paper_architecture(
        args.style, args.interconnect, rows=args.rows, cols=args.cols
    )


def _build_mrrg(args) -> MRRG:
    return MRRGFactory(_architecture(args)).mrrg(args.contexts)


def _service_portfolio(args) -> PortfolioConfig:
    """Translate ``map`` flags into a portfolio configuration."""
    if args.mapper == "portfolio":
        return PortfolioConfig(
            stages=default_ladder(exact_budget=args.time_limit),
            deadline=args.time_limit * 2,
            mip_rel_gap=None if args.optimal else 1.0,
        )
    if args.mapper == "ilp":
        return PortfolioConfig(
            stages=single_stage(
                "ilp", backend=args.backend, time_limit=args.time_limit
            ),
            mip_rel_gap=None if args.optimal else 1.0,
        )
    return PortfolioConfig(
        stages=single_stage(
            args.mapper, time_limit=args.time_limit, seed=args.seed
        )
    )


class _InputError(Exception):
    """A command argument that cannot be loaded; :func:`main` prints
    ``error: <message>`` and exits with ``code``."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _compile_loop(path: str, func: str | None = None):
    """Compile a Python loop file through the frontend.

    Raises:
        _InputError: an unreadable file (exit 2), or a loop outside the
            frontend subset (exit 1).
    """
    from .frontend import FrontendError, compile_path

    try:
        return compile_path(path, func=func)
    except FrontendError as exc:
        raise _InputError(f"{path}: {exc.format()}", 1) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}", 2) from None


def _load_benchmark(name: str):
    """Resolve a benchmark argument to ``(dfg, label, loop_kernel)``.

    A ``.py`` path (or anything path-like) goes through the loop
    frontend (:func:`_compile_loop`); everything else resolves through
    the kernel registry (Table 1 plus dynamically registered kernels).

    Raises:
        _InputError: an unknown kernel name (exit 2), or what
            :func:`_compile_loop` raises.
    """
    if name.endswith(".py") or "/" in name:
        loop = _compile_loop(name)
        return loop.dfg, loop.name, loop
    try:
        return kernel(name), name, None
    except KeyError as exc:
        raise _InputError(exc.args[0], 2) from None


def _cmd_map(args) -> int:
    dfg, label, loop = _load_benchmark(args.benchmark)
    use_service = bool(
        args.cache_dir or args.telemetry or args.mapper == "portfolio"
    )
    if use_service and loop is not None:
        # Source-normalized identity: alpha-equivalent loop submissions
        # produce one cache entry / one telemetry kernel label.
        dfg = loop.coalesced_dfg()
    provenance = ""
    if use_service:
        top = _architecture(args)
        with MappingService(
            portfolio=_service_portfolio(args),
            cache_dir=args.cache_dir,
            telemetry_path=args.telemetry,
        ) as service:
            answer = service.map_request(
                MapRequest(
                    dfg=dfg,
                    arch=top,
                    contexts=args.contexts,
                    label=label,
                )
            )
        result = answer.result
        source = "cache" if answer.cache_hit else "solved"
        provenance = f"served: {source}"
        if answer.stage:
            provenance += f" (stage {answer.stage})"
        if answer.degraded:
            provenance += " [degraded: exact stage timed out]"
        provenance += f"\nfingerprint: {answer.fingerprint[:16]}"
    else:
        mrrg = _build_mrrg(args)
        if args.mapper == "sa":
            mapper = SAMapper(
                SAMapperOptions(time_limit=args.time_limit, seed=args.seed)
            )
        elif args.mapper == "greedy":
            mapper = GreedyMapper(
                GreedyMapperOptions(time_limit=args.time_limit, seed=args.seed)
            )
        else:
            mapper = ILPMapper(
                ILPMapperOptions(
                    backend=args.backend,
                    time_limit=args.time_limit,
                    mip_rel_gap=None if args.optimal else 1.0,
                )
            )
        result = mapper.map(dfg, mrrg)
    print(
        f"{label} on {args.style}/{args.interconnect} "
        f"(II={args.contexts}): {result.status.value}"
    )
    if provenance:
        print(provenance)
    if result.objective is not None:
        optimality = "optimal" if result.proven_optimal else "feasible"
        print(f"routing cost: {result.objective:.0f} ({optimality})")
    print(f"time: {result.total_time:.2f}s")
    if result.detail:
        print(f"detail: {result.detail}")
    if result.mapping is not None and args.verbose:
        from .explore.floorplan import render_floorplan

        print()
        print(render_floorplan(result.mapping))
        print(result.mapping.to_text())
    return 0 if result.status.name in ("MAPPED", "INFEASIBLE") else 1


def _cmd_sweep(args) -> int:
    architectures = [
        arch
        for arch in PAPER_ARCHITECTURES
        if args.contexts is None or arch.contexts == args.contexts
    ]
    benchmarks = args.benchmarks or list(BENCHMARK_NAMES)

    def progress(record):
        print(
            f"  {record.mapper:>3} {record.benchmark:<14} {record.arch_key:<18} "
            f"{record.status.table2_symbol}  {record.total_time:6.1f}s",
            file=sys.stderr,
        )

    config = SweepConfig(
        benchmarks=benchmarks,
        architectures=architectures,
        time_limit=args.time_limit,
        rows=args.rows,
        cols=args.cols,
        progress=progress if args.verbose else None,
    )

    def make_service(mapper: str) -> MappingService | None:
        if not (args.cache_dir or args.telemetry):
            return None
        return MappingService(
            portfolio=PortfolioConfig(
                stages=single_stage(mapper, time_limit=args.time_limit)
            ),
            cache_dir=args.cache_dir,
            telemetry_path=args.telemetry,
        )

    mrrgs = {a.key: build_arch_mrrg(a, args.rows, args.cols) for a in architectures}
    ilp_service = make_service("ilp")
    try:
        ilp_records = run_sweep(
            config,
            mapper_name="ilp",
            mrrgs=mrrgs,
            store_path=args.store,
            service=ilp_service,
        )
    finally:
        if ilp_service is not None:
            ilp_service.close()
    print(render_table2(ilp_records, architectures))
    if args.with_sa:
        sa_service = make_service("sa")
        try:
            sa_records = run_sweep(
                config,
                mapper_name="sa",
                mrrgs=mrrgs,
                store_path=args.store,
                service=sa_service,
            )
        finally:
            if sa_service is not None:
                sa_service.close()
        print(render_figure8(ilp_records, sa_records, architectures))
    return 0


def _cmd_service_stats(args) -> int:
    try:
        events = read_events(args.telemetry)
    except OSError as exc:
        raise _InputError(f"cannot read {args.telemetry}: {exc}", 2) from None
    print(summarize_events(events), end="")
    return 0


def _cmd_service_cache_info(args) -> int:
    from .service.cache import MappingCache

    # Opening a store creates its objects/ directory: inspect only
    # stores that exist, and write nothing.
    if not (Path(args.cache_dir) / "objects").is_dir():
        raise _InputError(f"no result cache at {args.cache_dir}", 2)
    info = MappingCache(args.cache_dir).stats()
    print(f"cache at {args.cache_dir}")
    print(f"  entries: {info['entries']} across {info['shards']} shards")
    for status in sorted(info["by_status"]):
        print(f"    {status}: {info['by_status'][status]}")
    print(f"  disk: {info['disk_bytes']} bytes")
    return 0


def _cmd_simulate(args) -> int:
    import random

    from .dfg.eval import Environment, evaluate
    from .dfg.opcodes import OpCode
    from .mapper.simulate import SimulationError, simulate_mapping

    dfg, label, loop = _load_benchmark(args.benchmark)
    mrrg = _build_mrrg(args)
    options = ILPMapperOptions(
        time_limit=args.time_limit,
        # Loop-kernel replay feeds per-iteration streams, so feedback
        # must cross a register (see ILPMapperOptions docs).
        require_registered_feedback=loop is not None,
    )
    result = ILPMapper(options).map(dfg, mrrg)
    print(f"mapping {label}: {result.status.value}")
    if result.mapping is None:
        return 1

    if loop is not None:
        # Loop kernels carry exact trip counts and store bindings: use
        # the frontend's windowed stream check, not the generic
        # last-value heuristic below (which assumes iteration-invariant
        # outputs and a fixed 4-element stream).
        from .frontend import VerificationError, verification_data, verify_mapping
        from .mapper.simulate import SimulationError as SimError

        data = verification_data(loop, seed=args.seed)
        try:
            lags = verify_mapping(loop, result.mapping, data)
        except (VerificationError, SimError) as exc:
            print(f"MISMATCH: {exc}")
            return 1
        sinks = ", ".join(f"{op}+{lags[op]}" for op in lags)
        print(f"  sink lags: {sinks}")
        print("fabric simulation matches the reference interpreter")
        return 0

    rng = random.Random(args.seed)
    env = Environment(
        inputs={
            op.name: rng.randrange(1, 100)
            for op in dfg.ops_by_opcode(OpCode.INPUT)
        },
        constants={
            op.name: rng.randrange(1, 8)
            for op in dfg.ops_by_opcode(OpCode.CONST)
        },
        load_streams={
            op.name: [rng.randrange(1, 100) for _ in range(4)]
            for op in dfg.ops_by_opcode(OpCode.LOAD)
        },
    )
    expected = evaluate(dfg, env, iterations=3)
    try:
        trace = simulate_mapping(result.mapping, env)
    except SimulationError as exc:
        print(f"simulation rejected the configuration: {exc}")
        return 1
    ok = True
    for sink, values in expected.outputs.items():
        observed = trace.last(sink)
        match = observed in values or observed == values[0]
        ok &= match
        print(f"  {sink}: interpreter={values}  fabric={observed} "
              f"{'OK' if match else 'MISMATCH'}")
    for sink, values in expected.stores.items():
        observed = trace.last(sink)
        match = observed in values or observed == values[0]
        ok &= match
        print(f"  {sink}: interpreter={values}  fabric={observed} "
              f"{'OK' if match else 'MISMATCH'}")
    print("fabric simulation matches the reference interpreter"
          if ok else "MISMATCH between fabric and interpreter")
    return 0 if ok else 1


def _cmd_frontend_compile(args) -> int:
    from .frontend import VerificationError

    loop = _compile_loop(args.source, func=args.func_name)
    print(loop.describe())
    print(f"fingerprint: {loop.fingerprint()[:16]} (source-normalized)")
    if not args.skip_oracle:
        from .frontend import verify_lowering

        try:
            verify_lowering(loop, seed=args.seed)
        except VerificationError as exc:
            print(f"ORACLE MISMATCH: {exc}")
            return 1
        print("oracle check: lowering matches the Python function")
    if args.out:
        Path(args.out).write_text(loop.to_text(), encoding="utf-8")
        print(f"saved: {args.out}")
    return 0


def _cmd_frontend_map(args) -> int:
    from .frontend import VerificationError, verify_end_to_end
    from .mapper.simulate import SimulationError

    loop = _compile_loop(args.source, func=args.func_name)
    print(loop.describe())
    try:
        report = verify_end_to_end(
            loop,
            architecture=_architecture(args),
            max_ii=args.max_ii,
            seed=args.seed,
            time_limit=args.time_limit,
        )
    except (VerificationError, SimulationError) as exc:
        print(f"VERIFICATION FAILED: {exc}")
        return 1
    print(report.summary())
    print("fabric replay matches the Python oracle")
    return 0


def _cmd_analyze_lint(args) -> int:
    import dataclasses
    import json

    from .analyze import lint_paths
    from .analyze.lint import RULE_IDS

    rules = (
        {item.strip() for item in args.rules.split(",") if item.strip()}
        if args.rules else None
    )
    if rules:
        unknown = sorted(rules - set(RULE_IDS))
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)} "
                  f"(known: {', '.join(RULE_IDS)})")
            return 2
    missing = [p for p in (args.paths or []) if not Path(p).exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}")
        return 2
    findings = lint_paths(args.paths or None, rules=rules)
    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    failed = errors > 0 or (args.strict and warnings > 0)
    if args.format == "json":
        payload = {
            "findings": [dataclasses.asdict(f) for f in findings],
            "summary": {
                "total": len(findings),
                "errors": errors,
                "warnings": warnings,
                "failed": failed,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} finding(s): {errors} error(s), "
              f"{warnings} warning(s)")
    return 1 if failed else 0


def _cmd_analyze_bounds(args) -> int:
    import json

    from .analyze import check_finding, compute_mii
    from .analyze.bounds import iter_findings

    dfg, label, _ = _load_benchmark(args.benchmark)
    top = _architecture(args)
    mrrgs = MRRGFactory(top)
    report = compute_mii(dfg, top, mrrgs.mrrg, max_probe=args.max_ii)
    findings = list(iter_findings(report))
    for finding in findings:
        mrrg = mrrgs.mrrg(finding.ii) if finding.ii is not None else None
        check_finding(finding, dfg, mrrg=mrrg, architecture=top)

    if args.format == "json":
        payload = {
            "benchmark": label,
            "arch": {
                "style": args.style,
                "interconnect": args.interconnect,
                "rows": args.rows,
                "cols": args.cols,
            },
            "res_mii": report.res_mii,
            "res_mii_proven": report.res_mii_proven,
            "rec_mii": report.rec_mii,
            "mii": report.mii,
            "findings": [f.as_dict() for f in findings],
            "certificates_verified": len(findings),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    proven = "proven" if report.res_mii_proven else f"floor (probed to II={args.max_ii})"
    print(f"instance: {label} on {args.style}/{args.interconnect} "
          f"{args.rows}x{args.cols}")
    print(f"ResMII = {report.res_mii} ({proven})")
    print(f"RecMII = {report.rec_mii} (advisory: latencies wrap modulo II "
          "in this formulation)")
    print(f"MII    = {report.mii}  [B005]")
    if report.refuted:
        print("refuted IIs:")
        for ii in sorted(report.refuted):
            finding = report.refuted[ii]
            print(f"  II={ii}: {finding.format()}")
    else:
        print(f"refuted IIs: none (II=1 passes every screen)")
    print(f"certificates: {len(findings)} finding(s), every certificate "
          "re-verified by the independent checker")
    return 0


def _cmd_analyze_model(args) -> int:
    from .analyze import audit_form, first_witness, iis_lite_form
    from .ilp import compile_model
    from .mapper.ilp_mapper import build_formulation

    dfg = kernel(args.benchmark)
    mrrg = _build_mrrg(args)
    print(f"instance: {args.benchmark} on {args.style}/{args.interconnect} "
          f"{args.rows}x{args.cols} (II={args.contexts})")

    witness = first_witness(dfg, mrrg)
    if witness is not None:
        print(f"structurally infeasible — {witness.format()}")
        print("(no formulation built, no solver invoked)")
        return 1

    # Audit what ``map`` solves by default: the feasibility formulation.
    formulation = build_formulation(dfg, mrrg, ILPMapperOptions(mip_rel_gap=1.0))
    if formulation.infeasible_reason is not None:
        print(f"infeasible during formulation: {formulation.infeasible_reason}")
        return 1
    form = compile_model(formulation.model)
    report = audit_form(form)
    print(report.summary())
    for finding in report.findings:
        print(f"  {finding.format()}")
    if args.iis:
        iis = iis_lite_form(form)
        if iis is None:
            print("IIS: model is feasible")
        else:
            minimal = "minimal" if iis.minimal else "non-minimal"
            print(f"IIS ({minimal}, {iis.solves} oracle solves): "
                  f"{len(iis.constraints)} conflicting constraint(s)")
            for family in iis.families:
                print(f"  family: {family}")
    return 1 if report.fatal is not None else 0


def _cmd_bench_info(args) -> int:
    print(render_table1(), end="")
    return 0


def _cmd_arch_info(args) -> int:
    mrrg = _build_mrrg(args)
    print(stats(mrrg))
    return 0


def _cmd_export_arch(args) -> int:
    print(serialize_architecture(Architecture.from_top(_architecture(args))), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cgra",
        description="Architecture-agnostic ILP CGRA mapping (DAC'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a benchmark onto an architecture")
    p_map.add_argument(
        "benchmark",
        help="Table 1 benchmark name, a registered kernel, or a path to "
             "a Python loop file (compiled by the frontend)",
    )
    _add_arch_args(p_map)
    p_map.add_argument(
        "--mapper", choices=("ilp", "sa", "greedy", "portfolio"), default="ilp"
    )
    p_map.add_argument("--backend", choices=BACKENDS, default="highs")
    p_map.add_argument("--time-limit", type=_positive_float, default=120.0)
    p_map.add_argument("--optimal", action="store_true",
                       help="prove routing-cost optimality (not just feasibility)")
    p_map.add_argument("--seed", type=int, default=1, help="SA seed")
    p_map.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result cache directory (routes the job "
             "through the mapping service)",
    )
    p_map.add_argument(
        "--telemetry", default=None,
        help="append per-phase telemetry events to this JSONL file",
    )
    p_map.add_argument("-v", "--verbose", action="store_true")
    p_map.set_defaults(func=_cmd_map)

    p_sweep = sub.add_parser("sweep", help="run the Table 2 / Fig. 8 sweep")
    p_sweep.add_argument("--benchmarks", nargs="*", choices=BENCHMARK_NAMES)
    p_sweep.add_argument("--contexts", type=int, choices=(1, 2), default=None)
    p_sweep.add_argument("--rows", type=_positive_int, default=4)
    p_sweep.add_argument("--cols", type=_positive_int, default=4)
    p_sweep.add_argument("--time-limit", type=_positive_float, default=120.0)
    p_sweep.add_argument("--with-sa", action="store_true",
                         help="also run the SA baseline (Fig. 8)")
    p_sweep.add_argument(
        "--store", default=None,
        help="JSONL record store; finished cells are skipped on re-run "
             "(resumable sweeps)",
    )
    p_sweep.add_argument(
        "--cache-dir", default=None,
        help="route cells through the mapping service with this cache",
    )
    p_sweep.add_argument(
        "--telemetry", default=None,
        help="append per-phase telemetry events to this JSONL file",
    )
    p_sweep.add_argument("-v", "--verbose", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_service = sub.add_parser(
        "service", help="inspect the mapping service (telemetry, cache)"
    )
    service_sub = p_service.add_subparsers(dest="service_command", required=True)
    p_stats = service_sub.add_parser(
        "stats", help="summarize a telemetry JSONL file"
    )
    p_stats.add_argument("telemetry", help="telemetry JSONL file to summarize")
    p_stats.set_defaults(func=_cmd_service_stats)
    p_cache = service_sub.add_parser(
        "cache-info", help="describe a result cache directory"
    )
    p_cache.add_argument("cache_dir", help="cache directory to describe")
    p_cache.set_defaults(func=_cmd_service_cache_info)

    p_sim = sub.add_parser(
        "simulate",
        help="map a benchmark, execute the configuration, check results",
    )
    p_sim.add_argument(
        "benchmark",
        help="Table 1 benchmark name, a registered kernel, or a path to "
             "a Python loop file",
    )
    _add_arch_args(p_sim)
    p_sim.add_argument("--time-limit", type=_positive_float, default=120.0)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_frontend = sub.add_parser(
        "frontend",
        help="compile Python loop functions to DFGs and verify them",
    )
    frontend_sub = p_frontend.add_subparsers(
        dest="frontend_command", required=True
    )
    p_fe_compile = frontend_sub.add_parser(
        "compile",
        help="lower a loop function to a DFG and oracle-check the lowering",
    )
    p_fe_compile.add_argument("source", help="Python file with the kernel")
    p_fe_compile.add_argument(
        "--func", dest="func_name", default=None,
        help="function name (needed when the file has several)",
    )
    p_fe_compile.add_argument(
        "--out", default=None,
        help="save the kernel (DFG + binding metadata) to this file",
    )
    p_fe_compile.add_argument(
        "--skip-oracle", action="store_true",
        help="skip the oracle-vs-lowering check",
    )
    p_fe_compile.add_argument("--seed", type=int, default=0)
    p_fe_compile.set_defaults(func=_cmd_frontend_compile)
    p_fe_map = frontend_sub.add_parser(
        "map",
        help="compile, map at minimum II, and verify the fabric replay "
             "against the Python oracle",
    )
    p_fe_map.add_argument("source", help="Python file with the kernel")
    p_fe_map.add_argument("--func", dest="func_name", default=None)
    _add_arch_args(p_fe_map)
    p_fe_map.add_argument("--max-ii", type=_positive_int, default=4)
    p_fe_map.add_argument("--time-limit", type=_positive_float, default=120.0)
    p_fe_map.add_argument("--seed", type=int, default=0)
    p_fe_map.set_defaults(func=_cmd_frontend_map)

    p_analyze = sub.add_parser(
        "analyze", help="static analysis: source lint and ILP model audit"
    )
    analyze_sub = p_analyze.add_subparsers(dest="analyze_command", required=True)
    p_lint = analyze_sub.add_parser(
        "lint",
        help="project-specific AST lint (R001 set iteration, R002 float "
             "equality, R003 swallowed except, R004 nondeterminism, "
             "R005 frontend iteration order, R006 wall-clock timing)",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not just errors",
    )
    p_lint.add_argument(
        "--rules", metavar="RXXX[,RXXX...]",
        help="run only these rule IDs (comma-separated)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json: findings array + summary object)",
    )
    p_lint.set_defaults(func=_cmd_analyze_lint)
    p_bounds = analyze_sub.add_parser(
        "bounds",
        help="certified pre-solve MII bounds: Hall resource screen "
             "(B001), advisory recurrence bound (B002), routability "
             "cuts (B003), saturation counts (B004), combined MII "
             "(B005); every certificate is independently re-checked",
    )
    p_bounds.add_argument(
        "benchmark",
        help="Table 1 benchmark name, a registered kernel, or a path to "
             "a Python loop file (compiled by the frontend)",
    )
    p_bounds.add_argument(
        "--style",
        choices=("homogeneous", "heterogeneous"),
        default="homogeneous",
        help="functional-block style",
    )
    p_bounds.add_argument(
        "--interconnect",
        choices=("orthogonal", "diagonal"),
        default="orthogonal",
        help="interconnect style",
    )
    p_bounds.add_argument("--rows", type=_positive_int, default=4)
    p_bounds.add_argument("--cols", type=_positive_int, default=4)
    p_bounds.add_argument(
        "--max-ii", type=_positive_int, default=8,
        help="largest II probed by the per-II refutation rules",
    )
    p_bounds.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    p_bounds.set_defaults(func=_cmd_analyze_bounds)
    p_model = analyze_sub.add_parser(
        "model",
        help="audit the ILP formulation of an instance before solving",
    )
    p_model.add_argument("benchmark", choices=BENCHMARK_NAMES)
    _add_arch_args(p_model)
    p_model.add_argument(
        "--iis", action="store_true",
        help="on an infeasible model, narrow to a small conflicting "
             "constraint subset (IIS-lite deletion filter)",
    )
    p_model.set_defaults(func=_cmd_analyze_model)

    p_bench = sub.add_parser("bench-info", help="print Table 1")
    p_bench.set_defaults(func=_cmd_bench_info)

    p_arch = sub.add_parser("arch-info", help="print MRRG statistics")
    _add_arch_args(p_arch)
    p_arch.set_defaults(func=_cmd_arch_info)

    p_export = sub.add_parser("export-arch", help="emit architecture ADL XML")
    _add_arch_args(p_export)
    p_export.set_defaults(func=_cmd_export_arch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}")
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
