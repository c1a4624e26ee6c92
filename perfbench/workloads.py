"""The benchmark's three workloads and their output checks.

Each workload builds its state in :meth:`Workload.setup` (timed, and
repeatable: every call starts from scratch) and then hands out *passes*:
a seeded ordering of the workload's fixed request pool.  The seed never
changes how much work a pass holds, only its order and data, so two
seeds measure the same work.  Every request is one call into a public
entry point (``MappingService.map_request`` or
``repro.frontend.verify_end_to_end``); its outputs are checked after the
timed call, untimed.

Why each workload exists, and why each cell or kernel is in its pool,
is recorded in ``expected/<workload>.json`` (written by
``calibrate.py``).
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
from collections.abc import Callable
from functools import partial
from pathlib import Path
from typing import Any

from repro.analyze.bounds import finding_from_dict
from repro.analyze.certify import CertificateError, check_finding
from repro.arch.testsuite import PAPER_ARCHITECTURES, build_paper_arch, paper_architecture
from repro.dfg.graph import DFG
from repro.frontend import compile as frontend_compile
from repro.frontend import verify_end_to_end
from repro.kernels.registry import kernel
from repro.mapper import search
from repro.mapper.base import MapStatus
from repro.mapper.verify import verify
from repro.service import MappingService, MapRequest
from repro.service.cache import MappingCache
from repro.service.portfolio import PortfolioConfig, single_stage

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLUMNS = {column.key: column for column in PAPER_ARCHITECTURES}
MAPPED = MapStatus.MAPPED.value
INFEASIBLE = MapStatus.INFEASIBLE.value


def load_expected(name: str) -> dict[str, Any]:
    with open(HERE / "expected" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclasses.dataclass
class Outcome:
    """What the checks made of one answer.

    Attributes:
        status: the verdict (``MapStatus`` value).
        stage: who answered (portfolio stage, ``cache``, or ``sweep``).
        signature: facts that must repeat exactly whenever the same cell
            is requested again under the same seed.
        problems: failed checks; any problem fails the request.
        solves: (seconds, budget) of every solver call behind the answer.
    """

    status: str
    stage: str | None
    signature: tuple
    problems: list[str]
    solves: list[tuple[float, float | None]] = dataclasses.field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.status in (MAPPED, INFEASIBLE) and not self.problems


@dataclasses.dataclass
class Request:
    """One timed call: ``call()`` is timed, ``check(answer)`` is not."""

    id: str
    cell: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def check_answer(result, dfg: DFG, mrrg, expected: str | None) -> list[str]:
    """The checks every mapping verdict must pass.

    MAPPED must pass the independent verifier; a certified INFEASIBLE
    must carry a certificate that re-checks; a definitive verdict must
    match the expected one.
    """
    problems = []
    status = result.status.value
    if status == MapStatus.ERROR.value:
        problems.append(f"ERROR: {result.detail}")
    if expected is not None and status in (MAPPED, INFEASIBLE) and status != expected:
        problems.append(f"verdict {status}, expected {expected}")
    if result.status is MapStatus.MAPPED:
        if result.mapping is None:
            problems.append("MAPPED without a mapping")
        else:
            issues = verify(result.mapping)
            if issues:
                problems.append("mapping fails verify: " + "; ".join(issues[:3]))
    if result.status is MapStatus.INFEASIBLE and not result.proven_optimal:
        problems.append("INFEASIBLE without a proof")
    if result.certificate is not None:
        try:
            check_finding(finding_from_dict(result.certificate), dfg, mrrg)
        except (CertificateError, KeyError, ValueError) as exc:
            problems.append(f"certificate fails check_finding: {exc}")
    return problems


def _objective(result) -> str | None:
    return None if result.objective is None else repr(result.objective)


def _service_outcome(answer, dfg: DFG, mrrg, expected: str | None, budget=None) -> Outcome:
    result = answer.result
    stage = "cache" if answer.cache_hit else answer.stage
    solves = []
    if stage is not None and stage.startswith("ilp"):
        solves.append((result.solve_time, budget))
    return Outcome(
        status=result.status.value,
        stage=stage,
        signature=(result.status.value, stage, _objective(result)),
        problems=check_answer(result, dfg, mrrg, expected),
        solves=solves,
    )


def paper_cell(service: MappingService, archs: dict, cell: dict) -> tuple:
    """(dfg, arch, contexts, mrrg) of one Table 2 cell.  Asking the
    service for the MRRG here is set-up's MRRG warm-up; ``archs`` shares
    the spatial architectures between cells."""
    column = COLUMNS[cell["column"]]
    spatial = (column.fb_style, column.interconnect)
    if spatial not in archs:
        archs[spatial] = build_paper_arch(column)
    arch = archs[spatial]
    return kernel(cell["kernel"]), arch, column.contexts, service.mrrg_for(arch, column.contexts)


def cell_key(cell: dict) -> str:
    return f"{cell['kernel']}@{cell['column']}"


class Workload:
    """Common shape: ``setup`` then seeded passes over a fixed pool.

    ``reference`` names the ``speed.REFERENCES`` computation that slows
    on this host as the workload's requests do; ``per_request_speed``
    reads the host's slowdown around each request rather than over the
    whole run (see ``speed.py`` for the measurements behind both).
    """

    name = ""
    reference = "numeric"
    per_request_speed = False

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.spec = load_expected(self.name)

    def passes(self, seconds: float) -> int:
        """Whole passes in a run of ``seconds``: set by the spec's nominal
        pass length, never by the clock, so a run's work is fixed."""
        nominal = self.spec["smoke_pass_seconds" if self.smoke else "pass_seconds"]
        return max(1, round(seconds / nominal))

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def make_pass(self, rng: random.Random, index: int) -> list[Request]:
        raise NotImplementedError

    def close(self) -> None:
        """Drop the state ``setup`` built."""

    def stop(self) -> None:
        """Undo anything the workload changed for the whole process."""


# ----------------------------------------------------------------------
class Table2ILP(Workload):
    """Cold ``MappingService`` requests, single-stage feasibility ILP, no
    store: the paper's Table-2 mapper, where the solver does most work."""

    name = "table2-ilp"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.pool = self.spec["smoke" if smoke else "pool"]
        self.budget = float(self.spec["budget_s"])

    def setup(self, seed: int, workdir: Path) -> None:
        config = PortfolioConfig(
            stages=single_stage("ilp", time_limit=self.budget), mip_rel_gap=1.0
        )
        self.service = MappingService(config)
        archs: dict = {}
        self.cells = {
            cell_key(cell): paper_cell(self.service, archs, cell) + (cell["verdict"],)
            for cell in self.pool
        }

    def make_pass(self, rng: random.Random, index: int) -> list[Request]:
        keys = list(self.cells)
        rng.shuffle(keys)
        return [
            Request(f"p{index}.{i}", key, partial(self._map, key), partial(self._check, key))
            for i, key in enumerate(keys)
        ]

    def _map(self, key: str):
        dfg, arch, contexts, _mrrg, _expected = self.cells[key]
        return self.service.map_request(
            MapRequest(dfg=dfg, arch=arch, contexts=contexts, label=key)
        )

    def _check(self, key: str, answer) -> Outcome:
        dfg, _arch, _contexts, mrrg, expected = self.cells[key]
        return _service_outcome(answer, dfg, mrrg, expected, self.budget)

    def close(self) -> None:
        self.service.close()
        self.cells = {}


# ----------------------------------------------------------------------
_DEF = re.compile(r"^def (\w+)\(", re.MULTILINE)


def rename_function(source: str, suffix: str) -> str:
    """The same loop kernel under another function name."""
    renamed, count = _DEF.subn(lambda m: f"def {m.group(1)}_{suffix}(", source, count=1)
    if count != 1:
        raise ValueError("loop source has no top-level function")
    return renamed


def rename_ops(dfg: DFG, suffix: str) -> DFG:
    """A copy of ``dfg`` whose operations carry new names (a new request
    fingerprint for the same mapping problem)."""
    clone = DFG(dfg.name)
    for op in dfg.ops:
        clone.add_op(f"{op.name}_{suffix}", op.opcode)
    for edge in dfg.edges():
        clone.connect(f"{edge.src}_{suffix}", f"{edge.dst}_{suffix}", edge.operand, back=edge.back)
    return clone


class ServiceWarm(Workload):
    """The default portfolio service over a pre-filled on-disk store:
    fingerprint, cache, screens and frontend do the timed work."""

    name = "service-warm"
    reference = "objects"
    per_request_speed = True

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        spec = self.spec
        self.mix = spec["smoke_mix" if smoke else "mix"]
        self.reads, self.writes, self.loops = spec["reads"], spec["writes"], spec["loops"]
        if smoke:
            # two stored cells, two loops, and one write per screen kind
            by_stage = {cell["stage"]: cell for cell in reversed(self.writes)}
            self.reads, self.loops = self.reads[:2], self.loops[:2]
            self.writes = [by_stage[stage] for stage in sorted(by_stage)]

    def setup(self, seed: int, workdir: Path) -> None:
        self.store = workdir / "store"
        if self.store.exists():
            shutil.rmtree(self.store)
        self.service = MappingService(PortfolioConfig(), cache_dir=self.store)
        self.loop_arch = paper_architecture("homogeneous", "diagonal")
        archs: dict = {}
        # Real verdicts: every stored cell is mapped once, by the greedy
        # stage, and stored; its check is the one a hit must also pass.
        self.read_cells = {}
        for cell in self.reads:
            dfg, arch, contexts, mrrg = instance = paper_cell(self.service, archs, cell)
            answer = self.service.map_request(MapRequest(dfg=dfg, arch=arch, contexts=contexts))
            outcome = _service_outcome(answer, dfg, mrrg, MAPPED)
            if outcome.problems or outcome.stage != "greedy":
                raise RuntimeError(f"store pre-fill: {cell} -> {outcome}")
            self.read_cells[cell_key(cell)] = instance
        self.loop_sources = {}
        loop_mrrg = self.service.mrrg_for(self.loop_arch, 1)
        for loop in self.loops:
            source = (ROOT / loop["file"]).read_text(encoding="utf-8")
            dfg = frontend_compile.compile_source(source).coalesced_dfg()
            answer = self.service.map_request(MapRequest(dfg=dfg, arch=self.loop_arch, contexts=1))
            outcome = _service_outcome(answer, dfg, loop_mrrg, MAPPED)
            if outcome.problems or outcome.stage != "greedy":
                raise RuntimeError(f"store pre-fill: {loop['file']} -> {outcome}")
            self.loop_sources[loop["kernel"]] = source
        self.write_cells = {
            cell_key(cell): paper_cell(self.service, archs, cell) for cell in self.writes
        }
        self._fill(random.Random(seed))

    def _fill(self, rng: random.Random) -> None:
        """Filler entries: copies of the real ones under fresh random
        fingerprints, appended in the store's own format.  Every shard
        gets the same entries, give or take one, so the seed changes the
        fingerprints a hit parses past but not how many."""
        filler = self.spec["filler"]
        count = filler["smoke"] if self.smoke else filler["base"] + rng.randrange(filler["jitter"])
        cache = MappingCache(self.store)
        templates = [(entry.fingerprint, entry.to_json()) for entry in cache.entries()]
        shards: list[list[str]] = [[] for _ in range(256)]
        for i in range(count):
            fingerprint = f"{i % 256:02x}{rng.getrandbits(248):062x}"
            old, line = templates[i % len(templates)]
            shards[i % 256].append(line.replace(old, fingerprint, 1))
        for prefix, lines in enumerate(shards):
            if lines:
                with open(cache.objects_dir / f"{prefix:02x}.jsonl", "a", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")

    def make_pass(self, rng: random.Random, index: int) -> list[Request]:
        """``per_pass`` requests in seeded order.  Each kind walks its
        cells round-robin across passes, so every cell is asked equally
        often whatever the seed."""
        mix = self.mix
        counts = {
            "write": mix["writes"],
            "loop": mix["loop_reads"],
            "read": mix["per_pass"] - mix["writes"] - mix["loop_reads"],
        }
        pools = {
            "read": sorted(self.read_cells),
            "loop": sorted(self.loop_sources),
            "write": sorted(self.write_cells),
        }
        picks = [
            (kind, pools[kind][(index * count + j) % len(pools[kind])])
            for kind, count in counts.items()
            for j in range(count)
        ]
        rng.shuffle(picks)
        requests = []
        for i, (kind, key) in enumerate(picks):
            rid = f"p{index}.{i}"
            if kind == "read":
                requests.append(Request(rid, key, partial(self._read, key), partial(self._check_read, key)))
            elif kind == "loop":
                source = rename_function(self.loop_sources[key], f"u{rng.randrange(10**6)}")
                requests.append(Request(rid, f"loop:{key}", partial(self._loop, source), self._check_loop))
            else:
                dfg = rename_ops(self.write_cells[key][0], f"w{index}x{i}")
                requests.append(Request(rid, f"write:{key}", partial(self._write, key, dfg), partial(self._check_write, key, dfg)))
        return requests

    def _read(self, key: str):
        dfg, arch, contexts, _mrrg = self.read_cells[key]
        return self.service.map_request(MapRequest(dfg=dfg, arch=arch, contexts=contexts))

    def _check_read(self, key: str, answer) -> Outcome:
        dfg, _arch, _contexts, mrrg = self.read_cells[key]
        return _service_outcome(answer, dfg, mrrg, MAPPED)

    def _loop(self, source: str):
        dfg = frontend_compile.compile_source(source).coalesced_dfg()
        return dfg, self.service.map_request(MapRequest(dfg=dfg, arch=self.loop_arch, contexts=1))

    def _check_loop(self, answer) -> Outcome:
        dfg, answer = answer
        mrrg = answer.result.mapping.mrrg if answer.result.mapping is not None else None
        outcome = _service_outcome(answer, dfg, mrrg, MAPPED)
        outcome.signature += (dfg.name,)
        return outcome

    def _write(self, key: str, dfg: DFG):
        _dfg, arch, contexts, _mrrg = self.write_cells[key]
        return self.service.map_request(MapRequest(dfg=dfg, arch=arch, contexts=contexts))

    def _check_write(self, key: str, dfg: DFG, answer) -> Outcome:
        outcome = _service_outcome(answer, dfg, self.write_cells[key][3], INFEASIBLE)
        if outcome.stage not in ("pre-audit", "bounds-screen"):
            outcome.problems.append(f"write answered by {outcome.stage}, not a screen")
        return outcome

    def close(self) -> None:
        self.service.close()
        self.read_cells = self.write_cells = self.loop_sources = {}
        if self.store.exists():
            shutil.rmtree(self.store)


# ----------------------------------------------------------------------
class SearchCapture:
    """Keeps the last ``find_min_ii`` result so the checks can read the
    optimal objective, which ``EndToEndReport`` does not carry."""

    def __init__(self) -> None:
        self.last = None
        self._original = None

    def install(self) -> None:
        self._original = original = search.find_min_ii

        def find_min_ii(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        search.find_min_ii = find_min_ii

    def uninstall(self) -> None:
        if self._original is not None:
            search.find_min_ii = self._original
            self._original = None


class LoopsVerified(Workload):
    """``verify_end_to_end`` on loop kernels: frontend compile, oracle,
    II sweep, optimal ILP with registered feedback, and fabric replay."""

    name = "loops-verified"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.kernels = self.spec["smoke" if smoke else "kernels"]
        # Installed before any tracer, so a tracer wraps the capture.
        self.capture = SearchCapture()
        self.capture.install()

    def setup(self, seed: int, workdir: Path) -> None:
        spec = self.spec
        self.arch = paper_architecture(
            "homogeneous", "diagonal", spec["rows"], spec["cols"]
        )
        self.sources = {
            k["kernel"]: ((ROOT / k["file"]).read_text(encoding="utf-8"), k)
            for k in self.kernels
        }

    def make_pass(self, rng: random.Random, index: int) -> list[Request]:
        """Every kernel ``rounds`` times, in seeded order."""
        names = sorted(self.sources) * self.spec["rounds"]
        rng.shuffle(names)
        return [
            Request(f"p{index}.{i}", name, partial(self._verify, name, rng.randrange(2**31)), partial(self._check, name))
            for i, name in enumerate(names)
        ]

    def _verify(self, name: str, data_seed: int):
        self.capture.last = None
        source, _spec = self.sources[name]
        loop = frontend_compile.compile_source(source)
        report = verify_end_to_end(
            loop, architecture=self.arch, max_ii=self.spec["max_ii"], seed=data_seed
        )
        return report, self.capture.last

    def _check(self, name: str, answer) -> Outcome:
        report, found = answer
        expected = self.sources[name][1]
        result = found.result
        problems = check_answer(result, result.mapping.dfg, result.mapping.mrrg, MAPPED)
        if report.ii != expected["ii"]:
            problems.append(f"II {report.ii}, expected {expected['ii']}")
        if result.objective != expected["objective"]:
            problems.append(f"objective {result.objective}, expected {expected['objective']}")
        if not report.proven_optimal:
            problems.append("mapping not proven optimal")
        statuses = tuple((ii, r.status.value) for ii, r in sorted(found.attempts.items()))
        return Outcome(
            status=result.status.value,
            stage="sweep",
            signature=(report.ii, _objective(result), statuses, found.screened_iis),
            problems=problems,
            solves=[
                (r.solve_time, self.spec["solver_budget_s"])
                for r in found.attempts.values()
                if r.solve_time
            ],
        )

    def stop(self) -> None:
        self.capture.uninstall()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Table2ILP, ServiceWarm, LoopsVerified)
}
