"""Run records for benchmark x architecture sweeps."""

from __future__ import annotations

import dataclasses
import json

from ..jsonl import append_line
from ..mapper.base import MapResult, MapStatus


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One mapping attempt in a sweep.

    Attributes:
        benchmark: DFG name.
        arch_key: architecture column key (see ``arch.testsuite``).
        mapper: "ilp" or "sa".
        status: mapping verdict.
        objective: routing cost of the produced mapping (None if none).
        proven_optimal: whether the verdict carries a proof.
        formulation_time / solve_time: seconds.
    """

    benchmark: str
    arch_key: str
    mapper: str
    status: MapStatus
    objective: float | None
    proven_optimal: bool
    formulation_time: float
    solve_time: float

    @property
    def total_time(self) -> float:
        return self.formulation_time + self.solve_time

    @property
    def feasible(self) -> bool:
        return self.status is MapStatus.MAPPED

    @property
    def cell(self) -> tuple[str, str, str]:
        """Sweep-grid identity: (benchmark, architecture, mapper)."""
        return (self.benchmark, self.arch_key, self.mapper)

    @classmethod
    def from_result(
        cls, benchmark: str, arch_key: str, mapper: str, result: MapResult
    ) -> "RunRecord":
        return cls(
            benchmark=benchmark,
            arch_key=arch_key,
            mapper=mapper,
            status=result.status,
            objective=result.objective,
            proven_optimal=result.proven_optimal,
            formulation_time=result.formulation_time,
            solve_time=result.solve_time,
        )

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["status"] = self.status.value
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        payload = json.loads(text)
        payload["status"] = MapStatus(payload["status"])
        return cls(**payload)


def save_records(records: list[RunRecord], path: str) -> None:
    """Write records as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


def load_records(path: str) -> list[RunRecord]:
    """Read records from JSON lines.

    A line that does not hold a record (the torn last line a sweep
    killed mid-write leaves) is skipped, so its cell runs again.
    """
    records = []
    with open(path, "rb") as handle:
        for line in handle:
            try:
                records.append(RunRecord.from_json(line.decode("utf-8")))
            except (ValueError, KeyError, TypeError):
                continue  # JSON, UTF-8 and field errors alike
    return records


def append_record(record: RunRecord, path: str) -> None:
    """Append one record to a JSON-lines store, flushed immediately.

    The incremental write is what makes interrupted sweeps resumable:
    every finished cell survives a kill, and a re-run skips it.  When a
    kill left a torn last line, the record starts on a new line rather
    than being glued to the fragment.
    """
    append_line(path, record.to_json())


def fraction_within(records: list[RunRecord], seconds: float) -> float:
    """Fraction of runs whose total time is within ``seconds``.

    Reproduces the paper's setup claim "More than 80% of the runs
    completed within one hour" (rescaled budgets in our harness).
    """
    if not records:
        return 0.0
    within = sum(1 for r in records if r.total_time <= seconds)
    return within / len(records)
