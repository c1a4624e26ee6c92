"""Content-addressed on-disk result cache.

Layout: ``<root>/objects/<fp[:2]>.jsonl`` — append-only JSONL shards
keyed by the first fingerprint byte, one JSON object per finished
request.  Append-only means a crashed writer can at worst leave one
truncated trailing line (skipped on read; the next store starts on a
new line after it) and repeated stores of the same fingerprint are
resolved last-writer-wins, without any locking — which suits the
single-process, single-CPU deployment this repo targets.

Every line starts with its fingerprint, ``{"fingerprint": "<fp>", ...}``,
and the other keys (the entry's fields and ``version``) follow sorted, so
a reader can tell whose entry a line holds from its first bytes.

Lookups go through an in-memory offset index, one per shard: it maps
each fingerprint to the byte offset of its latest line.  A shard's index
is built the first time a lookup may find its fingerprint there (never
at construction) and afterwards reads only the complete lines appended
since the last read.  A line is indexed from its prefix, undecoded, when
it starts as above, holds no backslash (so every JSON string on it is
literal and the value ends at the next quote), names ``"fingerprint"``
exactly once (so no later key overrides the first) and the value is
strict UTF-8.  Every other line (stores written before this line format,
other writers, escaped or garbled lines) is decoded on its own.  A hit
decodes and checks the one line at its offset; when that line does not
give the fingerprint asked for (a broken line indexed from its prefix,
or a shard rewritten in place), the shard is indexed afresh by decoding
every line, so every lookup returns what a full scan would.  So on
current-format lines a hit decodes one line, a shard's first hit
included (~0.16 ms on a 40-entry, 110 KB shard on a 2-vCPU host), and a
miss decodes none; other lines are decoded once, when first read.

A lookup whose fingerprint has no offset first scans the unread complete
lines as bytes: without a backslash there, every JSON string is literal,
so when the quoted fingerprint is not among them either, no line there
carries it and the lookup misses without decoding or indexing anything.
The shard is indexed afresh when it shrank or when its inode changed;
its file size and inode are all the invalidation reads, never a clock.
The memory cost is one offset per stored fingerprint of the shards
indexed so far; no index file is written, so the on-disk format is the
shards alone.

Entries round-trip :mod:`repro.mapper.serialize` mapping payloads, so a
cache hit reconstructs the *same verdict and mapping* the original solve
produced, re-validated against the live DFG/MRRG on load.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Any, BinaryIO

from ..dfg.graph import DFG
from ..jsonl import append_line
from ..mapper.base import MapResult, MapStatus
from ..mapper.serialize import (
    MappingFormatError,
    mapping_from_payload,
    mapping_to_payload,
)
from ..mrrg.graph import MRRG

ENTRY_VERSION = 1


class CacheError(ValueError):
    """Raised when a cache entry cannot be reconstructed."""


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached mapping verdict.

    Attributes:
        fingerprint: request content hash (see ``service.fingerprint``).
        status: :class:`MapStatus` value string.
        objective / proven_optimal / formulation_time / solve_time /
            detail: the corresponding :class:`MapResult` fields.
        stage: portfolio stage that produced the verdict (e.g. "sa",
            "ilp-highs"), None when unknown.
        mapping: parsed ``mapper.serialize`` JSON payload, None when the
            verdict carries no mapping (e.g. a proven INFEASIBLE).
        certificate: machine-checkable B-rule evidence for a solver-free
            INFEASIBLE (see :mod:`repro.analyze.bounds`); None for
            solver verdicts and pre-certificate entries.
    """

    fingerprint: str
    status: str
    objective: float | None = None
    proven_optimal: bool = False
    formulation_time: float = 0.0
    solve_time: float = 0.0
    detail: str = ""
    stage: str | None = None
    mapping: dict[str, Any] | None = None
    certificate: dict[str, Any] | None = None

    def to_json(self) -> str:
        """One store line: the fingerprint first, then the other fields
        and the version, keys sorted (see :func:`_prefix_fingerprint`)."""
        fields = dict(vars(self), version=ENTRY_VERSION)
        fingerprint = json.dumps(fields.pop("fingerprint"))
        rest = json.dumps(fields, sort_keys=True)
        return f'{{"fingerprint": {fingerprint}, {rest[1:]}'

    @classmethod
    def from_json(cls, line: str) -> "CacheEntry":
        """Parse one stored line.

        Raises:
            json.JSONDecodeError: when the line is not JSON.
            CacheError: when it is JSON but not a current-version entry.
        """
        payload = json.loads(line)
        if not isinstance(payload, dict):
            raise CacheError(
                f"cache entry is a JSON {type(payload).__name__}, not an object"
            )
        if payload.pop("version", None) != ENTRY_VERSION:
            raise CacheError("unsupported cache entry version")
        try:
            entry = cls(**payload)
        except TypeError as exc:
            raise CacheError(f"malformed cache entry: {exc}") from None
        if not isinstance(entry.fingerprint, str):
            raise CacheError("cache entry fingerprint is not a string")
        return entry


def entry_from_result(
    fingerprint: str, result: MapResult, stage: str | None = None
) -> CacheEntry:
    """Freeze a finished :class:`MapResult` into a cache entry."""
    mapping_payload = None
    if result.mapping is not None:
        mapping_payload = mapping_to_payload(result.mapping)
    return CacheEntry(
        fingerprint=fingerprint,
        status=result.status.value,
        objective=result.objective,
        proven_optimal=result.proven_optimal,
        formulation_time=result.formulation_time,
        solve_time=result.solve_time,
        detail=result.detail,
        stage=stage,
        mapping=mapping_payload,
        certificate=result.certificate,
    )


def is_definitive(result: MapResult) -> bool:
    """Whether ``result`` is a verdict the store keeps and serves: MAPPED
    with its mapping, or a proven INFEASIBLE.

    Timeouts and heuristic give-ups are retryable with a larger budget;
    storing them would pin a transient failure onto a permanent key.
    """
    if result.status is MapStatus.MAPPED:
        return result.mapping is not None
    return result.status is MapStatus.INFEASIBLE and result.proven_optimal


def result_from_entry(entry: CacheEntry, dfg: DFG, mrrg: MRRG) -> MapResult:
    """Reconstruct the original verdict against live DFG/MRRG objects.

    Raises:
        CacheError: when the stored mapping no longer matches the DFG or
            MRRG (e.g. the fingerprint scheme missed a semantic change),
            or the entry is no verdict :func:`is_definitive` accepts —
            callers treat this as a cache miss, never as a crash.
    """
    try:
        status = MapStatus(entry.status)
    except ValueError:
        raise CacheError(f"unknown cached status {entry.status!r}") from None
    mapping = None
    if entry.mapping is not None:
        try:
            mapping = mapping_from_payload(entry.mapping, dfg, mrrg)
        except MappingFormatError as exc:
            raise CacheError(f"cached mapping does not load: {exc}") from None
    result = MapResult(
        status=status,
        mapping=mapping,
        objective=entry.objective,
        proven_optimal=entry.proven_optimal,
        formulation_time=entry.formulation_time,
        solve_time=entry.solve_time,
        detail=entry.detail,
        certificate=entry.certificate,
    )
    if not is_definitive(result):
        raise CacheError(f"cached {status.value} entry is not a definitive verdict")
    return result


@dataclasses.dataclass
class _ShardIndex:
    """Where each fingerprint's latest valid line starts in one shard.

    Attributes:
        inode: inode of the shard file the offsets point into.
        end: byte offset just past the last complete line read.
        offsets: fingerprint -> byte offset of its latest line that is a
            valid entry or was indexed from its prefix.
    """

    inode: int
    end: int = 0
    offsets: dict[str, int] = dataclasses.field(default_factory=dict)


#: How every line :meth:`CacheEntry.to_json` writes starts.
_PREFIX = b'{"fingerprint": "'


def _prefix_fingerprint(line: bytes) -> str | None:
    """The fingerprint in a stored line's first key, read without decoding
    the line; None when the line must be decoded to tell.

    Read only when the line starts with :data:`_PREFIX`, holds no
    backslash (every JSON string on it is literal, so the value ends at
    the next quote), names ``"fingerprint"`` exactly once (no later key
    overrides the first) and the value is strict UTF-8.  Whether the
    line is a valid entry is left to the hit that decodes it.
    """
    if (
        not line.startswith(_PREFIX)
        or b"\\" in line
        or line.count(b'"fingerprint"') != 1
    ):
        return None
    end = line.find(b'"', len(_PREFIX))
    if end < 0:
        return None
    try:
        return line[len(_PREFIX):end].decode("utf-8")
    except UnicodeDecodeError:
        return None


def _decode(line: bytes) -> CacheEntry | None:
    """The entry one stored line holds; None for a blank, torn, non-UTF-8,
    non-object or foreign-version line."""
    if not line.strip():
        return None
    try:
        return CacheEntry.from_json(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, CacheError):
        return None


def _read_shard(
    handle: BinaryIO, index: _ShardIndex, decode_all: bool = False
) -> list[CacheEntry]:
    """Record in ``index`` the offset of each entry on the complete lines
    past ``index.end``; return the entries it decoded, in file order.

    The one reader of shard files.  A line whose fingerprint
    :func:`_prefix_fingerprint` reads is indexed undecoded, unless
    ``decode_all``; every other line is decoded on its own, so a corrupt
    line costs only itself.  A last line without its newline may still
    be being written: it is left for a later read.
    """
    entries = []
    handle.seek(index.end)
    unread = handle.read()
    start = 0
    while end := unread.find(b"\n", start) + 1:
        line = unread[start:end]
        fingerprint = None if decode_all else _prefix_fingerprint(line)
        if fingerprint is None:
            entry = _decode(line)
            if entry is not None:
                fingerprint = entry.fingerprint
                entries.append(entry)
        if fingerprint is not None:
            index.offsets[fingerprint] = index.end + start
        start = end
    index.end += start
    return entries


def _entry_at(
    handle: BinaryIO, offset: int | None, fingerprint: str
) -> CacheEntry | None:
    """The entry for ``fingerprint`` on the line at ``offset``, or None."""
    if offset is None:
        return None
    handle.seek(offset)
    entry = _decode(handle.readline())
    if entry is None or entry.fingerprint != fingerprint:
        return None
    return entry


class MappingCache:
    """The on-disk store (see module docstring for the layout)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._indexes: dict[Path, _ShardIndex] = {}

    def _shard(self, fingerprint: str) -> Path:
        if len(fingerprint) < 2:
            raise CacheError(f"fingerprint {fingerprint!r} too short")
        return self.objects_dir / f"{fingerprint[:2]}.jsonl"

    def _valid_index(
        self, shard: Path, status: os.stat_result
    ) -> _ShardIndex | None:
        """The shard's index when it still describes the open file: same
        inode, and the file did not shrink below what was read."""
        index = self._indexes.get(shard)
        if (
            index is None
            or index.inode != status.st_ino
            or status.st_size < index.end
        ):
            return None
        return index

    def _index(
        self, shard: Path, handle: BinaryIO, decode_all: bool = False
    ) -> _ShardIndex:
        """The shard's index, caught up with the open file first; with
        ``decode_all``, built afresh from every line, decoded."""
        status = os.fstat(handle.fileno())
        index = None if decode_all else self._valid_index(shard, status)
        if index is None:
            index = self._indexes[shard] = _ShardIndex(inode=status.st_ino)
        if status.st_size > index.end:
            _read_shard(handle, index, decode_all)
        return index

    def _unread_miss(
        self, shard: Path, handle: BinaryIO, fingerprint: str
    ) -> bool:
        """Whether the lines the index has not read cannot hold
        ``fingerprint``, which has no stored offset either.

        Reads the complete lines past the index (the whole shard when it
        has no valid index) once, as bytes.  With no backslash there,
        every JSON string is literal, so a line whose fingerprint is
        ``fingerprint`` holds ``json.dumps(fingerprint)`` verbatim; when
        that is absent too, the lookup is a miss.  Nothing is decoded and
        the index is left as it was.
        """
        quoted = json.dumps(fingerprint).encode("utf-8")
        if b"\\" in quoted:
            return False
        status = os.fstat(handle.fileno())
        index = self._valid_index(shard, status)
        if index is not None and fingerprint in index.offsets:
            return False
        start = 0 if index is None else index.end
        if status.st_size <= start:
            return False
        handle.seek(start)
        unread = handle.read(status.st_size - start)
        unread = unread[: unread.rfind(b"\n") + 1]
        return b"\\" not in unread and quoted not in unread

    def get(self, fingerprint: str) -> CacheEntry | None:
        """Latest entry for ``fingerprint``, or None."""
        shard = self._shard(fingerprint)
        try:
            handle = open(shard, "rb")
        except FileNotFoundError:
            self._indexes.pop(shard, None)
            return None
        with handle:
            if self._unread_miss(shard, handle, fingerprint):
                return None
            offset = self._index(shard, handle).offsets.get(fingerprint)
            entry = _entry_at(handle, offset, fingerprint)
            if offset is not None and entry is None:
                # A broken line indexed from its prefix, or a shard
                # rewritten in place: what a full scan finds instead.
                index = self._index(shard, handle, decode_all=True)
                offset = index.offsets.get(fingerprint)
                entry = _entry_at(handle, offset, fingerprint)
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Append ``entry`` to its shard, on a line of its own even when
        a killed writer left the shard's last line torn."""
        append_line(self._shard(entry.fingerprint), entry.to_json())

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def entries(self) -> list[CacheEntry]:
        """All readable entries across shards (latest per fingerprint).

        Reading a shard in full also (re)builds its index."""
        latest: dict[str, CacheEntry] = {}
        for shard in sorted(self.objects_dir.glob("*.jsonl")):
            with open(shard, "rb") as handle:
                index = _ShardIndex(inode=os.fstat(handle.fileno()).st_ino)
                for entry in _read_shard(handle, index, decode_all=True):
                    latest[entry.fingerprint] = entry
            self._indexes[shard] = index
        return list(latest.values())

    def __len__(self) -> int:
        return len(self.entries())

    def stats(self) -> dict[str, Any]:
        """Shape of the store: entry counts by status and disk usage."""
        entries = self.entries()
        by_status: dict[str, int] = {}
        for entry in entries:
            by_status[entry.status] = by_status.get(entry.status, 0) + 1
        disk_bytes = sum(
            shard.stat().st_size for shard in self.objects_dir.glob("*.jsonl")
        )
        return {
            "entries": len(entries),
            "by_status": by_status,
            "disk_bytes": disk_bytes,
            "shards": len(list(self.objects_dir.glob("*.jsonl"))),
        }
