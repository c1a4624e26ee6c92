"""The content-addressed result store: round-trips, robustness, index."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mapper import MapStatus
from repro.mapper.greedy_mapper import GreedyMapper, GreedyMapperOptions
from repro.mapper.serialize import mapping_to_json
from repro.service.cache import (
    CacheEntry,
    CacheError,
    MappingCache,
    entry_from_result,
    result_from_entry,
)

SRC = Path(__file__).resolve().parents[2] / "src"

FP_A = "aa" + "0" * 62
FP_B = "ab" + "0" * 62  # same shard as FP_A
FP_C = "cc" + "0" * 62


def entry(fp=FP_A, **kw):
    defaults = dict(status="mapped", objective=5.0, stage="greedy")
    defaults.update(kw)
    return CacheEntry(fingerprint=fp, **defaults)


class TestStore:
    def test_get_on_empty_store(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        assert cache.get(FP_A) is None
        assert FP_A not in cache
        assert len(cache) == 0

    def test_put_get_round_trip(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry())
        got = cache.get(FP_A)
        assert got is not None
        assert got.status == "mapped" and got.objective == 5.0
        assert got.stage == "greedy"
        assert FP_A in cache

    def test_shard_sharing_keeps_entries_separate(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry(FP_A, objective=1.0))
        cache.put(entry(FP_B, objective=2.0))
        assert cache.get(FP_A).objective == 1.0
        assert cache.get(FP_B).objective == 2.0
        assert len(cache) == 2

    def test_last_writer_wins(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry(objective=1.0))
        cache.put(entry(objective=9.0))
        assert cache.get(FP_A).objective == 9.0
        assert len(cache) == 1  # latest per fingerprint

    def test_corrupt_lines_are_skipped(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry())
        shard = cache.objects_dir / f"{FP_A[:2]}.jsonl"
        with open(shard, "a", encoding="utf-8") as handle:
            handle.write("{truncated json\n")
            handle.write(json.dumps({"version": 99, "fingerprint": FP_A}) + "\n")
        assert cache.get(FP_A).objective == 5.0
        assert len(cache) == 1

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe garbage\n",
            b"[1, 2]\n",
            b'"x"\n',
            b"null\n",
            json.dumps({"version": 1, "fingerprint": [1], "status": "mapped"})
            .encode() + b"\n",
        ],
        ids=["non-utf8", "list", "string", "null", "list-fingerprint"],
    )
    def test_garbled_line_is_skipped_by_every_reader(self, tmp_path, line):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry())
        with open(cache.objects_dir / f"{FP_A[:2]}.jsonl", "ab") as handle:
            handle.write(line)
        cache.put(entry(FP_B, objective=2.0))
        for reader in (cache, MappingCache(tmp_path / "cache")):
            assert reader.get(FP_A).objective == 5.0
            assert reader.get(FP_B).objective == 2.0
            assert len(reader.entries()) == 2
            assert reader.stats()["entries"] == 2

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"x"',
            "null",
            '{"version": 1, "fingerprint": [1], "status": "mapped"}',
        ],
    )
    def test_from_json_rejects_non_entries_with_cache_error(self, text):
        with pytest.raises(CacheError):
            CacheEntry.from_json(text)

    def test_stats(self, tmp_path):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry(FP_A))
        cache.put(entry(FP_C, status="infeasible"))
        info = cache.stats()
        assert info["entries"] == 2
        assert info["by_status"] == {"mapped": 1, "infeasible": 1}
        assert info["disk_bytes"] > 0


class TestResultRoundTrip:
    @pytest.fixture()
    def mapped_result(self, tiny_dfg, mrrg_2x2_ii1):
        result = GreedyMapper(GreedyMapperOptions(seed=3, restarts=4)).map(
            tiny_dfg, mrrg_2x2_ii1
        )
        assert result.status is MapStatus.MAPPED
        return result

    def test_mapping_round_trips(self, tmp_path, tiny_dfg, mrrg_2x2_ii1,
                                 mapped_result):
        cache = MappingCache(tmp_path / "cache")
        cache.put(entry_from_result(FP_A, mapped_result, stage="greedy"))
        restored = result_from_entry(
            cache.get(FP_A), tiny_dfg, mrrg_2x2_ii1
        )
        assert restored.status is MapStatus.MAPPED
        assert restored.objective == mapped_result.objective
        assert restored.mapping.placement == mapped_result.mapping.placement
        assert restored.mapping.routes == mapped_result.mapping.routes

    def test_infeasible_round_trips_without_mapping(self, tiny_dfg,
                                                    mrrg_2x2_ii1):
        from repro.mapper.base import MapResult

        original = MapResult(
            status=MapStatus.INFEASIBLE, proven_optimal=True, detail="proof"
        )
        restored = result_from_entry(
            entry_from_result(FP_A, original), tiny_dfg, mrrg_2x2_ii1
        )
        assert restored.status is MapStatus.INFEASIBLE
        assert restored.proven_optimal
        assert restored.mapping is None

    def test_mismatched_dfg_raises_cache_error(self, tiny_dfg, fanout_dfg,
                                               mrrg_2x2_ii1, mapped_result):
        stored = entry_from_result(FP_A, mapped_result)
        with pytest.raises(CacheError):
            result_from_entry(stored, fanout_dfg, mrrg_2x2_ii1)

    def test_stored_bytes_match_a_json_round_trip(self, mapped_result):
        """The payload writer stores what encoding the mapping and decoding
        it again would: the store format does not depend on the path."""
        stored = entry_from_result(FP_A, mapped_result, stage="greedy")
        via_text = dataclasses.replace(
            stored, mapping=json.loads(mapping_to_json(mapped_result.mapping))
        )
        assert stored.to_json() == via_text.to_json()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda m: [m],
            lambda m: dict(m, placement=sorted(m["placement"].items())),
            lambda m: dict(m, routes=[dict(m["routes"][0], nodes=7)]),
            lambda m: dict(
                m,
                routes=[
                    dict(m["routes"][0], nodes=[{"id": m["routes"][0]["nodes"][0]}])
                ],
            ),
            lambda m: dict(m, routes=[dict(m["routes"][0], operand="x")]),
        ],
        ids=["payload-list", "placement-list", "nodes-int", "node-object", "operand-text"],
    )
    def test_wrong_shape_mapping_raises_cache_error(
        self, tiny_dfg, mrrg_2x2_ii1, mapped_result, corrupt
    ):
        stored = entry_from_result(FP_A, mapped_result)
        assert stored.mapping["routes"], "the shapes below need a route"
        broken = dataclasses.replace(stored, mapping=corrupt(stored.mapping))
        with pytest.raises(CacheError):
            result_from_entry(broken, tiny_dfg, mrrg_2x2_ii1)

    def test_unknown_status_raises_cache_error(self, tiny_dfg, mrrg_2x2_ii1):
        with pytest.raises(CacheError):
            result_from_entry(
                entry(status="exploded"), tiny_dfg, mrrg_2x2_ii1
            )


class TestCertificateRoundTrip:
    def test_certificate_survives_cache(self, tmp_path, tiny_dfg,
                                        mrrg_2x2_ii1):
        from repro.mapper.base import MapResult

        cert = {
            "rule": "B001", "severity": "error", "subject": "x",
            "message": "m", "fatal": True, "ii": 1, "bound": None,
            "certificate": {"ops": ["a", "b"], "units": ["u"]},
        }
        cache = MappingCache(tmp_path / "cache")
        original = MapResult(
            status=MapStatus.INFEASIBLE, proven_optimal=True,
            detail="bounds screen B001", certificate=cert,
        )
        cache.put(entry_from_result(FP_A, original, stage="bounds-screen"))
        entry = cache.get(FP_A)
        assert entry.certificate == cert
        restored = result_from_entry(entry, tiny_dfg, mrrg_2x2_ii1)
        assert restored.certificate == cert

    def test_solver_entries_have_no_certificate(self, tmp_path, tiny_dfg,
                                                mrrg_2x2_ii1):
        from repro.mapper.base import MapResult

        original = MapResult(status=MapStatus.INFEASIBLE, proven_optimal=True)
        entry = entry_from_result(FP_A, original)
        assert entry.certificate is None
        restored = result_from_entry(entry, tiny_dfg, mrrg_2x2_ii1)
        assert restored.certificate is None


# ----------------------------------------------------------------------
# the shard offset index
# ----------------------------------------------------------------------
def full_scan(root, fingerprint):
    """The reference lookup: decode every line of the shard, keep the last
    valid one carrying ``fingerprint``."""
    shard = Path(root) / "objects" / f"{fingerprint[:2]}.jsonl"
    if not shard.exists():
        return None
    found = None
    for line in shard.read_bytes().split(b"\n"):
        try:
            candidate = CacheEntry.from_json(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, CacheError):
            continue
        if candidate.fingerprint == fingerprint:
            found = candidate
    return found


GARBAGE = (
    b"{truncated json\n",
    b"\xff\xfe garbage\n",
    b"[1, 2]\n",
    b'"x"\n',
    b"null\n",
    b"\n",
    json.dumps({"version": 99, "fingerprint": FP_A}).encode() + b"\n",
    b'{"note": "a\\\\b"}\n',
)


def escaped_line(stored: CacheEntry) -> bytes:
    """``stored`` as another writer may encode it: a valid line whose
    fingerprint is spelled in ``\\u`` escapes."""
    spelled = "".join(f"\\u{ord(c):04x}" for c in stored.fingerprint)
    line = stored.to_json().replace(
        json.dumps(stored.fingerprint), f'"{spelled}"'
    )
    assert CacheEntry.from_json(line) == stored
    return line.encode() + b"\n"


def counting_decodes(monkeypatch) -> list[str]:
    """Record every line :meth:`CacheEntry.from_json` is asked to decode."""
    decoded: list[str] = []
    original = CacheEntry.from_json

    def counting(cls, line):
        decoded.append(line)
        return original(line)

    monkeypatch.setattr(CacheEntry, "from_json", classmethod(counting))
    return decoded


class TestShardIndex:
    def test_index_agrees_with_full_scan(self, tmp_path):
        """Random puts, foreign appends (some with escaped fingerprints),
        garbage, torn and completed lines and shrunken shards: every
        lookup equals the full scan, misses on unread shards included."""
        rng = random.Random(20261018)
        root = tmp_path / "cache"
        cache = MappingCache(root)
        other = MappingCache(root)  # a second writer on the same store
        prefixes = ("aa", "bb", "cc")
        shards = [root / "objects" / f"{prefix}.jsonl" for prefix in prefixes]
        seen: set[str] = set()
        torn: dict[Path, bytes] = {}  # shard -> the rest of its torn last line

        def append(shard, data):
            with open(shard, "ab") as handle:
                handle.write(data)

        for step in range(300):
            kind = rng.choice(
                (
                    "put", "put", "other", "escaped", "garbage", "tear",
                    "complete", "shrink",
                )
            )
            # Mostly known fingerprints (last writer wins), some new ones.
            fp = f"{rng.choice(prefixes)}{rng.randrange(step // 10 + 4):062x}"
            shard = root / "objects" / f"{fp[:2]}.jsonl"
            if kind in ("put", "other"):
                writer = cache if kind == "put" else other
                writer.put(entry(fp, objective=float(step)))
                seen.add(fp)
            elif kind == "escaped":
                append(shard, escaped_line(entry(fp, objective=float(step))))
                seen.add(fp)
            elif kind == "garbage":
                append(shard, rng.choice(GARBAGE))
            elif kind == "tear" and shard not in torn:
                line = entry(fp, objective=float(step)).to_json().encode() + b"\n"
                cut = rng.randrange(1, len(line) - 1)
                append(shard, line[:cut])
                torn[shard] = line[cut:]
                seen.add(fp)
            elif kind == "complete" and torn:
                target = rng.choice(sorted(torn))
                append(target, torn.pop(target))
            elif kind == "shrink":
                target = rng.choice(shards)
                if not target.exists():
                    continue
                lines = target.read_bytes().split(b"\n")[:-1]
                if not lines:
                    continue
                dropped = rng.randrange(len(lines))
                kept = b"".join(
                    line + b"\n"
                    for i, line in enumerate(lines)
                    if i != dropped and rng.random() < 0.7
                )
                torn.pop(target, None)
                if rng.random() < 0.5:  # a new file in the shard's place
                    scratch = target.with_suffix(".tmp")
                    scratch.write_bytes(kept)
                    os.replace(scratch, target)
                else:  # the same file, rewritten shorter in place
                    with open(target, "r+b") as handle:
                        handle.write(kept)
                        handle.truncate()
            for fingerprint in sorted(seen):
                assert cache.get(fingerprint) == full_scan(root, fingerprint), (
                    f"step {step} ({kind}): {fingerprint}"
                )
            # A fresh reader has read no shard: its first lookup on each,
            # stored or never stored, must equal the full scan too.
            fresh = MappingCache(root)
            for prefix in prefixes:
                fingerprint = f"{prefix}{rng.randrange(step // 10 + 8):062x}"
                assert fresh.get(fingerprint) == full_scan(root, fingerprint), (
                    f"step {step} ({kind}), unread shard: {fingerprint}"
                )
            if step % 25 == 0:
                listed = {e.fingerprint: e for e in other.entries()}
                scanned = {fp: full_scan(root, fp) for fp in seen}
                assert listed == {k: v for k, v in scanned.items() if v is not None}

    def test_line_moved_in_place_is_found_again(self, tmp_path):
        """Same size, same inode, lines swapped: the stored offset now
        holds another fingerprint, so the shard is indexed afresh."""
        cache = MappingCache(tmp_path / "cache")
        first, second = "aa" + "1" * 62, "aa" + "2" * 62
        cache.put(entry(first, objective=1.0))
        cache.put(entry(second, objective=2.0))
        assert cache.get(first).objective == 1.0
        shard = cache.objects_dir / "aa.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        assert len(lines[0]) == len(lines[1])
        with open(shard, "r+b") as handle:
            handle.write(lines[1] + lines[0])
        assert cache.get(first).objective == 1.0
        assert cache.get(second).objective == 2.0

    def test_shard_replaced_by_a_longer_file_is_indexed_afresh(self, tmp_path):
        """A new file in the shard's place, longer than the old one: only
        its inode tells the index to start over."""
        cache = MappingCache(tmp_path / "cache")
        first, second, third = ("aa" + digit * 62 for digit in "123")
        cache.put(entry(first, objective=1.0))
        assert cache.get(first).objective == 1.0
        shard = cache.objects_dir / "aa.jsonl"
        scratch = shard.with_suffix(".tmp")
        scratch.write_bytes(
            b"".join(
                entry(fp, objective=float(i)).to_json().encode() + b"\n"
                for i, fp in enumerate((second, third, first))
            )
        )
        os.replace(scratch, shard)
        assert cache.get(second).objective == 0.0
        assert cache.get(third).objective == 1.0
        assert cache.get(first).objective == 2.0

    def test_put_after_a_torn_last_line_is_served(self, tmp_path):
        """A writer killed mid-line leaves a fragment without its newline:
        the next put starts on a new line instead of being glued to it."""
        root = tmp_path / "cache"
        cache = MappingCache(root)
        before, torn, after, later = ("aa" + digit * 62 for digit in "1234")
        cache.put(entry(before, objective=1.0))
        assert cache.get(before).objective == 1.0  # the shard is indexed
        with open(cache.objects_dir / "aa.jsonl", "ab") as handle:
            handle.write(entry(torn, objective=2.0).to_json().encode()[:30])
        cache.put(entry(after, objective=3.0))
        for reader in (cache, MappingCache(root)):
            assert reader.get(after).objective == 3.0
            assert reader.get(before).objective == 1.0
            assert reader.get(torn) is None
        cache.put(entry(later, objective=4.0))
        for reader in (cache, MappingCache(root)):
            assert reader.get(later).objective == 4.0
            assert reader.get(after).objective == 3.0
            assert reader.get(before).objective == 1.0
            assert reader.get(torn) is None
            assert sorted(e.fingerprint for e in reader.entries()) == [
                before, after, later
            ]

    def test_indexed_hit_decodes_one_line(self, tmp_path, monkeypatch):
        writer = MappingCache(tmp_path / "cache")
        stored = [f"aa{i:062x}" for i in range(40)]
        for i, fp in enumerate(stored):
            writer.put(entry(fp, objective=float(i)))
        decoded = counting_decodes(monkeypatch)
        cache = MappingCache(tmp_path / "cache")
        assert decoded == []  # nothing is read at construction
        assert cache.get(stored[5]).objective == 5.0
        assert len(decoded) == 41  # the first read indexes the shard
        for i in (7, 39, 0):
            decoded.clear()
            assert cache.get(stored[i]).objective == float(i)
            assert len(decoded) == 1
        decoded.clear()
        assert cache.get("aa" + "f" * 62) is None
        assert decoded == []  # a miss decodes nothing
        writer.put(entry(stored[3], objective=99.0))
        decoded.clear()
        assert cache.get(stored[3]).objective == 99.0
        assert len(decoded) == 2  # the appended line, then the hit
        decoded.clear()
        assert cache.get(stored[3]).objective == 99.0
        assert len(decoded) == 1

    @staticmethod
    def _forty(root) -> list[str]:
        writer = MappingCache(root)
        stored = [f"aa{i:062x}" for i in range(40)]
        for i, fp in enumerate(stored):
            writer.put(entry(fp, objective=float(i)))
        return stored

    def test_miss_on_an_unread_shard_decodes_nothing(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        stored = self._forty(root)
        decoded = counting_decodes(monkeypatch)
        cache = MappingCache(root)
        assert cache.get("aa" + "f" * 62) is None
        assert decoded == []  # the bytes hold no backslash and not the key
        assert cache.get(stored[5]).objective == 5.0
        assert len(decoded) == 41  # a possible hit indexes the shard
        MappingCache(root).put(entry("aa" + "e" * 62, objective=1.0))
        decoded.clear()
        assert cache.get("aa" + "f" * 62) is None
        assert decoded == []  # nor do the lines appended since

    def test_escaped_foreign_fingerprint_is_served(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        stored = self._forty(root)
        foreign = "aa" + "e" * 62
        indexed = MappingCache(root)
        assert indexed.get(stored[0]).objective == 0.0
        with open(root / "objects" / "aa.jsonl", "ab") as handle:
            handle.write(escaped_line(entry(foreign, objective=7.0)))
        decoded = counting_decodes(monkeypatch)
        assert indexed.get(foreign).objective == 7.0
        assert len(decoded) == 2  # the appended line, then the hit
        assert MappingCache(root).get(foreign).objective == 7.0

    def test_backslash_line_forces_the_catch_up(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        self._forty(root)
        with open(root / "objects" / "aa.jsonl", "ab") as handle:
            handle.write(b'{"note": "a\\\\b"}\n')
        decoded = counting_decodes(monkeypatch)
        cache = MappingCache(root)
        assert cache.get("aa" + "f" * 62) is None
        assert len(decoded) == 41  # the shard is indexed as before
        decoded.clear()
        assert cache.get("aa" + "f" * 62) is None
        assert decoded == []

    def test_torn_line_with_the_key_stays_a_miss(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        self._forty(root)
        late = "aa" + "e" * 62
        line = entry(late, objective=3.0).to_json().encode() + b"\n"
        assert json.dumps(late).encode() in line[:-10]
        shard = root / "objects" / "aa.jsonl"
        with open(shard, "ab") as handle:
            handle.write(line[:-10])
        decoded = counting_decodes(monkeypatch)
        cache = MappingCache(root)
        assert cache.get(late) is None
        assert decoded == []  # a line without its newline is not read
        with open(shard, "ab") as handle:
            handle.write(line[-10:])
        assert cache.get(late).objective == 3.0


GOLDEN_SCRIPT = """
from repro.arch.testsuite import paper_architecture
from repro.kernels.registry import kernel
from repro.service import MapRequest, MappingService, PortfolioConfig
from repro.service.fingerprint import fingerprint_request

arch = paper_architecture("homogeneous", "diagonal")
dfg = kernel("mac")
served = MappingService(PortfolioConfig()).map_request(
    MapRequest(dfg=dfg, arch=arch, contexts=1)
)
print(served.fingerprint, fingerprint_request(arch, dfg, 1, PortfolioConfig().describe()))
"""

# Update only when the fingerprint scheme, RULESET_VERSION or the
# PortfolioConfig.describe() document changes on purpose: every store
# written before the change stops being served.
GOLDEN_FINGERPRINT = "43ced86095b6e760cc883ad243f25eee53be15aae2b9731e8b504b048ad59f47"


@pytest.mark.parametrize("hash_seed", [0, 1])
def test_request_fingerprint_is_golden(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", GOLDEN_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    served, direct = proc.stdout.split()
    assert served == direct == GOLDEN_FINGERPRINT
