"""Disk-cache integrity scrubber: detection, quarantine, counters.

The acceptance bar: the scrubber detects 100% of chaos-injected torn or
corrupted entries, repair quarantines them so a later reader sees a miss
(never a wrong hit), and intact entries are never touched.
"""

from __future__ import annotations

import json

from repro.durable import SCRUB_SCHEMA, ScrubReport
from repro.faults.chaos import flip_bytes, tear_file
from repro.obs.registry import Registry
from repro.service.cache import QUARANTINE_DIR, ResultCache, scrub_cache


def _key(i: int) -> str:
    return f"{i:02x}" + "cd" * 31


def _path(root, key):
    return root / key[:2] / f"{key}.json"


def _seed(root, count=6):
    cache = ResultCache(memory_items=0, disk_dir=root)
    keys = [_key(i) for i in range(count)]
    for i, key in enumerate(keys):
        cache.put(key, {"ok": True, "kind": "energy", "cell": i})
    return keys


class TestDetection:
    def test_clean_cache_scrubs_clean(self, tmp_path):
        keys = _seed(tmp_path)
        report = scrub_cache(tmp_path)
        assert report.clean
        assert report["scanned"] == len(keys)
        assert report["intact"] == len(keys)
        assert report["corrupt"] == 0

    def test_missing_directory_is_a_clean_noop(self, tmp_path):
        report = scrub_cache(tmp_path / "never-created")
        assert report.clean and report["scanned"] == 0

    def test_detects_every_chaos_injected_defect(self, tmp_path):
        # One of each failure class the chaos harness can inject, plus
        # hand-made identity defects: detection must be 100%.
        keys = _seed(tmp_path, count=8)
        broken = set()

        tear_file(_path(tmp_path, keys[0]), seed=3)  # torn write
        broken.add(keys[0])
        flip_bytes(_path(tmp_path, keys[1]), count=2, seed=5)  # bit rot
        broken.add(keys[1])
        _path(tmp_path, keys[2]).write_text("")  # unsynced rename corpse
        broken.add(keys[2])
        _path(tmp_path, keys[3]).write_text(json.dumps({"v": 999}))
        broken.add(keys[3])  # wrong envelope version
        # Misfiled: intact envelope under another fingerprint's name.
        donor = _path(tmp_path, keys[4]).read_text()
        _path(tmp_path, keys[5]).write_text(donor)
        broken.add(keys[5])

        report = scrub_cache(tmp_path)
        assert report["scanned"] == len(keys)
        assert report["corrupt"] == len(broken)
        flagged = {p["path"] for p in report["problems"]}
        assert flagged == {str(_path(tmp_path, k)) for k in broken}

    def test_flipped_byte_that_still_parses_is_caught(self, tmp_path):
        # Force the checksum class specifically: mutate the payload
        # inside a re-serialized, perfectly parseable envelope.
        [key] = _seed(tmp_path, count=1)
        document = json.loads(_path(tmp_path, key).read_text())
        document["payload"]["cell"] = 12345
        _path(tmp_path, key).write_text(json.dumps(document))
        report = scrub_cache(tmp_path)
        assert report["corrupt"] == 1
        assert report["problems"][0]["reason"] == "checksum-mismatch"


class TestRepair:
    def test_repair_quarantines_and_reader_misses(self, tmp_path):
        keys = _seed(tmp_path)
        tear_file(_path(tmp_path, keys[0]), seed=1)
        flip_bytes(_path(tmp_path, keys[1]), seed=2)

        report = scrub_cache(tmp_path, repair=True)
        assert report["corrupt"] == 2 and report["repaired"] == 2
        assert not _path(tmp_path, keys[0]).exists()
        assert not _path(tmp_path, keys[1]).exists()
        # Evidence survives in the pen...
        assert len(list((tmp_path / QUARANTINE_DIR).iterdir())) == 2

        # ...and the cache serves misses for the broken keys, intact
        # payloads for the rest — never a wrong hit.
        cache = ResultCache(memory_items=0, disk_dir=tmp_path)
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        for i, key in enumerate(keys[2:], start=2):
            assert cache.get(key) == {"ok": True, "kind": "energy", "cell": i}

    def test_repair_is_idempotent(self, tmp_path):
        keys = _seed(tmp_path)
        tear_file(_path(tmp_path, keys[0]), seed=7)
        first = scrub_cache(tmp_path, repair=True)
        second = scrub_cache(tmp_path, repair=True)
        assert first["repaired"] == 1
        assert second.clean and second["repaired"] == 0
        assert second["scanned"] == len(keys) - 1

    def test_quarantine_dir_is_not_rescanned(self, tmp_path):
        keys = _seed(tmp_path)
        flip_bytes(_path(tmp_path, keys[0]), seed=4)
        scrub_cache(tmp_path, repair=True)
        report = scrub_cache(tmp_path)
        assert report["scanned"] == len(keys) - 1
        assert report.clean

    def test_without_repair_nothing_moves(self, tmp_path):
        keys = _seed(tmp_path)
        tear_file(_path(tmp_path, keys[0]), seed=6)
        report = scrub_cache(tmp_path, repair=False)
        assert report["corrupt"] == 1 and report["repaired"] == 0
        assert _path(tmp_path, keys[0]).exists()


class TestObsAndReport:
    def test_scrub_counters_reach_registry(self, tmp_path):
        keys = _seed(tmp_path)
        tear_file(_path(tmp_path, keys[0]), seed=9)
        registry = Registry()
        scrub_cache(tmp_path, repair=True, obs=registry)
        assert registry.counter_value("scrub.cache.scanned") == len(keys)
        assert registry.counter_value("scrub.cache.intact") == len(keys) - 1
        assert registry.counter_value("scrub.cache.corrupt") == 1
        assert registry.counter_value("scrub.cache.repaired") == 1

    def test_report_document_and_render(self, tmp_path):
        keys = _seed(tmp_path, count=2)
        tear_file(_path(tmp_path, keys[1]), seed=2)
        report = scrub_cache(tmp_path)
        assert isinstance(report, ScrubReport)
        document = json.loads(json.dumps(report))
        assert document["schema"] == SCRUB_SCHEMA
        assert document["kind"] == "cache"
        assert document["scanned"] == 2 and document["corrupt"] == 1
        text = report.render()
        assert "scanned 2" in text and "1 corrupt" in text
