"""Format compatibility: durable state written before the shared log loads.

``fixtures/durable_seed/`` was written by the stores as they were before
they moved onto :mod:`repro.durable`, so existing deployments' checkpoint
and cache directories are pinned here byte for byte:

* ``checkpoint/journal.jsonl`` — three v2 records with plain-dict
  payloads (``cell-a`` journaled twice, the later revision superseding
  the first) and a torn trailing record with no newline;
* ``checkpoint/campaigns/`` — one manifest and an event log of three
  intact events followed by a torn fourth;
* ``cache/`` — two shards, one intact and one whose payload no longer
  matches its envelope checksum.

Every test copies the fixture first: reads and repairs rewrite files.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.durable import encode
from repro.experiments.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    gc_journal,
    scrub_journal,
)
from repro.service.cache import ENVELOPE_VERSION, ResultCache, scrub_cache
from repro.service.durability import (
    EVENT_VERSION,
    MANIFEST_VERSION,
    CampaignStore,
    campaign_key,
    event_record,
)

FIXTURE = Path(__file__).parent / "fixtures" / "durable_seed"


def _fp(name: str) -> str:
    return hashlib.sha256(name.encode("utf-8")).hexdigest()


CAMPAIGN = campaign_key(_fp("scenario"), "exact")
GOOD, BAD = _fp("query-good"), _fp("query-bad")

#: What the seed journal holds: later records win per fingerprint.
JOURNALED = {
    _fp("cell-a"): {"cell": 0, "average_power": 0.5, "revision": 2},
    _fp("cell-b"): {"cell": 1, "average_power": 0.375, "revision": 1},
}

#: The seed event log's intact gapless prefix.
EVENTS = [
    {"seq": 1, "kind": "cell", "data": {"cell": 0, "average_power": 0.5}},
    {"seq": 2, "kind": "cell", "data": {"cell": 1, "average_power": 0.375}},
    {"seq": 3, "kind": "progress", "data": {"done": 2, "total": 3}},
]


@pytest.fixture
def seed(tmp_path):
    return Path(shutil.copytree(FIXTURE, tmp_path / "seed"))


def test_format_versions_are_the_seed_versions():
    assert (JOURNAL_VERSION, EVENT_VERSION, MANIFEST_VERSION, ENVELOPE_VERSION) == (
        2, 1, 1, 1,
    )


class TestJournal:
    def test_loads_the_later_record_per_fingerprint(self, seed):
        assert CheckpointJournal(seed / "checkpoint").load() == JOURNALED

    def test_scrub_and_gc_counts(self, seed):
        checkpoint = seed / "checkpoint"
        scrub = scrub_journal(checkpoint)
        assert (scrub.records, scrub.intact, scrub.corrupt) == (4, 3, 1)
        gc = gc_journal(checkpoint, dry_run=True)
        assert (gc.lines_total, gc.kept, gc.superseded, gc.corrupt) == (4, 2, 1, 1)

        repaired = scrub_journal(checkpoint, repair=True)
        assert repaired.dropped == 1
        gc = gc_journal(checkpoint)
        assert (gc.lines_total, gc.kept, gc.dropped) == (3, 2, 1)
        assert gc.bytes_after == (checkpoint / "journal.jsonl").stat().st_size
        assert CheckpointJournal(checkpoint).load() == JOURNALED

    def test_append_after_the_torn_tail_is_readable(self, seed):
        checkpoint = seed / "checkpoint"
        with CheckpointJournal(checkpoint) as journal:
            assert journal.record(_fp("cell-c"), {"cell": 2})
        assert CheckpointJournal(checkpoint).load() == {
            **JOURNALED,
            _fp("cell-c"): {"cell": 2},
        }


class TestCampaignStore:
    def test_manifest_loads(self, seed):
        manifest = CampaignStore(seed / "checkpoint").load_manifest(CAMPAIGN)
        assert manifest == {
            "v": MANIFEST_VERSION,
            "campaign_id": CAMPAIGN,
            "fingerprint": _fp("scenario"),
            "execution": "exact",
            "cells": 3,
            "meta": {"scenario": "fixture"},
        }

    def test_events_load_to_the_intact_prefix(self, seed):
        store = CampaignStore(seed / "checkpoint")
        assert store.load_events(CAMPAIGN) == EVENTS

    def test_reencoding_reproduces_the_intact_lines(self, seed):
        store = CampaignStore(seed / "checkpoint")
        lines = store.events_path(CAMPAIGN).read_bytes().split(b"\n")
        intact = b"".join(line + b"\n" for line in lines[: len(EVENTS)])
        events = store.load_events(CAMPAIGN)
        assert b"".join(encode(event_record(e)) for e in events) == intact

    def test_scrub_counts_and_repair(self, seed):
        store = CampaignStore(seed / "checkpoint")
        path = store.events_path(CAMPAIGN)
        intact = b"".join(
            line + b"\n" for line in path.read_bytes().split(b"\n")[: len(EVENTS)]
        )
        report = store.scrub()
        assert {k: report[k] for k in (
            "manifests", "manifests_corrupt", "event_logs", "events",
            "events_corrupt", "logs_truncated",
        )} == {
            "manifests": 1, "manifests_corrupt": 0, "event_logs": 1,
            "events": 4, "events_corrupt": 1, "logs_truncated": 0,
        }
        assert report["problems"] == [
            {"path": str(path), "reason": "torn-suffix:1-records"}
        ]
        assert store.repair_log(CAMPAIGN) == EVENTS
        assert path.read_bytes() == intact
        assert store.scrub()["events_corrupt"] == 0


class TestCache:
    def test_scrub_counts(self, seed):
        report = scrub_cache(seed / "cache")
        assert (report.scanned, report.intact, report.corrupt) == (2, 1, 1)
        assert report.problems == [
            {
                "path": str(seed / "cache" / BAD[:2] / f"{BAD}.json"),
                "reason": "checksum-mismatch",
            }
        ]

    def test_intact_entry_hits_and_rotten_entry_misses(self, seed):
        cache = ResultCache(memory_items=0, disk_dir=seed / "cache")
        assert cache.get(GOOD) == {"ok": True, "average_power": 0.5, "misses": 0}
        assert cache.get(BAD) is None
        assert scrub_cache(seed / "cache").corrupt == 0  # the read swept it
