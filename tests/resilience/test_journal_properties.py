"""Property tests: journal maintenance never loses a committed cell.

ISSUE 10 satellite S6.  Hypothesis drives random interleavings of the
four things that ever happen to a checkpoint journal — a committed cell,
a torn/alien trailing write (a crash mid-append), a GC compaction, and
an integrity scrub — and checks the two invariants the durable-campaign
stack is built on:

* **No committed cell is ever dropped.**  Tears only ever damage the
  record being appended; every previously committed cell must load with
  its exact payload after any maintenance sequence.
* **Maintenance is idempotent.**  A second GC drops nothing; a second
  repair-scrub finds nothing corrupt and leaves the bytes untouched.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import (
    CheckpointJournal,
    gc_journal,
    scrub_journal,
)

#: Crash-shaped garbage an append can leave behind: a torn JSON prefix,
#: a non-JSON line, raw bytes without a newline, and an intact line of
#: an alien journal version (dropped by the reader, culled by GC).
TEARS = (
    b'{"v": 2, "fp": "torn-',
    b"not json at all\n",
    b"\x00\x80\xfftrailing-binary",
    b'{"v": 99, "fp": "alien", "sha": "00", "blob": "AA=="}\n',
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(0, 5)),
        st.tuples(st.just("tear"), st.integers(0, len(TEARS) - 1)),
        st.tuples(st.just("gc"), st.just(0)),
        st.tuples(st.just("scrub"), st.just(0)),
    ),
    min_size=1,
    max_size=12,
)


def _apply(directory: Path, ops):
    """Run one op sequence; returns the model of committed cells."""
    committed = {}
    revision = 0
    for op, arg in ops:
        if op == "commit":
            revision += 1
            fingerprint = f"cell-{arg}"
            value = {"cell": arg, "revision": revision}
            with CheckpointJournal(directory) as journal:
                assert journal.record(fingerprint, value)
            committed[fingerprint] = value
        elif op == "tear":
            path = directory / "journal.jsonl"
            directory.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as handle:
                handle.write(TEARS[arg])
        elif op == "gc":
            gc_journal(directory)
        else:
            scrub_journal(directory, repair=True)
    return committed


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_no_committed_cell_is_ever_dropped(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        committed = _apply(directory, ops)
        loaded = CheckpointJournal(directory).load()
        for fingerprint, value in committed.items():
            assert loaded.get(fingerprint) == value


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_gc_and_scrub_are_idempotent(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        committed = _apply(directory, ops)
        path = directory / "journal.jsonl"

        scrub_journal(directory, repair=True)
        bytes_after_scrub = path.read_bytes() if path.exists() else b""
        again = scrub_journal(directory, repair=True)
        assert again["corrupt"] == 0
        assert (path.read_bytes() if path.exists() else b"") == bytes_after_scrub

        first_gc = gc_journal(directory)
        assert first_gc.kept == len(committed)
        second_gc = gc_journal(directory)
        assert second_gc.dropped == 0
        assert second_gc.kept == first_gc.kept

        # And the maintenance pass itself never lost a commit.
        loaded = CheckpointJournal(directory).load()
        assert {
            fp: {"cell": v["cell"], "revision": v["revision"]}
            for fp, v in loaded.items()
        } == committed


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_scrub_report_accounts_for_every_line(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        _apply(directory, ops)
        report = scrub_journal(directory)  # report-only
        assert report["scanned"] == report["intact"] + report["corrupt"]
        assert report["repaired"] == 0  # without repair nothing is touched
