"""A refused append leaves nothing on disk.

Both durable appenders (the cell journal and the campaign event log)
report a refused write as ``False``.  That answer must stay true: no
byte of the refused record may reach the disk later, for instance as a
buffered remainder flushed by the next append.  Otherwise a campaign's
disk replay shows a cell no subscriber ever saw, and a journal record
its writer was told failed comes back on resume.

The refusal is real, not mocked: ``RLIMIT_FSIZE`` caps the file size
with ``SIGXFSZ`` ignored, so the kernel fails the write with ``EFBIG``
part-way through the record.
"""

from __future__ import annotations

import contextlib
import signal

import pytest

from repro.errors import ServiceError
from repro.experiments.checkpoint import CheckpointJournal
from repro.service.durability import CampaignStore
from repro.service.stream import CampaignHub

resource = pytest.importorskip("resource")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGXFSZ"), reason="needs POSIX file-size limits"
)


@contextlib.contextmanager
def file_size_cap(limit: int):
    """Cap every file this process writes at *limit* bytes."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def test_disk_replay_equals_live_view_after_a_refused_event(tmp_path):
    store = CampaignStore(tmp_path)
    hub = CampaignHub(store=store)
    campaign_id = hub.create({}, campaign_id="ccap")
    hub.publish(campaign_id, "cell", {"cell": 0})
    size = store.events_path(campaign_id).stat().st_size
    # Room for the short terminal error record, not for the bulky cell:
    # the cell's write fails part-way, and the hub then journals the
    # error under the same sequence number.
    with file_size_cap(size + 1024):
        with pytest.raises(ServiceError, match="durability lost"):
            hub.publish(campaign_id, "cell", {"cell": 1, "pad": "x" * 3000})
    store.close()

    live, done = hub.events_since(campaign_id)
    assert done
    assert [(e["seq"], e["kind"]) for e in live] == [(1, "cell"), (2, "error")]
    replay = CampaignStore(tmp_path).load_events(campaign_id)
    assert replay == live


def test_refused_journal_record_never_loads(tmp_path):
    with CheckpointJournal(tmp_path) as journal:
        assert journal.record("kept", {"cell": 0})
        size = journal.path.stat().st_size
        with file_size_cap(size + 100):
            refused = journal.record("refused", {"pad": "y" * 3000})
        assert refused is False
        assert journal.record("later", {"cell": 2})
    assert CheckpointJournal(tmp_path).load() == {
        "kept": {"cell": 0},
        "later": {"cell": 2},
    }
    assert b"refused" not in journal.path.read_bytes()
