"""Property tests: a campaign event log always replays its committed prefix.

The event-log counterpart of ``test_journal_properties.py``.  Hypothesis
interleaves the five things that happen to one campaign's event log —
an append, a torn or alien trailing write (a crash mid-append), the
adoption step ``repair_log``, a repair scrub, and a reopen (a restarted
process over the same directory) — and checks the prefix rule the hub's
reconnect contract rests on:

* **The disk replays exactly the committed events.**  ``load_events``
  returns the events appended while the log was clean, in order, at
  every step: tears and the events stranded behind them never show.
* **Repair makes the log appendable again.**  After ``repair_log`` (or
  a repair scrub) the next append extends the prefix without a gap.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import encode
from repro.service.durability import CampaignStore, event_record

CAMPAIGN = "cprop"

#: Crash-shaped garbage: a torn record prefix, a non-JSON line, raw bytes
#: with no newline, an alien version, an intact record with a bad
#: checksum, and an intact record out of sequence.
TEARS = (
    b'{"data":{"cell":9},"kind":"cel',
    b"not json at all\n",
    b"\x00\x80\xfftrailing-binary",
    b'{"data":{},"kind":"cell","seq":1,"sha":"00","v":99}\n',
    b'{"data":{},"kind":"cell","seq":1,"sha":"00","v":1}\n',
    encode(event_record({"seq": 99, "kind": "cell", "data": {}})),
)

_append = st.tuples(st.just("append"), st.integers(0, 3))
_tear = st.tuples(st.just("tear"), st.integers(0, len(TEARS) - 1))
_ops = st.lists(
    st.one_of(
        _append,
        _tear,
        st.tuples(st.just("repair"), st.just(0)),
        st.tuples(st.just("scrub"), st.just(0)),
        st.tuples(st.just("reopen"), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)
_writes = st.lists(st.one_of(_append, _tear), max_size=10)


@settings(max_examples=60, deadline=None)
@given(ops=_ops)
def test_load_events_is_always_the_committed_prefix(ops):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store = CampaignStore(directory)
        committed = []
        clean = True  # nothing but committed events on disk
        for op, arg in ops:
            if op == "append":
                # The hub numbers events after what it replayed from disk.
                event = {"seq": len(committed) + 1, "kind": "cell",
                         "data": {"cell": arg, "n": len(committed)}}
                assert store.append_event(CAMPAIGN, event)
                if clean:
                    committed.append(event)
            elif op == "tear":
                path = store.events_path(CAMPAIGN)
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "ab") as handle:
                    handle.write(TEARS[arg])
                clean = False
            elif op == "repair":
                assert store.repair_log(CAMPAIGN) == committed
                clean = True
            elif op == "scrub":
                report = store.scrub(repair=True)
                assert report["intact"] == len(committed)
                assert store.scrub()["corrupt"] == 0
                clean = True
            else:
                store.close()
                store = CampaignStore(directory)
            assert store.load_events(CAMPAIGN) == committed
        store.close()


@settings(max_examples=40, deadline=None)
@given(ops=_writes, tail=st.integers(1, 4))
def test_appends_after_repair_extend_the_prefix_without_a_gap(ops, tail):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store = CampaignStore(directory)
        seq = 0
        for op, arg in ops:
            if op == "append":
                seq += 1
                store.append_event(CAMPAIGN, {"seq": seq, "kind": "cell", "data": {}})
            else:
                path = store.events_path(CAMPAIGN)
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "ab") as handle:
                    handle.write(TEARS[arg])
        # The adoption flow: the store that repaired the log (its append
        # handle possibly open from before) continues the sequence.
        prefix = store.repair_log(CAMPAIGN)
        for n in range(len(prefix) + 1, len(prefix) + tail + 1):
            assert store.append_event(CAMPAIGN, {"seq": n, "kind": "cell", "data": {}})
        store.close()
        replay = CampaignStore(directory).load_events(CAMPAIGN)
        assert replay[: len(prefix)] == prefix
        assert [e["seq"] for e in replay] == list(range(1, len(prefix) + tail + 1))
