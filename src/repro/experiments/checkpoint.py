"""Campaign checkpointing: content-addressed, crash-consistent journals.

Long sweeps (Figure 8, robustness, fault campaigns) are exactly the
workloads that must survive partial failure rather than rerun: a journal
turns ``run_many(..., checkpoint=dir)`` into a resumable operation.  Two
pieces:

* :func:`spec_fingerprint` — a SHA-256 over a *canonical payload* of one
  :class:`~repro.experiments.runner.RunSpec` over the same canonical
  task form as the service's query fingerprint
  (:func:`repro.tasks.document.canonical_tasks`): every float is
  rendered ``repr``-exact, tasks are sorted by name, and every
  knob that determines the cell's result participates.  Two specs with
  equal fingerprints produce bit-identical results, so a journal entry
  *is* the answer.  Cells whose scheduler / fault layer / execution
  model are opaque callables cannot be content-addressed and return
  ``None`` — they simply run uncheckpointed.
* :class:`CheckpointJournal` — an append-only JSONL file of completed
  cells.  Each record carries the fingerprint, a pickled result blob,
  and a checksum over the blob; records are flushed and fsynced before
  the cell counts as committed, so a SIGKILL at any instant leaves at
  worst one torn trailing line, which :meth:`~CheckpointJournal.load`
  skips.  A corrupt record degrades to recomputing that cell — never to
  serving a wrong result (checksum mismatch → miss, the cache idiom).
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

from ..durable import AppendLog, ScrubReport, checksum, rewrite, scan
from ..tasks.document import canonical_tasks, num

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner ← checkpoint)
    from .runner import RunSpec

#: Bumped whenever the canonical payload layout or the journal record
#: format changes, so stale journals can never alias a new fingerprint.
#: v2: the payload gained the ``execution`` key (exact vs fast kernel
#: path), so pre-fast-path journals can never satisfy a fast cell.
JOURNAL_VERSION = 2

#: Journal file name inside a checkpoint directory.
JOURNAL_NAME = "journal.jsonl"


def _protocol_payload(obj: Any) -> Optional[Dict[str, Any]]:
    """The ``checkpoint_payload()`` self-description of *obj*, if any.

    The protocol is duck-typed: any callable slot (scheduler factory,
    fault factory) may expose a zero-arg ``checkpoint_payload`` method
    returning a JSON-ready dict that *fully determines* what the factory
    builds.  The dict must carry a ``"factory"`` discriminator so it can
    never alias a plain registry-name scheduler or a described
    :class:`~repro.faults.layer.FaultLayer`.  Anything else — a missing
    method, a non-dict return, a dict without the discriminator — means
    the object stays opaque (``None``).
    """
    describe = getattr(obj, "checkpoint_payload", None)
    if not callable(describe):
        return None
    try:
        payload = describe()
    except Exception:  # noqa: BLE001 - a broken self-description = opaque
        return None
    if not isinstance(payload, dict) or "factory" not in payload:
        return None
    return payload


def _describe_faults(faults: Any) -> Optional[Dict[str, Any]]:
    """Canonical description of a cell's fault layer, or ``None`` if opaque.

    A :class:`~repro.faults.layer.FaultLayer` is content-addressed by its
    seed, its guard configuration, and each injector's type, intensity,
    and (for targeted injectors) task filter — the fields that fully
    determine the injected fault sequence under the PR-1 seeding
    contract.  A zero-arg *factory* is opaque **unless** it implements
    the ``checkpoint_payload()`` protocol — a method returning the
    JSON-ready dict that fully determines what it builds (the scenario
    runner's fault factory does; see
    :meth:`repro.scenarios.runner._FaultFactory.checkpoint_payload`).
    Opaque cells still run, just never from a journal.
    """
    from ..faults.injector import Injector
    from ..faults.layer import FaultLayer

    if faults is None:
        return None
    if not isinstance(faults, FaultLayer):
        return _protocol_payload(faults)  # factory: addressable iff it says so
    injectors = []
    for injector in faults.injectors:
        if type(injector).perturb_demand is not Injector.perturb_demand and (
            getattr(injector, "jobs", None) is not None
        ):
            # ScriptedOverrun-style: the explicit job map is the content.
            extra: Any = sorted(
                (name, num(factor)) for name, factor in injector.jobs.items()
            )
        else:
            tasks = getattr(injector, "tasks", None)
            extra = sorted(tasks) if tasks is not None else None
        injectors.append(
            {
                "type": type(injector).__name__,
                "name": injector.name,
                "intensity": num(injector.intensity),
                "extra": extra,
            }
        )
    guards = faults.guards
    return {
        "seed": int(faults.seed),
        "guards": {
            "overrun_watchdog": bool(guards.overrun_watchdog),
            "sleep_guard": bool(guards.sleep_guard),
            "miss_policy": guards.miss_policy,
        },
        "injectors": injectors,
    }


def canonical_spec_payload(spec: "RunSpec") -> Optional[Dict[str, Any]]:
    """The canonical JSON-ready payload :func:`spec_fingerprint` hashes.

    Returns ``None`` when the spec is not content-addressable (a
    callable scheduler factory or fault-layer factory that does not
    implement ``checkpoint_payload()``, or an execution model whose
    ``repr`` does not pin its parameters).
    """
    scheduler: Any
    if isinstance(spec.scheduler, str):
        scheduler = spec.scheduler
    else:
        # A factory slot (e.g. the scenario runner's per-cell jcl
        # builder) is addressable iff it self-describes; the dict form
        # cannot collide with a registry-name string in canonical JSON.
        scheduler = _protocol_payload(spec.scheduler)
        if scheduler is None:
            return None
    if spec.faults is not None:
        faults = _describe_faults(spec.faults)
        if faults is None:
            return None
    else:
        faults = None
    model = spec.execution_model
    # Models pin themselves via their parameter-complete reprs
    # (``GaussianModel()``, ``BimodalModel(p_short=0.8, spread=0.05)``);
    # a default-object repr (``<... at 0x...>``) is not stable content.
    model_repr = None if model is None else repr(model)
    if model_repr is not None and "0x" in model_repr:
        return None
    spec_proc = spec.spec
    return {
        "v": JOURNAL_VERSION,
        "taskset": spec.taskset.name,
        "tasks": canonical_tasks(spec.taskset),
        "scheduler": scheduler,
        "seed": int(spec.seed),
        "processor": None if spec_proc is None else repr(spec_proc),
        "execution_model": model_repr,
        "duration": None if spec.duration is None else num(spec.duration),
        "on_miss": spec.on_miss,
        "scheduler_overhead": num(spec.scheduler_overhead),
        "faults": faults,
        "record_trace": bool(spec.record_trace),
        "execution": spec.execution,
    }


def spec_fingerprint(spec: "RunSpec") -> Optional[str]:
    """SHA-256 hex digest of one cell's canonical payload — the journal key.

    ``None`` means the cell cannot be content-addressed and must always
    recompute.
    """
    payload = canonical_spec_payload(spec)
    return None if payload is None else checksum(payload)


class CheckpointJournal:
    """Append-only journal of completed campaign cells.

    One JSONL record per committed cell::

        {"v": 2, "fp": "<spec fingerprint>", "sha": "<sha256 of blob>",
         "blob": "<base64 pickled SimulationResult>"}

    Writes and reads follow :mod:`repro.durable` (fsync per record,
    torn-tail guard, tolerant line scan); this class adds the record
    codec and the read policy: a checksum mismatch or an unpicklable
    blob degrades to recomputing that cell, and a later record wins.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_NAME
        self._log = AppendLog(self.path)

    # -- read ----------------------------------------------------------------
    def load(self) -> Dict[str, Any]:
        """Map of fingerprint → result for every intact journal record.

        Later records win (a cell journaled twice — e.g. by overlapping
        campaigns — is content-addressed, so the payloads are identical
        anyway).  Corrupt records are skipped, never trusted.
        """
        results: Dict[str, Any] = {}
        try:
            entries = scan(self.path, _decode_record)
        except OSError:
            return results
        for _, entry in entries:
            if entry is None:
                continue
            fp, payload = entry
            try:
                results[fp] = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - any unpickling failure = miss
                continue
        return results

    def __len__(self) -> int:
        """Number of intact records currently on disk."""
        return len(self.load())

    # -- write ---------------------------------------------------------------
    def record(self, fingerprint: str, result: Any) -> bool:
        """Append one completed cell; returns False if it cannot be stored.

        The record is durable (fsynced) before this returns, so a parent
        killed immediately afterwards still resumes past this cell.  A
        full or read-only disk demotes checkpointing to a no-op (False,
        and nothing of the record on disk); the campaign keeps running.
        """
        try:
            payload = pickle.dumps(result)
        except Exception:  # noqa: BLE001 - unpicklable result: skip journaling
            return False
        return self._log.append(
            {
                "v": JOURNAL_VERSION,
                "fp": fingerprint,
                "sha": hashlib.sha256(payload).hexdigest(),
                "blob": base64.b64encode(payload).decode("ascii"),
            }
        )

    def close(self) -> None:
        """Close the append handle; idempotent."""
        self._log.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _decode_record(record: Dict[str, Any]) -> Optional[Tuple[str, bytes]]:
    """``(fingerprint, pickled result)`` of one intact record, else ``None``.

    The acceptance rules shared by :meth:`CheckpointJournal.load`, GC and
    the scrub: current version, field shapes, and the blob checksum.
    """
    fp = record.get("fp")
    blob = record.get("blob")
    if record.get("v") != JOURNAL_VERSION:
        return None
    if not isinstance(fp, str) or not isinstance(blob, str):
        return None
    try:
        payload = base64.b64decode(blob.encode("ascii"), validate=True)
    except ValueError:
        return None
    if hashlib.sha256(payload).hexdigest() != record.get("sha"):
        return None  # corrupt → miss, never a wrong hit
    return fp, payload


@dataclass(frozen=True)
class JournalGcReport:
    """What ``gc_journal`` found (and, unless dry-run, rewrote)."""

    path: Path
    dry_run: bool
    lines_total: int       #: non-empty lines inspected
    kept: int              #: surviving records (one per fingerprint)
    superseded: int        #: intact records shadowed by a later duplicate
    corrupt: int           #: torn / checksum-mismatched / alien lines
    bytes_before: int
    bytes_after: int

    @property
    def dropped(self) -> int:
        return self.superseded + self.corrupt

    def render(self) -> str:
        action = "would rewrite" if self.dry_run else "rewrote"
        lines = [
            f"journal {self.path}",
            f"  records inspected:  {self.lines_total}",
            f"  kept:               {self.kept}",
            f"  dropped superseded: {self.superseded}",
            f"  dropped corrupt:    {self.corrupt}",
            f"  size:               {self.bytes_before} -> {self.bytes_after} "
            f"bytes ({action})",
        ]
        if self.dry_run:
            lines.append("  dry run: journal left untouched")
        return "\n".join(lines)


def gc_journal(
    directory: Union[str, Path], dry_run: bool = False
) -> JournalGcReport:
    """Compact a checkpoint journal: one intact record per fingerprint.

    The journal is append-only by design, so overlapping campaigns and
    crash-retry loops leave superseded duplicates and the odd torn tail
    behind; GC drops both and rewrites the file atomically
    (:func:`repro.durable.rewrite`), preserving the order in which each
    surviving fingerprint last appeared.  Results are content-addressed,
    so dropping an *earlier* duplicate can never change what
    :meth:`CheckpointJournal.load` returns — later records already won.

    Run it only while no campaign is appending to the journal: a
    concurrent appender's records landing between read and replace
    would be lost.

    ``dry_run=True`` computes the same report without touching the file.
    """
    from ..errors import ConfigurationError

    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"{directory} is not a checkpoint directory")
    path = directory / JOURNAL_NAME
    entries = scan(path, _decode_record)
    bytes_before = path.stat().st_size if entries else 0
    #: fingerprint -> raw line; insertion order re-ordered to "last
    #: appearance" by delete-then-insert, matching load()'s later-wins.
    survivors: Dict[str, bytes] = {}
    superseded = 0
    for line, entry in entries:
        if entry is None:
            continue
        fp = entry[0]
        if fp in survivors:
            superseded += 1
            del survivors[fp]
        survivors[fp] = line
    report = JournalGcReport(
        path=path,
        dry_run=dry_run,
        lines_total=len(entries),
        kept=len(survivors),
        superseded=superseded,
        corrupt=sum(entry is None for _, entry in entries),
        bytes_before=bytes_before,
        bytes_after=sum(len(line) + 1 for line in survivors.values()),
    )
    if entries and not dry_run:
        rewrite(path, survivors.values())
    return report


def scrub_journal(
    directory: Union[str, Path],
    repair: bool = False,
    obs: Any = None,
) -> ScrubReport:
    """Verify every record of a checkpoint journal.

    Applies the exact acceptance rules of :meth:`CheckpointJournal.load`
    line by line (version, field shapes, blob checksum) and reports the
    torn/corrupt remainder as one ``corrupt-records:K`` problem.  With
    ``repair=True`` the journal is rewritten **atomically** keeping only
    intact lines, verbatim and in order — unlike :func:`gc_journal` it
    never drops an intact record, superseded or not, so scrubbing
    commutes with compaction.  A missing journal is a clean no-op.  Like
    GC, repair must not race a live appender.  Totals are counted into
    *obs* as ``scrub.journal.*``.
    """
    path = Path(directory) / JOURNAL_NAME
    report = ScrubReport("journal", path, repair)
    try:
        entries = scan(path, _decode_record)
    except OSError:
        entries = []
    intact = [line for line, entry in entries if entry is not None]
    corrupt = len(entries) - len(intact)
    report.update(scanned=len(entries), intact=len(intact), corrupt=corrupt)
    if corrupt:
        report.problem(path, f"corrupt-records:{corrupt}")
        if repair:
            rewrite(path, intact)
            report["repaired"] = corrupt
    return report.count(obs)
