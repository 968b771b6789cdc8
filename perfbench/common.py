"""State shared by the workloads: the run record and its stamp."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

#: Repository root: the directory holding ``src/`` and ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for caches, journals and server state; removed at exit.
WORK_ROOT = ROOT / "perfbench" / "_work"


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Extra figures printed for people, never part of the JSON result.
    notes: Dict[str, Any] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, **detail: Any) -> None:
        """Record one correctness check; a failing check counts as failed."""
        self.checks.append({"check": name, "ok": bool(ok), **detail})
        self.attempted += 1
        if not ok:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks) and self.failed == 0


def workdir(name: str) -> Path:
    """A fresh scratch directory under :data:`WORK_ROOT`."""
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def self_peak_rss_mb() -> float:
    """This process's high-water resident set, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> Dict[str, Any]:
    """Provenance printed with every run, so a slow clock is visible."""
    import sys

    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from baseline_capture import calibrate
    finally:
        sys.path.pop(0)
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
        "git_sha": git_sha(),
        "calibrate_ops_per_s": round(calibrate(), 1),
    }


#: Probe rate the clock-normalised figures are quoted at: a host whose
#: :class:`SpeedProbe` loop runs this many iterations per CPU second.
REFERENCE_RATE = 10_000_000.0


class SpeedProbe:
    """Interleaved CPU-time samples of a fixed pure-Python loop.

    The host's speed drifts by tens of percent over minutes.  Sampled
    only while the program is idle (between units of work, or just
    before and after a phase), the probe slows down with the host but
    not with the program, so multiplying a time by :attr:`scale`
    (dividing a rate by it) quotes it at :data:`REFERENCE_RATE`.  The
    loop is that of ``benchmarks/baseline_capture.calibrate``, timed in
    thread CPU seconds so that other threads and processes do not count.
    """

    BURST = 30_000

    def __init__(self) -> None:
        self.ops = 0
        self.cpu_s = 0.0

    def sample(self) -> None:
        import time

        acc, d = 0.0, {}
        t0 = time.thread_time()
        for i in range(self.BURST):
            acc += i * 1e-6
            d[i & 63] = acc
        self.cpu_s += time.thread_time() - t0
        self.ops += self.BURST

    @property
    def rate(self) -> float:
        return self.ops / self.cpu_s

    @property
    def scale(self) -> float:
        """This host's speed relative to the reference host."""
        return self.rate / REFERENCE_RATE

    @contextlib.contextmanager
    def around(self, bursts: int = 10) -> Iterator["SpeedProbe"]:
        """Sample *bursts* times just before and just after the block.

        Nothing is sampled while the block runs, so the load the block
        puts on the host cannot move the probe.
        """
        for _ in range(bursts):
            self.sample()
        yield self
        for _ in range(bursts):
            self.sample()
