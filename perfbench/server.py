"""Run ``lpfps serve`` as a subprocess the way a deployment would."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: How long a spawn may take to answer its first health probe.
START_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve`` process bound to a free port.

    ``start_s`` is the set-up time: process spawn to the first healthy
    ``GET /v1/health``.
    """

    def __init__(self, root: Path, work: Path, args: List[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        env.pop("PYTHONSTARTUP", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", *args],
            cwd=str(work), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.banner: List[str] = []
        try:
            self.url = self._await_url()
            self._await_health(t0)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - t0

    def _await_url(self) -> str:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.banner.append(line.rstrip())
            if line.startswith("serving on "):
                return line.split()[-1]
        raise RuntimeError("lpfps serve exited early:\n" + "\n".join(self.banner))

    def _await_health(self, t0: float) -> None:
        while True:
            try:
                status, _ = self.get("/v1/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise RuntimeError("lpfps serve never became healthy")
            time.sleep(0.002)

    def get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        try:
            with urllib.request.urlopen(self.url + path, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {}

    def metrics(self) -> Dict[str, float]:
        """``GET /v1/metrics`` flattened to ``{name: value}``."""
        status, payload = self.get("/v1/metrics")
        if status != 200:
            raise RuntimeError(f"/v1/metrics answered {status}")
        flat: Dict[str, float] = {}
        for test in payload["tests"].values():
            for metric in test["metrics"]:
                if isinstance(metric["value"], (int, float)):
                    flat[metric["name"]] = float(metric["value"])
        return flat

    def cpu_s(self) -> float:
        """CPU seconds the server and its reaped children have used.

        Process pools are shut down (and their workers reaped) at the end
        of every batch, so read while the server is idle this covers all
        the work it did.
        """
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        # utime, stime, cutime, cstime are fields 14-17 of stat(5).
        ticks = sum(int(v) for v in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server process's high-water resident set (VmHWM), MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGTERM, drain, and wait; SIGKILL if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

