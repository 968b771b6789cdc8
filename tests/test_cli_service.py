"""Smoke tests for ``lpfps serve`` / ``lpfps query``.

The serve tests boot the real CLI in a subprocess (the signal path
cannot be exercised in-process), wait for the announce line, issue one
HTTP query, then deliver SIGTERM and assert a clean, prompt, orphanless
shutdown — the failure mode being guarded is a hung process or leaked
pool workers holding the port.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import main
from repro.service.supervisor import free_port

REPO = pathlib.Path(__file__).resolve().parent.parent
QUERY = {"kind": "energy", "app": "example", "duration": 400.0}


@pytest.fixture()
def server():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        announce = process.stdout.readline()
        assert "serving on http://" in announce, announce
        url = announce.strip().rsplit(" ", 1)[-1]
        yield process, url
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10)


def _post(url: str, request: dict, timeout: float = 60.0) -> dict:
    http_request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps(request).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(http_request, timeout=timeout) as response:
        assert response.status == 200
        return json.loads(response.read().decode())


class TestServe:
    def test_boots_answers_and_stops_on_sigterm(self, server):
        process, url = server

        with urllib.request.urlopen(url + "/v1/health", timeout=30) as response:
            assert response.status == 200

        payload = _post(url, QUERY)
        assert payload["ok"] is True
        assert payload["average_power"] > 0

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        output = process.stdout.read()
        assert "shutdown complete" in output

    def test_no_orphaned_workers_after_shutdown(self, server):
        process, url = server
        _post(url, QUERY)  # force at least one dispatch through the pool
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        # The server was the process-group leader of nothing: any worker
        # it spawned must be gone once it exits.
        orphans = subprocess.run(
            ["ps", "--ppid", str(process.pid), "-o", "pid="],
            capture_output=True,
            text=True,
        ).stdout.strip()
        assert orphans == ""

    def test_sigint_also_exits_cleanly(self, server):
        process, _ = server
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0

    def test_sigterm_drains_in_flight_query(self, server):
        """Graceful drain: SIGTERM mid-query lets the answer land.

        A ~2 s simulation is in flight when SIGTERM arrives; the
        contract is (a) that request still completes with its answer,
        (b) the listener stops taking new connections while it drains,
        (c) the process then exits 0.
        """
        import threading

        process, url = server
        slow = {"kind": "energy", "app": "cnc", "duration": 30_000_000.0}
        answers = []
        worker = threading.Thread(
            target=lambda: answers.append(_post(url, slow, timeout=120.0))
        )
        worker.start()
        time.sleep(0.5)  # let the query reach the broker
        process.send_signal(signal.SIGTERM)

        # The listening socket closes before the drain wait: new
        # connections are refused while the old request finishes.
        refused = False
        for _ in range(100):
            try:
                urllib.request.urlopen(url + "/v1/health", timeout=1)
            except OSError:
                refused = True
                break
            time.sleep(0.05)
        assert refused, "listener kept accepting during drain"

        worker.join(timeout=60)
        assert not worker.is_alive()
        assert answers and answers[0]["ok"] is True
        assert answers[0]["average_power"] > 0

        assert process.wait(timeout=30) == 0
        output = process.stdout.read()
        assert "draining" in output
        assert "shutdown complete" in output


class TestQueryCommand:
    def test_in_process_query(self, capsys):
        assert main([
            "query", "--kind", "energy", "--app", "example",
            "--duration", "400", "--jobs", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["scheduler"] == "lpfps"

    def test_schedulability_query(self, capsys):
        assert main(["query", "--kind", "schedulability", "--app", "cnc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schedulable"] is True

    def test_query_against_live_server(self, server, capsys):
        _, url = server
        assert main([
            "query", "--kind", "rta", "--app", "ins", "--url", url,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_cache_dir_makes_second_call_a_disk_hit(self, tmp_path, capsys):
        argv = [
            "query", "--kind", "energy", "--app", "example",
            "--duration", "400", "--cache-dir", str(tmp_path / "cache"),
            "--jobs", "1",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    @pytest.mark.parametrize("attempts", ["1", "2"])
    def test_dead_endpoint_is_an_error_not_a_traceback(self, attempts, capsys):
        url = f"http://127.0.0.1:{free_port()}"  # nothing listens here
        assert main([
            "query", "--app", "cnc", "--url", url, "--max-attempts", attempts,
        ]) == 1
        assert capsys.readouterr().err.startswith("error: ")
