"""Workload ``fig8-exact``: the paper's Figure-8 sweep on the exact kernel.

Four applications x ten BCET ratios x {fps, lpfps}, clamped-Gaussian
execution times, ``measurement_duration`` horizons, run serially through
``run_many(jobs=1)`` with no checkpoint: the kernel does nearly all the
work, and the service, cache and durability layers do none.  One sweep
draws one seed per cell; the run repeats whole sweeps, each on a new
seed derived from ``--seed``, until ``--seconds`` is spent.
"""

from __future__ import annotations

import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Tuple

from . import layers
from .common import ROOT, Run, SpeedProbe, self_peak_rss_mb, workdir
from .stats import check_digest, percentile

APPS = ("avionics", "ins", "flight_control", "cnc")
POLICIES = ("fps", "lpfps")

#: sha256 of the reference slice's Figure-8 points (see :func:`reference`).
#: It changes only if the simulator's answers change.
REFERENCE_DIGEST = "784247c5a91bb907e62827205d290332899c19fab8bfe6543b3c63cb990696f0"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.common import SpeedProbe
probe = SpeedProbe()
for _ in range(5):
    probe.sample()
t0 = time.perf_counter()
from perfbench.fig8_exact import sweep
sweep({seed})
elapsed = time.perf_counter() - t0
for _ in range(5):
    probe.sample()
print(elapsed * probe.scale)
"""


def sweep(seed: int) -> List[Tuple[str, float, list]]:
    """One Figure-8 sweep: ``(app, ratio, [fps cell, lpfps cell])`` rows."""
    from repro.experiments.figure8 import DEFAULT_RATIOS
    from repro.experiments.runner import RunSpec, measurement_duration
    from repro.power.processor import ProcessorSpec
    from repro.tasks.generation import GaussianModel
    from repro.workloads.registry import get_workload

    spec, model = ProcessorSpec.arm8(), GaussianModel()
    rows = []
    for app in APPS:
        base = get_workload(app).prioritized()
        horizon = measurement_duration(base)
        for ratio in DEFAULT_RATIOS:
            taskset = base.with_bcet_ratio(ratio)
            cells = [
                RunSpec(taskset=taskset, scheduler=policy, seed=seed, spec=spec,
                        execution_model=model, duration=horizon)
                for policy in POLICIES
            ]
            rows.append((app, ratio, cells))
    return rows


def sweep_seed(seed: int, k: int) -> int:
    """The kernel seed of sweep *k* in a run started with ``--seed``."""
    return seed * 1000 + k + 1


def reference() -> List[Dict[str, Any]]:
    """A fixed, seed-independent slice pinned by :data:`REFERENCE_DIGEST`.

    Flight control over the whole BCET sweep with the paper's seeds
    (1, 2, 3), through the public ``run_figure8`` entry point.
    """
    from repro.experiments.figure8 import run_figure8

    result = run_figure8("flight_control", seeds=(1, 2, 3), jobs=1)
    return [
        {"ratio": p.bcet_ratio, "fps": repr(p.fps_power),
         "lpfps": repr(p.lpfps_power), "misses": p.fps_misses + p.lpfps_misses}
        for p in result.points
    ]


def check_row(run: Run, app: str, ratio: float, results: list) -> None:
    """The paper's guarantees on one sweep point."""
    fps, lpfps = results
    run.check(
        f"{app}@{ratio}: no misses, 0 < power <= 1, lpfps <= fps",
        all(not r.deadline_misses and 0.0 < r.average_power <= 1.0
            for r in results)
        and lpfps.average_power <= fps.average_power,
    )


def measure_setup() -> float:
    """Median time for a fresh interpreter to import and build a sweep.

    Each child samples the speed probe around its own set-up and quotes
    the time at the reference clock.
    """
    samples = []
    for k in range(SETUP_REPEATS):
        code = _SETUP_CHILD.format(root=str(ROOT), src=str(ROOT / "src"), seed=k)
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=str(ROOT), capture_output=True,
            text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


def run(seed: int, seconds: float, trace: bool) -> Run:
    from repro.experiments.runner import run_many

    result = Run()
    result.metric("setup_s", measure_setup(), "s")
    pinned = check_digest("reference slice digest", reference(), REFERENCE_DIGEST)
    result.check(pinned["check"], pinned["ok"], actual=pinned["actual"])
    if trace:
        cells = [c for _, _, row in sweep(sweep_seed(seed, 0)) for c in row]
        groups = [[2 * i, 2 * i + 1] for i in range(len(cells) // 2)]
        bodies = [layers.query_body(c) for c in cells]
        docs = [layers.scenario_doc(app, sweep_seed(seed, 0))
                for app in APPS]
        work = workdir("fig8-exact")
        try:
            layers.probe_all(result, work, cells, groups, bodies, docs)
        finally:
            layers.cleanup(work)
        return result

    # Cells are timed in process CPU seconds, so a busy neighbour on a
    # shared host does not read as slow code, and quoted at the reference
    # clock with a speed probe sampled before every cell, so neither does
    # a host whose clock drifted between runs.
    probe = SpeedProbe()
    cell_cpu: List[float] = []
    sim_us = 0.0
    wall = 0.0
    t_start = time.perf_counter()
    k = 0
    while True:
        t_sweep = time.perf_counter()
        for app, ratio, cells in sweep(sweep_seed(seed, k)):
            results = []
            for cell in cells:
                probe.sample()
                c0, t0 = time.process_time(), time.perf_counter()
                results.extend(run_many([cell], jobs=1))
                cell_cpu.append(time.process_time() - c0)
                wall += time.perf_counter() - t0
            sim_us += sum(r.duration for r in results)
            check_row(result, app, ratio, results)
        k += 1
        elapsed = time.perf_counter() - t_start
        # Two sweeps at least: the p90 note needs 100 cells.
        if k >= 2 and elapsed + (time.perf_counter() - t_sweep) > seconds * 1.1:
            break
    cpu = sum(cell_cpu)
    scale = probe.scale
    result.attempted += len(cell_cpu)
    result.metric("peak_rss_mb", self_peak_rss_mb(), "MiB")
    result.metric("sim_us_per_s", sim_us / cpu / scale, "us/s")
    result.metric("ops_per_s", len(cell_cpu) / cpu / scale, "1/s")
    result.notes.update(latency_p50_ms=percentile(cell_cpu, 0.5) * scale * 1e3,
                        latency_p90_ms=percentile(cell_cpu, 0.9) * scale * 1e3,
                        sweeps=k, cells=len(cell_cpu), sweep_cpu_s=round(cpu, 3),
                        sweep_wall_s=round(wall, 3), probe_scale=round(scale, 4),
                        raw_wall_sim_us_per_s=round(sim_us / wall))
    return result

