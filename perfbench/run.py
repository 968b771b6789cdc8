"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload fig8-exact --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("fig8-exact", "service-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import common, fig8_exact, service_mix

    module = {"fig8-exact": fig8_exact, "service-mix": service_mix}[args.workload]
    stamp = common.env_stamp()
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)
    t0 = time.perf_counter()
    try:
        run = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report and fail the run, never hang
        traceback.print_exc()
        return 1
    finally:
        if common.WORK_ROOT.is_dir() and not any(common.WORK_ROOT.iterdir()):
            shutil.rmtree(common.WORK_ROOT, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"wall {time.perf_counter() - t0:.2f} s")
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"  {name:<42} {value:>16.6g} {unit}")
    for name, value in sorted(run.notes.items()):
        print(f"  note {name} = {value}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in wanted
             if run.metrics.get(m["name"], (0.0, None))[1] != m["unit"]]
    if wrong:
        print(f"error: metrics missing or in the wrong unit: {wrong}", file=sys.stderr)
        return 1
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  failed_ratio = {ratio:.6g} ({run.failed} of {run.attempted})")
    for check in run.checks:
        if not check["ok"]:
            print("  FAILED CHECK " + json.dumps(check, sort_keys=True, default=str))
    print(json.dumps({
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
