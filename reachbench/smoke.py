#!/usr/bin/env python3
"""Smoke check of the benchmark itself (about two minutes).

    python3 reachbench/smoke.py

Runs every workload for about a second, untraced and traced, and
asserts that:

* every end-to-end metric prints by name with its unit, and the
  traced run prints every per-layer metric;
* the traced run wrote spans for every layer its workload exercises,
  and the three workloads together cover every layer;
* a deliberately wrong expected answer makes a run exit non-zero
  with ``"correct": false``.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SPANS = {
    "point-json": {"graph.read", "pipeline.build", "service.init",
                   "service.call", "protocol.parse", "protocol.encode",
                   "batcher.queue_wait", "serialize.load"},
    "bulk-binary": {"graph.read", "pipeline.build", "service.init",
                    "service.call", "fastkernel.run_frames",
                    "binproto.encode", "protocol.parse",
                    "batcher.queue_wait", "serialize.load"},
    "churn-durable": {"graph.read", "pipeline.build", "service.init",
                      "service.call", "protocol.parse", "protocol.encode",
                      "batcher.queue_wait", "serialize.load",
                      "serialize.save", "durability.journal"},
}


def run(workload: str, trace: int, *extra: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, doc, proc.stderr


def check_metrics(failures: list, label: str, lines: list, doc: dict,
                  expected: tuple) -> None:
    names = {name: unit for name, unit in expected}
    got = doc["metrics"]
    if set(got) != set(names):
        failures.append(f"{label}: metric names differ: "
                        f"{sorted(set(got) ^ set(names))}")
    for name, unit in names.items():
        if got.get(name, {}).get("unit") != unit:
            failures.append(f"{label}: {name} lacks unit {unit}")
        if not any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines):
            failures.append(f"{label}: {name} not printed with its unit")


def main() -> int:
    failures: list[str] = []
    seen: set[str] = set()
    for workload in WORKLOADS:
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            label = f"{workload} trace {trace}"
            code, lines, doc, err = run(workload, trace)
            print(f"{label}: exit {code}", flush=True)
            if code != 0 or doc is None or not doc["correct"]:
                failures.append(f"{label}: exit {code}: {err[-400:]}")
                continue
            check_metrics(failures, label, lines, doc, expected)
            if trace == 1:
                spans = next((json.loads(line.split(" ", 2)[2])
                              for line in lines
                              if line.startswith("# spans ")), {})
                seen.update(spans)
                missing = SPANS[workload] - set(spans)
                if missing:
                    failures.append(f"{label}: no spans for "
                                    f"{sorted(missing)}")
    everything = set().union(*SPANS.values())
    if not everything <= seen:
        failures.append(f"no workload traced {sorted(everything - seen)}")
    code, _, doc, _ = run("point-json", 0, "--corrupt-expected")
    print(f"wrong expectation: exit {code}", flush=True)
    if code == 0 or doc is None or doc["correct"]:
        failures.append("a wrong expected answer did not fail the run")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
