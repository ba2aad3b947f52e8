#!/usr/bin/env python3
"""Reachability-service benchmark: one command, three workloads.

    python3 reachbench/run.py --workload point-json --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  Each run builds its seeded inputs,
launches ``repro-reach serve`` from the checkout's ``src`` as a
subprocess, drives it in a closed loop, checks every answer against
its own oracle, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
Exits 1 on any wrong answer and 2 when it cannot run at all.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("point-json", "bulk-binary", "churn-durable"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="flip one expected answer (the smoke check "
                         "uses this to prove wrong answers fail a run)")
    return ap.parse_args(argv)


def report(bench, inputs, trace: int, metrics: dict, host: dict,
           spans: dict) -> None:
    print(f"# workload {bench.workload}  seed {bench.seed}  "
          f"seconds {bench.seconds:g}  trace {trace}")
    print(f"# inputs {json.dumps(inputs.describe)}")
    print(f"# host {json.dumps(host)}")
    if spans:
        print(f"# spans {json.dumps(spans)}")
    tally = bench.tally
    print(f"# operations attempted {tally.attempted}  failed "
          f"{tally.failed}  {json.dumps(tally.kinds)}")
    for detail in tally.wrong:
        print(f"# WRONG: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness as H
    import workloads as W

    bench = W.Bench(ROOT, args.workload, args.seed, args.seconds,
                    args.corrupt_expected)
    spans = {}
    try:
        inputs = bench.make_inputs()
        calib = H.calibrate()
        if args.trace == 0:
            plain = bench.run_pass(inputs, launches=W.SETUP_LAUNCHES)
            values = bench.end_to_end(plain, inputs)
            units = dict(W.END_TO_END)
        else:
            plain = bench.run_pass(inputs, launches=1)
            traced = bench.run_pass(inputs, launches=1,
                                    spans_out=bench.work / "spans.json")
            # The floor's answers are unchecked and not the program's,
            # so its operations stay out of the row's tally.
            floor = bench.run_pass(inputs, launches=1, floor=True,
                                   tally=H.Tally())
            values = bench.per_layer(
                plain, traced, floor, bench.end_to_end(plain, inputs),
                bench.end_to_end(traced, inputs), calib)
            units = dict(W.PER_LAYER)
            for name, _, count, *_ in traced.spans["buckets"]:
                spans[name] = spans.get(name, 0) + count
    except H.WrongAnswer as exc:
        bench.tally.fail("wrong", str(exc))
        values, units = {}, {}
    except H.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.cleanup()
    from repro.core.fastkernel import compiled_available
    main_win = plain.main.window if values else None
    host = {
        "affinity": {"driver": bench.driver_cpu,
                     "server": bench.server_cpu},
        "steal_share": ([round(w.steal_share, 4) for w in
                         (plain.lone.window, main_win)] if values else []),
        "driver_cpu_share": (round(main_win.driver_cpu / main_win.wall, 4)
                             if values else None),
        "fastkernel": "compiled" if compiled_available() else "pure",
        "calib_ns": round(calib, 3) if values else None,
        "sha": H.git_sha(ROOT),
    }
    metrics = {name: (values[name], units[name]) for name in units}
    report(bench, inputs, args.trace, metrics, host, spans)
    correct = not bench.tally.kinds.get("wrong")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
