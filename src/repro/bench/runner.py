"""Experiment runner CLI: ``python -m repro.bench run <experiment>``.

Runs a paper experiment at full or reduced scale, prints the markdown
table, and optionally saves markdown/CSV to a results directory.
``list`` names the experiments and ``claims`` grades the paper-fidelity
claims.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.bench.charts import experiment_chart
from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.bench.reporting import format_csv, format_markdown_table

__all__ = ["main", "run_experiment", "scaled_overrides"]


def scaled_overrides(name: str, scale: str) -> dict:
    """Parameter overrides implementing the ``--scale`` presets.

    ``paper`` is the empty override (function defaults are paper scale);
    ``quick`` shrinks graphs and query counts so every experiment
    finishes in seconds.
    """
    if scale == "paper":
        return {}
    if scale != "quick":
        raise ValueError(f"unknown scale {scale!r}")
    quick: dict[str, dict] = {
        "fig8": {"n": 400, "edge_counts": range(420, 800, 90),
                 "num_queries": 5000},
        "fig9": {"n": 400, "edge_counts": range(420, 800, 90),
                 "num_queries": 5000},
        "fig10": {"n": 400, "edge_counts": range(420, 800, 90),
                  "num_queries": 5000},
        "fig11": {"sizes": (200, 400, 600), "num_queries": 5000},
        "fig12": {"n": 400, "edge_counts": range(420, 640, 40)},
        "fig13": {"n": 400, "edge_counts": range(420, 640, 40),
                  "num_queries": 5000},
        "fig14": {"n": 2000, "edge_counts": (2100, 2400, 2800)},
        "table2": {"num_queries": 5000, "names": ("HpyCyc", "XMark")},
        "ablation_meg": {"n": 400, "edge_counts": (450, 550, 700)},
        "ablation_tlc": {"n": 400, "edge_counts": (450, 550, 700),
                         "num_queries": 5000},
        "amortization": {"n": 400, "num_queries": 3000},
        "latency_tails": {"n": 400, "num_queries": 3000},
    }
    return quick.get(name, {})


def run_experiment(name: str, scale: str = "paper",
                   **overrides) -> ExperimentResult:
    """Run one registered experiment with optional overrides."""
    try:
        func = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; available: {known}"
                       ) from None
    params = scaled_overrides(name, scale)
    params.update(overrides)
    return func(**params)


def _save(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = result.column_order()
    markdown = format_markdown_table(result.rows, columns,
                                     title=result.title)
    if result.notes:
        markdown += f"\n\n> {result.notes}\n"
    (out_dir / f"{result.name}.md").write_text(markdown, encoding="utf-8")
    (out_dir / f"{result.name}.csv").write_text(
        format_csv(result.rows, columns), encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment name")
    run.add_argument("--scale", choices=("paper", "quick"), default="paper",
                     help="paper-scale parameters or a quick smoke run")
    run.add_argument("--out", type=Path, default=None,
                     help="directory to save markdown/CSV results")
    run.add_argument("--chart", action="store_true",
                     help="also print an ASCII chart of the main series")

    sub.add_parser("list", help="list available experiments")

    claims = sub.add_parser(
        "claims", help="grade the paper-fidelity claims (PASS/FAIL)")
    claims.add_argument("--scale", choices=("paper", "quick"),
                        default="quick")

    args = parser.parse_args(argv)
    if args.command == "claims":
        from repro.bench.claims import run_claims

        verdicts = run_claims(scale=args.scale)
        for verdict in verdicts:
            print(verdict.summary())
        failed = sum(1 for v in verdicts if not v.passed)
        print(f"\n{len(verdicts) - failed}/{len(verdicts)} fidelity "
              f"claims hold at scale={args.scale}")
        return 1 if failed else 0
    if args.command == "list":
        for name, func in sorted(EXPERIMENTS.items()):
            doc = (func.__doc__ or "").strip().splitlines()[0]
            print(f"{name:14s} {doc}")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment]
    for name in names:
        started = time.perf_counter()
        result = run_experiment(name, scale=args.scale)
        elapsed = time.perf_counter() - started
        print(format_markdown_table(result.rows, result.column_order(),
                                    title=result.title))
        if args.chart:
            chart = experiment_chart(result)
            if chart:
                print()
                print(chart)
        if result.notes:
            print(f"\n> {result.notes}")
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")
        if args.out is not None:
            _save(result, args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
