"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest-mix --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the traced pass, prints the
per-layer metrics and writes the JSONL trace and the per-layer table
under ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 when the run completed, even if outputs were wrong
(``correct`` says so), and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.bench import RunResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas_threads() -> None:
    """One BLAS thread, so the run is one thread; must precede numpy's import.

    On a shared host a second thread adds a second core's contention to
    every numpy kernel, which waits for its slower thread.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"


def _format(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def render_lines(result: RunResult, trace: int) -> list[str]:
    """The human-readable report: properties, one line per metric, notes."""
    lines = [f"perfbench {result.workload} seed={result.seed} trace={trace}"]
    lines += [f"property {key} {_format(value)}" for key, value in result.properties.items()]
    width = max(len(name) for name in result.metrics)
    lines += [
        f"metric {name.ljust(width)} {value!r} {unit}"
        for name, (value, unit) in result.metrics.items()
    ]
    lines += result.report
    lines += [f"problem {problem}" for problem in result.problems]
    return lines


def summary(result: RunResult) -> dict[str, object]:
    """The result object printed as the last line of standard output."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import run_traced, run_untraced
    from perfbench.ops import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    if args.trace:
        result = run_traced(args.workload, args.seed, out_dir)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)

    lines = render_lines(result, args.trace)
    print("\n".join(lines))
    if args.trace:
        table = out_dir / f"{result.workload}-seed{result.seed}.layers.txt"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"per-layer table: {table}")
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
