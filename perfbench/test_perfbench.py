"""Tests of the benchmark itself, on a small community.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.recommender import SemanticWebRecommender

from perfbench.bench import (
    END_TO_END_UNITS,
    SAMPLES,
    TAIL_QUERIES,
    run_traced,
    run_untraced,
    sample_ordinals,
    tail_percentile,
    tail_value,
    window_means,
)
from perfbench.community import Scale, make_records
from perfbench.host import HostProbe
from perfbench.layers import LAYER_UNITS
from perfbench.ops import WORKLOADS, OpStream
from perfbench.run import render_lines, summary

ROOT = Path(__file__).resolve().parent.parent
SMALL = Scale(agents=120, products=240, clusters=4, topics=150)
WORK_COUNTS = (
    "models.ratings_of_calls",
    "neighborhood.peers",
    "trust.packs",
    "trust.appleseed_sweeps",
    "similarity.rows_scored",
    "similarity.rows_pruned",
    "profiles.builds",
)


def _declared() -> dict[str, str]:
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        metric["name"]: metric["unit"]
        for metric in document["end_to_end"] + document["per_layer"]
    }


@pytest.mark.parametrize("workload", ["hybrid-query", "ingest-mix"])
def test_same_seed_gives_same_operations_and_results(workload: str) -> None:
    first = run_untraced(workload, 5, 0.0, scale=SMALL, max_ops=16)
    second = run_untraced(workload, 5, 0.0, scale=SMALL, max_ops=16)
    other = run_untraced(workload, 6, 0.0, scale=SMALL, max_ops=16)
    assert first.ops == second.ops
    assert first.digest == second.digest
    assert first.ops != other.ops
    assert first.failed == 0 and first.correct


@pytest.mark.parametrize("seed", range(1, 7))
def test_skipped_invalidation_fails_ingest_mix(
    monkeypatch: pytest.MonkeyPatch, seed: int
) -> None:
    monkeypatch.setattr(
        SemanticWebRecommender, "invalidate_cache", lambda self, agent=None: None
    )
    result = run_untraced("ingest-mix", seed, 0.0, scale=SMALL, max_ops=4)
    assert result.failed > 0
    assert not result.correct


@pytest.mark.parametrize("seed", range(1, 21))
def test_ingest_mix_samples_follow_new_ratings(seed: int) -> None:
    records = make_records(SMALL)
    workload = WORKLOADS["ingest-mix"]
    sampled = sample_ordinals(workload, seed, records)
    assert len(sampled) == SAMPLES
    stream = OpStream(workload, seed, records)
    previous = {}
    for query in range(1, max(sampled) + 1):
        write = next(stream)
        assert next(stream).kind == "query"
        previous[query] = write
    for ordinal in sampled:
        assert previous[ordinal].kind == "rating" and previous[ordinal].new


def test_written_values_come_from_the_records() -> None:
    records = make_records(SMALL)
    stream = OpStream(WORKLOADS["ingest-mix"], 3, records)
    writes = [op for op in (next(stream) for _ in range(400)) if op.is_write]
    assert {op.value for op in writes if op.kind == "rating"} <= {
        value for _, _, value in records.ratings
    }
    assert {op.value for op in writes if op.kind == "trust"} <= {
        value for _, _, value in records.trust
    }
    assert any(not op.new for op in writes) and any(op.new for op in writes)


def test_printed_metrics_are_declared_with_units(tmp_path: Path) -> None:
    declared = _declared()
    assert {**END_TO_END_UNITS, **LAYER_UNITS} == declared
    runs = [
        (run_untraced("ingest-mix", 2, 0.0, scale=SMALL, max_ops=16), 0),
        (run_traced("ingest-mix", 2, tmp_path, scale=SMALL, ops=16), 1),
    ]
    for result, trace in runs:
        printed = {
            line.split()[1]: line.split()[3]
            for line in render_lines(result, trace)
            if line.startswith("metric ")
        }
        last = json.loads(json.dumps(summary(result)))
        assert printed == {name: m["unit"] for name, m in last["metrics"].items()}
        assert all(declared[name] == unit for name, unit in printed.items())


def test_traced_work_counts_repeat_and_attribute(tmp_path: Path) -> None:
    hybrid = run_traced("hybrid-query", 3, tmp_path, scale=SMALL, ops=8)
    again = run_traced("hybrid-query", 3, tmp_path, scale=SMALL, ops=8)
    cf = run_traced("cf-query", 3, tmp_path, scale=SMALL, ops=8)
    for name in WORK_COUNTS:
        assert hybrid.metrics[name] == again.metrics[name]
    assert hybrid.metrics["trust.packs"][0] == 1.0
    assert hybrid.metrics["models.ratings_of_calls"][0] == pytest.approx(
        hybrid.metrics["neighborhood.peers"][0] + 1.0
    )
    assert cf.metrics["trust.packs"][0] == 0.0
    assert cf.metrics["models.ratings_of_calls"][0] <= 21.0
    assert (tmp_path / "hybrid-query-seed3.trace.jsonl").is_file()
    assert hybrid.correct and cf.correct


def test_tail_keeps_ten_samples_beyond() -> None:
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(100) == 90.0
    assert sum(1 for v in values if v > tail_value(values, 100)) == 10
    # More samples than the count: the same percentile, more beyond it.
    assert tail_value(values, 50) == 80.0
    # Fewer than 21: the upper median.
    assert tail_value(values[:15], 15) == 8.0
    assert tail_value(values[:16], 16) == 9.0
    assert tail_percentile(16) == 900.0 / 16


def test_tail_percentile_is_fixed_per_workload() -> None:
    result = run_untraced("hybrid-query", 4, 0.0, scale=SMALL)
    count = TAIL_QUERIES["hybrid-query"]
    assert result.properties["query_samples"] >= count
    percentile = tail_percentile(count)
    assert result.properties["query_tail_percentile"] == pytest.approx(percentile, abs=0.01)
    assert 0.0 < result.metrics["peak_rss_mb"][0]


def test_timings_are_scaled_by_the_host_probe(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(HostProbe, "factor", lambda self: 2.0)
    result = run_untraced("cf-query", 2, 0.0, scale=SMALL, max_ops=30)
    assert result.properties["host_factor"] == 2.0
    for name in ("query_p50_ms", "query_tail_ms"):
        raw = result.properties[f"raw_{name}"]
        assert result.metrics[name][0] == pytest.approx(raw / 2.0)
    raw_rate = result.properties["raw_ops_per_s"]
    assert result.metrics["ops_per_s"][0] == pytest.approx(raw_rate * 2.0)
    assert result.properties["query_tail_percentile"] == 90.0


def test_window_means_average_the_probes_near_each_time() -> None:
    times = [0.0, 1.0, 2.0, 10.0]
    values = [1.0, 2.0, 3.0, 8.0]
    assert window_means(times, values, 1.5) == [1.5, 2.0, 2.5, 8.0]


def test_command_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = ["perfbench/run.py", "--workload", "cf-query", "--seed", "1", "--seconds", "1"]
    completed = subprocess.run(
        [sys.executable, *command, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
