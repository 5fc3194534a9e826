"""One benchmark run: set-up, the closed-loop client, checks and metrics.

:func:`run_untraced` measures the end-to-end metrics with tracing off;
its operation times are scaled by the host factor probed before each
(:mod:`perfbench.host`), and the raw figures are kept as properties.
:func:`run_traced` runs a fixed number of operations on two fresh
systems, one untraced and one traced, interleaved op by op, and derives
the per-layer metrics from the trace; a fixed count is what makes its
work counts repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.models import Rating, TrustStatement
from repro.core.recommender import Recommendation
from repro.obs import (
    MetricsRegistry,
    Stopwatch,
    Tracer,
    collecting,
    get_tracer,
    render_top,
    tracing,
)
from repro.obs.profile import build_tree, walk_tree

from .checks import invariant_problems, reference_problems, unobserved
from .community import BENCH_SCALE, Records, Scale, System, build_system, make_records
from .host import HostProbe
from .layers import LAYER_UNITS, instrument, layer_metrics
from .ops import LIMIT, WORKLOADS, Op, OpStream, Workload

__all__ = [
    "END_TO_END_UNITS",
    "TAIL_QUERIES",
    "WARMUP_QUERIES",
    "PeakRss",
    "RunResult",
    "run_traced",
    "run_untraced",
    "sample_ordinals",
    "tail_percentile",
    "tail_value",
    "window_means",
]

#: Every end-to-end metric with its unit, in report order.
END_TO_END_UNITS: dict[str, str] = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-ups per untraced run; ``setup_s`` is their median.  Five instead
#: of three left its ten-seed spread as wide (0.31 against 0.20-0.25):
#: the host's speed drifts over minutes, longer than a run.
SETUP_REPEATS = 3

#: Queries per run recomputed by the references, and the query
#: ordinals (1-based) they are drawn from.  On a workload that writes,
#: only queries that follow a new rating are drawn (see
#: :func:`sample_ordinals`), and the window grows until it holds enough.
SAMPLES = 2
SAMPLE_ORDINALS = range(2, 8)

#: Queries an untraced run holds at least: it lasts until it has them.
#: ``query_tail_ms`` is the percentile :func:`tail_percentile` gives for
#: this count, taken over all of the run's queries, so every run of a
#: workload reports the same percentile with at least ten samples beyond
#: it, whatever its speed.  On ``cf-query`` that is p90: a 40-second run
#: holds some 2,000 queries, whose p99 is set by a score of one-off
#: stalls and p95 still by stalls the host probe misses (ten seeds put
#: it 0.12 of its median apart), while p90 is set by the costliest
#: principals.  A run of the one-second workloads holds too
#: few queries for a percentile with ten beyond it to lie above the
#: median; there the tail is the upper median of 22, the 54.5th
#: percentile.
TAIL_QUERIES = {"hybrid-query": 22, "cf-query": 100, "ingest-mix": 22}

#: Untimed queries an untraced run issues between set-up and its first
#: operation, so that lazy set-up and the CPU caches are warm when
#: timing starts.  Their principals come from a stream of their own, so
#: the timed operations are the same with or without them.
WARMUP_QUERIES = {"hybrid-query": 1, "cf-query": 50, "ingest-mix": 1}

#: An operation's host factor is the mean factor of the probes taken
#: within this many seconds of its own (see :mod:`perfbench.host`).  At
#: one moment the host reads fast or slow, flipping within a second or
#: two, so one probe says little about a one-second query; the mean over
#: a few seconds estimates the share of slow time around it.
FACTOR_WINDOW_S = 5.0

#: Operations of each pass of a traced run.
TRACE_OPS = {"hybrid-query": 8, "cf-query": 200, "ingest-mix": 16}


def _tail_rank(count: int) -> int:
    return max(count - 10, count // 2 + 1)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten of *count* samples beyond it.

    By nearest rank.  Ten beyond need 21 samples for the percentile to
    lie above the median; below that the upper median's percentile is
    returned, so the tail never reads below the median.
    """
    return 100.0 * _tail_rank(count) / count


def tail_value(values: list[float], count: int) -> float:
    """:func:`tail_percentile` of *count* applied to *values*, by nearest rank.

    With at least *count* values, at least ten lie beyond the result.
    """
    ordered = sorted(values)
    rank = -(-len(ordered) * _tail_rank(count) // count)
    return ordered[max(rank, 1) - 1]


def window_means(times: list[float], values: list[float], half_width: float) -> list[float]:
    """For each of the ascending *times*, the mean of the *values* whose
    times lie within *half_width* of it."""
    prefix = [0.0]
    for value in values:
        prefix.append(prefix[-1] + value)
    means = []
    for moment in times:
        low = bisect_left(times, moment - half_width)
        high = bisect_right(times, moment + half_width)
        means.append((prefix[high] - prefix[low]) / (high - low))
    return means


def sample_ordinals(workload: Workload, seed: int, records: Records) -> set[int]:
    """The query ordinals (1-based) a run recomputes with the references.

    On a workload that writes, only a query that follows a new rating
    can show a skipped ``invalidate_cache``: a trust write touches no
    profile, and a re-weighted rating keeps the community's one rating
    value.  The ordinals are drawn from those queries, found by replaying
    the run's own operation stream.
    """
    rng = random.Random(f"perfbench:sample:{workload.name}:{seed}")
    if not workload.writes:
        return set(rng.sample(SAMPLE_ORDINALS, SAMPLES))
    stream = OpStream(workload, seed, records)
    eligible: list[int] = []
    ordinal = 0
    previous: Op | None = None
    while len(eligible) < SAMPLES or ordinal < SAMPLE_ORDINALS.stop - 1:
        op = next(stream)
        if op.kind == "query":
            ordinal += 1
            if (
                ordinal >= SAMPLE_ORDINALS.start
                and previous is not None
                and previous.kind == "rating"
                and previous.new
            ):
                eligible.append(ordinal)
        previous = op
    return set(rng.sample(eligible, SAMPLES))


class PeakRss:
    """Peak resident memory of the system under test, in MB.

    On Linux the kernel's high-water mark (``VmHWM``) is reset after the
    community is generated and after every reference check, and read
    before every check and at the end, so neither the generator nor the
    references set the peak.  Elsewhere it falls back to the whole
    process's ``ru_maxrss``.
    """

    CLEAR_REFS = Path("/proc/self/clear_refs")
    STATUS = Path("/proc/self/status")

    def __init__(self) -> None:
        self.scoped = self.CLEAR_REFS.exists() and self.STATUS.exists()
        self._peak_kb = 0.0

    def reset(self) -> None:
        """Start a new high-water mark at the current resident size."""
        if self.scoped:
            gc.collect()
            self.CLEAR_REFS.write_text("5", encoding="ascii")

    def read(self) -> None:
        """Fold the high-water mark since the last reset into the peak."""
        if not self.scoped:
            return
        for line in self.STATUS.read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                self._peak_kb = max(self._peak_kb, float(line.split()[1]))

    @property
    def mb(self) -> float:
        self.read()
        if not self.scoped:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self._peak_kb / 1024.0


@dataclass
class RunResult:
    """Everything one run prints."""

    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]]
    properties: dict[str, Any]
    attempted: int
    failed: int
    problems: list[str]
    ops: list[Op]
    digest: str
    report: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Client:
    """The closed-loop client: one operation at a time, each checked."""

    def __init__(
        self,
        records: Records,
        workload: Workload,
        seed: int,
        *,
        sample: bool,
        rss: PeakRss | None = None,
        probe: HostProbe | None = None,
    ) -> None:
        self.taxonomy = records.taxonomy
        self.workload = workload
        self.stream = OpStream(workload, seed, records)
        self.sampled = sample_ordinals(workload, seed, records) if sample else set()
        self.rss = rss
        self.probe = probe
        self.ops: list[Op] = []
        #: Seconds per operation, aligned with :attr:`ops`; ``None`` when
        #: the operation raised.
        self.seconds: list[float | None] = []
        #: Run-clock time and host factor of the probe taken just before
        #: each operation, aligned with :attr:`ops`.
        self.probed_at: list[float] = []
        self.probed: list[float] = []
        self._clock = Stopwatch().start()
        self.timed = 0.0
        self.queries = 0
        self.failed = 0
        self.problems: list[str] = []
        self.neighborhoods: list[int] = []
        self.voters: list[int] = []
        self._digest = hashlib.sha256()

    @property
    def factors(self) -> list[float]:
        """Host factor of each operation (:data:`FACTOR_WINDOW_S`); 1.0
        each without a probe."""
        if not self.probed:
            return [1.0] * len(self.ops)
        return window_means(self.probed_at, self.probed, FACTOR_WINDOW_S)

    def times(self, *, writes: bool, scaled: bool = False) -> list[float]:
        """Seconds of the completed writes, or of the completed queries;
        divided by each one's host factor when *scaled*."""
        return [
            value / factor if scaled else value
            for op, value, factor in zip(self.ops, self.seconds, self.factors)
            if value is not None and op.is_write == writes
        ]

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def checked(self) -> bool:
        """Whether every sampled query has been issued and checked."""
        return self.queries >= max(self.sampled, default=0)

    def run(
        self,
        system: System,
        *,
        seconds: float = 0.0,
        queries: int = 0,
        ops: int | None = None,
    ) -> None:
        """Issue operations until *ops* are done, or until *seconds* of
        them are timed and *queries* queries completed; and in either
        case until every sampled query has been checked."""
        while True:
            if ops is not None:
                if len(self.ops) >= ops and self.checked:
                    return
            elif self.timed >= seconds and self.queries >= queries and self.checked:
                return
            self.step(system)

    def step(self, system: System) -> None:
        """Issue the next operation of the stream to *system*; time and check it."""
        op = next(self.stream)
        if self.probe is not None:
            self.probed_at.append(self._clock.elapsed)
            self.probed.append(self.probe.factor())
        self.ops.append(op)
        self._digest.update(f"{op.kind} {op.agent} {op.target} {op.value!r}\n".encode())
        watch = Stopwatch()
        try:
            with get_tracer().span("bench.op", kind=op.kind), watch:
                items = self._execute(system, op)
        except Exception as error:  # one failed operation must not end the run
            self.seconds.append(None)
            self._record_failure(op, f"{type(error).__name__}: {error}")
            return
        self.seconds.append(watch.elapsed)
        self.timed += watch.elapsed
        if op.is_write:
            return
        self.queries += 1
        for item in items:
            line = f"{item.product} {item.score:.9f} {','.join(item.supporters)}\n"
            self._digest.update(line.encode())
        problems = invariant_problems(system.dataset, op.agent, items, LIMIT)
        if self.queries in self.sampled:
            if self.rss is not None:
                self.rss.read()
            with unobserved():
                outcome = reference_problems(
                    system.dataset,
                    self.taxonomy,
                    self.workload.method,
                    op.agent,
                    items,
                    LIMIT,
                )
            if self.rss is not None:
                self.rss.reset()
            problems += outcome.problems
            self.neighborhoods.append(outcome.neighborhood)
            self.voters.append(outcome.voters)
        if problems:
            self._record_failure(op, "; ".join(problems))

    @staticmethod
    def _execute(system: System, op: Op) -> list[Recommendation]:
        tracer = get_tracer()
        if op.kind == "query":
            with tracer.span("recommender.recommend"):
                return system.recommender.recommend(op.agent, limit=LIMIT)
        if op.kind == "rating":
            with tracer.span("models.write"):
                system.dataset.add_rating(Rating(op.agent, op.target, op.value))
            with tracer.span("profiles.invalidate"):
                system.recommender.invalidate_cache(op.agent)
        else:
            with tracer.span("models.write"):
                system.dataset.add_trust(TrustStatement(op.agent, op.target, op.value))
            with tracer.span("trust.graph_write"):
                system.graph.add_edge(op.agent, op.target, op.value)
        return []

    def _record_failure(self, op: Op, message: str) -> None:
        self.failed += 1
        self.problems.append(f"op {len(self.ops)} {op.kind} {op.agent}: {message}")

    def properties(self, records: Records) -> dict[str, Any]:
        """The measured input properties later claims can cite."""
        agents = len(records.agents)
        writes = [op for op in self.ops if op.is_write]
        ratings = sum(1 for op in writes if op.kind == "rating")
        return {
            "agents": agents,
            "products": len(records.products),
            "ratings": len(records.ratings),
            "trust_statements": len(records.trust),
            "sampled_queries": len(self.voters),
            "neighborhood_share": (
                statistics.fmean(self.neighborhoods) / agents if self.neighborhoods else 0.0
            ),
            "voters_per_query": statistics.fmean(self.voters) if self.voters else 0.0,
            "write_share": len(writes) / len(self.ops) if self.ops else 0.0,
            "rating_writes": ratings,
            "trust_writes": len(writes) - ratings,
        }


def warm_up(system: System, records: Records, name: str, seed: int) -> None:
    """Issue the workload's untimed warm-up queries to *system*."""
    rng = random.Random(f"perfbench:warmup:{name}:{seed}")
    agents = sorted(uri for uri, _ in records.agents)
    for _ in range(WARMUP_QUERIES[name]):
        system.recommender.recommend(agents[rng.randrange(len(agents))], limit=LIMIT)


def run_untraced(
    name: str,
    seed: int,
    seconds: float,
    *,
    scale: Scale = BENCH_SCALE,
    max_ops: int | None = None,
) -> RunResult:
    """The end-to-end run: median-of-N set-up, then *seconds* of operations."""
    workload = WORKLOADS[name]
    records = make_records(scale)
    probe = HostProbe()
    rss = PeakRss()
    rss.reset()
    setup_seconds: list[float] = []
    system: System | None = None
    for _ in range(SETUP_REPEATS):
        system = None  # freed before the next set-up, so peak RSS holds one system
        gc.collect()
        watch = Stopwatch()
        with watch:
            system = build_system(records, workload.method)
        setup_seconds.append(watch.elapsed)
    assert system is not None
    warm_up(system, records, name, seed)
    client = Client(records, workload, seed, sample=True, rss=rss, probe=probe)
    client.run(system, seconds=seconds, queries=TAIL_QUERIES[name], ops=max_ops)
    count = TAIL_QUERIES[name]

    def timings(scaled: bool) -> dict[str, float]:
        queries = client.times(writes=False, scaled=scaled)
        busy = sum(queries) + sum(client.times(writes=True, scaled=scaled))
        return {
            "query_p50_ms": statistics.median(queries) * 1000.0 if queries else 0.0,
            "query_tail_ms": tail_value(queries, count) * 1000.0 if queries else 0.0,
            "ops_per_s": (
                sum(1 for value in client.seconds if value is not None) / busy if busy else 0.0
            ),
        }

    values = {
        **timings(scaled=True),
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rss.mb,
    }
    properties = client.properties(records)
    properties["query_tail_percentile"] = round(tail_percentile(count), 2)
    properties["query_samples"] = len(client.times(writes=False))
    properties["host_factor"] = statistics.fmean(client.probed) if client.probed else 1.0
    for key, value in timings(scaled=False).items():
        properties[f"raw_{key}"] = value
    properties["peak_rss_scope"] = "system" if rss.scoped else "process"
    return RunResult(
        workload=name,
        seed=seed,
        metrics={key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()},
        properties=properties,
        attempted=len(client.ops),
        failed=client.failed,
        problems=client.problems,
        ops=client.ops,
        digest=client.digest,
    )


def run_traced(
    name: str,
    seed: int,
    out_dir: Path,
    *,
    scale: Scale = BENCH_SCALE,
    ops: int | None = None,
) -> RunResult:
    """The per-layer run: the same operations, untraced and traced, interleaved."""
    workload = WORKLOADS[name]
    count = ops if ops is not None else TRACE_OPS[name]
    records = make_records(scale)

    plain_system = build_system(records, workload.method)
    plain = Client(records, workload, seed, sample=False)
    tracer = Tracer()
    registry = MetricsRegistry()
    with tracing(tracer), tracer.span("bench.setup"):
        system = build_system(records, workload.method)
    instrument(system)
    traced = Client(records, workload, seed, sample=True)
    # Alternate which pass goes first so drift in machine speed falls
    # on both alike.
    index = 0
    while index < count or not traced.checked:
        if index % 2:
            plain.step(plain_system)
        with tracing(tracer), collecting(registry):
            traced.step(system)
        if not index % 2:
            plain.step(plain_system)
        index += 1
    trace_records = tracer.records()

    problems = plain.problems + traced.problems
    failed = plain.failed + traced.failed
    if plain.digest != traced.digest:
        problems.append("traced and untraced runs returned different results")
        failed += 1
    plain_queries = plain.times(writes=False)
    traced_queries = traced.times(writes=False)
    base = statistics.median(plain_queries) if plain_queries else 0.0
    overhead = statistics.median(traced_queries) / base if base else 0.0
    values = layer_metrics(
        trace_records,
        registry,
        queries=len(traced_queries),
        writes=len(traced.times(writes=True)),
        overhead_ratio=overhead,
    )
    op_records = [
        node.record
        for node in walk_tree([r for r in build_tree(trace_records) if r.name == "bench.op"])
    ]
    report = ["", render_top(op_records, limit=20)]
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{name}-seed{seed}.trace.jsonl"
    tracer.write_jsonl(trace_path)
    report.append(f"trace: {trace_path} ({len(trace_records)} spans)")
    return RunResult(
        workload=name,
        seed=seed,
        metrics={key: (values[key], unit) for key, unit in LAYER_UNITS.items()},
        properties=traced.properties(records),
        attempted=len(plain.ops) + len(traced.ops),
        failed=failed,
        problems=problems,
        ops=traced.ops,
        digest=traced.digest,
        report=report,
    )
