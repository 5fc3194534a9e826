"""Per-layer attribution for the traced run.

:func:`instrument` wraps public calls of the system's own objects in
spans, from outside the program: ``Dataset.ratings_of``,
``ProfileStore.matrix``, ``TaxonomyProfileBuilder.build``, the
neighborhood, similarity and synthesis stages.  The program's own
``appleseed.compute`` / ``trustmatrix.pack`` spans and work counters
nest inside them.  :func:`layer_metrics` turns the recorded spans and
counters into the per-layer figures ``BENCHMARK.json`` declares.

Span layout: one ``bench.setup`` root per traced set-up, one
``bench.op`` root per operation.  A query op holds a
``recommender.recommend`` span whose self time is the vote; a write op
holds ``models.write`` and ``profiles.invalidate`` (rating) or
``trust.graph_write`` (trust).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.recommender import SemanticWebRecommender
from repro.obs import MetricsRegistry, NullSpan, Span, get_metrics, get_tracer
from repro.obs.profile import SpanNode, SpanProfile, aggregate_nodes, build_tree, walk_tree

from .community import System

__all__ = ["LAYER_UNITS", "instrument", "layer_metrics"]

#: Every per-layer metric with its unit, in report order.
LAYER_UNITS: dict[str, str] = {
    "models.ratings_of_calls": "count/query",
    "models.ratings_of_ms": "ms/query",
    "models.write_ms": "ms/write",
    "models.load_ms": "ms/setup",
    "neighborhood.form_ms": "ms/query",
    "neighborhood.peers": "count/query",
    "trust.pack_ms": "ms/query",
    "trust.packs": "count/query",
    "trust.appleseed_ms": "ms/query",
    "trust.appleseed_sweeps": "count/query",
    "trust.graph_write_ms": "ms/write",
    "trust.graph_build_ms": "ms/setup",
    "similarity.ms": "ms/query",
    "similarity.rows_scored": "count/query",
    "similarity.rows_pruned": "count/query",
    "similarity.pruned_ratio": "ratio",
    "profiles.matrix_ms": "ms/query",
    "profiles.matrix_hit_ratio": "ratio",
    "profiles.builds": "count/query",
    "profiles.invalidate_ms": "ms/write",
    "profiles.pack_ms": "ms/setup",
    "synthesis.merge_ms": "ms/query",
    "recommender.vote_self_ms": "ms/query",
    "trace.overhead_ratio": "ratio",
}

Annotate = Callable[[Span | NullSpan, tuple[Any, ...], Any], None]


def _wrap(owner: object, method: str, span_name: str, annotate: Annotate | None = None) -> None:
    """Replace ``owner.method`` with a call that runs inside a span."""
    inner = getattr(owner, method)

    def traced(*args: Any, **kwargs: Any) -> Any:
        with get_tracer().span(span_name) as span:
            result = inner(*args, **kwargs)
            if annotate is not None:
                annotate(span, args, result)
        return result

    setattr(owner, method, traced)


def _counter(name: str) -> float:
    return get_metrics().counter(name).value


def _wrap_cf_similarity(owner: object) -> None:
    """Span ``PureCFRecommender.peer_weights``; rows from its counters."""
    inner = getattr(owner, "peer_weights")

    def traced(agent: str) -> dict[str, float]:
        scored = _counter("similarity.index_scored")
        pruned = _counter("similarity.index_pruned")
        with get_tracer().span("similarity") as span:
            result: dict[str, float] = inner(agent)
            span.set("rows_scored", _counter("similarity.index_scored") - scored)
            span.set("rows_pruned", _counter("similarity.index_pruned") - pruned)
        return result

    setattr(owner, "peer_weights", traced)


def instrument(system: System) -> None:
    """Put layer spans around the system's public calls (traced run only)."""
    community_rows = len(system.dataset.agents)

    def peers(span: Span | NullSpan, args: tuple[Any, ...], result: Any) -> None:
        span.set("peers", len(result))

    def rows(span: Span | NullSpan, args: tuple[Any, ...], result: Any) -> None:
        span.set("rows_scored", len(args[1]))
        span.set("rows_pruned", community_rows - len(args[1]))

    _wrap(system.dataset, "ratings_of", "models.ratings_of")
    _wrap(system.store, "matrix", "profiles.matrix")
    _wrap(system.store.builder, "build", "profiles.build")
    recommender = system.recommender
    if isinstance(recommender, SemanticWebRecommender):
        _wrap(recommender.formation, "form", "neighborhood.form", peers)
        _wrap(recommender, "similarities", "similarity", rows)
        _wrap(recommender.synthesis, "merge", "synthesis.merge")
    else:
        _wrap_cf_similarity(recommender)


def _nodes_under(roots: list[SpanNode], name: str) -> list[SpanNode]:
    return walk_tree([root for root in roots if root.name == name])


def _attr_total(nodes: list[SpanNode], span_name: str, attr: str) -> float:
    return sum(
        float(node.record["attrs"].get(attr, 0.0)) for node in nodes if node.name == span_name
    )


def layer_metrics(
    records: list[dict[str, Any]],
    counters: MetricsRegistry,
    *,
    queries: int,
    writes: int,
    overhead_ratio: float,
) -> dict[str, float]:
    """The per-layer figures of one traced run.

    Query-stage figures are per query, write figures per write and
    set-up figures per traced set-up; *counters* holds the program's
    work counters recorded during the operations only.
    """
    roots = build_tree(records)
    op_nodes = _nodes_under(roots, "bench.op")
    setup_nodes = _nodes_under(roots, "bench.setup")
    ops: dict[str, SpanProfile] = {p.name: p for p in aggregate_nodes(op_nodes)}
    setup: dict[str, SpanProfile] = {p.name: p for p in aggregate_nodes(setup_nodes)}
    setups = sum(1 for root in roots if root.name == "bench.setup")

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    def cumulative(table: dict[str, SpanProfile], name: str) -> float:
        profile = table.get(name)
        return profile.cumulative_ms if profile is not None else 0.0

    def own(name: str) -> float:
        profile = ops.get(name)
        return profile.self_ms if profile is not None else 0.0

    def calls(name: str) -> int:
        profile = ops.get(name)
        return profile.count if profile is not None else 0

    def count(name: str) -> float:
        return counters.counter(name).value

    scored = _attr_total(op_nodes, "similarity", "rows_scored")
    pruned = _attr_total(op_nodes, "similarity", "rows_pruned")
    hits = count("similarity.matrix_cache.hit")
    misses = count("similarity.matrix_cache.miss")
    values = {
        "models.ratings_of_calls": per(calls("models.ratings_of"), queries),
        "models.ratings_of_ms": per(cumulative(ops, "models.ratings_of"), queries),
        "models.write_ms": per(cumulative(ops, "models.write"), writes),
        "models.load_ms": per(cumulative(setup, "models.load"), setups),
        "neighborhood.form_ms": per(cumulative(ops, "neighborhood.form"), queries),
        "neighborhood.peers": per(
            _attr_total(op_nodes, "neighborhood.form", "peers"), queries
        ),
        "trust.pack_ms": per(cumulative(ops, "trustmatrix.pack"), queries),
        "trust.packs": per(count("trust.matrix.packs"), queries),
        "trust.appleseed_ms": per(own("appleseed.compute"), queries),
        "trust.appleseed_sweeps": per(count("appleseed.sweeps"), queries),
        "trust.graph_write_ms": per(cumulative(ops, "trust.graph_write"), writes),
        "trust.graph_build_ms": per(cumulative(setup, "trust.graph_build"), setups),
        "similarity.ms": per(cumulative(ops, "similarity"), queries),
        "similarity.rows_scored": per(scored, queries),
        "similarity.rows_pruned": per(pruned, queries),
        "similarity.pruned_ratio": pruned / (scored + pruned) if scored + pruned else 0.0,
        "profiles.matrix_ms": per(cumulative(ops, "profiles.matrix"), queries),
        "profiles.matrix_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "profiles.builds": per(calls("profiles.build"), queries),
        "profiles.invalidate_ms": per(cumulative(ops, "profiles.invalidate"), writes),
        "profiles.pack_ms": per(cumulative(setup, "profiles.pack"), setups),
        "synthesis.merge_ms": per(cumulative(ops, "synthesis.merge"), queries),
        "recommender.vote_self_ms": per(own("recommender.recommend"), queries),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: values[name] for name in LAYER_UNITS}
