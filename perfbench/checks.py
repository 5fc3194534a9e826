"""Correctness checks on every benchmark result, outside the timed region.

Every result must satisfy :func:`invariant_problems`.  A seeded sample
of queries is also recomputed by :func:`reference_problems`: the
``engine="python"`` pipeline over the same snapshot, built fresh so no
cache of the system under test is shared, and a brute-force vote that
this module computes itself over ``dataset.ratings``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.models import Dataset
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import (
    ProfileStore,
    PureCFRecommender,
    Recommendation,
    SemanticWebRecommender,
)
from repro.core.similarity import isclose
from repro.core.taxonomy import Taxonomy
from repro.obs import NULL_TRACER, collecting, set_tracer

from .community import CF_NEIGHBORS

__all__ = [
    "ReferenceOutcome",
    "brute_force_vote",
    "invariant_problems",
    "reference_problems",
    "unobserved",
]


@contextmanager
def unobserved() -> Iterator[None]:
    """Keep check work out of the trace and the work counters."""
    previous = set_tracer(NULL_TRACER)
    try:
        with collecting():
            yield
    finally:
        set_tracer(previous)


def invariant_problems(
    dataset: Dataset, principal: str, items: Sequence[Recommendation], limit: int
) -> list[str]:
    """What is wrong with one result, judged against the live dataset."""
    problems: list[str] = []
    if len(items) > limit:
        problems.append(f"{len(items)} items for limit {limit}")
    keys = [(-item.score, item.product) for item in items]
    if keys != sorted(keys):
        problems.append("not sorted by (-score, product)")
    for item in items:
        if (principal, item.product) in dataset.ratings:
            problems.append(f"{item.product} is already rated by the principal")
        for supporter in item.supporters:
            rating = dataset.ratings.get((supporter, item.product))
            if rating is None or rating.value <= 0.0:
                problems.append(f"{supporter} is no positive rater of {item.product}")
    return problems


def brute_force_vote(
    dataset: Dataset, principal: str, weights: dict[str, float], limit: int
) -> list[Recommendation]:
    """The §3.4 weighted vote, recomputed in one pass over every rating."""
    exclude = {product for agent, product in dataset.ratings if agent == principal}
    scores: dict[str, float] = {}
    supporters: dict[str, list[str]] = {}
    for rating in dataset.ratings.values():
        weight = weights.get(rating.agent, 0.0)
        if weight <= 0.0 or rating.value <= 0.0 or rating.product in exclude:
            continue
        scores[rating.product] = scores.get(rating.product, 0.0) + weight
        supporters.setdefault(rating.product, []).append(rating.agent)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    return [
        Recommendation(product, score, tuple(sorted(supporters[product])))
        for product, score in ranked
    ]


def _differences(
    label: str, got: Sequence[Recommendation], want: Sequence[Recommendation]
) -> list[str]:
    got_products = [item.product for item in got]
    want_products = [item.product for item in want]
    if got_products != want_products:
        return [f"{label}: products {got_products} != {want_products}"]
    problems: list[str] = []
    for mine, theirs in zip(got, want):
        if not isclose(mine.score, theirs.score):
            problems.append(
                f"{label}: {mine.product} score {mine.score!r} != {theirs.score!r}"
            )
        if mine.supporters != theirs.supporters:
            problems.append(f"{label}: {mine.product} supporters differ")
    return problems


@dataclass(frozen=True, slots=True)
class ReferenceOutcome:
    """One sampled query recomputed by the references."""

    problems: list[str]
    #: Trust neighborhood size (0 for the pure-CF baseline).
    neighborhood: int
    #: Peers with positive voting weight.
    voters: int


def reference_problems(
    dataset: Dataset,
    taxonomy: Taxonomy,
    method: str,
    principal: str,
    got: Sequence[Recommendation],
    limit: int,
) -> ReferenceOutcome:
    """Compare *got* with the python pipeline and the brute-force vote."""
    reference: SemanticWebRecommender | PureCFRecommender
    neighborhood = 0
    if method == "hybrid":
        reference = SemanticWebRecommender.from_dataset(dataset, taxonomy, engine="python")
        hood = reference.neighborhood(principal)
        neighborhood = len(hood)
        similarities = reference.similarities(principal, hood.members())
        weights = reference.synthesis.merge(hood.normalized, similarities)
    else:
        reference = PureCFRecommender(
            dataset=dataset,
            profiles=ProfileStore(dataset, TaxonomyProfileBuilder(taxonomy)),
            neighbors=CF_NEIGHBORS,
            engine="python",
        )
        weights = reference.peer_weights(principal)
    problems = _differences("python pipeline", got, reference.recommend(principal, limit))
    problems += _differences(
        "brute-force vote", got, brute_force_vote(dataset, principal, weights, limit)
    )
    voters = sum(1 for weight in weights.values() if weight > 0.0)
    return ReferenceOutcome(problems=problems, neighborhood=neighborhood, voters=voters)
