"""Benchmark inputs and the system under test.

:func:`make_records` generates the benchmark community and turns it into
plain tuples before anything is timed, and :func:`build_system` rebuilds
the ``Dataset`` from those tuples through its public ``add_*`` calls.
Everything :func:`build_system` does is set-up cost (``setup_s``), so an
index a later change adds to ``Dataset`` is charged there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
from repro.core.neighborhood import NeighborhoodFormation
from repro.core.profiles import TaxonomyProfileBuilder
from repro.core.recommender import (
    ProfileStore,
    PureCFRecommender,
    SemanticWebRecommender,
)
from repro.core.taxonomy import Taxonomy
from repro.datasets.amazon import book_taxonomy_config
from repro.datasets.generators import CommunityConfig, generate_community
from repro.obs import get_tracer
from repro.trust.graph import TrustGraph

__all__ = [
    "BENCH_SCALE",
    "CF_NEIGHBORS",
    "COMMUNITY_SEED",
    "Records",
    "Scale",
    "System",
    "build_system",
    "load_dataset",
    "make_records",
]

#: Peers voting in the pure-CF baseline (``PureCFRecommender.neighbors``).
CF_NEIGHBORS = 20


@dataclass(frozen=True, slots=True)
class Scale:
    """Community size; the benchmark always runs :data:`BENCH_SCALE`."""

    agents: int
    products: int
    clusters: int
    topics: int


#: The ``repro bench`` ladder shape at 1,600 agents.
BENCH_SCALE = Scale(agents=1600, products=3200, clusters=8, topics=600)

#: Generator seed of the benchmark community.  The community is fixed so
#: that runs with different workload seeds measure the same system; the
#: workload seed varies the principals and the writes.  Communities from
#: different generator seeds differ widely in pure-CF query cost, which
#: depends on how many peers correlate positively with a principal: of
#: six generator seeds tried, one put the p10 ``cf-query`` latency at
#: less than half that of the other five.
COMMUNITY_SEED = 1


@dataclass(frozen=True, slots=True)
class Records:
    """A generated community as plain tuples, plus the shared taxonomy."""

    agents: tuple[tuple[str, str], ...]
    products: tuple[tuple[str, str, tuple[str, ...]], ...]
    trust: tuple[tuple[str, str, float], ...]
    ratings: tuple[tuple[str, str, float], ...]
    taxonomy: Taxonomy


def make_records(scale: Scale = BENCH_SCALE) -> Records:
    """Generate the benchmark community and flatten it to records."""
    config = CommunityConfig(
        n_agents=scale.agents,
        n_products=scale.products,
        n_clusters=scale.clusters,
        seed=COMMUNITY_SEED,
        taxonomy=book_taxonomy_config(target_topics=scale.topics, seed=COMMUNITY_SEED),
    )
    community = generate_community(config)
    dataset = community.dataset
    return Records(
        agents=tuple((a.uri, a.name) for a in dataset.agents.values()),
        products=tuple(
            (p.identifier, p.title, tuple(sorted(p.descriptors)))
            for p in dataset.products.values()
        ),
        trust=tuple((s.source, s.target, s.value) for s in dataset.trust.values()),
        ratings=tuple((r.agent, r.product, r.value) for r in dataset.ratings.values()),
        taxonomy=community.taxonomy,
    )


def load_dataset(records: Records) -> Dataset:
    """A fresh ``Dataset`` filled through its public ``add_*`` calls."""
    dataset = Dataset()
    for uri, name in records.agents:
        dataset.add_agent(Agent(uri=uri, name=name))
    for identifier, title, descriptors in records.products:
        dataset.add_product(
            Product(identifier=identifier, title=title, descriptors=frozenset(descriptors))
        )
    for source, target, value in records.trust:
        dataset.add_trust(TrustStatement(source=source, target=target, value=value))
    for agent, product, value in records.ratings:
        dataset.add_rating(Rating(agent=agent, product=product, value=value))
    return dataset


@dataclass
class System:
    """The warm system one workload queries and writes to."""

    dataset: Dataset
    graph: TrustGraph
    store: ProfileStore
    recommender: SemanticWebRecommender | PureCFRecommender


def build_system(records: Records, method: str) -> System:
    """Records to a warm recommender: load, trust graph, packed profiles.

    *method* is ``"hybrid"`` (the recommender ``repro recommend --method
    hybrid`` and ``LocalAgent`` build) or ``"cf"`` (the pure-CF
    baseline).  Both pay the same set-up so ``setup_s`` compares across
    workloads.  Each phase is a span, which costs nothing untraced.
    """
    tracer = get_tracer()
    with tracer.span("models.load"):
        dataset = load_dataset(records)
    with tracer.span("trust.graph_build"):
        graph = TrustGraph.from_dataset(dataset)
    store = ProfileStore(dataset, TaxonomyProfileBuilder(records.taxonomy))
    with tracer.span("profiles.pack"):
        store.matrix()
    recommender: SemanticWebRecommender | PureCFRecommender
    if method == "hybrid":
        recommender = SemanticWebRecommender(
            dataset=dataset,
            graph=graph,
            profiles=store,
            formation=NeighborhoodFormation(engine="auto"),
            engine="auto",
        )
    elif method == "cf":
        recommender = PureCFRecommender(
            dataset=dataset,
            profiles=store,
            representation="taxonomy",
            neighbors=CF_NEIGHBORS,
            engine="auto",
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return System(dataset=dataset, graph=graph, store=store, recommender=recommender)
