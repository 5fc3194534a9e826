"""The §3.1 information model: agents, products, trust and rating functions.

The paper defines five building blocks:

* a set of agents ``A`` with globally unique URIs,
* a set of products ``B`` with unique identifiers (e.g. ISBNs),
* partial trust functions ``t_i : A -> [-1, +1]`` (sparse; ⊥ elsewhere),
* partial rating functions ``r_i : B -> [-1, +1]`` (sparse; ⊥ elsewhere),
* a taxonomy ``C`` over topics ``D`` plus a descriptor assignment
  ``f : B -> 2^D`` (modelled in :mod:`repro.core.taxonomy`).

This module provides typed containers for the first four plus a
:class:`Dataset` aggregate that owns the whole community.  Partiality is
modelled by absence from a mapping rather than a sentinel value: where the
paper writes ``t_i(a_j) = ⊥`` we simply have no entry.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "Agent",
    "Dataset",
    "Product",
    "Rating",
    "TrustStatement",
    "clamp_score",
    "validate_score",
]

#: Inclusive bounds of the paper's trust and rating scales.
SCORE_MIN = -1.0
SCORE_MAX = 1.0


def validate_score(value: float, kind: str = "score") -> float:
    """Check that *value* lies in the paper's ``[-1, +1]`` scale.

    Returns the value as a float; raises :class:`ValueError` otherwise.
    NaN is rejected because a NaN trust weight silently corrupts
    spreading-activation energy flows.
    """
    value = float(value)
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise ValueError(f"{kind} must lie in [-1, +1], got {value}")
    return value


def clamp_score(value: float, kind: str = "score") -> float:
    """Coerce *value* onto the paper's ``[-1, +1]`` scale.

    The ingestion-boundary counterpart of :func:`validate_score`: crawled
    homepages are untrusted (§3.2, §4), so an out-of-range weight is not
    a programming error to raise on but adversarial input to neutralize.
    Values are clamped to the nearest bound; NaN is still rejected with
    :class:`ValueError` because no clamp target exists for it (and a NaN
    weight would silently corrupt spreading-activation energy flows).
    """
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{kind} must not be NaN")
    return min(max(value, SCORE_MIN), SCORE_MAX)


@dataclass(frozen=True, slots=True)
class Agent:
    """A community member ``a_i ∈ A``.

    ``uri`` is the globally unique identifier the paper mandates; ``name``
    is a human-readable label used by the FOAF publisher.
    """

    uri: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.uri:
            raise ValueError("agent URI must be non-empty")

    def __str__(self) -> str:
        return self.name or self.uri


@dataclass(frozen=True, slots=True)
class Product:
    """A product ``b_j ∈ B`` with its taxonomy descriptors ``f(b_j)``.

    ``identifier`` plays the role of an ISBN: a globally agreed-upon key.
    ``descriptors`` is the (frozen) set of topic identifiers assigned by
    the descriptor assignment function ``f``; the paper notes
    ``|f(b_j)| >= 1`` for classified products, but unclassified products do
    occur in crawled data, so an empty set is permitted and handled
    downstream (such products contribute nothing to taxonomy profiles).
    """

    identifier: str
    title: str = ""
    descriptors: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ValueError("product identifier must be non-empty")
        object.__setattr__(self, "descriptors", frozenset(self.descriptors))

    def __str__(self) -> str:
        return self.title or self.identifier


@dataclass(frozen=True, slots=True)
class TrustStatement:
    """One entry of a partial trust function: ``t_source(target) = value``.

    Positive values denote trust, negative explicit distrust; values around
    zero mean weak trust — the paper stresses this must not be confused
    with distrust (§3.1).
    """

    source: str
    target: str
    value: float

    def __post_init__(self) -> None:
        validate_score(self.value, "trust value")
        if self.source == self.target:
            raise ValueError("self-trust statements are not allowed")


@dataclass(frozen=True, slots=True)
class Rating:
    """One entry of a partial rating function: ``r_agent(product) = value``.

    Implicit ratings mined from weblog links (§4) carry the conventional
    value ``+1.0``; explicit ratings use the full ``[-1, +1]`` scale.
    """

    agent: str
    product: str
    value: float = 1.0

    def __post_init__(self) -> None:
        validate_score(self.value, "rating value")

    @property
    def is_positive(self) -> bool:
        """Whether this rating expresses liking (used for CF voting)."""
        return self.value > 0.0


@dataclass
class Dataset:
    """A complete community snapshot: ``A``, ``B``, ``T`` and ``R``.

    The taxonomy ``C`` and descriptor assignment ``f`` are global shared
    knowledge in the paper's architecture, so the taxonomy object is held
    separately (see :class:`repro.core.taxonomy.Taxonomy`); descriptors are
    denormalized onto each :class:`Product` for locality.

    Invariants enforced by :meth:`validate`:

    * every trust statement references known agents,
    * every rating references a known agent and a known product,
    * at most one trust statement per (source, target) pair and one rating
      per (agent, product) pair.

    The partial-function views (:meth:`ratings_of`, :meth:`raters_of`,
    :meth:`trust_of`) read per-agent, per-product and per-source indexes
    over the same statement objects, built from the constructor dicts
    and kept current by the ``add_*``/``remove_*`` mutators.  Those
    mutators are therefore the only way to change ``ratings`` or
    ``trust`` after construction: a direct dict write leaves the views
    stale (reprolint RL200 flags one made through a parameter or an
    attribute).
    """

    agents: dict[str, Agent] = field(default_factory=dict)
    products: dict[str, Product] = field(default_factory=dict)
    trust: dict[tuple[str, str], TrustStatement] = field(default_factory=dict)
    ratings: dict[tuple[str, str], Rating] = field(default_factory=dict)
    # Each index's inner dicts follow the insertion order of the backing
    # dict, so a view iterates exactly as a filtered scan of it would.
    _ratings_by_agent: dict[str, dict[str, Rating]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _ratings_by_product: dict[str, dict[str, Rating]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _trust_by_source: dict[str, dict[str, TrustStatement]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for (agent, product), rating in self.ratings.items():
            self._ratings_by_agent.setdefault(agent, {})[product] = rating
            self._ratings_by_product.setdefault(product, {})[agent] = rating
        for (source, target), statement in self.trust.items():
            self._trust_by_source.setdefault(source, {})[target] = statement

    # -- construction -----------------------------------------------------

    def add_agent(self, agent: Agent) -> None:
        """Register *agent*, rejecting duplicate URIs with different data."""
        existing = self.agents.get(agent.uri)
        if existing is not None and existing != agent:
            raise ValueError(f"conflicting redefinition of agent {agent.uri}")
        self.agents[agent.uri] = agent

    def add_product(self, product: Product) -> None:
        """Register *product*, rejecting conflicting redefinitions."""
        existing = self.products.get(product.identifier)
        if existing is not None and existing != product:
            raise ValueError(
                f"conflicting redefinition of product {product.identifier}"
            )
        self.products[product.identifier] = product

    def add_trust(self, statement: TrustStatement) -> None:
        """Record ``t_source(target)``; a later statement overwrites."""
        source, target = statement.source, statement.target
        self.trust[(source, target)] = statement
        self._trust_by_source.setdefault(source, {})[target] = statement

    def add_rating(self, rating: Rating) -> None:
        """Record ``r_agent(product)``; a later rating overwrites."""
        agent, product = rating.agent, rating.product
        self.ratings[(agent, product)] = rating
        self._ratings_by_agent.setdefault(agent, {})[product] = rating
        self._ratings_by_product.setdefault(product, {})[agent] = rating

    def remove_trust(self, source: str, target: str) -> TrustStatement:
        """Retract ``t_source(target)``; a missing statement raises KeyError."""
        statement = self.trust.pop((source, target))
        del self._trust_by_source[source][target]
        return statement

    def remove_rating(self, agent: str, product: str) -> Rating:
        """Retract ``r_agent(product)``; a missing rating raises KeyError."""
        rating = self.ratings.pop((agent, product))
        del self._ratings_by_agent[agent][product]
        del self._ratings_by_product[product][agent]
        return rating

    def copy(self) -> "Dataset":
        """An independent shallow copy (entries are immutable dataclasses)."""
        return Dataset(
            agents=dict(self.agents),
            products=dict(self.products),
            trust=dict(self.trust),
            ratings=dict(self.ratings),
        )

    # -- partial-function views -------------------------------------------

    def trust_of(self, source: str) -> dict[str, float]:
        """Materialize the partial trust function ``t_source`` as a dict."""
        return {
            target: stmt.value
            for target, stmt in self._trust_by_source.get(source, {}).items()
        }

    def ratings_of(self, agent: str) -> dict[str, float]:
        """Materialize the partial rating function ``r_agent`` as a dict."""
        return {
            product: rating.value
            for product, rating in self._ratings_by_agent.get(agent, {}).items()
        }

    def raters_of(self, product: str) -> dict[str, float]:
        """Inverse view: every agent's rating of *product*."""
        return {
            agent: rating.value
            for agent, rating in self._ratings_by_product.get(product, {}).items()
        }

    def iter_trust(self) -> Iterator[TrustStatement]:
        return iter(self.trust.values())

    def iter_ratings(self) -> Iterator[Rating]:
        return iter(self.ratings.values())

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValueError` on the first dangling reference."""
        for statement in self.trust.values():
            if statement.source not in self.agents:
                raise ValueError(f"trust from unknown agent {statement.source}")
            if statement.target not in self.agents:
                raise ValueError(f"trust toward unknown agent {statement.target}")
        for rating in self.ratings.values():
            if rating.agent not in self.agents:
                raise ValueError(f"rating by unknown agent {rating.agent}")
            if rating.product not in self.products:
                raise ValueError(f"rating of unknown product {rating.product}")

    # -- statistics ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Descriptive statistics used by dataset reports and tests."""
        n_agents = len(self.agents)
        n_products = len(self.products)
        return {
            "agents": n_agents,
            "products": n_products,
            "trust_statements": len(self.trust),
            "ratings": len(self.ratings),
            "trust_density": (
                len(self.trust) / (n_agents * (n_agents - 1))
                if n_agents > 1
                else 0.0
            ),
            "rating_density": (
                len(self.ratings) / (n_agents * n_products)
                if n_agents and n_products
                else 0.0
            ),
        }

    # -- subsetting ----------------------------------------------------------

    def restricted_to_agents(self, keep: Iterable[str]) -> "Dataset":
        """Return the induced sub-community over the agent URIs in *keep*.

        Products are retained wholesale (they are global knowledge);
        trust statements and ratings are filtered to the kept agents.
        """
        kept = set(keep)
        return Dataset(
            agents={uri: a for uri, a in self.agents.items() if uri in kept},
            products=dict(self.products),
            trust={
                key: statement
                for key, statement in self.trust.items()
                if statement.source in kept and statement.target in kept
            },
            ratings={
                key: rating
                for key, rating in self.ratings.items()
                if rating.agent in kept
            },
        )


def descriptor_index(products: Mapping[str, Product]) -> dict[str, set[str]]:
    """Invert the descriptor assignment: topic identifier -> product ids.

    Used by content-based recommendation (§3.4's "categories the user has
    left untouched" scheme).
    """
    index: dict[str, set[str]] = {}
    for product in products.values():
        for topic in product.descriptors:
            index.setdefault(topic, set()).add(product.identifier)
    return index


def implicit_rating(agent: str, product: str) -> Rating:
    """Build the ``+1.0`` implicit rating the weblog miners of §4 produce."""
    return Rating(agent=agent, product=product, value=1.0)


def top_rated(
    ratings: Mapping[str, float], limit: Optional[int] = None
) -> list[tuple[str, float]]:
    """Products sorted by descending rating (ties broken by identifier)."""
    ordered = sorted(ratings.items(), key=lambda item: (-item[1], item[0]))
    return ordered if limit is None else ordered[:limit]
