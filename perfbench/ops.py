"""Workloads and the seeded operation stream each one runs.

One closed-loop client issues operations one after another.  The
read-only workloads query one principal each step.  ``ingest-mix``
alternates a write by a principal with a query by that same principal,
so every query reads a snapshot its own write just changed.  Principals
come in seeded rounds that take every agent once, so a run's mix of
cheap and costly principals varies little with the seed.
Rating and trust writes follow the community's own rating:trust ratio,
and every written value is drawn from the community's own rating or
trust values.  Half of the writes re-weight an entry that already
exists: the community is a snapshot with no history, so nothing in it
measures the share of new entries, and that half is a choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .community import Records

__all__ = [
    "LIMIT",
    "NEW_ENTRY_SHARE",
    "WORKLOADS",
    "Op",
    "OpStream",
    "Workload",
]

#: Recommendations requested per query.
LIMIT = 10

#: Share of writes that add a new entry rather than re-weight one.  No
#: input measures it (the community has no history); it is a choice.
NEW_ENTRY_SHARE = 0.5


@dataclass(frozen=True, slots=True)
class Workload:
    """One benchmark workload: which recommender, and whether it writes."""

    name: str
    method: str
    writes: bool


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hybrid-query", method="hybrid", writes=False),
        Workload("cf-query", method="cf", writes=False),
        Workload("ingest-mix", method="hybrid", writes=True),
    )
}


@dataclass(frozen=True, slots=True)
class Op:
    """One client operation.

    ``kind`` is ``"query"``, ``"rating"`` or ``"trust"``; a write sets
    ``target`` (product or trusted agent), ``value`` and whether it adds a
    new entry (``new``) or re-weights an existing one.
    """

    kind: str
    agent: str
    target: str = ""
    value: float = 0.0
    new: bool = False

    @property
    def is_write(self) -> bool:
        return self.kind != "query"


class OpStream:
    """The deterministic operation sequence of one workload and seed.

    The stream keeps its own per-agent view of ratings and trust (from
    the records, updated by every write it emits), so choosing a write
    never reads the system under test.  Written values are drawn from
    the records' own rating and trust values, in record order.
    """

    def __init__(self, workload: Workload, seed: int, records: Records) -> None:
        self.workload = workload
        self._rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._agents = sorted(uri for uri, _ in records.agents)
        self._principals: list[str] = []
        self._products = sorted(identifier for identifier, _, _ in records.products)
        self._rated: dict[str, set[str]] = {}
        for agent, product, _ in records.ratings:
            self._rated.setdefault(agent, set()).add(product)
        self._trusted: dict[str, set[str]] = {}
        for source, target, _ in records.trust:
            self._trusted.setdefault(source, set()).add(target)
        self._rating_values = tuple(value for _, _, value in records.ratings)
        self._trust_values = tuple(value for _, _, value in records.trust)
        total = len(records.ratings) + len(records.trust)
        self.rating_share = len(records.ratings) / total if total else 0.0
        self._pending: Op | None = None

    def __iter__(self) -> "OpStream":
        return self

    def __next__(self) -> Op:
        if self._pending is not None:
            op, self._pending = self._pending, None
            return op
        agent = self._next_principal()
        if not self.workload.writes:
            return Op("query", agent)
        self._pending = Op("query", agent)
        if self._rng.random() < self.rating_share:
            return self._rating_write(agent)
        return self._trust_write(agent)

    def _next_principal(self) -> str:
        """Principals in seeded rounds: every agent once, then a new order."""
        if not self._principals:
            self._principals = list(self._agents)
            self._rng.shuffle(self._principals)
        return self._principals.pop()

    def _pick(self, pool: list[str]) -> str:
        return pool[self._rng.randrange(len(pool))]

    def _rating_write(self, agent: str) -> Op:
        rated = self._rated.setdefault(agent, set())
        if rated and self._rng.random() >= NEW_ENTRY_SHARE:
            product = self._pick(sorted(rated))
            return Op("rating", agent, product, self._rng.choice(self._rating_values))
        product = self._pick(self._products)
        while product in rated:
            product = self._pick(self._products)
        rated.add(product)
        return Op("rating", agent, product, self._rng.choice(self._rating_values), new=True)

    def _trust_write(self, agent: str) -> Op:
        trusted = self._trusted.setdefault(agent, set())
        if trusted and self._rng.random() >= NEW_ENTRY_SHARE:
            target = self._pick(sorted(trusted))
            return Op("trust", agent, target, self._rng.choice(self._trust_values))
        target = self._pick(self._agents)
        while target == agent or target in trusted:
            target = self._pick(self._agents)
        trusted.add(target)
        return Op("trust", agent, target, self._rng.choice(self._trust_values), new=True)
