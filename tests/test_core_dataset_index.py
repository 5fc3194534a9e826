"""The indexed partial-function views of :class:`Dataset`.

``ratings_of``/``raters_of``/``trust_of`` read per-agent, per-product and
per-source indexes instead of scanning every statement.  Each view must
equal a brute-force scan of the backing dicts *including iteration
order* (vote summation follows it), and must drop every entry a split or
a churn event removed: a stale index would leak held-out ratings back
into training.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import Agent, Dataset, Product, Rating, TrustStatement
from repro.datasets.generators import CommunityConfig, generate_community
from repro.evaluation.dynamics import AgentChurn, EpochState, Timeline
from repro.evaluation.protocol import holdout_split, kfold_splits

AGENTS = [f"http://agents.example.org/a{i}" for i in range(4)]
PRODUCTS = [f"isbn:{i}" for i in range(4)]


def scan_ratings_of(dataset: Dataset, agent: str) -> list[tuple[str, float]]:
    return [(p, r.value) for (a, p), r in dataset.ratings.items() if a == agent]


def scan_raters_of(dataset: Dataset, product: str) -> list[tuple[str, float]]:
    return [(a, r.value) for (a, p), r in dataset.ratings.items() if p == product]


def scan_trust_of(dataset: Dataset, source: str) -> list[tuple[str, float]]:
    return [(t, s.value) for (src, t), s in dataset.trust.items() if src == source]


def assert_views_match_scans(dataset: Dataset, agents, products) -> None:
    """Every view equals the scan of the dicts, item for item, in order."""
    for agent in agents:
        assert list(dataset.ratings_of(agent).items()) == scan_ratings_of(dataset, agent)
        assert list(dataset.trust_of(agent).items()) == scan_trust_of(dataset, agent)
    for product in products:
        assert list(dataset.raters_of(product).items()) == scan_raters_of(dataset, product)


values = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("rate"), st.sampled_from(AGENTS), st.sampled_from(PRODUCTS), values),
        st.tuples(st.just("unrate"), st.sampled_from(AGENTS), st.sampled_from(PRODUCTS)),
        st.tuples(st.just("trust"), st.sampled_from(AGENTS), st.sampled_from(AGENTS), values),
        st.tuples(st.just("untrust"), st.sampled_from(AGENTS), st.sampled_from(AGENTS)),
    ),
    max_size=40,
)


def apply(dataset: Dataset, operation: tuple) -> None:
    kind, first, second = operation[:3]
    if kind == "rate":
        dataset.add_rating(Rating(agent=first, product=second, value=operation[3]))
    elif kind == "unrate":
        if (first, second) in dataset.ratings:
            assert dataset.remove_rating(first, second).product == second
        else:
            with pytest.raises(KeyError):
                dataset.remove_rating(first, second)
    elif first != second:  # self-trust is invalid
        if kind == "trust":
            dataset.add_trust(TrustStatement(source=first, target=second, value=operation[3]))
        elif (first, second) in dataset.trust:
            assert dataset.remove_trust(first, second).target == second
        else:
            with pytest.raises(KeyError):
                dataset.remove_trust(first, second)


class TestViewCoherence:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_views_equal_scans_after_any_mutation_sequence(self, ops):
        dataset = Dataset()
        for operation in ops:
            apply(dataset, operation)
            assert_views_match_scans(dataset, AGENTS, PRODUCTS)
        # The constructor and copy() index the same dicts identically.
        for rebuilt in (
            Dataset(trust=dict(dataset.trust), ratings=dict(dataset.ratings)),
            dataset.copy(),
        ):
            assert_views_match_scans(rebuilt, AGENTS, PRODUCTS)

    def test_overwrite_keeps_position_and_readd_moves_to_end(self):
        dataset = Dataset()
        for product in PRODUCTS[:3]:
            dataset.add_rating(Rating(AGENTS[0], product, 1.0))
        dataset.add_rating(Rating(AGENTS[0], PRODUCTS[0], -1.0))
        assert list(dataset.ratings_of(AGENTS[0])) == PRODUCTS[:3]
        dataset.remove_rating(AGENTS[0], PRODUCTS[0])
        dataset.add_rating(Rating(AGENTS[0], PRODUCTS[0], 0.5))
        assert list(dataset.ratings_of(AGENTS[0]).items()) == [
            (PRODUCTS[1], 1.0),
            (PRODUCTS[2], 1.0),
            (PRODUCTS[0], 0.5),
        ]

    def test_views_are_fresh_dicts(self, tiny_dataset):
        agent = next(iter(tiny_dataset.agents))
        view = tiny_dataset.ratings_of(agent)
        view["isbn:999"] = 1.0
        assert "isbn:999" not in tiny_dataset.ratings_of(agent)

    def test_copy_is_independent(self, tiny_dataset):
        clone = tiny_dataset.copy()
        agent, product = next(iter(clone.ratings))
        clone.remove_rating(agent, product)
        assert product in tiny_dataset.ratings_of(agent)
        assert product not in clone.ratings_of(agent)

    def test_restricted_to_agents_views(self, tiny_dataset):
        keep = sorted(tiny_dataset.agents)[:3]
        subset = tiny_dataset.restricted_to_agents(keep)
        assert_views_match_scans(subset, sorted(tiny_dataset.agents), sorted(tiny_dataset.products))
        for agent in sorted(set(tiny_dataset.agents) - set(keep)):
            assert subset.ratings_of(agent) == {}
            assert subset.trust_of(agent) == {}


@pytest.fixture(scope="module")
def community():
    config = CommunityConfig(n_agents=60, n_products=120, n_clusters=4, seed=5)
    return generate_community(config)


def assert_no_leak(dataset: Dataset, train: Dataset, held_out) -> None:
    """Held-out ratings are gone from every training view."""
    assert held_out
    for agent, withheld in held_out.items():
        rated = train.ratings_of(agent)
        for product in withheld:
            assert (agent, product) in dataset.ratings
            assert product not in rated
            assert agent not in train.raters_of(product)
    assert_views_match_scans(train, sorted(dataset.agents), sorted(dataset.products))


class TestSplitsDoNotLeak:
    def test_holdout_split(self, community):
        dataset = community.dataset
        split = holdout_split(dataset, per_user=3, min_ratings=6, seed=2)
        assert_no_leak(dataset, split.train, split.held_out)
        # The source dataset keeps every rating in its own views.
        for agent, withheld in split.held_out.items():
            assert withheld <= set(dataset.ratings_of(agent))

    def test_kfold_splits(self, community):
        dataset = community.dataset
        for split in kfold_splits(dataset, folds=3, min_ratings=6, seed=2):
            assert_no_leak(dataset, split.train, split.held_out)


class TestChurnDoesNotLeak:
    def test_remove_agent_clears_the_live_views(self, community):
        state = EpochState(dataset=community.dataset.copy(), community=community)
        dataset = state.dataset
        everyone = sorted(dataset.agents)
        leaving = [
            agent
            for agent in everyone
            if dataset.ratings_of(agent) and dataset.trust_of(agent)
        ][:5]
        assert leaving
        for agent in leaving:
            state.remove_agent(agent)
        # The same object later events of the epoch read, not a copy.
        assert_views_match_scans(dataset, everyone, sorted(dataset.products))
        for agent in leaving:
            assert dataset.ratings_of(agent) == {}
            assert dataset.trust_of(agent) == {}
        for product in dataset.products:
            assert set(leaving).isdisjoint(dataset.raters_of(product))

    def test_departed_agents_vanish_from_every_view(self, community):
        snapshots = Timeline(
            community=community,
            events=[AgentChurn(leave_rate=0.2, join_rate=0.2)],
            n_epochs=3,
            seed=4,
        ).run()
        departed_total = 0
        for snapshot in snapshots:
            dataset = snapshot.dataset
            departed = snapshot.truth.departed - set(dataset.agents)
            departed_total += len(departed)
            everyone = sorted(set(dataset.agents) | departed | set(community.dataset.agents))
            assert_views_match_scans(dataset, everyone, sorted(dataset.products))
            for agent in departed:
                assert dataset.ratings_of(agent) == {}
                assert dataset.trust_of(agent) == {}
            for product in dataset.products:
                assert departed.isdisjoint(dataset.raters_of(product))
            for agent in dataset.agents:
                assert departed.isdisjoint(dataset.trust_of(agent))
        assert departed_total > 0


def test_new_products_and_agents_are_indexed():
    dataset = Dataset()
    dataset.add_agent(Agent(uri=AGENTS[0]))
    dataset.add_product(Product(identifier=PRODUCTS[0]))
    assert dataset.ratings_of(AGENTS[0]) == {}
    assert dataset.raters_of(PRODUCTS[0]) == {}
    dataset.add_rating(Rating(AGENTS[0], PRODUCTS[0], 0.5))
    assert dataset.raters_of(PRODUCTS[0]) == {AGENTS[0]: 0.5}
