"""Tests for the query and update contexts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agent import Agent
from repro.core.context import QueryContext, UpdateContext, agent_rng
from repro.core.errors import VisibilityError, WorldError
from repro.core.fields import StateField
from repro.core.ordering import agent_sort_key

from tests.conftest import Boid, make_boid_world


def brute_force_neighbors(agents, probe, radius):
    result = []
    for other in agents:
        if other is probe:
            continue
        distance = math.dist(other.position(), probe.position())
        if distance <= radius:
            result.append(other)
    return result


class TestNeighborQueries:
    @pytest.mark.parametrize("index", [None, "kdtree", "grid", "quadtree"])
    def test_neighbors_match_brute_force(self, index):
        world = make_boid_world(num_agents=50, seed=9)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0, index=index, cell_size=6.0)
        for probe in agents[:10]:
            expected = brute_force_neighbors(agents, probe, 6.0)
            actual = context.neighbors(probe, 6.0)
            assert sorted(a.agent_id for a in actual) == sorted(a.agent_id for a in expected)

    def test_default_radius_uses_visibility(self):
        world = make_boid_world(num_agents=20)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        assert sorted(a.agent_id for a in context.neighbors(probe)) == sorted(
            a.agent_id for a in brute_force_neighbors(agents, probe, 10.0)
        )

    def test_radius_beyond_visibility_raises(self):
        world = make_boid_world(num_agents=5)
        context = QueryContext(world.agents(), tick=0, seed=0)
        with pytest.raises(VisibilityError):
            context.neighbors(world.agents()[0], 50.0)

    def test_visibility_check_can_be_disabled(self):
        world = make_boid_world(num_agents=5)
        context = QueryContext(world.agents(), tick=0, seed=0, check_visibility=False)
        context.neighbors(world.agents()[0], 50.0)  # does not raise

    def test_include_self(self):
        world = make_boid_world(num_agents=5)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        assert probe in context.neighbors(probe, 6.0, include_self=True)
        assert probe not in context.neighbors(probe, 6.0)

    def test_visible_uses_box_semantics(self):
        world = make_boid_world(num_agents=30, seed=4)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        region = probe.visible_region()
        expected = [a for a in agents if a is not probe and region.contains_point(a.position())]
        assert sorted(a.agent_id for a in context.visible(probe)) == sorted(
            a.agent_id for a in expected
        )

    def test_nearest(self):
        world = make_boid_world(num_agents=30, seed=2)
        agents = world.agents()
        context = QueryContext(agents, tick=0, seed=0)
        probe = agents[0]
        nearest = context.nearest(probe, k=3)
        distances = [math.dist(a.position(), probe.position()) for a in nearest]
        assert distances == sorted(distances)
        assert probe not in nearest

    def test_agents_returns_full_extent(self):
        world = make_boid_world(num_agents=7)
        context = QueryContext(world.agents(), tick=0, seed=0)
        assert len(context.agents()) == 7
        assert len(context) == 7

    def test_work_units_accumulate(self):
        world = make_boid_world(num_agents=20)
        context = QueryContext(world.agents(), tick=0, seed=0)
        context.neighbors(world.agents()[0], 6.0)
        assert context.work_units > 0

    def test_unknown_index_rejected(self):
        world = make_boid_world(num_agents=3)
        with pytest.raises(WorldError):
            QueryContext(world.agents(), tick=0, seed=0, index="rtree")


class Narrow(Agent):
    """Bounded visibility with different radii per dimension."""

    x = StateField(0.0, spatial=True, visibility=2.0)
    y = StateField(0.0, spatial=True, visibility=5.0)


class Wanderer(Agent):
    """Unbounded visibility: every probe sees the whole extent."""

    x = StateField(0.0, spatial=True)
    y = StateField(0.0, spatial=True)


class Lopsided(Narrow):
    """Overrides the visible region, so its boxes are asked per agent."""

    def visible_region(self):
        region = super().visible_region()
        return type(region)(((region.lows[0], region.highs[0] + 3.0), region.intervals[1]))


AGENT_CLASSES = (Boid, Narrow, Wanderer, Lopsided)
BACKENDS = (("vectorized", "kdtree"), ("python", "kdtree"), ("python", "grid"), ("python", None))


def make_context(agents, backend, index):
    return QueryContext(agents, tick=0, seed=0, index=index, cell_size=6.0,
                        spatial_backend=backend)


def per_probe_pairs(context, probes, include_self=False):
    """The reference: per-probe visible() calls, concatenated."""
    rank = {id(agent): row for row, agent in enumerate(context.canonical_agents())}
    probe_index, rows = [], []
    for index, probe in enumerate(probes):
        for match in context.visible(probe, include_self):
            probe_index.append(index)
            rows.append(rank[id(match)])
    return probe_index, rows


def assert_batch_matches_per_probe(agents, probes, include_self=False):
    for backend, index in BACKENDS:
        reference = make_context(agents, backend, index)
        expected = per_probe_pairs(reference, probes, include_self)
        batch = make_context(agents, backend, index)
        probe_index, rows = batch.visible_pairs(probes, include_self)
        assert (probe_index.tolist(), rows.tolist()) == expected, (backend, index)
        assert (batch.work_units, batch.index_probes) == (
            reference.work_units,
            reference.index_probes,
        ), (backend, index)


def scattered(classes, count, seed, size=20.0):
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(count):
        cls = classes[i % len(classes)]
        agents.append(cls(agent_id=i, x=float(rng.uniform(0, size)),
                          y=float(rng.uniform(0, size))))
    return agents


class TestVisiblePairs:
    """``visible_pairs`` is the concatenation of per-probe ``visible`` calls."""

    def test_single_class_world(self):
        agents = scattered((Boid,), 80, seed=1)
        assert_batch_matches_per_probe(agents, agents)

    def test_probe_subset_in_any_order(self):
        agents = scattered((Boid,), 80, seed=2)
        probes = agents[40:] + agents[:5] + agents[::-7]
        assert_batch_matches_per_probe(agents, probes)
        assert_batch_matches_per_probe(agents, probes, include_self=True)

    def test_probe_outside_the_snapshot(self):
        agents = scattered((Boid, Narrow), 80, seed=3)
        outsiders = [Boid(agent_id=1000, x=10.0, y=10.0), Narrow(agent_id=1001, x=-1.0, y=3.0)]
        assert_batch_matches_per_probe(agents, agents[:10] + outsiders + agents[10:20])

    def test_class_with_unbounded_visibility(self):
        agents = scattered((Boid, Wanderer), 80, seed=4)
        assert_batch_matches_per_probe(agents, agents)
        assert_batch_matches_per_probe(agents, agents, include_self=True)
        assert_batch_matches_per_probe(agents, [Wanderer(agent_id=999, x=1.0, y=1.0)])

    def test_mixed_classes_with_different_radii(self):
        agents = scattered((Boid, Narrow, Lopsided), 90, seed=5)
        assert_batch_matches_per_probe(agents, agents)

    def test_duplicate_positions(self):
        agents = [Narrow(agent_id=i, x=float(i % 3), y=float(i % 2)) for i in range(70)]
        assert_batch_matches_per_probe(agents, agents)
        assert_batch_matches_per_probe(agents, agents, include_self=True)

    def test_empty_extent_and_no_probes(self):
        assert_batch_matches_per_probe([], [Boid(agent_id=1, x=0.0, y=0.0)])
        agents = scattered((Boid,), 70, seed=6)
        assert_batch_matches_per_probe(agents, [])

    @settings(max_examples=40, deadline=None)
    @given(
        layout=st.lists(
            st.tuples(
                st.integers(0, len(AGENT_CLASSES) - 1),
                st.integers(0, 12),
                st.integers(0, 12),
            ),
            min_size=0,
            max_size=90,
        ),
        probe_picks=st.lists(st.integers(0, 200), max_size=40),
        outsiders=st.lists(st.tuples(st.integers(-4, 16), st.integers(-4, 16)), max_size=3),
        include_self=st.booleans(),
    )
    def test_property_matches_per_probe_calls(self, layout, probe_picks, outsiders,
                                              include_self):
        # Coarse integer coordinates force duplicates and exact box-edge hits.
        agents = [
            AGENT_CLASSES[kind](agent_id=i, x=x * 0.5, y=y * 0.5)
            for i, (kind, x, y) in enumerate(layout)
        ]
        extra = [Boid(agent_id=500 + i, x=x * 0.5, y=y * 0.5) for i, (x, y) in enumerate(outsiders)]
        pool = agents + extra
        probes = [pool[pick % len(pool)] for pick in probe_picks] if pool else []
        assert_batch_matches_per_probe(agents, probes, include_self)


def brute_force_nearest(agents, probe, k):
    center = probe.position()
    ranked = sorted(
        (a for a in agents if a is not probe),
        key=lambda a: (sum((p - c) ** 2 for p, c in zip(a.position(), center)),
                       agent_sort_key(a.agent_id)),
    )
    return ranked[:k]


class TestNearestTies:
    """``nearest`` ranks by (dist_sq, agent_sort_key) on every backend."""

    #: (spatial_backend, index) -> the (work_units, index_probes) one call charges.
    CHARGES = {
        ("vectorized", "kdtree"): lambda n: (0, 1),
        ("vectorized", "grid"): lambda n: (n, 0),
        ("python", "kdtree"): lambda n: (0, 1),
        ("python", "grid"): lambda n: (n, 0),
        ("python", None): lambda n: (n, 0),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1,
                       max_size=40),
        order=st.randoms(use_true_random=False),
        probe_pick=st.integers(0, 100),
        k=st.integers(1, 8),
    )
    def test_forced_ties_break_canonically(self, cells, order, probe_pick, k):
        # A tiny lattice: most distances tie exactly.  Ids are shuffled
        # against the extent order so canonical order is not list order.
        ids = list(range(len(cells)))
        order.shuffle(ids)
        agents = [Boid(agent_id=ids[i], x=float(x), y=float(y)) for i, (x, y) in enumerate(cells)]
        order.shuffle(agents)
        probe = agents[probe_pick % len(agents)]
        expected = [a.agent_id for a in brute_force_nearest(agents, probe, k)]
        for (backend, index), charge in self.CHARGES.items():
            context = make_context(agents, backend, index)
            found = [a.agent_id for a in context.nearest(probe, k=k)]
            assert found == expected, (backend, index)
            assert (context.work_units, context.index_probes) == charge(len(agents))

    def test_max_radius_applies_after_ranking(self):
        agents = [Boid(agent_id=i, x=float(i % 2), y=0.0) for i in range(6)]
        for backend, index in self.CHARGES:
            context = make_context(agents, backend, index)
            found = context.nearest(agents[0], k=5, max_radius=0.5)
            assert [a.agent_id for a in found] == [2, 4], (backend, index)


class TestRandomStreams:
    def test_agent_rng_is_deterministic(self):
        first = agent_rng(1, 2, 3).random(5)
        second = agent_rng(1, 2, 3).random(5)
        assert np.allclose(first, second)

    def test_agent_rng_differs_across_agents_and_ticks(self):
        base = agent_rng(1, 2, 3).random()
        assert agent_rng(1, 2, 4).random() != base
        assert agent_rng(1, 3, 3).random() != base
        assert agent_rng(2, 2, 3).random() != base

    def test_tuple_agent_ids_supported(self):
        assert agent_rng(0, 0, (1, 2)).random() == agent_rng(0, 0, (1, 2)).random()

    def test_query_and_update_streams_differ(self):
        world = make_boid_world(num_agents=2)
        agent = world.agents()[0]
        query_context = QueryContext(world.agents(), tick=5, seed=7)
        update_context = UpdateContext(tick=5, seed=7)
        assert query_context.rng(agent).random() != update_context.rng(agent).random()


class TestUpdateContext:
    def test_spawn_requests_record_parent_and_sequence(self):
        context = UpdateContext(tick=0, seed=0)
        parent = Boid(agent_id=4)
        first_child, second_child = Boid(), Boid()
        context.spawn(parent, first_child)
        context.spawn(parent, second_child)
        requests = context.spawn_requests
        assert [(parent_id, sequence) for parent_id, sequence, _ in requests] == [(4, 0), (4, 1)]

    def test_kill_requests_deduplicate(self):
        context = UpdateContext(tick=0, seed=0)
        agent = Boid(agent_id=9)
        context.kill(agent)
        context.kill(agent)
        assert context.kill_requests == {9}

    def test_merge_combines_requests(self):
        first = UpdateContext(tick=0, seed=0)
        second = UpdateContext(tick=0, seed=0)
        first.spawn(Boid(agent_id=1), Boid())
        second.kill(Boid(agent_id=2))
        first.merge(second)
        assert len(first.spawn_requests) == 1
        assert first.kill_requests == {2}
