"""The benchmark's three workloads: worlds, sessions, references and guards.

Every workload runs 2,000 agents at the per-agent density of the paper's
10k-agent configuration, so that a run of 25 seconds times enough
ticks for a tail percentile.  ``README.md`` says why each workload exists and
which layer metric should move which end-to-end metric on it.

The scaled ``Vehicle`` and ``Predator`` classes come from the repository's
factories and are bound here at module level, with ``__module__`` naming
this module, so that history checkpoints and cluster nodes can pickle them
by reference: a node process imports this module to unpickle a vehicle.
Importing this module starts nothing and opens nothing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.api import Simulation
from repro.core.world import World
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.simulations.predator.model import PredatorParameters
from repro.simulations.predator.predator import make_predator_classes
from repro.simulations.predator.workload import build_predator_world
from repro.simulations.traffic.model import TrafficParameters
from repro.simulations.traffic.vehicle import make_vehicle_class
from repro.simulations.traffic.workload import build_traffic_world

#: Agents per world on every workload.
NUM_AGENTS = 2000
#: A seed never used while the benchmark was tuned: later claims must hold on it.
HELD_OUT_SEED = 9001


def _bind_here(cls: type, name: str) -> type:
    """Make ``cls`` picklable by reference as ``<this module>.<name>``."""
    cls.__module__ = __name__
    cls.__name__ = name
    cls.__qualname__ = name
    return cls


# ----------------------------------------------------------------------
# fish-compiled: FISH_SCHOOL_SCRIPT, compiled plans, serial, one worker
# ----------------------------------------------------------------------
#: The script's default box is ±10 visibility radii (±60) at 10k fish;
#: shrinking it with the square root of the population keeps that density.
FISH_HALF_WIDTH = 60.0 * math.sqrt(NUM_AGENTS / 10_000)


def _fish_script_session(seed: int) -> Simulation:
    bounds = [(-FISH_HALF_WIDTH, FISH_HALF_WIDTH)] * 2
    return Simulation.from_script(
        FISH_SCHOOL_SCRIPT, num_agents=NUM_AGENTS, seed=seed, bounds=bounds
    )


def fish_session(seed: int, workdir: Path) -> Simulation:
    return (
        _fish_script_session(seed)
        .with_executor("serial")
        .with_workers(1)
        .with_plan_backend("compiled")
    )


def fish_world(seed: int) -> World:
    return _fish_script_session(seed).world


# ----------------------------------------------------------------------
# traffic-cluster: Python vehicles, cluster executor, 2 nodes, 4 shards
# ----------------------------------------------------------------------
_DEFAULT_TRAFFIC = TrafficParameters()
#: The paper's density (vehicles per unit road per lane) on a longer segment.
TRAFFIC_PARAMETERS = _DEFAULT_TRAFFIC.scaled_to(
    NUM_AGENTS / (_DEFAULT_TRAFFIC.density_per_lane * _DEFAULT_TRAFFIC.num_lanes)
)
ScaledVehicle = _bind_here(make_vehicle_class(TRAFFIC_PARAMETERS), "ScaledVehicle")


def traffic_world(seed: int) -> World:
    return build_traffic_world(
        TRAFFIC_PARAMETERS, seed=seed, vehicle_class=ScaledVehicle, num_vehicles=NUM_AGENTS
    )


def traffic_session(seed: int, workdir: Path) -> Simulation:
    return (
        Simulation.from_agents(traffic_world(seed))
        .with_workers(4)
        .with_executor("cluster", max_workers=2)
        .with_nodes(2)
    )


# ----------------------------------------------------------------------
# predator-history: non-local bites, births/deaths, recorded history
# ----------------------------------------------------------------------
#: 1,500 fish on a 200x200 region stay near equilibrium; keep that density.
PREDATOR_PARAMETERS = PredatorParameters(region_size=200.0 * math.sqrt(NUM_AGENTS / 1500))
ScaledPredator = _bind_here(
    make_predator_classes(PREDATOR_PARAMETERS)[0], "ScaledPredator"
)


def predator_world(seed: int) -> World:
    return build_predator_world(
        NUM_AGENTS, PREDATOR_PARAMETERS, seed=seed, agent_class=ScaledPredator
    )


def predator_session(seed: int, workdir: Path) -> Simulation:
    return (
        Simulation.from_agents(predator_world(seed))
        .with_executor("serial")
        .with_workers(4)
        .with_non_local_effects()
        .with_history(workdir / "history")
    )


# ----------------------------------------------------------------------
# Guards: a silent path change fails the run instead of reading as a speedup
# ----------------------------------------------------------------------
@dataclass
class Observed:
    """What a run saw, for the guards to judge."""

    #: BraceTickStatistics of every tick of every round.
    ticks: list
    #: BraceTickStatistics of the timed ticks only.
    timed: list
    kernel_attempts: int
    kernel_hits: int
    #: Fewest cluster nodes hosting shards at the end of a round (0 off-cluster).
    nodes: int
    start_population: int
    final_population: int


def fish_guards(seen: Observed) -> list[str]:
    problems = []
    if seen.kernel_attempts == 0 or seen.kernel_hits != seen.kernel_attempts:
        problems.append(
            f"kernel hit ratio {seen.kernel_hits}/{seen.kernel_attempts}, expected 1.0"
        )
    wire = sum(tick.ipc_bytes_total for tick in seen.ticks)
    if wire != 0:
        problems.append(f"wire carried {wire} bytes on a serial run, expected 0")
    return problems


def traffic_guards(seen: Observed) -> list[str]:
    problems = []
    off_path = [
        tick.tick
        for tick in seen.timed
        if tick.executor != "cluster" or not tick.resident
    ]
    if off_path:
        problems.append(f"ticks {off_path[:5]} did not run resident on the cluster")
    if seen.nodes != 2:
        problems.append(f"{seen.nodes} cluster nodes hosted shards, expected 2")
    silent = [tick.tick for tick in seen.timed if tick.ipc_bytes_total <= 0]
    if silent:
        problems.append(f"ticks {silent[:5]} carried no bytes on the wire")
    return problems


#: The predator population must stay within this share of its start.
POPULATION_BAND = 0.25


def predator_guards(seen: Observed) -> list[str]:
    problems = []
    passes = {tick.num_passes for tick in seen.ticks}
    if passes != {3}:
        problems.append(f"reduce passes {sorted(passes)}, expected 3 on every tick")
    if sum(tick.spawned for tick in seen.ticks) <= 0:
        problems.append("no births")
    if sum(tick.killed for tick in seen.ticks) <= 0:
        problems.append("no deaths")
    low = seen.start_population * (1 - POPULATION_BAND)
    high = seen.start_population * (1 + POPULATION_BAND)
    sizes = [tick.num_agents for tick in seen.ticks] + [seen.final_population]
    if not all(low <= size <= high for size in sizes):
        problems.append(
            f"population left [{low:.0f}, {high:.0f}]: min {min(sizes)}, max {max(sizes)}"
        )
    return problems


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------
#: Untimed ticks after the set-up tick in every round.
WARMUP_TICKS = 2


@dataclass(frozen=True)
class Workload:
    """One workload: how to build, time and check it."""

    name: str
    why: str
    #: ``(seed, workdir) -> Simulation``, configured and not yet started.
    session: Callable[[int, Path], Simulation]
    #: ``seed -> World`` identical to the session's initial world.
    world: Callable[[int], World]
    guards: Callable[[Observed], list[str]]
    #: Timed ticks in every round.  A round always covers the same ticks
    #: of the same world, so rounds are repetitions of one measurement
    #: (fish schools disperse, making later ticks cheaper than early ones).
    timed_ticks: int
    #: Fixed tail percentile of the tick time; runs time at least the ticks
    #: that leave ten beyond it.
    tail_percentile: int
    #: Seeded ``state_at`` queries issued after the run (0: no history).
    state_at_queries: int = 0

    @property
    def round_ticks(self) -> int:
        """Ticks one round executes: set-up tick, warm-up and timed ticks."""
        return 1 + WARMUP_TICKS + self.timed_ticks

    @property
    def min_timed_ticks(self) -> int:
        return math.ceil(10 * 100 / (100 - self.tail_percentile))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="fish-compiled",
            why=(
                "query-phase bound (snapshot, spatial join, kernel glue, "
                "compiled kernels); no wire, no history, one reduce pass"
            ),
            session=fish_session,
            world=fish_world,
            guards=fish_guards,
            timed_ticks=10,
            tail_percentile=75,
        ),
        Workload(
            name="traffic-cluster",
            why=(
                "interpreted Python agents on 2 socket nodes: three wire "
                "rounds, codec and cross-node waits per tick; never uses plan kernels"
            ),
            session=traffic_session,
            world=traffic_world,
            guards=traffic_guards,
            timed_ticks=25,
            tail_percentile=90,
        ),
        Workload(
            name="predator-history",
            why=(
                "second reduce pass, births and deaths, history writes every "
                "tick and state_at reads after the run"
            ),
            session=predator_session,
            world=predator_world,
            guards=predator_guards,
            timed_ticks=15,
            tail_percentile=75,
            state_at_queries=12,
        ),
    )
}


def state_digest(states: dict[Any, dict[str, Any]]) -> str:
    """SHA-256 over every agent's exact state, independent of dict order."""
    digest = hashlib.sha256()
    for agent_id, state in sorted(states.items(), key=lambda item: repr(item[0])):
        digest.update(repr((agent_id, sorted(state.items()))).encode())
    return digest.hexdigest()
