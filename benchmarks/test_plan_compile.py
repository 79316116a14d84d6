"""Benchmark: compiled plan kernels vs the interpreted BRASIL evaluator.

The plan kernels (:mod:`repro.brasil.kernels`) replace the per-agent tree
walk over the query/update plans with whole-phase columnar passes: one
scatter-add per inverted effect, one segment reduction per aggregate, one
vector expression per update rule.  This benchmark times the fish-school
script whole-tick — spatial join, query phase, effect routing and update
phase together — under both settings of ``plan_backend``:

* ``interpreted`` — the reference evaluator, one Python plan walk per
  agent per phase;
* ``compiled`` — the columnar kernels over the structure-of-arrays agent
  table (:mod:`repro.core.soa`).

Both backends produce bit-identical final states (asserted here); only the
speed differs.  The full-size configuration (10k agents, ``-m slow``) must
show at least a 15x whole-tick speedup; the tiny smoke configuration runs on
every CI push, writes ``BENCH_plan_compile.json`` and fails whenever the
compiled path is *slower* than the interpreter — the perf-regression guard.
"""

import time

import pytest

from benchmarks._bench_io import write_bench
from repro.api import Simulation
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT

SEED = 1
#: Whole ticks per timing sample: enough to amortize the first-tick index
#: build without turning the interpreted 10k run into a minutes-long wait.
TICKS = 3
#: Wall-clock best-of; keeps CI noise down.
TIMING_ROUNDS = 2


def tick_seconds(num_agents, plan_backend):
    """Best-of wall-clock seconds for ``TICKS`` whole ticks on ``plan_backend``."""
    best = float("inf")
    states = None
    for _ in range(TIMING_ROUNDS):
        session = (
            Simulation.from_script(FISH_SCHOOL_SCRIPT, num_agents=num_agents, seed=SEED)
            .with_workers(1)
            .with_plan_backend(plan_backend)
        )
        with session:
            start = time.perf_counter()
            session.run(TICKS)
            best = min(best, time.perf_counter() - start)
            states = session.states()
    return best, states


def run_comparison(num_agents):
    """Time both plan backends on the same world; assert identical results."""
    interpreted_seconds, interpreted_states = tick_seconds(num_agents, "interpreted")
    compiled_seconds, compiled_states = tick_seconds(num_agents, "compiled")
    assert compiled_states == interpreted_states
    return {
        "agents": num_agents,
        "ticks": TICKS,
        "interpreted_seconds": interpreted_seconds,
        "compiled_seconds": compiled_seconds,
        "interpreted_ticks_per_sec": TICKS / interpreted_seconds,
        "compiled_ticks_per_sec": TICKS / compiled_seconds,
        "speedup": interpreted_seconds / compiled_seconds,
    }


def write_results(rows):
    """Persist the measurements for the CI perf-regression job to archive."""
    write_bench("plan_compile", rows)


class TestPlanCompileSmoke:
    """Tiny configuration: runs on every push, guards against regressions."""

    def test_compiled_not_slower_and_identical(self, once):
        row = once(run_comparison, 2000)
        write_results([row])
        # The regression bar for CI: the compiled plan must never lose to
        # the interpreter at smoke size (it wins comfortably locally; a
        # ratio below 1.0 means the kernel path rotted).
        assert row["speedup"] >= 1.0, (
            f"compiled plan slower than interpreted: {row['speedup']:.2f}x"
        )


class TestPlanCompileFull:
    """Paper-scale configuration: the >=15x whole-tick compilation claim."""

    @pytest.mark.slow
    def test_ten_thousand_agent_tick_speedup(self, once):
        row = once(run_comparison, 10_000)
        write_results([row])
        # Five runs on a 2-core x86_64 machine measured 20.3x-25.3x; the
        # floor sits below their minimum.
        assert row["speedup"] >= 15.0, (
            f"expected >=15x on 10k-agent fish whole ticks, got {row['speedup']:.2f}x "
            f"(interpreted {row['interpreted_seconds']:.3f}s, "
            f"compiled {row['compiled_seconds']:.3f}s)"
        )
