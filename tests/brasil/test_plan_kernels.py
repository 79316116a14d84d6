"""Plan-kernel glue: the CSR hand-off from the σ_V join and fallback logging.

The compiled query phase gets every probe's matches from one batch call
(:meth:`QueryContext.visible_pairs`) as flat arrays.  The regression guard
below counts the per-object glue — ``PointSet.take`` rows and
``AgentTable.row_of`` calls — in a compiled fish query phase: it must scale
with the probes, never with the matches, or the per-match Python path has
crept back in.
"""

from __future__ import annotations

import logging

from repro.api import Simulation
from repro.brasil import compile_script, kernels
from repro.core.context import QueryContext
from repro.core.soa import AgentTable
from repro.core.world import World
from repro.simulations.predator.brasil_scripts import FISH_SCHOOL_SCRIPT
from repro.spatial.bbox import BBox
from repro.spatial.columnar import PointSet

NUM_FISH = 400
#: The script's 10k-fish density (±60 at 10k), so matches far outnumber probes.
FISH_BOUNDS = [(-12.0, 12.0)] * 2
TICKS = 2

_MIN_SCRIPT = (
    "class Critter {\n"
    "    public state float x : (x + min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
    "    public state float y : (y - min(max(w, 0 - 0.5), 0.5)); #visibility[2];\n"
    "    public state float w : (cnt > 0) ? (w + acc / cnt) * 0.5 : w;\n"
    "    private effect float acc : min;\n"
    "    private effect int cnt : count;\n"
    "    public void run() {\n"
    "        foreach (Critter p : Extent<Critter>) {\n"
    "            acc <- abs(x - p.x) + p.w;\n"
    "            cnt <- 1;\n"
    "        }\n    }\n}\n"
)


class TestGlueScalesWithProbes:
    def test_compiled_fish_query_phase_does_no_per_match_glue(self, monkeypatch):
        counts = {"take_rows": 0, "row_of": 0, "matches": 0, "hits": 0, "attempts": 0}
        take, row_of = PointSet.take, AgentTable.row_of
        visible_pairs = QueryContext.visible_pairs
        query_phase = kernels.try_compiled_query_phase

        def counted_take(self, rows):
            counts["take_rows"] += len(rows)
            return take(self, rows)

        def counted_row_of(self, agent):
            counts["row_of"] += 1
            return row_of(self, agent)

        def counted_pairs(self, probes, include_self=False):
            pairs = visible_pairs(self, probes, include_self)
            counts["matches"] += len(pairs[0])
            return pairs

        def counted_phase(owned, context):
            ran = query_phase(owned, context)
            counts["attempts"] += 1
            counts["hits"] += ran
            return ran

        monkeypatch.setattr(PointSet, "take", counted_take)
        monkeypatch.setattr(AgentTable, "row_of", counted_row_of)
        monkeypatch.setattr(QueryContext, "visible_pairs", counted_pairs)
        monkeypatch.setattr(kernels, "try_compiled_query_phase", counted_phase)
        session = (
            Simulation.from_script(
                FISH_SCHOOL_SCRIPT, num_agents=NUM_FISH, seed=1, bounds=FISH_BOUNDS
            )
            .with_workers(1)
            .with_plan_backend("compiled")
        )
        with session:
            session.run(TICKS)
        probes = NUM_FISH * TICKS
        assert counts["attempts"] == TICKS and counts["hits"] == TICKS
        # The guard is only meaningful when matches far outnumber probes.
        assert counts["matches"] > 5 * probes
        assert counts["take_rows"] + counts["row_of"] <= probes


class TestFallbackReasonIsLogged:
    def _critters(self, poisoned_w: float):
        cls = compile_script(_MIN_SCRIPT).agent_class
        world = World(bounds=BBox(((0.0, 10.0), (0.0, 10.0))), seed=0)
        for i in range(5):
            world.add_agent(cls(x=0.5 * i, y=0.0, w=poisoned_w if i == 2 else 0.0))
        agents = world.agents()
        return agents, QueryContext(agents, tick=0, seed=0, spatial_backend="vectorized")

    def test_nan_into_min_effect_logs_the_reason(self, caplog):
        agents, context = self._critters(float("nan"))
        with caplog.at_level(logging.DEBUG, logger="repro.brasil.kernels"):
            assert kernels.try_compiled_query_phase(agents, context) is False
        reasons = [r.getMessage() for r in caplog.records if r.name == "repro.brasil.kernels"]
        assert len(reasons) == 1
        assert "Critter" in reasons[0] and "NaN combined into min effect 'acc'" in reasons[0]
        # The fallback restored the work charge for the interpreted rerun.
        assert (context.work_units, context.index_probes) == (0, 0)

    def test_compiled_phase_logs_nothing(self, caplog):
        agents, context = self._critters(0.25)
        with caplog.at_level(logging.DEBUG, logger="repro.brasil.kernels"):
            assert kernels.try_compiled_query_phase(agents, context) is True
            assert kernels.try_compiled_update_phase(agents, context) == []
        assert not [r for r in caplog.records if r.name == "repro.brasil.kernels"]

    def test_update_fallback_logs_the_reason(self, caplog, monkeypatch):
        agents, context = self._critters(0.25)
        _, update_kernel = kernels.kernels_for_class(type(agents[0]))

        def refuse(agents, context):
            raise kernels.PlanKernelFallback("forced for the test")

        monkeypatch.setattr(update_kernel, "run", refuse)
        with caplog.at_level(logging.DEBUG, logger="repro.brasil.kernels"):
            assert kernels.try_compiled_update_phase(agents, context) == agents
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.brasil.kernels"]
        assert messages == ["update kernel for Critter fell back: forced for the test"]
