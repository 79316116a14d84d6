"""One benchmark run: rounds of set-up, warm-up and timed ticks, then checks.

Times are reported at a nominal machine speed.  The benchmark runs on
shared hosts whose speed swings by up to half for a minute at a time, so a
raw wall-clock second means something different from one minute to the
next.  A fixed speed probe (:func:`speed_probe`, a millisecond of
interpreter and NumPy work that the program under test never touches) runs
right before set-up and between consecutive timed ticks; each wall time is
scaled by ``NOMINAL_PROBE_SECONDS`` over the mean of the probes on either
side of it.  A change to the program changes the wall time, not the probe,
so it moves the scaled time in full.  The raw wall-clock values are printed
next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.tracing import Tracer
from perfbench.workloads import (
    HELD_OUT_SEED,
    NUM_AGENTS,
    WARMUP_TICKS,
    Observed,
    Workload,
    state_digest,
)
from repro.core.engine import SequentialEngine
from repro.history import History

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the run (history stores) and the reference-digest cache.
WORK_DIR = ROOT / ".perfbench"
#: Rounds stop here even short of the tail percentile's tick count.
MAX_WINDOW_SECONDS = 100.0
#: Probe time of the nominal machine: a scaled second is a wall second on a
#: machine that runs :func:`speed_probe` in exactly this time.
NOMINAL_PROBE_SECONDS = 1e-3
_PROBE_ARRAY = np.random.default_rng(0).random(4096)

END_TO_END_UNITS = {
    "agent_ticks_per_s": "1/s",
    "tick_s_p50": "s",
    "tick_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def speed_probe() -> float:
    """Wall seconds of a fixed mix of interpreter and NumPy work (about 1 ms)."""
    start = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for index in range(4500):
        total += index * index
        table[index & 63] = total
    for _ in range(15):
        np.sort(_PROBE_ARRAY)
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Factor from wall seconds to nominal seconds between two probes."""
    return 2 * NOMINAL_PROBE_SECONDS / (before + after)


@dataclass
class TimedTick:
    """One timed tick: its wall time, the probe scale around it, its statistics."""

    wall_s: float
    scale: float
    stats: Any

    @property
    def seconds(self) -> float:
        """Wall time at the nominal machine speed."""
        return self.wall_s * self.scale


class Operations:
    """Attempted and failed operations (ticks and ``state_at`` queries)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run ``workload`` once; returns the result line plus report and detail."""
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, traced, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


@dataclass
class Round:
    """One fresh world run for ``workload.round_ticks`` ticks."""

    #: Set-up wall time and its probe scale.
    setup_wall_s: float
    setup_scale: float
    #: BraceTickStatistics of the set-up and warm-up ticks.
    untimed: list
    timed: list[TimedTick]
    #: "untraced", "traced" (spans) or "counted" (hot-function counts).
    kind: str
    final_digest: str
    fault_events: list
    nodes: int
    final_population: int


def _run_round(
    workload: Workload,
    seed: int,
    round_dir: Path,
    layer_tracer: Tracer | None,
    guard_tracer: Tracer,
    ops: Operations,
    kind: str = "untraced",
) -> Round:
    """Set up, warm up (traced for the guards) and time one round."""
    stream = None
    probe = speed_probe()
    start = time.perf_counter()
    session = workload.session(seed, round_dir)
    try:
        stream = session.stream(workload.round_ticks)
        untimed = [next(stream).stats]
        setup_wall_s = time.perf_counter() - start
        setup_scale = _scale(probe, speed_probe())
        ops.attempted += 1
        guard_tracer.install()
        try:
            for _ in range(WARMUP_TICKS):
                untimed.append(next(stream).stats)
                ops.attempted += 1
        finally:
            guard_tracer.uninstall()
        timed = []
        probe = speed_probe()
        for _ in range(workload.timed_ticks):
            tick_start = time.perf_counter()
            if layer_tracer is None:
                event = next(stream)
            else:
                layer_tracer.install()
                span = layer_tracer.begin("api.tick")
                try:
                    event = next(stream)
                finally:
                    layer_tracer.end(span)
                    layer_tracer.uninstall()
            wall_s = time.perf_counter() - tick_start
            after = speed_probe()
            timed.append(TimedTick(wall_s, _scale(probe, after), event.stats))
            probe = after
            ops.attempted += 1
        states = session.states()
        topology = getattr(session.runtime.executor, "node_topology", None)
        return Round(
            setup_wall_s=setup_wall_s,
            setup_scale=setup_scale,
            untimed=untimed,
            timed=timed,
            kind=kind,
            final_digest=state_digest(states),
            fault_events=list(session.runtime.fault_events),
            nodes=sum(1 for node in topology() if node["shards"]) if topology else 0,
            final_population=len(states),
        )
    finally:
        if stream is not None:
            stream.close()
        session.close()


def _run(workload: Workload, seed: int, seconds: float, traced: bool, work_dir: Path) -> dict:
    fingerprint = machine_fingerprint()
    ops = Operations()
    guard_tracer = Tracer()
    layer_tracer = Tracer()
    count_tracer = Tracer(counting=True)

    # Rounds until another would end past ``seconds``, once enough ticks are
    # timed for the tail percentile; traced runs alternate untraced and
    # traced rounds.
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        if index:
            shutil.rmtree(work_dir / f"round-{index - 1}", ignore_errors=True)
        span_round = traced and index % 2 == 1
        rounds.append(
            _run_round(
                workload,
                seed,
                work_dir / f"round-{index}",
                layer_tracer if span_round else None,
                guard_tracer,
                ops,
                "traced" if span_round else "untraced",
            )
        )
        elapsed = time.perf_counter() - started
        timed_ticks = sum(len(item.timed) for item in rounds)
        paired = not traced or len(rounds) % 2 == 0
        next_end = elapsed * (len(rounds) + (2 if traced else 1)) / len(rounds)
        enough = next_end > seconds and timed_ticks >= workload.min_timed_ticks
        if paired and (enough or elapsed >= MAX_WINDOW_SECONDS):
            break
    if traced:
        shutil.rmtree(work_dir / f"round-{len(rounds) - 1}", ignore_errors=True)
        rounds.append(
            _run_round(
                workload, seed, work_dir / f"round-{len(rounds)}", count_tracer,
                guard_tracer, ops, "counted",
            )
        )

    expected, cached = reference_digest(workload, seed, workload.round_ticks)
    digests = {item.final_digest for item in rounds}
    if digests != {expected}:
        ops.fail(
            f"state after tick {workload.round_ticks} differs from the sequential "
            f"engine in {sum(item.final_digest != expected for item in rounds)} of "
            f"{len(rounds)} rounds"
        )
    fault_events = [event for item in rounds for event in item.fault_events]
    if fault_events:
        ops.fail(f"fault events in an undisturbed run: {fault_events}", len(fault_events))

    queries: dict[str, Any] = {}
    read_tracer = None
    if workload.state_at_queries:
        read_tracer = Tracer() if traced else None
        queries = _query_history(
            workload, seed, work_dir / f"round-{len(rounds) - 1}" / "history",
            expected, read_tracer, ops,
        )
    peak_rss = peak_rss_mb()

    timed = [tick for item in rounds if item.kind != "counted" for tick in item.timed]
    kernel_counts = guard_tracer.counts + layer_tracer.counts
    observed = Observed(
        ticks=[stats for item in rounds for stats in item.untimed]
        + [tick.stats for tick in timed],
        timed=[tick.stats for tick in timed],
        kernel_attempts=kernel_counts["brasil.kernel_attempts"],
        kernel_hits=kernel_counts["brasil.kernel_hits"],
        nodes=min(item.nodes for item in rounds),
        start_population=rounds[0].untimed[0].num_agents,
        final_population=rounds[-1].final_population,
    )
    for problem in workload.guards(observed):
        ops.fail(f"guard: {problem}")

    durations = [tick.seconds for tick in timed]
    tail = float(np.percentile(durations, workload.tail_percentile))
    setup_seconds = [item.setup_wall_s * item.setup_scale for item in rounds]
    walls = [tick.wall_s for tick in timed]
    setup_walls = [item.setup_wall_s for item in rounds]
    detail: dict[str, Any] = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "agents": NUM_AGENTS,
        "traced": traced,
        "fingerprint": fingerprint,
        "rounds": len(rounds),
        "round_ticks": workload.round_ticks,
        "timed_ticks": len(timed),
        "round_agent_ticks_per_s": [
            _agent_ticks_per_s(item.timed) for item in rounds if item.kind != "counted"
        ],
        "tail_percentile": workload.tail_percentile,
        "ticks_beyond_tail": sum(1 for duration in durations if duration > tail),
        "setup_samples_s": setup_seconds,
        "nominal_probe_s": NOMINAL_PROBE_SECONDS,
        "probe_scale_median": statistics.median(tick.scale for tick in timed),
        "wall_clock": {
            "agent_ticks_per_s": _agent_ticks_per_s(timed, wall=True),
            "tick_s_p50": statistics.median(walls),
            "tick_s_tail": float(np.percentile(walls, workload.tail_percentile)),
            "setup_s": statistics.median(setup_walls),
            "setup_samples_s": setup_walls,
        },
        "final_digest": sorted(digests),
        "reference_digest": expected,
        "reference_cached": cached,
        "error_rate": ops.failed / ops.attempted,
        "failures": ops.failures,
        "wire_bytes_per_tick": statistics.fmean(tick.stats.ipc_bytes_total for tick in timed),
        **queries,
    }
    report = [f"perfbench {workload.name} seed={seed} trace={int(traced)}"]
    if traced:
        split = {
            kind: [tick for item in rounds if item.kind == kind for tick in item.timed]
            for kind in ("untraced", "traced", "counted")
        }
        metrics = layer_metrics(layer_tracer, count_tracer, split, queries, read_tracer)
        detail["layer_self_s_per_tick"] = {
            layer: ns / 1e9 / len(split["traced"])
            for layer, ns in sorted(layer_tracer.self_ns.items())
        }
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        values = {
            "agent_ticks_per_s": _agent_ticks_per_s(timed),
            "tick_s_p50": statistics.median(durations),
            "tick_s_tail": tail,
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
    for name, value in values.items():
        report.append(f"  {name:<36} {value:>16.6g} {units[name]}")
    if not traced:
        for name, value in detail["wall_clock"].items():
            if name in units:
                report.append(f"  {'wall-clock ' + name:<36} {value:>16.6g} {units[name]}")
    for name in ("error_rate", "wire_bytes_per_tick", "store_bytes_per_tick", "state_at_s_p50"):
        if name in detail:
            report.append(f"  {name:<36} {detail[name]:>16.6g} (detail)")
    if traced:
        report.append("  self time per traced tick, by layer:")
        for layer, seconds_per_tick in sorted(
            detail["layer_self_s_per_tick"].items(), key=lambda item: -item[1]
        ):
            report.append(f"    {layer:<34} {seconds_per_tick:>16.6g} s")
    report.append(
        f"  output check: {'ok' if not ops.failures else 'FAILED'}"
        f" ({ops.attempted} operations, {ops.failed} failed)"
    )
    report.extend(f"  failure: {message}" for message in ops.failures)
    return {
        "report": report,
        "detail": detail,
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def _agent_ticks_per_s(timed: list[TimedTick], wall: bool = False) -> float:
    seconds = sum(tick.wall_s if wall else tick.seconds for tick in timed)
    return sum(tick.stats.num_agents for tick in timed) / seconds


# ----------------------------------------------------------------------
# History queries
# ----------------------------------------------------------------------
def _query_history(
    workload: Workload,
    seed: int,
    path: Path,
    final_digest: str,
    tracer: Tracer | None,
    ops: Operations,
) -> dict[str, Any]:
    """Seeded ``state_at`` queries, one per equal stratum of the recording.

    With a ``tracer`` the same queries run a second time, traced, for the
    history read split.
    """
    history = History.open(path)
    try:
        return _ask_history(history, workload, seed, final_digest, tracer, ops)
    finally:
        history.store.close()


def _ask_history(
    history: History,
    workload: Workload,
    seed: int,
    final_digest: str,
    tracer: Tracer | None,
    ops: Operations,
) -> dict[str, Any]:
    base, last = history.base_tick, history.last_tick
    span = last - base
    rng = random.Random(seed)
    count = workload.state_at_queries
    ticks = [
        base + 1 + min(span - 1, int((stratum + rng.random()) * span / count))
        for stratum in range(count)
    ]

    def ask(tick: int):
        ops.attempted += 1
        try:
            return history.state_at(tick)
        except Exception as error:  # any failed query is a failed operation
            ops.fail(f"state_at({tick}) raised {type(error).__name__}: {error}")
            return None

    latencies = []
    for tick in ticks:
        start = time.perf_counter()
        ask(tick)
        latencies.append(time.perf_counter() - start)
    answer = ask(last)
    if answer is not None and state_digest(answer) != final_digest:
        ops.fail(f"state_at({last}) differs from the sequential engine")
    if tracer is not None:
        tracer.install()
        try:
            for tick in ticks:
                span_entry = tracer.begin("history.state_at")
                try:
                    ask(tick)
                finally:
                    tracer.end(span_entry)
        finally:
            tracer.uninstall()
    return {
        "state_at_s_p50": statistics.median(latencies),
        "state_at_queries": count,
        "state_at_ticks": ticks,
        "recorded_ticks": span,
        "store_bytes_per_tick": history.store.size_bytes() / span,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def layer_metrics(
    tracer: Tracer,
    count_tracer: Tracer,
    split: dict[str, list],
    queries: dict,
    reads: Tracer | None,
) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``."""
    traced = split["traced"]
    ticks = len(traced)
    stats = [tick.stats for tick in traced]
    counts = tracer.counts
    mean = statistics.fmean

    def per_tick_s(nanoseconds: float) -> float:
        return nanoseconds / 1e9 / ticks

    def span_s(layer: str) -> float:
        return per_tick_s(tracer.inclusive_ns[layer])

    map_derived = counts["brace.map_derived_ns"]
    attempts = counts["brasil.kernel_attempts"]
    untraced_rate = _agent_ticks_per_s(split["untraced"])
    traced_rate = _agent_ticks_per_s(traced)
    metrics = {
        "api.session_overhead_s": (per_tick_s(tracer.self_ns["api.tick"]), "s"),
        "brace.tick_s": (span_s("brace.tick"), "s"),
        "brace.driver_self_s": (
            per_tick_s(tracer.self_ns["brace.tick"] - map_derived), "s"
        ),
        "brace.map_s": (
            per_tick_s(map_derived + counts["round_ns.shard_map_phase"]), "s"
        ),
        "brace.replicas_per_tick": (mean(s.replicas_created for s in stats), "count"),
        "brace.migrations_per_tick": (mean(s.agents_migrated for s in stats), "count"),
        "brace.query_s": (
            per_tick_s(tracer.inclusive_ns["brace.query"] + counts["round_ns.shard_query_phase"]),
            "s",
        ),
        "brace.query_imbalance": (mean(s.query_wall_imbalance for s in stats), "ratio"),
        "brace.route_s": (span_s("brace.route"), "s"),
        "brace.routed_partials_per_tick": (counts["brace.routed_partials"] / ticks, "count"),
        "brace.update_s": (
            per_tick_s(
                tracer.inclusive_ns["brace.update"] + counts["round_ns.shard_update_phase"]
            ),
            "s",
        ),
        "brace.births_per_tick": (mean(s.spawned for s in stats), "count"),
        "brace.deaths_per_tick": (mean(s.killed for s in stats), "count"),
        "brace.passes": (mean(s.num_passes for s in stats), "count"),
        "spatial.join_s": (span_s("spatial.join"), "s"),
        "spatial.join_probes_per_tick": (counts["spatial.join_probes"] / ticks, "count"),
        "spatial.join_matches_per_tick": (counts["spatial.join_matches"] / ticks, "count"),
        "spatial.take_s": (span_s("spatial.take"), "s"),
        "spatial.take_rows_per_tick": (counts["spatial.take_rows"] / ticks, "count"),
        "core.soa_row_of_per_tick": (
            count_tracer.counts["core.soa_row_of"] / len(split["counted"]), "count"
        ),
        "core.soa_writeback_s": (span_s("core.soa_writeback"), "s"),
        "brasil.query_kernel_s": (span_s("brasil.query_kernel"), "s"),
        "brasil.update_kernel_s": (span_s("brasil.update_kernel"), "s"),
        "brasil.kernel_hit_ratio": (
            counts["brasil.kernel_hits"] / attempts if attempts else 0.0, "ratio"
        ),
        "brasil.glue_s": (per_tick_s(tracer.self_ns["brasil.query_kernel"]), "s"),
        "ipc.encode_s": (span_s("ipc.encode"), "s"),
        "ipc.decode_s": (span_s("ipc.decode"), "s"),
        "ipc.encoded_bytes_per_tick": (counts["ipc.encoded_bytes"] / ticks, "B"),
        "cluster.round_s": (span_s("cluster.round"), "s"),
        "cluster.rounds_per_tick": (tracer.calls["cluster.round"] / ticks, "count"),
        "cluster.frames_per_tick": (counts["cluster.frames"] / ticks, "count"),
        "cluster.serialize_s": (mean(s.ipc_serialize_seconds for s in stats), "s"),
        "cluster.transport_s": (mean(s.ipc_transport_seconds for s in stats), "s"),
        "cluster.compute_s": (mean(s.ipc_compute_seconds for s in stats), "s"),
        "cluster.wait_s": (mean(s.ipc_wait_seconds for s in stats), "s"),
        "history.record_s": (span_s("history.record"), "s"),
        "history.append_delta_s": (span_s("history.append_delta"), "s"),
        "history.delta_bytes_per_tick": (counts["history.delta_bytes"] / ticks, "B"),
        "history.checkpoint_s": (span_s("history.checkpoint"), "s"),
        "wire_bytes_per_tick": (mean(s.ipc_bytes_total for s in stats), "B"),
        "trace.untraced_agent_ticks_per_s": (untraced_rate, "1/s"),
        "trace.traced_agent_ticks_per_s": (traced_rate, "1/s"),
        "trace.overhead_share": (1.0 - traced_rate / untraced_rate, "ratio"),
    }
    asked = queries.get("state_at_queries", 0)

    def per_query(value: float) -> float:
        return value / asked if asked else 0.0

    metrics.update(
        {
            "history.read_delta_s": (
                per_query(reads.inclusive_ns["history.read_delta"] / 1e9) if reads else 0.0,
                "s",
            ),
            "history.read_checkpoint_s": (
                per_query(reads.inclusive_ns["history.read_checkpoint"] / 1e9) if reads else 0.0,
                "s",
            ),
            "history.deltas_replayed_per_query": (
                per_query(reads.calls["history.read_delta"]) if reads else 0.0,
                "count",
            ),
            "state_at_s_p50": (queries.get("state_at_s_p50", 0.0), "s"),
            "store_bytes_per_tick": (queries.get("store_bytes_per_tick", 0.0), "B"),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# Machine, memory and the reference path
# ----------------------------------------------------------------------
def machine_fingerprint() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_before": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (nodes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _code_fingerprint() -> str:
    """Hash of the program and benchmark sources the reference depends on."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_digest(workload: Workload, seed: int, ticks: int) -> tuple[str, bool]:
    """The sequential engine's state digest after ``ticks`` ticks.

    Cached per source tree in the checkout, so repeated runs of one seed pay
    for the reference once.  Returns ``(digest, came_from_cache)``.
    """
    cache_path = WORK_DIR / "reference-digests.json"
    key = f"{workload.name}:{seed}:{ticks}:{_code_fingerprint()}"
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        cache = {}
    if key in cache:
        return cache[key], True
    world = workload.world(seed)
    SequentialEngine(world).run(ticks)
    digest = state_digest({agent.agent_id: agent.state_dict() for agent in world.agents()})
    cache[key] = digest
    partial = cache_path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(cache, indent=1, sort_keys=True))
    os.replace(partial, cache_path)
    return digest, False
