"""Span tracing installed around the program's public layer functions.

The traced run wraps each layer's entry points from the outside; the
program itself carries no tracing code.  Every call is a span timed on the
monotonic nanosecond clock and charged to its layer, and its duration is
charged to the span that was open when it started as child time.  A
layer's *self* time is its span minus the part covered by its child spans.  A span nested directly inside a span
of the same layer (``batch_neighbor_lists`` calling
``VectorizedGrid.batch_radius_query``) is folded into its parent, so
inclusive totals never count the same interval twice.

Only the driver's main thread is traced: cluster heartbeats run on other
threads and node-side work runs in other processes (the program publishes
that share as ``BraceTickStatistics.ipc_*_seconds``).

Wrappers are installed only for the traced ticks and removed right after,
so untimed and untraced ticks run the program's own functions.  Hot
per-element functions are counted, not timed, and by a tracer of their own
(``counting=True``) on ticks that are not timed: a wrapper around a function
called a hundred thousand times a tick would otherwise swamp the self time
of the layer calling it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable

_clock = time.perf_counter_ns


class Tracer:
    """Collects per-layer span totals, self times, call counts and counters."""

    def __init__(self, counting: bool = False) -> None:
        #: True: wrap only the hot counted functions; False: only the spans.
        self.counting = counting
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._main_thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []
        self._cells: dict[str, list[int]] = {}
        self._tick_entry: list | None = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(self, layer: str) -> list:
        """Open a span; returns the handle :meth:`end` closes."""
        now = _clock()
        entry = [layer, now, 0]
        if layer == "brace.tick":
            self._tick_entry = entry
        elif layer == "brace.query" and self._tick_entry is not None:
            # The in-place runtime inlines its map step in run_tick, before
            # the first query phase: derive its span from the gap.
            self.counts["brace.map_derived_ns"] += now - self._tick_entry[1]
            self._tick_entry = None
        self._stack.append(entry)
        return entry

    def end(self, entry: list) -> int:
        """Close ``entry`` (the innermost open span); returns its duration."""
        duration = _clock() - entry[1]
        if self._stack.pop() is not entry:
            raise RuntimeError(f"span {entry[0]!r} closed out of order")
        if entry is self._tick_entry:
            self._tick_entry = None
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[0] == entry[0]:
            # Same layer: the parent's span already covers this interval.
            parent[2] += entry[2]
            return duration
        layer = entry[0]
        self.inclusive_ns[layer] += duration
        self.self_ns[layer] += duration - entry[2]
        self.calls[layer] += 1
        if parent is not None:
            parent[2] += duration
        return duration

    def wrap(
        self,
        layer: str,
        fn: Callable,
        observe: Callable[["Tracer", int, tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every main-thread call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main_thread:
                return fn(*args, **kwargs)
            entry = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end(entry)
            if observe is not None:
                observe(tracer, duration, args, result)
            return result

        return traced

    def count_calls(self, counter: str, fn: Callable) -> Callable:
        """``fn`` counting positional-argument calls only, for hot functions.

        The count lands in :attr:`counts` when the tracer is uninstalled.
        """
        cell = self._cells.setdefault(counter, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap this tracer's share of the entry points in :func:`layer_targets`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, name, layer, observe in layer_targets():
            if (layer is None) != self.counting:
                continue
            original = vars(owner)[name]
            if layer is None:
                replacement = self.count_calls(observe, original)
            else:
                replacement = self.wrap(layer, original, observe)
            for holder in _holders(owner, name, original):
                self._patches.append((holder, name, original))
                setattr(holder, name, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)
        for counter, cell in self._cells.items():
            self.counts[counter] += cell[0]
            cell[0] = 0
        self._tick_entry = None


def _holders(owner: Any, name: str, original: Any) -> list:
    """``owner`` plus, for a module function, every module importing it by name."""
    if isinstance(owner, type):
        return [owner]
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") and getattr(module, name, None) is original
    ]


# ----------------------------------------------------------------------
# Counters observed at layer boundaries
# ----------------------------------------------------------------------
def _observe_query_kernel(tracer: Tracer, _duration: int, args: tuple, ran: bool) -> None:
    if args[0]:  # a worker owning no agents has nothing to compile
        tracer.counts["brasil.kernel_attempts"] += 1
        tracer.counts["brasil.kernel_hits"] += bool(ran)


def _observe_update_kernel(tracer: Tracer, _duration: int, args: tuple, remaining) -> None:
    if args[0]:
        tracer.counts["brasil.kernel_attempts"] += 1
        tracer.counts["brasil.kernel_hits"] += not remaining


def _observe_join(tracer: Tracer, _duration: int, args: tuple, result) -> None:
    tracer.counts["spatial.join_probes"] += len(args[1])
    tracer.counts["spatial.join_matches"] += len(result[0])


def _observe_take(tracer: Tracer, _duration: int, args: tuple, _result) -> None:
    tracer.counts["spatial.take_rows"] += len(args[1])


def _observe_routed(tracer: Tracer, _duration: int, _args: tuple, _result) -> None:
    tracer.counts["brace.routed_partials"] += 1


def _observe_encode(tracer: Tracer, _duration: int, _args: tuple, blob: bytes) -> None:
    tracer.counts["ipc.encoded_bytes"] += len(blob)


def _observe_round(tracer: Tracer, duration: int, args: tuple, _result) -> None:
    tasks = args[1]
    if tasks:
        # A round runs one shard function on every shard: name the phase.
        tracer.counts[f"round_ns.{tasks[0][1].__name__}"] += duration


def _observe_frame(tracer: Tracer, _duration: int, _args: tuple, _result) -> None:
    tracer.counts["cluster.frames"] += 1


def _observe_delta(tracer: Tracer, _duration: int, _args: tuple, size: int) -> None:
    tracer.counts["history.delta_bytes"] += size


def layer_targets() -> list[tuple[Any, str, str | None, Any]]:
    """``(owner, attribute, layer, observe)`` for every traced entry point.

    ``layer=None`` marks a hot function that is counted, not timed; its
    ``observe`` slot then names the counter.
    """
    from repro.brace.runtime import BraceRuntime
    from repro.brace.worker import Worker
    from repro.brasil import kernels
    from repro.cluster.client import ClusterExecutor
    from repro.cluster.protocol import FrameChannel
    from repro.core.soa import AgentTable
    from repro.history.recorder import HistoryRecorder
    from repro.history.store import HistoryStore
    from repro.ipc.frames import ColumnarCodec
    from repro.spatial import columnar

    return [
        (BraceRuntime, "run_tick", "brace.tick", None),
        (BraceRuntime, "sync_world", "brace.sync", None),
        (Worker, "run_query_phase", "brace.query", None),
        (Worker, "touched_replica_partials", "brace.route", None),
        (Worker, "merge_remote_partials", "brace.route", _observe_routed),
        (Worker, "run_update_phase", "brace.update", None),
        (kernels, "try_compiled_query_phase", "brasil.query_kernel", _observe_query_kernel),
        (kernels, "try_compiled_update_phase", "brasil.update_kernel", _observe_update_kernel),
        (columnar.VectorizedGrid, "batch_range_query", "spatial.join", _observe_join),
        (columnar.VectorizedGrid, "batch_radius_query", "spatial.join", _observe_join),
        (columnar, "batch_neighbor_lists", "spatial.join", None),
        (columnar.PointSet, "take", "spatial.take", _observe_take),
        (AgentTable, "row_of", None, "core.soa_row_of"),
        (AgentTable, "writeback", "core.soa_writeback", None),
        (ColumnarCodec, "encode", "ipc.encode", _observe_encode),
        (ColumnarCodec, "decode", "ipc.decode", None),
        (ClusterExecutor, "run_sharded_tasks", "cluster.round", _observe_round),
        (FrameChannel, "seal_message", "cluster.send", _observe_frame),
        (FrameChannel, "send_message", "cluster.send", _observe_frame),
        (FrameChannel, "recv_message", "cluster.recv", _observe_frame),
        (HistoryRecorder, "record", "history.record", None),
        (HistoryStore, "append_delta", "history.append_delta", _observe_delta),
        (HistoryStore, "write_checkpoint", "history.checkpoint", None),
        (HistoryStore, "read_delta", "history.read_delta", None),
        (HistoryStore, "read_checkpoint", "history.read_checkpoint", None),
    ]
