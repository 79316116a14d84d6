"""Query- and update-phase contexts handed to agent behaviour code.

The *query context* is how an agent sees the rest of the world during the
query phase: it can enumerate the agents inside its visible region (a spatial
index accelerates the lookup) and draw deterministic random numbers.  The
*update context* lets an agent draw random numbers and request births and
deaths, which the engine applies at the tick boundary.

Both the sequential reference engine and the BRACE workers build the same
context classes, so agent code is oblivious to where it runs — exactly the
transparency BRASIL promises domain scientists.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.core.agent import Agent
from repro.core.errors import VisibilityError, WorldError
from repro.core.ordering import agent_sort_key
from repro.spatial.bbox import BBox
from repro.spatial.columnar import PointSet, VectorizedGrid, batch_neighbor_lists
from repro.spatial.grid import UniformGrid
from repro.spatial.kdtree import KDTree
from repro.spatial.quadtree import QuadTree

#: Extent size from which ``spatial_backend=None`` (auto) prefers the
#: columnar kernels: below this the per-tick snapshot costs more than the
#: handful of interpreted probes it replaces.
AUTO_VECTORIZE_MIN_AGENTS = 64


def resolve_spatial_backend(backend: str | None, index: str | None, num_agents: int) -> str:
    """Resolve a ``spatial_backend`` knob to ``"python"`` or ``"vectorized"``.

    ``None`` (auto) picks the vectorized columnar kernels when an index was
    requested (``index=None`` is an explicit ask for the un-indexed
    nested-loop baseline, which stays interpreted so the Figure 3/4
    no-indexing series keep their meaning) and the extent is large enough
    to amortize the snapshot.
    """
    if backend in ("python", "vectorized"):
        return backend
    if backend is not None:
        raise WorldError(
            f"unknown spatial backend {backend!r}; expected 'python', "
            "'vectorized' or None for automatic selection"
        )
    if index is not None and num_agents >= AUTO_VECTORIZE_MIN_AGENTS:
        return "vectorized"
    return "python"


def _dist_sq(point: Sequence[float], center: Sequence[float]) -> float:
    """Squared Euclidean distance, summed left to right like every backend."""
    return sum((p - c) ** 2 for p, c in zip(point, center))


def _default_region(cls: type) -> bool:
    """True when ``cls`` keeps :meth:`Agent.visible_region` (radii-derived)."""
    return getattr(cls, "visible_region", None) is Agent.visible_region


def _class_radii(cls: type) -> np.ndarray | None:
    """Per-dimension visibility radii of a class using the default region.

    ``None`` when the class overrides :meth:`Agent.visible_region`, has
    unbounded visibility, or declares a negative radius (which
    ``BBox.around`` rejects, so those rows must go through it).
    """
    if not _default_region(cls) or not cls.has_bounded_visibility():
        return None
    radii = np.asarray(cls.visibility_radii(), dtype=np.float64)
    if (radii < 0).any():
        return None
    return radii


def agent_rng(seed: int, tick: int, agent_id: Any) -> np.random.Generator:
    """A deterministic per-(seed, tick, agent) random generator.

    The stream depends only on the triple, never on execution order, so a
    sequential run and a distributed BRACE run draw identical numbers for the
    same agent at the same tick — the foundation of the equivalence tests.
    """
    if isinstance(agent_id, (tuple, list)):
        components = [int(part) for part in agent_id]
    else:
        components = [int(agent_id)]
    return np.random.default_rng([int(seed) & 0x7FFFFFFF, int(tick), *components])


class QueryContext:
    """The read-only view of the world an agent gets during the query phase.

    Parameters
    ----------
    agents:
        Every agent this context can serve (the full extent for the
        sequential engine; owned agents plus replicas for a BRACE worker).
    tick:
        Current tick number.
    seed:
        Simulation seed used for the per-agent random streams.
    index:
        ``"kdtree"``, ``"grid"``, ``"quadtree"`` or ``None`` (linear scan).
    cell_size:
        Grid cell size when ``index == "grid"``.
    check_visibility:
        When True, :meth:`neighbors` raises :class:`VisibilityError` if asked
        for a radius larger than the probing agent's declared visibility.
    spatial_backend:
        ``"python"`` (interpreted per-probe queries against the chosen
        index), ``"vectorized"`` (columnar batch kernels answering every
        probe of the tick in a handful of array operations) or ``None`` for
        automatic selection (:func:`resolve_spatial_backend`).
    snapshot:
        Optional prebuilt :class:`~repro.spatial.columnar.PointSet` over
        exactly these agents in canonical (:func:`agent_sort_key`) order —
        how a worker reuses the positions it already packed during the
        distribution phase.  Ignored by the python backend.

    Both backends return neighbour/visible matches in the *canonical agent
    order* (ascending :func:`agent_sort_key`), so every floating-point
    accumulation an agent performs over its matches is bit-identical
    regardless of backend, index choice, or how the extent was assembled.
    """

    def __init__(
        self,
        agents: Sequence[Any],
        tick: int,
        seed: int,
        index: str | None = "kdtree",
        cell_size: float | None = None,
        check_visibility: bool = True,
        spatial_backend: str | None = None,
        snapshot: PointSet | None = None,
    ):
        self._agents = list(agents)
        self.tick = tick
        self.seed = seed
        self.index_kind = index
        self.check_visibility = check_visibility
        self.work_units = 0
        self.index_probes = 0
        self.spatial_backend = resolve_spatial_backend(
            spatial_backend, index, len(self._agents)
        )
        self._snapshot = snapshot if self.spatial_backend == "vectorized" else None
        self._canonical_list: list[Any] | None = (
            list(snapshot.items) if self._snapshot is not None else None
        )
        self._canonical_rank: dict[int, int] | None = None
        #: radius -> (per-row neighbour arrays, per-row examined counts).
        self._neighbor_batches: dict[float, tuple] = {}
        #: Lazily computed σ_V batch join as CSR ``(indptr, rows, examined)``
        #: and the per-row visible boxes it probed (vectorized only).
        self._visible_batch = None
        self._visible_region_boxes = None
        if self.spatial_backend == "vectorized":
            self._index = None
        else:
            self._index = self._build_index(index, cell_size)

    def _build_index(self, index: str | None, cell_size: float | None):
        if index is None or not self._agents:
            return None
        key = lambda agent: agent.position()
        if index == "kdtree":
            return KDTree(self._agents, key=key)
        if index == "grid":
            if cell_size is None:
                cell_size = self._default_cell_size()
            return UniformGrid(self._agents, cell_size, key=key)
        if index == "quadtree":
            return QuadTree(self._agents, key=key)
        raise WorldError(f"unknown spatial index {index!r}")

    def _default_cell_size(self) -> float:
        radii = [
            radius
            for agent in self._agents
            for radius in agent.visibility_radii()
            if radius is not None
        ]
        return max(radii) if radii else 1.0

    # ------------------------------------------------------------------
    # Extent access
    # ------------------------------------------------------------------
    def agents(self) -> list[Any]:
        """Every agent visible to this context (the BRASIL ``Extent``)."""
        self.work_units += len(self._agents)
        return list(self._agents)

    def canonical_agents(self) -> list[Any]:
        """The extent in canonical order: the rows :meth:`visible_pairs` reports.

        Also the snapshot's row order.  Bookkeeping, not a query: no work
        is charged.
        """
        if self._canonical_list is None:
            self._canonical_list = sorted(
                self._agents, key=lambda agent: agent_sort_key(agent.agent_id)
            )
        return self._canonical_list

    def __len__(self) -> int:
        return len(self._agents)

    # ------------------------------------------------------------------
    # Neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors(
        self,
        agent: Any,
        radius: float | None = None,
        include_self: bool = False,
    ) -> list[Any]:
        """Agents within Euclidean ``radius`` of ``agent``, in canonical order.

        ``radius`` defaults to the agent's smallest declared visibility bound.
        """
        if radius is None:
            radius = self._default_radius(agent)
        self._check_radius(agent, radius)
        radius = float(radius)
        if self.spatial_backend == "vectorized":
            return self._neighbors_vectorized(agent, radius, include_self)
        center = agent.position()
        candidates = self._candidates(BBox.around(center, radius))
        radius_sq = radius * radius
        matches = []
        for candidate in candidates:
            if candidate is agent and not include_self:
                continue
            if _dist_sq(candidate.position(), center) <= radius_sq:
                matches.append(candidate)
        self.work_units += len(candidates)
        return self._in_canonical_order(matches)

    def neighbors_in_box(self, agent: Any, box: BBox, include_self: bool = False) -> list[Any]:
        """Agents whose position lies inside ``box``, in canonical order."""
        if self.spatial_backend == "vectorized":
            snapshot = self._ensure_snapshot()
            rows = snapshot.scan_box(box.lows, box.highs)
            self.work_units += self._probe_work(len(rows))
            self.index_probes += 1
            return self._materialize(snapshot, rows, agent, include_self)
        candidates = self._candidates(box)
        matches = []
        for candidate in candidates:
            if candidate is agent and not include_self:
                continue
            if box.contains_point(candidate.position()):
                matches.append(candidate)
        self.work_units += len(candidates)
        return self._in_canonical_order(matches)

    def visible(self, agent: Any, include_self: bool = False) -> list[Any]:
        """Agents inside ``agent``'s declared visible region, in canonical order."""
        if self.spatial_backend == "vectorized":
            return self._visible_vectorized(agent, include_self)
        region = agent.visible_region()
        if region is None:
            result = [
                a for a in self.canonical_agents() if include_self or a is not agent
            ]
            self.work_units += len(self._agents)
            return result
        return self.neighbors_in_box(agent, region, include_self=include_self)

    def visible_pairs(
        self, probes: Sequence[Any], include_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every probe's :meth:`visible` matches at once, as flat pair arrays.

        Returns ``(probe_index, extent_row)``: ``probe_index`` indexes
        ``probes`` and ``extent_row`` indexes :meth:`canonical_agents`.
        Pairs are probe-major with each
        probe's matches ascending — exactly the concatenation of
        ``visible(probe)`` over ``probes`` — and ``work_units`` and
        ``index_probes`` are charged as those calls would charge them.
        The vectorized backend gathers the pairs from the cached σ_V batch
        join (CSR) in array operations; the python backend, the reference
        oracle, builds them by calling :meth:`visible` per probe.
        """
        if self.spatial_backend == "vectorized":
            return self._visible_pairs_vectorized(probes, include_self)
        rank = self._rank()
        probe_index: list[int] = []
        extent_rows: list[int] = []
        for index, probe in enumerate(probes):
            matches = self.visible(probe, include_self)
            probe_index.extend([index] * len(matches))
            extent_rows.extend(rank[id(match)] for match in matches)
        return np.array(probe_index, dtype=np.intp), np.array(extent_rows, dtype=np.intp)

    def nearest(self, agent: Any, k: int = 1, max_radius: float | None = None) -> list[Any]:
        """Up to ``k`` nearest other agents, optionally within ``max_radius``.

        Ranked by ``(squared distance, agent_sort_key)``, so exact distance
        ties resolve in canonical order on every backend and index.
        """
        center = agent.position()
        if self.spatial_backend == "vectorized":
            found = self._nearest_vectorized(agent, center, k)
        elif isinstance(self._index, KDTree):
            self.index_probes += 1
            found = self._nearest_kdtree(agent, center, k)
        else:
            ranked = sorted(
                (a for a in self._agents if a is not agent),
                key=lambda a: (_dist_sq(a.position(), center), agent_sort_key(a.agent_id)),
            )
            self.work_units += len(self._agents)
            found = ranked[:k]
        if max_radius is not None:
            radius_sq = max_radius * max_radius
            found = [a for a in found if _dist_sq(a.position(), center) <= radius_sq]
        return found

    def rng(self, agent: Any) -> np.random.Generator:
        """Deterministic random generator for ``agent`` at this tick."""
        return agent_rng(self.seed, self.tick, agent.agent_id)

    # ------------------------------------------------------------------
    # Internals — canonical ordering
    # ------------------------------------------------------------------
    def _rank(self) -> dict[int, int]:
        """Object id → canonical rank, built once per context."""
        if self._canonical_rank is None:
            self._canonical_rank = {
                id(agent): rank for rank, agent in enumerate(self.canonical_agents())
            }
        return self._canonical_rank

    def _in_canonical_order(self, matches: list[Any]) -> list[Any]:
        """Sort ``matches`` into canonical order (in place, returned)."""
        if len(matches) > 1:
            rank = self._rank()
            matches.sort(key=lambda agent: rank[id(agent)])
        return matches

    # ------------------------------------------------------------------
    # Internals — vectorized backend
    # ------------------------------------------------------------------
    def _ensure_snapshot(self) -> PointSet:
        """The columnar snapshot over the extent, built at most once."""
        if self._snapshot is None:
            self._snapshot = PointSet(
                self.canonical_agents(), key=lambda agent: agent.position()
            )
        return self._snapshot

    def _materialize(self, snapshot, rows, agent, include_self) -> list[Any]:
        """Turn match rows into agent objects, honouring self-exclusion."""
        row = snapshot.row_of(agent)
        if not include_self and row is not None:
            rows = rows[rows != row]
            return snapshot.take(rows)
        matches = snapshot.take(rows)
        if not include_self and row is None:
            matches = [match for match in matches if match is not agent]
        return matches

    def _probe_work(self, candidates: int) -> int:
        """The python backend's work charge for one indexed probe.

        One log-cost index descent plus the surfaced candidates — charged
        identically on both backends so virtual-time measurements stay
        comparable when the backend flips between runs or worker sizes.
        """
        return max(1, int(math.log2(len(self._agents) + 1))) + candidates

    def _neighbors_vectorized(self, agent, radius, include_self) -> list[Any]:
        snapshot = self._ensure_snapshot()
        row = snapshot.row_of(agent)
        self.index_probes += 1
        if row is None:
            # Probe from outside the extent: one columnar scan.
            rows = snapshot.scan_radius(agent.position(), radius)
            self.work_units += self._probe_work(len(rows))
            return self._materialize(snapshot, rows, agent, include_self)
        batch = self._neighbor_batches.get(radius)
        if batch is None:
            batch = batch_neighbor_lists(snapshot, radius, include_self=True)
            self._neighbor_batches[radius] = batch
        lists, examined = batch
        self.work_units += self._probe_work(int(examined[row]))
        rows = lists[row]
        if not include_self:
            rows = rows[rows != row]
        return snapshot.take(rows)

    def _visible_vectorized(self, agent, include_self) -> list[Any]:
        # The single-probe twin of _visible_pairs_vectorized: same pairs
        # and charge, at a fraction of the batch path's fixed overhead.
        snapshot = self._ensure_snapshot()
        region = agent.visible_region()
        if region is None:
            # Mirror the interpreted path exactly, including its work charge:
            # a full-extent scan, no index probe.
            self.work_units += len(self._agents)
            return [a for a in snapshot.items if include_self or a is not agent]
        row = snapshot.row_of(agent)
        self.index_probes += 1
        if row is None:
            rows = snapshot.scan_box(region.lows, region.highs)
            self.work_units += self._probe_work(len(rows))
            return self._materialize(snapshot, rows, agent, include_self)
        indptr, batch_rows, examined = self._visible_csr(snapshot)
        self.work_units += self._probe_work(int(examined[row]))
        rows = batch_rows[indptr[row] : indptr[row + 1]]
        if not include_self:
            rows = rows[rows != row]
        return snapshot.take(rows)

    def _visible_pairs_vectorized(self, probes, include_self):
        snapshot = self._ensure_snapshot()
        count = len(probes)
        own = np.fromiter(
            (-1 if (row := snapshot.row_of(probe)) is None else row for probe in probes),
            dtype=np.intp,
            count=count,
        )
        inside = own >= 0
        bounded = np.zeros(count, dtype=bool)
        if inside.any():
            bounded[inside] = self._visible_boxes(snapshot)[2][own[inside]]
        batched = np.flatnonzero(inside & bounded)
        pieces: list[tuple[np.ndarray, np.ndarray]] = []
        if len(batched):
            indptr, batch_rows, examined = self._visible_csr(snapshot)
            rows_of = own[batched]
            starts = indptr[rows_of]
            lengths = indptr[rows_of + 1] - starts
            total = int(lengths.sum())
            positions = np.arange(total, dtype=np.intp)
            positions += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            probe_index = np.repeat(batched, lengths)
            extent_rows = batch_rows[positions]
            if not include_self:
                keep = extent_rows != own[probe_index]
                probe_index, extent_rows = probe_index[keep], extent_rows[keep]
            pieces.append((probe_index, extent_rows))
            self.index_probes += len(batched)
            self.work_units += len(batched) * self._probe_work(0)
            self.work_units += int(examined[rows_of].sum())
        special = np.flatnonzero(~(inside & bounded))
        everything = np.arange(len(snapshot), dtype=np.intp)
        for index in special.tolist():
            row = int(own[index])
            region = None if row >= 0 else probes[index].visible_region()
            if region is None:
                # Unbounded visibility: the full extent, no index probe.
                self.work_units += len(self._agents)
                rows = everything if include_self or row < 0 else everything[everything != row]
            else:
                # A probe from outside the extent: one columnar scan.
                rows = snapshot.scan_box(region.lows, region.highs)
                self.index_probes += 1
                self.work_units += self._probe_work(len(rows))
            pieces.append((np.full(len(rows), index, dtype=np.intp), rows))
        if not pieces:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        if len(pieces) == 1:
            return pieces[0]
        probe_index = np.concatenate([piece[0] for piece in pieces])
        extent_rows = np.concatenate([piece[1] for piece in pieces])
        # Each piece lists its probes' rows ascending: a stable sort by
        # probe restores the probe-major order of per-probe visible() calls.
        order = np.argsort(probe_index, kind="stable")
        return probe_index[order], extent_rows[order]

    def _visible_boxes(self, snapshot: PointSet):
        """``(lows, highs, bounded)``: every row's visible region, built once.

        Classes that keep :meth:`Agent.visible_region` get their boxes as
        ``points ± per-class radii`` — the float64 ops of ``BBox.around`` —
        in one array operation; any other class is asked per agent.
        Unbounded rows get a void box (``inf``/``-inf``).
        """
        if self._visible_region_boxes is not None:
            return self._visible_region_boxes
        points = snapshot.points
        lows = np.full_like(points, np.inf)
        highs = np.full_like(points, -np.inf)
        bounded = np.zeros(len(points), dtype=bool)
        classes: dict[type, int] = {}
        class_of = np.fromiter(
            (classes.setdefault(type(item), len(classes)) for item in snapshot.items),
            dtype=np.intp,
            count=len(snapshot),
        )
        for cls, code in classes.items():
            rows = np.flatnonzero(class_of == code)
            radii = _class_radii(cls)
            if radii is not None:
                lows[rows] = points[rows] - radii
                highs[rows] = points[rows] + radii
                bounded[rows] = True
                continue
            if _default_region(cls) and not cls.has_bounded_visibility():
                continue  # the default region of an unbounded class is None
            for row in rows.tolist():
                region = snapshot.items[row].visible_region()
                if region is not None:
                    lows[row] = region.lows
                    highs[row] = region.highs
                    bounded[row] = True
        self._visible_region_boxes = lows, highs, bounded
        return self._visible_region_boxes

    def _visible_csr(self, snapshot: PointSet):
        """Batch σ_V probe of every row's visible region, as CSR.

        Returns ``(indptr, rows, examined)``: row ``i``'s matches are
        ``rows[indptr[i]:indptr[i + 1]]``, ascending, self included.
        Unbounded rows never consult the batch (they take the full-extent
        path), so their void boxes do no work in the kernel.
        """
        if self._visible_batch is None:
            lows, highs, bounded = self._visible_boxes(snapshot)
            points = snapshot.points
            if bounded.any():
                cell = np.maximum((highs[bounded] - lows[bounded]).max(axis=0), 1e-12)
            else:
                cell = np.maximum(points.max(axis=0) - points.min(axis=0), 1.0)
            grid = VectorizedGrid(snapshot, cell)
            probe_ids, rows, examined = grid.batch_range_query(lows, highs)
            indptr = np.searchsorted(probe_ids, np.arange(len(snapshot) + 1))
            self._visible_batch = indptr, rows, examined
        return self._visible_batch

    def _nearest_vectorized(self, agent, center, k: int) -> list[Any]:
        snapshot = self._ensure_snapshot()
        points = snapshot.points
        # Charge what the python path would for the configured index, so
        # virtual-time accounting stays backend-independent.
        if self.index_kind == "kdtree":
            self.index_probes += 1
        else:
            self.work_units += len(self._agents)
        if len(points) == 0 or k <= 0:
            return []
        center_arr = np.asarray(tuple(map(float, center)), dtype=np.float64)
        diff = points - center_arr
        dist_sq = diff[:, 0] * diff[:, 0]
        for dimension in range(1, points.shape[1]):
            dist_sq = dist_sq + diff[:, dimension] * diff[:, dimension]
        order = np.argsort(dist_sq, kind="stable")
        row = snapshot.row_of(agent)
        found = []
        for candidate_row in order:
            candidate = snapshot.items[int(candidate_row)]
            if candidate is agent or (row is not None and int(candidate_row) == row):
                continue
            found.append(candidate)
            if len(found) == k:
                break
        return found

    def _nearest_kdtree(self, agent, center, k: int) -> list[Any]:
        """k-d tree nearest neighbours with ties resolved canonically.

        The tree breaks exact distance ties by traversal order, so the
        probe widens until the farthest returned candidate is strictly
        farther than the k-th ranked one: then every tied candidate is in
        hand and the ``(dist_sq, agent_sort_key)`` ranking is exact.
        """
        if k <= 0:
            return []
        size = len(self._agents)
        want = k + 1
        while True:
            batch = self._index.k_nearest(center, want)
            ranked = sorted(
                (
                    (_dist_sq(a.position(), center), agent_sort_key(a.agent_id), index)
                    for index, a in enumerate(batch)
                    if a is not agent
                )
            )
            if want >= size or len(ranked) < k:
                break
            farthest = _dist_sq(batch[-1].position(), center)
            if farthest > ranked[k - 1][0]:
                break
            want *= 2
        return [batch[index] for _, _, index in ranked[:k]]

    def _candidates(self, box: BBox) -> Iterable[Any]:
        if self._index is None:
            return self._agents
        self.index_probes += 1
        self.work_units += max(1, int(math.log2(len(self._agents) + 1)))
        return self._index.range_query(box)

    def _default_radius(self, agent: Any) -> float:
        radii = [radius for radius in agent.visibility_radii() if radius is not None]
        if not radii:
            raise WorldError(
                f"{type(agent).__name__} has no bounded visibility; pass an explicit radius"
            )
        return min(radii)

    def _check_radius(self, agent: Any, radius: float) -> None:
        if not self.check_visibility:
            return
        for bound in agent.visibility_radii():
            if bound is not None and radius > bound * (1 + 1e-9):
                raise VisibilityError(
                    f"{type(agent).__name__} #{agent.agent_id} queried radius {radius} "
                    f"which exceeds its visibility bound {bound}"
                )


class UpdateContext:
    """The view an agent gets during the update phase.

    Only the agent's own state and aggregated effects may be read; the context
    additionally offers deterministic randomness and birth/death requests.
    """

    def __init__(self, tick: int, seed: int, world_bounds: BBox | None = None):
        self.tick = tick
        self.seed = seed
        self.world_bounds = world_bounds
        self._spawn_requests: list[tuple[Any, int, Any]] = []
        self._kill_requests: set[Any] = set()
        self._spawn_counts: dict[Any, int] = {}

    def rng(self, agent: Any) -> np.random.Generator:
        """Deterministic random generator for ``agent`` at this tick.

        The stream is offset from the query-phase stream so query and update
        draws never overlap.
        """
        return agent_rng(self.seed ^ 0x5BD1E995, self.tick, agent.agent_id)

    def spawn(self, parent: Any, child: Any) -> None:
        """Request that ``child`` (an agent without an id) joins the world next tick."""
        sequence = self._spawn_counts.get(parent.agent_id, 0)
        self._spawn_counts[parent.agent_id] = sequence + 1
        self._spawn_requests.append((parent.agent_id, sequence, child))

    def kill(self, agent: Any) -> None:
        """Request that ``agent`` is removed from the world at the tick boundary."""
        self._kill_requests.add(agent.agent_id)

    @property
    def spawn_requests(self) -> list[tuple[Any, int, Any]]:
        """Pending ``(parent_id, sequence, child)`` spawn requests."""
        return list(self._spawn_requests)

    @property
    def kill_requests(self) -> set[Any]:
        """Ids of agents whose removal has been requested."""
        return set(self._kill_requests)

    def merge(self, other: "UpdateContext") -> None:
        """Fold another context's birth/death requests into this one.

        Used by the BRACE master to combine the requests collected by every
        worker before applying them globally in a deterministic order.
        """
        self._spawn_requests.extend(other._spawn_requests)
        self._kill_requests.update(other._kill_requests)
