"""The public facade: build an RNN heat map end to end.

``RNNHeatMap`` wires the full pipeline of the paper: NN-circle computation
(Section III-A), the L1 -> L-infinity rotation (Section VII-B), algorithm
dispatch (CREST / CREST-A / baseline / superimposition / CREST-L2), and the
labeled-region output supporting interactive exploration.

    >>> hm = RNNHeatMap(clients, facilities, metric="l2")
    >>> result = hm.build()                       # CREST
    >>> result.heat_at(0.5, 0.5)
    >>> result.region_set.top_k_heats(5)
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import AlgorithmUnsupportedError
from ..geometry.circle import NNCircleSet
from ..geometry.metrics import Metric, get_metric
from ..geometry.transforms import IDENTITY, ROTATE_L1_TO_LINF, Transform
from ..influence.measures import InfluenceMeasure, SizeMeasure
from ..nn.nncircles import compute_nn_circles
from .pruning import PruningResult, run_pruning_max
from .registry import REGISTRY
from .regionset import RegionSet
from .surface import NNCircleSurface
from .sweep_linf import SweepStats

__all__ = [
    "RNNHeatMap", "HeatMapResult", "build_heat_map", "sweep_circles", "ALGORITHMS",
]

#: Advertised engine names — a snapshot of the registry's public engines
#: taken at import time.  Engines registered later dispatch fine through
#: ``build()``; use ``REGISTRY.names()`` for a live listing (the CLI does).
ALGORITHMS = REGISTRY.names(public_only=True)


class HeatMapResult:
    """A built heat map: its heat surface plus work counters.

    ``region_set`` answers point queries and rasters: the swept
    :class:`RegionSet`, or an :class:`NNCircleSurface` for size-measure
    maps served from their circles.  ``stats`` left ``None`` are the
    surface's sweep counters: reading them runs that sweep (once).
    Counters given for a surface without a maximum (no
    ``max_heat_point``) take it from :meth:`NNCircleSurface.peak` on
    first read — the approximate engines build that way, so the exact
    maximum stays off their build path.
    """

    def __init__(self, region_set, stats: "SweepStats | None" = None) -> None:
        self.region_set = region_set
        self._stats = stats

    def __repr__(self) -> str:
        return f"HeatMapResult({self.region_set!r}, stats={self._stats!r})"

    @property
    def stats(self) -> SweepStats:
        """Work counters (for a surface without given ones, its sweep's)."""
        stats = self._stats
        if stats is None:
            return self.region_set.arrangement().stats
        if stats.max_heat_point is None and isinstance(self.region_set, NNCircleSurface):
            heat, point, rnn = self.region_set.peak()
            stats = self._stats = dataclasses.replace(
                stats, max_heat=heat, max_heat_point=point, max_heat_rnn=rnn
            )
        return stats

    def known_stats(self) -> "SweepStats | None":
        """The counters if reading them costs no sweep, else ``None``; a
        maximum still to be found stays unfilled."""
        if self._stats is None:
            return self.region_set.arrangement().stats if self.region_set.swept else None
        return self._stats

    @property
    def max_heat(self) -> float:
        """The map's maximum heat (``-inf`` when empty); never sweeps."""
        return self.region_set.max_heat

    def heat_at(self, x: float, y: float) -> float:
        """Heat (influence) at one original-space point."""
        return self.region_set.heat_at(x, y)

    def rnn_at(self, x: float, y: float) -> frozenset:
        """The RNN set a facility at (x, y) would capture (client ids)."""
        return self.region_set.rnn_at(x, y)

    def heat_at_many(self, points) -> np.ndarray:
        """Vectorized heat for an (n, 2) batch of original-space points."""
        return self.region_set.heat_at_many(points)

    def rnn_at_many(self, points) -> "list[frozenset]":
        """RNN set per query point (empty outside all fragments)."""
        return self.region_set.rnn_at_many(points)

    def rasterize(self, width: int, height: int, bounds=None):
        """A (height, width) heat grid over ``bounds`` (default: the full
        extent); returns ``(grid, bounds)`` with raster row 0 = bottom.

        A swept ``RegionSet`` gives float heats; a circle surface gives
        unsigned integer counts (``NNCircleSurface.rasterize``).  Cast to
        float before subtracting grids: unsigned differences wrap.
        """
        return self.region_set.rasterize(width, height, bounds)

    @property
    def labels(self) -> int:
        """The paper's k: number of region labelings/influence computations."""
        return self.stats.labels


class RNNHeatMap:
    """Configure and build RNN heat maps (Definition 1 / the RC problem).

    Args:
        clients: (n, 2) array — the set O.
        facilities: (m, 2) array — the set F (ignored when monochromatic).
        metric: 'l1', 'l2' or 'linf'.
        measure: influence measure (default: RNN-set size).
        monochromatic: O == F with self-exclusion (Section VII-A).
        nn_backend: NN-circle backend ('auto', the grid search, or 'brute').
        k: reverse k-nearest-neighbor order (k=1 is the paper's RNN heat
            map; k>1 makes circle radii the k-th-NN distances, giving the
            R-k-NN heat map with the identical region-coloring reduction).
    """

    def __init__(
        self,
        clients: np.ndarray,
        facilities: "np.ndarray | None" = None,
        *,
        metric: "Metric | str" = "l2",
        measure: "InfluenceMeasure | None" = None,
        monochromatic: bool = False,
        nn_backend: str = "auto",
        k: int = 1,
    ) -> None:
        self.metric = get_metric(metric)
        self.measure = measure if measure is not None else SizeMeasure()
        self.monochromatic = monochromatic
        self.k = int(k)
        clients = np.asarray(clients, dtype=float)
        facilities = None if facilities is None else np.asarray(facilities, dtype=float)
        self.clients = clients
        self.facilities = clients if monochromatic else facilities

        if self.metric.name == "l1":
            # Section VII-B: rotate by pi/4 and solve under L-infinity.
            self.transform: Transform = ROTATE_L1_TO_LINF
            internal_clients = self.transform.forward_array(clients)
            internal_facilities = (
                None if facilities is None else self.transform.forward_array(facilities)
            )
            internal_metric = "linf"
        else:
            self.transform = IDENTITY
            internal_clients = clients
            internal_facilities = facilities
            internal_metric = self.metric

        self.circles: NNCircleSet = compute_nn_circles(
            internal_clients,
            internal_facilities,
            internal_metric,
            monochromatic=monochromatic,
            backend=nn_backend,
            k=self.k,
        )

    @property
    def sweep_metric_name(self) -> str:
        """Metric the internal engine runs under ('linf' for L1 inputs)."""
        return self.circles.metric.name

    def build(
        self,
        algorithm: str = "crest",
        *,
        collect_fragments: bool = True,
        baseline_index: str = "segment_tree",
        on_label=None,
        should_cancel=None,
    ) -> HeatMapResult:
        """Solve the RC problem and return the labeled subdivision.

        Algorithms are looked up in :data:`repro.core.registry.REGISTRY`;
        registered by default: 'crest' (the paper's sweep: the segment
        sweep under L1/L-infinity, the vectorized arc sweep under L2),
        'crest-a' (no changed intervals), 'baseline' (grid + enclosure
        queries; square metrics only), 'superimposition' (size measure
        only) and the non-public 'crest-l2' (the loop arc sweep).

        ``should_cancel`` is a zero-argument hook polled by the sweep
        engines once per event batch; returning True abandons the build
        with :class:`~repro.errors.BuildCancelledError`.  Engines that do
        not poll (superimposition, baseline) ignore it.
        """
        return sweep_circles(
            self.circles, self.measure, self.transform, algorithm,
            collect_fragments=collect_fragments,
            baseline_index=baseline_index, on_label=on_label,
            should_cancel=should_cancel,
        )

    def surface(self, algorithm: str = "crest") -> HeatMapResult:
        """The size-measure map served from its NN-circles, unswept.

        Heat, RNN sets, rasters and top-k come straight from the circles
        (:class:`~repro.core.surface.NNCircleSurface`); the ``algorithm``
        sweep runs only when fragments or sweep counters are first asked
        for, and then answers exactly as :meth:`build` would have.  The
        engine is resolved here, so an engine that cannot run under this
        metric fails now rather than at first use.
        """
        if not isinstance(self.measure, SizeMeasure):
            raise AlgorithmUnsupportedError(
                "circle surfaces count circles: the size measure only"
            )
        REGISTRY.resolve(algorithm, self.circles.metric.name)
        return HeatMapResult(
            NNCircleSurface(self.circles, self.transform, engine=algorithm)
        )

    def max_region(self, algorithm: str = "crest", **kwargs):
        """Find the maximum-influence region (the optimal-location query).

        Under L2 the 'pruning' comparator of [22] is available; 'crest'
        answers via a full sweep (stats.max_heat / max_heat_point).
        """
        algorithm = algorithm.lower()
        if algorithm == "pruning":
            if self.circles.metric.name != "l2":
                raise AlgorithmUnsupportedError("pruning runs under L2 only")
            return run_pruning_max(self.circles, self.measure, **kwargs)
        result = self.build(algorithm, collect_fragments=False, **kwargs)
        s = result.stats
        point = s.max_heat_point
        if point is not None and not self.transform.is_identity:
            point = self.transform.inverse(*point)
        return PruningResult(s.max_heat, s.max_heat_rnn, point)


def sweep_circles(
    circles: NNCircleSet,
    measure: InfluenceMeasure,
    transform: Transform,
    algorithm: str = "crest",
    *,
    collect_fragments: bool = True,
    baseline_index: str = "segment_tree",
    on_label=None,
    should_cancel=None,
) -> HeatMapResult:
    """Run a registered sweep engine over internal-frame NN-circles (see
    :meth:`RNNHeatMap.build` for the options)."""
    _spec, runner = REGISTRY.resolve(algorithm, circles.metric.name)
    stats, region_set = runner(
        circles,
        measure,
        transform=transform,
        collect_fragments=collect_fragments,
        on_label=on_label,
        baseline_index=baseline_index,
        should_cancel=should_cancel,
    )
    if region_set is None:
        region_set = RegionSet([], transform, float(measure(frozenset())))
    return HeatMapResult(region_set, stats)


def build_heat_map(
    clients: np.ndarray,
    facilities: "np.ndarray | None" = None,
    *,
    metric: "Metric | str" = "l2",
    measure: "InfluenceMeasure | None" = None,
    monochromatic: bool = False,
    algorithm: str = "crest",
    **kwargs,
) -> HeatMapResult:
    """One-shot convenience wrapper around ``RNNHeatMap(...).build(...)``."""
    hm = RNNHeatMap(
        clients,
        facilities,
        metric=metric,
        measure=measure,
        monochromatic=monochromatic,
    )
    return hm.build(algorithm, **kwargs)
