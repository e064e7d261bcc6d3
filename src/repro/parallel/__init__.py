"""repro.parallel — slab-partitioned multi-process build pipeline.

The CREST sweeps are single-core Python; this package partitions a build
along x into *slabs*, sweeps each slab in a separate process, and stitches
the per-slab fragments back into one :class:`~repro.core.regionset.RegionSet`
whose query answers match the serial engine.  See :mod:`.pipeline` for the
correctness argument and :mod:`.slabs` for the partitioning scheme.

Entry points:

* ``build_parallel`` — the pipeline itself (same contract as ``run_crest``).
* The ``linf-parallel`` / ``l2-parallel`` engines registered in
  :data:`repro.core.registry.REGISTRY`, reachable from ``RNNHeatMap.build``,
  ``HeatMapService.build`` and the CLI via ``workers=`` / ``--workers``.
* ``close_pool`` — explicit shutdown of the worker pool that is otherwise
  kept alive and reused across builds (see :mod:`.pool`).

The clip/stitch primitives themselves live in
:mod:`repro.core.stitching`; they remain importable from here for
compatibility.
"""

from ..core.stitching import clip_fragments, stitch_fragments
from .pipeline import build_parallel, resolve_workers
from .pool import close_pool, pool_stats
from .slabs import Slab, plan_slabs
from .worker import SlabTask, sweep_slab

__all__ = [
    "Slab",
    "SlabTask",
    "build_parallel",
    "clip_fragments",
    "close_pool",
    "plan_slabs",
    "pool_stats",
    "resolve_workers",
    "stitch_fragments",
    "sweep_slab",
]
