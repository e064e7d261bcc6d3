"""rnnhm — Reverse Nearest Neighbor heat maps (CREST).

A from-scratch reproduction of Sun, Zhang, Xue, Qi, Du: "Reverse Nearest
Neighbor Heat Maps: A Tool for Influence Exploration", ICDE 2016
(arXiv:1602.00389).  The package solves the RNN Heat Map problem — compute
the influence (any function of the RNN set) of every point in the plane —
by reducing it to Region Coloring and solving with the CREST sweep-line
algorithm under L1, L2 and L-infinity, alongside the paper's baseline and
comparator algorithms, data generators, rendering, and the full experiment
harness.

Quickstart::

    import numpy as np
    from repro import RNNHeatMap

    clients = np.random.rand(500, 2)
    facilities = np.random.rand(50, 2)
    result = RNNHeatMap(clients, facilities, metric="l2").build()
    result.heat_at(0.5, 0.5)
    result.region_set.top_k_heats(5)
"""

from .core.heatmap import ALGORITHMS, HeatMapResult, RNNHeatMap, build_heat_map
from .core.registry import REGISTRY, AlgorithmRegistry, EngineSpec
from .core.regionset import ArcFragment, RectFragment, RegionSet
from .core.serialize import load_region_set, save_region_set
from .core.sweep_linf import SweepStats
from .core.verify import VerificationReport, verify_region_set
from .dynamic import DynamicAssignment, DynamicHeatMap
from .errors import (
    AlgorithmUnsupportedError,
    BudgetExceededError,
    InvalidInputError,
    ReproError,
    UnknownAlgorithmError,
    UnknownDatasetError,
    UnknownHandleError,
    UnknownMetricError,
)
from .influence.measures import (
    CapacityConstrainedMeasure,
    ConnectivityMeasure,
    InfluenceMeasure,
    SizeMeasure,
    WeightedMeasure,
)
from .nn.rnn import NaiveRNN
from .service import (
    AsyncHeatMapService,
    HeatMapService,
    ResultStore,
    ServiceStats,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "REGISTRY",
    "AlgorithmRegistry",
    "AlgorithmUnsupportedError",
    "ArcFragment",
    "BudgetExceededError",
    "CapacityConstrainedMeasure",
    "ConnectivityMeasure",
    "DynamicAssignment",
    "DynamicHeatMap",
    "EngineSpec",
    "HeatMapResult",
    "AsyncHeatMapService",
    "HeatMapService",
    "InfluenceMeasure",
    "InvalidInputError",
    "NaiveRNN",
    "RNNHeatMap",
    "RectFragment",
    "RegionSet",
    "ReproError",
    "ResultStore",
    "ServiceStats",
    "SizeMeasure",
    "SweepStats",
    "UnknownAlgorithmError",
    "UnknownDatasetError",
    "UnknownHandleError",
    "UnknownMetricError",
    "VerificationReport",
    "WeightedMeasure",
    "build_heat_map",
    "load_region_set",
    "save_region_set",
    "verify_region_set",
    "__version__",
]
