"""Core algorithms: CREST (L-inf/L1 and L2), the grid baseline, the pruning
comparator, superimposition, the algorithm registry they dispatch through,
the labeled-region output model, and the NN-circle surface that serves
size-measure maps without the arrangement."""

from .baseline import run_baseline
from .pruning import PruningResult, run_pruning_max
from .registry import REGISTRY, AlgorithmRegistry, EngineSpec
from .regionset import ArcFragment, RectFragment, RegionSet
from .serialize import load_region_set, save_region_set
from .superimposition import run_superimposition
from .surface import NNCircleSurface
from .sweep_l2 import run_crest_l2
from .sweep_linf import SweepStats, run_crest
from .verify import VerificationReport, verify_region_set

__all__ = [
    "REGISTRY",
    "AlgorithmRegistry",
    "ArcFragment",
    "EngineSpec",
    "NNCircleSurface",
    "PruningResult",
    "RectFragment",
    "RegionSet",
    "SweepStats",
    "VerificationReport",
    "load_region_set",
    "run_baseline",
    "run_crest",
    "run_crest_l2",
    "run_pruning_max",
    "run_superimposition",
    "save_region_set",
    "verify_region_set",
]
