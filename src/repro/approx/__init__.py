"""Approximate RNN heat-map engines (kNN graphs and LSH).

The exact sweep engines are exact *and* 2-d; this package trades bounded,
tested error for workloads they cannot touch — high k, d > 2, huge n.
See :mod:`repro.approx.engines` for the two registered engines,
:mod:`repro.approx.knn_graph` and :mod:`repro.approx.lsh` for the
neighbor-search primitives; the engines serve their circles through
:class:`repro.core.surface.NNCircleSurface`, as the exact engines do.  ``docs/approx.md`` documents
the error model, the recall knob and the capability metadata.
"""

from .engines import build_knn_graph_result, build_lsh_result
from .knn_graph import (
    brute_force_knn,
    build_knn_graph,
    pairwise_distances,
    reverse_neighbor_counts,
    search_graph,
    symmetrize,
)
from .lsh import LSHIndex, calibrate_width, tables_for_recall

__all__ = [
    "LSHIndex",
    "brute_force_knn",
    "build_knn_graph",
    "build_knn_graph_result",
    "build_lsh_result",
    "calibrate_width",
    "pairwise_distances",
    "reverse_neighbor_counts",
    "search_graph",
    "symmetrize",
    "tables_for_recall",
]
