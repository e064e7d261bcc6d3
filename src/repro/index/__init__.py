"""Index substrates: sweep status structures, interval tree,
point-enclosure indexes, STR R-tree and uniform grid."""

from .enclosure import BruteForceEnclosure, SegmentTreeEnclosureIndex
from .grid import UniformGridIndex
from .interval_tree import IntervalTree
from .rtree import RTree
from .sortedlist import SortedKeyList, StatusStructure

__all__ = [
    "BruteForceEnclosure",
    "IntervalTree",
    "RTree",
    "SegmentTreeEnclosureIndex",
    "SortedKeyList",
    "StatusStructure",
    "UniformGridIndex",
]
