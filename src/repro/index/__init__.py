"""Index substrates: sweep status structures, interval tree,
point-enclosure indexes, STR R-tree and uniform grid."""

from .bplustree import BPlusTree
from .enclosure import BruteForceEnclosure, SegmentTreeEnclosureIndex
from .grid import UniformGridIndex
from .interval_tree import IntervalTree
from .rtree import RTree
from .skiplist import SkipList
from .sortedlist import SortedKeyList, StatusStructure

__all__ = [
    "BPlusTree",
    "BruteForceEnclosure",
    "IntervalTree",
    "RTree",
    "SegmentTreeEnclosureIndex",
    "SkipList",
    "SortedKeyList",
    "StatusStructure",
    "UniformGridIndex",
]
