"""Dynamic heat maps: incremental NN-circle maintenance + lazy rebuilds.

``DynamicAssignment`` keeps nearest-facility assignments current under
client/facility churn; ``DynamicHeatMap`` layers lazy heat-map rebuilding
on top: a size-measure rebuild is an NN-circle surface over the current
circles, and each rebuild reports the dirty rectangles its changed
circles cover, so serving layers invalidate only the tiles they touch.
"""

from .assignment import DynamicAssignment
from .heatmap import DynamicHeatMap

__all__ = [
    "DynamicAssignment",
    "DynamicHeatMap",
]
