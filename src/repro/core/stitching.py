"""Fragment clip/stitch primitives for slab-partitioned sweeps.

:mod:`repro.parallel` clips per-slab sweeps to their ownership intervals
and stitches the slabs back into one subdivision.  A slab boundary cuts
regions of constant RNN set, so an x-cut is a pure interval intersection
(the bounding curves travel with the fragment) and a seam is healable
exactly when the two sides agree on everything but the x-span.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

__all__ = [
    "clip_fragments",
    "stitch_fragments",
    "fragment_maxima",
]


def clip_fragments(fragments: list, lo: float, hi: float) -> list:
    """Restrict fragments to x in ``[lo, hi]``, dropping empty remainders.

    Rect and arc fragments both carry their bounding curves independently of
    the x-span, so clipping is a pure x-interval intersection; a clipped
    piece keeps the heat and RNN set of its source region.
    """
    out = []
    for f in fragments:
        a = f.x_lo if f.x_lo > lo else lo
        b = f.x_hi if f.x_hi < hi else hi
        if b <= a:
            continue
        if a == f.x_lo and b == f.x_hi:
            out.append(f)
        else:
            out.append(replace(f, x_lo=a, x_hi=b))
    return out


def stitch_fragments(pieces: "list[list]") -> list:
    """Concatenate x-ordered fragment lists, re-merging seam-split pieces.

    A region split by a cut boundary appears as two clipped fragments that
    meet exactly at the boundary with identical bounding geometry, heat and
    RNN set; merging them back yields maximal x-runs again.  Fragments are
    frozen dataclasses, so a merge rebuilds the left piece with the right
    piece's ``x_hi``.

    A merge can only happen where a fragment's ``x_hi`` in one piece equals
    a fragment's ``x_lo`` in the next, so the (comparatively expensive)
    cross-section key is computed lazily for those seam candidates only —
    a seam touches a handful of fragments, not all of them.
    """
    merged: list = []
    # Key of a fragment's cross-section: everything but the x-span.
    def section(f):
        d = vars(f).copy()
        d.pop("x_lo")
        d.pop("x_hi")
        return (type(f).__name__, tuple(sorted(d.items(), key=lambda kv: kv[0])))

    right_edge: dict = {}  # (x_hi, section) -> index into merged
    prev_ends: set = set()  # x_hi values registered in right_edge
    for pi, fragments in enumerate(pieces):
        next_starts = (
            {f.x_lo for f in pieces[pi + 1]} if pi + 1 < len(pieces) else set()
        )
        next_edge: dict = {}
        for f in fragments:
            i = None
            if f.x_lo in prev_ends:
                i = right_edge.get((f.x_lo, section(f)))
            if i is not None:
                f = replace(merged[i], x_hi=f.x_hi)
                merged[i] = f
            else:
                merged.append(f)
                i = len(merged) - 1
            if f.x_hi in next_starts:
                next_edge[(f.x_hi, section(f))] = i
        right_edge = next_edge
        prev_ends = {x for x, _sec in right_edge}
    return merged


def fragment_maxima(fragments: list):
    """``(max_heat, rnn, representative_point, max_rnn_size)`` of a list.

    The empty list yields ``(-inf, frozenset(), None, 0)`` — the neutral
    element the sweep stats start from.
    """
    best = None
    max_rnn = 0
    for f in fragments:
        if len(f.rnn) > max_rnn:
            max_rnn = len(f.rnn)
        if best is None or f.heat > best.heat:
            best = f
    if best is None:
        return -np.inf, frozenset(), None, max_rnn
    return best.heat, best.rnn, best.representative_point(), max_rnn
