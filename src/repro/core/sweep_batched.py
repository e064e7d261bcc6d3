"""The vectorized CREST-L2 arc sweep over flat numpy arrays.

This is the sweep ``crest`` runs under L2.  The loop engine
(:mod:`.sweep_l2`, registered as the non-public ``crest-l2``) spends most
of its time in per-event Python: the midpoint re-sort re-keys every live
arc through ``Arc.y_at`` calls, pair bookkeeping rebuilds a dict of every
adjacent pair per batch, and each label costs one Python ``measure()``
call.  This module re-implements the sweep around flat parallel arrays:

* **Event construction** is batched: circle-pair intersection math runs
  once over the grid index's pair arrays
  (:meth:`~repro.index.grid.UniformGridIndex.intersecting_pairs_arrays` +
  :func:`~repro.geometry.arcs.circle_intersections_many`) instead of a
  scalar call per pair, and the event queue sorts with one stable
  ``np.lexsort``.
* **The status structure is a set of parallel columns** — a sorted
  ``uid`` array plus per-uid geometry columns indexed by it — so the
  midpoint re-sort is one vectorized ``y_at`` evaluation and one
  ``np.lexsort``, dirty-block detection is a position gather over the
  flat status, and adjacent-pair births/deaths diff as packed int64 keys
  through sorted-array membership tests.
* **Measure calls are batched per event batch**: labels collected during
  the dirty walk are evaluated through
  :meth:`~repro.influence.measures.InfluenceMeasure.measure_many`, then
  post-processed in label order so max-heat tracking, stats counters and
  ``on_label`` callbacks observe the exact sequence the loop engine
  produces.

The output is **bit-identical** to the loop sweep's: the same fragments,
the same ``SweepStats`` counters, the same maxima and ``on_label``
sequence.  Every floating-point step mirrors the scalar code operation
for operation (``clip``/``maximum``/``sqrt`` compose exactly like the
branches in ``Arc.y_at``), sort keys are unique so the stable
``lexsort`` order equals the loop's ``sorted()`` order, and measures are
either called per-set in order (the default ``measure_many``) or
vectorized only where exactness is guaranteed.
``tests/test_batched_sweep.py`` enforces the contract property-style
against ``crest-l2``.

Cancellation: the sweep polls an optional ``should_cancel`` callback
once per event batch and raises
:class:`~repro.errors.BuildCancelledError` when it fires, so an
abandoned build stops within one batch.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmUnsupportedError
from ..geometry.arcs import LOWER_ARC, Arc, circle_intersections_many
from ..geometry.circle import NNCircleSet
from ..geometry.transforms import IDENTITY, Transform
from ..index.grid import UniformGridIndex
from .regionset import RegionSet
from .sweep_l2 import _ArcFragmentAssembler
from .sweep_linf import SweepStats, _check_cancel

__all__ = ["run_crest_l2_batched"]

_EXTREME_LEFT = 0
_CROSS = 1
_EXTREME_RIGHT = 2


def _measure_batch(measure, sets: list) -> "list[float]":
    """One batch of influence evaluations, bit-identical to scalar calls."""
    mm = getattr(measure, "measure_many", None)
    if mm is None:
        return [float(measure(fs)) for fs in sets]
    return mm(sets)


def _setdiff_sorted(keys: np.ndarray, other_sorted: np.ndarray) -> np.ndarray:
    """Elements of ``keys`` absent from sorted ``other_sorted``, preserving
    the order of ``keys`` (a cheaper ``np.isin`` for pre-sorted tables)."""
    if other_sorted.size == 0:
        return keys
    pos = other_sorted.searchsorted(keys)
    np.minimum(pos, other_sorted.size - 1, out=pos)
    return keys[other_sorted[pos] != keys]


def _build_l2_event_arrays(circles: NNCircleSet):
    """The L2 event queue as sorted parallel arrays.

    Columns: x, kind (0 extreme-left / 1 cross / 2 extreme-right), i
    (circle index), j (second circle of a cross, else -1), y (cross
    ordinate, else NaN).  Events are constructed in the loop engine's
    list order and sorted with a stable lexsort on (x, kind), so the
    resulting sequence is exactly ``_build_l2_events``'s.
    """
    n = len(circles)
    ext_x = np.empty(2 * n)
    ext_x[0::2] = circles.x_lo
    ext_x[1::2] = circles.x_hi
    ext_kind = np.tile(np.array([_EXTREME_LEFT, _EXTREME_RIGHT], dtype=np.int64), n)
    ext_i = np.repeat(np.arange(n, dtype=np.int64), 2)

    grid = UniformGridIndex(circles.x_lo, circles.x_hi, circles.y_lo, circles.y_hi)
    pi, pj = grid.intersecting_pairs_arrays()
    cnt, px0, py0, px1, py1 = circle_intersections_many(
        circles.cx[pi], circles.cy[pi], circles.radius[pi],
        circles.cx[pj], circles.cy[pj], circles.radius[pj],
    )
    m = len(pi)
    cxs = np.empty(2 * m)
    cxs[0::2] = px0
    cxs[1::2] = px1
    cys = np.empty(2 * m)
    cys[0::2] = py0
    cys[1::2] = py1
    vmask = np.empty(2 * m, dtype=bool)
    vmask[0::2] = cnt >= 1
    vmask[1::2] = cnt == 2
    ci = np.repeat(pi, 2)[vmask]
    cj = np.repeat(pj, 2)[vmask]
    cross_x = cxs[vmask]
    cross_y = cys[vmask]

    ex = np.concatenate([ext_x, cross_x])
    ekind = np.concatenate([ext_kind, np.full(len(cross_x), _CROSS, dtype=np.int64)])
    e_i = np.concatenate([ext_i, ci])
    e_j = np.concatenate([np.full(2 * n, -1, dtype=np.int64), cj])
    e_y = np.concatenate([np.full(2 * n, np.nan), cross_y])

    order = np.lexsort((ekind, ex))
    return ex[order], ekind[order], e_i[order], e_j[order], e_y[order]


def _coalesce_starts(xs: "list[float]", eps: float) -> "list[int]":
    """Batch-start indices under the loop engine's eps-coalescing rule:
    an event joins the open batch while its x is within ``eps`` of the
    batch's *first* x.  The no-near-tie common case is fully vectorized."""
    if not xs:
        return []
    arr = np.asarray(xs)
    if not (np.diff(arr) <= eps).any():
        return list(range(len(xs)))
    starts = [0]
    s0 = xs[0]
    for i in range(1, len(xs)):
        if xs[i] - s0 > eps:
            starts.append(i)
            s0 = xs[i]
    return starts


def run_crest_l2_batched(
    circles: NNCircleSet,
    measure,
    *,
    collect_fragments: bool = True,
    transform: Transform = IDENTITY,
    on_label=None,
    should_cancel=None,
) -> "tuple[SweepStats, RegionSet | None]":
    """Vectorized CREST-L2: same contract and bit-identical output as
    :func:`~repro.core.sweep_l2.run_crest_l2`."""
    if circles.metric.circle_shape != "disk":
        raise AlgorithmUnsupportedError("run_crest_l2_batched requires the L2 metric")
    stats = SweepStats(n_circles=len(circles), algorithm="crest-l2-batched")
    default_heat = float(measure(frozenset()))
    if len(circles) == 0:
        return stats, (RegionSet([], transform, default_heat, "l2") if collect_fragments else None)

    n = len(circles)
    tn = 2 * n
    cidl = circles.client_ids.tolist()
    cxl = circles.cx.tolist()
    cyl = circles.cy.tolist()
    rrl = circles.radius.tolist()

    # Per-uid geometry columns (uid = 2*circle + kind): gathered each
    # batch to evaluate every live arc's y at the slab midpoint at once.
    acx = np.repeat(circles.cx, 2)
    acy = np.repeat(circles.cy, 2)
    ar = np.repeat(circles.radius, 2)
    asign = np.tile(np.array([-1.0, 1.0]), n)

    ex, ekind, e_i, e_j, e_y = _build_l2_event_arrays(circles)
    stats.n_events = len(ex)
    exl = ex.tolist()
    ekindl = ekind.tolist()
    eil = e_i.tolist()
    ejl = e_j.tolist()
    eyl = e_y.tolist()

    span = float(circles.x_hi.max() - circles.x_lo.min()) or 1.0
    eps = 1e-11 * span
    starts = _coalesce_starts(exl, eps)
    n_batches = len(starts)

    empty_i64 = np.zeros(0, dtype=np.int64)
    prev_uids = empty_i64
    prev_keys = empty_i64  # adjacent valid pairs, in status-position order
    prev_sorted = empty_i64  # the same keys, value-sorted for membership
    pos_of = np.full(tn, -1, dtype=np.int64)
    positions = np.arange(tn, dtype=np.int64)
    records: "dict[int, tuple[frozenset, float | None]]" = {}
    arc_objs: "list[Arc | None]" = [None] * tn
    assembler = _ArcFragmentAssembler() if collect_fragments else None

    def heat_of(rec) -> float:
        fs, heat = rec
        if heat is not None:
            return heat
        if not fs:
            return default_heat
        stats.measure_calls += 1
        return float(measure(fs))

    x = 0.0
    for b in range(n_batches):
        _check_cancel(should_cancel)
        s = starts[b]
        e = starts[b + 1] if b + 1 < n_batches else len(exl)
        x = exl[s]

        dirty: "set[int]" = set()
        inserted: "list[int]" = []
        appended: "list[int]" = []
        app_pos: "dict[int, int]" = {}
        removed: "set[int]" = set()
        rem_pos: "list[int]" = []  # removed uids' previous-status positions
        removed_in_app = False
        kinds = ekindl[s:e]
        iis = eil[s:e]
        jjs = ejl[s:e]
        yys = eyl[s:e]
        for t in range(e - s):
            et = kinds[t]
            if et == _EXTREME_RIGHT:
                idx = iis[t]
                u0 = 2 * idx
                u1 = u0 + 1
                p0 = pos_of[u0]
                p1 = pos_of[u1]
                # The elements strictly between the circle's two arcs in
                # the current (partially edited) status: a prev-order
                # slice or an appended-tail slice (arcs insert together,
                # so both positions live on the same side).
                if p0 >= 0 and p1 >= 0:
                    lo_p, hi_p = (p0, p1) if p0 <= p1 else (p1, p0)
                    for u in prev_uids[lo_p + 1:hi_p].tolist():
                        if u not in removed:
                            dirty.add(u)
                    rem_pos.append(p0)
                    rem_pos.append(p1)
                else:
                    q0 = app_pos.get(u0)
                    q1 = app_pos.get(u1)
                    if q0 is not None and q1 is not None:
                        lo_q, hi_q = (q0, q1) if q0 <= q1 else (q1, q0)
                        for u in appended[lo_q + 1:hi_q]:
                            if u not in removed:
                                dirty.add(u)
                        removed_in_app = True
                removed.add(u0)
                removed.add(u1)
                pos_of[u0] = -1
                pos_of[u1] = -1
                records.pop(u0, None)
                records.pop(u1, None)
                dirty.discard(u0)
                dirty.discard(u1)
            elif et == _EXTREME_LEFT:
                idx = iis[t]
                u0 = 2 * idx
                arc_objs[u0] = Arc(idx, 0, cxl[idx], cyl[idx], rrl[idx])
                arc_objs[u0 + 1] = Arc(idx, 1, cxl[idx], cyl[idx], rrl[idx])
                app_pos[u0] = len(appended)
                appended.append(u0)
                app_pos[u0 + 1] = len(appended)
                appended.append(u0 + 1)
                dirty.add(u0)
                dirty.add(u0 + 1)
                inserted.append(idx)
            else:
                y = yys[t]
                for idx in (iis[t], jjs[t]):
                    center_y = cyl[idx]
                    if y > center_y:
                        dirty.add(2 * idx + 1)
                    elif y < center_y:
                        dirty.add(2 * idx)
                    else:  # crossing exactly at the extreme: flag both arcs
                        dirty.add(2 * idx)
                        dirty.add(2 * idx + 1)
        stats.n_event_batches += 1

        if removed or appended:
            if rem_pos:
                keep = np.ones(prev_uids.size, dtype=bool)
                keep[rem_pos] = False
                prev_part = prev_uids[keep]
            else:
                prev_part = prev_uids
            if removed_in_app:
                app_part = [u for u in appended if u not in removed]
            else:
                app_part = appended
            if app_part:
                new_uids = np.concatenate(
                    [prev_part, np.asarray(app_part, dtype=np.int64)]
                )
            else:
                new_uids = prev_part
        else:
            new_uids = prev_uids

        if new_uids.size == 0:
            if assembler is not None and prev_keys.size:
                for kk in prev_keys.tolist():
                    assembler.close((kk // tn, kk % tn), x)
                prev_keys = prev_sorted = empty_i64
            prev_uids = new_uids
            continue

        # A non-empty status implies a live circle whose right extreme is
        # a strictly later event, so a next batch exists.
        xn = exl[starts[b + 1]]
        xm = (x + xn) / 2.0

        ur = ar[new_uids]
        dl = xm - acx[new_uids]
        np.clip(dl, -ur, ur, out=dl)
        ys = acy[new_uids] + asign[new_uids] * np.sqrt(
            np.maximum(ur * ur - dl * dl, 0.0)
        )
        # (y, circle_idx, kind) ordering: uid = 2*idx + kind is monotone
        # in (idx, kind), so uid alone breaks y-ties exactly like the
        # loop's sort key.  Keys are unique, hence the stable lexsort
        # yields the identical permutation.
        order = np.lexsort((new_uids, ys))
        s_uids = new_uids[order]
        ys_s = ys[order]
        n_status = len(s_uids)
        pos_of[s_uids] = positions[:n_status]

        for idx in inserted:
            p1 = pos_of[2 * idx]
            p2 = pos_of[2 * idx + 1]
            if p1 < 0 or p2 < 0:
                continue
            if p1 > p2:
                p1, p2 = p2, p1
            if p2 > p1 + 1:
                dirty.update(s_uids[p1 + 1:p2].tolist())

        # Maximal contiguous dirty blocks (the L2 changed intervals).
        if dirty:
            dp = pos_of[np.fromiter(dirty, dtype=np.int64, count=len(dirty))]
            dp = dp[dp >= 0]
            dp.sort()
            dpl = dp.tolist()
        else:
            dpl = []
        stats.changed_intervals += len(dpl)
        blocks: "list[list[int]]" = []
        for p in dpl:
            if blocks and p == blocks[-1][1] + 1:
                blocks[-1][1] = p
            else:
                blocks.append([p, p])
        stats.merged_intervals += len(blocks)

        # Walk the dirty blocks, deferring measure calls: labels collect
        # here and evaluate in one measure_many batch below.  Deferral is
        # safe because a block's base record sits at a clean position
        # (blocks are maximal), so no intra-batch read needs a pending
        # heat.
        pend: "list[tuple[int, frozenset, float, float, int]]" = []
        for lo_p, hi_p in blocks:
            if lo_p > 0:
                working = set(records[int(s_uids[lo_p - 1])][0])
            else:
                working = set()
            buids = s_uids[lo_p:hi_p + 2].tolist()  # block plus next uid
            yseg = ys_s[lo_p:min(hi_p + 2, n_status)].tolist()
            for t in range(hi_p - lo_p + 1):
                u = buids[t]
                cid = cidl[u >> 1]
                if u & 1 == LOWER_ARC:
                    working.add(cid)
                else:
                    working.discard(cid)
                fs = frozenset(working)
                if lo_p + t + 1 < n_status and yseg[t] < yseg[t + 1]:
                    pend.append((u, fs, yseg[t], yseg[t + 1], buids[t + 1]))
                else:
                    records[u] = (fs, None)

        if pend:
            heats = _measure_batch(measure, [pp[1] for pp in pend])
            stats.labels += len(pend)
            stats.measure_calls += len(pend)
            for (u, fs, y0, y1, u_next), heat in zip(pend, heats):
                if len(fs) > stats.max_rnn_size:
                    stats.max_rnn_size = len(fs)
                if heat > stats.max_heat:
                    stats.max_heat = heat
                    stats.max_heat_rnn = fs
                    stats.max_heat_point = (xm, (y0 + y1) / 2.0)
                records[u] = (fs, heat)
                if assembler is not None:
                    assembler.label(x, arc_objs[u], arc_objs[u_next], fs, heat)
                if on_label is not None:
                    on_label(fs, heat)

        if assembler is not None:
            valid = ys_s[:-1] < ys_s[1:]
            new_keys = s_uids[:-1][valid] * tn + s_uids[1:][valid]
            new_sorted = np.sort(new_keys)
            if prev_keys.size:
                for kk in _setdiff_sorted(prev_keys, new_sorted).tolist():
                    assembler.close((kk // tn, kk % tn), x)
                born = _setdiff_sorted(new_keys, prev_sorted)
            else:
                born = new_keys
            open_pairs = assembler.open
            for kk in born.tolist():
                lu = kk // tn
                hu = kk % tn
                if (lu, hu) in open_pairs:
                    continue
                rec = records.get(lu)
                if rec is None:
                    continue
                assembler.ensure_open(x, arc_objs[lu], arc_objs[hu], rec[0], heat_of(rec))
            prev_keys = new_keys
            prev_sorted = new_sorted

        prev_uids = s_uids

    region_set = None
    if assembler is not None:
        fragments = assembler.finish(x)
        stats.n_fragments = len(fragments)
        region_set = RegionSet(fragments, transform, default_heat, "l2")
    return stats, region_set
