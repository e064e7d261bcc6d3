"""CREST under the L2 metric (Section VII-C): a sweep over circular arcs.

NN-circles are disks; the line elements are their upper/lower semicircular
arcs.  Events are the circles' x-extreme points plus every pairwise
boundary intersection (arcs switch positions there).  The paper refreshes
every line element's (y^s, y^l) keys at each event in linear time; we
realize the same O(n)-per-event budget by re-sorting the status by each
arc's y at the *next slab midpoint* (Timsort is linear on the nearly-sorted
list), which also makes the paper's center events unnecessary — midpoint
evaluation orders non-crossing arcs correctly whether or not they are
y-monotone within the slab.  Worst case O(n^3), exactly as analyzed.

Base sets and changed intervals carry over from the L-infinity engine:
records are cached per arc, and only *dirty blocks* — arcs of inserted
circles, arcs strictly between an inserted/removed circle's own arcs, and
arcs involved in a swap — are walked and relabeled.

This loop sweep is registered as the non-public ``crest-l2``: the
reference that ``crest``'s vectorized arc sweep
(:mod:`.sweep_batched`) must match bit for bit.  The paper-figure runs
call it directly.
"""

from __future__ import annotations

from ..errors import AlgorithmUnsupportedError
from ..geometry.arcs import LOWER_ARC, UPPER_ARC, Arc, circle_intersections
from ..geometry.circle import NNCircleSet
from ..geometry.transforms import IDENTITY, Transform
from ..index.grid import UniformGridIndex
from .regionset import ArcFragment, RegionSet
from .sweep_linf import SweepStats, _check_cancel

__all__ = ["run_crest_l2"]

_EXTREME_LEFT = 0
_CROSS = 1
_EXTREME_RIGHT = 2


class _ArcFragmentAssembler:
    """Open-fragment tracking for arc-bounded slabs (mirrors the L-inf one)."""

    __slots__ = ("open", "fragments")

    def __init__(self) -> None:
        self.open: "dict[tuple[int, int], list]" = {}
        self.fragments: "list[ArcFragment]" = []

    def close(self, pair_id, x: float) -> None:
        state = self.open.pop(pair_id, None)
        if state is not None and x > state[0]:
            self.fragments.append(
                ArcFragment(state[0], x, state[1], state[2], state[3], state[4])
            )

    def label(self, x: float, lo: Arc, hi: Arc, rnn: frozenset, heat: float) -> None:
        pair_id = (lo.uid, hi.uid)
        state = self.open.get(pair_id)
        if state is not None:
            if state[4] == rnn:
                return
            self.close(pair_id, x)
        self.open[pair_id] = [x, lo, hi, heat, rnn]

    def ensure_open(self, x: float, lo: Arc, hi: Arc, rnn: frozenset, heat: float) -> None:
        pair_id = (lo.uid, hi.uid)
        if pair_id not in self.open:
            self.open[pair_id] = [x, lo, hi, heat, rnn]

    def finish(self, x: float) -> "list[ArcFragment]":
        for pair_id in list(self.open):
            self.close(pair_id, x)
        return self.fragments


def _build_l2_events(circles: NNCircleSet):
    """Sorted events: (x, type, payload).  Extreme events carry the circle
    index; cross events carry (i, j, y) identifying the swap location."""
    events = []
    for i in range(len(circles)):
        events.append((float(circles.x_lo[i]), _EXTREME_LEFT, i))
        events.append((float(circles.x_hi[i]), _EXTREME_RIGHT, i))
    grid = UniformGridIndex(circles.x_lo, circles.x_hi, circles.y_lo, circles.y_hi)
    n_cross = 0
    for i, j in grid.intersecting_pairs():
        pts = circle_intersections(
            float(circles.cx[i]), float(circles.cy[i]), float(circles.radius[i]),
            float(circles.cx[j]), float(circles.cy[j]), float(circles.radius[j]),
        )
        for (x, y) in pts:
            events.append((x, _CROSS, (i, j, y)))
            n_cross += 1
    events.sort(key=lambda e: (e[0], e[1]))
    return events, n_cross


def run_crest_l2(
    circles: NNCircleSet,
    measure,
    *,
    collect_fragments: bool = True,
    transform: Transform = IDENTITY,
    on_label=None,
    should_cancel=None,
) -> "tuple[SweepStats, RegionSet | None]":
    """Run CREST-L2 over disk NN-circles.

    Same contract as ``run_crest``; ``stats.labels`` counts influence
    computations.
    """
    if circles.metric.circle_shape != "disk":
        raise AlgorithmUnsupportedError("run_crest_l2 requires the L2 metric")
    stats = SweepStats(n_circles=len(circles), algorithm="crest-l2")
    default_heat = float(measure(frozenset()))
    if len(circles) == 0:
        return stats, (RegionSet([], transform, default_heat, "l2") if collect_fragments else None)

    cids = circles.client_ids.tolist()
    cx = circles.cx.tolist()
    cy = circles.cy.tolist()
    rr = circles.radius.tolist()

    events, _ = _build_l2_events(circles)
    stats.n_events = len(events)

    # Coalesce events whose x-coordinates differ by less than a relative
    # epsilon: a barely-overlapping circle pair yields two intersection
    # points at nearly identical x, and floating-point noise there makes
    # slab ordering meaningless.  Merging them into one batch removes the
    # degenerate sliver slabs (their area is below any query resolution).
    span = float(circles.x_hi.max() - circles.x_lo.min()) or 1.0
    eps = 1e-11 * span
    batches: "list[tuple[float, list]]" = []
    for ev in events:
        if batches and ev[0] - batches[-1][0] <= eps:
            batches[-1][1].append(ev)
        else:
            batches.append((ev[0], [ev]))

    status: "list[Arc]" = []
    records: "dict[int, tuple[frozenset, float | None]]" = {}
    assembler = _ArcFragmentAssembler() if collect_fragments else None
    old_pairs: "dict[tuple[int, int], tuple[Arc, Arc]]" = {}

    def heat_of(rec) -> float:
        """Heat from a cached record, computing lazily for the rare record
        written at an invalid pair (degenerate duplicates)."""
        fs, heat = rec
        if heat is not None:
            return heat
        if not fs:
            return default_heat
        stats.measure_calls += 1
        return float(measure(fs))

    x = 0.0
    for b, (x, batch) in enumerate(batches):
        _check_cancel(should_cancel)
        dirty: "set[int]" = set()
        inserted: "list[int]" = []
        for _x, etype, payload in batch:
            if etype == _EXTREME_RIGHT:
                idx = payload
                positions = [p for p, a in enumerate(status) if a.circle_idx == idx]
                if len(positions) == 2:
                    for p in range(positions[0] + 1, positions[1]):
                        dirty.add(status[p].uid)
                status = [a for a in status if a.circle_idx != idx]
                records.pop(2 * idx, None)
                records.pop(2 * idx + 1, None)
                dirty.discard(2 * idx)
                dirty.discard(2 * idx + 1)
            elif etype == _EXTREME_LEFT:
                idx = payload
                lo = Arc(idx, LOWER_ARC, cx[idx], cy[idx], rr[idx])
                hi = Arc(idx, UPPER_ARC, cx[idx], cy[idx], rr[idx])
                status.append(lo)
                status.append(hi)
                dirty.add(lo.uid)
                dirty.add(hi.uid)
                inserted.append(idx)
            else:
                i, j, y = payload
                for idx, center_y in ((i, cy[i]), (j, cy[j])):
                    if y > center_y:
                        dirty.add(2 * idx + UPPER_ARC)
                    elif y < center_y:
                        dirty.add(2 * idx + LOWER_ARC)
                    else:  # crossing exactly at the extreme: flag both arcs
                        dirty.add(2 * idx)
                        dirty.add(2 * idx + 1)
        stats.n_event_batches += 1

        if not status:
            if assembler is not None:
                for pid in list(old_pairs):
                    assembler.close(pid, x)
                old_pairs = {}
            continue

        # A non-empty status implies a live circle whose right extreme is a
        # strictly later event, so a next batch exists.
        xn = batches[b + 1][0]
        xm = (x + xn) / 2.0

        decorated = sorted(
            ((a.y_at(xm), a.circle_idx, a.kind, a) for a in status),
            key=lambda d: (d[0], d[1], d[2]),
        )
        status = [d[3] for d in decorated]
        ys = [d[0] for d in decorated]
        live_uids = {a.uid for a in status}
        dirty &= live_uids

        pos_of = {a.uid: p for p, a in enumerate(status)}
        for idx in inserted:
            p1 = pos_of.get(2 * idx)
            p2 = pos_of.get(2 * idx + 1)
            if p1 is None or p2 is None:
                continue
            if p1 > p2:
                p1, p2 = p2, p1
            for p in range(p1 + 1, p2):
                dirty.add(status[p].uid)

        # Walk maximal contiguous dirty blocks (the L2 changed intervals).
        dirty_pos = sorted(pos_of[u] for u in dirty)
        blocks: "list[tuple[int, int]]" = []
        for p in dirty_pos:
            if blocks and p == blocks[-1][1] + 1:
                blocks[-1] = (blocks[-1][0], p)
            else:
                blocks.append((p, p))
        stats.changed_intervals += len(dirty)
        stats.merged_intervals += len(blocks)

        for lo_p, hi_p in blocks:
            if lo_p > 0:
                base = records[status[lo_p - 1].uid][0]
                working = set(base)
            else:
                working = set()
            for p in range(lo_p, hi_p + 1):
                arc = status[p]
                if arc.kind == LOWER_ARC:
                    working.add(cids[arc.circle_idx])
                else:
                    working.discard(cids[arc.circle_idx])
                fs = frozenset(working)
                if p + 1 < len(status) and ys[p] < ys[p + 1]:
                    heat = float(measure(fs))
                    stats.labels += 1
                    stats.measure_calls += 1
                    if len(fs) > stats.max_rnn_size:
                        stats.max_rnn_size = len(fs)
                    if heat > stats.max_heat:
                        stats.max_heat = heat
                        stats.max_heat_rnn = fs
                        stats.max_heat_point = (
                            xm,
                            (ys[p] + ys[p + 1]) / 2.0,
                        )
                    records[arc.uid] = (fs, heat)
                    if assembler is not None:
                        assembler.label(x, arc, status[p + 1], fs, heat)
                    if on_label is not None:
                        on_label(fs, heat)
                else:
                    records[arc.uid] = (fs, None)

        if assembler is not None:
            new_pairs: "dict[tuple[int, int], tuple[Arc, Arc]]" = {}
            for p in range(len(status) - 1):
                if ys[p] < ys[p + 1]:
                    a, b = status[p], status[p + 1]
                    new_pairs[(a.uid, b.uid)] = (a, b)
            for pid in old_pairs.keys() - new_pairs.keys():
                assembler.close(pid, x)
            for pid, (a, b) in new_pairs.items():
                if pid in assembler.open:
                    continue
                rec = records.get(a.uid)
                if rec is None:
                    continue
                assembler.ensure_open(x, a, b, rec[0], heat_of(rec))
            old_pairs = new_pairs

    region_set = None
    if assembler is not None:
        fragments = assembler.finish(x)
        stats.n_fragments = len(fragments)
        region_set = RegionSet(fragments, transform, default_heat, "l2")
    return stats, region_set
