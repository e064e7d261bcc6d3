"""CREST: the sweep-line algorithm for the RC problem under L-infinity.

This implements Algorithm 1 of the paper (Section V) with both of its
optimizations:

* **No point-enclosure / RNN queries** (Section V-B): the RNN set of a pair
  is derived by walking the line status, adding the center of a circle when
  its lower side is passed and removing it at the upper side (Corollary 1),
  starting from a cached *base set*.
* **Changed intervals** (Section V-C): crossing an event only the pairs
  inside the merged changed intervals [y_c, y-bar_c] of the circles
  inserted/removed at the event are processed; everything else provably
  represents an already-labeled region (Lemma 2).  Base sets are cached per
  line element, keyed 2i+kind, and maintained at the last element of each
  equal-value run (Section V-C2).

Setting ``use_changed_intervals=False`` yields **CREST-A**, the ablation the
paper benchmarks (RNN-computation optimization only): every valid pair of
every line status is labeled by one bottom-up traversal per event.

The engine optionally assembles maximal fragments (for rendering and point
queries).  Fragment bookkeeping copies cached heats and never calls the
influence measure, so ``stats.labels`` is exactly the paper's k — the
number of influence computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import BuildCancelledError
from ..geometry.circle import NNCircleSet
from ..geometry.transforms import IDENTITY, Transform
from ..index.sortedlist import SortedKeyList
from .elements import INSERT, LOWER, UPPER, build_events, uid_of_key
from .intervals import merge_intervals
from .regionset import RectFragment, RegionSet

__all__ = ["SweepStats", "run_crest"]


@dataclass
class SweepStats:
    """Work counters for one sweep run.

    ``labels`` is the paper's k: the number of region-labeling operations,
    each of which performs exactly one influence computation.
    """

    n_circles: int = 0
    n_events: int = 0
    n_event_batches: int = 0
    labels: int = 0
    measure_calls: int = 0
    changed_intervals: int = 0
    merged_intervals: int = 0
    max_rnn_size: int = 0
    max_heat: float = -math.inf
    max_heat_rnn: frozenset = frozenset()
    max_heat_point: "tuple[float, float] | None" = None
    n_fragments: int = 0
    algorithm: str = "crest"
    # Retired: always 1.0, read by perfbench's live-update replay.
    dirty_fraction: float = 1.0


class _FragmentAssembler:
    """Maintains one open fragment per live valid pair; closes fragments
    when the pair dies or its heat changes, yielding maximal x-runs."""

    __slots__ = ("open", "fragments")

    def __init__(self) -> None:
        # pair id -> [x_start, y_lo, y_hi, heat, rnn]
        self.open: "dict[tuple[int, int], list]" = {}
        self.fragments: "list[RectFragment]" = []

    def close(self, pair_id: "tuple[int, int]", x: float) -> None:
        state = self.open.pop(pair_id, None)
        if state is not None and x > state[0]:
            self.fragments.append(
                RectFragment(state[0], x, state[1], state[2], state[3], state[4])
            )

    def label(self, x: float, lo_key: tuple, hi_key: tuple, rnn: frozenset, heat: float) -> None:
        pair_id = (uid_of_key(lo_key), uid_of_key(hi_key))
        state = self.open.get(pair_id)
        if state is not None:
            if state[4] == rnn:
                return  # same region continues; keep the fragment growing
            self.close(pair_id, x)
        self.open[pair_id] = [x, lo_key[0], hi_key[0], heat, rnn]

    def ensure_open(
        self, x: float, lo_key: tuple, hi_key: tuple, rnn: frozenset, heat: float
    ) -> None:
        pair_id = (uid_of_key(lo_key), uid_of_key(hi_key))
        if pair_id not in self.open:
            self.open[pair_id] = [x, lo_key[0], hi_key[0], heat, rnn]

    def finish(self, x: float) -> "list[RectFragment]":
        for pair_id in list(self.open):
            self.close(pair_id, x)
        return self.fragments


def _check_cancel(should_cancel) -> None:
    """Poll a build's ``should_cancel`` hook (engines call this once per
    event batch, so cancellation lands within one batch of the request)."""
    if should_cancel is not None and should_cancel():
        raise BuildCancelledError("heat-map build cancelled by its caller")


def run_crest(
    circles: NNCircleSet,
    measure,
    *,
    use_changed_intervals: bool = True,
    collect_fragments: bool = True,
    transform: Transform = IDENTITY,
    on_label=None,
    should_cancel=None,
) -> "tuple[SweepStats, RegionSet | None]":
    """Run CREST (or CREST-A) over square NN-circles.

    Args:
        circles: NN-circles (squares — callers handle the L1 rotation).
        measure: callable frozenset -> float, the influence measure.
        use_changed_intervals: False selects the CREST-A ablation.
        collect_fragments: assemble a RegionSet (off for pure benchmarking).
        transform: recorded on the RegionSet (pi/4 rotation for L1 runs).
        on_label: optional callback (rnn_set, heat) per labeling operation.
        should_cancel: optional zero-argument hook polled once per event
            batch; returning True raises ``BuildCancelledError``.

    Returns:
        (stats, region_set) — region_set is None when not collecting.
    """
    stats = SweepStats(
        n_circles=len(circles),
        algorithm="crest" if use_changed_intervals else "crest-a",
    )
    default_heat = float(measure(frozenset()))
    if len(circles) == 0:
        return stats, (RegionSet([], transform, default_heat) if collect_fragments else None)

    y_lo = circles.y_lo.tolist()
    y_hi = circles.y_hi.tolist()
    cids = circles.client_ids.tolist()

    status = SortedKeyList()
    records: "dict[int, tuple[frozenset, float | None]]" = {}
    assembler = _FragmentAssembler() if collect_fragments else None

    events = build_events(circles)
    stats.n_events = len(events)

    # Deferred max-point bookkeeping: the hottest pair's slab ends at the
    # *next* event, so its representative x is fixed up one batch later.
    pending_max: "list | None" = None  # [x_event, y_mid]

    def finalize_pending(x_now: float) -> None:
        nonlocal pending_max
        if pending_max is not None:
            stats.max_heat_point = ((pending_max[0] + x_now) / 2.0, pending_max[1])
            pending_max = None

    def walk(lo: float, hi: "float | None", x_event: float) -> None:
        """Process elements with value in [lo, hi] (hi None = to the end),
        labeling valid pairs and refreshing base-set records."""
        nonlocal pending_max
        it = status.iter_from_value(lo)
        cur = next(it, None)
        if cur is None or (hi is not None and cur[0] > hi):
            return
        pred = status.pred_of_value(lo)
        if pred is None:
            working = set()
        else:
            rec = records[2 * pred[2] + pred[1]]
            working = set(rec[0])
        while cur is not None and (hi is None or cur[0] <= hi):
            nxt = next(it, None)
            y, kind, idx = cur
            if kind == LOWER:
                working.add(cids[idx])
            else:
                working.discard(cids[idx])
            if nxt is None:
                if use_changed_intervals:
                    records[2 * idx + kind] = (frozenset(working), None)
            elif nxt[0] > y:
                fs = frozenset(working)
                heat = float(measure(fs))
                stats.labels += 1
                stats.measure_calls += 1
                if len(fs) > stats.max_rnn_size:
                    stats.max_rnn_size = len(fs)
                if heat > stats.max_heat:
                    stats.max_heat = heat
                    stats.max_heat_rnn = fs
                    pending_max = [x_event, (y + nxt[0]) / 2.0]
                if use_changed_intervals:
                    records[2 * idx + kind] = (fs, heat)
                if assembler is not None:
                    assembler.label(x_event, cur, nxt, fs, heat)
                if on_label is not None:
                    on_label(fs, heat)
            cur = nxt

    n_ev = len(events)
    i = 0
    x = 0.0
    while i < n_ev:
        _check_cancel(should_cancel)
        x = events[i][0]
        finalize_pending(x)
        changed: "list[tuple[float, float]]" = []
        born: "list[tuple[tuple, tuple]]" = []
        while i < n_ev and events[i][0] == x:
            _x, op, idx = events[i]
            i += 1
            kl = (y_lo[idx], LOWER, idx)
            ku = (y_hi[idx], UPPER, idx)
            if op == INSERT:
                for key in (kl, ku):
                    pred, succ = status.insert_with_neighbors(key)
                    if assembler is not None:
                        if pred is not None and succ is not None:
                            assembler.close(
                                (2 * pred[2] + pred[1], 2 * succ[2] + succ[1]), x
                            )
                        if pred is not None:
                            born.append((pred, key))
                        if succ is not None:
                            born.append((key, succ))
            else:
                for key in (ku, kl):
                    pred, succ = status.remove_with_neighbors(key)
                    if assembler is not None:
                        u = 2 * key[2] + key[1]
                        if pred is not None:
                            assembler.close((2 * pred[2] + pred[1], u), x)
                        if succ is not None:
                            assembler.close((u, 2 * succ[2] + succ[1]), x)
                        if pred is not None and succ is not None:
                            born.append((pred, succ))
                records.pop(2 * idx, None)
                records.pop(2 * idx + 1, None)
            changed.append((y_lo[idx], y_hi[idx]))
        stats.n_event_batches += 1
        stats.changed_intervals += len(changed)

        if use_changed_intervals:
            merged = merge_intervals(changed)
            stats.merged_intervals += len(merged)
            for lo, hi in merged:
                walk(lo, hi, x)
            if assembler is not None:
                for lo_key, hi_key in born:
                    if lo_key[0] >= hi_key[0]:
                        continue  # invalid pair (no interior)
                    if status.succ_of_key(lo_key) != hi_key:
                        continue  # pair died within this batch
                    rec = records.get(2 * lo_key[2] + lo_key[1])
                    if rec is None:
                        continue  # pair's lower element left the status
                    fs, heat = rec
                    if heat is None:
                        # Records written at the status top carry no heat;
                        # their set is empty by the sweep invariant, but
                        # recompute defensively if it ever is not.
                        if fs:
                            heat = float(measure(fs))
                            stats.measure_calls += 1
                        else:
                            heat = default_heat
                    assembler.ensure_open(x, lo_key, hi_key, fs, heat)
        else:
            if len(status):
                walk(-math.inf, None, x)

    finalize_pending(x)
    region_set = None
    if assembler is not None:
        fragments = assembler.finish(x)
        stats.n_fragments = len(fragments)
        region_set = RegionSet(
            fragments, transform, default_heat, circles.metric.name
        )
    return stats, region_set
