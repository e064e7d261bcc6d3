"""Saving and loading built heat maps.

Building a city-scale heat map takes real time; exploration sessions want
to persist the labeled subdivision and reload it instantly.  The format is
a single ``.npz``: columnar arrays for the fragments plus a ragged encoding
of the RNN sets (one flat id array + offsets), with the transform and
defaults in a small JSON header.  A circle surface stores its circles
instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import InvalidInputError
from ..geometry.arcs import Arc
from ..geometry.transforms import IDENTITY, ROTATE_L1_TO_LINF
from .regionset import ArcFragment, RectFragment, RegionSet
from .surface import NNCircleSurface

__all__ = ["save_region_set", "load_region_set"]

_TRANSFORMS = {
    "identity": IDENTITY,
    "rotate_pi_over_4": ROTATE_L1_TO_LINF,
}


def save_region_set(region_set, path: "str | Path") -> Path:
    """Serialize a heat surface to ``.npz``. Returns the written path.

    Accepts both the sweep's :class:`RegionSet` and an
    :class:`~repro.core.surface.NNCircleSurface` (which persists its
    circles, not fragments); the header's ``kind`` field dispatches
    :func:`load_region_set` back to the right constructor.
    """
    path = Path(path)
    if isinstance(region_set, NNCircleSurface):
        header, arrays = region_set.payload()
        header["version"] = 1
        np.savez_compressed(
            path,
            header=np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8
            ),
            **arrays,
        )
        return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    rects = [f for f in region_set.fragments if isinstance(f, RectFragment)]
    arcs = [f for f in region_set.fragments if isinstance(f, ArcFragment)]
    if len(rects) + len(arcs) != len(region_set.fragments):
        raise InvalidInputError("unknown fragment type in RegionSet")

    def encode_sets(frags):
        flat, offsets = [], [0]
        for f in frags:
            flat.extend(sorted(f.rnn))
            offsets.append(len(flat))
        return np.asarray(flat, dtype=np.int64), np.asarray(offsets, dtype=np.int64)

    rect_ids, rect_offsets = encode_sets(rects)
    arc_ids, arc_offsets = encode_sets(arcs)
    header = json.dumps(
        {
            "transform": region_set.transform.name,
            "default_heat": region_set.default_heat,
            "metric_name": region_set.metric_name,
            "version": 1,
        }
    )
    np.savez_compressed(
        path,
        header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
        rect_geom=np.array(
            [[f.x_lo, f.x_hi, f.y_lo, f.y_hi, f.heat] for f in rects], dtype=float
        ).reshape(len(rects), 5),
        rect_ids=rect_ids,
        rect_offsets=rect_offsets,
        arc_geom=np.array(
            [
                [
                    f.x_lo, f.x_hi, f.heat,
                    f.lower.circle_idx, f.lower.kind, f.lower.cx, f.lower.cy, f.lower.r,
                    f.upper.circle_idx, f.upper.kind, f.upper.cx, f.upper.cy, f.upper.r,
                ]
                for f in arcs
            ],
            dtype=float,
        ).reshape(len(arcs), 13),
        arc_ids=arc_ids,
        arc_offsets=arc_offsets,
    )
    # np.savez appends .npz when absent; report the real file.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_region_set(path: "str | Path"):
    """Load a surface previously written by ``save_region_set``.

    Returns a :class:`RegionSet`, or an
    :class:`~repro.core.surface.NNCircleSurface` for files whose header
    carries its ``kind``.
    """
    with np.load(Path(path)) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        if header.get("version") != 1:
            raise InvalidInputError(f"unsupported RegionSet file version: {header}")
        transform = _TRANSFORMS.get(header["transform"])
        if transform is None:
            raise InvalidInputError(f"unknown transform {header['transform']!r}")
        if header.get("kind") == NNCircleSurface.kind:
            return NNCircleSurface.from_payload(
                header,
                {key: data[key] for key in data.files if key != "header"},
                transform,
            )

        fragments: list = []
        geom = data["rect_geom"]
        ids, offsets = data["rect_ids"], data["rect_offsets"]
        for i in range(len(geom)):
            rnn = frozenset(int(v) for v in ids[offsets[i] : offsets[i + 1]])
            x_lo, x_hi, y_lo, y_hi, heat = geom[i]
            fragments.append(RectFragment(x_lo, x_hi, y_lo, y_hi, heat, rnn))

        geom = data["arc_geom"]
        ids, offsets = data["arc_ids"], data["arc_offsets"]
        for i in range(len(geom)):
            rnn = frozenset(int(v) for v in ids[offsets[i] : offsets[i + 1]])
            row = geom[i]
            lower = Arc(int(row[3]), int(row[4]), row[5], row[6], row[7])
            upper = Arc(int(row[8]), int(row[9]), row[10], row[11], row[12])
            fragments.append(ArcFragment(row[0], row[1], lower, upper, row[2], rnn))

    return RegionSet(
        fragments,
        transform=transform,
        default_heat=float(header["default_heat"]),
        metric_name=header["metric_name"],
    )
