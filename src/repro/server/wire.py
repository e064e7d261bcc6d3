"""Wire-format codecs: JSON in/out, PNG tiles, ETags.

Everything that crosses the HTTP boundary is converted here so the
handlers stay pure orchestration: numpy-aware JSON encoding, strict
decoding of client-supplied coordinate arrays and update batches (every
malformed input becomes a 400, never a 500), deterministic PNG rendering
of heat-grid tiles through the repo's own colormaps and PNG encoder, and
the generation-based ``ETag`` scheme that lets a map client revalidate a
tile for free (``304 Not Modified``) until an update actually invalidates
it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..render.colormap import apply_colormap
from ..render.png import encode_png
from .errors import HTTPError
from .http import Response

__all__ = [
    "json_response",
    "decode_points",
    "decode_dataset",
    "decode_updates",
    "tile_etag",
    "handle_vmax",
    "render_tile_png",
    "TILE_CMAPS",
]

#: Colormaps the tile endpoint serves (?cmap=...).
TILE_CMAPS = ("heat", "gray_dark")

_UPDATE_OPS = {
    "add_client": ("x", "y"),
    "move_client": ("handle", "x", "y"),
    "remove_client": ("handle",),
    "add_facility": ("x", "y"),
    "move_facility": ("handle", "x", "y"),
    "remove_facility": ("handle",),
}


def _default(obj):
    """JSON fallback for the numpy scalars/arrays service answers carry."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (frozenset, set)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def json_response(
    payload, status: int = 200, *, headers: "dict[str, str] | None" = None
) -> Response:
    """A JSON :class:`Response` (numpy-aware, compact separators)."""
    body = json.dumps(payload, default=_default, separators=(",", ":")).encode()
    return Response(
        status=status,
        body=body,
        content_type="application/json",
        headers=dict(headers) if headers else {},
    )


def decode_points(payload, *, max_points: int) -> np.ndarray:
    """A client-supplied ``points`` list -> a validated (n, 2) float array.

    Raises:
        HTTPError: 400 on missing/ragged/non-finite input, 413 when the
            batch exceeds ``max_points``.
    """
    if not isinstance(payload, dict) or "points" not in payload:
        raise HTTPError(400, 'expected {"points": [[x, y], ...]}')
    points = payload["points"]
    if not isinstance(points, list) or not points:
        raise HTTPError(400, '"points" must be a non-empty list of [x, y] pairs')
    if len(points) > max_points:
        raise HTTPError(413, f'"points" batch over the {max_points}-point limit')
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise HTTPError(400, '"points" must be numeric [x, y] pairs') from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise HTTPError(400, f'"points" must be (n, 2), got shape {arr.shape}')
    if not np.isfinite(arr).all():
        raise HTTPError(400, '"points" must be finite (no NaN/inf)')
    return arr


#: Hard cap on dataset point dimension (the approximate engines accept
#: arbitrary d; the cap only bounds request size, like ``max_points``).
MAX_DATASET_DIMS = 64


def _coordinate_array(payload: dict, key: str, *, required: bool) -> "np.ndarray | None":
    value = payload.get(key)
    if value is None:
        if required:
            raise HTTPError(400, f'dataset body must carry "{key}": [[x, y], ...]')
        return None
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise HTTPError(400, f'"{key}" must be numeric [x, y] pairs') from None
    # d > 2 is legal: approximate engines serve arbitrary-dimension data
    # (exact sweeps reject it at build time with a capability error).
    if arr.ndim != 2 or not 2 <= arr.shape[1] <= MAX_DATASET_DIMS or not len(arr):
        raise HTTPError(
            400,
            f'"{key}" must be a non-empty (n, d) array with '
            f"2 <= d <= {MAX_DATASET_DIMS}",
        )
    if not np.isfinite(arr).all():
        raise HTTPError(400, f'"{key}" must be finite (no NaN/inf)')
    return arr


def decode_dataset(payload) -> "tuple[np.ndarray, np.ndarray | None]":
    """A ``POST /datasets`` body -> validated (clients, facilities) arrays.

    ``facilities`` may be omitted for monochromatic builds (O == F).
    """
    if not isinstance(payload, dict):
        raise HTTPError(400, "dataset body must be a JSON object")
    clients = _coordinate_array(payload, "clients", required=True)
    facilities = _coordinate_array(payload, "facilities", required=False)
    return clients, facilities


def decode_updates(payload) -> "list[tuple[str, dict]]":
    """A ``POST /update/{handle}`` body -> validated (op, kwargs) list.

    Every operation names a ``DynamicHeatMap`` update method and carries
    exactly the fields that method needs (``handle``, ``x``, ``y``).
    """
    if not isinstance(payload, dict) or "updates" not in payload:
        raise HTTPError(400, 'expected {"updates": [{"op": ..., ...}, ...]}')
    updates = payload["updates"]
    if not isinstance(updates, list) or not updates:
        raise HTTPError(400, '"updates" must be a non-empty list of operations')
    out: "list[tuple[str, dict]]" = []
    for i, item in enumerate(updates):
        if not isinstance(item, dict) or "op" not in item:
            raise HTTPError(400, f'update #{i} must be an object with an "op"')
        op = item["op"]
        if op not in _UPDATE_OPS:
            raise HTTPError(
                400,
                f"update #{i}: unknown op {op!r} "
                f"(expected one of {sorted(_UPDATE_OPS)})",
            )
        kwargs: "dict[str, float | int]" = {}
        for name in _UPDATE_OPS[op]:
            if name not in item:
                raise HTTPError(400, f"update #{i} ({op}) is missing {name!r}")
            try:
                kwargs[name] = (
                    int(item[name]) if name == "handle" else float(item[name])
                )
            except (TypeError, ValueError):
                raise HTTPError(
                    400, f"update #{i} ({op}): {name!r} must be numeric"
                ) from None
            if name != "handle" and not math.isfinite(kwargs[name]):
                # A NaN coordinate would be *accepted* here but wedge the
                # map on the next (deferred) rebuild — reject up front.
                raise HTTPError(
                    400, f"update #{i} ({op}): {name!r} must be finite"
                )
        out.append((op, kwargs))
    return out


def tile_etag(
    handle: str, z: int, tx: int, ty: int, size: int, cmap: str,
    vmax: float, generation: int,
) -> str:
    """The strong ETag for a tile at one generation of that tile.

    Strong ETags name byte-identical representations, so every input
    that changes the rendered pixels participates — including the
    resolved ``vmax`` (the handle's :func:`handle_vmax` when the request
    names none).  ``generation`` is the *per-tile*
    generation (:meth:`HeatMapService.tile_generation`): a partial
    invalidation raises it only for tiles intersecting the update's
    dirty rects, so revalidation is precise — ``If-None-Match`` hits
    (304) until an update actually touches this tile's pixels, and
    misses the moment one does.
    """
    return (
        f'"{handle[:16]}.{z}.{tx}.{ty}.{size}.{cmap}'
        f'.v{float(vmax)!r}.g{generation}"'
    )


def handle_vmax(max_heat: float) -> float:
    """The default colour-scale top of a handle, given its maximum heat.

    Every tile of the handle is scaled by the same value, so a colour
    means the same heat in every tile.  The maximum is exact for every
    engine — a circle surface finds it from its circles, without a sweep
    — so no pixel is hotter than the scale.  An empty map (no labeled
    region, maximum ``-inf``) scales to 0, which renders everything cold.
    """
    top = float(max_heat)
    return top if math.isfinite(top) else 0.0


def render_tile_png(grid: np.ndarray, cmap: str, vmax: "float | None") -> bytes:
    """A heat grid -> deterministic PNG bytes under a named colormap.

    Grids arrive bottom-up (raster row 0 = bottom) and are flipped to the
    top-down image convention before encoding.
    """
    if cmap not in TILE_CMAPS:
        raise HTTPError(
            400, f"unknown cmap {cmap!r} (expected one of {sorted(TILE_CMAPS)})"
        )
    image = apply_colormap(grid, cmap, vmax=vmax)
    return encode_png(image[::-1])
