"""Pluggable algorithm registry for the RC-problem engines.

Historically ``RNNHeatMap.build`` selected its engine through a hard-coded
if/elif chain; every new engine meant editing the facade.  The registry
replaces that chain with declarative registration: an :class:`EngineSpec`
names the engine, lists the sweep metrics it runs under (one runner per
metric, since e.g. 'crest' is a segment sweep under L-infinity but an arc
sweep under L2), and carries capability metadata (supported measures,
fragment support) that tooling and error messages derive from.

Each metric has one sweep: 'crest' runs the loop segment sweep under
L-infinity (and L1, rotated) and the vectorized arc sweep under L2.  The
loop arc sweep stays reachable as the non-public 'crest-l2', the
reference the vectorized one is tested against bit for bit.

Engines register against the module-level :data:`REGISTRY`; the CLI's
``--algorithm`` choices are a live view of it, and the facade's
``ALGORITHMS`` tuple is an import-time snapshot of the public names.
Third-party engines can register at import time::

    from repro.core.registry import REGISTRY, EngineSpec

    REGISTRY.register(EngineSpec(
        name="my-engine",
        runners={"linf": my_runner},
        description="...",
    ))

Runner contract: ``runner(circles, measure, *, transform, collect_fragments,
on_label, **options) -> (SweepStats, RegionSet | None)`` — exactly the
contract of ``run_crest`` and friends; adapters below absorb per-engine
option names (``baseline_index``).

Error semantics (kept bit-for-bit compatible with the old chain):

* an unregistered name raises :class:`~repro.errors.UnknownAlgorithmError`;
* a *public* engine asked to run under a metric it does not support raises
  :class:`~repro.errors.AlgorithmUnsupportedError`;
* a non-public engine (e.g. the ``crest-l2`` reference sweep) under the
  wrong metric raises ``UnknownAlgorithmError``, matching the old chain
  where such names simply fell off the end of the if/elif ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (
    AlgorithmUnsupportedError,
    InvalidInputError,
    UnknownAlgorithmError,
)
from .baseline import run_baseline
from .superimposition import run_superimposition
from .sweep_batched import run_crest_l2_batched
from .sweep_l2 import run_crest_l2
from .sweep_linf import run_crest

__all__ = ["EngineSpec", "AlgorithmRegistry", "REGISTRY"]


@dataclass(frozen=True)
class EngineSpec:
    """One registered RC-problem engine plus its capability metadata.

    Attributes:
        name: canonical lowercase engine name (the ``build()`` argument).
        runners: sweep-metric name -> runner callable.  Metrics are the
            *internal* ones an engine sees ('linf' or 'l2'; L1 inputs are
            rotated to 'linf' before dispatch).
        description: one-line human description (CLI/help output).
        measures: 'any', or 'size-like' for engines restricted to
            size/weight measures (the superimposition overlay).
        supports_fragments: whether the engine can assemble a queryable
            ``RegionSet`` (False would mean stats-only engines).
        public: advertised in ``ALGORITHMS`` / CLI choices.  Non-public
            names are reachable but raise ``UnknownAlgorithmError`` rather
            than ``AlgorithmUnsupportedError`` under unsupported metrics.
    """

    name: str
    runners: "dict[str, object]"
    description: str = ""
    measures: str = "any"
    supports_fragments: bool = True
    public: bool = True
    #: Exact engines reproduce the paper's arrangement bit-for-bit;
    #: approximate ones are gated statistically (recall / heat-RMSE
    #: differential tests) instead.
    exact: bool = True
    #: Surface-builder engines: instead of a sweep ``runner`` they build a
    #: whole :class:`~repro.core.heatmap.HeatMapResult` from the raw
    #: coordinate arrays — ``builder(clients, facilities, *, metric,
    #: measure, monochromatic, k, options, should_cancel)``.  The service
    #: dispatches on this; ``resolve()`` refuses such engines.
    builder: "object | None" = None
    #: Metric names the builder accepts (builder engines see the *request*
    #: metric, not the internal sweep metric — no L1 rotation).
    builder_metrics: "tuple[str, ...]" = ()
    #: Largest supported RkNN order, or None for unbounded.
    max_k: "int | None" = None
    #: Largest supported point dimension, or None for arbitrary d.
    max_dims: "int | None" = 2
    #: The recall level the engine's default knobs are tuned (and
    #: differentially tested) to reach; None for exact engines.
    recall_target: "float | None" = None
    #: Engine options and their defaults as (name, default) pairs — the
    #: tunable knobs (``recall``, ``seed``, ...) that also key the build
    #: fingerprint.  Empty for engines without options.
    knobs: "tuple[tuple[str, object], ...]" = ()

    @property
    def metrics(self) -> "frozenset[str]":
        """Sweep metrics this engine runs under."""
        return frozenset(self.runners) | frozenset(self.builder_metrics)

    def supports_metric(self, metric_name: str) -> bool:
        """Whether a runner (or the builder) handles ``metric_name``."""
        return metric_name in self.runners or metric_name in self.builder_metrics

    def normalized_options(self, options: "dict | None") -> dict:
        """The engine's knobs with ``options`` merged over the defaults.

        The result is what keys the build fingerprint, so two requests
        differing only in an explicit-vs-defaulted knob still share a
        cache entry.  Unknown knobs — including *any* option passed to an
        engine that has none — raise
        :class:`~repro.errors.InvalidInputError` rather than being
        silently ignored, since a dropped ``recall=0.99`` would be a
        silently wrong answer.
        """
        merged = dict(self.knobs)
        for key, value in (options or {}).items():
            if key not in merged:
                accepted = (
                    f"accepts {sorted(merged)}" if merged else "accepts no options"
                )
                raise InvalidInputError(
                    f"engine {self.name!r} {accepted}; got {key!r}"
                )
            default = merged[key]
            try:
                merged[key] = type(default)(value) if default is not None else value
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"option {key!r} must be a {type(default).__name__}, "
                    f"got {value!r}"
                ) from None
        return merged

    def check_workload(
        self, *, metric_name: str, k: int = 1, dims: int = 2
    ) -> None:
        """Reject an (engine, workload) pair the engine cannot answer.

        Raises :class:`~repro.errors.AlgorithmUnsupportedError` naming the
        violated capability — a clear refusal instead of a silently wrong
        (or impossible) build.
        """
        if not self.supports_metric(metric_name):
            raise AlgorithmUnsupportedError(
                f"{self.name!r} runs under {'/'.join(sorted(self.metrics))} "
                f"NN-circles, not {metric_name!r}"
            )
        if self.max_dims is not None and dims > self.max_dims:
            raise AlgorithmUnsupportedError(
                f"{self.name!r} supports at most {self.max_dims}-d points; "
                f"got {dims}-d (approximate engines like 'knn-graph' "
                "handle arbitrary dimension)"
            )
        if self.max_k is not None and k > self.max_k:
            raise AlgorithmUnsupportedError(
                f"{self.name!r} supports k <= {self.max_k}; got k={k}"
            )


class AlgorithmRegistry:
    """Name -> :class:`EngineSpec` mapping with capability-aware lookup."""

    def __init__(self) -> None:
        self._specs: "dict[str, EngineSpec]" = {}

    # -- registration ---------------------------------------------------
    def register(self, spec: EngineSpec) -> EngineSpec:
        """Register (or replace) an engine under its canonical name."""
        self._specs[spec.name.lower()] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove an engine (mainly for tests of pluggability)."""
        self._specs.pop(name.lower(), None)

    # -- queries --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name.lower() in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def names(self, *, public_only: bool = True) -> "tuple[str, ...]":
        """Engine names in registration order (public ones by default)."""
        return tuple(
            s.name for s in self._specs.values() if s.public or not public_only
        )

    def get(self, name: str) -> EngineSpec:
        """The spec for ``name``, or ``UnknownAlgorithmError``."""
        try:
            return self._specs[name.lower()]
        except KeyError:
            raise UnknownAlgorithmError(f"unknown algorithm {name!r}") from None

    def resolve(self, name: str, metric_name: str) -> "tuple[EngineSpec, object]":
        """The (spec, runner) pair for ``name`` under a sweep metric.

        Raises:
            UnknownAlgorithmError: name is unregistered, or registered
                non-public and unsupported under ``metric_name``.
            AlgorithmUnsupportedError: a public engine that cannot run
                under ``metric_name``.
        """
        spec = self.get(name)
        runner = spec.runners.get(metric_name)
        if runner is not None:
            return spec, runner
        if spec.builder is not None:
            raise AlgorithmUnsupportedError(
                f"{spec.name!r} is a surface-builder engine with no sweep "
                "runner — build it through HeatMapService (or the repro.approx "
                "builders), not the arrangement sweep"
            )
        if not spec.public:
            raise UnknownAlgorithmError(f"unknown algorithm {name!r}")
        if metric_name == "l2":
            raise AlgorithmUnsupportedError(
                f"{spec.name!r} supports square NN-circles only; "
                "under L2 use 'crest' (the arc sweep) or 'pruning' via max_region()"
            )
        raise AlgorithmUnsupportedError(
            f"{spec.name!r} runs under {'/'.join(sorted(spec.metrics))} "
            f"NN-circles, not {metric_name!r}"
        )


# ----------------------------------------------------------------------
# Runner adapters: absorb per-engine option names so every runner shares
# one calling convention.  Unknown options are ignored by design — the
# facade passes its full option set to whichever engine was selected.
# ----------------------------------------------------------------------
def _crest_linf(circles, measure, *, transform, collect_fragments, on_label,
                should_cancel=None, **_ignored):
    """CREST segment sweep (with changed-interval batching)."""
    return run_crest(
        circles, measure, use_changed_intervals=True,
        collect_fragments=collect_fragments,
        transform=transform, on_label=on_label, should_cancel=should_cancel,
    )


def _crest_a_linf(circles, measure, *, transform, collect_fragments, on_label,
                  should_cancel=None, **_ignored):
    """CREST-A ablation (no changed-interval batching)."""
    return run_crest(
        circles, measure, use_changed_intervals=False,
        collect_fragments=collect_fragments,
        transform=transform, on_label=on_label, should_cancel=should_cancel,
    )


def _crest_l2(circles, measure, *, transform, collect_fragments, on_label,
              should_cancel=None, **_ignored):
    """CREST-L2 loop arc sweep over disk NN-circles (the reference)."""
    return run_crest_l2(
        circles, measure, collect_fragments=collect_fragments,
        transform=transform, on_label=on_label, should_cancel=should_cancel,
    )


def _crest_l2_batched(circles, measure, *, transform, collect_fragments,
                      on_label, should_cancel=None, **_ignored):
    """Vectorized CREST-L2 arc sweep (flat status columns)."""
    return run_crest_l2_batched(
        circles, measure, collect_fragments=collect_fragments,
        transform=transform, on_label=on_label, should_cancel=should_cancel,
    )


def _baseline_linf(circles, measure, *, transform, collect_fragments, on_label,
                   baseline_index="segment_tree", **_ignored):
    """Grid baseline with enclosure-query index."""
    return run_baseline(
        circles, measure, index=baseline_index,
        collect_fragments=collect_fragments, transform=transform,
        on_label=on_label,
    )


def _superimposition_linf(circles, measure, *, transform, **_ignored):
    """Circle-overlay counts (size/weight measures only)."""
    return run_superimposition(circles, measure, transform=transform)


#: The process-wide registry the facade and CLI dispatch through.
REGISTRY = AlgorithmRegistry()

REGISTRY.register(EngineSpec(
    name="crest",
    runners={"linf": _crest_linf, "l2": _crest_l2_batched},
    description="the paper's sweep: changed-interval batching (Theorem 2)",
))
REGISTRY.register(EngineSpec(
    name="crest-a",
    runners={"linf": _crest_a_linf},
    description="CREST without changed-interval batching (ablation)",
))
REGISTRY.register(EngineSpec(
    name="baseline",
    runners={"linf": _baseline_linf},
    description="extended-side grid with enclosure queries (BA)",
))
REGISTRY.register(EngineSpec(
    name="superimposition",
    runners={"linf": _superimposition_linf},
    description="circle-overlay counts; size/weight measures only (Fig. 3)",
    measures="size-like",
))
REGISTRY.register(EngineSpec(
    name="crest-l2",
    runners={"l2": _crest_l2},
    description="the loop arc sweep 'crest' is tested against under L2",
    public=False,
))


# ----------------------------------------------------------------------
# Approximate surface-builder engines (repro.approx).  Imported lazily so
# the registry costs nothing for exact-only workloads; knobs key the build
# fingerprint (see repro.service.fingerprint).
# ----------------------------------------------------------------------
def _knn_graph_builder(clients, facilities=None, **kwargs):
    """NN-descent facility graph + beam-searched client radii."""
    from ..approx.engines import build_knn_graph_result

    return build_knn_graph_result(clients, facilities, **kwargs)


def _lsh_builder(clients, facilities=None, **kwargs):
    """p-stable LSH tables + candidate-scanned client radii."""
    from ..approx.engines import build_lsh_result

    return build_lsh_result(clients, facilities, **kwargs)


#: Default knob set shared by the approximate engines: the recall target
#: their effort is scaled to, and the seed all randomness flows from.
_APPROX_KNOBS = (("recall", 0.9), ("seed", 0))

REGISTRY.register(EngineSpec(
    name="knn-graph",
    runners={},
    description="approximate NN-descent graph engine: any d, k <= 50",
    measures="size-like",
    exact=False,
    builder=_knn_graph_builder,
    builder_metrics=("l2", "linf"),
    max_k=50,
    max_dims=None,
    recall_target=0.9,
    knobs=_APPROX_KNOBS,
))
REGISTRY.register(EngineSpec(
    name="lsh-rnn",
    runners={},
    description="approximate p-stable LSH engine (L2): any d, k <= 50",
    measures="size-like",
    exact=False,
    builder=_lsh_builder,
    builder_metrics=("l2",),
    max_k=50,
    max_dims=None,
    recall_target=0.9,
    knobs=_APPROX_KNOBS,
))
