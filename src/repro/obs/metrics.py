"""Dependency-free metrics primitives: Counter, Gauge, Histogram.

The reproduction's north star is a production-scale agent watching
heavy traffic, and a production agent is judged by what it exports.
This module is the core of the :mod:`repro.obs` layer: a tiny metrics
registry in the style of ``prometheus_client`` — but with zero
third-party dependencies, so the detection path never gains an import
it cannot satisfy on a bare router image.

Design rules, in priority order:

1. **Zero cost when disabled.**  The default bundle holds no registry
   (``None``); instrumented components then bind their instruments to
   ``None`` at construction and guard hot paths with a single
   ``is not None`` check.  Tier-1 numbers must not move.
2. **Get-or-create registration.**  Two SYN-dogs sharing one registry
   (a campaign, a federation) must land on the *same* time series, so
   :meth:`MetricsRegistry.counter` et al. return the existing family
   when the name is already registered (and raise on type mismatch).
3. **Prometheus-compatible semantics.**  Families may carry label
   names; ``labels(...)`` returns a cached child per label-value
   tuple; histograms keep cumulative-bucket semantics at export time
   (see :mod:`repro.obs.exporters`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "DEFAULT_LATENCY_BUCKETS",
]

#: perf_counter-scale latency buckets (seconds): 1 µs … 10 s, roughly
#: log-spaced — wide enough for both per-packet costs and whole trials.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)


class Sample:
    """One exported sample line: name suffix, label dict, value."""

    __slots__ = ("suffix", "labels", "value")

    def __init__(self, suffix: str, labels: Dict[str, str], value: float) -> None:
        self.suffix = suffix
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:
        return f"Sample({self.suffix!r}, {self.labels!r}, {self.value!r})"


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) or name[0].isdigit():
        raise ValueError(f"invalid metric name: {name!r}")
    return name


class _Family:
    """Shared family machinery: label handling and child caching."""

    kind = "untyped"
    #: The registry that created this family (None for a standalone
    #: one): a new labeled child bumps its ``generation``.
    _registry: Optional["MetricsRegistry"] = None

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], "_Family"] = {}

    # ------------------------------------------------------------------
    def labels(self, *values: object, **kwargs: object):
        """Child instrument for one label-value combination (cached)."""
        if not self.labelnames:
            raise ValueError(f"{self.name} has no labels")
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kwargs[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label values, "
                f"got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
            if self._registry is not None:
                self._registry.generation += 1
        return child

    def _make_child(self) -> "_Family":
        raise NotImplementedError

    def _require_unlabeled(self) -> None:
        # ``inc``/``set`` test ``labelnames`` before calling this, so an
        # unlabeled child's per-period update makes no extra call.
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; call .labels() first"
            )

    # ------------------------------------------------------------------
    def samples(self) -> Iterator[Sample]:
        """Flatten the family (all children) into exportable samples."""
        if self.labelnames:
            for key, child in self._children.items():
                labels = dict(zip(self.labelnames, key))
                for sample in child._own_samples():
                    merged = dict(labels)
                    merged.update(sample.labels)
                    yield Sample(sample.suffix, merged, sample.value)
        else:
            yield from self._own_samples()

    def _own_samples(self) -> Iterator[Sample]:
        raise NotImplementedError


class Counter(_Family):
    """A monotonically increasing count (packets seen, alarms raised)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            self._require_unlabeled()
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        self._value += amount

    @property
    def value(self) -> float:
        self._require_unlabeled()
        return self._value

    def _own_samples(self) -> Iterator[Sample]:
        yield Sample("", {}, self._value)


class Gauge(_Family):
    """A value that goes both ways (current y_n, current K̄)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        if self.labelnames:
            self._require_unlabeled()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            self._require_unlabeled()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._require_unlabeled()
        self._value -= amount

    @property
    def value(self) -> float:
        self._require_unlabeled()
        return self._value

    def _own_samples(self) -> Iterator[Sample]:
        yield Sample("", {}, self._value)


class Histogram(_Family):
    """A distribution with fixed buckets (latencies, per-trial wall
    clock).  Export follows Prometheus cumulative-bucket convention."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = bounds
        self._bucket_counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self._require_unlabeled()
        self._sum += value
        self._count += 1
        # Linear scan is fine: bucket lists are tiny and the scan
        # short-circuits at the first bound ≥ value.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._bucket_counts[i] += 1
                break

    @property
    def count(self) -> int:
        self._require_unlabeled()
        return self._count

    @property
    def sum(self) -> float:
        self._require_unlabeled()
        return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile by linear interpolation over the
        cumulative buckets (the ``histogram_quantile`` convention).

        Returns None for an empty histogram.  Observations above the
        highest bucket cannot be interpolated; quantiles landing there
        return the highest finite bound — the estimate Prometheus
        itself gives for the +Inf bucket — or None when the histogram
        has no finite bound at all (a bare ``(+Inf,)`` bucket list),
        never ``inf`` itself.
        """
        self._require_unlabeled()
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self._count == 0:
            return None
        target = q * self._count
        cumulative = 0
        for i, (bound, bucket_count) in enumerate(
            zip(self.buckets, self._bucket_counts)
        ):
            previous = cumulative
            cumulative += bucket_count
            if bucket_count and target <= cumulative:
                if bound == math.inf:
                    # An explicit +Inf bucket: fall back to the bound
                    # below it (nothing to interpolate toward).  With
                    # no finite bound at all the histogram knows
                    # nothing about magnitudes — say so with None
                    # rather than inventing 0.0.
                    return self.buckets[i - 1] if i > 0 else None
                if i > 0:
                    lower = self.buckets[i - 1]
                elif bound > 0:
                    lower = 0.0  # first positive bucket starts at zero
                else:
                    return bound  # all mass at/below a non-positive edge
                fraction = max(0.0, target - previous) / bucket_count
                return lower + (bound - lower) * fraction
        # Overflow: observations beyond the last finite bucket.
        bounds = [b for b in self.buckets if b != math.inf]
        return bounds[-1] if bounds else None

    def _own_samples(self) -> Iterator[Sample]:
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self._bucket_counts):
            cumulative += bucket_count
            yield Sample("_bucket", {"le": _format_bound(bound)}, float(cumulative))
        yield Sample("_bucket", {"le": "+Inf"}, float(self._count))
        yield Sample("_sum", {}, self._sum)
        yield Sample("_count", {}, float(self._count))


def _format_bound(bound: float) -> str:
    if bound == math.inf:
        return "+Inf"
    text = repr(bound)
    return text


class MetricsRegistry:
    """A live registry: get-or-create families, collect for export.

    :attr:`generation` counts every family and labeled child created,
    so a reader that binds to the instruments (the TSDB's per-period
    snapshot) knows when its bindings are stale without walking the
    registry."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self.generation = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        family = self._families.get(name)
        if family is not None:
            if not isinstance(family, cls):
                raise ValueError(
                    f"{name} already registered as {family.kind}, "
                    f"not {cls.kind}"
                )
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"{name} already registered with labels "
                    f"{family.labelnames}, not {tuple(labelnames)}"
                )
            return family
        family = cls(name, help, labelnames, **kwargs)
        family._registry = self
        self._families[name] = family
        self.generation += 1
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    # ------------------------------------------------------------------
    def collect(self) -> List[_Family]:
        """Registered families in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)
