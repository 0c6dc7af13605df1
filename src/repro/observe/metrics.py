"""Central metrics registry: counters, gauges, histograms.

Every counter of the package is one metric of a :class:`MetricsRegistry`,
incremented where its event happens: a ``Session`` owns one (its solves and
stacked solves, its ``FactorTier``'s releases, its ``SolveQueue``'s
requests), and so do the serve tier's ``SolveServer``, ``SessionPool`` and
``ResultCache``.  A metric's name is its Prometheus family, e.g.
``repro_tier_releases_total``.

Views read registries and keep no copies:

* :meth:`MetricsRegistry.values` is the dict view: the family name without
  its scope prefix and ``_total`` suffix is the key
  (``values("repro_tier_")`` → ``{"releases": …}``).  ``cache_stats()``,
  ``/v1/metrics`` and ``SessionPool.stats()`` are built from it.
* :meth:`MetricsRegistry.fold` sums same-named metrics of many registries
  into a new one (the session pool's totals).
* :meth:`MetricsRegistry.render_prometheus` is the text exposition.

Folds happen only when a view is read; producers do O(1) increments.

Thread-safety: every mutation takes the owning metric's registry lock, so
concurrent publishers (serve worker threads, the queue's request pool)
never lose increments.  No external dependencies — the exposition format
is written by hand against the Prometheus text format v0.0.4.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets (seconds-oriented, like prometheus_client).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"))
        for k, v in key
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _Metric:
    """Shared plumbing: name, help text, per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[tuple[tuple[str, str], ...], Any] = {}

    def _samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        raise NotImplementedError


class _Scalar(_Metric):
    """One float per label set: the counters and the gauges."""

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def _samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        with self._lock:
            return [(self.name, key, value) for key, value in sorted(self._series.items())]


class Counter(_Scalar):
    """Monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        super().inc(amount, **labels)

    def total(self) -> float:
        """Sum across all label sets."""
        with self._lock:
            return sum(self._series.values())


class Gauge(_Scalar):
    """A value that can go up and down (resident bytes, pool size, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["counts"][i] += 1
            series["sum"] += value
            series["count"] += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series["count"] if series else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series["sum"] if series else 0.0

    def _samples(self) -> list[tuple[str, tuple[tuple[str, str], ...], float]]:
        out: list[tuple[str, tuple[tuple[str, str], ...], float]] = []
        with self._lock:
            for key, series in sorted(self._series.items()):
                # observe() increments every bucket the value fits, so the
                # stored counts are already cumulative.
                for bound, count in zip(self.buckets, series["counts"]):
                    le = key + (("le", _format_value(bound)),)
                    out.append((self.name + "_bucket", le, float(count)))
                inf_key = key + (("le", "+Inf"),)
                out.append((self.name + "_bucket", inf_key, float(series["count"])))
                out.append((self.name + "_sum", key, series["sum"]))
                out.append((self.name + "_count", key, float(series["count"])))
        return out


class MetricsRegistry:
    """Get-or-create registry of named metrics with text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls: type, name: str, help_text: str, **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}, "
                        f"requested {cls.kind}"
                    )
                return metric
            metric = cls(name, help_text, threading.Lock(), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    @classmethod
    def fold(cls, registries: "list[MetricsRegistry]") -> "MetricsRegistry":
        """A new registry holding the sums of the registries' counters and
        gauges, series by series (histograms are not folded).  A metric
        without samples folds to an explicit 0, so the view exposes it."""
        out = cls()
        for registry in registries:
            with registry._lock:
                metrics = list(registry._metrics.values())
            for metric in metrics:
                if not isinstance(metric, _Scalar):
                    continue
                target = out._get_or_create(type(metric), metric.name, metric.help)
                for _, key, value in metric._samples() or [(metric.name, (), 0.0)]:
                    target.inc(value, **dict(key))
        return out

    def values(self, *scopes: str) -> dict[str, int | float]:
        """Unlabelled counter and gauge values of the metrics named
        ``<scope><key>[_total]``, keyed by ``<key>`` (the first matching scope
        wins); integral values come back as ``int``."""
        out: dict[str, int | float] = {}
        for name, value in self.snapshot().items():
            scope = next((s for s in scopes if name.startswith(s)), None)
            if scope is not None and isinstance(value, float):
                key = name[len(scope):].removesuffix("_total")
                out[key] = int(value) if value.is_integer() else value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format v0.0.4: one line per comment
        or sample, each ending in a newline, so the renders of registries
        with disjoint names concatenate into one exposition."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            samples = metric._samples()
            if not samples:
                continue
            help_text = metric.help or metric.name
            lines.append(f"# HELP {metric.name} " + help_text.replace("\n", " "))
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample_name, key, value in samples:
                lines.append(f"{sample_name}{_format_labels(key)} {_format_value(value)}")
        return "".join(line + "\n" for line in lines)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view: ``{name: value}`` (labelled series nested)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, Any] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "count": metric.count(),
                    "sum": metric.sum(),
                }
                continue
            with metric._lock:
                series = dict(metric._series)
            if list(series.keys()) == [()]:
                out[metric.name] = series[()]
            elif series:
                out[metric.name] = {_format_labels(k) or "": v for k, v in series.items()}
            else:
                out[metric.name] = 0.0
        return out
