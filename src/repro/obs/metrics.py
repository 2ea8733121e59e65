"""Metric registry: counters, gauges, EMA meters, and histograms.

Metrics are keyed by dotted names (``train.loss.logloss``, ``train.grad_norm``,
``data.batch_ms``) and created on first use via the typed accessors of
:class:`MetricRegistry`.  ``snapshot()`` renders the whole registry as a
JSON-safe dict, which is what the run-trace sink embeds in the ``run_end``
event; :meth:`MetricRegistry.render_prometheus` renders it in the Prometheus
text exposition format for ``GET /metrics`` scrapes.

One :class:`Histogram` type serves both readers: a log-bucketed sketch
whose quantiles are within :data:`RELATIVE_ERROR` and whose bucket counts
merge by addition, so run summaries and fleet-level Prometheus sums read
the same record.

All mutators are thread-safe: serving updates these from HTTP handler
threads and engine workers concurrently.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = ["Counter", "Gauge", "EMAMeter", "Histogram", "MetricRegistry",
           "RELATIVE_ERROR", "LADDER"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)*$")

#: Decay of every :class:`EMAMeter`.
EMA_BETA = 0.9

#: Histogram buckets per power of two: the base is ``γ = 2^(1/36)``.
_BUCKETS_PER_OCTAVE = 36
_GAMMA = 2.0 ** (1.0 / _BUCKETS_PER_OCTAVE)
#: Every histogram quantile is within this relative error, ``(γ-1)/(γ+1)``
#: ≈ 0.96 %, of the true value.
RELATIVE_ERROR = (_GAMMA - 1.0) / (_GAMMA + 1.0)
_MIDPOINT = 2.0 / (_GAMMA + 1.0)   # bucket estimate / bucket upper bound
#: The Prometheus ``le`` ladder every histogram renders, then ``+Inf``:
#: the powers of two 2^-20 … 2^20, each an exact bucket bound.
_LADDER_LOW = -20
LADDER = tuple(2.0 ** k for k in range(_LADDER_LOW, 21))
# Bucket keys of zero and of NaN/+inf: they sort around the integer keys.
_ZERO, _OVERFLOW = -math.inf, math.inf


class Counter:
    """Monotonically increasing count (e.g. optimiser steps)."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (e.g. current learning rate)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class EMAMeter:
    """Bias-corrected exponential moving average of a stream of values.

    ``value`` equals ``raw / (1 - EMA_BETA**count)`` so early readings are
    not dragged toward zero (Adam-style correction).
    """

    kind = "ema"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self._raw = 0.0
        self.last: float | None = None
        self._lock = threading.Lock()

    def update(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self._raw = EMA_BETA * self._raw + (1.0 - EMA_BETA) * value
            self.last = value

    @property
    def value(self) -> float | None:
        if self.count == 0:
            return None
        return self._raw / (1.0 - EMA_BETA ** self.count)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value, "last": self.last,
                "count": self.count}


class Histogram:
    """Log-bucketed quantile sketch (DDSketch, Masson et al., VLDB 2019).

    A positive finite value ``x`` lands in bucket ``i = ceil(log_γ x)``,
    which holds ``(γ^(i-1), γ^i]``, and a quantile reports its bucket's
    midpoint ``2γ^i / (γ + 1)``, within :data:`RELATIVE_ERROR` of the
    true value.  With ``γ = 2^(1/36)`` every 36th bound is a power of two;
    :func:`math.frexp` indexes the buckets, so those bounds are exact and
    the Prometheus ``le`` ladder (:data:`LADDER`) counts exactly.  Zero has
    a bucket of its own; NaN and ``+inf`` land in the ``+Inf`` bucket;
    a negative value raises (every recorded value is a duration, a count,
    a norm or a loss).  ``count``/``sum``/``min``/``max`` are exact
    (``min``/``max`` skip NaN), quantiles are clamped to ``[min, max]``,
    and two histograms merge by adding bucket counts.  Memory grows with
    the range of the values, not their number: 36 buckets an octave.
    """

    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        # bucket key -> count; _ZERO sorts first and _OVERFLOW last
        self._counts: dict[float, int] = {}
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        value = float(value)
        if 0.0 < value < math.inf:
            mantissa, exponent = math.frexp(value)   # mantissa in [0.5, 1)
            key = (_BUCKETS_PER_OCTAVE * exponent
                   + math.ceil(_BUCKETS_PER_OCTAVE * math.log2(mantissa)))
        elif value == 0.0:
            key = _ZERO
        elif value < 0.0:
            raise ValueError(f"histogram {self.name!r} got a negative "
                             f"value {value}")
        else:                                        # NaN or +inf
            key = _OVERFLOW
        with self._lock:
            self.count += 1
            self.sum += value
            self._counts[key] = self._counts.get(key, 0) + 1
            if value == value:
                if self.min is None or value < self.min:
                    self.min = value
                if self.max is None or value > self.max:
                    self.max = value

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def _state(self) -> tuple:
        """``(count, sum, min, max, sorted bucket counts)`` copied under one
        lock acquisition, so every read sees a single consistent moment."""
        with self._lock:
            return (self.count, self.sum, self.min, self.max,
                    sorted(self._counts.items()))

    def quantile(self, q: float) -> float | None:
        count, _, lo, hi, counts = self._state()
        return _quantile(counts, count, lo, hi, q)

    def snapshot(self) -> dict:
        """JSON-safe dump; ``buckets`` maps each :data:`LADDER` rung's
        ``repr`` (then ``"+Inf"``) to its cumulative count."""
        count, total, lo, hi, counts = self._state()
        ladder = [0] * (len(LADDER) + 1)             # last slot: +Inf
        for key, n in counts:
            if key == _ZERO:
                rung = 0
            elif key == _OVERFLOW:
                rung = len(LADDER)
            else:                                    # ceil(key / 36) + 20
                rung = min(max(0, -(-key // _BUCKETS_PER_OCTAVE)
                               - _LADDER_LOW), len(LADDER))
            ladder[rung] += n
        buckets, running = {}, 0
        for bound, n in zip(LADDER + (math.inf,), ladder):
            running += n
            buckets[_fmt(bound)] = running
        return {"kind": self.kind, "count": count, "sum": total,
                "mean": total / count if count else None,
                "min": lo, "max": hi,
                "p50": _quantile(counts, count, lo, hi, 0.5),
                "p95": _quantile(counts, count, lo, hi, 0.95),
                "buckets": buckets}


def _quantile(counts: list[tuple[float, int]], count: int,
              lo: float | None, hi: float | None, q: float) -> float | None:
    """The ``floor(q * (count - 1))``-th smallest value (numpy's
    ``method="lower"``), estimated from sorted bucket counts."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not count:
        return None
    rank, seen = math.floor(q * (count - 1)), 0
    for key, n in counts:
        seen += n
        if seen > rank:
            break
    if key == _ZERO:
        return 0.0
    if key == _OVERFLOW:
        return math.inf
    estimate = 2.0 ** (key / _BUCKETS_PER_OCTAVE) * _MIDPOINT
    if lo is not None:
        estimate = min(max(estimate, lo), hi)
    return estimate


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Sanitise a dotted metric name into a legal Prometheus identifier."""
    sanitised = _PROM_INVALID.sub("_", name)
    if not sanitised or sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value != value:
        return "NaN"
    return repr(float(value))


class MetricRegistry:
    """Create-on-first-use store of named metrics.

    Re-requesting a name returns the existing instance; requesting it with a
    different type is an error (one dotted name, one meaning).
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._create_lock = threading.Lock()

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._metrics.get(name)
                if metric is None:
                    if not _NAME_RE.match(name):
                        raise ValueError(f"invalid metric name {name!r}; use "
                                         "dotted segments of [A-Za-z0-9_-]")
                    metric = self._metrics[name] = cls(name)
        if metric.kind != cls.kind:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}, requested {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def ema(self, name: str) -> EMAMeter:
        return self._get_or_create(name, EMAMeter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """JSON-safe dump of every metric, sorted by name."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format v0.0.4.

        Mapping: counters gain the conventional ``_total`` suffix; gauges
        and EMA meters render as gauges (unset ones are omitted — Prometheus
        has no null); histograms render as Prometheus histograms over the
        one :data:`LADDER`, so replicas' buckets sum by ``le``.  Each
        histogram's buckets, ``_sum`` and ``_count`` come from one
        snapshot, so ``_count`` always equals the ``+Inf`` bucket.
        """
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            pname = prometheus_name(name)
            kind = metric.kind
            if kind == "counter":
                lines.append(f"# TYPE {pname}_total counter")
                lines.append(f"{pname}_total {_fmt(metric.value)}")
            elif kind in ("gauge", "ema"):
                value = metric.value
                if value is None:
                    continue
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_fmt(value)}")
            elif kind == "histogram":
                snap = metric.snapshot()
                lines.append(f"# TYPE {pname} histogram")
                for bound, cum in snap["buckets"].items():
                    lines.append(f'{pname}_bucket{{le="{bound}"}} {cum}')
                lines.append(f"{pname}_sum {_fmt(snap['sum'])}")
                lines.append(f"{pname}_count {snap['count']}")
        return "\n".join(lines) + "\n"
