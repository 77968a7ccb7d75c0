"""The disabled observability components, in standard-library code.

An instrumentation bundle with every component off is the process
default (:data:`~repro.obs.runtime.NULL_INSTRUMENTATION`), so every
detector built with obs off resolves to these six classes.  They live
apart from the live implementations so that building such a detector
loads none of the metrics, events, recorder, TSDB, alert or profiler
code.  Each live module re-exports its null class under the name it
always had (``repro.obs.metrics.NullRegistry`` and so on).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "NullAlertManager",
    "NullEventLog",
    "NullFlightRecorder",
    "NullProfiler",
    "NullRegistry",
    "NullTSDB",
]


class _NullInstrument:
    """Absorbs every instrument operation; ``labels`` returns itself so
    pre-binding code needs no special-casing."""

    __slots__ = ()

    def labels(self, *values: object, **kwargs: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The default, disabled registry: every factory hands back one
    shared no-op instrument and :attr:`enabled` is False, which lets
    instrumented components skip binding entirely."""

    enabled = False

    def counter(self, name, help="", labelnames=()):  # noqa: D401
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", labelnames=(), buckets=()):
        return _NULL_INSTRUMENT

    def collect(self) -> List[Any]:
        return []

    def get(self, name: str) -> None:
        return None

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0


class NullEventLog:
    """Disabled event log: ``emit`` does nothing and returns nothing."""

    enabled = False
    events_emitted = 0
    dropped = 0

    def emit(
        self, kind: str, payload: Optional[Dict[str, Any]] = None, /,
        **fields: Any,
    ) -> None:
        return None

    def sinks(self) -> List[Any]:
        return []

    def add_sink(self, sink: Any) -> None:
        raise ValueError("cannot attach a sink to the null event log; "
                         "build an enabled Instrumentation instead")

    def close(self) -> None:
        pass


class NullFlightRecorder:
    """The disabled default: absorbs records, reports nothing."""

    enabled = False
    contexts_emitted = 0
    contexts: Deque[Dict[str, Any]] = deque()

    def bind_events(self, events: Any) -> None:
        pass

    def record(self, agent: str, snapshot: Dict[str, Any]) -> None:
        return None

    def flush(self) -> int:
        return 0

    def window(self, agent: str) -> List[Dict[str, Any]]:
        return []

    def summaries(self) -> Dict[str, Any]:
        return {}

    def status(self) -> Dict[str, Dict[str, Any]]:
        return {}

    @property
    def agents(self) -> List[str]:
        return []


class NullTSDB:
    """The disabled default: absorbs samples, answers nothing."""

    enabled = False
    retention = 0
    record_snapshots = False
    samples_appended = 0
    compactions_total = 0
    points_dropped_total = 0

    def bind(
        self,
        registry: Optional[Any] = None,
        events: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        pass

    def append(self, name, labels, t, value, source="feed") -> None:
        pass

    def tick(self, t: float) -> None:
        pass

    def tick_events(self, t: float) -> None:
        pass

    def series(self, name=None, source=None) -> List[Any]:
        return []

    def names(self) -> List[str]:
        return []

    def points_retained(self) -> int:
        return 0

    def watermarks(self) -> List[float]:
        return []

    def last_time(self) -> None:
        return None

    def to_dict(self, include_registry: bool = True) -> Dict[str, Any]:
        return {"retention": 0, "series": []}

    def merge_from(self, snapshot: Dict[str, Any]) -> None:
        pass

    def query(
        self, expr: Any, at: Optional[float] = None, peak: bool = False
    ) -> Optional[List[Dict[str, Any]]]:
        return None if peak else []

    def __len__(self) -> int:
        return 0


class NullAlertManager:
    """The disabled default: no rules, no state, no cost."""

    enabled = False
    closed = False
    evaluations = 0
    transitions: List[Dict[str, Any]] = []
    contexts: Deque[Dict[str, Any]] = deque()

    @property
    def rules(self) -> List[Any]:
        return []

    def bind(self, tsdb=None, events=None, recorder=None) -> None:
        pass

    def subscribe(self, callback: Any) -> None:
        pass

    def add_rule(self, rule: Any) -> None:
        raise ValueError(
            "cannot add rules to the null alert manager; build an "
            "AlertManager (e.g. enabled_instrumentation(alert_rules=...))"
        )

    def firing(self) -> List[str]:
        return []

    def pending(self) -> List[str]:
        return []

    def evaluate(self, t: float) -> List[Dict[str, Any]]:
        return []

    def close(self, t: Optional[float] = None) -> List[Dict[str, Any]]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"enabled": False}


class _NullStageHandle:
    """Inert stage handle; every operation is a no-op."""

    __slots__ = ()

    def sample(self) -> bool:
        return False

    def add(self, packets: int = 1, nbytes: int = 0) -> None:
        pass

    def add_timed(self, wall_ns, cpu_ns, allocs, packets=1, nbytes=0) -> None:
        pass

    def begin(self) -> None:
        return None

    def end(self, token, packets: int = 0, nbytes: int = 0) -> None:
        pass


_NULL_HANDLE = _NullStageHandle()


class NullProfiler:
    """Disabled profiler: components bind no handles and pay nothing."""

    enabled = False
    mode: Optional[str] = None
    sample_every = 0

    def __len__(self) -> int:
        return 0

    def stage(self, name: str, sample_every: Optional[int] = None) -> _NullStageHandle:
        return _NULL_HANDLE

    def stages(self) -> List[Any]:
        return []

    def stage_documents(self) -> List[Dict[str, Any]]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": None,
            "sample_every": 0,
            "stages": [],
            "total_ns": 0,
            "total_calls": 0,
        }

    def to_snapshot(self) -> Dict[str, Dict[str, int]]:
        return {}

    def merge_from(self, snapshot: Dict[str, Dict[str, int]]) -> None:
        pass
