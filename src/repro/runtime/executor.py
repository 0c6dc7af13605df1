"""The ``execution`` of a :class:`repro.api.SolverSpec`: serial or threads.

:class:`ExecutionSpec` parses and validates the spec's ``execution`` field:
the ``serial`` backend runs the preprocessing inline in the calling thread;
``threads`` with ``workers`` n cuts it into at most n spans and runs them on
a private ``concurrent.futures.ThreadPoolExecutor`` for the length of one
round (:func:`repro.runtime.preprocess.run_preprocessing`).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

__all__ = ["BACKENDS", "ExecutionError", "ExecutionSpec"]

#: The recognized backend names.
BACKENDS = ("serial", "threads")


class ExecutionError(ValueError):
    """An execution spec failed validation (actionable message included)."""


def _positive_workers(value: Any) -> int:
    """Validate a worker count: a whole number >= 1."""
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ExecutionError(
            f"workers must be an integer >= 1, got {value!r}"
        ) from None
    if isinstance(value, float) and workers != value:
        raise ExecutionError(
            f"workers must be a whole number, got {value!r}"
        )
    if workers < 1:
        raise ExecutionError(
            f"workers must be an integer >= 1, got {value!r}; "
            "a thread pool cannot run with zero or negative workers"
        )
    return workers


@dataclass(frozen=True)
class ExecutionSpec:
    """Declarative description of one execution backend.

    Attributes
    ----------
    backend:
        One of ``"serial"``, ``"threads"``.
    workers:
        Worker count of the pool (and the number of spans the
        preprocessing cuts its pattern groups into).  Forced to ``1`` for the serial backend.
    """

    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of: {', '.join(BACKENDS)}"
            )
        object.__setattr__(self, "workers", _positive_workers(self.workers))
        if self.backend == "serial" and self.workers != 1:
            raise ExecutionError(
                f"the serial backend runs exactly one worker, got workers={self.workers}; "
                "pick backend='threads' for a worker pool"
            )

    # ------------------------------------------------------------------ #
    # Coercion / serialization                                            #
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, value: "ExecutionSpec | str | Mapping[str, Any] | None") -> "ExecutionSpec":
        """Normalize ``None`` (serial), a spec, a mapping, or a string.

        Strings accept an optional worker suffix: ``"threads"`` (the
        host's CPU count), ``"threads:2"``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            backend, sep, workers = value.partition(":")
            if not sep:
                workers = 1 if backend == "serial" else os.cpu_count() or 1
            return cls(backend=backend, workers=workers)  # type: ignore[arg-type]
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"backend", "workers"})
            if unknown:
                raise ExecutionError(
                    f"unknown execution field(s) {unknown}; "
                    "known fields: ['backend', 'workers']"
                )
            return cls(**dict(value))
        raise ExecutionError(
            f"expected an ExecutionSpec, a backend string, a dict or None, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`of`)."""
        return {"backend": self.backend, "workers": self.workers}
