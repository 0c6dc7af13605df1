"""The wire protocol of the solve service.

One JSON envelope per request, built from the existing ``to_dict``
serializations of :class:`repro.api.Workload` and
:class:`repro.api.SolverSpec`:

.. code-block:: json

    {
      "schema_version": 1,
      "workload": {"physics": "heat", "dim": 2, "subdomains": [2, 2], "cells": 4},
      "spec": {"approach": "expl mkl"},
      "rhs": 2.0,
      "return_primal": false
    }

``workload`` may also be a registered preset name, ``spec`` a spec preset
name or absent (server default), and ``rhs`` follows the
:meth:`~repro.api.Session.solve_request` convention — absent/null (declared
loads), a scalar load factor, or a list of per-subdomain load vectors.

The module is transport-free: it parses/validates envelopes, computes the
pattern key that routes a request to a pooled session, and renders result
payloads.  The HTTP layer in :mod:`repro.serve.server` maps
:class:`ProtocolError.status` onto response codes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api import SCHEMA_VERSION, ApiError, SolverSpec, Workload, check_schema_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import RequestSolution

__all__ = [
    "SCHEMA_VERSION",
    "ProtocolError",
    "SolveRequest",
    "parse_solve_request",
    "pattern_key",
    "request_fingerprint",
    "solution_payload",
    "error_payload",
]


class ProtocolError(ValueError):
    """A malformed wire request, carrying the HTTP status it maps to."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class SolveRequest:
    """One validated solve request (the body of ``POST /v1/solve``)."""

    workload: Workload
    spec: SolverSpec | None
    rhs: float | list | None
    return_primal: bool = False
    #: Per-request timeout override in seconds (``None`` = server default).
    timeout: float | None = None


def _normalize_wire_rhs(rhs: Any) -> float | list | None:
    """The ``rhs`` field as ``solve_request`` takes it; every number must be finite.

    Python's ``json`` accepts ``NaN`` and ``Infinity``: a non-finite load
    is a 400 here, before the request reaches (or builds) a pooled session.
    """
    if rhs is None:
        return None
    if isinstance(rhs, bool):
        raise ProtocolError("rhs must be a number or a list of load vectors, got a bool")
    if isinstance(rhs, (int, float)):
        value = float(rhs)
        if not math.isfinite(value):
            raise ProtocolError(f"rhs must be finite, got {rhs!r}")
        return value
    if isinstance(rhs, list):
        if not all(
            isinstance(vec, list)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec)
            for vec in rhs
        ):
            raise ProtocolError(
                "rhs must be a list of per-subdomain load vectors "
                "(lists of numbers) when not a scalar"
            )
        vectors = [[float(x) for x in vec] for vec in rhs]
        if not all(np.isfinite(vec).all() for vec in vectors):
            raise ProtocolError("rhs load vectors must hold finite numbers only")
        return vectors
    raise ProtocolError(
        f"rhs must be null, a scalar load factor, or a list of load "
        f"vectors, got {type(rhs).__name__}"
    )


def _envelope_timeout(timeout: Any) -> float | None:
    """The ``timeout`` field: absent, or a positive finite JSON number."""
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise ProtocolError(f"timeout must be a number, got {timeout!r}")
    if not (math.isfinite(timeout) and timeout > 0):
        raise ProtocolError(f"timeout must be positive and finite, got {timeout!r}")
    return float(timeout)


def parse_solve_request(body: bytes | str) -> SolveRequest:
    """Parse and validate one ``POST /v1/solve`` body.

    Raises :class:`ProtocolError` (→ HTTP 400) on malformed JSON, an
    unknown schema version, a missing/invalid workload, or a bad spec/rhs
    — a spec whose ``execution`` asks for more than one worker included.
    """
    if isinstance(body, bytes):
        try:
            body = body.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("request body is not valid UTF-8") from None
    try:
        envelope = json.loads(body or "null")
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(envelope, dict):
        raise ProtocolError(
            f"request body must be a JSON object, got {type(envelope).__name__}"
        )

    known = {"schema_version", "workload", "spec", "rhs", "return_primal", "timeout"}
    unknown = sorted(set(envelope) - known)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s) {unknown}; known fields: {sorted(known)}"
        )
    try:
        check_schema_version(envelope.get("schema_version"), "solve request")
    except ApiError as exc:
        raise ProtocolError(str(exc)) from None

    raw_workload = envelope.get("workload")
    if raw_workload is None:
        raise ProtocolError("request is missing the required 'workload' field")
    try:
        if isinstance(raw_workload, str):
            workload = Workload.from_preset(raw_workload)
        else:
            workload = Workload.from_dict(raw_workload)
    except (ApiError, KeyError) as exc:
        detail = str(exc).strip("'\"")
        raise ProtocolError(f"invalid workload: {detail}") from None

    raw_spec = envelope.get("spec")
    spec: SolverSpec | None
    try:
        if raw_spec is None:
            spec = None
        elif isinstance(raw_spec, str):
            spec = SolverSpec.from_preset(raw_spec)
        else:
            spec = SolverSpec.from_dict(raw_spec)
    except (ApiError, KeyError) as exc:
        detail = str(exc).strip("'\"")
        raise ProtocolError(f"invalid spec: {detail}") from None
    if spec is not None and spec.execution is not None and spec.execution.workers > 1:
        # Concurrency belongs to the HTTP tier's solve threads.
        raise ProtocolError(
            f"invalid spec: execution {spec.execution.backend}:{spec.execution.workers} "
            "asks for more than one worker; a served request runs on one"
        )

    return_primal = envelope.get("return_primal", False)
    if not isinstance(return_primal, bool):
        raise ProtocolError(f"return_primal must be a JSON boolean, got {return_primal!r}")

    return SolveRequest(
        workload=workload,
        spec=spec,
        rhs=_normalize_wire_rhs(envelope.get("rhs")),
        return_primal=return_primal,
        timeout=_envelope_timeout(envelope.get("timeout")),
    )


# --------------------------------------------------------------------- #
# Routing and caching keys                                               #
# --------------------------------------------------------------------- #
def pattern_key(workload: Workload) -> tuple:
    """The structural pattern of a workload: what symbolic analysis sees.

    Workloads differing only in material values or schedule (``material``,
    ``steps``, ``load_ramp``) share sparsity patterns, so the session pool
    routes them to one :class:`~repro.api.Session` and they pay for one
    symbolic analysis.
    """
    return (
        workload.physics,
        workload.dim,
        workload.subdomains,
        workload.cells,
        workload.order,
        workload.n_clusters,
        workload.dirichlet_faces,
    )


def request_fingerprint(
    workload: Workload, spec: SolverSpec, rhs: float | list | None
) -> str:
    """Content hash of ``(workload, spec, rhs)`` keying the result cache."""
    blob = json.dumps(
        {"workload": workload.to_dict(), "spec": spec.to_dict(), "rhs": rhs},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Response payloads                                                      #
# --------------------------------------------------------------------- #
def solution_payload(
    solution: RequestSolution,
    *,
    solve_seconds: float,
    cached: bool,
    return_primal: bool = False,
) -> dict[str, Any]:
    """The JSON body of a successful solve response."""
    result: dict[str, Any] = {
        "iterations": solution.iterations,
        "converged": solution.converged,
        "lam": np.asarray(solution.lam, dtype=float).tolist(),
        "lam_norm": float(np.linalg.norm(solution.lam)),
        "preprocessing_seconds": solution.preprocessing_seconds,
        "dual_apply_seconds": solution.dual_apply_seconds,
        "coarse_seconds": solution.coarse_seconds,
    }
    if return_primal:
        result["primal"] = [np.asarray(u, dtype=float).tolist() for u in solution.primal]
    return {
        "schema_version": SCHEMA_VERSION,
        "cached": cached,
        "solve_seconds": solve_seconds,
        "result": result,
    }


def error_payload(message: str, status: int) -> dict[str, Any]:
    """The JSON body of an error response."""
    return {"schema_version": SCHEMA_VERSION, "error": message, "status": status}
