"""Tests of the serve wire protocol: parsing, keys, payloads."""

import json

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION, RequestSolution, SolverSpec, Workload
from repro.serve.protocol import (
    ProtocolError,
    parse_solve_request,
    pattern_key,
    request_fingerprint,
    solution_payload,
)


def _body(**fields) -> bytes:
    return json.dumps(fields).encode("utf-8")


# --------------------------------------------------------------------- #
# Parsing                                                                #
# --------------------------------------------------------------------- #
def test_parse_accepts_preset_names_and_dicts():
    request = parse_solve_request(_body(workload="heat-2d-quick", spec="cpu-explicit"))
    assert request.workload == Workload.from_preset("heat-2d-quick")
    assert request.spec == SolverSpec.from_preset("cpu-explicit")
    assert request.rhs is None and request.timeout is None

    inline = parse_solve_request(
        _body(
            workload=Workload("heat", 2, (2, 1), 3).to_dict(),
            spec={"approach": "expl mkl"},
            rhs=2.5,
        )
    )
    assert inline.workload.subdomains == (2, 1)
    assert inline.rhs == 2.5


def test_parse_requires_a_workload():
    with pytest.raises(ProtocolError, match="missing the required 'workload'"):
        parse_solve_request(_body(spec="cpu-explicit"))


def test_parse_rejects_non_json_and_non_objects():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        parse_solve_request(b"{nope")
    with pytest.raises(ProtocolError, match="must be a JSON object"):
        parse_solve_request(b"[1, 2]")
    with pytest.raises(ProtocolError, match="not valid UTF-8"):
        parse_solve_request(b"\xff\xfe")


def test_parse_rejects_unknown_fields_actionably():
    with pytest.raises(ProtocolError, match="unknown request field.*workloads"):
        parse_solve_request(_body(workloads="heat-2d-quick"))


@pytest.mark.parametrize("field, value", [("batched", False), ("blocked", True)])
def test_parse_rejects_the_removed_spec_toggles_by_name(field, value):
    with pytest.raises(ProtocolError, match=rf"invalid spec.*unknown.*'{field}'"):
        parse_solve_request(
            _body(workload="heat-2d-quick", spec={"approach": "expl mkl", field: value})
        )


@pytest.mark.parametrize(
    "execution", ["threads:2", "threads:4", {"backend": "threads", "workers": 3}]
)
def test_parse_rejects_a_spec_asking_for_worker_threads(execution):
    """Concurrency belongs to the HTTP tier: a request runs on one worker."""
    with pytest.raises(ProtocolError, match="invalid spec: execution threads:.*one worker"):
        parse_solve_request(
            _body(workload="heat-2d-quick", spec={"approach": "expl mkl", "execution": execution})
        )


@pytest.mark.parametrize("execution", [None, "serial", "threads:1"])
def test_parse_accepts_a_single_worker_execution(execution):
    request = parse_solve_request(
        _body(workload="heat-2d-quick", spec={"approach": "expl mkl", "execution": execution})
    )
    assert request.spec == SolverSpec(approach="expl mkl", execution=execution)


def test_parse_checks_the_schema_version():
    ok = parse_solve_request(_body(schema_version=SCHEMA_VERSION, workload="heat-2d-quick"))
    assert ok.workload.physics == "heat"
    with pytest.raises(ProtocolError, match="schema_version 999"):
        parse_solve_request(_body(schema_version=999, workload="heat-2d-quick"))


def test_parse_reports_unknown_presets():
    with pytest.raises(ProtocolError, match="invalid workload.*registered presets"):
        parse_solve_request(_body(workload="no-such-preset"))
    with pytest.raises(ProtocolError, match="invalid spec"):
        parse_solve_request(_body(workload="heat-2d-quick", spec="no-such-spec"))


def test_parse_normalizes_rhs_variants():
    scalar = parse_solve_request(_body(workload="heat-2d-quick", rhs=3))
    assert scalar.rhs == 3.0 and isinstance(scalar.rhs, float)
    vectors = parse_solve_request(_body(workload="heat-2d-quick", rhs=[[1, 2], [3, 4]]))
    assert vectors.rhs == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ProtocolError, match="rhs"):
        parse_solve_request(_body(workload="heat-2d-quick", rhs=True))
    with pytest.raises(ProtocolError, match="rhs"):
        parse_solve_request(_body(workload="heat-2d-quick", rhs="big"))
    with pytest.raises(ProtocolError, match="rhs"):
        parse_solve_request(_body(workload="heat-2d-quick", rhs=[["x"]]))


@pytest.mark.parametrize(
    "rhs",
    [
        pytest.param(["12", "3"], id="strings"),
        pytest.param([[True, 2]], id="bool-entry"),
        pytest.param([[1.0, None]], id="null-entry"),
        pytest.param([{"1": 0}], id="object"),
        pytest.param(["1"], id="one-string"),
        pytest.param([3.0], id="bare-number"),
        pytest.param([[1.0, [2.0]]], id="nested-list"),
    ],
)
def test_parse_rejects_load_vectors_that_are_not_lists_of_numbers(rhs):
    """Strings are not iterated, bools and object keys are not coerced."""
    with pytest.raises(ProtocolError, match="lists of numbers") as exc_info:
        parse_solve_request(_body(workload="heat-2d-quick", rhs=rhs))
    assert exc_info.value.status == 400


def test_parse_validates_the_timeout():
    ok = parse_solve_request(_body(workload="heat-2d-quick", timeout=1.5))
    assert ok.timeout == 1.5
    with pytest.raises(ProtocolError, match="timeout must be positive"):
        parse_solve_request(_body(workload="heat-2d-quick", timeout=0))
    with pytest.raises(ProtocolError, match="timeout must be a number"):
        parse_solve_request(_body(workload="heat-2d-quick", timeout="fast"))


@pytest.mark.parametrize(
    "raw_rhs",
    ["NaN", "Infinity", "-Infinity", "[[1.0, NaN]]", "[[1.0], [2.0, Infinity]]"],
)
def test_parse_rejects_non_finite_rhs(raw_rhs):
    """Python's ``json`` reads ``NaN`` / ``Infinity``: they must not reach a solve."""
    body = f'{{"workload": "heat-2d-quick", "rhs": {raw_rhs}}}'
    with pytest.raises(ProtocolError, match="finite") as exc_info:
        parse_solve_request(body)
    assert exc_info.value.status == 400


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("return_primal", "false", "return_primal must be a JSON boolean"),
        ("return_primal", 1, "return_primal must be a JSON boolean"),
        ("return_primal", None, "return_primal must be a JSON boolean"),
        ("timeout", True, "timeout must be a number"),
        ("timeout", "1.5", "timeout must be a number"),
        ("timeout", float("inf"), "timeout must be positive and finite"),
        ("timeout", float("nan"), "timeout must be positive and finite"),
    ],
)
def test_parse_checks_envelope_field_types_instead_of_coercing(field, value, message):
    with pytest.raises(ProtocolError, match=message) as exc_info:
        parse_solve_request(_body(workload="heat-2d-quick", **{field: value}))
    assert exc_info.value.status == 400
    ok = parse_solve_request(_body(workload="heat-2d-quick", return_primal=True, timeout=2))
    assert ok.return_primal is True and ok.timeout == 2.0


# --------------------------------------------------------------------- #
# Keys                                                                   #
# --------------------------------------------------------------------- #
def test_pattern_key_ignores_material_and_schedule():
    base = Workload.from_preset("heat-2d-quick")
    harder = Workload.from_dict({**base.to_dict(), "material": {"conductivity": 7.0}})
    assert pattern_key(base) == pattern_key(harder)
    coarser = Workload.from_dict({**base.to_dict(), "cells": base.cells + 1})
    assert pattern_key(base) != pattern_key(coarser)


def test_request_fingerprint_is_content_addressed():
    w = Workload.from_preset("heat-2d-quick")
    s = SolverSpec.from_preset("cpu-explicit")
    assert request_fingerprint(w, s, 2.0) == request_fingerprint(w, s, 2.0)
    assert request_fingerprint(w, s, 2.0) != request_fingerprint(w, s, 3.0)
    assert request_fingerprint(w, s, None) != request_fingerprint(w, s, 1.0)
    other_spec = SolverSpec.from_preset("cpu-implicit")
    assert request_fingerprint(w, s, 2.0) != request_fingerprint(w, other_spec, 2.0)


# --------------------------------------------------------------------- #
# Payloads                                                               #
# --------------------------------------------------------------------- #
def _solution() -> RequestSolution:
    return RequestSolution(
        lam=np.array([1.0, 2.0]),
        alpha=np.array([0.5]),
        primal=[np.array([1.0, 1.0]), np.array([2.0, 2.0])],
        iterations=7,
        converged=True,
        preprocessing_seconds=0.25,
        dual_apply_seconds=0.125,
    )


def test_solution_payload_is_json_serializable():
    payload = solution_payload(_solution(), solve_seconds=0.5, cached=False)
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["schema_version"] == SCHEMA_VERSION
    assert round_tripped["cached"] is False
    assert round_tripped["result"]["iterations"] == 7
    assert round_tripped["result"]["lam"] == [1.0, 2.0]
    assert "primal" not in round_tripped["result"]


def test_solution_payload_includes_primal_on_request():
    payload = solution_payload(
        _solution(), solve_seconds=0.5, cached=False, return_primal=True
    )
    assert payload["result"]["primal"] == [[1.0, 1.0], [2.0, 2.0]]
