"""Tests of :class:`ExecutionSpec`: the parsing of ``SolverSpec.execution``."""

from __future__ import annotations

import os

import pytest

from repro.runtime.executor import BACKENDS, ExecutionError, ExecutionSpec


class TestExecutionSpec:
    def test_defaults_are_serial_single_worker(self):
        spec = ExecutionSpec()
        assert spec.backend == "serial"
        assert spec.workers == 1

    @pytest.mark.parametrize("workers", [0, -1, -100])
    def test_rejects_non_positive_workers_with_actionable_error(self, workers):
        with pytest.raises(ExecutionError, match="zero or negative"):
            ExecutionSpec("threads", workers)

    @pytest.mark.parametrize("workers", [1.5, "two", None])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(ExecutionError):
            ExecutionSpec("threads", workers)

    @pytest.mark.parametrize("backend", ["cuda", "processes"])
    def test_rejects_unknown_backend_listing_the_valid_ones(self, backend):
        with pytest.raises(ExecutionError, match="serial, threads$") as err:
            ExecutionSpec(backend, 2)
        for name in BACKENDS:
            assert name in str(err.value)

    def test_serial_backend_rejects_worker_pools(self):
        with pytest.raises(ExecutionError, match="serial"):
            ExecutionSpec("serial", 4)

    def test_of_parses_backend_strings_with_worker_suffix(self):
        assert ExecutionSpec.of("threads:3") == ExecutionSpec("threads", 3)
        assert ExecutionSpec.of("threads") == ExecutionSpec("threads", os.cpu_count() or 1)
        assert ExecutionSpec.of("serial") == ExecutionSpec()
        assert ExecutionSpec.of(None) == ExecutionSpec()
        spec = ExecutionSpec("threads", 2)
        assert ExecutionSpec.of(spec) is spec

    def test_of_rejects_unknown_mapping_fields(self):
        with pytest.raises(ExecutionError, match="unknown execution field"):
            ExecutionSpec.of({"backend": "threads", "pool_size": 4})

    def test_dict_round_trip(self):
        spec = ExecutionSpec("threads", 4)
        assert ExecutionSpec.of(spec.to_dict()) == spec

    @pytest.mark.parametrize("value", ["threads:0", "threads:x", "threads:1.5"])
    def test_of_rejects_a_bad_worker_suffix(self, value):
        with pytest.raises(ExecutionError, match="workers must be"):
            ExecutionSpec.of(value)

    @pytest.mark.parametrize("value", [2, ["threads", 2]])
    def test_of_rejects_values_of_other_types(self, value):
        with pytest.raises(ExecutionError, match=f"got {type(value).__name__}$"):
            ExecutionSpec.of(value)

    def test_serial_dict_round_trip(self):
        assert ExecutionSpec().to_dict() == {"backend": "serial", "workers": 1}
        assert ExecutionSpec.of(ExecutionSpec().to_dict()) == ExecutionSpec()
