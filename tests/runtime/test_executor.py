"""Tests of the execution backends and their declarative spec."""

from __future__ import annotations

import os

import pytest

from repro.runtime.executor import (
    BACKENDS,
    ExecutionError,
    ExecutionSpec,
    SerialExecutor,
    ThreadExecutor,
    default_execution,
    make_executor,
)


def _double(x):
    return 2 * x


class TestExecutionSpec:
    def test_defaults_are_serial_single_worker(self):
        spec = ExecutionSpec()
        assert spec.backend == "serial"
        assert spec.workers == 1
        assert not spec.parallel

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
        assert ExecutionSpec.of("threads").backend == "threads"
        assert ExecutionSpec.of(None) == ExecutionSpec()
        spec = ExecutionSpec("threads", 2)
        assert ExecutionSpec.of(spec) is spec

    def test_of_rejects_unknown_mapping_fields(self):
        with pytest.raises(ExecutionError, match="unknown execution field"):
            ExecutionSpec.of({"backend": "threads", "pool_size": 4})

    def test_dict_round_trip(self):
        spec = ExecutionSpec("threads", 4)
        assert ExecutionSpec.of(spec.to_dict()) == spec

    def test_describe_short_form(self):
        assert ExecutionSpec().describe() == "serial"
        assert ExecutionSpec("threads", 4).describe() == "threads4"


class TestEnvironmentDefault:
    def test_unset_environment_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_execution() == ExecutionSpec()

    def test_env_selects_backend_and_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_execution() == ExecutionSpec("threads", 3)

    def test_env_workers_default_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        spec = default_execution()
        assert spec.backend == "threads"
        assert spec.workers == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("backend", ["gpu", "processes"])
    def test_invalid_env_backend_raises_actionably(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_EXECUTOR", backend)
        with pytest.raises(ExecutionError, match="REPRO_EXECUTOR.*serial, threads$"):
            default_execution()


class TestExecutors:
    def test_factory_builds_the_matching_backend(self):
        assert isinstance(make_executor(None), SerialExecutor)
        with make_executor("threads:2") as ex:
            assert isinstance(ex, ThreadExecutor)

    @pytest.mark.parametrize("backend", [None, "threads:2"])
    def test_submit_round_trip(self, backend):
        with make_executor(backend) as ex:
            assert ex.submit(_double, 21).result() == 42

    def test_serial_submit_captures_exceptions_in_the_future(self):
        ex = SerialExecutor()
        future = ex.submit(_raise)
        with pytest.raises(RuntimeError, match="boom"):
            future.result()

    def test_submit_after_close_raises(self):
        ex = make_executor("threads:2")
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.submit(_double, 1)

    def test_close_is_idempotent(self):
        ex = make_executor("threads:2")
        assert ex.submit(_double, 1).result() == 2
        ex.close()
        ex.close()


def _raise():
    raise RuntimeError("boom")


def test_thread_executor_reentrant_submit_runs_inline():
    """A pool worker submitting to its own pool must not starve itself.

    This is how a solve submitted to the pool keeps its nested
    preprocessing spans safe: re-entrant submissions run inline instead of
    queueing behind their blocked parent.
    """
    with make_executor("threads:1") as ex:

        def nested():
            # With one worker, waiting on an enqueued task here would
            # deadlock; the inline path completes it immediately.
            return ex.submit(_double, 4).result()

        assert ex.submit(nested).result() == 8
