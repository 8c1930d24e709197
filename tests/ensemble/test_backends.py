"""Execution backends: conformance, name lookup, selection knobs."""

import numpy as np
import pytest

from repro.ensemble import (
    EnsembleSpec,
    ExecutionBackend,
    SerialBackend,
    UnknownBackendError,
    VectorizedBackend,
    generate_ensemble,
    get_backend,
    list_backends,
)
from repro.ensemble.backends import BACKEND_ENV_VAR, DEFAULT_BACKEND
from repro.model import build_model_source

SMALL = EnsembleSpec(n_members=4, nsteps=1)


@pytest.fixture(scope="module")
def shared_source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def serial_ensemble(shared_source):
    return generate_ensemble(SMALL, source=shared_source, backend="serial")


class TestConformance:
    """Acceptance: the vectorized backend is bit-identical to the serial
    reference."""

    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_backend_matches_serial_bit_for_bit(
        self, backend, shared_source, serial_ensemble
    ):
        ens = generate_ensemble(SMALL, source=shared_source, backend=backend)
        np.testing.assert_array_equal(ens.matrix, serial_ensemble.matrix)
        assert ens.variable_names == serial_ensemble.variable_names
        # merged coverage must be identical too — coverage is part of the
        # artifact, not a serial-only extra
        assert ens.coverage == serial_ensemble.coverage
        for mine, ref in zip(ens.members, serial_ensemble.members):
            assert mine.coverage == ref.coverage
            assert mine.statements_executed == ref.statements_executed
            assert mine.prng_draws == ref.prng_draws

    def test_backend_name_recorded_in_stats(self, serial_ensemble):
        assert serial_ensemble.stats["backend"] == "serial"


class TestRegistry:
    def test_builtin_backends_listed(self):
        assert list_backends() == ["serial", "vectorized"]

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)

    def test_get_backend_passthrough_instance(self):
        backend = VectorizedBackend()
        assert get_backend(backend) is backend

    def test_unknown_backend_is_a_clear_error(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("quantum")

    def test_unknown_backend_error_type_and_listing(self):
        """Mirrors UnknownPatchError: a KeyError that is also the
        historical ValueError, naming every known backend."""
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("quantum")
        err = excinfo.value
        assert isinstance(err, KeyError)
        assert isinstance(err, ValueError)
        for name in list_backends():
            assert name in str(err)
        # KeyError's repr-quoting must not mangle the message
        assert str(err).startswith("unknown execution backend")

    def test_unknown_backend_from_environment_fails_fast(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warpdrive")
        with pytest.raises(UnknownBackendError, match="warpdrive"):
            get_backend(None)

    def test_unknown_backend_from_spec_fails_fast(self, shared_source):
        spec = EnsembleSpec(n_members=2, nsteps=1, backend="warpdrive")
        with pytest.raises(UnknownBackendError, match="warpdrive"):
            generate_ensemble(spec, source=shared_source)


class TestSelectionKnobs:
    def test_spec_backend_field_selects(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="serial")
        ens = generate_ensemble(spec, source=shared_source)
        assert ens.stats["backend"] == "serial"

    def test_argument_overrides_spec(self, shared_source):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="vectorized")
        ens = generate_ensemble(spec, source=shared_source, backend="serial")
        assert ens.stats["backend"] == "serial"

    def test_environment_variable_is_the_fallback(
        self, shared_source, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        ens = generate_ensemble(SMALL, source=shared_source)
        assert ens.stats["backend"] == "serial"

    def test_environment_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "vectorized"
        assert isinstance(get_backend(None), VectorizedBackend)

    def test_spec_backend_does_not_change_member_configs(self):
        import dataclasses

        spec = dataclasses.replace(SMALL, backend="serial")
        assert spec.member_configs() == SMALL.member_configs()


class TestBackendCacheInterplay:
    def test_vectorized_fills_cache_for_serial_hits(
        self, shared_source, tmp_path
    ):
        cold = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path, backend="vectorized"
        )
        assert cold.cache_misses == 4 and cold.cache_hits == 0
        warm = generate_ensemble(
            SMALL, source=shared_source, cache_dir=tmp_path, backend="serial"
        )
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        np.testing.assert_array_equal(warm.matrix, cold.matrix)
        assert warm.coverage == cold.coverage


def test_execution_backend_is_abstract():
    with pytest.raises(TypeError):
        ExecutionBackend()
