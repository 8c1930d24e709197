"""RunArtifact: payload round-trips, rehydration, corruption handling."""

import numpy as np
import pytest

from repro.ensemble import EnsembleSpec, MemberCache, RunArtifact, member_cache_key
from repro.ensemble.artifact import ArtifactError
from repro.model import build_model_source
from repro.runtime import run_model

SMALL = EnsembleSpec(n_members=2, nsteps=1)


@pytest.fixture(scope="module")
def source():
    return build_model_source(SMALL.model)


@pytest.fixture(scope="module")
def result(source):
    return run_model(SMALL.member_config(0), source=source)


@pytest.fixture(scope="module")
def artifact(source, result):
    key = member_cache_key(source, result.config)
    return RunArtifact.from_result(result, key)


class TestRoundTrip:
    def test_payload_round_trip_is_lossless(self, artifact):
        again = RunArtifact.from_payload(artifact.to_payload())
        assert again.config_key == artifact.config_key
        assert again.statements_executed == artifact.statements_executed
        assert again.prng_draws == artifact.prng_draws
        assert again.coverage == artifact.coverage
        assert set(again.outputs) == set(artifact.outputs)
        for name in artifact.outputs:
            np.testing.assert_array_equal(
                again.outputs[name], artifact.outputs[name]
            )
            np.testing.assert_array_equal(
                again.first_outputs[name], artifact.first_outputs[name]
            )

    def test_npz_round_trip_through_cache(self, artifact, tmp_path):
        cache = MemberCache(tmp_path)
        cache.store_artifact(artifact)
        loaded = cache.load_artifact(artifact.config_key)
        assert loaded is not None
        assert loaded.coverage == artifact.coverage
        for name in artifact.outputs:
            np.testing.assert_array_equal(
                loaded.outputs[name], artifact.outputs[name]
            )

    def test_rehydration_matches_original_result(self, artifact, result):
        back = artifact.to_result(result.config)
        assert back.config == result.config
        assert back.statements_executed == result.statements_executed
        assert back.coverage == result.coverage
        for name in result.outputs:
            np.testing.assert_array_equal(back.outputs[name], result.outputs[name])


class TestCorruption:
    def test_wrong_format_version_rejected(self, artifact):
        payload = artifact.to_payload()
        payload["format"] = np.array([999], dtype=np.int64)
        with pytest.raises(ArtifactError, match="format"):
            RunArtifact.from_payload(payload)

    def test_missing_meta_rejected(self, artifact):
        payload = artifact.to_payload()
        del payload["meta"]
        with pytest.raises(ArtifactError):
            RunArtifact.from_payload(payload)

    @pytest.mark.parametrize(
        "garbage",
        [
            b"",  # zero-length -> EOFError inside np.load
            b"PK\x03\x04 corrupt zip body",  # zip magic -> BadZipFile
            b"not an npz at all",  # -> ValueError
        ],
        ids=["empty", "bad-zip", "not-zip"],
    )
    def test_corrupt_cache_entries_are_misses_not_crashes(
        self, artifact, tmp_path, garbage
    ):
        cache = MemberCache(tmp_path)
        (tmp_path / f"{artifact.config_key}.npz").write_bytes(garbage)
        assert cache.load_artifact(artifact.config_key) is None
        assert cache.misses == 1

    def test_cache_refuses_entry_stored_under_wrong_key(
        self, artifact, tmp_path
    ):
        cache = MemberCache(tmp_path)
        cache.store_artifact(artifact)
        # simulate a renamed/mangled entry: same payload, different key
        bogus = "0" * 64
        (tmp_path / f"{artifact.config_key}.npz").rename(
            tmp_path / f"{bogus}.npz"
        )
        assert cache.load_artifact(bogus) is None
        assert cache.misses == 1

    def test_truncated_entry_counts_as_corrupt(self, artifact, tmp_path):
        from repro.obs import get_metrics

        cache = MemberCache(tmp_path)
        cache.store_artifact(artifact)
        path = tmp_path / f"{artifact.config_key}.npz"
        path.write_bytes(path.read_bytes()[:64])
        before = get_metrics().counters()
        assert cache.load_artifact(artifact.config_key) is None
        assert cache.load_artifact("f" * 64) is None  # absent: not corrupt
        assert (cache.corrupt, cache.misses, cache.hits) == (1, 2, 0)
        moved = get_metrics().counter_delta(before)
        assert moved["member_cache.corrupt"] == 1
        assert moved["member_cache.misses"] == 2
