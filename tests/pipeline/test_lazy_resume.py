"""Demand-driven resume: a stage hit is decoded only when its value is read.

A fully cached run decodes the report payload and nothing else: no parse,
no member artifact, no other stage payload.  Reading any other stage
afterwards materializes it from the store, and an unreadable entry falls
back to re-running exactly the stage that needs it.
"""

import dataclasses
import shutil

import numpy as np
import pytest

from repro.ensemble.cache import MemberCache
from repro.experiments import get_experiment
from repro.obs import disable_tracing, enable_tracing, get_metrics
from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    Stage,
    StageError,
    json_payload,
    payload_json,
    root_cause_pipeline,
)
from repro.refine import RefinementConfig

EXPERIMENT = get_experiment("wsubbug").with_(
    members=6, nsteps=1, refine=RefinementConfig(members=4)
)

#: the report stage's inputs that are cached stages
REPORT_HITS = ("ect", "ranked_slice", "selection", "refined")


def pipeline(store) -> Pipeline:
    return root_cause_pipeline(EXPERIMENT, store_dir=store, backend="serial")


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One uninterrupted cold run; its store is the warm store below."""
    store = tmp_path_factory.mktemp("lazy-store")
    return store, pipeline(store).run()


@pytest.fixture
def warm_store(cold, tmp_path):
    """A private copy of the cold run's store, free to damage."""
    store = tmp_path / "store"
    shutil.copytree(cold[0], store)
    return store


@pytest.fixture
def reads(monkeypatch):
    """Keys of every stage payload and member artifact read from disk."""
    log = {"stages": [], "members": []}
    store_load, member_load = ArtifactStore.load, MemberCache.load_artifact

    def load(self, key):
        log["stages"].append(key)
        return store_load(self, key)

    def load_artifact(self, key):
        log["members"].append(key)
        return member_load(self, key)

    monkeypatch.setattr(ArtifactStore, "load", load)
    monkeypatch.setattr(MemberCache, "load_artifact", load_artifact)
    return log


def report_bytes(result) -> str:
    return result["report"].to_json()


class TestFullResume:
    def test_decodes_only_the_report(self, cold, warm_store, reads):
        _, first = cold
        before = get_metrics().counters()
        result = pipeline(warm_store).run()
        moved = get_metrics().counter_delta(before)

        assert moved.get("frontend.files_parsed", 0) == 0
        assert reads["members"] == []
        assert reads["stages"] == [result.record("report").key]
        assert all(r.status == "hit" for r in result.records if r.cacheable)
        assert result.record("metagraph").status == "skipped"
        assert [r.name for r in result.records] == [
            s.name for s in pipeline(warm_store).stages
        ]
        assert report_bytes(result) == report_bytes(first)

    def test_every_cacheable_stage_counts_one_hit(self, warm_store):
        result = pipeline(warm_store).run()
        for record in result.records:
            expected = (1, 0) if record.cacheable else (0, 0)
            assert (record.store_hits, record.store_misses) == expected

    def test_reading_the_ensemble_materializes_it_from_the_store(
        self, cold, warm_store
    ):
        _, first = cold
        result = pipeline(warm_store).run()
        record = result.record("control_ensemble")
        assert record.member_hits == record.member_misses == 0

        ensemble = result["control_ensemble"]
        assert record.status == "hit"
        assert record.member_misses == 0
        assert record.member_hits == EXPERIMENT.members
        np.testing.assert_array_equal(
            ensemble.matrix, first["control_ensemble"].matrix
        )

    def test_reading_a_skipped_stage_runs_it(self, warm_store):
        result = pipeline(warm_store).run()
        assert result.record("metagraph").status == "skipped"
        assert set(result.outputs) == {s.name for s in result.records}
        graph = result.outputs["metagraph"]
        assert graph is not None
        assert result.record("metagraph").status == "ran"

    def test_only_materialized_stages_have_spans(self, warm_store):
        enable_tracing()
        try:
            result = pipeline(warm_store).run()
        finally:
            spans = disable_tracing()
        stage_spans = {s.name for s in spans if s.name.startswith("stage:")}
        assert stage_spans == {
            "stage:control_source",
            "stage:patched_source",
            "stage:report",
        }
        traced = {s.span_id for s in spans}
        for record in result.records:
            if f"stage:{record.name}" in stage_spans:
                assert record.span_id in traced
            else:
                assert record.span_id == ""


class TestFailurePaths:
    def test_corrupt_report_reruns_from_the_hits_it_needs(
        self, cold, warm_store, reads
    ):
        _, first = cold
        report_key = first.record("report").key
        entry = warm_store / "stages" / f"{report_key}.npz"
        entry.write_bytes(entry.read_bytes()[:20])

        before = get_metrics().counters()
        result = pipeline(warm_store).run()
        moved = get_metrics().counter_delta(before)

        record = result.record("report")
        assert record.status == "ran"
        assert (record.store_hits, record.store_misses) == (0, 1)
        assert moved.get("store.corrupt") == 1
        needed = {result.record(name).key for name in REPORT_HITS}
        assert set(reads["stages"]) == needed | {report_key}
        assert reads["members"] == []
        assert sum(r.member_misses for r in result.records) == 0
        assert result.record("control_ensemble").status == "hit"
        assert report_bytes(result) == report_bytes(first)

    def test_lost_members_cost_nothing_until_the_ensemble_is_read(
        self, cold, warm_store
    ):
        _, first = cold
        for artifact in (warm_store / "members").glob("*.npz"):
            artifact.unlink()

        result = pipeline(warm_store).run()
        assert report_bytes(result) == report_bytes(first)
        assert sum(r.member_misses for r in result.records) == 0

        ensemble = result["control_ensemble"]
        record = result.record("control_ensemble")
        assert record.status == "ran"
        assert (record.store_hits, record.store_misses) == (0, 1)
        assert ensemble.cache_misses == EXPERIMENT.members
        np.testing.assert_array_equal(
            ensemble.matrix, first["control_ensemble"].matrix
        )

    def test_crash_at_ect_keeps_topological_order(self, tmp_path):
        healthy = pipeline(tmp_path / "store")
        order = []

        def logged(stage):
            def func(ctx, **inputs):
                order.append(stage.name)
                if stage.name == "ect":
                    raise RuntimeError("simulated crash")
                return stage.func(ctx, **inputs)

            return dataclasses.replace(stage, func=func)

        crashing = Pipeline(
            [logged(s) for s in healthy.stages], store_dir=healthy.store_dir
        )
        with pytest.raises(StageError) as excinfo:
            crashing.run()

        names = [s.name for s in healthy.stages]
        prefix = names[: names.index("ect") + 1]
        assert order == prefix
        records = excinfo.value.records
        assert [r.name for r in records] == prefix
        assert [r.status for r in records] == ["ran"] * (len(prefix) - 1) + [
            "error"
        ]
        assert "coverage_run" in {r.name for r in records if r.status == "ran"}


# ------------------------------------------------------------- toy engine
def toy(name, value, inputs=(), decode=None, func=None, calls=None):
    def run(ctx, **kwargs):
        if calls is not None:
            calls.append(name)
        return func(**kwargs) if func else value

    return Stage(
        name=name,
        func=run,
        inputs=tuple(inputs),
        params={"value": value},
        encode=lambda v, ctx, inputs: json_payload({"v": v}),
        decode=decode
        or (lambda payload, ctx, inputs: payload_json(payload)["v"]),
    )


class TestEngine:
    def test_decode_reads_inputs_lazily(self, tmp_path):
        seen = []

        def decode(payload, ctx, inputs):
            seen.append(sorted(inputs))
            return payload_json(payload)["v"]

        stages = [
            toy("a", 1),
            toy("b", 2, inputs=("a",), decode=decode, func=lambda a: a + 1),
        ]
        Pipeline(stages, store_dir=tmp_path).run()
        result = Pipeline(stages, store_dir=tmp_path).run()
        assert result["b"] == 2
        assert seen == [["a"]]  # the mapping names its inputs ...
        assert result.record("a").span_id == ""  # ... but none was read
        assert result.record("a").wall_s == 0.0

    def test_skipped_stage_runs_only_when_read(self, tmp_path):
        calls = []
        side = Stage(
            name="side",
            func=lambda ctx: calls.append("side") or "tree",
            cacheable=False,
        )
        stages = [side, toy("leaf", 3)]
        result = Pipeline(stages, store_dir=tmp_path).run()
        assert result.record("side").status == "skipped"
        assert calls == []
        assert result["side"] == "tree"
        assert result.record("side").status == "ran"
        assert calls == ["side"]

    def test_miss_forces_hit_inputs_in_its_own_window(self, tmp_path):
        calls = []
        Pipeline([toy("a", 1)], store_dir=tmp_path).run()
        result = Pipeline(
            [
                toy("a", 1, calls=calls),
                toy("b", 0, inputs=("a",), func=lambda a: a + 1, calls=calls),
            ],
            store_dir=tmp_path,
        ).run()
        assert calls == ["b"]
        assert result.record("a").status == "hit"
        assert result.record("a").metrics.get("store.hits") == 1
        assert "store.hits" not in result.record("b").metrics
        assert result["b"] == 2

    def test_unreadable_hit_read_late_reruns_and_flips(self, tmp_path):
        calls = []
        stages = [toy("a", 5, calls=calls), toy("z", 0)]
        Pipeline(stages, store_dir=tmp_path).run()
        key = Pipeline(stages).keys()["a"]
        (tmp_path / "stages" / f"{key}.npz").write_bytes(b"garbage")

        result = Pipeline(stages, store_dir=tmp_path).run()
        assert result.record("a").status == "hit"
        assert calls == ["a"]
        assert result["a"] == 5
        assert calls == ["a", "a"]
        record = result.record("a")
        assert record.status == "ran"
        assert (record.store_hits, record.store_misses) == (0, 1)
