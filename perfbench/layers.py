"""Per-layer timing for one traced operation, recorded from outside ``src/``.

:func:`install` wraps each layer's public functions at every module
attribute the pipeline calls them through, and returns a :class:`Ledger`
that accumulates exclusive seconds and work counts in memory.  Nested
wrapped calls are subtracted from their caller, so the seconds of all
layers add up to at most the wall time they cover.  Stacks are kept per
thread, so the thread backend's worker threads do not corrupt them.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

#: layer seconds summed into ``pipeline.unattributed_s``'s subtrahend
TIME_METRICS = (
    "frontend.parse_s",
    "graphs.metagraph_s",
    "analysis.communities_s",
    "runtime.scalar_run_s",
    "runtime.batch_s",
    "kgen.registry_s",
    "ensemble.generate_s",
    "ensemble.cache_load_s",
    "store.load_s",
    "store.save_s",
    "ect.test_s",
    "slicing.slice_s",
    "selection.select_s",
    "refine.refine_s",
)


class Ledger:
    """Exclusive seconds and counts per metric name (see module docstring)."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.values[name] += amount

    def timed(self, fn, seconds: str, after=None):
        """``fn`` wrapped to charge its exclusive time to ``seconds``.

        ``after(ledger, args, kwargs, result)`` records the call's work
        counts once it returned.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                ledger.add(seconds, elapsed - nested)
            if after is not None:
                after(ledger, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self.values)


def _patch(sites, wrapper) -> None:
    for owner, attr in sites:
        setattr(owner, attr, wrapper)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install() -> Ledger:
    """Wrap every traced layer function; returns the ledger they feed."""
    import repro.analysis
    import repro.ect
    import repro.ect.core
    import repro.ensemble
    import repro.ensemble.backends
    import repro.ensemble.cache
    import repro.graphs
    import repro.kgen.registry
    import repro.model.builder
    import repro.pipeline.stages
    import repro.pipeline.store
    import repro.refine
    import repro.refine.algorithm
    import repro.runtime
    import repro.runtime.vec
    import repro.selection
    import repro.selection.select
    import repro.slicing

    ledger = Ledger()
    stages = repro.pipeline.stages
    refine_alg = repro.refine.algorithm

    # frontend: the cached 40-file parse, and the files it really parses
    builder = repro.model.builder
    builder.ModelSource.parse = ledger.timed(
        builder.ModelSource.parse, "frontend.parse_s"
    )
    parse_source = builder.parse_source

    def count_parse(*args, **kwargs):
        ledger.add("frontend.files_parsed")
        return parse_source(*args, **kwargs)

    builder.parse_source = count_parse

    _patch(
        [(stages, "build_metagraph"), (repro.graphs, "build_metagraph")],
        ledger.timed(repro.graphs.build_metagraph, "graphs.metagraph_s"),
    )

    _patch(
        [
            (repro.analysis, "girvan_newman_communities"),
            (refine_alg, "girvan_newman_communities"),
        ],
        ledger.timed(
            repro.analysis.girvan_newman_communities,
            "analysis.communities_s",
            lambda led, a, k, r: led.add("analysis.communities_calls"),
        ),
    )

    def after_run(led, args, kwargs, result):
        led.add("runtime.scalar_runs")
        led.add("runtime.statements", result.statements_executed)

    _patch(
        [
            (stages, "run_model"),
            (repro.ensemble.backends, "run_model"),
            (repro.runtime, "run_model"),
        ],
        ledger.timed(repro.runtime.run_model, "runtime.scalar_run_s", after_run),
    )

    def after_batch(led, args, kwargs, result):
        led.add("runtime.batch_members", len(result))

    _patch(
        [(repro.runtime.vec, "run_model_batch"), (repro.runtime, "run_model_batch")],
        ledger.timed(
            repro.runtime.vec.run_model_batch, "runtime.batch_s", after_batch
        ),
    )

    repro.kgen.registry.kernel_registry_for = ledger.timed(
        repro.kgen.registry.kernel_registry_for, "kgen.registry_s"
    )

    # ensemble: generation (its member runs are charged to runtime) ...
    generate = repro.ensemble.generate_ensemble
    generate_timed = ledger.timed(generate, "ensemble.generate_s")

    def generate_ensemble(*args, **kwargs):
        start = time.perf_counter()
        ensemble = generate_timed(*args, **kwargs)
        ledger.add("ensemble.generate_wall_s", time.perf_counter() - start)
        ledger.add("ensemble.members_run", ensemble.cache_misses)
        ledger.add("ensemble.members_cached", ensemble.cache_hits)
        return ensemble

    _patch(
        [
            (stages, "generate_ensemble"),
            (refine_alg, "generate_ensemble"),
            (repro.ensemble, "generate_ensemble"),
        ],
        functools.wraps(generate)(generate_ensemble),
    )

    # ... and the member cache's reads and writes
    member_cache = repro.ensemble.cache.MemberCache

    def after_member_load(led, args, kwargs, artifact):
        self, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        if artifact is None:
            led.add("store.misses")
        else:
            led.add("store.hits")
            led.add("store.bytes_read", _size(self._path(key)))

    member_cache.load_artifact = ledger.timed(
        member_cache.load_artifact, "ensemble.cache_load_s", after_member_load
    )

    def after_member_store(led, args, kwargs, _):
        self = args[0]
        artifact = args[1] if len(args) > 1 else kwargs["artifact"]
        led.add("store.bytes_written", _size(self._path(artifact.config_key)))

    member_cache.store_artifact = ledger.timed(
        member_cache.store_artifact, "store.save_s", after_member_store
    )

    # store: the per-stage artifact store
    artifact_store = repro.pipeline.store.ArtifactStore

    def after_load(led, args, kwargs, payload):
        self, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        if payload is None:
            led.add("store.misses")
        else:
            led.add("store.hits")
            led.add("store.bytes_read", _size(self._path(key)))

    artifact_store.load = ledger.timed(
        artifact_store.load, "store.load_s", after_load
    )

    def after_save(led, args, kwargs, _):
        self, key = args[0], args[1] if len(args) > 1 else kwargs["key"]
        led.add("store.bytes_written", _size(self._path(key)))

    artifact_store.save = ledger.timed(
        artifact_store.save, "store.save_s", after_save
    )

    # ect: the pipeline calls UltraFastECT.test; ect_test is the public helper
    count_test = lambda led, a, k, r: led.add("ect.tests")  # noqa: E731
    ect_class = repro.ect.core.UltraFastECT
    ect_class.test = ledger.timed(ect_class.test, "ect.test_s", count_test)
    # ect_test runs UltraFastECT.test, which does the counting
    _patch(
        [(repro.ect, "ect_test"), (repro.ect.core, "ect_test")],
        ledger.timed(repro.ect.ect_test, "ect.test_s"),
    )

    _patch(
        [
            (stages, "slice_failing_runs"),
            (refine_alg, "slice_failing_runs"),
            (repro.selection.select, "slice_failing_runs"),
            (repro.slicing, "slice_failing_runs"),
        ],
        ledger.timed(repro.slicing.slice_failing_runs, "slicing.slice_s"),
    )

    def after_select(led, args, kwargs, result):
        led.add("selection.nodes_explored", result.nodes_explored)

    _patch(
        [(stages, "select_culprits"), (repro.selection, "select_culprits")],
        ledger.timed(
            repro.selection.select_culprits, "selection.select_s", after_select
        ),
    )

    def after_refine(led, args, kwargs, result):
        led.add("refine.iterations", result.n_iterations)

    _patch(
        [(stages, "refine_slice"), (repro.refine, "refine_slice")],
        ledger.timed(repro.refine.refine_slice, "refine.refine_s", after_refine),
    )
    return ledger
