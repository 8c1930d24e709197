"""Execution backends for the ensemble member fan-out.

``generate_ensemble`` is a *coordinator*: it derives member configs,
consults the artifact cache, and hands the cache misses to an
:class:`ExecutionBackend` that decides **how** the interpreter runs.
Two backends ship:

``vectorized`` (the default)
    One member-batched interpreter pass (:mod:`repro.runtime.vec`) that
    advances every member at once over numpy arrays carrying a leading
    member axis.  Single-core and GIL-friendly, it beats the scalar
    backend by an order of magnitude on wide ensembles; members whose
    configs differ in more than ``pertlim``/``seed`` fall into separate
    batches automatically.

``serial``
    Run members one after another in the calling thread.  The reference
    semantics the vectorized backend must match bit-for-bit.

Both backends map the same ``(index, RunConfig)`` list to the same
artifacts — the interpreter is deterministic, so ``serial`` and
``vectorized`` produce bit-identical ensembles (a conformance test holds
them to that).

Backends are looked up by name via :func:`get_backend`; the selection knob
on :class:`~repro.ensemble.spec.EnsembleSpec` / ``generate_ensemble`` and
the ``REPRO_ENSEMBLE_BACKEND`` environment variable both resolve through
the same fixed table.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Iterator, Optional

from ..errors import ReproError
from ..model.builder import ModelSource
from ..obs import Span, get_tracer, new_span_id
from ..runtime import RunConfig, run_model
from .artifact import RunArtifact
from .cache import member_cache_key

__all__ = [
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "SerialBackend",
    "UnknownBackendError",
    "VectorizedBackend",
    "get_backend",
    "list_backends",
]


class UnknownBackendError(ReproError, ValueError, KeyError):
    """Raised for a backend name that is not known.

    Mirrors :class:`~repro.model.patches.UnknownPatchError`: it subclasses
    :class:`ValueError` (the error type ``get_backend`` has always raised,
    so existing callers keep working) and :class:`KeyError` (for callers
    treating the backend table as a mapping), and its message names every
    known backend so a typo in ``backend=`` or the
    ``REPRO_ENSEMBLE_BACKEND`` environment variable fails fast and loudly
    instead of deep inside an ensemble generation.
    """

    def __str__(self) -> str:  # avoid KeyError's repr-quoting of the message
        return self.args[0] if self.args else ""


#: environment knob consulted when neither the call nor the spec chooses
BACKEND_ENV_VAR = "REPRO_ENSEMBLE_BACKEND"

#: the fallback when nothing selects a backend (see ``resolve_backend_name``)
DEFAULT_BACKEND = "vectorized"


def _bare_artifact(source: ModelSource, config: RunConfig) -> RunArtifact:
    """Run one member and wrap it as an artifact."""
    result = run_model(config, source=source)
    return RunArtifact.from_result(result, member_cache_key(source, config))


class ExecutionBackend(ABC):
    """Strategy interface: run member configs, yield artifacts as they land.

    ``run_members`` receives the shared built+parsed :class:`ModelSource`
    and ``(index, config)`` pairs; it yields ``(index, RunArtifact)`` in
    *completion* order (the coordinator reassembles member order).  A
    backend must produce exactly one artifact per submitted index and must
    be bit-identical to :class:`SerialBackend`.
    """

    #: lookup name; subclasses set it
    name: str = ""

    @abstractmethod
    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        """Yield ``(index, artifact)`` for every job, in completion order."""


class SerialBackend(ExecutionBackend):
    """Reference backend: run members in submission order, inline."""

    name = "serial"

    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        tracer = get_tracer()
        for index, config in jobs:
            with tracer.span(
                "ensemble.member",
                lambda: {"seed": config.seed, "nsteps": config.nsteps,
                         "backend": self.name},
            ) as span:
                artifact = _bare_artifact(source, config)
                span.annotate(statements=int(artifact.statements_executed))
            yield index, artifact


class VectorizedBackend(ExecutionBackend):
    """Member-batched backend: one interpreter pass advances every member.

    Jobs are grouped by everything :func:`repro.runtime.vec.run_model_batch`
    requires to be uniform (nsteps and fp model — the model build is
    already fixed by ``source``; coverage flag and statement budget may
    vary per lane since PR 9), so a mixed job list still runs correctly,
    just in one batch per group.  Falls back to nothing: a model the
    vectorized runtime cannot express raises
    :class:`~repro.runtime.VectorizationError` rather than silently
    degrading, and the caller picks the serial backend instead.
    """

    name = "vectorized"

    def run_members(
        self,
        source: ModelSource,
        jobs: list[tuple[int, RunConfig]],
    ) -> Iterator[tuple[int, RunArtifact]]:
        from ..runtime.vec import run_model_batch

        groups: dict[tuple, list[tuple[int, RunConfig]]] = {}
        for index, config in jobs:
            token = (config.nsteps, config.fp)
            groups.setdefault(token, []).append((index, config))
        tracer = get_tracer()
        for batch in groups.values():
            with tracer.span(
                "ensemble.batch",
                lambda: {"members": len(batch), "backend": self.name},
            ) as batch_span:
                results = run_model_batch(
                    [config for _, config in batch], source=source
                )
            if tracer.enabled:
                # one interpreter pass advanced the whole batch, so true
                # per-member walls don't exist; synthesize member spans
                # with the amortized share (flagged `estimated`) so the
                # trace still accounts for every member.
                self._adopt_member_spans(tracer, batch_span, batch)
            for (index, config), result in zip(batch, results):
                artifact = RunArtifact.from_result(
                    result, member_cache_key(source, config)
                )
                yield index, artifact

    @staticmethod
    def _adopt_member_spans(tracer, batch_span, batch) -> None:
        finished = {s.span_id: s for s in tracer.finished()}
        done = finished.get(batch_span.span_id)
        if done is None:  # pragma: no cover - defensive
            return
        share = done.wall_s / len(batch)
        cpu_share = done.cpu_s / len(batch)
        tracer.adopt(
            Span(
                name="ensemble.member",
                span_id=new_span_id(),
                parent_id=batch_span.span_id,
                start=done.start + i * share,
                wall_s=share,
                cpu_s=cpu_share,
                attrs={
                    "seed": config.seed,
                    "nsteps": config.nsteps,
                    "backend": "vectorized",
                    "estimated": True,
                },
                pid=done.pid,
                thread_id=done.thread_id,
            )
            for i, (_, config) in enumerate(batch)
        )


#: the backend for each accepted name
_BACKENDS: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "vectorized": VectorizedBackend,
}


def list_backends() -> list[str]:
    """Names of all execution backends, sorted."""
    return sorted(_BACKENDS)


def resolve_backend_name(*candidates: Optional[str]) -> str:
    """First non-None name among ``candidates``, the environment knob
    (``REPRO_ENSEMBLE_BACKEND``), and the package default."""
    for name in candidates:
        if name is not None:
            return name
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def get_backend(
    backend: "ExecutionBackend | str | None" = None,
) -> ExecutionBackend:
    """Resolve a backend instance from an instance, a name, or the default.

    Passing an :class:`ExecutionBackend` returns it unchanged; a string is
    looked up by name; ``None`` falls back to the
    ``REPRO_ENSEMBLE_BACKEND`` environment variable and then to
    :data:`DEFAULT_BACKEND` (``"vectorized"``).  An unknown name —
    wherever it came from, argument, spec or environment — raises
    :class:`UnknownBackendError` listing every known backend.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = resolve_backend_name(backend)
    try:
        cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(list_backends())
        raise UnknownBackendError(
            f"unknown execution backend {name!r} (known: {known})"
        ) from None
    return cls()
