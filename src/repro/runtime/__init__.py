"""Numerical runtime for the synthetic model: interpret, perturb, instrument.

This package executes the model the rest of the pipeline analyses statically:
the interpreter (:mod:`repro.runtime.interpreter`) runs over the *same*
cached ASTs that :meth:`repro.model.builder.ModelSource.parse` shares with
the metagraph builder, so numbers and digraph always describe one build.
Its scalar engine executes Python generated once per subprogram of a build
(:mod:`repro.runtime.codegen`); ``Interpreter(compile=False)`` walks the
AST instead and is the reference the generated code matches bit for bit.
The stable entry point is :func:`run_model`; downstream modules
(``repro.ensemble``, ``repro.ect``, ``repro.coverage``, ``repro.slicing``)
consume only :class:`RunResult` and never touch evaluator internals.
:func:`run_model_batch` (:mod:`repro.runtime.vec`) is the member-batched
variant: one vectorized evaluation advances a whole ensemble and returns a
bit-identical :class:`RunResult` per member.  It runs on the other engine,
:class:`~repro.runtime.compiler.VecCompiler`'s per-AST-node closures, whose
control flow and stores carry a member mask.

``RunConfig`` knobs
-------------------
``model``
    The :class:`repro.model.ModelConfig` to build and run — compset choice,
    bug-injection ``patches``, extra preprocessor ``macros``.  The default is
    the unpatched FC5 control build.
``nsteps``
    Number of ``cam_run_step`` time steps after ``cam_init`` (default 2; the
    paper's coverage/ensemble runs also use a handful of steps).
``pertlim``
    Initial-condition temperature perturbation magnitude, the paper's
    ensemble-generation knob (default 0.0 — the control trajectory).
``seed``
    Base seed of the reproducible stream-per-module PRNGs
    (:mod:`repro.runtime.prng`).  Identical configs give bit-identical runs.
``fp``
    The :class:`FPConfig` floating-point model (:mod:`repro.runtime.fpu`):
    ``fma`` turns on fused contraction of ``a*b + c`` patterns (optionally
    restricted to ``fma_modules``), ``flush_to_zero`` models ``-ftz``.  This
    is how patched-vs-unpatched *compiler flag* experiments diverge at the
    ULP level.
``collect_coverage``
    Record per-(file, line) execution counts into a
    :class:`CoverageTrace` (default True; turn off for speed inside large
    ensembles once coverage is known).
``max_statements``
    Hard budget on executed statements — a guard against runaway loops in
    badly patched models.

>>> result = run_model(RunConfig(nsteps=1))
>>> vec = result.output_vector()          # name -> global-mean float
>>> sorted(result.coverage.files())[0]    # executed files only
'cam_comp.F90'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..model.builder import ModelConfig, ModelSource, build_model_source
from ..model.registry import iter_output_fields
from .coverage import CoverageTrace
from .fpu import FPConfig, FPU
from .interpreter import (
    History,
    Interpreter,
    StatementLimitExceeded,
    StopModel,
)
from .prng import BatchedPRNGStreams, BatchedStream, PRNGStreams, Stream
from .values import (
    DerivedValue,
    FortranRuntimeError,
    IntentViolationError,
    MemberBatch,
    Scope,
    UndefinedNameError,
    VectorizationError,
)

__all__ = [
    "BatchedPRNGStreams",
    "BatchedStream",
    "CoverageTrace",
    "DerivedValue",
    "FPConfig",
    "FPU",
    "FortranRuntimeError",
    "History",
    "IntentViolationError",
    "Interpreter",
    "MemberBatch",
    "PRNGStreams",
    "RunConfig",
    "RunResult",
    "Scope",
    "StatementLimitExceeded",
    "StopModel",
    "Stream",
    "UndefinedNameError",
    "VecInterpreter",
    "VectorizationError",
    "run_model",
    "run_model_batch",
]


@dataclass(frozen=True)
class RunConfig:
    """One model run: build configuration plus runtime knobs (see above).

    Invalid knobs raise :class:`ValueError` at construction time, so a bad
    ensemble spec fails before any member burns interpreter time.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    nsteps: int = 2
    pertlim: float = 0.0
    seed: int = 12345
    fp: FPConfig = field(default_factory=FPConfig)
    collect_coverage: bool = True
    max_statements: int = 50_000_000

    def __post_init__(self) -> None:
        if isinstance(self.nsteps, bool) or not isinstance(self.nsteps, int):
            raise ValueError(
                f"nsteps must be an int, got {type(self.nsteps).__name__}"
            )
        if self.nsteps < 1:
            raise ValueError(f"nsteps must be >= 1, got {self.nsteps}")
        if isinstance(self.pertlim, bool) or not isinstance(
            self.pertlim, (int, float)
        ):
            raise ValueError(
                f"pertlim must be a real number, got "
                f"{type(self.pertlim).__name__}"
            )
        if not np.isfinite(self.pertlim):
            raise ValueError(f"pertlim must be finite, got {self.pertlim!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        if isinstance(self.max_statements, bool) or not isinstance(
            self.max_statements, int
        ):
            raise ValueError(
                f"max_statements must be an int, got "
                f"{type(self.max_statements).__name__}"
            )
        if self.max_statements < 1:
            raise ValueError(
                f"max_statements must be >= 1, got {self.max_statements}"
            )


@dataclass
class RunResult:
    """Everything one run produces for the downstream pipeline stages.

    ``outputs`` holds the end-of-run write of every history field;
    ``first_outputs`` holds the first write (the end of step one).  The
    first-step snapshot is the consistency-testing layer's high-sensitivity
    view: fields the stochastic physics has not yet touched stay
    bit-identical across ensemble members, so ULP-level effects such as FMA
    contraction remain visible there long after chaotic growth has folded
    them into the end-state spread.
    """

    config: RunConfig
    outputs: dict[str, np.ndarray]
    coverage: CoverageTrace
    statements_executed: int
    prng_draws: int
    first_outputs: dict[str, np.ndarray] = field(default_factory=dict)

    def output_vector(self) -> dict[str, float]:
        """The named output-variable vector: global mean of every field,
        ordered like the registry's output-field declarations."""
        return {
            name: float(np.mean(value)) for name, value in self.outputs.items()
        }

    def output_array(
        self,
        names: Optional[list[str]] = None,
        which: str = "final",
    ) -> np.ndarray:
        """An ordered numpy vector of global means, aligned with
        ``OUTPUT_FIELDS`` declaration order (then extra fields, sorted).

        Parameters
        ----------
        names:
            Explicit field order; defaults to ``list(self.outputs)``, whose
            order run_model fixes to the registry declaration order.  Pass
            the same list for every run of an ensemble so rows line up.
        which:
            ``"final"`` for the end-of-run snapshot, ``"first"`` for the
            end-of-first-step snapshot.
        """
        if which == "final":
            source = self.outputs
        elif which == "first":
            source = self.first_outputs
        else:
            raise ValueError(
                f"which must be 'final' or 'first', got {which!r}"
            )
        if names is None:
            names = list(source)
        try:
            return np.array(
                [float(np.mean(source[name])) for name in names], dtype=float
            )
        except KeyError as exc:
            raise KeyError(
                f"output field {exc.args[0]!r} was not produced by this run "
                f"(known: {', '.join(source)})"
            ) from None

    def is_finite(self) -> bool:
        """True when every output field is finite everywhere."""
        return all(bool(np.isfinite(v).all()) for v in self.outputs.values())

    def difference(self, other: "RunResult") -> dict[str, float]:
        """Max absolute elementwise difference per shared output field."""
        out: dict[str, float] = {}
        for name, value in self.outputs.items():
            if name in other.outputs:
                out[name] = float(np.max(np.abs(value - other.outputs[name])))
        return out


def run_model(
    config: Optional[RunConfig] = None,
    source: Optional[ModelSource] = None,
) -> RunResult:
    """Build, initialise and step the model; collect outputs and coverage.

    Parameters
    ----------
    config:
        The :class:`RunConfig` (default: unpatched FC5 control run).
    source:
        An already-built :class:`~repro.model.builder.ModelSource` to reuse
        (its cached parse is shared with the metagraph builder).  Must match
        ``config.model``; omit it to build from the config.
    """
    config = config or RunConfig()
    if source is None:
        source = build_model_source(config.model)
    elif source.config != config.model:
        raise ValueError(
            "the provided ModelSource was built from a different ModelConfig "
            "than config.model"
        )
    asts = source.parse()
    from ..obs import get_metrics, get_tracer

    with get_tracer().span(
        "runtime.run",
        lambda: {"nsteps": config.nsteps, "coverage": config.collect_coverage},
    ) as span:
        interp = Interpreter(
            asts,
            fp=config.fp,
            seed=config.seed,
            collect_coverage=config.collect_coverage,
            max_statements=config.max_statements,
        )
        interp.call(
            "cam_comp", "cam_init", [float(config.pertlim), int(config.seed)]
        )
        for _ in range(config.nsteps):
            interp.call("cam_comp", "cam_run_step", [])
        span.annotate(statements=interp.statements_executed)

    declared = [f.name for f in iter_output_fields(source.compset)]
    missing = [name for name in declared if name not in interp.history.fields]
    if missing:
        raise FortranRuntimeError(
            "run completed but declared output fields were never written: "
            + ", ".join(missing)
        )
    outputs: dict[str, np.ndarray] = {}
    first_outputs: dict[str, np.ndarray] = {}
    for name in declared:
        outputs[name] = np.asarray(interp.history.fields[name])
    # fields written but not declared ride along at the end, sorted
    for name in sorted(set(interp.history.fields) - set(declared)):
        outputs[name] = np.asarray(interp.history.fields[name])
    for name in outputs:
        first_outputs[name] = np.asarray(interp.history.first[name])

    coverage = interp.coverage if interp.coverage is not None else CoverageTrace()
    metrics = get_metrics()
    metrics.inc("interpreter.runs")
    metrics.inc("interpreter.statements", interp.statements_executed)
    return RunResult(
        config=config,
        outputs=outputs,
        coverage=coverage,
        statements_executed=interp.statements_executed,
        prng_draws=interp.prng.total_draws(),
        first_outputs=first_outputs,
    )


# imported last: repro.runtime.vec needs RunConfig/RunResult at call time
from .vec import VecInterpreter, run_model_batch  # noqa: E402
