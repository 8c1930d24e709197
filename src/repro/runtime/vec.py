"""Member-batched (vectorized) execution of the numerical interpreter.

One compiled evaluation advances *all* members of an ensemble at once:
per-member ``pertlim`` draws and PRNG seeds become leading-axis arrays
(:class:`~repro.runtime.values.MemberBatch`), scalar operations broadcast
over the member axis through numpy ufuncs, and near-identical control flow
diverges via ``where``-masked evaluation — an ``if`` whose condition varies
per member executes every branch under a boolean member mask, blending
stores so inactive members keep their old values.  The evaluation runs on
the per-AST-node closures of :class:`~repro.runtime.compiler.VecCompiler`.

Design rules (enforced, not assumed):

* **Only REAL and LOGICAL arrays carry the member axis.**  INTEGER arrays
  (neighbour tables, index maps) stay member-uniform plain ndarrays so
  they remain usable as subscripts; a member-varying store into one raises
  :class:`~repro.runtime.values.VectorizationError`.
* **Scalars promote on first member-varying store.**  A scalar slot that
  receives a member-varying value is rebound to a fresh ``(n,)``
  :class:`MemberBatch`; the copy-on-rebind keeps ``a = b`` from aliasing.
* **Divergence is masked, never forked.**  A member-batched ``if``
  condition must be a batch *scalar* (shape ``(n,)``); branch bodies run
  under the branch's member mask and every store blends against it.
  Constructs that cannot be expressed under a partial mask — ``return`` /
  ``exit`` / ``cycle`` / ``stop``, PRNG draws, ``outfld`` history writes,
  member-varying ``do`` bounds, ``do while`` conditions or ``select case``
  selectors — raise :class:`VectorizationError` instead of silently mixing
  members; a member batch whose values all agree collapses and proceeds.
* **Bit-identity with the scalar interpreter.**  Every arithmetic path
  reuses the scalar runtime's FPU (whose ufunc formulation is batch-safe),
  the batched PRNG reproduces each member's scalar stream exactly, and
  statement/coverage accounting tracks per-member totals under masks — the
  conformance suite checks outputs, coverage and draw counts per member
  against :func:`repro.runtime.run_model`.

The stable entry point is :func:`run_model_batch`, which mirrors
:func:`repro.runtime.run_model` over a list of :class:`RunConfig` members
that share everything but ``pertlim`` and ``seed``, and slices one
:class:`RunResult` per member out of the batch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .compiler import VecCompiler, _lift
from .coverage import CoverageTrace
from .interpreter import _DTYPES, Interpreter
from .prng import BatchedPRNGStreams
from .values import (
    ComponentRef,
    ElementRef,
    FortranRuntimeError,
    IntentViolationError,
    MemberBatch,
    Ref,
    ScopeRef,
    StatementLimitExceeded,
    VectorizationError,
)

__all__ = ["VecInterpreter", "run_model_batch"]


# --------------------------------------------------------------------------- #
# Interpreter
# --------------------------------------------------------------------------- #
class VecInterpreter(Interpreter):
    """Interpreter whose REAL/LOGICAL storage carries a member axis.

    ``seeds`` gives one base PRNG seed per ensemble member and fixes the
    batch width ``n_members``.  The member axis is invisible to model
    code; per-member values enter through the ``cam_init`` arguments
    (``pertlim``/``seed`` batches) and the per-member PRNG streams.

    ``kernels`` optionally carries a
    :class:`~repro.kgen.registry.KernelRegistry`; call sites whose
    resolved elemental function has a verified kernel execute the fused
    numpy body instead of interpreting (see
    :meth:`~repro.runtime.compiler.VecCompiler._build_kernel_call`),
    counted in ``kernel_calls``/``kernel_fallbacks``.
    """

    def __init__(
        self,
        asts,
        seeds,
        fp=None,
        collect_coverage: bool = True,
        max_statements: int = 50_000_000,
        kernels=None,
    ):
        seed_list = [int(s) for s in np.asarray(seeds).reshape(-1).tolist()]
        if not seed_list:
            raise ValueError("at least one member seed is required")
        self.n_members = len(seed_list)
        #: active-member mask (None => all members active, the fast path)
        self._mask: Optional[np.ndarray] = None
        #: per-member statement-count corrections accumulated under masks
        self._extra_statements = np.zeros(self.n_members, dtype=np.int64)
        #: member-divergent `if` conditions seen (batch collapsed to a mask)
        self.mask_divergences = 0
        #: verified-kernel registry (None => interpret everything)
        self.kernels = kernels
        #: fused kernel executions / interpreted fallbacks at kernel sites
        self.kernel_calls = 0
        self.kernel_fallbacks = 0
        from ..kgen.extract import KernelAccounting

        self._kernel_acct = KernelAccounting(self)
        #: per-AST-node memoized closures; every statement and expression
        #: runs through them (the scalar engine's generated code is never
        #: built, hence ``compile=False`` below)
        self._compiler = VecCompiler(self)
        super().__init__(
            asts,
            fp=fp,
            seed=seed_list[0],
            collect_coverage=collect_coverage,
            max_statements=max_statements,
            compile=False,
        )
        self.prng = BatchedPRNGStreams(seed_list)

    # ---------------------------------------------------------- execution
    def exec_body(self, body, frame) -> None:
        compiler = self._compiler
        cached = compiler.body_cache.get(id(body))
        fns = cached[1] if cached is not None else compiler.body(body)
        for fn in fns:
            fn(frame)

    def exec_stmt(self, stmt, frame) -> None:
        compiler = self._compiler
        cached = compiler.stmt_cache.get(id(stmt))
        fn = cached[1] if cached is not None else compiler.stmt(stmt)
        fn(frame)

    def eval(self, expr, frame):
        compiler = self._compiler
        cached = compiler.expr_cache.get(id(expr))
        fn = cached[1] if cached is not None else compiler.expr(expr)
        return fn(frame)

    # ------------------------------------------------------- declarations
    def _create_value(self, frame, decl, entity):
        if entity.dims and decl.base_type in ("real", "logical"):
            shape = tuple(self._dim_extent(d, frame) for d in entity.dims)
            dtype = _DTYPES[decl.base_type]
            array = np.zeros((self.n_members, *shape), dtype=dtype).view(
                MemberBatch
            )
            if entity.init is not None:
                array[...] = self.eval(entity.init, frame)
            return array
        return super()._create_value(frame, decl, entity)

    # ------------------------------------------------------------- stores
    def _store_slot(self, scope, rname, current, value, mask) -> None:
        """Member-aware store into a whole-variable slot, promoting scalar
        slots to ``(n,)`` batches on the first member-varying write."""
        if isinstance(current, MemberBatch):
            if mask is None:
                scope.store(rname, value)  # writes through; __setitem__ lifts
                return
            if rname in scope.readonly:
                raise IntentViolationError(
                    f"cannot assign to read-only name {rname!r} in scope "
                    f"{scope.name!r}"
                )
            tbase = np.asarray(current)
            where = _lift(mask, tbase.ndim - 1)
            v = (
                value._lifted(tbase.ndim - 1)
                if isinstance(value, MemberBatch)
                else value
            )
            np.copyto(tbase, v, where=where, casting="unsafe")
            return
        if isinstance(current, np.ndarray):
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into member-uniform array "
                    f"{rname!r}"
                )
            scope.store(rname, value)
            return
        # scalar slot
        if isinstance(current, (bool, np.bool_)):
            dtype = np.bool_
        elif isinstance(current, (int, np.integer)):
            dtype = np.int64
        elif isinstance(current, (float, np.floating)):
            dtype = np.float64
        else:
            dtype = None
        if isinstance(value, MemberBatch) or mask is not None:
            if dtype is None:
                raise VectorizationError(
                    f"member-varying store into non-numeric scalar {rname!r}"
                )
            new = np.empty(self.n_members, dtype=dtype)
            # numpy's unsafe float->int cast truncates toward zero, the
            # same coercion the scalar runtime applies per element
            new[...] = np.asarray(value) if isinstance(value, MemberBatch) else value
            if mask is not None:
                new = np.where(mask, new, current).astype(dtype, copy=False)
            scope.store(rname, new.view(MemberBatch))
            return
        # plain scalar store: the scalar runtime's coercion rules
        if dtype is np.int64:
            if isinstance(value, (float, np.floating)):
                value = int(np.trunc(value))
            else:
                value = int(value)
        elif dtype is np.float64 and not isinstance(value, np.ndarray):
            value = float(value)
        elif dtype is np.bool_:
            value = bool(value)
        scope.store(rname, value)

    def _store_into_array(
        self, array, index, value, mask, name: str = ""
    ) -> None:
        """Member-aware element/section/whole store into an array
        (``index=None`` addresses the whole array)."""
        if isinstance(array, MemberBatch):
            if mask is None:
                if index is None:
                    array[...] = value
                else:
                    array[index] = value
                return
            base = np.asarray(array)
            dest = (
                base if index is None else base[(slice(None),) + tuple(index)]
            )
            where = _lift(mask, dest.ndim - 1)
            v = (
                value._lifted(dest.ndim - 1)
                if isinstance(value, MemberBatch)
                else value
            )
            np.copyto(dest, v, where=where, casting="unsafe")
            return
        if isinstance(value, MemberBatch) or mask is not None:
            raise VectorizationError(
                f"member-varying store into member-uniform array {name!r}"
            )
        if index is None:
            array[...] = value
        else:
            array[index] = value

    def _coerce_store(self, ref: Ref, value) -> None:
        mask = self._mask
        if mask is None and not isinstance(value, MemberBatch):
            if not (
                isinstance(ref, ScopeRef)
                and isinstance(ref.scope.values.get(ref.name), MemberBatch)
            ):
                super()._coerce_store(ref, value)
                return
        if isinstance(ref, ScopeRef):
            current = ref.scope.values.get(ref.name)
            self._store_slot(ref.scope, ref.name, current, value, mask)
            return
        if isinstance(ref, ElementRef):
            if ref.guard is not None and ref.guard_name in ref.guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {ref.guard_name!r}"
                )
            self._store_into_array(
                ref.array, ref.index, value, mask, ref.guard_name
            )
            return
        if isinstance(ref, ComponentRef):
            if ref.guard is not None and ref.guard_name in ref.guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {ref.guard_name!r}"
                )
            if ref.index is not None:
                self._store_into_array(
                    ref.derived.get(ref.component),
                    ref.index,
                    value,
                    mask,
                    ref.component,
                )
                return
            current = ref.derived.get(ref.component)
            if isinstance(current, np.ndarray):
                self._store_into_array(current, None, value, mask, ref.component)
                return
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into scalar component "
                    f"{ref.component!r}"
                )
            ref.derived.set(ref.component, value)
            return
        ref.store(value)

    # ----------------------------------------------------------- elemental
    def _dispatch_elemental(self, mrt, sub, values, caller_frame):
        if any(isinstance(v, MemberBatch) for v in values):
            # elemental bodies are scalar arithmetic: ufunc broadcasting
            # over the member axis evaluates all members in one pass
            return self._call_with_values(mrt, sub, values, caller_frame)
        return super()._dispatch_elemental(mrt, sub, values, caller_frame)

    # ----------------------------------------------------------- intercepts
    def _intercept_outfld(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "history write (outfld) under diverged member control flow"
            )
        super()._intercept_outfld(frame, arg_exprs, kw_exprs, mrt, sub)

    def _intercept_random_raw(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "PRNG draw under diverged member control flow"
            )
        kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
        if kind != "share" or not isinstance(payload, np.ndarray):
            raise FortranRuntimeError(
                "shr_random_raw requires a whole-array harvest argument"
            )
        if not writable:
            raise IntentViolationError(
                "shr_random_raw harvest argument is read-only here"
            )
        if not isinstance(payload, MemberBatch):
            raise VectorizationError(
                "PRNG harvest into a member-uniform array"
            )
        n = None
        if len(arg_exprs) > 1:
            n = self.eval(arg_exprs[1], frame)
            if isinstance(n, np.ndarray):
                raise VectorizationError(
                    "member-varying PRNG draw count"
                )
            n = int(n)
        owner = frame
        while owner is not None and owner.module.node.name == mrt.node.name:
            owner = owner.caller
        owner_name = (owner or frame).module.node.name
        stream = self.prng.stream(owner_name)
        stream.fill(payload, n)

    def _intercept_setseed(self, frame, arg_exprs, kw_exprs, mrt, sub):
        if self._mask is not None:
            raise VectorizationError(
                "PRNG reseed under diverged member control flow"
            )
        seed = self.eval(arg_exprs[0], frame)
        if not isinstance(seed, np.ndarray):
            self.prng.reseed(int(seed))
            if "seed_state" in mrt.scope:
                mrt.scope.store("seed_state", int(seed))
            return
        base = np.asarray(seed)
        if not isinstance(seed, MemberBatch) or base.ndim != 1:
            raise VectorizationError(
                "setseed requires a scalar (or member-batched scalar) seed"
            )
        self.prng.reseed([int(s) for s in base.tolist()])
        if "seed_state" in mrt.scope:
            self._store_slot(
                mrt.scope,
                "seed_state",
                mrt.scope.values.get("seed_state"),
                seed,
                None,
            )

    def _call_intrinsic_subroutine(self, name, arg_exprs, kw_exprs, frame):
        if name == "random_number":
            if self._mask is not None:
                raise VectorizationError(
                    "PRNG draw under diverged member control flow"
                )
            kind, payload, writable = self._bind_actual(arg_exprs[0], frame)
            stream = self.prng.stream(frame.module.node.name)
            if kind == "share" and isinstance(payload, np.ndarray):
                if not isinstance(payload, MemberBatch):
                    raise VectorizationError(
                        "random_number into a member-uniform array"
                    )
                stream.fill(payload)
            elif kind == "ref":
                self._coerce_store(
                    payload, stream.uniform().view(MemberBatch)
                )
            else:
                raise FortranRuntimeError(
                    "random_number requires a variable argument"
                )
            return
        if name == "random_seed":
            put = kw_exprs.get("put")
            if put is not None:
                if self._mask is not None:
                    raise VectorizationError(
                        "PRNG reseed under diverged member control flow"
                    )
                value = self.eval(put, frame)
                if isinstance(value, MemberBatch):
                    base = np.asarray(value)
                    first = (
                        base
                        if base.ndim == 1
                        else base[(slice(None),) + (0,) * (base.ndim - 1)]
                    )
                    self.prng.reseed([int(v) for v in first.tolist()])
                else:
                    self.prng.reseed(int(np.asarray(value).reshape(-1)[0]))
            return
        super()._call_intrinsic_subroutine(name, arg_exprs, kw_exprs, frame)

    # ----------------------------------------------------------- accounting
    def member_statements(self, m: int) -> int:
        """Total statements member ``m`` executed (mask-corrected)."""
        return self.statements_executed + int(self._extra_statements[m])

    def member_coverage(self, m: int) -> CoverageTrace:
        """Member ``m``'s per-line execution counts (zero entries dropped,
        so lines a member never reached are absent — exactly as in that
        member's scalar run)."""
        if self.coverage is None:
            return CoverageTrace()
        counts: dict[tuple[str, int], int] = {}
        for key, count in self.coverage.counts.items():
            hits = (
                int(np.asarray(count)[m])
                if isinstance(count, np.ndarray)
                else int(count)
            )
            if hits:
                counts[key] = hits
        return CoverageTrace(counts)


# --------------------------------------------------------------------------- #
# Batched run entry point
# --------------------------------------------------------------------------- #
def _member_value(value, m: int) -> np.ndarray:
    if isinstance(value, MemberBatch):
        return value.lane(m)
    return np.asarray(value)


def run_model_batch(configs, source=None, kernels="auto"):
    """Run every member of ``configs`` in one vectorized evaluation.

    The configs must agree on the model build, ``nsteps`` and fp model —
    those shape the single fused evaluation — while ``pertlim``/``seed``
    vary per (config, member) lane and ``collect_coverage`` /
    ``max_statements`` may differ per lane too: coverage is gathered when
    any lane wants it (lanes that opted out still get an empty trace, as
    in their scalar runs) and the batch runs under the widest statement
    budget with each lane's own budget re-checked afterwards.  Returns
    one :class:`~repro.runtime.RunResult` per config, each bit-identical
    to what :func:`repro.runtime.run_model` produces for the same config.

    ``kernels`` selects kernel fusion: ``"auto"`` (default) builds or
    reuses the memoized conformant-kernel registry for this source build
    and fp model (disabled when the ``REPRO_KGEN_FUSION`` environment
    variable is ``0``), ``None`` interprets everything, and an explicit
    :class:`~repro.kgen.registry.KernelRegistry` is used as given.
    """
    import os

    from ..model.builder import build_model_source
    from ..model.registry import iter_output_fields
    from . import RunResult

    configs = list(configs)
    if not configs:
        raise ValueError("run_model_batch needs at least one RunConfig")
    head = configs[0]
    for config in configs[1:]:
        if (
            config.model != head.model
            or config.nsteps != head.nsteps
            or config.fp != head.fp
        ):
            raise ValueError(
                "run_model_batch members must share the model build, "
                "nsteps and fp model (pertlim, seed, coverage flag and "
                "statement budget may vary per lane)"
            )
    if source is None:
        source = build_model_source(head.model)
    elif source.config != head.model:
        raise ValueError(
            "the provided ModelSource was built from a different ModelConfig "
            "than config.model"
        )
    asts = source.parse()

    if kernels == "auto":
        if os.environ.get("REPRO_KGEN_FUSION", "").strip() == "0":
            kernels = None
        else:
            from ..kgen.registry import kernel_registry_for

            kernels = kernel_registry_for(source, head.fp)

    collect_coverage = any(c.collect_coverage for c in configs)
    budget = max(c.max_statements for c in configs)
    config_shapes = {(c.collect_coverage, c.max_statements) for c in configs}

    interp = VecInterpreter(
        asts,
        seeds=[int(c.seed) for c in configs],
        fp=head.fp,
        collect_coverage=collect_coverage,
        max_statements=budget,
        kernels=kernels,
    )
    pert = np.array(
        [float(c.pertlim) for c in configs], dtype=np.float64
    ).view(MemberBatch)
    seed = np.array([int(c.seed) for c in configs], dtype=np.int64).view(
        MemberBatch
    )
    interp.call("cam_comp", "cam_init", [pert, seed])
    for _ in range(head.nsteps):
        interp.call("cam_comp", "cam_run_step", [])

    declared = [f.name for f in iter_output_fields(source.compset)]
    missing = [name for name in declared if name not in interp.history.fields]
    if missing:
        raise FortranRuntimeError(
            "run completed but declared output fields were never written: "
            + ", ".join(missing)
        )
    names = list(declared)
    names += sorted(set(interp.history.fields) - set(declared))

    prng_draws = interp.prng.total_draws()
    results = []
    total_statements = 0
    for m, config in enumerate(configs):
        outputs = {
            name: _member_value(interp.history.fields[name], m)
            for name in names
        }
        first_outputs = {
            name: _member_value(interp.history.first[name], m)
            for name in names
        }
        statements = interp.member_statements(m)
        if statements > config.max_statements:
            # the batch ran under the widest lane budget; a lane whose own
            # budget was exceeded must fail exactly as its scalar run would
            raise StatementLimitExceeded(
                f"statement budget of {config.max_statements} exhausted "
                f"for batch lane {m} (executed {statements})"
            )
        total_statements += statements
        results.append(
            RunResult(
                config=config,
                outputs=outputs,
                coverage=(
                    interp.member_coverage(m)
                    if config.collect_coverage
                    else CoverageTrace()
                ),
                statements_executed=statements,
                prng_draws=prng_draws,
                first_outputs=first_outputs,
            )
        )

    from ..obs import get_metrics

    metrics = get_metrics()
    metrics.inc("vec.batches")
    metrics.inc("vec.members", len(configs))
    metrics.inc("vec.mask_collapses", interp.mask_divergences)
    metrics.inc("interpreter.statements", total_statements)
    if len(config_shapes) > 1:
        metrics.inc("vec.fused_configs", len(config_shapes) - 1)
    if interp.kernel_calls:
        metrics.inc("kgen.kernel_calls", interp.kernel_calls)
    if interp.kernel_fallbacks:
        metrics.inc("kgen.fallbacks", interp.kernel_fallbacks)
    return results
