"""Closure compilation for the vectorized (member-batched) engine.

:class:`VecCompiler` memoizes one closure per AST node for a
:class:`~repro.runtime.vec.VecInterpreter`.  The first visit of a node
builds a small closure specialised on

* the node type and operator (no dispatch or string compares afterwards),
* the floating-point configuration (plain ``+``/``-``/``*`` when neither
  flush-to-zero nor FMA can change the result),
* the resolved procedure, intrinsic or kgen kernel for calls (name
  resolution through use-association runs once per call site, not once
  per execution), and
* the non-local scope owning a variable (locals are still checked first on
  every access, so dynamic shadowing keeps its interpreted semantics).

Control flow and stores carry the interpreter's member mask (see
:mod:`repro.runtime.vec` for the rules), statement accounting counts per
member, and call sites use :data:`VEC_INTRINSICS`, the intrinsics with
member-batch-aware replacements for every one that would fold the member
axis into the model.  The scalar engine generates Python per subprogram
instead (:mod:`repro.runtime.codegen`) and never builds this compiler.

Caches are keyed by ``id(node)`` and pin the node object, so entries stay
valid for the lifetime of the interpreter.  Compilation is *behavioural*
memoization only — evaluation order, coercions, error types and messages,
statement accounting and coverage counts are identical to the reference
walker (``Interpreter(..., compile=False)``) run member by member.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    CallStmt,
    ContinueStmt,
    CycleStmt,
    DerivedRef,
    DoLoop,
    DoWhile,
    ExitStmt,
    Expr,
    IfBlock,
    LogicalLit,
    NumberLit,
    PointerAssignment,
    ReturnStmt,
    SectionRange,
    SelectCase,
    Stmt,
    StopStmt,
    StringLit,
    UnaryOp,
    VarRef,
    WhereBlock,
)
from ..fortran.intrinsics import SUBROUTINE_INTRINSICS
from .intrinsics import INTRINSIC_FUNCTIONS
from .values import (
    DerivedValue,
    FortranRuntimeError,
    IntentViolationError,
    MemberBatch,
    StatementLimitExceeded,
    StopModel,
    UndefinedNameError,
    VectorizationError,
    _Cycle,
    _Exit,
    _Return,
)

__all__ = ["VEC_INTRINSICS", "VecCompiler"]

_MISSING = object()
_INT_HUGE = 2147483647
_F64_MAX = float(np.finfo(np.float64).max)


def _lift(mask: np.ndarray, model_ndim: int) -> np.ndarray:
    """Reshape a ``(n,)`` member mask to ``(n, 1, ..., 1)`` so it broadcasts
    against a batch with ``model_ndim`` model axes."""
    if model_ndim <= 0:
        return mask
    return mask.reshape(mask.shape + (1,) * model_ndim)


def _model_axes(base: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, base.ndim))


# --------------------------------------------------------------------------- #
# Member-batch-aware intrinsics
# --------------------------------------------------------------------------- #
def _any_batch(*args) -> bool:
    return any(isinstance(a, MemberBatch) for a in args)


def _vec_sum(array, dim=None):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        if dim is not None:
            # model axis d (1-based) is base axis d: axis 0 is the member axis
            return np.sum(base, axis=int(dim)).view(MemberBatch)
        return np.sum(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["sum"](array, dim)


def _vec_maxval(array):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        return np.max(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["maxval"](array)


def _vec_minval(array):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        return np.min(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["minval"](array)


def _vec_size(array, dim=None):
    if isinstance(array, MemberBatch):
        base = np.asarray(array)
        if dim is None:
            size = 1
            for extent in base.shape[1:]:
                size *= extent
            return size
        return int(base.shape[int(dim)])
    return INTRINSIC_FUNCTIONS["size"](array, dim)


def _vec_count(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        if base.ndim == 1:
            return base.astype(np.int64).view(MemberBatch)
        out = np.count_nonzero(base, axis=_model_axes(base))
        return np.asarray(out, dtype=np.int64).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["count"](mask)


def _vec_any(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        return np.any(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["any"](mask)


def _vec_all(mask):
    if isinstance(mask, MemberBatch):
        base = np.asarray(mask)
        return np.all(base, axis=_model_axes(base)).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["all"](mask)


def _vec_merge(tsource, fsource, mask):
    if _any_batch(tsource, fsource, mask):
        # np.where is not a ufunc: lift batches by hand and re-wrap
        target = 0
        for v in (tsource, fsource, mask):
            if isinstance(v, MemberBatch):
                target = max(target, v.ndim - 1)
            elif isinstance(v, np.ndarray):
                target = max(target, v.ndim)
        t, f, m = (
            v._lifted(target) if isinstance(v, MemberBatch) else v
            for v in (tsource, fsource, mask)
        )
        return np.where(m, t, f).view(MemberBatch)
    return INTRINSIC_FUNCTIONS["merge"](tsource, fsource, mask)


def _vec_huge(x):
    if isinstance(x, MemberBatch):
        if np.issubdtype(np.asarray(x).dtype, np.integer):
            return _INT_HUGE
        return _F64_MAX
    return INTRINSIC_FUNCTIONS["huge"](x)


def _rewrap_math(name: str):
    base = INTRINSIC_FUNCTIONS[name]

    def wrapped(x):
        # np.vectorize drops the subclass; restore the member axis marker
        result = base(x)
        if isinstance(x, MemberBatch) and isinstance(result, np.ndarray):
            return result.view(MemberBatch)
        return result

    return wrapped


def _batch_unsupported(name: str):
    base = INTRINSIC_FUNCTIONS[name]

    def wrapped(*args, **kwargs):
        if _any_batch(*args, *kwargs.values()):
            raise VectorizationError(
                f"intrinsic {name!r} over a member batch is not supported "
                "by the vectorized runtime"
            )
        return base(*args, **kwargs)

    return wrapped


#: INTRINSIC_FUNCTIONS with member-batch-aware replacements for every
#: implementation that reduces, reshapes, or otherwise collapses the array
#: it is given (and so would silently fold the member axis into the model).
VEC_INTRINSICS: dict[str, object] = {
    **INTRINSIC_FUNCTIONS,
    "sum": _vec_sum,
    "maxval": _vec_maxval,
    "minval": _vec_minval,
    "size": _vec_size,
    "count": _vec_count,
    "any": _vec_any,
    "all": _vec_all,
    "merge": _vec_merge,
    "huge": _vec_huge,
    "gamma": _rewrap_math("gamma"),
    "erf": _rewrap_math("erf"),
    "erfc": _rewrap_math("erfc"),
    "spread": _batch_unsupported("spread"),
    "reshape": _batch_unsupported("reshape"),
    "matmul": _batch_unsupported("matmul"),
    "dot_product": _batch_unsupported("dot_product"),
}


# --------------------------------------------------------------------------- #
# Compiler: per-node closures with masked control flow and member-aware stores
# --------------------------------------------------------------------------- #
def _uniform(value, what: str, loc):
    """Collapse a value-uniform member batch to its one value.

    ``int()`` of a promoted batch scalar yields a batch even when every
    member agrees, so control values are refused only when the members
    really differ (or the value is a model array)."""
    if not isinstance(value, np.ndarray):
        return value
    base = np.asarray(value)
    first = base.flat[0]
    if base.ndim != 1 or not bool(np.all(base == first)):
        raise VectorizationError(f"member-varying {what} at {loc}")
    return first.item()


class VecCompiler:
    """Build and memoize per-node evaluator closures for one
    :class:`~repro.runtime.vec.VecInterpreter` (see the module docstring).

    All divergence state lives on the interpreter (``interp._mask``,
    ``interp._extra_statements``), so a closure stays shareable per AST
    node whatever mask it later runs under.
    """

    __slots__ = ("interp", "expr_cache", "stmt_cache", "body_cache")

    def __init__(self, interp):
        self.interp = interp
        #: id(node) -> (node, closure); the node reference pins the id
        self.expr_cache: dict[int, tuple[Expr, Callable]] = {}
        self.stmt_cache: dict[int, tuple[Stmt, Callable]] = {}
        self.body_cache: dict[int, tuple[list, list[Callable]]] = {}

    # ------------------------------------------------------------- entry
    def expr(self, node: Expr) -> Callable:
        cached = self.expr_cache.get(id(node))
        if cached is not None:
            return cached[1]
        fn = self._build_expr(node)
        self.expr_cache[id(node)] = (node, fn)
        return fn

    def stmt(self, node: Stmt) -> Callable:
        cached = self.stmt_cache.get(id(node))
        if cached is not None:
            return cached[1]
        fn = self._build_stmt(node)
        self.stmt_cache[id(node)] = (node, fn)
        return fn

    def body(self, body: list[Stmt]) -> list[Callable]:
        fns = [self.stmt(s) for s in body]
        self.body_cache[id(body)] = (body, fns)
        return fns

    # ------------------------------------------------------ expressions
    def _build_expr(self, node: Expr) -> Callable:
        t = type(node)
        if t is NumberLit:
            value = int(node.value) if node.is_integer else float(node.value)
            return lambda frame: value
        if t is StringLit:
            text = node.value
            return lambda frame: text
        if t is LogicalLit:
            flag = node.value
            return lambda frame: flag
        if t is VarRef:
            return self._build_varref(node)
        if t is BinOp:
            return self._build_binop(node)
        if t is Apply:
            return self._build_apply(node)
        if t is DerivedRef:
            return self._build_derivedref(node)
        if t is UnaryOp:
            return self._build_unary(node)
        # anything else keeps the dispatch interpreter's behaviour exactly
        handler = self.interp._eval_dispatch.get(t)
        if handler is None:
            name = t.__name__

            def fail(frame):
                raise FortranRuntimeError(f"cannot evaluate expression {name}")

            return fail
        return lambda frame: handler(node, frame)

    def _build_varref(self, node: VarRef) -> Callable:
        interp = self.interp
        name = node.name
        cell: list[tuple[dict, str]] = []

        def run(frame):
            value = frame.scope.values.get(name, _MISSING)
            if value is not _MISSING:
                return value
            if cell:
                v = cell[0][0].get(cell[0][1], _MISSING)
                if v is not _MISSING:
                    return v
            found = interp._lookup_nonlocal(frame, name)
            if found is None:
                raise UndefinedNameError(
                    f"undefined name {name!r} in {frame.scope.name!r} "
                    f"(module {frame.module.node.name!r})"
                )
            scope, rname = found
            if not cell:
                cell.append((scope.values, rname))
            return scope.values[rname]

        return run

    def _build_unary(self, node: UnaryOp) -> Callable:
        operand = self.expr(node.operand)
        if node.op == "-":
            return lambda frame: -operand(frame)
        if node.op == ".not.":

            def run(frame):
                value = operand(frame)
                if isinstance(value, np.ndarray):
                    return np.logical_not(value)
                return not value

            return run
        op = node.op

        def fail(frame):
            raise FortranRuntimeError(f"unsupported unary operator {op!r}")

        return fail

    def _build_binop(self, node: BinOp) -> Callable:
        op = node.op
        if op in ("+", "-"):
            return self._build_addsub(node)
        left = self.expr(node.left)
        right = self.expr(node.right)
        fpu = self.interp.fpu
        if op == "*":
            if not fpu._ftz:
                return lambda frame: left(frame) * right(frame)
            mul = fpu.mul
            return lambda frame: mul(left(frame), right(frame))
        if op == "/":
            div = fpu.div
            return lambda frame: div(left(frame), right(frame))
        if op == "**":
            power = fpu.pow
            return lambda frame: power(left(frame), right(frame))
        if op == "==":
            return lambda frame: left(frame) == right(frame)
        if op == "/=":
            return lambda frame: left(frame) != right(frame)
        if op == "<":
            return lambda frame: left(frame) < right(frame)
        if op == "<=":
            return lambda frame: left(frame) <= right(frame)
        if op == ">":
            return lambda frame: left(frame) > right(frame)
        if op == ">=":
            return lambda frame: left(frame) >= right(frame)
        if op == ".and.":

            def run_and(frame):
                l = left(frame)
                r = right(frame)
                if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                    return np.logical_and(l, r)
                return bool(l) and bool(r)

            return run_and
        if op == ".or.":

            def run_or(frame):
                l = left(frame)
                r = right(frame)
                if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                    return np.logical_or(l, r)
                return bool(l) or bool(r)

            return run_or
        if op == "//":
            return lambda frame: str(left(frame)) + str(right(frame))

        def fail(frame):
            raise FortranRuntimeError(f"unsupported binary operator {op!r}")

        return fail

    def _build_addsub(self, node: BinOp) -> Callable:
        """``+``/``-`` with the FMA-contraction pattern resolved at compile
        time; evaluation order matches the dispatch interpreter exactly."""
        interp = self.interp
        fpu = interp.fpu
        fp = interp.fp
        op = node.op
        left = self.expr(node.left)
        right = self.expr(node.right)
        left_mul = isinstance(node.left, BinOp) and node.left.op == "*"
        right_mul = isinstance(node.right, BinOp) and node.right.op == "*"
        if not fp.fma or not (left_mul or right_mul):
            if not fpu._ftz and not fp.fma:
                if op == "+":
                    return lambda frame: left(frame) + right(frame)
                return lambda frame: left(frame) - right(frame)
            fused_add = fpu.add if op == "+" else fpu.sub
            return lambda frame: fused_add(left(frame), right(frame))

        add, sub, mul, fma = fpu.add, fpu.sub, fpu.mul, fpu.fma
        enabled_in = fp.fma_enabled_in
        all_int = interp._all_int
        if left_mul:
            a_fn = self.expr(node.left.left)
            b_fn = self.expr(node.left.right)

            def run(frame):
                if not enabled_in(frame.module.node.name):
                    l = left(frame)
                    r = right(frame)
                    return add(l, r) if op == "+" else sub(l, r)
                a = a_fn(frame)
                b = b_fn(frame)
                c = right(frame)
                if all_int(a, b, c):
                    product = mul(a, b)
                    return add(product, c) if op == "+" else sub(product, c)
                return fma(a, b, c if op == "+" else -c)

            return run

        a_fn = self.expr(node.right.left)
        b_fn = self.expr(node.right.right)

        def run(frame):
            if not enabled_in(frame.module.node.name):
                l = left(frame)
                r = right(frame)
                return add(l, r) if op == "+" else sub(l, r)
            # left-to-right operand evaluation, as in the unfused path
            c = left(frame)
            a = a_fn(frame)
            b = b_fn(frame)
            if all_int(a, b, c):
                product = mul(a, b)
                return add(c, product) if op == "+" else sub(c, product)
            if op == "+":
                return fma(a, b, c)
            return fma(-a, b, c)  # c - a*b

        return run

    # ------------------------------------------------------- subscripts
    def _build_index(self, args: list[Expr]) -> Callable:
        """Compile a subscript list straight to a numpy index tuple
        (:func:`repro.runtime.values.fortran_slices` semantics)."""
        if all(not isinstance(a, SectionRange) for a in args):
            fns = [self.expr(a) for a in args]
            if len(fns) == 1:
                f0 = fns[0]
                return lambda frame: (int(f0(frame)) - 1,)
            if len(fns) == 2:
                f0, f1 = fns
                return lambda frame: (int(f0(frame)) - 1, int(f1(frame)) - 1)
            return lambda frame: tuple(int(fn(frame)) - 1 for fn in fns)

        def make_part(arg):
            if not isinstance(arg, SectionRange):
                fn = self.expr(arg)
                return lambda frame: int(fn(frame)) - 1
            lower = None if arg.lower is None else self.expr(arg.lower)
            upper = None if arg.upper is None else self.expr(arg.upper)
            stride = None if arg.stride is None else self.expr(arg.stride)

            def part(frame):
                start = None if lower is None else int(lower(frame)) - 1
                step = None if stride is None else int(stride(frame))
                if step is not None and step < 0:
                    if upper is None:
                        stop = None
                    else:
                        stop = int(upper(frame)) - 2
                        if stop < 0:
                            stop = None
                else:
                    stop = None if upper is None else int(upper(frame))
                return slice(start, stop, step)

            return part

        parts = [make_part(a) for a in args]
        return lambda frame: tuple(p(frame) for p in parts)

    # ------------------------------------------------------------ apply
    def _build_apply(self, node: Apply) -> Callable:
        """Self-specialising call/indexing node: the first execution resolves
        the name's class (array, procedure, ``present``, intrinsic) — stable
        per scoping unit in Fortran — and installs the specialised closure."""
        impl: Optional[Callable] = None

        def bootstrap(frame):
            nonlocal impl
            if impl is None:
                impl = self._specialize_apply(node, frame)
            return impl(frame)

        return bootstrap

    def _specialize_apply(self, node: Apply, frame) -> Callable:
        interp = self.interp
        name = node.name
        if interp._lookup_var(frame, name) is not None:
            return self._build_array_index(node)
        resolved = interp._lookup_proc(frame.module, name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            if sub.is_function:
                fused = self._build_kernel_call(node, target_mrt, sub)
                if fused is not None:
                    return fused
                args = node.args
                keywords = node.keywords
                call = interp._call_subprogram
                return lambda f: call(target_mrt, sub, args, keywords, f, True)
            # subroutine referenced as a function: legacy error path
            return lambda f: interp._eval_apply(node, f)
        lowered = name.lower()
        if lowered == "present":
            if len(node.args) != 1 or not isinstance(node.args[0], VarRef):
                return lambda f: interp._eval_apply(node, f)
            arg_name = node.args[0].name
            return lambda f: arg_name not in f.optional_missing
        fn = VEC_INTRINSICS.get(lowered)
        if fn is not None:
            arg_fns = [self.expr(a) for a in node.args]
            if node.keywords:
                kw_fns = {k: self.expr(v) for k, v in node.keywords.items()}

                def run(f):
                    return fn(
                        *[a(f) for a in arg_fns],
                        **{k: v(f) for k, v in kw_fns.items()},
                    )

                return run
            if len(arg_fns) == 1:
                a0 = arg_fns[0]
                return lambda f: fn(a0(f))
            if len(arg_fns) == 2:
                a0, a1 = arg_fns
                return lambda f: fn(a0(f), a1(f))
            return lambda f: fn(*[a(f) for a in arg_fns])
        # unknown name: legacy path raises with the right message
        return lambda f: interp._eval_apply(node, f)

    def _build_kernel_call(self, node: Apply, target_mrt, sub):
        """Swap a conformant kgen kernel in for an elemental function call
        (``None`` when the call site does not qualify).

        The swap happens at call-site specialization time and only when
        every gate holds: the interpreter carries a
        :class:`~repro.kgen.registry.KernelRegistry`, the name resolves to
        an ``elemental`` function (not an array or subroutine), the call is
        fully positional, and the registry holds a verified kernel for the
        resolved ``(module, function)``.  Even then each *execution*
        re-checks runtime shapes: the kernel runs only for batch-scalar
        ``(n,)``/scalar arguments, and anything else — plain model arrays,
        model-shaped batches — takes the interpreted elemental path and
        counts a ``kgen.fallbacks``.  Accounting is replayed through the
        kernel's ``_acct`` hook, so statement counts and coverage stay
        bit-identical to interpretation.
        """
        interp = self.interp
        registry = interp.kernels
        if (
            registry is None
            or node.keywords
            or "elemental" not in sub.prefixes
            or len(node.args) != len(sub.args)
        ):
            return None
        kernel = registry.lookup(target_mrt.node.name, sub.name)
        if kernel is None:
            return None
        arg_fns = [self.expr(a) for a in node.args]
        fn = kernel.fn
        dispatch = interp._dispatch_elemental

        def run(f):
            values = [a(f) for a in arg_fns]
            fusable = False
            for v in values:
                if isinstance(v, MemberBatch):
                    if np.asarray(v).ndim != 1:
                        fusable = False
                        break
                    fusable = True
                elif isinstance(v, np.ndarray):
                    fusable = False
                    break
            if not fusable:
                # scalar or model-array call: interpret, exactly like the
                # elemental guard in _call_subprogram (args already
                # evaluated once, so side effects and accounting match)
                interp.kernel_fallbacks += 1
                return dispatch(target_mrt, sub, values, f)
            interp.kernel_calls += 1
            out = fn(*values, _acct=interp._kernel_acct)
            return np.asarray(out).view(MemberBatch)

        return run

    def _build_array_index(self, node: Apply) -> Callable:
        interp = self.interp
        name = node.name
        index_fn = self._build_index(node.args)
        cell: list[tuple[dict, str]] = []

        def run(frame):
            container = frame.scope.values.get(name, _MISSING)
            if container is _MISSING:
                if cell:
                    container = cell[0][0].get(cell[0][1], _MISSING)
                if container is _MISSING:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is None:
                        # vanished binding (e.g. absent optional): legacy path
                        return interp._eval_apply(node, frame)
                    scope, rname = found
                    if not cell:
                        cell.append((scope.values, rname))
                    container = scope.values[rname]
            if isinstance(container, np.ndarray):
                value = container[index_fn(frame)]
                if isinstance(value, np.ndarray):
                    return value
                return value.item() if hasattr(value, "item") else value
            return interp._eval_apply(node, frame)

        return run

    def _build_derivedref(self, node: DerivedRef) -> Callable:
        base_fn = self.expr(node.base)
        component = node.component
        index_fn = self._build_index(node.args) if node.args else None

        def run(frame):
            base = base_fn(frame)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(
                    f"component reference {component!r} into non-derived value"
                )
            value = base.get(component)
            if index_fn is not None:
                value = value[index_fn(frame)]
                if not isinstance(value, np.ndarray):
                    return value.item() if hasattr(value, "item") else value
            return value

        return run

    # ------------------------------------------------------- statements
    def _account_fn(self, node: Stmt) -> Callable[[], None]:
        """One statement execution: budget check, then coverage count.

        Under a member mask the shared counter still advances once, the
        per-member ``_extra_statements`` corrections take the members the
        mask leaves out, and the coverage count grows by the mask.
        """
        interp = self.interp
        loc = node.location
        key = (loc.filename, loc.line) if loc.line > 0 else None
        cov = interp._cov_counts
        limit = interp.max_statements

        if cov is None or key is None:

            def account():
                n = interp.statements_executed + 1
                interp.statements_executed = n
                if n > limit:
                    raise StatementLimitExceeded(
                        f"statement budget of {limit} exhausted "
                        f"(possible runaway loop at {loc})"
                    )
                mask = interp._mask
                if mask is not None:
                    interp._extra_statements += mask.astype(np.int64) - 1

            return account

        def account():
            n = interp.statements_executed + 1
            interp.statements_executed = n
            if n > limit:
                raise StatementLimitExceeded(
                    f"statement budget of {limit} exhausted "
                    f"(possible runaway loop at {loc})"
                )
            mask = interp._mask
            if mask is None:
                cov[key] = cov.get(key, 0) + 1
                return
            mi = mask.astype(np.int64)
            interp._extra_statements += mi - 1
            cov[key] = cov.get(key, 0) + mi

        return account

    def _build_stmt(self, node: Stmt) -> Callable:
        t = type(node)
        if t is Assignment or t is PointerAssignment:
            return self._build_assignment(node)
        if t is CallStmt:
            return self._build_call(node)
        if t is IfBlock:
            return self._build_if(node)
        if t is DoLoop:
            return self._build_do(node)
        if t is DoWhile:
            return self._build_do_while(node)
        if t is SelectCase:
            return self._build_select(node)
        if t is WhereBlock:
            return self._build_where(node)
        account = self._account_fn(node)
        if t in (ReturnStmt, ExitStmt, CycleStmt, StopStmt):
            return self._build_flow_stmt(node, account)
        if t is ContinueStmt:
            return lambda frame: account()
        # anything else keeps the dispatch interpreter's behaviour exactly
        handler = self.interp._exec_dispatch.get(t)
        if handler is None:
            name = t.__name__
            loc = node.location

            def fail(frame):
                account()
                raise FortranRuntimeError(
                    f"cannot execute statement {name} at {loc}"
                )

            return fail

        def run(frame):
            account()
            handler(node, frame)

        return run

    def _build_flow_stmt(self, node: Stmt, account: Callable) -> Callable:
        """``return`` / ``exit`` / ``cycle`` / ``stop``, refused under a
        diverged member mask (the members would leave at different points)."""
        interp = self.interp
        t = type(node)
        if t is StopStmt:
            signal = partial(StopModel, node.message)
        else:
            signal = {ReturnStmt: _Return, ExitStmt: _Exit, CycleStmt: _Cycle}[t]
        kind = t.__name__.replace("Stmt", "").lower()
        loc = node.location

        def run(frame):
            if interp._mask is not None:
                raise VectorizationError(
                    f"'{kind}' under diverged member control flow at {loc}"
                )
            account()
            raise signal()

        return run

    # ------------------------------------------------------- assignment
    def _build_assignment(self, node) -> Callable:
        account = self._account_fn(node)
        value_fn = self.expr(node.value)
        store_fn = self._build_store(node.target)

        def run(frame):
            account()
            store_fn(frame, value_fn(frame))

        return run

    def _build_store(self, target: Expr) -> Callable:
        """Compile an assignment target to a ``store(frame, value)`` closure
        with the dispatch interpreter's resolution, guard and coercion
        semantics, blended against the member mask."""
        t = type(target)
        if t is VarRef:
            return self._build_store_var(target.name)
        if t is Apply:
            return self._build_store_element(target)
        if t is DerivedRef:
            return self._build_store_component(target)
        interp = self.interp

        def fallback(frame, value):
            ref = interp._resolve_target(target, frame)
            interp._coerce_store(ref, value)

        return fallback

    def _build_store_var(self, name: str) -> Callable:
        interp = self.interp
        cell: list[tuple] = []

        def store(frame, value):
            scope = frame.scope
            rname = name
            if name not in scope.values:
                if cell:
                    scope, rname = cell[0]
                else:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is None:
                        # implicit definition (e.g. an undeclared do index)
                        scope.define(name, 0)
                    else:
                        scope, rname = found
                        cell.append(found)
            current = scope.values.get(rname)
            mask = interp._mask
            if (
                mask is not None
                or isinstance(value, MemberBatch)
                or isinstance(current, MemberBatch)
            ):
                interp._store_slot(scope, rname, current, value, mask)
                return
            # member-uniform store: the scalar runtime's coercion rules
            if isinstance(current, (int, np.integer)) and not isinstance(
                current, (bool, np.bool_)
            ):
                if isinstance(value, (float, np.floating)):
                    value = int(np.trunc(value))
                else:
                    value = int(value)
            elif isinstance(current, float) and not isinstance(
                value, np.ndarray
            ):
                value = float(value)
            elif isinstance(current, (bool, np.bool_)):
                value = bool(value)
            scope.store(rname, value)

        return store

    def _build_store_element(self, target: Apply) -> Callable:
        interp = self.interp
        name = target.name
        index_fn = self._build_index(target.args)
        cell: list[tuple] = []

        def store(frame, value):
            scope = frame.scope
            rname = name
            container = scope.values.get(name, _MISSING)
            if container is _MISSING:
                if cell:
                    scope, rname = cell[0]
                    container = scope.values.get(rname, _MISSING)
                if container is _MISSING:
                    found = interp._lookup_nonlocal(frame, name)
                    if found is None:
                        raise UndefinedNameError(
                            f"assignment to unknown array {name!r}"
                        )
                    scope, rname = found
                    if not cell:
                        cell.append(found)
                    container = scope.values[rname]
            if not isinstance(container, np.ndarray):
                raise FortranRuntimeError(
                    f"subscripted assignment to non-array {rname!r}"
                )
            index = index_fn(frame)
            if rname in scope.readonly:
                raise IntentViolationError(
                    f"cannot assign through read-only name {rname!r}"
                )
            interp._store_into_array(
                container, index, value, interp._mask, rname
            )

        return store

    def _build_store_component(self, target: DerivedRef) -> Callable:
        interp = self.interp
        root = target
        while isinstance(root, DerivedRef):
            root = root.base
        root_name = root.name if isinstance(root, (VarRef, Apply)) else ""
        base_fn = self.expr(target.base)
        component = target.component
        index_fn = self._build_index(target.args) if target.args else None

        def store(frame, value):
            guard = None
            if root_name:
                found = interp._lookup_var(frame, root_name)
                if found is not None:
                    guard = found[0].readonly
            base = base_fn(frame)
            if not isinstance(base, DerivedValue):
                raise FortranRuntimeError(
                    f"component reference into non-derived value "
                    f"{component!r}"
                )
            mask = interp._mask
            if index_fn is not None:
                array = base.get(component)
                if not isinstance(array, np.ndarray):
                    raise FortranRuntimeError(
                        f"subscripted non-array component {component!r}"
                    )
                index = index_fn(frame)
                if guard is not None and root_name in guard:
                    raise IntentViolationError(
                        f"cannot assign through read-only name {root_name!r}"
                    )
                interp._store_into_array(array, index, value, mask, component)
                return
            if guard is not None and root_name in guard:
                raise IntentViolationError(
                    f"cannot assign through read-only name {root_name!r}"
                )
            current = base.get(component)
            if isinstance(current, np.ndarray):
                interp._store_into_array(current, None, value, mask, component)
                return
            if isinstance(value, MemberBatch) or mask is not None:
                raise VectorizationError(
                    f"member-varying store into scalar component "
                    f"{component!r}"
                )
            base.set(component, value)

        return store

    # ------------------------------------------------------------ calls
    def _build_call(self, node: CallStmt) -> Callable:
        """Self-specialising call statement: procedure resolution (and the
        intercept check) runs once per call site."""
        account = self._account_fn(node)
        impl: Optional[Callable] = None

        def run(frame):
            nonlocal impl
            account()
            if impl is None:
                impl = self._specialize_call(node, frame)
            impl(frame)

        return run

    def _specialize_call(self, node: CallStmt, frame) -> Callable:
        interp = self.interp
        resolved = interp._lookup_proc(frame.module, node.name, frozenset())
        if resolved is not None:
            target_mrt, sub = resolved
            args = node.args
            keywords = node.keywords
            intercept = interp._intercepts.get((target_mrt.node.name, sub.name))
            if intercept is not None:
                return lambda f: intercept(f, args, keywords, target_mrt, sub)
            call = interp._call_subprogram
            return lambda f: call(target_mrt, sub, args, keywords, f, False)
        lowered = node.name.lower()
        if lowered in SUBROUTINE_INTRINSICS:
            args = node.args
            keywords = node.keywords
            intrinsic = interp._call_intrinsic_subroutine
            return lambda f: intrinsic(lowered, args, keywords, f)
        # unknown subroutine: legacy path raises with the right message
        return lambda f: interp._exec_call(node, f)

    # ----------------------------------------------------- control flow
    def _build_if(self, node: IfBlock) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        branches = [
            (None if cond is None else self.expr(cond), self.body(body))
            for cond, body in node.branches
        ]
        loc = node.location

        def run(frame):
            account()
            base = interp._mask
            remaining: Optional[np.ndarray] = None  # None => all active
            try:
                for cond_fn, body_fns in branches:
                    cond = True if cond_fn is None else cond_fn(frame)
                    if isinstance(cond, np.ndarray):
                        # member-divergent condition: the batch collapses to
                        # masked execution here; counted for `vec.mask_collapses`
                        interp.mask_divergences += 1
                        cond = np.asarray(cond, dtype=bool)
                        if (
                            cond.ndim != 1
                            or cond.shape[0] != interp.n_members
                        ):
                            raise VectorizationError(
                                f"if-condition at {loc} is a model array; "
                                "only member-batched scalars may diverge"
                            )
                        eligible = remaining if remaining is not None else base
                        if eligible is None:
                            branch = cond
                            remaining = ~cond
                        else:
                            branch = cond & eligible
                            remaining = ~cond & eligible
                        if branch.any():
                            interp._mask = (
                                None
                                if eligible is None and branch.all()
                                else branch
                            )
                            try:
                                for fn in body_fns:
                                    fn(frame)
                            finally:
                                interp._mask = base
                        if not remaining.any():
                            return
                    else:
                        if not cond:
                            continue
                        interp._mask = (
                            remaining if remaining is not None else base
                        )
                        try:
                            for fn in body_fns:
                                fn(frame)
                        finally:
                            interp._mask = base
                        return
            finally:
                interp._mask = base

        return run

    def _build_do(self, node: DoLoop) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        start_fn = self.expr(node.start)
        stop_fn = self.expr(node.stop)
        step_fn = None if node.step is None else self.expr(node.step)
        body_fns = self.body(node.body)
        var = node.var
        loc = node.location
        what = "do-loop bounds"

        def run(frame):
            account()
            start = _uniform(start_fn(frame), what, loc)
            stop = _uniform(stop_fn(frame), what, loc)
            step = 1 if step_fn is None else _uniform(
                step_fn(frame), what, loc
            )
            if step == 0:
                raise FortranRuntimeError(f"zero do-loop step at {loc}")
            found = interp._lookup_var(frame, var)
            scope = found[0] if found is not None else frame.scope
            var_name = found[1] if found is not None else var
            count = int(np.trunc((stop - start + step) / step))
            if count < 0:
                count = 0
            value = start
            completed = True
            store = scope.store
            for _ in range(count):
                store(var_name, value)
                try:
                    for fn in body_fns:
                        fn(frame)
                except _Cycle:
                    pass
                except _Exit:
                    completed = False
                    break
                value = value + step
            if completed:
                # Fortran leaves the control variable one step past the last
                store(var_name, start + count * step)

        return run

    def _build_do_while(self, node: DoWhile) -> Callable:
        account = self._account_fn(node)
        cond_fn = self.expr(node.condition)
        body_fns = self.body(node.body)
        loc = node.location

        def run(frame):
            account()
            while _uniform(cond_fn(frame), "do-while condition", loc):
                try:
                    for fn in body_fns:
                        fn(frame)
                except _Cycle:
                    continue
                except _Exit:
                    break
                account()  # charge each condition re-evaluation

        return run

    def _build_select(self, node: SelectCase) -> Callable:
        account = self._account_fn(node)
        selector_fn = self.expr(node.selector)
        loc = node.location
        what = "select-case selector"
        compiled_cases: list[tuple[Optional[list], list[Callable]]] = []
        for items, body in node.cases:
            if items is None:
                compiled_cases.append((None, self.body(body)))
                continue
            matchers = [self._build_case_item(item) for item in items]
            compiled_cases.append((matchers, self.body(body)))

        def run(frame):
            account()
            selector = _uniform(selector_fn(frame), what, loc)
            default_fns = None
            for matchers, body_fns in compiled_cases:
                if matchers is None:
                    default_fns = body_fns
                    continue
                for matches in matchers:
                    if matches(selector, frame):
                        for fn in body_fns:
                            fn(frame)
                        return
            if default_fns is not None:
                for fn in default_fns:
                    fn(frame)

        return run

    def _build_case_item(self, item) -> Callable:
        if not item.is_range:
            value_fn = self.expr(item.value)
            return lambda selector, frame: bool(selector == value_fn(frame))
        lower_fn = None if item.lower is None else self.expr(item.lower)
        upper_fn = None if item.upper is None else self.expr(item.upper)

        def matches(selector, frame):
            if lower_fn is not None and selector < lower_fn(frame):
                return False
            if upper_fn is not None and selector > upper_fn(frame):
                return False
            return True

        return matches

    def _build_where(self, node: WhereBlock) -> Callable:
        interp = self.interp
        account = self._account_fn(node)
        mask_fn = self.expr(node.mask)

        def compile_masked(body):
            items = []
            for stmt in body:
                if not isinstance(stmt, Assignment):
                    raise FortranRuntimeError(
                        "only assignments are supported inside where blocks "
                        f"(at {stmt.location})"
                    )
                items.append(
                    (self._account_fn(stmt), self.expr(stmt.value), stmt)
                )
            return items

        body_items = compile_masked(node.body)
        else_items = compile_masked(node.else_body) if node.else_body else None

        def exec_masked(items, mask_val, frame):
            member = interp._mask
            for stmt_account, value_fn, stmt in items:
                stmt_account()
                value = value_fn(frame)
                ref = interp._resolve_target(stmt.target, frame)
                target = ref.load()
                if not isinstance(target, np.ndarray):
                    raise FortranRuntimeError(
                        f"where-assignment target is not an array at "
                        f"{stmt.location}"
                    )
                if interp._ref_readonly(ref):
                    raise IntentViolationError(
                        f"cannot assign through read-only target at "
                        f"{stmt.location}"
                    )
                if isinstance(target, MemberBatch):
                    tbase = np.asarray(target)
                    tmodel = tbase.ndim - 1
                    if isinstance(mask_val, MemberBatch):
                        where = np.asarray(mask_val._lifted(tmodel), bool)
                    else:
                        where = np.asarray(mask_val, dtype=bool)
                    if member is not None:
                        where = where & _lift(member, tmodel)
                    v = (
                        value._lifted(tmodel)
                        if isinstance(value, MemberBatch)
                        else value
                    )
                    np.copyto(tbase, v, where=where, casting="unsafe")
                    continue
                if (
                    isinstance(mask_val, MemberBatch)
                    or isinstance(value, MemberBatch)
                    or member is not None
                ):
                    raise VectorizationError(
                        "member-varying where-assignment into member-"
                        f"uniform storage at {stmt.location}"
                    )
                np.copyto(
                    target,
                    value,
                    where=np.asarray(mask_val, dtype=bool),
                    casting="unsafe",
                )

        def run(frame):
            account()
            mask_val = mask_fn(frame)
            exec_masked(body_items, mask_val, frame)
            if else_items:
                inverted = (
                    np.logical_not(mask_val)
                    if isinstance(mask_val, np.ndarray)
                    else not mask_val
                )
                exec_masked(else_items, inverted, frame)

        return run
