"""Generated Python per subprogram: the scalar engine.

``Interpreter(compile=True)`` — the default for every scalar run — does not
walk the AST.  The first time an interpreter enters a subprogram of a
build, :func:`generated_build` turns every subprogram of that build into
one Python function and compiles it; interpreters then *bind* those
functions to their own state and call them.  The generator

* inlines expression trees as Python expressions; under the default
  :class:`~repro.runtime.fpu.FPConfig` ``+``/``-``/``*`` are the plain
  Python operators, and flush-to-zero or FMA contraction (resolved per
  module with ``fma_enabled_in`` at generation time) become direct
  :class:`~repro.runtime.fpu.FPU` calls;
* reads names the subprogram declares or binds from the frame's scope
  dict, and resolves non-local names and call sites once per interpreter,
  at first execution, through the interpreter's own lookups (so module
  initialisation happens exactly when the reference evaluator does it);
* bumps the statement count, the ``max_statements`` check and the
  coverage count inline for every statement;
* hands every construct it does not lower (``where``, unparsed statements,
  names a subprogram-level ``use`` may bind) to the interpreter's dispatch
  handlers, which are the reference semantics.

Generated code is memoized per parsed build (the ASTs
:meth:`repro.model.builder.ModelSource.parse` caches for one content
digest) and ``FPConfig``, so the experimental runs and the coverage run of
one suspect build generate once and bind per interpreter.  Every fast path
is guarded by a type check whose failure falls back to the exact reference
operation; ``Interpreter(compile=False)`` stays the oracle and
``tests/runtime/test_compiler_conformance.py`` checks the two bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import math
import threading
import weakref
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..fortran.ast_nodes import (
    Apply,
    Assignment,
    BinOp,
    CallStmt,
    ContinueStmt,
    CycleStmt,
    Declaration,
    DerivedRef,
    DoLoop,
    DoWhile,
    ExitStmt,
    IfBlock,
    LogicalLit,
    ModuleNode,
    NumberLit,
    PointerAssignment,
    ReturnStmt,
    SectionRange,
    SelectCase,
    StopStmt,
    StringLit,
    Subprogram,
    UnaryOp,
    UseStmt,
    VarRef,
)
from ..fortran.intrinsics import SUBROUTINE_INTRINSICS
from .intrinsics import INTRINSIC_FUNCTIONS
from .values import (
    DerivedValue,
    FortranRuntimeError,
    IntentViolationError,
    StatementLimitExceeded,
    StopModel,
    UndefinedNameError,
    _Cycle,
    _Exit,
    fortran_slices,
)

__all__ = ["GeneratedBuild", "GeneratedEngine", "generated_build"]


# --------------------------------------------------------------------------- #
# Runtime support: the globals of generated code
# --------------------------------------------------------------------------- #
def _truthy(value) -> bool:
    if isinstance(value, np.ndarray):
        raise FortranRuntimeError(
            "scalar logical required (array condition in if/do while)"
        )
    return bool(value)


def _index(container, index):
    """Subscripted read with the reference result types."""
    value = container[index]
    if isinstance(value, np.ndarray):
        return value
    return value.item() if hasattr(value, "item") else value


def _slice(lower, upper, stride) -> slice:
    """One section subscript (bounds inclusive, 1-based)."""
    start = None if lower is None else int(lower) - 1
    step = None if stride is None else int(stride)
    if step is not None and step < 0:
        if upper is None:
            stop = None
        else:
            stop = int(upper) - 2
            if stop < 0:
                stop = None
    else:
        stop = None if upper is None else int(upper)
    return slice(start, stop, step)


def _trip(start, stop, step) -> int:
    count = int(np.trunc((stop - start + step) / step))
    return count if count > 0 else 0


def _steps(start, step, count):
    """Do-loop control values by repeated addition (non-integer loops)."""
    value = start
    for _ in range(count):
        yield value
        value = value + step


def _over(limit, loc):
    raise StatementLimitExceeded(
        f"statement budget of {limit} exhausted (possible runaway loop at {loc})"
    )


def _bump(cov, keys) -> None:
    for key in keys:
        cov[key] = cov.get(key, 0) + 1


def _uncover(cov, stmts) -> None:
    """Take back the coverage counts of statements a run never reached."""
    for stmt in reversed(stmts):
        loc = stmt.location
        if loc.line > 0:
            key = (loc.filename, loc.line)
            count = cov[key] - 1
            if count:
                cov[key] = count
            else:
                del cov[key]


def _zero_step(loc):
    raise FortranRuntimeError(f"zero do-loop step at {loc}")


def _store(scope, name, value) -> None:
    """Whole-variable assignment: the reference coercions, then store."""
    current = scope.values.get(name)
    if isinstance(current, (int, np.integer)) and not isinstance(
        current, (bool, np.bool_)
    ):
        if isinstance(value, (float, np.floating)):
            value = int(np.trunc(value))
        else:
            value = int(value)
    elif isinstance(current, float) and not isinstance(value, np.ndarray):
        value = float(value)
    elif isinstance(current, (bool, np.bool_)):
        value = bool(value)
    scope.store(name, value)


def _component(base, component):
    if isinstance(base, DerivedValue):
        return base.get(component)
    raise FortranRuntimeError(
        f"component reference {component!r} into non-derived value"
    )


def _not_derived_store(component):
    raise FortranRuntimeError(
        f"component reference into non-derived value {component!r}"
    )


def _not_array_component(component):
    raise FortranRuntimeError(f"subscripted non-array component {component!r}")


def _not_array(name):
    raise FortranRuntimeError(f"subscripted assignment to non-array {name!r}")


def _read_only(name):
    raise IntentViolationError(f"cannot assign through read-only name {name!r}")


def _logical_not(value):
    if isinstance(value, np.ndarray):
        return np.logical_not(value)
    return not value


def _logical_and(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.logical_and(left, right)
    return bool(left) and bool(right)


def _logical_or(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.logical_or(left, right)
    return bool(left) or bool(right)


def _unsupported(kind, op):
    raise FortranRuntimeError(f"unsupported {kind} operator {op!r}")


def _unresolved(frame, name, store):
    """A name no module scope holds: an implicit local, or an error."""
    scope = frame.scope
    if name in scope.values:
        return scope
    if store:
        scope.define(name, 0)  # implicit definition (e.g. an undeclared do index)
        return scope
    raise UndefinedNameError(
        f"undefined name {name!r} in {scope.name!r} "
        f"(module {frame.module.node.name!r})"
    )


def _arith(fpu):
    """``/`` and ``**`` with a direct path for real operands."""
    div, power = fpu.div, fpu.pow
    if fpu._ftz:
        return div, power
    np_power, f64 = np.power, np.float64

    def fast_div(a, b):
        if a.__class__ is float or b.__class__ is float:
            return a / b
        return div(a, b)

    def fast_pow(a, b):
        if a.__class__ is float:
            if b.__class__ is float:
                return np_power(a, b)
            if b.__class__ is int:
                return np_power(f64(a), b)
        return power(a, b)

    return fast_div, fast_pow


def _fma_ops(fpu):
    """Contracted ``a*b ± c`` / ``c ± a*b`` (operands already evaluated in
    source order, as the reference evaluator does)."""
    add, sub, mul, fma = fpu.add, fpu.sub, fpu.mul, fpu.fma

    def all_int(a, b, c):
        return all(
            isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
            for v in (a, b, c)
        )

    def left_add(a, b, c):
        if all_int(a, b, c):
            return add(mul(a, b), c)
        return fma(a, b, c)

    def left_sub(a, b, c):
        if all_int(a, b, c):
            return sub(mul(a, b), c)
        return fma(a, b, -c)

    def right_add(c, a, b):
        if all_int(a, b, c):
            return add(c, mul(a, b))
        return fma(a, b, c)

    def right_sub(c, a, b):
        if all_int(a, b, c):
            return sub(c, mul(a, b))
        return fma(-a, b, c)

    return left_add, left_sub, right_add, right_sub


_RUNTIME = {
    "ND": np.ndarray,
    "DV": DerivedValue,
    "TRUTHY": _truthy,
    "SLICE": _slice,
    "TRIP": _trip,
    "STEPS": _steps,
    "STORE": _store,
    "COMPONENT": _component,
    "NOT_DERIVED_STORE": _not_derived_store,
    "NOT_ARRAY_COMPONENT": _not_array_component,
    "NOT_ARRAY": _not_array,
    "READ_ONLY": _read_only,
    "ZERO_STEP": _zero_step,
    "BUMP": _bump,
    "_uncover": _uncover,
    "LNOT": _logical_not,
    "LAND": _logical_and,
    "LOR": _logical_or,
    "UNSUPPORTED": _unsupported,
    "StopModel": StopModel,
    "_Cycle": _Cycle,
    "_Exit": _Exit,
    "_over": _over,
    "_arith": _arith,
    "_fma_ops": _fma_ops,
    "_unresolved": _unresolved,
}


# --------------------------------------------------------------------------- #
# Intrinsics: direct paths for Python-float arguments
# --------------------------------------------------------------------------- #
def _fast_max(*args, _generic=INTRINSIC_FUNCTIONS["max"]):
    """``max`` of Python floats: numpy's ``maximum`` folded left (a NaN
    wins, a tie takes the later argument); anything else is generic."""
    for a in args:
        if a.__class__ is not float:
            return _generic(*args)
    out = args[0]
    for a in args[1:]:
        if out == out and not out > a:
            out = a
    return out


def _fast_min(*args, _generic=INTRINSIC_FUNCTIONS["min"]):
    """``min`` counterpart of :func:`_fast_max`."""
    for a in args:
        if a.__class__ is not float:
            return _generic(*args)
    out = args[0]
    for a in args[1:]:
        if out == out and not out < a:
            out = a
    return out


def _unary(ufunc, generic):
    def fn(x):
        if x.__class__ is float:
            return float(ufunc(x))
        return generic(x)

    return fn


def _fast_abs(x, _generic=INTRINSIC_FUNCTIONS["abs"]):
    if x.__class__ is float:
        return abs(x)
    return _generic(x)


_UNARY_UFUNCS = {
    "acos": np.arccos, "asin": np.arcsin, "atan": np.arctan, "cos": np.cos,
    "cosh": np.cosh, "exp": np.exp, "log": np.log, "log10": np.log10,
    "sin": np.sin, "sinh": np.sinh, "sqrt": np.sqrt, "tan": np.tan,
    "tanh": np.tanh,
}

_INTRINSICS: Optional[dict] = None


def _minmax_matches_numpy(fmax, fmin) -> bool:
    """The folded ``max``/``min`` agree with numpy on signed zeros, NaNs and
    infinities on this platform (checked once, at the first generation)."""
    nan = float("nan")
    special = [0.0, -0.0, 1.0, -1.0, nan, -nan, math.inf, -math.inf, 5e-324]
    for a in special:
        for b in special:
            for ours, ref in ((fmax(a, b), np.maximum(a, b)),
                              (fmin(a, b), np.minimum(a, b))):
                if np.float64(ours).tobytes() != np.float64(ref).tobytes():
                    return False
    return True


def _intrinsic_table() -> dict:
    global _INTRINSICS
    if _INTRINSICS is None:
        table = dict(INTRINSIC_FUNCTIONS)
        if _minmax_matches_numpy(_fast_max, _fast_min):
            table["max"], table["min"] = _fast_max, _fast_min
        table["abs"] = _fast_abs
        for name, ufunc in _UNARY_UFUNCS.items():
            table[name] = _unary(ufunc, table[name])
        _INTRINSICS = table
    return _INTRINSICS


# --------------------------------------------------------------------------- #
# Static name resolution (a mirror of the interpreter's lookups)
# --------------------------------------------------------------------------- #
class _Unknown(Exception):
    """Static resolution cannot decide (e.g. a used module is missing)."""


class _BuildIndex:
    """Which names a module sees as variables or procedures, from the ASTs
    alone — the same answers ``Interpreter._lookup_var`` /
    ``_lookup_proc`` give at run time, without initialising modules."""

    def __init__(self, modules: dict[str, ModuleNode]):
        self.modules = modules
        self._info: dict[str, tuple] = {}

    def info(self, name: str):
        cached = self._info.get(name)
        if cached is not None:
            return cached
        node = self.modules.get(name)
        if node is None:
            raise _Unknown(name)
        variables: dict[str, tuple] = {}
        for decl in node.declarations:
            if isinstance(decl, Declaration):
                for entity in decl.entities:
                    variables.setdefault(entity.name, (decl, entity))
        renames: dict[str, tuple[str, str]] = {}
        blanket: list[str] = []
        for use in node.uses:
            if use.has_only or use.only:
                for rename in use.only:
                    renames[rename.local] = (use.module, rename.remote)
            else:
                blanket.append(use.module)
        subs: dict[str, Subprogram] = {}
        stack = list(node.subprograms.values())
        while stack:
            sub = stack.pop()
            subs[sub.name] = sub
            stack.extend(sub.contains)
        cached = self._info[name] = (node, variables, renames, blanket, subs)
        return cached

    def var(self, module: str, name: str) -> Optional[tuple]:
        """(declaration, entity) of the module variable ``name`` resolves
        to from ``module``'s subprograms, or None."""
        found = self.info(module)[1].get(name)
        if found is not None:
            return found
        return self._use_var(module, name, frozenset())

    def _use_var(self, module, name, visited) -> Optional[tuple]:
        if module in visited:
            return None
        visited = visited | {module}
        _, _, renames, blanket, _ = self.info(module)
        if name in renames:
            target, remote = renames[name]
            found = self.info(target)[1].get(remote)
            if found is not None:
                return found
            return self._use_var(target, remote, visited)
        for target in blanket:
            found = self.info(target)[1].get(name)
            if found is None:
                found = self._use_var(target, name, visited)
            if found is not None:
                return found
        return None

    def proc(self, module, name, visited=frozenset()) -> Optional[Subprogram]:
        if module in visited:
            return None
        visited = visited | {module}
        node, _, renames, blanket, subs = self.info(module)
        if name in subs:
            return subs[name]
        if name in node.interfaces:
            for proc in node.interfaces[name].procedures:
                found = self.proc(module, proc, visited - {module})
                if found is not None:
                    return found
        if name in renames:
            target, remote = renames[name]
            return self.proc(target, remote, visited)
        for target in blanket:
            found = self.proc(target, name, visited)
            if found is not None:
                return found
        return None


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #
#: static classes of the names a subprogram binds
_LOCAL, _PARAM, _DUMMY, _MAYBE = "local", "param", "dummy", "maybe"

_PY_CLASS = {"real": "float", "integer": "int", "logical": "bool"}

_SCALAR_DEFAULTS = {"real": 0.0, "integer": 0, "logical": False, "character": ""}

_COMPARE = {"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _literal(expr):
    """The value of a literal initialiser, or None."""
    if isinstance(expr, (NumberLit, LogicalLit, StringLit)):
        if isinstance(expr, NumberLit):
            return int(expr.value) if expr.is_integer else float(expr.value)
        return expr.value
    if (
        isinstance(expr, UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, NumberLit)
    ):
        return -_literal(expr.operand)
    return None


def _is_int_literal(expr) -> bool:
    return isinstance(expr, NumberLit) and isinstance(_literal(expr), int)


def _py_literal(value) -> Optional[str]:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _ModuleGen:
    """Python source for every subprogram of one Fortran module: a binder
    ``_bind_<n>(I, E, NODES)`` returning one function per subprogram."""

    def __init__(self, index: _BuildIndex, module: ModuleNode, fp, number: int):
        self.index = index
        self.module = module
        self.binder = f"_bind_{number}"
        self.fma = fp.fma and fp.fma_enabled_in(module.name)
        self.ftz = fp.flush_to_zero
        self.nodes: list = []
        self._node_ids: dict[int, int] = {}
        self.cells: dict[str, int] = {}
        self.sites: list[tuple[int, str]] = []
        self.subs: list[Subprogram] = []
        stack = list(module.subprograms.values())
        while stack:
            sub = stack.pop()
            self.subs.append(sub)
            stack.extend(sub.contains)
        self.functions = [
            _SubGen(self, sub).source(i) for i, sub in enumerate(self.subs)
        ]

    def node(self, node) -> str:
        k = self._node_ids.get(id(node))
        if k is None:
            k = self._node_ids[id(node)] = len(self.nodes)
            self.nodes.append(node)
        return f"NODES[{k}]"

    def cell(self, name: str) -> int:
        k = self.cells.get(name)
        if k is None:
            k = self.cells[name] = len(self.cells)
        return k

    def site(self, node, kind: str) -> str:
        k = len(self.sites)
        self.node(node)
        self.sites.append((self._node_ids[id(node)], kind))
        return f"(K[{k}] or RK(F, {k}))"

    def classify(self, name: str, apply: Apply, implicit: set) -> str:
        """How an ``Apply`` of a non-bound name executes (see
        ``GeneratedEngine.apply_site`` for the run-time check)."""
        if name in implicit:
            return "ast"
        try:
            if self.index.var(self.module.name, name) is not None:
                return "var"
            sub = self.index.proc(self.module.name, name)
        except _Unknown:
            return "ast"
        if sub is not None:
            if (
                sub.is_function
                and "elemental" in sub.prefixes
                and not apply.keywords
                and len(apply.args) == len(sub.args) == len(set(sub.args))
            ):
                return "elemental"
            return "ast"
        lowered = name.lower()
        if lowered != "present" and lowered in INTRINSIC_FUNCTIONS:
            return "intrinsic"
        return "ast"

    def source(self) -> str:
        out = [
            f"def {self.binder}(I, E, NODES):",
            "    COV = I._cov_counts",
            "    L = I.max_statements",
            "    FPU = I.fpu",
            "    DIV, POW = _arith(FPU)",
            "    ADD, SUB, MUL = FPU.add, FPU.sub, FPU.mul",
            "    FMA_LA, FMA_LS, FMA_RA, FMA_RS = _fma_ops(FPU)",
            "    EV = I.eval",
            "    ASSIGN = I._exec_assignment",
            "    USE = I._index_use_frame",
            "    EXEC = E.execute",
            "    READ = E.read",
            "    WALK = I._enter",
            "    DECLARE = E.declare",
            "    LOOPVAR = E.loop_var",
            "    def OVER(loc):",
            "        _over(L, loc)",
            "    BLOCK = E.walk_block",
            "    def UNDO(j, run):",
            "        I.statements_executed -= len(run) - j - 1",
            "        if COV is not None:",
            "            _uncover(COV, run[j + 1:])",
        ]
        if self.cells:
            # non-local names: owning scope and resolved name, filled in by
            # the interpreter's lookup at first execution
            names = tuple(self.cells)
            out += [
                f"    CN = {names!r}",
                f"    C = [None] * {len(names)}",
                "    NM = list(CN)",
                "    def R(F, k, store=False):",
                "        found = I._lookup_nonlocal(F, CN[k])",
                "        if found is None:",
                "            return _unresolved(F, CN[k], store)",
                "        C[k], NM[k] = found",
                "        return C[k]",
            ]
        if self.sites:
            # call sites: resolved to a callable at first execution
            nodes = tuple(node for node, _ in self.sites)
            kinds = tuple(kind for _, kind in self.sites)
            out += [
                f"    SN = {nodes!r}",
                f"    SK = {kinds!r}",
                f"    K = [None] * {len(nodes)}",
                "    def RK(F, k):",
                "        node = NODES[SN[k]]",
                "        K[k] = fn = (E.call_site(F, node) if SK[k] == 'call'",
                "                     else E.apply_site(F, node, SK[k]))",
                "        return fn",
            ]
        for text in self.functions:
            out.append(text)
        names = ", ".join(f"_f{i}" for i in range(len(self.subs)))
        out.append(f"    return ({names}{',' if len(self.subs) == 1 else ''})")
        return "\n".join(out) + "\n"


class _SubGen:
    """Python source of one subprogram: declarations, then the body."""

    def __init__(self, mod: _ModuleGen, sub: Subprogram):
        self.mod = mod
        self.sub = sub
        self.lines: list[str] = []
        self.depth = 2
        self.ntmp = 0
        self.loops = 0
        self.kinds: dict[str, str] = {}
        self.decls: dict[str, tuple[Declaration, object]] = {}
        use_locals: set[str] = set()
        for decl in sub.declarations:
            if isinstance(decl, UseStmt):
                use_locals.update(r.local for r in decl.only)
            elif isinstance(decl, Declaration):
                for entity in decl.entities:
                    self.decls.setdefault(entity.name, (decl, entity))
        for name in sub.args:
            self.kinds[name] = _DUMMY
        for name, (decl, _) in self.decls.items():
            if name in self.kinds or name in use_locals:
                self.kinds[name] = _DUMMY
            else:
                self.kinds[name] = _PARAM if decl.is_parameter else _LOCAL
        if sub.is_function:
            self.kinds.setdefault(sub.result, _LOCAL)
        for name in use_locals:
            self.kinds.setdefault(name, _MAYBE)
        self.use_locals = use_locals
        #: names a store may define in the frame at run time
        self.implicit = {
            name
            for name in self._store_targets(sub.body)
            if name not in self.kinds
        }
        self.int_vars = self._int_stable()
        self.accounting = True
        self.stored = set(self._store_targets(sub.body))
        self.optional = {
            name
            for name, (decl, _) in self.decls.items()
            if "optional" in decl.attributes
        }
        #: arrays held in Python locals: key -> (local, rank)
        self.hoisted: dict[tuple, tuple[str, int]] = {}
        #: entry checks of dummy arrays / derived dummies' array components
        self.entry: list[str] = []
        #: dummies the body stores through (must not be read-only)
        self.writable: set[str] = set()
        self.fresh: list[str] = []

    @staticmethod
    def _store_targets(body):
        for stmt in body:
            for s in stmt.walk():
                if isinstance(s, (Assignment, PointerAssignment)) and isinstance(
                    s.target, VarRef
                ):
                    yield s.target.name
                elif isinstance(s, DoLoop):
                    yield s.var

    def _int_stable(self) -> set[str]:
        """Local integer scalars that always hold a Python ``int``.

        Assignments coerce into an integer slot and do loops with integer
        literal bounds store ints; only a do loop with other start/step
        expressions or an intrinsic subroutine (``random_number``,
        ``cpu_time``) can store anything else.
        """
        names = {
            name
            for name, kind in self.kinds.items()
            if kind == _LOCAL and self.base_type(name) == "integer"
        }
        for stmt in self.sub.body:
            for s in stmt.walk():
                if isinstance(s, DoLoop) and not (
                    _is_int_literal(s.start)
                    and (s.step is None or _is_int_literal(s.step))
                ):
                    names.discard(s.var)
                elif (
                    isinstance(s, CallStmt)
                    and s.name.lower() in SUBROUTINE_INTRINSICS
                ):
                    for arg in [*s.args, *s.keywords.values()]:
                        for e in arg.walk():
                            if isinstance(e, (VarRef, Apply)):
                                names.discard(e.name)
        return names

    def is_int(self, e) -> bool:
        """``e`` always evaluates to a Python ``int``."""
        if isinstance(e, NumberLit):
            return _is_int_literal(e)
        if isinstance(e, VarRef):
            return e.name in self.int_vars
        if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
            return self.is_int(e.left) and self.is_int(e.right)
        if isinstance(e, UnaryOp) and e.op == "-":
            return self.is_int(e.operand)
        return False

    # ------------------------------------------------------------ helpers
    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def tmp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def fresh_array(self, name: str) -> Optional[int]:
        """Rank of a local array the prologue allocates (never rebound)."""
        if self.kinds.get(name) != _LOCAL or name not in self.decls:
            return None
        decl, entity = self.decls[name]
        if entity.dims and decl.base_type in _PY_CLASS:
            return len(entity.dims)
        return None

    def base_type(self, name: str) -> str:
        if name in self.decls:
            decl, entity = self.decls[name]
            return "array" if entity.dims else decl.base_type
        return "real"  # an undeclared function result starts as 0.0

    # --------------------------------------------------------- function
    def source(self, number: int) -> str:
        sub = self.sub
        self.statements(sub.body)
        body, self.lines = self.lines, []
        self.depth = 1
        self.line(f"def _f{number}(F):")
        self.depth = 2
        self.line("V = F.scope.values")
        self.line("RO = F.scope.readonly")
        if self.entry or self.writable:
            # the hoisted arrays' assumptions hold for the whole call, or
            # the reference walker runs it
            self.lines.extend(self.entry)
            for name in sorted(self.writable):
                self.line(f"if {name!r} in RO: return WALK({self.mod.node(sub)}, F)")
        self.prologue()
        self.lines.extend(self.fresh)
        return "\n".join(self.lines + body)

    # ---------------------------------------------------------- hoisting
    def _dummy_array_rank(self, name: str) -> Optional[int]:
        if (
            name not in self.sub.args
            or name in self.optional
            or name in self.use_locals
        ):
            return None
        if self.kinds.get(name) != _DUMMY or name not in self.decls:
            return None
        decl, entity = self.decls[name]
        return len(entity.dims) if entity.dims else None

    def hoist_array(self, name: str) -> Optional[tuple[str, int]]:
        """A Python local holding the array ``name`` for the whole call:
        a local the prologue allocates, or an array dummy checked at entry
        (``Scope.store`` writes arrays through, so neither is rebound)."""
        key = (name,)
        hit = self.hoisted.get(key)
        if hit is not None:
            return hit
        rank = self.fresh_array(name)
        if rank is not None:
            local = self.hoisted[key] = (f"_h{len(self.hoisted)}", rank)
            self.fresh.append(f"        {local[0]} = V[{name!r}]")
            return local
        rank = self._dummy_array_rank(name)
        if rank is None:
            return None
        local = self.hoisted[key] = (f"_h{len(self.hoisted)}", rank)
        walk = f"return WALK({self.mod.node(self.sub)}, F)"
        self.entry.append(f"        {local[0]} = V[{name!r}]")
        self.entry.append(
            f"        if {local[0]}.__class__ is not ND "
            f"or {local[0]}.ndim != {rank}: {walk}"
        )
        return local

    def hoist_component(self, base, component: str, rank: int):
        """A Python local holding the array component ``base%component``
        of a derived-type dummy the body never rebinds."""
        if not isinstance(base, VarRef):
            return None
        name = base.name
        if (
            name not in self.sub.args
            or name in self.optional
            or name in self.stored
            or name in self.use_locals
            or self.kinds.get(name) != _DUMMY
        ):
            return None
        key = (name, component)
        hit = self.hoisted.get(key)
        if hit is not None:
            return hit
        local = self.hoisted[key] = (f"_h{len(self.hoisted)}", rank)
        walk = f"return WALK({self.mod.node(self.sub)}, F)"
        b = local[0]
        self.entry.append(f"        {b} = V[{name!r}]")
        self.entry.append(f"        if {b}.__class__ is not DV: {walk}")
        self.entry.append(f"        {b} = {b}.components.get({component!r})")
        self.entry.append(
            f"        if {b}.__class__ is not ND or {b}.ndim != {rank}: {walk}"
        )
        return local

    def prologue(self) -> None:
        """``Interpreter._finish_call``'s declaration pass, unrolled."""
        sub = self.sub
        defined = set(sub.args)
        for decl in sub.declarations:
            if isinstance(decl, UseStmt):
                self.line(f"USE(F, {self.mod.node(decl)})")
                defined.update(r.local for r in decl.only)
                continue
            if not isinstance(decl, Declaration):
                continue
            for entity in decl.entities:
                name = entity.name
                value = self.simple_value(decl, entity)
                if value is None:
                    self.line(
                        f"DECLARE(F, {self.mod.node(decl)}, {self.mod.node(entity)})"
                    )
                else:
                    guard = f"if {name!r} not in V: " if name in defined else ""
                    self.line(f"{guard}V[{name!r}] = {value}")
                    if decl.is_parameter:
                        self.line(f"{guard}RO.add({name!r})")
                defined.add(name)
        if sub.is_function:
            self.line(f"if {sub.result!r} not in V: V[{sub.result!r}] = 0.0")

    @staticmethod
    def simple_value(decl: Declaration, entity) -> Optional[str]:
        if (
            decl.base_type not in _SCALAR_DEFAULTS
            or entity.dims
            or "dimension" in decl.attributes
        ):
            return None
        if entity.init is None:
            return repr(_SCALAR_DEFAULTS[decl.base_type])
        value = _literal(entity.init)
        if value is None:
            return None
        from .interpreter import Interpreter

        return _py_literal(Interpreter._coerce_scalar(decl.base_type, value))

    # ------------------------------------------------------- accounting
    def account(self, stmt) -> None:
        if not self.accounting:
            return
        loc = stmt.location
        self.line("_n = I.statements_executed = I.statements_executed + 1")
        self.line(f"if _n > L: OVER({str(loc)!r})")
        if loc.line > 0:
            key = repr((loc.filename, loc.line))
            self.line(f"if COV is not None: COV[{key}] = COV.get({key}, 0) + 1")

    def block(self, body, loop: bool = False) -> None:
        self.depth += 1
        self.loops += loop
        if not body:
            self.line("pass")
        self.statements(body)
        self.loops -= loop
        self.depth -= 1

    def statements(self, body) -> None:
        """Emit a body; straight-line runs of closed statements share one
        accounting step."""
        run: list = []
        for stmt in body:
            if self.closed(stmt):
                run.append(stmt)
                continue
            self.straight_line(run)
            run = []
            self.stmt(stmt)
        self.straight_line(run)

    def closed(self, stmt) -> bool:
        """``stmt`` is an assignment (or ``continue``) that cannot run
        another statement: no user procedure call anywhere in it."""
        t = type(stmt)
        if t is ContinueStmt:
            return True
        if t is not Assignment and t is not PointerAssignment:
            return False
        for root in (stmt.target, stmt.value):
            for e in root.walk():
                if isinstance(e, VarRef) and self.kinds.get(e.name) == _MAYBE:
                    return False
                if isinstance(e, Apply):
                    kind = self.kinds.get(e.name)
                    if kind == _MAYBE:
                        return False
                    if kind is None and self.mod.classify(
                        e.name, e, self.implicit
                    ) not in ("var", "intrinsic"):
                        return False
        return True

    def straight_line(self, run: list) -> None:
        """Account a run of closed statements at once.

        A run that would cross ``max_statements`` goes to the reference
        walker, which raises at the exact statement; an exception inside
        the run takes back the counts of the statements it skipped.
        """
        if len(run) < 2:
            for stmt in run:
                self.stmt(stmt)
            return
        node = self.mod.node(run)
        keys = tuple(
            (s.location.filename, s.location.line)
            for s in run
            if s.location.line > 0
        )
        self.line(f"if I.statements_executed + {len(run)} > L: BLOCK({node}, F)")
        self.line("else:")
        self.depth += 1
        self.line(f"I.statements_executed += {len(run)}")
        if keys:
            self.line(f"if COV is not None: BUMP(COV, {keys!r})")
        self.line("try:")
        self.depth += 1
        self.accounting = False
        for j, stmt in enumerate(run):
            self.line(f"_j = {j}")
            self.stmt(stmt)
        self.accounting = True
        self.depth -= 1
        self.line("except BaseException:")
        self.line(f"    UNDO(_j, {node})")
        self.line("    raise")
        self.depth -= 1

    def truthy(self, cond) -> str:
        c = self.tmp()
        return (
            f"({c} := {self.expr(cond)}) is True "
            f"or ({c} is not False and TRUTHY({c}))"
        )

    # ------------------------------------------------------- statements
    def stmt(self, stmt) -> None:
        t = type(stmt)
        if t is Assignment or t is PointerAssignment:
            self.assign(stmt)
        elif t is CallStmt:
            self.account(stmt)
            self.line(f"{self.mod.site(stmt, 'call')}(F)")
        elif t is IfBlock:
            self.if_block(stmt)
        elif t is DoLoop:
            self.do_loop(stmt)
        elif t is DoWhile:
            self.do_while(stmt)
        elif t is SelectCase:
            self.select(stmt)
        elif t is ReturnStmt:
            self.account(stmt)
            self.line("return")
        elif t is ExitStmt:
            self.account(stmt)
            self.line("break" if self.loops else "raise _Exit()")
        elif t is CycleStmt:
            self.account(stmt)
            self.line("continue" if self.loops else "raise _Cycle()")
        elif t is StopStmt:
            self.account(stmt)
            self.line(f"raise StopModel({stmt.message!r})")
        elif t is ContinueStmt:
            self.account(stmt)
        else:
            self.account(stmt)
            self.line(f"EXEC({self.mod.node(stmt)}, F)")

    def delegate_assignment(self, stmt) -> None:
        self.account(stmt)
        self.line(f"ASSIGN({self.mod.node(stmt)}, F)")

    def assign(self, stmt) -> None:
        target = stmt.target
        t = type(target)
        if t is VarRef:
            self.assign_var(stmt, target.name)
        elif t is Apply:
            self.assign_element(stmt, target)
        elif t is DerivedRef:
            self.assign_component(stmt, target)
        else:
            self.delegate_assignment(stmt)

    def assign_var(self, stmt, name: str) -> None:
        kind = self.kinds.get(name)
        if kind == _MAYBE:
            return self.delegate_assignment(stmt)
        self.account(stmt)
        v = self.tmp()
        self.line(f"{v} = {self.expr(stmt.value)}")
        if kind is None:
            k = self.mod.cell(name)
            self.line(f"STORE((C[{k}] or R(F, {k}, True)), NM[{k}], {v})")
            return
        cls = _PY_CLASS.get(self.base_type(name))
        if kind == _PARAM or cls is None:
            self.line(f"STORE(F.scope, {name!r}, {v})")
            return
        ro = f" and {name!r} not in RO" if kind == _DUMMY else ""
        self.line(
            f"if {v}.__class__ is {cls} and V[{name!r}].__class__ is {cls}{ro}: "
            f"V[{name!r}] = {v}"
        )
        self.line(f"else: STORE(F.scope, {name!r}, {v})")

    def container(self, name: str) -> tuple[str, str, str]:
        """(container expr, resolved-name expr, readonly-set expr) of a
        variable that is bound here or resolves to a module variable."""
        if name in self.kinds:
            return f"V[{name!r}]", repr(name), "RO"
        k = self.mod.cell(name)
        return (
            f"(C[{k}] or R(F, {k})).values[NM[{k}]]",
            f"NM[{k}]",
            f"(C[{k}] or R(F, {k})).readonly",
        )

    def assign_element(self, stmt, target: Apply) -> None:
        name = target.name
        kind = self.kinds.get(name)
        if kind == _MAYBE or (
            kind is None and self.mod.classify(name, target, self.implicit) != "var"
        ):
            return self.delegate_assignment(stmt)
        self.account(stmt)
        v = self.tmp()
        self.line(f"{v} = {self.expr(stmt.value)}")
        container, rname, readonly = self.container(name)
        parts, _ = self.subscripts(target.args)
        index = ", ".join(parts) + ("," if len(parts) == 1 else "")
        hoisted = self.hoist_array(name) if kind is not None else None
        if hoisted is not None and parts:
            if kind == _DUMMY:
                self.writable.add(name)
            self.line(f"{hoisted[0]}[{index}] = {v}")
            return
        c, i = self.tmp(), self.tmp()
        self.line(f"{c} = {container}")
        self.line(f"if not isinstance({c}, ND): NOT_ARRAY({rname})")
        self.line(f"{i} = ({index})")
        if kind == _PARAM:
            self.line(f"READ_ONLY({rname})")
        elif kind != _LOCAL:
            self.line(f"if {rname} in {readonly}: READ_ONLY({rname})")
        self.line(f"{c}[{i}] = {v}")

    def assign_component(self, stmt, target: DerivedRef) -> None:
        root = target
        while isinstance(root, DerivedRef):
            root = root.base
        root_name = root.name if isinstance(root, (VarRef, Apply)) else ""
        kind = self.kinds.get(root_name)
        if not root_name or kind == _MAYBE:
            return self.delegate_assignment(stmt)
        if kind is None:
            try:
                is_var = (
                    self.mod.index.var(self.mod.module.name, root_name) is not None
                )
            except _Unknown:
                is_var = False
            if not is_var or root_name in self.implicit:
                return self.delegate_assignment(stmt)
        self.account(stmt)
        v = self.tmp()
        self.line(f"{v} = {self.expr(stmt.value)}")
        if target.args and kind == _DUMMY and root is target.base:
            hoisted = self.hoist_component(root, target.component, len(target.args))
            if hoisted is not None:
                self.writable.add(root_name)
                parts, _ = self.subscripts(target.args)
                self.line(f"{hoisted[0]}[{', '.join(parts)},] = {v}")
                return
        guard = None
        if kind in (_DUMMY, _PARAM):
            guard = "RO"
        elif kind is None:
            k = self.mod.cell(root_name)
            guard = self.tmp()
            self.line(f"{guard} = (C[{k}] or R(F, {k})).readonly")
        check = f"if {root_name!r} in {guard}: READ_ONLY({root_name!r})"
        b = self.tmp()
        component = target.component
        self.line(f"{b} = {self.expr(target.base)}")
        self.line(f"if not isinstance({b}, DV): NOT_DERIVED_STORE({component!r})")
        if target.args:
            a, i = self.tmp(), self.tmp()
            self.line(f"{a} = {b}.get({component!r})")
            self.line(
                f"if not isinstance({a}, ND): NOT_ARRAY_COMPONENT({component!r})"
            )
            parts, _ = self.subscripts(target.args)
            self.line(f"{i} = ({', '.join(parts)},)")
            if guard is not None:
                self.line(check)
            self.line(f"{a}[{i}] = {v}")
        else:
            if guard is not None:
                self.line(check)
            self.line(f"{b}.set({component!r}, {v})")

    def if_block(self, stmt: IfBlock) -> None:
        self.account(stmt)
        first = True
        for cond, body in stmt.branches:
            if cond is None:
                self.line("if True:" if first else "else:")
                self.block(body)
                return
            keyword = "if" if first else "elif"
            self.line(f"{keyword} {self.truthy(cond)}:")
            self.block(body)
            first = False

    def do_loop(self, stmt: DoLoop) -> None:
        self.account(stmt)
        start, stop, step, count, value = (self.tmp() for _ in range(5))
        self.line(f"{start} = {self.expr(stmt.start)}")
        self.line(f"{stop} = {self.expr(stmt.stop)}")
        self.line(
            f"{step} = {self.expr(stmt.step) if stmt.step is not None else '1'}"
        )
        self.line(f"if {step} == 0: ZERO_STEP({str(stmt.location)!r})")
        var = stmt.var
        if self.kinds.get(var) == _LOCAL and self.base_type(var) == "integer":

            def store(expr: str) -> None:
                self.line(f"if V[{var!r}].__class__ is int: V[{var!r}] = {expr}")
                self.line(f"else: F.scope.store({var!r}, {expr})")

        else:
            setter, name = self.tmp(), self.tmp()
            self.line(f"{setter}, {name} = LOOPVAR(F, {var!r})")

            def store(expr: str) -> None:
                self.line(f"{setter}({name}, {expr})")

        self.line(f"{count} = TRIP({start}, {stop}, {step})")
        self.line(
            f"for {value} in (range({start}, {start} + {count} * {step}, {step}) "
            f"if {start}.__class__ is int and {step}.__class__ is int "
            f"else STEPS({start}, {step}, {count})):"
        )
        self.depth += 1
        store(value)
        self.line("try:")
        self.block(stmt.body, loop=True)
        self.line("except _Cycle:")
        self.line("    pass")
        self.line("except _Exit:")
        self.line("    break")
        self.depth -= 1
        self.line("else:")
        self.depth += 1
        store(f"{start} + {count} * {step}")
        self.depth -= 1

    def do_while(self, stmt: DoWhile) -> None:
        self.account(stmt)
        self.line(f"while {self.truthy(stmt.condition)}:")
        self.depth += 1
        self.line("try:")
        self.block(stmt.body, loop=True)
        self.line("except _Cycle:")
        self.line("    continue")
        self.line("except _Exit:")
        self.line("    break")
        self.account(stmt)  # charge each condition re-evaluation
        self.depth -= 1

    def select(self, stmt: SelectCase) -> None:
        self.account(stmt)
        selector = self.tmp()
        self.line(f"{selector} = {self.expr(stmt.selector)}")
        default = None
        branches = []
        for items, body in stmt.cases:
            if items is None:
                default = body
                continue
            tests = []
            for item in items:
                if not item.is_range:
                    tests.append(f"({selector} == {self.expr(item.value)})")
                    continue
                parts = []
                if item.lower is not None:
                    parts.append(f"not ({selector} < {self.expr(item.lower)})")
                if item.upper is not None:
                    parts.append(f"not ({selector} > {self.expr(item.upper)})")
                tests.append(f"({' and '.join(parts) or 'True'})")
            branches.append((" or ".join(tests) or "False", body))
        keyword = "if"
        for test, body in branches:
            self.line(f"{keyword} {test}:")
            self.block(body)
            keyword = "elif"
        if default is not None:
            self.line("if True:" if keyword == "if" else "else:")
            self.block(default)

    # ------------------------------------------------------ expressions
    def expr(self, e) -> str:
        t = type(e)
        if t is NumberLit:
            text = _py_literal(_literal(e))
            return text if text is not None else f"EV({self.mod.node(e)}, F)"
        if t is StringLit:
            return repr(e.value)
        if t is LogicalLit:
            return "True" if e.value else "False"
        if t is VarRef:
            kind = self.kinds.get(e.name)
            if kind == _MAYBE:
                return f"EV({self.mod.node(e)}, F)"
            if kind is not None:
                return f"V[{e.name!r}]"
            return self.container(e.name)[0]
        if t is BinOp:
            return self.binop(e)
        if t is UnaryOp:
            operand = self.expr(e.operand)
            if e.op == "-":
                return f"(-{operand})"
            if e.op == ".not.":
                return f"LNOT({operand})"
            return f"UNSUPPORTED('unary', {e.op!r})"
        if t is Apply:
            return self.apply(e)
        if t is DerivedRef:
            return self.derived(e)
        return f"EV({self.mod.node(e)}, F)"

    def binop(self, e: BinOp) -> str:
        op = e.op
        if op in ("+", "-"):
            mod = self.mod
            left_mul = isinstance(e.left, BinOp) and e.left.op == "*"
            right_mul = isinstance(e.right, BinOp) and e.right.op == "*"
            suffix = "A" if op == "+" else "S"
            if mod.fma and left_mul:
                a, b = self.expr(e.left.left), self.expr(e.left.right)
                return f"FMA_L{suffix}({a}, {b}, {self.expr(e.right)})"
            if mod.fma and right_mul:
                c = self.expr(e.left)
                a, b = self.expr(e.right.left), self.expr(e.right.right)
                return f"FMA_R{suffix}({c}, {a}, {b})"
            left, right = self.expr(e.left), self.expr(e.right)
            if mod.ftz:
                return f"{'ADD' if op == '+' else 'SUB'}({left}, {right})"
            return f"({left} {op} {right})"
        if op not in _COMPARE and op not in ("*", "/", "**", ".and.", ".or.", "//"):
            return f"UNSUPPORTED('binary', {op!r})"
        left, right = self.expr(e.left), self.expr(e.right)
        if op == "*":
            return f"MUL({left}, {right})" if self.mod.ftz else f"({left} * {right})"
        if op == "/":
            return f"DIV({left}, {right})"
        if op == "**":
            return f"POW({left}, {right})"
        if op == ".and.":
            return f"LAND({left}, {right})"
        if op == ".or.":
            return f"LOR({left}, {right})"
        if op == "//":
            return f"(str({left}) + str({right}))"
        return f"({left} {_COMPARE[op]} {right})"

    def subscripts(self, args) -> tuple[list[str], bool]:
        """0-based index parts (``int(v) - 1`` / sections), and whether
        every part is a scalar subscript."""
        parts, scalar = [], True
        for arg in args:
            if isinstance(arg, SectionRange):
                scalar = False
                bounds = [
                    "None" if part is None else self.expr(part)
                    for part in (arg.lower, arg.upper, arg.stride)
                ]
                parts.append(f"SLICE({', '.join(bounds)})")
            elif isinstance(arg, NumberLit) and _py_literal(_literal(arg)):
                parts.append(_py_literal(int(_literal(arg)) - 1))
            elif self.is_int(arg):
                parts.append(f"{self.expr(arg)} - 1")
            else:
                t = self.tmp()
                parts.append(
                    f"({t} - 1 if ({t} := {self.expr(arg)}).__class__ is int "
                    f"else int({t}) - 1)"
                )
        return parts, scalar and bool(parts)

    def array_read(self, e: Apply, container: str, fresh: bool) -> str:
        parts, scalar = self.subscripts(e.args)
        index = ", ".join(parts)
        node = self.mod.node(e)
        if scalar and fresh:
            return f"{container}.item({index})"
        c = self.tmp()
        if scalar:
            # the guard runs before any subscript, so the slow branch
            # evaluates them exactly once, through the reference path
            return (
                f"({c}.item({index}) if ({c} := {container}).__class__ is ND "
                f"and {c}.ndim == {len(parts)} else READ({c}, {node}, F))"
            )
        return f"READ({container}, {node}, F)"

    def apply(self, e: Apply) -> str:
        name = e.name
        kind = self.kinds.get(name)
        if kind == _MAYBE:
            return f"EV({self.mod.node(e)}, F)"
        if kind is not None:
            hoisted = self.hoist_array(name)
            if hoisted is not None:
                return self.array_read(e, hoisted[0], hoisted[1] == len(e.args))
            return self.array_read(e, f"V[{name!r}]", False)
        how = self.mod.classify(name, e, self.implicit)
        if how == "var":
            # a module array is allocated at module initialisation and
            # never rebound, so its declared rank holds
            decl, entity = self.mod.index.var(self.mod.module.name, name)
            fresh = decl.base_type in _PY_CLASS and len(entity.dims) == len(e.args)
            return self.array_read(e, self.container(name)[0], fresh)
        site = self.mod.site(e, how)
        if how == "ast":
            return f"{site}(F)"
        args = [self.expr(a) for a in e.args]
        if how == "elemental":
            return f"{site}(F, {', '.join(args)})"
        if e.keywords:
            kw = ", ".join(f"{k!r}: {self.expr(v)}" for k, v in e.keywords.items())
            args.append(f"**{{{kw}}}")
        return f"{site}({', '.join(args)})"

    def derived(self, e: DerivedRef) -> str:
        if e.args:
            hoisted = self.hoist_component(e.base, e.component, len(e.args))
            if hoisted is not None:
                parts, scalar = self.subscripts(e.args)
                if scalar and len(parts) == hoisted[1]:
                    return f"{hoisted[0]}.item({', '.join(parts)})"
                return f"READ({hoisted[0]}, {self.mod.node(e)}, F)"
        b = self.tmp()
        component = (
            f"({b}.get({e.component!r}) if ({b} := {self.expr(e.base)}).__class__ "
            f"is DV else COMPONENT({b}, {e.component!r}))"
        )
        if not e.args:
            return component
        parts, scalar = self.subscripts(e.args)
        node = self.mod.node(e)
        if not scalar:
            return f"READ({component}, {node}, F)"
        a = self.tmp()
        return (
            f"({a}.item({', '.join(parts)}) if ({a} := {component}).__class__ "
            f"is ND and {a}.ndim == {len(parts)} else READ({a}, {node}, F))"
        )


# --------------------------------------------------------------------------- #
# Compiled builds (memoized) and per-interpreter engines
# --------------------------------------------------------------------------- #
class GeneratedBuild:
    """The generated code of one parsed build under one FPConfig.

    Source is generated for every module up front; each module's source is
    compiled the first time one of its subprograms runs, and compiled code
    is shared by every build that generates the same module source (a
    patched build recompiles only the modules its patch changes).  A module
    whose source cannot be compiled (say, nesting past Python's static
    block limit) is left to the reference walker.
    """

    def __init__(self, asts, fp):
        modules: dict[str, ModuleNode] = {}
        for ast in asts.values():
            for mod in ast.modules:
                modules[mod.name] = mod
        index = _BuildIndex(modules)
        #: module name -> [source, binder name, nodes, subprograms, binder]
        self._modules: dict[str, list] = {}
        self.owner: dict[int, str] = {}
        self.subprograms = 0
        self.source_bytes = 0
        self._collected = False
        for number, (name, mod) in enumerate(modules.items()):
            gen = _ModuleGen(index, mod, fp, number)
            source = gen.source()
            self._modules[name] = [source, gen.binder, gen.nodes, gen.subs, None]
            for sub in gen.subs:
                self.owner[id(sub)] = name
            self.subprograms += len(gen.subs)
            self.source_bytes += len(source.encode())

    def bind(self, engine: "GeneratedEngine", module: str):
        """``{id(sub): function}`` of ``module`` bound to ``engine``'s
        interpreter, or None when the module could not be compiled."""
        entry = self._modules[module]
        source, name, nodes, subs, binder = entry
        if binder is None:
            binder = entry[4] = _binder(source, name, module, self)
            entry[0] = None
        if binder is False:
            return None
        functions = binder(engine.interp, engine, nodes)
        return {id(sub): fn for sub, fn in zip(subs, functions)}


#: digest of generated module source -> its binder (False: does not
#: compile), least recently used first
_CODE: "OrderedDict[bytes, object]" = OrderedDict()
_CODE_MAX = 128
#: generated source size (characters) above which compiling is worth a
#: cycle collection first
_LARGE_SOURCE = 16_000


def _binder(source: str, name: str, module: str, build: GeneratedBuild):
    key = hashlib.blake2b(source.encode(), digest_size=16).digest()
    with _BUILDS_LOCK:
        binder = _CODE.get(key)
        if binder is not None:
            _CODE.move_to_end(key)
            return binder
        if not build._collected and len(source) > _LARGE_SOURCE:
            # Python's parser needs a few MB for a large module; collect
            # unreachable cycles (a finished run's interpreter) first so
            # that memory is reused instead of growing the peak
            build._collected = True
            gc.collect()
        try:
            code = compile(source, f"<generated {module}>", "exec")
        except (SyntaxError, RecursionError, MemoryError):
            binder = False
        else:
            namespace = dict(_RUNTIME)
            exec(code, namespace)
            binder = namespace[name]
        _CODE[key] = binder
        while len(_CODE) > _CODE_MAX:
            _CODE.popitem(last=False)
        return binder


#: (ids of the parsed files, FPConfig) -> GeneratedBuild; an entry lives
#: as long as every file of its parse does
_BUILDS: dict[tuple, GeneratedBuild] = {}
_BUILDS_LOCK = threading.RLock()


def generated_build(asts, fp) -> GeneratedBuild:
    """The memoized :class:`GeneratedBuild` of ``asts`` under ``fp``.

    A miss generates the source of every subprogram of the build under a
    ``runtime.codegen`` span and counts one ``interpreter.codegen``.
    """
    files = list(asts.values())
    key = (tuple(map(id, files)), fp)
    with _BUILDS_LOCK:
        build = _BUILDS.get(key)
        if build is not None:
            return build
        from ..obs import get_metrics, get_tracer

        _intrinsic_table()
        with get_tracer().span("runtime.codegen") as span:
            build = GeneratedBuild(asts, fp)
            span.annotate(
                subprograms=build.subprograms, source_bytes=build.source_bytes
            )
        get_metrics().inc("interpreter.codegen")
        _BUILDS[key] = build
        for ast in files:
            weakref.finalize(ast, _BUILDS.pop, key, None)
        return build


class GeneratedEngine:
    """One interpreter's view of its build's generated code.

    The build is generated (or fetched from the memo) at the first
    subprogram entry; each module's functions are bound to this
    interpreter the first time one of them runs.
    """

    def __init__(self, interp, asts):
        self.interp = interp
        self._asts = asts
        self._build: Optional[GeneratedBuild] = None
        self._functions: dict[int, object] = {}
        self._elementals: dict[int, object] = {}

    # ------------------------------------------------------------ entry
    def enter(self, sub: Subprogram, frame) -> None:
        """Declare ``sub``'s locals in ``frame`` and run its body."""
        (self._functions.get(id(sub)) or self.function(sub))(frame)

    def function(self, sub: Subprogram):
        fn = self._functions.get(id(sub))
        if fn is not None:
            return fn
        build = self._build
        if build is None:
            build = self._build = generated_build(self._asts, self.interp.fp)
        module = build.owner.get(id(sub))
        functions = None if module is None else build.bind(self, module)
        if functions is None:
            interp = self.interp
            fn = self._functions[id(sub)] = lambda frame: interp._enter(sub, frame)
            return fn
        self._functions.update(functions)
        return self._functions[id(sub)]

    # ---------------------------------------------------- delegations
    def read(self, container, node, frame):
        """Subscripted read off the fast path (sections, unexpected rank or
        type): subscripts are evaluated here, after the container."""
        interp = self.interp
        if isinstance(node, Apply) and not isinstance(container, np.ndarray):
            return interp._eval_apply(node, frame)
        index = fortran_slices(interp._eval_subscripts(node.args, frame))
        return _index(container, index)

    def walk_block(self, stmts, frame) -> None:
        """Run statements through the reference walker (which accounts
        each one itself)."""
        for stmt in stmts:
            self.interp.exec_stmt(stmt, frame)

    def execute(self, node, frame) -> None:
        """A statement the generator does not lower: its dispatch handler."""
        handler = self.interp._exec_dispatch.get(type(node))
        if handler is None:
            raise FortranRuntimeError(
                f"cannot execute statement {type(node).__name__} at "
                f"{node.location}"
            )
        handler(node, frame)

    def declare(self, frame, decl: Declaration, entity) -> None:
        if entity.name not in frame.scope.values:
            value = self.interp._create_value(frame, decl, entity)
            frame.scope.define(entity.name, value, readonly=decl.is_parameter)

    def loop_var(self, frame, var: str):
        found = self.interp._lookup_var(frame, var)
        if found is None:
            return frame.scope.store, var
        return found[0].store, found[1]

    # ------------------------------------------------------ call sites
    def _mismatch(self, node, kind: str):
        return FortranRuntimeError(
            f"generated code expected {node.name!r} to be {kind} in module "
            "scope, but the interpreter resolved it differently"
        )

    def apply_site(self, frame, node: Apply, kind: str):
        """Resolve a function-style ``Apply`` once, as the reference
        evaluator does at its first execution.

        ``kind`` is the generator's static prediction: ``"elemental"`` and
        ``"intrinsic"`` sites pass evaluated arguments, ``"ast"`` sites
        pass only the frame and bind arguments from the AST.
        """
        interp = self.interp
        name = node.name
        generic = lambda f: interp._eval_apply(node, f)  # noqa: E731
        if interp._lookup_var(frame, name) is not None:
            if kind != "ast":
                raise self._mismatch(node, kind)
            return generic
        resolved = interp._lookup_proc(frame.module, name, frozenset())
        if resolved is not None:
            mrt, sub = resolved
            if kind == "elemental" and sub.is_function and "elemental" in sub.prefixes:
                return self.elemental_caller(mrt, sub)
            if kind != "ast":
                raise self._mismatch(node, kind)
            if not sub.is_function:
                return generic
            args, keywords = node.args, node.keywords
            call = interp._call_subprogram
            return lambda f: call(mrt, sub, args, keywords, f, True)
        lowered = name.lower()
        if kind == "intrinsic" and lowered != "present":
            fn = _intrinsic_table().get(lowered)
            if fn is not None:
                return fn
        if kind != "ast":
            raise self._mismatch(node, kind)
        if (
            lowered == "present"
            and len(node.args) == 1
            and isinstance(node.args[0], VarRef)
        ):
            arg_name = node.args[0].name
            return lambda f: arg_name not in f.optional_missing
        return generic

    def call_site(self, frame, node: CallStmt):
        """Resolve a ``call`` statement once (intercepts included)."""
        interp = self.interp
        resolved = interp._lookup_proc(frame.module, node.name, frozenset())
        args, keywords = node.args, node.keywords
        if resolved is not None:
            mrt, sub = resolved
            intercept = interp._intercepts.get((mrt.node.name, sub.name))
            if intercept is not None:
                return lambda f: intercept(f, args, keywords, mrt, sub)
            call = interp._call_subprogram
            return lambda f: call(mrt, sub, args, keywords, f, False)
        lowered = node.name.lower()
        if lowered in SUBROUTINE_INTRINSICS:
            intrinsic = interp._call_intrinsic_subroutine
            return lambda f: intrinsic(lowered, args, keywords, f)
        return lambda f: interp._exec_call(node, f)

    def elemental_caller(self, mrt, sub: Subprogram):
        """``_dispatch_elemental`` + ``_call_with_values`` for one fully
        positional elemental function, with the frame set up inline."""
        caller = self._elementals.get(id(sub))
        if caller is not None:
            return caller
        from .interpreter import Frame
        from .values import Scope

        interp = self.interp
        info = interp._sub_info(sub)
        dummies = tuple(sub.args)
        readonly = [d for d in dummies if d in info and info[d].intent == "in"]
        scope_name = f"{mrt.node.name}:{sub.name}"
        result = sub.result
        call_elemental = interp._call_elemental
        body = self.function(sub)
        ndarray = np.ndarray

        def caller(frame, *values):
            for value in values:
                if isinstance(value, ndarray):
                    return call_elemental(mrt, sub, list(values))
            callee = Frame(mrt, sub, Scope(scope_name), frame)
            scope = callee.scope
            scope.values.update(zip(dummies, values))
            scope.readonly.update(readonly)
            body(callee)
            return scope.values[result]

        self._elementals[id(sub)] = caller
        return caller
