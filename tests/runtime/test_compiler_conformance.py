"""The generated scalar engine is bit-for-bit the dispatch walker.

``Interpreter(compile=True)`` (the default everywhere) runs Python generated
per subprogram; it is pure behavioural compilation: outputs, first-write
snapshots, history call counts, statement accounting, PRNG draws and
coverage counts must be exactly those of ``Interpreter(compile=False)``, the
reference semantics.  Error paths match too: the statement-budget error
names the same statement at the same count, and intent / undefined-name
errors carry the same messages.
"""

import numpy as np
import pytest

from repro.model import ModelConfig, build_model_source
from repro.obs import get_metrics
from repro.runtime import FPConfig, RunConfig, run_model
from repro.runtime.interpreter import Interpreter, StatementLimitExceeded
from repro.runtime.values import (
    FortranRuntimeError,
    IntentViolationError,
    UndefinedNameError,
)

CASES = {
    "control": (ModelConfig(), FPConfig()),
    "fma": (ModelConfig(), FPConfig(fma=True)),
    "ftz": (ModelConfig(), FPConfig(flush_to_zero=True)),
    "patched": (ModelConfig(patches=("goffgratch",)), FPConfig()),
}


def execute(asts, compile_flag, fp, coverage):
    interp = Interpreter(
        asts, fp=fp, seed=321, compile=compile_flag, collect_coverage=coverage
    )
    interp.call("cam_comp", "cam_init", [1e-14, 321])
    for _ in range(2):
        interp.call("cam_comp", "cam_run_step", [])
    return interp


def assert_engines_match(case, coverage):
    model, fp = CASES[case]
    asts = build_model_source(model).parse()
    dispatch = execute(asts, False, fp, coverage)
    generated = execute(asts, True, fp, coverage)

    assert set(dispatch.history.fields) == set(generated.history.fields)
    for name, value in dispatch.history.fields.items():
        np.testing.assert_array_equal(
            np.asarray(value), np.asarray(generated.history.fields[name])
        )
        np.testing.assert_array_equal(
            np.asarray(dispatch.history.first[name]),
            np.asarray(generated.history.first[name]),
        )
    assert dispatch.history.ncalls == generated.history.ncalls
    assert dispatch.statements_executed == generated.statements_executed
    assert dispatch.prng.total_draws() == generated.prng.total_draws()
    if coverage:
        assert list(dispatch.coverage.counts.items()) == list(
            generated.coverage.counts.items()
        )
    else:
        assert dispatch.coverage is None and generated.coverage is None


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_path_matches_dispatch_bit_for_bit(case):
    assert_engines_match(case, coverage=True)


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_path_matches_dispatch_without_coverage(case):
    assert_engines_match(case, coverage=False)


# --------------------------------------------------------------------------- #
# error parity
# --------------------------------------------------------------------------- #
RUNAWAY_SRC = """
module m
  implicit none
contains
  subroutine spin(n)
    integer, intent(in) :: n
    real :: x, y, z
    x = 0.0
    do while (x < 1.0)
      y = x + 1.0
      z = y * 2.0
      x = x * 1.0
    end do
  end subroutine spin
end module m
"""

ERRORS_SRC = """
module m
  implicit none
  real :: counter = 0.0
contains
  subroutine write_in(a)
    real, intent(in) :: a
    counter = counter + 1.0
    a = 2.0
  end subroutine write_in

  subroutine write_in_array(v)
    real, intent(in) :: v(3)
    counter = counter + 1.0
    v(2) = 1.0
  end subroutine write_in_array

  subroutine call_write_in_array()
    real :: buf(3)
    call write_in_array(buf)
  end subroutine call_write_in_array

  subroutine undefined()
    real :: x, y, z
    x = 1.0
    y = no_such_thing + x
    z = 2.0
  end subroutine undefined
end module m
"""


def _outcome(source, sub, args=(), **kwargs):
    """(error type, message, statements, coverage) of one failing call."""
    interp = Interpreter.from_source(source, **kwargs)
    with pytest.raises(FortranRuntimeError) as info:
        interp.call("m", sub, list(args))
    return (
        type(info.value),
        str(info.value),
        interp.statements_executed,
        list(interp.coverage.counts.items()),
    )


@pytest.mark.parametrize("limit", [50, 51, 52, 53])
def test_statement_budget_error_matches_dispatch(limit):
    # the loop body is a straight-line run of three statements, so the
    # budget runs out at each position of the run across the limits
    reference = _outcome(RUNAWAY_SRC, "spin", [1], max_statements=limit,
                         compile=False)
    generated = _outcome(RUNAWAY_SRC, "spin", [1], max_statements=limit)
    assert reference[0] is StatementLimitExceeded
    assert generated == reference
    assert reference[2] == limit + 1


@pytest.mark.parametrize(
    "sub, args, error",
    [
        ("write_in", [1.0], IntentViolationError),
        ("call_write_in_array", [], IntentViolationError),
        ("undefined", [], UndefinedNameError),
    ],
)
def test_error_messages_and_counts_match_dispatch(sub, args, error):
    reference = _outcome(ERRORS_SRC, sub, args, compile=False)
    generated = _outcome(ERRORS_SRC, sub, args)
    assert reference[0] is error
    assert generated == reference


# --------------------------------------------------------------------------- #
# memoization
# --------------------------------------------------------------------------- #
def test_one_build_generates_code_once_per_fp_model():
    model = ModelConfig(patches=("mg-autoconv",))
    source = build_model_source(model)
    metrics = get_metrics()
    before = metrics.counters()
    for seed in (1, 2, 3):
        run_model(
            RunConfig(model=model, nsteps=1, seed=seed,
                      collect_coverage=seed == 3),
            source=source,
        )
    assert metrics.counter_delta(before).get("interpreter.codegen") == 1
    run_model(RunConfig(model=model, nsteps=1, fp=FPConfig(fma=True)),
              source=source)
    assert metrics.counter_delta(before).get("interpreter.codegen") == 2


def test_module_python_cannot_compile_runs_on_the_reference_walker():
    # eleven nested do loops need 22 static blocks in the generated
    # Python, past the compiler's limit of 20
    depth = 11
    loops = "\n".join("  " * i + f"do i{i} = 1, 2" for i in range(depth))
    ends = "\n".join("  " * i + "end do" for i in reversed(range(depth)))
    source = f"""
module m
  implicit none
contains
  function deep() result(total)
    integer :: total, {", ".join(f"i{i}" for i in range(depth))}
    total = 0
{loops}
{"  " * depth}total = total + 1
{ends}
  end function deep
end module m
"""
    reference = Interpreter.from_source(source, compile=False)
    generated = Interpreter.from_source(source)
    assert generated.call("m", "deep") == reference.call("m", "deep") == 2**depth
    assert generated.statements_executed == reference.statements_executed
    assert generated.coverage.counts == reference.coverage.counts
