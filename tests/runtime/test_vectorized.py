"""The member-batched (vectorized) runtime is bit-for-bit the scalar one.

Three layers of conformance:

* the batched PRNG reproduces each member's scalar stream exactly;
* ``run_model_batch`` over the real model — control, every registered
  bug patch, and the FMA floating-point mode, with kernel fusion on and
  off — matches per-member ``run_model`` on outputs, first-write
  snapshots, coverage counts, statement accounting and draw counts;
* masked-divergence semantics over synthetic sources: ``if`` blocks whose
  conditions vary per member blend stores correctly (including scalar-slot
  promotion and nested divergence); ``select case``, ``do while``,
  ``where`` and derived-type component stores match the scalar engine per
  member; and the safety rails refuse the constructs that cannot be
  expressed under a partial member mask.
"""

import numpy as np
import pytest

from repro.model import ModelConfig, build_model_source, list_patches
from repro.runtime import (
    FPConfig,
    MemberBatch,
    RunConfig,
    VectorizationError,
    run_model,
    run_model_batch,
)
from repro.runtime.prng import BatchedPRNGStreams, PRNGStreams
from repro.runtime.vec import VecInterpreter

SEEDS = [101, 202, 303]


# --------------------------------------------------------------------------- #
# PRNG lockstep
# --------------------------------------------------------------------------- #
class TestBatchedPRNG:
    def test_streams_match_scalar_per_member(self):
        batched = BatchedPRNGStreams(SEEDS)
        scalars = [PRNGStreams(s) for s in SEEDS]
        for module in ("cloud_fraction", "micro_mg", "cloud_fraction"):
            draws = batched.stream(module).uniform()
            for m, scalar in enumerate(scalars):
                assert draws[m] == scalar.stream(module).uniform()

    def test_fill_matches_scalar_element_order(self):
        batched = BatchedPRNGStreams(SEEDS)
        scalars = [PRNGStreams(s) for s in SEEDS]
        got = np.zeros((len(SEEDS), 4, 3)).view(MemberBatch)
        batched.stream("m").fill(got)
        for m, scalar in enumerate(scalars):
            want = np.zeros((4, 3))
            scalar.stream("m").fill(want)
            np.testing.assert_array_equal(np.asarray(got)[m], want)

    def test_reseed_broadcast_and_per_member(self):
        batched = BatchedPRNGStreams(SEEDS)
        batched.reseed(7)
        ref = PRNGStreams(7)
        draws = batched.stream("m").uniform()
        want = ref.stream("m").uniform()
        assert all(d == want for d in draws)
        batched.reseed(SEEDS)
        draws = batched.stream("m").uniform()
        for m, s in enumerate(SEEDS):
            assert draws[m] == PRNGStreams(s).stream("m").uniform()

    def test_total_draws_counts_vector_draws(self):
        batched = BatchedPRNGStreams(SEEDS)
        batched.stream("a").uniform()
        batched.stream("a").uniform()
        batched.stream("b").uniform()
        assert batched.total_draws() == 3


# --------------------------------------------------------------------------- #
# run_model_batch vs run_model over the real model
# --------------------------------------------------------------------------- #
def _assert_member_matches(scalar, batched):
    assert list(scalar.outputs) == list(batched.outputs)
    for name in scalar.outputs:
        np.testing.assert_array_equal(
            scalar.outputs[name], batched.outputs[name]
        )
        np.testing.assert_array_equal(
            scalar.first_outputs[name], batched.first_outputs[name]
        )
    assert scalar.statements_executed == batched.statements_executed
    assert scalar.prng_draws == batched.prng_draws
    assert scalar.coverage.counts == batched.coverage.counts


CASES = {
    "control": (ModelConfig(), FPConfig()),
    "fma": (ModelConfig(), FPConfig(fma=True)),
    **{
        patch: (ModelConfig(patches=(patch,)), FPConfig())
        for patch in sorted(list_patches())
    },
}


@pytest.mark.parametrize(
    "case,kernels",
    [pytest.param(case, "auto", id=case) for case in sorted(CASES)]
    + [
        pytest.param(case, None, id=f"{case}-unfused")
        for case in sorted(CASES)
    ],
)
def test_batch_matches_scalar_bit_for_bit(case, kernels):
    # kernels=None sends the elemental functions kgen fuses on the control
    # build through the closure compiler too
    model, fp = CASES[case]
    source = build_model_source(model)
    configs = [
        RunConfig(model=model, nsteps=1, pertlim=1e-14, seed=s, fp=fp)
        for s in SEEDS
    ]
    batch = run_model_batch(configs, source=source, kernels=kernels)
    for config, batched in zip(configs, batch):
        _assert_member_matches(run_model(config, source=source), batched)


def test_batch_validates_uniformity():
    with pytest.raises(ValueError, match="share"):
        run_model_batch(
            [RunConfig(nsteps=1, seed=1), RunConfig(nsteps=2, seed=2)]
        )
    with pytest.raises(ValueError, match="at least one"):
        run_model_batch([])


# --------------------------------------------------------------------------- #
# masked divergence over synthetic sources
# --------------------------------------------------------------------------- #
DIVERGE_SRC = """
module m
  implicit none
contains
  function classify(x) result(y)
    real, intent(in) :: x
    real :: y
    if (x > 2.0) then
      y = 100.0 + x
    else if (x > 1.0) then
      y = 10.0 + x
    else
      y = x
    end if
  end function classify

  function nested(x) result(y)
    real, intent(in) :: x
    real :: y
    y = 0.0
    if (x > 0.0) then
      y = 1.0
      if (x > 10.0) then
        y = 2.0
      end if
    end if
  end function nested

  function fill_array(x) result(total)
    real, intent(in) :: x
    real :: a(4)
    real :: total
    integer :: i
    do i = 1, 4
      a(i) = x * i
    end do
    if (x > 1.0) then
      a(2) = -1.0
    end if
    total = sum(a)
  end function fill_array

  function flow_rail(x) result(y)
    real, intent(in) :: x
    real :: y
    y = 0.0
    if (x > 1.0) then
      return
    end if
    y = 1.0
  end function flow_rail

  function bounds_rail(x) result(y)
    real, intent(in) :: x
    real :: y
    integer :: i
    y = 0.0
    do i = 1, int(x)
      y = y + 1.0
    end do
  end function bounds_rail
end module m
"""


def _batch(values):
    return np.asarray(values, dtype=np.float64).view(MemberBatch)


def _vec(src=DIVERGE_SRC, seeds=(1, 2, 3)):
    return VecInterpreter.from_source(src, seeds=list(seeds))


class TestMaskedDivergence:
    def test_three_way_branch_blends_per_member(self):
        interp = _vec()
        got = interp.call("m", "classify", [_batch([0.5, 1.5, 2.5])])
        np.testing.assert_array_equal(
            np.asarray(got), [0.5, 11.5, 102.5]
        )

    def test_matches_scalar_interpreter_member_by_member(self):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        got = _vec().call("m", "classify", [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(DIVERGE_SRC)
            assert np.asarray(got)[m] == scalar.call("m", "classify", [x])

    def test_nested_divergence(self):
        got = _vec().call("m", "nested", [_batch([-1.0, 5.0, 20.0])])
        np.testing.assert_array_equal(np.asarray(got), [0.0, 1.0, 2.0])

    def test_uniform_condition_takes_fast_path(self):
        got = _vec().call("m", "classify", [_batch([3.0, 4.0, 5.0])])
        np.testing.assert_array_equal(np.asarray(got), [103.0, 104.0, 105.0])

    def test_masked_array_element_store(self):
        got = _vec(seeds=(1, 2)).call("m", "fill_array", [_batch([0.5, 2.0])])
        # member 0: 0.5*(1+2+3+4); member 1: 2+(-1)+6+8
        np.testing.assert_array_equal(np.asarray(got), [5.0, 15.0])

    def test_per_member_statement_accounting(self):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        interp = _vec()
        interp.call("m", "classify", [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(DIVERGE_SRC)
            scalar.call("m", "classify", [x])
            assert interp.member_statements(m) == scalar.statements_executed

    def test_per_member_coverage(self):
        from repro.runtime.interpreter import Interpreter

        xs = [0.5, 1.5, 2.5]
        interp = _vec()
        interp.call("m", "classify", [_batch(xs)])
        for m, x in enumerate(xs):
            scalar = Interpreter.from_source(DIVERGE_SRC)
            scalar.call("m", "classify", [x])
            assert interp.member_coverage(m).counts == scalar.coverage.counts


class TestSafetyRails:
    def test_flow_under_mask_refused(self):
        with pytest.raises(VectorizationError, match="return"):
            _vec(seeds=(1, 2)).call("m", "flow_rail", [_batch([0.5, 2.0])])

    def test_flow_uniform_path_allowed(self):
        got = _vec(seeds=(1, 2)).call("m", "flow_rail", [_batch([2.0, 3.0])])
        np.testing.assert_array_equal(np.asarray(got), [0.0, 0.0])

    def test_member_varying_do_bounds_refused(self):
        with pytest.raises(VectorizationError, match="do-loop bounds"):
            _vec(seeds=(1, 2)).call("m", "bounds_rail", [_batch([1.0, 3.0])])

    def test_uniform_do_bounds_allowed(self):
        got = _vec(seeds=(1, 2)).call("m", "bounds_rail", [_batch([3.0, 3.0])])
        # int(x) promotes to a batch, so bounds stay member-varying in
        # representation only when values differ; equal values still batch
        np.testing.assert_array_equal(np.asarray(got), [3.0, 3.0])

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError, match="seed"):
            VecInterpreter.from_source(DIVERGE_SRC, seeds=[])


# --------------------------------------------------------------------------- #
# select case, do while, where and derived-type component stores
# --------------------------------------------------------------------------- #
CONSTRUCTS_SRC = """
module c
  implicit none
  type rec
    real :: x
    real :: v(3)
    integer :: k
  end type rec
  type(rec) :: saved
contains
  function pick(k, x) result(r)
    integer, intent(in) :: k
    real, intent(in) :: x
    real :: r
    select case (k)
    case (:0)
      r = -1.0
    case (1:2, 7)
      r = 10.0 + x
    case (4)
      r = 40.0 + x
    case (10:)
      r = 100.0 + x
    case default
      r = 99.0 * x
    end select
  end function pick

  function climb(x, start) result(r)
    real, intent(in) :: x, start
    real :: r, y, acc
    integer :: n
    y = start
    acc = 0.0
    n = 0
    do while (y < 5.0)
      n = n + 1
      acc = acc + x
      if (n == 2) then
        cycle
      end if
      y = y + 1.0
      if (n >= 4) then
        exit
      end if
    end do
    r = acc + y + n
  end function climb

  function masked(x) result(total)
    real, intent(in) :: x
    real :: a(4), total
    integer :: i
    do i = 1, 4
      a(i) = x * i
    end do
    where (a > 3.0)
      a = a * 10.0
    elsewhere
      a = -a
    end where
    if (x > 1.0) then
      where (a > 50.0)
        a = 0.0
      end where
    end if
    total = sum(a)
  end function masked

  function masked_int(x) result(total)
    real, intent(in) :: x
    integer :: b(4)
    real :: total
    integer :: i
    do i = 1, 4
      b(i) = i
    end do
    where (b > 2)
      b = 0
    elsewhere
      b = b * 2
    end where
    total = sum(b) + x
  end function masked_int

  function masked_int_rail(x) result(total)
    real, intent(in) :: x
    integer :: b(4)
    real :: total
    integer :: i
    do i = 1, 4
      b(i) = i
    end do
    where (b > x)
      b = 0
    end where
    total = sum(b)
  end function masked_int_rail

  function fill_rec(x) result(total)
    real, intent(in) :: x
    type(rec) :: p
    real :: total
    integer :: i
    p%k = 2
    p%x = 0.5
    do i = 1, 3
      p%v(i) = x * i
    end do
    if (x > 1.0) then
      p%v(2) = -x
      p%v = p%v + 1.0
    end if
    total = sum(p%v) + p%k + p%x
  end function fill_rec

  function scalar_comp_rail(x) result(y)
    real, intent(in) :: x
    real :: y
    saved%x = x
    y = saved%x
  end function scalar_comp_rail
end module c
"""


def _member_args(args, m):
    """Member ``m``'s scalar actuals (a list argument varies per member)."""
    return [a[m] if isinstance(a, list) else a for a in args]


def _batch_args(args):
    return [
        np.asarray(a, dtype=np.int64 if isinstance(a[0], int) else np.float64)
        .view(MemberBatch)
        if isinstance(a, list)
        else a
        for a in args
    ]


#: (function, actuals); a list actual is one value per member, so ``[2, 2]``
#: is a member-uniform batch and ``[0.5, 2.0]`` a member-varying one
CONSTRUCT_CASES = {
    "select-plain-range": ("pick", [0, [0.5, 1.5]]),
    "select-plain-value": ("pick", [7, [0.5, 1.5]]),
    "select-plain-single": ("pick", [4, [0.5, 1.5]]),
    "select-plain-open": ("pick", [12, [0.5, 1.5]]),
    "select-plain-default": ("pick", [5, [0.5, 1.5]]),
    "select-uniform-range": ("pick", [[2, 2], [0.5, 1.5]]),
    "select-uniform-default": ("pick", [[5, 5], [0.5, 1.5]]),
    "dowhile-plain": ("climb", [[0.5, 1.5], 1.0]),
    "dowhile-uniform": ("climb", [[0.5, 1.5], [1.0, 1.0]]),
    "dowhile-uniform-zero-trip": ("climb", [[0.5, 1.5], [6.0, 6.0]]),
    "where-uniform": ("masked", [[1.5, 1.5]]),
    "where-varying": ("masked", [[0.5, 2.0]]),
    "where-int-uniform": ("masked_int", [[1.0, 1.0]]),
    "where-int-varying": ("masked_int", [[0.5, 2.0]]),
    "component-uniform": ("fill_rec", [[2.0, 2.0]]),
    "component-varying": ("fill_rec", [[0.5, 2.0]]),
}


class TestConstructs:
    """Each construct runs batched and matches the scalar engine per member."""

    @pytest.mark.parametrize("case", sorted(CONSTRUCT_CASES))
    def test_matches_scalar_per_member(self, case):
        from repro.runtime.interpreter import Interpreter

        function, args = CONSTRUCT_CASES[case]
        interp = _vec(CONSTRUCTS_SRC, seeds=(1, 2))
        got = np.broadcast_to(
            np.asarray(interp.call("c", function, _batch_args(args))), (2,)
        )
        for m in range(2):
            scalar = Interpreter.from_source(CONSTRUCTS_SRC)
            assert got[m] == scalar.call("c", function, _member_args(args, m))
            assert interp.member_statements(m) == scalar.statements_executed
            assert interp.member_coverage(m).counts == scalar.coverage.counts

    @pytest.mark.parametrize(
        "function,args,match",
        [
            ("pick", [[2, 4], [0.5, 1.5]], "select-case selector"),
            ("climb", [[0.5, 1.5], [1.0, 3.0]], "do-while condition"),
            ("masked_int_rail", [[0.5, 2.0]], "member-uniform storage"),
            ("scalar_comp_rail", [[0.5, 2.0]], "scalar component"),
        ],
        ids=["select", "dowhile", "where-int", "scalar-component"],
    )
    def test_member_varying_rails(self, function, args, match):
        interp = _vec(CONSTRUCTS_SRC, seeds=(1, 2))
        with pytest.raises(VectorizationError, match=match):
            interp.call("c", function, _batch_args(args))


# --------------------------------------------------------------------------- #
# kernel fusion in the hot path
# --------------------------------------------------------------------------- #
FUSE_SRC = """
module fusemod
  implicit none
  real, parameter :: scale = 2.5
contains
  elemental function warm(x) result(y)
    real, intent(in) :: x
    real :: y
    if (x > 1.0) then
      y = scale * x
    else
      y = x * x
    end if
  end function warm

  function drive(x) result(y)
    real, intent(in) :: x
    real :: y
    y = warm(x) + 1.0
  end function drive

  elemental function dampen(x) result(y)
    real, intent(in) :: x
    real :: y
    y = x * 0.5 + 1.0
  end function dampen

  function drive_array(x) result(total)
    real, intent(in) :: x
    integer :: a(3)
    real :: total
    integer :: i
    do i = 1, 3
      a(i) = i
    end do
    total = sum(dampen(a)) + x
  end function drive_array

  function drive_const(x) result(y)
    real, intent(in) :: x
    real :: y
    y = warm(2.0) + x
  end function drive_const
end module fusemod
"""


def _counter(name):
    from repro.obs import get_metrics

    return get_metrics().counters().get(name, 0)


class TestKernelFusion:
    """The registry-backed fast path is bit-identical and falls back safely."""

    @pytest.fixture(scope="class")
    def registry(self):
        from repro.kgen import KernelRegistry, extract_kernel, verify_kernel
        from repro.runtime.interpreter import Interpreter

        scalar = Interpreter.from_source(FUSE_SRC, collect_coverage=False)
        registry = KernelRegistry()
        for function in ("warm", "dampen"):
            kernel = extract_kernel(scalar, "fusemod", function)
            report = verify_kernel(
                kernel, scalar, ranges=(("x", -2.0, 3.0),)
            )
            assert report.nrms == 0.0
            assert registry.add(kernel, report)
        return registry

    def test_fused_call_is_bit_identical_and_counted(self, registry):
        xs = [0.5, 1.5, 2.5]
        fused = VecInterpreter.from_source(
            FUSE_SRC, seeds=[1, 2, 3], kernels=registry
        )
        got = fused.call("fusemod", "drive", [_batch(xs)])
        assert fused.kernel_calls > 0
        assert fused.kernel_fallbacks == 0
        plain = VecInterpreter.from_source(FUSE_SRC, seeds=[1, 2, 3])
        want = plain.call("fusemod", "drive", [_batch(xs)])
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))
        # accounting is replayed through the kernel: statement counts and
        # per-member coverage must not notice the swap
        for m in range(len(xs)):
            assert fused.member_statements(m) == plain.member_statements(m)
            assert (
                fused.member_coverage(m).counts
                == plain.member_coverage(m).counts
            )

    def test_array_actual_falls_back_to_interpretation(self, registry):
        xs = [0.5, 2.0]
        fused = VecInterpreter.from_source(
            FUSE_SRC, seeds=[1, 2], kernels=registry
        )
        got = fused.call("fusemod", "drive_array", [_batch(xs)])
        # the elemental call sees a member-uniform model array (integer
        # locals stay plain), not a batch-scalar: it must interpret,
        # never run the kernel on model-shaped data
        assert fused.kernel_fallbacks > 0
        assert fused.kernel_calls == 0
        plain = VecInterpreter.from_source(FUSE_SRC, seeds=[1, 2])
        want = plain.call("fusemod", "drive_array", [_batch(xs)])
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_uniform_scalar_actual_falls_back(self, registry):
        xs = [0.5, 2.0]
        fused = VecInterpreter.from_source(
            FUSE_SRC, seeds=[1, 2], kernels=registry
        )
        got = fused.call("fusemod", "drive_const", [_batch(xs)])
        # warm(2.0) carries no member axis: nothing to vectorize over
        assert fused.kernel_fallbacks > 0
        assert fused.kernel_calls == 0
        plain = VecInterpreter.from_source(FUSE_SRC, seeds=[1, 2])
        want = plain.call("fusemod", "drive_const", [_batch(xs)])
        np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_no_registry_means_no_kernel_bookkeeping(self):
        plain = VecInterpreter.from_source(FUSE_SRC, seeds=[1, 2])
        plain.call("fusemod", "drive", [_batch([0.5, 2.0])])
        assert plain.kernel_calls == 0
        assert plain.kernel_fallbacks == 0


class TestModelKernelFusion:
    """run_model_batch drives the default kernels over the real model."""

    @pytest.fixture(scope="class")
    def control_source(self):
        source = build_model_source(ModelConfig())
        source.parse()
        return source

    def _configs(self, n=2):
        return [
            RunConfig(model=ModelConfig(), nsteps=1, pertlim=1e-14, seed=s)
            for s in SEEDS[:n]
        ]

    def test_auto_registry_executes_kernels(self, control_source):
        before = _counter("kgen.kernel_calls")
        run_model_batch(self._configs(), source=control_source)
        assert _counter("kgen.kernel_calls") > before

    @pytest.mark.parametrize(
        "target",
        [("wv_saturation", "qsat_water"), ("radsw", "gravity_norm")],
        ids=lambda t: f"{t[0]}.{t[1]}",
    )
    def test_each_default_kernel_executes(self, control_source, target):
        # one single-kernel registry per target proves at least two
        # *distinct* kernels actually run in the model's hot path
        from repro.kgen import KernelRegistry, kernel_registry_for

        full = kernel_registry_for(control_source, FPConfig())
        kernel = full.lookup(*target)
        assert kernel is not None
        solo = KernelRegistry()
        assert solo.add(kernel, full.reports[target])
        before = _counter("kgen.kernel_calls")
        batch = run_model_batch(
            self._configs(), source=control_source, kernels=solo
        )
        assert _counter("kgen.kernel_calls") > before
        for config, run in zip(self._configs(), batch):
            _assert_member_matches(
                run_model(config, source=control_source), run
            )

    def test_env_kill_switch_disables_fusion(self, control_source, monkeypatch):
        monkeypatch.setenv("REPRO_KGEN_FUSION", "0")
        before = _counter("kgen.kernel_calls")
        batch = run_model_batch(self._configs(), source=control_source)
        assert _counter("kgen.kernel_calls") == before
        for config, run in zip(self._configs(), batch):
            _assert_member_matches(
                run_model(config, source=control_source), run
            )


# --------------------------------------------------------------------------- #
# cross-config lanes
# --------------------------------------------------------------------------- #
class TestMemberBatchLane:
    def test_lane_is_an_independent_copy(self):
        mb = np.arange(12, dtype=np.float64).reshape(3, 4).view(MemberBatch)
        lane = mb.lane(1)
        np.testing.assert_array_equal(lane, [4.0, 5.0, 6.0, 7.0])
        assert not isinstance(lane, MemberBatch)
        lane[:] = -1.0
        assert np.asarray(mb)[1, 0] == 4.0

    def test_lane_of_scalar_promoted_slot(self):
        # a scalar slot promoted to (n,) yields 0-d per-lane values; they
        # must come back by value, where .member() would hand out a view
        mb = _batch([1.0, 2.0, 3.0])
        lane = mb.lane(2)
        assert np.ndim(lane) == 0
        assert float(lane) == 3.0
        view = mb.member(2)
        assert float(view) == 3.0


class TestHeterogeneousLanes:
    """run_model_batch accepts configs differing beyond the model/fp/nsteps."""

    def test_mixed_coverage_lanes_match_scalar(self):
        model = ModelConfig()
        source = build_model_source(model)
        configs = [
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[0],
                collect_coverage=True,
            ),
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[1],
                collect_coverage=False,
            ),
        ]
        before = _counter("vec.fused_configs")
        batch = run_model_batch(configs, source=source)
        assert _counter("vec.fused_configs") == before + 1
        for config, run in zip(configs, batch):
            _assert_member_matches(run_model(config, source=source), run)
        assert batch[0].coverage.counts != {}
        assert batch[1].coverage.counts == {}

    def test_per_lane_statement_budget_enforced(self):
        from repro.runtime import StatementLimitExceeded

        model = ModelConfig()
        source = build_model_source(model)
        configs = [
            RunConfig(model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[0]),
            RunConfig(
                model=model, nsteps=1, pertlim=1e-14, seed=SEEDS[1],
                max_statements=10,
            ),
        ]
        with pytest.raises(StatementLimitExceeded):
            run_model_batch(configs, source=source)
