"""Vectorizing translation: which nests it takes, which it refuses.

The vectorizer may only fire on nests whose whole-slice execution is
provably bitwise-identical to the scalar order, so the tests here check
both directions: dependence-free stencils (including parity-masked
red-black and constant-subscript boundary loops) vectorize, while
loop-carried sweeps like Gauss-Seidel fall back with a recorded reason —
and every accepted nest still produces bitwise-identical results.
"""

import numpy as np

from repro.apps import kernels
from repro.fortran.parser import parse_source
from repro.interp.pyback import compile_unit, run_compiled
from repro.interp.values import OffsetArray
from repro.interp.vectorize import survey


def _both(src: str, inputs: str | None = None):
    """Run scalar and vectorized backends; compare output, return both."""
    from repro.interp.io_runtime import IoManager
    ios = [IoManager(), IoManager()]
    if inputs:
        for io in ios:
            io.provide_input(5, inputs)
    scalar = run_compiled(parse_source(src), io=ios[0], vectorize=False)
    vector = run_compiled(parse_source(src), io=ios[1], vectorize=True)
    assert scalar.io.output() == vector.io.output()
    return scalar, vector


def _assert_same_state(scalar, vector):
    assert set(scalar.values) == set(vector.values)
    for name, sv in scalar.values.items():
        vv = vector.values[name]
        if isinstance(sv, OffsetArray):
            assert sv.data.tobytes() == vv.data.tobytes(), name
        elif isinstance(sv, float) or isinstance(sv, np.floating):
            assert np.float64(sv).tobytes() == np.float64(vv).tobytes(), name
        else:
            assert sv == vv, name


class TestAccepts:
    def test_jacobi_nests_vectorize(self):
        cu = parse_source(kernels.jacobi_5pt(n=12, m=8, iters=4))
        compiled = compile_unit(cu, vectorize=True)
        stats = compiled.vector_stats
        # init nest, two boundary loops, update nest, copy-back nest
        assert stats["vectorized"] >= 5
        # only the frame loop (multi-statement body) stays scalar
        assert stats["fallback"] <= 1

    def test_constant_subscript_boundary_loop(self):
        # v(1, j) and v(n, j) with n a PARAMETER: provably disjoint rows.
        src = """\
program bnd
  implicit none
  integer j, n, m
  parameter (n = 8, m = 6)
  real v(n, m)
  do j = 1, m
    v(1, j) = 0.5
    v(n, j) = 1.5
    v(n - 1, j) = 2.5
  end do
  write (6, *) v(1, 1), v(n, 1)
end
"""
        vec, fallback, reasons = survey(parse_source(src))
        assert (vec, fallback) == (1, 0), reasons

    def test_redblack_parity_masks(self):
        cu = parse_source(kernels.redblack_2d(n=10, m=8, iters=4))
        compiled = compile_unit(cu, vectorize=True)
        assert compiled.vector_stats["vectorized"] >= 2
        reasons = [r for _, _, r in compiled.vector_stats["reasons"]]
        assert not any("parity" in r for r in reasons)


class TestRefuses:
    def test_gauss_seidel_sweep_falls_back(self):
        cu = parse_source(kernels.gauss_seidel_2d(n=10, m=8, iters=4))
        vec, fallback, reasons = survey(cu)
        assert fallback >= 1
        texts = [r for _, _, r in reasons]
        assert any("loop-carried" in r or "overlap" in r for r in texts), \
            texts
        # the init / boundary nests around the sweep still vectorize
        assert vec >= 2

    def test_float_sum_reduction_falls_back(self):
        # np.sum is pairwise; the scalar left fold is not — must refuse.
        src = """\
program fsum
  implicit none
  integer i
  real a(100), s
  do i = 1, 100
    a(i) = 1.0 / i
  end do
  s = 0.0
  do i = 1, 100
    s = s + a(i)
  end do
  write (6, *) s
end
"""
        vec, fallback, reasons = survey(parse_source(src))
        assert fallback == 1 and vec == 1
        assert any("sum" in r for _, _, r in reasons)


class TestSemantics:
    def test_zero_trip_loop_leaves_state_scalar_identical(self):
        # DO with zero iterations: body untouched, loop var still set to
        # the first untaken value (start + 0 * step).
        src = """\
program zt
  implicit none
  integer i, s
  real a(5)
  s = 7
  a(3) = 9.0
  do i = 5, 1
    a(i) = 1.0
    s = i
  end do
  write (6, *) s, i
end
"""
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert vector.scalar("s") == 7
        assert vector.scalar("i") == 5

    def test_loop_temp_final_value(self):
        # 'old' is a loop-local temp; after the nest it must hold the
        # value from the last iteration, exactly as the scalar order.
        src = """\
program tmp
  implicit none
  integer i
  real a(8), b(8), old
  do i = 1, 8
    a(i) = i * 1.5
    b(i) = 0.0
  end do
  do i = 2, 7
    old = a(i)
    a(i) = old * 2.0
    b(i) = old
  end do
  write (6, *) old
end
"""
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)
        assert float(vector.scalar("old")) == 7 * 1.5

    def test_int_and_minmax_reductions_vectorize(self):
        # integer sums and max/min folds are exact; float sums are not.
        src = """\
program red
  implicit none
  integer i, ksum
  real a(50), peak
  do i = 1, 50
    a(i) = abs(25.0 - i)
  end do
  ksum = 0
  peak = 0.0
  do i = 1, 50
    ksum = ksum + i
    peak = amax1(peak, a(i))
  end do
  write (6, *) ksum, peak
end
"""
        vec, fallback, reasons = survey(parse_source(src))
        assert (vec, fallback) == (2, 0), reasons
        scalar, vector = _both(src)
        _assert_same_state(scalar, vector)

    def test_report_counts_flow_to_compiled_program(self):
        # aerofoil: the direction-split sweeps count as vectorized (their
        # scalar carried loops are no fallbacks), sequential and SPMD
        from repro.apps.aerofoil import aerofoil_source
        from repro.core.pipeline import AutoCFD
        aero = AutoCFD.from_source(aerofoil_source(12, 8, 6, iters=1))
        for cu in (parse_source(kernels.jacobi_5pt(n=10, m=8, iters=3)),
                   aero.cu, aero.compile(partition=(2, 1, 1)).spmd_cu):
            stats = compile_unit(cu, vectorize=True).vector_stats
            svec, sfall, _ = survey(cu)
            assert stats["vectorized"] == svec
            assert stats["fallback"] == sfall
        report = aero.compile(partition=(2, 1, 1)).report
        # fallbacks: the three blayer levels and the frame loop; the 16
        # sweep nests are among the vectorized ones
        assert (report.vector_loops, report.fallback_loops) == (28, 4)
