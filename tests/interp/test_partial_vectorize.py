"""Partial vectorization: carried levels scalar, free levels as slabs.

A direction-split sweep carries its dependence along one level only, so
the vectorizer keeps that level as a scalar loop (outermost, original
order and direction) and runs the other levels as slice statements.
These tests pin which nests take that path, the reasons recorded for the
ones that cannot, and — with a hypothesis-generated family of in-place
sweeps — that the vector backend, the scalar backend and the reference
interpreter agree bitwise, final loop-variable values included.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.vecsafety import analyze_nest
from repro.apps import kernels
from repro.fortran import ast as A
from repro.fortran.parser import parse_source
from repro.interp.interpreter import Interpreter
from repro.interp.io_runtime import IoManager
from repro.interp.pyback import compile_unit, run_compiled
from repro.interp.values import OffsetArray
from repro.interp.vectorize import survey

VARS = ("i", "j", "k")


def _nests(cu):
    """The top-level DO nests of the main program, in source order."""
    return [s for s in cu.main.body if isinstance(s, A.DoLoop)]


def _facts(src: str, index: int):
    cu = parse_source(src)
    return analyze_nest(_nests(cu)[index], cu.main.symbols)


def _sweep_src(order: str, body: str, ext=(6, 5, 4)) -> str:
    """A 3-D program with one init nest and one nest looping in *order*."""
    bounds = {"i": "2, n - 1", "j": "2, m - 1", "k": "2, l - 1"}
    head = "\n".join(f"{'  ' * d}  do {v} = {bounds[v]}"
                     for d, v in enumerate(order))
    tail = "\n".join(f"{'  ' * d}  end do" for d in reversed(range(3)))
    return f"""\
program sweep
  implicit none
  integer n, m, l, i, j, k
  parameter (n = {ext[0]}, m = {ext[1]}, l = {ext[2]})
  real u(n, m, l), w(n, m, l), t
  do i = 1, n
    do j = 1, m
      do k = 1, l
        u(i, j, k) = 0.1 * float(i + 3 * j + 7 * k)
        w(i, j, k) = 0.5
      end do
    end do
  end do
{head}
{body}
{tail}
  write (6, *) i, j, k, t
end
"""


class TestAnalysis:
    def test_direction_split_sweeps_name_their_carried_level(self):
        for var, read in (("i", "u(i-1, j, k)"), ("j", "u(i, j-1, k)"),
                          ("k", "u(i, j, k-1)")):
            src = _sweep_src("ijk", f"        u(i, j, k) = 0.5 * {read}")
            facts = _facts(src, 1)
            assert not facts.ok
            assert facts.carried == (var,)
            assert facts.nest_vars == tuple(v for v in VARS if v != var)
            assert f"carried by {var}" in facts.reason

    def test_all_levels_carried_refuses_naming_them(self):
        src = _sweep_src("ijk", "        u(i, j, k) = 0.3 * (u(i-1, j, k)"
                                " + u(i, j-1, k) + u(i, j, k-1))")
        facts = _facts(src, 1)
        assert not facts.ok and facts.carried == ()
        assert "carried by i, j, k" in facts.reason
        assert "no free level" in facts.reason

    def test_invariant_offset_subscripts_are_disjoint(self):
        # under a scalar i loop the j/k slab reads planes i-1 and i+1 and
        # writes plane i: s + c1 vs s + c2 over the same invariant s
        src = """\
program plane
  implicit none
  integer n, i, j, k
  parameter (n = 6)
  real u(n, n, n)
  i = 3
  do j = 1, n
    do k = 1, n
      u(i, j, k) = 0.5 * (u(i - 1, j, k) + u(i + 1, j, k))
    end do
  end do
end
"""
        facts = _facts(src, 0)
        assert facts.ok, facts.reason

    def test_unrelated_invariant_subscripts_stay_unprovable(self):
        src = """\
program plane
  implicit none
  integer n, i, i2, j
  parameter (n = 6)
  real u(n, n)
  i = 3
  i2 = 4
  do j = 1, n
    u(i, j) = u(i2, j)
  end do
end
"""
        facts = _facts(src, 0)
        assert not facts.ok and facts.carried == ()
        assert "unprovable overlap on u" in facts.reason

    def test_conditional_temp_under_interchange_refuses(self):
        # hoisting k above i and j would change which iteration sets t
        # last, so the exit value of a conditionally assigned t differs
        body = ("        if (u(i, j, k) .gt. 1.0) t = u(i, j, k)\n"
                "        u(i, j, k) = 0.5 * u(i, j, k-1)")
        facts = _facts(_sweep_src("ijk", body), 1)
        assert not facts.ok and facts.carried == ()
        assert "conditional temporary t" in facts.reason
        # with k already outermost there is no interchange: accepted
        facts = _facts(_sweep_src("kij", body), 1)
        assert facts.carried == ("k",)


class TestCounting:
    def test_partial_nest_counts_once_as_vectorized(self):
        src = _sweep_src("ijk", "        u(i, j, k) = 0.5 * u(i, j-1, k)")
        vec, fallback, reasons = survey(parse_source(src))
        assert (vec, fallback) == (2, 0), reasons

    def test_adi_kernel_sweeps_all_vectorize(self):
        cu = parse_source(kernels.adi_sweeps_3d(n=8, m=6, l=5, iters=3))
        vec, fallback, reasons = survey(cu)
        # only the frame loop (it contains nests) stays scalar
        assert fallback == 1, reasons
        assert vec == 4
        stats = compile_unit(cu, vectorize=True).vector_stats
        assert (stats["vectorized"], stats["fallback"]) == (vec, fallback)

    def test_wavefront_sweeps_stay_scalar_with_reason(self):
        # Gauss-Seidel and the aerofoil's boundary-layer pass carry their
        # dependence on every level: nothing is left to vectorize
        from repro.apps.aerofoil import aerofoil_source
        seidel = parse_source(kernels.gauss_seidel_2d(n=10, m=8, iters=2))
        _, _, reasons = survey(seidel)
        carried = [r for _, _, r in reasons if "loop-carried" in r]
        assert carried == ["loop-carried dependence on v (carried by i, j)"
                           ": no free level",
                           "loop-carried dependence on v (carried by j)"
                           ": no free level"]
        aero = parse_source(aerofoil_source(12, 8, 6, iters=1))
        _, _, reasons = survey(aero)
        blayer = [r for unit, _, r in reasons if unit == "blayer"]
        assert len(blayer) == 3
        assert all(r.endswith(": no free level") for r in blayer)

    def test_carried_levels_emit_scalar_loops(self):
        src = _sweep_src("ijk", "        u(i, j, k) = 0.5 * u(i, j, k-1)")
        code = compile_unit(parse_source(src), vectorize=True).source
        # the k loop (level 2) runs scalar around (i, j) planes
        assert re.search(r"for (_vz\d+)k2 in range\(\1n2\):", code)
        assert re.search(r"(_vz\d+)bx = \(\1n0, \1n1,\)", code)


# -- property: generated in-place sweeps agree across all three executors ------

_EXTENTS = {"i": "n", "j": "m", "k": "l"}


@st.composite
def sweep_program(draw):
    rank = draw(st.sampled_from([2, 3]))
    dims = VARS[:rank]
    order = draw(st.permutations(dims))
    mask = draw(st.integers(1, 2 ** rank - 1))
    carried = [v for b, v in enumerate(dims) if mask >> b & 1]
    ext = {v: draw(st.integers(3, 6)) for v in dims}
    loops = []
    for v in order:
        trips = draw(st.sampled_from(["full", "full", "one", "zero"]))
        lo, hi = {"full": ("2", f"{_EXTENTS[v]} - 1"), "one": ("2", "2"),
                  "zero": ("3", "2")}[trips]
        if draw(st.booleans()):
            loops.append(f"do {v} = {hi}, {lo}, -1")
        else:
            loops.append(f"do {v} = {lo}, {hi}")

    def ref(name, shift=None):
        subs = list(dims)
        if shift is not None:
            side = draw(st.sampled_from(["-", "+"]))
            subs[dims.index(shift)] = f"{shift} {side} 1"
        return f"{name}({', '.join(subs)})"

    terms = " + ".join(ref("u", c) for c in carried)
    temp = draw(st.sampled_from(["none", "plain", "masked"]))
    body = []
    if temp == "plain":
        body.append(f"t = {ref('u')} * 0.5")
    elif temp == "masked":
        body.append(f"if ({ref('u')} .gt. 1.2) t = {ref('u')} * 0.5")
    body.append(f"{ref('u')} = 0.3 * ({terms}) + 0.1 * {ref('w')}")
    if draw(st.booleans()):
        rhs = f"{ref('u')} * 0.25" + (" + t" if temp == "plain" else "")
        second = f"{ref('w')} = {ref('w')} - {rhs}"
        if draw(st.booleans()):
            second = f"if ({ref('u')} .lt. 1.0) {second}"
        body.append(second)
    if draw(st.booleans()):
        body.append(f"r = amax1(r, abs({ref('w')}))")
    shape = ", ".join(_EXTENTS[v] for v in dims)
    params = ", ".join(f"{_EXTENTS[v]} = {ext[v]}" for v in dims)
    init_head = "\n".join(f"  do {v} = 1, {_EXTENTS[v]}" for v in dims)
    init_tail = "\n".join("  end do" for _ in dims)
    head = "\n".join(f"  {loop}" for loop in loops)
    tail = "\n".join("  end do" for _ in loops)
    seed = " + ".join(f"{c} * {v}" for c, v in zip((1, 3, 7), dims))
    return f"""\
program fuzz
  implicit none
  integer n, m, l, i, j, k
  parameter ({params})
  real u({shape}), w({shape}), t, r
  t = -1.0
  r = 0.0
{init_head}
  {ref('u')} = 0.1 * float({seed})
  {ref('w')} = 0.01 * float({seed})
{init_tail}
{head}
{chr(10).join('    ' + s for s in body)}
{tail}
  write (6, *) {', '.join(dims)}, t, r
end
"""


def _bits(value):
    if isinstance(value, OffsetArray):
        return value.data.tobytes()
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return value


@given(sweep_program())
@settings(deadline=None)
def test_property_generated_sweeps_agree(src):
    interp = Interpreter(parse_source(src), io=IoManager())
    scope = interp.run()
    scalar = run_compiled(parse_source(src), io=IoManager(),
                          vectorize=False)
    vector = run_compiled(parse_source(src), io=IoManager(),
                          vectorize=True)
    assert interp.io.output() == scalar.io.output() == vector.io.output()
    for name in ("u", "w", "t", "r", *VARS):
        if name not in scope.values:
            continue  # declared but never set (k in 2-D programs)
        want = _bits(scope.values[name])
        assert want == _bits(scalar.values[name]), name
        assert want == _bits(vector.values[name]), name
