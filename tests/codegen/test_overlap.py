"""Interior/boundary loop splitting around nonblocking exchanges.

The tentpole contract: a halo-synchronized consumer nest is rewritten to

    call acfd_exchange_begin(k, ...)
    do <interior>            ! no ghost reads, runs while messages fly
    call acfd_exchange_finish(k, ...)
    do <boundary strips>     ! the peeled rim that reads ghosts

exactly when safety is provable, and refuses — with a recorded reason —
otherwise, keeping the blocking exchange (the vectorizer's ``Fallback``
discipline).
"""

import pytest

from repro.apps import kernels
from repro.codegen.normalize import normalize_compilation_unit
from repro.codegen.plan import build_plan
from repro.codegen.restructure import restructure
from repro.core.pipeline import AutoCFD
from repro.errors import CodegenError
from repro.fortran.parser import parse_source
from repro.fortran.printer import print_compilation_unit
from repro.partition.grid import GridGeometry
from repro.partition.partitioner import Partition

from tests.conftest import JACOBI_SRC, SEIDEL_SRC


def compiled(src: str, dims, overlap="auto"):
    cu = normalize_compilation_unit(parse_source(src))
    plan = build_plan(cu, Partition(GridGeometry(cu.directives.grid_shape),
                                    dims), overlap=overlap)
    text = print_compilation_unit(restructure(plan))
    return plan, text


def decision(plan, sync_id):
    return next(d for d in plan.overlap_decisions if d.sync_id == sync_id)


class TestSplitStructure:
    def test_jacobi_splits_into_begin_interior_finish_strips(self):
        plan, text = compiled(JACOBI_SRC, (2, 1))
        assert decision(plan, 1).enabled
        assert "call acfd_exchange_begin(1, v)" in text
        assert "call acfd_exchange_finish(1, v)" in text
        assert "acfd_exchange(1," not in text
        # interior is clamped one layer inside the owned block; the two
        # strips cover the peeled rim
        begin_at = text.index("acfd_exchange_begin(1")
        finish_at = text.index("acfd_exchange_finish(1")
        interior = text[begin_at:finish_at]
        assert "acfd_lo(1) + 1" in interior
        assert "acfd_hi(1) - 1" in interior

    def test_2x2_splits_both_dimensions(self):
        plan, text = compiled(JACOBI_SRC, (2, 2))
        assert decision(plan, 1).enabled
        # dim 1 and dim 2 both get interior margins
        begin_at = text.index("acfd_exchange_begin(1")
        finish_at = text.index("acfd_exchange_finish(1")
        interior = text[begin_at:finish_at]
        assert "acfd_lo(1) + 1" in interior
        assert "acfd_lo(2) + 1" in interior
        # four boundary strips after finish (low/high per split dim)
        tail = text[finish_at:]
        assert tail.count("do ") >= 8  # 4 strips x 2-level nests

    def test_mode_off_keeps_blocking_exchange(self):
        plan, text = compiled(JACOBI_SRC, (2, 1), overlap="off")
        assert "acfd_exchange_begin" not in text
        assert "call acfd_exchange(1, v)" in text
        assert all(not d.enabled for d in plan.overlap_decisions)
        assert decision(plan, 1).reason == "overlap disabled (mode off)"

    def test_invalid_mode_rejected(self):
        # "on" is not a mode: auto already splits every safe sync
        for mode in ("maybe", "on"):
            with pytest.raises(CodegenError, match="overlap mode"):
                compiled(JACOBI_SRC, (2, 1), overlap=mode)

    def test_reduction_still_allreduced_after_strips(self):
        # err accumulates across interior + strips; the allreduce must
        # come after every partial nest
        _plan, text = compiled(JACOBI_SRC, (2, 1))
        finish_at = text.index("acfd_exchange_finish(1")
        red_at = text.index("acfd_allreduce_max")
        assert red_at > finish_at


class TestRefusals:
    def test_pipelined_consumer_refused(self):
        plan, text = compiled(SEIDEL_SRC, (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "pipelined" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_diagonal_reader_refused_on_two_cut_dims(self):
        acfd = AutoCFD.from_source(kernels.jacobi_9pt())
        plan = acfd.compile(partition=(2, 2)).plan
        d = decision(plan, 1)
        assert not d.enabled
        assert "corner" in d.reason or "diagonal" in d.reason

    def test_diagonal_reader_allowed_on_one_cut_dim(self):
        # with a single cut dimension there are no corner transfers, so
        # the nine-point stencil overlaps safely
        acfd = AutoCFD.from_source(kernels.jacobi_9pt())
        plan = acfd.compile(partition=(2, 1)).plan
        assert decision(plan, 1).enabled

    def test_scalar_read_after_nest_refused(self):
        # i's exit value changes when the nest is split; reading it
        # right after the nest must refuse the overlap
        src = JACOBI_SRC.replace(
            "    end do\n"
            "    do i = 2, n - 1\n"
            "      do j = 2, m - 1\n"
            "        v(i, j) = vnew(i, j)",
            "    end do\n"
            "    err = err + i\n"
            "    do i = 2, n - 1\n"
            "      do j = 2, m - 1\n"
            "        v(i, j) = vnew(i, j)")
        assert "err = err + i" in src
        plan, text = compiled(src, (2, 1))
        d = decision(plan, 1)
        assert not d.enabled
        assert "'i'" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_scalar_killed_by_later_loop_is_not_live(self):
        # the copy nest reassigns i/j before this read — the kill
        # semantics must not false-positive on it
        src = JACOBI_SRC.replace("    if (err .lt. eps) exit",
                                 "    err = err + i\n"
                                 "    if (err .lt. eps) exit")
        plan, _ = compiled(src, (2, 1))
        assert decision(plan, 1).enabled

    def test_every_sync_gets_a_decision(self):
        plan, _ = compiled(JACOBI_SRC, (2, 1))
        assert {d.sync_id for d in plan.overlap_decisions} \
            == {s.sync_id for s in plan.syncs}
        for d in plan.overlap_decisions:
            assert d.enabled or d.reason


class TestReportAndPlan:
    def test_report_counts_and_refusals(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        report = acfd.compile(partition=(2, 1)).report
        assert report.overlap_syncs == 1
        assert all(reason for _sid, reason in report.overlap_refusals)
        d = report.to_dict()
        assert d["overlap_syncs"] == 1
        assert d["overlap_refusals"][0]["reason"]

    def test_plan_overlap_enabled_query(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        plan = acfd.compile(partition=(2, 1)).plan
        assert plan.overlap_enabled(1)
        assert not plan.overlap_enabled(2)
        assert not plan.overlap_enabled(999)


class TestMpiFortranArtifact:
    def test_overlapped_sync_prints_nonblocking_wrappers(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        result = acfd.compile(partition=(2, 1))
        text = result.mpi_source()
        assert "subroutine acfd_exchange_begin_1(v)" in text
        assert "subroutine acfd_exchange_finish_1(v)" in text
        assert "mpi_irecv" in text
        assert "mpi_isend" in text
        assert "mpi_waitall" in text
        # the non-overlapped sync keeps the blocking sendrecv wrapper
        assert "subroutine acfd_exchange_2(" in text
        assert "mpi_sendrecv" in text

    def test_blocking_mode_prints_only_sendrecv(self):
        acfd = AutoCFD.from_source(JACOBI_SRC)
        result = acfd.compile(partition=(2, 1), overlap="off")
        text = result.mpi_source()
        assert "mpi_isend" not in text
        assert "mpi_waitall" not in text


class TestInterprocedural:
    """Split around a call: begin / callee_int / finish / callee_bnd."""

    def test_call_site_splits_into_specialized_invocations(self):
        plan, text = compiled(kernels.jacobi_5pt_sub(n=12, m=8, iters=6),
                              (2, 2))
        d = decision(plan, 1)
        assert d.enabled and d.callee == "relaxx"
        at = [text.index(s) for s in (
            "call acfd_exchange_begin(1, v)",
            "call relaxx_acfd_int()",
            "call acfd_exchange_finish(1, v)",
            "call relaxx_acfd_bnd()")]
        assert at == sorted(at)
        assert "subroutine relaxx_acfd_int" in text
        assert "subroutine relaxx_acfd_bnd" in text

    def test_reduction_init_runs_once_and_allreduce_lands_in_boundary(self):
        # err = 0.0 must execute only in the interior specialization
        # (re-running it in _bnd would discard the interior's partial
        # max); the allreduce finalization must wait for the strips
        _plan, text = compiled(kernels.jacobi_5pt_sub(n=12, m=8, iters=6),
                               (2, 2))
        units = {name: text.split(f"subroutine {name}()", 1)[1]
                 .split("end subroutine", 1)[0]
                 for name in ("relaxx_acfd_int", "relaxx_acfd_bnd")}
        assert "err = 0.0" in units["relaxx_acfd_int"]
        assert "err = 0.0" not in units["relaxx_acfd_bnd"]
        assert "acfd_allreduce_max" not in units["relaxx_acfd_int"]
        assert units["relaxx_acfd_bnd"].rstrip() \
            .endswith("err = acfd_allreduce_max(err)")

    def test_multi_site_callee_refused(self):
        src = kernels.jacobi_5pt_sub(n=12, m=8, iters=6).replace(
            "    call relaxx()\n    call relaxy()",
            "    call relaxx()\n    call relaxx()\n    call relaxy()")
        plan, text = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled and d.callee == "relaxx"
        assert "2 static call sites" in d.reason
        assert "relaxx_acfd_int" not in text

    def test_status_array_actual_argument_refused(self):
        # passing a halo array by argument aliases it under a second
        # name inside the callee — the footprint summary can't see
        # through that, so the split must refuse
        src = kernels.jacobi_5pt_sub(n=12, m=8, iters=6)
        src = src.replace("    call relaxx()", "    call relaxx(v)")
        src = src.replace(
            "subroutine relaxx()\n  implicit none\n"
            "  integer n, m, i, j\n  parameter (n = 12, m = 8)",
            "subroutine relaxx(w)\n  implicit none\n"
            "  integer n, m, i, j\n  parameter (n = 12, m = 8)\n"
            "  real w(n, m)")
        plan, text = compiled(src, (2, 2))
        d = decision(plan, 1)
        assert not d.enabled
        assert "status array 'v' is passed" in d.reason
        assert "acfd_exchange_begin" not in text

    def test_report_carries_callee_in_decisions(self):
        acfd = AutoCFD.from_source(kernels.jacobi_5pt_sub(n=12, m=8,
                                                          iters=6))
        report = acfd.compile(partition=(2, 2)).report
        decisions = report.to_dict()["overlap_decisions"]
        hit = next(d for d in decisions if d["enabled"])
        assert hit["callee"] == "relaxx"

    def test_mpi_artifact_notes_the_interprocedural_split(self):
        acfd = AutoCFD.from_source(kernels.jacobi_5pt_sub(n=12, m=8,
                                                          iters=6))
        text = acfd.compile(partition=(2, 2)).mpi_source()
        assert ("c  interprocedural split: interior runs as "
                "relaxx_acfd_int, boundary as relaxx_acfd_bnd") in text
        assert "subroutine relaxx_acfd_int" in text
        assert "subroutine relaxx_acfd_bnd" in text


# -- the gate reads ``NestFacts.ok``, not "the vectorizer takes it" -----------------
#
# A direction-split sweep is partly vectorized (scalar carried loop around
# slabs), but its nest is not order-independent: splitting it into an
# interior and strips would reorder the carried dependence.

YSWEEP_SRC = """\
!$acfd status v, w
!$acfd grid 12 8
!$acfd frame iter
program ysweep
  implicit none
  integer n, m, i, j, iter
  parameter (n = 12, m = 8)
  real v(n, m), w(n, m)
  do i = 1, n
    do j = 1, m
      v(i, j) = 0.1 * float(i + 3 * j)
      w(i, j) = 0.5
    end do
  end do
  do iter = 1, 4
    do i = 1, n
      do j = 1, m
        w(i, j) = 0.5 * v(i, j) + 0.1
      end do
    end do
    do i = 2, n - 1
      do j = 2, m - 1
        v(i, j) = 0.4 * (v(i, j-1) + v(i, j+1)) &
          + 0.1 * (w(i-1, j) + w(i+1, j))
      end do
    end do
  end do
  write (6, *) v(2, 2)
end program ysweep
"""


class TestPartialVectorGate:
    def test_exchange_before_direction_split_sweep_refuses(self):
        from repro.interp.vectorize import survey
        compiled_ = AutoCFD.from_source(YSWEEP_SRC).compile(
            partition=(2, 1))
        d = decision(compiled_.plan, 1)
        assert not d.enabled
        assert d.reason == ("consumer nest is not provably "
                            "order-independent: loop-carried dependence "
                            "on v (carried by j)")
        # ... although the vectorizer does take that nest (partly)
        _vec, fallback, reasons = survey(compiled_.spmd_cu)
        assert fallback == 1, reasons  # the frame loop only

    def test_app_overlap_decisions_pinned(self):
        from repro.apps.aerofoil import aerofoil_source
        from repro.apps.sprayer import sprayer_source
        for src, dims, enabled, total in (
                (aerofoil_source(64, 24, 8, iters=1, eps=0.0), (2, 1, 1),
                 {5, 8}, 8),
                (sprayer_source(300, 100, iters=2, eps=0.0), (2, 1),
                 {1, 2, 3, 4, 5, 6}, 7)):
            plan = AutoCFD.from_source(src).compile(partition=dims).plan
            assert len(plan.overlap_decisions) == total
            assert {d.sync_id for d in plan.overlap_decisions
                    if d.enabled} == enabled
