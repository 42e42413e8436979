"""Semantic equivalence: every kernel, sequential vs parallel, bitwise.

This is the system's central correctness claim: the generated SPMD
program, run on the in-process message-passing runtime, reproduces the
sequential program's status arrays exactly — Jacobi-type loops because
each point is computed from identical inputs, and pipelined Gauss-Seidel
loops because mirror-image decomposition preserves the sequential update
order.
"""

import numpy as np
import pytest

import repro.apps.kernels as K
from repro.core import AutoCFD

KERNELS_2D = [
    ("jacobi_5pt", dict(n=18, m=12, iters=30)),
    ("jacobi_9pt", dict(n=18, m=12, iters=20)),
    ("gauss_seidel_2d", dict(n=16, m=12, iters=25)),
    ("sor_2d", dict(n=16, m=12, iters=25)),
    ("redblack_2d", dict(n=16, m=12, iters=20)),
    ("line_sweep_x", dict(n=18, m=10, iters=15)),
]

PARTITIONS_2D = [(2, 1), (1, 2), (2, 2), (3, 1), (4, 1), (2, 3)]


@pytest.mark.parametrize("kernel,params", KERNELS_2D,
                         ids=[k for k, _ in KERNELS_2D])
@pytest.mark.parametrize("partition", PARTITIONS_2D,
                         ids=["x".join(map(str, p)) for p in PARTITIONS_2D])
def test_kernel_parallel_equals_sequential(kernel, params, partition):
    src = getattr(K, kernel)(**params)
    acfd = AutoCFD.from_source(src)
    seq = acfd.run_sequential()
    result = acfd.compile(partition=partition).run_parallel()
    assert result.output() == seq.io.output()
    for name in acfd.directives.status_arrays:
        assert np.array_equal(result.array(name).data,
                              seq.array(name).data), \
            f"{kernel} {partition}: array {name!r} differs"


@pytest.mark.parametrize("partition", [(2, 1, 1), (1, 2, 1), (1, 1, 2),
                                       (2, 2, 1), (2, 1, 2), (2, 2, 2)],
                         ids=lambda p: "x".join(map(str, p)))
def test_heat3d_parallel_equals_sequential(partition):
    src = K.heat_3d(n=10, m=8, l=6, iters=15)
    acfd = AutoCFD.from_source(src)
    seq = acfd.run_sequential()
    result = acfd.compile(partition=partition).run_parallel()
    assert result.output() == seq.io.output()
    assert np.array_equal(result.array("u").data, seq.array("u").data)


class TestTraceCrossCheck:
    """The runtime must perform exactly the planned synchronizations."""

    def test_exchange_count_matches_plan(self):
        src = K.jacobi_5pt(n=14, m=10, iters=7, eps=0.0)
        acfd = AutoCFD.from_source(src)
        compiled = acfd.compile(partition=(2, 1))
        result = compiled.run_parallel()
        # exchanges per rank = init-section syncs once + frame syncs per
        # frame; bound it by plan counts
        frames = 7
        per_rank = result.trace.count("exchange", rank=0)
        n_syncs = len(compiled.plan.syncs)
        assert 0 < per_rank <= n_syncs * (frames + 1)
        # all ranks perform the same number of exchanges
        assert result.trace.count("exchange", rank=1) == per_rank

    def test_pipeline_messages_present_for_seidel(self):
        src = K.gauss_seidel_2d(n=12, m=8, iters=5, eps=0.0)
        acfd = AutoCFD.from_source(src)
        result = acfd.compile(partition=(2, 1)).run_parallel()
        assert result.trace.count("pipeline_send", rank=0) > 0

    def test_pipeline_markers_are_not_counted_as_sends(self):
        # 4 frames on 2x1: 20 real sends, each pipelined one shadowed by
        # a pipeline_send marker (4) that must not count twice
        src = K.gauss_seidel_2d(n=12, m=8, iters=4, eps=0.0)
        trace = AutoCFD.from_source(src).compile(
            partition=(2, 1)).run_parallel().trace
        assert trace.count("pipeline_send") == 4
        assert trace.comm_stats()["sends"] == 20
        assert len(trace.messages()) == 20
        assert trace.bytes_sent() == sum(e.nbytes for e in trace.snapshot()
                                         if e.kind == "send")

    def test_no_pipeline_for_jacobi(self):
        src = K.jacobi_5pt(n=14, m=10, iters=5, eps=0.0)
        acfd = AutoCFD.from_source(src)
        result = acfd.compile(partition=(2, 1)).run_parallel()
        assert result.trace.count("pipeline_send") == 0


class TestCombiningDoesNotChangeResults:
    def test_with_and_without_combining(self):
        src = K.jacobi_5pt(n=14, m=10, iters=10)
        acfd = AutoCFD.from_source(src)
        with_c = acfd.compile(partition=(2, 2), combine=True)
        without_c = acfd.compile(partition=(2, 2), combine=False)
        assert len(without_c.plan.syncs) >= len(with_c.plan.syncs)
        a = with_c.run_parallel()
        b = without_c.run_parallel()
        assert np.array_equal(a.array("v").data, b.array("v").data)
