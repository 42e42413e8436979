"""Cartesian topology, world failure handling, and trace accounting."""

import pytest

from repro.errors import RuntimeCommError
from repro.runtime import CartComm, Trace, spmd_run


class TestCart:
    def test_coords_roundtrip(self):
        def body(comm):
            cart = CartComm(comm, (2, 3))
            assert cart.rank_of(cart.coords) == comm.rank
            return cart.coords

        w = spmd_run(6, body)
        assert w.results[0] == (0, 0)
        assert w.results[1] == (0, 1)
        assert w.results[3] == (1, 0)
        assert w.results[5] == (1, 2)

    def test_neighbors_non_periodic(self):
        def body(comm):
            cart = CartComm(comm, (3,))
            return cart.shift(0, 1)

        w = spmd_run(3, body)
        assert w.results == [(None, 1), (0, 2), (1, None)]

    def test_neighbors_list(self):
        def body(comm):
            cart = CartComm(comm, (2, 2))
            return sorted(cart.neighbors())

        w = spmd_run(4, body)
        # corner rank 0 has neighbors along both dims
        assert w.results[0] == [(0, 1, 2), (1, 1, 1)]

    def test_size_mismatch(self):
        def body(comm):
            CartComm(comm, (2, 2))

        with pytest.raises(RuntimeCommError):
            spmd_run(2, body)

    def test_bad_coords(self):
        def body(comm):
            cart = CartComm(comm, (2,))
            cart.rank_of((5,))

        with pytest.raises(RuntimeCommError):
            spmd_run(2, body)


class TestWorld:
    def test_results_in_rank_order(self):
        w = spmd_run(4, lambda comm: comm.rank * 2)
        assert w.results == [0, 2, 4, 6]

    def test_single_rank(self):
        w = spmd_run(1, lambda comm: comm.size)
        assert w.results == [1]

    def test_zero_size_rejected(self):
        with pytest.raises(RuntimeCommError):
            spmd_run(0, lambda comm: None)

    def test_exception_propagates_with_rank(self):
        def body(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeCommError) as exc_info:
            spmd_run(3, body, timeout=2.0)
        assert "rank 2" in str(exc_info.value)
        assert "boom" in str(exc_info.value)

    def test_failure_wakes_blocked_receivers(self):
        def body(comm):
            if comm.rank == 0:
                raise RuntimeError("dead")
            comm.recv(0)  # would block forever without failure signal

        with pytest.raises(RuntimeCommError):
            spmd_run(2, body, timeout=30.0)


class TestTrace:
    def test_counts(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, b"xxxx")
            else:
                comm.recv(0)
            comm.barrier()
            comm.allreduce(1.0, "sum")

        w = spmd_run(2, body)
        t = w.trace
        assert t.count("send", rank=0) == 1
        assert t.count("recv", rank=1) == 1
        assert t.count("barrier") == 2
        assert t.count("allreduce") == 2

    def test_bytes_sent(self):
        import numpy as np

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(10))
            else:
                comm.recv(0)

        w = spmd_run(2, body)
        assert w.trace.bytes_sent(rank=0) == 80

    def test_sync_count(self):
        def body(comm):
            comm.barrier()
            comm.allreduce(1, "max")

        w = spmd_run(2, body)
        assert w.trace.sync_count(rank=0) == 2

    def test_sync_count_includes_gather_scatter_allgather(self):
        """Regression: gathers, scatters, and allgathers are Table-1
        synchronizations too — sync_count used to miss all three."""
        def body(comm):
            comm.gather(comm.rank, root=0)
            comm.scatter(list(range(comm.size)) if comm.rank == 0 else None,
                         root=0)
            comm.allgather(comm.rank)

        w = spmd_run(2, body)
        assert w.trace.sync_count(rank=0) == 3
        assert w.trace.sync_count() == 6

    def test_comm_stats_syncs_by_kind(self):
        def body(comm):
            comm.barrier()
            comm.gather(comm.rank, root=0)
            comm.allgather(comm.rank)

        w = spmd_run(2, body)
        stats = w.trace.comm_stats()
        assert stats["syncs_by_kind"] == {"barrier": 2, "gather": 2,
                                          "allgather": 2}
        assert stats["syncs"] == 6

    def test_allgather_traced_as_one_sync(self):
        """An allgather is one synchronization, not a gather + a bcast."""
        def body(comm):
            return comm.allgather(comm.rank)

        w = spmd_run(3, body)
        assert w.results == [[0, 1, 2]] * 3
        assert w.trace.count("allgather", rank=0) == 1
        assert w.trace.count("gather") == 0
        assert w.trace.count("bcast") == 0

    def test_span_timestamps_on_events(self):
        """Every traced operation carries a begin/end interval."""
        def body(comm):
            if comm.rank == 0:
                comm.send(1, [1.0] * 100)
            else:
                comm.recv(0)
            comm.barrier()

        w = spmd_run(2, body)
        for e in w.trace.snapshot():
            assert e.t1 >= e.t0 >= 0.0
        recv = [e for e in w.trace.snapshot() if e.kind == "recv"][0]
        assert recv.dur >= recv.wait_s >= 0.0

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)

        def body(comm):
            comm.barrier()
            comm.allreduce(1, "sum")

        spmd_run(2, body, trace=trace)
        assert trace.events == []
        assert trace.comm_stats()["syncs"] == 0

    def test_external_trace_object(self):
        trace = Trace()
        spmd_run(2, lambda comm: comm.barrier(), trace=trace)
        assert trace.count("barrier") == 2

    def test_clear(self):
        trace = Trace()
        trace.absorb([(0, "send", 1, 8, None, 0, 0, 0)])
        trace.clear()
        assert trace.events == []

    def test_wait_time_recorded_for_blocked_recv(self):
        import time

        def body(comm):
            if comm.rank == 0:
                time.sleep(0.08)
                comm.send(1, 1)
                return None
            return comm.recv(0)

        w = spmd_run(2, body)
        assert w.trace.wait_time(rank=1) >= 0.05
        assert w.trace.wait_time(rank=0) < 0.05

    def test_saved_bytes_zero_for_plain_sends(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(1, [1, 2, 3])
            else:
                comm.recv(0)

        w = spmd_run(2, body)
        assert w.trace.saved_bytes() == 0

    def test_comm_stats_aggregates(self):
        import numpy as np

        def body(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(10))
            else:
                comm.recv(0)
            comm.barrier()

        w = spmd_run(2, body)
        stats = w.trace.comm_stats()
        assert stats["sends"] == 1
        assert stats["bytes_sent"] == 80
        assert stats["syncs"] == 2
        assert stats["wait_s"] >= 0.0
        assert stats["saved_bytes"] == 0
