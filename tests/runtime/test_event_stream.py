"""One event stream, one clock: what the runtime's single per-rank event
sink (``Communicator.emit``) guarantees.

* Every stamp is ``perf_counter_ns`` on the system-wide monotonic
  clock, so a process worker's records land inside the launcher's own
  before/after window with no rebasing.
* With telemetry attached, the flight ring receives the very records
  the trace gets, so each rank's ring tail is the last N of its trace
  records, field for field, on both executors.
"""

import time

import pytest

from repro.apps.kernels import jacobi_5pt
from repro.core import AutoCFD
from repro.obs.health import Telemetry
from repro.runtime import Trace, spmd_run

#: a small ring, so every run below wraps it
SLOTS = 16


def _chatty(comm):
    """Point-to-point traffic plus a barrier and a collective
    (module-level: the process executor pickles it)."""
    peer = 1 - comm.rank
    for i in range(12):
        comm.send(peer, float(i), tag=i)
        comm.recv(peer, tag=i)
    comm.barrier()
    comm.allreduce(comm.rank, "sum")
    return comm.rank


def _assert_ring_tails_are_trace_tails(tails, records, size):
    for rank in range(size):
        mine = [rec for rec in records if rec[0] == rank]
        tail = tails[rank]
        assert len(mine) > SLOTS, "the run must wrap the ring"
        assert len(tail) == SLOTS
        assert [(e.kind, e.peer, e.nbytes, e.tag, e.extra, e.t0_ns,
                 e.t1_ns) for e in tail] == \
            [rec[1:] for rec in mine[-SLOTS:]]


class TestOneClock:
    def test_worker_records_land_inside_the_launchers_window(self):
        trace = Trace()
        before = time.perf_counter_ns()
        w = spmd_run(2, _chatty, timeout=15.0, trace=trace,
                     executor="process")
        after = time.perf_counter_ns()
        assert w.results == [0, 1]
        assert {rec[0] for rec in trace.events} == {0, 1}
        for rec in trace.events:
            assert before <= rec[6] <= rec[7] <= after, rec

    def test_absorb_respects_disabled_traces(self):
        trace = Trace(enabled=False)
        trace.absorb([(0, "send", 1, 8, None, 0, 1, 2)])
        assert trace.events == []


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestOneSink:
    def test_ring_tail_is_the_trace_tail(self, executor):
        tele = Telemetry(2, shared=executor == "process", slots=SLOTS)
        trace = Trace()
        try:
            spmd_run(2, _chatty, timeout=15.0, trace=trace,
                     executor=executor, telemetry=tele)
            tails = tele.tails()
        finally:
            tele.close()
        _assert_ring_tails_are_trace_tails(tails, trace.events, 2)

    def test_generated_program_ring_tail_is_the_trace_tail(self,
                                                           executor):
        compiled = AutoCFD.from_source(
            jacobi_5pt(n=24, m=16, iters=6, eps=0.0)).compile(
                partition=(2, 1))
        tele = Telemetry(2, shared=executor == "process", slots=SLOTS)
        try:
            par = compiled.run_parallel(executor=executor, telemetry=tele)
            tails = tele.tails()
        finally:
            tele.close()
        records = par.trace.events
        assert {"frame", "exchange", "halo_pack", "halo_unpack",
                "rank"} <= {rec[1] for rec in records}
        _assert_ring_tails_are_trace_tails(tails, records, 2)
