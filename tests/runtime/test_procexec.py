"""Process executor: the Communicator contract across real OS processes.

The thread executor's guarantees — failure propagation with rank
attribution, deadlock diagnosis naming the wait-for cycle, bounded joins
that name stuck ranks, executor-agnostic traces — must survive the jump
to one-process-per-rank, where a "stuck rank" can be a SIGKILLed worker
and every payload crosses a pickle boundary.

Rank bodies here are module-level functions: the process executor pickles
them to the workers (closures are rejected with a clear error, which is
itself under test).
"""

import os
import time

import numpy as np
import pytest

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import CartComm, HaloExchanger, HaloSpec, shared_pool
from repro.runtime.procexec import get_pool, proc_run
from repro.runtime.trace import Trace
from repro.runtime.world import spmd_run


# -- module-level rank bodies (picklable) ------------------------------------

def _pingpong(comm):
    if comm.rank == 0:
        comm.send(1, {"n": 41})
        return comm.recv(1)
    msg = comm.recv(0)
    comm.send(0, msg["n"] + 1)
    return "pong"


def _collectives(comm):
    total = comm.allreduce(comm.rank + 1)
    gathered = comm.gather(comm.rank * 10, root=0)
    comm.barrier()
    seeded = comm.bcast(99 if comm.rank == 0 else None, root=0)
    return total, gathered, seeded


def _halo_move(comm):
    field = np.full((32, 16), float(comm.rank + 1))
    peer = 1 - comm.rank
    faces = [np.ascontiguousarray(field[0]),
             np.ascontiguousarray(field[-1])]
    comm.send(peer, faces, tag=3, move=True)
    got = comm.recv(peer, 3)
    return [f.tolist() for f in got]


def _big_move(comm):
    # a 320 KB payload: one pickled pipe message, no size cap
    peer = 1 - comm.rank
    block = np.arange(40_000, dtype=np.float64) + comm.rank
    comm.send(peer, block, tag=1, move=True)
    return float(comm.recv(peer, 1).sum())


def _pool_balance(comm):
    """Outstanding-buffer delta of this worker's pool over 10 halo
    exchanges and a one-way move loop (rank 0 -> rank 1)."""
    part = Partition(GridGeometry((16, 8)), (2, 1))
    sub = part.subgrid(comm.rank)
    field = OffsetArray.from_bounds(
        ghost_bounds(part, comm.rank, (0, 1), [(1, 16), (1, 8)],
                     GhostSpec(((1, 1), (1, 1)))), name="v")
    halo = HaloExchanger(CartComm(comm, (2, 1)),
                         [HaloSpec(field, (0, 1), sub.owned,
                                   ((1, 1), (1, 1)))])
    pool = shared_pool()
    before = pool.stats()["outstanding"]
    for _ in range(10):
        halo.exchange()
    for i in range(5):
        if comm.rank == 0:
            buf = pool.acquire((64,), np.float64)
            buf[:] = i
            comm.send(1, buf, tag=7, move=True)
        else:
            pool.release(comm.recv(0, 7))
    return pool.stats()["outstanding"] - before


def _boom(comm):
    if comm.rank == 1:
        raise ValueError("kaboom")
    comm.barrier()


def _cycle(comm):
    comm.recv((comm.rank + 1) % comm.size)


def _suicide(comm):
    if comm.rank == 0:
        os.kill(os.getpid(), 9)
    comm.recv(0)


def _spin_then_die(comm):
    if comm.rank == 0:
        raise RuntimeError("first failure")
    while True:  # compute-only: never observes the world failure
        time.sleep(0.01)


def _traced(comm):
    peer = 1 - comm.rank
    comm.send(peer, comm.rank, tag=1)
    comm.recv(peer, 1)
    time.sleep(0.01)
    return comm.rank


class TestHappyPath:
    def test_pingpong_and_result_collection(self):
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_collectives_match_thread_executor(self):
        thread = spmd_run(4, _collectives, timeout=15.0)
        proc = spmd_run(4, _collectives, timeout=15.0,
                        executor="process")
        assert proc.results == thread.results

    def test_move_payloads_cross_the_pipe(self):
        w = proc_run(2, _halo_move, timeout=15.0)
        # each rank receives its peer's faces, bit-for-bit
        assert w.results[0] == [[2.0] * 16, [2.0] * 16]
        assert w.results[1] == [[1.0] * 16, [1.0] * 16]

    def test_large_move_crosses_the_pipe(self):
        base = float(np.arange(40_000, dtype=np.float64).sum())
        w = proc_run(2, _big_move, timeout=15.0)
        assert w.results == [base + 40_000, base]

    def test_move_sends_keep_the_pool_books_balanced(self):
        # the pickle is the copy: each sender hands its packed buffers
        # back, so no worker's pool counts them as outstanding
        w = proc_run(2, _pool_balance, timeout=15.0)
        assert w.results == [0, 0]

    def test_pool_is_reused_across_runs(self):
        proc_run(2, _pingpong, timeout=15.0)
        pids = [w.process.pid for w in get_pool(2).workers]
        proc_run(2, _pingpong, timeout=15.0)
        assert [w.process.pid for w in get_pool(2).workers] == pids

    def test_dispatch_through_spmd_run(self):
        w = spmd_run(2, _pingpong, timeout=15.0, executor="process")
        assert w.results == [42, "pong"]
        with pytest.raises(RuntimeCommError, match="unknown executor"):
            spmd_run(2, _pingpong, executor="fiber")


class TestFailures:
    def test_failure_propagates_with_rank_attribution(self):
        with pytest.raises(RuntimeCommError,
                           match="rank 1 failed: ValueError: kaboom"):
            proc_run(2, _boom, timeout=10.0)

    def test_deadlock_diagnosis_names_the_cycle(self):
        with pytest.raises(RuntimeDeadlockError) as exc_info:
            proc_run(2, _cycle, timeout=60.0)
        msg = str(exc_info.value)
        assert "wait-for cycle" in msg
        assert "rank 0 -> rank 1 -> rank 0" in msg
        # and it came from detection, not the 60 s watchdog

    def test_sigkilled_worker_is_detected_and_named(self):
        with pytest.raises(RuntimeCommError) as exc_info:
            proc_run(2, _suicide, timeout=5.0)
        msg = str(exc_info.value)
        assert "rank 0" in msg
        assert "died without reporting" in msg

    def test_pool_recovers_after_a_worker_death(self):
        with pytest.raises(RuntimeCommError):
            proc_run(2, _suicide, timeout=5.0)
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_stuck_compute_rank_is_killed_and_named(self):
        t0 = time.monotonic()
        with pytest.raises(RuntimeCommError) as exc_info:
            proc_run(2, _spin_then_die, timeout=1.5)
        msg = str(exc_info.value)
        assert "rank(s) 1" in msg and "did not stop" in msg
        assert "rank 0" in msg and "first failure" in msg
        assert time.monotonic() - t0 < 30.0
        # the spinner was killed, not leaked: the pool respawns it
        w = proc_run(2, _pingpong, timeout=15.0)
        assert w.results == [42, "pong"]

    def test_unpicklable_body_is_rejected_eagerly(self):
        captured = {}
        with pytest.raises(RuntimeCommError, match="picklable"):
            proc_run(2, lambda comm: captured, timeout=5.0)


class TestTraceMerge:
    def test_worker_events_land_on_the_callers_clock(self):
        trace = Trace()
        w = spmd_run(2, _traced, timeout=15.0, trace=trace,
                     executor="process")
        assert w.results == [0, 1]
        events = trace.snapshot()
        kinds = {e.kind for e in events}
        assert {"send", "recv", "rank"} <= kinds
        assert {e.rank for e in events if e.kind == "rank"} == {0, 1}
        for e in events:
            assert e.t0 >= 0.0, f"{e.kind} landed before the epoch"
            assert e.t1 >= e.t0, f"{e.kind} span runs backwards"
        # rank envelopes cover the bodies' sleeps on the merged clock
        env = {e.rank: e for e in events if e.kind == "rank"}
        assert env[0].dur >= 0.01 and env[1].dur >= 0.01

    def test_crashed_rank_still_ships_its_trace(self):
        trace = Trace()
        with pytest.raises(RuntimeCommError):
            spmd_run(2, _boom, timeout=10.0, trace=trace,
                     executor="process")
        envelopes = {e.rank for e in trace.snapshot()
                     if e.kind == "rank"}
        assert 1 in envelopes, "the failing rank's envelope was lost"
