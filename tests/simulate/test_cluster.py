"""Cluster simulation: scaling behavior and model effects."""

import pytest

from repro.apps.sprayer import sprayer_source
from repro.bench.drift import HOST_MACHINE, HOST_NETWORK
from repro.core import AutoCFD
from repro.errors import SimulationError
from repro.obs.health import Telemetry
from repro.simulate import ClusterSim, MachineModel, NodeModel, NetworkModel

from tests.conftest import JACOBI_SRC, SEIDEL_SRC

FAST_NET = NetworkModel(latency=1e-6, bandwidth=1e12, shared_medium=False)
SLOW_NET = NetworkModel(latency=5e-3, bandwidth=1e5, shared_medium=True)
CPU = MachineModel(NodeModel(flop_time=1e-7, cache_bytes=1 << 30))


def sim_for(src, dims, machine=CPU, net=FAST_NET, chunks=8, **kw):
    plan = AutoCFD.from_source(src).compile(partition=dims).plan
    return ClusterSim(plan, machine=machine, network=net, chunks=chunks,
                      **kw)


class TestScalingSanity:
    def test_jacobi_near_linear_on_fast_network(self):
        t1 = sim_for(JACOBI_SRC, (1, 1)).run(50).total_time
        t2 = sim_for(JACOBI_SRC, (2, 1)).run(50).total_time
        t4 = sim_for(JACOBI_SRC, (2, 2)).run(50).total_time
        assert t1 / t2 == pytest.approx(2.0, rel=0.2)
        assert t1 / t4 == pytest.approx(4.0, rel=0.3)

    def test_slow_network_hurts(self):
        fast = sim_for(JACOBI_SRC, (2, 2), net=FAST_NET).run(50)
        slow = sim_for(JACOBI_SRC, (2, 2), net=SLOW_NET).run(50)
        assert slow.total_time > fast.total_time
        assert max(slow.comm_time) > max(fast.comm_time)

    def test_pipelined_seidel_serializes_with_barriers(self):
        # whole-face pipelining + barrier syncs: the self-dependent sweep
        # gives almost no speedup
        t1 = sim_for(SEIDEL_SRC, (1, 1), chunks=1).run(50).total_time
        t4 = sim_for(SEIDEL_SRC, (4, 1), chunks=1,
                     barrier_syncs=True).run(50).total_time
        assert t1 / t4 < 2.0  # far below the 4x a Jacobi loop would get

    def test_chunking_improves_pipeline(self):
        coarse = sim_for(SEIDEL_SRC, (4, 1), chunks=1).run(50).total_time
        fine = sim_for(SEIDEL_SRC, (4, 1), chunks=8).run(50).total_time
        assert fine <= coarse

    def test_pipe_wait_attributed(self):
        s = sim_for(SEIDEL_SRC, (4, 1), chunks=1).run(20)
        assert max(s.pipe_wait) > 0.0


class TestMemoryEffects:
    def test_cache_superlinearity(self):
        machine = MachineModel(NodeModel(flop_time=1e-7,
                                         cache_bytes=1 << 10,
                                         knee_bytes=2 << 10,
                                         knee_penalty=3.0))
        t1 = sim_for(JACOBI_SRC, (1, 1), machine=machine).run(40).total_time
        t4 = sim_for(JACOBI_SRC, (2, 2), machine=machine).run(40).total_time
        assert t1 / t4 > 4.0  # superlinear

    def test_oom_reported(self):
        machine = MachineModel(NodeModel(mem_bytes=1 << 10))
        s = sim_for(JACOBI_SRC, (1, 1), machine=machine).run(5)
        assert s.any_oom
        assert s.oom_ranks == [0]

    def test_working_set_shrinks_with_ranks(self):
        s1 = sim_for(JACOBI_SRC, (1, 1)).run(2)
        s4 = sim_for(JACOBI_SRC, (2, 2)).run(2)
        assert max(s4.working_set) < s1.working_set[0]


class TestExtrapolation:
    def test_long_runs_extrapolated_consistently(self):
        sim = sim_for(JACOBI_SRC, (2, 1))
        t100 = sim_for(JACOBI_SRC, (2, 1)).run(100).total_time
        t200 = sim_for(JACOBI_SRC, (2, 1)).run(200).total_time
        # steady state: doubling frames roughly doubles time
        assert t200 / t100 == pytest.approx(2.0, rel=0.05)

    def test_zero_frames_rejected(self):
        with pytest.raises(SimulationError):
            sim_for(JACOBI_SRC, (2, 1)).run(0)

    def test_breakdown_sums_to_total(self):
        s = sim_for(JACOBI_SRC, (2, 1), net=SLOW_NET).run(60)
        for r in range(2):
            parts = s.compute_time[r] + s.comm_time[r] + s.pipe_wait[r]
            assert parts == pytest.approx(s.per_rank[r], rel=0.05)


class TestFaultModeling:
    def _plan(self, *events):
        from repro.faults import FaultEvent, FaultPlan
        return FaultPlan(events=[FaultEvent(*e[:2], **e[2]) for e in events],
                         seed=0)

    def test_straggler_charges_the_afflicted_rank(self):
        plan = self._plan(("straggler", 1, dict(frame=2, frames=3,
                                                seconds=0.2)))
        clean = sim_for(JACOBI_SRC, (2, 1)).run(10)
        hurt = sim_for(JACOBI_SRC, (2, 1), faults=plan).run(10)
        assert hurt.fault_time[1] == pytest.approx(0.6, rel=0.01)
        assert hurt.fault_time[0] == 0.0
        assert hurt.total_time > clean.total_time

    def test_crash_stalls_the_whole_world(self):
        plan = self._plan(("crash", 0, dict(frame=4)))
        sim = sim_for(JACOBI_SRC, (2, 1), faults=plan, restart_cost=1.0,
                      record_timeline=True)
        out = sim.run(10)
        # restart + replay downtime is global: every rank loses time
        assert all(f >= 1.0 for f in out.fault_time)
        assert any(s.cat == "fault" for s in out.spans)

    def test_faulted_runs_are_never_extrapolated(self):
        plan = self._plan(("straggler", 0, dict(frame=90, frames=1,
                                                seconds=0.5)))
        # a fault in the extrapolated tail must still be simulated
        out = sim_for(JACOBI_SRC, (2, 1), faults=plan).run(100)
        assert out.fault_time[0] == pytest.approx(0.5, rel=0.01)

    def test_rollup_carries_the_fault_column(self):
        plan = self._plan(("straggler", 0, dict(frame=1, frames=2,
                                                seconds=0.1)))
        out = sim_for(JACOBI_SRC, (2, 1), faults=plan).run(6)
        roll = out.rollup()
        assert roll.ranks[0].fault == pytest.approx(0.2, rel=0.01)
        assert roll.ranks[1].fault == 0.0


class TestResultHelpers:
    def test_speedup_and_efficiency(self):
        s = sim_for(JACOBI_SRC, (2, 1)).run(30)
        assert s.speedup(s.total_time * 2) == pytest.approx(2.0)
        assert s.efficiency(s.total_time * 2, 2) == pytest.approx(1.0)


class TestSimHealthSamples:
    def test_traffic_counters_scale_with_frames(self):
        short = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(4, warmup=4)
        long = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(8, warmup=8)
        assert sum(long.sent_bytes) == 2 * sum(short.sent_bytes)
        assert sum(long.recv_bytes) == sum(long.sent_bytes)
        assert all(n > 0 for n in long.sent_msgs)

    def test_extrapolated_frames_scale_traffic_exactly(self):
        explicit = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(40,
                                                             warmup=40)
        extrap = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(40, warmup=4)
        assert extrap.sent_bytes == explicit.sent_bytes
        assert extrap.recv_msgs == explicit.recv_msgs

    def test_health_samples_mirror_the_live_board_shape(self):
        out = sim_for(JACOBI_SRC, (2, 1), chunks=1).run(6)
        samples = out.health_samples()
        assert len(samples) == len(out.per_rank)
        for s in samples:
            assert s.state == "done"
            assert s.frame == 6
            assert s.sent_bytes == out.sent_bytes[s.rank]
            assert s.t_s == out.per_rank[s.rank]
        # row by row against a live board: its last frame mark is
        # 1-based, so 8 frames end on frame 8 on both sides
        compiled = AutoCFD.from_source(
            sprayer_source(n=60, m=24, iters=8, eps=0.0)).compile(
                partition=(2, 1))
        telemetry = Telemetry(2)
        try:
            compiled.run_parallel(input_text="2.5 30", telemetry=telemetry)
            board = telemetry.samples()
        finally:
            telemetry.close()
        sim = ClusterSim(compiled.plan, machine=HOST_MACHINE,
                         network=HOST_NETWORK, chunks=1)
        modeled = sim.run(8, warmup=8).health_samples()
        fields = ("rank", "state", "frame", "mailbox_depth", "ckpt_frame",
                  "sent_bytes", "recv_bytes", "sent_msgs", "recv_msgs")
        rows = [[tuple(getattr(s, f) for f in fields) for s in side]
                for side in (board, modeled)]
        assert rows[0] == rows[1]
        assert [s.frame for s in board] == [8, 8]
