"""Automated postmortems: classification, correlation, crash drills.

The ``livesmoke``-marked classes run real worlds on the process
executor — injected deadlocks and genuine ``SIGKILL`` deaths — and
assert the postmortem names the wait-for cycle, the dead rank, its
last heartbeat frame, the latest common checkpoint, and the neighbors'
flight tails salvaged from shared memory.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ReproError, RuntimeDeadlockError
from repro.obs.health import Telemetry
from repro.obs.postmortem import (
    build_postmortem,
    load_postmortem,
    render_postmortem,
    write_postmortem,
)
from repro.runtime import spmd_run

# -- rank bodies (module-level: the process executor pickles them) -----------------


def _deadlock_body(comm):
    """Ranks 0 and 1 wait on each other with nothing in flight."""
    comm.recv(source=1 - comm.rank, tag=9)


def _suicide_body(comm):
    """Rank 1 dies by real SIGKILL after a frame of useful work."""
    payload = np.zeros(16, dtype=np.float64)
    if comm.rank == 0:
        comm.send(1, payload, tag=2)
        comm.recv(source=1, tag=3)
    else:
        comm.recv(source=0, tag=2)
        os.kill(os.getpid(), signal.SIGKILL)


def _record(view, kind, peer=None, nbytes=0, tag=None, extra=0):
    """Feed *view* one trace record, as the rank's event sink does."""
    t = time.perf_counter_ns()
    view.record((view.rank, kind, peer, nbytes, tag, extra, t, t))


# -- classification over synthetic errors ------------------------------------------


class TestClassification:
    def _report(self, error, size=2, **kw):
        return build_postmortem(error=error, size=size, **kw)

    def test_deadlock_cycle_lifted_from_error_text(self):
        err = ReproError("deadlock detected: wait-for cycle rank 0 -> "
                         "rank 1 -> rank 0 (all blocked in recv)")
        rep = self._report(err)
        assert rep["cause"]["kind"] == "deadlock"
        assert rep["wait_cycle"] == [0, 1, 0]

    def test_worker_death_names_the_dead_rank(self):
        err = ReproError("rank 3 worker process died without reporting "
                         "(exit code -9; killed?)")
        rep = self._report(err, size=4)
        assert rep["cause"]["kind"] == "killed"
        assert rep["cause"]["rank"] == 3

    def test_injected_crash_names_rank_over_failed_wrapper(self):
        err = ReproError("rank 1 failed: InjectedFaultError: injected "
                         "crash on rank 1 at frame 8 (plan seed 0)")
        rep = self._report(err)
        assert rep["cause"]["kind"] == "crash"
        assert rep["cause"]["rank"] == 1

    def test_recovery_exhausted_supersedes_inner_cause(self):
        err = ReproError("recovery exhausted after 3 restarts; last "
                         "error: rank 0 failed: injected crash on "
                         "rank 0 at frame 2")
        rep = self._report(err)
        assert rep["cause"]["kind"] == "recovery-exhausted"
        assert rep["cause"]["rank"] == 0

    def test_plain_comm_error_is_comm(self):
        rep = self._report(ReproError("receive timed out"))
        assert rep["cause"]["kind"] == "comm"
        assert rep["cause"]["rank"] is None


class TestDocument:
    def test_write_load_round_trip_is_content_addressed(self, tmp_path):
        rep = build_postmortem(error=ReproError("boom"), size=2)
        path = write_postmortem(rep, str(tmp_path))
        assert os.path.basename(path).startswith("postmortem_")
        loaded = load_postmortem(path)
        assert loaded["cause"]["error"] == "boom"
        # identical content -> identical name (sha-addressed)
        assert write_postmortem(loaded, str(tmp_path)) == path

    def test_render_contains_all_sections(self):
        tele = Telemetry(2)
        view = tele.rank_view(1)
        view.start()
        _record(view, "frame", tag=4)
        _record(view, "checkpoint", tag=4)
        _record(view, "send", 0, 64, tag=1)
        err = ReproError("rank 1 worker process died without reporting")
        rep = build_postmortem(error=err, size=2, telemetry=tele)
        tele.close()
        text = render_postmortem(rep)
        assert "postmortem: killed in a 2-rank world" in text
        assert "dead rank 1" in text
        assert "last heartbeat frame 4" in text
        assert "last checkpoint 4" in text
        assert "neighbors [0]" in text
        assert "flight tail, rank 1" in text

    def test_divergence_and_frontier_from_heartbeat_frames(self):
        tele = Telemetry(3)
        for rank, frame in ((0, 7), (1, 4), (2, 7)):
            view = tele.rank_view(rank)
            view.start()
            _record(view, "frame", tag=frame)
        rep = build_postmortem(error=ReproError("x"), size=3,
                               telemetry=tele)
        tele.close()
        assert rep["divergence_frame"] == 4
        assert rep["frontier_frame"] == 7


class TestThreadDeadlock:
    def test_deadlock_postmortem_names_wait_cycle(self):
        tele = Telemetry(2)
        with pytest.raises(RuntimeDeadlockError) as exc_info:
            spmd_run(2, _deadlock_body, telemetry=tele, timeout=30.0)
        rep = build_postmortem(error=exc_info.value, size=2,
                               telemetry=tele)
        tele.close()
        assert rep["cause"]["kind"] == "deadlock"
        assert rep["wait_cycle"] in ([0, 1, 0], [1, 0, 1])
        # both ranks' boards ended blocked-or-failed, not done
        assert all(r["state"] in ("blocked", "failed")
                   for r in rep["ranks"])


@pytest.mark.livesmoke
class TestProcessDeadlock:
    def test_deadlock_postmortem_names_wait_cycle(self):
        tele = Telemetry(2, shared=True)
        try:
            with pytest.raises(RuntimeDeadlockError) as exc_info:
                spmd_run(2, _deadlock_body, executor="process",
                         telemetry=tele, timeout=30.0)
            rep = build_postmortem(error=exc_info.value, size=2,
                                   telemetry=tele)
            assert rep["cause"]["kind"] == "deadlock"
            assert rep["wait_cycle"] in ([0, 1, 0], [1, 0, 1])
        finally:
            tele.close()


@pytest.mark.livesmoke
class TestProcessSigkill:
    def test_real_sigkill_postmortem_from_shared_memory(self):
        """The corpse's final moments come out of shm, not cooperation."""
        tele = Telemetry(2, shared=True)
        try:
            with pytest.raises(ReproError) as exc_info:
                spmd_run(2, _suicide_body, executor="process",
                         telemetry=tele, timeout=30.0)
            rep = build_postmortem(error=exc_info.value, size=2,
                                   telemetry=tele)
            assert rep["cause"]["kind"] == "killed"
            dead = rep["dead_rank"]
            assert dead["rank"] == 1
            assert 0 in dead["neighbors"]
            # rank 1's recv before the kill survived in its flight ring
            kinds = [e["kind"] for e in rep["flight"]["1"]]
            assert "recv" in kinds
            # the survivor's tail shows it waiting on the corpse
            kinds0 = [e["kind"] for e in rep["flight"]["0"]]
            assert "send" in kinds0
        finally:
            tele.close()

    def test_injected_crash_via_run_recovered_writes_postmortem(
            self, tmp_path):
        """run_recovered on the process executor: the injected crash is
        a real SIGKILL; the autopsy names rank, heartbeat frame, and
        the latest common checkpoint."""
        from repro.core import AutoCFD
        from repro.faults import FaultEvent, FaultPlan, run_recovered

        from tests.conftest import JACOBI_SRC

        compiled = AutoCFD.from_source(JACOBI_SRC).compile(
            partition=(2, 1))
        plan = FaultPlan(events=[FaultEvent("crash", 1, frame=3)],
                         seed=0)
        pm_dir = tmp_path / "pm"
        with pytest.raises(ReproError) as exc_info:
            run_recovered(compiled.plan, compiled.spmd_cu,
                          fault_plan=plan, ckpt_dir=str(tmp_path),
                          recover=False, executor="process",
                          timeout=30.0, postmortem_dir=str(pm_dir))
        exc = exc_info.value
        rep = exc.postmortem
        assert rep["cause"]["kind"] == "crash"
        assert rep["cause"]["rank"] == 1
        dead = rep["dead_rank"]
        assert dead["rank"] == 1
        assert dead["last_frame"] == 3
        assert rep["checkpoint"]["latest_common_frame"] is not None
        assert rep["faults"] and rep["faults"][0]["kind"] == "crash"
        # the file landed where asked, named by content
        path = exc.postmortem_path
        assert os.path.dirname(path) == str(pm_dir)
        with open(path) as fh:
            assert json.load(fh)["cause"]["rank"] == 1


class TestRecoveredThreadPostmortem:
    def test_no_recover_attaches_postmortem_without_writing(
            self, tmp_path):
        from repro.core import AutoCFD
        from repro.faults import FaultEvent, FaultPlan, run_recovered

        from tests.conftest import JACOBI_SRC

        compiled = AutoCFD.from_source(JACOBI_SRC).compile(
            partition=(2, 1))
        plan = FaultPlan(events=[FaultEvent("crash", 0, frame=2)],
                         seed=4)
        with pytest.raises(ReproError) as exc_info:
            run_recovered(compiled.plan, compiled.spmd_cu,
                          fault_plan=plan, ckpt_dir=str(tmp_path),
                          recover=False, timeout=30.0)
        exc = exc_info.value
        assert exc.postmortem["cause"]["kind"] == "crash"
        assert exc.postmortem["cause"]["rank"] == 0
        assert not hasattr(exc, "postmortem_path")
        # nothing written anywhere without postmortem_dir
        assert not list(tmp_path.glob("postmortem_*.json"))
