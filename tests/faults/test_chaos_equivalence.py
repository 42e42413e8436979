"""Chaos matrix: every injected-fault scenario reproduces the fault-free
grids bitwise, on both executors (S4 of the equivalence contract)."""

import json

import pytest

from repro.apps import kernels
from repro.faults import run_chaos

pytestmark = pytest.mark.chaossmoke


class TestSprayerMatrix:
    def test_full_matrix_vector_backend(self, tmp_path):
        report = run_chaos(app="sprayer", seed=7, workdir=str(tmp_path))
        assert report.ok, report.table()
        names = [s.name for s in report.scenarios]
        assert names == ["drop", "delay", "duplicate", "straggler",
                         "crash"]
        for s in report.scenarios:
            assert s.identical is True
            assert s.fired, f"{s.name}: planned fault never triggered"
        by_name = {s.name: s for s in report.scenarios}
        # a crash always costs at least one restart
        assert by_name["crash"].restarts >= 1

    def test_scalar_backend_subset(self, tmp_path):
        # the interpreter executor must honor the same recovery contract
        report = run_chaos(app="sprayer", seed=7,
                           scenarios=("drop", "crash"),
                           vectorize=False, workdir=str(tmp_path))
        assert report.ok, report.table()
        assert all(s.identical for s in report.scenarios)

    def test_process_executor_matrix(self, tmp_path):
        # same matrix, one OS process per rank: a crash here is a real
        # SIGKILLed worker, not a simulated exception — recovery and
        # bitwise identity must hold against the genuine failure mode
        report = run_chaos(app="sprayer", partition=(2, 1), seed=7,
                           workdir=str(tmp_path), executor="process")
        assert report.ok, report.table()
        for s in report.scenarios:
            assert s.identical is True
            assert s.fired, f"{s.name}: planned fault never triggered"
        by_name = {s.name: s for s in report.scenarios}
        assert by_name["crash"].restarts >= 1

    def test_report_round_trips_through_json(self, tmp_path):
        report = run_chaos(app="sprayer", seed=3, scenarios=("crash",),
                           workdir=str(tmp_path))
        data = json.loads(json.dumps(report.as_dict()))
        assert data["ok"] is True
        assert data["seed"] == 3
        sc = data["scenarios"][0]
        assert sc["name"] == "crash"
        assert sc["fault_plan"]["seed"] == 3
        assert sc["restarts"] >= 1
        assert "identical" in report.table()


class TestAdiSweepsMatrix:
    """Pipelined in-place sweeps, partly vectorized, under faults: the
    cut runs along the x sweep (2x1x1) or the z sweep (1x1x2)."""

    SRC = kernels.adi_sweeps_3d(n=8, m=6, l=5, iters=6, eps=0.0)

    @pytest.mark.parametrize("dims", [(2, 1, 1), (1, 1, 2)],
                             ids=["2x1x1", "1x1x2"])
    def test_thread_matrix(self, tmp_path, dims):
        report = run_chaos(source=self.SRC, frames=6, partition=dims,
                           seed=7, scenarios=("drop", "delay", "crash"),
                           workdir=str(tmp_path))
        assert report.ok, report.table()
        for s in report.scenarios:
            assert s.identical is True
            assert s.fired, f"{s.name}: planned fault never triggered"

    def test_process_crash_along_z(self, tmp_path):
        report = run_chaos(source=self.SRC, frames=6, partition=(1, 1, 2),
                           seed=7, scenarios=("crash",), max_restarts=5,
                           timeout=120.0, workdir=str(tmp_path),
                           executor="process")
        assert report.ok, report.table()
        assert report.scenarios[0].identical is True
        assert report.scenarios[0].restarts >= 1


class TestChaosPostmortems:
    def test_unrecovered_crash_scenario_records_postmortem(self,
                                                           tmp_path):
        pm_dir = tmp_path / "pm"
        report = run_chaos(app="sprayer", seed=3, scenarios=("crash",),
                           recover=False, workdir=str(tmp_path),
                           postmortem_dir=str(pm_dir))
        assert not report.ok
        sc = report.scenarios[0]
        assert sc.postmortem is not None
        assert sc.postmortem in {str(p) for p in
                                 pm_dir.glob("postmortem_*.json")}
        doc = json.loads((pm_dir / sc.postmortem.rsplit("/", 1)[-1])
                         .read_text())
        assert doc["cause"]["kind"] == "crash"
        assert f"postmortem: {sc.postmortem}" in report.table()

    def test_recovered_scenarios_write_no_postmortem(self, tmp_path):
        pm_dir = tmp_path / "pm"
        report = run_chaos(app="sprayer", seed=3, scenarios=("crash",),
                           workdir=str(tmp_path),
                           postmortem_dir=str(pm_dir))
        assert report.ok
        assert report.scenarios[0].postmortem is None
        assert not list(pm_dir.glob("postmortem_*.json")) \
            if pm_dir.exists() else True
