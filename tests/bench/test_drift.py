"""Drift checker: predicted-vs-observed category shares."""

import pytest

from repro.apps.sprayer import sprayer_source
from repro.bench import CATEGORIES, drift, run_drift
from repro.errors import ReproError
from repro.runtime.trace import Trace


@pytest.fixture(scope="module")
def report():
    return run_drift(n=40, m=16, iters=4)


class TestDriftReport:
    def test_all_categories_present(self, report):
        assert set(report.categories) == set(CATEGORIES)
        for c in report.categories.values():
            for key in ("predicted_pct", "observed_pct", "drift_pp"):
                assert isinstance(c[key], float)

    def test_shares_sum_to_100(self, report):
        pred = sum(c["predicted_pct"] for c in report.categories.values())
        obs = sum(c["observed_pct"] for c in report.categories.values())
        assert pred == pytest.approx(100.0, abs=1e-6)
        assert obs == pytest.approx(100.0, abs=1e-6)

    def test_drift_is_share_difference(self, report):
        for c in report.categories.values():
            assert c["drift_pp"] == pytest.approx(
                c["observed_pct"] - c["predicted_pct"])

    def test_totals_positive(self, report):
        assert report.observed_s > 0.0
        assert report.predicted_s > 0.0
        assert report.frames == 4
        assert report.partition == (2, 1)

    def test_max_drift_and_dict(self, report):
        d = report.as_dict()
        assert d["partition"] == "2x1"
        assert d["max_drift_pp"] == report.max_drift_pp
        assert report.max_drift_pp >= 0.0

    def test_table_renders_every_category(self, report):
        text = report.table()
        for cat in CATEGORIES:
            assert cat in text
        assert "max drift" in text


class TestDegradedDrift:
    def test_faulted_run_has_a_fault_share_on_both_sides(self):
        from repro.faults import FaultEvent, FaultPlan
        plan = FaultPlan(events=[
            FaultEvent("straggler", 0, frame=2, frames=2, seconds=0.02),
            FaultEvent("crash", 1, frame=3)], seed=0)
        report = run_drift(n=40, m=16, iters=4, faults=plan)
        assert report.categories["fault"]["observed_pct"] > 0.0
        assert report.categories["fault"]["predicted_pct"] > 0.0


class TestTrafficComparison:
    def test_per_rank_sent_bytes_model_vs_observed(self, report):
        assert len(report.traffic) == 2
        for row in report.traffic:
            # both sides count the same float64 face messages (eps=0:
            # every frame runs whole), so they agree exactly
            assert row["observed_sent"] == row["predicted_sent"] > 0
            assert row["observed_msgs"] == row["predicted_msgs"] > 0
            assert row["ratio"] == 1.0
        assert report.traffic_mismatches() == []

    def test_hand_counted_sprayer_traffic(self):
        # sprayer 60x24 on 2x1 for 8 frames: the schedule's 7 comm
        # phases ship 3+1+1+1+1+1+2 = 10 array faces of 24 float64
        # points, i.e. 7 messages and 1920 B per rank per frame
        report = run_drift()
        assert report.frames == 8
        for row in report.traffic:
            assert (row["observed_sent"], row["observed_msgs"]) == \
                (15360, 56)
            assert (row["predicted_sent"], row["predicted_msgs"]) == \
                (15360, 56)

    def test_traffic_renders_in_table_and_dict(self, report):
        assert "sent(model)" in report.table()
        assert report.as_dict()["traffic"] == report.traffic


class TestFrameWindow:
    def test_frames_come_from_the_runs_frame_marks(self, monkeypatch):
        # a deck that converges inside frame 1: the report covers the
        # one frame that ran, not the 8 the program allows, and the
        # partial frame's traffic is flagged against the whole model one
        monkeypatch.setattr(
            drift, "sprayer_source",
            lambda **kw: sprayer_source(**{**kw, "eps": 1.0e-6}))
        report = run_drift()
        assert report.frames == 1
        assert report.traffic_mismatches()

    def test_ranks_disagreeing_on_frames_raise(self):
        trace = Trace(epoch_ns=0)
        trace.absorb([(0, "frame", None, 0, 1, 0, 0, 0),
                      (0, "frame", None, 0, 2, 0, 0, 0),
                      (1, "frame", None, 0, 1, 0, 0, 0)])
        with pytest.raises(ReproError, match="different frame counts"):
            drift._frames_run(trace)
