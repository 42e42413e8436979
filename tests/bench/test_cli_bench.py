"""``acfd bench`` end-to-end: record writing, gate exit codes, drift."""

import json
import time

import pytest

from repro.bench import DEFAULT, load_record, write_record
from repro.cli import main


@pytest.fixture
def selftest_scenario():
    """A deterministic-duration scenario registered just for the test."""

    @DEFAULT.scenario("selftest.sleep", tags=("selftest",), repeats=3,
                      warmup=0)
    def sleepy():
        time.sleep(0.002)
        return {"slept_ms": 2}

    yield "selftest.sleep"
    DEFAULT.remove("selftest.sleep")


def run_bench(tmp_path, *extra, out_name="BENCH_a.json"):
    out = tmp_path / out_name
    rc = main(["bench", "--tag", "selftest", "--out", str(out), *extra])
    return rc, out


class TestRecordWriting:
    def test_writes_schema_valid_record(self, selftest_scenario,
                                        tmp_path, capsys):
        rc, out = run_bench(tmp_path)
        assert rc == 0
        record = load_record(out)  # validates the schema
        entry = record["scenarios"]["selftest.sleep"]
        assert entry["extra"] == {"slept_ms": 2}
        assert entry["min_s"] >= 0.002
        assert "selftest.sleep" in capsys.readouterr().out

    def test_list_does_not_run(self, selftest_scenario, tmp_path, capsys):
        rc = main(["bench", "--tag", "selftest", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "selftest.sleep" in out
        assert "min" not in out

    def test_update_baseline(self, selftest_scenario, tmp_path, capsys,
                             monkeypatch):
        # point the "repo root" at tmp_path so baseline lands there
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.setattr("repro.bench.repo_root", lambda: tmp_path)
        rc, _ = run_bench(tmp_path, "--update-baseline")
        assert rc == 0
        baseline = tmp_path / "benchmarks" / "baseline.json"
        assert baseline.exists()
        load_record(baseline)


class TestGate:
    def test_identical_baseline_exits_zero(self, selftest_scenario,
                                           tmp_path, capsys):
        rc, out = run_bench(tmp_path)
        assert rc == 0
        # gate a fresh run against the first: same machine, same code,
        # sleep-dominated timing -> well inside the noise tolerance
        rc2, _ = run_bench(tmp_path, "--against", str(out),
                           out_name="BENCH_b.json")
        assert rc2 == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_2x_slowdown_exits_nonzero(self, selftest_scenario,
                                                tmp_path, capsys):
        rc, out = run_bench(tmp_path)
        assert rc == 0
        # synthetically make the baseline 2x FASTER than reality: the
        # next real run then shows a 2x slowdown and must fail the gate
        record = load_record(out)
        entry = record["scenarios"]["selftest.sleep"]
        entry["samples_s"] = [s / 2 for s in entry["samples_s"]]
        for key in ("min_s", "max_s", "mean_s", "median_s", "mad_s",
                    "p90_s"):
            entry[key] = entry[key] / 2
        fast = tmp_path / "BENCH_fast.json"
        write_record(record, fast)
        rc2, _ = run_bench(tmp_path, "--against", str(fast),
                           out_name="BENCH_c.json")
        assert rc2 == 1
        assert "regression" in capsys.readouterr().out

    def test_against_latest_resolves_newest(self, selftest_scenario,
                                            tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.bench.compare.repo_root",
                            lambda: tmp_path)
        rc, first = run_bench(tmp_path)
        assert rc == 0
        rc2, second = run_bench(tmp_path, "--against", "latest",
                                out_name="BENCH_d.json")
        assert rc2 == 0

    def test_missing_baseline_is_cli_error(self, selftest_scenario,
                                           tmp_path, capsys):
        rc, _ = run_bench(tmp_path, "--against",
                          str(tmp_path / "nope.json"))
        assert rc == 2


class TestDriftCli:
    def test_drift_reports_categories(self, capsys):
        assert main(["bench", "--drift"]) == 0
        out = capsys.readouterr().out
        for cat in ("compute", "halo", "collective", "blocked"):
            assert cat in out
        assert "drift" in out

    def test_traffic_mismatch_fails_the_gate(self, monkeypatch, capsys):
        from repro.apps.sprayer import sprayer_source
        from repro.bench import drift
        # early convergence leaves a partial frame the model counts whole
        monkeypatch.setattr(
            drift, "sprayer_source",
            lambda **kw: sprayer_source(**{**kw, "eps": 1.0e-6}))
        assert main(["bench", "--drift"]) == 2
        assert "traffic mismatch" in capsys.readouterr().err
