"""Command-line interface tests."""

import json

import pytest

from repro.cli import _parse_partition, main

from tests.conftest import JACOBI_SRC


@pytest.fixture
def src_file(tmp_path):
    path = tmp_path / "jacobi.f90"
    path.write_text(JACOBI_SRC)
    return str(path)


class TestPartitionParsing:
    def test_valid(self):
        assert _parse_partition("2x2") == (2, 2)
        assert _parse_partition("4X1x1") == (4, 1, 1)

    def test_invalid(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_partition("two")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_partition("0x2")


class TestCompile:
    def test_stdout(self, src_file, capsys):
        assert main(["compile", src_file, "-p", "2x1"]) == 0
        out = capsys.readouterr().out
        assert "acfd_exchange" in out
        assert "program jacobi" in out

    def test_mpi_output_file(self, src_file, tmp_path, capsys):
        out_path = tmp_path / "par.f"
        assert main(["compile", src_file, "-p", "2x2", "--mpi",
                     "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "mpi_sendrecv" in text
        assert "wrote" in capsys.readouterr().out

    def test_processors_flag(self, src_file, capsys):
        assert main(["compile", src_file, "-n", "4"]) == 0
        assert "acfd_lo" in capsys.readouterr().out


class TestReport:
    def test_multiple_partitions(self, src_file, capsys):
        assert main(["report", src_file, "-p", "2x1", "-p", "1x2"]) == 0
        out = capsys.readouterr().out
        assert "2x1" in out
        assert "1x2" in out

    def test_overlap_choices_are_auto_and_off(self, src_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", src_file, "-p", "2x1", "--overlap", "on"])
        assert exc.value.code == 2
        assert "invalid choice: 'on'" in capsys.readouterr().err
        assert main(["report", src_file, "-p", "2x1",
                     "--overlap", "auto"]) == 0
        # refusals are listed by the report itself, never on stderr
        assert capsys.readouterr().err == ""

    def test_missing_partition_is_error(self, src_file, capsys):
        assert main(["report", src_file]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_output(self, src_file, capsys):
        assert main(["report", src_file, "-p", "2x1", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 1
        r = reports[0]
        assert r["partition"] == [2, 1]
        assert r["syncs_after"] <= r["syncs_before"]
        # compiler phase timings ride along in the JSON report
        phase_names = {p["name"] for p in r["phases"]}
        assert "parse" in phase_names
        assert "sync-combining" in phase_names
        assert r["metrics"]["compile.syncs_after"] == r["syncs_after"]


class TestRun:
    def test_run_compares(self, src_file, capsys):
        assert main(["run", src_file, "-p", "2x1"]) == 0
        out = capsys.readouterr().out
        assert "identical" in out

    def test_run_with_input(self, tmp_path, capsys):
        src = tmp_path / "prog.f90"
        src.write_text("""\
!$acfd status v
!$acfd grid 10 6
program p
  integer i, j
  real v(10, 6), c
  read (5, *) c
  do i = 1, 10
    do j = 1, 6
      v(i, j) = c
    end do
  end do
  write (6, *) c * 2.0
end
""")
        deck = tmp_path / "deck.txt"
        deck.write_text("3.5\n")
        assert main(["run", str(src), "-p", "2x1",
                     "-i", str(deck)]) == 0
        assert "7" in capsys.readouterr().out


class TestMetricsOut:
    def test_run_writes_prometheus_text(self, src_file, tmp_path,
                                        capsys):
        prom = tmp_path / "metrics.prom"
        assert main(["run", src_file, "-p", "2x1",
                     "--metrics-out", str(prom)]) == 0
        text = prom.read_text()
        # compiler counters and runtime-duration histograms both land
        assert "# TYPE acfd_compile_loops_scanned counter" in text
        assert "# TYPE acfd_runtime_blocked_s histogram" in text
        assert 'le="+Inf"' in text

    def test_profile_writes_prometheus_text(self, src_file, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        prom = tmp_path / "metrics.prom"
        assert main(["profile", src_file, "-p", "2x1", "--frames", "5",
                     "--metrics-out", str(prom),
                     "--trace-out", str(tmp_path / "t.json")]) == 0
        assert "acfd_runtime_halo_s_count" in prom.read_text()
        # the profile report itself surfaces the duration quantiles
        out = capsys.readouterr().out
        assert "runtime event durations" in out
        assert "p99" in out


class TestSimulate:
    def test_simulate_table(self, src_file, capsys):
        assert main(["simulate", src_file, "-p", "2x1", "-p", "2x2",
                     "--frames", "30"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "2x2" in out

    def test_simulate_trace_out(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "sim.trace.json"
        assert main(["simulate", src_file, "-p", "2x1", "--frames", "10",
                     "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        names = {e["args"]["name"] for e in data["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "simulated" in names


class TestRunTraceOut:
    def test_run_writes_chrome_trace(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(["run", src_file, "-p", "2x1",
                     "--trace-out", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete
        for e in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        # both the compiler phases and the runtime ranks are present
        assert {e["pid"] for e in complete} == {1, 2}


class TestProfile:
    def test_profile_report(self, src_file, tmp_path, capsys):
        trace_path = tmp_path / "prof.trace.json"
        assert main(["profile", src_file, "-p", "2x1", "--frames", "20",
                     "--trace-out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        # (a) per-phase compiler timing table
        assert "compiler phases" in out
        assert "dependency-analysis" in out
        assert "codegen-restructure" in out
        # (b) per-rank breakdown with derived health numbers
        assert "parallel run (observed)" in out
        assert "compute" in out and "blocked" in out
        assert "load imbalance" in out
        assert "critical-path rank" in out
        # simulated comparison in the same shape
        assert "simulated" in out
        # (c) Chrome-trace JSON written
        data = json.loads(trace_path.read_text())
        pids = {e["pid"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2, 3}  # compiler + runtime + simulated

    def test_profile_default_trace_path(self, src_file, capsys, monkeypatch):
        import pathlib
        monkeypatch.chdir(pathlib.Path(src_file).parent)
        assert main(["profile", src_file, "-p", "2x1",
                     "--frames", "10"]) == 0
        out = capsys.readouterr().out
        expected = src_file.rsplit(".", 1)[0] + ".trace.json"
        assert expected in out
        assert pathlib.Path(expected).exists()


class TestChaos:
    @pytest.mark.chaossmoke
    def test_quick_crash_scenario_with_report(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        assert main(["chaos", "--app", "sprayer", "--seed", "7",
                     "--scenarios", "crash",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out
        assert f"wrote {report}" in out
        data = json.loads(report.read_text())
        assert data["ok"] is True
        assert data["scenarios"][0]["name"] == "crash"
        assert data["scenarios"][0]["restarts"] >= 1

    @pytest.mark.chaossmoke
    def test_no_recover_crash_fails_with_rank_attribution(self, capsys):
        assert main(["chaos", "--app", "sprayer", "--seed", "7",
                     "--scenarios", "crash", "--no-recover"]) == 1
        captured = capsys.readouterr()
        assert "injected crash on rank" in captured.out
        assert "chaos FAILED: crash" in captured.err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert main(["chaos", "--scenarios", "meteor"]) == 2
        assert "unknown fault scenario" in capsys.readouterr().err

    @pytest.mark.chaossmoke
    def test_explicit_source_runs_the_matrix(self, src_file, capsys):
        assert main(["chaos", src_file, "-p", "2x1", "--seed", "1",
                     "--scenarios", "straggler", "--frames", "6"]) == 0
        assert "identical" in capsys.readouterr().out


class TestBenchDegraded:
    def test_degraded_drift_smoke(self, capsys):
        assert main(["bench", "--drift", "--degraded", "3"]) == 0
        out = capsys.readouterr().out
        assert "(degraded)" in out
        assert "fault" in out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["report", "/nonexistent.f90", "-p", "2x1"]) == 2

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.f90"
        path.write_text("program p\nthis is not fortran at all(((\nend\n")
        assert main(["report", str(path), "-p", "2x1"]) == 2
