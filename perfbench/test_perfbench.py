"""The benchmark's own checks: oracle, frame guard, seeded decks, tracing.

Run with ``python3 -m pytest perfbench`` from the repository root.  Each
test uses a shrunken copy of a real workload (same app, partition and
executor) so the suite stays fast.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.apps.sprayer import sprayer_source
from repro.codegen.rtadapter import RankRuntime
from repro.core.pipeline import AutoCFD, CompileResult

from perfbench import harness, layertrace, run
from perfbench.workloads import WORKLOADS

_TINY_GRID = {"sprayer": (40, 24), "aerofoil": (12, 8, 6)}

#: per-layer numbers that must not depend on the deck
_WORK_COUNTS = ("runtime.msgs_per_frame", "runtime.bytes_per_frame",
                "runtime.syncs_per_frame", "codegen.overlap_syncs",
                "interp.vector_loops", "interp.fallback_loops")


@pytest.fixture(autouse=True)
def _one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUPS", 1)


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, grid=_TINY_GRID[w.app], frames=2)


def test_decks_are_seeded():
    for w in WORKLOADS.values():
        assert w.deck(3) == w.deck(3)
        assert w.deck(3) != w.deck(4)


def test_oracle_flags_a_corrupted_array():
    w = tiny("sprayer-paper")
    acfd = AutoCFD.from_source(w.source())
    oracle = harness.reference(acfd, w.deck(1), w.frames)
    par = acfd.compile(partition=w.partition).run_parallel(
        input_text=w.deck(1))
    assert harness.mismatches(par.arrays, par.output(), oracle) == []
    par.arrays["pr"].data[5, 5] += 1.0e-6
    assert harness.mismatches(par.arrays, par.output(), oracle) == ["pr"]
    assert harness.mismatches(par.arrays, "frames 3 residual 0.5",
                              oracle) == ["pr", "output"]


def test_corrupted_solves_count_as_failed(monkeypatch):
    w = tiny("sprayer-paper")
    original = CompileResult.run_parallel
    corrupted = []

    def corrupting(self, **kwargs):
        par = original(self, **kwargs)
        call = len(corrupted) + 1
        # leave the set-up solve intact, corrupt every other timed one
        bad = call > harness.SETUPS and call % 2 == 0
        corrupted.append(bad)
        if bad:
            par.arrays["vx"].data[3, 3] += 1.0
        return par

    monkeypatch.setattr(CompileResult, "run_parallel", corrupting)
    _metrics, tally = harness.measure(w, seed=1, seconds=0.3)
    assert sum(corrupted) >= 1
    assert tally.failed == sum(corrupted)
    assert tally.failed_frac == tally.failed / tally.attempted > 0
    assert all("mismatch in vx" in e for e in tally.errors)


def test_traced_run_ends_when_every_solve_after_set_up_fails(monkeypatch):
    w = tiny("sprayer-paper")
    original = CompileResult.run_parallel
    calls = []

    def broken_after_set_up(self, **kwargs):
        calls.append(1)
        if len(calls) > harness.SETUPS:
            raise RuntimeError("worker pool broke")
        return original(self, **kwargs)

    monkeypatch.setattr(CompileResult, "run_parallel", broken_after_set_up)
    with pytest.raises(harness.SetupError, match="worker pool broke"):
        harness.measure_layers(w, 1, 0.2)
    assert len(calls) > harness.SETUPS


def test_frame_window_is_parsed_from_the_frames_line():
    assert harness.frames_run(" frames 21 residual 0.0025\n", 20) == 20
    assert harness.frames_run(" frames 7 residual 1e-9\n", 20) == 7
    with pytest.raises(harness.FrameCountError):
        harness.frames_run("no such line", 20)


def test_early_convergence_aborts_the_run():
    # a huge eps makes the program exit after its first frame
    acfd = AutoCFD.from_source(sprayer_source(40, 24, iters=5, eps=1e9))
    with pytest.raises(harness.FrameCountError, match="ran 1 frames"):
        harness.reference(acfd, "2.5 12\n", 5)


def test_frame_calls_are_checked_per_rank():
    spans = [("frame", 0, 0.0, 0.0, 0.0, 0)] * 2 \
        + [("frame", 1, 0.0, 0.0, 0.0, 0)]
    with pytest.raises(harness.FrameCountError, match="traced rank 1"):
        harness.check_frame_calls(spans, ranks=2, frames=2)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(30)]
    assert harness.tail(samples) == (19.0, 66)
    assert harness.tail(samples[:5]) == (4.0, 100)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_give_identical_work(name):
    w = tiny(name)
    counts = []
    for seed in (1, 2):
        metrics, tally, spans = harness.measure_layers(w, seed, 0.05)
        assert tally.failed == 0
        assert any(s[0] == "rank" for s in spans)
        counts.append({k: metrics[k].value for k in _WORK_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["runtime.msgs_per_frame"] > 0


def test_tracing_is_removed_after_a_traced_run():
    before = RankRuntime.exchange
    harness.measure_layers(tiny("sprayer-paper"), 1, 0.05)
    assert RankRuntime.exchange is before
    assert layertrace._INSTALLED is None


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    w = tiny("sprayer-paper")
    for key, metrics in (
            ("end_to_end", harness.measure(w, 1, 0.05)[0]),
            ("per_layer", harness.measure_layers(w, 1, 0.05)[0])):
        assert sorted(m["name"] for m in spec[key]) == sorted(metrics)
    assert [x["name"] for x in spec["workloads"]] == list(WORKLOADS)


def test_refuses_more_ranks_than_cores(monkeypatch, capsys):
    monkeypatch.setattr(harness, "host_nproc", lambda: 1)
    code = run.main(["--workload", "sprayer-paper", "--seed", "1",
                     "--seconds", "0.1"])
    assert code == 2
    out, err = capsys.readouterr()
    assert "refused" in err and '"correct"' not in out
