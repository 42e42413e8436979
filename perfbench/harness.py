"""Measure one workload through the public API, checked by an oracle.

A run drives the program the way a user does -- ``AutoCFD.from_source``
then ``compile(partition=...)`` then ``CompileResult.run_parallel`` --
and compares every solve with ``AutoCFD.run_sequential`` on the same
deck.  Closed loop: one caller, each solve starts when the previous one
returned.

* :func:`measure` (end-to-end, no tracing): sets the workload up from
  source several times, then alternates parallel and sequential solves
  for the requested seconds;
* :func:`measure_layers` (traced): installs the layer wrappers of
  :mod:`perfbench.layertrace`, sets up, then runs pairs of one traced
  solve and one solve whose wrappers stay idle, in alternating order,
  so the tracing overhead is measured within one run.

Every solve, timed or traced, is compared with the sequential oracle:
each status array bitwise and the rank-0 ``frames N residual r`` line.
A solve that raises or differs counts as failed.  Frame counts that
disagree with the requested window abort the run
(:class:`FrameCountError`), so no metric compares different windows.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median, quantiles

import numpy as np

from repro.core.pipeline import AutoCFD
from repro.runtime.procexec import shutdown_pools

from perfbench import layertrace
from perfbench.workloads import Workload

_FRAMES_LINE = re.compile(r"frames\s+(-?\d+)\s+residual\s+(\S+)")

#: times a run sets the workload up from source text (median reported)
SETUPS = 7


def _units() -> dict[str, str]:
    spec = json.loads((pathlib.Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


#: unit of every metric, by name, as BENCHMARK.json declares it
UNITS = _units()


class FrameCountError(RuntimeError):
    """A run covered a different frame window than requested."""


class SetupError(RuntimeError):
    """No set-up of the workload produced a solve."""


@dataclass
class Oracle:
    """The sequential program's result on one deck."""

    arrays: dict[str, bytes]
    output: str


def frames_run(output: str, requested: int) -> int:
    """Frames a run executed, from its ``frames N residual r`` line.

    A frame loop that runs to completion leaves the DO variable one past
    its bound, so the line prints ``requested + 1``; a convergence exit
    at frame *k* prints *k*.
    """
    match = _FRAMES_LINE.search(output)
    if match is None:
        raise FrameCountError(f"no 'frames N residual r' line in "
                              f"{output!r}")
    return min(int(match.group(1)), requested)


def check_frames(who: str, frames: int, requested: int) -> None:
    if frames != requested:
        raise FrameCountError(f"{who} ran {frames} frames, the workload "
                              f"requests {requested}")


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + repr(array.shape).encode() \
        + array.tobytes()


def reference(acfd: AutoCFD, deck: str, frames: int) -> Oracle:
    """Run the sequential program once and keep what solves must match."""
    seq = acfd.run_sequential(input_text=deck)
    output = seq.io.output()
    check_frames("sequential run", frames_run(output, frames), frames)
    names = acfd.directives.status_arrays
    return Oracle(arrays={n: _bits(seq.array(n).data) for n in names},
                  output=output)


def mismatches(arrays: dict, output: str, oracle: Oracle) -> list[str]:
    """Names of the status arrays (and ``output``) that differ."""
    bad = [name for name, bits in oracle.arrays.items()
           if name not in arrays or _bits(arrays[name].data) != bits]
    if output != oracle.output:
        bad.append("output")
    return bad


@dataclass
class Tally:
    """Solves attempted and failed against the oracle."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def note(self, what: str, bad: list[str] | None,
             exc: BaseException | None = None) -> bool:
        self.attempted += 1
        if exc is None and not bad:
            return True
        self.failed += 1
        if exc is not None:
            msg = "".join(traceback.format_exception_only(exc)).strip()
        else:
            msg = "mismatch in " + ", ".join(bad)
        self.errors.append(f"{what}: {msg}")
        print(f"# FAILED {what}: {msg}", file=sys.stderr)
        return False

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- host record and memory ---------------------------------------------


def source_digest(root: pathlib.Path) -> str:
    """SHA-1 over the program's source tree (a checkout may lack git)."""
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: pathlib.Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_record(root: pathlib.Path) -> dict:
    return {"nproc": host_nproc(),
            "loadavg_before": os.getloadavg(),
            "git_sha": git_sha(root),
            "src_digest": source_digest(root),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class PeakRss:
    """Peak resident memory of this process plus its rank workers."""

    def __init__(self) -> None:
        self.workers_mb = 0.0

    def sample_workers(self) -> None:
        """Call while a worker pool is alive (before shutting it down)."""
        total = sum(_vm_hwm_mb(p.pid)
                    for p in multiprocessing.active_children())
        self.workers_mb = max(self.workers_mb, total)

    def shutdown_pools(self) -> None:
        self.sample_workers()
        shutdown_pools()

    @property
    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return own + self.workers_mb


# -- statistics ---------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than 11 samples there is
    no such percentile and the maximum is returned as percentile 100.
    """
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return s[-1], 100
    return s[k - 1], (100 * k) // len(s)


# -- solves -------------------------------------------------------------


@dataclass
class Setup:
    seconds: float
    acfd: AutoCFD
    compiled: object  # CompileResult


def set_up(w: Workload, source: str, deck: str, oracle: Oracle,
           tally: Tally, rss: PeakRss) -> Setup | None:
    """Source text to first solve returned, on a fresh executor."""
    rss.shutdown_pools()
    gc.collect()
    t0 = time.perf_counter()
    try:
        acfd = AutoCFD.from_source(source)
        compiled = acfd.compile(partition=w.partition)
        par = compiled.run_parallel(input_text=deck, executor=w.executor)
    except Exception as exc:  # counted; the next set-up may succeed
        tally.note("set-up", None, exc)
        return None
    seconds = time.perf_counter() - t0
    bad = mismatches(par.arrays, par.output(), oracle)
    if not tally.note("set-up", bad):
        return None
    check_frames("parallel set-up solve", frames_run(par.output(),
                                                     w.frames), w.frames)
    return Setup(seconds, acfd, compiled)


def set_up_all(w: Workload, source: str, deck: str, oracle: Oracle,
               tally: Tally, rss: PeakRss, before=None) -> list[Setup]:
    setups = []
    for i in range(SETUPS):
        if before is not None:
            before(i)
        s = set_up(w, source, deck, oracle, tally, rss)
        if s is not None:
            setups.append(s)
    if not setups:
        raise SetupError(f"{w.name}: every set-up failed: "
                         f"{tally.errors[-1]}")
    return setups


def solve_parallel(w: Workload, compiled, deck: str, oracle: Oracle,
                   tally: Tally):
    """One timed parallel solve; returns (seconds, result) or None."""
    gc.collect()  # every solve starts from a clean heap
    t0 = time.perf_counter()
    try:
        par = compiled.run_parallel(input_text=deck, executor=w.executor)
        bad = mismatches(par.arrays, par.output(), oracle)
    except Exception as exc:  # counted toward failed_frac
        tally.note("parallel solve", None, exc)
        return None
    seconds = time.perf_counter() - t0
    if not tally.note("parallel solve", bad):
        return None
    return seconds, par


def solve_sequential(acfd: AutoCFD, deck: str, oracle: Oracle,
                     tally: Tally) -> float | None:
    gc.collect()
    t0 = time.perf_counter()
    try:
        seq = acfd.run_sequential(input_text=deck)
        arrays = {n: seq.array(n) for n in oracle.arrays}
        bad = mismatches(arrays, seq.io.output(), oracle)
    except Exception as exc:  # counted toward failed_frac
        tally.note("sequential solve", None, exc)
        return None
    seconds = time.perf_counter() - t0
    return seconds if tally.note("sequential solve", bad) else None


# -- end-to-end run -----------------------------------------------------


@dataclass
class Metric:
    """One metric's value; its unit is ``UNITS[name]``."""

    value: float
    n: int
    note: str = ""


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _q2, q3 = quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}"


def measure(w: Workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    """Untraced end-to-end metrics of one workload."""
    source, deck = w.source(), w.deck(seed)
    tally, rss = Tally(), PeakRss()
    try:
        acfd = AutoCFD.from_source(source)
        oracle = reference(acfd, deck, w.frames)
        setups = set_up_all(w, source, deck, oracle, tally, rss)
        last = setups[-1]
        par_s: list[float] = []
        seq_s: list[float] = []
        deadline = time.perf_counter() + seconds
        pair = 0
        while True:
            # alternate which side runs first so drift hits both alike
            for side in (("par", "seq") if pair % 2 == 0
                         else ("seq", "par")):
                if side == "par":
                    got = solve_parallel(w, last.compiled, deck, oracle,
                                         tally)
                    if got is not None:
                        par_s.append(got[0])
                else:
                    t = solve_sequential(last.acfd, deck, oracle, tally)
                    if t is not None:
                        seq_s.append(t)
            pair += 1
            if time.perf_counter() >= deadline:
                break
        rss.sample_workers()
        peak_mb = rss.mb
    finally:
        rss.shutdown_pools()
    if not par_s or not seq_s:
        raise SetupError(f"{w.name}: no timed solve succeeded: "
                         f"{tally.errors[-1]}")
    tail_s, pct = tail(par_s)
    setup_s = [s.seconds for s in setups]
    metrics = {
        "solve_s": Metric(median(par_s), len(par_s), _quartiles(par_s)),
        "solve_s.tail": Metric(tail_s, len(par_s), f"p{pct}"),
        "seq_solve_s": Metric(median(seq_s), len(seq_s),
                              _quartiles(seq_s)),
        "setup_s": Metric(median(setup_s), len(setup_s),
                          _quartiles(setup_s)),
        "peak_rss_mb": Metric(peak_mb, 1),
    }
    return metrics, tally


# -- traced run ---------------------------------------------------------


def _sum(spans, names) -> tuple[float, float]:
    """(wall, cpu) summed over *spans* whose name is in *names*."""
    wall = cpu = 0.0
    for name, _rank, t0, t1, c, _solve in spans:
        if name in names:
            wall += t1 - t0
            cpu += c
    return wall, cpu


_COLLECTIVE = ("allreduce_max", "allreduce_min", "allreduce_sum", "bcast",
               "barrier", "get")


def solve_layers(spans: list[tuple], frames: int, par) -> dict[str, float]:
    """Per-layer numbers of one traced solve (per frame, summed over
    ranks), from its spans plus the program's own accounting."""
    rank_wall, rank_cpu = _sum(spans, ("rank",))
    comm_wall, comm_cpu = _sum(spans, layertrace.COMM_METHODS)
    compute = rank_wall - comm_wall
    offcpu = compute - (rank_cpu - comm_cpu)
    solve_wall, _ = _sum(spans, ("solve",))
    longest_rank = max((t1 - t0 for n, _r, t0, t1, _c, _s in spans
                        if n == "rank"), default=0.0)
    translate, _ = _sum(spans, ("translate",))
    stats = par.comm_stats
    roll = par.rollup()
    blocked = sum(r.blocked for r in roll.ranks)
    per = 1.0 / frames
    out = {
        "interp.compute_s": compute * per,
        "interp.compute_offcpu_s": offcpu * per,
        "runtime.exchange_s": _sum(spans, ("exchange",))[0] * per,
        "runtime.exchange_begin_s":
            _sum(spans, ("exchange_begin",))[0] * per,
        "runtime.exchange_finish_s":
            _sum(spans, ("exchange_finish",))[0] * per,
        "runtime.pipe_s": _sum(spans, ("pipe_send", "pipe_recv"))[0] * per,
        "runtime.collective_s": _sum(spans, _COLLECTIVE)[0] * per,
        "runtime.comm_wait_s": (comm_wall - comm_cpu) * per,
        "runtime.msgs_per_frame": stats["sends"] * per,
        "runtime.bytes_per_frame": stats["bytes_sent"] * per,
        "runtime.syncs_per_frame": stats["syncs"] * per,
        "codegen.runner_overhead_s":
            (solve_wall - longest_rank - translate) * per,
        "obs.blocked_s": blocked * per,
        "obs.halo_s": sum(r.halo for r in roll.ranks) * per,
        "obs.hidden_halo_fraction": roll.hidden_halo_fraction,
        "obs.load_imbalance": roll.load_imbalance,
    }
    # the Timeline books every receive wait as "blocked"; measured from
    # outside, off-CPU time splits into comm waits and compute that was
    # descheduled (GIL or scheduler) -- the gap is time booked wrongly
    out["obs.attribution_gap_s"] = abs(out["obs.blocked_s"] - (
        out["runtime.comm_wait_s"] + out["interp.compute_offcpu_s"]))
    return out


def check_frame_calls(spans: list[tuple], ranks: int, frames: int) -> None:
    counts = [0] * ranks
    for name, rank, *_ in spans:
        if name == "frame":
            counts[rank] += 1
    for rank, n in enumerate(counts):
        check_frames(f"traced rank {rank} (RankRuntime.frame calls)", n,
                     frames)


def measure_layers(w: Workload, seed: int, seconds: float
                   ) -> tuple[dict, Tally, list[tuple]]:
    """Traced per-layer metrics of one workload, plus its spans."""
    source, deck = w.source(), w.deck(seed)
    tally, rss = Tally(), PeakRss()
    tracer = layertrace.LayerTracer()
    rss.shutdown_pools()  # wrappers must exist before workers fork
    layertrace.install(tracer)
    try:
        acfd = AutoCFD.from_source(source)
        oracle = reference(acfd, deck, w.frames)

        def traced_setup(i: int) -> None:
            tracer.solve = ("setup", i)
            tracer.active = True
            layertrace.set_worker_tracing(True)

        setups = set_up_all(w, source, deck, oracle, tally, rss,
                            before=traced_setup)
        tracer.active = False
        compiled = setups[-1].compiled
        rows: list[dict[str, float]] = []
        traced_s: list[float] = []
        quiet_s: list[float] = []
        deadline = time.perf_counter() + seconds
        pair = 0
        while True:
            # one traced and one idle-wrapped solve per pair, in
            # alternating order; the traced one is taken apart only
            # after both ran, so neither follows the post-processing
            traced_got = None
            for traced in ((True, False) if pair % 2 == 0
                           else (False, True)):
                tracer.solve = pair
                tracer.active = traced
                layertrace.set_worker_tracing(traced)
                mark = len(tracer.spans)
                got = solve_parallel(w, compiled, deck, oracle, tally)
                tracer.active = False
                if got is None:
                    continue
                if traced:
                    traced_s.append(got[0])
                    traced_got = tracer.spans[mark:], got[1]
                else:
                    quiet_s.append(got[0])
            if traced_got is not None:
                spans, par = traced_got
                check_frame_calls(spans, w.ranks, w.frames)
                rows.append(solve_layers(spans, w.frames, par))
            pair += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.active = False
        layertrace.uninstall()
        rss.shutdown_pools()
    if not rows or not quiet_s:
        raise SetupError(f"{w.name}: no traced solve succeeded: "
                         f"{tally.errors[-1]}")

    metrics: dict[str, Metric] = {}
    for key, span in (("fortran.parse_s", "parse"), ("codegen.plan_s", "plan"),
                      ("codegen.restructure_s", "restructure")):
        per_setup = [_sum(tracer.of_solve(("setup", k)), (span,))[0]
                     for k in range(SETUPS)]
        metrics[key] = Metric(median(per_setup), len(per_setup))
    by_solve: dict = {}
    for s in tracer.spans:
        if s[0] == "translate":
            by_solve[s[5]] = by_solve.get(s[5], 0.0) + (s[3] - s[2])
    translations = list(by_solve.values())
    metrics["interp.translate_s"] = Metric(median(translations),
                                           len(translations))
    for key in rows[0]:
        metrics[key] = Metric(median([r[key] for r in rows]), len(rows))
    report = setups[-1].compiled.report
    for key, value in (("codegen.overlap_syncs", report.overlap_syncs),
                       ("interp.vector_loops", report.vector_loops),
                       ("interp.fallback_loops", report.fallback_loops)):
        metrics[key] = Metric(float(value), 1)
    traced_med, quiet_med = median(traced_s), median(quiet_s)
    metrics["trace.overhead_ratio"] = Metric(
        traced_med / quiet_med, min(len(traced_s), len(quiet_s)),
        f"traced {traced_med:.4f} s / idle-wrapped {quiet_med:.4f} s")
    return metrics, tally, tracer.spans
