"""Layer spans recorded from outside the program.

The benchmark adds no tracing inside ``src/``: :func:`install` wraps the
public entry point of each layer it crosses and records one span per
call into a :class:`LayerTracer`:

================  ==========================================  ==========
span              wrapped entry point                          layer
================  ==========================================  ==========
``parse``         ``repro.fortran.parse_source``               fortran
``plan``          ``repro.codegen.plan.build_plan``            codegen
``restructure``   ``repro.codegen.restructure.restructure``    codegen
``solve``         ``CompileResult.run_parallel``               codegen
``translate``     ``repro.interp.pyback.compile_unit`` (SPMD)  interp
``rank``          the runner's per-rank program execution      codegen
``exchange`` ...  every ``RankRuntime`` communication method   runtime
``frame``         ``RankRuntime.frame``                        codegen
================  ==========================================  ==========

A span is ``(name, rank, t0, t1, cpu_s, solve)``: wall-clock stamps
from ``time.perf_counter`` (one monotonic clock shared by every process
on the host), the calling thread's CPU time over the call
(``time.thread_time``), and the id of the solve it belongs to.  Module-
level spans carry rank -1.

Process executor: the wrappers must be in place before the worker pool
forks, so callers run ``shutdown_pools()`` before :func:`install`.  A
worker records into its forked copy of the tracer; the wrapped rank
body ships the worker's spans back inside the rank's result under
:data:`SPANS_KEY`, and the ``solve`` wrapper folds them into the
caller's tracer when the run ends.
"""

from __future__ import annotations

import functools
import time

from repro.codegen import runner
from repro.codegen.rtadapter import RankRuntime
from repro.core import pipeline

#: rank-result key under which a worker returns its spans
SPANS_KEY = "__layer_spans__"

#: RankRuntime methods that communicate, by span name
COMM_METHODS = ("exchange", "exchange_begin", "exchange_finish",
                "pipe_send", "pipe_recv", "allreduce_max",
                "allreduce_min", "allreduce_sum", "bcast", "barrier",
                "get")

#: the tracer the wrappers record into; set by install()
_INSTALLED: "LayerTracer | None" = None
_ORIGINALS: list[tuple[object, str, object]] = []


class LayerTracer:
    """In-memory span store for one benchmark run."""

    def __init__(self) -> None:
        #: wrappers record only while this is set
        self.active = False
        #: solve id stamped on spans recorded in this process
        self.solve: object = None
        self.spans: list[tuple] = []

    def record(self, name: str, rank: int, t0: float, t1: float,
               cpu: float) -> None:
        # list.append is atomic under the GIL, so rank threads share it
        self.spans.append((name, rank, t0, t1, cpu, self.solve))

    def of_solve(self, solve) -> list[tuple]:
        return [s for s in self.spans if s[5] == solve]


def _timed(name: str, fn, rank_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _INSTALLED
        if tracer is None or not tracer.active:
            return fn(*args, **kwargs)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            tracer.record(name, rank_of(args), t0, t1,
                          time.thread_time() - c0)
    return traced


def _no_rank(args) -> int:
    return -1


def _method_rank(args) -> int:
    return args[0].comm.rank


def _exec_rank_rank(args) -> int:
    return args[-1].rank  # _exec_rank(..., comm)


def _traced_solve(fn):
    timed = _timed("solve", fn, _no_rank)

    @functools.wraps(fn)
    def solve(*args, **kwargs):
        result = timed(*args, **kwargs)
        tracer = _INSTALLED
        for values in result.rank_values:
            worker_spans = values.pop(SPANS_KEY, None)
            if worker_spans and tracer is not None:
                tracer.spans.extend(s[:5] + (tracer.solve,)
                                    for s in worker_spans)
        return result
    return solve


def _proc_rank_body(blob: bytes, comm):
    """Worker-side rank body of a traced solve: record, then ship."""
    tracer = _INSTALLED
    tracer.spans = []
    tracer.active = True
    try:
        values, io = _original_proc_rank_body(blob, comm)
    finally:
        tracer.active = False
    values = dict(values)
    values[SPANS_KEY] = tracer.spans
    return values, io


def _quiet_proc_rank_body(blob: bytes, comm):
    """Worker-side rank body of an untraced solve (wrappers idle)."""
    _INSTALLED.active = False
    return _original_proc_rank_body(blob, comm)


_original_proc_rank_body = runner._proc_rank_body


def set_worker_tracing(on: bool) -> None:
    """Choose whether the next process-executor solve records spans."""
    runner._proc_rank_body = _proc_rank_body if on \
        else _quiet_proc_rank_body


def _patch(owner, attr: str, wrapper) -> None:
    _ORIGINALS.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, wrapper)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point; spans go to *tracer*."""
    global _INSTALLED
    if _INSTALLED is not None:
        raise RuntimeError("a LayerTracer is already installed")
    _INSTALLED = tracer
    _patch(pipeline, "parse_source",
           _timed("parse", pipeline.parse_source, _no_rank))
    _patch(pipeline, "build_plan",
           _timed("plan", pipeline.build_plan, _no_rank))
    _patch(pipeline, "restructure",
           _timed("restructure", pipeline.restructure, _no_rank))
    _patch(pipeline.CompileResult, "run_parallel",
           _traced_solve(pipeline.CompileResult.run_parallel))
    # the runner's own binding: the SPMD program, not the sequential one
    _patch(runner, "compile_unit",
           _timed("translate", runner.compile_unit, _no_rank))
    _patch(runner, "_exec_rank",
           _timed("rank", runner._exec_rank, _exec_rank_rank))
    _patch(runner, "_proc_rank_body", _quiet_proc_rank_body)
    for name in COMM_METHODS + ("frame",):
        _patch(RankRuntime, name,
               _timed(name, getattr(RankRuntime, name), _method_rank))


def uninstall() -> None:
    """Restore every wrapped entry point."""
    global _INSTALLED
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    _INSTALLED = None
