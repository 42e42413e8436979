"""SPMD world launcher: run one function per rank on threads.

The launcher creates the shared mailboxes, a world barrier, a trace, and a
deadlock detector, then runs ``fn(comm)`` for every rank.  If any rank
raises, the failure is propagated immediately: all other ranks are woken
(their receives raise), and the first exception is re-raised in the caller
with rank attribution.  If every live rank ends up blocked with no message
in flight, the detector fails the world with the wait-for cycle instead of
waiting for the wall-clock watchdog.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime.comm import Communicator, DeadlockDetector, _Mailbox
from repro.runtime.halo import shared_pool
from repro.runtime.trace import Trace


@dataclass
class World:
    """A launched SPMD world; holds results and the message trace."""

    size: int
    results: list = field(default_factory=list)
    trace: Trace = field(default_factory=Trace)


def spmd_run(size: int, fn, *, timeout: float = 60.0,
             trace: Trace | None = None, injector=None,
             executor: str = "thread", telemetry=None) -> World:
    """Run ``fn(comm)`` on *size* ranks and return the finished world.

    Args:
        size: number of ranks.
        fn: rank body; receives a :class:`Communicator`.  Its return value
            is collected into ``world.results[rank]``.
        timeout: per-receive watchdog (seconds) — the backstop; genuine
            deadlocks are detected and reported much sooner.  Also the
            grace period stuck ranks get to unwind after a failure.
        trace: optional shared trace (a fresh one is created if omitted).
        injector: optional :class:`repro.faults.FaultInjector`; its
            ``on_send`` hook intercepts point-to-point deliveries and its
            in-flight count keeps the deadlock detector honest while a
            delayed message is on the simulated wire.
        executor: ``"thread"`` (ranks share this process and the GIL) or
            ``"process"`` (one OS process per rank, true parallelism;
            requires a picklable *fn* — see
            :func:`repro.runtime.procexec.proc_run`).
        telemetry: optional :class:`repro.obs.health.Telemetry` — each
            rank publishes live heartbeats and flight-recorder events
            into it (must be shared-memory backed for the process
            executor).

    Raises:
        RuntimeDeadlockError: when the detector proves a deadlock (the
            message names the wait-for cycle).
        RuntimeCommError: wrapping the first rank failure, or naming the
            ranks that ignored the failure and never stopped.
    """
    if executor not in ("thread", "process"):
        raise RuntimeCommError(
            f"unknown executor {executor!r} (expected 'thread' or "
            "'process')")
    if executor == "process":
        # imported lazily: procexec imports this module for World
        from repro.runtime.procexec import proc_run
        return proc_run(size, fn, timeout=timeout, trace=trace,
                        injector=injector, telemetry=telemetry)
    if size < 1:
        raise RuntimeCommError(f"world size must be >= 1, got {size}")
    world = World(size=size, trace=trace if trace is not None else Trace())
    world.results = [None] * size
    mailboxes = [_Mailbox() for _ in range(size)]
    barrier = threading.Barrier(size)
    failed = threading.Event()
    detector = DeadlockDetector(size)
    detector.attach(mailboxes, barrier, failed)
    if telemetry is not None:
        telemetry.begin(world.trace.epoch_ns)
    if injector is not None:
        detector.in_flight = injector.in_flight
    errors: list[tuple[int, BaseException]] = []
    # also guards `remaining`; notifies the launcher on every rank exit
    state = threading.Condition()
    remaining = [size]

    def body(rank: int) -> None:
        tele = None
        if telemetry is not None:
            tele = telemetry.rank_view(rank)
            tele.bind(mailboxes[rank], shared_pool())
            tele.start()
        comm = Communicator(rank, size, mailboxes, barrier, world.trace,
                            failed, timeout, detector, injector, tele)
        t0 = perf_counter_ns()
        ok = False
        try:
            world.results[rank] = fn(comm)
            detector.rank_done(rank)
            ok = True
        except BaseException as exc:  # noqa: BLE001 - must propagate all
            with state:
                errors.append((rank, exc))
            failed.set()
            barrier.abort()
            detector.rank_failed(rank)
        finally:
            # the rank's execution window: envelope span the timeline
            # subtracts instrumented intervals from to get compute time.
            # Recorded for crashed ranks too (t1 = failure time) so a
            # chaos profile attributes the work done before the death.
            comm.emit("rank", t0_ns=t0)
            if tele is not None:
                tele.finish(ok)
            with state:
                remaining[0] -= 1
                state.notify_all()

    threads = [threading.Thread(target=body, args=(rank,),
                                name=f"spmd-rank-{rank}", daemon=True)
               for rank in range(size)]
    for t in threads:
        t.start()
    # Join discipline: while no rank has failed, wait indefinitely (the
    # per-receive watchdog and the deadlock detector bound any stall that
    # involves communication).  Once a rank fails, the rest get the
    # watchdog deadline to unwind — a rank spinning in compute-only code
    # never observes `failed`, and an unbounded join would hang the
    # launcher forever on it.
    stuck: list[int] = []
    try:
        with state:
            while remaining[0] > 0 and not failed.is_set():
                state.wait()
            if remaining[0] > 0:
                deadline = time.monotonic() + timeout
                while remaining[0] > 0:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        break
                    state.wait(left)
                if remaining[0] > 0:
                    stuck = [rank for rank, t in enumerate(threads)
                             if t.is_alive()]
        for t in threads:
            if not t.is_alive():
                t.join()
    finally:
        # buffers stranded by dead receivers or dropped messages must not
        # outlive the world (and pooled arrays must not leak across runs)
        shared_pool().drain()

    if stuck:
        first = ""
        with state:
            if errors:
                rank, exc = min(errors, key=lambda e: e[0])
                first = (f"; first failure: rank {rank}: "
                         f"{type(exc).__name__}: {exc}")
        raise RuntimeCommError(
            f"world failed but rank(s) {', '.join(map(str, stuck))} did "
            f"not stop within the {timeout}s watchdog — likely spinning "
            f"in compute-only code that never observes the failure"
            f"{first}\n{detector.snapshot()}")

    if errors:
        # report the root cause: a non-communication error beats a deadlock
        # diagnosis, which beats the cascade failures (broken barriers,
        # watchdog trips, failure wakeups) either of them triggered
        def priority(exc: BaseException) -> int:
            if not isinstance(exc, RuntimeCommError):
                return 0
            if isinstance(exc, RuntimeDeadlockError):
                return 1
            return 2

        errors.sort(key=lambda e: (priority(e[1]), e[0]))
        rank, exc = errors[0]
        wrapper = (RuntimeDeadlockError
                   if isinstance(exc, RuntimeDeadlockError)
                   else RuntimeCommError)
        raise wrapper(
            f"rank {rank} failed: {type(exc).__name__}: {exc}") from exc
    return world
