"""Event tracing for the message-passing runtime.

Every send, receive, barrier, collective, halo exchange, frame mark,
checkpoint and injected fault is recorded with its payload size and
begin/end stamps, which turn the event log into per-rank *spans*.  The
test suite uses traces to assert that the number of synchronizations the
*runtime actually performs* per frame equals the number the
*pre-compiler predicted* after optimization (Table 1's "after" column);
the benchmark harness feeds traces — including the wait-time and
copy-savings accounting — to the cluster simulator, and
:class:`repro.obs.timeline.Timeline` rolls the spans up into per-rank
compute / blocked / halo / collective breakdowns.

One record shape, one clock: every event is a raw 8-tuple ::

    (rank, kind, peer, nbytes, tag, extra, t0_ns, t1_ns)

appended by a rank's one sink, :meth:`repro.runtime.comm.Communicator.
emit`, which also pushes the same tuple into the live flight ring when
telemetry is attached.  ``extra`` is the zero-copy bytes saved for
``send`` and the nanoseconds spent blocked for every other kind;
``peer``/``tag`` are ``None`` when the event has none.  Both stamps are
``time.perf_counter_ns()`` — ``CLOCK_MONOTONIC``, which is system-wide,
so records written by process-executor workers on the same host land on
the launcher's clock unchanged.  A world keeps one ``epoch_ns``;
:meth:`Trace.snapshot` decodes the records into :class:`TraceEvent`
views with float seconds since that epoch, so queries never see a raw
record.

All query methods take the collector lock, so they are safe to call while
ranks are still recording.  A trace constructed with ``enabled=False``
drops all records — the baseline for the instrumentation-overhead guard
in ``benchmarks/test_micro_runtime.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter_ns

#: every event kind that is a synchronization in the Table-1 sense:
#: the rank cannot proceed until (some) other ranks participate.
SYNC_KINDS = ("exchange", "barrier", "allreduce", "reduce", "bcast",
              "gather", "scatter", "allgather")


@dataclass(slots=True)
class TraceEvent:
    """Read-only view of one recorded runtime event."""

    rank: int
    kind: str  # send | recv | bcast | reduce | allreduce | barrier |
    #            gather | scatter | allgather | exchange | overlap |
    #            halo_pack | halo_unpack | pipeline_recv | pipeline_send |
    #            frame | checkpoint | restore | fault_* | rank
    peer: int | None
    nbytes: int
    tag: int | None = None
    #: seconds this rank spent blocked before the event completed
    wait_s: float = 0.0
    #: payload bytes the zero-copy (move) path did not duplicate
    saved_bytes: int = 0
    #: begin/end timestamps (seconds since the trace epoch)
    t0: float = 0.0
    t1: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class Trace:
    """Thread-safe event collector shared by all ranks of a world."""

    #: the raw log of 8-tuple records — read via snapshot()
    events: list = field(default_factory=list)
    #: ``perf_counter_ns()`` origin every decoded timestamp is relative to
    epoch_ns: int = field(default_factory=perf_counter_ns)
    #: False drops all records (overhead-measurement baseline)
    enabled: bool = True
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def absorb(self, records: list[tuple]) -> None:
        """Bulk-append raw records written by another process's trace
        (process-executor workers ship theirs unchanged)."""
        if not self.enabled:
            return
        with self._lock:
            self.events.extend(records)

    # -- queries ---------------------------------------------------------------

    def snapshot(self) -> list[TraceEvent]:
        """Consistent, decoded copy of the event list (safe while
        recording)."""
        with self._lock:
            items = list(self.events)
        epoch_ns = self.epoch_ns
        out = []
        for rank, kind, peer, nbytes, tag, extra, t0, t1 in items:
            if kind == "send":
                wait_s, saved = 0.0, extra
            else:
                wait_s, saved = extra / 1e9, 0
            out.append(TraceEvent(rank, kind, peer, nbytes, tag, wait_s,
                                  saved, (t0 - epoch_ns) / 1e9,
                                  (t1 - epoch_ns) / 1e9))
        return out

    def count(self, kind: str, rank: int | None = None) -> int:
        """Number of events of *kind* (optionally for one rank)."""
        return sum(1 for e in self.snapshot()
                   if e.kind == kind and (rank is None or e.rank == rank))

    def bytes_sent(self, rank: int | None = None) -> int:
        """Total payload bytes sent (point-to-point sends only)."""
        return sum(e.nbytes for e in self.snapshot()
                   if e.kind in ("send", "pipeline_send")
                   and (rank is None or e.rank == rank))

    def sync_count(self, rank: int | None = None) -> int:
        """Synchronization operations: exchanges, barriers, collectives
        (including gathers, scatters, and allgathers)."""
        return sum(1 for e in self.snapshot()
                   if e.kind in SYNC_KINDS
                   and (rank is None or e.rank == rank))

    def messages(self, rank: int | None = None) -> list[TraceEvent]:
        return [e for e in self.snapshot()
                if e.kind in ("send", "pipeline_send")
                and (rank is None or e.rank == rank)]

    def wait_time(self, rank: int | None = None) -> float:
        """Total wall-clock seconds ranks spent blocked in receives,
        barriers, and collectives."""
        return sum(e.wait_s for e in self.snapshot()
                   if rank is None or e.rank == rank)

    def saved_bytes(self, rank: int | None = None) -> int:
        """Payload bytes the zero-copy send path avoided duplicating."""
        return sum(e.saved_bytes for e in self.snapshot()
                   if rank is None or e.rank == rank)

    def comm_stats(self) -> dict:
        """Aggregate communication accounting for benchmarks/simulation."""
        events = self.snapshot()
        sends = [e for e in events if e.kind in ("send", "pipeline_send")]
        syncs_by_kind: dict[str, int] = {}
        for e in events:
            if e.kind in SYNC_KINDS:
                syncs_by_kind[e.kind] = syncs_by_kind.get(e.kind, 0) + 1
        return {
            "sends": len(sends),
            "bytes_sent": sum(e.nbytes for e in sends),
            "saved_bytes": sum(e.saved_bytes for e in events),
            "wait_s": sum(e.wait_s for e in events),
            "syncs": sum(syncs_by_kind.values()),
            "syncs_by_kind": syncs_by_kind,
            # per-rank sent+received bytes summed over collective events;
            # every tree hop is counted once at each endpoint
            "collective_bytes": sum(e.nbytes for e in events
                                    if e.kind in SYNC_KINDS),
        }

    def timeline(self):
        """Classified per-rank view (:class:`repro.obs.timeline.Timeline`)."""
        from repro.obs.timeline import Timeline
        return Timeline.from_trace(self)

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
