"""Crash-surviving flight recorder: a bounded per-rank event ring.

The trace (:mod:`repro.runtime.trace`) is complete but lives in the
worker's heap — a rank that dies by real ``SIGKILL`` takes its events
with it.  The flight recorder keeps only the *last N* events per rank,
but keeps them in a flat ``int64`` block that can be backed by
``multiprocessing.shared_memory``: the launcher (or ``acfd postmortem``)
reads a dead worker's final moments straight out of the segment, no
cooperation from the corpse required.  A rank's event sink
(``Communicator.emit``) pushes each trace record here as it appends it
to the trace, so a ring tail is the last N trace records of its rank.

Layout (all ``int64``, single segment)::

    header[rank] = cursor                      # 1 word per rank
    ring[rank][slot] = (kind, peer, nbytes, tag, extra, t0_ns, t1_ns)

``cursor`` counts pushes forever; ``cursor % slots`` is the write
position, so readers recover both order and drop count.  The stamps are
the writer's ``perf_counter_ns`` — one system-wide clock — so a reader
decodes every rank against the same world epoch.  Each ring row has
exactly one writer (its rank), so no locks; torn reads of an in-flight
slot are acceptable for a diagnostic artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FlightRecorder", "FlightEvent", "KIND_CODES", "KIND_NAMES"]

#: event-kind string <-> int coding for the ring (0 = empty slot)
KIND_NAMES = (
    "", "send", "recv", "barrier", "bcast", "reduce", "allreduce",
    "gather", "allgather", "scatter", "exchange", "halo_pack",
    "halo_unpack", "pipeline_send", "pipeline_recv", "frame",
    "checkpoint", "restore", "fault_crash", "fault_straggler",
    "fault_drop", "fault_delay", "fault_dup", "other", "overlap", "rank",
)
KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

_HDRW = 1   # header words per rank: cursor
_EVW = 7    # event words: kind, peer, nbytes, tag, extra, t0_ns, t1_ns
_OTHER = KIND_CODES["other"]


def _untrack(shm) -> None:
    """Drop *shm* from the resource tracker.  Creator and attachers all
    talk to one tracker process whose cache is a *set*: any attacher's
    unregister would silently erase the creator's entry, so the only
    consistent scheme is to keep telemetry segments out of the tracker
    entirely and balance the unlink by hand (see :func:`_unlink_shm`)."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _attach_shm(name: str):
    from multiprocessing import shared_memory
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    return shm


def _create_shm(nbytes: int):
    from multiprocessing import shared_memory
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    _untrack(shm)
    return shm


def _unlink_shm(shm) -> None:
    """Unlink an untracked segment without tracker noise —
    ``SharedMemory.unlink`` always unregisters, so re-register first."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    shm.unlink()


@dataclass(frozen=True)
class FlightEvent:
    """One decoded ring entry."""

    kind: str
    peer: int | None
    nbytes: int
    tag: int | None
    #: saved zero-copy bytes for sends, blocked nanoseconds otherwise
    extra: int
    #: ``perf_counter_ns`` begin / end stamps
    t0_ns: int
    t1_ns: int
    #: end stamp in seconds since the epoch the reader decoded against
    t_s: float = 0.0

    def as_dict(self) -> dict:
        return {"kind": self.kind, "peer": self.peer,
                "nbytes": self.nbytes, "tag": self.tag,
                "extra": self.extra, "t_s": round(self.t_s, 6)}


class FlightRecorder:
    """Fixed-size per-rank event rings, optionally in shared memory."""

    def __init__(self, size: int, slots: int = 64, *,
                 shared: bool = False):
        self.size = size
        self.slots = slots
        nbytes = 8 * size * (_HDRW + slots * _EVW)
        if shared:
            self.shm = _create_shm(nbytes)
            buf = self.shm.buf
        else:
            self.shm = None
            buf = np.zeros(nbytes // 8, dtype=np.int64)
        self.hdr = np.ndarray((size, _HDRW), dtype=np.int64, buffer=buf)
        self.ring = np.ndarray((size, slots, _EVW), dtype=np.int64,
                               buffer=buf, offset=8 * size * _HDRW)
        self.reset()

    @classmethod
    def attach(cls, name: str, size: int, slots: int) -> "FlightRecorder":
        """Attach to an existing shared recorder (no reset)."""
        rec = cls.__new__(cls)
        rec.size = size
        rec.slots = slots
        rec.shm = _attach_shm(name)
        buf = rec.shm.buf
        rec.hdr = np.ndarray((size, _HDRW), dtype=np.int64, buffer=buf)
        rec.ring = np.ndarray((size, slots, _EVW), dtype=np.int64,
                              buffer=buf, offset=8 * size * _HDRW)
        return rec

    @property
    def name(self) -> str | None:
        return None if self.shm is None else self.shm.name

    def reset(self) -> None:
        self.hdr[:] = 0
        self.ring[:] = 0

    def push(self, rank: int, rec: tuple) -> None:
        """Write one trace record (:mod:`repro.runtime.trace` shape)
        into *rank*'s ring."""
        _, kind, peer, nbytes, tag, extra, t0, t1 = rec
        cur = int(self.hdr[rank, 0])
        self.ring[rank, cur % self.slots] = (
            KIND_CODES.get(kind, _OTHER), -1 if peer is None else peer,
            nbytes, -1 if tag is None else tag, extra, t0, t1)
        self.hdr[rank, 0] = cur + 1

    def pushed(self, rank: int) -> int:
        """Total events ever pushed by *rank* (>= len(tail))."""
        return int(self.hdr[rank, 0])

    def tail(self, rank: int, epoch_ns: int = 0) -> list[FlightEvent]:
        """Decode *rank*'s ring oldest-first; ``t_s`` is the end stamp
        in seconds since *epoch_ns*."""
        cur = int(self.hdr[rank, 0])
        n = min(cur, self.slots)
        out: list[FlightEvent] = []
        for i in range(cur - n, cur):
            kind, peer, nbytes, tag, extra, t0, t1 = \
                (int(v) for v in self.ring[rank, i % self.slots])
            if kind <= 0 or kind >= len(KIND_NAMES):
                continue  # empty or torn slot
            out.append(FlightEvent(
                kind=KIND_NAMES[kind],
                peer=None if peer < 0 else peer,
                nbytes=nbytes,
                tag=None if tag < 0 else tag,
                extra=extra, t0_ns=t0, t1_ns=t1,
                t_s=(t1 - epoch_ns) * 1e-9))
        return out

    def close(self, unlink: bool = False) -> None:
        # drop array views first: SharedMemory.close() refuses while
        # exported buffers are alive
        self.hdr = None
        self.ring = None
        if self.shm is not None:
            self.shm.close()
            if unlink:
                try:
                    _unlink_shm(self.shm)
                except FileNotFoundError:
                    pass
            self.shm = None
