"""True-parallel process executor behind the :class:`Communicator` API.

The thread executor (:func:`repro.runtime.world.spmd_run`) shares one GIL,
so compute-bound ranks serialize.  This module runs each rank in a real OS
process — same ``Communicator`` surface, same failure-propagation /
deadlock-diagnosis / bounded-join guarantees — behind
``spmd_run(..., executor="process")``:

* a **persistent worker pool** per world size (:func:`get_pool`) is
  spawned once and reused across runs and recovery attempts — respawning
  processes per attempt would swamp small runs with fork cost.  Workers
  killed by a fault (or the stuck deadline) are respawned lazily;
* point-to-point payloads travel over per-ordered-pair OS pipes; ``move``
  payloads (packed halo faces) go through **shared-memory ring buffers**
  (:class:`_ShmRing`), so the byte-heavy path never pickles — the
  receiver copies each face straight into a pool buffer and frees the
  slot;
* a worker-side :class:`ProcCommunicator` subclasses ``Communicator``:
  its own mailbox is a real in-process ``_Mailbox`` (a drainer thread
  materializes incoming pipe traffic into it), peers are
  :class:`_RemoteMailbox` proxies, and receive matching, collectives,
  and duplicate suppression are inherited unchanged.  Every message is
  stamped with its run id; drainers buffer traffic for runs they have
  not installed yet and drop traffic from dead attempts, so recovery
  never sees ghost messages;
* the world barrier is a ``multiprocessing.Barrier`` shared by all
  workers, abortable by any worker *and* by the launcher;
* **deadlock detection is mirrored in the launcher**: every worker
  publishes what it is blocked on (re-published as a heartbeat, with its
  send/deliver counters), and the launcher declares a deadlock only when
  every live rank is blocked, the global sent/delivered counters
  balance, no injected message is in flight, and nothing has changed for
  a quiescence window.  The diagnosis names the wait-for cycle with the
  same formatting as the thread executor;
* **failure propagation**: a failing worker reports the error (with its
  trace) over its control pipe; the launcher broadcasts the failure,
  aborts the barrier, and gives the rest the watchdog deadline to
  unwind.  A worker that dies without reporting — a real ``SIGKILL`` —
  is detected through its process sentinel; non-reporters past the
  deadline are killed and named, exactly like the thread executor's
  stuck ranks;
* **trace merging**: workers stamp events with ``perf_counter_ns`` —
  ``CLOCK_MONOTONIC``, one system-wide clock, and every worker shares
  the launcher's host because halos travel through shared memory — and
  ship their raw records back with the result; the launcher appends
  them unchanged to the caller's trace, whose one epoch decodes every
  rank alike, so ``acfd profile`` output is executor-agnostic.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from multiprocessing import connection as mpc
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.errors import RuntimeCommError, RuntimeDeadlockError
from repro.runtime.comm import (Communicator, _Mailbox, _Message,
                                _payload_bytes, _WaitState, find_wait_cycle,
                                format_rank_states, perf_counter_ns)
from repro.runtime.halo import shared_pool
from repro.runtime.trace import Trace
from repro.runtime.world import World

#: blocked workers re-publish their wait state this often; also the
#: worker command-poll interval and the launcher monitor tick
_HEARTBEAT = 0.2

#: the launcher declares a deadlock only after the mirrored world state
#: has been quiescent this long — long enough for any in-flight
#: delivery, mailbox take, or heartbeat race to surface as a change
_MIRROR_QUIET = 0.75

#: shared-memory ring geometry: slots per ring, minimum slot payload
_RING_SLOTS = 8
_RING_MIN_SLOT = 1 << 16


def _untrack_shm(shm: shared_memory.SharedMemory) -> None:
    """Drop *shm* from this process's resource tracker.

    Ring segments are owned by the launcher's pool (workers register
    every created ring over the control pipe; the pool unlinks them at
    shutdown).  Without this, every create/attach would also register
    with the per-process tracker, which then warns — and double-unlinks
    — at interpreter exit.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


# ---------------------------------------------------------------------------
# shared-memory rings for move payloads
# ---------------------------------------------------------------------------


class _ShmRing:
    """Sender-owned SPSC ring of fixed-size payload slots.

    Layout: ``_RING_SLOTS`` one-byte slot flags (0 free / 1 full)
    followed by the slot payloads.  The sender scans for a free slot,
    writes the payload, sets the flag, and ships ``(name, slot, descs)``
    over the data pipe — the pipe message is the synchronization; the
    flag only gates slot reuse.  The receiver copies the payload out and
    clears the flag.  No free slot (or an oversize payload) returns None
    and the sender falls back to pickling over the pipe, so a slow
    receiver degrades throughput, never correctness.
    """

    def __init__(self, slot_size: int) -> None:
        self.slot_size = slot_size
        self.shm = shared_memory.SharedMemory(
            create=True, size=_RING_SLOTS * (1 + slot_size))
        _untrack_shm(self.shm)
        self.name = self.shm.name
        self.flags = np.ndarray((_RING_SLOTS,), np.uint8,
                                buffer=self.shm.buf)
        self.flags[:] = 0

    def try_put(self, arrays: list[np.ndarray], total: int
                ) -> tuple[int, list] | None:
        """Write *arrays* into a free slot; (slot, descs) or None."""
        if total > self.slot_size:
            return None
        free = np.flatnonzero(self.flags == 0)
        if free.size == 0:
            return None
        slot = int(free[0])
        base = _RING_SLOTS + slot * self.slot_size
        offset = 0
        descs = []
        for a in arrays:
            dst = np.ndarray(a.shape, a.dtype, buffer=self.shm.buf,
                             offset=base + offset)
            dst[...] = a
            descs.append((a.shape, a.dtype.str, offset))
            offset += a.nbytes
        self.flags[slot] = 1
        return slot, descs


class _RingSet:
    """All rings one worker created for one destination (grow on demand)."""

    def __init__(self, notify_created) -> None:
        self._rings: list[_ShmRing] = []
        self._notify = notify_created  # (name) -> None: register w/ pool

    def put(self, arrays: list[np.ndarray]) -> tuple[str, int, list] | None:
        total = sum(a.nbytes for a in arrays)
        for ring in self._rings:
            got = ring.try_put(arrays, total)
            if got is not None:
                return ring.name, got[0], got[1]
        # no capacity: grow for oversize payloads; an adequately sized
        # but full ring means the receiver is behind — pickle instead of
        # allocating more shared memory
        if self._rings and total <= self._rings[-1].slot_size:
            return None
        ring = _ShmRing(max(_RING_MIN_SLOT, total))
        self._notify(ring.name)
        self._rings.append(ring)
        got = ring.try_put(arrays, total)
        return ring.name, got[0], got[1]


class _ShmReader:
    """Receiver-side ring attachments (cached per segment name).

    Thread-safe: the drainer and the worker command loop (flushing
    buffered early-run messages) both route through it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segs: dict[str, shared_memory.SharedMemory] = {}

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        with self._lock:
            shm = self._segs.get(name)
            if shm is None:
                shm = self._segs[name] = shared_memory.SharedMemory(
                    name=name)
                _untrack_shm(shm)
            return shm

    def free(self, name: str, slot: int) -> None:
        """Release a slot without materializing (stale-run message)."""
        shm = self._attach(name)
        np.ndarray((_RING_SLOTS,), np.uint8, buffer=shm.buf)[slot] = 0

    def take(self, name: str, slot: int, single: bool, descs: list):
        """Copy a slot's payload into pool-backed local buffers.

        Delivering views of the ring would let the receiver's unpack
        path ``release`` foreign memory into its :class:`BufferPool`
        (and the slot could be recycled under a held view), so each face
        is copied out exactly once — the same single copy the thread
        executor's receive side pays, with zero pickling.
        """
        shm = self._attach(name)
        slot_size = (shm.size - _RING_SLOTS) // _RING_SLOTS
        base = _RING_SLOTS + slot * slot_size
        pool = shared_pool()
        out = []
        for shape, dtype, offset in descs:
            src = np.ndarray(shape, dtype, buffer=shm.buf,
                             offset=base + offset)
            local = pool.acquire(shape, dtype)
            local[...] = src
            out.append(local)
        np.ndarray((_RING_SLOTS,), np.uint8, buffer=shm.buf)[slot] = 0
        return out[0] if single else out


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _Run:
    """One attempt's worker-side state (fresh per "run" command)."""

    def __init__(self, run_id: int, rank: int, trace_enabled: bool) -> None:
        self.run_id = run_id
        self.rank = rank
        self.trace = Trace(enabled=trace_enabled)
        self.mailbox = _Mailbox()
        self.failed = threading.Event()
        self.injector = None
        self.detector: _ClientDetector | None = None
        #: this rank's live-telemetry writer (attached shared memory)
        self.tele = None
        self.lock = threading.Lock()
        self.sent = 0
        self.delivered = 0
        #: (op, source, tag, token) while blocked, else None
        self.current_wait = None
        self._wait_token = 0

    def bump_sent(self) -> None:
        with self.lock:
            self.sent += 1

    def bump_delivered(self) -> None:
        with self.lock:
            self.delivered += 1

    def counters(self) -> tuple[int, int, int]:
        infl = self.injector.in_flight() if self.injector is not None else 0
        with self.lock:
            return self.sent, self.delivered, infl


class _ClientDetector:
    """Worker-side detector stub with the ``DeadlockDetector`` surface
    that ``_Mailbox.get`` and ``Communicator.barrier`` use.

    It does no detection itself: it publishes this rank's wait state to
    the launcher (which mirrors the whole world) and surfaces the
    launcher's verdict through ``self.diagnosis``.
    """

    def __init__(self, run: _Run, publish) -> None:
        self._run = run
        self._publish = publish  # (msg tuple) -> None over the ctrl pipe
        self.diagnosis: str | None = None

    def block(self, rank: int, op: str, source: int | None = None,
              tag: int | None = None) -> _WaitState:
        run = self._run
        with run.lock:
            run._wait_token += 1
            token = run._wait_token
            run.current_wait = (op, source, tag, token)
        sent, delivered, infl = run.counters()
        self._publish(("blocked", rank, run.run_id, op, source, tag,
                       token, sent, delivered, infl))
        return _WaitState(rank, op, source, tag)

    def unblock(self, rank: int) -> None:
        run = self._run
        with run.lock:
            run.current_wait = None
        sent, delivered, infl = run.counters()
        self._publish(("unblocked", rank, run.run_id, sent, delivered,
                       infl))

    def check(self) -> None:
        """Detection lives in the launcher; heartbeats come from the
        worker's command loop, so the periodic fallback is a no-op."""

    def snapshot(self) -> str:
        return "  (world state is mirrored by the launcher)"


class _RemoteMailbox:
    """Sender-side proxy for a peer's mailbox: ``put`` ships the message
    over the data pipe, or through the shm ring for move payloads.

    Bound to one run: a delayed delivery (fault-injection timer) firing
    after its run died carries the dead run's id and is dropped by the
    receiver's drainer instead of ghosting into the next attempt.
    """

    __slots__ = ("_run", "_conn", "_lock", "_rings")

    def __init__(self, run: _Run, conn, lock, rings: _RingSet) -> None:
        self._run = run
        self._conn = conn
        self._lock = lock  # per-pipe: body + injector timers may race
        self._rings = rings

    def put(self, message: _Message, move: bool = False) -> None:
        run = self._run
        run.bump_sent()
        payload = message.payload
        if move:
            arrays, single = _as_array_list(payload)
            if arrays is not None:
                got = self._rings.put(arrays)
                if got is not None:
                    name, slot, descs = got
                    with self._lock:
                        self._conn.send(("s", run.run_id, message.source,
                                         message.tag, message.msg_id,
                                         name, slot, single, descs))
                    return
        with self._lock:
            self._conn.send(("p", run.run_id, message.source, message.tag,
                             message.msg_id, payload))


def _as_array_list(payload):
    """(list of contiguous ndarrays, was_single) or (None, False)."""
    if isinstance(payload, np.ndarray):
        return ([payload] if payload.flags.c_contiguous
                else [np.ascontiguousarray(payload)]), True
    if isinstance(payload, list) and payload and all(
            isinstance(a, np.ndarray) for a in payload):
        return [a if a.flags.c_contiguous else np.ascontiguousarray(a)
                for a in payload], False
    return None, False


class ProcCommunicator(Communicator):
    """A rank endpoint whose peers live in other processes.

    Everything above delivery — receive matching, collectives, barrier
    handling, deadlock bookkeeping, tracing — is inherited; only remote
    ``send`` changes: pickling (or the shm ring) *is* the buffered-send
    copy, so the payload deep-copy is skipped on the fault-free path.
    """

    def send(self, dest: int, obj, tag: int = 0, *,
             move: bool = False) -> None:
        if dest == self.rank or self._injector is not None:
            # self-sends use the local mailbox; injected runs keep the
            # base path so drop/delay/duplicate see every delivery
            return super().send(dest, obj, tag, move=move)
        self._check_rank(dest)
        self._check_tag(tag)
        if self._trace.enabled or self.telemetry is not None:
            cls = obj.__class__
            nbytes = 8 if cls is int or cls is float \
                else _payload_bytes(obj)
            self.emit("send", dest, nbytes, tag, nbytes if move else 0)
        self._mailboxes[dest].put(_Message(self.rank, tag, obj), move=move)


class _WorkerState:
    """One worker process's long-lived state across runs."""

    def __init__(self, rank: int, size: int, ctrl) -> None:
        self.rank = rank
        self.size = size
        self.ctrl = ctrl
        self.ctrl_lock = threading.Lock()
        self.reader = _ShmReader()
        #: guards run installation and the early-message buffer
        self.route_lock = threading.Lock()
        self.run: _Run | None = None
        #: run_id -> messages that arrived before that run was installed
        #: (rank 0 can start sending before this worker saw its "run")
        self.early: dict[int, list] = {}

    def publish(self, msg: tuple) -> None:
        with self.ctrl_lock:
            self.ctrl.send(msg)

    # -- message routing (drainer thread + command loop) ----------------------

    def route(self, msg: tuple) -> None:
        """Deliver one data-pipe message to the right run (or buffer /
        drop it by run id)."""
        rid = msg[1]
        with self.route_lock:
            run = self.run
            current = run.run_id if run is not None else 0
            if rid > current:
                self.early.setdefault(rid, []).append(msg)
                return
            if run is None or rid < current:
                run = None
        if run is None:
            if msg[0] == "s":
                self.reader.free(msg[5], msg[6])  # stale: recycle slot
            return
        self._deliver(run, msg)

    def install(self, run: _Run) -> None:
        """Make *run* current and flush its early-arrived messages."""
        with self.route_lock:
            self.run = run
            flush = self.early.pop(run.run_id, [])
            stale = [m for rid in [r for r in self.early if r < run.run_id]
                     for m in self.early.pop(rid)]
        for msg in stale:
            if msg[0] == "s":
                self.reader.free(msg[5], msg[6])
        for msg in flush:
            self._deliver(run, msg)

    def _deliver(self, run: _Run, msg: tuple) -> None:
        if msg[0] == "p":
            _, _, source, tag, msg_id, payload = msg
        else:
            _, _, source, tag, msg_id, name, slot, single, descs = msg
            payload = self.reader.take(name, slot, single, descs)
        run.mailbox.put(_Message(source, tag, payload, msg_id))
        run.bump_delivered()


def _drain_loop(worker: _WorkerState, data_in) -> None:
    """Materialize incoming data-pipe traffic into the current run."""
    conns = [conn for _, conn in data_in]
    while conns:
        for conn in mpc.wait(conns):
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                conns.remove(conn)
                continue
            worker.route(msg)


def _exc_kind(exc: BaseException) -> str:
    if isinstance(exc, RuntimeDeadlockError):
        return "deadlock"
    if isinstance(exc, RuntimeCommError):
        return "comm"
    return "other"


def _worker_main(rank: int, size: int, cmd, ctrl, data_in, data_out,
                 barrier) -> None:
    """Worker process entry: command loop + drainer + per-run body."""
    worker = _WorkerState(rank, size, ctrl)
    threading.Thread(target=_drain_loop, args=(worker, data_in),
                     daemon=True, name=f"proc-drain-{rank}").start()
    pipe_locks = {dest: threading.Lock() for dest, _ in data_out}
    rings = {dest: _RingSet(
        lambda name: worker.publish(("shm+", rank, name)))
        for dest, _ in data_out}
    data_out = dict(data_out)
    compiled_cache: dict = {}

    while True:
        if not cmd.poll(_HEARTBEAT):
            run = worker.run
            if run is not None and run.current_wait is not None:
                op, source, tag, token = run.current_wait
                sent, delivered, infl = run.counters()
                worker.publish(("blocked", rank, run.run_id, op, source,
                                tag, token, sent, delivered, infl))
            continue
        try:
            msg = cmd.recv()
        except (EOFError, OSError):
            os._exit(0)
        if msg[0] == "shutdown":
            os._exit(0)
        if msg[0] == "fail":
            _, rid, diagnosis = msg
            run = worker.run
            if run is not None and run.run_id == rid:
                if diagnosis is not None and run.detector is not None:
                    run.detector.diagnosis = diagnosis
                run.failed.set()
                run.mailbox.wake()
            continue
        # ("run", run_id, blob)
        _, run_id, blob = msg
        fn, timeout, trace_enabled, spec, tele_spec = pickle.loads(blob)
        run = _Run(run_id, rank, trace_enabled)
        run.detector = _ClientDetector(run, worker.publish)
        if tele_spec is not None:
            from repro.obs.health import Telemetry
            run.tele = Telemetry.attach(tele_spec, rank)
            run.tele.start()
        if spec is not None:
            run.injector = _build_worker_injector(worker, run, spec,
                                                  barrier)
        worker.install(run)
        threading.Thread(
            target=_run_body, daemon=True, name=f"proc-body-{rank}",
            args=(worker, run, fn, timeout, barrier, data_out,
                  pipe_locks, rings, compiled_cache)).start()


def _build_worker_injector(worker: _WorkerState, run: _Run, spec: dict,
                           barrier):
    """Rebuild the attempt's fault injector inside the worker.

    ``salt`` keeps duplicate-suppression ids unique across sender
    processes; ``crash_mode="kill"`` makes injected crashes real
    (``SIGKILL``) after synchronously flushing the fired-event record
    and the trace, so telemetry survives the death.
    """
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan

    def on_fire(index: int, record: dict) -> None:
        worker.publish(("fired", run.rank, run.run_id, index,
                        dict(record)))

    def on_crash(reason: str) -> None:
        worker.publish(("dying", run.rank, run.run_id,
                        "InjectedFaultError", reason,
                        list(run.trace.events)))
        if run.tele is not None:
            run.tele.finish(False)  # last heartbeat: state=failed
        barrier.abort()  # wake peers stuck in a barrier right away
        os.kill(os.getpid(), 9)  # SIGKILL: a real, unhandled death

    injector = FaultInjector(FaultPlan.from_dict(spec["plan"]),
                             armed=spec["armed"], salt=run.rank + 1,
                             crash_mode="kill", on_fire=on_fire,
                             on_crash=on_crash)
    return injector


def _run_body(worker: _WorkerState, run: _Run, fn, timeout, barrier,
              data_out, pipe_locks, rings, compiled_cache) -> None:
    """Execute the rank body for one run and report the outcome."""
    mailboxes: list = [None] * worker.size
    for dest, conn in data_out.items():
        mailboxes[dest] = _RemoteMailbox(run, conn, pipe_locks[dest],
                                         rings[dest])
    mailboxes[run.rank] = run.mailbox
    if run.tele is not None:
        run.tele.bind(run.mailbox, shared_pool())
    comm = ProcCommunicator(run.rank, worker.size, mailboxes, barrier,
                            run.trace, run.failed, timeout, run.detector,
                            run.injector, run.tele)
    #: worker-persistent compile cache (see repro.codegen.runner)
    comm.compiled_cache = compiled_cache
    err: BaseException | None = None
    result = None
    t0 = perf_counter_ns()
    try:
        result = fn(comm)
    except BaseException as exc:  # noqa: BLE001 - must report all
        err = exc
        barrier.abort()
    finally:
        comm.emit("rank", t0_ns=t0)
        shared_pool().drain()
        if run.tele is not None:
            run.tele.finish(err is None)
    events = list(run.trace.events)
    counters = run.counters()
    if err is not None:
        worker.publish(("error", run.rank, run.run_id, _exc_kind(err),
                        type(err).__name__, str(err), events, counters))
        return
    try:
        worker.publish(("done", run.rank, run.run_id, result, events,
                        counters))
    except Exception as exc:  # unpicklable rank result
        worker.publish(("error", run.rank, run.run_id, "other",
                        type(exc).__name__,
                        f"rank result not picklable: {exc}", events,
                        counters))


# ---------------------------------------------------------------------------
# launcher side
# ---------------------------------------------------------------------------


class _MirrorDetector:
    """Launcher-side mirror of the world's blocked/counter state.

    Declares a deadlock only from a *quiescent* snapshot: every report
    that changes anything resets the window, so any in-flight delivery,
    pending mailbox take, or heartbeat race surfaces first.  Sound
    because a message anywhere between a sender and a mailbox keeps the
    global sent/delivered counters unbalanced (senders count before
    shipping, receivers count after materializing), and a message
    sitting *in* a mailbox wakes its receiver, whose next report is a
    change.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.done: set[int] = set()
        self.waiting: dict[int, tuple] = {}
        self.counters: dict[int, tuple[int, int, int]] = {}
        self.since: dict[int, float] = {}
        self.last_change = time.monotonic()
        self.diagnosis: str | None = None

    def note(self, rank: int, waiting: tuple | None,
             counters: tuple[int, int, int]) -> None:
        if (self.waiting.get(rank) != waiting
                or self.counters.get(rank) != counters):
            self.last_change = time.monotonic()
            if waiting is not None and (
                    rank not in self.waiting
                    or self.waiting[rank][3] != waiting[3]):
                self.since[rank] = time.monotonic()
        if waiting is None:
            self.waiting.pop(rank, None)
        else:
            self.waiting[rank] = waiting
        self.counters[rank] = counters

    def finish(self, rank: int,
               counters: tuple[int, int, int] | None) -> None:
        self.done.add(rank)
        self.waiting.pop(rank, None)
        if counters is not None:
            self.counters[rank] = counters
        self.last_change = time.monotonic()

    def check(self) -> str | None:
        if self.diagnosis is not None:
            return self.diagnosis
        live = [r for r in range(self.size) if r not in self.done]
        if not live or any(r not in self.waiting for r in live):
            return None  # someone is still computing
        if time.monotonic() - self.last_change < _MIRROR_QUIET:
            return None  # wait for the world to go quiet
        sent = sum(c[0] for c in self.counters.values())
        delivered = sum(c[1] for c in self.counters.values())
        in_flight = sum(c[2] for c in self.counters.values())
        if sent != delivered or in_flight > 0:
            return None  # a delivery is still in the pipes / on a timer
        states = [self.waiting[r] for r in live]
        if all(s[0] == "barrier" for s in states) \
                and len(live) == self.size:
            return None  # a full barrier releases itself
        self.diagnosis = self._diagnose(live)
        return self.diagnosis

    def _diagnose(self, live: list[int]) -> str:
        cycle = find_wait_cycle(
            {r: w[1] for r, w in self.waiting.items()
             if w[0] != "barrier" and w[1] is not None})
        if cycle:
            arrow = " -> ".join(f"rank {r}" for r in cycle + cycle[:1])
            head = f"deadlock detected: wait-for cycle {arrow}"
        else:
            head = (f"deadlock detected: all {len(live)} live ranks "
                    "blocked with no message in flight")
        return f"{head}\n{self.snapshot()}"

    def snapshot(self) -> str:
        now = time.monotonic()
        waiting = {}
        for rank, (op, source, tag, _token) in self.waiting.items():
            if op == "barrier":
                what = "barrier"
            else:
                src = "any" if source is None else source
                tg = "any" if tag is None else tag
                what = f"{op}(source={src}, tag={tg})"
            held = now - self.since.get(rank, now)
            waiting[rank] = f"{what} for {held:.2f}s"
        return format_rank_states(self.size, self.done, waiting)


class _Worker:
    __slots__ = ("rank", "process", "cmd", "ctrl")

    def __init__(self, rank, process, cmd, ctrl) -> None:
        self.rank = rank
        self.process = process
        self.cmd = cmd
        self.ctrl = ctrl


class WorkerPool:
    """A persistent set of rank processes for one world size.

    Spawned once (fork where available, spawn otherwise), then reused by
    every process-executor run of that size — including all recovery
    attempts of a chaos run.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        try:
            self.ctx = get_context("fork")
        except ValueError:  # platform without fork
            self.ctx = get_context("spawn")
        self.barrier = self.ctx.Barrier(size)
        self.shm_names: set[str] = set()
        self._run_seq = 0
        #: (source, dest) -> (read end, write end); both ends stay open
        #: in the launcher so respawned workers inherit live pipes and
        #: traffic buffered for a dead rank survives until drained
        self.data = {(s, d): self.ctx.Pipe(duplex=False)
                     for s in range(size) for d in range(size) if s != d}
        self.workers: list[_Worker] = [None] * size  # type: ignore[list-item]
        for rank in range(size):
            self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        cmd_r, cmd_w = self.ctx.Pipe(duplex=False)
        ctrl_r, ctrl_w = self.ctx.Pipe(duplex=False)
        data_in = [(s, self.data[(s, rank)][0])
                   for s in range(self.size) if s != rank]
        data_out = [(d, self.data[(rank, d)][1])
                    for d in range(self.size) if d != rank]
        process = self.ctx.Process(
            target=_worker_main, daemon=True, name=f"acfd-rank-{rank}",
            args=(rank, self.size, cmd_r, ctrl_w, data_in, data_out,
                  self.barrier))
        process.start()
        self.workers[rank] = _Worker(rank, process, cmd_w, ctrl_r)

    def next_run_id(self) -> int:
        self._run_seq += 1
        return self._run_seq

    def ensure_alive(self) -> None:
        """Respawn dead workers and un-break the barrier before a run."""
        for rank in range(self.size):
            w = self.workers[rank]
            if w is None or not w.process.is_alive():
                if w is not None:
                    w.process.join(timeout=0.5)
                    _close_quiet(w.cmd, w.ctrl)
                self._spawn(rank)
        if self.barrier.broken:
            self.barrier.reset()

    def shutdown(self) -> None:
        for w in self.workers:
            if w is None:
                continue
            try:
                w.cmd.send(("shutdown",))
            except OSError:
                pass
        for w in self.workers:
            if w is None:
                continue
            w.process.join(timeout=1.0)
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=0.5)
            _close_quiet(w.cmd, w.ctrl)
        for ends in self.data.values():
            _close_quiet(*ends)
        for name in self.shm_names:
            try:
                # attach registers with the tracker and unlink
                # unregisters — balanced, so no _untrack_shm here
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        self.shm_names.clear()


def _close_quiet(*conns) -> None:
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


_POOLS: dict[int, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(size: int) -> WorkerPool:
    """The persistent worker pool for world size *size* (spawn once)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(size)
        if pool is None:
            pool = _POOLS[size] = WorkerPool(size)
        return pool


def shutdown_pools() -> None:
    """Tear down every pool (registered atexit; callable from tests)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


def proc_run(size: int, fn, *, timeout: float = 60.0,
             trace: Trace | None = None, injector=None,
             telemetry=None) -> World:
    """Run ``fn(comm)`` on *size* rank processes; same contract as
    :func:`repro.runtime.world.spmd_run`.

    *fn* must be picklable (a module-level callable or a
    ``functools.partial`` of one).  *injector* is the launcher's master
    :class:`~repro.faults.FaultInjector`: its plan and armed-event set
    ship to the workers, fired events are relayed back and disarmed in
    the master, so exactly-once firing holds across recovery attempts
    even though each attempt rebuilds worker-side injectors.
    *telemetry* must be shared-memory backed
    (``Telemetry(size, shared=True)``): workers attach by segment name
    and write heartbeats/flight events the launcher can read even after
    a worker dies.
    """
    if size < 1:
        raise RuntimeCommError(f"world size must be >= 1, got {size}")
    world = World(size=size, trace=trace if trace is not None else Trace())
    world.results = [None] * size
    tele_spec = None
    if telemetry is not None:
        tele_spec = telemetry.spec()  # raises unless shared-memory backed
        telemetry.begin(world.trace.epoch_ns)
    try:
        blob = pickle.dumps(
            (fn, timeout, world.trace.enabled,
             None if injector is None else injector.spec(), tele_spec))
    except Exception as exc:
        raise RuntimeCommError(
            "process executor requires a picklable rank body (a module-"
            f"level function or functools.partial of one): {exc}") from exc
    pool = get_pool(size)
    pool.ensure_alive()
    run_id = pool.next_run_id()
    for w in pool.workers:
        w.cmd.send(("run", run_id, blob))

    mirror = _MirrorDetector(size)
    #: rank -> (kind, type name, message); kind drives raise priority
    errors: dict[int, tuple[str, str, str]] = {}
    finished: set[int] = set()
    dead: set[int] = set()
    deadline: list[float | None] = [None]  # armed on first failure
    tripped = [False]  # the failure broadcast went out

    def fail_world(diagnosis: str | None) -> None:
        if deadline[0] is None:
            deadline[0] = time.monotonic() + timeout
        if tripped[0]:
            return
        tripped[0] = True
        pool.barrier.abort()
        for w in pool.workers:
            if w.rank not in finished and w.rank not in dead:
                try:
                    w.cmd.send(("fail", run_id, diagnosis))
                except OSError:
                    pass

    def handle(msg: tuple) -> None:
        kind = msg[0]
        rank = msg[1]
        if kind != "shm+" and msg[2] != run_id:
            return  # stale report from a previous attempt
        if kind == "blocked":
            _, _, _, op, source, tag, token, sent, delivered, infl = msg
            mirror.note(rank, (op, source, tag, token),
                        (sent, delivered, infl))
        elif kind == "unblocked":
            _, _, _, sent, delivered, infl = msg
            mirror.note(rank, None, (sent, delivered, infl))
        elif kind == "done":
            _, _, _, result, events, counters = msg
            world.results[rank] = result
            world.trace.absorb(events)
            finished.add(rank)
            mirror.finish(rank, counters)
        elif kind == "error":
            _, _, _, ekind, tname, text, events, counters = msg
            world.trace.absorb(events)
            errors.setdefault(rank, (ekind, tname, text))
            finished.add(rank)
            mirror.finish(rank, counters)
            fail_world(None)
        elif kind == "dying":
            # a kill-mode fault flushed telemetry before SIGKILLing
            # itself; the sentinel below will confirm the death
            _, _, _, tname, text, events = msg
            world.trace.absorb(events)
            errors.setdefault(rank, ("other", tname, text))
        elif kind == "fired":
            _, _, _, index, record = msg
            if injector is not None:
                injector.absorb_fired(index, record)
        elif kind == "shm+":
            pool.shm_names.add(msg[2])

    def drain_ctrl(worker: _Worker) -> None:
        while True:
            try:
                if not worker.ctrl.poll():
                    return
                handle(worker.ctrl.recv())
            except (EOFError, OSError):
                return

    by_ctrl = {id(w.ctrl): w for w in pool.workers}
    sentinels = {w.process.sentinel: w for w in pool.workers}
    while len(finished | dead) < size:
        ready = mpc.wait(list(by_ctrl) and [w.ctrl for w in pool.workers]
                         + list(sentinels), timeout=_HEARTBEAT)
        for item in ready:
            if item not in sentinels:
                drain_ctrl(by_ctrl[id(item)])
        # handle sentinel deaths only after their control traffic (an
        # "error"/"dying" flushed just before death) has been drained
        for item in ready:
            worker = sentinels.get(item)
            if worker is None or worker.rank in dead:
                continue
            drain_ctrl(worker)
            rank = worker.rank
            dead.add(rank)
            mirror.finish(rank, None)
            if rank not in errors:
                worker.process.join(timeout=0.5)
                errors[rank] = (
                    "killed", "WorkerDied",
                    f"rank {rank} worker process died without reporting "
                    f"(exit code {worker.process.exitcode}; killed?)")
            fail_world(None)
        if not errors:
            diagnosis = mirror.check()
            if diagnosis is not None:
                fail_world(diagnosis)
        if deadline[0] is not None and time.monotonic() > deadline[0] \
                and len(finished | dead) < size:
            break

    stuck = sorted(set(range(size)) - finished - dead)
    if stuck:
        # past the post-failure deadline: kill and name the non-reporters
        for rank in stuck:
            w = pool.workers[rank]
            if w.process.is_alive():
                w.process.kill()
            w.process.join(timeout=1.0)
            drain_ctrl(w)
        first = ""
        if errors:
            rank = min(errors)
            ekind, tname, text = errors[rank]
            first = f"; first failure: rank {rank}: {tname}: {text}"
        raise RuntimeCommError(
            f"world failed but rank(s) {', '.join(map(str, stuck))} did "
            f"not stop within the {timeout}s watchdog — likely spinning "
            f"in compute-only code that never observes the failure"
            f"{first}\n{mirror.snapshot()}")

    if errors:
        # same root-cause priority as the thread executor: a real error
        # beats an unexplained worker death beats the deadlock diagnosis
        # beats the comm-cascade failures any of them triggered
        priority = {"other": 0, "killed": 1, "deadlock": 2, "comm": 3}
        rank = min(errors, key=lambda r: (priority[errors[r][0]], r))
        ekind, tname, text = errors[rank]
        wrapper = (RuntimeDeadlockError if ekind == "deadlock"
                   else RuntimeCommError)
        raise wrapper(f"rank {rank} failed: {tname}: {text}")
    return world
