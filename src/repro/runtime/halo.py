"""Aggregated halo (ghost-cell) exchange for partitioned status arrays.

One :class:`HaloExchanger` realises one *combined synchronization point*
from the pre-compiler: all status arrays that the combined point covers are
packed into **one message per neighbor** — the paper's "corresponding
communications are aggregated" (§5.1.2).

Copy discipline: face sections are packed once into contiguous buffers
drawn from a shared :class:`BufferPool` and shipped with the runtime's
zero-copy ``move`` path, so each halo payload is copied exactly once
(pack) instead of three times (pack + send-copy + receive-side hold).
The receiver unpacks into its ghost layers and returns the buffer to the
pool for the next exchange.

Geometry convention: each rank owns an inclusive global index range per
grid dimension; its local arrays are declared with ghost layers around the
owned block (the restructurer sizes them), so sections can be addressed in
*global* Fortran coordinates throughout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from repro.errors import RuntimeCommError
from repro.interp.values import OffsetArray
from repro.runtime.cart import CartComm

#: Tag space for halo messages: tag = base + point_id * 64 + dim * 4
#: + (direction + 1).
_HALO_TAG_BASE = 1 << 16

#: The halo tag space ends where the pipeline tag space begins (1 << 17,
#: see ``repro.codegen.rtadapter``), which caps the combined-point id:
#: point_id * 64 must stay below 2**17 - 2**16.
MAX_HALO_POINTS = ((1 << 17) - _HALO_TAG_BASE) // 64


def halo_tag(point_id: int, dim: int, direction: int) -> int:
    """Message tag for one (combined sync, dim, direction) face transfer."""
    if not 0 <= point_id < MAX_HALO_POINTS:
        raise RuntimeCommError(
            f"halo point_id {point_id} outside [0, {MAX_HALO_POINTS}): "
            f"its tags would stride into the pipeline tag space")
    return _HALO_TAG_BASE + point_id * 64 + dim * 4 + (direction + 1)


class BufferPool:
    """Reusable contiguous numpy buffers, shared by all ranks in-process.

    Senders ``acquire`` a packing buffer, receivers ``release`` it after
    unpacking; because the transport is in-process shared memory, the
    same physical buffer cycles between ranks without reallocation.
    """

    def __init__(self, max_per_key: int = 64) -> None:
        self._lock = threading.Lock()
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._max_per_key = max_per_key
        self.hits = 0
        self.misses = 0
        self.reused_bytes = 0
        #: buffers handed out but not yet released (within this world)
        self.outstanding = 0
        #: buffers whose receiver never released them, summed over drains
        self.leaked = 0
        self.drains = 0

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        # zero-size buffers are never pooled (release skips them), so
        # they must not count as outstanding either: an acquire/release
        # cycle of an empty face would otherwise leak in drain()'s books
        if math.prod(shape) == 0:
            return np.empty(shape, dtype)
        key = (tuple(shape), np.dtype(dtype).str)
        with self._lock:
            self.outstanding += 1
            stack = self._free.get(key)
            if stack:
                buf = stack.pop()
                self.hits += 1
                self.reused_bytes += buf.nbytes
                return buf
            self.misses += 1
        return np.empty(shape, dtype)

    def release(self, buf: np.ndarray) -> None:
        if buf.size == 0:
            return
        key = (buf.shape, buf.dtype.str)
        with self._lock:
            # a buffer turned away because the free list is full still
            # decrements outstanding — it was returned, just not pooled
            self.outstanding = max(0, self.outstanding - 1)
            stack = self._free.setdefault(key, [])
            if len(stack) < self._max_per_key:
                stack.append(buf)

    def drain(self) -> dict:
        """Empty the pool at world teardown; account unreturned buffers.

        A buffer acquired by a sender whose receiver died (or whose
        message was dropped) is never released — without draining it is
        leaked forever and the free lists keep every world's buffers
        alive.  Returns ``{"pooled_freed": n, "leaked": n}`` and folds
        the leak count into :meth:`stats`.
        """
        with self._lock:
            pooled = sum(len(s) for s in self._free.values())
            self._free.clear()
            leaked = self.outstanding
            self.leaked += leaked
            self.outstanding = 0
            self.drains += 1
        return {"pooled_freed": pooled, "leaked": leaked}

    def stats(self) -> dict:
        with self._lock:
            pooled = sum(len(s) for s in self._free.values())
            return {"hits": self.hits, "misses": self.misses,
                    "reused_bytes": self.reused_bytes, "pooled": pooled,
                    "outstanding": self.outstanding, "leaks": self.leaked,
                    "drains": self.drains}


#: Default pool shared by every halo exchanger and pipeline transfer.
_SHARED_POOL = BufferPool()


def shared_pool() -> BufferPool:
    return _SHARED_POOL


@dataclass
class HaloSpec:
    """One array's participation in a halo exchange.

    Attributes:
        array: the local (ghosted) array, indexed in global coordinates.
        dim_map: per array-dimension: which grid dimension it carries, or
            ``None`` for extended (packed/status-count) dimensions.
        owned: inclusive global (lo, hi) owned range per *grid* dimension.
        dist: per grid dimension, (minus, plus) ghost widths — how far
            references reach in each direction (dependency distance).
    """

    array: OffsetArray
    dim_map: tuple[int | None, ...]
    owned: tuple[tuple[int, int], ...]
    dist: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.dim_map) != self.array.rank:
            raise RuntimeCommError(
                f"halo spec for {self.array.name!r}: dim_map rank mismatch")

    def _ranges(self, grid_dim: int,
                face_range: tuple[int, int]) -> list[tuple[int, int]]:
        """Full-array section ranges with *grid_dim* restricted to a face."""
        ranges: list[tuple[int, int]] = []
        for adim in range(self.array.rank):
            g = self.dim_map[adim]
            if g == grid_dim:
                ranges.append(face_range)
            elif g is not None:
                # other partitioned dims: owned range only (corners are not
                # needed by 5/9-point star stencils along one axis at a time;
                # 9-point corner values travel via the two-phase exchange
                # order: dim 0 first including ghosts, then dim 1)
                lo, hi = self.owned[g]
                d_lo, d_hi = self.dist[g]
                blo, bhi = self.array.bounds[adim]
                ranges.append((max(blo, lo - d_lo), min(bhi, hi + d_hi)))
            else:
                ranges.append(self.array.bounds[adim])
        return ranges

    def send_section(self, grid_dim: int, direction: int,
                     pool: BufferPool | None = None) -> np.ndarray:
        """Owned face layers to ship to the neighbor in *direction*.

        With *pool*, the section is packed into a reusable contiguous
        buffer whose ownership passes to the receiver (zero-copy send).
        """
        lo, hi = self.owned[grid_dim]
        d_minus, d_plus = self.dist[grid_dim]
        if direction > 0:
            width = d_minus  # neighbor's minus-side ghost width
            face = (hi - width + 1, hi)
        else:
            width = d_plus
            face = (lo, lo + width - 1)
        if width == 0:
            # dtype must follow the spec array: aggregated exchanges mix
            # float and integer status arrays, and a default-float64 empty
            # would ship a mismatched section for the integer ones
            return np.empty(0, self.array.data.dtype)
        section = self.array.section(self._ranges(grid_dim, face))
        if pool is None:
            return section.copy()
        buf = pool.acquire(section.shape, section.dtype)
        np.copyto(buf, section)
        return buf

    def recv_ranges(self, grid_dim: int, direction: int) -> list[tuple[int, int]] | None:
        """Ghost section ranges filled from the neighbor in *direction*."""
        lo, hi = self.owned[grid_dim]
        d_minus, d_plus = self.dist[grid_dim]
        if direction > 0:
            if d_plus == 0:
                return None
            face = (hi + 1, hi + d_plus)
        else:
            if d_minus == 0:
                return None
            face = (lo - d_minus, lo - 1)
        return self._ranges(grid_dim, face)


class HaloExchanger:
    """Exchanges ghost layers for a set of arrays over a Cartesian comm."""

    def __init__(self, cart: CartComm, specs: list[HaloSpec],
                 point_id: int = 0, pool: BufferPool | None = None) -> None:
        if not 0 <= point_id < MAX_HALO_POINTS:
            raise RuntimeCommError(
                f"combined sync point id {point_id} exceeds the halo tag "
                f"space (max {MAX_HALO_POINTS - 1}); tags would collide "
                f"with pipeline transfers")
        self.cart = cart
        self.specs = specs
        self.point_id = point_id
        self.pool = _SHARED_POOL if pool is None else pool
        #: in-flight receives posted by begin(), drained by finish():
        #: (dim, direction, Request) triples, or None when idle
        self._pending: list[tuple[int, int, object]] | None = None
        self._t_begin0 = 0
        self._t_begin1 = 0

    def exchange(self) -> None:
        """One aggregated exchange: one message per neighbor, all arrays.

        Dimensions are exchanged in order; each later dimension's sections
        include the ghost layers already received for earlier dimensions,
        which transports the diagonal (corner) values nine-point stencils
        need without dedicated corner messages.

        Tracing: besides the per-message send/recv events, each pack and
        unpack copy is recorded as a ``halo_pack`` / ``halo_unpack`` span
        and the whole exchange as an enveloping ``exchange`` span, so the
        timeline can separate halo copying from blocked waiting.
        """
        comm = self.cart.comm
        tx0 = perf_counter_ns()
        for dim in range(self.cart.ndims):
            recvs: list[int] = []
            for direction in (-1, 1):
                if self.cart.neighbor(dim, direction) is None:
                    continue
                tp0 = perf_counter_ns()
                payload = [spec.send_section(dim, direction, self.pool)
                           for spec in self.specs]
                comm.emit("halo_pack", None,
                          sum(int(b.nbytes) for b in payload),
                          halo_tag(self.point_id, dim, direction), 0, tp0)
                self.cart.send_dir(dim, direction, payload,
                                   halo_tag(self.point_id, dim, direction),
                                   move=True)
                recvs.append(direction)
            for direction in recvs:
                # our ghosts on side `direction` come from that neighbor's
                # send in direction `-direction`; it used its own direction
                # value in the tag.
                payload = self.cart.recv_dir(
                    dim, direction,
                    halo_tag(self.point_id, dim, -direction))
                self._unpack(dim, direction, payload)
        comm.emit("exchange", None, 0, self.point_id, 0, tx0)

    def begin(self) -> None:
        """Post the whole aggregated exchange without completing it.

        All receives are posted first (as nonblocking requests), then
        every face of every dimension is packed and shipped at once.
        Unlike :meth:`exchange`, *no* ghost layer is touched here: the
        received payloads stay queued in the transport until
        :meth:`finish` unpacks them, so the caller can keep computing on
        interior cells — and even keep *reading* the current ghost values
        — while the messages are in flight.  That queueing is the double
        buffer: frame N+1's receives cannot clobber the faces frame N's
        boundary strip still reads, because unpacking only happens in
        the matching ``finish()``.

        Corner caveat: because every dimension's faces are packed before
        any ghost arrives, the sections shipped for later dimensions
        carry *stale* ghost values in the regions the blocking path
        would have refreshed first (the two-phase corner propagation in
        :meth:`exchange`).  Callers that need diagonal/corner ghost
        values must use the blocking path — the restructurer's overlap
        gate enforces this.
        """
        if self._pending is not None:
            raise RuntimeCommError(
                f"halo exchange {self.point_id} begun twice without finish")
        comm = self.cart.comm
        self._t_begin0 = perf_counter_ns()
        pending: list[tuple[int, int, object]] = []
        for dim in range(self.cart.ndims):
            for direction in (-1, 1):
                req = self.cart.irecv_dir(
                    dim, direction, halo_tag(self.point_id, dim, -direction))
                if req is not None:
                    pending.append((dim, direction, req))
        for dim in range(self.cart.ndims):
            for direction in (-1, 1):
                if self.cart.neighbor(dim, direction) is None:
                    continue
                tp0 = perf_counter_ns()
                payload = [spec.send_section(dim, direction, self.pool)
                           for spec in self.specs]
                comm.emit("halo_pack", None,
                          sum(int(b.nbytes) for b in payload),
                          halo_tag(self.point_id, dim, direction), 0, tp0)
                self.cart.isend_dir(dim, direction, payload,
                                    halo_tag(self.point_id, dim, direction),
                                    move=True)
        self._pending = pending
        self._t_begin1 = perf_counter_ns()

    def finish(self) -> None:
        """Complete a begun exchange: wait on every receive and unpack.

        The window between ``begin()`` returning and ``finish()`` being
        entered is recorded as an ``overlap`` span — halo latency hidden
        behind the caller's interior compute — and the whole
        begin-to-finish extent as the usual ``exchange`` envelope, so
        frame inference and roll-ups see the same shape as the blocking
        path.
        """
        if self._pending is None:
            raise RuntimeCommError(
                f"halo exchange {self.point_id} finished without begin")
        pending, self._pending = self._pending, None
        comm = self.cart.comm
        comm.emit("overlap", None, 0, self.point_id, 0, self._t_begin1)
        for dim, direction, req in pending:
            self._unpack(dim, direction, req.wait())
        comm.emit("exchange", None, 0, self.point_id, 0, self._t_begin0)

    def _unpack(self, dim: int, direction: int,
                payload: list[np.ndarray]) -> None:
        if len(payload) != len(self.specs):
            raise RuntimeCommError(
                f"halo message carries {len(payload)} sections for "
                f"{len(self.specs)} arrays")
        tu0 = perf_counter_ns()
        nbytes = 0
        for spec, section in zip(self.specs, payload):
            ranges = spec.recv_ranges(dim, direction)
            if ranges is not None:
                spec.array.set_section(ranges, section)
                nbytes += int(section.nbytes)
            self.pool.release(section)
        self.cart.comm.emit("halo_unpack", None, nbytes,
                            halo_tag(self.point_id, dim, -direction), 0,
                            tu0)
