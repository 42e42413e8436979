"""The per-rank runtime behind the generated ``acfd_*`` calls.

The restructured SPMD program is rank-agnostic; every rank-dependent value
flows through one of these methods (the generated Python maps a call
``acfd_xyz(...)`` onto ``ctx.rt.xyz(...)``):

======================  ====================================================
``acfd_rank()``          this rank's id
``acfd_nprocs()``        world size
``acfd_lo(g)``           owned lower bound of grid dim *g* (1-based dim)
``acfd_hi(g)``           owned upper bound
``acfd_owns(g, c)``      does this rank own grid coordinate *c* on dim *g*
``acfd_lb(name, k)``     local declaration lower bound of array dim *k*
``acfd_ub(name, k)``     local declaration upper bound (ghosts included)
``acfd_exchange(k, …)``  aggregated halo exchange for combined sync *k*
``acfd_pipe_recv(p, …)`` pipeline receive before a self-dependent sweep
``acfd_pipe_send(p, …)`` pipeline send after a self-dependent sweep
``acfd_allreduce_*``     global max/min/sum of a scalar
``acfd_bcast(x)``        broadcast from rank 0
``acfd_barrier()``       barrier
``acfd_frame(it, …)``    frame boundary: checkpoint / restore / faults
======================  ====================================================
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

from repro.codegen.plan import ParallelPlan
from repro.errors import CheckpointError, RuntimeCommError
from repro.interp.values import OffsetArray
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.runtime.cart import CartComm
from repro.runtime.comm import Communicator
from repro.runtime.halo import HaloExchanger, HaloSpec, shared_pool

_PIPE_TAG_BASE = 1 << 17


class RankRuntime:
    """One rank's view of the parallel execution (the ``ctx.rt`` object)."""

    def __init__(self, comm: Communicator, plan: ParallelPlan, *,
                 faults=None, checkpoints=None) -> None:
        self.comm = comm
        self.plan = plan
        self.partition = plan.partition
        if comm.size != self.partition.size:
            raise RuntimeCommError(
                f"plan wants {self.partition.size} ranks, world has "
                f"{comm.size}")
        self.cart = CartComm(comm, self.partition.dims)
        self.subgrid = self.partition.subgrid(comm.rank)
        self._exchangers: dict[int, HaloExchanger] = {}
        #: optional :class:`repro.faults.FaultInjector`
        self.faults = faults
        #: optional :class:`repro.faults.Checkpointer`
        self.checkpoints = checkpoints
        self._ctx = None
        self._restored = False

    def bind_ctx(self, ctx) -> None:
        """Attach the rank's execution context (COMMON-block storage) so
        frame checkpoints can snapshot state the hook's arguments miss."""
        self._ctx = ctx

    # -- identity / geometry -----------------------------------------------------

    def rank(self) -> int:
        return self.comm.rank

    def nprocs(self) -> int:
        return self.comm.size

    def lo(self, g: int) -> int:
        """Owned lower bound of grid dim *g* (1-based)."""
        return self.subgrid.owned[g - 1][0]

    def hi(self, g: int) -> int:
        return self.subgrid.owned[g - 1][1]

    def owns(self, g: int, c) -> bool:
        lo, hi = self.subgrid.owned[g - 1]
        return lo <= int(c) <= hi

    def lb(self, name: str, adim: int) -> int:
        return self._local_bounds(name)[adim - 1][0]

    def ub(self, name: str, adim: int) -> int:
        return self._local_bounds(name)[adim - 1][1]

    def _local_bounds(self, name: str) -> list[tuple[int, int]]:
        ap = self.plan.arrays[name]
        return ghost_bounds(self.partition, self.comm.rank, ap.dim_map,
                            ap.original_bounds, ap.ghosts)

    # -- communication -------------------------------------------------------------

    def _halo_spec(self, name: str, array: OffsetArray,
                   distances: dict[int, tuple[int, int]]) -> HaloSpec:
        ap = self.plan.arrays[name]
        ndims = self.plan.directives.ndims
        dist = tuple(distances.get(g, (0, 0)) for g in range(ndims))
        return HaloSpec(array=array, dim_map=ap.dim_map,
                        owned=self.subgrid.owned, dist=dist)

    def exchange(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Aggregated halo exchange for combined sync point *sync_id*."""
        sync = self.plan.syncs[int(sync_id) - 1]
        if len(arrays) != len(sync.arrays):
            raise RuntimeCommError(
                f"sync {sync_id}: {len(arrays)} arrays passed, plan has "
                f"{len(sync.arrays)}")
        specs = [self._halo_spec(name, arr, dists)
                 for (name, dists), arr in zip(sync.arrays, arrays)]
        self._in_halo(HaloExchanger(self.cart, specs,
                                    point_id=int(sync_id)).exchange)

    def exchange_begin(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Post the aggregated exchange nonblocking (overlap path).

        The exchanger is parked until the matching ``exchange_finish``;
        in between the generated program runs the interior of the split
        consumer nest while the halo messages are in flight.
        """
        sync_id = int(sync_id)
        if sync_id in self._exchangers:
            raise RuntimeCommError(
                f"sync {sync_id}: exchange_begin called twice without "
                f"finish")
        sync = self.plan.syncs[sync_id - 1]
        if len(arrays) != len(sync.arrays):
            raise RuntimeCommError(
                f"sync {sync_id}: {len(arrays)} arrays passed, plan has "
                f"{len(sync.arrays)}")
        specs = [self._halo_spec(name, arr, dists)
                 for (name, dists), arr in zip(sync.arrays, arrays)]
        ex = HaloExchanger(self.cart, specs, point_id=sync_id)
        self._in_halo(ex.begin)
        self._exchangers[sync_id] = ex

    def exchange_finish(self, sync_id: int, *arrays: OffsetArray) -> None:
        """Wait on a begun exchange and unpack every ghost face."""
        sync_id = int(sync_id)
        ex = self._exchangers.pop(sync_id, None)
        if ex is None:
            raise RuntimeCommError(
                f"sync {sync_id}: exchange_finish without a begin")
        self._in_halo(ex.finish)

    def _in_halo(self, step) -> None:
        """Run *step* with the live-health state set to halo."""
        tele = self.comm.telemetry
        if tele is None:
            step()
            return
        prev = tele.enter(3)  # S_HALO
        try:
            step()
        finally:
            tele.enter(prev)

    def pipe_recv(self, pipe_id: int, *arrays: OffsetArray) -> None:
        """Blocking receive of pipelined new values from minus neighbors."""
        pipe = self.plan.pipes[int(pipe_id) - 1]
        specs = self._pipe_specs(pipe, arrays)
        pool = shared_pool()
        emit = self.comm.emit
        t0 = perf_counter_ns()
        for g in pipe.pipeline_dims:
            tag = _PIPE_TAG_BASE + int(pipe_id) * 8 + g
            payload = self.cart.recv_dir(g, -1, tag)
            if payload is None:
                continue
            tu0 = perf_counter_ns()
            nbytes = 0
            for spec, section in zip(specs, payload):
                ranges = spec.recv_ranges(g, -1)
                if ranges is not None:
                    spec.array.set_section(ranges, section)
                    nbytes += int(section.nbytes)
                pool.release(section)
            emit("halo_unpack", None, nbytes, tag, 0, tu0)
        emit("pipeline_recv", None, 0, int(pipe_id), 0, t0)

    def pipe_send(self, pipe_id: int, *arrays: OffsetArray) -> None:
        """Ship freshly computed plus-edge layers down the pipeline."""
        pipe = self.plan.pipes[int(pipe_id) - 1]
        specs = self._pipe_specs(pipe, arrays)
        pool = shared_pool()
        emit = self.comm.emit
        for g in pipe.pipeline_dims:
            neighbor = self.cart.neighbor(g, +1)
            if neighbor is None:
                continue
            tag = _PIPE_TAG_BASE + int(pipe_id) * 8 + g
            tp0 = perf_counter_ns()
            payload = [spec.send_section(g, +1, pool) for spec in specs]
            emit("halo_pack", None, sum(int(b.nbytes) for b in payload),
                 tag, 0, tp0)
            # marker event only (comm.send records the payload bytes)
            emit("pipeline_send", neighbor, 0, tag)
            self.cart.send_dir(g, +1, payload, tag, move=True)

    def _pipe_specs(self, pipe, arrays) -> list[HaloSpec]:
        if len(arrays) != len(pipe.arrays):
            raise RuntimeCommError(
                f"pipe {pipe.pipe_id}: {len(arrays)} arrays passed, plan "
                f"has {len(pipe.arrays)}")
        specs = []
        for name, arr in zip(pipe.arrays, arrays):
            use = pipe.field_loop.uses.get(name)
            ndims = self.plan.directives.ndims
            dist = tuple(use.max_read_distance(g) if use is not None
                         else (0, 0) for g in range(ndims))
            ap = self.plan.arrays[name]
            specs.append(HaloSpec(array=arr, dim_map=ap.dim_map,
                                  owned=self.subgrid.owned, dist=dist))
        return specs

    # -- element probes -----------------------------------------------------------

    def get(self, array: OffsetArray, *subs) -> float:
        """Fetch one element of a distributed array, collectively.

        The owning rank broadcasts the value; every rank must call this
        (the restructurer emits the call outside any rank guard).
        """
        ap = self.plan.arrays[array.name]
        owner = self._owner_of(ap, [int(s) for s in subs])
        value = None
        if self.comm.rank == owner:
            value = array.get(*[int(s) for s in subs])
        return self.comm.bcast(value, root=owner)

    def _owner_of(self, ap, subs: list[int]) -> int:
        """Rank owning the grid point addressed by *subs*."""
        coords = []
        for g in range(self.partition.ndims):
            point = None
            for adim, mapped in enumerate(ap.dim_map):
                if mapped == g:
                    point = subs[adim]
                    break
            if point is None:
                coords.append(0)
                continue
            # locate the partition slice containing this grid point
            from repro.partition.grid import split_extent
            ranges = split_extent(self.partition.grid.shape[g],
                                  self.partition.dims[g])
            for c, (lo, hi) in enumerate(ranges):
                if lo <= point <= hi:
                    coords.append(c)
                    break
            else:
                # boundary padding beyond the grid belongs to edge ranks
                coords.append(0 if point < ranges[0][0]
                              else self.partition.dims[g] - 1)
        return self.partition.rank_of(tuple(coords))

    # -- reductions / broadcast ------------------------------------------------------

    def allreduce_max(self, value):
        return self.comm.allreduce(value, "max")

    def allreduce_min(self, value):
        return self.comm.allreduce(value, "min")

    def allreduce_sum(self, value):
        return self.comm.allreduce(value, "sum")

    def bcast(self, value):
        return self.comm.bcast(value, root=0)

    def barrier(self) -> None:
        self.comm.barrier()

    # -- frame boundary (checkpoint / restore / fault injection) -------------------

    def frame(self, it, *arrays) -> int:
        """The ``acfd_frame`` hook at the top of the time loop.

        Returns 1 when the frame must be skipped (the generated code
        ``cycle``s): during recovery, frames before the restore point are
        fast-forwarded — their effects are already inside the checkpoint.
        Order matters: a due checkpoint is written *before* faults fire,
        so an injected crash at frame N leaves a frame-N snapshot to
        restore from.
        """
        it = int(it)
        self.comm.emit("frame", None, 0, it)
        ck = self.checkpoints
        if ck is not None:
            restore = ck.restore_frame
            if restore is not None and not self._restored:
                if it < restore:
                    return 1
                self._restore(it, arrays)
            elif ck.due(it):
                self._save(it, arrays)
        if self.faults is not None:
            self.faults.on_frame(self.comm.rank, it)
        return 0

    def _snapshot(self, arrays) -> tuple[dict, dict]:
        """Split live state into (hook arrays by name, COMMON slots)."""
        commons: dict[tuple[str, int], object] = {}
        seen: set[int] = set()
        if self._ctx is not None:
            for block, slots in self._ctx.commons.items():
                for pos, slot in enumerate(slots):
                    if isinstance(slot, OffsetArray):
                        commons[(block, pos)] = slot.data
                        seen.add(id(slot))
                    else:
                        commons[(block, pos)] = slot
        named = {}
        for arr in arrays:
            # COMMON-resident status arrays are captured via their slot;
            # only function-local arrays need the by-name channel
            if isinstance(arr, OffsetArray) and id(arr) not in seen:
                named[arr.name] = arr.data
        return named, commons

    def _save(self, frame: int, arrays) -> None:
        t0 = perf_counter_ns()
        named, commons = self._snapshot(arrays)
        nbytes = self.checkpoints.save(self.comm.rank, frame, named,
                                       commons)
        self.comm.emit("checkpoint", None, nbytes, frame, 0, t0)

    def _restore(self, frame: int, arrays) -> None:
        t0 = perf_counter_ns()
        state = self.checkpoints.load(self.comm.rank)
        by_name = {arr.name: arr for arr in arrays
                   if isinstance(arr, OffsetArray)}
        nbytes = 0
        for name, saved in state.arrays.items():
            target = by_name.get(name)
            if target is None:
                raise CheckpointError(
                    f"rank {self.comm.rank}: checkpointed array {name!r} "
                    f"is not among the frame hook's arguments")
            np.copyto(target.data, saved)
            nbytes += saved.nbytes
        for (block, pos), saved in state.commons.items():
            try:
                slot = self._ctx.commons[block][pos]
            except (TypeError, KeyError, IndexError):
                raise CheckpointError(
                    f"rank {self.comm.rank}: checkpointed COMMON slot "
                    f"/{block}/[{pos}] does not exist in this program")
            if isinstance(slot, OffsetArray):
                np.copyto(slot.data, saved)
            else:
                # scalar slot: generated code re-reads through the
                # commons list, so rebinding the entry is enough
                self._ctx.commons[block][pos] = saved.item()
            nbytes += saved.nbytes
        self._restored = True
        self.comm.emit("restore", None, nbytes, frame, 0, t0)
