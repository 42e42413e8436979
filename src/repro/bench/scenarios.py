"""Built-in benchmark scenarios: the repo's hot paths as named cases.

The suite spans every performance-bearing subsystem so a regression in
any layer shows up in the ``BENCH_*.json`` trajectory:

* ``compiler.*`` — front end and whole pre-compiler pipeline (the PR-2
  span profiler runs inside these, so per-phase counters land in each
  record's ``metrics`` block);
* ``runtime.*`` — comm-runtime microbenchmarks (ping-pong latency,
  aggregated halo exchange, collective trees);
* ``pyback.*`` — scalar vs vectorized numpy frame execution;
* ``sim.*`` — ClusterSim replays of the paper's table experiments on
  the calibrated Pentium/Ethernet model.

Scenarios tagged ``quick`` form the CI subset (< ~2 s of measured work
per repeat across the whole subset); the rest only run in the full
suite.  Setup fixtures are cached per process so repeats time the hot
path, not workload construction.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.apps.kernels import jacobi_5pt
from repro.apps.sprayer import sprayer_source
from repro.apps.aerofoil import aerofoil_source
from repro.bench.registry import scenario
from repro.core import AutoCFD
from repro.fortran.parser import parse_source
from repro.interp.values import OffsetArray
from repro.partition.grid import GridGeometry
from repro.partition.halo import GhostSpec, ghost_bounds
from repro.partition.partitioner import Partition
from repro.runtime import CartComm, HaloExchanger, HaloSpec, spmd_run
from repro.simulate import ClusterSim, MachineModel, NetworkModel, NodeModel

#: input decks for the two case-study workloads
SPRAYER_DECK = "2.5 30"
AEROFOIL_DECK = "0.8"

#: the Table 1-5 calibration (see benchmarks/machine.py)
PAPER_MACHINE = MachineModel(NodeModel(flop_time=5.0e-8))
PAPER_NETWORK = NetworkModel(latency=1.0e-3, bandwidth=0.4e6,
                             shared_medium=True)


# -- cached fixtures ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sprayer_src() -> str:
    return sprayer_source(n=60, m=24, iters=5)


@functools.lru_cache(maxsize=None)
def _aerofoil_src() -> str:
    return aerofoil_source(nx=48, ny=20, nz=8, iters=4)


@functools.lru_cache(maxsize=None)
def _sprayer_plan():
    return AutoCFD.from_source(_sprayer_src()).compile(partition=(2, 1)).plan


@functools.lru_cache(maxsize=None)
def _aerofoil_plan():
    return AutoCFD.from_source(_aerofoil_src()) \
        .compile(partition=(2, 1, 1)).plan


@functools.lru_cache(maxsize=None)
def _jacobi_acfd() -> AutoCFD:
    return AutoCFD.from_source(jacobi_5pt(n=48, m=32, iters=30))


# -- compiler ----------------------------------------------------------------------

@scenario("compiler.lex_parse", tags=("compiler", "quick"))
def compiler_lex_parse():
    """Front end only: lex + parse + resolve the sprayer workload."""
    cu = parse_source(_sprayer_src(), "<bench>")
    return {"units": len(cu.units)}


@scenario("compiler.sprayer_pipeline", tags=("compiler", "quick"))
def compiler_sprayer_pipeline():
    """Whole pre-compiler pipeline on the 2-D sprayer (60x24, 2x1)."""
    result = AutoCFD.from_source(_sprayer_src()).compile(partition=(2, 1))
    return {"syncs_after": result.plan.syncs_after,
            "vector_loops": result.report.vector_loops}


@scenario("compiler.aerofoil_pipeline", tags=("compiler",))
def compiler_aerofoil_pipeline():
    """Whole pipeline on the 3-D aerofoil (48x20x8, 2x1x1): the
    self-dependent sweeps make this the heaviest analysis workload."""
    result = AutoCFD.from_source(_aerofoil_src()) \
        .compile(partition=(2, 1, 1))
    return {"syncs_after": result.plan.syncs_after,
            "pipes": len(result.plan.pipes)}


# -- runtime -----------------------------------------------------------------------

@scenario("runtime.ping_pong", tags=("runtime", "quick"))
def runtime_ping_pong():
    """2-rank send/recv round trips of an 8 KiB payload."""
    rounds = 200
    payload = np.zeros(2048, dtype=np.float32)

    def body(comm):
        if comm.rank == 0:
            for _ in range(rounds):
                comm.send(1, payload, tag=7)
                comm.recv(source=1, tag=7)
        else:
            for _ in range(rounds):
                obj = comm.recv(source=0, tag=7)
                comm.send(0, obj, tag=7)

    world = spmd_run(2, body)
    return {"roundtrips": rounds,
            "bytes_sent": world.trace.comm_stats()["bytes_sent"]}


@scenario("runtime.halo_exchange", tags=("runtime", "quick"))
def runtime_halo_exchange():
    """4-rank 2x2 aggregated halo exchanges over a 96x96 grid."""
    rounds = 20
    dims = (2, 2)
    grid = GridGeometry((96, 96))
    part = Partition(grid, dims)
    ghosts = GhostSpec(((1, 1), (1, 1)))
    dim_map = (0, 1)

    def body(comm):
        cart = CartComm(comm, dims)
        sub = part.subgrid(comm.rank)
        bounds = ghost_bounds(part, comm.rank, dim_map,
                              [(1, 96), (1, 96)], ghosts)
        local = OffsetArray.from_bounds(bounds, name="v")
        spec = HaloSpec(local, dim_map, sub.owned, ((1, 1), (1, 1)))
        ex = HaloExchanger(cart, [spec])
        for _ in range(rounds):
            ex.exchange()

    world = spmd_run(4, body)
    return {"exchanges": world.trace.count("exchange")}


@scenario("runtime.halo_overlap", tags=("runtime", "quick"))
def runtime_halo_overlap():
    """The ``runtime.halo_exchange`` workload through the nonblocking
    path: begin posts Isend/Irecv, interior-sized numpy work runs while
    the faces fly, finish drains.  Compare against the blocking twin to
    read the hidden-latency payoff straight off the trajectory."""
    rounds = 20
    dims = (2, 2)
    grid = GridGeometry((96, 96))
    part = Partition(grid, dims)
    ghosts = GhostSpec(((1, 1), (1, 1)))
    dim_map = (0, 1)

    def body(comm):
        cart = CartComm(comm, dims)
        sub = part.subgrid(comm.rank)
        bounds = ghost_bounds(part, comm.rank, dim_map,
                              [(1, 96), (1, 96)], ghosts)
        local = OffsetArray.from_bounds(bounds, name="v")
        spec = HaloSpec(local, dim_map, sub.owned, ((1, 1), (1, 1)))
        interior = np.zeros((46, 46), dtype=np.float32)
        for _ in range(rounds):
            ex = HaloExchanger(cart, [spec])
            ex.begin()
            # stand-in interior compute while messages are in flight
            interior += 0.25 * interior
            ex.finish()

    world = spmd_run(4, body)
    return {"exchanges": world.trace.count("exchange"),
            "overlap_windows": world.trace.count("overlap")}


@scenario("runtime.collectives", tags=("runtime",))
def runtime_collectives():
    """4-rank binomial-tree collective mix: allreduce + bcast rounds."""
    rounds = 100

    def body(comm):
        acc = 0.0
        for i in range(rounds):
            acc += comm.allreduce(float(comm.rank + i))
            comm.bcast(acc if comm.rank == 0 else None, root=0)
        return acc

    world = spmd_run(4, body)
    return {"rounds": rounds,
            "collective_bytes":
                world.trace.comm_stats()["collective_bytes"]}


@scenario("runtime.heartbeat_overhead", tags=("runtime", "quick"))
def runtime_heartbeat_overhead():
    """Telemetry tax: ping-pong + 2x2 halo with the heartbeat board and
    flight recorder attached vs bare.  The timed body runs both
    variants back to back so the MAD gate watches the pair's total;
    ``overhead_ratio`` (instrumented / bare wall time, 1.0 = free) is
    the headline number the record keeps."""
    import time

    from repro.obs.health import Telemetry

    pp_rounds = 100
    halo_rounds = 10

    def run_pair(telemetry_for):
        t0 = time.perf_counter()
        spmd_run(2, functools.partial(_proc_pingpong_body, pp_rounds),
                 telemetry=telemetry_for(2))
        spmd_run(4, functools.partial(_proc_halo_body, halo_rounds),
                 telemetry=telemetry_for(4))
        return time.perf_counter() - t0

    bare_s = run_pair(lambda size: None)
    boards = []

    def make(size):
        tele = Telemetry(size)
        boards.append(tele)
        return tele

    try:
        live_s = run_pair(make)
    finally:
        for tele in boards:
            tele.close()
    return {"bare_s": bare_s, "telemetry_s": live_s,
            "overhead_ratio": live_s / bare_s if bare_s > 0 else 1.0}


# -- runtime: process executor -----------------------------------------------------
#
# The same microbenchmarks on one-OS-process-per-rank workers, so every
# BENCH record carries thread-vs-process numbers side by side.  Rank
# bodies are module-level (the process executor pickles them).  The
# ``compute_bound`` pair is the paper's motivating case: pure-Python
# arithmetic holds the GIL, so rank threads serialize while rank
# processes overlap — on a multi-core host the process variant's wall
# time approaches 1/ranks of the thread variant's (on a single core the
# two are expected to tie; the BENCH record keeps both so the ratio is
# always visible next to the host's core count).

def _proc_pingpong_body(rounds: int, comm):
    payload = np.zeros(2048, dtype=np.float32)
    if comm.rank == 0:
        for _ in range(rounds):
            comm.send(1, payload, tag=7)
            comm.recv(source=1, tag=7)
    else:
        for _ in range(rounds):
            obj = comm.recv(source=0, tag=7)
            comm.send(0, obj, tag=7)


def _proc_halo_body(rounds: int, comm):
    dims = (2, 2)
    part = Partition(GridGeometry((96, 96)), dims)
    ghosts = GhostSpec(((1, 1), (1, 1)))
    cart = CartComm(comm, dims)
    sub = part.subgrid(comm.rank)
    bounds = ghost_bounds(part, comm.rank, (0, 1), [(1, 96), (1, 96)],
                          ghosts)
    local = OffsetArray.from_bounds(bounds, name="v")
    spec = HaloSpec(local, (0, 1), sub.owned, ((1, 1), (1, 1)))
    ex = HaloExchanger(cart, [spec])
    for _ in range(rounds):
        ex.exchange()


def _proc_collectives_body(rounds: int, comm):
    acc = 0.0
    for i in range(rounds):
        acc += comm.allreduce(float(comm.rank + i))
        comm.bcast(acc if comm.rank == 0 else None, root=0)
    return acc


def _compute_body(iters: int, comm):
    # deliberately GIL-holding Python-loop arithmetic (NOT numpy, which
    # releases the GIL and would make threads look falsely parallel)
    acc = 0.0
    x = 1.0 + comm.rank * 1e-9
    for i in range(iters):
        x = x * 1.0000001
        acc += x + (i & 7)
        if x > 2.0:
            x -= 1.0
    comm.barrier()
    return acc


_COMPUTE_ITERS = 150_000


@scenario("runtime.ping_pong_proc", tags=("runtime", "proc"))
def runtime_ping_pong_proc():
    """runtime.ping_pong on the process executor (pickled payloads)."""
    rounds = 200
    world = spmd_run(2, functools.partial(_proc_pingpong_body, rounds),
                     executor="process")
    return {"roundtrips": rounds,
            "bytes_sent": world.trace.comm_stats()["bytes_sent"]}


@scenario("runtime.halo_exchange_proc", tags=("runtime", "proc"))
def runtime_halo_exchange_proc():
    """runtime.halo_exchange on the process executor (faces pickled
    over the per-pair pipes)."""
    rounds = 20
    world = spmd_run(4, functools.partial(_proc_halo_body, rounds),
                     executor="process")
    return {"exchanges": world.trace.count("exchange")}


@scenario("runtime.collectives_proc", tags=("runtime", "proc"))
def runtime_collectives_proc():
    """runtime.collectives on the process executor."""
    rounds = 100
    world = spmd_run(4, functools.partial(_proc_collectives_body, rounds),
                     executor="process")
    return {"rounds": rounds,
            "collective_bytes":
                world.trace.comm_stats()["collective_bytes"]}


@scenario("runtime.compute_bound", tags=("runtime", "proc"))
def runtime_compute_bound():
    """4 GIL-holding compute ranks on threads (they serialize)."""
    spmd_run(4, functools.partial(_compute_body, _COMPUTE_ITERS))
    return {"ranks": 4, "iters": _COMPUTE_ITERS}


@scenario("runtime.compute_bound_proc", tags=("runtime", "proc"))
def runtime_compute_bound_proc():
    """The same 4 compute ranks on processes (they overlap)."""
    spmd_run(4, functools.partial(_compute_body, _COMPUTE_ITERS),
             executor="process")
    return {"ranks": 4, "iters": _COMPUTE_ITERS}


# -- pyback ------------------------------------------------------------------------

@scenario("pyback.scalar_frames", tags=("pyback",))
def pyback_scalar_frames():
    """Sequential Jacobi frames through the scalar reference backend."""
    _jacobi_acfd().run_sequential(vectorize=False)
    return {"grid": "48x32", "iters": 30}


@scenario("pyback.vector_frames", tags=("pyback", "quick"))
def pyback_vector_frames():
    """The same Jacobi frames through the vectorizing backend."""
    _jacobi_acfd().run_sequential(vectorize=True)
    return {"grid": "48x32", "iters": 30}


@functools.lru_cache(maxsize=None)
def _jacobi_parallel(overlap: str):
    return AutoCFD.from_source(jacobi_5pt(n=48, m=32, iters=30)) \
        .compile(partition=(2, 1), overlap=overlap)


@scenario("pyback.jacobi_blocking", tags=("pyback",))
def pyback_jacobi_blocking():
    """2-rank parallel Jacobi with blocking exchanges — the baseline
    half of the overlap pair."""
    _jacobi_parallel("off").run_parallel(timeout=60.0)
    return {"grid": "48x32", "iters": 30, "overlap": "off"}


@scenario("pyback.jacobi_overlap", tags=("pyback",))
def pyback_jacobi_overlap():
    """The same parallel Jacobi with the split interior/boundary nests
    and nonblocking double-buffered exchanges."""
    result = _jacobi_parallel("auto")
    assert result.plan.overlap_enabled(1)
    result.run_parallel(timeout=60.0)
    return {"grid": "48x32", "iters": 30, "overlap": "auto"}


@functools.lru_cache(maxsize=None)
def _sprayer_parallel(overlap: str):
    return AutoCFD.from_source(
        sprayer_source(n=96, m=48, iters=6, stages=2)) \
        .compile(partition=(2, 2), overlap=overlap)


@functools.lru_cache(maxsize=None)
def _aerofoil_parallel(overlap: str):
    return AutoCFD.from_source(
        aerofoil_source(nx=48, ny=24, nz=8, iters=4, stages=2,
                        blayer_passes=1)) \
        .compile(partition=(2, 2, 1), overlap=overlap)


@scenario("pyback.sprayer_blocking", tags=("pyback",))
def pyback_sprayer_blocking():
    """4-rank sprayer with blocking exchanges — the app baseline for
    the interprocedural overlap pair."""
    _sprayer_parallel("off").run_parallel(input_text="2.5 20\n",
                                          timeout=120.0)
    return {"grid": "96x48", "iters": 6, "overlap": "off"}


@scenario("pyback.sprayer_overlap", tags=("pyback",))
def pyback_sprayer_overlap():
    """The same sprayer with its stencil syncs split across ``call``
    boundaries into interior/boundary specializations."""
    result = _sprayer_parallel("auto")
    assert any(d.enabled and d.callee
               for d in result.plan.overlap_decisions)
    result.run_parallel(input_text="2.5 20\n", timeout=120.0)
    return {"grid": "96x48", "iters": 6, "overlap": "auto"}


@scenario("pyback.aerofoil_blocking", tags=("pyback",))
def pyback_aerofoil_blocking():
    """4-rank 3-D aerofoil with blocking exchanges."""
    _aerofoil_parallel("off").run_parallel(input_text=AEROFOIL_DECK,
                                           timeout=120.0)
    return {"grid": "48x24x8", "iters": 4, "overlap": "off"}


@scenario("pyback.aerofoil_overlap", tags=("pyback",))
def pyback_aerofoil_overlap():
    """The same aerofoil with interprocedural overlap on the pressure
    correction and convergence stencils."""
    result = _aerofoil_parallel("auto")
    assert any(d.enabled and d.callee
               for d in result.plan.overlap_decisions)
    result.run_parallel(input_text=AEROFOIL_DECK, timeout=120.0)
    return {"grid": "48x24x8", "iters": 4, "overlap": "auto"}


# -- simulator ---------------------------------------------------------------------

@scenario("sim.sprayer_replay", tags=("sim", "quick"))
def sim_sprayer_replay():
    """Table 3-style replay: sprayer plan, calibrated model, 200 frames."""
    out = ClusterSim(_sprayer_plan(), machine=PAPER_MACHINE,
                     network=PAPER_NETWORK, chunks=1).run(200)
    return {"frames": 200, "sim_time_s": out.total_time}


@scenario("sim.aerofoil_replay", tags=("sim",))
def sim_aerofoil_replay():
    """Table 2-style replay: aerofoil plan (pipelined sweeps), 100
    frames on the calibrated model."""
    out = ClusterSim(_aerofoil_plan(), machine=PAPER_MACHINE,
                     network=PAPER_NETWORK, chunks=1).run(100)
    return {"frames": 100, "sim_time_s": out.total_time}
