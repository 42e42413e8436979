"""The benchmark's workloads and their seeded input decks.

Every workload runs 2 ranks with the user-default overlap mode
(``auto``) and a fixed frame count: the convergence exit is disabled by
generating the program with ``eps = 0``, so the residual (never
negative) can never drop below it.  The seed draws only the input deck,
and only from ranges that leave the work per frame unchanged:

* sprayer: the fan covers rows ``fanpos-5 .. fanpos+5`` of the
  ``i = 1`` boundary column, so any position keeps the fan loop at 11
  iterations and on rank 0 (the 2x1 cut splits ``i``); the fan speed
  only scales values;
* aerofoil: the Mach number only scales the inflow values.

Why each workload was chosen, and which layers it exercises or
bypasses, is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.aerofoil import aerofoil_source
from repro.apps.sprayer import sprayer_source


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration: program, partition, executor."""

    name: str
    app: str  # "sprayer" | "aerofoil"
    grid: tuple[int, ...]
    partition: tuple[int, ...]
    executor: str  # "thread" | "process"
    frames: int

    @property
    def ranks(self) -> int:
        n = 1
        for p in self.partition:
            n *= p
        return n

    def source(self) -> str:
        """The sequential Fortran program (convergence exit disabled)."""
        if self.app == "sprayer":
            n, m = self.grid
            return sprayer_source(n, m, iters=self.frames, eps=0.0)
        nx, ny, nz = self.grid
        return aerofoil_source(nx, ny, nz, iters=self.frames, eps=0.0)

    def deck(self, seed: int) -> str:
        """The list-directed input deck drawn from *seed*."""
        rng = random.Random(f"{self.name}:{seed}")
        if self.app == "sprayer":
            m = self.grid[1]
            fanspd = rng.uniform(2.0, 3.0)
            fanpos = rng.randint(10, m - 10)
            return f"{fanspd:.4f} {fanpos}\n"
        return f"{rng.uniform(0.6, 0.9):.4f}\n"


# Frame counts make a 36-second run time about 30 to 50 parallel and as
# many sequential solves on a 2-core host (aerofoil: ~0.45 s per frame),
# so the tail percentile sits between p65 and p80 on every workload.  A
# higher percentile lands on the boundary of a minority of slow solves
# and jumps from run to run: sprayer-paper at 20 frames (~80 solves,
# p87) followed the seconds in which the shared host left its ranks one
# core, and sprayer-large-proc at 10 frames (~45 solves, p77) the
# periodic ~0.1-s stall that about one process-executor solve in eight
# shows.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sprayer-paper", app="sprayer", grid=(300, 100),
        partition=(2, 1), executor="thread", frames=50),
    Workload(
        name="sprayer-large-proc", app="sprayer", grid=(800, 300),
        partition=(2, 1), executor="process", frames=20),
    Workload(
        name="aerofoil-pipelined", app="aerofoil", grid=(64, 24, 8),
        partition=(2, 1, 1), executor="thread", frames=1),
)}
