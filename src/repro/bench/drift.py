"""Model-vs-measured drift: ClusterSim predictions against real runs.

The paper validates its cluster model by comparing predicted and
measured time breakdowns; this module replays that discipline inside
the repository.  One compiled plan is executed twice — once on the real
in-process runtime (observed), once on the discrete-event simulator
with timeline recording (predicted) — and both executions are rolled
up into per-category **shares** of total wall-clock: compute, halo,
collective, blocked.  Shares, not absolute seconds, because the
simulator models a *calibrated cluster* while the runtime executes on
whatever host runs the command; the shape of the breakdown is the
reproduction-fidelity signal, the absolute scale is the calibration's
business.

Category mapping: the runtime's ``send`` time (buffered send issue)
folds into ``halo`` — the simulator charges all neighbor-exchange cost
to the exchange itself and has no separate send account.

Both sides cover the same window: the simulator runs exactly as many
frames as the real run marked (the trace's ``frame`` records), and the
fault-free deck never converges early (``eps=0``), so every frame is
whole.  Per-rank point-to-point traffic (sent bytes and messages) is
deterministic on both sides and must match exactly;
:meth:`DriftReport.traffic_mismatches` names any rank where it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.apps.sprayer import sprayer_source
from repro.core import AutoCFD
from repro.errors import ReproError
from repro.simulate import ClusterSim, MachineModel, NetworkModel, NodeModel

CATEGORIES = ("compute", "halo", "collective", "blocked", "fault")

#: input deck for the sprayer workload (fan speed, fan position)
_SPRAYER_DECK = "2.5 30"

#: host-like calibration for drift runs: the in-process runtime has
#: microsecond hand-off latency and memory-bandwidth "links", nothing
#: like the PVM-era Ethernet the default models describe; it ships
#: float64 status values
HOST_MACHINE = MachineModel(NodeModel(flop_time=2.0e-9), value_bytes=8)
HOST_NETWORK = NetworkModel(latency=2.0e-5, bandwidth=2.0e9,
                            shared_medium=False)


@dataclass
class DriftReport:
    """Predicted-vs-observed breakdown shares for one plan."""

    partition: tuple[int, ...]
    frames: int
    observed_s: float
    predicted_s: float
    #: category -> {"observed_pct", "predicted_pct", "drift_pp"}
    categories: dict
    #: per-rank sent-traffic comparison: the real runtime's telemetry
    #: byte/message counters against the simulator's modeled faces
    traffic: list = field(default_factory=list)

    def traffic_mismatches(self) -> list[str]:
        """One line per rank whose sent bytes or messages differ
        between the real run and the model."""
        return [f"rank {row['rank']}: sent {row['observed_sent']} B in "
                f"{row['observed_msgs']} messages, model "
                f"{row['predicted_sent']} B in {row['predicted_msgs']}"
                for row in self.traffic
                if (row["observed_sent"], row["observed_msgs"])
                != (row["predicted_sent"], row["predicted_msgs"])]

    @property
    def max_drift_pp(self) -> float:
        """Largest absolute per-category drift (percentage points)."""
        return max(abs(c["drift_pp"]) for c in self.categories.values())

    def as_dict(self) -> dict:
        return {"partition": "x".join(map(str, self.partition)),
                "frames": self.frames,
                "observed_s": self.observed_s,
                "predicted_s": self.predicted_s,
                "max_drift_pp": self.max_drift_pp,
                "categories": self.categories,
                "traffic": self.traffic}

    def table(self) -> str:
        lines = [f"{'category':<12s} {'predicted':>10s} {'observed':>10s} "
                 f"{'drift':>9s}"]
        for cat in CATEGORIES:
            c = self.categories[cat]
            lines.append(f"{cat:<12s} {c['predicted_pct']:>9.1f}% "
                         f"{c['observed_pct']:>9.1f}% "
                         f"{c['drift_pp']:>+8.1f}pp")
        lines.append(
            f"max drift {self.max_drift_pp:.1f}pp "
            f"(observed {self.observed_s * 1e3:.1f} ms on this host, "
            f"predicted {self.predicted_s * 1e3:.1f} ms on the model)")
        if self.traffic:
            lines.append(f"{'rank':>4s} {'sent(model)':>12s} "
                         f"{'sent(real)':>12s} {'msgs(model)':>12s} "
                         f"{'msgs(real)':>11s} {'ratio':>6s}")
            for row in self.traffic:
                ratio = row["ratio"]
                lines.append(
                    f"{row['rank']:>4d} {row['predicted_sent']:>11d}B "
                    f"{row['observed_sent']:>11d}B "
                    f"{row['predicted_msgs']:>12d} "
                    f"{row['observed_msgs']:>11d} "
                    f"{'-' if ratio is None else format(ratio, '.2f'):>6s}")
        return "\n".join(lines)


def _shares(per_cat: dict[str, float]) -> dict[str, float]:
    total = sum(per_cat.values())
    if total <= 0:
        return {cat: 0.0 for cat in CATEGORIES}
    return {cat: 100.0 * per_cat[cat] / total for cat in CATEGORIES}


def _observed_breakdown(rollup) -> dict[str, float]:
    """Per-category seconds summed over ranks (send folded into halo)."""
    out = {cat: 0.0 for cat in CATEGORIES}
    for r in rollup.ranks:
        out["compute"] += r.compute
        out["halo"] += r.halo + r.send
        out["collective"] += r.collective
        out["blocked"] += r.blocked
        out["fault"] += r.fault
    return out


def _predicted_breakdown(spans) -> dict[str, float]:
    """Per-category seconds from the simulator's recorded spans."""
    out = {cat: 0.0 for cat in CATEGORIES}
    for s in spans:
        if s.cat in out:
            out[s.cat] += s.dur
    return out


def _frames_run(trace) -> int:
    """Frames the real run executed: distinct ``frame`` marks per rank,
    which every rank must agree on."""
    marks: dict[int, set] = {}
    for e in trace.snapshot():
        if e.kind == "frame":
            marks.setdefault(e.rank, set()).add(e.tag)
    counts = {rank: len(tags) for rank, tags in marks.items()}
    if not counts or len(set(counts.values())) != 1:
        raise ReproError(f"drift: ranks marked different frame counts "
                         f"{counts or '(none)'}; no common window to "
                         f"compare")
    return next(iter(counts.values()))


def run_drift(n: int = 60, m: int = 24, iters: int = 8,
              partition: tuple[int, ...] = (2, 1),
              machine: MachineModel | None = None,
              network: NetworkModel | None = None,
              faults=None, checkpoint_every: int = 1,
              restart_cost: float = 0.02) -> DriftReport:
    """Compile a small sprayer grid, run it for real and on the model.

    The grid is deliberately small: drift is a *shape* comparison, and
    a sub-second real run keeps ``acfd bench --drift`` interactive.
    The simulator runs the frame count the real run marked; raises
    :class:`~repro.errors.ReproError` when the ranks marked different
    counts, so there is no one window to compare.

    With a :class:`repro.faults.FaultPlan` the comparison covers a
    *degraded* run: the real runtime executes under injection (recovering
    through checkpoints if the plan crashes a rank) and the simulator
    models the same straggler/crash events, so the ``fault`` share is
    part of the drift signal.
    """
    acfd = AutoCFD.from_source(sprayer_source(n=n, m=m, iters=iters,
                                              eps=0.0))
    result = acfd.compile(partition=partition)

    from repro.obs.health import Telemetry
    telemetry = Telemetry(math.prod(partition))
    try:
        if faults is None:
            par = result.run_parallel(input_text=_SPRAYER_DECK,
                                      telemetry=telemetry)
        else:
            import tempfile

            from repro.faults import run_recovered
            with tempfile.TemporaryDirectory(
                    prefix="acfd_drift_ckpt_") as d:
                par, _attempts, _inj = run_recovered(
                    result.plan, result.spmd_cu, fault_plan=faults,
                    ckpt_dir=d, input_text=_SPRAYER_DECK,
                    every=checkpoint_every, telemetry=telemetry)
        observed_samples = telemetry.samples()
    finally:
        telemetry.close()
    frames = _frames_run(par.trace)
    observed_roll = par.rollup()
    observed = _observed_breakdown(observed_roll)
    observed_total = max((r.total for r in observed_roll.ranks),
                         default=0.0)

    sim = ClusterSim(result.plan,
                     machine=machine if machine is not None
                     else HOST_MACHINE,
                     network=network if network is not None
                     else HOST_NETWORK,
                     chunks=1, record_timeline=True,
                     faults=faults, checkpoint_every=checkpoint_every,
                     # host calibration: respawning rank threads is
                     # milliseconds, not the cluster model's half second
                     restart_cost=restart_cost)
    # keep every frame inside the simulated (span-recorded) window
    out = sim.run(frames, warmup=max(frames, 2))
    predicted = _predicted_breakdown(out.spans)

    obs_pct = _shares(observed)
    pred_pct = _shares(predicted)
    categories = {cat: {"predicted_pct": pred_pct[cat],
                        "observed_pct": obs_pct[cat],
                        "drift_pp": obs_pct[cat] - pred_pct[cat]}
                  for cat in CATEGORIES}
    traffic = []
    for obs_s, sim_s in zip(observed_samples, out.health_samples()):
        traffic.append({
            "rank": obs_s.rank,
            "observed_sent": obs_s.sent_bytes,
            "predicted_sent": sim_s.sent_bytes,
            "observed_msgs": obs_s.sent_msgs,
            "predicted_msgs": sim_s.sent_msgs,
            "ratio": (obs_s.sent_bytes / sim_s.sent_bytes
                      if sim_s.sent_bytes else None)})
    return DriftReport(partition=tuple(partition), frames=frames,
                       observed_s=observed_total,
                       predicted_s=out.total_time,
                       categories=categories, traffic=traffic)
