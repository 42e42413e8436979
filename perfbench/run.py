"""Benchmark entry point: SPMD solve time against the sequential program.

Run from the repository root::

    python3 perfbench/run.py --workload sprayer-paper --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced solves);
``--trace 1`` prints the per-layer metrics of a traced run and writes
its spans to ``perfbench/out/``.  ``--workload all`` runs every
workload in turn, each in its own process.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2
means the run was refused or aborted (missing program sources, too few
cores, frame-window mismatch, every set-up failing).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _print_metrics(harness, workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        note = f", {m.note}" if m.note else ""
        print(f"{workload:20s} {name:28s} {m.value:14.6g} "
              f"{harness.UNITS[name]:8s}"
              f" (n={m.n}{note})")


def _run_one(harness, w, seed: int, seconds: float, trace: bool
             ) -> tuple[dict, object]:
    host = harness.host_record(ROOT)
    if w.ranks > host["nproc"]:
        raise harness.SetupError(f"refused: {w.name} needs {w.ranks} "
                                 f"ranks, this host has {host['nproc']} "
                                 f"cores")
    print(f"# {w.name}: {w.app} {'x'.join(map(str, w.grid))}, "
          f"partition {'x'.join(map(str, w.partition))}, "
          f"{w.executor} executor, {w.frames} frames, overlap auto, "
          f"deck {w.deck(seed).strip()!r}")
    if trace:
        metrics, tally, spans = harness.measure_layers(w, seed, seconds)
    else:
        metrics, tally = harness.measure(w, seed, seconds)
    host["loadavg_after"] = os.getloadavg()
    print(f"# host {json.dumps(host)}")
    _print_metrics(harness, w.name, metrics)
    print(f"{w.name:20s} {'failed_frac':28s} {tally.failed_frac:14.6g} "
          f"{'fraction':8s} (n={tally.attempted})")
    if trace:
        blocked = metrics["obs.blocked_s"].value
        wait = metrics["runtime.comm_wait_s"].value
        offcpu = metrics["interp.compute_offcpu_s"].value
        print(f"# attribution: obs.blocked_s {blocked:.6f} vs "
              f"runtime.comm_wait_s {wait:.6f} + interp.compute_offcpu_s "
              f"{offcpu:.6f} (gap {blocked - wait - offcpu:+.6f} s/frame)")
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{w.name}-seed{seed}-spans.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": w.name, "seed": seed, "host": host,
                       "fields": ["name", "rank", "t0", "t1", "cpu_s",
                                  "solve"],
                       "spans": [list(s[:5]) + [repr(s[5])]
                                 for s in spans]}, fh)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        par = metrics["solve_s"].value
        seq = metrics["seq_solve_s"].value
        print(f"# speedup = seq_solve_s / solve_s = {seq / par:.3f} "
              f"({seq:.4f} s / {par:.4f} s)")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)} or all)",
              file=sys.stderr)
        return 2
    try:
        metrics, tally = _run_one(harness, WORKLOADS[args.workload],
                                  args.seed, args.seconds, bool(args.trace))
    except (harness.FrameCountError, harness.SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the process executor's shared memory starts multiprocessing's
        # resource tracker; wait for it too, not only for the rank workers
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": m.value,
                                      "unit": harness.UNITS[k]}
                                  for k, m in metrics.items()}}))
    return 0


def _run_all(args, names: list[str]) -> int:
    """Every workload in its own process (fresh memory peak and pool);
    the last line merges their results, metrics prefixed by workload."""
    merged: dict = {}
    attempted = failed = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v
                       for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
