"""The repository benchmark: three workloads, host-time metrics, checks.

Run from the repository root::

    python3 perfbench/run.py --workload moe-step --seed 0 --seconds 30 --trace 0

Each timing run (``--trace 0``) starts ``SETUPS`` fresh worker
processes one after another (``perfbench/worker.py``, one thread,
``jobs=1``, every ``REPRO_*`` variable unset).  Each sets up (import,
seeded inputs, first run with cold caches) and the warm runs, about
``--seconds`` of them in all, are spread over the processes.  The
traced run (``--trace 1``) uses one process that alternates untraced
and traced warm runs, so the tracing overhead is measured alongside
the per-layer numbers.

The end-to-end host times are scaled by the host-speed reference of
``perfbench/reference.py``, sampled during the runs; the times as
measured are printed under them and stored.

Every run's outputs are checked; see ``perfbench/README.md``.  Lines
before the last one are for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
samples, host record and (traced) spans go to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``.  Exit status
is 0 when every check passed, 1 when one failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from reference import NOMINAL_S

WORKLOADS = ("paper-figures", "moe-step", "service-fair-share")

#: fresh processes per timing run; ``setup_s`` is the median of theirs
SETUPS = 2

#: wall-clock limit of one benchmark invocation, worker start-ups included
DEADLINE_S = 170.0

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

# name -> unit, for the end-to-end (untraced) metrics
END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_transfers_per_s": "1/s",
}

# name -> unit, for the per-layer (traced) metrics.  "s", "us" and
# "ratio" values are medians over the traced runs; "count" and "bytes"
# values are deterministic and must repeat exactly from run to run.
PER_LAYER = {
    "routing.s": "s",
    "routing.calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "sync.s": "s",
    "sync.calls": "count",
    "lower.s": "s",
    "lower.calls": "count",
    "lower.transfers": "count",
    "lower.slots": "count",
    "lower.table_bytes": "bytes",
    "merge.s": "s",
    "merge.calls": "count",
    "merge.transfers": "count",
    "untag.s": "s",
    "engine.s": "s",
    "engine.calls": "count",
    "engine.transfers": "count",
    "engine.events": "count",
    "engine.admission_blocks": "count",
    "engine.admit_ratio": "ratio",
    "engine.us_per_event": "us",
    "split.s": "s",
    "check.s": "s",
    "check.calls": "count",
    "loop.s": "s",
    "loop.resims": "count",
    "loop.resim_ratio": "ratio",
    "sweep.s": "s",
    "sweep.points": "count",
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def host_record() -> dict[str, Any]:
    """What ROADMAP asks to store with every result."""
    import numpy

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "machine": platform.machine(),
    }


def worker_env() -> dict[str, str]:
    """The caller's environment without any ``REPRO_*`` variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(
    args: argparse.Namespace, budget: float, min_runs: int, deadline: float,
) -> dict[str, Any]:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget), "--min-runs", str(min_runs),
        "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, "--spawned", repr(spawned)],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles (equal to the median if n < 2)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(
    procs: list[dict[str, Any]], normalise: bool = True,
) -> dict[str, list[float]]:
    """End-to-end samples, host times scaled by the reference.

    A run's wall (CPU) time is scaled by ``NOMINAL_S`` over the mean
    wall (CPU) time of the reference slices timed during it, and a
    set-up time likewise by the slices timed during the set-up.  A run
    too short to hold a slice is scaled by all of its process's slices.
    With ``normalise=False`` the samples are the measured host times.
    """
    out: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for p in procs:
        runs = p["runs"]
        refs = [p["setup_ref"]] + [r["ref"] for r in runs]
        n = sum(ref["slices"] for ref in refs)
        if n == 0:
            raise BenchError("no reference slice fell in any run")
        whole = {
            key: sum(ref[key] * ref["slices"] for ref in refs if ref["slices"]) / n
            for key in ("ref_wall", "ref_cpu")
        }

        def scale(ref: dict[str, Any], key: str) -> float:
            if not normalise:
                return 1.0
            return NOMINAL_S / (ref if ref["slices"] else whole)[key]

        out["setup_s"].append(p["setup_s"] * scale(p["setup_ref"], "ref_wall"))
        out["peak_rss_mib"].append(p["peak_rss_mib"])
        for run in runs:
            if run["setup"]:
                continue
            wall = run["wall"] * scale(run["ref"], "ref_wall")
            out["run_s"].append(wall)
            out["cpu_s"].append(run["cpu"] * scale(run["ref"], "ref_cpu"))
            out["sim_transfers_per_s"].append(run["transfers"] / wall)
    return out


def layer_metrics(record: dict[str, Any]) -> dict[str, float]:
    """The per-layer metrics of one traced run (overhead excluded)."""
    layers = record["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    engine, cache = record["engine"], record["cache"]
    admitted = engine["transfers"] + engine["admission_blocks"]
    last_program = get("merge", "last_transfers")
    out = {
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "lower.transfers": get("lower", "transfers"),
        "lower.slots": get("lower", "slots"),
        "lower.table_bytes": get("lower", "table_bytes"),
        "merge.transfers": get("merge", "transfers"),
        "engine.transfers": engine["transfers"],
        "engine.events": engine["events"],
        "engine.admission_blocks": engine["admission_blocks"],
        "engine.admit_ratio": (
            engine["transfers"] / admitted if admitted else 0.0
        ),
        "engine.us_per_event": (
            get("engine", "s") * 1e6 / engine["events"]
            if engine["events"] else 0.0
        ),
        "loop.resims": get("split", "calls"),
        "loop.resim_ratio": (
            get("merge", "transfers") / last_program if last_program else 0.0
        ),
        "sweep.points": get("sweep", "points"),
    }
    for layer in ("routing", "sync", "lower", "merge", "untag", "engine",
                  "split", "check", "loop", "sweep"):
        out[f"{layer}.s"] = get(layer, "s")
        out.setdefault(f"{layer}.calls", get(layer, "calls"))
    return {name: out[name] for name in PER_LAYER if name in out}


def per_layer(procs: list[dict[str, Any]]) -> tuple[dict[str, list[float]], list[str]]:
    """Per-layer samples over the traced runs, and any counter that moved."""
    runs = [r for p in procs for r in p["runs"] if not r["setup"]]
    traced = [layer_metrics(r) for r in runs if r["traced"]]
    samples = {name: [m[name] for m in traced] for name in traced[0]}
    untraced = statistics.median(r["wall"] for r in runs if not r["traced"])
    samples["trace.overhead_s"] = [
        statistics.median(r["wall"] for r in runs if r["traced"]) - untraced
    ]
    unsteady = [
        f"{name} took values {sorted(set(values))}"
        for name, values in samples.items()
        if PER_LAYER[name] in EXACT_UNITS and len(set(values)) > 1
    ]
    return samples, unsteady


def measure(args: argparse.Namespace) -> list[dict[str, Any]]:
    deadline = time.monotonic() + DEADLINE_S
    procs: list[dict[str, Any]] = []
    if args.trace:
        procs.append(run_worker(args, args.seconds, 1, deadline))
    else:
        measured = 0.0
        for i in range(SETUPS):
            # warm runs are spread over the processes: each tops the
            # measured total up to its share of --seconds
            budget = args.seconds * (i + 1) / SETUPS - measured
            last = i == SETUPS - 1
            min_runs = 1 if last and measured == 0.0 else 0
            procs.append(run_worker(args, budget, min_runs, deadline))
            measured += sum(
                r["wall"] for r in procs[-1]["runs"] if not r["setup"]
            )
    return procs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    host = host_record()
    try:
        procs = measure(args)
        if not args.trace:
            samples = end_to_end(procs)
            measured = end_to_end(procs, normalise=False)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    runs = [r for p in procs for r in p["runs"]]
    attempted = sum(r["ops"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    problems = list(dict.fromkeys(failures))
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        problems.append(f"runs of one seed gave {len(digests)} output digests")
    if args.trace:
        samples, unsteady = per_layer(procs)
        problems += unsteady
        units = PER_LAYER
    else:
        units = END_TO_END

    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(host, sort_keys=True)}")
    for name, values in samples.items():
        med, q1, q3 = spread(values)
        # an exact count was checked to repeat; report it as an integer
        value = values[0] if units[name] in EXACT_UNITS else med
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:<24} {med:>14.6g} {units[name]:<6} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
        if not args.trace and name != "peak_rss_mib":
            print(f"  {'  as measured':<24} "
                  f"{statistics.median(measured[name]):>14.6g} {units[name]}")
    print(f"  {'ops_failed':<24} {len(failures):>14d} {'count':<6} "
          f"(of {attempted} attempted)")
    for problem in problems:
        print(f"  FAILED: {problem}")
    missing = sorted({m for p in procs for m in p["missing_seams"]})
    if missing:
        print(f"  warning: seams not found, their layers read 0: {missing}",
              file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "metrics": metrics,
        "samples": samples, "problems": problems, "processes": procs,
        "measured": None if args.trace else measured,
    }))

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
