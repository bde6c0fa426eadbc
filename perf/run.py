"""The repository's benchmark of record: one command, two workloads.

Run every workload (each in its own fresh interpreter; the two of
``BENCHMARK.json`` and the two extras) and write the results with their
environment::

    python perf/run.py --seed 0 --out results.json

Run one workload, as a regression check does::

    python perf/run.py --workload fig34-price-p4096 --seed 3 --seconds 15 --trace 0

With ``--trace 0`` the last stdout line is one JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every
per-layer metric instead, from a traced run beside an untraced one of the
same length (their headline difference is ``trace.overhead_pct``).
``--trace-out FILE`` also writes the traced spans as Chrome trace JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Ceiling on all the child interpreters of one workload together.
WORKLOAD_TIMEOUT_S = 170.0

#: Workloads that run by name and in a full run but are not in
#: ``BENCHMARK.json``: ops of ``fig3-sweep-p1024`` fail now and then on
#: the fabric's manifest race, and a benchmark of record has no failing
#: ops; ``serve-mix-p1024``'s timings swing with the host's load by more
#: than any usable regression bound (see ``perf/README.md``).
EXTRA_WORKLOADS = ("fig3-sweep-p1024", "serve-mix-p1024")


@functools.lru_cache(maxsize=1)
def benchmark() -> dict:
    """The parsed ``BENCHMARK.json`` at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    import importlib.util

    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout.strip())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "uncommitted_changes": dirty,
        "seed": seed,
        "unix_time": time.time(),
    }


def _cpu_ticks() -> Optional[List[int]]:
    """``[steal, total]`` jiffies of all CPUs, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:9]
    except OSError:
        return None
    ticks = [int(x) for x in fields]
    return [ticks[7], sum(ticks)]


def _child(name: str, seed: int, seconds: float, work: Path, tag: str, deadline_ns: int,
           mode: str = "run", trace: bool = False, max_ops: Optional[int] = None) -> dict:
    """Run one workload phase in a fresh interpreter; returns its report.

    The child is killed, with every process it started, if it is still
    running at ``deadline_ns`` (``time.perf_counter_ns()``).
    """
    report = work / f"{tag}.json"
    cmd = [
        sys.executable, str(PERF / "workloads.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--trace", str(int(trace)),
        "--report", str(report), "--work-dir", str(work / tag),
    ]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    # One BLAS thread: an idle OpenBLAS worker spins for a while after each
    # call, which adds a random 0.1-0.3 s to the set-up's CPU time.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    t0 = time.perf_counter_ns()
    # Own session, so a timeout also takes down the fabric workers it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True, env=env)
    try:
        proc.wait(timeout=max(0.0, (deadline_ns - t0) / 1e9))
    finally:
        # Timed out, interrupted or done: nothing of the child's outlives it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{name} {tag} exited with code {proc.returncode}")
    out = json.loads(report.read_text())
    out["setup_wall_s"] = (out["first_op_ns"] - t0) / 1e9
    return out


def wall_metrics(report: dict) -> Dict[str, float]:
    """Wall-clock latency and throughput of one child's window.

    Per-layer, not end-to-end: the bounded timings are CPU time, which
    leaves out the time the hypervisor gave to other guests (see
    ``perf/README.md``, "End-to-end metrics").
    """
    return {
        "op_p50_ms": statistics.median(report["latencies_ms"]),
        "ops_per_s": report["attempted"] / report["wall_s"],
    }


def tail(latencies_ms: List[float]) -> dict:
    """The highest of p50/p75/p90/p99 with at least ten samples beyond it.

    Reported beside the metrics, not as one: which percentile qualifies
    depends on how many ops the window held.
    """
    n = len(latencies_ms)
    q = max([p for p in (75, 90, 99) if n * (100 - p) / 100 >= 10], default=50)
    cuts = statistics.quantiles(latencies_ms, n=100, method="inclusive") if n > 1 else latencies_ms * 99
    return {"percentile": q, "ms": cuts[q - 1], "samples": n}


def _with_units(values: Dict[str, float], kind: str) -> Dict[str, dict]:
    table = units(kind)
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"no value for {kind} metric(s) {missing}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in table.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 max_ops: Optional[int] = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload; returns the result line's fields plus detail.

    Untraced: ``setup_repeats`` fresh set-ups (the last one also runs the
    measured window) give ``setup_s``; the window gives the rest.  Traced:
    an untraced and a traced child each measure half the window.
    """
    work = ROOT / ".perf-work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ticks = _cpu_ticks()
    deadline = time.perf_counter_ns() + int(WORKLOAD_TIMEOUT_S * 1e9)
    try:
        if not trace:
            setups = [
                _child(name, seed, seconds, work, f"setup{k}", deadline, mode="setup")
                for k in range(setup_repeats - 1)
            ]
            rep = _child(name, seed, seconds, work, "run", deadline, max_ops=max_ops)
            setups.append(rep)
            values = {
                "setup_s": statistics.median(s["setup_cpu_s"] for s in setups),
                "peak_rss_mb": rep["peak_rss_mb"],
                "op_cpu_ms": statistics.median(rep["cpu_ms"]),
            }
            runs = [rep]
            metrics = _with_units(values, "end_to_end")
            detail = {
                "wall": wall_metrics(rep),
                "setup_cpu_samples_s": [s["setup_cpu_s"] for s in setups],
                "setup_wall_samples_s": [s["setup_wall_s"] for s in setups],
                "tail": tail(rep["latencies_ms"]),
            }
        else:
            half = seconds / 2
            base = _child(name, seed, half, work, "untraced", deadline, max_ops=max_ops)
            rep = _child(name, seed, half, work, "traced", deadline, trace=True, max_ops=max_ops)
            runs = [base, rep]
            values = {**rep["per_layer"], **wall_metrics(base)}
            attempted = base["attempted"] + rep["attempted"]
            values["failed_frac"] = (base["failed"] + rep["failed"]) / attempted
            values["trace.overhead_pct"] = 100.0 * (
                statistics.median(rep["latencies_ms"]) / statistics.median(base["latencies_ms"]) - 1
            )
            metrics = _with_units(values, "per_layer")
            # Layers only the workloads outside BENCHMARK.json use (fabric, serve).
            unlisted = {k: v for k, v in values.items() if k not in metrics}
            detail = {"trace": rep["trace"], "unlisted": unlisted}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if ticks is not None:
        # CPU time the hypervisor gave to other guests during this run:
        # when it is high, every timing above is inflated.
        steal, total = (b - a for a, b in zip(ticks, _cpu_ticks()))
        detail["steal_pct"] = 100.0 * steal / total if total else 0.0
    return {
        "correct": sum(r["wrong"] for r in runs) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": sorted({e for r in runs for e in r["errors"]}),
        "samples": sum(len(r["latencies_ms"]) for r in runs),
        **detail,
    }


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}")
    for metric, value in {**result.get("wall", {}), **result.get("unlisted", {})}.items():
        print(f"  {metric:<36} {value:>14.6g} (not in the result line)")
    if "tail" in result:
        t = result["tail"]
        print(f"  (op p{t['percentile']} {t['ms']:.6g} ms over {t['samples']} ops)")
    if "steal_pct" in result:
        print(f"  (cpu steal {result['steal_pct']:.1f} % during the run)")
    for err in result["errors"]:
        print(f"  error: {err.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    names = [w["name"] for w in benchmark()["workloads"]] + list(EXTRA_WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(benchmark()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="write the traced spans as Chrome trace JSON")
    ap.add_argument("--out", help="write results and environment as JSON")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.util.atomicio import atomic_write_json

    # Turn SIGTERM into an exception, so the child in flight is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args.seed)
    results = {}
    for name in [args.workload] if args.workload else names:
        results[name] = run_workload(name, args.seed, args.seconds, trace=bool(args.trace))
        _print_table(name, results[name])
    traces = [r.pop("trace") for r in results.values() if "trace" in r]
    if args.trace_out:
        events = [e for t in traces for e in t["traceEvents"]]
        atomic_write_json(args.trace_out, {"traceEvents": events, "displayTimeUnit": "ms"})
    if args.out:
        atomic_write_json(args.out, {
            "environment": env, "seconds": args.seconds, "trace": args.trace, "workloads": results,
        })
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload:
        line = {k: results[args.workload][k] for k in keys}
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {n: {k: r[k] for k in keys} for n, r in results.items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
