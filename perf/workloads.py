"""The benchmark's workloads, and the child-process entry that runs one.

``BENCHMARK.json`` names two of them, ``setup-p16384`` and
``fig34-price-p4096``.  The other two run by name but are not part of the
benchmark of record (``perf/README.md`` has the measurements):
``fig3-sweep-p1024``'s two fabric workers race on the journal's manifest
and now and then one dies of it, and a benchmark of record has no
failing ops; ``serve-mix-p1024``'s timings swing with the host's load
from one run to the next by more than any usable regression bound.

Every workload is closed loop: the next op starts only when the previous
one returned.  Load comes from this one process, with at most two client
threads (serve) or two spawned worker processes (fabric).  Inputs are
drawn from ``--seed``; the program only ever sees the generated inputs.

Run one workload in a fresh interpreter (what ``perf/run.py`` does)::

    python perf/workloads.py --workload setup-p16384 --seed 0 --seconds 10 \\
        --mode run --report report.json --work-dir .perf-work/x

The child writes a JSON report: op latencies, CPU time per op, attempted
and failed ops, the first-op timestamp and the CPU time spent up to it
(for set-up time), peak RSS and — when traced —
the per-layer metrics and the Chrome trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro.bench.fabric as fabric  # noqa: E402
import repro.bench.microbench as microbench  # noqa: E402
import repro.bench.runner as runner  # noqa: E402
import repro.evaluation.evaluator as evaluator  # noqa: E402
import repro.mapping.reorder as reorder  # noqa: E402
import repro.topology.gpc as gpc  # noqa: E402
from repro.collectives.registry import make_algorithm  # noqa: E402
from repro.mapping.initial import INITIAL_LAYOUTS, make_layout  # noqa: E402
from repro.serve.client import ServeError  # noqa: E402
from repro.serve.embedded import EmbeddedServer  # noqa: E402
from repro.simmpi.engine import TimingEngine  # noqa: E402
from repro.util.atomicio import atomic_write_json  # noqa: E402
from repro.util.rng import make_rng  # noqa: E402

import spans  # noqa: E402

LAYOUTS = tuple(sorted(INITIAL_LAYOUTS))
PATTERNS = tuple(sorted(reorder.HEURISTICS))

#: How long a fabric op may take before its workers are killed.
WORKER_TIMEOUT_S = 120.0

#: Fabric workers re-scan leases this often when everything left is
#: leased by the other worker.  The CLI default (0.5 s) would quantise
#: every sweep's tail to half-second steps; 0.05 s is what the library's
#: own scaling benchmark uses.
FABRIC_POLL_S = 0.05


def cpu_ns() -> int:
    """CPU time of this process and of every child it waited for, in ns.

    Unlike the wall clock, it leaves out the time the hypervisor gave
    to other guests while an op ran.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((kids.ru_utime + kids.ru_stime) * 1e9)


@dataclass
class Measurement:
    """What one measured window produced.

    ``failed`` holds every op that raised, lost a worker or produced a
    wrong output; ``wrong`` only the last kind, which makes a run incorrect.
    ``cpu_ns`` holds each op's CPU time (see :func:`cpu_ns`).
    """

    latencies_ns: List[int] = field(default_factory=list)
    cpu_ns: List[int] = field(default_factory=list)
    failed: Dict[int, str] = field(default_factory=dict)   # op index -> reason
    wrong: Set[int] = field(default_factory=set)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def fail(self, i: int, reason: str, wrong: bool) -> None:
        self.failed.setdefault(i, reason)
        if wrong:
            self.wrong.add(i)


class Workload:
    """Set up once, then run timed ops until the window closes.

    Subclasses implement :meth:`setup`, :meth:`op` and :meth:`check`, and
    may override :meth:`prepare` (untimed input generation), :meth:`fault`
    (failures that leave the output checkable), :meth:`finish` (post-run
    oracles) and :meth:`layer_metrics` (traced-run extras).
    """

    name = ""

    def __init__(self, seed: int, work_dir: Path, tracer: Optional[spans.Tracer] = None):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.tracer = tracer

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        """Inputs of op ``i``, generated outside the timed region."""
        return None

    def op(self, i: int, inputs):
        raise NotImplementedError

    def fault(self, i: int, result) -> Optional[str]:
        """Why op ``i`` failed although it returned an output, or None."""
        return None

    def check(self, i: int, inputs, result) -> Optional[str]:
        """Why op ``i``'s output is wrong, or None."""
        raise NotImplementedError

    def finish(self, meas: Measurement) -> Dict[int, str]:
        """Ops whose outputs the post-run oracles reject, with the reason."""
        return {}

    def close(self) -> None:
        pass

    def layer_metrics(self, meas: Measurement) -> Dict[str, float]:
        return {}

    def measure(self, seconds: float, max_ops: Optional[int] = None) -> Measurement:
        meas = Measurement()
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        i = 0
        while True:
            inputs = self.prepare(i)
            if self.tracer is not None:
                self.tracer.set_op(i)
                span = self.tracer.begin("op", {"workload": self.name})
            c0 = cpu_ns()
            t0 = time.perf_counter_ns()
            try:
                result = self.op(i, inputs)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                meas.fail(i, traceback.format_exc(limit=3), wrong=False)
            t1 = time.perf_counter_ns()
            meas.cpu_ns.append(cpu_ns() - c0)
            if self.tracer is not None:
                self.tracer.end(span)
            meas.latencies_ns.append(t1 - t0)
            if i not in meas.failed:
                fault = self.fault(i, result)
                if fault is not None:
                    meas.fail(i, fault, wrong=False)
                wrong = self.check(i, inputs, result)
                if wrong is not None:
                    meas.fail(i, wrong, wrong=True)
            i += 1
            if t1 >= deadline or (max_ops is not None and i >= max_ops):
                break
        meas.wall_s = (time.perf_counter_ns() - start) / 1e9
        return meas


# ----------------------------------------------------------------------
# setup-p16384: Fig. 7's one-time reordering overhead at 4x paper scale
# ----------------------------------------------------------------------
class SetupP16384(Workload):
    """Fresh cluster + implicit distances + ``reorder_all`` over 5 heuristics."""

    name = "setup-p16384"
    N_NODES = 2048
    KINDS = LAYOUTS + ("random",)

    def setup(self) -> None:
        shape = gpc.gpc_cluster(n_nodes=self.N_NODES)
        self.p = shape.n_cores
        self.named = {name: make_layout(name, shape, self.p) for name in LAYOUTS}
        #: first op of each layout kind: (op index, layout, seed, results)
        self.kept: Dict[str, tuple] = {}
        # One untimed op pays lazy imports and numpy warm-up.
        self.op(-1, ("block-bunch", self.named["block-bunch"], 0))

    def prepare(self, i: int):
        # Every block of five ops covers each layout kind once, in a seeded
        # order, so the per-run median does not hinge on the kinds drawn.
        block = i // len(self.KINDS)
        order = make_rng([self.seed, 1, block]).permutation(len(self.KINDS))
        kind = self.KINDS[int(order[i % len(self.KINDS)])]
        rng = make_rng([self.seed, 2, i])
        if kind == "random":
            layout = rng.permutation(self.p).astype(np.int64)
        else:
            layout = self.named[kind]
        return kind, layout, int(rng.integers(1 << 31))

    def op(self, i, inputs):
        _, layout, rng_seed = inputs
        cluster = gpc.gpc_cluster(n_nodes=self.N_NODES)
        D = cluster.implicit_distances()
        return reorder.reorder_all(layout, D, rng=rng_seed, cache="off")

    def check(self, i, inputs, result):
        kind, layout, rng_seed = inputs
        cores = np.sort(layout)
        for pattern, res in result.items():
            if not np.array_equal(np.sort(res.mapping), cores):
                return f"{pattern} mapping is not a bijection onto the {kind} layout"
        if kind not in self.kept:
            self.kept[kind] = (i, layout, rng_seed, result)
        return None

    def solo(self, pattern, layout, D, rng_seed):
        """The oracle: one ``reorder_ranks`` call with caching off."""
        return reorder.reorder_ranks(
            pattern, layout, D, kind="heuristic", rng=rng_seed, cache="off"
        ).mapping

    def finish(self, meas):
        failed = {}
        D = gpc.gpc_cluster(n_nodes=self.N_NODES).implicit_distances()
        for kind, (i, layout, rng_seed, result) in self.kept.items():
            for pattern in PATTERNS:
                if not np.array_equal(result[pattern].mapping, self.solo(pattern, layout, D, rng_seed)):
                    failed[i] = f"reorder_all {pattern} on {kind} differs from solo reorder_ranks"
        return failed


# ----------------------------------------------------------------------
# fig3-sweep-p1024: regenerating Fig. 3 through the sweep fabric
# ----------------------------------------------------------------------
def build_reference(out_dir: str) -> None:
    """Serial checkpointed sweep of the Fig. 3 grid (runs in a cold process)."""
    runner.CheckpointedSweep(runner.SweepSpec(n_nodes=Fig3SweepP1024.N_NODES), out_dir).run()


def fabric_worker(out_dir: str, spec, worker_id: str, op_id: int, spans_path: Optional[str]) -> None:
    """Spawned fabric worker; when traced, installs the same wrappers first."""
    entered = time.perf_counter_ns()
    if spans_path is None:
        fabric.run_fabric_worker(out_dir, spec=spec, worker_id=worker_id, poll_interval=FABRIC_POLL_S)
        return
    tracer = spans.Tracer()
    tracer.default_op = op_id
    undo = spans.install(tracer)
    span = tracer.begin("bench.worker", {"worker": worker_id})
    try:
        fabric.run_fabric_worker(out_dir, spec=spec, worker_id=worker_id, poll_interval=FABRIC_POLL_S)
    finally:
        tracer.end(span)
        undo()
        atomic_write_json(spans_path, {"entered_ns": entered, **tracer.export()})


class Fig3SweepP1024(Workload):
    """Two spawned fabric workers on an empty journal, then the verified merge."""

    name = "fig3-sweep-p1024"
    N_NODES = 128
    WORKERS = 2

    def setup(self) -> None:
        self.ctx = multiprocessing.get_context("spawn")
        self.spec = runner.SweepSpec(n_nodes=self.N_NODES)
        ref_dir = self.work_dir / "reference"
        proc = self.ctx.Process(target=build_reference, args=(str(ref_dir),))
        proc.start()
        proc.join(WORKER_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        if proc.exitcode != 0:
            raise RuntimeError(f"reference sweep exited with code {proc.exitcode}")
        self.reference = (ref_dir / "sweep.json").read_bytes()
        self.n_cells = len(self.spec.cells())
        self.worker_stats: List[dict] = []   # the fabric's own records (traced runs)
        self.op_compute_s: List[float] = []

    def op(self, i, inputs):
        out = self.work_dir / f"fabric-{i}"
        traced = self.tracer is not None
        paths = [self.work_dir / f"spans-{i}-w{j}.json" for j in range(self.WORKERS)]
        procs = [
            self.ctx.Process(
                target=fabric_worker,
                args=(str(out), self.spec, f"w{j}", i, str(paths[j]) if traced else None),
            )
            for j in range(self.WORKERS)
        ]
        started = []
        try:
            for proc in procs:
                started.append(time.perf_counter_ns())
                proc.start()
            for proc in procs:
                proc.join(WORKER_TIMEOUT_S)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        codes = [proc.exitcode for proc in procs]
        merged = fabric.fabric_merge(out)
        op_span = self.tracer.current() if traced else None
        return out, codes, merged, started, paths, op_span

    def _absorb_workers(self, i, paths, started, merged, op_span) -> None:
        for j, path in enumerate(paths):
            if not path.is_file():
                continue  # the worker died before writing its spans
            report = json.loads(path.read_text())
            self.tracer.absorb(report, f"{self.name} worker w{j} (op {i})", parent=op_span)
            self.tracer.add(
                "bench.spawn", started[j], report["entered_ns"],
                parent=op_span, op=i, args={"worker": f"w{j}"},
            )
        self.worker_stats.extend(merged.workers)
        self.op_compute_s.append(sum(merged.cell_seconds.values()))

    def fault(self, i, result):
        codes = result[1]
        if any(code != 0 for code in codes):
            return f"fabric worker exit codes {codes}"
        return None

    def check(self, i, inputs, result):
        out, codes, merged, started, paths, op_span = result
        if op_span is not None:
            self._absorb_workers(i, paths, started, merged, op_span)
        try:
            if (out / "sweep.json").read_bytes() != self.reference:
                return "merged sweep.json differs from the serial reference"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def layer_metrics(self, meas):
        w = self.worker_stats
        n_ops = max(1, meas.attempted)
        computed = sum(x["cells_computed"] for x in w)

        def seconds(name):
            return _median((s[spans.END] - s[spans.START]) / 1e9
                           for s in self.tracer.spans if s[spans.NAME] == name)

        return {
            "mapping.scotch_calls": _calls(self.tracer.spans, "mapping.scotch", n_ops),
            "mapping.scotch_s": _seconds(self.tracer.spans, "mapping.scotch", n_ops),
            "util.atomic_writes": _calls(self.tracer.spans, "util.atomic_write", n_ops),
            "util.atomic_write_s": _seconds(self.tracer.spans, "util.atomic_write", n_ops),
            "bench.worker_start_s": seconds("bench.spawn"),
            "bench.worker_wall_s": seconds("bench.worker"),
            "bench.cell_compute_s": _median(self.op_compute_s),
            "bench.worker_idle_s": _median(x["elapsed_seconds"] - x["compute_seconds"] for x in w),
            "bench.cells_computed": computed / n_ops,
            "bench.useful_cell_ratio": self.n_cells * len(self.op_compute_s) / computed if computed else 0.0,
            "bench.cells_quarantined": sum(x["cells_quarantined"] for x in w) / n_ops,
            "bench.lease_contention": sum(x["lease_contention"] for x in w) / n_ops,
            "bench.steals": sum(x["steals"] for x in w) / n_ops,
            "bench.merge_s": seconds("bench.merge"),
        }


# ----------------------------------------------------------------------
# fig34-price-p4096: pricing the Fig. 3 + Fig. 4 heuristic grids
# ----------------------------------------------------------------------
class Fig34PriceP4096(Workload):
    """Fresh evaluator per op over warm reorderings: pricing-dominated."""

    name = "fig34-price-p4096"
    N_NODES = 512
    CHECK_LAYOUTS = ("block-bunch", "cyclic-scatter")
    CHECK_SIZES = (64, 2048, 262144)

    def setup(self) -> None:
        # The warm-up op fills the global mapping cache with the flat
        # reorderings ("reordering happens only once") and is the oracle
        # every later op must reproduce exactly.
        self.reference = self.op(-1, None)

    def op(self, i, inputs):
        ev = evaluator.AllgatherEvaluator(gpc.gpc_cluster(n_nodes=self.N_NODES), rng=0)
        p = ev.cluster.n_cores
        flat = microbench.sweep_nonhierarchical(ev, p, mappers=("heuristic",))
        hier = microbench.sweep_hierarchical(ev, p, mappers=("heuristic",))
        return flat + hier

    def check(self, i, inputs, result):
        if result != self.reference:
            return "points differ from the warm-up op's"
        return None

    def finish(self, meas):
        """The per-size pricing path must agree with the batched grid."""
        ev = evaluator.AllgatherEvaluator(gpc.gpc_cluster(n_nodes=self.N_NODES), rng=0)
        p = ev.cluster.n_cores
        points = {
            (pt.layout, pt.block_bytes, pt.strategy): pt
            for pt in self.reference
            if not pt.hierarchical
        }
        for lname in self.CHECK_LAYOUTS:
            L = make_layout(lname, ev.cluster, p)
            for bb in self.CHECK_SIZES:
                base = ev.default_latency(L, bb).seconds * 1e6
                for strategy in ("initcomm", "endshfl"):
                    pt = points[(lname, bb, strategy)]
                    tuned = ev.reordered_latency(L, bb, "heuristic", strategy).seconds * 1e6
                    if not (_close(base, pt.base_us) and _close(tuned, pt.tuned_us)):
                        reason = f"per-size path differs from batched at {lname}/{bb}B/{strategy}"
                        return {i: reason for i in range(meas.attempted)}
        return {}


def _digest(mapping) -> bytes:
    return hashlib.sha1(np.asarray(mapping, dtype=np.int64).tobytes()).digest()


def _close(a: float, b: float) -> bool:
    """Per-size and batched pricing round the same sums in another order."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


# ----------------------------------------------------------------------
# serve-mix-p1024: reordering as a service under a mixed trace
# ----------------------------------------------------------------------
SERVE_PRICE_SIZES = [1024, 65536, 1048576]


class ServeMixP1024(Workload):
    """Two client connections replay a seeded request mix against a warm daemon."""

    name = "serve-mix-p1024"
    N_NODES = 128
    CLIENTS = 2

    def setup(self) -> None:
        self.hot_seed = 1 + self.seed
        self.cold_seed0 = 1_000_000 * (self.seed + 1)
        self.hot = [(pt, lay) for lay in LAYOUTS for pt in PATTERNS]
        self.server = EmbeddedServer().start()
        self.hot_mappings: Dict[tuple, list] = {}   # (pattern, layout) -> mapping
        # Cold answers are kept as digests, so memory does not grow with
        # the number of requests a faster daemon answers in the window.
        self.cold_digests: Dict[tuple, bytes] = {}  # (pattern, layout, seed) -> digest
        self.priced: Dict[tuple, list] = {}         # (pattern, layout) -> total_seconds
        self.key_ops: Dict[tuple, List[int]] = defaultdict(list)
        with self.server.client() as c:
            reg = c.register_topology({"kind": "gpc", "n_nodes": self.N_NODES})
            self.fingerprint = reg["fingerprint"]
            shape = gpc.gpc_cluster(n_nodes=self.N_NODES)
            self.cores = {lay: sorted(make_layout(lay, shape, reg["n_cores"]).tolist()) for lay in LAYOUTS}
            for hot in self.hot:
                self.hot_mappings[hot] = c.reorder(
                    self.fingerprint, *hot, seed=self.hot_seed
                )["mapping"]
            for hot in self.hot:
                self.priced[hot] = c.price(
                    self.fingerprint, hot[0], SERVE_PRICE_SIZES, mapping=self.hot_mappings[hot]
                )["total_seconds"]
        self.requests: List[tuple] = []         # (index, kind, key, t0, t1)

    def close(self) -> None:
        self.server.stop()

    def _draw_step(self, rng, step: int):
        """Two requests, one per client, sent together."""
        u = rng.random()
        if u < 0.70:
            return [("warm", self.hot[int(rng.integers(len(self.hot)))], self.hot_seed)
                    for _ in range(self.CLIENTS)]
        if u < 0.85:
            return [("price", self.hot[int(rng.integers(len(self.hot)))], None)
                    for _ in range(self.CLIENTS)]
        seed = self.cold_seed0 + step
        layout = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
        first = int(rng.integers(len(PATTERNS)))
        if rng.random() < 0.5:   # identical pair: the second coalesces
            second = first
        else:                    # same layout and seed: one micro-batch
            second = (first + 1 + int(rng.integers(len(PATTERNS) - 1))) % len(PATTERNS)
        return [("cold", (PATTERNS[first], layout), seed),
                ("cold", (PATTERNS[second], layout), seed)]

    def stats(self) -> dict:
        with self.server.client() as c:
            return c.stats()

    def measure(self, seconds, max_ops=None):
        rng = make_rng([self.seed, 3])
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        state = {"step": 0, "requests": None, "stop": False}
        self.stats_before = self.stats()

        def next_step():  # barrier action: runs once per step, in one thread
            done = max_ops is not None and state["step"] * self.CLIENTS >= max_ops
            late = state["step"] > 0 and time.perf_counter_ns() >= deadline
            if done or late:
                state["stop"] = True
                return
            state["requests"] = self._draw_step(rng, state["step"])
            state["step"] += 1

        # Both requests of a step go out together; answers are checked only
        # once both are back, so checking never competes with a request
        # in flight for the interpreter lock.
        go = threading.Barrier(self.CLIENTS, action=next_step, timeout=WORKER_TIMEOUT_S)
        answered = threading.Barrier(self.CLIENTS, timeout=WORKER_TIMEOUT_S)
        results: List[list] = [[] for _ in range(self.CLIENTS)]
        crashes: List[str] = []

        def client(k: int) -> None:
            try:
                with self.server.client() as conn:
                    while True:
                        go.wait()
                        if state["stop"]:
                            return
                        index = (state["step"] - 1) * self.CLIENTS + k
                        sent = self._send(conn, index, *state["requests"][k])
                        answered.wait()
                        results[k].append(self._judge(*sent))
            except Exception:  # noqa: BLE001 - reported as a failed run
                crashes.append(traceback.format_exc(limit=3))
                go.abort()
                answered.abort()

        threads = [threading.Thread(target=client, args=(k,)) for k in range(self.CLIENTS)]
        c0 = cpu_ns()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if crashes:
            raise RuntimeError(crashes[0])
        window_cpu_ns = cpu_ns() - c0
        meas = Measurement(wall_s=(time.perf_counter_ns() - start) / 1e9)
        n = sum(len(rs) for rs in results)
        for index, kind, key, t0, t1, error, wrong in sorted(r for rs in results for r in rs):
            meas.latencies_ns.append(t1 - t0)
            # Requests overlap, so each is charged the window's CPU time
            # (server and client threads, answer checks included) per request.
            meas.cpu_ns.append(window_cpu_ns // n)
            self.requests.append((index, kind, key, t0, t1))
            if error is not None:
                meas.fail(index, error, wrong)
        self.stats_after = self.stats()
        return meas

    def _send(self, conn, index, kind, target, seed):
        """One timed request; returns what :meth:`_judge` needs."""
        pattern, layout = target
        if self.tracer is not None:
            self.tracer.set_op(index)
        if kind == "price":
            payload = {"algorithm": pattern, "mapping": self.hot_mappings[target]}
            key = spans.serve_request_key("price", payload)
        else:
            key = spans.serve_request_key(
                "reorder", {"pattern": pattern, "layout": layout, "seed": seed}
            )
        span = self.tracer.begin("op", {"key": key}) if self.tracer is not None else None
        t0 = time.perf_counter_ns()
        try:
            if kind == "price":
                out = conn.price(self.fingerprint, pattern, SERVE_PRICE_SIZES, mapping=payload["mapping"])
            else:
                out = conn.reorder(self.fingerprint, pattern, layout, seed=seed)
            error = None
        except (ServeError, ConnectionError, OSError) as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if span is not None:
            self.tracer.end(span)
        return index, kind, key, t0, t1, error, pattern, layout, seed, out

    def _judge(self, index, kind, key, t0, t1, error, pattern, layout, seed, out):
        """``(index, kind, key, t0, t1, reason, wrong)`` of one sent request."""
        if error is not None:
            return index, kind, key, t0, t1, error, False
        wrong = self._wrong_answer(index, kind, pattern, layout, seed, out)
        return index, kind, key, t0, t1, wrong, wrong is not None

    def _wrong_answer(self, index, kind, pattern, layout, seed, out) -> Optional[str]:
        if kind == "price":
            key = (pattern, layout)
            self.key_ops[("price",) + key].append(index)
            if out["total_seconds"] != self.priced[key]:
                return "price differs from the same request's earlier answer"
            return None
        key = (pattern, layout, seed)
        self.key_ops[("reorder",) + key].append(index)
        mapping = out["mapping"]
        if kind == "warm":
            if mapping != self.hot_mappings[(pattern, layout)]:
                return "mapping differs from the same request's earlier answer"
            return None
        digest = _digest(mapping)
        first = self.cold_digests.setdefault(key, digest)
        if first is digest:
            if sorted(mapping) != self.cores[layout]:
                return "served mapping is not a bijection onto the layout"
        elif first != digest:
            return "mapping differs from the same request's earlier answer"
        return None

    def solo_mapping(self, pattern, layout, D, seed):
        """The oracle: a fresh-cluster ``reorder_ranks`` with caching off."""
        return reorder.reorder_ranks(
            pattern, layout, D, kind="heuristic", rng=seed, cache="off"
        ).mapping.tolist()

    def finish(self, meas):
        cluster = gpc.gpc_cluster(n_nodes=self.N_NODES)
        D = cluster.implicit_distances()
        engine = TimingEngine(cluster)
        layouts = {lay: make_layout(lay, cluster, cluster.n_cores) for lay in LAYOUTS}
        failed = {}
        served = {(*hot, self.hot_seed): _digest(m) for hot, m in self.hot_mappings.items()}
        served.update(self.cold_digests)
        for (pattern, layout, seed), digest in served.items():
            if _digest(self.solo_mapping(pattern, layouts[layout], D, seed)) != digest:
                for i in self.key_ops[("reorder", pattern, layout, seed)]:
                    failed[i] = "served mapping differs from a solo recompute"
        for (pattern, layout), total in self.priced.items():
            schedule = make_algorithm(pattern).schedule(cluster.n_cores)
            mapping = self.hot_mappings[(pattern, layout)]
            solo = engine.evaluate_sizes(schedule, mapping, [float(s) for s in SERVE_PRICE_SIZES])
            if [float(t) for t in solo.total_seconds] != total:
                for i in self.key_ops[("price", pattern, layout)]:
                    failed[i] = "served price differs from a solo recompute"
        return failed

    def layer_metrics(self, meas):
        n = max(1, meas.attempted)
        before, after = self.stats_before, self.stats_after
        service = self._attribute_service()
        lat = {r[0]: r[4] - r[3] for r in self.requests}
        by_kind = defaultdict(list)
        for index, kind, _, t0, t1 in self.requests:
            by_kind[kind].append((t1 - t0) / 1e6)
        cache0, cache1 = before["mapping_cache"], after["mapping_cache"]
        hits = cache1["hits"] - cache0["hits"]
        misses = cache1["misses"] - cache0["misses"]

        def delta(key):
            return (after[key] - before[key]) / n

        return {
            "serve.reorder_warm_ms": _median(by_kind["warm"]),
            "serve.reorder_cold_ms": _median(by_kind["cold"]),
            "serve.price_ms": _median(by_kind["price"]),
            "serve.service_ms": _median([service[i] / 1e6 for i in lat]),
            "serve.wait_ms": _median([(lat[i] - service[i]) / 1e6 for i in lat]),
            "serve.coalesced": delta("coalesced"),
            "serve.batched": delta("batched"),
            "serve.reorder_batches": delta("reorder_batches"),
            "serve.warm_inline": delta("warm_inline"),
            "serve.errors": delta("errors"),
            "serve.cache_evictions": (cache1["evictions"] - cache0["evictions"]) / n,
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "trace.coverage_pct": 100.0 * sum(service.values()) / sum(lat.values()),
        }

    def _attribute_service(self) -> Dict[int, int]:
        """Request index -> ns of service-method time spent on its key.

        A service span counts for every request whose key it handled and
        whose send-to-reply interval contains it, so a coalesced request
        is charged the shared execution it waited on.
        """
        by_key = defaultdict(list)
        for s in self.tracer.spans:
            if s[spans.NAME] == "serve.service":
                for key in s[spans.ARGS].get("keys", ()):
                    by_key[key].append(s)
        out = {}
        for index, _, key, t0, t1 in self.requests:
            inside = [(s[spans.START], s[spans.END]) for s in by_key.get(key, ())
                      if s[spans.START] >= t0 and s[spans.END] <= t1]
            out[index] = spans.union_ns(inside)
        return out


WORKLOADS = {w.name: w for w in (SetupP16384, Fig3SweepP1024, Fig34PriceP4096, ServeMixP1024)}


# ----------------------------------------------------------------------
# per-layer metrics common to every workload
# ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _calls(all_spans, name: str, n_ops: int) -> float:
    """Outermost calls of ``name`` per op."""
    return len(spans.outermost(all_spans, name)) / n_ops


def _seconds(all_spans, name: str, n_ops: int) -> float:
    """Inclusive seconds in outermost calls of ``name`` per op."""
    return sum(s[spans.END] - s[spans.START] for s in spans.outermost(all_spans, name)) / 1e9 / n_ops


def layer_metrics(workload: Workload, meas: Measurement) -> Dict[str, float]:
    """Every layer metric derivable from the spans, per op, plus the workload's own.

    The workload's own (``bench.*`` of the fabric, ``serve.*``) come only
    from the two workloads outside ``BENCHMARK.json``.
    """
    tracer = workload.tracer
    all_spans = tracer.spans
    n = max(1, meas.attempted)
    selfs = spans.self_times(all_spans)

    def calls(name):
        return _calls(all_spans, name, n)

    def seconds(name):
        return _seconds(all_spans, name, n)

    def self_seconds(name):
        return sum(selfs[s[spans.ID]] for s in all_spans if s[spans.NAME] == name) / 1e9 / n

    cache = tracer.cache_deltas()
    lookups = cache["hits"] + cache["misses"]
    pricing = [s[spans.ARGS]["hit"] for s in all_spans if s[spans.NAME] == "simmpi.pricing"]
    out = {
        "topology.implicit_distances_s": seconds("topology.implicit_distances"),
        "topology.routes_for_calls": calls("topology.routes_for"),
        "topology.routes_for_s": seconds("topology.routes_for"),
        "mapping.reorder_all_calls": calls("mapping.reorder_all"),
        "mapping.reorder_all_s": seconds("mapping.reorder_all"),
        "mapping.map_calls": calls("mapping.map"),
        "mapping.map_s": seconds("mapping.map"),
        "mapping.cache_hits": cache["hits"] / n,
        "mapping.cache_misses": cache["misses"] / n,
        "mapping.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "collectives.schedule_calls": calls("collectives.schedule"),
        "collectives.schedule_s": seconds("collectives.schedule"),
        "simmpi.evaluate_sizes_calls": calls("simmpi.evaluate_sizes"),
        "simmpi.evaluate_sizes_s": seconds("simmpi.evaluate_sizes"),
        "simmpi.pricing_hit_ratio": sum(pricing) / len(pricing) if pricing else 0.0,
        "evaluation.default_latencies_s": self_seconds("evaluation.default_latencies"),
        "evaluation.reordered_latencies_s": self_seconds("evaluation.reordered_latencies"),
        "trace.coverage_pct": spans.coverage_pct(all_spans, "op"),
    }
    out.update(workload.layer_metrics(meas))
    return out


# ----------------------------------------------------------------------
# child-process entry
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process and of every child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_window(workload: Workload, seconds: float, max_ops: Optional[int] = None) -> Measurement:
    """The measured window (traced when the workload has a tracer), then its oracles."""
    undo = spans.install(workload.tracer) if workload.tracer is not None else None
    try:
        meas = workload.measure(seconds, max_ops)
    finally:
        if undo is not None:
            undo()
    for i, reason in workload.finish(meas).items():
        meas.fail(i, reason, wrong=True)
    return meas


def execute(
    name: str,
    seed: int,
    seconds: float,
    work_dir: Path,
    mode: str = "run",
    trace: bool = False,
    max_ops: Optional[int] = None,
) -> dict:
    """Set up one workload, run its measured window and oracles, tear down."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    workload = WORKLOADS[name](seed, work_dir, tracer)
    report = {"workload": name, "seed": seed, "mode": mode}
    try:
        workload.setup()
        report["first_op_ns"] = time.perf_counter_ns()
        # CPU time since this interpreter started: imports, set-up, warm-up.
        report["setup_cpu_s"] = cpu_ns() / 1e9
        if mode == "setup":
            return report
        meas = run_window(workload, seconds, max_ops)
        report.update(
            attempted=meas.attempted,
            failed=len(meas.failed),
            wrong=len(meas.wrong),
            errors=sorted(set(meas.failed.values()))[:5],
            latencies_ms=[ns / 1e6 for ns in meas.latencies_ns],
            cpu_ms=[ns / 1e6 for ns in meas.cpu_ns],
            wall_s=meas.wall_s,
        )
        if trace:
            report["per_layer"] = layer_metrics(workload, meas)
            tracer.process_names[tracer.pid] = f"{name} (workload)"
            report["trace"] = spans.chrome_trace(tracer.spans, tracer.process_names)
    finally:
        workload.close()
    report["peak_rss_mb"] = peak_rss_mb()
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)
    report = execute(
        args.workload, args.seed, args.seconds, Path(args.work_dir),
        mode=args.mode, trace=bool(args.trace), max_ops=args.max_ops,
    )
    atomic_write_json(args.report, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
