"""Crash-safe, resumable sweep driver (checkpointed grid fan-out).

The PR-2 parallel sweep (:func:`repro.bench.microbench._sweep` with
``workers=N``) is all-or-nothing: a worker crash, an OOM kill, or a
pre-empted job throws away every completed grid cell.  This module wraps
the same (layout[, mapper]) cell decomposition in a journaled runner:

* every finished cell is checkpointed to ``<out_dir>/cells/*.json``
  with an atomic tmp-file + ``os.replace`` write, so a SIGKILL at any
  instant leaves either the old state or the complete new state — never
  a torn file;
* ``repro sweep --resume <out_dir>`` (or :meth:`CheckpointedSweep.resume`)
  skips every cell whose journal entry parses, recomputes the rest, and
  merges to **bit-identical** output — cell seeds are derived from cell
  content (see ``evaluator._seed_for``), not from execution order;
* failing cells are retried with bounded exponential backoff and then
  quarantined (reported in ``quarantine.json``, never fatal to the rest
  of the grid);
* a dying process pool (``BrokenProcessPool``) degrades the run to
  serial in-process execution instead of aborting it.

Journal layout::

    out_dir/
      manifest.json     # the SweepSpec + fingerprint (written first)
      cells/<cell>.json # one checkpoint per finished grid cell
      quarantine.json   # cells that kept failing (only when non-empty)
      sweep.json        # merged SweepPoints (written last, atomically)
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.microbench import OSU_SIZES, SweepPoint
from repro.evaluation.evaluator import AllgatherEvaluator, LatencyReport
from repro.mapping.cache import MAPPING_CACHE_ENV
from repro.mapping.initial import make_layout
from repro.topology.gpc import gpc_cluster
from repro.util.atomicio import atomic_write_json

__all__ = ["SweepSpec", "CheckpointedSweep", "SweepRunResult", "compute_cell"]

#: Test hook: sleep this many seconds at the start of every cell, so a
#: test can SIGKILL the run mid-flight with a predictable window open.
CELL_DELAY_ENV = "REPRO_SWEEP_CELL_DELAY"


@dataclass(frozen=True)
class SweepSpec:
    """Everything that determines a sweep's output, and nothing else."""

    n_nodes: int
    layouts: Tuple[str, ...] = ("block-bunch", "block-scatter", "cyclic-bunch", "cyclic-scatter")
    sizes: Tuple[int, ...] = tuple(OSU_SIZES)
    mappers: Tuple[str, ...] = ("heuristic", "scotch")
    strategies: Tuple[str, ...] = ("initcomm", "endshfl")
    hierarchical: bool = False
    intra: str = "binomial"

    def __post_init__(self) -> None:
        object.__setattr__(self, "layouts", tuple(self.layouts))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "mappers", tuple(self.mappers))
        object.__setattr__(self, "strategies", tuple(self.strategies))

    def cells(self) -> List[str]:
        """Grid cell ids, in canonical (deterministic) order."""
        out = [f"base::{lname}" for lname in self.layouts]
        out += [
            f"tuned::{lname}::{mapper}"
            for lname in self.layouts
            for mapper in self.mappers
        ]
        return out

    def fingerprint(self) -> str:
        import hashlib

        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, d: Dict) -> "SweepSpec":
        return cls(
            n_nodes=int(d["n_nodes"]),
            layouts=tuple(d["layouts"]),
            sizes=tuple(d["sizes"]),
            mappers=tuple(d["mappers"]),
            strategies=tuple(d["strategies"]),
            hierarchical=bool(d["hierarchical"]),
            intra=str(d["intra"]),
        )


def _cell_filename(cell: str) -> str:
    return cell.replace("::", "__") + ".json"


# ----------------------------------------------------------------------
# the per-cell worker.  Module level (picklable), usable both inside a
# ProcessPoolExecutor and serially in-process.  The evaluator is cached
# per spec fingerprint so one pool worker prices many cells against the
# same route tables.
# ----------------------------------------------------------------------
_RUNNER_EVALUATOR: Optional[Tuple[str, AllgatherEvaluator]] = None


def _evaluator_for(spec: SweepSpec) -> AllgatherEvaluator:
    # intentional per-worker cache: the tuple swap is atomic, the value is
    # derived only from the spec fingerprint, and each process (pool child
    # or in-process caller) owns its private copy
    global _RUNNER_EVALUATOR  # noqa: PAR001
    fp = spec.fingerprint()
    if _RUNNER_EVALUATOR is None or _RUNNER_EVALUATOR[0] != fp:
        _RUNNER_EVALUATOR = (fp, AllgatherEvaluator(gpc_cluster(spec.n_nodes), rng=0))
    return _RUNNER_EVALUATOR[1]


def compute_cell(spec: SweepSpec, cell: str) -> Dict:
    """Price one grid cell; returns the JSON-serialisable checkpoint payload.

    Deterministic given ``(spec, cell)``: reordering seeds come from the
    layout/mapper content, so recomputing a cell on resume (or in a
    different process) reproduces the original bytes.  Two bookkeeping
    keys ride along without affecting the merged sweep: ``fingerprint``
    (the spec fingerprint, so a resume or fabric merge can reject a cell
    journaled under a different spec) and ``compute_seconds`` (wall
    seconds this computation took, which ``repro sweep --status``
    summarises as the cell-cost spread).
    """
    t0 = time.perf_counter()
    delay = float(os.environ.get(CELL_DELAY_ENV, "0") or 0)
    if delay > 0:
        time.sleep(delay)
    ev = _evaluator_for(spec)
    p = ev.cluster.n_cores
    sizes = list(spec.sizes)
    parts = cell.split("::")
    L = make_layout(parts[1], ev.cluster, p)
    if parts[0] == "base":
        reports = ev.default_latencies(L, sizes, spec.hierarchical, spec.intra)
        payload = {
            "cell": cell,
            "kind": "base",
            "layout": parts[1],
            "reports": [asdict(r) for r in reports],
        }
    elif parts[0] == "tuned":
        mapper = parts[2]
        by_strategy = {
            strategy: [
                asdict(r)
                for r in ev.reordered_latencies(
                    L, sizes, mapper, strategy, spec.hierarchical, spec.intra
                )
            ]
            for strategy in spec.strategies
        }
        payload = {
            "cell": cell,
            "kind": "tuned",
            "layout": parts[1],
            "mapper": mapper,
            "strategies": by_strategy,
        }
    else:
        raise ValueError(f"unknown cell id {cell!r}")
    payload["fingerprint"] = spec.fingerprint()
    payload["compute_seconds"] = time.perf_counter() - t0
    return payload


def _cell_seconds(done: Dict[str, Dict]) -> Dict[str, float]:
    """Measured ``compute_seconds`` of the journaled cells, by cell."""
    return {
        cell: float(payload["compute_seconds"])
        for cell, payload in done.items()
        if isinstance(payload.get("compute_seconds"), (int, float))
    }


@dataclass
class SweepRunResult:
    """What a checkpointed run produced (and what it had to survive)."""

    points: List[SweepPoint]
    out_dir: Path
    n_computed: int = 0
    n_resumed: int = 0
    degraded_to_serial: bool = False
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: Wall seconds per cell, from the journal payloads (absent for cells
    #: checkpointed by pre-cost journal versions).
    cell_seconds: Dict[str, float] = field(default_factory=dict)


class CheckpointedSweep:
    """Journaled, resumable execution of one :class:`SweepSpec`."""

    def __init__(
        self,
        spec: SweepSpec,
        out_dir,
        workers: Optional[int] = None,
        max_retries: int = 2,
        cell_timeout: Optional[float] = None,
        backoff_seconds: float = 0.25,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.workers = workers
        self.max_retries = int(max_retries)
        self.cell_timeout = cell_timeout
        self.backoff_seconds = float(backoff_seconds)
        self._errors: Dict[str, str] = {}

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        out_dir,
        workers: Optional[int] = None,
        max_retries: int = 2,
        cell_timeout: Optional[float] = None,
        backoff_seconds: float = 0.25,
    ) -> "CheckpointedSweep":
        """Reopen a journal dir; the spec comes from its manifest."""
        out_dir = Path(out_dir)
        manifest = out_dir / "manifest.json"
        if not manifest.is_file():
            raise FileNotFoundError(
                f"{manifest}: not a sweep journal (no manifest.json); "
                "pass the --out-dir of a previous run"
            )
        try:
            payload = json.loads(manifest.read_text())
            spec = SweepSpec.from_dict(payload["spec"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{manifest}: corrupt sweep manifest ({exc}); "
                "delete the journal dir and rerun the sweep from scratch"
            ) from exc
        return cls(
            spec,
            out_dir,
            workers=workers,
            max_retries=max_retries,
            cell_timeout=cell_timeout,
            backoff_seconds=backoff_seconds,
        )

    # ------------------------------------------------------------------
    @property
    def cells_dir(self) -> Path:
        return self.out_dir / "cells"

    def _cell_path(self, cell: str) -> Path:
        return self.cells_dir / _cell_filename(cell)

    def _load_cell(self, cell: str) -> Optional[Dict]:
        """A cell's checkpoint, or None if absent/torn/mismatched."""
        path = self._cell_path(cell)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            return None  # torn write from a previous crash: recompute
        if not isinstance(payload, dict) or payload.get("cell") != cell:
            return None
        # A cell journaled under a different spec (a copied journal or
        # fabric directory) is recomputed, not trusted.  Pre-fingerprint
        # journals lack the key and stay accepted.
        if "fingerprint" in payload and payload["fingerprint"] != self.spec.fingerprint():
            return None
        return payload

    def _write_manifest(self) -> None:
        manifest = self.out_dir / "manifest.json"
        fp = self.spec.fingerprint()
        if manifest.is_file():
            try:
                existing = json.loads(manifest.read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{manifest}: corrupt sweep manifest ({exc}); "
                    "delete the journal dir and rerun from scratch"
                ) from exc
            if existing.get("fingerprint") != fp:
                raise ValueError(
                    f"{self.out_dir}: journal belongs to a different sweep "
                    f"(fingerprint {existing.get('fingerprint')!r} != {fp!r}); "
                    "use a fresh --out-dir or matching parameters"
                )
            return
        atomic_write_json(manifest, {"spec": asdict(self.spec), "fingerprint": fp})

    # ------------------------------------------------------------------
    def run(self) -> SweepRunResult:
        """Execute (or finish) the sweep; always safe to re-run."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cells_dir.mkdir(exist_ok=True)
        self._write_manifest()
        with self._mapping_cache_env():
            return self._run_cells()

    @contextmanager
    def _mapping_cache_env(self):
        """Point the mapping cache at the journal dir for this run.

        Reorderings are content-addressed (topology fingerprint x layout x
        mapper x seed), so cells recomputed on resume — or priced by pool
        workers, which inherit the environment at spawn — reuse mappings
        from ``<out_dir>/mapcache`` instead of recomputing them.  A caller
        who already set :data:`~repro.mapping.cache.MAPPING_CACHE_ENV`
        wins; the variable is restored on exit either way.
        """
        prior = os.environ.get(MAPPING_CACHE_ENV)
        if prior is None:
            os.environ[MAPPING_CACHE_ENV] = str(self.out_dir / "mapcache")
        try:
            yield
        finally:
            if prior is None:
                os.environ.pop(MAPPING_CACHE_ENV, None)

    def collect_cells(self) -> Tuple[Dict[str, Dict], List[str]]:
        """Scan the journal: ``(done payloads by cell, pending cells)``.

        Both collections follow the spec's canonical cell order; torn or
        wrong-spec checkpoints land in ``pending``.
        """
        done: Dict[str, Dict] = {}
        pending: List[str] = []
        for cell in self.spec.cells():
            payload = self._load_cell(cell)
            if payload is not None:
                done[cell] = payload
            else:
                pending.append(cell)
        return done, pending

    def write_merged(self, done: Dict[str, Dict]) -> List[SweepPoint]:
        """Merge checkpoints into points and atomically write ``sweep.json``.

        The single exit path for both a solo run and a fabric merge —
        whoever assembles the same ``done`` payloads emits byte-identical
        output.
        """
        points = self._merge(done)
        atomic_write_json(
            self.out_dir / "sweep.json",
            {
                "spec": asdict(self.spec),
                "fingerprint": self.spec.fingerprint(),
                "points": [asdict(pt) for pt in points],
            },
        )
        return points

    def _run_cells(self) -> SweepRunResult:

        done, pending = self.collect_cells()
        result = SweepRunResult(points=[], out_dir=self.out_dir, n_resumed=len(done))

        attempts: Dict[str, int] = dict.fromkeys(pending, 0)
        parallel = self.workers is not None and self.workers > 1
        while pending:
            if parallel:
                try:
                    failures = self._round_parallel(pending, done, attempts)
                except BrokenProcessPool:
                    # the pool died (OOM-killed worker, interpreter crash):
                    # finish the remaining cells serially rather than abort
                    parallel = False
                    result.degraded_to_serial = True
                    failures = [c for c in pending if c not in done]
            else:
                failures = self._round_serial(pending, done, attempts)
            retry: List[str] = []
            for cell in failures:
                if attempts[cell] > self.max_retries:
                    result.quarantined[cell] = self._errors.get(cell, "unknown error")
                else:
                    retry.append(cell)
            if retry:
                # bounded exponential backoff before the next round
                worst = max(attempts[c] for c in retry)
                time.sleep(min(self.backoff_seconds * (2 ** (worst - 1)), 10.0))
            pending = retry

        result.n_computed = len(done) - result.n_resumed
        result.cell_seconds = _cell_seconds(done)
        if result.quarantined:
            atomic_write_json(self.out_dir / "quarantine.json", result.quarantined)
        result.points = self.write_merged(done)
        return result

    # ------------------------------------------------------------------
    def _record_success(self, cell: str, payload: Dict, done: Dict[str, Dict]) -> None:
        atomic_write_json(self._cell_path(cell), payload)
        done[cell] = payload

    def _round_serial(
        self, cells: Sequence[str], done: Dict[str, Dict], attempts: Dict[str, int]
    ) -> List[str]:
        failures: List[str] = []
        for cell in cells:
            attempts[cell] += 1
            try:
                self._record_success(cell, compute_cell(self.spec, cell), done)
            except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
                self._errors[cell] = f"{type(exc).__name__}: {exc}"
                failures.append(cell)
        return failures

    def _round_parallel(
        self, cells: Sequence[str], done: Dict[str, Dict], attempts: Dict[str, int]
    ) -> List[str]:
        """One pool round over ``cells``; returns the cells that failed.

        Each round gets a fresh pool: after a cell timeout the stuck
        worker still occupies its process, so reusing the pool would
        leak stuck workers across rounds.  ``cell_timeout`` is enforced
        here only — serial in-process execution cannot pre-empt a cell.
        """
        failures: List[str] = []
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futs = {
                cell: pool.submit(compute_cell, self.spec, cell) for cell in cells
            }
            try:
                for cell, fut in futs.items():
                    attempts[cell] += 1
                    try:
                        payload = fut.result(timeout=self.cell_timeout)
                    except BrokenProcessPool:
                        raise
                    except FuturesTimeoutError:
                        self._errors[cell] = (
                            f"timeout: cell exceeded {self.cell_timeout}s"
                        )
                        failures.append(cell)
                    except Exception as exc:  # noqa: BLE001
                        self._errors[cell] = f"{type(exc).__name__}: {exc}"
                        failures.append(cell)
                    else:
                        self._record_success(cell, payload, done)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
        return failures

    # ------------------------------------------------------------------
    def _merge(self, done: Dict[str, Dict]) -> List[SweepPoint]:
        """Checkpoints -> SweepPoints, in the canonical `_sweep` order.

        Quarantined cells are skipped (their points are absent); a
        quarantined base cell drops its whole layout, since improvement
        percentages need the baseline.
        """
        spec = self.spec
        points: List[SweepPoint] = []
        for lname in spec.layouts:
            base = done.get(f"base::{lname}")
            if base is None:
                continue
            base_reports = [LatencyReport(**d) for d in base["reports"]]
            for si, bb in enumerate(spec.sizes):
                for mapper in spec.mappers:
                    tuned = done.get(f"tuned::{lname}::{mapper}")
                    if tuned is None:
                        continue
                    for strategy in spec.strategies:
                        rep = LatencyReport(**tuned["strategies"][strategy][si])
                        points.append(
                            SweepPoint(
                                layout=lname,
                                block_bytes=int(bb),
                                mapper=mapper,
                                strategy=strategy,
                                hierarchical=spec.hierarchical,
                                intra=spec.intra,
                                algorithm=rep.algorithm,
                                base_us=base_reports[si].seconds * 1e6,
                                tuned_us=rep.seconds * 1e6,
                            )
                        )
        return points
