"""Crash-safe, resumable sweep journal (one checkpoint per grid cell).

:func:`repro.bench.microbench._sweep` prices the whole grid in memory;
a crash, an OOM kill or a pre-empted job throws every finished cell
away.  This module journals the same (layout[, mapper]) cells instead:

* every finished cell is checkpointed to ``<out_dir>/cells/*.json``
  with an atomic tmp-file + ``os.replace`` write, so a SIGKILL at any
  instant leaves either the old state or the complete new state — never
  a torn file;
* ``repro sweep --resume <out_dir>`` (or :meth:`CheckpointedSweep.resume`)
  skips every cell whose journal entry parses, recomputes the rest, and
  merges to **bit-identical** output — cell seeds are derived from cell
  content (see ``evaluator._seed_for``), not from execution order;
* :meth:`CheckpointedSweep.run` computes the pending cells serially in
  this process, through the fabric's per-cell function
  (:func:`repro.bench.fabric.run_cell`): failing cells are retried with
  bounded exponential backoff and then quarantined, never fatal to the
  rest of the grid.  Parallel runs are supervised fabric workers on the
  same journal (:func:`repro.bench.fabric.run_workers`).

Journal layout::

    out_dir/
      manifest.json         # the SweepSpec + fingerprint (written first)
      cells/<cell>.json     # one checkpoint per finished grid cell
      quarantine/<cell>.json  # one record per cell that kept failing
      quarantine.json       # the merge's summary of those records
      sweep.json            # merged SweepPoints (written last, atomically)

A run clears the quarantine records of an earlier run first, so a
resume retries quarantined cells.  The journal holds no reorderings: a
recomputed cell reorders again, through the process's in-memory mapping
cache (:func:`~repro.mapping.cache.global_mapping_cache`), which a run
leaves in place for its caller.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.microbench import OSU_SIZES, SweepPoint
from repro.evaluation.evaluator import AllgatherEvaluator, LatencyReport
from repro.mapping.initial import make_layout
from repro.topology.gpc import gpc_cluster
from repro.util.atomicio import atomic_write_json
from repro.util.lru import LRU

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
# the per-cell computation.  The evaluator is cached per spec
# fingerprint, so one process (a serial run or one fabric worker)
# prices many cells against the same route tables.
# ----------------------------------------------------------------------
_RUNNER_EVALUATOR: "LRU[AllgatherEvaluator]" = LRU(1)


def _evaluator_for(spec: SweepSpec) -> AllgatherEvaluator:
    return _RUNNER_EVALUATOR.get_or_build(
        spec.fingerprint(), lambda: AllgatherEvaluator(gpc_cluster(spec.n_nodes), rng=0)
    )


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
        max_retries: int = 2,
        backoff_seconds: float = 0.25,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls, out_dir, max_retries: int = 2, backoff_seconds: float = 0.25
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
        return cls(spec, out_dir, max_retries=max_retries, backoff_seconds=backoff_seconds)

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
    def prepare(self) -> None:
        """Create the journal directories and write (or verify) the manifest."""
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self._write_manifest()

    def run(self) -> SweepRunResult:
        """Execute (or finish) the sweep in this process; always safe to re-run.

        Quarantine records of an earlier run are cleared first, so those
        cells are retried.  Every pending cell goes through the fabric's
        per-cell function, and the result comes from the fabric's merge,
        so a serial run and supervised workers write the same journal.
        """
        # the fabric builds on this module, so it is imported on use
        from repro.bench.fabric import clear_quarantine, fabric_merge, run_cell

        self.prepare()
        clear_quarantine(self.out_dir)
        done, pending = self.collect_cells()
        for cell in pending:
            run_cell(self, cell, worker_id="serial")
        merged = fabric_merge(self.out_dir)
        return SweepRunResult(
            points=merged.points,
            out_dir=self.out_dir,
            n_computed=merged.n_cells - len(done),
            n_resumed=len(done),
            quarantined=merged.quarantined,
            cell_seconds=merged.cell_seconds,
        )

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

        Every run ends here, through :func:`repro.bench.fabric.fabric_merge`
        — whoever assembles the same ``done`` payloads emits byte-identical
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
