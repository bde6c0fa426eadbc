"""Sweep fabric: one ``O_EXCL`` claim per grid cell, and its supervisor.

:class:`~repro.bench.runner.CheckpointedSweep` journals every grid cell
atomically and resumes bit-identically.  This module fans the same
journal out across any number of worker *processes or hosts* that share
one directory (NFS, a bind-mounted volume, a plain local dir), and is
the only parallel path of ``repro sweep``:

* **workers** (:class:`FabricWorker`, ``repro sweep --fabric``) walk the
  spec's cells in canonical order (rotated by worker id, so workers
  start apart), skip cells already journaled or quarantined, claim each
  remaining cell with an ``O_CREAT | O_EXCL`` file under
  ``<out>/claims/`` and pass it through :func:`run_cell`, the per-cell
  function the serial run uses too;
* the **supervisor** (:func:`run_workers`, ``repro sweep --workers N``)
  starts N worker processes on one journal, kills a worker whose claim
  outlives ``--cell-timeout``, quarantines the cell of a worker that
  dies mid-cell, starts a replacement, and merges;
* the **merge** (:func:`fabric_merge`, ``repro sweep --merge``) verifies
  every cell's and worker's spec fingerprint, requires every cell to be
  journaled or quarantined, and emits a ``sweep.json`` byte-identical to
  a serial :class:`CheckpointedSweep` run of the same spec — every run
  ends here.  It reads only the manifest, the cells, the quarantine
  records and the worker records, so it merges a solo journal as well.

Safety model — claims are an *efficiency* mechanism, not a correctness
one.  Cells are deterministic functions of ``(spec, cell)`` and their
checkpoints are written with atomic replace, so when two workers compute
the same cell, both write byte-identical payloads and the journal stays
sound.  A claim's mtime is the moment it was made; claims are never
renewed or released, so no thread runs beside a worker:

* of N workers racing one unclaimed cell, exactly one ``O_EXCL`` create
  wins, so an unclaimed cell is computed exactly once;
* a claim older than the TTL whose cell is still uncovered belongs to a
  dead (SIGKILLed) worker, and a survivor takes the cell over;
* a cell that outlives the TTL may be taken over by a live worker and
  computed twice — that costs time, never bytes, so the TTL only has to
  exceed the longest cell.

Directory layout (shared by all workers)::

    out_dir/
      manifest.json        # SweepSpec + fingerprint (CheckpointedSweep's)
      cells/<cell>.json    # the ordinary cell journal
      claims/<cell>.claim  # O_EXCL claim files, mtime = claim time
      quarantine/<cell>.json  # per-cell failure records
      quarantine.json      # the merge's summary of those records
      workers/<id>.json    # per-worker stats (cells/sec, takeovers, ...)
      sweep.json           # written by the merge step only
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import shutil
import time
import zlib
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.microbench import SweepPoint
from repro.bench.runner import CheckpointedSweep, SweepSpec, _cell_seconds, compute_cell
from repro.util.atomicio import atomic_write_json, exclusive_create_text

__all__ = [
    "FabricWorker",
    "WorkerStats",
    "run_cell",
    "clear_quarantine",
    "run_fabric_worker",
    "run_workers",
    "try_claim",
    "fabric_merge",
    "FabricMergeResult",
    "fabric_status",
    "FabricStatus",
    "FabricError",
    "FabricFingerprintError",
    "FabricIncompleteError",
    "DEFAULT_LEASE_TTL",
    "SUPERVISED_POLL_S",
]

#: Seconds after which a claim on a still-uncovered cell is taken over.
DEFAULT_LEASE_TTL = 30.0

#: Idle poll of supervised workers, and the shortest interval of the
#: supervisor's timeout check, in seconds.  The CLI worker's 0.5 s
#: default would quantise every supervised run's tail to half-second
#: steps.
SUPERVISED_POLL_S = 0.05


class FabricError(RuntimeError):
    """Base class for fabric protocol failures."""


class FabricFingerprintError(FabricError):
    """A worker record belongs to a different spec."""


class FabricIncompleteError(FabricError):
    """Merge requested while cells are still pending (and not quarantined)."""


# ----------------------------------------------------------------------
# claims
# ----------------------------------------------------------------------
def _claims_dir(out_dir) -> Path:
    return Path(out_dir) / "claims"


def _claim_path(out_dir, cell: str) -> Path:
    return _claims_dir(out_dir) / (cell.replace("::", "__") + ".claim")


def _read_claim_owner(path: Path) -> Optional[str]:
    """The owner id inside a claim file; None if unreadable/partial."""
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None  # mid-create window or torn body: existence still counts
    if isinstance(payload, dict) and isinstance(payload.get("owner"), str):
        return payload["owner"]
    return None


def try_claim(out_dir, cell: str, owner: str, ttl: float) -> Tuple[bool, bool, bool]:
    """Attempt to claim one cell: ``(acquired, taken_over, contended)``.

    Fresh claim: an ``O_EXCL`` create of the claim file (exactly one of
    any number of racers wins).  Takeover: a claim whose mtime is older
    than ``ttl`` is unlinked — guarded by re-checking that no other
    survivor replaced it meanwhile — and then re-created ``O_EXCL``;
    losing any step of that race simply reports contention.  The caller
    checks that the cell is still uncovered before calling.
    """
    path = _claim_path(out_dir, cell)
    body = json.dumps({"owner": owner, "cell": cell, "claimed_unix": time.time()})
    if exclusive_create_text(path, body):
        return True, False, False
    try:
        st = path.stat()
        if time.time() - st.st_mtime <= ttl:
            return False, False, True  # live claim
        # expired: its owner died (or outlived the TTL).  Re-stat right
        # before unlink so a claim another survivor just re-created stays.
        if path.stat().st_mtime_ns != st.st_mtime_ns:
            return False, False, True
        path.unlink()
    except FileNotFoundError:
        return False, False, True  # another survivor is mid-takeover
    if exclusive_create_text(path, body):
        return True, True, False
    return False, False, True


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
@dataclass
class WorkerStats:
    """One worker's contribution to a fabric run (persisted to JSON)."""

    worker_id: str
    fingerprint: str
    cells_computed: int = 0
    cells_quarantined: int = 0
    #: Expired claims this worker took over.
    steals: int = 0
    #: Claim attempts that met a live claim or lost a takeover race.
    lease_contention: int = 0
    compute_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    cells_per_sec: float = 0.0


def _quarantine_dir(out_dir) -> Path:
    return Path(out_dir) / "quarantine"


def _quarantine_path(out_dir, cell: str) -> Path:
    return _quarantine_dir(out_dir) / (cell.replace("::", "__") + ".json")


def _quarantine(out_dir, cell: str, error: str, worker_id: str) -> None:
    path = _quarantine_path(out_dir, cell)
    path.parent.mkdir(exist_ok=True)
    atomic_write_json(path, {"cell": cell, "error": error, "worker": worker_id})


def clear_quarantine(out_dir) -> None:
    """Drop every quarantine record, so the next run retries those cells."""
    shutil.rmtree(_quarantine_dir(out_dir), ignore_errors=True)


def run_cell(cs: CheckpointedSweep, cell: str, worker_id: str) -> Optional[Dict]:
    """Compute one cell, then journal it or quarantine it.

    Exceptions are retried ``cs.max_retries`` times with bounded
    exponential backoff.  Returns the journaled payload, or None after
    writing ``quarantine/<cell>.json``.  The serial run and every fabric
    worker pass their cells through here.
    """
    last_error = "unknown error"
    for attempt in range(cs.max_retries + 1):
        if attempt:
            time.sleep(min(cs.backoff_seconds * (2 ** (attempt - 1)), 10.0))
        try:
            payload = compute_cell(cs.spec, cell)
        except Exception as exc:  # noqa: BLE001 - quarantine, don't abort
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        atomic_write_json(cs._cell_path(cell), payload)
        return payload
    _quarantine(cs.out_dir, cell, last_error, worker_id)
    return None


class FabricWorker:
    """One fabric participant: claim cells one at a time and compute them.

    ``spec=None`` *joins* an existing fabric directory (the spec comes
    from its manifest, exactly like ``CheckpointedSweep.resume``);
    passing a spec creates the fabric on first arrival — the manifest
    write is race-safe, so any number of workers may be started with
    identical flags simultaneously.  A spec whose fingerprint differs
    from an existing manifest is refused when the worker runs.
    """

    def __init__(
        self,
        out_dir,
        spec: Optional[SweepSpec] = None,
        worker_id: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_retries: int = 2,
        backoff_seconds: float = 0.25,
        poll_interval: Optional[float] = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.out_dir = Path(out_dir)
        if spec is None:
            self._cs = CheckpointedSweep.resume(
                self.out_dir, max_retries=max_retries, backoff_seconds=backoff_seconds
            )
        else:
            self._cs = CheckpointedSweep(
                spec, self.out_dir, max_retries=max_retries,
                backoff_seconds=backoff_seconds,
            )
        self.spec = self._cs.spec
        self.worker_id = worker_id or f"{platform.node() or 'worker'}-{os.getpid()}"
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = (
            float(poll_interval)
            if poll_interval is not None
            else min(0.5, max(0.05, self.lease_ttl / 5.0))
        )
        self.stats = WorkerStats(
            worker_id=self.worker_id, fingerprint=self.spec.fingerprint()
        )
        self._covered: set = set()

    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        _claims_dir(self.out_dir).mkdir(exist_ok=True)
        (self.out_dir / "workers").mkdir(exist_ok=True)
        self._cs.prepare()

    def _is_covered(self, cell: str) -> bool:
        """Done-or-quarantined, with a positive-result cache."""
        if cell in self._covered:
            return True
        if self._cs._load_cell(cell) is not None or _quarantine_path(
            self.out_dir, cell
        ).is_file():
            self._covered.add(cell)
            return True
        return False

    def run(self) -> WorkerStats:
        """Work until every cell of the spec is journaled or quarantined."""
        t0 = time.perf_counter()
        self._prepare()
        cells = self.spec.cells()
        if cells:
            offset = zlib.crc32(self.worker_id.encode()) % len(cells)
            cells = cells[offset:] + cells[:offset]
        with self._cs._mapping_cache_env():
            while True:
                claimed_any = outstanding = False
                for cell in cells:
                    # checked right before the claim: another worker may
                    # have journaled the cell while this one computed
                    if self._is_covered(cell):
                        continue
                    outstanding = True
                    acquired, taken_over, contended = try_claim(
                        self.out_dir, cell, self.worker_id, self.lease_ttl
                    )
                    self.stats.lease_contention += int(contended)
                    if not acquired:
                        continue
                    claimed_any = True
                    self.stats.steals += int(taken_over)
                    self._run_cell(cell)
                if not outstanding:
                    break
                if not claimed_any:
                    # everything left is claimed by live workers: wait for
                    # them to finish (or for their claims to expire).
                    time.sleep(self.poll_interval)
        elapsed = time.perf_counter() - t0
        self.stats.elapsed_seconds = elapsed
        self.stats.cells_per_sec = self.stats.cells_computed / elapsed if elapsed > 0 else 0.0
        atomic_write_json(
            self.out_dir / "workers" / f"{self.worker_id}.json", asdict(self.stats)
        )
        return self.stats

    # ------------------------------------------------------------------
    def _run_cell(self, cell: str) -> None:
        payload = run_cell(self._cs, cell, self.worker_id)
        self._covered.add(cell)
        if payload is None:
            self.stats.cells_quarantined += 1
            return
        self.stats.cells_computed += 1
        self.stats.compute_seconds += float(payload.get("compute_seconds", 0.0))


def run_fabric_worker(
    out_dir,
    spec: Optional[SweepSpec] = None,
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_retries: int = 2,
    poll_interval: Optional[float] = None,
) -> WorkerStats:
    """Module-level worker entry point (picklable for process fan-out)."""
    return FabricWorker(
        out_dir,
        spec=spec,
        worker_id=worker_id,
        lease_ttl=lease_ttl,
        max_retries=max_retries,
        poll_interval=poll_interval,
    ).run()


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
@dataclass
class FabricMergeResult:
    """What the fingerprint-verified merge combined (and from whom)."""

    points: List[SweepPoint]
    out_dir: Path
    fingerprint: str
    p: int
    n_cells: int
    quarantined: Dict[str, str] = field(default_factory=dict)
    workers: List[Dict] = field(default_factory=list)
    steals: int = 0
    lease_contention: int = 0
    cell_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable merge report: per-worker table + quarantine."""
        lines = [
            f"fabric merge: {len(self.points)} points from {self.n_cells} cells "
            f"(fingerprint {self.fingerprint})",
        ]
        if self.workers:
            lines.append(
                f"  {'worker':>24} {'cells':>6} {'takeovers':>9} "
                f"{'contend':>8} {'cells/s':>8}"
            )
            for w in self.workers:
                lines.append(
                    f"  {w['worker_id']:>24} {w['cells_computed']:>6} "
                    f"{w['steals']:>9} {w['lease_contention']:>8} "
                    f"{w['cells_per_sec']:>8.2f}"
                )
            lines.append(
                f"  total takeovers {self.steals}, claim contention "
                f"{self.lease_contention}"
            )
        for cell, err in sorted(self.quarantined.items()):
            lines.append(f"  quarantined {cell}: {err}")
        return "\n".join(lines)


def _read_quarantine(out_dir) -> Dict[str, str]:
    qdir = _quarantine_dir(out_dir)
    out: Dict[str, str] = {}
    if not qdir.is_dir():
        return out
    for path in sorted(qdir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue  # torn quarantine record: the cell stays pending
        if isinstance(payload, dict) and isinstance(payload.get("cell"), str):
            out[payload["cell"]] = str(payload.get("error", "unknown error"))
    return out


def _read_worker_stats(out_dir, expected_fp: str) -> List[Dict]:
    wdir = Path(out_dir) / "workers"
    out: List[Dict] = []
    if not wdir.is_dir():
        return out
    for path in sorted(wdir.glob("*.json")):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue  # a worker died mid-write; its cells still count
        if not isinstance(payload, dict):
            continue
        if payload.get("fingerprint") != expected_fp:
            raise FabricFingerprintError(
                f"{path}: worker fingerprint {payload.get('fingerprint')!r} "
                f"!= manifest {expected_fp!r}"
            )
        out.append(payload)
    return out


def fabric_merge(out_dir) -> FabricMergeResult:
    """Verify fingerprints, then combine the journal.

    Every journaled cell (via the runner's own ``_load_cell`` gate) and
    every worker record must carry the manifest's spec fingerprint.
    Cells neither journaled nor quarantined abort the merge
    (:class:`FabricIncompleteError`) — a partial fabric is resumed by
    running more workers, not by merging.  ``quarantine.json`` is
    rebuilt from the per-cell quarantine records, in canonical cell
    order, or deleted when there are none.  The ``sweep.json`` written
    here goes through :meth:`CheckpointedSweep.write_merged`, so it is
    byte-identical whoever computed the cells.
    """
    cs = CheckpointedSweep.resume(out_dir)
    fp = cs.spec.fingerprint()
    done, pending = cs.collect_cells()
    records = _read_quarantine(out_dir)
    quarantined = {c: records[c] for c in pending if c in records}
    missing = [c for c in pending if c not in quarantined]
    if missing:
        raise FabricIncompleteError(
            f"{out_dir}: {len(missing)} cell(s) neither journaled nor "
            f"quarantined (e.g. {missing[0]!r}); run more workers, then merge"
        )
    workers = _read_worker_stats(out_dir, fp)
    summary = Path(out_dir) / "quarantine.json"
    if quarantined:
        atomic_write_json(summary, quarantined)
    else:
        summary.unlink(missing_ok=True)
    points = cs.write_merged(done)
    return FabricMergeResult(
        points=points,
        out_dir=Path(out_dir),
        fingerprint=fp,
        p=8 * cs.spec.n_nodes,
        n_cells=len(done),
        quarantined=quarantined,
        workers=workers,
        steals=sum(int(w.get("steals", 0)) for w in workers),
        lease_contention=sum(int(w.get("lease_contention", 0)) for w in workers),
        cell_seconds=_cell_seconds(done),
    )


# ----------------------------------------------------------------------
# status (read-only)
# ----------------------------------------------------------------------
@dataclass
class ClaimStatus:
    """One row of the live claim table: a claimed, still-uncovered cell."""

    cell: str
    owner: Optional[str]
    age: float
    state: str            # claimed | expired


@dataclass
class FabricStatus:
    """Read-only snapshot of a sweep journal and its fabric state."""

    out_dir: Path
    fingerprint: str
    n_cells: int
    n_done: int
    n_pending: int
    n_quarantined: int
    cell_seconds: Dict[str, float]
    #: Claims on cells not yet journaled or quarantined; None when the
    #: journal has no claims directory (a solo run wrote it).
    claims: Optional[List[ClaimStatus]] = None

    def format(self) -> str:
        """Render counts, cost spread and the live claim table."""
        lines = [
            f"sweep journal {self.out_dir} (fingerprint {self.fingerprint})",
            f"  cells: {self.n_cells} total, {self.n_done} done, "
            f"{self.n_pending} pending, {self.n_quarantined} quarantined",
        ]
        if self.cell_seconds:
            values = sorted(self.cell_seconds.values())
            med = values[len(values) // 2]
            lines.append(
                f"  cell cost: min {values[0]:.3f}s / median {med:.3f}s / "
                f"max {values[-1]:.3f}s over {len(values)} measured"
            )
        if self.claims is None:
            lines.append("  no claims (solo journal)")
        elif not self.claims:
            lines.append("  no live claims")
        else:
            lines.append(f"  {'claimed cell':<32} {'owner':>24} {'age':>9} {'state':>8}")
            for c in self.claims:
                lines.append(
                    f"  {c.cell:<32} {(c.owner or '-'):>24} {c.age:>8.1f}s {c.state:>8}"
                )
        return "\n".join(lines)


def fabric_status(out_dir, lease_ttl: float = DEFAULT_LEASE_TTL) -> FabricStatus:
    """Inspect a journal without touching it (works mid-run).

    Purely read-only: no directory creation, no claim mutation — safe to
    point at a fabric other workers are actively computing.  A claim
    older than ``lease_ttl`` reads as ``expired``: the next worker to
    reach its cell takes it over.
    """
    cs = CheckpointedSweep.resume(out_dir)
    done, pending = cs.collect_cells()
    quarantined = _read_quarantine(out_dir)
    uncovered = [c for c in pending if c not in quarantined]
    status = FabricStatus(
        out_dir=Path(out_dir),
        fingerprint=cs.spec.fingerprint(),
        n_cells=len(cs.spec.cells()),
        n_done=len(done),
        n_pending=len(uncovered),
        n_quarantined=len([c for c in quarantined if c not in done]),
        cell_seconds=_cell_seconds(done),
    )
    if not _claims_dir(out_dir).is_dir():
        return status
    status.claims = []
    now = time.time()
    for cell in uncovered:
        path = _claim_path(out_dir, cell)
        try:
            st = path.stat()
        except FileNotFoundError:
            continue  # unclaimed
        age = max(0.0, now - st.st_mtime)
        status.claims.append(
            ClaimStatus(
                cell=cell,
                owner=_read_claim_owner(path),
                age=age,
                state="expired" if age > lease_ttl else "claimed",
            )
        )
    return status


# ----------------------------------------------------------------------
# supervisor
# ----------------------------------------------------------------------
def run_workers(
    out_dir,
    spec: Optional[SweepSpec] = None,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    max_retries: int = 2,
) -> FabricMergeResult:
    """Run ``workers`` supervised fabric workers on one journal, then merge.

    ``spec=None`` resumes the journal at ``out_dir``.  The claims,
    quarantine records and worker records of an earlier run are cleared
    first, so its quarantined cells are retried.  Children start with
    the platform's default start method and poll every
    :data:`SUPERVISED_POLL_S`.  The parent watches their claims on cells
    neither journaled nor quarantined:

    * a child whose claim is older than ``cell_timeout`` is SIGKILLed;
    * a child found dead while holding one is handled the same way.

    Either way the cell is quarantined and, while cells remain, a
    replacement child starts.  Claims are read after a child's death,
    so the cell it died on is the one quarantined.  A child that exits
    nonzero holding no such claim, unless the parent killed it, stops
    the run with :class:`FabricError`, which bounds the respawns.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError("cell_timeout must be positive")
    cs = CheckpointedSweep(spec, out_dir) if spec is not None else CheckpointedSweep.resume(out_dir)
    cs.prepare()
    for stale in (_claims_dir(cs.out_dir), _quarantine_dir(cs.out_dir), cs.out_dir / "workers"):
        shutil.rmtree(stale, ignore_errors=True)
    ctx = multiprocessing.get_context()
    kwargs = {
        "spec": cs.spec,
        # a sibling's takeover must not pre-empt the parent's timeout
        "lease_ttl": max(DEFAULT_LEASE_TTL, cell_timeout or 0.0),
        "max_retries": max_retries,
        "poll_interval": SUPERVISED_POLL_S,
    }
    children: Dict[str, multiprocessing.Process] = {}
    timed_out: set = set()
    n_started, to_start = 0, workers
    try:
        while True:
            for _ in range(to_start):
                worker_id = f"w{n_started}"
                n_started += 1
                children[worker_id] = ctx.Process(
                    target=run_fabric_worker,
                    args=(str(cs.out_dir),),
                    kwargs={**kwargs, "worker_id": worker_id},
                )
                children[worker_id].start()
            to_start = 0
            if not children:
                break
            # woken by any child's exit; with a timeout, also every tenth
            # of it to check the claims' ages
            wait(
                [child.sentinel for child in children.values()],
                None if cell_timeout is None else max(SUPERVISED_POLL_S, cell_timeout / 10),
            )
            # children found dead before the scan show their last claims in it
            dead = [worker_id for worker_id, child in children.items() if not child.is_alive()]
            status = fabric_status(cs.out_dir)
            # a child holds at most one uncovered claim; should the scan
            # straddle its next claim, the younger one is the live one
            claims = sorted(status.claims or (), key=lambda c: c.age, reverse=True)
            held = {claim.owner: claim for claim in claims}
            remaining = status.n_pending
            for worker_id in dead:
                exitcode = children.pop(worker_id).exitcode
                if exitcode == 0:
                    continue
                claim = held.get(worker_id)
                if claim is not None:
                    error = (
                        f"timeout: cell exceeded {cell_timeout}s"
                        if worker_id in timed_out
                        else f"worker exited with code {exitcode}"
                    )
                    _quarantine(cs.out_dir, claim.cell, error, worker_id)
                    remaining -= 1
                elif worker_id not in timed_out:  # a killed child may have just finished
                    raise FabricError(
                        f"{out_dir}: worker {worker_id} exited with code "
                        f"{exitcode} holding no claim"
                    )
                if remaining > 0:
                    to_start += 1
            for worker_id, child in children.items():
                claim = held.get(worker_id)
                if cell_timeout is not None and claim is not None and claim.age > cell_timeout:
                    child.kill()
                    child.join()
                    timed_out.add(worker_id)
    finally:
        for child in children.values():
            child.kill()
            child.join()
    return fabric_merge(cs.out_dir)
