"""Whole-pipeline static audit: every analysis family behind one gate.

``repro audit`` (and ``python -m repro.analysis.audit``) runs all nine
diagnostic families over the repository and a small canonical artifact
set, then renders one merged report as text, JSON, or SARIF 2.1.0:

========  =============================================================
section   what runs
========  =============================================================
schedule  :func:`~repro.analysis.schedule_verifier.verify_algorithm`
          over every registered collective at a communicator-size sweep
mapping   cluster / distance-matrix invariants plus one mapping per
          fine-tuned heuristic (``MAP`` / ``TOP``)
lint      repo-convention AST lint (``REP``) over the source trees
det       determinism lint (``DET``) over the source trees
par       concurrency / fork-safety lint (``PAR``) over the source trees
cch       cache-key soundness: signature reflection over the mapping
          cache key and the pricing fingerprint
flt       fault-plan verification of the canonical scenario builders
          against a real schedule + cluster, plus any ``*.json`` fault
          plans under ``--artifacts``
prc       pricing-table invariants for every registered collective at
          the audited cluster size, plus the batched-vs-oracle probe
========  =============================================================

The audit exits non-zero iff any *error*-severity finding survives
suppression (``# noqa`` in sources, ``--ignore`` code globs for
object-anchored findings); warnings are reported but do not gate.
Every emitted code must be registered in
:mod:`repro.analysis.registry` — an analyzer inventing an undocumented
code is itself reported as ``REP000``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport
from repro.analysis.registry import FAMILIES, is_registered
from repro.analysis.sarif import to_sarif
from repro.analysis.suppress import apply_suppressions

__all__ = ["AUDIT_SIZES", "AuditResult", "DEFAULT_PATHS", "run_audit", "main"]

#: Communicator sizes the schedule section sweeps (kept small; the CLI
#: ``repro verify`` covers the full ladder including p=64).
AUDIT_SIZES = [2, 3, 4, 8, 16, 17]

#: Source trees audited by the AST passes when none are given.
DEFAULT_PATHS = ["src", "tests", "benchmarks", "examples"]

#: Section name -> diagnostic family prefixes it can emit.
SECTION_FAMILIES = {
    "schedule": ("SCH",),
    "mapping": ("MAP", "TOP"),
    "lint": ("REP",),
    "det": ("DET",),
    "par": ("PAR",),
    "cch": ("CCH",),
    "flt": ("FLT",),
    "prc": ("PRC",),
}


@dataclass
class AuditResult:
    """Merged outcome of one audit run."""

    sections: "OrderedDict[str, DiagnosticReport]" = field(
        default_factory=OrderedDict
    )

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return [d for rep in self.sections.values() for d in rep.diagnostics]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def ok(self) -> bool:
        """True iff no error-severity finding survived suppression."""
        return not self.errors

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        """Machine-readable summary + findings (the ``--json`` artifact)."""
        return {
            "ok": self.ok(),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "sections": {
                name: {
                    "errors": len(rep.errors),
                    "warnings": len(rep.warnings),
                    "codes": rep.codes(),
                }
                for name, rep in self.sections.items()
            },
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity,
                    "message": d.message,
                    "path": d.path,
                    "line": d.line,
                    "col": d.col,
                    "stage": d.stage,
                    "message_index": d.message_index,
                    "rank": d.rank,
                }
                for d in self.diagnostics
            ],
        }

    def to_sarif(self) -> Dict:
        """SARIF 2.1.0 document (the ``--sarif`` artifact)."""
        return to_sarif(self.diagnostics)

    def format(self) -> str:
        """Readable multi-section report."""
        lines = []
        for name, rep in self.sections.items():
            status = "clean" if not rep.diagnostics else (
                f"{len(rep.errors)} error(s), {len(rep.warnings)} warning(s)"
            )
            lines.append(f"[{name}] {status}")
            lines += [f"  {d}" for d in rep.diagnostics]
        lines.append(
            f"audit: {len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s) across {len(self.sections)} section(s)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# section runners
# ----------------------------------------------------------------------
def _audit_schedules(sizes: Sequence[int]) -> DiagnosticReport:
    from repro.analysis.schedule_verifier import verify_algorithm
    from repro.collectives.registry import make_algorithm, registered_algorithm_names

    report = DiagnosticReport(subject="schedule verification")
    for name in registered_algorithm_names():
        for p in sizes:
            alg = make_algorithm(name)
            try:
                alg.validate_p(p)
            except ValueError:
                continue
            sub = verify_algorithm(alg, p)
            for diag in sub.diagnostics:
                report.add(
                    diag.code,
                    f"{name} (p={p}): {diag.message}",
                    severity=diag.severity,
                    stage=diag.stage,
                    message_index=diag.message_index,
                    rank=diag.rank,
                )
    return report


def _audit_mappings(nodes: int) -> DiagnosticReport:
    from repro.analysis.mapping_checker import (
        check_cluster,
        check_core_mapping,
        check_distance_matrix,
    )
    from repro.mapping.initial import make_layout
    from repro.mapping.reorder import HEURISTICS, reorder_ranks
    from repro.topology.gpc import gpc_cluster

    report = DiagnosticReport(subject="mapping / topology invariants")
    cluster = gpc_cluster(n_nodes=nodes)
    report.extend(check_cluster(cluster))
    report.extend(check_distance_matrix(cluster.distance_matrix()))
    distances = cluster.implicit_distances()
    layout = make_layout("cyclic-bunch", cluster, cluster.n_cores)
    for pattern in sorted(HEURISTICS):
        result = reorder_ranks(pattern, layout, distances, rng=0, cache="off")
        sub = check_core_mapping(result.mapping, layout)
        for diag in sub.diagnostics:
            report.add(
                diag.code,
                f"{pattern} heuristic: {diag.message}",
                severity=diag.severity,
            )
    return report


def _audit_faults(nodes: int, artifacts: Optional[str]) -> DiagnosticReport:
    from repro.analysis.flt import verify_fault_plan
    from repro.collectives.allgather_rd import RecursiveDoublingAllgather
    from repro.faults.plan import (
        FaultPlan,
        cable_degradation,
        hca_retrain,
        single_node_failure,
    )
    from repro.topology.gpc import gpc_cluster

    report = DiagnosticReport(subject="fault-plan verification")
    cluster = gpc_cluster(n_nodes=nodes)
    schedule = RecursiveDoublingAllgather().schedule(cluster.n_cores)
    canonical = {
        "single-node-failure": single_node_failure(cluster.n_nodes - 1, onset_stage=1),
        "hca-retrain": hca_retrain(0, factor=4.0, onset_stage=1),
        "cable-degradation": cable_degradation([0], factor=2.0, onset_stage=1),
    }
    for name, plan in canonical.items():
        # FLT003 (pow2 loss after shrink) is inherent to *any* node failure
        # on a pow2 cluster — the builder check verifies builder validity,
        # not scenario advisability, so it is suppressed here with cause.
        sub = verify_fault_plan(
            plan, schedule=schedule, cluster=cluster, ignore=("FLT003",)
        )
        for diag in sub.diagnostics:
            report.add(
                diag.code,
                f"builder {name}: {diag.message}",
                severity=diag.severity,
                message_index=diag.message_index,
            )
    if artifacts:
        root = Path(artifacts)
        for path in sorted(root.glob("*.json")) if root.is_dir() else []:
            try:
                plan = FaultPlan.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                report.add(
                    "FLT002",
                    f"{path.name}: not a loadable fault plan ({exc})",
                    path=str(path),
                )
                continue
            sub = verify_fault_plan(plan, schedule=schedule, cluster=cluster)
            for diag in sub.diagnostics:
                report.add(
                    diag.code,
                    f"{path.name}: {diag.message}",
                    severity=diag.severity,
                    path=str(path),
                    message_index=diag.message_index,
                )
    return report


def _audit_pricing(nodes: int) -> DiagnosticReport:
    import numpy as np

    from repro.analysis.prc import check_pricing, probe_pricing_identity
    from repro.collectives.registry import make_algorithm, registered_algorithm_names
    from repro.simmpi.engine import TimingEngine
    from repro.topology.gpc import gpc_cluster

    report = DiagnosticReport(subject="pricing-table invariants")
    cluster = gpc_cluster(n_nodes=nodes)
    engine = TimingEngine(cluster)
    mapping = np.arange(cluster.n_cores, dtype=np.int64)
    for name in registered_algorithm_names():
        alg = make_algorithm(name)
        try:
            alg.validate_p(cluster.n_cores)
        except ValueError:
            continue
        pricing = engine.pricing(alg.schedule(cluster.n_cores), mapping)
        sub = check_pricing(pricing)
        for diag in sub.diagnostics:
            report.add(
                diag.code,
                f"{name}: {diag.message}",
                severity=diag.severity,
                stage=diag.stage,
            )
    report.extend(probe_pricing_identity(engine=engine))
    return report


# ----------------------------------------------------------------------
def run_audit(
    paths: Optional[Sequence[str]] = None,
    nodes: int = 4,
    sizes: Optional[Sequence[int]] = None,
    artifacts: Optional[str] = None,
    ignore: Iterable[str] = (),
    skip: Iterable[str] = (),
) -> AuditResult:
    """Run every audit section and return the merged result.

    Parameters
    ----------
    paths:
        Source trees for the AST passes; defaults to the existing
        subset of :data:`DEFAULT_PATHS`.
    nodes:
        Cluster size for the probe sections (mapping, flt, prc).
    sizes:
        Communicator sweep for the schedule section.
    artifacts:
        Directory of persisted fault-plan JSON files to verify.
    ignore:
        Code globs (``"FLT003"``, ``"PRC"``) removed from every section.
    skip:
        Section names or family prefixes to skip entirely.
    """
    from repro.analysis.cch import check_cache_keys
    from repro.analysis.det import check_determinism_paths
    from repro.analysis.lint import lint_paths
    from repro.analysis.par import check_concurrency_paths

    if paths is None:
        paths = [p for p in DEFAULT_PATHS if Path(p).exists()]
    skip = {s.lower() for s in skip} | {
        name
        for name, fams in SECTION_FAMILIES.items()
        for s in skip
        if s.upper() in fams
    }

    result = AuditResult()

    def _section(name, runner):
        if name in skip:
            return
        result.sections[name] = apply_suppressions(runner(), ignore)

    _section("schedule", lambda: _audit_schedules(sizes or AUDIT_SIZES))
    _section("mapping", lambda: _audit_mappings(nodes))
    _section("lint", lambda: lint_paths(paths))
    _section("det", lambda: check_determinism_paths(paths))
    _section("par", lambda: check_concurrency_paths(paths))
    _section("cch", check_cache_keys)
    _section("flt", lambda: _audit_faults(nodes, artifacts))
    _section("prc", lambda: _audit_pricing(nodes))

    # Registry discipline: an unregistered code is an analyzer bug.
    rogue = sorted({d.code for d in result.diagnostics if not is_registered(d.code)})
    if rogue:
        meta = result.sections.setdefault(
            "registry", DiagnosticReport(subject="code registry")
        )
        for code in rogue:
            meta.add(
                "REP000",
                f"diagnostic code {code!r} is not registered in "
                "repro.analysis.registry (family catalogue: "
                f"{', '.join(sorted(FAMILIES))})",
            )
    return result


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis.audit`` / ``repro audit``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="whole-pipeline static audit (all diagnostic families)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"source trees for the AST passes (default: {DEFAULT_PATHS})",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=4,
        help="probe cluster size (pow2 node counts keep every heuristic valid)",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help=f"schedule-section communicator sizes (default: {AUDIT_SIZES})",
    )
    parser.add_argument(
        "--artifacts", default=None, help="directory of fault-plan JSON artifacts"
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODE",
        help="suppress a code or family prefix (repeatable), e.g. FLT003 or PRC",
    )
    parser.add_argument(
        "--skip-family",
        action="append",
        default=[],
        metavar="FAMILY",
        help="skip a section or family entirely (repeatable), e.g. cch or DET",
    )
    parser.add_argument("--json", default=None, help="write the JSON report here")
    parser.add_argument("--sarif", default=None, help="write the SARIF report here")
    args = parser.parse_args(argv)

    result = run_audit(
        paths=args.paths or None,
        nodes=args.nodes,
        sizes=args.sizes,
        artifacts=args.artifacts,
        ignore=args.ignore,
        skip=args.skip_family,
    )
    print(result.format())
    if args.json:
        from repro.util.atomicio import atomic_write_json

        atomic_write_json(Path(args.json), result.to_json())
        print(f"json report written to {args.json}")
    if args.sarif:
        from repro.util.atomicio import atomic_write_json

        atomic_write_json(Path(args.sarif), result.to_sarif())
        print(f"sarif report written to {args.sarif}")
    return 0 if result.ok() else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
