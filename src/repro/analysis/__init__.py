"""Static analysis for schedules, mappings and repo conventions.

Nine diagnostic families across two kinds of checks, all running
without the event simulator (the full catalogue lives in
:mod:`repro.analysis.registry` and ``docs/static_analysis.md``):

source-anchored AST passes (suppress per line with ``# noqa: CODE``)
    * :mod:`repro.analysis.lint` — repo conventions (``REP``);
    * :mod:`repro.analysis.det` — determinism lint: unseeded RNGs,
      set-order iteration, wall-clock in fingerprints, unsorted
      directory scans, completion-order leaks (``DET``);
    * :mod:`repro.analysis.par` — concurrency / fork-safety: worker
      global mutation, non-atomic persistence writes, fork-captured
      closures (``PAR``);

object- and probe-anchored verifiers (suppress with ``ignore=`` globs)
    * :mod:`repro.analysis.schedule_verifier` — symbolic block-dataflow
      execution of schedules (``SCH``);
    * :mod:`repro.analysis.mapping_checker` — bijectivity /
      distance-matrix / cluster invariants (``MAP`` / ``TOP``);
    * :mod:`repro.analysis.cch` — cache-key soundness: signature
      coverage of the mapping-cache key and of the pricing fingerprint
      (``CCH``);
    * :mod:`repro.analysis.flt` — fault-plan verification against the
      round clock, cluster targets and factor ranges (``FLT``);
    * :mod:`repro.analysis.prc` — pricing-table invariants:
      monotonicity, term sanity, Pareto envelopes, batched-vs-oracle
      identity (``PRC``).

:mod:`repro.analysis.audit` orchestrates every family behind one gate
(``repro audit``), emitting JSON and SARIF 2.1.0 reports and exiting
non-zero on findings.  ``repro verify`` and ``repro lint`` expose the
older layers individually; ``REPRO_VERIFY=1`` (see
:mod:`repro.analysis.runtime`) verifies every schedule the timing
engines price.
"""

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.analysis.mapping_checker import (
    check_cluster,
    check_core_mapping,
    check_distance_matrix,
    check_node_groups,
    check_rank_permutation,
)
from repro.analysis.registry import FAMILIES, RULES, is_registered, rules_for_family
from repro.analysis.runtime import (
    REPRO_VERIFY_ENV,
    ScheduleVerificationError,
    maybe_verify_schedule,
    verification_enabled,
)
from repro.analysis.schedule_verifier import (
    CollectiveSemantics,
    allgather_semantics,
    bcast_semantics,
    gather_semantics,
    scatter_semantics,
    semantics_for,
    verify_algorithm,
    verify_schedule,
)
from repro.analysis.suppress import apply_suppressions, matches_ignore

#: Lazily imported module attributes: ``python -m repro.analysis.<mod>``
#: must not execute those modules twice (runpy's double-import warning),
#: and the probe-based checkers pull in engines/clusters only on use.
_LAZY = {
    "lint_paths": "lint",
    "lint_source": "lint",
    "check_determinism_source": "det",
    "check_determinism_paths": "det",
    "check_concurrency_source": "par",
    "check_concurrency_paths": "par",
    "check_cache_keys": "cch",
    "check_reorder_key_coverage": "cch",
    "check_pricing_fingerprint_coverage": "cch",
    "verify_fault_plan": "flt",
    "check_pricing": "prc",
    "probe_pricing_identity": "prc",
    "run_audit": "audit",
    "AuditResult": "audit",
    "to_sarif": "sarif",
    "to_sarif_json": "sarif",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f"repro.analysis.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "FAMILIES",
    "RULES",
    "is_registered",
    "rules_for_family",
    "apply_suppressions",
    "matches_ignore",
    "check_cluster",
    "check_core_mapping",
    "check_distance_matrix",
    "check_node_groups",
    "check_rank_permutation",
    "REPRO_VERIFY_ENV",
    "ScheduleVerificationError",
    "maybe_verify_schedule",
    "verification_enabled",
    "CollectiveSemantics",
    "allgather_semantics",
    "bcast_semantics",
    "gather_semantics",
    "scatter_semantics",
    "semantics_for",
    "verify_algorithm",
    "verify_schedule",
    *sorted(_LAZY),
]
