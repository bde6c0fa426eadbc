"""Command-line interface: ``python -m repro <subcommand>``.

The subcommands mirror the paper's workflow:

* ``topo``      — describe a simulated cluster (structure, distance
  ladder, cost-model calibration probes);
* ``sweep``     — micro-benchmark sweep (Fig. 3/4 style tables); also
  the crash-safe journaled runner (``--out-dir`` / ``--resume``),
  supervised parallel runs (``--workers N``: N fabric worker processes
  on the journal, or on a temporary one) and the distributed sweep
  fabric (``--fabric`` worker that claims one grid cell at a time,
  ``--merge`` fingerprint-verified combine of any journal, ``--status``
  read-only inspector);
* ``app``       — application study (Fig. 5/6 style tables);
* ``overheads`` — extraction + mapping overheads (Fig. 7 style);
* ``adaptive``  — per-size adaptive reordering decisions (§VII);
* ``bcast``     — MPI_Bcast improvement sweep (the §V BBMH claim);
* ``profile``   — link-level congestion diagnosis of one configuration;
* ``faults``    — fault injection: price fail-stop vs. shrink-keep vs.
  shrink-remap recovery after node failures;
* ``reproduce`` — regenerate the core paper artefacts in one command;
* ``serve``     — run the warm-state reordering daemon (JSON-lines over
  a unix socket and/or TCP; see ``docs/serving.md``);
* ``verify``    — static schedule / mapping verification (no simulation);
* ``lint``      — repo-specific AST lint pass (REP00x rules);
* ``audit``     — whole-pipeline static audit: lint + determinism,
  concurrency, cache-key, fault-plan and pricing analyzers, with JSON
  and SARIF report output (see ``docs/static_analysis.md``).

Simulation commands accept ``--nodes`` to size the GPC-class cluster
(processes = 8 x nodes) and print plain-text tables.  Timing is not a
subcommand: the benchmark of record is ``python3 perf/run.py`` (see
``perf/README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from typing import List, Optional


from repro.apps.matvec import MatVecApp
from repro.apps.solver import IterativeSolverApp
from repro.apps.nbody import NBodyApp
from repro.apps.trace import AppRunner
from repro.bench.microbench import OSU_SIZES, sweep_hierarchical, sweep_nonhierarchical
from repro.bench.report import format_sweep_table
from repro.evaluation.adaptive import AdaptiveReorderer
from repro.evaluation.calibration import calibrate, calibration_report
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.initial import INITIAL_LAYOUTS, make_layout
from repro.mapping.reorder import reorder_ranks
from repro.simmpi.costmodel import CostModel
from repro.topology.distances import DistanceExtractor
from repro.topology.gpc import gpc_cluster

__all__ = ["main", "build_parser"]

QUICK_SIZES = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]

#: Default communicator sizes for ``repro verify`` — mixes powers of two,
#: odd sizes and primes so both the pow2-only and general algorithms get
#: exercised off their happy path.
VERIFY_P_SWEEP = [2, 3, 4, 7, 8, 16, 17, 32, 64]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Topology-aware rank reordering for MPI collectives (IPDPS'16 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nodes(p):
        p.add_argument("--nodes", type=int, default=32, help="compute nodes (8 cores each)")

    p_topo = sub.add_parser("topo", help="describe the simulated cluster")
    add_nodes(p_topo)

    p_sweep = sub.add_parser("sweep", help="micro-benchmark improvement sweep (Fig. 3/4)")
    add_nodes(p_sweep)
    p_sweep.add_argument("--hierarchical", action="store_true")
    p_sweep.add_argument("--intra", choices=["binomial", "linear"], default="binomial")
    p_sweep.add_argument("--full-sizes", action="store_true", help="all 19 OSU sizes")
    p_sweep.add_argument(
        "--mappers", nargs="+", default=["heuristic", "scotch"],
        choices=["heuristic", "scotch", "greedy"],
    )
    p_sweep.add_argument(
        "--layouts", nargs="+", default=None, choices=sorted(INITIAL_LAYOUTS),
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="run N supervised fabric worker processes on the journal of "
        "--out-dir or --resume (a temporary journal without either), then "
        "merge; the output is byte-identical to a serial run",
    )
    p_sweep.add_argument(
        "--out-dir", default=None,
        help="journal directory: checkpoint every grid cell and write the "
        "merged sweep.json there (crash-safe, resumable)",
    )
    p_sweep.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume a checkpointed sweep from its journal directory, "
        "skipping completed cells (other grid flags are ignored)",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=2,
        help="per-cell retries before quarantining it (journaled runs)",
    )
    p_sweep.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell timeout in seconds: a worker still computing a cell "
        "after this long is killed and the cell quarantined (runs one "
        "supervised worker unless --workers is given)",
    )
    p_sweep.add_argument(
        "--fabric", default=None, metavar="DIR",
        help="join the distributed sweep fabric at DIR as one worker: "
        "claim grid cells one at a time (O_EXCL claim files), compute "
        "them into the shared journal, take over expired claims of dead "
        "workers (creates the fabric from the grid flags if DIR has no "
        "manifest yet)",
    )
    p_sweep.add_argument(
        "--worker-id", default=None,
        help="fabric worker identity (default: <hostname>-<pid>)",
    )
    p_sweep.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds after which a claim on a cell not yet journaled "
        "counts as a dead worker's and may be taken over; keep it above "
        "the longest cell, or that cell may be computed twice (default 30)",
    )
    p_sweep.add_argument(
        "--merge", default=None, metavar="DIR",
        help="fingerprint-verified merge of a fabric or solo journal: require "
        "every cell journaled or quarantined, then write sweep.json "
        "(bit-identical to a solo checkpointed run)",
    )
    p_sweep.add_argument(
        "--status", default=None, metavar="DIR",
        help="read-only journal inspector: done/pending/quarantined cell "
        "counts, cell-cost summary and the table of live claims",
    )

    p_app = sub.add_parser("app", help="application study (Fig. 5/6)")
    add_nodes(p_app)
    p_app.add_argument("--app", choices=["nbody", "matvec", "solver"], default="nbody")
    p_app.add_argument("--steps", type=int, default=358)
    p_app.add_argument("--hierarchical", action="store_true")
    p_app.add_argument("--intra", choices=["binomial", "linear"], default="binomial")

    p_over = sub.add_parser("overheads", help="extraction + mapping overheads (Fig. 7)")
    add_nodes(p_over)
    p_over.add_argument(
        "--pattern", default="recursive-doubling",
        choices=["recursive-doubling", "ring", "binomial-bcast", "binomial-gather", "bruck"],
    )

    p_ad = sub.add_parser("adaptive", help="per-size adaptive reordering decisions")
    add_nodes(p_ad)
    p_ad.add_argument("--layout", default="cyclic-bunch", choices=sorted(INITIAL_LAYOUTS))

    p_bc = sub.add_parser("bcast", help="MPI_Bcast improvement sweep (BBMH / scatter-allgather)")
    add_nodes(p_bc)
    p_bc.add_argument("--layout", default="cyclic-scatter", choices=sorted(INITIAL_LAYOUTS))

    p_prof = sub.add_parser("profile", help="link-level congestion diagnosis")
    add_nodes(p_prof)
    p_prof.add_argument("--layout", default="cyclic-scatter", choices=sorted(INITIAL_LAYOUTS))
    p_prof.add_argument("--block-bytes", type=int, default=65536)
    p_prof.add_argument("--reordered", action="store_true", help="profile after reordering")

    p_flt = sub.add_parser(
        "faults", help="price fail-stop / shrink-keep / shrink-remap recovery"
    )
    add_nodes(p_flt)
    p_flt.add_argument(
        "--fail-nodes", type=int, nargs="+", required=True,
        help="node ids that fail at the start of the collective",
    )
    p_flt.add_argument("--layout", default="block-bunch", choices=sorted(INITIAL_LAYOUTS))
    p_flt.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help=f"message sizes in bytes (default: {QUICK_SIZES})",
    )
    p_flt.add_argument(
        "--kind", default="heuristic", choices=["heuristic", "scotch", "greedy"],
        help="mapper re-run on the surviving cores for shrink-remap",
    )
    p_flt.add_argument(
        "--patterns", nargs="+", default=None,
        help="communication patterns to price (default: every registered heuristic)",
    )

    p_rep = sub.add_parser("reproduce", help="regenerate the core paper artefacts")
    add_nodes(p_rep)
    p_rep.add_argument("--out", default=None, help="directory to write the reports to")

    p_srv = sub.add_parser(
        "serve", help="run the warm-state reordering daemon (JSON-lines protocol)"
    )
    p_srv.add_argument(
        "--socket", default=None, help="unix socket path to listen on"
    )
    p_srv.add_argument(
        "--port", type=int, default=None,
        help="TCP port to listen on (0 picks a free port, printed at startup)",
    )
    p_srv.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address (default 127.0.0.1)"
    )
    p_srv.add_argument(
        "--topology-cap", type=int, default=None,
        help="max resident topologies before LRU eviction (default 8)",
    )
    p_srv.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight work on SIGTERM (default 30)",
    )

    p_ver = sub.add_parser("verify", help="static schedule & mapping verification")
    p_ver.add_argument(
        "--alg", nargs="+", default=None,
        help="algorithm names to verify (default: every registered algorithm)",
    )
    p_ver.add_argument(
        "-p", "--sizes", dest="sizes", type=int, nargs="+", default=None,
        help=f"communicator sizes (default: {VERIFY_P_SWEEP})",
    )
    p_ver.add_argument(
        "--mappings", action="store_true",
        help="also check topology invariants and mapping-heuristic outputs",
    )
    add_nodes(p_ver)
    p_ver.add_argument(
        "--triangle", action="store_true",
        help="audit the distance matrix for triangle-inequality violations",
    )

    p_lint = sub.add_parser("lint", help="repo-specific AST lint pass (REP00x)")
    p_lint.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories (default: src tests benchmarks examples)",
    )

    p_aud = sub.add_parser(
        "audit",
        help="whole-pipeline static audit (REP/SCH/MAP/TOP/DET/PAR/CCH/FLT/PRC)",
    )
    p_aud.add_argument(
        "paths", nargs="*", default=None,
        help="source trees for the AST passes (default: src tests benchmarks examples)",
    )
    p_aud.add_argument(
        "--nodes", type=int, default=4,
        help="probe-cluster nodes for the behavioural sections (8 cores each)",
    )
    p_aud.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="communicator sizes for the schedule section",
    )
    p_aud.add_argument(
        "--artifacts", default=None, help="directory of fault-plan JSON artifacts"
    )
    p_aud.add_argument(
        "--cache-dir", default=None,
        help="mapping-cache directory to audit (default: $REPRO_MAPPING_CACHE)",
    )
    p_aud.add_argument(
        "--ignore", action="append", default=[],
        help="diagnostic code or family prefix to suppress (repeatable)",
    )
    p_aud.add_argument(
        "--skip-family", action="append", default=[],
        help="section name or family prefix to skip entirely (repeatable)",
    )
    p_aud.add_argument("--json", default=None, help="write the JSON report here")
    p_aud.add_argument("--sarif", default=None, help="write the SARIF 2.1.0 report here")
    return parser


# ----------------------------------------------------------------------
def _cmd_topo(args) -> int:
    from repro.topology.visualize import render_node, render_tree, render_wiring

    cluster = gpc_cluster(n_nodes=args.nodes)
    print(cluster)
    print()
    print(render_wiring(cluster))
    print()
    print(render_tree(cluster))
    print()
    print(render_node(cluster, 0))
    print()
    cm = CostModel()
    print(cm.describe())
    print()
    row = cluster.distance_row(0)
    print("distance ladder from core 0:")
    seen = set()
    for core in range(cluster.n_cores):
        d = float(row[core])
        if d not in seen:
            seen.add(d)
            print(f"  {cluster.channel_of(0, core):>6}: distance {d:.1f} (e.g. core {core})")
    print()
    print("calibration probes (simulated ping-pong):")
    print(calibration_report(calibrate(cluster, cm)))
    return 0


def _sweep_spec(args):
    """The :class:`~repro.bench.runner.SweepSpec` the grid flags describe."""
    from repro.bench.runner import SweepSpec

    if args.hierarchical:
        layouts = args.layouts or ["block-bunch", "block-scatter"]
    else:
        layouts = args.layouts or sorted(INITIAL_LAYOUTS)
    return SweepSpec(
        n_nodes=args.nodes,
        layouts=tuple(layouts),
        sizes=tuple(OSU_SIZES if args.full_sizes else QUICK_SIZES),
        mappers=tuple(args.mappers),
        hierarchical=args.hierarchical,
        intra=args.intra,
    )


def _sweep_title(spec) -> str:
    kind = f"Hierarchical ({spec.intra})" if spec.hierarchical else "Non-hierarchical"
    return f"{kind} allgather improvement %, p={8 * spec.n_nodes}"


def _cmd_sweep(args) -> int:
    if args.status is not None:
        return _cmd_sweep_status(args)
    if args.merge is not None:
        return _cmd_sweep_merge(args)
    if args.fabric is not None:
        return _cmd_sweep_fabric(args)
    if any(v is not None for v in (args.resume, args.out_dir, args.workers, args.cell_timeout)):
        return _cmd_sweep_journaled(args)
    spec = _sweep_spec(args)
    ev = AllgatherEvaluator(gpc_cluster(n_nodes=spec.n_nodes), rng=0)
    p = ev.cluster.n_cores
    if spec.hierarchical:
        points = sweep_hierarchical(
            ev, p, layouts=spec.layouts, sizes=spec.sizes, mappers=spec.mappers,
            intra=spec.intra,
        )
    else:
        points = sweep_nonhierarchical(
            ev, p, layouts=spec.layouts, sizes=spec.sizes, mappers=spec.mappers
        )
    print(format_sweep_table(points, title=_sweep_title(spec)))
    return 0


def _cmd_sweep_journaled(args) -> int:
    """A journaled sweep: serial in this process (``--out-dir`` / ``--resume``).

    With ``--workers N`` or ``--cell-timeout``, supervised fabric
    workers compute it instead, on that journal or on a temporary one
    that is deleted afterwards.
    """
    from repro.bench.fabric import FabricError, run_workers
    from repro.bench.runner import CheckpointedSweep

    journal = args.resume or args.out_dir
    try:
        spec = CheckpointedSweep.resume(args.resume).spec if args.resume else _sweep_spec(args)
        if args.workers is None and args.cell_timeout is None:
            result = CheckpointedSweep(spec, journal, max_retries=args.max_retries).run()
            note = f"resumed {result.n_resumed}, computed {result.n_computed} cells"
        else:
            with (
                contextlib.nullcontext(journal)
                if journal is not None
                else tempfile.TemporaryDirectory(prefix="repro-sweep-")
            ) as out:
                result = run_workers(
                    out, spec, workers=1 if args.workers is None else args.workers,
                    cell_timeout=args.cell_timeout, max_retries=args.max_retries,
                )
            note = f"{len(result.workers)} supervised workers"
    except (FabricError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    print(format_sweep_table(result.points, title=_sweep_title(spec)))
    if journal is not None:
        print(f"\njournal: {journal}  ({note})")
    for cell, err in sorted(result.quarantined.items()):
        print(f"warning: quarantined cell {cell}: {err}")
    return 0


def _cmd_sweep_fabric(args) -> int:
    """One fabric worker (``--fabric DIR``): create-or-join, then work."""
    from pathlib import Path

    from repro.bench.fabric import FabricWorker

    out = Path(args.fabric)
    spec = None if (out / "manifest.json").is_file() else _sweep_spec(args)
    try:
        worker = FabricWorker(
            out,
            spec=spec,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            max_retries=args.max_retries,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    stats = worker.run()
    print(
        f"fabric worker {stats.worker_id}: "
        f"{stats.cells_computed} cells computed, {stats.cells_quarantined} "
        f"quarantined ({stats.steals} claims taken over, contention "
        f"{stats.lease_contention}) "
        f"in {stats.elapsed_seconds:.2f}s ({stats.cells_per_sec:.2f} cells/s)"
    )
    print(f"journal: {out}  (merge with: repro sweep --merge {out})")
    return 0


def _cmd_sweep_merge(args) -> int:
    """Fingerprint-verified fabric merge (``--merge DIR``)."""
    from repro.bench.fabric import FabricError, fabric_merge

    try:
        result = fabric_merge(args.merge)
    except (FabricError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    print(format_sweep_table(result.points, title=f"Fabric-merged sweep, p={result.p}"))
    print()
    print(result.summary())
    return 0


def _cmd_sweep_status(args) -> int:
    """Read-only journal/fabric inspector (``--status DIR``)."""
    from repro.bench.fabric import FabricError, fabric_status

    try:
        status = fabric_status(args.status, lease_ttl=args.lease_ttl)
    except (FabricError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    print(status.format())
    return 0


def _cmd_app(args) -> int:
    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    ev = AllgatherEvaluator(cluster, rng=0)
    if args.app == "nbody":
        trace = NBodyApp(steps=args.steps).trace()
    elif args.app == "matvec":
        trace = MatVecApp(n_processes=p, iterations=args.steps).trace()
    else:
        trace = IterativeSolverApp(n_processes=p, iterations=args.steps).trace()
    print(
        f"{trace.name}: {trace.n_allgathers} allgathers, p={p}, "
        f"hierarchical={args.hierarchical}\n"
    )
    print(f"{'layout':>16} {'default(s)':>11} {'Hrstc(s)':>10} {'Scotch(s)':>10} {'Hrstc norm':>11}")
    layouts = sorted(INITIAL_LAYOUTS)
    for lname in layouts:
        runner = AppRunner(ev, make_layout(lname, cluster, p))
        rows = {}
        for mode in ("default", "heuristic", "scotch"):
            rows[mode] = runner.run(
                trace, mode=mode, hierarchical=args.hierarchical, intra=args.intra
            )
        print(
            f"{lname:>16} {rows['default'].total_seconds:>11.3f} "
            f"{rows['heuristic'].total_seconds:>10.3f} "
            f"{rows['scotch'].total_seconds:>10.3f} "
            f"{rows['heuristic'].normalized_to(rows['default']):>11.3f}"
        )
    return 0


def _cmd_overheads(args) -> int:
    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    D, report = DistanceExtractor(cluster).extract()
    print(f"distance extraction at p={p}: {report.seconds:.4f} s (one-time)")
    L = make_layout("cyclic-bunch", cluster, p)
    print(f"\nmapping overheads for pattern {args.pattern!r}:")
    for kind in ("heuristic", "scotch", "greedy"):
        res = reorder_ranks(args.pattern, L, D, kind=kind, rng=0)
        extra = f" (graph build {res.graph_seconds:.4f} s)" if res.graph_seconds else ""
        print(f"  {kind:>10}: {res.total_seconds:.4f} s{extra}")
    return 0


def _cmd_adaptive(args) -> int:
    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    ev = AllgatherEvaluator(cluster, rng=0)
    ad = AdaptiveReorderer(ev, make_layout(args.layout, cluster, p))
    print(f"adaptive decisions on {args.layout}, p={p}\n")
    print(f"{'size':>8} {'default(us)':>12} {'reordered(us)':>14} {'choice':>10}")
    for bb in QUICK_SIZES:
        d = ad.decide(bb)
        choice = "reordered" if d.use_reordered else "default"
        print(
            f"{bb:>8} {d.default_seconds * 1e6:>12.1f} "
            f"{d.reordered_seconds * 1e6:>14.1f} {choice:>10}"
        )
    return 0


def _cmd_bcast(args) -> int:
    from repro.evaluation.bcast import BcastEvaluator

    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    ev = BcastEvaluator(cluster, rng=0)
    L = make_layout(args.layout, cluster, p)
    print(f"MPI_Bcast improvement on {args.layout}, p={p}\n")
    print(f"{'size':>10} {'algorithm':>28} {'default(us)':>12} {'tuned(us)':>11} {'gain':>7}")
    for mb in (256, 1024, 4096, 16384, 65536, 262144, 1 << 20):
        base = ev.default_latency(L, mb)
        tuned = ev.reordered_latency(L, mb, "heuristic")
        gain = 100 * (base.seconds - tuned.seconds) / base.seconds
        print(
            f"{mb:>10} {base.algorithm:>28} {base.seconds * 1e6:>12.1f} "
            f"{tuned.seconds * 1e6:>11.1f} {gain:>6.1f}%"
        )
    return 0


def _cmd_profile(args) -> int:
    from repro.collectives.registry import select_allgather, pattern_of
    from repro.simmpi.profiler import profile_schedule

    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    ev = AllgatherEvaluator(cluster, rng=0)
    L = make_layout(args.layout, cluster, p)
    alg = select_allgather(p, args.block_bytes)
    mapping = L
    tag = "default mapping"
    if args.reordered:
        res = reorder_ranks(pattern_of(alg), L, ev.distances, rng=0)
        mapping = res.mapping
        tag = f"reordered ({res.mapper_name})"
    print(f"{alg.name} @ {args.block_bytes} B on {args.layout} [{tag}], p={p}\n")
    prof = profile_schedule(ev.engine, alg.schedule(p), mapping, args.block_bytes)
    print(prof.report())
    return 0


def _cmd_faults(args) -> int:
    from repro.faults.recover import compare_recovery_policies

    cluster = gpc_cluster(n_nodes=args.nodes)
    p = cluster.n_cores
    L = make_layout(args.layout, cluster, p)
    sizes = args.sizes or QUICK_SIZES
    comparisons = compare_recovery_policies(
        cluster, L, args.fail_nodes, sizes, patterns=args.patterns, kind=args.kind
    )
    print(
        f"recovery pricing on {args.layout}, p={p}, "
        f"failed node(s) {sorted(set(args.fail_nodes))} ({args.kind} remap)\n"
    )
    for comp in comparisons:
        print(comp.summary())
        print()
    return 0


def _cmd_reproduce(args) -> int:
    from repro.bench.suite import run_suite

    result = run_suite(n_nodes=args.nodes, out_dir=args.out)
    for name in sorted(result.reports):
        print(result.reports[name])
        print()
    print(result.summary())
    return 0


def _cmd_verify(args) -> int:
    from repro.analysis.mapping_checker import (
        check_cluster,
        check_core_mapping,
        check_distance_matrix,
    )
    from repro.analysis.schedule_verifier import verify_algorithm
    from repro.collectives.registry import make_algorithm, registered_algorithm_names
    from repro.mapping.reorder import HEURISTICS, reorder_all, reorder_ranks

    names = args.alg or registered_algorithm_names()
    unknown = [n for n in names if n not in registered_algorithm_names()]
    if unknown:
        known = ", ".join(registered_algorithm_names())
        print(f"error: unknown algorithm(s) {', '.join(unknown)}; registered: {known}")
        return 2
    sizes = args.sizes or VERIFY_P_SWEEP
    total = 0
    print(f"{'algorithm':>26} {'p':>5}  result")
    for name in names:
        for p in sizes:
            alg = make_algorithm(name)
            try:
                alg.validate_p(p)
            except ValueError:
                print(f"{name:>26} {p:>5}  skip (unsupported p)")
                continue
            report = verify_algorithm(alg, p)
            verdict = "ok" if not report.diagnostics else f"{len(report.diagnostics)} diagnostic(s)"
            print(f"{name:>26} {p:>5}  {verdict}")
            for diag in report.diagnostics:
                print(f"    {diag}")
            total += len(report.diagnostics)

    if args.mappings:
        cluster = gpc_cluster(n_nodes=args.nodes)
        p = cluster.n_cores
        print(f"\ntopology invariants ({cluster.n_nodes} nodes, {p} cores):")
        reports = [check_cluster(cluster, triangle=args.triangle)]
        D = cluster.distance_matrix()
        reports.append(check_distance_matrix(D, triangle=args.triangle))
        distances = cluster.implicit_distances()
        L = make_layout("cyclic-bunch", cluster, p)
        for pattern, res in reorder_all(
            L, distances, patterns=sorted(HEURISTICS), rng=0
        ).items():
            rep = check_core_mapping(res.mapping, L)
            rep.subject = f"{pattern} heuristic mapping"
            reports.append(rep)
        for rep in reports:
            print(f"  {rep.format()}")
            total += len(rep.diagnostics)

    print(f"\nverify: {total} diagnostic(s)")
    return 1 if total else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.registry import DEFAULT_TOPOLOGY_CAP
    from repro.serve.server import ReproServer, ServerConfig

    try:
        config = ServerConfig(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            topology_cap=(
                args.topology_cap if args.topology_cap is not None
                else DEFAULT_TOPOLOGY_CAP
            ),
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    async def run() -> None:
        server = ReproServer(config)
        await server.start()
        listening = []
        if config.socket_path is not None:
            listening.append(f"unix:{config.socket_path}")
        if server.port is not None:
            listening.append(f"tcp:{config.host}:{server.port}")
        print(f"repro serve: listening on {', '.join(listening)}", flush=True)
        await server.run()
        print("repro serve: drained, bye")

    asyncio.run(run())
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.lint import main as lint_main

    return lint_main(args.paths)


def _cmd_audit(args) -> int:
    from repro.analysis.audit import main as audit_main

    argv: List[str] = list(args.paths or [])
    argv += ["--nodes", str(args.nodes)]
    if args.sizes:
        argv += ["--sizes", *[str(s) for s in args.sizes]]
    if args.artifacts:
        argv += ["--artifacts", args.artifacts]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    for code in args.ignore:
        argv += ["--ignore", code]
    for family in args.skip_family:
        argv += ["--skip-family", family]
    if args.json:
        argv += ["--json", args.json]
    if args.sarif:
        argv += ["--sarif", args.sarif]
    return audit_main(argv)


_COMMANDS = {
    "topo": _cmd_topo,
    "sweep": _cmd_sweep,
    "app": _cmd_app,
    "overheads": _cmd_overheads,
    "adaptive": _cmd_adaptive,
    "bcast": _cmd_bcast,
    "profile": _cmd_profile,
    "faults": _cmd_faults,
    "reproduce": _cmd_reproduce,
    "serve": _cmd_serve,
    "verify": _cmd_verify,
    "lint": _cmd_lint,
    "audit": _cmd_audit,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
