"""Shared benchmark fixtures: full-scale GPC evaluators and result files.

The figure benches run at the paper's scale by default (4096 processes on
512 nodes for Fig. 3/4/7, 1024 processes on 128 nodes for Fig. 5/6).  Set
``REPRO_BENCH_SCALE=small`` to shrink everything ~8x for quick runs.

Every bench prints its paper-style table and also writes it under
``results/`` so the output survives pytest's capture.  Small-scale runs
write under the gitignored ``results/small/`` instead, so a quick local
run never overwrites the committed paper-scale files.
"""

import os
import pathlib

import pytest

from repro.evaluation.evaluator import AllgatherEvaluator
from repro.topology.gpc import gpc_cluster

SMALL = os.environ.get("REPRO_BENCH_SCALE", "paper") == "small"

#: message sizes matching the tick labels of the paper's Fig. 3/4 x-axis
SIZES = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144]

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
if SMALL:
    RESULTS_DIR = RESULTS_DIR / "small"


@pytest.fixture(scope="session")
def micro_p():
    """Process count for the micro-benchmark figures (paper: 4096)."""
    return 512 if SMALL else 4096


@pytest.fixture(scope="session")
def app_p():
    """Process count for the application figures (paper: 1024)."""
    return 256 if SMALL else 1024


@pytest.fixture(scope="session")
def micro_evaluator(micro_p):
    cluster = gpc_cluster(n_nodes=micro_p // 8)
    return AllgatherEvaluator(cluster, rng=0)


@pytest.fixture(scope="session")
def app_evaluator(app_p):
    cluster = gpc_cluster(n_nodes=app_p // 8)
    return AllgatherEvaluator(cluster, rng=0)


@pytest.fixture(scope="session")
def save_report():
    """Writer: save_report(name, text) -> path; also echoes to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _save(name: str, text: str):
        path = RESULTS_DIR / name
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save
