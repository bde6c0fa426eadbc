"""Shared fixtures: small clusters and cached distance matrices.

Hypothesis runs under the ``derandomized`` profile by default: each
property test draws the same examples on every run (seeded from the test
itself, with no example database), so the tier-1 gate is deterministic.
``pytest --hypothesis-profile=random-seed`` explores fresh examples.
"""

import pytest

from repro.simmpi.costmodel import CostModel
from repro.simmpi.engine import TimingEngine
from repro.topology.gpc import gpc_cluster, single_node_cluster, small_cluster

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it, and they import it
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.register_profile("random-seed", derandomize=False)
    settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def tiny_cluster():
    """4 nodes x (2 sockets x 2 cores) = 16 cores on 2 leaves."""
    return small_cluster()


@pytest.fixture(scope="session")
def tiny_D(tiny_cluster):
    return tiny_cluster.distance_matrix()


@pytest.fixture(scope="session")
def mid_cluster():
    """8 nodes x (2 sockets x 4 cores) = 64 cores — GPC-shaped, small."""
    return gpc_cluster(n_nodes=8)


@pytest.fixture(scope="session")
def mid_D(mid_cluster):
    return mid_cluster.distance_matrix()


@pytest.fixture(scope="session")
def one_node():
    return single_node_cluster()


@pytest.fixture(scope="session")
def tiny_engine(tiny_cluster):
    return TimingEngine(tiny_cluster, CostModel())


@pytest.fixture(scope="session")
def mid_engine(mid_cluster):
    return TimingEngine(mid_cluster, CostModel())
