"""Every evaluator entry refuses a layout that is not 1-D integer core ids.

A cast with ``np.asarray(layout, dtype=np.int64)`` priced a float layout
as its truncation (``np.arange(32) + 0.7`` read as ``np.arange(32)``),
read a bool layout as cores 0 and 1 and failed deep inside routing or
schedule construction on the rest.  Each entry now checks the layout with
:func:`repro.util.validation.check_layout` before any cache lookup, seed
hash or rng draw.
"""

import numpy as np
import pytest

from repro.evaluation.adaptive import AdaptiveReorderer
from repro.evaluation.bcast import BcastEvaluator
from repro.evaluation.evaluator import AllgatherEvaluator
from repro.mapping.cache import global_mapping_cache
from repro.mapping.initial import make_layout
from repro.topology.gpc import gpc_cluster

BAD_LAYOUTS = {
    "float": np.arange(32) + 0.7,
    "bool": np.ones(32, dtype=bool),
    "2-d": np.arange(32).reshape(4, 8),
    "empty": np.array([], dtype=np.int64),
}

#: entry name -> call(allgather evaluator, bcast evaluator, layout)
ENTRIES = {
    "default_latencies": lambda ag, bc, L: ag.default_latencies(L, [1024.0]),
    "reordered_latencies": lambda ag, bc, L: ag.reordered_latencies(L, [1024.0]),
    "groups_from_layout": lambda ag, bc, L: ag.groups_from_layout(L),
    "bcast.default_latency": lambda ag, bc, L: bc.default_latency(L, 1024.0),
    "bcast.reordered_latency": lambda ag, bc, L: bc.reordered_latency(L, 1024.0),
    "AdaptiveReorderer": lambda ag, bc, L: AdaptiveReorderer(ag, L).decide(1024.0),
}


@pytest.fixture(scope="module")
def cluster():
    return gpc_cluster(n_nodes=4)


def _state(ag, bc):
    """Everything a refused call must leave as it was."""
    return (
        global_mapping_cache().stats(),
        len(ag._reorder_cache),
        ag.rng.bit_generator.state,
        bc.rng.bit_generator.state,
    )


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_integer_layouts_refused_before_any_lookup(cluster, entry):
    ag, bc = AllgatherEvaluator(cluster, rng=0), BcastEvaluator(cluster, rng=0)
    call = ENTRIES[entry]
    call(ag, bc, np.arange(32))  # a warm evaluator: caches hold entries
    before = _state(ag, bc)
    for name, layout in BAD_LAYOUTS.items():
        with pytest.raises(ValueError, match="layout"):
            call(ag, bc, layout)
        assert _state(ag, bc) == before, name


def _priced(result):
    """The simulated part of an entry's result (reorder seconds are host-timed)."""
    if isinstance(result, list) and result and hasattr(result[0], "seconds"):
        return [(r.seconds, r.algorithm, r.strategy) for r in result]
    if hasattr(result, "default_seconds"):
        return (result.use_reordered, result.default_seconds, result.reordered_seconds)
    if hasattr(result, "seconds"):
        return (result.seconds, result.algorithm)
    return result


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_integer_layouts_priced_alike(cluster, entry):
    cores = make_layout("cyclic-bunch", cluster, 32)
    forms = [cores.astype(np.int64), cores.astype(np.int32), cores.tolist()]
    ag, bc = AllgatherEvaluator(cluster, rng=0), BcastEvaluator(cluster, rng=0)
    priced = [_priced(ENTRIES[entry](ag, bc, L)) for L in forms]
    assert priced[1] == priced[0] and priced[2] == priced[0]
