"""The broadcast evaluator takes its schedules from the process-wide memo."""

from repro.collectives.registry import schedule_memo_stats
from repro.collectives.schedule import Schedule
from repro.evaluation.bcast import BcastEvaluator, select_bcast
from repro.mapping.initial import make_layout
from repro.topology.gpc import gpc_cluster

#: binomial tree, scatter-allgather with an RD and with a ring phase at p = 64
MESSAGE_BYTES = (1024, 65536, 1 << 20)


def test_warm_improvement_pct_builds_no_schedule(monkeypatch):
    cluster = gpc_cluster(n_nodes=8)
    L = make_layout("cyclic-scatter", cluster, 64)
    assert {select_bcast(64, m).name for m in MESSAGE_BYTES} == {
        "binomial-bcast",
        "scatter-allgather-bcast[rd]",
        "scatter-allgather-bcast[ring]",
    }
    warm = [BcastEvaluator(cluster).improvement_pct(L, m) for m in MESSAGE_BYTES]

    def build(*args, **kwargs):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(Schedule, "__post_init__", build)
    before = schedule_memo_stats()
    ev = BcastEvaluator(cluster)
    assert [ev.improvement_pct(L, m) for m in MESSAGE_BYTES] == warm
    after = schedule_memo_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == 2 * len(MESSAGE_BYTES)
