"""Recovery-policy pricing: fail-stop vs shrink-keep vs shrink-remap."""

import numpy as np
import pytest

from repro.faults import hca_retrain, single_node_failure
from repro.faults.recover import (
    RECOVERY_POLICIES,
    compare_recovery_policies,
    recover,
)
from repro.mapping.initial import cyclic_scatter
from repro.mapping.reorder import HEURISTICS

SIZES = [1024, 16384, 262144]


class TestRecover:
    def test_remap_covers_survivors(self, mid_cluster, mid_D):
        L = cyclic_scatter(mid_cluster, 64)
        res = recover(mid_cluster, L, [7], "ring", D=mid_D)
        assert res.mapping.size == 56
        assert not np.any(mid_cluster.node_of(res.mapping) == 7)
        # remap permutes the surviving cores, nothing else
        assert set(res.mapping) == set(res.reordering.layout)

    def test_deterministic_default_seed(self, mid_cluster, mid_D):
        L = cyclic_scatter(mid_cluster, 64)
        a = recover(mid_cluster, L, [7], "ring", D=mid_D)
        b = recover(mid_cluster, L, [7], "ring", D=mid_D)
        assert np.array_equal(a.mapping, b.mapping)

    def test_nonpow2_recursive_doubling_falls_back(self, mid_cluster, mid_D):
        """RDMH is pow2-only; at 56 survivors the bruck mapper steps in."""
        L = cyclic_scatter(mid_cluster, 64)
        res = recover(mid_cluster, L, [7], "recursive-doubling", D=mid_D)
        assert res.mapping.size == 56
        assert res.mapper_name == "bruckmh"

    def test_pow2_survivor_count_keeps_rdmh(self, mid_cluster, mid_D):
        """Failing 4 of 8 nodes leaves 32 = 2^5 ranks: RDMH still applies."""
        L = cyclic_scatter(mid_cluster, 64)
        res = recover(mid_cluster, L, [0, 2, 4, 6], "recursive-doubling", D=mid_D)
        assert res.mapping.size == 32
        assert res.mapper_name == "rdmh"


class TestCompareRecoveryPolicies:
    def test_remap_never_slower_than_keep_any_heuristic(self, mid_cluster):
        """The acceptance pin: single node failure at p=64, shrink-remap
        <= shrink-keep elementwise, for every registered heuristic."""
        L = cyclic_scatter(mid_cluster, 64)
        comps = compare_recovery_policies(mid_cluster, L, [7], SIZES)
        assert {c.pattern for c in comps} == set(HEURISTICS)
        for comp in comps:
            keep = comp.policies["shrink-keep"].seconds
            remap = comp.policies["shrink-remap"].seconds
            assert np.all(remap <= keep), comp.pattern
            assert comp.p_before == 64 and comp.p_after == 56
        again = compare_recovery_policies(mid_cluster, L, [7], SIZES)
        for comp, rerun in zip(comps, again):
            for policy, priced in comp.policies.items():
                assert np.array_equal(priced.seconds, rerun.policies[policy].seconds)

    def test_fail_stop_is_aborted(self, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        (comp,) = compare_recovery_policies(
            mid_cluster, L, [7], SIZES, patterns=["ring"]
        )
        fs = comp.policies["fail-stop"]
        assert not fs.completed
        assert np.all(np.isinf(fs.seconds))
        assert set(comp.policies) == set(RECOVERY_POLICIES)

    def test_accepts_fault_plan_and_keeps_degradations(self, mid_cluster):
        """Degradations in the plan persist into the recovered engines."""
        L = cyclic_scatter(mid_cluster, 64)
        plan = single_node_failure(7).with_event(
            hca_retrain(0, 8.0).events[0]
        )
        (degraded,) = compare_recovery_policies(
            mid_cluster, L, plan, SIZES, patterns=["ring"]
        )
        (clean,) = compare_recovery_policies(
            mid_cluster, L, [7], SIZES, patterns=["ring"]
        )
        assert np.all(
            degraded.policies["shrink-keep"].seconds
            >= clean.policies["shrink-keep"].seconds
        )
        assert degraded.failed_nodes == (7,)

    def test_no_failures_rejected(self, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        with pytest.raises(ValueError, match="no node failures"):
            compare_recovery_policies(mid_cluster, L, hca_retrain(0, 2.0), SIZES)

    def test_summary_renders(self, mid_cluster):
        L = cyclic_scatter(mid_cluster, 64)
        (comp,) = compare_recovery_policies(
            mid_cluster, L, [7], SIZES, patterns=["ring"]
        )
        text = comp.summary()
        assert "shrink-remap" in text and "aborted" in text
        assert "64 -> 56" in text
