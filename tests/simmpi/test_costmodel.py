"""Cost-model tests."""

import pytest

from repro.simmpi.costmodel import CostModel, DEFAULT_BETA
from repro.topology.cluster import LinkClass


class TestDefaults:
    def test_all_classes_covered(self):
        cm = CostModel()
        for cls in LinkClass:
            assert cls in cm.alpha
            assert cls in cm.beta

    def test_channel_ordering(self):
        """Intra-socket per-pair bandwidth beats QPI; latency grows with
        hierarchy level.  (A single cross-socket pair may legitimately be
        slower than a single QDR pair — the 2009-hardware reality; the
        decisive inter-node penalty is the *shared* HCA, tested in the
        engine suite.)"""
        cm = CostModel()
        assert cm.beta[LinkClass.SMEM] < cm.beta[LinkClass.QPI]
        assert cm.beta[LinkClass.SMEM] < cm.beta[LinkClass.HCA]
        assert cm.alpha[LinkClass.SMEM] < cm.alpha[LinkClass.QPI] < cm.alpha[LinkClass.HCA]

    def test_dense_tables(self):
        cm = CostModel()
        a = cm.alpha_by_class()
        b = cm.beta_by_class()
        for cls in LinkClass:
            assert a[int(cls)] == cm.alpha[cls]
            assert b[int(cls)] == cm.beta[cls]


class TestOverrides:
    def test_partial_override_merges(self):
        cm = CostModel(beta={LinkClass.HCA: 1.0 / 1e9})
        assert cm.beta[LinkClass.HCA] == 1.0 / 1e9
        assert cm.beta[LinkClass.SMEM] == DEFAULT_BETA[LinkClass.SMEM]

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CostModel(beta={LinkClass.HCA: 0.0})
        with pytest.raises(ValueError):
            CostModel(alpha={LinkClass.HCA: -1.0})
        with pytest.raises(ValueError):
            CostModel(copy_beta=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "copy_alpha", "copy_beta", "stage_overhead"]
    )
    def test_non_finite_values_rejected(self, field, bad):
        """NaN slipped past the non-negative checks (``NaN < 0`` is False)."""
        value = {LinkClass.HCA: bad} if field in ("alpha", "beta") else bad
        with pytest.raises(ValueError, match="finite"):
            CostModel(**{field: value})


class TestCopyCost:
    def test_zero_bytes_free(self):
        assert CostModel().copy_cost(0) == 0.0

    def test_linear_in_bytes(self):
        cm = CostModel()
        c1 = cm.copy_cost(1024)
        c2 = cm.copy_cost(2048)
        assert c2 - c1 == pytest.approx(1024 * cm.copy_beta)

    def test_describe_mentions_all_classes(self):
        text = CostModel().describe()
        for cls in LinkClass:
            assert cls.name in text
        assert "memcpy" in text
