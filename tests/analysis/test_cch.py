"""Cache-key soundness tests: one positive and one negative case per CCH rule.

The seeded-omission cases are the point of this family: a doctored
``reorder_ranks`` twin gains a result-influencing parameter that the key
payload does not cover, and the checker must catch it.
"""

import dataclasses
import hashlib
from typing import Optional

import numpy as np

from repro.analysis.cch import (
    DOCUMENTED_KWARG_EXCLUSIONS,
    check_cache_keys,
    check_pricing_fingerprint_coverage,
    check_reorder_key_coverage,
)


# ----------------------------------------------------------------------
# doctored twins for the seeded-omission tests
# ----------------------------------------------------------------------
def _doctored_reorder(pattern, layout, D, kind="heuristic", rng=0, cache="auto",
                      normalize=True, **mapper_kwargs):
    """Like reorder_ranks, but with a result-influencing param the
    sha256 payload knows nothing about."""


def _doctored_key_extra_exclusion(fingerprint, pattern, kind, layout, seed,
                                  mapper_kwargs):
    payload = {k: v for k, v in mapper_kwargs.items()
               if k != "engine" and k != "tie_break"}
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _doctored_key_no_exclusion(fingerprint, pattern, kind, layout, seed,
                               mapper_kwargs):
    return hashlib.sha256(repr(mapper_kwargs).encode()).hexdigest()


def _doctored_key_missing_param(fingerprint, pattern, kind, layout, seed):
    return hashlib.sha256(repr((fingerprint, pattern)).encode()).hexdigest()


class TestCch001ParameterCoverage:
    def test_real_reorder_ranks_is_covered(self):
        report = check_reorder_key_coverage()
        assert [str(d) for d in report.diagnostics] == []

    def test_seeded_omission_is_caught(self):
        report = check_reorder_key_coverage(func=_doctored_reorder)
        assert report.codes() == ["CCH001"]
        assert "normalize" in report.diagnostics[0].message

    def test_finding_is_anchored_to_the_def_line(self):
        report = check_reorder_key_coverage(func=_doctored_reorder)
        assert report.diagnostics[0].path.endswith("test_cch.py")
        assert report.diagnostics[0].line


class TestCch002ContractDrift:
    def test_undeclared_exclusion_is_caught(self):
        report = check_reorder_key_coverage(key_func=_doctored_key_extra_exclusion)
        assert "CCH002" in report.codes()
        assert "tie_break" in "".join(d.message for d in report.diagnostics)

    def test_dropped_exclusion_is_caught(self):
        report = check_reorder_key_coverage(
            key_func=_doctored_key_no_exclusion, documented_exclusions={"engine"}
        )
        assert "CCH002" in report.codes()
        assert "engine" in "".join(d.message for d in report.diagnostics)

    def test_missing_payload_param_is_caught(self):
        report = check_reorder_key_coverage(key_func=_doctored_key_missing_param)
        assert "CCH002" in report.codes()

    def test_documented_exclusions_are_the_contract(self):
        assert DOCUMENTED_KWARG_EXCLUSIONS == frozenset()


class TestCch005PricingFingerprint:
    def test_real_fingerprint_covers_the_ir(self):
        report = check_pricing_fingerprint_coverage()
        assert [str(d) for d in report.diagnostics] == []

    def test_seeded_field_omission_is_caught(self):
        def partial_fingerprint(schedule):
            h = hashlib.sha1(f"{schedule.p}|{schedule.name}".encode())
            h.update(str(schedule.local_copy_units).encode())
            for s in schedule.stages:
                h.update(s.src.tobytes() + s.dst.tobytes())
                h.update(str(s.repeat).encode())
                # note: s.units is never hashed
            return h.digest()

        report = check_pricing_fingerprint_coverage(
            fingerprint_func=partial_fingerprint
        )
        assert report.codes() == ["CCH005"]
        assert "units" in report.diagnostics[0].message

    def test_irrelevant_fields_are_declared_not_silent(self):
        def minimal_fingerprint(schedule):
            return b""

        report = check_pricing_fingerprint_coverage(
            fingerprint_func=minimal_fingerprint
        )
        # every non-irrelevant field of Schedule + Stage must be reported
        assert report.codes() == ["CCH005"]
        messages = "".join(d.message for d in report.diagnostics)
        for field in ("p", "stages", "units", "repeat"):
            assert field in messages
        for declared_irrelevant in ("blocks", "label"):
            assert f".{declared_irrelevant} " not in messages

    def test_non_frozen_stand_in_is_caught(self):
        # Same fields as Stage, all hashed by the real digest, but mutable:
        # a kept digest would go stale on the first assignment.
        @dataclasses.dataclass
        class MutableStage:
            src: np.ndarray
            dst: np.ndarray
            units: np.ndarray
            blocks: Optional[list] = None
            repeat: int = 1
            label: str = ""

        report = check_pricing_fingerprint_coverage(stage_cls=MutableStage)
        assert report.codes() == ["CCH005"]
        assert len(report.diagnostics) == 1
        assert "MutableStage is not a frozen dataclass" in report.diagnostics[0].message


class TestSuppression:
    def test_ignore_glob_suppresses_family(self):
        from repro.analysis.suppress import apply_suppressions

        report = check_reorder_key_coverage(func=_doctored_reorder)
        assert report.diagnostics  # sanity: there is something to suppress
        assert apply_suppressions(report, ("CCH",)).diagnostics == []

    def test_noqa_on_def_line_suppresses(self, tmp_path):
        mod = tmp_path / "doctored.py"
        mod.write_text(
            "def reorder(pattern, layout, D, kind='h',  # noqa: CCH001\n"
            "            rng=0, cache='auto', normalize=True, **kw):\n"
            "    pass\n"
        )
        import importlib.util

        spec = importlib.util.spec_from_file_location("doctored", mod)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        report = check_reorder_key_coverage(func=module.reorder)
        assert report.diagnostics == []


class TestFullCheck:
    def test_repo_cache_keys_are_sound(self):
        report = check_cache_keys()
        assert [str(d) for d in report.diagnostics] == []
