"""Cache-key soundness tests: one positive and one negative case per CCH rule.

The seeded-omission cases are the point of this family: a doctored
``reorder_ranks`` twin gains a result-influencing parameter that the key
payload does not cover, and the checker must catch it.
"""

import hashlib
import json

from repro.analysis.cch import (
    DOCUMENTED_KWARG_EXCLUSIONS,
    check_cache_dir,
    check_cache_keys,
    check_pricing_fingerprint_coverage,
    check_reorder_key_coverage,
    probe_engine_identity,
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
    if seed != "engine":  # keep the exclusion contract satisfied
        pass
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
        report = check_reorder_key_coverage(key_func=_doctored_key_no_exclusion)
        assert "CCH002" in report.codes()
        assert "engine" in "".join(d.message for d in report.diagnostics)

    def test_missing_payload_param_is_caught(self):
        report = check_reorder_key_coverage(key_func=_doctored_key_missing_param)
        assert "CCH002" in report.codes()

    def test_documented_exclusions_are_the_contract(self):
        assert DOCUMENTED_KWARG_EXCLUSIONS == frozenset({"engine"})


class TestCch003EngineIdentity:
    def test_real_engines_are_bit_identical(self):
        report = probe_engine_identity(n_nodes=2)
        assert [str(d) for d in report.diagnostics] == []

    def test_probe_flags_vectorized_drift(self, monkeypatch):
        """The probe must flag a vectorised engine that drifts from naive."""
        import repro.mapping.reorder as reorder_mod

        real = reorder_mod.reorder_ranks

        def doctored(pattern, layout, D, **kwargs):
            res = real(pattern, layout, D, **kwargs)
            if kwargs.get("engine") == "vectorized":
                m = res.mapping.copy()
                m[0], m[1] = m[1], m[0]
                res.reordering.mapping[:] = m
            return res

        monkeypatch.setattr(reorder_mod, "reorder_ranks", doctored)
        report = probe_engine_identity(n_nodes=2)
        assert report.codes() == ["CCH003"]
        assert any("vectorised" in str(d) for d in report.diagnostics)


class TestCch004DiskTier:
    KEY = "0" * 64

    def _entry(self):
        return {"mapping": [1, 0, 2], "layout": [0, 1, 2], "pattern": "ring"}

    def test_valid_tier_is_clean(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text(json.dumps(self._entry()))
        assert check_cache_dir(tmp_path).diagnostics == []

    def test_foreign_filename_flagged(self, tmp_path):
        (tmp_path / "notes.json").write_text(json.dumps(self._entry()))
        assert check_cache_dir(tmp_path).codes() == ["CCH004"]

    def test_torn_entry_flagged(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text('{"mapping": [1,')
        assert check_cache_dir(tmp_path).codes() == ["CCH004"]

    def test_non_permutation_entry_flagged(self, tmp_path):
        (tmp_path / f"{self.KEY}.json").write_text(
            json.dumps({"mapping": [0, 0], "layout": [0, 1]})
        )
        assert check_cache_dir(tmp_path).codes() == ["CCH004"]

    def test_missing_directory_is_clean(self, tmp_path):
        assert check_cache_dir(tmp_path / "absent").diagnostics == []


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
        report = check_cache_keys(probe_engines=True, n_nodes=2)
        assert [str(d) for d in report.diagnostics] == []
