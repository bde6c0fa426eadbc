"""CLI tests (python -m repro ...)."""

import json
import multiprocessing
import tempfile

import pytest

import repro.bench.fabric as fabric_mod
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["sweep", "--nodes", "4", "--hierarchical", "--intra", "linear"]
        )
        assert args.nodes == 4
        assert args.hierarchical
        assert args.intra == "linear"

    def test_sweep_checkpoint_options(self):
        args = build_parser().parse_args(
            ["sweep", "--out-dir", "j", "--max-retries", "5", "--cell-timeout", "2.5"]
        )
        assert args.out_dir == "j"
        assert args.max_retries == 5
        assert args.cell_timeout == 2.5
        assert args.resume is None

    def test_faults_requires_fail_nodes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults", "--nodes", "8"])


class TestCommands:
    def test_topo(self, capsys):
        assert main(["topo", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "ClusterTopology" in out
        assert "calibration probes" in out
        assert "distance ladder" in out

    def test_sweep_flat(self, capsys):
        rc = main(
            ["sweep", "--nodes", "4", "--layouts", "cyclic-bunch", "--mappers", "heuristic"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cyclic-bunch" in out
        assert "Hrstc+initComm" in out

    def test_sweep_hierarchical(self, capsys):
        rc = main(
            ["sweep", "--nodes", "4", "--hierarchical", "--intra", "linear",
             "--layouts", "block-bunch", "--mappers", "heuristic"]
        )
        assert rc == 0
        assert "Hierarchical (linear)" in capsys.readouterr().out

    def test_sweep_checkpointed_and_resume(self, tmp_path, capsys):
        flags = [
            "sweep", "--nodes", "2", "--layouts", "block-bunch",
            "--mappers", "heuristic", "--out-dir", str(tmp_path / "j"),
        ]
        assert main(flags) == 0
        out = capsys.readouterr().out
        assert "Hrstc+initComm" in out
        assert "computed 2 cells" in out
        assert (tmp_path / "j" / "sweep.json").is_file()
        assert main(["sweep", "--resume", str(tmp_path / "j")]) == 0
        assert "resumed 2, computed 0" in capsys.readouterr().out

    def test_faults(self, capsys):
        rc = main(["faults", "--nodes", "8", "--fail-nodes", "7",
                   "--sizes", "1024", "65536", "--patterns", "ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "p 64 -> 56" in out
        assert "shrink-remap" in out and "aborted" in out

    def test_app(self, capsys):
        rc = main(["app", "--nodes", "4", "--steps", "3", "--app", "matvec"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matvec" in out
        assert "block-bunch" in out

    def test_overheads(self, capsys):
        rc = main(["overheads", "--nodes", "4", "--pattern", "ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distance extraction" in out
        assert "scotch" in out

    def test_adaptive(self, capsys):
        rc = main(["adaptive", "--nodes", "4", "--layout", "cyclic-scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adaptive decisions" in out
        assert "reordered" in out or "default" in out

    def test_bcast(self, capsys):
        rc = main(["bcast", "--nodes", "4", "--layout", "cyclic-scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MPI_Bcast" in out
        assert "binomial-bcast" in out

    def test_profile(self, capsys):
        rc = main(["profile", "--nodes", "4", "--block-bytes", "4096"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bytes by channel class" in out

    def test_profile_reordered(self, capsys):
        rc = main(["profile", "--nodes", "4", "--reordered"])
        assert rc == 0
        assert "reordered" in capsys.readouterr().out

    def test_topo_renders_wiring(self, capsys):
        assert main(["topo", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "blocking factor" in out
        assert "socket0" in out


class TestVerifyCommand:
    def test_verify_all_registered_clean(self, capsys):
        rc = main(["verify", "-p", "4", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify: 0 diagnostic(s)" in out
        assert "ring" in out

    def test_verify_single_algorithm(self, capsys):
        rc = main(["verify", "--alg", "ring", "-p", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ring" in out
        assert "ok" in out

    def test_verify_skips_unsupported_sizes(self, capsys):
        rc = main(["verify", "--alg", "allreduce-rd", "-p", "7"])
        assert rc == 0
        assert "skip (unsupported p)" in capsys.readouterr().out

    def test_verify_mappings(self, capsys):
        rc = main(["verify", "--alg", "ring", "-p", "4", "--mappings", "--nodes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topology invariants" in out
        assert "heuristic mapping: clean" in out
        for leaders in ("recursive-doubling", "ring"):
            assert f"hierarchical mapping ({leaders} leaders): clean" in out

    def test_verify_mappings_skips_rdmh_off_powers_of_two(self, capsys):
        rc = main(["verify", "--alg", "ring", "-p", "4", "--mappings", "--nodes", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recursive-doubling heuristic mapping: skip" in out
        assert "hierarchical mapping (recursive-doubling leaders): skip" in out
        assert "hierarchical mapping (ring leaders): clean" in out


class TestLintCommand:
    def test_lint_src_clean(self, capsys):
        rc = main(["lint", "src"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_flags_violations(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        rc = main(["lint", str(dirty)])
        assert rc == 1
        assert "REP001" in capsys.readouterr().out


class TestFabricCLI:
    FLAGS = ["sweep", "--nodes", "2", "--layouts", "block-bunch", "--mappers", "heuristic"]

    def test_fabric_parser_options(self):
        args = build_parser().parse_args(
            ["sweep", "--fabric", "d", "--worker-id", "w1", "--lease-ttl", "5"]
        )
        assert args.fabric == "d"
        assert args.worker_id == "w1"
        assert args.lease_ttl == 5.0

    def test_merge_and_status_parser_options(self):
        args = build_parser().parse_args(["sweep", "--merge", "d"])
        assert args.merge == "d"
        args = build_parser().parse_args(["sweep", "--status", "d"])
        assert args.status == "d"

    def test_fabric_worker_then_merge_then_status(self, tmp_path, capsys):
        fdir = str(tmp_path / "f")
        assert main(self.FLAGS + ["--fabric", fdir, "--worker-id", "w1"]) == 0
        out = capsys.readouterr().out
        assert "w1" in out and "--merge" in out
        assert main(["sweep", "--merge", fdir]) == 0
        out = capsys.readouterr().out
        assert "Fabric-merged sweep" in out
        assert "Hrstc+initComm" in out
        assert main(["sweep", "--status", fdir]) == 0
        out = capsys.readouterr().out
        assert "2 done" in out and "0 pending" in out

    def test_status_on_solo_journal(self, tmp_path, capsys):
        jdir = str(tmp_path / "j")
        assert main(self.FLAGS + ["--out-dir", jdir]) == 0
        capsys.readouterr()
        assert main(["sweep", "--status", jdir]) == 0
        out = capsys.readouterr().out
        assert "solo journal" in out

    def test_merge_solo_journal(self, tmp_path, capsys):
        jdir = tmp_path / "j"
        assert main(self.FLAGS + ["--out-dir", str(jdir)]) == 0
        solo = (jdir / "sweep.json").read_bytes()
        (jdir / "sweep.json").unlink()
        capsys.readouterr()
        assert main(["sweep", "--merge", str(jdir)]) == 0
        assert "Fabric-merged sweep" in capsys.readouterr().out
        assert (jdir / "sweep.json").read_bytes() == solo

    def test_merge_incomplete_fails(self, tmp_path, capsys):
        assert main(["sweep", "--merge", str(tmp_path / "missing")]) == 1

    def test_status_missing_dir_fails(self, tmp_path):
        assert main(["sweep", "--status", str(tmp_path / "missing")]) == 1


class TestJournaledQuarantine:
    """A solo ``--out-dir`` run writes the fabric's per-cell quarantine."""

    FLAGS = TestFabricCLI.FLAGS
    VICTIM = "tuned::block-bunch::heuristic"

    def _quarantined_run(self, jdir, monkeypatch, capsys):
        real = fabric_mod.compute_cell

        def broken(spec, cell):
            if cell == self.VICTIM:
                raise RuntimeError("cursed cell")
            return real(spec, cell)

        monkeypatch.setattr(fabric_mod, "compute_cell", broken)
        assert main(self.FLAGS + ["--out-dir", str(jdir), "--max-retries", "0"]) == 0
        assert f"quarantined cell {self.VICTIM}" in capsys.readouterr().out
        monkeypatch.setattr(fabric_mod, "compute_cell", real)

    def test_status_counts_it_and_merge_succeeds(self, tmp_path, monkeypatch, capsys):
        jdir = tmp_path / "j"
        self._quarantined_run(jdir, monkeypatch, capsys)
        assert main(["sweep", "--status", str(jdir)]) == 0
        assert "1 done, 0 pending, 1 quarantined" in capsys.readouterr().out
        assert main(["sweep", "--merge", str(jdir)]) == 0
        assert f"quarantined {self.VICTIM}: RuntimeError: cursed cell" in capsys.readouterr().out

    def test_resume_that_recovers_leaves_no_quarantine(self, tmp_path, monkeypatch, capsys):
        jdir = tmp_path / "j"
        self._quarantined_run(jdir, monkeypatch, capsys)
        assert self.VICTIM in json.loads((jdir / "quarantine.json").read_text())
        assert main(["sweep", "--resume", str(jdir)]) == 0
        assert "resumed 1, computed 1" in capsys.readouterr().out
        assert not (jdir / "quarantine.json").exists()
        assert main(self.FLAGS + ["--out-dir", str(tmp_path / "clean")]) == 0
        assert (jdir / "sweep.json").read_bytes() == (tmp_path / "clean" / "sweep.json").read_bytes()


class TestSupervisedCLI:
    FLAGS = TestFabricCLI.FLAGS

    def test_workers_without_journal_print_serial_table(self, tmp_path, capsys, monkeypatch):
        assert main(self.FLAGS) == 0
        serial = capsys.readouterr().out
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(self.FLAGS + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert sorted(tmp_path.iterdir()) == []  # the temporary journal is gone
        assert multiprocessing.active_children() == []

    def test_cell_timeout_alone_runs_one_worker(self, tmp_path, capsys):
        jdir = tmp_path / "j"
        assert main(self.FLAGS + ["--cell-timeout", "60", "--out-dir", str(jdir)]) == 0
        assert "journal:" in capsys.readouterr().out
        assert [p.name for p in sorted((jdir / "workers").iterdir())] == ["w0.json"]

    def test_workers_resume_and_bad_count(self, tmp_path, capsys):
        jdir = tmp_path / "j"
        assert main(self.FLAGS + ["--out-dir", str(jdir)]) == 0
        solo = (jdir / "sweep.json").read_bytes()
        assert main(["sweep", "--resume", str(jdir), "--workers", "2"]) == 0
        assert (jdir / "sweep.json").read_bytes() == solo
        capsys.readouterr()
        assert main(self.FLAGS + ["--workers", "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().out
