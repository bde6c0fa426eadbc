"""Persistence tests (save/load of distances and reorderings)."""

import numpy as np
import pytest

from repro.mapping.initial import cyclic_bunch
from repro.mapping.reorder import reorder_ranks
from repro.topology.gpc import gpc_cluster, small_cluster
from repro.topology.persist import (
    DENSE_FORMAT_THRESHOLD,
    CorruptPersistFileError,
    FingerprintMismatchError,
    PersistError,
    load_distances,
    load_reordering,
    save_distances,
    save_reordering,
    topology_fingerprint,
)


class TestFingerprint:
    def test_stable(self):
        a = topology_fingerprint(small_cluster())
        b = topology_fingerprint(small_cluster())
        assert a == b

    def test_differs_by_shape(self):
        assert topology_fingerprint(small_cluster()) != topology_fingerprint(gpc_cluster(8))

    def test_differs_by_weights(self):
        from repro.topology.cluster import ClusterTopology, LinkClass
        from repro.topology.hardware import MachineTopology

        a = ClusterTopology(2, MachineTopology(2, 2))
        b = ClusterTopology(2, MachineTopology(2, 2), distance_weights={LinkClass.HCA: 9.0})
        assert topology_fingerprint(a) != topology_fingerprint(b)


class TestDistances:
    def test_roundtrip(self, tmp_path):
        cl = small_cluster()
        path = save_distances(cl, tmp_path / "dist.npz")
        D = load_distances(cl, path)
        assert np.array_equal(D, cl.distance_matrix())

    def test_wrong_cluster_rejected(self, tmp_path):
        cl = small_cluster()
        path = save_distances(cl, tmp_path / "dist.npz")
        with pytest.raises(ValueError, match="different topology"):
            load_distances(gpc_cluster(8), path)

    def test_extension_appended(self, tmp_path):
        path = save_distances(small_cluster(), tmp_path / "bare")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_no_temp_file_left_behind(self, tmp_path):
        save_distances(small_cluster(), tmp_path / "dist.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dist.npz"]

    def test_wrong_cluster_is_typed(self, tmp_path):
        path = save_distances(small_cluster(), tmp_path / "dist.npz")
        with pytest.raises(FingerprintMismatchError, match="different topology"):
            load_distances(gpc_cluster(8), path)
        # still a ValueError for older call sites
        with pytest.raises(ValueError):
            load_distances(gpc_cluster(8), path)

    def test_truncated_file_rejected(self, tmp_path):
        cl = small_cluster()
        path = save_distances(cl, tmp_path / "dist.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptPersistFileError, match="corrupt or truncated"):
            load_distances(cl, path)

    def test_garbage_file_rejected(self, tmp_path):
        bad = tmp_path / "dist.npz"
        bad.write_bytes(b"this is not an npz archive")
        with pytest.raises(CorruptPersistFileError, match="re-run the extraction"):
            load_distances(small_cluster(), bad)

    def test_missing_file_is_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such distance file"):
            load_distances(small_cluster(), tmp_path / "nope.npz")


class TestCoordsFormat:
    """The O(cores) coordinate format must rebuild the dense oracle exactly."""

    @pytest.mark.parametrize("make", [small_cluster, lambda: gpc_cluster(8)])
    def test_roundtrip_matches_dense_oracle(self, tmp_path, make):
        cl = make()
        path = save_distances(cl, tmp_path / "dist.npz", format="coords")
        D = load_distances(cl, path)
        assert D.dtype == np.float32
        assert np.array_equal(D, cl.distance_matrix())

    def test_auto_picks_by_size(self, tmp_path):
        small = small_cluster()
        assert small.n_cores <= DENSE_FORMAT_THRESHOLD
        path = save_distances(small, tmp_path / "small.npz", format="auto")
        with np.load(path) as data:
            assert "D" in data
        big = gpc_cluster(n_nodes=DENSE_FORMAT_THRESHOLD // 8 + 1)
        path = save_distances(big, tmp_path / "big.npz", format="auto")
        with np.load(path) as data:
            assert "D" not in data and "gsock" in data
        # the compact file still rebuilds the exact matrix
        assert np.array_equal(load_distances(big, path), big.distance_matrix())

    def test_coords_file_is_small(self, tmp_path):
        cl = gpc_cluster(130)  # 1040 cores: dense would be ~MBs raw
        dense = save_distances(cl, tmp_path / "dense.npz", format="dense")
        coords = save_distances(cl, tmp_path / "coords.npz", format="coords")
        assert coords.stat().st_size < dense.stat().st_size

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_distances(small_cluster(), tmp_path / "x.npz", format="csv")

    def test_wrong_cluster_rejected(self, tmp_path):
        path = save_distances(small_cluster(), tmp_path / "d.npz", format="coords")
        with pytest.raises(FingerprintMismatchError):
            load_distances(gpc_cluster(8), path)

    def test_missing_coords_array_rejected(self, tmp_path):
        cl = small_cluster()
        impl = cl.implicit_distances()
        coords = impl.coords(np.arange(cl.n_cores))
        path = tmp_path / "torn.npz"
        np.savez(
            path,
            gsock=coords.gsock,
            node=coords.node,
            leaf=coords.leaf,  # "line" and "ladder" missing
            fingerprint=np.bytes_(topology_fingerprint(cl).encode()),
        )
        with pytest.raises(CorruptPersistFileError):
            load_distances(cl, path)

    def test_inconsistent_coords_rejected(self, tmp_path):
        cl = small_cluster()
        impl = cl.implicit_distances()
        coords = impl.coords(np.arange(cl.n_cores))
        path = tmp_path / "short.npz"
        np.savez(
            path,
            gsock=coords.gsock,
            node=coords.node[:-1],  # one core short
            leaf=coords.leaf,
            line=coords.line,
            ladder=impl.ladder(),
            fingerprint=np.bytes_(topology_fingerprint(cl).encode()),
        )
        with pytest.raises(CorruptPersistFileError):
            load_distances(cl, path)


class TestReordering:
    def test_roundtrip(self, tmp_path, mid_cluster, mid_D):
        L = cyclic_bunch(mid_cluster, 32)
        res = reorder_ranks("ring", L, mid_D, rng=0)
        path = save_reordering(res, tmp_path / "ring.json")
        loaded = load_reordering(path)
        assert loaded.pattern == "ring"
        assert loaded.mapper_name == "rmh"
        assert np.array_equal(loaded.mapping, res.mapping)
        assert np.array_equal(loaded.reordering.old_of_new, res.reordering.old_of_new)

    def test_corrupt_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pattern": "ring"}')
        with pytest.raises(ValueError, match="missing"):
            load_reordering(bad)

    def test_invalid_permutation_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"pattern": "ring", "mapper": "rmh", "layout": [0, 1], "mapping": [0, 2]}'
        )
        with pytest.raises(CorruptPersistFileError, match="inconsistent"):
            load_reordering(bad)

    def test_repeated_core_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"pattern": "ring", "mapper": "rmh", "layout": [4, 4, 5, 6], "mapping": [4, 5, 4, 6]}'
        )
        with pytest.raises(CorruptPersistFileError, match="inconsistent"):
            load_reordering(bad)

    def test_truncated_json_rejected(self, tmp_path, mid_cluster, mid_D):
        L = cyclic_bunch(mid_cluster, 32)
        res = reorder_ranks("ring", L, mid_D, rng=0)
        path = save_reordering(res, tmp_path / "ring.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CorruptPersistFileError, match="not valid JSON"):
            load_reordering(path)

    def test_missing_key_is_typed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"pattern": "ring"}')
        with pytest.raises(CorruptPersistFileError, match="missing"):
            load_reordering(bad)
        assert issubclass(CorruptPersistFileError, PersistError)
        assert issubclass(PersistError, ValueError)

    def test_non_object_payload_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(CorruptPersistFileError, match="JSON object"):
            load_reordering(bad)

    def test_missing_file_is_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such reordering file"):
            load_reordering(tmp_path / "nope.json")

    def test_save_is_atomic(self, tmp_path, mid_cluster, mid_D):
        L = cyclic_bunch(mid_cluster, 32)
        res = reorder_ranks("ring", L, mid_D, rng=0)
        save_reordering(res, tmp_path / "ring.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ring.json"]
