"""End-to-end daemon tests: real sockets, the warm path, the lane, errors.

Every test talks to an in-process :class:`~repro.serve.embedded.
EmbeddedServer` through the synchronous client — the same path external
callers use — so the asyncio server, the line framing, the pipeline
lane and the warm fast path are all exercised for real.  One slow drill
starts ``python -m repro serve`` as its own process.
"""

import io
import json
import os
import signal
import socket as socketlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mapping.initial import make_layout
from repro.mapping.reorder import reorder_ranks
from repro.serve import (
    MAX_LINE_BYTES,
    EmbeddedServer,
    ReorderService,
    ServeClient,
    ServeError,
    ServerConfig,
)
from repro.topology.gpc import small_cluster
from repro.util.lru import LRU

SPEC = {"kind": "small", "n_nodes": 4}


@pytest.fixture(scope="module")
def served():
    """Module-wide daemon with one registered topology."""
    with EmbeddedServer() as es:
        with es.client() as c:
            fingerprint = c.register_topology(SPEC)["fingerprint"]
        yield es, fingerprint


class TestOpsRoundTrip:
    def test_health(self, served):
        es, _ = served
        with es.client() as c:
            h = c.health()
        assert h["status"] == "ok"
        assert h["protocol"] == 1
        assert h["topologies"] >= 1

    def test_register_is_idempotent(self, served):
        es, fingerprint = served
        with es.client() as c:
            again = c.register_topology(SPEC)
        assert again["fingerprint"] == fingerprint
        assert again["evicted"] == []

    def test_reorder_named_layout(self, served):
        es, fingerprint = served
        with es.client() as c:
            res = c.reorder(fingerprint, "ring", "block-bunch", seed=7)
        assert sorted(res["mapping"]) == list(range(16))
        assert res["pattern"] == "ring"

    def test_reorder_explicit_layout(self, served):
        es, fingerprint = served
        layout = list(range(15, -1, -1))
        with es.client() as c:
            res = c.reorder(fingerprint, "recursive-doubling", layout, seed=1)
        assert sorted(res["mapping"]) == sorted(layout)

    def test_reorder_matches_solo_pipeline(self, served):
        es, fingerprint = served
        with es.client() as c:
            res = c.reorder(fingerprint, "bruck", "cyclic-bunch", seed=5)
        cluster = small_cluster(n_nodes=4)
        L = make_layout("cyclic-bunch", cluster, cluster.n_cores)
        solo = reorder_ranks(
            "bruck", L, cluster.implicit_distances(), kind="heuristic", rng=5
        )
        assert res["mapping"] == solo.mapping.tolist()

    def test_price_matches_solo_engine(self, served):
        es, fingerprint = served
        sizes = [1024, 65536]
        with es.client() as c:
            res = c.reorder(fingerprint, "ring", "block-scatter", seed=0)
            priced = c.price(fingerprint, "ring", sizes, mapping=res["mapping"])
        from repro.collectives.registry import make_algorithm
        from repro.simmpi.engine import TimingEngine

        cluster = small_cluster(n_nodes=4)
        engine = TimingEngine(cluster)
        schedule = make_algorithm("ring").schedule(16)
        batch = engine.evaluate_sizes(
            schedule, np.asarray(res["mapping"]), [float(s) for s in sizes]
        )
        assert priced["total_seconds"] == [float(t) for t in batch.total_seconds]

    def test_price_by_layout_name(self, served):
        es, fingerprint = served
        with es.client() as c:
            priced = c.price(fingerprint, "binomial-bcast", [4096], layout="block-bunch")
        assert priced["p"] == 16
        assert len(priced["total_seconds"]) == 1

    def test_stats_counters_present(self, served):
        es, _ = served
        with es.client() as c:
            st = c.stats()
        for key in (
            "requests",
            "errors",
            "warm_inline",
            "reorder_solo",
            "mapping_cache",
            "registry",
        ):
            assert key in st
        # perf/workloads.py reads these three keys; the daemon keeps them at 0.
        assert st["coalesced"] == st["batched"] == st["reorder_batches"] == 0
        # Every cache block has one shape; the registry adds its topologies.
        counters = {"entries", "capacity", "hits", "misses", "evictions"}
        assert set(st["mapping_cache"]) == counters
        # One process-wide schedule memo, reported once at the top level.
        assert set(st["schedules"]) == counters
        assert st["schedules"]["capacity"] == 64
        assert set(st["registry"]) == counters | {"topologies"}
        assert st["registry"]["topologies"]
        for topo in st["registry"]["topologies"]:
            assert set(topo["pricing"]) == counters
            assert "schedules" not in topo

    def test_two_topologies_share_one_schedule(self, monkeypatch):
        import repro.collectives.registry as algorithms

        # A fresh memo, so earlier builds in this process do not count.
        monkeypatch.setattr(algorithms, "_MEMO", LRU(algorithms.SCHEDULE_MEMO_SIZE))
        with EmbeddedServer() as es:
            with es.client() as c:
                prints = [
                    c.register_topology(spec)["fingerprint"]
                    for spec in ({"kind": "small", "n_nodes": 16}, {"kind": "gpc", "n_nodes": 8})
                ]
                seen = []
                for fingerprint in prints:
                    priced = c.price(fingerprint, "ring", [1024], layout="block-bunch")
                    assert priced["p"] == 64
                    memo = c.stats()["schedules"]
                    seen.append((memo["misses"], memo["hits"]))
        assert seen == [(1, 0), (1, 1)]


class TestWarmPath:
    def test_repeat_request_is_served_warm(self, served):
        es, fingerprint = served
        with es.client() as c:
            before = c.stats()["warm_inline"]
            first = c.reorder(fingerprint, "binomial-gather", "cyclic-scatter", seed=11)
            second = c.reorder(fingerprint, "binomial-gather", "cyclic-scatter", seed=11)
            after = c.stats()["warm_inline"]
        assert second["cached"] is True
        assert second["mapping"] == first["mapping"]
        assert after == before + 1

    def test_cold_reorder_counts_one_miss(self, served):
        es, fingerprint = served
        with es.client() as c:
            before = c.stats()["mapping_cache"]
            c.reorder(fingerprint, "ring", "cyclic-bunch", seed=23)
            cold = c.stats()["mapping_cache"]
            c.reorder(fingerprint, "ring", "cyclic-bunch", seed=23)
            warm = c.stats()["mapping_cache"]
        assert cold["misses"] - before["misses"] == 1
        assert cold["hits"] - before["hits"] == 0
        assert warm["misses"] - cold["misses"] == 0
        assert warm["hits"] - cold["hits"] == 1


class TestErrorPaths:
    def test_unknown_fingerprint(self, served):
        es, _ = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder("ffffffffffffffff", "ring", "block-bunch")
        assert exc_info.value.code == "unknown-fingerprint"

    def test_unknown_pattern(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(fingerprint, "gossip", "block-bunch")
        assert exc_info.value.code == "bad-request"

    def test_bad_layout_rejected(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(fingerprint, "ring", [0, 0, 1])
        assert exc_info.value.code == "bad-request"

    def test_non_integer_layout_entries_are_bad_request(self, served):
        # Strings must not surface as internal-error, and float core ids
        # must be rejected rather than silently truncated.
        es, fingerprint = served
        with es.client() as c:
            for layout in (["zero", "one"], [0.5, 1.0], [0, True]):
                answer = json.loads(
                    c.send_raw(
                        json.dumps(
                            {
                                "v": 1,
                                "id": 1,
                                "op": "reorder",
                                "fingerprint": fingerprint,
                                "pattern": "ring",
                                "layout": layout,
                            }
                        ).encode("utf-8")
                        + b"\n"
                    )[0]
                )
                assert answer["ok"] is False, layout
                assert answer["error"]["code"] == "bad-request", layout

    def test_non_integer_price_mapping_is_bad_request(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.request(
                    "price",
                    fingerprint=fingerprint,
                    algorithm="ring",
                    sizes=[1024],
                    mapping=["a", "b"],
                )
        assert exc_info.value.code == "bad-request"

    def test_non_finite_price_inputs_are_bad_request(self, served):
        # json parses NaN and Infinity; priced, they came back as a NaN
        # that a strict JSON encoder refuses to write.  An integer past
        # the float range failed in float() instead of being refused.
        es, fingerprint = served
        bad = (
            {"sizes": [float("nan")]},
            {"sizes": [1024, float("inf")]},
            {"sizes": [10**400]},  # valid JSON, but past the float range
            {"sizes": [1024], "extra_copy_bytes": float("nan")},
            {"sizes": [1024], "extra_copy_bytes": float("inf")},
        )
        with es.client() as c:
            for fields in bad:
                request = {
                    "v": 1,
                    "id": 1,
                    "op": "price",
                    "fingerprint": fingerprint,
                    "algorithm": "ring",
                    "layout": "block-bunch",
                    **fields,
                }
                line = json.dumps(request).encode("utf-8") + b"\n"
                answer = json.loads(c.send_raw(line)[0])
                assert answer["ok"] is False, fields
                assert answer["error"]["code"] == "bad-request", fields

    def test_engine_option_is_not_client_visible(self, served):
        es, fingerprint = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.reorder(
                    fingerprint, "ring", "block-bunch", options={"engine": "naive"}
                )
        assert exc_info.value.code == "bad-request"

    def test_bad_topology_spec(self, served):
        es, _ = served
        with es.client() as c:
            with pytest.raises(ServeError) as exc_info:
                c.register_topology({"kind": "moebius", "n_nodes": 4})
        assert exc_info.value.code == "bad-request"

    def test_malformed_json_keeps_connection_alive(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(c.send_raw(b"{definitely not json\n")[0])
            assert answer["ok"] is False
            assert answer["error"]["code"] == "bad-json"
            # the same connection still answers real requests
            assert c.health()["status"] == "ok"

    def test_wrong_version_echoes_request_id(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(
                c.send_raw(b'{"v": 99, "id": 17, "op": "stats"}\n')[0]
            )
        assert answer["ok"] is False
        assert answer["id"] == 17
        assert answer["error"]["code"] == "bad-version"

    def test_unknown_op_is_structured_error(self, served):
        es, _ = served
        with es.client() as c:
            answer = json.loads(c.send_raw(b'{"v": 1, "id": 3, "op": "rm -rf"}\n')[0])
        assert answer["error"]["code"] == "unknown-op"
        assert answer["id"] == 3


class TestOversized:
    def test_oversized_line_survives_connection(self):
        with EmbeddedServer() as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
                filler = b"a" * (MAX_LINE_BYTES + 1)
                huge = b'{"v": 1, "op": "reorder", "x": "' + filler + b'"}\n'
                answer = json.loads(c.send_raw(huge)[0])
                assert answer["ok"] is False
                assert answer["error"]["code"] == "oversized"
                # connection and daemon both survive
                res = c.reorder(fingerprint, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))


class TestLane:
    """Cold work runs on the one-thread lane, in arrival order."""

    def test_identical_concurrent_requests_compute_once(self):
        with EmbeddedServer() as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
            n = 6
            results = [None] * n
            barrier = threading.Barrier(n)

            def fire(i):
                with es.client() as cc:
                    barrier.wait()
                    results[i] = cc.reorder(
                        fingerprint, "recursive-doubling", "block-bunch", seed=99
                    )

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with es.client() as c:
                st = c.stats()
        # one execution; every later request hit the cache, on the lane
        # or inline, and got the same answer
        assert st["patterns_computed"] == 1
        assert st["patterns_cached"] + st["warm_inline"] == n - 1
        assert all(r["mapping"] == results[0]["mapping"] for r in results)

    def test_concurrent_distinct_patterns_match_solo(self):
        with EmbeddedServer() as es:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
            patterns = ["recursive-doubling", "ring", "binomial-bcast", "bruck"]
            results = {}
            barrier = threading.Barrier(len(patterns))

            def fire(pattern):
                with es.client() as cc:
                    barrier.wait()
                    results[pattern] = cc.reorder(
                        fingerprint, pattern, "cyclic-scatter", seed=2
                    )

            threads = [
                threading.Thread(target=fire, args=(p,)) for p in patterns
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with es.client() as c:
                st = c.stats()
        assert st["reorder_solo"] == len(patterns)

        # served answers are bit-identical to solo reorder_ranks
        cluster = small_cluster(n_nodes=4)
        L = make_layout("cyclic-scatter", cluster, cluster.n_cores)
        D = cluster.implicit_distances()
        for pattern in patterns:
            solo = reorder_ranks(pattern, L, D, kind="heuristic", rng=2)
            assert results[pattern]["mapping"] == solo.mapping.tolist(), pattern


class TestReorderBatch:
    def test_reorder_batch_matches_per_payload_reorder(self):
        payloads = [
            {"pattern": "ring", "layout": "block-scatter", "seed": 4},
            {"pattern": "bruck", "layout": "block-scatter", "seed": 4},
            {"pattern": "ring", "layout": "cyclic-bunch", "seed": 4, "kind": "greedy"},
        ]
        batched, solo = ReorderService(), ReorderService()
        fingerprint = batched.register_topology({"spec": SPEC})["fingerprint"]
        solo.register_topology({"spec": SPEC})
        payloads = [{"fingerprint": fingerprint, **p} for p in payloads]
        answers = batched.reorder_batch(payloads)
        assert [a["mapping"] for a in answers] == [
            solo.reorder(p)["mapping"] for p in payloads
        ]


class TestRegistryEviction:
    def test_lru_eviction_under_cap(self):
        config = ServerConfig(port=0, topology_cap=2)
        with EmbeddedServer(config) as es:
            with es.client() as c:
                fp1 = c.register_topology({"kind": "small", "n_nodes": 2})["fingerprint"]
                fp2 = c.register_topology({"kind": "small", "n_nodes": 4})["fingerprint"]
                third = c.register_topology({"kind": "single-node", "n_sockets": 2})
                assert third["evicted"] == [fp1]
                st = c.stats()
                assert st["registry"]["evictions"] == 1
                assert st["registry"]["entries"] == 2
                # evicted topology now answers unknown-fingerprint
                with pytest.raises(ServeError) as exc_info:
                    c.reorder(fp1, "ring", "block-bunch")
                assert exc_info.value.code == "unknown-fingerprint"
                # survivors still serve
                res = c.reorder(fp2, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))


class TestTopologyCapRefused:
    def test_config_refuses_cap_below_one(self):
        with pytest.raises(ValueError, match="topology cap"):
            ServerConfig(port=0, topology_cap=0)

    def test_cli_exits_2_and_starts_no_server(self, monkeypatch, capsys):
        import repro.serve.server as server_mod
        from repro.cli import main

        def no_server(config):
            raise AssertionError("a server was started")

        monkeypatch.setattr(server_mod, "ReproServer", no_server)
        assert main(["serve", "--port", "0", "--topology-cap", "0"]) == 2
        assert "error: topology cap must be >= 1" in capsys.readouterr().out


class TestUnixSocket:
    def test_serve_over_unix_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        config = ServerConfig(socket_path=socket_path)
        es = EmbeddedServer(config)
        es.start()
        try:
            with es.client() as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
                res = c.reorder(fingerprint, "ring", "block-bunch", seed=0)
                assert sorted(res["mapping"]) == list(range(16))
        finally:
            es.stop()
        # graceful drain unlinks the socket
        assert not (tmp_path / "repro.sock").exists()


class TestUnterminatedFinalLine:
    def test_half_closed_request_without_newline_answers_once(self, served):
        # A request missing its trailing newline, followed by a write-side
        # close, must be answered exactly once — not replayed forever off
        # the line reader's EOF buffer.
        es, _ = served
        sock = socketlib.create_connection(
            ("127.0.0.1", es.server.port), timeout=10
        )
        try:
            sock.sendall(b'{"v": 1, "id": 5, "op": "health"}')  # no \n
            sock.shutdown(socketlib.SHUT_WR)
            stream = sock.makefile("rb")
            answer = json.loads(stream.readline())
            assert answer["ok"] is True
            assert answer["id"] == 5
            # one answer, then the server closes: EOF, no response spam
            assert stream.read() == b""
        finally:
            sock.close()


class TestSocketTakeover:
    def test_second_daemon_refuses_live_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        first = EmbeddedServer(ServerConfig(socket_path=socket_path)).start()
        try:
            with pytest.raises(RuntimeError) as exc_info:
                EmbeddedServer(ServerConfig(socket_path=socket_path)).start()
            assert "already listening" in str(exc_info.value.__cause__)
            # the live daemon kept its socket and still answers
            with first.client() as c:
                assert c.health()["status"] == "ok"
        finally:
            first.stop()

    def test_stale_socket_is_cleared(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        # Leave a dead socket file behind (no listener).
        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(socket_path)
        stale.close()
        with EmbeddedServer(ServerConfig(socket_path=socket_path)) as es:
            with es.client() as c:
                assert c.health()["status"] == "ok"


class TestClientReadLine:
    """ServeClient must never hand back a partial response line."""

    @staticmethod
    def _bare_client(data: bytes):
        from repro.serve.client import ServeClient

        client = object.__new__(ServeClient)
        client._file = io.BytesIO(data)
        return client

    def test_long_response_accumulates_until_newline(self):
        line = b"x" * (3 * (1 << 20)) + b"\n"
        assert self._bare_client(line)._read_line() == line

    def test_truncated_response_raises_instead_of_desyncing(self):
        with pytest.raises(ConnectionError):
            self._bare_client(b"partial without newline")._read_line()

    def test_eof_returns_empty(self):
        assert self._bare_client(b"")._read_line() == b""


class TestGracefulStop:
    def test_stop_is_clean_and_repeatable(self):
        es = EmbeddedServer().start()
        with es.client() as c:
            assert c.health()["status"] == "ok"
        es.stop()
        es.stop()  # idempotent


# ----------------------------------------------------------------------
# a real daemon process: start `repro serve`, drive mixed traffic, then
# SIGTERM and require a clean drain
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestDaemonProcess:
    def test_mixed_traffic_then_sigterm_drains(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 30
            while not os.path.exists(sock):
                assert time.time() < deadline, "daemon did not come up"
                assert proc.poll() is None, "daemon died at startup"
                time.sleep(0.05)
            with ServeClient(socket_path=sock) as c:
                fingerprint = c.register_topology(SPEC)["fingerprint"]
                assert c.health()["status"] == "ok"

            n = 6
            results = [None] * n
            barrier = threading.Barrier(n)

            def fire(i):
                with ServeClient(socket_path=sock) as cc:
                    barrier.wait()
                    results[i] = cc.reorder(fingerprint, "ring", "block-bunch", seed=0)

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(r["mapping"] == results[0]["mapping"] for r in results)

            with ServeClient(socket_path=sock) as c:
                warm = c.reorder(fingerprint, "ring", "block-bunch", seed=0)
                assert warm["cached"] is True
                priced = c.price(fingerprint, "ring", [1024, 65536], mapping=warm["mapping"])
                assert len(priced["total_seconds"]) == 2
                with pytest.raises(ServeError) as exc_info:
                    c.reorder("ffffffffffffffff", "ring", "block-bunch")
                assert exc_info.value.code == "unknown-fingerprint"
                st = c.stats()
            assert st["patterns_computed"] == 1
            assert st["warm_inline"] >= 1
            assert st["errors"] == 1

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert not os.path.exists(sock), "socket not unlinked on drain"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
