"""Multi-tenant topology registry: warm per-cluster state, keyed by fingerprint.

The daemon's whole point is that everything downstream of
:class:`~repro.topology.cluster.ClusterTopology` construction is a pure
function of the cluster's fingerprint — so one resident
:class:`TopologyEntry` per fingerprint carries all the warm state a
request needs:

* the cluster itself and its :class:`~repro.topology.implicit.
  ImplicitDistances` backend (built eagerly at registration — the
  distance ladder is the cold-start cost the daemon amortises),
* a :class:`~repro.simmpi.engine.TimingEngine` whose bounded LRU keeps
  :class:`~repro.simmpi.engine.SchedulePricing` tables resident per
  (fingerprint, schedule, mapping) triple.

Built schedules depend on no topology: every entry takes them from the
process-wide memo of :func:`repro.collectives.registry.compiled_schedule`.
All entries share one mapping cache (cache keys already embed the
fingerprint, so tenants never collide) — many clusters, one reordering
service, as in the Cloud Collectives setting.

The registry is bounded: at most ``cap`` topologies stay resident in an
:class:`~repro.util.lru.LRU`.  Eviction drops the warm state only — a
re-register rebuilds it — and is counted for the ``stats`` op.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.collectives.registry import compiled_schedule, make_algorithm
from repro.collectives.schedule import Schedule
from repro.mapping.cache import MAPPING_CACHE_SIZE
from repro.serve.protocol import (
    ERROR_BAD_REQUEST,
    ERROR_UNKNOWN_FINGERPRINT,
    ProtocolError,
)
from repro.simmpi.engine import TimingEngine
from repro.topology.cluster import ClusterTopology
from repro.topology.gpc import gpc_cluster, single_node_cluster, small_cluster
from repro.util.lru import LRU

__all__ = [
    "DEFAULT_TOPOLOGY_CAP",
    "TOPOLOGY_KINDS",
    "TopologyEntry",
    "TopologyRegistry",
    "build_cluster",
    "check_layout_array",
]

#: Resident-topology bound when the server is not configured otherwise.
DEFAULT_TOPOLOGY_CAP = 8

#: Spec kinds ``register_topology`` accepts, with their builder params.
TOPOLOGY_KINDS = {
    "gpc": ("n_nodes",),
    "small": ("n_nodes", "n_sockets", "cores_per_socket", "nodes_per_leaf"),
    "single-node": ("n_sockets", "cores_per_socket"),
}


def build_cluster(spec: Mapping[str, Any]) -> ClusterTopology:
    """Construct a cluster from a ``register_topology`` spec dict.

    ``spec["kind"]`` selects the builder (:data:`TOPOLOGY_KINDS`); the
    remaining keys are its integer parameters.  Anything unknown or
    non-integer is a ``bad-request`` protocol error.
    """
    if not isinstance(spec, Mapping):
        raise ProtocolError(ERROR_BAD_REQUEST, "spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in TOPOLOGY_KINDS:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"spec.kind must be one of {sorted(TOPOLOGY_KINDS)}, got {kind!r}",
        )
    allowed = TOPOLOGY_KINDS[kind]
    params: Dict[str, int] = {}
    for key, value in spec.items():
        if key == "kind":
            continue
        if key not in allowed:
            raise ProtocolError(
                ERROR_BAD_REQUEST,
                f"spec key {key!r} is not a parameter of kind {kind!r} "
                f"(allowed: {', '.join(allowed)})",
            )
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"spec.{key} must be a positive integer, got {value!r}"
            )
        params[key] = value
    builder = {
        "gpc": gpc_cluster,
        "small": small_cluster,
        "single-node": single_node_cluster,
    }[kind]
    try:
        return builder(**params)
    except ValueError as exc:
        raise ProtocolError(ERROR_BAD_REQUEST, f"invalid topology spec: {exc}")


class TopologyEntry:
    """Warm state of one registered cluster."""

    def __init__(self, cluster: ClusterTopology, spec: Dict[str, Any]) -> None:
        self.cluster = cluster
        self.spec = dict(spec)
        self.fingerprint = cluster.fingerprint()
        # Eager: the implicit-distance ladder is the startup cost every
        # later reorder request would otherwise pay.
        self.distances = cluster.implicit_distances()
        self.engine = TimingEngine(cluster)

    def schedule_for(self, algorithm: str, p: int) -> Schedule:
        """The memo's schedule of registered ``algorithm`` at communicator size ``p``.

        An unknown name and a ``p`` the algorithm refuses are bad requests.
        """
        try:
            make_algorithm(algorithm).validate_p(p)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(ERROR_BAD_REQUEST, exc.args[0])
        return compiled_schedule(algorithm, p)

    def describe(self) -> Dict[str, Any]:
        """Stats-op view of this entry."""
        return {
            "fingerprint": self.fingerprint,
            "spec": dict(self.spec),
            "n_nodes": self.cluster.n_nodes,
            "n_cores": self.cluster.n_cores,
            "pricing": self.engine.pricing_cache.stats(),
        }


class TopologyRegistry:
    """Bounded LRU of :class:`TopologyEntry`, plus the shared mapping cache."""

    def __init__(self, cap: int = DEFAULT_TOPOLOGY_CAP) -> None:
        self.mapping_cache = LRU(MAPPING_CACHE_SIZE)
        self._entries: "LRU[TopologyEntry]" = LRU(cap)

    def register(self, spec: Mapping[str, Any]) -> "tuple[TopologyEntry, List[str]]":
        """Register (or refresh) a topology; returns (entry, evicted fingerprints).

        Idempotent: re-registering an already-resident fingerprint only
        refreshes its LRU position — the warm state is kept, not rebuilt.
        """
        cluster = build_cluster(spec)
        fingerprint = cluster.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is not None:
            return entry, []
        entry = TopologyEntry(cluster, dict(spec))
        return entry, self._entries.put(fingerprint, entry)

    def get(self, fingerprint: Any) -> TopologyEntry:
        """Resident entry for ``fingerprint`` (touches its LRU position)."""
        if not isinstance(fingerprint, str):
            raise ProtocolError(
                ERROR_BAD_REQUEST, "fingerprint must be a string (register_topology returns it)"
            )
        entry = self._entries.get(fingerprint)
        if entry is None:
            raise ProtocolError(
                ERROR_UNKNOWN_FINGERPRINT,
                f"no resident topology with fingerprint {fingerprint!r} "
                "(evicted or never registered; re-issue register_topology)",
            )
        return entry

    def peek(self, fingerprint: Any) -> Optional[TopologyEntry]:
        """Entry for ``fingerprint`` without counting or LRU movement (or None).

        The server's warm-test runs on the event loop thread while the
        pipeline lane may be storing entries.
        """
        if not isinstance(fingerprint, str):
            return None
        return self._entries.peek(fingerprint)

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> Dict[str, Any]:
        """Stats-op view of the registry."""
        return {
            **self._entries.stats(),
            "topologies": [e.describe() for e in self._entries.values()],
        }


def check_layout_array(layout: Any, n_cores: int) -> np.ndarray:
    """Validate an explicit JSON layout list against the cluster size."""
    if not isinstance(layout, (list, tuple)) or not layout:
        raise ProtocolError(ERROR_BAD_REQUEST, "layout must be a non-empty list of core ids")
    for c in layout:
        # Element-wise check before np.asarray: strings would raise a raw
        # ValueError (surfacing as internal-error) and floats would be
        # silently truncated — both must be clean bad-request rejections.
        if isinstance(c, bool) or not isinstance(c, int):
            raise ProtocolError(
                ERROR_BAD_REQUEST, f"layout entries must be integers, got {c!r}"
            )
    arr = np.asarray(layout, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ProtocolError(ERROR_BAD_REQUEST, "layout must be a non-empty list of core ids")
    if np.unique(arr).size != arr.size:
        raise ProtocolError(ERROR_BAD_REQUEST, "layout must not repeat core ids")
    if arr.min() < 0 or arr.max() >= n_cores:
        raise ProtocolError(
            ERROR_BAD_REQUEST,
            f"layout references cores outside the cluster (0..{n_cores - 1})",
        )
    return arr
