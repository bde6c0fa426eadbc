"""Schedule IR shared by every collective algorithm.

A collective is compiled to a :class:`Schedule`: an ordered list of
:class:`Stage` objects, each holding the point-to-point messages that fly
concurrently in that stage (the paper's "collectives are a series of
point-to-point communications scheduled over a sequence of stages", §II).

Messages live in **rank space**: ``src``/``dst`` are communicator ranks.
The binding of ranks to physical cores (the mapping array ``M``) is applied
later, by the timing engine or the data executor — that separation is what
makes rank reordering a pure post-processing step, exactly as in the paper.

Message payloads are described as *blocks*: block ``j`` is the input
contribution of rank ``j``.  A message's size is ``units x block_bytes``
where ``units`` is usually the number of blocks it carries (recursive
doubling doubles it every stage).  The data executor uses the block lists
to move real data; the timing engine only needs ``units``.

Ring-like algorithms repeat an identically-shaped stage many times; they
set ``Stage.repeat`` so the engine prices the stage once and multiplies,
while :meth:`CollectiveAlgorithm.stages` still yields every stage with its
exact per-stage blocks for data execution.

Both classes are frozen dataclasses with read-only arrays, validated
once at construction, so :attr:`Schedule.digest` (the pricing cache's
key) is computed once per schedule and kept.
"""

from __future__ import annotations

import functools
import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import check_nonnegative

__all__ = ["Stage", "Schedule", "CollectiveAlgorithm", "make_stage"]


@dataclass(frozen=True)
class Stage:
    """One synchronous round of point-to-point messages.

    Attributes
    ----------
    src, dst:
        int64 arrays of communicator ranks (equal length, no self-messages).
    units:
        float64 array; message size in units of the base block size (>= 0).
    blocks:
        Optional per-message tuples of block ids (required by the data
        executor, ignored by the timing engine).  When present,
        ``len(blocks[i]) == units[i]`` for allgather-family schedules.
    repeat:
        The stage's cost is multiplied by this (identical-shape rounds).
    label:
        Human-readable phase tag (e.g. ``"rd:stage2"``) for reports.
    """

    src: np.ndarray
    dst: np.ndarray
    units: np.ndarray
    blocks: Optional[List[Tuple[int, ...]]] = None
    repeat: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        # A view is copied, because its base could still be written.
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("units", np.float64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, arr if arr.base is None else arr.copy())
        if not (self.src.shape == self.dst.shape == self.units.shape):
            raise ValueError("src, dst and units must have identical shapes")
        if self.src.ndim != 1:
            raise ValueError("stage arrays must be 1-D")
        if self.src.size == 0:
            raise ValueError("a stage needs at least one message")
        if np.any(self.src == self.dst):
            raise ValueError("self-message in stage")
        if not (self.units.min() >= 0 and self.units.max() < np.inf):  # NaN fails both
            raise ValueError("units must be finite and non-negative")
        if self.blocks is not None and len(self.blocks) != self.src.size:
            raise ValueError("blocks must have one entry per message")
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")
        for arr in (self.src, self.dst, self.units):
            arr.flags.writeable = False  # in place: the caller's array, not a copy

    @property
    def n_messages(self) -> int:
        """Messages in one instance of this stage."""
        return int(self.src.size)

    def total_units(self) -> float:
        """Payload units moved by this stage including repeats."""
        return float(self.units.sum()) * self.repeat


def make_stage(
    msgs: Sequence[Tuple[int, int, Tuple[int, ...]]],
    label: str = "",
    repeat: int = 1,
) -> Stage:
    """Build a stage from (src, dst, blocks) triples."""
    if not msgs:
        raise ValueError("a stage needs at least one message")
    src = np.array([m[0] for m in msgs], dtype=np.int64)
    dst = np.array([m[1] for m in msgs], dtype=np.int64)
    blocks = [tuple(m[2]) for m in msgs]
    units = np.array([len(b) for b in blocks], dtype=np.float64)
    return Stage(src=src, dst=dst, units=units, blocks=blocks, repeat=repeat, label=label)


@dataclass(frozen=True)
class Schedule:
    """A full collective: ordered stages plus local-copy accounting.

    ``local_copy_units`` is per-process local data movement inherent to the
    algorithm itself (e.g. Bruck's final rotation), in block units; the
    order-restoration copies of endShfl are accounted separately by
    :mod:`repro.collectives.correctness`.  ``stages`` is kept as a tuple.
    """

    p: int
    stages: Tuple[Stage, ...] = ()
    local_copy_units: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if self.p < 2:
            raise ValueError(f"a schedule needs p >= 2, got p={self.p}")
        if not self.stages:
            raise ValueError("a schedule needs at least one stage")
        check_nonnegative("local_copy_units", self.local_copy_units)
        for i, s in enumerate(self.stages):
            lo = int(min(s.src.min(), s.dst.min()))
            hi = int(max(s.src.max(), s.dst.max()))
            if lo < 0 or hi >= self.p:
                raise ValueError(
                    f"stage {i} references rank {lo if lo < 0 else hi} outside "
                    f"[0, {self.p})"
                )

    @functools.cached_property
    def digest(self) -> bytes:
        """SHA-1 of every field pricing reads (not ``blocks``, ``label``).

        Computed on first use and kept: the IR cannot change after
        construction.
        """
        h = hashlib.sha1(f"{self.p}|{self.name}|{self.local_copy_units}".encode())
        for s in self.stages:
            h.update(f"|{s.repeat}|{s.src.size}".encode())
            h.update(s.src)
            h.update(s.dst)
            h.update(s.units)
        return h.digest()

    def n_stages(self) -> int:
        """Number of stage rounds including repeats."""
        return sum(s.repeat for s in self.stages)

    def n_messages(self) -> int:
        """Total messages including repeats."""
        return sum(s.n_messages * s.repeat for s in self.stages)

    def total_units(self) -> float:
        """Total payload units moved."""
        return sum(s.total_units() for s in self.stages)

    def max_rank(self) -> int:
        """Largest rank referenced (sanity checks)."""
        return max(int(max(s.src.max(), s.dst.max())) for s in self.stages)


class CollectiveAlgorithm(ABC):
    """Base class for collective algorithms.

    Subclasses implement :meth:`stages` — the exact per-round message lists
    with block payloads.  :meth:`schedule` defaults to materialising those
    stages; algorithms whose rounds are shape-identical override it to emit
    compressed (``repeat > 1``) schedules for the timing engine.
    """

    #: short identifier used by the registry and reports
    name: str = "abstract"

    @abstractmethod
    def stages(self, p: int) -> Iterator[Stage]:
        """Yield every stage with exact blocks (data-execution view)."""

    def schedule(self, p: int) -> Schedule:
        """Timing view; default materialises :meth:`stages` uncompressed."""
        return Schedule(p=p, stages=list(self.stages(p)), name=self.name)

    def validate_p(self, p: int) -> None:
        """Reject communicator sizes the algorithm cannot handle."""
        if p < 2:
            raise ValueError(f"{self.name} needs at least 2 processes, got {p}")
