"""Output-order preservation under rank reordering (paper §V-B).

Reordering breaks the rank-to-block correspondence: the process acting as
rank ``j`` contributes the block of its *original* rank, so the allgather
output vector comes out permuted.  The paper's two restoration mechanisms:

* **initComm** — before the collective, every process sends its input
  block to the process that will act as the original rank, one extra
  concurrent message round; the output then lands in order by itself.
* **endShfl** — run the collective unmodified and locally shuffle the
  output vector afterwards; pure memory cost, no extra messages.

The ring algorithm needs neither: every stage delivers exactly one block
whose correct output offset the receiver derives from the mapping array
and stores directly (**inline** placement, zero cost).  Broadcast has no
output vector to restore.

This module provides the :class:`RankReordering` bookkeeping object, the
cost/stage builders the evaluator prices, and a reference executor used by
the test suite to prove all three mechanisms produce correctly ordered
output on real data.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.collectives.schedule import CollectiveAlgorithm, Stage
from repro.simmpi.costmodel import CostModel
from repro.simmpi.data import DataExecutor
from repro.util.validation import same_value_set

__all__ = [
    "OrderStrategy",
    "RankReordering",
    "init_comm_stage",
    "end_shuffle_seconds",
    "execute_reordered_allgather",
]


class OrderStrategy(enum.Enum):
    """How the output-vector order is restored after reordering."""

    INIT_COMM = "initcomm"
    END_SHUFFLE = "endshfl"
    INLINE = "inline"
    NONE = "none"

    @classmethod
    def parse(cls, value) -> "OrderStrategy":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == str(value).lower():
                return member
        raise ValueError(f"unknown order strategy {value!r}")


@dataclass(frozen=True)
class RankReordering:
    """Binding between an initial layout and a reordered mapping.

    ``layout[o]`` is the core hosting original rank ``o``;
    ``mapping[r]`` is the core that plays *new* rank ``r``.  Both must be
    drawn from the same set of distinct cores (processes do not migrate —
    only their rank labels change, paper §IV).

    A frozen value: both arrays are read-only int64, checked once at
    construction; the inverse permutation is built on first use and kept.
    """

    layout: np.ndarray
    mapping: np.ndarray

    def __post_init__(self) -> None:
        # A view is copied, because its base could still be written.
        for name in ("layout", "mapping"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, arr if arr.base is None else arr.copy())
        if self.layout.shape != self.mapping.shape:
            raise ValueError("layout and mapping must have the same length")
        if not same_value_set(self.layout, self.mapping):
            raise ValueError("mapping must reuse exactly the layout's cores, each once")
        for arr in (self.layout, self.mapping):
            arr.flags.writeable = False  # in place: the caller's array, not a copy

    @property
    def p(self) -> int:
        return int(self.layout.size)

    @functools.cached_property
    def old_of_new(self) -> np.ndarray:
        """``old_of_new[r]``: original rank of the process acting as new rank ``r``."""
        order = np.argsort(self.layout)  # core -> old rank lookup
        old = order[np.searchsorted(self.layout[order], self.mapping)]
        old.flags.writeable = False
        return old

    @functools.cached_property
    def new_of_old(self) -> np.ndarray:
        """``new_of_old[o]``: new rank of the process that was rank ``o``."""
        new = np.empty_like(self.old_of_new)
        new[self.old_of_new] = np.arange(self.p, dtype=np.int64)
        new.flags.writeable = False
        return new

    @classmethod
    def identity(cls, layout) -> "RankReordering":
        """No reordering: mapping == layout."""
        return cls(layout=layout, mapping=layout)

    def is_identity(self) -> bool:
        """True iff no rank actually changed."""
        return bool(np.array_equal(self.mapping, self.layout))

    def n_displaced(self) -> int:
        """Number of ranks whose label changed (those not on ``layout[r]``)."""
        return int(np.count_nonzero(self.mapping != self.layout))


def init_comm_stage(reordering: RankReordering) -> Optional[Stage]:
    """The extra pre-collective exchange round, in new-rank space.

    For every displaced block ``b``, the process holding it (new rank
    ``new_of_old[b]``) sends it to the process acting as rank ``b``: the
    message to rank ``b`` carries block ``b``, one unit.  All transfers
    are concurrent — one extra stage.  Returns ``None`` for the identity
    reordering.
    """
    ranks = np.arange(reordering.p)
    displaced = ranks[reordering.old_of_new != ranks]
    if displaced.size == 0:
        return None
    return Stage(
        src=reordering.new_of_old[displaced],
        dst=displaced,
        units=np.ones(displaced.size),
        label="initcomm",
    )


def end_shuffle_seconds(
    reordering: RankReordering, block_bytes: Union[float, np.ndarray], cost: CostModel
) -> Union[float, np.ndarray]:
    """Cost of the end-of-collective output shuffle at each process.

    Every displaced block is one small memory move: per-move overhead plus
    the bytes themselves.  This per-block overhead is what makes endShfl
    "quite costly" at small/medium sizes in the paper's Fig. 3(c,d).
    ``block_bytes`` may be one size or an array of them: the displaced
    ranks are counted once and each size is priced elementwise, in the
    scalar expression's operation order.
    """
    moved = reordering.n_displaced()
    return moved * cost.copy_alpha + moved * block_bytes * cost.copy_beta


# ----------------------------------------------------------------------
# reference execution (test harness)
# ----------------------------------------------------------------------
def execute_reordered_allgather(
    algorithm: CollectiveAlgorithm,
    reordering: RankReordering,
    strategy: OrderStrategy,
    payload: Callable[[int], int] = lambda o: o * 1000003 + 7,
) -> np.ndarray:
    """Run a reordered allgather on real data; return per-process outputs.

    The returned array is indexed ``[original_rank, output_position]`` and
    a correct run satisfies ``out[o, j] == payload(j)`` for every process
    ``o`` and position ``j`` — the paper's "correct order of the output
    buffer".  Raises if the algorithm or the strategy breaks that.
    """
    strategy = OrderStrategy.parse(strategy)
    p = reordering.p
    old_of_new = reordering.old_of_new

    if strategy is OrderStrategy.NONE and not reordering.is_identity():
        raise ValueError("NONE strategy is only valid for the identity reordering")
    if strategy is OrderStrategy.INLINE and not getattr(
        algorithm, "supports_inline_placement", False
    ):
        raise ValueError(
            f"{algorithm.name} does not support inline placement; "
            "use INIT_COMM or END_SHUFFLE"
        )

    exe = DataExecutor(p)
    if strategy is OrderStrategy.INIT_COMM:
        # Simulate the pre-exchange explicitly: process acting as new rank
        # r starts holding payload(old_of_new[r]); after the exchange it
        # must hold payload(r).
        held = np.array([payload(int(old_of_new[r])) for r in range(p)], dtype=np.int64)
        received = held.copy()
        for b in range(p):
            sender = int(reordering.new_of_old[b])
            if sender != b:
                received[b] = held[sender]
        for r in range(p):
            if received[r] != payload(r):  # pragma: no cover - invariant
                raise RuntimeError("initComm exchange failed to deliver block")
            exe.fill(r, r, int(received[r]))
    else:
        # Collective runs on the raw (permuted) inputs.
        for r in range(p):
            exe.fill(r, r, payload(int(old_of_new[r])))

    exe.run(algorithm.stages(p))
    if not exe.all_full():
        raise RuntimeError("allgather left empty output slots")

    # Interpret slots into original-rank output order at each process.
    out = np.empty((p, p), dtype=np.int64)
    for new_rank in range(p):
        o = int(old_of_new[new_rank])  # process identity
        for slot in range(p):
            v = exe.slot(new_rank, slot)
            if strategy is OrderStrategy.INIT_COMM:
                out[o, slot] = v
            else:
                # endShfl moves slot k's content to position old_of_new[k];
                # the ring's inline placement stores it there on receive.
                out[o, int(old_of_new[slot])] = v
    return out
