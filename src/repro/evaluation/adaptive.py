"""Adaptive rank reordering (paper §VII future work).

"Devising an adaptive version of our proposed approach is another
interesting venue ... a runtime component is used to decide whether to use
the reordered communicator for a given collective or not based on the
potential performance improvements that each heuristic can provide for
various message sizes."

:class:`AdaptiveReorderer` implements exactly that: for each message-size
bucket it predicts (via the timing engine) the latency of the default and
the reordered communicator — including the per-call restoration cost — and
routes each collective call to whichever wins.  Decisions are cached per
bucket, so the prediction cost is paid once, like the reordering itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.evaluation.evaluator import AllgatherEvaluator, LatencyReport
from repro.util.validation import check_layout

__all__ = ["AdaptiveDecision", "AdaptiveReorderer"]


@dataclass(frozen=True)
class AdaptiveDecision:
    """Outcome for one message-size bucket."""

    block_bytes: float
    use_reordered: bool
    default_seconds: float
    reordered_seconds: float

    @property
    def seconds(self) -> float:
        """Latency of the chosen communicator."""
        return min(self.default_seconds, self.reordered_seconds)

    @property
    def predicted_gain_pct(self) -> float:
        return 100.0 * (self.default_seconds - self.reordered_seconds) / self.default_seconds


class AdaptiveReorderer:
    """Per-message-size routing between the original and reordered comm."""

    def __init__(
        self,
        evaluator: AllgatherEvaluator,
        layout: Sequence[int],
        kind: str = "heuristic",
        strategy: str = "initcomm",
        hierarchical: bool = False,
        intra: str = "binomial",
    ) -> None:
        self.evaluator = evaluator
        self.layout = check_layout(layout)
        self.kind = kind
        self.strategy = strategy
        self.hierarchical = hierarchical
        self.intra = intra
        self._decisions: Dict[int, AdaptiveDecision] = {}

    @staticmethod
    def _bucket(block_bytes: float) -> int:
        """Power-of-two size bucket (decisions generalise within a bucket)."""
        if block_bytes < 1:
            raise ValueError(f"block_bytes must be >= 1, got {block_bytes}")
        return int(np.ceil(np.log2(block_bytes))) if block_bytes > 1 else 0

    def decide(self, block_bytes: float) -> AdaptiveDecision:
        """Predict both latencies for this size and pick the winner."""
        bucket = self._bucket(block_bytes)
        cached = self._decisions.get(bucket)
        if cached is not None:
            return cached
        rep_bytes = float(2**bucket)
        base = self.evaluator.default_latency(
            self.layout, rep_bytes, self.hierarchical, self.intra
        )
        tuned = self.evaluator.reordered_latency(
            self.layout, rep_bytes, self.kind, self.strategy, self.hierarchical, self.intra
        )
        decision = AdaptiveDecision(
            block_bytes=rep_bytes,
            use_reordered=tuned.seconds < base.seconds,
            default_seconds=base.seconds,
            reordered_seconds=tuned.seconds,
        )
        self._decisions[bucket] = decision
        return decision

    def latency(self, block_bytes: float) -> LatencyReport:
        """Latency of one allgather call routed by the adaptive policy."""
        decision = self.decide(block_bytes)
        if decision.use_reordered:
            return self.evaluator.reordered_latency(
                self.layout, block_bytes, self.kind, self.strategy, self.hierarchical, self.intra
            )
        return self.evaluator.default_latency(
            self.layout, block_bytes, self.hierarchical, self.intra
        )
