"""Trace sampling — head probability composed with tail-based keep rules.

At high QPS "trace everything" is unaffordable and "trace nothing" is
blind exactly when it matters.  :class:`Sampler` implements the standard
production compromise:

* **Head sampling** decides once per root span, from a cheap
  deterministic hash of the request id, whether the whole trace records.
  The decision is per-trace, not per-span: a trace is kept or dropped
  whole, and because the hash is deterministic the same request id always
  samples the same way (replayable, shardable).
* **Tail-based keep rules** rescue the traces head sampling would have
  thrown away but that are exactly the ones worth keeping: traces slower
  than a latency threshold, rejected requests, and error-tagged requests.
  A head-dropped trace stays *undecided* until its root span finishes —
  the root carries no trace, so no child span is created (an undecided
  trace costs near-zero beyond the root span), and the tracer hands the
  finished root to :meth:`tail_keep_reason`; a kept trace is retained
  as a partial (root-only) trace tagged ``sampled=tail_<reason>``.

The sampler also keeps its own kept/dropped counters, surfaced by
:meth:`snapshot` (and therefore by ``Tracer.stage_snapshot`` and the
Prometheus exposition) as ``sampler.*`` counters plus a ``sampled_ratio``
gauge.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.obs.metrics import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracing import Span

#: Tail-keep reasons, most severe first; the first matching rule wins.
TAIL_REASONS = ("error", "rejected", "slow")


def head_decision(key: str, probability: float) -> bool:
    """Deterministic keep/drop for one trace key at the given probability.

    CRC32 is stable across processes and platforms, so a request id keeps
    or drops identically wherever it is evaluated — no random source, no
    coordination.
    """
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    return (zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF) / 2**32 < probability


class Sampler:
    """Head-probability + tail-keep sampling policy for one tracer."""

    def __init__(
        self,
        *,
        head_probability: float = 1.0,
        slow_threshold_seconds: float | None = None,
    ):
        if not 0.0 <= head_probability <= 1.0:
            raise ValueError("head_probability must be in [0, 1]")
        if slow_threshold_seconds is not None and slow_threshold_seconds < 0:
            raise ValueError("slow_threshold_seconds must be non-negative")
        self.head_probability = head_probability
        self.slow_threshold_seconds = slow_threshold_seconds
        self._kept = {reason: Counter() for reason in ("head", *TAIL_REASONS)}
        self._dropped = Counter()

    # ----------------------------------------------------------------- policy
    def sample_head(self, key: str) -> bool:
        """Whether the trace identified by ``key`` records from the start."""
        return head_decision(key, self.head_probability)

    def tail_keep_reason(self, root: "Span") -> str | None:
        """Why a head-dropped trace must be retained anyway (or ``None``).

        Consulted once, when the undecided trace's root span finishes, so
        the rules may read the root's final attributes and duration.
        """
        attributes = root.attributes
        if "error" in attributes or attributes.get("status") == "failed":
            return "error"
        if attributes.get("status") == "rejected":
            return "rejected"
        if (
            self.slow_threshold_seconds is not None
            and root.duration_seconds >= self.slow_threshold_seconds
        ):
            return "slow"
        return None

    # ------------------------------------------------------------- accounting
    def record_kept(self, reason: str) -> None:
        """Count one retained trace (``reason``: ``head`` or a tail reason)."""
        self._kept[reason].increment()

    def record_dropped(self) -> None:
        self._dropped.increment()

    @property
    def kept(self) -> int:
        return sum(counter.value for counter in self._kept.values())

    @property
    def dropped(self) -> int:
        return self._dropped.value

    def snapshot(self) -> dict[str, object]:
        """Counters and gauges in the metrics-snapshot dict convention.

        Integers render as Prometheus counters, floats as gauges (see
        :mod:`repro.obs.promtext`), so ``sampled_ratio`` and
        ``head_probability`` are deliberately floats.
        """
        kept = {reason: counter.value for reason, counter in self._kept.items()}
        dropped = self._dropped.value
        total_kept = sum(kept.values())
        total = total_kept + dropped
        payload: dict[str, object] = {
            "kept": total_kept,
            "dropped": dropped,
            "kept_head": kept.pop("head"),
            "head_probability": float(self.head_probability),
            "sampled_ratio": (total_kept / total) if total else 1.0,
        }
        for reason, count in kept.items():
            payload[f"kept_tail_{reason}"] = count
        return payload
