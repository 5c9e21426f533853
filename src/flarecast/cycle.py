"""Scalar embedding of a timestamp's phase within the ~11-year solar activity cycle."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .core import EPOCH, MICROSECOND

__all__ = ["CycleConfig", "cycle_phase", "cycle_phases", "DEFAULT_CYCLE"]

# Default period: 48,204 two-hour steps = 96,408 hours, almost exactly 11 years.
DEFAULT_PERIOD_HOURS = 48_204 * 2.0
DEFAULT_BASE_TIME = datetime(2008, 12, 1, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class CycleConfig:
    """Anchor time and period of the activity cycle, in hours."""

    base_time: datetime = DEFAULT_BASE_TIME
    period_hours: float = DEFAULT_PERIOD_HOURS

    def __post_init__(self) -> None:
        if self.base_time.tzinfo is None:
            raise ValueError("base_time must be timezone-aware UTC")
        if not 0.0 < self.period_hours < float("inf"):
            raise ValueError("period_hours must be positive and finite")


DEFAULT_CYCLE = CycleConfig()


def cycle_phase(t: datetime, cfg: CycleConfig = DEFAULT_CYCLE) -> float:
    """Cosine phase of ``t`` within the cycle, in [-1, 1].

    Returns ``-cos(2 pi (t - base) / period)``: -1 at the anchor (cycle
    minimum), +1 half a period later, periodic thereafter. Times before the
    anchor are fine; the embedding is even around it.
    """
    if t.tzinfo is None:
        raise ValueError("timestamp must be timezone-aware UTC")
    return float(cycle_phases((t - EPOCH) // MICROSECOND, cfg))


def cycle_phases(epoch_us, cfg: CycleConfig = DEFAULT_CYCLE) -> np.ndarray:
    """:func:`cycle_phase` of each int64 UTC epoch microsecond count, element-wise, in one int64 and one
    float64 buffer: ``-cos(2 pi ((t - base) / 1e6 / 3600) / period)``, each step in that order."""
    phases = np.empty(np.shape(epoch_us))
    np.divide(np.asarray(epoch_us, dtype=np.int64) - (cfg.base_time - EPOCH) // MICROSECOND, 1e6, out=phases)
    phases /= 3600.0
    phases *= 2.0 * np.pi
    phases /= cfg.period_hours
    return np.negative(np.cos(phases, out=phases), out=phases)
