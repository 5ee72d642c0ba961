"""Link states (Definition 1 of the paper).

A link is *normal* when its metric is below the lower bound ``b_l``,
*abnormal* above the upper bound ``b_u``, and *uncertain* in between.  The
two-state special case collapses the bounds (``b_l == b_u``).  The paper's
experiments use delays with ``b_l = 100 ms`` and ``b_u = 800 ms``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["LinkState", "StateThresholds", "classify_metric", "classify_vector", "state_codes"]


class LinkState(enum.Enum):
    """The three-valued link state space of Definition 1."""

    NORMAL = "normal"
    UNCERTAIN = "uncertain"
    ABNORMAL = "abnormal"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class StateThresholds:
    """The classification bounds ``(b_l, b_u)``.

    ``lower`` is ``b_l`` (strictly below => normal) and ``upper`` is ``b_u``
    (strictly above => abnormal).  The paper's delay experiments use
    ``StateThresholds(100.0, 800.0)``, which is the default.
    """

    lower: float = 100.0
    upper: float = 800.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValidationError("thresholds must be finite")
        if self.lower < 0:
            raise ValidationError(f"lower bound must be non-negative, got {self.lower}")
        if self.upper < self.lower:
            raise ValidationError(
                f"upper bound {self.upper} must be >= lower bound {self.lower}"
            )

    @classmethod
    def two_state(cls, bound: float) -> "StateThresholds":
        """The two-state special case ``b = b_l = b_u`` (Remark 1)."""
        return cls(lower=bound, upper=bound)

    @property
    def is_two_state(self) -> bool:
        """True when the uncertain band is the single point ``b_l == b_u``."""
        return self.lower == self.upper

    def classify(self, value: float) -> LinkState:
        """Classify one metric value per Definition 1."""
        if value < self.lower:
            return LinkState.NORMAL
        if value > self.upper:
            return LinkState.ABNORMAL
        return LinkState.UNCERTAIN


def classify_metric(value: float, thresholds: StateThresholds) -> LinkState:
    """Functional form of :meth:`StateThresholds.classify`."""
    return thresholds.classify(float(value))


def state_codes(metrics: np.ndarray, thresholds: StateThresholds) -> np.ndarray:
    """Per-link states as codes indexing ``tuple(LinkState)``, from two array comparisons."""
    values = np.asarray(metrics, dtype=float)
    if values.ndim != 1:
        raise ValidationError(f"metrics must be a 1-D vector, got ndim={values.ndim}")
    return 1 + (values > thresholds.upper).astype(np.int8) - (values < thresholds.lower)


def classify_vector(metrics: np.ndarray, thresholds: StateThresholds) -> list[LinkState]:
    """Classify every entry of a link-metric vector.

    Returns a list indexed by link index; experiment code summarises it
    with ``collections.Counter`` or by selecting abnormal indices.
    """
    by_code = tuple(LinkState)
    return [by_code[code] for code in state_codes(metrics, thresholds).tolist()]
