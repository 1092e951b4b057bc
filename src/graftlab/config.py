"""Configurable universal constants.

The dilatation and radius estimates assert existence of universal constants
without pinning numbers.  Every such constant is an explicit knob here, and
every report echoes the values in force so the produced bounds stay
interpretable.  ``kappa`` (round-subannulus modulus defect) has no known
numeric value; its default is a placeholder.  ``verify`` reads kappa (in
the comparison budget) and echoes the ``kappa_is_placeholder`` flag beside
its value; ``simulate`` reads no kappa and echoes no flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["Constants", "DEFAULT_CONSTANTS"]


@dataclass(frozen=True)
class Constants:
    C: float = 1.0                       # comparison-map distance coefficient
    K2: float = 1.0                      # core-curve bounding-radius cap coefficient
    C_shear: float = 2.0 * math.sqrt(2.0)  # shear log-dilatation slope: log K <= C_shear*(B-1)
    T_radius: float = 1.0                # model radius R = T_radius * l**(1/4)
    kappa: float = 1.0                   # round-subannulus modulus defect (placeholder)
    epsilon: float = 0.1                 # short-curve threshold

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and v > 0 and math.isfinite(v)):
                raise ValueError(f"constant {f.name} must be a positive finite number, got {v!r}")

    @property
    def kappa_is_placeholder(self) -> bool:
        return self.kappa == Constants.__dataclass_fields__["kappa"].default


DEFAULT_CONSTANTS = Constants()
