"""Unit direction vectors for Stern-Gerlach device orientations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDirectionError

# Inputs with norm this far from 1 are normalized; anything worse is rejected.
_NORM_SLACK = 1e-6


@dataclass(frozen=True)
class Direction:
    """A unit 3-vector. Inputs within 1e-6 of unit norm are renormalized."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not (1.0 - _NORM_SLACK <= norm <= 1.0 + _NORM_SLACK):
            raise InvalidDirectionError(
                f"vector ({self.x}, {self.y}, {self.z}) has norm {norm:.6g}, not ~1"
            )
        object.__setattr__(self, "x", self.x / norm)
        object.__setattr__(self, "y", self.y / norm)
        object.__setattr__(self, "z", self.z / norm)

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        """Direction at planar angle theta (radians) in the x-y plane."""
        return cls(math.cos(theta), math.sin(theta), 0.0)

    @classmethod
    def from_array(cls, v) -> "Direction":
        import numpy as np

        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise InvalidDirectionError(f"expected a 3-vector, got shape {v.shape}")
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def as_array(self):
        import numpy as np

        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cos_to(self, other: "Direction") -> float:
        """Cosine of the angle between the two directions: the dot product
        clamped to [-1, 1], which rounding can leave by an ulp."""
        return max(-1.0, min(1.0, self.dot(other)))

    def angle_to(self, other: "Direction") -> float:
        """Angle between the two directions, in [0, pi]."""
        return math.acos(self.cos_to(other))

    def __neg__(self) -> "Direction":
        # Negation is exact; __post_init__ would divide by the rounded norm
        # again and could move a component by an ulp.
        neg = object.__new__(Direction)
        object.__setattr__(neg, "x", -self.x)
        object.__setattr__(neg, "y", -self.y)
        object.__setattr__(neg, "z", -self.z)
        return neg
