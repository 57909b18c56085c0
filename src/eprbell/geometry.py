"""Unit direction vectors for Stern-Gerlach device orientations."""

from __future__ import annotations

import math

from .errors import InvalidDirectionError, is_finite, shown
from .value import Value

# Inputs with norm this far from 1 are normalized; anything worse is rejected.
_NORM_SLACK = 1e-6


def clamp_unit(v: float) -> float:
    """v clamped to [-1, 1], where a rounded cosine or moment can leave it by an ulp."""
    return min(1.0, max(-1.0, v))


class Direction(Value):
    """A unit 3-vector. Inputs within 1e-6 of unit norm are renormalized."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        try:
            norm = math.sqrt(x * x + y * y + z * z)
        except OverflowError:  # an int component past the float range
            norm = math.inf
        if not (1.0 - _NORM_SLACK <= norm <= 1.0 + _NORM_SLACK):
            raise InvalidDirectionError(f"vector ({shown(x)}, {shown(y)}, {shown(z)}) has norm {norm:.6g}, not ~1")
        vars(self).update(x=x / norm, y=y / norm, z=z / norm)

    @classmethod
    def from_angle(cls, theta: float) -> "Direction":
        """Direction at planar angle theta (radians) in the x-y plane."""
        if not is_finite(theta):  # math.cos(inf) raises a bare ValueError
            raise InvalidDirectionError(f"angle must be finite, got {shown(theta)}")
        return cls(math.cos(theta), math.sin(theta), 0.0)

    def dot(self, other: "Direction") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cos_to(self, other: "Direction") -> float:
        """Cosine of the angle between the two directions: the dot product
        clamped to [-1, 1]."""
        return clamp_unit(self.dot(other))

    def angle_to(self, other: "Direction") -> float:
        """Angle between the two directions, in [0, pi]."""
        return math.acos(self.cos_to(other))

    def __neg__(self) -> "Direction":
        # Negation is exact; __init__ would divide by the rounded norm again
        # and could move a component by an ulp.
        neg = object.__new__(Direction)
        vars(neg).update(x=-self.x, y=-self.y, z=-self.z)
        return neg
