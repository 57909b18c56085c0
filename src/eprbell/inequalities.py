"""Bell-1964 and CHSH inequality evaluation, their reduction, and grid
search for violating coplanar orientations.

Covariance conventions follow the two-device tables: the singlet covariance
for orientations at angle theta is -cos(theta). Coplanar configurations are
parameterized by signed angles from a reference axis, which guarantees the
pairwise angles are geometrically realizable.
"""

from __future__ import annotations

import math

from .errors import InvalidGeometryError, InvalidInputError, check_finite, check_unit, is_finite, shown
from .geometry import clamp_unit
from .value import Value

VIOLATION_SLACK = 1e-12


class CovarianceTriple(Value):
    c_ab: float
    c_ac: float
    c_bc: float

    def __post_init__(self):
        check_unit(self, "covariance")


class CovarianceQuad(Value):
    c_ab: float
    c_ac: float
    c_db: float
    c_dc: float

    def __post_init__(self):
        check_unit(self, "covariance")


class InequalityVerdict(Value):
    lhs: float
    bound: float
    satisfied: bool  # computed, not an argument

    def __init__(self, lhs: float, bound: float):
        check_finite("verdict", lhs=lhs, bound=bound)
        vars(self).update(lhs=lhs, bound=bound, satisfied=lhs <= bound + VIOLATION_SLACK)


def _bell_lhs(c_ab, c_ac, c_bc):
    """|c_ab - c_ac| - c_bc, on floats or ndarrays."""
    return abs(c_ab - c_ac) - c_bc


def _chsh_lhs(c_ab, c_ac, c_db, c_dc):
    """|c_ab - c_ac| + |c_db + c_dc|, on floats or ndarrays."""
    return abs(c_ab - c_ac) + abs(c_db + c_dc)


def bell_1964(t: CovarianceTriple) -> InequalityVerdict:
    """|c_ab - c_ac| - c_bc <= 1."""
    return InequalityVerdict(_bell_lhs(t.c_ab, t.c_ac, t.c_bc), 1.0)


def chsh(q: CovarianceQuad) -> InequalityVerdict:
    """|c_ab - c_ac| + |c_db + c_dc| <= 2."""
    return InequalityVerdict(_chsh_lhs(q.c_ab, q.c_ac, q.c_db, q.c_dc), 2.0)


def _wrap_angle(theta: float) -> float:
    """Reduce to the geometric angle between two unit vectors, in [0, pi]."""
    return math.acos(clamp_unit(math.cos(theta)))


def qm_bell_lhs(theta_ab: float, theta_ac: float, theta_bc: float) -> float:
    """Bell-1964 left-hand side |cos t_ab - cos t_ac| + cos t_bc for singlet
    covariances -cos t at coplanar orientations.

    The angles must be finite and the triple realizable: t_ac must equal
    t_ab + t_bc or |t_ab - t_bc| up to reflection about pi.
    """
    angles = theta_ab, theta_ac, theta_bc
    if not all(map(is_finite, angles)):
        raise InvalidInputError(f"angles must be finite, got ({', '.join(map(shown, angles))})")
    tab, tac, tbc = map(_wrap_angle, angles)
    realizable = any(
        abs(_wrap_angle(tab + s * tbc) - tac) <= 1e-9 for s in (1.0, -1.0)
    )
    if not realizable:
        raise InvalidGeometryError(
            f"angles ({', '.join(map(shown, angles))}) not realizable by coplanar unit vectors"
        )
    return _bell_lhs(-math.cos(tab), -math.cos(tac), -math.cos(tbc))


def chsh_to_bell_reduction(t: CovarianceTriple) -> tuple[float, float]:
    """Set d = b in the CHSH expression, with c_db = -1 from total-spin
    conservation and c_dc = c_bc. Then |c_db + c_dc| = 1 - c_bc and the CHSH
    left-hand side equals the Bell-1964 left-hand side plus one in exact
    arithmetic; each side is computed by its own formula.

    Returns (chsh_lhs_with_d_eq_b, bell_lhs).
    """
    return chsh(CovarianceQuad(t.c_ab, t.c_ac, -1.0, t.c_bc)).lhs, bell_1964(t).lhs


# Cells of one phi_b slab of the scan grid; a single phi_b row larger than
# this is still scanned whole.
SCAN_SLAB_CELLS = 1 << 20
# Largest grid (n ** dims points) a scan accepts: chsh down to ~1.78 degrees
# (n <= 203), bell down to ~0.125 degrees. About 31% of chsh cells violate,
# so this also caps the violation arrays near 50 MB.
SCAN_MAX_POINTS = 1 << 23


class ScanResult(Value):
    """Grid-scan outcome. ``violation_index[k]`` holds the grid indices of
    (phi_b, phi_c[, phi_d]) for violation k in C order, ``violation_lhs[k]``
    its left-hand side; both arrays are read-only."""

    inequality: str
    resolution: float
    max_lhs: float
    argmax_angles: tuple[float, ...]
    grid: np.ndarray
    violation_index: np.ndarray  # int32, shape (k, dims)
    violation_lhs: np.ndarray  # float64, shape (k,)

    __eq__, __hash__ = object.__eq__, object.__hash__  # a result equals only itself

    @property
    def violations(self) -> np.ndarray:
        """(k, dims + 1) array: the violating angles in radians, then lhs."""
        import numpy as np

        return np.column_stack((self.grid[self.violation_index], self.violation_lhs))


def violation_scan(inequality: str, resolution: float) -> ScanResult:
    """Exhaustive grid search over coplanar orientations using singlet
    covariances c_xy = -cos(phi_x - phi_y); phi_a is gauge-fixed to 0.

    Bell scans (phi_b, phi_c); CHSH scans (phi_b, phi_c, phi_d). Grids are
    multiples of ``resolution`` in [0, 2*pi), so the known extrema at pi/4
    multiples are on-grid whenever resolution divides pi/4. The grid is
    evaluated in phi_b slabs of at most ``SCAN_SLAB_CELLS`` cells (or one
    phi_b row), so memory is one slab plus the compact violation arrays. A
    grid of more than ``SCAN_MAX_POINTS`` points is rejected before anything
    is allocated.
    """
    import numpy as np

    if not 0.0 < resolution <= math.pi / 8.0 + 1e-15:
        raise InvalidInputError(f"resolution must be in (0, pi/8], got {shown(resolution)}")
    if inequality not in ("bell", "chsh"):
        raise InvalidInputError(f"inequality must be 'bell' or 'chsh', got {shown(inequality, repr)}")
    dims = 2 if inequality == "bell" else 3
    try:
        n = int(round(2.0 * math.pi / resolution))
    except OverflowError:  # 2 * pi / resolution is inf
        raise InvalidInputError(f"resolution {shown(resolution)} gives a {inequality} grid of more than"
                                f" {SCAN_MAX_POINTS} points, the most allowed")
    if n ** dims > SCAN_MAX_POINTS:
        raise InvalidInputError(
            f"resolution {shown(resolution)} gives a {inequality} grid of {n:.4g}^{dims} points;"
            f" at most {SCAN_MAX_POINTS} are allowed"
        )
    grid = resolution * np.arange(n)
    bound = 1.0 if dims == 2 else 2.0
    rows = max(1, SCAN_SLAB_CELLS // n ** (dims - 1))

    index_parts, lhs_parts = [], []
    for start in range(0, n, rows):
        if dims == 2:
            pb, pc = grid[start:start + rows, None], grid[None, :]
            lhs = _bell_lhs(-np.cos(pb), -np.cos(pc), -np.cos(pc - pb))
        else:
            pb, pc, pd = grid[start:start + rows, None, None], grid[None, :, None], grid[None, None, :]
            lhs = _chsh_lhs(-np.cos(pb), -np.cos(pc), -np.cos(pd - pb), -np.cos(pd - pc))
        hits = lhs > bound + VIOLATION_SLACK
        index = np.argwhere(hits).astype(np.int32)
        index[:, 0] += start
        index_parts.append(index)
        lhs_parts.append(lhs[hits])

    violation_index = np.concatenate(index_parts)
    violation_lhs = np.concatenate(lhs_parts)
    for a in (grid, violation_index, violation_lhs):
        a.setflags(write=False)
    # Some multiple x of resolution <= pi/8 lies in [pi/8, pi/4], where bell at
    # (x, 2x) and chsh at (3x, x, 2x) violate: the grid's maximum is a violation,
    # and the violations' first largest entry is its first in C order.
    best = int(np.argmax(violation_lhs))
    max_lhs, argmax = float(violation_lhs[best]), tuple(float(grid[i]) for i in violation_index[best])
    return ScanResult(inequality, resolution, max_lhs, argmax, grid, violation_index, violation_lhs)
