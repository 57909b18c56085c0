import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from eprbell import (
    CovarianceQuad,
    CovarianceTriple,
    InvalidGeometryError,
    InvalidInputError,
    bell_1964,
    chsh,
    chsh_to_bell_reduction,
    existence_check_3,
    qm_bell_lhs,
    violation_scan,
)
from eprbell import inequalities

SQRT2 = math.sqrt(2.0)
cov = st.floats(-1.0, 1.0, allow_nan=False)

# chsh_to_bell_reduction computes |c_ab - c_ac| + (1 - c_bc) by the CHSH
# formula and (|c_ab - c_ac| - c_bc) + 1 from the Bell side. The terms are at
# most 2, so the two rounded sums lie within one ulp of 2 (4.44e-16) of each
# other: they agree exactly on uniform random triples and differ by that ulp
# on some edge inputs.
REDUCTION_ULP = math.ulp(2.0)


def reduction_agrees(t):
    chsh_lhs, bell_lhs = chsh_to_bell_reduction(t)
    return abs(chsh_lhs - (bell_lhs + 1.0)) <= REDUCTION_ULP


class TestBell1964:
    def test_qm_violation(self):
        # theta_ab = theta_bc = pi/4, theta_ac = pi/2, coplanar
        t = CovarianceTriple(
            -math.cos(math.pi / 4), -math.cos(math.pi / 2), -math.cos(math.pi / 4)
        )
        v = bell_1964(t)
        assert v.lhs == pytest.approx(SQRT2, abs=1e-12)
        assert not v.satisfied

    def test_zero(self):
        v = bell_1964(CovarianceTriple(0, 0, 0))
        assert v.lhs == 0.0 and v.satisfied

    def test_boundary(self):
        v = bell_1964(CovarianceTriple(0.3, 0.3, -1.0))
        assert v.lhs == pytest.approx(1.0) and v.satisfied

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            CovarianceTriple(1.5, 0, 0)


class TestChsh:
    def test_qm_violation(self):
        q = CovarianceQuad(
            -math.cos(math.pi / 4),
            -math.cos(3 * math.pi / 4),
            -math.cos(math.pi / 4),
            -math.cos(math.pi / 4),
        )
        v = chsh(q)
        assert v.lhs == pytest.approx(2 * SQRT2, abs=1e-12)
        assert not v.satisfied

    def test_zero_and_boundary(self):
        assert chsh(CovarianceQuad(0, 0, 0, 0)).lhs == 0.0
        v = chsh(CovarianceQuad(1, -1, 0, 0))
        assert v.lhs == pytest.approx(2.0) and v.satisfied


def bell_pair(c_ab, c_ac, c_bc):
    """The single-device covariance pair |c_ab + c_ac| - c_bc <= 1 and
    |c_ab - c_ac| + c_bc <= 1, as ``existence_check_3`` evaluates it on the
    moments m_ab = c_ab, m_ca = c_ac, m_bc = c_bc."""
    verdicts = existence_check_3(0, 0, 0, c_ab, c_bc, c_ac).verdicts
    return verdicts["abs_plus"], verdicts["abs_minus"]


class TestBellPair17:
    def test_contradictory_moments_moments(self):
        first, second = bell_pair(1.0, 1.0, -1.0)
        assert first.lhs == pytest.approx(3.0) and not first.satisfied
        assert second.lhs == pytest.approx(-1.0) and second.satisfied

    def test_zeros(self):
        first, second = bell_pair(0, 0, 0)
        assert first.satisfied and second.satisfied

    def test_matches_two_device_form(self):
        # with single-device covariances +cos(theta), the second single-device form matches
        # the two-device inequality after flipping signs of B(b), B(c)
        t_ab = t_bc = math.pi / 4
        t_ac = t_ab + t_bc
        _, second = bell_pair(math.cos(t_ab), math.cos(t_ac), math.cos(t_bc))
        assert second.lhs == pytest.approx(qm_bell_lhs(t_ab, t_ac, t_bc), abs=1e-12)


class TestQmBellLhs:
    def test_root_two(self):
        assert qm_bell_lhs(math.pi / 4, math.pi / 2, math.pi / 4) == pytest.approx(
            SQRT2, abs=1e-12
        )

    def test_degenerate_chain(self):
        for theta in (0.3, 1.0, 2.5):
            assert qm_bell_lhs(0.0, theta, theta) == pytest.approx(1.0, abs=1e-12)

    def test_direct_value(self):
        assert qm_bell_lhs(math.pi / 3, 2 * math.pi / 3, math.pi / 3) == pytest.approx(
            1.5, abs=1e-12
        )

    def test_unrealizable(self):
        with pytest.raises(InvalidGeometryError):
            qm_bell_lhs(math.pi / 4, math.pi, math.pi / 4)

    @pytest.mark.parametrize("angles", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
    def test_rejects_non_finite_angles(self, angles):
        # NaN used to read as angle 0 (lhs 1.0), an infinity to raise a bare
        # "math domain error".
        with pytest.raises(InvalidInputError, match="finite"):
            qm_bell_lhs(*angles)


class TestReduction:
    def test_qm_point(self):
        t = CovarianceTriple(
            -math.cos(math.pi / 4), -math.cos(math.pi / 2), -math.cos(math.pi / 4)
        )
        chsh_lhs, bell_lhs = chsh_to_bell_reduction(t)
        assert bell_lhs == pytest.approx(SQRT2, abs=1e-12)
        assert chsh_lhs == pytest.approx(1 + SQRT2, abs=1e-12)

    def test_simple_points(self):
        assert chsh_to_bell_reduction(CovarianceTriple(0, 0, 0)) == (1.0, 0.0)
        chsh_lhs, bell_lhs = chsh_to_bell_reduction(CovarianceTriple(1, -1, -1))
        assert (chsh_lhs, bell_lhs) == (4.0, 3.0)

    @given(cov, cov, cov)
    def test_identity_exact(self, c_ab, c_ac, c_bc):
        assert reduction_agrees(CovarianceTriple(c_ab, c_ac, c_bc))

    def test_edge_input_one_ulp_apart(self):
        # 1 - c_bc rounds in the CHSH route and |c_ab - c_ac| - c_bc in the Bell one.
        chsh_lhs, bell_lhs = chsh_to_bell_reduction(
            CovarianceTriple(-0.9942843251636849, 0.016744750665503183, 8.263069358697507e-13))
        assert abs(chsh_lhs - (bell_lhs + 1.0)) == REDUCTION_ULP

    def test_broken_reduction_fails(self, monkeypatch, rng):
        """With c_db = +1 instead of -1 the CHSH side is |c_ab - c_ac| + 1 + c_bc,
        which the check rejects."""
        quad = inequalities.CovarianceQuad
        monkeypatch.setattr(inequalities, "CovarianceQuad",
                            lambda c_ab, c_ac, c_db, c_dc: quad(c_ab, c_ac, -c_db, c_dc))
        triples = [CovarianceTriple(*rng.uniform(-1, 1, 3)) for _ in range(1_000)]
        assert not any(reduction_agrees(t) for t in triples)


class TestViolationScan:
    def test_chsh_max(self):
        result = violation_scan("chsh", math.pi / 16)
        assert result.max_lhs >= 2 * SQRT2 - 1e-9
        assert len(result.violations) > 1

    def test_bell_max(self):
        result = violation_scan("bell", math.pi / 16)
        assert result.max_lhs >= SQRT2 - 1e-9

    def test_violation_region_positive_measure(self):
        fine = violation_scan("bell", math.pi / 32)
        assert len(fine.violations) > 1

    def test_resolution_range(self):
        with pytest.raises(InvalidInputError):
            violation_scan("bell", 0.0)
        with pytest.raises(InvalidInputError):
            violation_scan("bell", math.pi / 4)

    def test_unknown_inequality(self):
        with pytest.raises(InvalidInputError, match="inequality must be 'bell' or 'chsh', got 'x'"):
            violation_scan("x", 0.1)

    def test_grid_limit(self, monkeypatch):
        from eprbell import inequalities

        # chsh stays allowed down to n = 203 (~1.78 deg), bell to ~0.125 deg.
        assert 203 ** 3 <= inequalities.SCAN_MAX_POINTS < 204 ** 3
        assert 2880 ** 2 <= inequalities.SCAN_MAX_POINTS
        with pytest.raises(InvalidInputError, match="chsh grid of 206"):
            violation_scan("chsh", math.radians(1.75))
        with pytest.raises(InvalidInputError, match="bell grid"):
            violation_scan("bell", math.radians(0.124))
        # The limit is inclusive and checked before the grid is built.
        monkeypatch.setattr(inequalities, "SCAN_MAX_POINTS", 16 ** 3)
        assert len(violation_scan("chsh", math.pi / 8).grid) == 16
        monkeypatch.setattr(np, "arange", None)
        with pytest.raises(InvalidInputError):
            violation_scan("chsh", 2 * math.pi / 17)

    def test_deterministic(self):
        r1 = violation_scan("chsh", math.pi / 16)
        r2 = violation_scan("chsh", math.pi / 16)
        assert r1.max_lhs == r2.max_lhs and r1.argmax_angles == r2.argmax_angles

    def test_violations_array(self):
        result = violation_scan("chsh", math.pi / 16)
        rows = result.violations
        assert rows.shape == (len(result.violation_lhs), 4)
        assert result.violation_index.dtype == np.int32
        assert np.array_equal(rows[:, :3], result.grid[result.violation_index])
        assert np.array_equal(rows[:, 3], result.violation_lhs)
        with pytest.raises(ValueError):
            result.violation_lhs[0] = 0.0


def dense_scan(inequality, resolution):
    """The original kernel: full n^dims meshgrids, one argmax and one
    nonzero over the flattened grid. Test-only second route for the scan."""
    n = int(round(2.0 * math.pi / resolution))
    grid = resolution * np.arange(n)
    if inequality == "bell":
        pb, pc = np.meshgrid(grid, grid, indexing="ij")
        lhs = np.abs(-np.cos(pb) + np.cos(pc)) - (-np.cos(pc - pb))
        bound, angles = 1.0, (pb, pc)
    else:
        pb, pc, pd = np.meshgrid(grid, grid, grid, indexing="ij")
        lhs = np.abs(-np.cos(pb) + np.cos(pc)) + np.abs(-np.cos(pd - pb) - np.cos(pd - pc))
        bound, angles = 2.0, (pb, pc, pd)
    flat = lhs.ravel()
    best = int(np.argmax(flat))
    viol = np.nonzero(flat > bound + 1e-12)[0]
    index = np.column_stack(np.unravel_index(viol, lhs.shape))
    return float(flat[best]), tuple(float(a.ravel()[best]) for a in angles), index, flat[viol]


@pytest.mark.parametrize("slab_cells", [None, 1000])
@pytest.mark.parametrize("inequality", ["bell", "chsh"])
@pytest.mark.parametrize(
    "resolution",
    [math.radians(7), math.radians(13), math.pi / 10, math.pi / 16, math.radians(5), math.pi / 8],
    ids=["7deg", "13deg", "pi/10", "pi/16", "5deg", "pi/8"],
)
def test_scan_matches_dense_oracle(monkeypatch, inequality, resolution, slab_cells):
    """Slabbed kernel vs dense meshgrid kernel, including resolutions that do
    not divide pi/4 and a small slab budget (partial last slabs for bell, a
    slab of one phi_b row for chsh)."""
    from eprbell import inequalities

    if slab_cells is not None:
        monkeypatch.setattr(inequalities, "SCAN_SLAB_CELLS", slab_cells)
    result = violation_scan(inequality, resolution)
    max_lhs, argmax, index, lhs = dense_scan(inequality, resolution)
    assert len(index) > 0
    assert np.array_equal(result.violation_index, index)
    assert result.violation_lhs.tobytes() == lhs.tobytes()
    assert result.max_lhs == max_lhs
    assert result.argmax_angles == argmax
