import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from eprbell import (
    CovarianceQuad,
    CovarianceTriple,
    Direction,
    InvalidGeometryError,
    InvalidInputError,
    InvalidModelError,
    LocalModel,
    bell_1964,
    bell_local_model_covariance,
    bell_pair_inequalities,
    chsh,
    chsh_to_bell_reduction,
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


class TestBellPair17:
    def test_contradictory_moments_moments(self):
        first, second = bell_pair_inequalities(1.0, 1.0, -1.0)
        assert first.lhs == pytest.approx(3.0) and not first.satisfied
        assert second.lhs == pytest.approx(-1.0) and second.satisfied

    def test_zeros(self):
        first, second = bell_pair_inequalities(0, 0, 0)
        assert first.satisfied and second.satisfied

    def test_matches_two_device_form(self):
        # with single-device covariances +cos(theta), the second single-device form matches
        # the two-device inequality after flipping signs of B(b), B(c)
        t_ab = t_bc = math.pi / 4
        t_ac = t_ab + t_bc
        _, second = bell_pair_inequalities(math.cos(t_ab), math.cos(t_ac), math.cos(t_bc))
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


class TestLocalModel:
    def test_sign_model_covariance(self):
        # <A> = sign(lam.a), <B> = -sign(lam.b): covariance is -1 + 2*theta/pi
        model = LocalModel(
            mean_a=lambda lams, a: np.sign(lams @ a.as_array()),
            mean_b=lambda lams, b: -np.sign(lams @ b.as_array()),
        )
        theta = 1.0
        a, b = Direction.from_angle(0.0), Direction.from_angle(theta)
        c = bell_local_model_covariance(model, a, b, n_samples=1_000_000, seed=3)
        assert c == pytest.approx(-1.0 + 2.0 * theta / math.pi, abs=0.01)

    def test_default_sampler_pinned(self):
        # The default sampler is hvsim.sample_lambda; this fixed-seed value
        # pins its draws bit for bit.
        model = LocalModel(
            mean_a=lambda lams, a: np.tanh(2.0 * (lams @ a.as_array())),
            mean_b=lambda lams, b: np.tanh(-(lams @ b.as_array())),
        )
        a, b = Direction(0.36, -0.48, 0.8), Direction.from_angle(1.0)
        assert bell_local_model_covariance(model, a, b, 50_000, seed=21) == 0.06981375355097116

    def test_constant_models(self):
        zero = LocalModel(
            mean_a=lambda lams, a: np.zeros(len(lams)),
            mean_b=lambda lams, b: np.zeros(len(lams)),
        )
        a, b = Direction.from_angle(0.0), Direction.from_angle(1.0)
        assert bell_local_model_covariance(zero, a, b, 1000, seed=0) == 0.0

        det = LocalModel(
            mean_a=lambda lams, a: np.ones(len(lams)),
            mean_b=lambda lams, b: -np.ones(len(lams)),
        )
        assert bell_local_model_covariance(det, a, b, 1000, seed=0) == -1.0

        scalar = LocalModel(mean_a=lambda lams, a: 0.5, mean_b=lambda lams, b: -0.5)
        assert bell_local_model_covariance(scalar, a, b, 1000, seed=0) == -0.25

    def test_rejects_out_of_range(self):
        for value in (2.0, math.nan):  # NaN fails every compare, in range or out
            bad = LocalModel(
                mean_a=lambda lams, a: value * np.ones(len(lams)),
                mean_b=lambda lams, b: np.zeros(len(lams)),
            )
            with pytest.raises(InvalidModelError):
                bell_local_model_covariance(
                    bad, Direction.from_angle(0.0), Direction.from_angle(1.0), 100, seed=0
                )

    @pytest.mark.parametrize("shape", [(1000, 1), (1001,), (1, 1000)])
    def test_rejects_wrong_shape(self, shape):
        # An (n, 1) mean times an (n,) one would broadcast to an n x n product.
        bad = LocalModel(mean_a=lambda lams, a: np.zeros(shape), mean_b=lambda lams, b: np.zeros(len(lams)))
        with pytest.raises(InvalidModelError, match="shape"):
            bell_local_model_covariance(bad, Direction.from_angle(0.0), Direction.from_angle(1.0), 1000, seed=0)

    def test_random_models_satisfy_chsh(self, rng):
        # any factorized model yields CHSH-satisfying covariance quadruples
        n = 20_000
        angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
        a, d, b, c = (Direction.from_angle(t) for t in angles)
        sigma_bound = 4 * 3.0 / math.sqrt(n)  # 3 sigma per term, 4 terms
        for trial in range(100):
            w1, w2 = rng.uniform(-1, 1, 2)

            def mk(w):
                return lambda lams, n_dir: np.tanh(w * (lams @ n_dir.as_array()))

            model = LocalModel(mean_a=mk(w1), mean_b=mk(w2))
            covs = {
                key: bell_local_model_covariance(model, u, v, n, seed=trial)
                for key, (u, v) in {
                    "ab": (a, b), "ac": (a, c), "db": (d, b), "dc": (d, c)
                }.items()
            }
            lhs = abs(covs["ab"] - covs["ac"]) + abs(covs["db"] + covs["dc"])
            assert lhs <= 2.0 + sigma_bound


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
