import math

import numpy as np
import pytest
from scipy import stats

from eprbell import (
    BLOCK_SIZE,
    Direction,
    InvalidInputError,
    PartitionSpec,
    block_rng,
    classify,
    local_pair_dist,
    mixture_pair_dist,
    p_c_analytic,
    product_rule_demo,
    qm_pair_dist,
    sample_lambda,
    sample_pair_given_c,
    simulate,
)

from conftest import random_direction


class TestSampleLambda:
    def test_unit_norm(self):
        lam = sample_lambda(block_rng(0, 0), 10_000)
        assert np.allclose(np.linalg.norm(lam, axis=1), 1.0, atol=1e-12)

    def test_uniformity_moments(self):
        lam = sample_lambda(block_rng(1, 0), 200_000)
        # each coordinate has mean 0 and variance 1/3 on the uniform sphere
        assert np.max(np.abs(lam.mean(axis=0))) < 0.005
        assert np.max(np.abs(lam.var(axis=0) - 1 / 3)) < 0.005

    def test_z_uniform(self):
        lam = sample_lambda(block_rng(2, 0), 200_000)
        _, p = stats.kstest(lam[:, 2], stats.uniform(loc=-1, scale=2).cdf)
        assert p > 0.001


class TestPartition:
    def test_cap_angle(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        part = PartitionSpec.for_directions(a, b)
        assert part.cap_angle == pytest.approx(math.acos(-0.5), abs=1e-12)
        assert part.cos_threshold == pytest.approx(-0.5, abs=1e-12)

    def test_classify_boundary_inside(self):
        a = Direction(0, 0, 1)
        part = PartitionSpec.for_directions(a, Direction(0, 0, 1))
        # cap_angle = acos(-1) = pi: whole sphere is inside
        assert classify(np.array([[0.0, 0.0, -1.0]]), part)[0] == 1

    def test_classify_antipodal_cap(self):
        a = Direction(0, 0, 1)
        part = PartitionSpec.for_directions(a, Direction(0, 0, -1))
        # cap_angle = acos(1) = 0: only the pole itself is inside
        got = classify(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), part)
        assert list(got) == [1, -1]

    def test_cap_area_matches_analytic(self, rng):
        for _ in range(10):
            a, b = random_direction(rng), random_direction(rng)
            part = PartitionSpec.for_directions(a, b)
            lam = sample_lambda(block_rng(7, 0), 200_000)
            frac = np.mean(classify(lam, part) == 1)
            assert frac == pytest.approx(p_c_analytic(a, b)[1], abs=0.005)

    def test_p_c_analytic_extremes(self):
        a = Direction(1, 0, 0)
        assert p_c_analytic(a, a) == {1: 1.0, -1: 0.0}
        assert p_c_analytic(a, -a) == {1: 0.0, -1: 1.0}


class TestPairGivenC:
    def test_product_constraint(self):
        rng = block_rng(0, 0)
        c = np.where(rng.integers(0, 2, 10_000) == 1, 1, -1)
        first, second = sample_pair_given_c(c, block_rng(1, 0))
        assert np.array_equal(first * second, c)

    def test_fair_first_sign(self):
        c = np.ones(200_000, dtype=int)
        first, _ = sample_pair_given_c(c, block_rng(5, 0))
        assert abs(first.mean()) < 0.005


class TestMixtureIdentity:
    def test_matches_local_table(self, rng):
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            assert np.max(
                np.abs(mixture_pair_dist(a, b).table - local_pair_dist(a, b).table)
            ) < 1e-12


class TestSimulate:
    def test_aligned_local_deterministic_cells(self):
        a = Direction(0, 0, 1)
        rep = simulate(a, a, 100_000, seed=0, mode="local")
        # perfectly correlated: off-diagonal cells are exactly empty
        assert rep.empirical[0, 1] == 0.0 and rep.empirical[1, 0] == 0.0
        assert rep.max_abs_dev < 0.01

    def test_singlet_sixty_degrees(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        rep = simulate(a, b, 1_000_000, seed=42, mode="singlet")
        assert rep.theta_ab_rad == pytest.approx(math.pi / 3, abs=1e-12)
        assert np.allclose(rep.theoretical.table, qm_pair_dist(a, b).table)
        assert rep.max_abs_dev < 0.005
        assert rep.empirical[0, 1] == pytest.approx(0.375, abs=0.005)

    def test_modes_related_by_column_flip(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(1.0)
        loc = simulate(a, b, 200_000, seed=9, mode="local")
        sing = simulate(a, b, 200_000, seed=9, mode="singlet")
        assert np.array_equal(loc.empirical, sing.empirical[:, ::-1])

    def test_deterministic_across_threads(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(0.7)
        n = 3 * BLOCK_SIZE + 123
        reports = [
            simulate(a, b, n, seed=11, mode="singlet", threads=t) for t in (1, 2, 8)
        ]
        for rep in reports[1:]:
            assert np.array_equal(rep.empirical, reports[0].empirical)
            assert rep.chi_square == reports[0].chi_square

    def test_seed_sensitivity(self):
        a, b = Direction.from_angle(0.0), Direction.from_angle(0.7)
        r1 = simulate(a, b, 10_000, seed=1)
        r2 = simulate(a, b, 10_000, seed=2)
        assert not np.array_equal(r1.empirical, r2.empirical)

    def test_chi_square_calibrated(self, rng):
        # chi-square with 3 dof (or fewer when cells are empty) should not be
        # wildly inconsistent with the model over repeated random geometries
        for trial in range(20):
            a, b = random_direction(rng), random_direction(rng)
            rep = simulate(a, b, 1_000_000, seed=trial, mode="singlet")
            dof = int(np.sum(rep.theoretical.table > 0)) - 1
            p = stats.chi2.sf(rep.chi_square, dof)
            assert p > 0.001

    def test_input_validation(self):
        a = Direction(1, 0, 0)
        with pytest.raises(InvalidInputError):
            simulate(a, a, 0, seed=0)
        with pytest.raises(InvalidInputError):
            simulate(a, a, 100, seed=0, mode="bogus")
        with pytest.raises(InvalidInputError):
            simulate(a, a, 100, seed=-1)
        with pytest.raises(InvalidInputError):
            simulate(a, a, 100, seed=0, threads=0)

    @pytest.mark.parametrize("threads, cpus, blocks, workers", [
        (10**6, 4, 8, 4), (10**6, 16, 3, 3), (2, 16, 8, 2), (8, 1, 8, None), (8, None, 8, None),
    ])
    def test_pool_capped(self, monkeypatch, threads, cpus, blocks, workers):
        """At most min(threads, blocks, CPUs) workers; no pool when that is 1.
        The stand-in pool runs the blocks inline, so no thread starts."""
        import os
        from eprbell import hvsim

        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(hvsim, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        a, b = Direction(1, 0, 0), Direction(0, 1, 0)
        rep = simulate(a, b, blocks * BLOCK_SIZE, seed=5, threads=threads)
        assert seen == ([] if workers is None else [workers])
        assert np.array_equal(rep.empirical, simulate(a, b, blocks * BLOCK_SIZE, seed=5).empirical)


GENERAL_A = Direction(0.36, -0.48, 0.8)


class TestGoldenCounts:
    """Exact (++, +-, -+, --) counts of the reproducibility contract (fixed
    blocks, per-block SeedSequence((seed, k)), draw order z, phi, signs).

    Recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon (x86-64). The counts
    depend on numpy's PCG64 stream and uniform/integers transforms, and on
    the rounding of np.cos/np.sin and of the dot product only for samples
    within an ulp of the cap boundary; a mismatch on another platform is a
    platform difference, not a reason to loosen this test.
    """

    GOLDEN = [
        # CLI geometry: a = x axis, b at 60 degrees; the last block is partial.
        (Direction.from_angle(0.0), Direction.from_angle(math.radians(60)),
         3 * BLOCK_SIZE + 123, 11, "singlet", [24922, 73376, 73878, 24555]),
        (GENERAL_A, Direction(0.48, 0.6, 0.64),
         3 * BLOCK_SIZE + 123, 5, "local", [68699, 29610, 29577, 68845]),
        # a == b: cap angle pi, every lambda is inside.
        (GENERAL_A, GENERAL_A, 2 * BLOCK_SIZE + 77, 3, "local", [65841, 0, 0, 65308]),
        (GENERAL_A, GENERAL_A, 2 * BLOCK_SIZE + 77, 3, "singlet", [0, 65841, 65308, 0]),
        # a == -b: cap angle 0, every lambda is outside.
        (GENERAL_A, -GENERAL_A, 2 * BLOCK_SIZE + 77, 3, "local", [0, 65841, 65308, 0]),
        (GENERAL_A, -GENERAL_A, 2 * BLOCK_SIZE + 77, 3, "singlet", [65841, 0, 0, 65308]),
    ]

    @pytest.mark.parametrize("a, b, n, seed, mode, counts", GOLDEN)
    def test_counts(self, a, b, n, seed, mode, counts):
        rep = simulate(a, b, n, seed, mode=mode)
        assert np.rint(rep.empirical * n).astype(np.int64).ravel().tolist() == counts


def _staged_block(seed, k, count, part, singlet):
    """One block through the public staged functions, the fused kernel's oracle."""
    rng = block_rng(seed, k)
    first, second = sample_pair_given_c(classify(sample_lambda(rng, count), part), rng)
    if singlet:
        second = -second
    return np.bincount((first < 0) * 2 + (second < 0), minlength=4)


def _sweep_axes():
    rng = np.random.default_rng(4)
    unit = lambda *v: Direction.from_array(np.array(v) / np.linalg.norm(v))
    return [
        Direction(1, 0, 0), -Direction(1, 0, 0), Direction(0, 1, 0), Direction(0, 0, -1),
        unit(0.6, -0.8, 0.0), unit(1.0, 0.0, -1.0), unit(0.0, -2.0, 1.0),
    ] + [random_direction(rng) for _ in range(3)]


class TestFusedBlock:
    @pytest.mark.parametrize("axis", _sweep_axes())
    def test_matches_staged_route(self, axis):
        from eprbell.hvsim import _simulate_block

        other = Direction.from_angle(1.0 + axis.z)  # a cap threshold per axis
        for b in (other, axis, -axis):
            part = PartitionSpec.for_directions(axis, b)
            for singlet in (False, True):
                for k, count in ((0, BLOCK_SIZE), (1, 12_345)):
                    expected = _staged_block(17, k, count, part, singlet)
                    assert np.array_equal(_simulate_block(17, k, count, part, singlet), expected)


class TestProductRuleDemo:
    def test_targets(self):
        estimates = product_rule_demo(Direction(0, 0, 1), n=200_000, seed=0)
        by_label = {e.label: e for e in estimates}
        assert by_label["b = a"].estimate == pytest.approx(0.0, abs=1e-12)
        assert by_label["b = -a"].estimate == pytest.approx(1.0, abs=1e-12)
        assert by_label["b orthogonal"].estimate == pytest.approx(0.5, abs=0.01)
        # three different conditionals for the same a: the outcome at one
        # device depends on the remote setting, not on (lambda, a) alone
        values = sorted(e.target for e in estimates)
        assert values == [0.0, 0.5, 1.0]
