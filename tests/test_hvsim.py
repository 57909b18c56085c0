import math

import numpy as np
import pytest

from eprbell import (
    BLOCK_SIZE,
    Direction,
    InvalidInputError,
    block_rng,
    local_pair_dist,
    product_rule_demo,
    qm_pair_dist,
    simulate,
)
from eprbell.hvsim import PartitionSpec, _kernel_pair_dist, classify, sample_lambda, sample_pair_given_c

import pcg64_ref
from conftest import as_array, cell_dev, direction_from_array, random_direction


def counts_of(rep) -> np.ndarray:
    """The report's (++, +-, -+, --) counts, from its frequencies."""
    return np.rint(np.array(rep.empirical) * rep.n_samples)


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with df = 1, 2 or 3 degrees of freedom, in
    closed form (Abramowitz & Stegun 26.4.4 and 26.4.5)."""
    if df == 2:
        return math.exp(-x / 2)
    tail = math.erfc(math.sqrt(x / 2))
    if df == 1:
        return tail
    if df == 3:
        return tail + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    raise ValueError(f"df must be 1, 2 or 3, got {df}")


def homogeneity_chi2(table: np.ndarray) -> tuple[float, int]:
    """Pearson's chi-square statistic of homogeneity of a contingency table's
    rows, over its columns with a nonzero total, and its degrees of freedom.
    No continuity correction: that applies only at one degree of freedom."""
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return float(np.sum((table - expected) ** 2 / expected)), (table.shape[0] - 1) * (table.shape[1] - 1)


def ks_uniform_p(sample: np.ndarray) -> float:
    """p-value of the Kolmogorov-Smirnov test of a sample against the uniform
    law on [-1, 1], from Kolmogorov's limiting law of sqrt(n) D:
    P(K > t) = 2 sum_k (-1)^(k-1) exp(-2 k^2 t^2) (Marsaglia, Tsang and
    Wang 2003, J. Stat. Softw. 8(18)). Its terms past k = 100 are below
    exp(-2e4 t^2), far below any p-value a test reads."""
    u = np.sort((sample + 1.0) / 2.0)
    n = len(u)
    ranks = np.arange(1, n + 1)
    t = math.sqrt(n) * max(float(np.max(ranks / n - u)), float(np.max(u - (ranks - 1) / n)))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in range(1, 101))


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
        assert ks_uniform_p(lam[:, 2]) > 0.001


class TestPartition:
    def test_cos_threshold(self):
        """The partition is the contract's threshold t = cos(acos(-a.b)) and
        nothing else; at 60 degrees t is -1/2 up to rounding, not exactly -a.b."""
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        part = PartitionSpec.for_directions(a, b)
        assert list(part.FIELDS) == ["cos_threshold"]
        assert part == PartitionSpec(math.cos(math.acos(-a.cos_to(b))))
        assert part.cos_threshold == pytest.approx(-0.5, abs=1e-12)
        assert part.cos_threshold != -a.cos_to(b)

    def test_classify_boundary_inside(self):
        a = Direction(0, 0, 1)
        part = PartitionSpec.for_directions(a, Direction(0, 0, 1))
        # t = cos(acos(-1)) = -1: whole sphere is inside
        assert classify(np.array([[0.0, 0.0, -1.0]]), part)[0] == 1

    def test_classify_antipodal_cap(self):
        a = Direction(0, 0, 1)
        part = PartitionSpec.for_directions(a, Direction(0, 0, -1))
        # t = cos(acos(1)) = 1: only the pole itself is inside
        got = classify(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), part)
        assert list(got) == [1, -1]

    def test_cap_area_matches_analytic(self, rng):
        for _ in range(10):
            a, b = random_direction(rng), random_direction(rng)
            part = PartitionSpec.for_directions(a, b)
            lam = sample_lambda(block_rng(7, 0), 200_000)
            frac = np.mean(classify(lam, part) == 1)
            # P[C = +1] is the sum of the law's two equal cells.
            assert frac == pytest.approx(2 * _kernel_pair_dist(a, b).cells[0], abs=0.005)

    def test_kernel_law_extremes(self):
        # b = a puts every z word in the cap, b = -a none.
        a = Direction(1, 0, 0)
        assert _kernel_pair_dist(a, a).cells == (0.5, 0.0, 0.0, 0.5)
        assert _kernel_pair_dist(a, -a).cells == (0.0, 0.5, 0.5, 0.0)


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
        # The kernel's exact law over the hidden lambda is the one-device table.
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            assert cell_dev(_kernel_pair_dist(a, b), local_pair_dist(a, b)) < 1e-12


class TestSimulate:
    def test_aligned_local_deterministic_cells(self):
        from eprbell.hvsim import _cos_threshold, _z_word_bound

        a = Direction(0, 0, 1)
        # b = a fills the cap (t = -1, every word inside); b = -a empties it
        # (t = +1, no word inside). The cells that must stay exactly empty
        # are (+-, -+), indices 1 and 2, when the reported signs always
        # agree, else (++, --), indices 0 and 3.
        for b, bound in ((a, -1), (-a, 2**64 - 1)):
            assert _z_word_bound(_cos_threshold(a, b)) == bound
            for mode in ("local", "singlet"):
                rep = simulate(a, b, 100_000, seed=0, mode=mode)
                agree = (b == a) == (mode == "local")
                empty = [1, 2] if agree else [0, 3]
                assert all(rep.empirical[cell] == 0.0 for cell in empty), (b, mode)
                assert rep.max_abs_dev < 0.01

    def test_kernel_gets_contract_threshold(self, monkeypatch):
        """simulate hands the kernel the word bound of t = cos(acos(-a.b)).
        At the CLI geometry (b at 60 degrees) it differs from the bound of
        -a.b, a misreading the golden counts miss: no drawn z falls in the
        ulp between the two."""
        from eprbell import hvsim

        seen = []

        def stub(seed, k, count, z_word_bound, singlet):
            seen.append(z_word_bound)
            return np.array([count, 0, 0, 0], dtype=np.int64)

        monkeypatch.setattr(hvsim, "_simulate_block", stub)
        a, b = Direction.from_angle(0.0), Direction.from_angle(math.radians(60))
        simulate(a, b, 2 * BLOCK_SIZE, seed=0)
        contract = hvsim._z_word_bound(math.cos(math.acos(-a.cos_to(b))))
        assert contract != hvsim._z_word_bound(-a.cos_to(b))
        assert seen == [contract, contract]

    def test_singlet_sixty_degrees(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(math.pi / 3)
        rep = simulate(a, b, 1_000_000, seed=42, mode="singlet")
        assert rep.theta_ab_rad == pytest.approx(math.pi / 3, abs=1e-12)
        assert np.allclose(rep.theoretical.cells, qm_pair_dist(a, b).cells)
        assert rep.max_abs_dev < 0.005
        assert rep.empirical[1] == pytest.approx(0.375, abs=0.005)  # (+, -)

    def test_modes_related_by_column_flip(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(1.0)
        loc = simulate(a, b, 200_000, seed=9, mode="local")
        sing = simulate(a, b, 200_000, seed=9, mode="singlet")
        pp, pm, mp, mm = sing.empirical
        assert loc.empirical == (pm, pp, mm, mp)

    def test_deterministic_across_threads(self):
        a = Direction.from_angle(0.0)
        b = Direction.from_angle(0.7)
        n = 11 * BLOCK_SIZE + 123  # more blocks than the 2 * workers kept in flight
        reports = [
            simulate(a, b, n, seed=11, mode="singlet", threads=t) for t in (1, 2, 8)
        ]
        for rep in reports[1:]:
            assert rep.empirical == reports[0].empirical
            assert rep.chi_square == reports[0].chi_square

    def test_chi_square_summation_order(self):
        """chi_square adds its terms left to right, each squared as d * d: at
        this input math.fsum, a compensated sum() (Python 3.12 and later), a
        right-to-left or pairwise sum and d ** 2 all give 6.5364583333333135."""
        a, b = Direction.from_angle(0.0), Direction.from_angle(math.radians(60))
        rep = simulate(a, b, 4096, seed=415, mode="singlet")
        assert counts_of(rep).tolist() == [463, 1589, 1531, 513]
        assert repr(rep.chi_square) == "6.536458333333314"

    def test_seed_sensitivity(self):
        a, b = Direction.from_angle(0.0), Direction.from_angle(0.7)
        r1 = simulate(a, b, 10_000, seed=1)
        r2 = simulate(a, b, 10_000, seed=2)
        assert r1.empirical != r2.empirical

    def test_chi_square_calibrated(self, rng):
        # chi-square with 3 dof (or fewer when cells are empty) should not be
        # wildly inconsistent with the model over repeated random geometries
        for trial in range(20):
            a, b = random_direction(rng), random_direction(rng)
            rep = simulate(a, b, 1_000_000, seed=trial, mode="singlet")
            dof = sum(p > 0 for p in rep.theoretical.cells) - 1
            p = chi2_sf(rep.chi_square, dof)
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
        # Counts and seeds must be integers, checked before any block runs:
        # within one block, as past it.
        for n in (10, BLOCK_SIZE + 1):
            with pytest.raises(TypeError):
                simulate(a, a, n, seed=0, threads=2.0)
        with pytest.raises(TypeError):
            simulate(a, a, 1.5, seed=0)
        report = simulate(a, a, 10, seed=True)
        assert report.seed == 1 and type(report.seed) is int

    @pytest.mark.fresh_interpreter
    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_independent_of_n(self, monkeypatch, threads):
        """No per-block list: with a stub kernel, a run of 2^30 samples (16,384
        blocks) holds at most 2 * workers block results at once, and its
        traced peak stays far below one object per block."""
        import os
        import threading
        import tracemalloc
        import weakref
        from eprbell import hvsim

        held, peak_held = [0], [0]
        lock = threading.Lock()  # the stub and the finalizers run on worker threads

        def release():
            with lock:
                held[0] -= 1

        def stub(seed, k, count, z_word_min, singlet):
            out = np.array([count, 0, 0, 0], dtype=np.int64)
            with lock:
                held[0] += 1
                peak_held[0] = max(peak_held[0], held[0])
            weakref.finalize(out, release)
            return out

        monkeypatch.setattr(hvsim, "_simulate_block", stub)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            rep = simulate(Direction(1, 0, 0), Direction(0, 1, 0), 1 << 30, seed=1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.empirical == (1.0, 0.0, 0.0, 0.0)
        assert peak_held[0] <= 2 * threads
        assert peak < 256 * 1024

    @pytest.mark.parametrize("threads, cpus, blocks, workers", [
        (10**6, 4, 8, 4), (10**6, 16, 3, 3), (2, 16, 8, 2), (8, 1, 8, None), (8, None, 8, None),
    ])
    def test_pool_capped(self, monkeypatch, threads, cpus, blocks, workers):
        """At most min(threads, blocks, CPUs) workers; no pool when that is 1.
        The stand-in pool runs the blocks inline, so no thread starts."""
        import concurrent.futures
        import os

        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        a, b = Direction(1, 0, 0), Direction(0, 1, 0)
        rep = simulate(a, b, blocks * BLOCK_SIZE, seed=5, threads=threads)
        assert seen == ([] if workers is None else [workers])
        assert rep.empirical == simulate(a, b, blocks * BLOCK_SIZE, seed=5).empirical


GENERAL_A = Direction(0.36, -0.48, 0.8)


class TestGoldenCounts:
    """Exact (++, +-, -+, --) counts of reproducibility contract 2: fixed
    blocks, per-block SeedSequence((seed, k)), a cap on +z decided by z
    alone. A block of ``count`` samples takes, in 64-bit PCG64 words,
    ``count`` words for z (z = -1 + (w >> 11) * 2**-52), ``count`` words
    skipped in the azimuth slot, then ceil(count / 2) words for the pair
    signs: 32-bit halves, low half first, and A(a) = -1 exactly when the
    half's top bit is 0.

    Recorded with numpy 2.4.6 on a 2-vCPU Intel Xeon (x86-64). The counts
    depend only on numpy's PCG64 stream, which NEP 19 keeps stable, and on
    math.cos and math.acos through the threshold; a mismatch on another
    platform is a platform difference, not a reason to loosen this test.
    """

    GOLDEN = [
        # CLI geometry: a = x axis, b at 60 degrees; the last block is partial.
        (Direction.from_angle(0.0), Direction.from_angle(math.radians(60)),
         3 * BLOCK_SIZE + 123, 11, "singlet", [24430, 73868, 73614, 24819]),
        (GENERAL_A, Direction(0.48, 0.6, 0.64),
         3 * BLOCK_SIZE + 123, 5, "local", [68637, 29672, 29628, 68794]),
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
        assert counts_of(rep).astype(np.int64).tolist() == counts


def _read_block(words, count, cos_threshold, singlet, z_shift=11, skip_azimuth=True, low_half_first=True):
    """Counts (++, +-, -+, --) of one block of ``count`` samples, read from the
    block's 64-bit words as contract 2 states them; the keywords are the
    contract's defaults, and other values are misreadings."""
    z_words = words[:count]
    sign_start = 2 * count if skip_azimuth else count
    halves = []
    for w in words[sign_start:sign_start + (count + 1) // 2]:
        low, high = w & 0xFFFFFFFF, w >> 32
        halves += (low, high) if low_half_first else (high, low)
    counts = [0, 0, 0, 0]
    for w, half in zip(z_words, halves):
        c = 1 if -1.0 + (w >> z_shift) * 2.0**-52 >= cos_threshold else -1
        first = -1 if half < 1 << 31 else 1
        second = -first * c if singlet else first * c
        counts[(first < 0) * 2 + (second < 0)] += 1
    return counts


SPEC_READERS = {
    "contract": {},
    "high half first": {"low_half_first": False},
    "z shifted by 12": {"z_shift": 12},
    "no azimuth slot": {"skip_azimuth": False},
}


@pytest.fixture(scope="module")
def spec_counts():
    """Counts of every TestGoldenCounts case under every reader of
    SPEC_READERS, keyed (case index, reader name), from the pure-Python
    PCG64 words. Cases with the same seed and n share their blocks' words,
    which are generated once."""
    groups = {}
    for i, (a, b, n, seed, mode, _) in enumerate(TestGoldenCounts.GOLDEN):
        # The contract's threshold t = cos(acos(-c)), c = a.b clamped to [-1, 1].
        cos_threshold = math.cos(math.acos(-a.cos_to(b)))
        groups.setdefault((seed, n), []).append((i, cos_threshold, mode == "singlet"))
    out = {}
    for (seed, n), cases in groups.items():
        for k in range(-(-n // BLOCK_SIZE)):
            count = min(BLOCK_SIZE, n - k * BLOCK_SIZE)
            bits = pcg64_ref.PCG64(pcg64_ref.SeedSequence((seed, k)))
            words = bits.random_raw(2 * count + (count + 1) // 2)
            for i, cos_threshold, singlet in cases:
                for name, misreading in SPEC_READERS.items():
                    block = _read_block(words, count, cos_threshold, singlet, **misreading)
                    total = out.setdefault((i, name), [0, 0, 0, 0])
                    total[:] = [x + y for x, y in zip(total, block)]
    return out


class TestSpecRoute:
    """Contract 2 from its written spec: a pure-Python SeedSequence and PCG64
    (tests/pcg64_ref.py), the cap threshold as the contract states it, and a
    reader of their words that shares no code with numpy or hvsim. A numpy
    change to either algorithm fails ``test_matches_numpy`` on its own, not
    only as a golden-count mismatch."""

    @pytest.mark.parametrize("seed, block", [(3, 0), (11, 2), (2**40 + 5, 7), (5, 2**33)])
    def test_matches_numpy(self, seed, block):
        ours = pcg64_ref.SeedSequence((seed, block))
        theirs = np.random.SeedSequence((seed, block))
        assert ours.generate_state(4) == theirs.generate_state(4, np.uint64).tolist()
        ours, theirs = pcg64_ref.PCG64(ours), np.random.PCG64(theirs)
        assert ours.random_raw(64) == theirs.random_raw(64).tolist()
        ours.advance(1000)
        theirs.advance(1000)
        assert ours.random_raw(64) == theirs.random_raw(64).tolist()

    @pytest.mark.parametrize("case", range(len(TestGoldenCounts.GOLDEN)))
    def test_golden_counts(self, spec_counts, case):
        assert spec_counts[case, "contract"] == TestGoldenCounts.GOLDEN[case][-1]

    @pytest.mark.parametrize("reader", [name for name in SPEC_READERS if name != "contract"])
    def test_misreading_breaks_goldens(self, spec_counts, reader):
        golden = [case[-1] for case in TestGoldenCounts.GOLDEN]
        assert [spec_counts[i, reader] for i in range(len(golden))] != golden


def _staged_block(seed, k, count, part, singlet, classify=classify):
    """One block through the staged functions, the fused kernel's oracle."""
    rng = block_rng(seed, k)
    first, second = sample_pair_given_c(classify(sample_lambda(rng, count), part), rng)
    if singlet:
        second = -second
    return np.bincount((first < 0) * 2 + (second < 0), minlength=4)


def _sweep_axes():
    rng = np.random.default_rng(4)
    unit = lambda *v: direction_from_array(np.array(v) / np.linalg.norm(v))
    return [
        Direction(1, 0, 0), -Direction(1, 0, 0), Direction(0, 1, 0), Direction(0, 0, -1),
        unit(0.6, -0.8, 0.0), unit(1.0, 0.0, -1.0), unit(0.0, -2.0, 1.0),
    ] + [random_direction(rng) for _ in range(3)]


# Values of a.b, and so cap thresholds: both extremes (whole sphere, empty
# cap), 120 and 90 degrees, an acute angle and two random values.
SWEEP_DOTS = [-1.0, -0.5, 0.0, 0.3, 1.0] + np.random.default_rng(5).uniform(-1.0, 1.0, 2).tolist()


def _direction_at_dot(a, x):
    """A direction b with a.b = x (to rounding)."""
    v = as_array(a)
    w = np.cross(v, [0.0, 0.0, 1.0] if abs(v[2]) < 0.9 else [1.0, 0.0, 0.0])
    return direction_from_array(x * v + math.sqrt(1.0 - x * x) * w / np.linalg.norm(w))


def _edge_cases():
    """(seed, block, count, threshold) cases for the raw-word kernel."""
    rng = np.random.default_rng(20261018)
    cases = [
        (int(rng.integers(2**32)), int(rng.integers(1_000)), int(rng.integers(1, 2_049)),
         float(rng.uniform(-1.0, 1.0)))
        for _ in range(2_000)
    ]
    # Counts 1, 3 and 65,535 leave the high half of the last sign word unused.
    for count in (1, 3, 65_535, BLOCK_SIZE):
        cases += [(9, 4, count, t) for t in (-1.0, 1.0, 0.25)]
    # Thresholds at drawn z values and one ulp either side, the extremes included.
    for seed, k, count in ((2, 0, 4_096), (31, 7, 65_535)):
        z = block_rng(seed, k).uniform(-1.0, 1.0, count)
        for zi in [z.min(), z.max()] + rng.choice(z, 10).tolist():
            cases += [(seed, k, count, float(t)) for t in (np.nextafter(zi, -2.0), zi, np.nextafter(zi, 2.0))]
    return cases


class TestFusedBlock:
    @pytest.mark.parametrize("axis", _sweep_axes())
    def test_matches_staged_route(self, axis):
        """For device direction a = ``axis`` and b at each swept a.b, the fused
        kernel, given only the cap threshold, equals the staged route on
        for_directions' partition bit for bit."""
        from eprbell.hvsim import _simulate_block, _z_word_bound

        for x in SWEEP_DOTS:
            part = PartitionSpec.for_directions(axis, _direction_at_dot(axis, x))
            for singlet in (False, True):
                for seed, k, count in ((17, 0, BLOCK_SIZE), (0, 3, 1_000), (12345, 1, 1)):
                    expected = _staged_block(seed, k, count, part, singlet)
                    got = _simulate_block(seed, k, count, _z_word_bound(part.cos_threshold), singlet)
                    assert np.array_equal(got, expected)

    def test_matches_staged_route_at_the_edges(self):
        """The kernel reads raw PCG64 words; the staged route draws through
        numpy's ``uniform`` and ``integers``. They agree bit for bit on random
        cases, at t = -1 and t = +1, at thresholds equal to a drawn z and one
        ulp either side, and on odd counts. If a numpy release changes
        ``uniform`` or ``integers``, this test fails while TestGoldenCounts,
        which depends only on the PCG64 stream, still passes."""
        from eprbell.hvsim import _simulate_block, _z_word_bound

        for i, (seed, k, count, t) in enumerate(_edge_cases()):
            singlet = i % 2 == 1
            got = _simulate_block(seed, k, count, _z_word_bound(t), singlet)
            expected = _staged_block(seed, k, count, PartitionSpec(t), singlet)
            assert np.array_equal(got, expected), (seed, k, count, t, singlet)

    def test_word_on_the_bound_is_outside(self):
        """A drawn z word w whose low 11 bits are all ones is the bound of the
        threshold t one z step above it: _z_word_bound(t) == w, so w lies just
        below the cap. Random thresholds almost never put a drawn word on the
        bound; here the kernel, the staged route and the contract's words read
        by tests/pcg64_ref.py must all count that sample outside."""
        from eprbell.hvsim import _simulate_block, _z_word_bound

        seed, k, count = 2, 0, 4_096
        words = pcg64_ref.PCG64(pcg64_ref.SeedSequence((seed, k))).random_raw(2 * count + (count + 1) // 2)
        w = next(x for x in words[:count] if x & 0x7FF == 0x7FF)
        t = -1.0 + ((w >> 11) + 1) * 2.0**-52
        assert _z_word_bound(t) == w
        for singlet in (False, True):
            got = _simulate_block(seed, k, count, w, singlet)
            assert got.tolist() == _read_block(words, count, t, singlet)
            assert np.array_equal(got, _staged_block(seed, k, count, PartitionSpec(t), singlet))


# (++, +-, -+, --) cell probabilities of the exact tables, row-major as in PairDist.
def _exact_cells(theta_deg, mode):
    a, b = Direction.from_angle(0.0), Direction.from_angle(math.radians(theta_deg))
    return np.array((qm_pair_dist(a, b) if mode == "singlet" else local_pair_dist(a, b)).cells)


class TestContractV2Law:
    """Contract 2 changes which samples land in the cap, not the law of the
    counts: they fit the exact tables and the contract-1 law (cap on a)."""

    @pytest.mark.parametrize("mode", ["local", "singlet"])
    @pytest.mark.parametrize("theta_deg", [0, 30, 60, 90, 120, 180])
    def test_goodness_of_fit(self, theta_deg, mode):
        n = 1_000_000
        a, b = Direction.from_angle(0.0), Direction.from_angle(math.radians(theta_deg))
        rep = simulate(a, b, n, seed=theta_deg, mode=mode)
        counts = counts_of(rep)
        p = _exact_cells(theta_deg, mode)
        empty = p < 1e-12  # theta 0 and 180 leave two cells with probability ~0
        assert np.all(counts[empty] == 0)
        chi2 = float(np.sum((counts[~empty] - n * p[~empty]) ** 2 / (n * p[~empty])))
        assert chi2_sf(chi2, int(np.sum(~empty)) - 1) > 0.001

    @pytest.mark.parametrize("a, b", [
        (Direction.from_angle(0.0), Direction.from_angle(math.radians(60))),
        (GENERAL_A, Direction(0.48, 0.6, 0.64)),
        (GENERAL_A, Direction(0.0, 0.6, -0.8)),
    ])
    @pytest.mark.parametrize("singlet", [False, True])
    def test_matches_contract_v1_law(self, a, b, singlet):
        """simulate() against the staged route with the cap centred on a, on
        independent seeds: a chi-square test of homogeneity on the 2x4 table."""
        blocks = 8
        n = blocks * BLOCK_SIZE
        rep = simulate(a, b, n, seed=3, mode="singlet" if singlet else "local")
        v2 = counts_of(rep)

        def classify_on_a(lam, part):
            """Contract 1's cap: the same threshold, centred on a."""
            return np.where(lam @ as_array(a) >= part.cos_threshold, 1, -1)

        part = PartitionSpec.for_directions(a, b)
        v1 = sum(_staged_block(1000, k, BLOCK_SIZE, part, singlet, classify_on_a) for k in range(blocks))
        stat, df = homogeneity_chi2(np.array([v1, v2]))
        assert df == 3
        assert chi2_sf(stat, df) > 0.001


class TestProductRuleDemo:
    def test_targets(self):
        estimates = product_rule_demo(Direction(0, 0, 1), n=200_000, seed=0)
        by_label = {e.label: e for e in estimates}
        assert by_label["b = a"].estimate == pytest.approx(0.0, abs=1e-12)
        assert by_label["b = -a"].estimate == pytest.approx(1.0, abs=1e-12)
        assert by_label["b orthogonal"].estimate == pytest.approx(0.5, abs=0.01)
        # The estimate is cell (+, +) over the column B(b) = +1, not the row.
        rep = simulate(Direction(0, 0, 1), by_label["b orthogonal"].b, 200_000, 0, mode="singlet")
        pp, pm, mp, _ = rep.empirical
        assert by_label["b orthogonal"].estimate == pp / (pp + mp) != pp / (pp + pm)
        # three different conditionals for the same a: the outcome at one
        # device depends on the remote setting, not on (lambda, a) alone
        values = sorted(e.target for e in estimates)
        assert values == [0.0, 0.5, 1.0]
