"""Stochastic hidden-variable simulation of the single-device spin pair.

Each sample draws a hidden unit vector lambda uniformly on the sphere,
classifies it into one of two regions whose areas are 2*pi*(1 +- a.b), which
fixes the product C = A(a)*A(b), and then draws the pair (A(a), A(b)) from
the C-conditional half/half table. Mixing over lambda reproduces the
single-device table exactly; mapping B(b) = -A(b) (total-spin conservation)
reproduces the two-device singlet table. Only the cap's area matters, so it
sits on +z: by Archimedes' hat-box theorem z is uniform on [-1, 1], and a
sample is in the cap exactly when its z reaches the cap's cosine threshold.

Reproducibility contract ``CONTRACT`` (2): samples come in fixed blocks of
65,536. Block k of a run with seed s reads the PCG64 stream of
``numpy.random.SeedSequence((s, k))``. The cap's cosine threshold is
t = cos(acos(-c)) in double precision (``math.cos``, ``math.acos``), where
c = a.b clamped to [-1, 1] (``Direction.cos_to``); rounding makes t differ
from -c for about half of all c. Counting in 64-bit words, a block of
``count`` samples takes:

- ``count`` words for z, one per sample: word w gives
  z = -1 + (w >> 11) * 2**-52, and the sample is in the cap when z >= t;
- ``count`` words skipped, the azimuth slot;
- ceil(count / 2) words for the pair signs, two per word: the 32-bit halves
  in order, low half first, and A(a) = -1 exactly when the half's top bit
  is 0.

Totals are integer counts summed over blocks, so results are bit-identical
for any worker count.

The fused kernel ``_simulate_block`` reads these words with ``random_raw``
and decides the cap from them in exact integer arithmetic. The staged public
functions ``block_rng``, ``sample_lambda``, ``classify`` and
``sample_pair_given_c``, chained on the threshold of
``PartitionSpec.for_directions``, are its reference route and give the same
counts through numpy's ``uniform`` and ``integers``; the tests compare the
two.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import Direction
from .spincore import PairDist, cell_keys, local_pair_dist, qm_pair_dist

BLOCK_SIZE = 65_536
CONTRACT = 2  # version of the reproducibility contract; 2 puts the cap on +z


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent generator for one sample block of a seeded run."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block_index))))


def sample_lambda(rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Uniform points on the unit sphere, shape (n, 3).

    z is uniform on [-1, 1] and the azimuth uniform on [0, 2*pi); draw order
    (z first, then azimuth) is part of the reproducibility contract.
    """
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def _cos_threshold(a: Direction, b: Direction) -> float:
    """Contract 2's cap threshold t = cos(acos(-a.b)): the +z cap z >= t has
    area 2*pi*(1 + a.b)."""
    return math.cos(math.acos(-a.cos_to(b)))


@dataclass(frozen=True)
class PartitionSpec:
    """The +z spherical cap z >= ``cos_threshold`` whose area is
    2*pi*(1 + a.b) for device directions (a, b); only the area enters the
    outcome probabilities."""

    cos_threshold: float

    @classmethod
    def for_directions(cls, a: Direction, b: Direction) -> "PartitionSpec":
        return cls(_cos_threshold(a, b))


def classify(lam: np.ndarray, part: PartitionSpec) -> np.ndarray:
    """C = +1 where lambda lies in the cap (boundary counts as inside), else -1."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    return np.where(lam[:, 2] >= part.cos_threshold, 1, -1)


def p_c_analytic(a: Direction, b: Direction) -> dict[int, float]:
    """P[C = c] = (1 + c * a.b) / 2, the cap-area ratio."""
    x = a.cos_to(b)
    return {1: 0.5 * (1.0 + x), -1: 0.5 * (1.0 - x)}


def sample_pair_given_c(c, rng: np.random.Generator):
    """Draw (A(a), A(b)) from the C-conditional table: A(a) is a fair sign
    and A(b) = A(a) * C, so A(a)*A(b) = C always."""
    c = np.asarray(c)
    s = np.where(rng.integers(0, 2, c.shape) == 1, 1, -1)
    return s, s * c


def mixture_pair_dist(a: Direction, b: Direction) -> PairDist:
    """Analytic mixture sum over C of P[pair | C] * P[C]; equals the
    single-device table entrywise."""
    pc = p_c_analytic(a, b)
    equal = 0.5 * pc[1]
    unequal = 0.5 * pc[-1]
    return PairDist((equal, unequal, unequal, equal))


@dataclass(frozen=True)
class SimReport:
    n_samples: int
    seed: int
    mode: str
    theta_ab_rad: float
    empirical: np.ndarray  # 2x2 frequency table, same indexing as PairDist
    theoretical: PairDist
    max_abs_dev: float
    chi_square: float
    contract: int = CONTRACT

    def empirical_mapping(self) -> dict[str, float]:
        return dict(zip(cell_keys(2), self.empirical.ravel().tolist()))


def _z_word_bound(cos_threshold: float) -> int:
    """Largest word w with z = -1 + (w >> 11) * 2**-52 below cos_threshold:
    a word is in the cap exactly when it exceeds this bound, so -1 puts
    every word inside and 2**64 - 1 none.

    Every such z is exact, so z >= t holds exactly when w >> 11 >= K with
    K = ceil((t + 1) * 2**52), computed here in integers from t = p / q.
    """
    p, q = cos_threshold.as_integer_ratio()
    k = -(-((p + q) << 52) // q)
    return (k << 11) - 1


def _simulate_block(seed: int, block_index: int, count: int, z_word_bound: int, singlet: bool) -> np.ndarray:
    """Counts (++, +-, -+, --) of one block: block_rng -> sample_lambda ->
    classify -> sample_pair_given_c -> bincount on a +z cap fused into one
    pass over the contract's raw words.

    ``z_word_bound`` is ``_z_word_bound`` of the cap's cosine threshold. The
    cap test needs z alone, so the azimuth words are skipped with ``advance``.
    """
    words = block_rng(seed, block_index).bit_generator
    # The z words are compared and dropped at once: holding them while the
    # sign words were drawn made the block about twice as slow.
    inside = words.random_raw(count) > z_word_bound
    words.advance(count)
    # '<u4' reads each word's low half first on any byte order.
    halves = words.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<u4")
    first_neg = halves[:count] < 1 << 31  # A(a) = -1
    # A(b) = A(a) * C is -1 when exactly one of A(a) and C is -1; singlet
    # mode reports B(b) = -A(b).
    second_neg = first_neg ^ inside if singlet else first_neg == inside
    f = np.count_nonzero(first_neg)
    s = np.count_nonzero(second_neg)
    fs = np.count_nonzero(first_neg & second_neg)
    return np.array([count - f - s + fs, s - fs, f - fs, fs], dtype=np.int64)


def simulate(
    a: Direction,
    b: Direction,
    n: int,
    seed: int,
    mode: str = "local",
    threads: int = 1,
) -> SimReport:
    """Run the hidden-variable pipeline for n samples.

    mode="local" targets the single-device table for (A(a), A(b));
    mode="singlet" maps B(b) = -A(b) and targets the two-device table for
    (A(a), B(b)). Output is bit-identical for any ``threads`` value; at most
    min(threads, blocks, CPUs) worker threads run.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    if mode not in ("local", "singlet"):
        raise InvalidInputError(f"mode must be 'local' or 'singlet', got {mode!r}")
    z_word_bound = _z_word_bound(_cos_threshold(a, b))
    singlet = mode == "singlet"

    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    workers = min(threads, n_blocks, os.cpu_count() or 1)

    def stripe(j: int) -> np.ndarray:
        """Counts of blocks j, j + workers, j + 2 * workers, ...: a worker
        holds one block result at a time, so memory does not grow with n."""
        total = np.zeros(4, dtype=np.int64)
        for k in range(j, n_blocks, workers):
            total += _simulate_block(seed, k, min(BLOCK_SIZE, n - k * BLOCK_SIZE), z_word_bound, singlet)
        return total

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        # Integer sums do not depend on which worker counted which block.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stripes = [pool.submit(stripe, j) for j in range(workers)]
            counts = sum(f.result() for f in stripes)
    else:
        counts = stripe(0)
    counts = counts.reshape(2, 2)

    theoretical = qm_pair_dist(a, b) if singlet else local_pair_dist(a, b)
    empirical = counts / n
    max_abs_dev = float(np.max(np.abs(empirical - theoretical.table)))
    expected = n * theoretical.table
    drawn = expected > 0
    chi_square = float(((counts - expected)[drawn] ** 2 / expected[drawn]).sum())
    return SimReport(
        n_samples=n,
        seed=seed,
        mode=mode,
        theta_ab_rad=a.angle_to(b),
        empirical=empirical,
        theoretical=theoretical,
        max_abs_dev=max_abs_dev,
        chi_square=chi_square,
    )


@dataclass(frozen=True)
class ProductRuleEstimate:
    label: str
    b: Direction
    estimate: float
    target: float


def _orthogonal_to(a: Direction) -> Direction:
    v = a.as_array()
    helper = np.array([0.0, 0.0, 1.0]) if abs(v[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    w = np.cross(v, helper)
    return Direction.from_array(w / np.linalg.norm(w))


def product_rule_demo(a: Direction, n: int = 1_000_000, seed: int = 0) -> list[ProductRuleEstimate]:
    """Estimate P[A(a)=1 | B(b)=1] in singlet mode for b = a, b = -a and an
    orthogonal b. The estimates (targets 0, 1, 1/2) depend on b, so no
    conditional of the form P[A(a) | lambda, a] alone can reproduce them."""
    cases = [("b = a", a, 0.0), ("b = -a", -a, 1.0), ("b orthogonal", _orthogonal_to(a), 0.5)]
    out = []
    for label, b, target in cases:
        rep = simulate(a, b, n, seed, mode="singlet")
        # P[A(a)=1 | B(b)=1] from counts: cell (+,+) over column B=+1.
        pp = rep.empirical[0, 0]
        mp = rep.empirical[1, 0]
        denom = pp + mp
        estimate = float(pp / denom) if denom > 0 else float("nan")
        out.append(ProductRuleEstimate(label, b, estimate, target))
    return out
