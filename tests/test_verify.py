import gc
import math
import tracemalloc
from types import SimpleNamespace

import pytest

from eprbell import verify
from eprbell.errors import InvalidInputError


def plant(monkeypatch, defects, name="qm_pair_dist", balance=False):
    """Make ``verify.<name>`` return, on call ``n`` (0-based) of each
    ``(n, cell, offset)`` in ``defects``, the real cells with ``cell``
    shifted by ``offset``. With ``balance`` the cell next to it
    (``cell ^ 1``) is shifted by ``-offset``, so the table still sums to
    one. Returns the list of (a, b) of every call."""
    calls = []
    real = getattr(verify, name)
    shifts = {n: (cell, offset) for n, cell, offset in defects}

    def planted(a, b):
        d = real(a, b)
        calls.append((a, b))
        if len(calls) - 1 not in shifts:
            return d
        cell, offset = shifts[len(calls) - 1]
        cells = list(d.cells)
        cells[cell] += offset
        if balance:
            cells[cell ^ 1] -= offset
        return SimpleNamespace(cells=tuple(cells))

    monkeypatch.setattr(verify, name, planted)
    return calls


@pytest.mark.parametrize("cell", range(4))
def test_planted_defect_fails_born_check(monkeypatch, cell):
    # One cell of one trial off by 1e-9: the Born check compares all four
    # cells of every trial, so whichever cell it is, the check fails there.
    # verify.qm_pair_dist serves the Born check in even calls, so call 700
    # is trial 350's.
    calls = plant(monkeypatch, [(700, cell, 1e-9)])
    r = verify.run_all(1000, 0)[0]
    assert not r.passed
    assert r.max_dev == pytest.approx(1e-9, rel=1e-6)
    a, b = calls[700]
    assert r.detail.endswith(f"at a={a}, b={b}")


def test_nan_deviation_counts_as_infinite(monkeypatch):
    # A NaN fails every compare, so a plain max over the cells would pass it.
    calls = plant(monkeypatch, [(700, 1, math.nan)])
    r = verify.run_all(1000, 0)[0]
    assert not r.passed and r.max_dev == math.inf
    a, b = calls[700]
    assert r.detail.endswith(f"at a={a}, b={b}")


def test_detail_names_worst_of_three_planted_defects(monkeypatch):
    # Even calls are the Born check's: trials 3, 500 and 501.
    worst = 1000
    calls = plant(monkeypatch, [(6, 0, 1e-9), (worst, 2, -3e-9), (worst + 2, 1, 2e-9)])
    r = verify.run_all(1000, 0)[0]
    assert not r.passed
    assert r.max_dev == pytest.approx(3e-9, rel=1e-6)
    a, b = calls[worst]
    assert r.detail == f"qm_pair_dist disagrees with wave-function route at a={a}, b={b}"


@pytest.mark.parametrize("call, failing", [(500, 1), (1501, 2)])
def test_planted_local_defect_fails_its_own_check(monkeypatch, call, failing):
    # Trial i calls verify.local_pair_dist twice: the round trip in call 2i
    # and the mixture identity in call 2i + 1. Both rebuild a PairDist from
    # the planted cells, so the shift keeps the sum at one.
    calls = plant(monkeypatch, [(call, 3, 1e-9)], name="local_pair_dist", balance=True)
    results = verify.run_all(1000, 0)
    assert len(calls) == 2000
    assert [r.passed for r in results] == [k != failing for k in range(3)]
    r = results[failing]
    assert r.max_dev == pytest.approx(1e-9, rel=1e-6)
    a, b = calls[call]
    assert r.detail == f"{verify.CHECKS[failing][1]} at a={a}, b={b}"


def test_planted_kernel_defect_fails_mixture_check(monkeypatch):
    # The mixture check reads the sampler's own cap threshold: with its sign
    # flipped the cap has area 2*pi*(1 - a.b), so the law's cells move by
    # |a.b| / 2, nearly 1/2 at the worst of 1,000 trials. The closed-form
    # tables the other checks compare do not read the threshold.
    from eprbell import hvsim

    real = hvsim._cos_threshold
    monkeypatch.setattr(hvsim, "_cos_threshold", lambda a, b: -real(a, b))
    results = verify.run_all(1000, 0)
    assert [r.passed for r in results] == [True, True, False]
    r = results[2]
    assert r.max_dev == pytest.approx(0.5, abs=1e-3)
    assert r.detail.startswith(f"{verify.CHECKS[2][1]} at a=")


def test_wrong_flip_fails_round_trip_check(monkeypatch):
    # A permutation that is no sign flip: the check compares the permuted
    # local table with qm_pair_dist, and no other check reads the flip. The
    # cells differ by |a.b| / 2, nearly 1/2 at the worst of 1,000 trials.
    # (Both singlet tables are symmetric, pp = mm and pm = mp, so a flip of
    # the first outcome would pass here; test_spincore pins the side.)
    from eprbell.spincore import PairDist

    def rotate(d):
        pp, pm, mp, mm = d.cells
        return PairDist((pm, mp, mm, pp))

    monkeypatch.setattr(verify, "apply_property_I", rotate)
    results = verify.run_all(1000, 0)
    assert [r.passed for r in results] == [True, False, True]
    r = results[1]
    assert r.max_dev == pytest.approx(0.5, abs=1e-2)
    assert r.detail.startswith(f"{verify.CHECKS[1][1]} at a=")


def test_clean_run_reports_worst_deviation():
    results = verify.run_all(trials=200, seed=5)
    assert [r.name for r in results] == [
        "born_vs_qm_pair_dist", "equivalence_round_trip", "hidden_variable_mixture"]
    assert all(r.passed and r.detail == "" and 0.0 <= r.max_dev <= verify.TOL for r in results)


@pytest.mark.parametrize("trials, seed, error", [
    (0, 0, InvalidInputError),
    (10, -1, InvalidInputError),
    # Counts and seeds must be integers: the type is checked before the range.
    (1.5, 0, TypeError),
    (0.5, 0, TypeError),
    # random.Random itself would seed from a float or a string.
    (10, 1.5, TypeError),
    (10, "x", TypeError),
])
def test_rejects_bad_arguments(trials, seed, error):
    with pytest.raises(error):
        verify.run_all(trials, seed)


@pytest.mark.fresh_interpreter
def test_memory_independent_of_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            verify.run_all(trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # tracemalloc counts the refill of the interpreter's free lists (bounded)
    # as live memory, and the first traced runs after start-up refill them,
    # alongside first-use imports and caches: the least of three peaks is the
    # run's own. A full collection empties the tuple free lists again, so
    # whether one fell inside a traced run depended on what earlier tests
    # left. None runs here.
    gc.disable()
    try:
        assert min(peak(1024) for _ in range(3)) <= 1.5 * min(peak(256) for _ in range(3))
    finally:
        gc.enable()
