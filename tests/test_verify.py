import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from eprbell import verify


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
    calls = plant(monkeypatch, [(700, cell, 1e-9)])
    r = verify.run_all(1000, 0)[0]
    assert not r.passed
    assert r.max_dev == pytest.approx(1e-9, rel=1e-6)
    a, b = calls[700]
    assert r.detail.endswith(f"at a={a}, b={b}")


def test_detail_names_worst_trial_across_chunks(monkeypatch):
    worst = verify.CHUNK + 5
    calls = plant(monkeypatch, [(3, 0, 1e-9), (worst, 2, -3e-9), (worst + 1, 1, 2e-9)])
    r = verify.run_all(verify.CHUNK + 10, 0)[0]
    assert not r.passed
    assert r.max_dev == pytest.approx(3e-9, rel=1e-6)
    a, b = calls[worst]
    assert r.detail == f"qm_pair_dist disagrees with wave-function route at a={a}, b={b}"


@pytest.mark.parametrize("call, failing", [(500, 1), (1500, 2)])
def test_planted_local_defect_fails_its_own_check(monkeypatch, call, failing):
    # With 1,000 trials, verify.local_pair_dist serves the round trip in
    # calls 0-999 and the mixture identity in calls 1000-1999. Both rebuild
    # a PairDist from the planted cells, so the shift keeps the sum at one.
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


def test_clean_run_reports_worst_deviation():
    results = verify.run_all(trials=200, seed=5)
    assert [r.name for r in results] == [
        "born_vs_qm_pair_dist", "equivalence_round_trip", "hidden_variable_mixture"]
    assert all(r.passed and r.detail == "" and 0.0 <= r.max_dev <= verify.TOL for r in results)


def test_memory_independent_of_trials(monkeypatch):
    # A smaller chunk keeps the traced runs short; the loop is the same.
    monkeypatch.setattr(verify, "CHUNK", 256)

    def peak(trials):
        tracemalloc.start()
        try:
            verify.run_all(trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A full chunk and one more trial: first-use imports, caches and the
    # allocations of a full chunk stay out of the peaks. A full collection
    # empties the interpreter's tuple free lists, and tracemalloc counts their
    # refill (~280 KB, bounded) as live memory; so whether one fell inside a
    # traced run depended on what earlier tests left. None runs here.
    gc.disable()
    try:
        verify.run_all(trials=verify.CHUNK + 1)
        assert peak(4 * verify.CHUNK) <= 1.5 * peak(verify.CHUNK)
    finally:
        gc.enable()
