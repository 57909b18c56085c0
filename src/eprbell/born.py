"""Independent wave-function route to the singlet pair probabilities.

Probabilities come from the quadratic form <psi| P_a(alpha) x P_b(beta) |psi>
with P_n(s) = (I + s * n.sigma) / 2 and the singlet amplitudes
(0, 1, -1, 0)/sqrt(2) over the (up-up, up-down, down-up, down-down) basis.
This route shares no formula with the closed-form pair tables and is used to
cross-validate them; ``singlet_pair_probs`` evaluates it for many
orientation pairs and all four outcome pairs at once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .geometry import Direction
from .spincore import SIGNS, _idx

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = np.stack([_SIGMA_X, _SIGMA_Y, _SIGMA_Z])
_SIGN_VALUES = np.array(SIGNS, dtype=float)
# The singlet amplitudes, indexed psi[first spin, second spin] with 0 as up.
_PSI = (np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)).reshape(2, 2)


def _projectors(n: np.ndarray) -> np.ndarray:
    """Projectors (I + s * n.sigma) / 2 for unit vectors ``n`` of shape
    (k, 3), stacked as (k, 2, 2, 2): trial, sign index (0 is +1), row,
    column."""
    n_sigma = (n @ _PAULI.reshape(3, 4)).reshape(-1, 1, 2, 2)
    return 0.5 * (_I2 + _SIGN_VALUES[:, None, None] * n_sigma)


def spin_projector(n: Direction, s: int) -> np.ndarray:
    """2x2 projector (I + s * n.sigma) / 2 onto spin s along direction n."""
    return _projectors(n.as_array()[None])[0, _idx(s)]


def singlet_pair_probs(a, b) -> np.ndarray:
    """Born-rule probabilities of all four outcome pairs at k orientation
    pairs. ``a`` and ``b`` are (k, 3) arrays of unit vectors; entry
    [i, j, l] of the (k, 2, 2) result is the probability of outcomes
    (alpha, beta) at orientations (a[i], b[i]), where index 0 is +1 and
    index 1 is -1, as in ``PairDist``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1:] != (3,) or a.shape != b.shape:
        raise InvalidInputError(f"need two (k, 3) direction arrays, got shapes {a.shape} and {b.shape}")
    # <psi| P_a(alpha) x P_b(beta) |psi> for every trial and outcome pair.
    value = np.einsum("xy,ksxu,ktyv,uv->kst", _PSI.conj(), _projectors(a), _projectors(b), _PSI)
    residue = float(np.max(np.abs(value.imag), initial=0.0))
    if residue > 1e-12:
        raise RuntimeError(f"probability has imaginary residue {residue}")
    return value.real
