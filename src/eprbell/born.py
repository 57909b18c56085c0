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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import Direction
from .spincore import _idx

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_PAULI = np.stack([_SIGMA_X, _SIGMA_Y, _SIGMA_Z])
_SIGN_VALUES = np.array([1.0, -1.0])  # sign index 0 is +1, as in spincore.SIGNS


@dataclass(frozen=True)
class SingletState:
    """Two-spin state with amplitudes (0, 1, -1, 0)/sqrt(2) up to a global phase."""

    amplitudes: np.ndarray = field(
        default_factory=lambda: np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    )

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (4,):
            raise InvalidInputError(f"state needs 4 amplitudes, got shape {amp.shape}")
        if abs(np.vdot(amp, amp).real - 1.0) > 1e-12:
            raise InvalidInputError("state is not normalized")
        reference = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
        overlap = abs(np.vdot(reference, amp))
        if abs(overlap - 1.0) > 1e-9:
            raise InvalidInputError("amplitudes are not the singlet state up to a phase")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def with_phase(self, phase: float) -> "SingletState":
        return SingletState(self.amplitudes * np.exp(1j * phase))


def _projectors(n: np.ndarray) -> np.ndarray:
    """Projectors (I + s * n.sigma) / 2 for unit vectors ``n`` of shape
    (k, 3), stacked as (k, 2, 2, 2): trial, sign index (0 is +1), row,
    column."""
    n_sigma = (n @ _PAULI.reshape(3, 4)).reshape(-1, 1, 2, 2)
    return 0.5 * (_I2 + _SIGN_VALUES[:, None, None] * n_sigma)


def spin_projector(n: Direction, s: int) -> np.ndarray:
    """2x2 projector (I + s * n.sigma) / 2 onto spin s along direction n."""
    return _projectors(n.as_array()[None])[0, _idx(s)]


def singlet_pair_probs(a, b, state: SingletState | None = None) -> np.ndarray:
    """Born-rule probabilities of all four outcome pairs at k orientation
    pairs. ``a`` and ``b`` are (k, 3) arrays of unit vectors; entry
    [i, j, l] of the (k, 2, 2) result is the probability of outcomes
    (alpha, beta) at orientations (a[i], b[i]), where index 0 is +1 and
    index 1 is -1, as in ``PairDist``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[1:] != (3,) or a.shape != b.shape:
        raise InvalidInputError(f"need two (k, 3) direction arrays, got shapes {a.shape} and {b.shape}")
    psi = (state or SingletState()).amplitudes.reshape(2, 2)
    # <psi| P_a(alpha) x P_b(beta) |psi> for every trial and outcome pair.
    value = np.einsum("xy,ksxu,ktyv,uv->kst", psi.conj(), _projectors(a), _projectors(b), psi)
    residue = float(np.max(np.abs(value.imag), initial=0.0))
    if residue > 1e-12:
        raise RuntimeError(f"probability has imaginary residue {residue}")
    return value.real


def singlet_pair_prob(
    a: Direction, b: Direction, alpha: int, beta: int, state: SingletState | None = None
) -> float:
    """Born-rule probability of outcomes (alpha, beta) at orientations (a, b):
    the one-trial case of ``singlet_pair_probs``."""
    i, j = _idx(alpha), _idx(beta)
    return float(singlet_pair_probs(a.as_array()[None], b.as_array()[None], state)[0, i, j])
